"""Conformal energy and inner-distortion integrals of cone deformations.

The integrands |DH|^n and K_H depend only on (|x|, t), so every integral
over the upper cone reduces to two variables.  With rho = s(1-w), t = s w
(s = cone norm, w = axis weight) and then u = log(1/s),

    int_{C+} f dX = sigma_{n-2} int_0^inf int_0^1 f~(u, w) (1-w)^{n-2} e^{-nu} du dw,

and multiplying through by s^n = e^{-nu} turns both integrands into
expressions in phi(s), the elasticity g = s phi'/phi, and s itself:

    |DH|^n s^n   = [ (n-1) s^2 + R^2 + P^2 ]^{n/2}
    K_H s^n      = [ (s^2 + R^2) / P^2 + (n-1) ]^{n/2} P s^{n-1}

with P = phi (1 - w(1-g)) = s * (Jacobian determinant) and R = -w phi (1-g)
= s t lambda'(s).  Everything is evaluated through profile_log, which never
materializes s, so the quadrature runs far past the underflow point of e^-u.

u-panels double geometrically as in the one-dimensional E[phi] quadrature;
w-panels refine dyadically toward w = 1 because the K_H integrand varies on
the scale of the elasticity there.  Convergence is certified by rigorous
remainders: the |DH|^n tail reduces to the one-dimensional remainder T(U)
of moduli.energy_tail_bound, available for every built-in family, plus a
first-order term in the elasticity g that integrates exactly; what is left
is at most (K_n / 2n) g(U) phi(U)^n (see the conformal branch below, with
K_n = 4/3 at n = 2).  The K_H tail has a majorant decaying like
e^{-(n-1)U}, because the s^{n-1} factor saves it even when E[phi] barely
converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .deformations import ConeMap, GluedMap, _upper_cone_norm
from .geometry import sample_cone_interior, sphere_surface_area, unit_ball_volume
from .moduli import (EnergyDivergenceError, ModulusFunction,
                     _doubling_quadrature, _energy_diverges, _gl_panel,
                     energy_tail_bound, modulus_energy_detailed)

__all__ = [
    "EnergyResult",
    "conformal_energy_H",
    "inner_distortion_integral",
    "energy_F_monte_carlo",
    "biconformal_energy",
    "energy_modulus_ratio",
]


@dataclass(frozen=True)
class EnergyResult:
    """One energy number with its provenance and an error estimate."""

    value: float
    method: str                  # "tensor_quadrature" | "monte_carlo"
    samples_or_nodes: int
    error_estimate: float
    seed: int | None = None
    status: str = "converged"    # "converged" | "truncated" (tol not certified)
                                 # | "estimated" (Monte Carlo: no certified bound)


# -- quadrature grids ---------------------------------------------------------

@cache
def _w_grid(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0,1] with dyadic panels toward w=1."""
    edges = [0.0] + [1.0 - 2.0 ** (-j) for j in range(1, depth + 1)] + [1.0]
    nodes, weights = zip(*map(_gl_panel, edges[:-1], edges[1:]))
    return np.concatenate(nodes), np.concatenate(weights)


def _panel_value(phi: ModulusFunction, n: int, u: np.ndarray, wu: np.ndarray,
                 kind: str) -> tuple[float, int]:
    """Integral of one (u-panel) x [0,1] cell of the reduced integrand."""
    phi_u, g = phi.profile_log(u)
    g = np.clip(g, 0.0, 1.0)
    # K_H varies on the w-scale of the elasticity near w = 1
    g_end = max(float(g[-1]), 1e-12)
    depth = int(min(40, max(8, math.ceil(-math.log2(g_end)) + 6)))
    w, ww = _w_grid(depth)
    live = phi_u > 0.0
    if not live.any():
        return 0.0, u.size * w.size
    u, wu, phi_u, g = u[live], wu[live], phi_u[live], g[live]
    s = np.exp(-u)
    one_w = (1.0 - w)[None, :]
    P = phi_u[:, None] * (1.0 - w[None, :] * (1.0 - g[:, None]))
    R2 = (phi_u[:, None] * w[None, :] * (1.0 - g[:, None])) ** 2
    if kind == "conformal":
        core = ((n - 1) * (s ** 2)[:, None] + R2 + P * P) ** (n / 2.0)
    else:
        s_pow = np.exp(-(n - 1) * u)
        core = (((s ** 2)[:, None] + R2) / (P * P) + (n - 1)) ** (n / 2.0) \
            * P * s_pow[:, None]
    cell = core * one_w ** (n - 2)
    return float(np.einsum("i,ij,j->", wu, cell, ww)), u.size * w.size


# -- tail treatment -----------------------------------------------------------
#
# Conformal branch.  Write the reduced integrand as [ (n-1)s^2 + phi^2 Q ]^{n/2}
# with Q = (wc)^2 + (1-wc)^2 in [1/2, 1], c = 1 - g.  Beyond u = U the s^2
# part contributes at most
#
#     corr(U) = (n/2) ((n-1)s_U^2 + 2 phi_U^2)^{n/2-1} e^{-2U} / 2
#
# (mean value bound (x+y)^p <= x^p + p y (x+y)^{p-1} integrated in u and w),
# while the main part integrates to W_n(c(u)) phi^n with
# W_n(c) = int_0^1 Q^{n/2} (1-w)^{n-2} dw.  To first order in the elasticity,
#
#     W_n(1 - g) = W_n(1) - W_n'(1) g + R,    |R| <= (K_n / 2) g^2,
#
# where K_n bounds |W_n''| on [0, 1].  With p = n/2, |dQ/dc| <= 2w,
# d^2Q/dc^2 = 4w^2 and Q >= 1/2, and int_0^1 w^2 (1-w)^{n-2} dw = 2/((n-1)n(n+1)),
#
#     K_n = 4p (|p-1| 2^max(0, 2-p) + 2^max(0, 1-p)) 2 / ((n-1) n (n+1))
#
# (4/3 at n = 2, which is W_2'' exactly).  The first-order term integrates
# exactly, int_U^inf phi^n g du = phi(U)^n / n (g is -dlog phi/du), and for a
# g non-increasing on [U, inf) the rest is at most
# (K_n/2) g(U) int_U^inf phi^n g du = (K_n / 2n) g(U) phi(U)^n.  The built-in
# families qualify: power has a constant g, and each iterlog factor's term
# beta_j a_j L_j' / (1 + a_j L_j) decreases.  So the tail is
#
#     W_n(1) T(U) - W_n'(1) phi(U)^n / n,  error <= (K_n / 2n) g(U) phi(U)^n + corr(U),
#
# where T(U) = int_U^inf phi^n du comes from energy_tail_bound, with its own
# bound T_err (0 where closed form).  The error is of order g phi^n rather
# than phi^n, which for iterated logs ends the doubling many panels sooner.

def _w_moment(n: int, weight) -> float:
    """int_0^1 weight(w, Q, p) (1-w)^{n-2} dw with Q = 2w^2 - 2w + 1, p = n/2."""
    w, ww = _w_grid(16)
    q = 2.0 * w * w - 2.0 * w + 1.0
    return float(np.sum(ww * weight(w, q, n / 2.0) * (1.0 - w) ** (n - 2)))


@cache
def _w_reference(n: int) -> float:
    """W_n(1) = int_0^1 (2w^2 - 2w + 1)^{n/2} (1-w)^{n-2} dw."""
    return _w_moment(n, lambda w, q, p: q ** p)


@cache
def _w_slope(n: int) -> float:
    """W_n'(1) = int_0^1 p Q^{p-1} 2w(2w - 1) (1-w)^{n-2} dw."""
    return _w_moment(n, lambda w, q, p: p * q ** (p - 1.0) * 2.0 * w * (2.0 * w - 1.0))


def _w_curvature(n: int) -> float:
    """K_n >= sup of |W_n''| on [0, 1] (see the comment block above)."""
    p = n / 2.0
    return 4.0 * p * (abs(p - 1.0) * 2.0 ** max(0.0, 2.0 - p)
                      + 2.0 ** max(0.0, 1.0 - p)) * 2.0 / ((n - 1) * n * (n + 1))


def _distortion_tail(phi: ModulusFunction, n: int, U: float) -> float:
    """Rigorous bound for the K_H integral beyond u = U.

    With z = 1 - w(1-g) and sigma = s/phi one has P = phi z, s/P = sigma/z
    and R/P = (1-z)/z <= 1/z, so the integrand is at most
    C_n z^{1-n} phi s^{n-1} with C_n = (4 (sigma^2+1) + n-1)^{n/2}, which
    has room to spare ((sigma^2 + n)^{n/2} would do).  sigma = 1/lambda is
    non-increasing in u, so its value at U serves the whole tail, and
    z >= g(u).  The built-in families give g(u) >= c0/(1+u) (iterlog,
    first factor alone) or g = eps (power, the identity at eps = 1),
    leaving a closed-form integral of (1+u)^{n-1} e^{-(n-1)u}.
    """
    phi_U, g_U = phi.profile_log(U)
    if phi_U <= 0.0:
        return 0.0
    sigma = math.exp(-U) / phi_U
    C = (4.0 * (sigma ** 2 + 1.0) + (n - 1)) ** (n / 2.0)
    m = n - 1
    if phi.eps is not None:
        poly = phi.eps ** (1 - n) / m
    else:
        c0 = phi.alpha if phi.depth == 1 else 1.0 / n
        # int_U^inf ((1+u)/c0)^{n-1} e^{-(n-1)(u-U)} du, expanded binomially
        poly = c0 ** (1 - n) * sum(
            math.comb(m, i) * (1.0 + U) ** (m - i) * math.factorial(i) / m ** (i + 1)
            for i in range(m + 1))
    return C * phi_U * math.exp(-m * U) * poly


# -- the tensor quadrature -----------------------------------------------------

def _reduced_quadrature(phi: ModulusFunction, n: int, tol: float, kind: str):
    sigma_factor = sphere_surface_area(n - 2)
    nodes = []

    def panel(u, wu):
        inc, used = _panel_value(phi, n, u, wu, kind)
        nodes.append(used)
        return inc

    def conformal_remainder(U, total, inc):
        T, T_err = energy_tail_bound(phi, n, U)    # int_U^inf phi^n du
        phi_U, g_U = phi.profile_log(U)
        phi_n = phi_U ** n
        s_U = math.exp(-U)
        corr = (n / 2.0) * ((n - 1) * s_U ** 2 + 2.0 * phi_U ** 2) \
            ** (n / 2.0 - 1.0) * math.exp(-2.0 * U) / 2.0
        value = sigma_factor * (total + _w_reference(n) * T - _w_slope(n) * phi_n / n)
        err = sigma_factor * (_w_curvature(n) / (2 * n) * g_U * phi_n + corr + T_err) \
            + 8.0 * np.finfo(float).eps * abs(value)
        return value, err, err <= 0.5 * tol * max(1.0, abs(value))

    def distortion_remainder(U, total, inc):
        tail = _distortion_tail(phi, n, U)
        threshold = tol * max(1.0, abs(total))
        return sigma_factor * total, sigma_factor * (tail + inc), \
            tail <= 0.5 * threshold and inc <= 0.5 * threshold

    remainder = conformal_remainder if kind == "conformal" else distortion_remainder
    return (*_doubling_quadrature(panel, tol, remainder), sum(nodes))


def _quad_energy(m: ConeMap, tol: float, kind: str) -> EnergyResult:
    phi, n = m.phi, m.n
    if _energy_diverges(phi, n):
        raise EnergyDivergenceError(
            f"modulus energy of {phi.describe()} diverges at n={n} "
            "(condition (C3) fails), so the deformation energy is infinite")
    value, err, status, nodes = _reduced_quadrature(phi, n, tol, kind)
    return EnergyResult(value=value, method="tensor_quadrature",
                        samples_or_nodes=nodes, error_estimate=err,
                        status=status)


def conformal_energy_H(m: ConeMap, tol: float = 1e-6) -> EnergyResult:
    """int over the upper cone of |DH|^n by axially reduced quadrature."""
    return _quad_energy(m, tol, "conformal")


def inner_distortion_integral(m: ConeMap, tol: float = 1e-6) -> EnergyResult:
    """int over the upper cone of K_H = |(DH)^{-1}|^n J_H.

    By the change-of-variables identity this equals the conformal energy of
    the inverse map F over the same cone, which is what the Monte-Carlo
    estimator measures directly.
    """
    return _quad_energy(m, tol, "distortion")


# The Monte-Carlo sample keeps this distance from the axis, base and slant,
# where the Jacobian evaluator refuses points.
_MC_MARGIN = 1e-6
_MC_MIN_SAMPLES = 1000


def energy_F_monte_carlo(m: ConeMap, samples: int, seed: int = 0) -> EnergyResult:
    """Monte-Carlo estimate of int over the upper cone of |DF(Y)|^n dY.

    Y is sampled uniformly from the cone trimmed by _MC_MARGIN around the
    axis, base and slant; |DF(Y)| = |(DH)^{-1}| at X = F(Y).  The reported
    error adds to the standard error a bound vol(margins) * (max + mean
    sampled integrand) covering both the untrimmed-volume bias and the
    skipped mass; that factor uses the observed extremes, so it is an
    estimate rather than a certificate.
    """
    if samples < _MC_MIN_SAMPLES:
        raise ValueError(f"need at least {_MC_MIN_SAMPLES} samples")
    n = m.n
    batch = sample_cone_interior(samples, n=n, seed=seed,
                                 exclude_axis_margin=_MC_MARGIN,
                                 exclude_boundary_margin=_MC_MARGIN)
    # F keeps the horizontal part, so |x| of X = F(Y) is the |y| of Y
    rho = _upper_cone_norm(batch.points)
    X = m._solve(batch.points, rho, 1e-12)
    values = m._jacobian(X, rho).inv_hs_norm ** n
    vol = unit_ball_volume(n - 1) / n
    mean = float(np.mean(values))
    std_err = float(np.std(values, ddof=1) / math.sqrt(samples)) * vol
    margin_vol = unit_ball_volume(n - 1) * (_MC_MARGIN ** (n - 1) + 3.0 * _MC_MARGIN)
    margin_term = margin_vol * float(np.max(values) + mean)
    return EnergyResult(value=mean * vol, method="monte_carlo",
                        samples_or_nodes=samples,
                        error_estimate=std_err + margin_term, seed=seed,
                        status="estimated")


def biconformal_energy(g: GluedMap, tol: float = 1e-6) -> EnergyResult:
    """Total stored energy E[H] + E[F] of the glued pair over the double cone.

    By reflection symmetry both terms assemble from the same two upper-cone
    integrals: each of H and F contributes one |DH|^n cone integral and one
    |DF|^n = K_H cone integral, so the total is twice their sum.  The total
    is converged when both parts are, or when its own certified bound meets
    tol relative to the total (a truncated part can still be accurate enough).
    """
    e_h = conformal_energy_H(g.cone, tol=tol)
    e_f = inner_distortion_integral(g.cone, tol=tol)
    value = 2.0 * (e_h.value + e_f.value)
    err = 2.0 * (e_h.error_estimate + e_f.error_estimate)
    converged = (e_h.status == e_f.status == "converged"
                 or err <= tol * max(1.0, abs(value)))
    return EnergyResult(value=value, method="tensor_quadrature",
                        samples_or_nodes=e_h.samples_or_nodes + e_f.samples_or_nodes,
                        error_estimate=err,
                        status="converged" if converged else "truncated")


def energy_modulus_ratio(m: ConeMap, tol: float = 1e-6) -> float:
    """conformal_energy_H divided by E[phi]; finite constants only."""
    energy = conformal_energy_H(m, tol=tol)
    reference = modulus_energy_detailed(m.phi, n=m.n, tol=min(tol, 1e-9))
    return energy.value / reference.value
