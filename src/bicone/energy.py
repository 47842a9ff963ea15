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

u-panels double geometrically as in the one-dimensional E[phi] quadrature,
evaluated in stacked batches of panels by moduli._doubling_quadrature,
which also owns the stop rule and the rounding allowance: a remainder
here only gives the value with the mass past U and a bound on the rest.
Both remainders read phi and g at the panel ends from one cached array
call (ModulusFunction._end_profile).
Every panel rule comes from moduli._gl_panel and moduli._gl_rule.
Each integrand gets the w-rule its singularities ask for.  K_H has a pole
at w = 1/(1 - g), just past w = 1 when g is small, and forming
z = 1 - w(1 - g) there loses the relative precision eps/g.  So where
g < 1/2 its w-integral runs in zeta = log z over [log g, 0], on
Gauss-Legendre panels of length at most 2 (about log(1/g)/2 of them), and
where g >= 1/2 one 24-node w-panel serves.  |DH|^n has no singularity
within distance 1/2 of [0, 1], so one 24-node panel serves every u-node:
exact for even n <= 24, and within a certified Bernstein-ellipse bound
otherwise (_w_rule_error).  Convergence is certified by rigorous
remainders: the |DH|^n tail reduces to the one-dimensional remainder T(U)
of moduli.energy_tail_bound, available for every built-in family, plus a
first-order term in the elasticity g that integrates exactly; what is left
is at most (K_n / 2n) g(U) phi(U)^n (see the conformal branch below, with
K_n = 4/3 at n = 2).  T(U) is taken only at panels whose cheap terms let
the driver's stop rule end the sum (T(U) <= T(0) caps the value there),
and always at the 60-panel cap and at tol < 16 eps: 2-3 calls to
energy_tail_bound per sum where every panel took one.  The K_H tail has a majorant decaying like
e^{-(n-1)U}, because the s^{n-1} factor saves it even where E[phi]
diverges: the inverse's energy is finite for every admissible phi, and
only the |DH|^n integral is refused when (C3) fails.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import _roots
from .deformations import ConeMap, GluedMap
from .geometry import sample_cone_interior, sphere_surface_area, unit_ball_volume
from .moduli import (EnergyDivergenceError, ModulusFunction,
                     _doubling_quadrature, _energy_diverges, _gl_panel,
                     _gl_rule, energy_tail_bound, modulus_energy_detailed)

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

_W_PANEL = _gl_panel(0.0, 1.0)          # nodes and weights of one 24-node w-panel

# The |DH|^n w-integrand [(n-1)s^2 + phi^2 Q]^{n/2} (1-w)^{n-2} gets one
# 24-node panel on [0, 1].  For even n <= 24 it is a polynomial of degree
# 2n - 2 <= 46, which the panel integrates exactly.  Otherwise, in panel
# coordinates z = 2w - 1, write Q = (1 + (cz + c - 1)^2) / 2 with c = 1 - g:
# the branch points, the zeros of (n-1)s^2 + phi^2 Q, sit at
# z = (1 - c +- i sqrt(1 + 2k)) / c with k = (n-1)s^2/phi^2, so |Im z| >= 1.
# The Bernstein ellipse E_rho with rho = 2.4 < 1 + sqrt(2) (semi-minor axis
# 0.992) is clear of them.  On it |z| <= a = (rho + 1/rho)/2, so
# |cz + c - 1| <= a for every c in [0, 1], |Q| <= (1 + a^2)/2 and
# |1 - w| <= (1 + a)/2.  Trefethen, Approximation Theory and Approximation
# Practice, Thm 19.3, bounds the error of the 24-node rule on [-1, 1] by
# (64/15) M rho^-46 / (rho^2 - 1) for |f| <= M on E_rho, and [0, 1] halves it.
# The bound is loose (about 1e-17 of the integral at n = 3, where the true
# error is near 1e-23), but certified.
_W_RHO = 2.4
_W_A = (_W_RHO + 1.0 / _W_RHO) / 2.0
_W_Q = (1.0 + _W_A ** 2) / 2.0                      # |Q| on E_rho


def _w_rule_error(n: int, M):
    """Error bound of the one-panel w-rule for f (1-w)^{n-2}, |f| <= M on E_rho."""
    if n % 2 == 0 and n <= 24:
        return 0.0
    return (32.0 / 15.0) * _W_RHO ** -46 / (_W_RHO ** 2 - 1.0) * M \
        * ((1.0 + _W_A) / 2.0) ** (n - 2)


# K_H's w-integrand has a pole at w = 1/(1 - g), just past w = 1 for small
# g, and forming z = 1 - w(1 - g) near w = 1 cancels to a relative error
# eps/g, which the integrand's z^(1-n) weights.  So the rows with g < 1/2
# integrate in zeta = log z over [log g, 0], where with P = phi z,
# R = phi (1 - z), 1 - w = (z - g)/(1 - g) and dw = z dzeta / (1 - g) the
# cell is
#
#     phi s^(n-1) int [sigma^2 + (1-z)^2 + (n-1) z^2]^(n/2) (1 - g/z)^(n-2) dzeta / (1-g)^(n-1)
#
# with sigma = s/phi: an integrand bounded by n^(n/2), and 1 - z = -expm1(zeta)
# and 1 - g/z = -expm1(-(zeta - log g)) free of cancellation.  It is smooth
# on the scale of 1 in zeta (for odd n analytic in |Im zeta| < pi/4), so
# Gauss-Legendre panels of length at most 2 serve: ceil(log(1/g_min)/2) of
# them on every row of a batch.  Rows with g >= 1/2 keep one w-panel, the
# pole at least 1 away from [0, 1], in the same sigma/z form.
def _distortion_cells(n: int, s: np.ndarray, phi_u: np.ndarray,
                      g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w-integral of the K_H integrand over phi s^(n-1), w-nodes) per u-node."""
    live = phi_u > 0.0
    sigma2 = np.divide(s, phi_u, out=np.zeros_like(s), where=live) ** 2
    cells, nodes = np.empty_like(s), np.empty(s.shape, dtype=int)
    near = g >= 0.5
    if near.any():
        w, ww = _W_PANEL
        one_z = w * (1.0 - g[near, None])
        z = 1.0 - one_z
        core = (sigma2[near, None] + one_z ** 2 + (n - 1) * z ** 2) ** (n / 2.0)
        cells[near] = np.sum(core * z ** (1 - n) * (1.0 - w) ** (n - 2) * ww, axis=1)
        nodes[near] = w.size
    far = ~near
    if far.any():
        g_far = np.maximum(g[far], np.finfo(float).smallest_subnormal)   # a g of 0
        L = -np.log(g_far)[:, None]                 # zeta runs over [-L, 0]
        m = math.ceil(float(L.max()) / 2.0)         # panels j/m .. (j+1)/m of [0, 1]
        x, wx = (a.ravel() for a in _gl_rule(tuple(j / m for j in range(m + 1))))
        zeta = L * (x - 1.0)
        core = (sigma2[far, None] + np.expm1(zeta) ** 2
                + (n - 1) * np.exp(2.0 * zeta)) ** (n / 2.0)
        gap = -np.expm1(-L * x)                     # 1 - g/z
        cells[far] = np.sum(core * gap ** (n - 2) * wx, axis=1) \
            * L[:, 0] / (1.0 - g_far) ** (n - 1)
        nodes[far] = x.size
    return cells, nodes


def _panel_value(phi: ModulusFunction, u: np.ndarray, wu: np.ndarray,
                 kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(integrals, w-rule error bounds, nodes) of a stack of (u-panel) x [0,1]
    cells of the reduced integrand, one u-panel per row of u and wu."""
    n = phi.n
    phi_u, g = phi.profile_log(u)
    g = np.clip(g, 0.0, 1.0)
    s = np.exp(-u)
    if kind == "conformal":
        # rows where phi underflows have s = 0 too, and add exact zeros
        w, ww = _W_PANEL
        c = (1.0 - g)[..., None]
        P = phi_u[..., None] * (1.0 - w * c)
        R2 = (phi_u[..., None] * w * c) ** 2
        core = ((n - 1) * (s ** 2)[..., None] + R2 + P * P) ** (n / 2.0)
        bound = _w_rule_error(n, ((n - 1) * s ** 2 + _W_Q * phi_u ** 2) ** (n / 2.0))
        # the w-integral of each u-node, then their u-sum: two short sums,
        # where one running sum over all nodes drifted by up to 9 ulp
        inner = np.sum(core * (1.0 - w) ** (n - 2) * ww, axis=-1)
        return (np.sum(wu * inner, axis=-1), np.sum(wu * bound, axis=-1),
                np.full(len(u), u.shape[1] * w.size))
    cells, nodes = _distortion_cells(n, s.ravel(), phi_u.ravel(), g.ravel())
    scale = phi_u * np.exp(-(n - 1) * u)            # phi s^(n-1)
    return (np.sum(wu * (scale * cells.reshape(u.shape)), axis=-1),
            np.zeros(len(u)), nodes.reshape(u.shape).sum(axis=-1))


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

@cache
def _w_constants(n: int) -> tuple[float, float, float]:
    """(W_n(1), W_n'(1), K_n) of the comment block above.

    The two moments keep 17 dyadic panels: one panel rounds W_2(1) to
    2/3 + 3 ulp, and the finer grid to 2/3.  The branch points (1 +- i)/2
    lie outside the Bernstein ellipse of rho = 4 about every panel, so the
    rule error is below 1e-18 for n <= 24 and rounding is what is left.
    """
    p = n / 2.0
    dyadic = (0.0, *(1.0 - 2.0 ** -j for j in range(1, 17)), 1.0)
    w, ww = _gl_rule(dyadic)
    q = 2.0 * w * w - 2.0 * w + 1.0
    one_w = (1.0 - w) ** (n - 2)
    reference = float(np.sum(ww * q ** p * one_w))
    slope = float(np.sum(ww * (p * q ** (p - 1.0) * 2.0 * w * (2.0 * w - 1.0)) * one_w))
    curvature = 4.0 * p * (abs(p - 1.0) * 2.0 ** max(0.0, 2.0 - p)
                           + 2.0 ** max(0.0, 1.0 - p)) * 2.0 / ((n - 1) * n * (n + 1))
    return reference, slope, curvature


def _distortion_tail(phi: ModulusFunction, U: float, phi_U: float) -> float:
    """Rigorous bound for the K_H integral beyond u = U, where phi(e^-U) = phi_U.

    With z = 1 - w(1-g) and sigma = s/phi one has P = phi z, s/P = sigma/z
    and R/P = (1-z)/z <= 1/z, so the integrand is at most
    C_n z^{1-n} phi s^{n-1} with C_n = (4 (sigma^2+1) + n-1)^{n/2}, which
    has room to spare ((sigma^2 + n)^{n/2} would do).  sigma = 1/lambda is
    non-increasing in u, so its value at U serves the whole tail, and
    z >= g(u).  The built-in families give g(u) >= c0/(1+u) (iterlog,
    first factor alone) or g = eps (power, the identity at eps = 1),
    leaving c0^(1-n) times a closed-form integral of (1+u)^{n-1}
    e^{-(n-1)u}.  Where c0^(1-n) overflows (power eps = 1e-200 at n = 3),
    the product c0^(1-n) e^{-(n-1)U} is formed in log space instead: inf
    while it overflows, finite once U is past about log(1/c0).
    """
    n = phi.n
    if phi_U <= 0.0:
        return 0.0
    sigma = math.exp(-U) / phi_U
    C = (4.0 * (sigma ** 2 + 1.0) + (n - 1)) ** (n / 2.0)
    m = n - 1
    if phi.family != "iterlog":
        c0, poly = phi.eps, None                # the integral is 1/(n-1)
    else:
        c0 = phi.alpha if phi.depth == 1 else 1.0 / n
        # int_U^inf ((1+u)/c0)^{n-1} e^{-(n-1)(u-U)} du, expanded binomially
        poly = sum(math.comb(m, i) * (1.0 + U) ** (m - i) * math.factorial(i) / m ** (i + 1)
                   for i in range(m + 1))
    try:
        lead = c0 ** (1 - n)
    except OverflowError:
        with np.errstate(over="ignore"):
            decay = float(np.exp(-m * (U + math.log(c0))))    # c0^(1-n) e^{-(n-1)U}
        return C * phi_U * decay * (1.0 / m if poly is None else poly)
    poly = lead / m if poly is None else lead * poly
    return C * phi_U * math.exp(-m * U) * poly


# -- the tensor quadrature -----------------------------------------------------

def _quad_energy(m: ConeMap, tol: float, kind: str) -> EnergyResult:
    phi = m.phi
    n = phi.n
    # E[H] is finite exactly when E[phi] is; the K_H tail needs only the
    # elasticity floor of _distortion_tail, so E[F] is finite for every phi
    if kind == "conformal" and _energy_diverges(phi):
        raise EnergyDivergenceError(
            f"modulus energy of {phi.describe()} diverges at n={n} "
            "(condition (C3) fails), so the deformation energy is infinite")
    sigma_factor = sphere_surface_area(n - 2)
    ends = phi._end_profile
    if kind == "conformal":
        W, W_slope, K = _w_constants(n)
        E_phi = energy_tail_bound(phi, 0.0)[0]      # T(0) >= T(U)

    def conformal_remainder(U, total, rule, inc, may_stop):
        phi_U, g_U = ends[U]
        phi_n = phi_U ** n
        s_U = math.exp(-U)
        corr = (n / 2.0) * ((n - 1) * s_U ** 2 + 2.0 * phi_U ** 2) \
            ** (n / 2.0 - 1.0) * math.exp(-2.0 * U) / 2.0
        head = K / (2 * n) * g_U * phi_n + corr
        # the bound is at least sigma (head + rule), as T_err >= 0, and
        # T(U) <= T(0) caps |value| with room to spare: a panel that cannot
        # stop with these two takes no T(U)
        ceiling = 2.0 * sigma_factor * (abs(total) + W * E_phi + abs(W_slope) * phi_n / n)
        if not may_stop(sigma_factor * (head + rule), ceiling):
            return None
        T, T_err = energy_tail_bound(phi, U)    # int_U^inf phi^n du
        return (sigma_factor * (total + W * T - W_slope * phi_n / n),
                sigma_factor * (head + T_err + rule))

    def distortion_remainder(U, total, rule, inc, may_stop):
        tail = _distortion_tail(phi, U, ends[U][0])
        return sigma_factor * total, sigma_factor * (tail + inc)

    value, err, status, nodes = _doubling_quadrature(
        partial(_panel_value, phi, kind=kind), tol,
        conformal_remainder if kind == "conformal" else distortion_remainder)
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

    The integrand is filled in blocks of ``_roots._BLOCK`` points, each
    inverted and differentiated while its temporaries stay in cache; both
    act row by row, so the values, and the mean, std and max taken over
    all of them, have the same bits in any block size.
    """
    if not isinstance(samples, numbers.Integral):
        raise TypeError(f"samples must be an integer, got {samples!r}")
    if samples < _MC_MIN_SAMPLES:
        raise ValueError(f"need at least {_MC_MIN_SAMPLES} samples")
    n = m.n
    points = sample_cone_interior(samples, n=n, seed=seed,
                                  exclude_axis_margin=_MC_MARGIN,
                                  exclude_boundary_margin=_MC_MARGIN).points
    values = np.empty(samples)
    for first in range(0, samples, _roots._BLOCK):
        rows = slice(first, first + _roots._BLOCK)
        values[rows] = m.jacobian(m.inverse(points[rows])).inv_hs_norm ** n
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
    reference = modulus_energy_detailed(m.phi, tol=min(tol, 1e-9))
    return energy.value / reference.value
