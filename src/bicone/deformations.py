"""Deformations of the double cone and their Jacobian calculus.

Three map families:

  ConeMap    (x, t) -> (x, t * phi(s)/s) with s = t + |x| on the upper cone.
             Fixes the base and the slant boundary pointwise, stretches the
             vertical axis by phi.  The inverse solves T * lambda(T + |y|) =
             tau by safeguarded Newton steps on log T to a relative
             residual; the map from T to that product is strictly
             increasing with slope >= 1/M, so the bracket is guaranteed.
  GluedMap   the whole-space homeomorphism: ConeMap on the upper cone, the
             doubly reflected inverse on the lower cone, identity elsewhere.
             Its inverse is the map mirrored in the base, so the map and its
             inverse share the modulus phi on the axis by construction.
  RadialMap  h(x) = stress(|x|) x/|x| for a scalar stress function; the
             quasiconformal benchmark (power stress) and the slow-log
             stress whose inverse is smooth, evaluated by the modulus kernel.

All evaluations accept a single point (shape (n,)) or a stack of points
(shape (m, n)) and return the same shape.  Each ConeMap operation has one
entry point, which checks its rows and takes their |x|; GluedMap and the
energy estimators call it too.  Jacobian formulas are evaluated in the
convex-combination form D = (1-w) lambda + w phi' with w = t/s, which
cannot cancel catastrophically since both terms are positive; the norms
and K_H are reduced from D and t lambda' only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._roots import BracketError, newton_log
from .geometry import (_check_dimension, _horizontal_norm, _out, _rows, cone_norm,
                       euclid_norm, reflect)
from .moduli import ModulusFunction, _plan_curvature, _plan_jet

__all__ = [
    "ConeMap",
    "GluedMap",
    "RadialMap",
    "InverseView",
    "JacobianData",
    "DomainError",
]


class DomainError(ValueError):
    """Raised when a map is evaluated outside its domain of definition."""


def _upper_cone_norm(arr):
    """|x| of the rows (x, t) of arr; raises unless all lie in the upper cone.

    The domain is t >= 0 and |x| + t <= 1, each with slack 1e-9.
    """
    rho = _horizontal_norm(arr)
    t = arr[:, -1]
    with np.errstate(over="ignore"):
        norm = rho + np.abs(t)
    if not bool(np.all((t >= -1e-9) & (norm <= 1.0 + 1e-9))):
        raise DomainError("point outside the upper cone")
    return rho


@dataclass(frozen=True)
class JacobianData:
    """Derivative data of a cone map at one point or a stack of points.

    DH is the identity but for its last row, (t lambda'(s) x/|x|, D).  The
    norms, K_H and the matrix are derived from those entries when first
    read, and cached.  Entries are floats (x one row) for a single point.
    """

    det: np.ndarray | float            # D = lambda(s) + t lambda'(s) > 0
    t_lam_prime: np.ndarray | float    # t lambda'(s) <= 0
    x: np.ndarray = field(repr=False)  # the horizontal parts of the points
    rho: np.ndarray | float = field(repr=False)     # |x|

    def _norm(self, square, hypot):
        """sqrt(square(tl^2, D^2, n - 1)), by hypot where tl^2 + D^2 overflows."""
        tl, d, n1 = np.atleast_1d(self.t_lam_prime), np.atleast_1d(self.det), self.x.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            tl2, d2 = tl ** 2, d ** 2
            out, big = np.sqrt(square(tl2, d2, n1)), ~np.isfinite(n1 + tl2 + d2)
        if big.any():                        # D^2 overflows below |x| ~ 1e-157
            out[big] = hypot(tl[big], d[big], math.sqrt(n1))
        return _out(out, np.ndim(self.det) == 0)

    @cached_property
    def hs_norm(self) -> np.ndarray | float:
        """|DH|, the Hilbert-Schmidt norm."""
        return self._norm(lambda tl2, d2, n1: n1 + tl2 + d2,
                          lambda tl, d, r: np.hypot(np.hypot(tl, d), r))

    @cached_property
    def inv_hs_norm(self) -> np.ndarray | float:
        """|(DH)^-1|, the Hilbert-Schmidt norm of the inverse."""
        return self._norm(lambda tl2, d2, n1: (1.0 + tl2) / d2 + n1,
                          lambda tl, d, r: np.hypot(np.hypot(1.0, tl) / d, r))

    @cached_property
    def inner_distortion(self) -> np.ndarray | float:
        """K_H = |(DH)^-1|^n det DH."""
        K = np.atleast_1d(self.inv_hs_norm) ** (self.x.shape[-1] + 1) * self.det
        return _out(K, np.ndim(self.det) == 0)

    @cached_property
    def matrix(self) -> np.ndarray:
        """DH as an (n, n) matrix, or (m, n, n) for a stack of points."""
        x = np.atleast_2d(self.x)
        matrix = np.tile(np.eye(x.shape[1] + 1), (x.shape[0], 1, 1))
        matrix[:, -1, :-1] = np.atleast_1d(self.t_lam_prime)[:, None] \
            * (x / np.atleast_1d(self.rho)[:, None])
        matrix[:, -1, -1] = self.det
        return _out(matrix, np.ndim(self.det) == 0)


class ConeMap:
    """The vertical shear of the upper cone driven by a modulus, in its dimension."""

    domain = "upper_cone"

    def __init__(self, phi: ModulusFunction, n: int | None = None):
        if n is not None and n != phi.n:
            raise ValueError(f"a map's dimension is its modulus's: n={n}, phi.n={phi.n}")
        self.phi, self.n = phi, phi.n

    # -- evaluation --------------------------------------------------------

    def __call__(self, X):
        arr, single = _rows(X)
        t = arr[:, -1]
        s = _upper_cone_norm(arr) + t
        out = arr.copy()
        pos = s > 0
        if pos.any():
            w = t[pos] / s[pos]
            out[pos, -1] = w * self.phi(s[pos])
        return _out(out, single)

    # -- derivative data ----------------------------------------------------

    def jacobian(self, X) -> JacobianData:
        arr, single = _rows(X)
        rho = _upper_cone_norm(arr)
        t = arr[:, -1]
        s = rho + t
        if np.any(rho <= 0):
            raise DomainError("Jacobian undefined on the vertical axis (x = 0)")
        if np.any(t <= 0) or np.any(s >= 1):
            raise DomainError("Jacobian requested on the boundary of the cone")
        w = t / s
        phi, g = self.phi._kernel(s)         # 0 < s < 1: one kernel call
        lam = phi / s
        der = g * phi / s
        det = (1.0 - w) * lam + w * der      # lambda(s) + t lambda'(s), no cancellation
        t_lam_prime = w * (der - lam)        # t * lambda'(s) <= 0
        return JacobianData(*(_out(v, single) for v in (det, t_lam_prime, arr[:, :-1], rho)))

    # -- inversion -----------------------------------------------------------

    def inverse(self, Y):
        """Solve (y, T) with T * lambda(T + |y|) = tau for Y = (y, tau).

        The unknown is u = log T and the equation

            F(u) = log(T lambda(sigma)) - log tau,   sigma = T + |y|,
            F'(u) = 1 - w (1 - g),                   w = T / sigma,

        with g the elasticity of phi at sigma; F' = D / lambda > 0 (D the
        Jacobian determinant), so F is increasing.  phi(sigma) and g come
        from one ``profile_log`` call per Newton iteration.  The solver
        stops a lane once its step provably lands on the root, by the bound
        |F''| = |h w^2 + (1 - g) w (1 - w)| <= 1/4 + sup|h| (h = A'').

        Bracket (0, tau]: the product vanishes as T -> 0 and at T = tau it
        is tau * lambda(tau + |y|) >= tau since lambda >= 1.  (This is
        tighter than the a-priori bound T <= M tau and needs no constant.)
        Inside it sigma <= |y| + tau <= 1, so the bound holds there; a
        point up to 1e-9 past the slant has its root at T = tau, F = 0.
        The straddle is still checked; its failure means lambda < 1
        somewhere, i.e. a modulus violating its own admissibility.

        Newton starts at T = tau, so preimages anywhere in the float range
        (the log-type moduli push them to 1e-250 and beyond) reach a
        relative residual of 4 eps in a handful of steps.  Heights below the
        value of the smallest subnormal have no representable preimage at
        all; those lanes pin at the float floor, one evaluation after their
        Newton step leaves through it.
        """
        arr, single = _rows(Y)
        rho = _upper_cone_norm(arr)
        tau = arr[:, -1]
        out = arr.copy()
        pos = tau > 0
        if pos.any():
            rho_p = rho[pos]
            log_tau = np.log(tau[pos])

            def jet(u, idx):
                T = np.exp(u)
                sigma = rho_p[idx]                  # a gather: a new array
                sigma += T
                v = np.log(sigma)
                np.negative(v, out=v)
                np.maximum(v, 0.0, out=v)           # sigma >= 1: lambda = g = 1
                phi, g = self.phi.profile_log(v)
                log_lam = np.log(phi)
                log_lam += v
                slope = 1.0 - g                     # phi and g stay as returned
                inner = v > 0
                if not inner.all():
                    log_lam = np.where(inner, log_lam, 0.0)
                    slope = np.where(inner, slope, 0.0)
                log_lam += u
                log_lam -= log_tau[idx]
                np.divide(T, sigma, out=T)
                T *= slope
                np.subtract(1.0, T, out=T)
                return log_lam, T

            out[pos, -1] = newton_log(
                jet, log_tau,
                "T * lambda(T + |y|) < tau at T = tau: chord slope below 1",
                curvature=0.25 + self.phi._curvature)
        return _out(out, single)


class GluedMap:
    """Whole-space homeomorphism: cone map above, reflected inverse below.

    Evaluation is the identity outside the double cone and on the base, so
    the two branches meet continuously.  With R the reflection in the base,
    the map is H = cone map above and R (cone inverse) R below, so its
    inverse is F = R H R: the same two branches with their roles swapped,
    exactly inverse by construction (up to the float-resolution residual
    of the cone inverse).
    """

    domain = "whole_space"

    def __init__(self, phi: ModulusFunction, n: int | None = None):
        self.cone = ConeMap(phi, n)
        self.phi, self.n = self.cone.phi, self.cone.n

    def __call__(self, X):
        arr, single = _rows(X)
        out = arr.copy()
        t = arr[:, -1]
        norm = cone_norm(arr)
        big = ~np.isfinite(norm)            # or a finite row with |x| + |t| > 1.8e308
        if big.any() and not np.isfinite(arr[big]).all():
            raise DomainError("point with a non-finite coordinate")
        inside = norm <= 1.0
        up = inside & (t >= 0)
        lo = inside & (t < 0)
        if up.any():
            out[up] = self.cone(arr[up])
        if lo.any():
            out[lo] = reflect(self.cone.inverse(reflect(arr[lo])))
        return _out(out, single)

    def inverse(self, Y):
        return reflect(self(reflect(Y)))

    def inverted(self) -> "InverseView":
        return InverseView(self)


class RadialMap:
    """h(x) = stress(|x|) x/|x| with a monotone scalar stress function.

    kind "power": stress(rho) = rho^eps on all of [0, inf); the inverse is
    the power 1/eps in closed form.  These are the quasiconformal reference
    maps: their forward and inverse moduli at 0 are exact inverse functions.

    kind "logexample": stress(rho) = (1 - log rho)^(-1/n) * (log(e - log rho))^(-beta)
    for rho <= 1 (beta > 1/n) and the identity beyond 1; a map of the unit
    ball onto itself with a smooth inverse, increasing for every beta > 1/n
    and below the identity near rho = 1 once beta > e (1 - 1/n).  The modulus
    kernel evaluates it as the plan (1 + L)^(-1/n) (0 + log(e + L))^(-beta),
    L = -log rho; the inverse's Newton steps on log rho start from rho = 1.
    """

    domain = "whole_space"

    def __init__(self, kind: str, eps: float | None = None,
                 beta: float | None = None, n: int = 2):
        if kind not in ("power", "logexample"):
            raise ValueError(f"unknown radial map kind {kind!r}")
        stray, value = ("beta", beta) if kind == "power" else ("eps", eps)
        if value is not None:
            raise ValueError(f"the {kind} kind takes no {stray}")
        self.kind, self.n, self.eps, self.beta = kind, _check_dimension(n), None, None
        if kind == "power":
            if eps is None or not (0.0 < eps <= 1.0):
                raise ValueError("power stress needs eps in (0, 1]")
            self.eps = float(eps)
        else:
            self.beta = 1.0 if beta is None else float(beta)
            if not 1.0 / self.n < self.beta < math.inf:      # NaN fails too
                raise ValueError("logexample stress needs a finite beta > 1/n")
            self._plan = ((0.0, 1.0, 1.0, 1.0 / self.n, 0), (math.e, 0.0, 1.0, self.beta, 1))
            self._curvature = _plan_curvature(self._plan)

    def stress(self, rho):
        out = np.array(rho, dtype=float)            # a copy
        if self.kind == "power":
            return out ** self.eps
        inner = (out > 0) & (out < 1.0)
        out[inner] = np.exp(-_plan_jet(self._plan, -np.log(out[inner]), 0)[0])
        return out

    def inverse_stress(self, v):
        """stress^-1(v); the logexample solve stops at relative residual 4 eps."""
        out = np.array(v, dtype=float)              # a copy
        if self.kind == "power":
            return out ** (1.0 / self.eps)
        inner = (out > 0) & (out < 1.0)
        log_v = np.log(out[inner])

        def jet(u, idx):                # log stress(e^u) - log v and its slope g
            A, g = _plan_jet(self._plan, -u, 1)
            return -A - log_v[idx], g

        out[inner] = newton_log(jet, np.zeros_like(log_v),
                                "logexample stress below its target at rho = 1",
                                curvature=self._curvature)
        return out

    def _radial(self, X, scalar_fn):
        arr, single = _rows(X)
        norms = euclid_norm(arr)
        if not np.isfinite(norms).all():
            raise DomainError("point with a non-finite norm")
        out = np.zeros_like(arr)
        pos = norms > 0
        if pos.any():
            out[pos] = arr[pos] * (scalar_fn(norms[pos]) / norms[pos])[:, None]
        return _out(out, single)

    def __call__(self, X):
        return self._radial(X, self.stress)

    def inverse(self, Y):
        return self._radial(Y, self.inverse_stress)

    def inverted(self) -> "InverseView":
        return InverseView(self)


class InverseView:
    """A map object whose evaluation is another map's inverse, and vice versa."""

    def __init__(self, base):
        self.base = base
        self.n = base.n
        self.domain = base.domain

    def __call__(self, X):
        return self.base.inverse(X)

    def inverse(self, Y):
        return self.base(Y)
