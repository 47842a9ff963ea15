"""Deformations of the double cone and their Jacobian calculus.

Three map families:

  ConeMap    (x, t) -> (x, t * phi(s)/s) with s = t + |x| on the upper cone.
             Fixes the base and the slant boundary pointwise, stretches the
             vertical axis by phi.  The inverse solves T * lambda(T + |y|) =
             tau by safeguarded Newton steps on log T to a relative
             residual; the map from T to that product is strictly
             increasing with slope >= 1/M, so the bracket is guaranteed.
  GluedMap   the whole-space homeomorphism: ConeMap on the upper cone, the
             doubly reflected inverse on the lower cone, identity outside elsewhere.
             Built so the map and its inverse share the modulus phi on the
             axis by construction.
  RadialMap  h(x) = stress(|x|) x/|x| for a scalar stress function; the
             quasiconformal benchmark (power stress) and the slow-log
             stress whose inverse is smooth.

All evaluations accept a single point (shape (n,)) or a stack of points
(shape (m, n)) and return the same shape.  Jacobian formulas are evaluated
in the convex-combination form D = (1-w) lambda + w phi' with w = t/s, which
cannot cancel catastrophically since both terms are positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ._roots import BracketError, newton_log
from .geometry import _horizontal_norm, reflect
from .moduli import ModulusFunction

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


def _rows(X):
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _out(arr, single):
    return arr[0] if single else arr


def _upper_cone_norm(arr):
    """|x| of the rows (x, t) of arr; raises unless all lie in the upper cone.

    The domain check is in_upper_cone's at tol 1e-9, run on this |x|.
    """
    rho = _horizontal_norm(arr)
    t = arr[:, -1]
    if not bool(np.all((t >= -1e-9) & (rho + np.abs(t) <= 1.0 + 1e-9))):
        raise DomainError("point outside the upper cone")
    return rho


@dataclass(frozen=True)
class JacobianData:
    """Derivative data of a cone map at one point or a stack of points.

    The norms come from closed forms; ``matrix`` is built on first access,
    since most callers need only the scalar reductions.
    """

    det: np.ndarray | float     # the Jacobian determinant D
    hs_norm: np.ndarray | float
    inv_hs_norm: np.ndarray | float
    cofactor_norm: np.ndarray | float
    inner_distortion: np.ndarray | float
    _build_matrix: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        """DH as an (n, n) matrix, or (m, n, n) for a stack of points."""
        return self._build_matrix()


class ConeMap:
    """The vertical shear of the upper cone driven by a modulus function."""

    domain = "upper_cone"

    def __init__(self, phi: ModulusFunction, n: int | None = None):
        self.phi = phi
        self.n = phi.n if n is None else int(n)
        if self.n < 2:
            raise ValueError("dimension must be >= 2")

    def describe(self) -> str:
        return f"cone:phi={self.phi.describe()},n={self.n}"

    # -- evaluation --------------------------------------------------------

    def __call__(self, X):
        arr, single = _rows(X)
        return _out(self._forward(arr, _upper_cone_norm(arr)), single)

    def _forward(self, arr, rho):
        """The map on rows of the upper cone whose |x| is ``rho``."""
        t = arr[:, -1]
        s = rho + t
        out = arr.copy()
        pos = s > 0
        if pos.any():
            w = t[pos] / s[pos]
            out[pos, -1] = w * self.phi(s[pos])
        return out

    # -- derivative data ----------------------------------------------------

    def jacobian(self, X) -> JacobianData:
        arr, single = _rows(X)
        return self._jacobian(arr, _upper_cone_norm(arr), single)

    def _jacobian(self, arr, rho, single=False) -> JacobianData:
        """``jacobian`` on rows of the upper cone whose |x| is ``rho``."""
        t = arr[:, -1]
        s = rho + t
        if np.any(rho <= 0):
            raise DomainError("Jacobian undefined on the vertical axis (x = 0)")
        if np.any(t <= 0) or np.any(s >= 1):
            raise DomainError("Jacobian requested on the boundary of the cone")
        n = self.n
        w = t / s
        phi, g = self.phi._kernel(s)         # 0 < s < 1: one kernel call
        lam = phi / s
        der = g * phi / s
        det = (1.0 - w) * lam + w * der      # lambda(s) + t lambda'(s), no cancellation
        t_lam_prime = w * (der - lam)        # t * lambda'(s) <= 0

        def build_matrix():
            matrix = np.tile(np.eye(n), (arr.shape[0], 1, 1))
            matrix[:, -1, :-1] = t_lam_prime[:, None] * (arr[:, :-1] / rho[:, None])
            matrix[:, -1, -1] = det
            return _out(matrix, single)

        with np.errstate(over="ignore", invalid="ignore"):
            hs = np.sqrt((n - 1) + t_lam_prime ** 2 + det ** 2)
            inv_hs = np.sqrt((1.0 + t_lam_prime ** 2) / det ** 2 + (n - 1))
            cof = np.sqrt((n - 1) * det ** 2 + t_lam_prime ** 2 + 1.0)
        big = ~(np.isfinite(hs) & np.isfinite(inv_hs) & np.isfinite(cof))
        if big.any():       # the squares overflow (|x| near 1e-265): use hypot
            tl, d, r = t_lam_prime[big], det[big], math.sqrt(n - 1)
            hs[big] = np.hypot(np.hypot(tl, d), r)
            inv_hs[big] = np.hypot(np.hypot(1.0, tl) / d, r)
            cof[big] = np.hypot(np.hypot(r * d, tl), 1.0)
        K = inv_hs ** n * det
        if single:
            return JacobianData(float(det[0]), float(hs[0]), float(inv_hs[0]),
                                float(cof[0]), float(K[0]), build_matrix)
        return JacobianData(det, hs, inv_hs, cof, K, build_matrix)

    # -- inversion -----------------------------------------------------------

    def inverse(self, Y, tol: float = 1e-12):
        """Solve (y, T) with T * lambda(T + |y|) = tau for Y = (y, tau).

        ``tol`` bounds the relative residual of that height equation.  The
        unknown is u = log T and the equation

            F(u) = log(T lambda(sigma)) - log tau,   sigma = T + |y|,
            F'(u) = 1 - w (1 - g),                   w = T / sigma,

        with g the elasticity of phi at sigma; F' = D / lambda > 0 (D the
        Jacobian determinant), so F is increasing.  phi(sigma) and g come
        from one ``profile_log`` call per Newton iteration.

        Bracket (0, tau]: the product vanishes as T -> 0 and at T = tau it
        is tau * lambda(tau + |y|) >= tau since lambda >= 1.  (This is
        tighter than the a-priori bound T <= M tau and needs no constant.)
        The straddle is still checked; its failure means lambda < 1
        somewhere, i.e. a modulus violating its own admissibility.

        Newton starts at T = tau, so preimages anywhere in the float range
        (the log-type moduli push them to 1e-250 and beyond) resolve to the
        relative tolerance in a handful of steps.  Heights below the value
        of the smallest subnormal have no representable preimage at all;
        those lanes pin at the float floor, one evaluation after their
        Newton step leaves through it.
        """
        arr, single = _rows(Y)
        return _out(self._solve(arr, _upper_cone_norm(arr), tol), single)

    def _solve(self, arr, rho, tol):
        """``inverse`` on rows of the upper cone whose |y| is ``rho``."""
        tau = arr[:, -1]
        out = arr.copy()
        pos = tau > 0
        if pos.any():
            rho_p = rho[pos]
            log_tau = np.log(tau[pos])

            def jet(u, idx):
                T = np.exp(u)
                sigma = T + rho_p[idx]
                v = np.maximum(-np.log(sigma), 0.0)   # sigma >= 1: lambda = g = 1
                phi, g = self.phi.profile_log(v)
                inner = v > 0
                log_lam = np.where(inner, np.log(phi) + v, 0.0)
                g = np.where(inner, g, 1.0)
                return u + log_lam - log_tau[idx], 1.0 - T / sigma * (1.0 - g)

            out[pos, -1] = newton_log(
                jet, log_tau, tol,
                "T * lambda(T + |y|) < tau at T = tau: chord slope below 1")
        return out

    def inverted(self) -> "InverseView":
        return InverseView(self)


class GluedMap:
    """Whole-space homeomorphism: cone map above, reflected inverse below.

    Evaluation is the identity outside the double cone and on the base, so
    the two branches meet continuously.  The inverse is assembled from the
    same two branch maps with their roles swapped, which makes the pair
    exactly inverse by construction (up to the relative tolerance ``tol`` of
    the cone inverse).
    """

    domain = "whole_space"

    def __init__(self, phi: ModulusFunction, n: int | None = None,
                 tol: float = 1e-12):
        self.cone = ConeMap(phi, n)
        self.phi = self.cone.phi
        self.n = self.cone.n
        self.tol = tol

    def describe(self) -> str:
        return f"glued:phi={self.phi.describe()},n={self.n}"

    def _piecewise(self, X, upper_fn, lower_fn):
        """Apply upper_fn(rows, |x|) above the base and its reflection below.

        |x| is taken once here and handed to the branch, which skips the
        upper-cone check: the rows passed satisfy it by construction.
        """
        arr, single = _rows(X)
        out = arr.copy()
        rho = _horizontal_norm(arr)
        t = arr[:, -1]
        inside = rho + np.abs(t) <= 1.0
        up = inside & (t >= 0)
        lo = inside & (t < 0)
        if up.any():
            out[up] = upper_fn(arr[up], rho[up])
        if lo.any():
            out[lo] = reflect(lower_fn(reflect(arr[lo]), rho[lo]))
        return _out(out, single)

    def __call__(self, X):
        return self._piecewise(
            X, self.cone._forward,
            lambda Z, rho: self.cone._solve(Z, rho, self.tol))

    def inverse(self, Y, tol: float | None = None):
        tol = self.tol if tol is None else tol
        return self._piecewise(
            Y, lambda Z, rho: self.cone._solve(Z, rho, tol), self.cone._forward)

    def inverted(self) -> "InverseView":
        return InverseView(self)


class RadialMap:
    """h(x) = stress(|x|) x/|x| with a monotone scalar stress function.

    kind "power": stress(rho) = rho^eps on all of [0, inf); the inverse is
    the power 1/eps in closed form.  These are the quasiconformal reference
    maps: their forward and inverse moduli at 0 are exact inverse functions.

    kind "logexample": stress(rho) = (1 - log rho)^(-1/n) * (log(e - log rho))^(-beta)
    for rho <= 1 (beta > 1/n) and the identity beyond 1; a map of the unit
    ball onto itself with a smooth inverse, inverted by safeguarded Newton
    steps on log rho against the closed-form log-stress.
    """

    domain = "whole_space"

    def __init__(self, kind: str, eps: float | None = None,
                 beta: float | None = None, n: int = 2, tol: float = 1e-12):
        if kind not in ("power", "logexample"):
            raise ValueError(f"unknown radial map kind {kind!r}")
        self.kind = kind
        self.n = int(n)
        self.tol = tol
        if kind == "power":
            if eps is None or not (0.0 < eps <= 1.0):
                raise ValueError("power stress needs eps in (0, 1]")
            self.eps = float(eps)
            self.beta = None
        else:
            beta = 1.0 if beta is None else float(beta)
            if beta <= 1.0 / self.n:
                raise ValueError("logexample stress needs beta > 1/n")
            self.beta = beta
            self.eps = None

    def describe(self) -> str:
        if self.kind == "power":
            return f"radial:power:eps={self.eps}"
        return f"radial:logexample:beta={self.beta},n={self.n}"

    def stress(self, rho):
        rho = np.asarray(rho, dtype=float)
        if self.kind == "power":
            return rho ** self.eps
        out = np.array(rho, copy=True)
        inner = (rho > 0) & (rho < 1.0)
        if inner.any():
            L = -np.log(rho[inner])
            out[inner] = (1.0 + L) ** (-1.0 / self.n) * np.log(math.e + L) ** (-self.beta)
        return out

    def inverse_stress(self, v, tol: float | None = None):
        """stress^-1(v); the logexample solve stops at relative residual
        ``tol`` (default: the constructor's ``tol``)."""
        tol = self.tol if tol is None else tol
        v = np.asarray(v, dtype=float)
        if self.kind == "power":
            return v ** (1.0 / self.eps)
        out = np.array(v, copy=True)
        inner = (v > 0) & (v < 1.0)
        if inner.any():
            log_v = np.log(v[inner])
            inv_n, beta = 1.0 / self.n, self.beta

            def jet(u, idx):
                # log stress(e^u) with L = -u, and its derivative in u
                L = -u
                loglog = np.log(math.e + L)
                return (-inv_n * np.log1p(L) - beta * np.log(loglog) - log_v[idx],
                        inv_n / (1.0 + L) + beta / ((math.e + L) * loglog))

            out[inner] = newton_log(jet, np.zeros_like(log_v), tol,
                                    "logexample stress below its target at rho = 1")
        return out

    def _radial(self, X, scalar_fn):
        arr, single = _rows(X)
        norms = np.linalg.norm(arr, axis=1)
        out = np.zeros_like(arr)
        pos = norms > 0
        if pos.any():
            out[pos] = arr[pos] * (scalar_fn(norms[pos]) / norms[pos])[:, None]
        return _out(out, single)

    def __call__(self, X):
        return self._radial(X, self.stress)

    def inverse(self, Y, tol: float | None = None):
        return self._radial(Y, lambda v: self.inverse_stress(v, tol))

    def inverted(self) -> "InverseView":
        return InverseView(self)


class InverseView:
    """A map object whose evaluation is another map's inverse, and vice versa."""

    def __init__(self, base):
        self.base = base
        self.n = getattr(base, "n", None)
        self.domain = getattr(base, "domain", "whole_space")

    def describe(self) -> str:
        return f"inverse({self.base.describe()})"

    def __call__(self, X):
        return self.base.inverse(X)

    def inverse(self, Y, tol: float = 1e-12):
        return self.base(Y)

    def inverted(self):
        return self.base
