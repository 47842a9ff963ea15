"""Admissible moduli of continuity and their calculus.

A modulus here is an increasing function phi on [0, 1] with phi(0) = 0 and
phi(1) = 1, extended by phi(s) = s for s >= 1.  Admissibility means four
quantitative conditions:

  endpoints    phi(0) = 0, phi(1) = 1, identity beyond 1, strictly increasing
  sandwich     phi'(s) <= phi(s)/s <= M * phi'(s)^2 for some finite M >= 1
  finiteness   the energy integral E[phi] = int_0^1 phi(s)^n ds/s converges
  concavity    phi'' <= 0 on some interval (0, r]

The sandwich condition forces phi(s)/s to be non-increasing (so the chord
slope is a stretch factor >= 1) and phi' >= 1/M.  The constants M and r are
measured numerically on a grid, never assumed.

Built-in families:

  identity     phi(s) = s, the power family at eps = 1
  power        phi(s) = s^eps, 0 < eps <= 1
  iterlog      phi(s) = prod_{j=1..k} (1 + a_j L_j(s))^(-beta_j) where L_j is
               the j-fold iterated logarithm of (e_j / s) normalized so that
               L_j(1) = 0, a_j = (1 - 1/n)^(j-1), beta_j = 1/n for j < k and
               beta_k = alpha.  These decay slower than any power of s, which
               is what makes their deformations fail quasiconformality.

All three are evaluated by one kernel in u = log(1/s): phi,
g = A'(u) = s phi'/phi (the elasticity) and h = A''(u) for A = -log phi, so
phi' = g phi / s and phi'' = (phi / s^2)(g^2 - g - h).  It never forms a
power of 1/s, so the calculus stays finite down to the smallest subnormal.

Everything evaluates in float64 and is vectorized over numpy arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable

import numpy as np

from ._roots import BracketError, newton_log
from .geometry import _check_dimension
from .reports import VerificationReport

__all__ = [
    "ModulusFunction",
    "MeasuredConstants",
    "ModulusEnergy",
    "EnergyDivergenceError",
    "BracketError",
    "modulus_energy",
    "modulus_energy_detailed",
    "energy_tail_bound",
    "measured_constants",
    "check_admissibility",
    "doubling_constant",
    "quasi_inverse_defect",
]


class EnergyDivergenceError(ArithmeticError):
    """Raised when the energy integral of a modulus fails to converge."""


# Tower of iterated exponentials e_j = exp(e_{j-1}) with e_1 = 1; the j-th
# iterlog factor uses log(e_j / s) = e_{j-1} + log(1/s), so depth k only needs
# the tower up to index k - 1.  Index 5 would overflow float64, which caps the
# practical depth at 5.
_EXP_TOWER = (0.0, 1.0, math.e, math.exp(math.e), math.exp(math.exp(math.e)))
_MAX_DEPTH = len(_EXP_TOWER)


def _as_array(s):
    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


def _scalar_out(arr, scalar):
    return float(arr) if scalar else arr


def _plan_jet(plan, u, order):
    """[A, A', A''] in u, cut to `order`, for A = -log prod (c + a L)^(-beta).

    ``plan`` has one (e, c, a, beta, logs) per factor, L being the logs-fold
    log of e + u (e = 0 when logs = 0).  The chain rule goes through one log
    at a time: log of the jet (f, f1, f2) is (log f, f1 / f, (f2 f - f1^2) / f^2).
    Products and sums with the constants 1 and 0 of e + u and with a = 1 or
    beta = 1 are left out; for finite u the bits are the full recurrence's.
    """
    A = None
    for e, c, a, beta, logs in plan:
        v0 = u if logs == 0 else e + u
        v1 = v2 = None                          # None: the constants 1 and 0
        for _ in range(logs):
            f, v0 = v0, np.log(v0)
            if order and v1 is None:
                v1 = 1.0 / f
                if order > 1:
                    v2 = -1.0 / (f * f)
            elif order:
                if order > 1:
                    v2 = (v2 * f - v1 * v1) / (f * f)
                v1 = v1 / f
        f = c + (v0 if a == 1.0 else a * v0)
        jet = [np.log(f)]
        if order and v1 is None:
            jet.append(a / f)
            if order > 1:
                jet.append(-(a * a) / (f * f))
        elif order:
            av1 = a * v1
            jet.append(av1 / f)
            if order > 1:
                jet.append((a * v2 * f - av1 * av1) / (f * f))
        if beta != 1.0:
            jet = [beta * x for x in jet]
        if A is None:
            A = jet
            if order > 1:
                A[2] += 0.0                     # 0.0 + x: a -0.0 curvature turns +0.0
        else:
            for i, x in enumerate(jet):
                A[i] += x
    return A


def _plan_curvature(plan) -> float:
    """sup |A''| over u >= 0 of a ``_plan_jet`` plan: |A''(0)|, 0 for no factor.

    Factor (e, c, a, beta, logs) adds beta (a L''/(c + a L) - (a L')^2/(c + a L)^2)
    to A''.  L' > 0 and L'' <= 0 shrink as u grows while c + a L grows, so
    each term is <= 0 and largest in size at u = 0.
    """
    return abs(float(_plan_jet(plan, np.zeros(1), 2)[2][0])) if plan else 0.0


# The parameters each family owns; constructing one with another's is an error.
_OWN_FIELDS = {"identity": ("eps",), "power": ("eps",), "iterlog": ("depth", "alpha")}


@dataclass(frozen=True)
class ModulusFunction:
    """One modulus of continuity with closed-form calculus where available.

    ``n`` is the ambient dimension the modulus is built for; it fixes the
    iterlog coefficients a_j = (1 - 1/n)^(j-1) and is the exponent of
    the energy integral.  The identity carries eps = 1, the power family's
    end point, and shares its kernel.  A parameter another family owns is
    rejected.
    """

    family: str
    n: int = 2
    eps: float | None = None
    depth: int | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.family not in _OWN_FIELDS:
            raise ValueError(f"unknown modulus family {self.family!r}")
        object.__setattr__(self, "n", _check_dimension(self.n))
        stray = [f for f in ("eps", "depth", "alpha")
                 if f not in _OWN_FIELDS[self.family] and getattr(self, f) is not None]
        if stray:
            raise ValueError(f"the {self.family} family takes no {', '.join(stray)}")
        if self.family == "identity":
            if self.eps not in (None, 1.0):
                raise ValueError("the identity is the power family at eps = 1")
            object.__setattr__(self, "eps", 1.0)
        if self.family == "power":
            if self.eps is None or not (0.0 < self.eps <= 1.0):
                raise ValueError("power family needs eps in (0, 1]")
        if self.family == "iterlog":
            depth = self.depth
            if not (isinstance(depth, numbers.Integral) and 1 <= depth <= _MAX_DEPTH):
                raise ValueError(f"iterlog depth must be an integer in [1, {_MAX_DEPTH}]")
            object.__setattr__(self, "depth", int(depth))
            # alpha > 1/n (finite energy) is left to the finiteness check
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError("iterlog family needs alpha in (0, 1]")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int = 2) -> "ModulusFunction":
        return cls(family="identity", n=n)

    @classmethod
    def power(cls, eps: float, n: int = 2) -> "ModulusFunction":
        return cls(family="power", n=n, eps=float(eps))

    @classmethod
    def iterlog(cls, depth: int, alpha: float, n: int = 2) -> "ModulusFunction":
        return cls(family="iterlog", n=n, depth=depth, alpha=float(alpha))

    # -- basic descriptors ---------------------------------------------------

    @cached_property
    def _plan(self) -> tuple[tuple[float, float, float, float, int], ...]:
        """The ``_plan_jet`` factors of iterlog (empty otherwise), built once.

        Factor j is (e_{j-1}, 1.0, a_j, beta_j, j - 1), that is (1 + a_j L_j)^(-beta_j)
        with L_j the (j-1)-fold log of e_{j-1} + u, a_j = (1 - 1/n)^(j-1),
        beta_j = 1/n for j < k and beta_k = alpha."""
        if self.family != "iterlog":
            return ()
        base = 1.0 - 1.0 / self.n
        return tuple((_EXP_TOWER[j - 1], 1.0, base ** (j - 1),
                      self.alpha if j == self.depth else 1.0 / self.n, j - 1)
                     for j in range(1, self.depth + 1))

    @cached_property
    def _curvature(self) -> float:
        """sup |h| = sup |A''| over u >= 0, the bound the Newton inverses stop
        with: |A''(0)| for iterlog, 0 for power (and the identity)."""
        return _plan_curvature(self._plan)

    def describe(self) -> str:
        """The family spec that parses back to this modulus (n=2 if absent)."""
        if self.family == "iterlog":
            return f"iterlog:k={self.depth},alpha={self.alpha},n={self.n}"
        name = "identity" if self.family == "identity" else f"power:eps={self.eps}"
        return name if self.n == 2 else f"{name},n={self.n}"

    # -- the kernel ----------------------------------------------------------

    def _kernel(self, s=None, u=None, order=1):
        """(phi, g, h) at s = e^-u in (0, 1], cut to `order`: phi = exp(-A), g = A', h = A''.

        Pass s or u; only the first order + 1 entries are computed.  Power
        keeps the closed form s**eps whenever s is given (the identity stays
        exact) and returns g = eps, h = 0 as floats, except g as an array for
        ``profile_log``, which passes u only; iterlog reads ``_plan_jet``.
        """
        if self.family != "iterlog":
            if s is None:
                return (np.exp(-self.eps * u), np.full_like(u, self.eps), 0.0)[:order + 1]
            return (s ** self.eps, self.eps, 0.0)[:order + 1]
        A = _plan_jet(self._plan, -np.log(s) if u is None else u, order)
        return (np.exp(-A[0]), *A[1:])

    # -- evaluation ----------------------------------------------------------

    def __call__(self, s):
        arr, scalar = _as_array(s)
        if not (arr >= 0).all():                # NaN fails each gate too
            raise ValueError("modulus argument must be >= 0")
        out = np.array(arr, dtype=float, copy=True)
        inner = (arr > 0) & (arr < 1.0)
        if inner.any():
            out[inner] = self._kernel(arr[inner], order=0)[0]
        out[arr == 0] = 0.0
        return _scalar_out(out, scalar)

    def derivative(self, s):
        """First derivative g phi / s.

        Defined for s > 0.  For s > 1 the identity extension gives 1; at s = 1
        the one-sided family form is used, since the calculus lives on (0, 1].
        """
        arr, scalar = _as_array(s)
        if not (arr > 0).all():
            raise ValueError("derivative needs s > 0")
        out = np.ones_like(arr)
        inner = arr <= 1.0
        if inner.any():
            si = arr[inner]
            phi, g = self._kernel(si)
            with np.errstate(over="ignore"):
                out[inner] = g * phi / si
        return _scalar_out(out, scalar)

    def second_derivative(self, s):
        """Second derivative (phi / s^2)(g^2 - g - h) on (0, 1].

        Rejects arguments outside that range.  Where |phi''| exceeds the
        float range (iterlog near s = 1e-300) the result is -inf, not NaN.
        """
        arr, scalar = _as_array(s)
        if not ((arr > 0) & (arr <= 1.0)).all():
            raise ValueError("second_derivative is defined on (0, 1]")
        phi, g, h = self._kernel(arr, order=2)
        with np.errstate(over="ignore"):
            out = phi / arr * ((g * g - g - h) / arr)
        return _scalar_out(out, scalar)

    def chord_slope(self, s):
        """phi(s)/s, the slope of the chord from the origin.

        This is the vertical stretch factor of the cone deformation; it is
        >= 1 and non-increasing for admissible moduli, and equals 1 for s >= 1
        (the identity extension, so s = inf gives 1 too).
        """
        arr, scalar = _as_array(s)
        if not (arr > 0).all():
            raise ValueError("chord_slope needs s > 0")
        phi = self(arr)
        with np.errstate(over="ignore", invalid="ignore"):   # inf at subnormal s
            return _scalar_out(np.where(arr < 1.0, phi / arr, 1.0), scalar)

    def elasticity(self, s):
        """g = s * phi'(s) / phi(s), the logarithmic slope; <= 1 for admissible moduli.

        Like ``derivative``, it is one-sided at s = 1 (the family form, equal
        to the g of ``profile_log(0)``) and 1 beyond, on the identity extension.
        """
        arr, scalar = _as_array(s)
        if not (arr > 0).all():
            raise ValueError("elasticity needs s > 0")
        out = np.ones_like(arr)
        inner = arr <= 1.0
        if inner.any():
            out[inner] = self.profile_log(-np.log(arr[inner]))[1]
        return _scalar_out(out, scalar)

    def profile_log(self, u):
        """(phi(e^-u), s phi'/phi at e^-u) parameterized by u = log(1/s) >= 0.

        This form never materializes s, so it stays finite for u far beyond
        the underflow threshold of e^-u; the energy quadratures and the
        Newton inverses rely on it.
        """
        arr, scalar = _as_array(u)
        if not (arr >= 0).all():
            raise ValueError("profile_log needs u >= 0")
        phi, g = self._kernel(u=arr)
        if scalar:
            return float(phi), float(g)
        return phi, g

    # -- inversion -----------------------------------------------------------

    def invert(self, v, tol: float = 1e-12):
        """Inverse value psi(v) = phi^{-1}(v) with relative residual <= tol.

        Safeguarded Newton on u = log s for F(u) = log phi(e^u) - log v,
        whose slope F' = g is the elasticity; value and slope come from one
        ``profile_log`` call per iteration.  F'' = -h bounds the step's
        error, so a power modulus (h = 0) stops after one evaluation.  The
        bracket [2^-1074, min(v, 1)] is valid because phi(s) >= s on
        [0, 1]; it is checked and a BracketError signals a modulus
        violating that (broken sandwich condition).  For log-type moduli
        and very small v the true preimage underflows and the result pins
        at the smallest subnormal.
        """
        arr, scalar = _as_array(v)
        if not (arr >= 0).all():
            raise ValueError("invert needs v >= 0")
        out = np.array(arr, dtype=float, copy=True)
        inner = (arr > 0) & (arr < 1.0)
        if inner.any():
            log_v = np.log(arr[inner])

            def jet(u, idx):
                phi, g = self.profile_log(-u)
                return np.log(phi) - log_v[idx], g

            out[inner] = newton_log(
                jet, log_v, tol,
                "phi(min(v,1)) < v: modulus is below the identity, bracket invalid",
                curvature=self._curvature)
        return _scalar_out(out, scalar)


# -- admissibility constants -------------------------------------------------

_GRID_SIZE = 4096       # log grid on [1e-9, 1] of the measured constants


@dataclass(frozen=True)
class MeasuredConstants:
    M: float
    concavity_radius: float


@lru_cache(maxsize=128)
def _grid_pass(phi: ModulusFunction) -> tuple[MeasuredConstants, bool, bool]:
    """phi, phi' and phi'' on the log grid, once: the measured constants, and
    whether phi strictly increases (C1) and phi' <= phi/s (C2) there."""
    grid = np.geomspace(1e-9, 1.0, _GRID_SIZE)
    val = phi(grid)
    der = phi.derivative(grid)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = val / (grid * der * der)
    M = float(np.max(ratio, initial=1.0, where=~np.isnan(ratio)))

    dd = phi.second_derivative(grid)
    convex = dd > 1e-9
    if not convex.any():
        radius = 1.0
    else:
        first_bad = int(np.argmax(convex))
        radius = 0.0 if first_bad == 0 else float(grid[first_bad - 1])
    increasing = bool(np.all(np.diff(val) > 0))
    slope_ok = bool(np.all(der <= val / grid * (1.0 + 1e-9) + 1e-15))
    return MeasuredConstants(M, radius), increasing, slope_ok


def measured_constants(phi: ModulusFunction) -> MeasuredConstants:
    """Measure the sandwich constant M and the concavity radius on a log grid.

    M is the smallest admissible constant sup phi / (s phi'^2) clipped below
    by 1, and inf where phi'^2 underflows on the grid; the concavity radius
    is the largest grid prefix on which phi'' <= 0.
    It reads the cached grid pass that check_admissibility shares, and its
    cache_clear() clears that pass.
    """
    return _grid_pass(phi)[0]


measured_constants.cache_clear = _grid_pass.cache_clear


# -- the energy integral E[phi] ----------------------------------------------


@dataclass(frozen=True)
class ModulusEnergy:
    """E[phi] with its bound."""

    value: float
    error_bound: float
    status: str  # "converged" | "truncated" | "diverged"


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_EPS = float(np.finfo(float).eps)
_ROUNDING = 8.0 * _EPS      # the rounding allowance of a sum, per unit of |value|


def _gl_panel(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss-Legendre nodes and weights on [lo, hi]; (P, 1) edge
    arrays give (P, 24), one panel per row."""
    half = 0.5 * (hi - lo)
    return lo + half * (_GL_NODES + 1.0), half * _GL_WEIGHTS


@cache
def _gl_rule(edges: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(P, 24) nodes and weights of the composite rule on P consecutive panels."""
    ends = np.array(edges)[:, None]
    return _gl_panel(ends[:-1], ends[1:])


@cache
def _doubling_edges(count: int) -> tuple[float, ...]:
    """Edges of the panels [0, 1], [1, 2], [2, 4], ..., [., 2^(count-1)]."""
    return (0.0, *(2.0 ** m for m in range(count)))


def _energy_diverges(phi: ModulusFunction) -> bool:
    """E[phi] is infinite: iterlog with n alpha <= 1."""
    return phi.family == "iterlog" and phi.n * phi.alpha <= 1.0


def _iterlog_density(phi: ModulusFunction, v: np.ndarray) -> np.ndarray:
    """C_k(v) = prod_{j<k} F_j, F_j = w_{k-j} / (1 + a_j L_j), at u = L_k^{-1}(v).

    The tower w_0 = v, w_i = exp(w_{i-1}) gives u = w_{k-1} - e_{k-1} and
    du/dv = w_1 ... w_{k-1}.  The offsets d_i = w_i - e_i = e_i expm1(d_{i-1})
    keep u accurate near v = 0.  Where u overflows, L_j equals w_{k-j} to
    double precision (their gap is below e_{k-1}/u), so F_j = 1/(a_j + 1/w_{k-j}).
    """
    k, a = phi.depth, [a_j for _, _, a_j, _, _ in phi._plan]
    with np.errstate(over="ignore", invalid="ignore"):
        d = [v]
        for i in range(1, k):
            d.append(_EXP_TOWER[i] * np.expm1(d[-1]))
        u = d[-1]
        finite = np.isfinite(u)
        C = np.ones_like(v)
        for j in range(1, k):
            w = _EXP_TOWER[k - j] + d[k - j]
            L = _EXP_TOWER[j - 1] + u
            for _ in range(j - 1):
                L = np.log(L)
            C /= a[j - 1] * np.where(finite, L / w, 1.0) + 1.0 / w
    return C


_V_SPAN = 64.0          # energy_tail_bound integrates C_k - C_inf over [V, V + 64]


def energy_tail_bound(phi: ModulusFunction, U: float) -> tuple[float, float]:
    """(T, T_err): the remainder T(U) = int_U^inf phi(e^-u)^n du and its error bound.

    E[phi] = T(0), and the tensor quadrature adds T(U) past its last panel.
    Power (the identity at eps = 1) has T = e^{-n eps U}/(n eps), T_err = 0;
    iterlog with n alpha <= 1 gives (inf, inf).  Iterlog of any depth k is
    written in v = L_k(u): phi^n du = C_k(v) (1 + a_k v)^(-n alpha) dv,
    with C_k -> C_inf = 1/prod_{j<k} a_j (_iterlog_density).
    With V = L_k(U),

        T = C_inf (1 + a_k V)^(1 - n alpha) / (a_k (n alpha - 1))
            + int_V^inf (C_k - C_inf) (1 + a_k v)^(-n alpha) dv.

    The integral vanishes for k <= 2 (C_1 = C_2 = 1, T_err = 0).  Otherwise
    Gauss-Legendre panels cover [V, V + 64], doubling away from V from a
    first width of (1 + U) / (2 u'(V)).  The nearest singularity of C_k, the
    pole of 1/(1 + a_2 L_2) at u = e^(-1/a_2) - 1 <= -0.63, is at least
    0.63 (1 + U) / u'(V) away in v, since u is convex in v.

    Past V + 64 a majorant takes over.  With e = e_{k-1} and w = w_{k-j},
    0 <= w - L_j <= e (mean value theorem; every log of the chain has an
    argument >= 1), so |a_j F_j - 1| = |w - L_j - 1/a_j| / (L_j + 1/a_j)
    <= (e + 1/a_j) / (w - e) <= 2 B e^-v with B = e + 1/a_{k-1}, because
    w >= w_1 = e^v >= 2e for v >= 64.  The k - 1 factors give |C_k - C_inf|
    <= 4 (k - 1) B C_inf e^-v, and the remainder past V + 64 at most
    4 (k - 1) B C_inf (1 + a_k (V + 64))^(-n alpha) e^-(V + 64).  T_err is
    that plus a rounding allowance of 8 k eps times the panels' mass; the
    panels resolve the integral to that level (checked against a 40-digit
    oracle).
    """
    if phi.family != "iterlog":              # power, and the identity at eps = 1
        rate = phi.n * phi.eps
        return math.exp(-rate * U) / rate, 0.0
    na = phi.n * phi.alpha
    if na <= 1.0:
        return math.inf, math.inf
    k, a = phi.depth, [a_j for _, _, a_j, _, _ in phi._plan]
    V, slope = U, 1.0
    for i in range(k - 1, 0, -1):            # V = L_k(U), slope = u'(V)
        slope *= _EXP_TOWER[i] + V
        V = math.log1p(V / _EXP_TOWER[i])
    C_inf = 1.0 / math.prod(a[:-1])
    T = C_inf * (1.0 + a[-1] * V) ** (1.0 - na) / (a[-1] * (na - 1.0))
    if k <= 2:
        return T, 0.0
    h = min(1.0, 0.5 * (1.0 + U) / slope)
    count = math.ceil(math.log2(_V_SPAN / h)) + 1
    scale = _V_SPAN / 2.0 ** (count - 1)
    x, wx = _gl_rule(_doubling_edges(count))
    v = V + scale * x
    decay = (1.0 + a[-1] * v) ** (-na)
    density = _iterlog_density(phi, v)
    T += scale * float(np.sum(wx * (density - C_inf) * decay))
    end = V + _V_SPAN
    B = _EXP_TOWER[k - 1] + 1.0 / a[-2]
    beyond = 4.0 * (k - 1) * B * C_inf * (1.0 + a[-1] * end) ** (-na) * math.exp(-end)
    mass = scale * float(np.sum(wx * density * decay))
    return T, beyond + 8.0 * k * _EPS * mass


def modulus_energy_detailed(phi: ModulusFunction, tol: float = 1e-9) -> ModulusEnergy:
    """E[phi] = int_0^1 phi(s)^n ds/s, n = phi.n, with an explicit convergence verdict.

    E[phi] = T(0) of ``energy_tail_bound``, bounded by T_err + 8 eps E[phi]
    and "converged" when that meets tol; iterlog diverges exactly when
    n alpha <= 1.
    """
    if _energy_diverges(phi):
        return ModulusEnergy(math.inf, math.inf, "diverged")
    T, T_err = energy_tail_bound(phi, 0.0)
    err = T_err + _ROUNDING * abs(T)
    status = "converged" if err <= tol * max(1.0, abs(T)) else "truncated"
    return ModulusEnergy(T, err, status)


def modulus_energy(phi: ModulusFunction) -> float:
    """E[phi] as a plain float; raises EnergyDivergenceError when it diverges."""
    result = modulus_energy_detailed(phi)
    if result.status == "diverged":
        raise EnergyDivergenceError(
            f"energy integral of {phi.describe()} diverges (exponent n={phi.n})")
    return result.value


# -- condition suite ----------------------------------------------------------


def _add_parts(report: VerificationReport, condition: str, parts: dict,
               detail: str, **fields) -> None:
    """Add a row that passes when every part does; a failing row names its failed parts."""
    failed = [part for part, ok in parts.items() if not ok]
    if failed:
        detail += "; fails: " + ", ".join(failed)
    report.add(condition, not failed, detail=detail, **fields)


def check_admissibility(phi: ModulusFunction) -> VerificationReport:
    """Run the four admissibility conditions and record measured constants.

    The report carries one row per condition plus the measured sandwich
    constant M, the concavity radius, and the energy value in its metadata.
    """
    report = VerificationReport(title=f"admissibility of {phi.describe()}")
    grid_size, energy_tol = _GRID_SIZE, 1e-6
    constants, increasing, slope_ok = _grid_pass(phi)

    # endpoints and monotonicity
    ends = {"phi(0)=0": abs(phi(0.0)), "phi(1)=1": abs(phi(1.0) - 1.0),
            "identity beyond 1": abs(phi(1.7) - 1.7)}
    end_resid = max(ends.values())
    _add_parts(report, "endpoints (C1)",
               {**{part: r <= 1e-12 for part, r in ends.items()},
                "strictly increasing": increasing},
               measured_constant=end_resid, grid_size=grid_size, tolerance=1e-12,
               detail="phi(0)=0, phi(1)=1, identity beyond 1, strictly increasing")

    # derivative sandwich
    _add_parts(report, "derivative sandwich (C2)",
               {"phi' <= phi/s": slope_ok, "finite M": math.isfinite(constants.M)},
               measured_constant=constants.M, grid_size=grid_size,
               detail="phi' <= phi/s everywhere and phi/s <= M phi'^2 with finite M")

    # finite energy: decided analytically
    energy = modulus_energy_detailed(phi, tol=energy_tol)
    report.add("finite energy (C3)", energy.status != "diverged",
               measured_constant=energy.value if math.isfinite(energy.value) else None,
               tolerance=energy_tol,
               detail=f"status {energy.status}, error bound {energy.error_bound:.3g}")

    # concavity near the origin
    report.add("concavity near 0 (C4)", constants.concavity_radius > 0.0,
               measured_constant=constants.concavity_radius, grid_size=grid_size,
               detail="largest grid prefix with phi'' <= 0")

    report.metadata.update({
        "family": phi.describe(),
        "M": constants.M,
        "concavity_radius": constants.concavity_radius,
        "energy_value": energy.value,
        "energy_status": energy.status,
    })
    return report


# -- derived functionals -------------------------------------------------------


def doubling_constant(phi: ModulusFunction, factor: float) -> float:
    """sup of phi(factor * t) / phi(t) over t in (0, 1/factor], measured on a log grid.

    The grid includes the endpoint t = 1/factor, where the supremum sits for
    the built-in families (the ratio increases toward it).
    """
    if factor <= 1.0:
        raise ValueError("doubling factor must exceed 1")
    grid = np.geomspace(1e-12, 1.0 / factor, 4096)
    return float(np.max(phi(factor * grid) / phi(grid)))


def quasi_inverse_defect(phi: ModulusFunction, psi: Callable) -> tuple[float, float]:
    """(inf, sup) of psi(phi(t)) / t over a log grid on [1e-6, 1].

    psi is any function of arrays: a modulus, or ``phi.invert``.  For psi
    the exact inverse of phi both bounds are 1 up to solver
    tolerance; for mismatched pairs the sup measures how badly the
    composition distorts scales (it grows without bound for log-type phi
    composed with itself).
    """
    grid = np.geomspace(1e-6, 1.0, 1024)
    ratios = psi(phi(grid)) / grid
    return float(np.min(ratios)), float(np.max(ratios))
