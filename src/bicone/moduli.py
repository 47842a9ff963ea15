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
  custom       user-supplied evaluation; derivatives fall back to central
               differences and inversion to Newton steps on
               finite-difference slopes.

The built-in families are evaluated by one kernel in u = log(1/s): phi,
g = A'(u) = s phi'/phi (the elasticity) and h = A''(u) for A = -log phi, so
phi' = g phi / s and phi'' = (phi / s^2)(g^2 - g - h).  It never forms a
power of 1/s, so the calculus stays finite down to the smallest subnormal.

Everything evaluates in float64 and is vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._roots import BracketError, newton_log
from .reports import VerificationReport

__all__ = [
    "ModulusFunction",
    "MeasuredConstants",
    "ModulusEnergy",
    "EnergyDivergenceError",
    "BracketError",
    "modulus_energy",
    "modulus_energy_detailed",
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


def _jet_log(f, d1, d2):
    """Propagate (value, first, second derivative) through a logarithm."""
    return np.log(f), d1 / f, (d2 * f - d1 * d1) / (f * f)


def _as_array(s):
    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


def _scalar_out(arr, scalar):
    return float(arr) if scalar else arr


@dataclass(frozen=True)
class ModulusFunction:
    """One modulus of continuity with closed-form calculus where available.

    ``n`` is the ambient dimension the modulus is built for; it fixes the
    iterlog coefficients a_j = (1 - 1/n)^(j-1) and is the default exponent of
    the energy integral.  The identity carries eps = 1, the power family's
    end point, and shares its kernel.
    """

    family: str
    n: int = 2
    eps: float | None = None
    depth: int | None = None
    alpha: float | None = None
    fn: Callable | None = None
    label: str = ""

    def __post_init__(self):
        if self.family not in ("identity", "power", "iterlog", "custom"):
            raise ValueError(f"unknown modulus family {self.family!r}")
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValueError("dimension n must be an integer >= 2")
        if self.family == "identity":
            object.__setattr__(self, "eps", 1.0)
        if self.family == "power":
            if self.eps is None or not (0.0 < self.eps <= 1.0):
                raise ValueError("power family needs eps in (0, 1]")
        if self.family == "iterlog":
            if self.depth is None or not (1 <= int(self.depth) < _MAX_DEPTH + 1):
                raise ValueError(f"iterlog depth must be an integer in [1, {_MAX_DEPTH}]")
            if self.depth >= _MAX_DEPTH and not np.isfinite(_EXP_TOWER[-1]):
                raise ValueError("iterlog tower overflows float64 at this depth")
            # alpha > 1/n is required for finite energy but construction only
            # enforces the hard range; the finiteness check reports the rest.
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError("iterlog family needs alpha in (0, 1]")
        if self.family == "custom" and not callable(self.fn):
            raise ValueError("custom family needs a callable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int = 2) -> "ModulusFunction":
        return cls(family="identity", n=n)

    @classmethod
    def power(cls, eps: float, n: int = 2) -> "ModulusFunction":
        return cls(family="power", n=n, eps=float(eps))

    @classmethod
    def iterlog(cls, depth: int, alpha: float, n: int = 2) -> "ModulusFunction":
        return cls(family="iterlog", n=n, depth=int(depth), alpha=float(alpha))

    @classmethod
    def custom(cls, fn: Callable, n: int = 2, label: str = "") -> "ModulusFunction":
        """A modulus evaluated by ``fn``, which must accept numpy arrays."""
        return cls(family="custom", n=n, fn=fn, label=label)

    # -- basic descriptors ---------------------------------------------------

    @property
    def coefficients(self) -> tuple[float, ...]:
        """Iterlog coefficients a_j = (1 - 1/n)^(j-1); empty for other families."""
        if self.family != "iterlog":
            return ()
        base = 1.0 - 1.0 / self.n
        return tuple(base ** (j - 1) for j in range(1, self.depth + 1))

    def describe(self) -> str:
        if self.family == "identity":
            return "identity"
        if self.family == "power":
            return f"power:eps={self.eps}"
        if self.family == "iterlog":
            return f"iterlog:k={self.depth},alpha={self.alpha},n={self.n}"
        return f"custom:{self.label or 'anonymous'}"

    # -- the kernel ----------------------------------------------------------

    def _kernel(self, s=None, u=None):
        """(phi, g, h) of a built-in family at s = e^-u in (0, 1]; pass s or u.

        Power keeps the closed form s**eps whenever s is given (the identity
        stays exact) and returns g = eps, h = 0 as floats, except g as an
        array for ``profile_log``, which passes u only.
        """
        if self.family != "iterlog":
            if s is None:
                return np.exp(-self.eps * u), np.full_like(u, self.eps), 0.0
            return s ** self.eps, self.eps, 0.0
        if u is None:
            u = -np.log(s)
        A = g = h = 0.0
        for j, a in enumerate(self.coefficients, start=1):
            beta = self.alpha if j == self.depth else 1.0 / self.n
            v = (_EXP_TOWER[j - 1] + u, 1.0, 0.0)
            for _ in range(j - 1):
                v = _jet_log(*v)
            l0, l1, l2 = _jet_log(1.0 + a * v[0], a * v[1], a * v[2])
            A, g, h = A + beta * l0, g + beta * l1, h + beta * l2
        return np.exp(-A), g, h

    # -- evaluation ----------------------------------------------------------

    def __call__(self, s):
        arr, scalar = _as_array(s)
        if (arr < 0).any():
            raise ValueError("modulus argument must be >= 0")
        out = np.array(arr, dtype=float, copy=True)
        inner = (arr > 0) & (arr < 1.0)
        if inner.any():
            si = arr[inner]
            out[inner] = self.fn(si) if self.family == "custom" else self._kernel(si)[0]
        out[arr == 0] = 0.0
        return _scalar_out(out, scalar)

    def derivative(self, s):
        """First derivative g phi / s; central differences for custom.

        Defined for s > 0.  For s > 1 the identity extension gives 1; at s = 1
        the one-sided family form is used, since the calculus lives on (0, 1].
        """
        arr, scalar = _as_array(s)
        if (arr <= 0).any():
            raise ValueError("derivative needs s > 0")
        out = np.ones_like(arr)
        inner = arr <= 1.0
        if inner.any():
            si = arr[inner]
            if self.family == "custom":
                h = np.maximum(1e-7, 1e-4 * si)
                h = np.minimum(h, 0.5 * si)
                out[inner] = (self(si + h) - self(si - h)) / (2.0 * h)
            else:
                phi, g, _ = self._kernel(si)
                out[inner] = g * phi / si
        return _scalar_out(out, scalar)

    def second_derivative(self, s):
        """Second derivative (phi / s^2)(g^2 - g - h) on (0, 1].

        Rejects arguments outside that range.  Where |phi''| exceeds the
        float range (iterlog near s = 1e-300) the result is -inf, not NaN.
        """
        arr, scalar = _as_array(s)
        if (arr <= 0).any() or (arr > 1.0).any():
            raise ValueError("second_derivative is defined on (0, 1]")
        if self.family == "custom":
            h = np.maximum(1e-5, 1e-3 * arr)
            h = np.minimum(h, 0.5 * arr)
            out = (self(arr + h) - 2.0 * self(arr) + self(arr - h)) / (h * h)
        else:
            phi, g, h = self._kernel(arr)
            with np.errstate(over="ignore"):
                out = phi / arr * ((g * g - g - h) / arr)
        return _scalar_out(out, scalar)

    def chord_slope(self, s):
        """phi(s)/s, the slope of the chord from the origin.

        This is the vertical stretch factor of the cone deformation; it is
        >= 1 and non-increasing for admissible moduli, and equals 1 for s >= 1.
        """
        arr, scalar = _as_array(s)
        if (arr <= 0).any():
            raise ValueError("chord_slope needs s > 0")
        return _scalar_out(self(arr) / arr, scalar)

    def elasticity(self, s):
        """g = s * phi'(s) / phi(s), the logarithmic slope; <= 1 for admissible moduli."""
        arr, scalar = _as_array(s)
        if (arr <= 0).any():
            raise ValueError("elasticity needs s > 0")
        out = np.ones_like(arr)
        inner = arr < 1.0
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
        if (arr < 0).any():
            raise ValueError("profile_log needs u >= 0")
        if self.family == "custom":
            s = np.exp(-arr)
            phi = np.asarray(self(s))
            g = np.zeros_like(arr)
            pos = (s > 0) & (phi > 0)
            g[pos] = s[pos] * self.derivative(s[pos]) / phi[pos]
        else:
            phi, g, _ = self._kernel(u=arr)
        if scalar:
            return float(phi), float(g)
        return phi, g

    # -- inversion -----------------------------------------------------------

    def invert(self, v, tol: float = 1e-12):
        """Inverse value psi(v) = phi^{-1}(v) with relative residual <= tol.

        Safeguarded Newton on u = log s for F(u) = log phi(e^u) - log v,
        whose slope F' = g is the elasticity; value and slope come from one
        ``profile_log`` call per iteration.  The bracket [2^-1074, min(v, 1)]
        is valid because phi(s) >= s on [0, 1]; it is checked and a
        BracketError signals a modulus violating that (broken sandwich
        condition).  For log-type moduli and very small v the true preimage
        underflows and the result pins at the smallest subnormal.
        """
        arr, scalar = _as_array(v)
        if (arr < 0).any():
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
                "phi(min(v,1)) < v: modulus is below the identity, bracket invalid")
        return _scalar_out(out, scalar)

    def inverse(self) -> "ModulusFunction":
        """The inverse function packaged as a custom modulus (for quasi-inverse probes)."""
        return ModulusFunction.custom(self.invert, n=self.n,
                                      label=f"inverse({self.describe()})")


# -- admissibility constants -------------------------------------------------


@dataclass(frozen=True)
class MeasuredConstants:
    M: float
    concavity_radius: float
    grid_size: int


@lru_cache(maxsize=128)
def measured_constants(phi: ModulusFunction, grid_size: int = 4096) -> MeasuredConstants:
    """Measure the sandwich constant M and the concavity radius on a log grid.

    M is the smallest admissible constant sup phi / (s phi'^2) clipped below
    by 1; the concavity radius is the largest grid prefix on which phi'' <= 0.
    """
    grid = np.geomspace(1e-9, 1.0, grid_size)
    val = phi(grid)
    der = phi.derivative(grid)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = val / (grid * der * der)
    M = float(max(1.0, np.max(ratio[np.isfinite(ratio)])))

    dd = phi.second_derivative(grid)
    convex = dd > 1e-9
    if not convex.any():
        radius = 1.0
    else:
        first_bad = int(np.argmax(convex))
        radius = 0.0 if first_bad == 0 else float(grid[first_bad - 1])
    return MeasuredConstants(M, radius, grid_size)


# -- the energy integral E[phi] ----------------------------------------------


@dataclass(frozen=True)
class ModulusEnergy:
    """Result of integrating phi^n ds/s over (0, 1] after u = log(1/s)."""

    value: float
    error_bound: float
    status: str  # "converged" | "truncated" | "diverged"
    panels: int
    U: float


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gl_panel(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss-Legendre nodes and weights on [lo, hi]."""
    half = 0.5 * (hi - lo)
    return lo + half * (_GL_NODES + 1.0), half * _GL_WEIGHTS


def _doubling_panels(count: int):
    """(U, nodes, weights) of the panels [0, 1], [1, 2], [2, 4], ..., [., U].

    The panels double geometrically up to U = 2^(count-1), U being each
    panel's right end; every doubling quadrature of the package runs on them.
    """
    for m in range(count):
        lo, hi = (0.0, 1.0) if m == 0 else (2.0 ** (m - 1), 2.0 ** m)
        yield (hi, *_gl_panel(lo, hi))


def _increment_verdict(increments: list[float], threshold: float) -> str | None:
    """Judge a doubling quadrature from its panel increments alone.

    "converged" once the last four increments decrease and the last is at
    most threshold/8, "diverged" once they grew three times running, and
    None before five panels or while undecided.
    """
    if len(increments) < 5:
        return None
    a, b, c, d = increments[-4:]
    if a > b > c > d and d <= threshold / 8.0:
        return "converged"
    if a <= b <= c <= d:
        return "diverged"
    return None


def _analytic_energy_status(phi: ModulusFunction, n: int) -> str:
    if phi.family == "iterlog":
        return "convergent" if n * phi.alpha > 1.0 else "divergent"
    return "unknown" if phi.eps is None else "convergent"


def energy_tail_bound(phi: ModulusFunction, n: int, U: float) -> tuple[float, bool]:
    """Bound for int_U^inf phi(e^-u)^n du with an exactness flag.

    For identity/power and iterlog depths 1 and 2 the u-substitution chain
    closes and the remainder is available in exact form (flag True), so it
    can be added to a truncated quadrature rather than merely bounding it.
    Depth 3 gets a rigorous non-exact majorant: substituting w = L_3(u) and
    using (e+u)/(1+u) <= e, log(e+u) <= 1 + log(1+u) and
    (1+l)/(1+a2 l) <= 1/a2 gives phi^n du <= (e/a2)(1+a3 w)^(-n alpha) dw.
    It decays only in the doubly iterated logarithm of U, so quadratures for
    depth 3 should prefer the dedicated change of variables in
    _iterlog3_profile; deeper towers and custom moduli return inf.
    """
    if phi.eps is not None:                  # power, and the identity at eps = 1
        rate = n * phi.eps
        return math.exp(-rate * U) / rate, True
    if phi.family != "iterlog":
        return math.inf, False
    na = n * phi.alpha
    if na <= 1.0:
        return math.inf, False
    a = phi.coefficients
    if phi.depth == 1:
        return (1.0 + U) ** (1.0 - na) / (na - 1.0), True
    if phi.depth == 2:
        a2 = a[1]
        return (1.0 + a2 * math.log1p(U)) ** (1.0 - na) / (a2 * (na - 1.0)), True
    if phi.depth == 3:
        a2, a3 = a[1], a[2]
        W = math.log(math.log(math.e + U))
        return (math.e / a2) * (1.0 + a3 * W) ** (1.0 - na) / (a3 * (na - 1.0)), False
    return math.inf, False


def _iterlog3_profile(phi: ModulusFunction, n: int):
    """Integrand and tail bound for depth-3 iterlog energy in v = L_3(u).

    With v the innermost iterated logarithm, u = exp(exp(v)) - e and the
    integrand becomes

        (1 + a3 v)^(-n alpha) * D(v) / (e^-v + a2 (1 + c(v) e^-v))

    where D(v) = 1 / (1 - (e-1) exp(-exp(v))) >= 1 is decreasing and
    c(v) = log1p(-(e-1) exp(-exp(v))) lies in [-1, 0].  Both corrections are
    written so nothing overflows for any v >= 0.  Since c >= -1 and D is
    decreasing, the integrand beyond V is at most D(V)/a2 times
    (1 + a3 v)^(-n alpha), which integrates in closed form; that majorant is
    the returned tail bound and it decays polynomially in V.
    """
    a2, a3 = phi.coefficients[1], phi.coefficients[2]
    na = n * phi.alpha

    def integrand(v):
        t = np.exp(np.minimum(v, 700.0))
        w = np.exp(-t)
        c = np.log1p(-(math.e - 1.0) * w)
        D = 1.0 / (1.0 + (1.0 - math.e) * w)
        ev = np.exp(-v)
        return D * (1.0 + a3 * v) ** (-na) / (ev + a2 * (1.0 + c * ev))

    def tail(V):            # only called for n alpha > 1, where E[phi] is finite
        DV = 1.0 / (1.0 - (math.e - 1.0) * math.exp(-min(math.exp(min(V, 700.0)), 700.0)))
        return DV / a2 * (1.0 + a3 * V) ** (1.0 - na) / (a3 * (na - 1.0)), False

    return integrand, tail


def modulus_energy_detailed(phi: ModulusFunction, n: int | None = None,
                            tol: float = 1e-9,
                            max_doublings: int = 128) -> ModulusEnergy:
    """Adaptive evaluation of E[phi] with an explicit convergence verdict.

    The substitution u = log(1/s) removes the ds/s singularity exactly; the
    integrand phi(e^-u)^n is then integrated over geometrically growing
    panels [2^{m-1}, 2^m] by Gauss-Legendre.  Where the remainder past the
    last panel is known exactly (identity, power, iterlog depths 1-2) it is
    added and the run stops once that sum stabilizes; depth 3 integrates in
    the innermost log variable where its tail bound actually decays; deeper
    towers report an honest truncation.  Divergence is decided analytically
    for the built-in families (iterlog diverges exactly when n * alpha <= 1)
    and by a growth monitor on the panel increments otherwise.
    """
    n = phi.n if n is None else int(n)
    verdict = _analytic_energy_status(phi, n)
    if verdict == "divergent":
        return ModulusEnergy(math.inf, math.inf, "diverged", 0, 0.0)

    if phi.family == "iterlog" and phi.depth == 3:
        integrand, tail_fn = _iterlog3_profile(phi, n)
    else:
        def integrand(u):
            return phi.profile_log(u)[0] ** n

        def tail_fn(U):
            return energy_tail_bound(phi, n, U)

    total = 0.0
    increments: list[float] = []
    prev_value = None
    U = 0.0
    for m, (U, u, wu) in enumerate(_doubling_panels(max_doublings)):
        inc = float(np.sum(wu * integrand(u)))
        total += inc
        increments.append(inc)
        tail, exact = tail_fn(U)
        threshold = tol * max(1.0, abs(total))
        if exact:
            value = total + tail
            if prev_value is not None and abs(value - prev_value) <= 0.25 * threshold:
                err = max(abs(value - prev_value), 8.0 * np.finfo(float).eps * abs(value))
                return ModulusEnergy(value, err, "converged", m + 1, U)
            prev_value = value
            continue
        if tail <= threshold:
            return ModulusEnergy(total, tail, "converged", m + 1, U)
        if not math.isfinite(tail):
            # no usable tail bound: rely on the decay of the increments
            decided = _increment_verdict(increments, threshold)
            if decided == "converged":
                return ModulusEnergy(total, 8.0 * inc, "converged", m + 1, U)
            if decided == "diverged" and verdict == "unknown":
                return ModulusEnergy(math.inf, math.inf, "diverged", m + 1, U)
    tail, exact = tail_fn(U)
    if exact:
        return ModulusEnergy(total + tail, 8.0 * np.finfo(float).eps * abs(total + tail),
                             "converged", max_doublings, U)
    return ModulusEnergy(total, tail, "truncated", max_doublings, U)


def modulus_energy(phi: ModulusFunction, n: int | None = None,
                   tol: float = 1e-9) -> float:
    """E[phi] as a plain float; raises EnergyDivergenceError when it diverges."""
    result = modulus_energy_detailed(phi, n=n, tol=tol)
    if result.status == "diverged":
        raise EnergyDivergenceError(
            f"energy integral of {phi.describe()} diverges (exponent n={n or phi.n})")
    return result.value


# -- condition suite ----------------------------------------------------------


def check_admissibility(phi: ModulusFunction, grid_size: int = 4096,
                        energy_tol: float = 1e-6) -> VerificationReport:
    """Run the four admissibility conditions and record measured constants.

    The report carries one row per condition plus the measured sandwich
    constant M, the concavity radius, and the energy value in its metadata.
    """
    report = VerificationReport(title=f"admissibility of {phi.describe()}")
    grid = np.geomspace(1e-9, 1.0, grid_size)
    val = phi(grid)
    der = phi.derivative(grid)
    lam = val / grid

    # endpoints and monotonicity
    end_resid = max(abs(phi(0.0)), abs(phi(1.0) - 1.0), abs(phi(1.7) - 1.7))
    increasing = bool(np.all(np.diff(val) > 0))
    report.add("endpoints (C1)", end_resid <= 1e-12 and increasing,
               measured_constant=end_resid, grid_size=grid_size, tolerance=1e-12,
               detail="phi(0)=0, phi(1)=1, identity beyond 1, strictly increasing")

    # derivative sandwich
    first_ok = bool(np.all(der <= lam * (1.0 + 1e-9) + 1e-15))
    constants = measured_constants(phi, grid_size)
    sandwich_ok = first_ok and math.isfinite(constants.M)
    report.add("derivative sandwich (C2)", sandwich_ok,
               measured_constant=constants.M, grid_size=grid_size,
               detail="phi' <= phi/s everywhere and phi/s <= M phi'^2 with finite M")

    # finite energy under refinement: decided analytically where possible
    energy = modulus_energy_detailed(phi, tol=energy_tol, max_doublings=400)
    energy_ok = (_analytic_energy_status(phi, phi.n) == "convergent"
                 or energy.status == "converged")
    report.add("finite energy (C3)", energy_ok,
               measured_constant=energy.value if math.isfinite(energy.value) else None,
               tolerance=energy_tol,
               detail=f"quadrature status: {energy.status} after {energy.panels} panels")

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


def doubling_constant(phi: ModulusFunction, factor: float,
                      grid_size: int = 4096) -> float:
    """sup of phi(factor * t) / phi(t) over t in (0, 1/factor], measured on a log grid.

    The grid includes the endpoint t = 1/factor, where the supremum sits for
    the built-in families (the ratio increases toward it).
    """
    if factor <= 1.0:
        raise ValueError("doubling factor must exceed 1")
    grid = np.geomspace(1e-12, 1.0 / factor, grid_size)
    return float(np.max(phi(factor * grid) / phi(grid)))


def quasi_inverse_defect(phi: ModulusFunction, psi: ModulusFunction,
                         grid_size: int = 1024,
                         t_min: float = 1e-6) -> tuple[float, float]:
    """(inf, sup) of psi(phi(t)) / t over a log grid on [t_min, 1].

    For psi the exact inverse of phi both bounds are 1 up to solver
    tolerance; for mismatched pairs the sup measures how badly the
    composition distorts scales (it grows without bound for log-type phi
    composed with itself).
    """
    grid = np.geomspace(t_min, 1.0, grid_size)
    ratios = psi(phi(grid)) / grid
    return float(np.min(ratios)), float(np.max(ratios))
