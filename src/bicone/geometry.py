"""Cone-norm geometry on R^(n-1) x R and deterministic point samplers.

Points are rows (x_1, ..., x_{n-1}, t); the cone norm is |x| + |t|, whose
closed unit ball is the double cone.  The upper cone is the part with t >= 0.
Samplers are deterministic functions of their seed, and the quasi-random ones
have the prefix property: the first N points of a longer run coincide with a
shorter run, so sampled suprema are monotone under sample growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "cone_norm",
    "euclid_norm",
    "reflect",
    "in_upper_cone",
    "in_double_cone",
    "cone_volume",
    "sphere_surface_area",
    "kronecker_sequence",
    "sample_cone_sphere",
    "sample_cone_interior",
    "InteriorSample",
]


def _rows(X):
    arr = np.asarray(X, dtype=float)
    return arr, arr.ndim == 1


def cone_norm(X):
    """|x| + |t| for points with coordinates (..., x_{n-1}, t)."""
    arr, single = _rows(X)
    out = np.linalg.norm(arr[..., :-1], axis=-1) + np.abs(arr[..., -1])
    return float(out) if single else out


def euclid_norm(X):
    arr, single = _rows(X)
    out = np.linalg.norm(arr, axis=-1)
    return float(out) if single else out


def reflect(X):
    """Mirror about the base hyperplane: (x, t) -> (x, -t)."""
    arr, single = _rows(X)
    out = arr.copy()
    out[..., -1] = -out[..., -1]
    return out


def in_upper_cone(X, tol: float = 1e-12):
    arr, single = _rows(X)
    t = arr[..., -1]
    out = (t >= -tol) & (cone_norm(arr) <= 1.0 + tol)
    return bool(out) if single else out


def in_double_cone(X, tol: float = 1e-12):
    arr, single = _rows(X)
    out = cone_norm(arr) <= 1.0 + tol
    return bool(out) if single else out


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d (d = 0 gives 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def cone_volume(n: int) -> float:
    """Volume of the upper cone: unit (n-1)-ball base, unit height, so |B^{n-1}|/n."""
    return unit_ball_volume(n - 1) / n


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit sphere S^d in R^{d+1}; S^0 counts two points."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


# -- quasi-random machinery ----------------------------------------------------


def kronecker_sequence(count: int, dim: int, seed: int = 0, skip: int = 0):
    """Additive-recurrence low-discrepancy points in [0,1)^dim.

    Uses the generalized golden ratio (the root of x^(dim+1) = x + 1) for the
    step vector and a seeded random offset, so different seeds give shifted
    lattices while a fixed seed gives a sequence whose prefixes are nested.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alphas = np.array([phi ** -(j + 1) for j in range(dim)])
    offset = np.random.default_rng(seed).random(dim)
    idx = np.arange(skip + 1, skip + count + 1, dtype=float)[:, None]
    return (offset + idx * alphas) % 1.0


def _inv_norm_cdf(p):
    """Inverse standard normal CDF (Acklam's rational approximation, ~1e-9)."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p = np.clip(np.asarray(p, dtype=float), 1e-15, 1.0 - 1e-15)
    out = np.empty_like(p)
    low, high = 0.02425, 1.0 - 0.02425
    m_lo, m_hi, m_mid = p < low, p > high, (p >= low) & (p <= high)
    if m_lo.any():
        q = np.sqrt(-2.0 * np.log(p[m_lo]))
        out[m_lo] = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                     / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if m_hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p[m_hi]))
        out[m_hi] = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                      / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if m_mid.any():
        q = p[m_mid] - 0.5
        r = q * q
        out[m_mid] = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
                      / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    return out


def _directions(u):
    """Map [0,1)^d rows to unit vectors in R^d via Gaussian shaping.

    For d = 1 this degenerates to signs; normalization guards the measure-zero
    event of an all-zero row.
    """
    d = u.shape[1]
    if d == 1:
        return np.where(u < 0.5, -1.0, 1.0)
    g = _inv_norm_cdf(u)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g / norms


# -- samplers -------------------------------------------------------------------


def sample_cone_sphere(r: float, n: int = 3, norm: str = "cone",
                       restrict: str = "upper", count: int = 64, seed: int = 0):
    """Deterministic points on the sphere of radius r in the requested norm.

    The axis points (0, ..., 0, +-r) are placed first whenever the restriction
    admits them (the suprema of the cone deformations are attained there, so
    forcing them makes sampled suprema exact for those maps).  The rest come
    from a seeded low-discrepancy sequence split between a direction on the
    equatorial sphere and the share of r carried by the vertical coordinate.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    if norm not in ("cone", "euclid"):
        raise ValueError(f"unknown norm {norm!r}")
    if restrict not in ("upper", "lower", "both"):
        raise ValueError(f"unknown restriction {restrict!r}")

    rows = []
    if restrict in ("upper", "both"):
        axis = np.zeros(n)
        axis[-1] = r
        rows.append(axis)
    if restrict in ("lower", "both") and len(rows) < count:
        axis = np.zeros(n)
        axis[-1] = -r
        rows.append(axis)
    remaining = count - len(rows)
    if remaining > 0:
        u = kronecker_sequence(remaining, n, seed=seed)
        dirs = _directions(u[:, : n - 1])
        w = u[:, -1]
        if restrict == "upper":
            sign = np.ones(remaining)
        elif restrict == "lower":
            sign = -np.ones(remaining)
        else:
            sign, w = np.where(w < 0.5, -1.0, 1.0), (2.0 * w) % 1.0
        pts = np.empty((remaining, n))
        if norm == "cone":
            pts[:, : n - 1] = dirs * ((1.0 - w) * r)[:, None]
            pts[:, -1] = sign * w * r
        else:
            theta = 0.5 * math.pi * w
            pts[:, : n - 1] = dirs * (np.cos(theta) * r)[:, None]
            pts[:, -1] = sign * np.sin(theta) * r
        rows.extend(pts[: remaining])
    return np.array(rows[:count])


@dataclass(frozen=True)
class InteriorSample:
    points: np.ndarray
    acceptance_rate: float
    attempts: int
    seed: int


def sample_cone_interior(count: int, n: int = 2, seed: int = 0,
                         exclude_axis_margin: float = 0.0,
                         exclude_boundary_margin: float = 0.0) -> InteriorSample:
    """Uniform points in the upper cone by rejection from the bounding cylinder.

    Margins carve out the neighborhoods where Jacobian formulas are refused:
    |x| >= exclude_axis_margin, t >= exclude_boundary_margin, and Euclidean
    distance to the slant face (1 - |x| - t)/sqrt(2) >= exclude_boundary_margin.
    The acceptance rate estimates vol(cone)/vol(cylinder) = 1/n and is
    reported for volume cross-checks.  Raises if margins push acceptance
    below 1e-3.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if exclude_axis_margin < 0 or exclude_boundary_margin < 0:
        raise ValueError("margins must be >= 0")

    root2 = math.sqrt(2.0)
    accepted = []
    attempts = 0
    got = 0
    skip = 0
    batch = max(4096, 2 * count)
    max_attempts = max(10_000_000, 10_000 * count)
    while got < count:
        if attempts >= max_attempts:
            raise RuntimeError(
                f"acceptance rate {got / max(attempts, 1):.2e} below 1e-3: margins degenerate")
        u = kronecker_sequence(batch, n + 1, seed=seed, skip=skip)
        skip += batch
        dirs = _directions(u[:, : n - 1])
        radius = u[:, n - 1] ** (1.0 / (n - 1))
        t = u[:, n]
        x = dirs * radius[:, None]
        rho = np.linalg.norm(x, axis=1)
        ok = (rho + t <= 1.0 - root2 * exclude_boundary_margin) \
            & (rho >= exclude_axis_margin) \
            & (t >= exclude_boundary_margin)
        attempts += batch
        pts = np.column_stack([x[ok], t[ok]])
        accepted.append(pts)
        got += pts.shape[0]
    points = np.vstack(accepted)[:count]
    rate = got / attempts
    if rate < 1e-3:
        raise RuntimeError(f"acceptance rate {rate:.2e} below 1e-3: margins degenerate")
    return InteriorSample(points=points, acceptance_rate=rate,
                          attempts=attempts, seed=seed)
