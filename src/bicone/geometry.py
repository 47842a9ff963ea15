"""Cone-norm geometry on R^(n-1) x R and deterministic point samplers.

Points are rows (x_1, ..., x_{n-1}, t); the cone norm is |x| + |t|, whose
closed unit ball is the double cone.  The upper cone is the part with t >= 0.
Every point norm (Euclidean, cone, and the maps' |x|) is _scaled_norm,
which keeps a few ulps of precision on tiny and huge rows alike.
Samplers are deterministic functions of their seed, and the quasi-random ones
have the prefix property: the first N points of a longer run coincide with a
shorter run, so sampled suprema are monotone under sample growth.  Both map a
Kronecker stream onto their target directly: the sphere sampler by a split
into direction and height, the solid-cone sampler by inverse CDF, rejecting
only the points its axis margin excludes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _roots

__all__ = [
    "cone_norm",
    "euclid_norm",
    "reflect",
    "sphere_surface_area",
    "unit_ball_volume",
    "kronecker_sequence",
    "sample_cone_sphere",
    "sample_cone_interior",
    "InteriorSample",
]


def _check_dimension(n) -> int:
    """n as an int, once it is checked to be an integer >= 2."""
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise ValueError("dimension n must be an integer >= 2")
    return int(n)


def _rows(X):
    """X as a 2-D float array of point rows, and whether it was one point."""
    arr = np.asarray(X, dtype=float)
    return np.atleast_2d(arr), arr.ndim == 1


def _out(arr, single):
    """A result on the rows of _rows(X), shaped like X: one row (or float) for a point."""
    return (float(arr[0]) if arr.ndim == 1 else arr[0]) if single else arr


def _root_sum_squares(columns, shape) -> np.ndarray:
    """sqrt(x_1^2 + ... + x_k^2) of the columns x_i, added in their order, so
    an entry's bits do not depend on the array around it; 0 for no columns."""
    columns = iter(columns)
    first = next(columns, None)
    if first is None:
        return np.zeros(shape)
    acc = first * first
    for x in columns:
        acc += x * x
    return np.sqrt(acc)


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i x_i y_i over the last axis, added in coordinate order like
    _row_norm's squares, so a row has the same bits alone and in any stack."""
    acc = x[..., 0] * y[..., 0]
    for i in range(1, x.shape[-1]):
        acc += x[..., i] * y[..., i]
    return acc


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, squares added in coordinate order.

    A row has the same bits alone and in any stack, at every width.  Up to 7
    entries numpy's norm adds in this order too; longer rows it sums
    pairwise, pairing a lone row's squares differently from a stack's.
    Unscaled, for rows of known unit scale; point norms take _scaled_norm.
    """
    return _root_sum_squares((x[..., i] for i in range(x.shape[-1])), x.shape[:-1])


def _offset_row_norm(c: np.ndarray, d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """_row_norm(c_j + t_j d_j) for rows c_j, d_j of k entries and offsets t_j.

    c and d are (m, k) and t is (m, ...).  The points are built one
    coordinate at a time, in _row_norm's order and with its bits, so the
    points themselves (k times the size of t) never are.
    """
    lift = (slice(None),) + (None,) * (t.ndim - 1)
    return _root_sum_squares((c[:, i][lift] + t * d[:, i][lift] for i in range(c.shape[-1])),
                             t.shape)


def _scaled_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis at every scale (Blue, ACM TOMS 4(1), 1978).

    Every row whose plain norm is in [1e-150, inf) is _row_norm's.  The
    squares of the others lost bits in the subnormal range, vanished or
    overflowed, so those rows are divided by their largest |x_i| first.
    """
    with np.errstate(over="ignore"):
        out = _row_norm(x)
        odd = ~((out >= 1e-150) & (out < math.inf))
        if odd.any():
            scale = np.max(np.abs(x[odd]), axis=-1)
            safe = np.where((scale > 0.0) & (scale < math.inf), scale, 1.0)
            out[odd] = scale * _row_norm(x[odd] / safe[:, None])
    return out


def _horizontal_norm(arr: np.ndarray) -> np.ndarray:
    """|x| of the points (x, t) in the last axis of arr, by _scaled_norm."""
    return _scaled_norm(arr[..., :-1])


def cone_norm(X):
    """|x| + |t| for points with coordinates (..., x_{n-1}, t)."""
    arr, single = _rows(X)
    return _out(_horizontal_norm(arr) + np.abs(arr[..., -1]), single)


def euclid_norm(X):
    """The Euclidean norm of points with coordinates (..., x_{n-1}, t)."""
    arr, single = _rows(X)
    return _out(_scaled_norm(arr), single)


def reflect(X):
    """Mirror about the base hyperplane: (x, t) -> (x, -t)."""
    out = np.array(X, dtype=float)
    out[..., -1] = -out[..., -1]
    return out


def _named_norm(name: str):
    """cone_norm or euclid_norm, the norm of spheres and sweeps called ``name``."""
    if name not in ("cone", "euclid"):
        raise ValueError(f"unknown norm {name!r}")
    return cone_norm if name == "cone" else euclid_norm


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d (d = 0 gives 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit sphere S^d in R^{d+1}; S^0 counts two points."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


# -- quasi-random machinery ----------------------------------------------------


def kronecker_sequence(count: int, dim: int, seed: int = 0, skip: int = 0):
    """Additive-recurrence low-discrepancy points in [0,1)^dim.

    Uses the generalized golden ratio (the root of x^(dim+1) = x + 1) for the
    step vector and a seeded random offset, so different seeds give shifted
    lattices while a fixed seed gives a sequence whose prefixes are nested.

    The (count, dim) result is the transposed view of a (dim, count) array,
    so each column (one coordinate of every point) is contiguous.  Each
    entry has the bits of the row-major ``offset + idx * alpha``.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alphas = np.array([phi ** -(j + 1) for j in range(dim)])
    offset = np.random.default_rng(seed).random(dim)
    idx = np.arange(skip + 1, skip + count + 1, dtype=float)
    out = np.multiply.outer(alphas, idx)
    out += offset[:, None]
    whole = np.empty(count)       # one coordinate at a time: a buffer that stays in cache
    for column in out:
        np.floor(column, out=whole)
        column -= whole           # the same bits as % 1.0, at a fraction of the cost
    return out.T


def _horner(coeffs, x):
    """The polynomial sum(c_i x^(m-i)) by Horner's rule, in one new array."""
    acc = coeffs[0] * x
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    acc += coeffs[-1]
    return acc


def _inv_norm_cdf(p):
    """Inverse standard normal CDF (Acklam's rational approximation, ~1e-9).

    The central rational function is evaluated on every entry; the two
    tails then overwrite the entries outside [0.02425, 1 - 0.02425].
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01, 1.0)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00, 1.0)
    p = np.clip(np.asarray(p, dtype=float), 1e-15, 1.0 - 1e-15)
    q = p - 0.5
    r = q * q
    out = np.asarray(_horner(a, r))      # a 0-d array for a scalar p
    out *= q
    out /= _horner(b, r)
    low = p < 0.02425
    if low.any():
        q = np.sqrt(-2.0 * np.log(p[low]))
        out[low] = _horner(c, q) / _horner(d, q)
    high = p > 1.0 - 0.02425
    if high.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        out[high] = -(_horner(c, q) / _horner(d, q))
    return out


def _directions(u):
    """Map [0,1)^d rows to unit vectors in R^d via Gaussian shaping.

    For d = 1 this degenerates to signs; normalization guards the measure-zero
    event of an all-zero row.  Each coordinate is shaped as one column, and
    the result is the transposed view of a (d, m) array.
    """
    d = u.shape[1]
    if d == 1:
        return np.where(u < 0.5, -1.0, 1.0)
    g = np.empty((d, u.shape[0]))
    for i in range(d):
        g[i] = _inv_norm_cdf(u[:, i])
    norms = _row_norm(g.T)
    norms[norms == 0] = 1.0
    g /= norms
    return g.T


# -- samplers -------------------------------------------------------------------


def sample_cone_sphere(r, n: int, norm: str = "cone",
                       restrict: str = "upper", count: int = 64, seed: int = 0):
    """Deterministic points on the sphere of radius r in the requested norm.

    ``restrict`` is "upper" (t >= 0) or "both" (the whole sphere).  The axis
    points (0, ..., 0, +-r) are placed first whenever the restriction
    admits them (the suprema of the cone deformations are attained there, so
    forcing them makes sampled suprema exact for those maps).  The rest come
    from a seeded low-discrepancy sequence split between a direction on the
    equatorial sphere and the share of r carried by the vertical coordinate.

    A scalar r gives a (count, n) array.  A 1-D array of radii gives the
    spheres stacked in radius order, count rows each, from one call: the
    stream, its directions and its height split are drawn once and scaled
    per radius, so each sphere has the same bits as a scalar call.  The
    sphere sweeps of the continuity module make one such call per sweep,
    and one map call on the stacked spheres.
    """
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1:
        raise ValueError("radii must be a scalar or a 1-D array")
    if not np.all(np.isfinite(radii) & (radii > 0)):
        raise ValueError("radius must be positive and finite")
    n = _check_dimension(n)
    if count < 1:
        raise ValueError("count must be >= 1")
    _named_norm(norm)
    if restrict not in ("upper", "both"):
        raise ValueError(f"unknown restriction {restrict!r}")

    rs = radii.reshape(-1, 1)
    out = np.zeros((rs.shape[0], count, n))
    poles = ([1.0] if restrict == "upper" else [1.0, -1.0])[:count]
    out[:, : len(poles), -1] = rs * poles
    remaining = count - len(poles)
    if remaining > 0:
        u = kronecker_sequence(remaining, n, seed=seed)
        dirs = _directions(u[:, : n - 1])
        w = u[:, -1]
        if restrict == "upper":
            sign = 1.0
        else:
            sign, w = np.where(w < 0.5, -1.0, 1.0), (2.0 * w) % 1.0
        pts = out[:, len(poles):]
        if norm == "cone":
            pts[..., : n - 1] = dirs * ((1.0 - w) * rs)[..., None]
            pts[..., -1] = sign * w * rs
        else:
            theta = 0.5 * math.pi * w
            pts[..., : n - 1] = dirs * (np.cos(theta) * rs)[..., None]
            pts[..., -1] = sign * np.sin(theta) * rs
    return out[0] if radii.ndim == 0 else out.reshape(-1, n)


@dataclass(frozen=True)
class InteriorSample:
    points: np.ndarray
    acceptance_rate: float
    attempts: int


def sample_cone_interior(count: int, n: int, seed: int = 0,
                         exclude_axis_margin: float = 0.0,
                         exclude_boundary_margin: float = 0.0) -> InteriorSample:
    """Uniform points in the upper cone, mapped from a Kronecker stream by inverse CDF.

    Margins carve out the neighborhoods where Jacobian formulas are refused:
    |x| >= a = exclude_axis_margin, t >= b = exclude_boundary_margin, and
    Euclidean distance to the slant face (1 - |x| - t)/sqrt(2) >= b.  The
    last two leave the cone {t >= b, |x| + t <= 1 - sqrt(2) b} of height
    L = 1 - (1 + sqrt(2)) b, onto which each point u of [0,1)^(n+1) maps
    exactly: the height from its marginal density, proportional to
    (L - (t - b))^(n-1); the radius from density rho^(n-2) on
    [0, L - (t - b)]; the direction by Gaussian shaping of u[:n-1].
    Only the axis cylinder |x| < a, of mass O(a^(n-1)), is rejected.  The
    shortfall is drawn from the continuing stream, so accepted points keep
    stream order and the prefix property holds; `acceptance_rate` is the
    kept share of the `attempts` points drawn.  Raises if the margins leave
    an acceptance below 1e-3.

    Each batch is one Kronecker call, mapped in blocks of ``_roots._BLOCK``
    rows whose accepted points go straight into the batch's one (batch, n)
    array, so the temporaries of the mapping stay in cache.  Every step acts
    row by row (the direction norms add their squares in coordinate order
    at every n), so the points have the same bits in any block size.  When
    fewer than half of a batch's rows are kept, they are copied out of it.
    """
    if not isinstance(count, numbers.Integral):
        raise TypeError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    n = _check_dimension(n)
    a, b = exclude_axis_margin, exclude_boundary_margin
    if a < 0 or b < 0:
        raise ValueError("margins must be >= 0")
    height = 1.0 - (1.0 + math.sqrt(2.0)) * b
    # share of the trimmed cone inside the axis cylinder |x| < a
    lost = (n * (height - a) * a ** (n - 1) + a ** n) / height ** n if height > a else 1.0
    rate = 1.0 - lost
    if rate < 1e-3:
        raise RuntimeError(f"acceptance rate {rate:.2e} below 1e-3: margins degenerate")

    accepted = []
    got = attempts = 0
    while got < count:
        batch = math.ceil((count - got) / rate)
        u = kronecker_sequence(batch, n + 1, seed=seed, skip=attempts)
        attempts += batch
        pts = np.empty((batch, n))
        kept = 0
        for first in range(0, batch, _roots._BLOCK):
            ub = u[first:first + _roots._BLOCK]
            t = b + height * (1.0 - (1.0 - ub[:, n]) ** (1.0 / n))
            rho = (height - (t - b)) * ub[:, n - 1] ** (1.0 / (n - 1))
            ok = rho >= a
            if not ok.all():
                ub, t, rho = ub[ok], t[ok], rho[ok]
            rows = pts[kept:kept + t.size]
            np.multiply(_directions(ub[:, : n - 1]), rho[:, None], out=rows[:, :-1])
            rows[:, -1] = t
            kept += t.size
        # a view would keep the whole batch alive, up to 1/rate times its rows
        accepted.append(pts[:kept] if 2 * kept >= batch else pts[:kept].copy())
        got += kept
    points = accepted[0] if len(accepted) == 1 else np.vstack(accepted)
    return InteriorSample(points=points[:count],
                          acceptance_rate=got / attempts, attempts=attempts)
