"""Empirical moduli of continuity, dilatation probes, and verification suites.

Sup-type quantities (moduli of continuity, linear dilatation) are estimated
by sampling spheres with the low-discrepancy generator from the geometry
module; every sphere sample includes the axis poles, so for the cone
deformations, whose oscillation is attained on the vertical axis, the
sampled sup at the origin is exact rather than a lower bound.
Everything is deterministic under a fixed seed, and enlarging the sample
count only extends the point set (never decreases an estimate).  Every
probe reduces its spheres in _sphere_extremes: one sampler call and one
map batch per sweep of radii, with norms that keep their precision at any scale.

The verification suites assert the bounds that come with explicit constants
(the global 4 phi bound of the forward map, the 3 M phi near-origin bound of
the inverse, the segment-averaging inequality for non-increasing kernels,
and the shared optimal-modulus statement for the glued pair) and record the
measured constants for the remaining, constant-free statements.  The
averaging inequality takes the kernel's antiderivative in closed form and
runs its segment quadrature on stacks of pairs: one pair for
averaging_lemma_check, groups of 16 pairs for the randomized suite
verify_averaging, with the same bits either way.  Each side of a segment
gets as many panels as its distance from 0 asks for, and every dot product
and norm adds its terms in coordinate order, so the seeded output does not
depend on the BLAS kernel a CPU selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformations import ConeMap, GluedMap
from .geometry import (_directions, _named_norm, _offset_row_norm, _root_sum_squares,
                       _row_dot, _row_norm, cone_norm, euclid_norm, kronecker_sequence,
                       sample_cone_interior, sample_cone_sphere)
from .moduli import (_GL_NODES, _GL_WEIGHTS, ModulusFunction,
                     measured_constants)
from .reports import VerificationReport

__all__ = [
    "ModulusEstimate",
    "DilatationEstimate",
    "QuasiInverseRatios",
    "optimal_modulus",
    "modulus_profile",
    "linear_dilatation",
    "quasi_inverse_check",
    "doubling_probe",
    "verify_global_modulus_H",
    "verify_global_modulus_F",
    "averaging_lemma_check",
    "verify_averaging",
    "verify_main_theorem",
]


def _center_row(center, n: int) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    if c.ndim == 0 and c == 0:
        c = np.zeros(n)
    if c.shape != (n,):
        raise ValueError(f"center must be a point in R^{n}")
    return c


@dataclass(frozen=True, eq=False)
class ModulusEstimate:
    """Sampled modulus of continuity of one map around one center."""

    center: np.ndarray
    radii: np.ndarray
    values: np.ndarray
    norm_used: str
    samples_per_radius: int
    seed: int


@dataclass(frozen=True, eq=False)
class DilatationEstimate:
    """Sampled linear dilatation max/min displacement ratios per radius."""

    center: np.ndarray
    radii: np.ndarray
    ratios: np.ndarray
    verdict: str                 # "qc_consistent" | "qc_violated"


@dataclass(frozen=True, eq=False)
class QuasiInverseRatios:
    """Composed modulus ratios of a map/inverse pair around one center."""

    radii: np.ndarray
    map_after_inverse: np.ndarray     # omega_h(omega_f(s)) / s
    inverse_after_map: np.ndarray     # omega_f(omega_h(t)) / t
    samples_per_radius: int
    seed: int


def _sphere_extremes(map_obj, center: np.ndarray, radii, norm: str,
                     count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(sup, inf) of ||map(X) - map(center)|| over the sphere of each radius,
    from one sampler call on the stacked spheres (their upper halves for a map
    of the upper cone), one map call on them and one on the center.  Maps and
    norms act row by row, so each radius has the bits of a one-radius probe."""
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        return np.empty(0), np.empty(0)
    spheres = sample_cone_sphere(radii, n=center.size, norm=norm, count=count, seed=seed,
                                 restrict="upper" if map_obj.domain == "upper_cone" else "both")
    image = np.atleast_2d(map_obj(center + spheres))
    base = np.atleast_2d(map_obj(center))[0]
    d = _named_norm(norm)(image - base).reshape(radii.size, -1)
    return d.max(axis=1), d.min(axis=1)


def optimal_modulus(map_obj, center, radius: float, norm: str = "cone",
                    count: int = 256, seed: int = 0) -> float:
    """Sampled sup of ||map(X) - map(center)|| over the sphere of one radius,
    the modulus_profile of the one-radius grid.

    Axis poles are always in the sample, so for the cone deformations at
    the origin the value equals the true optimal oscillation; elsewhere it
    is a lower bound of the sup.  The sphere and the displacement use the
    requested norm."""
    return float(modulus_profile(map_obj, center, [radius], norm, count, seed).values[0])


def modulus_profile(map_obj, center, radii, norm: str = "cone",
                    count: int = 256, seed: int = 0) -> ModulusEstimate:
    """Modulus-of-continuity estimates over a radius grid.

    The true modulus is non-decreasing in the radius; the sampled values are
    monotonized by a running maximum so the estimate keeps that shape (each
    entry remains a valid sampled lower bound of its sup).
    """
    center = _center_row(center, map_obj.n)
    radii = np.sort(np.asarray(radii, dtype=float))
    values = _sphere_extremes(map_obj, center, radii, norm, count, seed)[0]
    return ModulusEstimate(center=center, radii=radii,
                           values=np.maximum.accumulate(values),
                           norm_used=norm, samples_per_radius=count, seed=seed)


def linear_dilatation(map_obj, center, radii, count: int = 256, seed: int = 0,
                      threshold: float = 1e3) -> DilatationEstimate:
    """Sampled max/min displacement ratio per radius, with a QC verdict.

    The verdict is "qc_violated" when the ratios keep increasing as the
    radius shrinks through at least four consecutive grid steps and exceed
    `threshold` (or become non-finite); otherwise "qc_consistent".
    A heuristic probe, not a decision procedure.  A ratio is infinite only
    where the smallest displacement is 0 or the quotient overflows: the
    norms keep displacements far below 1e-154, so tiny radii do not read as
    infinite ratios by underflow.

    At the origin the cone deformations attain both extremes on the forced
    axis points, so the ratio there is exact.  Off the origin it is a
    sampled lower bound of the true ratio, capped by the angular resolution
    of `count` points: a map of local anisotropy K needs an angular step
    below about 1/K to see its minimum.  For the cone map of iterlog k=2,
    n=2 at center (1e-4, 1e-4) the probe at count 256 gives 68.29 at radii
    1e-12 to 1e-8, while the singular values of its Jacobian there give 711.7.
    """
    center = _center_row(center, map_obj.n)
    radii = np.sort(np.asarray(radii, dtype=float))
    top, bottom = _sphere_extremes(map_obj, center, radii, "euclid", count, seed)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = np.where(bottom > 0, top / bottom, math.inf)
    increases = 0
    violated = bool(np.any(~np.isfinite(ratios)))
    for i in range(len(ratios) - 1, 0, -1):      # scan toward small radii
        if ratios[i - 1] > ratios[i]:
            increases += 1
            if increases >= 4 and ratios[i - 1] > threshold:
                violated = True
        else:
            increases = 0
    return DilatationEstimate(center=center, radii=radii, ratios=ratios,
                              verdict="qc_violated" if violated else "qc_consistent")


def quasi_inverse_check(map_obj, inverse_map, center, radii, norm: str = "euclid",
                        count: int = 256, seed: int = 0) -> QuasiInverseRatios:
    """Composed modulus ratios omega_h(omega_f(s))/s and omega_f(omega_h(t))/t.

    omega_h is the map's modulus about `center` = x0 and omega_f the
    inverse's about y0 = map(x0), so both compositions are at least 1
    wherever the sampled sups are exact.  For quasiconformal pairs both stay
    in a bounded band; for the glued cone deformations the first one equals
    phi(phi(s))/s at the origin and grows without bound as s -> 0.  The pair
    is spot-checked to actually be inverse before any moduli are computed.
    A ratio is NaN ("unresolved") where a sphere it uses, of radius r about c,
    has r < 2^20 spacing(max_i |c_i|), as an inner sup of 0 has; above that,
    rounding moves a sphere point by at most about 2^-20 r.
    """
    center = _center_row(center, map_obj.n)
    probe = center + 0.1 * np.eye(center.size)[-1:]
    round_trip = euclid_norm(np.atleast_2d(inverse_map(map_obj(probe))) - probe)
    if float(round_trip.max()) > 1e-6:
        raise ValueError("inverse_map does not invert map_obj at a probe point")
    radii = np.sort(np.asarray(radii, dtype=float))
    image = np.atleast_2d(map_obj(center))[0]

    def sups(m, about, rs):
        return _sphere_extremes(m, about, rs, norm, count, seed)[0]

    def resolved(about, rs):
        return rs >= 2.0 ** 20 * np.spacing(np.max(np.abs(about)))

    def composed(m, about, inner, inner_about):     # NaN where unresolved
        ratios = np.full(radii.shape, math.nan)
        ok = resolved(inner_about, radii) & resolved(about, inner)
        ratios[ok] = sups(m, about, inner[ok]) / radii[ok]
        return ratios

    omega_h, omega_f = sups(map_obj, center, radii), sups(inverse_map, image, radii)
    return QuasiInverseRatios(radii=radii,
                              map_after_inverse=composed(map_obj, center, omega_f, image),
                              inverse_after_map=composed(inverse_map, image, omega_h, center),
                              samples_per_radius=count, seed=seed)


def doubling_probe(estimate: ModulusEstimate, factor: float) -> float:
    """max over the grid of omega(factor * t) / omega(t).

    Requires factor > 1, as ``doubling_constant`` does, and the radius grid
    to contain matching pairs (t, factor * t) up to 1e-9 relative spacing error.
    """
    if factor <= 1.0:
        raise ValueError("doubling factor must exceed 1")
    radii, values = estimate.radii, estimate.values
    ratios = []
    for i, r in enumerate(radii):
        target = factor * r
        j = int(np.argmin(np.abs(radii - target)))
        if abs(radii[j] - target) <= 1e-9 * target and values[i] > 0:
            ratios.append(values[j] / values[i])
    if not ratios:
        raise ValueError("radius grid has no (t, factor*t) pairs")
    return float(max(ratios))


# -- global modulus-of-continuity suites ---------------------------------------

def _interior_block(n: int, pairs: int, seed: int) -> np.ndarray:
    """2 * pairs interior points; rows i and pairs + i form pair i."""
    return sample_cone_interior(2 * pairs, n=n, seed=seed).points


def verify_global_modulus_H(m: ConeMap, pairs: int = 100_000,
                            seed: int = 0) -> VerificationReport:
    """Check ||H(X) - H(X')|| <= 4 phi(||X - X'||) on random cone pairs."""
    return _global_modulus_H(m, _interior_block(m.n, pairs, seed), seed)


def _global_modulus_H(m: ConeMap, block: np.ndarray, seed: int) -> VerificationReport:
    pairs = block.shape[0] // 2
    X, X2 = block[:pairs], block[pairs:]
    num = cone_norm(m(X) - m(X2))
    den = m.phi(cone_norm(X - X2))
    ratio = float(np.max(num / den))
    report = VerificationReport(
        title="global modulus of continuity, forward cone map",
        seed=seed, sample_count=pairs,
        metadata={"family": m.phi.describe(), "n": m.n, "max_ratio": ratio})
    report.add("displacement <= 4 phi(separation)", ratio <= 4.0 * (1.0 + 1e-9),
               measured_constant=ratio, grid_size=pairs, tolerance=4.0)
    return report


def verify_global_modulus_F(m: ConeMap, pairs: int = 100_000,
                            seed: int = 0) -> VerificationReport:
    """Check the 3 M phi bound for the inverse map near the origin.

    Near-origin pairs live in the cone scaled by (concavity radius)/M, where
    the concave-kernel averaging argument applies; the whole-cone constant,
    measured on the same pairs unscaled, is recorded without asserting a value.
    """
    return _global_modulus_F(m, _interior_block(m.n, pairs, seed), seed)


def _global_modulus_F(m: ConeMap, block: np.ndarray, seed: int) -> VerificationReport:
    """The inverse-map suite on a drawn block, whose scaled copy is the near-origin pairs."""
    consts = measured_constants(m.phi)
    M, r = consts.M, consts.concavity_radius
    if not math.isfinite(M):
        raise ValueError(f"the sandwich constant M of {m.phi.describe()} is "
                         "unbounded (M = inf), so no 3 M phi bound applies")
    scale = min(1.0, r / M)
    pairs = block.shape[0] // 2

    def ratio(Y):                 # one inverse call: its lanes are independent
        X = m.inverse(Y, tol=1e-13)
        num = cone_norm(X[:pairs] - X[pairs:])
        return float(np.max(num / m.phi(cone_norm(Y[:pairs] - Y[pairs:]))))

    global_ratio = ratio(block)         # block * 1.0 has the block's bits
    near_ratio = global_ratio if scale == 1.0 else ratio(block * scale)
    report = VerificationReport(
        title="global modulus of continuity, inverse cone map",
        seed=seed, sample_count=pairs,
        metadata={"family": m.phi.describe(), "n": m.n, "M": M,
                  "concavity_radius": r, "near_origin_scale": scale,
                  "near_origin_ratio": near_ratio, "global_ratio": global_ratio})
    report.add("near-origin displacement <= 3 M phi(separation)",
               near_ratio <= 3.0 * M * (1.0 + 1e-9),
               measured_constant=near_ratio, grid_size=pairs, tolerance=3.0 * M)
    report.add("whole-cone constant is finite (recorded)",
               math.isfinite(global_ratio), measured_constant=global_ratio,
               grid_size=pairs)
    return report


# -- segment averaging inequality ----------------------------------------------

_SEGMENT_DEPTH = 44          # most dyadic panels on one side of gamma*
# Pairs per stacked segment quadrature.  A side of a segment has D + 1
# panels of 24 nodes (see _segment_integrals); over random pairs of the six
# families of the benchmark's certified_quadrature cycle, D has median 2 and
# 99th percentile 7.  Measured per `verify averaging --pairs 50` op over
# those families: the traced peak was 0.30 MB at 2 pairs a group, 0.38 MB
# at 16, 0.67 MB at 32 and 1.3 MB with all 51 pairs in one stack, while the
# time fell from 5.6 ms at 2 to 1.8 ms at 16 and no further.
_AVERAGING_GROUP = 16


def _pair_sums(rows: np.ndarray, terms: np.ndarray, pairs: int) -> np.ndarray:
    """Per pair, the sum of its terms added in their order (0.0 for none)."""
    return np.bincount(rows, weights=terms, minlength=pairs).astype(float, copy=False)


def _segment_integrals(Phi, A: np.ndarray, B: np.ndarray,
                       G) -> tuple[np.ndarray, np.ndarray]:
    """Row i: (int_0^1 Phi(|gamma A_i + (1-gamma) B_i|) d gamma, strip bound).

    The point gamma* of closest approach c* splits [0, 1], and each side,
    of length L (in gamma), gets panels sized by its own geometry.  With
    d = a - b and c_min = |c*|, D = max(0, ceil(log2(L |d| / c_min)) + 1)
    dyadic panels refine toward gamma* down to offset h = L 2^-D, with
    h <= c_min / (2 |d|), and one closing panel covers [0, h].  Along the
    side, t -> |c* + t d| branches only where c_min^2 + 2t c*.d + t^2 |d|^2
    = 0, at |t| = c_min/|d| >= 2h with Re(t) <= 0: at least 4 closing-panel
    half-widths from the panel's near end, and at Re(z) <= -3 in the
    coordinates z of each dyadic panel.  So the Bernstein ellipse of
    rho = 4 about every panel is clear of it, and where Phi(|c* + t d|) is
    at most M on it, the 24-node rule on a panel of width h errs by at
    most (64/15) M 4^-46 / (4^2 - 1) h/2 < 3e-29 M h (Trefethen,
    Approximation Theory and Approximation Practice, Thm 19.3).

    A side with c_min = 0 (the segment crosses 0), or whose D reaches
    _SEGMENT_DEPTH, keeps _SEGMENT_DEPTH dyadic panels and no closing
    panel.  Its unresolved strip of width w is bounded by
    G(w |a-b|)/|a-b| >= its true contribution (with equality when the
    segment passes through 0), and that bound is returned separately so
    callers can use it one-sidedly; the other sides contribute 0 to it.  G
    is the antiderivative of Phi, and both take arrays.

    The stack makes one Phi call (panel nodes and points of closest
    approach) and one G call (the strips).  Every step acts on the pairs
    elementwise, the dot products and norms add their terms in coordinate
    order, and each pair adds its panels in order, so a row has the bits of
    a stack of that pair alone.
    """
    pairs = A.shape[0]
    D = A - B
    dd = _row_dot(D, D)
    live = dd > 0                       # a = b leaves a one-point segment
    gamma = np.clip(-_row_dot(B, D) / np.where(live, dd, 1.0), 0.0, 1.0)
    C = B + gamma[:, None] * D
    c_min = _row_norm(C)
    # Panels are laid out in exact dyadic offsets from gamma* and the segment
    # points built as c* + off * d, so |c| keeps full relative precision
    # right up to the closest approach (gamma itself would cancel there).
    lengths = np.stack([gamma, 1.0 - gamma], axis=1)
    rows, cols = np.nonzero((lengths > 0) & live[:, None])     # the sides
    L, root = lengths[rows, cols], np.sqrt(dd[rows])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = L * root / c_min[rows]
    mant, expo = np.frexp(ratio)
    depth = expo - (mant == 0.5) + 1                # ceil(log2(ratio)) + 1, exactly
    closed = np.isfinite(ratio) & (depth < _SEGMENT_DEPTH)
    depth = np.where(closed, np.maximum(depth, 0), _SEGMENT_DEPTH)
    count = depth + closed
    side = np.repeat(np.arange(rows.size), count)
    j = np.arange(side.size) - np.repeat(np.cumsum(count) - count, count)
    hi = L[side] * 2.0 ** -j
    lo = np.where(j < depth[side], L[side] * 2.0 ** -(j + 1.0), 0.0)
    half = 0.5 * (hi - lo)
    off = lo[:, None] + half[:, None] * (_GL_NODES + 1.0)
    sign = np.where(cols[side] == 0, -1.0, 1.0)
    nodes = _offset_row_norm(C[rows[side]], D[rows[side]], sign[:, None] * off)
    strip = ~closed
    capped = strip & (c_min[rows] > 0)
    vals = np.asarray(Phi(np.concatenate([
        nodes.ravel(), c_min[rows[capped]], _row_norm(A[~live])])))
    k, m = nodes.size, capped.sum()
    panels = np.sum(_GL_WEIGHTS * vals[:k].reshape(-1, _GL_NODES.size), axis=1)
    total = _pair_sums(rows[side], half * panels, pairs)
    total[~live] = vals[k + m:]
    # On the leftover strip |c| >= max(c_min, off |d|), so either bound
    # below is valid; the first is exact when the segment crosses 0.
    w = L[strip] * 2.0 ** -_SEGMENT_DEPTH
    bound = np.asarray(G(w * root[strip])) / root[strip]
    cap = capped[strip]
    by_min = w[cap] * vals[k:k + m]
    bound[cap] = np.where(by_min < bound[cap], by_min, bound[cap])
    return total, _pair_sums(rows[strip], bound, pairs)


def _averaging_margins(Phi, A: np.ndarray, B: np.ndarray, G, quad_tol: float,
                       r: float):
    """Per row pair (A_i, B_i) of the averaging inequality: (lhs, rhs, strip,
    antiparallel, holds, equal), with _AVERAGING_GROUP pairs to one stacked
    segment quadrature.  ``holds`` is lhs <= rhs up to quad_tol and
    ``equal`` is lhs = rhs up to 1e-8, both relative to max(1, rhs); a pair
    passes when it holds and, if antiparallel, is equal."""
    na, nb = _row_norm(A), _row_norm(B)
    if not np.all((0 < na) & (na <= r) & (0 < nb) & (nb <= r)):
        raise ValueError("need 0 < |a|, |b| <= r")
    ends = np.asarray(G(np.stack([na, nb], axis=1).ravel())).reshape(-1, 2)
    rhs = (ends[:, 0] + ends[:, 1]) / (na + nb)
    seg, strip = np.empty((2, A.shape[0]))
    for lo in range(0, A.shape[0], _AVERAGING_GROUP):
        group = slice(lo, lo + _AVERAGING_GROUP)
        seg[group], strip[group] = _segment_integrals(Phi, A[group], B[group], G)
    lhs = seg + strip
    n = A.shape[1]
    cross = _root_sum_squares((A[:, i] * B[:, j] - B[:, i] * A[:, j]
                               for i in range(n) for j in range(n)), na.shape)
    antiparallel = (cross <= 1e-12 * na * nb) & (_row_dot(A, B) < 0)
    scale = np.maximum(1.0, rhs)
    return (lhs, rhs, strip, antiparallel, lhs <= rhs + quad_tol * scale + 1e-12,
            np.abs(lhs - rhs) <= 1e-8 * scale)


def averaging_lemma_check(Phi, a, b, quad_tol: float = 1e-10, r: float = 1.0, *,
                          lower_integral) -> VerificationReport:
    """Verify the segment-averaging inequality for a non-increasing kernel:

        int_0^1 Phi(|gamma a + (1-gamma) b|) d gamma
            <= [ int_0^|a| Phi + int_0^|b| Phi ] / (|a| + |b|),

    with equality when a is a negative multiple of b.  The segment side is
    computed by quadrature plus an unresolved-strip bound that is exact in
    the equality configuration and an overestimate otherwise, so a passing
    inequality is conservative.  `lower_integral` is the exact
    antiderivative x -> int_0^x Phi (for a modulus slope phi' it is phi
    itself); like Phi it must take arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lhs, rhs, strip, antiparallel, holds, equal = (
        x[0].item() for x in _averaging_margins(Phi, a[None], b[None],
                                                lower_integral, quad_tol, r))
    report = VerificationReport(
        title="segment averaging inequality for a non-increasing kernel",
        metadata={"lhs": lhs, "rhs": rhs, "strip_bound": strip,
                  "antiparallel": antiparallel})
    report.add("segment average <= endpoint average", holds,
               measured_constant=lhs - rhs, tolerance=quad_tol)
    if antiparallel:
        report.add("equality when a is a negative multiple of b", equal,
                   measured_constant=abs(lhs - rhs), tolerance=1e-8)
    return report


def _averaging_pairs(n: int, pairs: int, seed: int, rc: float) -> tuple[np.ndarray, np.ndarray]:
    """The randomized suite's rows (A, B): ``pairs`` pairs from one Kronecker
    draw, each with directions from two n-column slices and radii
    rc (0.02 + 0.98 u) from the last two columns, then the pair (a, -a)."""
    u = kronecker_sequence(pairs, 2 * n + 2, seed)
    radii = rc * (0.02 + 0.98 * u[:, 2 * n:])
    A, B = np.zeros((2, pairs + 1, n))
    A[:pairs] = _directions(u[:, :n]) * radii[:, :1]
    B[:pairs] = _directions(u[:, n:2 * n]) * radii[:, 1:]
    A[pairs, 0] = 0.5 * rc
    B[pairs] = -A[pairs]
    return A, B


def verify_averaging(phi: ModulusFunction, pairs: int, seed: int = 0,
                     tol: float = 1e-10) -> VerificationReport:
    """The averaging inequality for the slope phi' on random pairs, plus the
    antiparallel equality a = -b, all inside the concavity radius of phi.
    The pairs of a k-pair run are the first k of any longer run's."""
    rc = measured_constants(phi).concavity_radius
    A, B = _averaging_pairs(phi.n, pairs, seed, rc)
    lhs, rhs, _, antiparallel, holds, equal = _averaging_margins(
        phi.derivative, A, B, phi, tol, rc)
    margins = lhs - rhs
    passed = holds & (equal | ~antiparallel)
    worst = float(np.max(margins[:pairs], initial=-np.inf))
    report = VerificationReport(
        title="segment averaging inequality, randomized suite", seed=seed,
        sample_count=pairs,
        metadata={"family": phi.describe(), "concavity_radius": rc})
    report.add(f"inequality holds on {pairs} random pairs", bool(passed[:pairs].all()),
               measured_constant=worst, grid_size=pairs, tolerance=tol)
    eq_defect = float(abs(margins[pairs]) if antiparallel[pairs] else margins[pairs])
    report.add("equality when a = -b", bool(passed[pairs]),
               measured_constant=eq_defect, tolerance=1e-8)
    return report


# -- the headline verification -------------------------------------------------

def verify_main_theorem(g: GluedMap, radii=None, count: int = 512,
                        seed: int = 0) -> VerificationReport:
    """Verify the construction contract of the glued pair (H, F):

    (i) the origin is fixed, and the map is the identity outside the double
    cone and on its base; (ii) the optimal oscillation at the origin equals
    phi(r) for both maps, attained on the vertical axes; (iii) the global
    4 phi / 3 M phi moduli hold with measured constants recorded; (iv) the
    axis images follow the closed formulas (phi up, inverse-phi down, and
    mirrored for the inverse map).
    """
    phi, n = g.phi, g.n
    if radii is None:
        radii = np.geomspace(1e-3, 0.9, 10)
    radii = np.sort(np.asarray(radii, dtype=float))
    report = VerificationReport(
        title="glued deformation pair: optimal moduli and identity regions",
        seed=seed, sample_count=count,
        metadata={"family": phi.describe(), "n": n, "radii": list(radii)})

    origin = np.zeros(n)
    report.add("origin is fixed", bool(np.all(g(origin) == origin)))

    outside = np.concatenate([
        sample_cone_sphere(1.25, n=n, norm="cone", restrict="both",
                           count=count, seed=seed),
        sample_cone_sphere(1.8, n=n, norm="euclid", restrict="both",
                           count=count, seed=seed + 1)])
    report.add("identity outside the double cone",
               bool(np.array_equal(g(outside), outside)),
               grid_size=outside.shape[0])

    base = np.zeros((count, n))
    base[:, :-1] = _directions(kronecker_sequence(count, n - 1, seed)) \
        * np.linspace(0.0, 0.999, count)[:, None]
    report.add("identity on the base", bool(np.array_equal(g(base), base)),
               grid_size=count)

    up = np.zeros((radii.size, n)); up[:, -1] = radii
    down = np.zeros((radii.size, n)); down[:, -1] = -radii
    target = phi(radii)
    up_image, down_preimage = g(up), g.inverse(down)
    axis_fwd = float(np.max(np.abs(up_image[:, -1] - target)))
    report.add("upper-axis image is (0, phi(t))", axis_fwd <= 1e-12,
               measured_constant=axis_fwd, tolerance=1e-12)
    axis_inv = float(np.max(np.abs(down_preimage[:, -1] + target)))
    report.add("inverse lower-axis image is (0, -phi(t))", axis_inv <= 1e-12,
               measured_constant=axis_inv, tolerance=1e-12)
    # Radii below phi(smallest subnormal) have no representable preimage and
    # pin the solver at the float floor; only radii above that wall are
    # meaningful for the inversion residual.
    lower = np.abs(g(down)[:, -1])
    above_wall = lower > 1e-280
    resid = float(np.max(np.abs(phi(lower[above_wall]) - radii[above_wall]), initial=0.0))
    report.add("lower-axis image inverts phi", resid <= 1e-9,
               measured_constant=resid, tolerance=1e-9,
               detail=f"{int(above_wall.sum())}/{radii.size} radii above the "
                      "float preimage range")

    axis_gap_H = float(np.max(np.abs(euclid_norm(up_image) - target)))
    axis_gap_F = float(np.max(np.abs(euclid_norm(down_preimage) - target)))
    sups = [_sphere_extremes(m, origin, radii, "cone", count, seed)[0]
            for m in (g, g.inverted())]
    sup_gap_H, sup_gap_F = (max(0.0, float(np.max(sup - target))) for sup in sups)
    report.add("forward axis oscillation equals phi(r)", axis_gap_H <= 1e-12,
               measured_constant=axis_gap_H, tolerance=1e-12)
    report.add("inverse axis oscillation equals phi(r)", axis_gap_F <= 1e-12,
               measured_constant=axis_gap_F, tolerance=1e-12)
    report.add("forward sphere sup attained on the axis", sup_gap_H <= 1e-9,
               measured_constant=sup_gap_H, tolerance=1e-9)
    report.add("inverse sphere sup attained on the axis", sup_gap_F <= 1e-9,
               measured_constant=sup_gap_F, tolerance=1e-9)

    block = _interior_block(n, 20_000, seed)          # one draw serves both suites
    fwd = _global_modulus_H(g.cone, block, seed)
    inv = _global_modulus_F(g.cone, block, seed)
    report.add("global 4 phi bound for the forward map", fwd.passed,
               measured_constant=fwd.metadata["max_ratio"], tolerance=4.0)
    report.add("near-origin 3 M phi bound for the inverse map", inv.passed,
               measured_constant=inv.metadata["near_origin_ratio"],
               tolerance=3.0 * inv.metadata["M"])
    report.metadata.update({
        "global_forward_ratio": fwd.metadata["max_ratio"],
        "near_origin_inverse_ratio": inv.metadata["near_origin_ratio"],
        "global_inverse_ratio": inv.metadata["global_ratio"],
        "M": inv.metadata["M"],
        "concavity_radius": inv.metadata["concavity_radius"],
        "sup_gap_forward": sup_gap_H, "sup_gap_inverse": sup_gap_F})
    return report
