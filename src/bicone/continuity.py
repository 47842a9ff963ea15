"""Empirical moduli of continuity, dilatation probes, and verification suites.

Sup-type quantities (moduli of continuity, linear dilatation) are estimated
by sampling spheres with the low-discrepancy generator from the geometry
module; every sphere sample includes the axis poles, so for the cone
deformations, whose oscillation is attained on the vertical axis, the
sampled sup at the origin is exact rather than a lower bound.
Everything is deterministic under a fixed seed, and enlarging the sample
count only extends the point set (never decreases an estimate).  A sweep
over many radii draws the spheres of all its radii in one sampler call and
maps them in one batch, so the sampler and the map are called once per
sweep rather than once per radius.

The verification suites assert the bounds that come with explicit constants
(the global 4 phi bound of the forward map, the 3 M phi near-origin bound of
the inverse, the segment-averaging inequality for non-increasing kernels,
and the shared optimal-modulus statement for the glued pair) and record the
measured constants for the remaining, constant-free statements.  The
averaging inequality takes the kernel's antiderivative in closed form and
runs its segment quadrature on stacks of pairs: one pair for
averaging_lemma_check, small groups of pairs for the randomized suite
verify_averaging, with the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformations import ConeMap, GluedMap
from .geometry import (_named_norm, _offset_row_norm, cone_norm, euclid_norm,
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


def _restrict_for(map_obj) -> str:
    return "upper" if map_obj.domain == "upper_cone" else "both"


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


def _displacements(map_obj, center: np.ndarray, radii, norm: str,
                   count: int, seed: int) -> np.ndarray:
    """||map(X) - map(center)|| on the sphere of each radius, one row per radius.

    One sampler call draws the spheres of all radii, stacked, and one map
    call serves the whole sweep, plus one call for map(center).  The maps
    act row by row, so each row has the same bits as a sweep that samples
    and maps once per radius.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        return np.empty((0, count))
    spheres = sample_cone_sphere(radii, n=center.size, norm=norm,
                                 restrict=_restrict_for(map_obj), count=count,
                                 seed=seed)
    image = np.atleast_2d(map_obj(center + spheres))
    base = np.atleast_2d(map_obj(center))[0]
    return _named_norm(norm)(image - base).reshape(radii.size, -1)


def optimal_modulus(map_obj, center, radius: float, norm: str = "cone",
                    count: int = 256, seed: int = 0) -> float:
    """Sampled sup of ||map(X) - map(center)|| over the sphere of one radius.

    Axis poles are always in the sample, so for the cone deformations at
    the origin the value equals the true optimal oscillation; elsewhere it
    is a lower bound of the sup.  The sphere (and the displacement) use the
    requested norm.
    """
    center = _center_row(center, map_obj.n)
    return float(np.max(_displacements(map_obj, center, [radius], norm, count,
                                       seed)))


def modulus_profile(map_obj, center, radii, norm: str = "cone",
                    count: int = 256, seed: int = 0) -> ModulusEstimate:
    """Modulus-of-continuity estimates over a radius grid.

    The true modulus is non-decreasing in the radius; the sampled values are
    monotonized by a running maximum so the estimate keeps that shape (each
    entry remains a valid sampled lower bound of its sup).
    """
    center = _center_row(center, map_obj.n)
    radii = np.sort(np.asarray(radii, dtype=float))
    values = _displacements(map_obj, center, radii, norm, count, seed).max(axis=1)
    return ModulusEstimate(center=center, radii=radii,
                           values=np.maximum.accumulate(values),
                           norm_used=norm, samples_per_radius=count, seed=seed)


def linear_dilatation(map_obj, center, radii, count: int = 256, seed: int = 0,
                      threshold: float = 1e3) -> DilatationEstimate:
    """Sampled max/min displacement ratio per radius, with a QC verdict.

    The verdict is "qc_violated" when the ratios keep increasing as the
    radius shrinks through at least four consecutive grid steps and exceed
    `threshold` (or become non-finite); otherwise "qc_consistent".
    A heuristic probe, not a decision procedure.

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
    d = _displacements(map_obj, center, radii, "euclid", count, seed)
    top, bottom = d.max(axis=1), d.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    A radius whose sampled sup underflows to 0 (its preimage lies below the
    float floor, as for the logexample radial map at small radii) gets a
    NaN ratio.
    """
    center = _center_row(center, map_obj.n)
    probe = center + 0.1 * np.eye(center.size)[-1:]
    round_trip = euclid_norm(np.atleast_2d(inverse_map(map_obj(probe))) - probe)
    if float(round_trip.max()) > 1e-6:
        raise ValueError("inverse_map does not invert map_obj at a probe point")
    radii = np.sort(np.asarray(radii, dtype=float))
    image = np.atleast_2d(map_obj(center))[0]

    def sups(m, about, rs):
        return _displacements(m, about, rs, norm, count, seed).max(axis=1)

    def composed(m, about, inner):      # NaN where the inner sup is 0
        ratios = np.full(radii.shape, math.nan)
        ratios[inner > 0] = sups(m, about, inner[inner > 0]) / radii[inner > 0]
        return ratios

    omega_h, omega_f = sups(map_obj, center, radii), sups(inverse_map, image, radii)
    return QuasiInverseRatios(radii=radii,
                              map_after_inverse=composed(map_obj, center, omega_f),
                              inverse_after_map=composed(inverse_map, image, omega_h),
                              samples_per_radius=count, seed=seed)


def doubling_probe(estimate: ModulusEstimate, factor: float) -> float:
    """max over the grid of omega(factor * t) / omega(t).

    Requires the radius grid to contain matching pairs (t, factor * t) up to
    1e-9 relative spacing error.
    """
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
    the concave-kernel averaging argument applies; the whole-cone constant
    is measured and recorded without asserting a specific value.
    """
    return _global_modulus_F(m, _interior_block(m.n, pairs, seed), seed)


def _global_modulus_F(m: ConeMap, block: np.ndarray, seed: int) -> VerificationReport:
    """The inverse-map suite on a drawn block (the near-origin pairs scale it);
    the whole-cone pairs come from seed + 1."""
    consts = measured_constants(m.phi)
    M, r = consts.M, consts.concavity_radius
    scale = min(1.0, r / M)
    pairs = block.shape[0] // 2

    def ratio(Y):                 # one inverse call: its lanes are independent
        X = m.inverse(Y, tol=1e-13)
        num = cone_norm(X[:pairs] - X[pairs:])
        return float(np.max(num / m.phi(cone_norm(Y[:pairs] - Y[pairs:]))))

    near_ratio = ratio(block * scale)
    global_ratio = ratio(_interior_block(m.n, pairs, seed + 1))
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

_SEGMENT_DEPTH = 44          # dyadic panels on each side of gamma*
# Pairs per stacked segment quadrature.  A pair has up to 2 x 44 x 24 = 2112
# nodes, 17 KB per node-sized array, and the iterlog kernels hold several
# such arrays at once; two pairs keep that working set near glibc's 128 KiB
# mmap and trim thresholds, past which the memory goes back to the kernel
# after every group and comes back as minor page faults.  Measured per
# `verify averaging --pairs 50` op over the benchmark's certified_quadrature
# cycles: about 1 fault at one or two pairs a group, 500 to 1000 at three or
# four, 1700 at six and 2700 with all 51 pairs (about 108k nodes) in one
# stack, and no group size was clearly faster than two.
_AVERAGING_GROUP = 2


def _segment_integrals(Phi, A: np.ndarray, B: np.ndarray,
                       G) -> tuple[np.ndarray, np.ndarray]:
    """Row i: (int_0^1 Phi(|gamma A_i + (1-gamma) B_i|) d gamma, strip bound).

    The point gamma* of closest approach splits [0, 1]; panels refine
    dyadically toward it from both sides.  The unresolved strip of width w
    on each side is bounded by G(w |a-b|)/|a-b| >= its true contribution
    (with equality when the segment passes through 0), and that bound is
    returned separately so callers can use it one-sidedly.  G is the
    antiderivative of Phi, and both take arrays.

    The stack makes one Phi call (panel nodes and points of closest
    approach) and one G call (the strips).  Every elementwise step is
    stacked, while the scalars that go through a BLAS dot (d.d, b.d, |c*|)
    stay per pair and each pair adds its panels in order, so a row has the
    bits of a stack of that pair alone.
    """
    pairs = A.shape[0]
    D = A - B
    dd = np.array([d @ d for d in D])
    live = dd > 0                       # a = b leaves a one-point segment
    bd = np.array([b @ d for b, d in zip(B, D)])
    gamma = np.clip(-bd / np.where(live, dd, 1.0), 0.0, 1.0)
    C = B + gamma[:, None] * D
    c_min = np.array([np.linalg.norm(c) for c in C])
    # Panels are laid out in exact dyadic offsets from gamma* and the segment
    # points built as c* + off * d, so |c| keeps full relative precision
    # right up to the closest approach (gamma itself would cancel there).
    lengths = np.stack([gamma, 1.0 - gamma], axis=1)
    rows, cols = np.nonzero((lengths > 0) & live[:, None])     # the sides
    bounds = lengths[rows, cols, None] * 2.0 ** -np.arange(_SEGMENT_DEPTH + 1)
    half = 0.5 * (bounds[:, :-1] - bounds[:, 1:])
    off = bounds[:, 1:, None] + half[..., None] * (_GL_NODES + 1.0)
    sign = np.where(cols == 0, -1.0, 1.0)
    nodes = _offset_row_norm(C[rows], D[rows], sign[:, None, None] * off)
    near = live & (c_min > 0)
    vals = np.asarray(Phi(np.concatenate([
        nodes.ravel(), c_min[near], [np.linalg.norm(a) for a in A[~live]]])))
    k, m = nodes.size, near.sum()
    panels = np.sum(_GL_WEIGHTS * vals[:k].reshape(-1, _GL_NODES.size), axis=1)
    terms = np.zeros((pairs, 2, _SEGMENT_DEPTH))
    terms[rows, cols] = half * panels.reshape(half.shape)
    total = np.cumsum(terms.reshape(pairs, -1), axis=1)[:, -1]
    total[~live] = vals[k + m:]
    # On the leftover strip |c| >= max(c_min, off |d|), so either bound
    # below is valid; the first is exact when the segment crosses 0.
    root = np.sqrt(dd[rows])
    w = bounds[:, -1]
    side = np.asarray(G(w * root)) / root
    phi_min = np.zeros(pairs)
    phi_min[near] = vals[k:k + m]
    cap = near[rows]
    capped = w[cap] * phi_min[rows[cap]]
    side[cap] = np.where(capped < side[cap], capped, side[cap])
    strips = np.zeros((pairs, 2))
    strips[rows, cols] = side
    return total, strips[:, 0] + strips[:, 1]


def _averaging_reports(Phi, A: np.ndarray, B: np.ndarray, G, quad_tol: float,
                       r: float) -> list[VerificationReport]:
    """The averaging_lemma_check report of each row pair (A_i, B_i), with
    _AVERAGING_GROUP pairs to one stacked segment quadrature."""
    norms = np.array([[np.linalg.norm(a), np.linalg.norm(b)] for a, b in zip(A, B)])
    if not np.all((0 < norms) & (norms <= r)):
        raise ValueError("need 0 < |a|, |b| <= r")
    reports = []
    for lo in range(0, A.shape[0], _AVERAGING_GROUP):
        group = slice(lo, lo + _AVERAGING_GROUP)
        ends = np.asarray(G(norms[group].ravel())).reshape(-1, 2)
        rhs_all = (ends[:, 0] + ends[:, 1]) / norms[group].sum(axis=1)
        seg, strips = _segment_integrals(Phi, A[group], B[group], G)
        for a, b, (na, nb), lhs, rhs, strip in zip(
                A[group], B[group], norms[group].tolist(),
                (seg + strips).tolist(), rhs_all.tolist(), strips.tolist()):
            cross = float(np.linalg.norm(np.outer(a, b) - np.outer(b, a)))
            antiparallel = cross <= 1e-12 * na * nb and float(a @ b) < 0
            scale = max(1.0, rhs)
            report = VerificationReport(
                title="segment averaging inequality for a non-increasing kernel",
                metadata={"lhs": lhs, "rhs": rhs, "strip_bound": strip,
                          "antiparallel": antiparallel})
            report.add("segment average <= endpoint average",
                       lhs <= rhs + quad_tol * scale + 1e-12,
                       measured_constant=lhs - rhs, tolerance=quad_tol)
            if antiparallel:
                report.add("equality when a is a negative multiple of b",
                           abs(lhs - rhs) <= 1e-8 * scale,
                           measured_constant=abs(lhs - rhs), tolerance=1e-8)
            reports.append(report)
    return reports


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
    return _averaging_reports(Phi, a[None], b[None], lower_integral, quad_tol, r)[0]


def verify_averaging(phi: ModulusFunction, pairs: int, seed: int = 0,
                     tol: float = 1e-10) -> VerificationReport:
    """The averaging inequality for the slope phi' on random pairs, plus the
    antiparallel equality a = -b, all inside the concavity radius of phi."""
    n = phi.n
    rc = measured_constants(phi).concavity_radius
    rng = np.random.default_rng(seed)
    A, B = np.zeros((2, pairs + 1, n))
    for i in range(pairs):
        A[i], B[i] = rng.normal(size=(2, n))
        A[i] *= rng.uniform(0.02, 1.0) * rc / np.linalg.norm(A[i])
        B[i] *= rng.uniform(0.02, 1.0) * rc / np.linalg.norm(B[i])
    A[pairs, 0] = 0.5 * rc                  # the equality pair (a, -a)
    B[pairs] = -A[pairs]
    *reps, eq = _averaging_reports(phi.derivative, A, B, phi, tol, rc)
    worst = max([-np.inf] + [rep.checks[0].measured_constant for rep in reps])
    failed = sum(not rep.passed for rep in reps)
    report = VerificationReport(
        title="segment averaging inequality, randomized suite", seed=seed,
        sample_count=pairs,
        metadata={"family": phi.describe(), "concavity_radius": rc})
    report.add(f"inequality holds on {pairs} random pairs", failed == 0,
               measured_constant=worst, grid_size=pairs, tolerance=tol)
    eq_defect = eq.checks[-1].measured_constant
    report.add("equality when a = -b", eq.passed,
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
    outside = outside[cone_norm(outside) > 1.0 + 1e-12]
    report.add("identity outside the double cone",
               bool(np.array_equal(g(outside), outside)),
               grid_size=outside.shape[0])

    base = np.zeros((count, n))
    base[:, :-1] = sample_cone_sphere(1.0, n=n - 1 if n > 2 else 2,
                                      norm="euclid", restrict="both",
                                      count=count, seed=seed)[:, :n - 1] \
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
    resid = float(np.max(np.abs(phi(lower[above_wall]) - radii[above_wall]))) \
        if np.any(above_wall) else 0.0
    report.add("lower-axis image inverts phi", resid <= 1e-9,
               measured_constant=resid, tolerance=1e-9,
               detail=f"{int(above_wall.sum())}/{radii.size} radii above the "
                      "float preimage range")

    axis_gap_H = float(np.max(np.abs(euclid_norm(up_image) - target)))
    axis_gap_F = float(np.max(np.abs(euclid_norm(down_preimage) - target)))
    sups = [_displacements(m, origin, radii, "cone", count, seed).max(axis=1)
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
