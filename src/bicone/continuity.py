"""Empirical moduli of continuity, dilatation probes, and verification suites.

Sup-type quantities (moduli of continuity, linear dilatation, three-point
ratios) are estimated by sampling spheres with the low-discrepancy generator
from the geometry module; every sphere sample includes the axis poles, so
for the cone deformations, whose oscillation is attained on the vertical
axis, the sampled sup at the origin is exact rather than a lower bound.
Everything is deterministic under a fixed seed, and enlarging the sample
count only extends the point set (never decreases an estimate).  A sweep
over many radii stacks the spheres of all its radii into one batch, so the
map is called once per sweep rather than once per radius.

The verification suites assert the bounds that come with explicit constants
(the global 4 phi bound of the forward map, the 3 M phi near-origin bound of
the inverse, the segment-averaging inequality for non-increasing kernels,
and the shared optimal-modulus statement for the glued pair) and record the
measured constants for the remaining, constant-free statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformations import ConeMap, GluedMap
from .geometry import cone_norm, euclid_norm, sample_cone_interior, sample_cone_sphere
from .moduli import (_GL_NODES, _GL_WEIGHTS, _doubling_panels,
                     _increment_verdict, measured_constants)
from .reports import VerificationReport

__all__ = [
    "ModulusEstimate",
    "DilatationEstimate",
    "QuasiInverseRatios",
    "optimal_modulus",
    "modulus_profile",
    "linear_dilatation",
    "quasi_inverse_check",
    "three_points_ratio",
    "doubling_probe",
    "verify_global_modulus_H",
    "verify_global_modulus_F",
    "averaging_lemma_check",
    "verify_main_theorem",
]


def _norm(rows: np.ndarray, norm: str) -> np.ndarray:
    if norm == "cone":
        return cone_norm(rows)
    if norm == "euclid":
        return euclid_norm(rows)
    raise ValueError(f"unknown norm {norm!r}")


def _restrict_for(map_obj) -> str:
    return "upper" if getattr(map_obj, "domain", "whole_space") == "upper_cone" \
        else "both"


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

    The spheres of all radii are stacked, so one map call serves the whole
    sweep, plus one call for map(center).  The maps act row by row, so each
    row has the same bits as a sweep that calls the map once per radius.
    """
    restrict = _restrict_for(map_obj)
    spheres = [sample_cone_sphere(float(r), n=center.size, norm=norm,
                                  restrict=restrict, count=count, seed=seed)
               for r in radii]
    if not spheres:
        return np.empty((0, count))
    image = np.atleast_2d(map_obj(center + np.concatenate(spheres)))
    base = np.atleast_2d(map_obj(center))[0]
    return _norm(image - base, norm).reshape(len(spheres), -1)


def optimal_modulus(map_obj, center, radius: float, norm: str = "cone",
                    count: int = 256, seed: int = 0) -> float:
    """Sampled sup of ||map(X) - map(center)|| over the sphere of one radius.

    Axis poles are always in the sample, so for the cone deformations at
    the origin the value equals the true optimal oscillation; elsewhere it
    is a lower bound of the sup.  The sphere (and the displacement) use the
    requested norm.
    """
    center = _center_row(center, getattr(map_obj, "n"))
    return float(np.max(_displacements(map_obj, center, [radius], norm, count,
                                       seed)))


def modulus_profile(map_obj, center, radii, norm: str = "cone",
                    count: int = 256, seed: int = 0) -> ModulusEstimate:
    """Modulus-of-continuity estimates over a radius grid.

    The true modulus is non-decreasing in the radius; the sampled values are
    monotonized by a running maximum so the estimate keeps that shape (each
    entry remains a valid sampled lower bound of its sup).
    """
    center = _center_row(center, getattr(map_obj, "n"))
    radii = np.sort(np.asarray(radii, dtype=float))
    values = _displacements(map_obj, center, radii, norm, count, seed).max(axis=1)
    return ModulusEstimate(center=center, radii=radii,
                           values=np.maximum.accumulate(values),
                           norm_used=norm, samples_per_radius=count, seed=seed)


def linear_dilatation(map_obj, center, radii, count: int = 256, seed: int = 0,
                      threshold: float = 1e3,
                      min_steps: int = 4) -> DilatationEstimate:
    """Sampled max/min displacement ratio per radius, with a QC verdict.

    The verdict is "qc_violated" when the ratios keep increasing as the
    radius shrinks through at least `min_steps` consecutive grid steps and
    exceed `threshold` (or become non-finite); otherwise "qc_consistent".
    A heuristic probe, not a decision procedure.
    """
    center = _center_row(center, getattr(map_obj, "n"))
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
            if increases >= min_steps and ratios[i - 1] > threshold:
                violated = True
        else:
            increases = 0
    return DilatationEstimate(center=center, radii=radii, ratios=ratios,
                              verdict="qc_violated" if violated else "qc_consistent")


def quasi_inverse_check(map_obj, inverse_map, center, radii, norm: str = "euclid",
                        count: int = 256, seed: int = 0) -> QuasiInverseRatios:
    """Composed modulus ratios omega_h(omega_f(s))/s and omega_f(omega_h(t))/t.

    For quasiconformal pairs both stay in a bounded band; for the glued cone
    deformations the first one equals phi(phi(s))/s at the origin and grows
    without bound as s -> 0.  The pair is spot-checked to actually be
    inverse before any moduli are computed.  A radius whose sampled sup
    underflows to 0 (its preimage lies below the float floor, as for the
    logexample radial map at small radii) gets a NaN ratio.
    """
    center = _center_row(center, getattr(map_obj, "n"))
    probe = center + 0.1 * np.eye(center.size)[-1:]
    round_trip = _norm(np.atleast_2d(inverse_map(map_obj(probe))) - probe, "euclid")
    if float(round_trip.max()) > 1e-6:
        raise ValueError("inverse_map does not invert map_obj at a probe point")
    radii = np.sort(np.asarray(radii, dtype=float))

    def sups(m, rs):
        return _displacements(m, center, rs, norm, count, seed).max(axis=1)

    def composed(m, inner):             # NaN where the inner sup is 0
        ratios = np.full(radii.shape, math.nan)
        ratios[inner > 0] = sups(m, inner[inner > 0]) / radii[inner > 0]
        return ratios

    omega_h, omega_f = sups(map_obj, radii), sups(inverse_map, radii)
    return QuasiInverseRatios(radii=radii,
                              map_after_inverse=composed(map_obj, omega_f),
                              inverse_after_map=composed(inverse_map, omega_h),
                              samples_per_radius=count, seed=seed)


def three_points_ratio(map_obj, triples, lambda_bound: float = 1.0) -> float:
    """max over triples (x0, x1, x2) of |f(x1)-f(x0)| / |f(x2)-f(x0)|.

    Preconditions of the three-point characterization: every triple must
    satisfy |x1-x0| <= lambda_bound * |x2-x0| with x2 != x0.
    """
    arr = np.asarray(triples, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    x0, x1, x2 = arr[:, 0], arr[:, 1], arr[:, 2]
    d1 = euclid_norm(x1 - x0)
    d2 = euclid_norm(x2 - x0)
    if np.any(d2 <= 0) or np.any(d1 > lambda_bound * d2 * (1.0 + 1e-12)):
        raise ValueError(
            f"triples must satisfy |x1-x0| <= {lambda_bound} |x2-x0| with x2 != x0")
    f0 = np.atleast_2d(map_obj(x0))
    e1 = euclid_norm(np.atleast_2d(map_obj(x1)) - f0)
    e2 = euclid_norm(np.atleast_2d(map_obj(x2)) - f0)
    with np.errstate(divide="ignore"):
        return float(np.max(np.where(e2 > 0, e1 / e2, math.inf)))


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

def _interior_pairs(n: int, pairs: int, seed: int, scale: float = 1.0):
    block = sample_cone_interior(2 * pairs, n=n, seed=seed).points * scale
    return block[:pairs], block[pairs:]


def verify_global_modulus_H(m: ConeMap, pairs: int = 100_000,
                            seed: int = 0) -> VerificationReport:
    """Check ||H(X) - H(X')|| <= 4 phi(||X - X'||) on random cone pairs."""
    X, X2 = _interior_pairs(m.n, pairs, seed)
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
    consts = measured_constants(m.phi)
    M, r = consts.M, consts.concavity_radius
    scale = min(1.0, r / M)
    Y, Y2 = _interior_pairs(m.n, pairs, seed, scale=scale)
    num = cone_norm(m.inverse(Y, tol=1e-13) - m.inverse(Y2, tol=1e-13))
    den = m.phi(cone_norm(Y - Y2))
    near_ratio = float(np.max(num / den))
    Yg, Yg2 = _interior_pairs(m.n, pairs, seed + 1)
    numg = cone_norm(m.inverse(Yg, tol=1e-13) - m.inverse(Yg2, tol=1e-13))
    deng = m.phi(cone_norm(Yg - Yg2))
    global_ratio = float(np.max(numg / deng))
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

def _lower_integral(Phi, x: float, tol: float) -> float:
    """int_0^x Phi(s) ds for non-increasing integrable Phi, via s = x e^-u.

    Arguments below the float floor (s < 1e-300) are dropped, so kernels
    whose mass extends into the subnormal range (the iterated-log slopes do)
    come back short; callers with a closed-form antiderivative should pass
    it to averaging_lemma_check instead of relying on this fallback.
    """
    if x <= 0:
        return 0.0
    total = 0.0
    increments: list[float] = []
    for _, u, wu in _doubling_panels(64):
        s = x * np.exp(-u)
        live = s >= 1e-300
        inc = float(np.sum(wu[live] * np.asarray(Phi(s[live])) * s[live])) \
            if live.any() else 0.0
        total += inc
        increments.append(inc)
        decided = _increment_verdict(increments, tol * max(1.0, total))
        if decided == "converged":
            return total
        if decided == "diverged":
            break
    raise RuntimeError("kernel integral did not stabilize; "
                       "is Phi integrable near 0?")


def _segment_integral(Phi, a: np.ndarray, b: np.ndarray, G, tol: float,
                      depth: int = 44) -> tuple[float, float]:
    """(int_0^1 Phi(|gamma a + (1-gamma) b|) d gamma, leftover strip bound).

    The point gamma* of closest approach splits [0, 1]; panels refine
    dyadically toward it from both sides.  The unresolved strip of width w
    on each side is bounded by G(w |a-b|)/|a-b| >= its true contribution
    (with equality when the segment passes through 0), and that bound is
    returned separately so callers can use it one-sidedly.
    """
    d = a - b
    dd = float(d @ d)
    if dd == 0:
        return float(Phi(np.array([np.linalg.norm(a)]))[0]), 0.0
    gamma_star = float(np.clip(-(b @ d) / dd, 0.0, 1.0))
    c_star = b + gamma_star * d
    total = 0.0
    strip = 0.0
    # Panels are laid out in exact dyadic offsets from gamma* and the segment
    # points built as c_star + off * d, so |c| keeps full relative precision
    # right up to the closest approach (gamma itself would cancel there).
    for length, sign in ((gamma_star, -1.0), (1.0 - gamma_star, 1.0)):
        if length <= 0:
            continue
        bounds = np.concatenate(([length],
                                 length * 2.0 ** -np.arange(1, depth + 1)))
        for j in range(depth):
            hi_off, lo_off = bounds[j], bounds[j + 1]
            half = 0.5 * (hi_off - lo_off)
            off = lo_off + half * (_GL_NODES + 1.0)
            pts = c_star[None, :] + (sign * off)[:, None] * d[None, :]
            total += half * float(np.sum(_GL_WEIGHTS * np.asarray(
                Phi(np.linalg.norm(pts, axis=1)))))
        # On the leftover strip |c| >= max(c_min, off |d|), so either bound
        # below is valid; the first is exact when the segment crosses 0.
        w = float(bounds[-1])
        bound = G(w * math.sqrt(dd)) / math.sqrt(dd)
        c_min = float(np.linalg.norm(c_star))
        if c_min > 0:
            bound = min(bound, w * float(np.asarray(Phi(np.array([c_min])))[0]))
        strip += bound
    return total, strip


def averaging_lemma_check(Phi, a, b, quad_tol: float = 1e-10, r: float = 1.0,
                          lower_integral=None) -> VerificationReport:
    """Verify the segment-averaging inequality for a non-increasing kernel:

        int_0^1 Phi(|gamma a + (1-gamma) b|) d gamma
            <= [ int_0^|a| Phi + int_0^|b| Phi ] / (|a| + |b|),

    with equality when a is a negative multiple of b.  The segment side is
    computed by quadrature plus an unresolved-strip bound that is exact in
    the equality configuration and an overestimate otherwise, so a passing
    inequality is conservative.  `lower_integral`, when given, must be the
    exact antiderivative x -> int_0^x Phi; pass it whenever it has a closed
    form (for a modulus slope phi' it is phi itself), since the numeric
    fallback truncates slowly decaying kernels at the float floor.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if not (0 < na <= r and 0 < nb <= r):
        raise ValueError("need 0 < |a|, |b| <= r")
    G = lower_integral if lower_integral is not None \
        else lambda x: _lower_integral(Phi, x, quad_tol)
    rhs = (float(G(na)) + float(G(nb))) / (na + nb)
    seg, strip = _segment_integral(Phi, a, b, lambda x: float(G(x)), quad_tol)
    lhs = seg + strip
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

    fwd = verify_global_modulus_H(g.cone, pairs=20_000, seed=seed)
    inv = verify_global_modulus_F(g.cone, pairs=20_000, seed=seed)
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
