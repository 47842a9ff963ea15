import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicone.cli import parse_family
from bicone.continuity import (averaging_lemma_check, doubling_probe,
                               linear_dilatation, modulus_profile,
                               optimal_modulus, quasi_inverse_check,
                               verify_averaging, verify_global_modulus_F,
                               verify_global_modulus_H, verify_main_theorem)
from bicone.continuity import _AVERAGING_GROUP, _averaging_pairs, _segment_integrals
from bicone.deformations import ConeMap, GluedMap, RadialMap
from bicone import continuity, geometry
from bicone.geometry import (cone_norm, euclid_norm, kronecker_sequence,
                             sample_cone_sphere)
from bicone.moduli import (_GL_NODES, _GL_WEIGHTS, ModulusFunction, _plan_jet,
                           doubling_constant, measured_constants)

import oracles


def k2(n=2):
    return ModulusFunction.iterlog(depth=2, alpha=1.0, n=n)


# -- oscillation estimates ---------------------------------------------------

def test_radial_power_modulus_is_exact():
    h = RadialMap("power", eps=0.5, n=2)
    for r in (1e-6, 1e-3, 0.25):
        got = optimal_modulus(h, center=0, radius=r, norm="euclid",
                              count=128, seed=0)
        assert abs(got - r ** 0.5) <= 1e-13 * r ** 0.5


@pytest.mark.parametrize("norm", ["cone", "euclid"])
@pytest.mark.parametrize("n", [2, 3])
def test_glued_origin_modulus_equals_phi(norm, n):
    phi = k2(n)
    g = GluedMap(phi, n=n)
    for r in (1e-8, 1e-4, 0.3):
        got = optimal_modulus(g, center=0, radius=r, norm=norm,
                              count=256, seed=1)
        assert abs(got - float(phi(r))) <= 1e-12 * float(phi(r))


def test_profile_is_monotone_and_reproducible():
    g = GluedMap(k2(), n=2)
    radii = np.geomspace(1e-6, 0.5, 16)
    p = modulus_profile(g, center=0, radii=radii, norm="cone",
                        count=64, seed=3)
    assert np.all(np.diff(p.values) >= 0)
    q = modulus_profile(g, center=0, radii=radii, norm="cone",
                        count=64, seed=3)
    assert np.array_equal(p.values, q.values)
    assert p.samples_per_radius == 64 and p.seed == 3


def test_profile_sup_grows_with_sample_count():
    # sphere samples are prefix-stable, so a bigger count only adds points
    g = GluedMap(k2(), n=2)
    radii = np.array([1e-3, 1e-2, 0.1])
    small = modulus_profile(g, center=0, radii=radii, norm="euclid",
                            count=32, seed=5)
    big = modulus_profile(g, center=0, radii=radii, norm="euclid",
                          count=512, seed=5)
    assert np.all(big.values >= small.values - 1e-15)


@given(k=st.integers(1, 3), count=st.integers(1, 48), extra=st.integers(0, 48),
       seed=st.integers(0, 50), norm=st.sampled_from(["cone", "euclid"]),
       center=st.sampled_from([(0.0, 0.0), (0.05, -0.02)]))
def test_profile_is_monotone_in_count_property(k, count, extra, seed, norm, center):
    # the sphere stream has the prefix property, so more points only add rows
    g = GluedMap(ModulusFunction.iterlog(k, 1.0, n=2), n=2)
    radii = np.geomspace(1e-6, 0.1, 4)
    small = modulus_profile(g, center, radii, norm, count=count, seed=seed)
    big = modulus_profile(g, center, radii, norm, count=count + extra, seed=seed)
    assert np.all(big.values >= small.values)


# -- linear dilatation ---------------------------------------------------------

def test_power_map_dilatation_is_one():
    h = RadialMap("power", eps=0.5, n=2)
    radii = np.geomspace(1e-10, 0.5, 12)
    d = linear_dilatation(h, center=0, radii=radii, count=128, seed=0)
    assert d.verdict == "qc_consistent"
    assert np.max(np.abs(d.ratios - 1.0)) <= 1e-9


def test_glued_map_dilatation_blows_up():
    g = GluedMap(k2(), n=2)
    radii = np.geomspace(1e-12, 0.5, 14)
    d = linear_dilatation(g, center=0, radii=radii, count=128, seed=0)
    assert d.verdict == "qc_violated"
    finite = d.ratios[np.isfinite(d.ratios)]
    assert finite.size and np.max(finite) > 1e3


@pytest.mark.parametrize("threshold,verdict", [(1e308, "qc_consistent"),
                                                (1e3, "qc_violated"),
                                                (10.0, "qc_violated")])
def test_dilatation_threshold_is_respected(threshold, verdict):
    # radii above phi(tiniest subnormal): finite ratios, 1.857 at r = 0.5 up
    # to 2.33e19 at r = 0.05, that increase through seven steps toward 0.
    # The verdict comes from the four-step rule, not from an inf ratio: an
    # absurd threshold accepts them, and the default or 10 does not.
    g = GluedMap(k2(), n=2)
    radii = np.geomspace(0.05, 0.5, 8)
    d = linear_dilatation(g, center=0, radii=radii, count=128, seed=0,
                          threshold=threshold)
    assert np.all(np.isfinite(d.ratios)) and np.all(np.diff(d.ratios) < 0)
    assert abs(d.ratios[-1] - 1.857) <= 1e-3 and d.ratios[0] > 2e19
    assert d.verdict == verdict


# -- quasi-inverse composition ---------------------------------------------------

def test_quasi_inverse_ratio_matches_double_composition():
    phi = k2()
    g = GluedMap(phi, n=2)
    radii = np.geomspace(1e-4, 0.5, 8)
    q = quasi_inverse_check(g, g.inverted(), center=0, radii=radii,
                            norm="euclid", count=128, seed=2)
    direct = phi(phi(radii)) / radii
    assert np.max(np.abs(q.inverse_after_map / direct - 1.0)) <= 1e-9
    # and the map's own modulus composed the other way collapses the same way
    assert np.all(q.map_after_inverse >= 1.0 - 1e-12)


@pytest.mark.parametrize("center", [(0.1, 0.2, 0.3), [[0.1, 0.2]], (0.1,)])
def test_a_center_of_the_wrong_shape_is_refused(center):
    h = RadialMap("power", eps=0.5, n=2)
    with pytest.raises(ValueError, match=r"center must be a point in R\^2"):
        modulus_profile(h, center=center, radii=np.array([0.01, 0.02]), count=8)


def test_quasi_inverse_check_rejects_wrong_inverse():
    g = GluedMap(k2(), n=2)
    other = GluedMap(ModulusFunction.power(0.5, n=2), n=2)
    with pytest.raises(ValueError):
        quasi_inverse_check(g, other, center=0,
                            radii=np.array([0.1, 0.2]), count=64, seed=0)


def test_radial_pair_round_trip_is_identity():
    h = RadialMap("power", eps=0.5, n=2)
    radii = np.geomspace(1e-6, 0.9, 24)
    q = quasi_inverse_check(h, h.inverted(), center=0, radii=radii,
                            norm="euclid", count=128, seed=0)
    assert np.max(np.abs(q.inverse_after_map - 1.0)) <= 1e-12
    assert np.max(np.abs(q.map_after_inverse - 1.0)) <= 1e-12


def test_quasi_inverse_probes_the_inverse_at_the_image_point():
    # off the origin the inverse's modulus is taken about y0 = h(x0); about x0
    # itself both ratios came out near 0.2, below the floor omega_h(omega_f(r)) >= r
    h = RadialMap("power", eps=0.5, n=2)
    q = quasi_inverse_check(h, h.inverted(), center=(0.01, 0.0),
                            radii=np.geomspace(1e-8, 1e-6, 3), count=128, seed=0)
    # at x0 the map stretches tangents 10 and radii 5: linear dilatation K = 2
    assert np.max(np.abs(q.map_after_inverse - 2.0)) <= 1e-3
    assert np.max(np.abs(q.inverse_after_map - 2.0)) <= 1e-3


# -- stacked sweeps equal per-radius sweeps, bit for bit -----------------------

def _sweep_maps():
    """(map, radius grid); the logexample inverse underflows below ~6e-3."""
    radii = np.geomspace(1e-9, 0.5, 7)
    maps = [pytest.param(GluedMap(ModulusFunction.iterlog(depth=k, alpha=1.0, n=2), n=2),
                         radii, id=f"glued:phi=iterlog:k={k},alpha=1.0,n=2,n=2")
            for k in (1, 2, 3)]
    return maps + [pytest.param(RadialMap("power", eps=0.5, n=2), radii,
                                id="radial:power:eps=0.5"),
                   pytest.param(RadialMap("logexample", beta=1.0, n=2),
                                np.geomspace(1e-2, 0.5, 7),
                                id="radial:logexample:beta=1.0,n=2")]


def _sphere_displacements(map_obj, center, r, norm):
    """One sphere, one map call: the per-radius reference."""
    sphere = sample_cone_sphere(float(r), n=2, norm=norm, restrict="both",
                                count=64, seed=5)
    d = map_obj(center + sphere) - map_obj(center)
    return cone_norm(d) if norm == "cone" else euclid_norm(d)


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.05, -0.02)],
                         ids=["origin", "off-axis"])
@pytest.mark.parametrize("m,radii", _sweep_maps())
def test_stacked_sweeps_equal_per_radius_sweeps(m, radii, center):
    center = np.array(center)
    sup = {norm: np.array([optimal_modulus(m, center, r, norm, 64, 5)
                           for r in radii]) for norm in ("cone", "euclid")}
    for norm in ("cone", "euclid"):
        ref = [np.max(_sphere_displacements(m, center, r, norm))
               for r in radii]
        assert np.array_equal(sup[norm], ref)
        p = modulus_profile(m, center, radii, norm, count=64, seed=5)
        assert np.array_equal(p.values, np.maximum.accumulate(sup[norm]))

    d = linear_dilatation(m, center, radii, count=64, seed=5)
    ratios = []
    for r in radii:
        disp = _sphere_displacements(m, center, r, "euclid")
        with np.errstate(over="ignore"):    # a subnormal minimum: an infinite ratio
            ratios.append(disp.max() / disp.min() if disp.min() > 0 else np.inf)
    assert np.array_equal(d.ratios, ratios)

    inv = m.inverted()
    q = quasi_inverse_check(m, inv, center, radii, count=64, seed=5)
    image = m(center)
    fwd, rev = [], []
    for r in radii:
        omega_h = optimal_modulus(m, center, r, "euclid", 64, 5)
        omega_f = optimal_modulus(inv, image, r, "euclid", 64, 5)
        fwd.append(optimal_modulus(m, center, omega_f, "euclid", 64, 5) / r)
        rev.append(optimal_modulus(inv, image, omega_h, "euclid", 64, 5) / r)
    assert np.array_equal(q.map_after_inverse, fwd)
    assert np.array_equal(q.inverse_after_map, rev)


def test_a_sweep_draws_its_sphere_stream_once(monkeypatch):
    draws = []

    def counted(*args, **kwargs):
        draws.append(args)
        return kronecker_sequence(*args, **kwargs)

    monkeypatch.setattr(geometry, "kronecker_sequence", counted)
    g = GluedMap(k2(), n=2)
    p = modulus_profile(g, 0, np.geomspace(1e-6, 0.5, 24), count=64, seed=3)
    assert p.values.size == 24
    assert len(draws) == 1


def test_quasi_inverse_masks_radii_whose_sup_underflows():
    # below ~6e-3 the logexample inverse's sampled sup underflows to 0, which
    # is no sphere radius: those ratios are NaN, and the others are unchanged
    h = RadialMap("logexample", beta=1.0, n=2)
    radii = np.geomspace(1e-9, 0.5, 7)
    q = quasi_inverse_check(h, h.inverted(), 0.0, radii, count=64)
    lost = np.isnan(q.map_after_inverse)
    assert 0 < lost.sum() < radii.size
    assert np.all(np.isfinite(q.inverse_after_map))
    kept = quasi_inverse_check(h, h.inverted(), 0.0, radii[~lost], count=64)
    assert np.array_equal(q.map_after_inverse[~lost], kept.map_after_inverse)
    assert np.array_equal(q.inverse_after_map[~lost], kept.inverse_after_map)


def test_quasi_inverse_masks_spheres_lost_in_the_center_spacing():
    # y0 = h(x0) = (0.0548, 0) has a coordinate spacing of 6.9e-18, and
    # 2^20 times that is 7.3e-12: the spheres of radius 1e-18 to 1e-15
    # about y0 are unresolved, and they read 1.0, 136.0, 42.8 and 37.5.
    # Those about x0 are resolved and match the radial stretch 1/g.
    h = RadialMap("logexample", beta=1.0, n=2)
    x0 = np.array([1e-12, 0.0])
    q = quasi_inverse_check(h, h.inverted(), x0, np.geomspace(1e-18, 1e-15, 4))
    assert np.all(np.isnan(q.map_after_inverse))
    _, g = _plan_jet(h._plan, -np.log(x0[:1]), 1)
    assert np.max(np.abs(q.inverse_after_map * g - 1.0)) <= 0.02


def test_sweeps_keep_their_seeded_values():
    # values of the per-radius implementation, before sweeps were stacked
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=2), n=2)
    p = modulus_profile(g, [0.05, -0.02], np.geomspace(1e-6, 0.5, 5),
                        norm="cone", count=64, seed=3)
    assert p.values.tolist() == [
        1.0474128631326844e-06, 2.7852345075766657e-05, 0.0007406971769100294,
        0.01974725863166586, 0.6163213361418559]
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=3), n=3)
    d = linear_dilatation(g, [0.02, 0.01, -0.03], np.geomspace(1e-4, 0.2, 5),
                          count=64, seed=4)
    assert d.ratios.tolist() == [
        10.821119093507342, 10.840615991541013, 10.971094749158278,
        11.850656065131282, 15.686209046061789]
    g = GluedMap(ModulusFunction.iterlog(depth=1, alpha=1.0, n=2), n=2)
    q = quasi_inverse_check(g, g.inverted(), 0, np.geomspace(1e-6, 0.5, 5),
                            norm="cone", count=64, seed=5)
    expected = [270586.5901873019, 10914.91870127062, 454.62320036128835,
                20.422216967491746, 1.3101102885413733]
    assert q.map_after_inverse.tolist() == expected
    assert q.inverse_after_map.tolist() == expected


# -- doubling ---------------------------------------------------

def test_doubling_probe_matches_power_scaling():
    eps = 0.5
    h = RadialMap("power", eps=eps, n=2)
    radii = np.array([0.01, 0.02, 0.04, 0.08, 0.16])
    p = modulus_profile(h, center=0, radii=radii, norm="euclid",
                        count=128, seed=0)
    got = doubling_probe(p, factor=2.0)
    assert abs(got - 2.0 ** eps) <= 1e-12
    assert doubling_probe(p, factor=2.0) <= doubling_constant(
        ModulusFunction.power(eps), 2.0) + 1e-10


def test_doubling_probe_requires_matched_pairs():
    h = RadialMap("power", eps=0.5, n=2)
    p = modulus_profile(h, center=0, radii=np.array([0.01, 0.03]),
                        norm="euclid", count=16, seed=0)
    with pytest.raises(ValueError):
        doubling_probe(p, factor=2.0)


@pytest.mark.parametrize("factor", [1.0, 0.5])
def test_doubling_probe_refuses_a_factor_of_at_most_one(factor):
    h = RadialMap("power", eps=0.5, n=2)
    p = modulus_profile(h, center=0, radii=np.array([0.01, 0.02, 0.04]),
                        norm="euclid", count=16, seed=0)
    with pytest.raises(ValueError, match="doubling factor must exceed 1"):
        doubling_probe(p, factor=factor)


# -- global modulus bounds ---------------------------------------------------

def test_global_modulus_H_bound():
    m = ConeMap(k2(), n=2)
    report = verify_global_modulus_H(m, pairs=20_000, seed=0)
    assert report.passed
    assert report.metadata["max_ratio"] <= 4.0


def test_global_modulus_F_bound():
    m = ConeMap(k2(), n=2)
    report = verify_global_modulus_F(m, pairs=20_000, seed=0)
    assert report.passed
    M = measured_constants(k2()).M
    assert report.metadata["near_origin_ratio"] <= 3.0 * M
    assert np.isfinite(report.metadata["global_ratio"])


@pytest.mark.parametrize("phi,inverse_calls", [
    (ModulusFunction.identity(), 1), (ModulusFunction.power(1.0), 1),
    (ModulusFunction.power(0.5), 2), (k2(), 2)],
    ids=["identity", "power:eps=1", "power:eps=0.5", "iterlog:k=2"])
def test_global_f_inverts_an_unscaled_block_once(phi, inverse_calls, monkeypatch):
    # at near-origin scale 1 the near-origin pairs are the block itself
    calls = []
    inverse = ConeMap.inverse

    def counted(self, Y, tol=1e-12):
        calls.append(Y.shape)
        return inverse(self, Y, tol)

    monkeypatch.setattr(ConeMap, "inverse", counted)
    report = verify_global_modulus_F(ConeMap(phi), pairs=2000, seed=0)
    meta = report.metadata
    assert report.passed and (meta["near_origin_scale"] == 1.0) == (inverse_calls == 1)
    assert calls == [(4000, 2)] * inverse_calls
    if inverse_calls == 1:
        assert meta["near_origin_ratio"] == meta["global_ratio"]


def test_inverse_suite_refuses_an_unbounded_sandwich_constant():
    # with M = inf the near-origin scale r / M is 0: every near-origin ratio
    # would be 0/0, and the inverse solve would divide by a zero slope
    m = ConeMap(ModulusFunction.iterlog(depth=1, alpha=1e-200, n=2), n=2)
    with pytest.raises(ValueError, match=r"unbounded \(M = inf\)"):
        verify_global_modulus_F(m, pairs=10, seed=0)


# -- averaging inequality ---------------------------------------------------

CONCAVE_KERNELS = [
    ModulusFunction.power(0.5, n=2),
    ModulusFunction.iterlog(depth=1, alpha=1.0, n=2),
    ModulusFunction.iterlog(depth=2, alpha=1.0, n=2),
]


@pytest.mark.parametrize("phi", CONCAVE_KERNELS, ids=lambda p: p.describe())
def test_averaging_equality_for_antiparallel_pairs(phi):
    a = np.array([0.03, 0.0])
    b = -a
    rep = averaging_lemma_check(phi.derivative, a, b, lower_integral=phi)
    assert rep.passed
    assert abs(rep.metadata["lhs"] - rep.metadata["rhs"]) <= 1e-10
    assert rep.metadata["antiparallel"]


@pytest.mark.parametrize("phi", CONCAVE_KERNELS, ids=lambda p: p.describe())
def test_averaging_inequality_random_pairs(phi):
    rng = np.random.default_rng(9)
    r_c = measured_constants(phi).concavity_radius
    for _ in range(25):
        a, b = rng.uniform(-r_c / 2, r_c / 2, size=(2, 2))
        rep = averaging_lemma_check(phi.derivative, a, b, lower_integral=phi)
        assert rep.passed, rep.metadata


@pytest.mark.parametrize("a, b", [((0.0, 0.0), (0.1, 0.0)), ((0.1, 0.0), (0.0, 0.0)),
                                  ((0.6, 0.0), (0.1, 0.0)), ((0.1, 0.0), (0.3, 0.5))])
def test_averaging_check_needs_both_endpoints_in_the_punctured_ball(a, b):
    phi = ModulusFunction.power(0.5, n=2)
    with pytest.raises(ValueError, match=r"need 0 < \|a\|, \|b\| <= r"):
        averaging_lemma_check(phi.derivative, np.array(a), np.array(b), r=0.5,
                              lower_integral=phi)


# Integrable kernels whose panel increments grow before the float floor.
SLOW_KERNELS = [(ModulusFunction.iterlog(depth=2, alpha=1.0, n=2), 1e-3),
                (ModulusFunction.iterlog(depth=1, alpha=1.0, n=2), 1e-14)]


@pytest.mark.parametrize("phi, x", SLOW_KERNELS, ids=["k2-1e-3", "k1-1e-14"])
def test_closed_form_antiderivative_avoids_the_raise(phi, x):
    a, b = np.array([x, 0.0]), np.array([0.0, 0.5 * x])
    assert averaging_lemma_check(phi.derivative, a, b, lower_integral=phi).passed


def _dot(x, y):
    """x . y with its terms added in coordinate order."""
    acc = 0.0
    for xi, yi in zip(x, y):
        acc += xi * yi
    return acc


def _segment_integral_per_panel(Phi, a, b, G, depth=44):
    """The segment quadrature with one Phi call per panel, as a reference.

    Each side of gamma*, of length L, gets D = ceil(log2(L |d| / c_min)) + 1
    dyadic panels toward gamma* (at least 0) and one closing panel over
    [0, L 2^-D]; where c_min = 0 or D reaches `depth`, `depth` dyadic
    panels and the strip bound instead.
    """
    d = a - b
    dd = _dot(d, d)
    if dd == 0:
        return float(Phi(np.array([math.sqrt(_dot(a, a))]))[0]), 0.0
    gamma_star = float(np.clip(-_dot(b, d) / dd, 0.0, 1.0))
    c_star = b + gamma_star * d
    c_min = math.sqrt(_dot(c_star, c_star))
    total = 0.0
    strip = 0.0

    def panel(lo_off, hi_off, sign):
        half = 0.5 * (hi_off - lo_off)
        off = lo_off + half * (_GL_NODES + 1.0)
        pts = c_star[None, :] + (sign * off)[:, None] * d[None, :]
        return half * float(np.sum(_GL_WEIGHTS * np.asarray(
            Phi(np.linalg.norm(pts, axis=1)))))

    for length, sign in ((gamma_star, -1.0), (1.0 - gamma_star, 1.0)):
        if length <= 0:
            continue
        ratio = length * math.sqrt(dd) / c_min if c_min > 0 else math.inf
        if math.isfinite(ratio):
            mant, expo = math.frexp(ratio)
            side_depth = max(0, expo - (mant == 0.5) + 1)
        closing = math.isfinite(ratio) and side_depth < depth
        if not closing:
            side_depth = depth
        for j in range(side_depth):
            total += panel(length * 2.0 ** -(j + 1), length * 2.0 ** -j, sign)
        w = length * 2.0 ** -side_depth
        if closing:
            total += panel(0.0, w, sign)
            continue
        bound = G(w * math.sqrt(dd)) / math.sqrt(dd)
        if c_min > 0:
            bound = min(bound, w * float(np.asarray(Phi(np.array([c_min])))[0]))
        strip += bound
    return total, strip


def _segment_cases():
    rng = np.random.default_rng(3)
    cases = [("random", *rng.uniform(-0.5, 0.5, size=(2, n))) for n in (2, 3, 4)
             for _ in range(3)]
    cases += [("clipped-at-b", np.array([0.3, 0.1]), np.array([0.2, 0.05])),
              ("clipped-at-a", np.array([0.2, 0.05]), np.array([0.3, 0.1])),
              ("antiparallel", np.array([0.0, 0.25, 0.0]),
               np.array([0.0, -0.25, 0.0])),
              ("a-equals-b", np.array([0.1, -0.2]), np.array([0.1, -0.2])),
              # c_min = 5e-10 |d|: about 30 dyadic panels a side, then a closing one
              ("near-antiparallel", np.array([0.3, 6e-10, 0.0]),
               np.array([-0.2, 0.0, 0.0])),
              # c_min = 5e-16 |d|: the depth reaches 44, and the strip stays
              ("nearer-antiparallel", np.array([0.3, 6e-16, 0.0]),
               np.array([-0.3, 0.0, 0.0]))]
    return cases


def _padded(v, n=4):
    return np.concatenate([v, np.zeros(n - v.size)])


@pytest.mark.parametrize("phi", [ModulusFunction.power(0.5, n=2),
                                 ModulusFunction.iterlog(depth=2, alpha=1.0, n=3)],
                         ids=lambda p: p.describe())
@pytest.mark.parametrize("case", _segment_cases(), ids=lambda c: c[0])
def test_stacked_segment_integral_equals_per_panel_loop(phi, case):
    _, a, b = case

    def G(x):
        return float(phi(x))

    got = _segment_integrals(phi.derivative, a[None], b[None], phi)
    assert [x.tolist() for x in got] == \
        [[x] for x in _segment_integral_per_panel(phi.derivative, a, b, G)]
    # the same case as one row of a stack of all cases, embedded in R^4
    cases = _segment_cases()
    A = np.array([_padded(c[1]) for c in cases])
    B = np.array([_padded(c[2]) for c in cases])
    total, strip = _segment_integrals(phi.derivative, A, B, phi)
    row = [c[0] for c in cases].index(case[0])
    assert (total[row], strip[row]) == _segment_integral_per_panel(
        phi.derivative, A[row], B[row], G)


@pytest.mark.parametrize("phi", [ModulusFunction.power(0.5, n=2),
                                 ModulusFunction.iterlog(depth=2, alpha=1.0, n=3)],
                         ids=lambda p: p.describe())
def test_segment_integrals_against_an_mpmath_oracle(phi):
    cases = _segment_cases()
    A = np.array([_padded(c[1]) for c in cases])
    B = np.array([_padded(c[2]) for c in cases])
    total, strip = _segment_integrals(phi.derivative, A, B, phi)
    for (name, a, b), got, bound in zip(cases, total, strip):
        if name == "antiparallel":
            # a = -b: the closed form phi(|a|) / |a|, which the strip bound meets
            with mp.workdps(30):
                exact = oracles.modulus(phi, mp.mpf(0.25)) / mp.mpf(0.25)
            assert abs(got + bound - exact) <= 1e-15 * exact, name
            continue
        exact = oracles.segment_integral(phi, a, b)
        if name == "nearer-antiparallel":
            # 44 dyadic panels leave a strip, which the bound covers one-sidedly
            assert bound > 0
            assert got <= exact * (1 + 1e-15) and exact <= (got + bound) * (1 + 1e-15)
            continue
        # a closing panel instead of the strip: accurate to rounding
        assert bound == 0, name
        assert abs(got - exact) <= 1e-15 * exact, name


def _averaging_suite_per_pair(phi, pairs, seed, tol):
    """The suite's draws, one averaging_lemma_check call per pair."""
    rc = measured_constants(phi).concavity_radius
    A, B = _averaging_pairs(phi.n, pairs, seed, rc)
    *drawn, eq = [averaging_lemma_check(phi.derivative, a, b, quad_tol=tol, r=rc,
                                        lower_integral=phi) for a, b in zip(A, B)]
    worst = max(rep.checks[0].measured_constant for rep in drawn)
    return [(all(rep.passed for rep in drawn), worst),
            (eq.passed, eq.checks[-1].measured_constant)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["identity", "power:eps=0.5"] +
                         [f"iterlog:k={k},alpha=1" for k in (1, 2, 3, 4)])
def test_averaging_suite_equals_a_per_pair_loop(family, n):
    phi = parse_family(f"{family},n={n}")
    for seed in (0, 1, 977):
        report = verify_averaging(phi, pairs=16, seed=seed, tol=1e-10)
        assert [(c.passed, c.measured_constant) for c in report.checks] == \
            _averaging_suite_per_pair(phi, 16, seed, 1e-10)


def test_averaging_pairs_are_a_prefix_of_a_longer_run(monkeypatch):
    # the 16 random pairs of a short run are the first 16 of a 50-pair run,
    # and each run ends with its equality pair (a, -a)
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=3)
    seen = []
    margins = continuity._averaging_margins

    def captured(Phi, A, B, *args):
        seen.append((A.copy(), B.copy()))
        return margins(Phi, A, B, *args)

    monkeypatch.setattr(continuity, "_averaging_margins", captured)
    for pairs in (16, 50):
        assert verify_averaging(phi, pairs=pairs, seed=5, tol=1e-10).passed
    (A16, B16), (A50, B50) = seen
    assert A16.shape == B16.shape == (17, 3) and A50.shape == (51, 3)
    assert np.array_equal(A16[:16], A50[:16]) and np.array_equal(B16[:16], B50[:16])
    for A, B in seen:
        assert np.array_equal(B[-1], -A[-1]) and A[-1, 1:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("suite", ["global-f", "main-theorem"])
def test_the_inverse_suites_draw_one_interior_block(suite, monkeypatch):
    # the whole-cone constant of global-f is measured on the block the
    # near-origin pairs scale, so each suite makes one interior draw
    calls = []
    sample = continuity.sample_cone_interior

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(continuity, "sample_cone_interior", counted)
    if suite == "global-f":
        report = verify_global_modulus_F(ConeMap(k2()), pairs=500, seed=3)
    else:
        report = verify_main_theorem(GluedMap(k2()), count=64, seed=3)
    assert report.passed
    assert len(calls) == 1


def test_averaging_suite_makes_few_kernel_calls(monkeypatch):
    # per group of pairs: one Phi call on every node of its segments, one G
    # call on the endpoints and one on the strips, where one call per pair
    # made about 6 and one call per panel about 88
    phi = ModulusFunction.iterlog(depth=4, alpha=1.0, n=4)
    calls = []
    kernel = ModulusFunction._kernel

    def counted(self, *args, **kwargs):
        calls.append(1)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(ModulusFunction, "_kernel", counted)
    measured_constants.cache_clear()
    report = verify_averaging(phi, pairs=50, seed=0, tol=1e-10)
    assert report.passed
    assert len(calls) <= 3 * math.ceil(51 / _AVERAGING_GROUP) + 5


# -- whole-theorem verification ---------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_main_theorem_report(n):
    g = GluedMap(k2(n), n=n)
    report = verify_main_theorem(g, count=128, seed=0)
    failed = [c.condition for c in report.checks if not c.passed]
    assert report.passed, failed
    assert len(report.checks) >= 10
    assert report.metadata["M"] >= 1.0
