import numpy as np
import pytest

from bicone.continuity import (averaging_lemma_check, doubling_probe,
                               linear_dilatation, modulus_profile,
                               optimal_modulus, quasi_inverse_check,
                               three_points_ratio, verify_global_modulus_F,
                               verify_global_modulus_H, verify_main_theorem)
from bicone.deformations import ConeMap, GluedMap, RadialMap
from bicone.geometry import cone_norm, euclid_norm, sample_cone_sphere
from bicone.moduli import ModulusFunction, doubling_constant, measured_constants


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


def test_dilatation_threshold_is_respected():
    # radii above phi(tiniest subnormal): finite, growing ratios that an
    # absurd threshold should still accept
    g = GluedMap(k2(), n=2)
    radii = np.geomspace(0.05, 0.5, 8)
    d = linear_dilatation(g, center=0, radii=radii, count=128, seed=0,
                          threshold=1e308)
    assert d.verdict == "qc_consistent"
    assert np.all(np.isfinite(d.ratios))


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


# -- stacked sweeps equal per-radius sweeps, bit for bit -----------------------

def _sweep_maps():
    """(map, radius grid); the logexample inverse underflows below ~6e-3."""
    radii = np.geomspace(1e-9, 0.5, 7)
    maps = [(GluedMap(ModulusFunction.iterlog(depth=k, alpha=1.0, n=2), n=2),
             radii) for k in (1, 2, 3)]
    return maps + [(RadialMap("power", eps=0.5, n=2), radii),
                   (RadialMap("logexample", beta=1.0, n=2),
                    np.geomspace(1e-2, 0.5, 7))]


def _sphere_displacements(map_obj, center, r, norm):
    """One sphere, one map call: the per-radius reference."""
    sphere = sample_cone_sphere(float(r), n=2, norm=norm, restrict="both",
                                count=64, seed=5)
    d = map_obj(center + sphere) - map_obj(center)
    return cone_norm(d) if norm == "cone" else euclid_norm(d)


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.05, -0.02)],
                         ids=["origin", "off-axis"])
@pytest.mark.parametrize("m,radii", _sweep_maps(),
                         ids=[m.describe() for m, _ in _sweep_maps()])
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
        ratios.append(disp.max() / disp.min() if disp.min() > 0 else np.inf)
    assert np.array_equal(d.ratios, ratios)

    inv = m.inverted()
    q = quasi_inverse_check(m, inv, center, radii, count=64, seed=5)
    fwd, rev = [], []
    for r in radii:
        omega_h = optimal_modulus(m, center, r, "euclid", 64, 5)
        omega_f = optimal_modulus(inv, center, r, "euclid", 64, 5)
        fwd.append(optimal_modulus(m, center, omega_f, "euclid", 64, 5) / r)
        rev.append(optimal_modulus(inv, center, omega_h, "euclid", 64, 5) / r)
    assert np.array_equal(q.map_after_inverse, fwd)
    assert np.array_equal(q.inverse_after_map, rev)


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


def test_sweeps_keep_their_seeded_values():
    # values of the per-radius implementation, before sweeps were stacked
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=2), n=2)
    p = modulus_profile(g, [0.05, -0.02], np.geomspace(1e-6, 0.5, 5),
                        norm="cone", count=64, seed=3)
    assert p.values.tolist() == [
        1.047412863138756e-06, 2.7852345075766657e-05, 0.0007406971769100324,
        0.019747258631665862, 0.6163213361418559]
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=3), n=3)
    d = linear_dilatation(g, [0.02, 0.01, -0.03], np.geomspace(1e-4, 0.2, 5),
                          count=64, seed=4)
    assert d.ratios.tolist() == [
        10.821119093504768, 10.84061599154025, 10.971094749158267,
        11.850656065131274, 15.686209046061782]
    g = GluedMap(ModulusFunction.iterlog(depth=1, alpha=1.0, n=2), n=2)
    q = quasi_inverse_check(g, g.inverted(), 0, np.geomspace(1e-6, 0.5, 5),
                            norm="cone", count=64, seed=5)
    expected = [270586.5901873019, 10914.91870127062, 454.62320036128835,
                20.422216967491746, 1.3101102885413733]
    assert q.map_after_inverse.tolist() == expected
    assert q.inverse_after_map.tolist() == expected


# -- three points and doubling ---------------------------------------------------

def test_three_points_ratio_oracle():
    h = RadialMap("power", eps=0.5, n=2)
    x0 = np.array([0.0, 0.0])
    x1 = np.array([0.01, 0.0])
    x2 = np.array([0.04, 0.0])
    # |x1-x0| = 0.01 <= |x2-x0| = 0.04; images 0.1 and 0.2, ratio 0.5
    got = three_points_ratio(h, [(x0, x1, x2)])
    assert abs(got - 0.5) <= 1e-12


def test_three_points_ratio_rejects_bad_triples():
    h = RadialMap("power", eps=0.5, n=2)
    x0 = np.array([0.0, 0.0])
    x1 = np.array([0.04, 0.0])
    x2 = np.array([0.01, 0.0])
    with pytest.raises(ValueError):
        three_points_ratio(h, [(x0, x1, x2)])    # |x1-x0| > |x2-x0|


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


def test_averaging_numeric_antiderivative_path():
    phi = ModulusFunction.power(0.5, n=2)
    a = np.array([0.2, 0.1])
    b = np.array([-0.1, 0.05])
    rep = averaging_lemma_check(phi.derivative, a, b)   # numeric fallback G
    assert rep.passed


# -- whole-theorem verification ---------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_main_theorem_report(n):
    g = GluedMap(k2(n), n=n)
    report = verify_main_theorem(g, count=128, seed=0)
    failed = [c.name for c in report.checks if not c.passed]
    assert report.passed, failed
    assert len(report.checks) >= 10
    assert report.metadata["M"] >= 1.0
