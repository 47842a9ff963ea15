import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicone.moduli import (BracketError, EnergyDivergenceError, ModulusFunction,
                           check_admissibility, doubling_constant,
                           energy_tail_bound, measured_constants,
                           modulus_energy, modulus_energy_detailed,
                           quasi_inverse_defect)
from bicone.moduli import _increment_verdict


def admissible_families():
    fams = [ModulusFunction.identity(), ModulusFunction.power(0.5)]
    for n in (2, 3):
        for depth in (1, 2, 3):
            fams.append(ModulusFunction.iterlog(depth=depth, alpha=1.0, n=n))
    return fams


s_unit = st.floats(1e-8, 1.0, allow_nan=False)


# -- construction and endpoint behavior -----------------------------------

def test_parameter_validation():
    with pytest.raises(ValueError):
        ModulusFunction.power(0.0)
    with pytest.raises(ValueError):
        ModulusFunction.power(1.5)
    with pytest.raises(ValueError):
        ModulusFunction.iterlog(depth=0, alpha=1.0, n=2)
    with pytest.raises(ValueError):
        ModulusFunction.iterlog(depth=6, alpha=1.0, n=2)
    with pytest.raises(ValueError):
        ModulusFunction.iterlog(depth=2, alpha=1.5, n=2)


@pytest.mark.parametrize("phi", admissible_families())
def test_endpoints_and_identity_tail(phi):
    assert phi(0.0) == 0.0
    assert phi(1.0) == pytest.approx(1.0, abs=1e-14)
    for s in (1.0, 1.5, 2.0, 7.0):
        assert phi(s) == pytest.approx(s, abs=1e-14)


@pytest.mark.parametrize("phi", admissible_families())
def test_strictly_increasing_and_above_diagonal(phi):
    s = np.geomspace(1e-12, 1.0, 512)
    v = phi(s)
    assert np.all(np.diff(v) > 0)
    assert np.all(v >= s * (1 - 1e-12))        # phi(s) >= s inside (0,1]


@given(s=s_unit)
def test_chord_slope_formula(s):
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    assert phi.chord_slope(s) == pytest.approx(float(phi(s)) / s, rel=1e-12)


@pytest.mark.parametrize("phi", admissible_families())
def test_chord_slope_nonincreasing_and_at_least_one(phi):
    s = np.geomspace(1e-10, 1.0, 256)
    lam = phi.chord_slope(s)
    assert np.all(lam >= 1.0 - 1e-12)
    assert np.all(np.diff(lam) <= 1e-12 * lam[:-1])


@pytest.mark.parametrize("phi", admissible_families())
def test_derivative_matches_finite_differences(phi):
    s = np.geomspace(1e-5, 0.9, 64)
    h = 1e-7 * s
    fd = (phi(s + h) - phi(s - h)) / (2 * h)
    assert np.max(np.abs(phi.derivative(s) / fd - 1.0)) <= 1e-5


@pytest.mark.parametrize("phi", admissible_families())
def test_derivative_sandwich(phi):
    s = np.geomspace(1e-9, 1.0, 512)
    der = phi.derivative(s)
    lam = phi.chord_slope(s)
    M = measured_constants(phi).M
    assert np.all(der <= lam * (1 + 1e-9))
    assert np.all(lam <= M * der ** 2 * (1 + 1e-9))
    assert np.all(der >= 1.0 / M * (1 - 1e-9))


@pytest.mark.parametrize("phi", admissible_families())
def test_elasticity_band(phi):
    s = np.geomspace(1e-9, 1.0, 256)
    g = phi.elasticity(s)
    assert np.all((g > 0) & (g <= 1.0 + 1e-12))
    assert np.all(np.diff(g) >= -1e-12)        # increasing in s


def test_profile_log_handles_extreme_depth():
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    u = np.array([0.0, 1.0, 700.0, 1e5, 1e8])
    vals, g = phi.profile_log(u)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
    assert np.all((g >= 0) & (g <= 1.0))
    # agreement with direct evaluation where s is representable
    mid = np.exp(-u[:3])
    assert np.max(np.abs(vals[:3] / phi(mid) - 1.0)) <= 1e-12


# -- the kernel ---------------------------------------------------------------

@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_second_derivative_has_no_nan_down_to_1e_300(depth):
    # the u-jet never squares 1/s; where |phi''| passes the float range the
    # value is -inf (concave near 0), and elsewhere it matches differences
    phi = ModulusFunction.iterlog(depth=depth, alpha=1.0, n=2)
    s = np.geomspace(1e-300, 1.0, 601)
    dd = phi.second_derivative(s)
    assert not np.isnan(dd).any()
    assert np.all(dd[s < 1e-3] < 0)
    t = np.geomspace(1e-6, 0.5, 50)
    h = 1e-6 * t
    fd = (phi.derivative(t + h) - phi.derivative(t - h)) / (2 * h)
    assert np.max(np.abs(phi.second_derivative(t) / fd - 1.0)) <= 1e-7


def test_identity_is_exact():
    phi = ModulusFunction.identity()
    s = np.geomspace(5e-324, 1.0, 2001)
    assert np.array_equal(phi(s), s)
    assert np.array_equal(phi.derivative(s), np.ones_like(s))
    assert measured_constants(phi).M == 1.0


@pytest.mark.parametrize("phi", admissible_families(), ids=lambda p: p.describe())
def test_calculus_comes_from_one_kernel(phi):
    # phi' = g phi / s with g the elasticity, bit for bit; power keeps s**eps
    s = np.geomspace(1e-300, 0.99, 97)
    assert np.array_equal(phi.derivative(s), phi.elasticity(s) * phi(s) / s)
    _, g = phi.profile_log(-np.log(s))
    assert np.array_equal(g, phi.elasticity(s))
    if phi.family != "iterlog":
        assert np.array_equal(phi(s), s ** phi.eps)


def test_custom_profile_log_takes_a_scalar():
    root = ModulusFunction.custom(lambda s: np.sqrt(s))
    phi, g = root.profile_log(2.0)
    assert phi == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert g == pytest.approx(0.5, rel=1e-6)        # central differences


def test_increment_verdict():
    assert _increment_verdict([8.0, 4.0, 2.0, 1.0, 0.1], 1.0) == "converged"
    assert _increment_verdict([8.0, 4.0, 2.0, 1.0, 0.2], 1.0) is None
    assert _increment_verdict([4.0, 2.0, 1.0, 0.1], 1.0) is None   # four panels
    assert _increment_verdict([1.0, 1.0, 2.0, 2.0, 3.0], 1.0) == "diverged"
    assert _increment_verdict([1.0, 3.0, 2.0, 2.5, 3.0], 1.0) is None


def test_invert_round_trip():
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    v = np.geomspace(0.05, 1.0, 40)
    s = phi.invert(v, tol=1e-13)
    assert np.max(np.abs(phi(s) - v)) <= 1e-12
    psi = phi.inverse()
    assert np.max(np.abs(phi(psi(v)) - v)) <= 1e-11


@pytest.mark.parametrize("phi", admissible_families())
def test_invert_relative_residual_at_small_values(phi):
    # below phi(smallest normal float) the preimage is subnormal or underflows
    floor = float(phi(np.finfo(float).tiny))
    v = np.geomspace(floor * 1.01, 0.9, 40)
    assert np.max(np.abs(phi(phi.invert(v)) / v - 1.0)) <= 1e-12


def test_invert_bracket_error_for_inadmissible_modulus():
    bad = ModulusFunction.custom(lambda s: np.where(s < 1.0, s ** 2, s))
    with pytest.raises(BracketError):
        bad.invert(np.array([0.25]))


# -- measured constants ----------------------------------------------------

def test_sandwich_constant_oracles():
    # power: phi/(s phi'^2) = s^(1-eps)/eps^2, sup at s=1
    for eps in (0.25, 0.5, 0.75):
        M = measured_constants(ModulusFunction.power(eps)).M
        assert M == pytest.approx(eps ** -2, rel=1e-9)
    # single log, alpha=1: sup of (1+u)^3 e^-u at u=2
    M = measured_constants(ModulusFunction.iterlog(depth=1, alpha=1.0, n=2)).M
    assert M == pytest.approx(27.0 * math.exp(-2.0), rel=1e-4)
    assert measured_constants(ModulusFunction.identity()).M == pytest.approx(1.0)


def test_concavity_radius_oracle():
    # single log, alpha=1: phi'' changes sign exactly at s = 1/e
    r = measured_constants(
        ModulusFunction.iterlog(depth=1, alpha=1.0, n=2)).concavity_radius
    assert r == pytest.approx(1.0 / math.e, rel=0.01)
    # power families are concave on all of (0, 1]
    r_pow = measured_constants(ModulusFunction.power(0.5)).concavity_radius
    assert r_pow == pytest.approx(1.0, rel=0.01)


# -- energy functional -----------------------------------------------------

def test_energy_closed_forms():
    for n in (2, 3):
        e = modulus_energy(ModulusFunction.identity(n=n), n=n)
        assert e == pytest.approx(1.0 / n, rel=1e-10)
        for eps in (0.25, 0.5, 1.0):
            e = modulus_energy(ModulusFunction.power(eps, n=n), n=n)
            assert e == pytest.approx(1.0 / (n * eps), rel=1e-10)
        for alpha in (0.75, 1.0):
            e = modulus_energy(ModulusFunction.iterlog(depth=1, alpha=alpha, n=n))
            assert e == pytest.approx(1.0 / (n * alpha - 1.0), rel=1e-10)
            # depth 2: the leading factor integrates away in v = log(1+u)
            e2 = modulus_energy(ModulusFunction.iterlog(depth=2, alpha=alpha, n=n))
            a2 = 1.0 - 1.0 / n
            assert e2 == pytest.approx(1.0 / (a2 * (n * alpha - 1.0)), rel=1e-10)


def test_energy_depth3_status_and_error_bound():
    e = modulus_energy_detailed(ModulusFunction.iterlog(depth=3, alpha=1.0, n=2),
                                tol=1e-9)
    assert e.status == "converged"
    assert e.error_bound <= 1e-8 * e.value
    assert e.value == pytest.approx(7.2964012112, rel=1e-8)


def test_energy_divergence_detected():
    phi = ModulusFunction.iterlog(depth=1, alpha=0.4, n=2)
    with pytest.raises(EnergyDivergenceError):
        modulus_energy(phi)
    detail = modulus_energy_detailed(phi)
    assert detail.status == "diverged"


def test_energy_tail_bound_flags():
    U = 30.0
    for phi, expect_exact in [
            (ModulusFunction.identity(), True),
            (ModulusFunction.power(0.5), True),
            (ModulusFunction.iterlog(depth=1, alpha=1.0, n=2), True),
            (ModulusFunction.iterlog(depth=2, alpha=1.0, n=2), True),
            (ModulusFunction.iterlog(depth=3, alpha=1.0, n=2), False)]:
        bound, exact = energy_tail_bound(phi, 2, U)
        assert math.isfinite(bound) and bound >= 0
        assert exact is expect_exact
    bound, exact = energy_tail_bound(
        ModulusFunction.iterlog(depth=4, alpha=1.0, n=2), 2, U)
    assert bound == math.inf and not exact


def test_tail_bound_dominates_true_tail():
    # sum a brute-force remainder on [U, U + 4000] and check the majorant
    phi = ModulusFunction.iterlog(depth=3, alpha=1.0, n=2)
    for U in (5.0, 30.0, 200.0):
        u = np.linspace(U, U + 4000.0, 400_001)
        vals, _ = phi.profile_log(u)
        remainder = float(np.trapezoid(vals ** 2, u))
        bound, exact = energy_tail_bound(phi, 2, U)
        assert not exact
        assert remainder <= bound
        assert bound <= 100.0 * remainder     # conservative, not absurd


# -- admissibility reports -------------------------------------------------

@pytest.mark.parametrize("phi", admissible_families())
def test_condition_suite_passes(phi):
    report = check_admissibility(phi)
    assert report.passed, report.to_json()
    names = [c.condition for c in report.checks]
    assert any("C1" in x for x in names)
    assert any("C4" in x for x in names)


def test_condition_suite_fails_on_divergent_energy():
    report = check_admissibility(ModulusFunction.iterlog(depth=1, alpha=0.4, n=2))
    assert not report.passed
    failing = [c.condition for c in report.failures()]
    assert failing == ["finite energy (C3)"]


# -- derived functionals ---------------------------------------------------

def test_doubling_constant_oracles():
    for eps in (0.25, 0.5, 1.0):
        c = doubling_constant(ModulusFunction.power(eps), 2.0)
        assert c == pytest.approx(2.0 ** eps, rel=1e-12)
    c1 = doubling_constant(ModulusFunction.iterlog(depth=1, alpha=1.0, n=2), 2.0)
    assert c1 == pytest.approx(1.0 + math.log(2.0), rel=1e-9)
    with pytest.raises(ValueError):
        doubling_constant(ModulusFunction.identity(), 1.0)


def test_quasi_inverse_defect_oracles():
    phi = ModulusFunction.power(0.5)
    psi = ModulusFunction.custom(lambda s: np.where(s < 1.0, s ** 2, s))
    lo, hi = quasi_inverse_defect(phi, psi)
    assert lo == pytest.approx(1.0, rel=1e-9)
    assert hi == pytest.approx(1.0, rel=1e-9)
    # log-type modulus composed with itself loses all scales
    k2 = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    lo2, hi2 = quasi_inverse_defect(k2, k2)
    assert hi2 > 1e3


def test_describe_round_trips_are_stable():
    assert ModulusFunction.identity().describe() == "identity"
    assert ModulusFunction.power(0.5).describe() == "power:eps=0.5"
    assert ModulusFunction.iterlog(depth=2, alpha=1.0, n=2).describe() == \
        "iterlog:k=2,alpha=1.0,n=2"
