import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicone import energy
from bicone.deformations import ConeMap
from bicone.energy import (_MAX_PANELS, _doubling_quadrature, _end_profile,
                           conformal_energy_H)
from bicone.moduli import (BracketError, EnergyDivergenceError, ModulusFunction,
                           check_admissibility, doubling_constant,
                           energy_tail_bound, measured_constants,
                           modulus_energy, modulus_energy_detailed,
                           quasi_inverse_defect)
from bicone.moduli import _EPS, _doubling_edges, _gl_rule

import oracles


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


@pytest.mark.parametrize("call, message", [
    (lambda phi: ModulusFunction(family="mystery"), "unknown modulus family"),
    (lambda phi: phi(np.array([0.5, -1e-300])), "modulus argument must be >= 0"),
    (lambda phi: phi.derivative(0.0), "derivative needs s > 0"),
    (lambda phi: phi.second_derivative(0.0), r"second_derivative is defined on \(0, 1\]"),
    (lambda phi: phi.second_derivative(1.5), r"second_derivative is defined on \(0, 1\]"),
    (lambda phi: phi.chord_slope(-0.5), "chord_slope needs s > 0"),
    (lambda phi: phi.elasticity(0.0), "elasticity needs s > 0"),
    (lambda phi: phi.profile_log(-1.0), "profile_log needs u >= 0"),
    (lambda phi: phi.invert(-0.1), "invert needs v >= 0")])
def test_arguments_outside_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(ModulusFunction.iterlog(depth=2, alpha=1.0, n=2))


@pytest.mark.parametrize("method, message", [
    ("__call__", "modulus argument must be >= 0"), ("derivative", "derivative needs s > 0"),
    ("second_derivative", r"second_derivative is defined on \(0, 1\]"),
    ("chord_slope", "chord_slope needs s > 0"), ("elasticity", "elasticity needs s > 0"),
    ("profile_log", "profile_log needs u >= 0"), ("invert", "invert needs v >= 0")])
def test_a_nan_argument_is_refused(method, message):
    # NaN fails every comparison, so each gate is written to pass only on it
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    for arg in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match=message):
            getattr(phi, method)(arg)


@pytest.mark.parametrize("phi", [ModulusFunction.identity(),
                                 ModulusFunction.power(0.5, n=3),
                                 ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)],
                         ids=lambda p: p.describe())
def test_the_chord_slope_is_one_on_the_identity_extension(phi):
    # inf / inf would be NaN with a RuntimeWarning, which tier-1 makes an error
    assert phi.chord_slope(math.inf) == 1.0
    assert phi.chord_slope(np.array([1.0, 2.0, 1e300, math.inf])).tolist() == [1.0] * 4


@pytest.mark.parametrize("family, stray", [
    ("identity", {"eps": 0.5}), ("identity", {"depth": 1}), ("identity", {"alpha": 1.0}),
    ("power", {"depth": 1}), ("power", {"alpha": 1.0}),
    ("iterlog", {"eps": 0.5})])
def test_a_field_of_another_family_is_rejected(family, stray):
    # an iterlog carrying eps used to take the power tail bound and certify
    # E[phi] = 2/3 at n = 3, where the iterlog value is 1/2
    own = {"identity": {}, "power": {"eps": 0.5},
           "iterlog": {"depth": 1, "alpha": 1.0}}[family]
    ModulusFunction(family=family, n=3, **own)
    with pytest.raises(ValueError):
        ModulusFunction(family=family, n=3, **own, **stray)


@pytest.mark.parametrize("depth", [2.0, 2.5, np.int64(2)],
                         ids=["float", "fraction", "numpy-integer"])
def test_iterlog_depth_is_an_integer(depth):
    # a float depth used to pass construction and fail at its first
    # evaluation (2.0), or be cut to an integer by the classmethod (2.5)
    builds = (lambda: ModulusFunction(family="iterlog", depth=depth, alpha=1.0),
              lambda: ModulusFunction.iterlog(depth, 1.0))
    for build in builds:
        if isinstance(depth, float):
            with pytest.raises(ValueError, match="iterlog depth must be an integer"):
                build()
        else:
            phi = build()
            assert type(phi.depth) is int and phi == ModulusFunction.iterlog(2, 1.0)


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


@pytest.mark.parametrize("depth", [1, 5])
def test_derivative_and_chord_slope_are_inf_at_the_smallest_subnormal(depth):
    # phi / s overflows at s = 5e-324; like second_derivative, both return
    # the infinite value without an overflow warning
    phi = ModulusFunction.iterlog(depth=depth, alpha=1.0, n=2)
    assert phi.derivative(5e-324) == math.inf
    assert phi.chord_slope(5e-324) == math.inf


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


@pytest.mark.parametrize("phi", admissible_families() + [
    ModulusFunction.iterlog(depth=5, alpha=0.7, n=4)], ids=lambda p: p.describe())
def test_kernel_orders_agree_bit_for_bit(phi):
    # a lower order only drops the trailing jets; phi and g keep every bit
    s = np.geomspace(1e-300, 0.99, 97)
    (p0,), (p1, g1), (p2, g2, _) = (phi._kernel(s, order=k) for k in (0, 1, 2))
    assert np.array_equal(p0, p1) and np.array_equal(p1, p2)
    assert np.array_equal(g1, g2)
    u = -np.log(s)
    (q1, h1), (q2, h2, _) = (phi._kernel(u=u, order=k) for k in (1, 2))
    assert np.array_equal(q1, q2) and np.array_equal(h1, h2)


@pytest.mark.parametrize("phi", admissible_families() + [
    ModulusFunction.power(0.3), ModulusFunction.iterlog(depth=4, alpha=1.0, n=2),
    ModulusFunction.iterlog(depth=5, alpha=0.7, n=4)], ids=lambda p: p.describe())
def test_elasticity_is_one_sided_at_one(phi):
    # s = 1 belongs to (0, 1], where derivative and profile_log live too
    assert phi.elasticity(1.0) == phi.profile_log(0.0)[1]
    assert phi.derivative(1.0) == phi.elasticity(1.0)


def _sums(u, wu):
    """Per-panel sums of e^-u, with zero rule bounds and 24 nodes per panel."""
    return np.sum(wu * np.exp(-u), axis=1), np.zeros(len(u)), np.full(len(u), u.shape[1])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_doubling_quadrature_never_certifies_a_non_finite_sum(bad):
    def panel(u, wu):                    # a decaying sum that turns non-finite
        sums, rules, nodes = _sums(u, wu)
        return np.where(u[:, 0] > 8.0, bad, sums), rules, nodes

    done = lambda U, total, rule, inc, may_stop: (total, 0.0 if U > 8.0 else 1.0)
    never = lambda U, total, rule, inc, may_stop: (total, 0.75e-12)  # meets tol at the cap only
    for remainder in (done, never):
        value, err, status, nodes = _doubling_quadrature(panel, 1e-12, remainder)
        assert status != "converged" and err == math.inf, remainder
    # a finite sum still certifies through every exit
    assert _doubling_quadrature(_sums, 1e-12, done)[2] == "converged"
    assert _doubling_quadrature(_sums, 1e-12, never)[2] == "converged"


def test_doubling_quadrature_keeps_the_books_of_the_panels_that_ran():
    offered, rules = [], []

    def panel(u, wu):                    # nodes 24, 25, ...; rule bounds 1, 2, ...
        index = np.arange(len(offered), len(offered) + len(u))
        offered.extend(index)
        return np.sum(wu * np.exp(-u), axis=1), index + 1.0, u.shape[1] + index

    def remainder(U, total, rule, inc, may_stop):
        rules.append(rule)
        return total, 0.0 if len(rules) == 5 else 1.0

    value, err, status, nodes = _doubling_quadrature(panel, 1e-12, remainder)
    # the stop at the fifth panel falls inside the batch of panels 4-7: the
    # three computed past it count nowhere
    assert status == "converged" and len(rules) == 5 and len(offered) == 8
    assert nodes == 24 + 25 + 26 + 27 + 28
    assert rules == [1.0, 3.0, 6.0, 10.0, 15.0]


def _one_panel_at_a_time(panel, tol, remainder):
    """The doubling driver with one panel per ``panel`` call, as a reference.

    It takes every remainder whole: its ``may_stop`` is always true."""
    ends = _doubling_edges(_MAX_PANELS)
    total, rule, nodes = 0.0, 0.0, 0
    for U, u, wu in zip(ends[1:], *_gl_rule(ends)):
        inc, inc_rule, used = (np.asarray(col)[0].item() for col in panel(u[None], wu[None]))
        total += inc
        rule += inc_rule
        nodes += used
        value, bound = remainder(U, total, rule, inc, lambda low, high: True)
        rounding = 8.0 * _EPS * abs(value)
        err, scale = bound + rounding, max(1.0, abs(value))
        if err <= 0.5 * tol * scale:
            status = "converged"
            break
        if rounding > tol * scale and bound <= rounding:
            status = "truncated"
            break
    else:
        status = "converged" if err <= tol * scale else "truncated"
    if not (math.isfinite(value) and math.isfinite(err)):
        return value, math.inf, "truncated", nodes
    return value, err, status, nodes


def test_a_tol_no_bound_can_meet_stops_truncated_at_the_first_resolved_panel():
    # at tol 1e-17 the allowance 8 eps |value| alone fails tol; the sum stops
    # at the first panel whose bound is within it (U = 16), not at the cap
    resolved = lambda U, total, rule, inc, may_stop: (total, 0.0 if U > 8.0 else 1.0)
    result = _doubling_quadrature(_sums, 1e-17, resolved)
    assert result == _one_panel_at_a_time(_sums, 1e-17, resolved)
    value, err, status, nodes = result
    assert (err, status, nodes) == (8.0 * _EPS * value, "truncated", 5 * 24)


@pytest.mark.parametrize("stop", [1, 3, 4, 5, 6, 8, 12, 16, 17, 31, 32, 33, 59, 60, 61])
def test_doubling_quadrature_stops_as_one_panel_at_a_time(stop):
    # stops at each end and inside of every batch, at the cap (60) and never
    def panel(u, wu):
        sums = np.sum(wu * np.exp(-u / 3.0), axis=1)      # nodes: a count per panel
        return sums, sums * 1e-3, np.log2(u[:, -1]).astype(int) + u.shape[1]

    def remainder():
        seen = []

        def check(U, total, rule, inc, may_stop):   # rule + inc never meets tol/2
            seen.append(U)
            return total * 0.5, rule * 0.1 if len(seen) == stop else rule + inc
        return check

    got = _doubling_quadrature(panel, 1e-3, remainder())
    want = _one_panel_at_a_time(panel, 1e-3, remainder())
    assert got == want and all(type(a) is type(b) for a, b in zip(got, want))


def test_a_nan_past_the_stop_never_reaches_the_result():
    # the stop at U = 32 (panel 5) falls inside the batch of panels 4-7,
    # whose panels 6 and 7 are NaN in every output
    def panel(u, wu):
        past = u[:, 0] > 32.0
        sums, rules, nodes = _sums(u, wu)
        return (np.where(past, math.nan, sums), np.where(past, math.nan, rules),
                nodes)

    stop = lambda U, total, rule, inc, may_stop: (total, rule if U >= 32.0 else 1.0)
    result = _doubling_quadrature(panel, 1e-12, stop)
    assert result == _one_panel_at_a_time(panel, 1e-12, stop)
    value, err, status, nodes = result
    assert math.isfinite(value)
    assert (err, status, nodes) == (8.0 * _EPS * value, "converged", 6 * 24)


@pytest.mark.parametrize("tol", [1e-12, 16 * _EPS, 15 * _EPS])
def test_a_remainder_may_skip_only_panels_the_stop_rule_cannot_end(tol):
    # may_stop(low, high) is the stop rule for a bound >= low and a
    # |value| <= high; it is always true at the cap, and at every panel
    # where tol < 16 eps lets the early truncation read the value
    offered = []

    def remainder(U, total, rule, inc, may_stop):
        offered.append(may_stop(math.inf, 1.0))
        return (total, 1.0) if offered[-1] else None

    lazy = tol >= 16 * _EPS
    result = _doubling_quadrature(_sums, tol, remainder)
    assert offered == [not lazy] * (_MAX_PANELS - 1) + [True]
    assert result == _one_panel_at_a_time(_sums, tol, remainder)
    assert result[2:] == ("truncated", _MAX_PANELS * 24)

    def probe(U, total, rule, inc, may_stop):
        offered[:] = [may_stop(0.5 * tol, 1.0), may_stop(0.6 * tol, 1.0),
                      may_stop(0.6 * tol, -2.0)]
        return total, 0.0
    _doubling_quadrature(_sums, tol, probe)
    assert offered == ([True, False, True] if lazy else [True] * 3)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-15])
def test_conformal_energy_keeps_its_bits_panel_by_panel(monkeypatch, tol):
    # each |DH|^n panel sums its own rows alike in any stack, so the batched
    # driver gives every bit of the one-panel-at-a-time reference, also
    # where tol 1e-15 runs it to the cap
    maps = [ConeMap(phi, n=phi.n) for phi in (
        ModulusFunction.identity(), ModulusFunction.power(0.5, n=3),
        ModulusFunction.iterlog(depth=1, alpha=1.0, n=2),
        ModulusFunction.iterlog(depth=3, alpha=1.0, n=3),
        ModulusFunction.iterlog(depth=4, alpha=1.0, n=4))]
    batched = [conformal_energy_H(m, tol=tol) for m in maps]
    monkeypatch.setattr(energy, "_doubling_quadrature", _one_panel_at_a_time)
    assert [conformal_energy_H(m, tol=tol) for m in maps] == batched


@pytest.mark.parametrize("phi", [
    ModulusFunction.identity(), ModulusFunction.identity(n=5),
    ModulusFunction.power(0.5, n=3), ModulusFunction.power(1e-200, n=3),
    ModulusFunction.power(5e-324, n=2),
    *(ModulusFunction.iterlog(depth=k, alpha=alpha, n=n) for k in range(1, 6)
      for alpha, n in ((1.0, 2), (0.7, 3), (0.3, 4), (1e-200, 7)))],
    ids=ModulusFunction.describe)
def test_the_end_profile_has_the_bits_of_scalar_profile_log(phi):
    # the remainders read one array kernel call, and the pinned quadrature
    # results hold only if it gives scalar profile_log's bits on every CPU
    ends = _doubling_edges(_MAX_PANELS)[1:]
    assert tuple(_end_profile(phi)) == ends
    for U in ends:
        assert _end_profile(phi)[U] == phi.profile_log(U), U


def test_invert_round_trip():
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    v = np.geomspace(0.05, 1.0, 40)
    s = phi.invert(v, tol=1e-13)
    assert np.max(np.abs(phi(s) - v)) <= 1e-12


@pytest.mark.parametrize("phi", admissible_families())
def test_invert_relative_residual_at_small_values(phi):
    # below phi(smallest normal float) the preimage is subnormal or underflows
    floor = float(phi(np.finfo(float).tiny))
    v = np.geomspace(floor * 1.01, 0.9, 40)
    assert np.max(np.abs(phi(phi.invert(v)) / v - 1.0)) <= 1e-12


def test_invert_bracket_error_for_inadmissible_modulus(below_identity):
    with pytest.raises(BracketError):
        ModulusFunction.power(0.5).invert(np.array([0.25]))


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


@pytest.mark.parametrize("alpha", [1e-155, 1e-200, 1e-300])
def test_sandwich_constant_is_inf_where_phi_prime_underflows(alpha):
    # phi'^2 underflows at s = 1 (alpha = 1e-155) or on the whole grid: those
    # ratios phi / (s phi'^2) are +inf, so M is inf and C2 fails
    phi = ModulusFunction.iterlog(depth=1, alpha=alpha, n=2)
    assert measured_constants(phi).M == math.inf
    c2 = check_admissibility(phi).checks[1]
    assert c2.condition == "derivative sandwich (C2)"
    assert not c2.passed and c2.measured_constant == math.inf


def test_failing_admissibility_rows_name_the_failed_part():
    # phi equals 1 to double precision on the whole grid: the endpoints hold
    # (measured 0.0), but phi is not strictly increasing, and M = inf
    c1, c2 = check_admissibility(
        ModulusFunction.iterlog(depth=1, alpha=1e-200, n=2)).checks[:2]
    assert not c1.passed and c1.measured_constant == 0.0
    assert c1.detail.endswith("; fails: strictly increasing")
    assert not c2.passed and c2.detail.endswith("; fails: finite M")
    # a passing row keeps its text
    ok = check_admissibility(ModulusFunction.iterlog(depth=1, alpha=1.0, n=2)).checks[0]
    assert ok.passed
    assert ok.detail == "phi(0)=0, phi(1)=1, identity beyond 1, strictly increasing"


def test_concavity_radius_oracle():
    # single log, alpha=1: phi'' changes sign exactly at s = 1/e
    r = measured_constants(
        ModulusFunction.iterlog(depth=1, alpha=1.0, n=2)).concavity_radius
    assert r == pytest.approx(1.0 / math.e, rel=0.01)
    # power families are concave on all of (0, 1]
    r_pow = measured_constants(ModulusFunction.power(0.5)).concavity_radius
    assert r_pow == pytest.approx(1.0, rel=0.01)


def test_clearing_measured_constants_forces_a_new_grid_pass(monkeypatch):
    # check_admissibility and measured_constants share one cached grid pass
    # (phi, phi' and phi'' on the grid: three kernel calls), and clearing
    # measured_constants clears it
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=3)
    check_admissibility(phi)
    calls = []
    kernel = ModulusFunction._kernel

    def counted(self, *args, **kwargs):
        calls.append(1)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(ModulusFunction, "_kernel", counted)
    warm = measured_constants(phi)
    assert calls == []
    measured_constants.cache_clear()
    assert measured_constants(phi) == warm
    assert len(calls) == 3


# -- energy functional -----------------------------------------------------

def test_energy_closed_forms():
    for n in (2, 3):
        e = modulus_energy(ModulusFunction.identity(n=n))
        assert e == pytest.approx(1.0 / n, rel=1e-10)
        for eps in (0.25, 0.5, 1.0):
            e = modulus_energy(ModulusFunction.power(eps, n=n))
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
    for phi, closed in [
            (ModulusFunction.identity(), math.exp(-60.0) / 2.0),
            (ModulusFunction.power(0.5), math.exp(-30.0)),
            (ModulusFunction.iterlog(depth=1, alpha=1.0, n=2), 1.0 / 31.0),
            (ModulusFunction.iterlog(depth=2, alpha=1.0, n=2),
             2.0 / (1.0 + 0.5 * math.log1p(U)))]:
        assert energy_tail_bound(phi, U) == (pytest.approx(closed, rel=1e-14), 0.0)
    for depth in (3, 4, 5):
        T, T_err = energy_tail_bound(ModulusFunction.iterlog(depth, 1.0, n=2), U)
        assert math.isfinite(T) and 0.0 < T_err <= 1e-12 * T
    phi = ModulusFunction.iterlog(depth=4, alpha=0.5, n=2)      # n alpha = 1
    assert energy_tail_bound(phi, U) == (math.inf, math.inf)


def test_tail_bound_dominates_true_tail():
    # T(U) - T(U + 4000) against a trapezoid sum of phi^2 on [U, U + 4000]
    for depth in (3, 4, 5):
        phi = ModulusFunction.iterlog(depth=depth, alpha=1.0, n=2)
        for U in (5.0, 30.0, 200.0):
            u = np.linspace(U, U + 4000.0, 400_001)
            head = float(np.trapezoid(phi.profile_log(u)[0] ** 2, u))
            T, _ = energy_tail_bound(phi, U)
            T_end, _ = energy_tail_bound(phi, U + 4000.0)
            assert T_end > 0.0
            assert T - T_end == pytest.approx(head, rel=1e-6)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_energy_against_a_40_digit_oracle(depth, n):
    phi = ModulusFunction.iterlog(depth, 1.0, n=n)
    e = modulus_energy_detailed(phi)
    assert e.status == "converged"
    assert abs(e.value - oracles.modulus_energy(phi)) <= e.error_bound


@pytest.mark.parametrize("n,before", [(2, 7.296401214965806),
                                      (3, 1.6640812399537561),
                                      (4, 0.9017319815337843)])
def test_depth3_energy_keeps_its_value(n, before):
    # the dedicated depth-3 substitution gave these at tol 1e-13
    e = modulus_energy_detailed(ModulusFunction.iterlog(3, 1.0, n=n))
    assert e.value == pytest.approx(before, rel=1e-12)


# -- admissibility reports -------------------------------------------------

@pytest.mark.parametrize("phi", admissible_families())
def test_condition_suite_passes(phi):
    report = check_admissibility(phi)
    assert report.passed, report.to_dict()
    names = [c.condition for c in report.checks]
    assert any("C1" in x for x in names)
    assert any("C4" in x for x in names)


def test_condition_suite_fails_on_divergent_energy():
    report = check_admissibility(ModulusFunction.iterlog(depth=1, alpha=0.4, n=2))
    assert not report.passed
    failing = [c.condition for c in report.checks if not c.passed]
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
    psi = lambda s: np.where(s < 1.0, s ** 2, s)
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


# -- the straight-line iterlog kernel -----------------------------------------

_TOWER = (0.0, 1.0, math.e, math.exp(math.e), math.exp(math.exp(math.e)))


def _jet_log(jet):
    """Propagate a jet (value[, first[, second derivative]]) through a logarithm."""
    f = jet[0]
    out = [np.log(f)]
    if len(jet) > 1:
        out.append(jet[1] / f)
    if len(jet) > 2:
        out.append((jet[2] * f - jet[1] * jet[1]) / (f * f))
    return out


def _generic_iterlog_kernel(phi, s=None, u=None, order=1):
    """The iterlog kernel as the generic jet recurrence, every product kept."""
    if u is None:
        u = -np.log(s)
    A = [0.0] * (order + 1)
    for j in range(1, phi.depth + 1):
        a = (1.0 - 1.0 / phi.n) ** (j - 1)
        beta = phi.alpha if j == phi.depth else 1.0 / phi.n
        v = (_TOWER[j - 1] + u, 1.0, 0.0)[:order + 1]
        for _ in range(j - 1):
            v = _jet_log(v)
        jet = _jet_log((1.0 + a * v[0], *(a * x for x in v[1:])))
        A = [acc + beta * x for acc, x in zip(A, jet)]
    return (np.exp(-A[0]), *A[1:])


def _kernel_inputs():
    """(keyword, array) pairs: 0-d and sizes 1, 4, 24, 16384, special values first.

    At u = 1e200 the curvature of the first factor underflows to -0.0,
    which the generic sum 0.0 + x turns into +0.0.
    """
    special = {"u": [0.0, 1e-300, 745.0, 1e5, 1e200], "s": [1.0, 1e-300, 5e-324, 0.5]}
    spread = {"u": lambda m: np.geomspace(1e-3, 1e5, m),
              "s": lambda m: np.geomspace(5e-324, 1.0, m)}
    for key in ("s", "u"):
        for value in special[key]:
            yield key, np.array(value)
            yield key, np.array([value])
        for size in (4, 24, 16384):
            yield key, np.concatenate([special[key], spread[key](size)])[:size]


@pytest.mark.parametrize("alpha", [1.0, 0.7])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_iterlog_kernel_has_the_bits_of_the_generic_recurrence(k, n, alpha):
    phi = ModulusFunction.iterlog(depth=k, alpha=alpha, n=n)
    with np.errstate(over="ignore"):
        for key, x in _kernel_inputs():
            for order in (0, 1, 2):
                got = phi._kernel(**{key: x}, order=order)
                ref = _generic_iterlog_kernel(phi, **{key: x}, order=order)
                assert len(got) == len(ref) == order + 1
                for g, r in zip(got, ref):
                    assert type(g) is type(r)
                    assert np.asarray(g).tobytes() == np.asarray(r).tobytes()


def test_the_plan_holds_the_iterlog_constants():
    phi = ModulusFunction.iterlog(depth=3, alpha=0.7, n=4)
    assert phi._plan == ((0.0, 1.0, 1.0, 0.25, 0), (1.0, 1.0, 0.75, 0.25, 1),
                         (math.e, 1.0, 0.75 ** 2, 0.7, 2))
    assert phi._plan is phi._plan                   # built once
    assert ModulusFunction.power(0.5)._plan == ()


# u = 0 and a log grid on [1e-8, 1e300]
_CURVATURE_U = np.concatenate([[0.0], np.geomspace(1e-8, 1e300, 400)])


@pytest.mark.parametrize("alpha", [1e-200, 0.3, 1.0])
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_the_curvature_bound_is_the_size_of_h_at_0(k, n, alpha):
    # the Newton inverses stop with sup |h|, h = A'' <= 0, which every plan
    # factor takes at u = 0; the oracle differentiates g there
    phi = ModulusFunction.iterlog(k, alpha, n=n)
    with np.errstate(over="ignore"):                # (1 + a u)^2 past 1e154
        h = phi._kernel(u=_CURVATURE_U, order=2)[2]
    assert phi._curvature == abs(h[0])
    assert np.all(np.abs(h) <= phi._curvature)
    with mp.workdps(30):
        want = abs(mp.diff(lambda u: oracles.jet(phi, u)[1], 0))
    assert abs(phi._curvature - want) <= 1e-14 * want


@pytest.mark.parametrize("phi", [ModulusFunction.identity(), ModulusFunction.power(0.3, n=3),
                                 ModulusFunction.power(1e-200, n=8)],
                         ids=lambda phi: phi.describe())
def test_power_moduli_have_no_curvature(phi):
    assert phi._curvature == 0.0


# -- the kernel against the oracle jet ------------------------------------------

# u from 0 to 1e5; s = e^-u is below the float floor (u = 745.13) from
# u = 746 on, and profile_log never forms it
_JET_U = np.concatenate([[0.0, 1e-300, 745.0, 746.0, 1e5], np.geomspace(1e-6, 1e5, 40)])


def _every_family():
    for n in (2, 3, 4):
        yield ModulusFunction.identity(n=n)
        yield ModulusFunction.power(0.5, n=n)
        for k in range(1, 6):
            for alpha in (1.0, 0.7):
                yield ModulusFunction.iterlog(k, alpha, n=n)


@pytest.mark.parametrize("phi", list(_every_family()), ids=lambda phi: phi.describe())
def test_profile_log_matches_the_oracle_jet(phi):
    # A = -log phi sums k factors (k = 1 for power), each a few roundings
    # relative to itself: the logs of L_j, the sum 1 + a_j L_j, its log and
    # the product with beta_j.  So A is good to a few k eps (1 + A), and
    # exp(-A) makes that a relative error of phi and adds eps: this is the
    # |log phi| eps the exp step costs.  g sums k positive terms of a few
    # roundings each.  2 k eps (1 + |log phi|) and 2 k eps cover both; the
    # worst seen is 1.6 in units of eps (1 + |log phi|) or eps.  A subnormal
    # or underflowed phi adds its spacing 2^-1074.
    eps, k = np.finfo(float).eps, phi.depth or 1
    got_phi, got_g = phi.profile_log(_JET_U)
    with mp.workdps(30):
        for u, value, g in zip(_JET_U, got_phi, got_g):
            want, want_g = oracles.jet(phi, u)
            assert abs(value - want) <= 2 * k * eps * (1 + abs(mp.log(want))) * want \
                + 2.0 ** -1074, u
            assert abs(g - want_g) <= 2 * k * eps * want_g, u
