import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicone.moduli import (BracketError, EnergyDivergenceError, ModulusFunction,
                           check_admissibility, doubling_constant,
                           energy_tail_bound, measured_constants,
                           modulus_energy, modulus_energy_detailed,
                           quasi_inverse_defect)
from bicone.moduli import _doubling_quadrature


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_doubling_quadrature_never_certifies_a_non_finite_sum(bad):
    def panel(u, wu):                    # a decaying sum that turns non-finite
        return bad if u[0] > 8.0 else float(np.sum(wu * np.exp(-u)))

    done = lambda U, total, inc: (total, 0.0, U > 8.0)
    never = lambda U, total, inc: (total, 0.0, False)
    for remainder in (done, never):
        value, err, status = _doubling_quadrature(panel, 1e-12, remainder)
        assert status != "converged" and err == math.inf, remainder
    # a finite sum still certifies through every exit
    finite = lambda u, wu: float(np.sum(wu * np.exp(-u)))
    assert _doubling_quadrature(finite, 1e-12, done)[2] == "converged"
    assert _doubling_quadrature(finite, 1e-12, never)[2] == "converged"


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
    for phi, closed in [
            (ModulusFunction.identity(), math.exp(-60.0) / 2.0),
            (ModulusFunction.power(0.5), math.exp(-30.0)),
            (ModulusFunction.iterlog(depth=1, alpha=1.0, n=2), 1.0 / 31.0),
            (ModulusFunction.iterlog(depth=2, alpha=1.0, n=2),
             2.0 / (1.0 + 0.5 * math.log1p(U)))]:
        assert energy_tail_bound(phi, 2, U) == (pytest.approx(closed, rel=1e-14), 0.0)
    for depth in (3, 4, 5):
        T, T_err = energy_tail_bound(ModulusFunction.iterlog(depth, 1.0, n=2), 2, U)
        assert math.isfinite(T) and 0.0 < T_err <= 1e-12 * T
    phi = ModulusFunction.iterlog(depth=4, alpha=0.5, n=2)      # n alpha = 1
    assert energy_tail_bound(phi, 2, U) == (math.inf, math.inf)


def test_tail_bound_dominates_true_tail():
    # T(U) - T(U + 4000) against a trapezoid sum of phi^2 on [U, U + 4000]
    for depth in (3, 4, 5):
        phi = ModulusFunction.iterlog(depth=depth, alpha=1.0, n=2)
        for U in (5.0, 30.0, 200.0):
            u = np.linspace(U, U + 4000.0, 400_001)
            head = float(np.trapezoid(phi.profile_log(u)[0] ** 2, u))
            T, _ = energy_tail_bound(phi, 2, U)
            T_end, _ = energy_tail_bound(phi, 2, U + 4000.0)
            assert T_end > 0.0
            assert T - T_end == pytest.approx(head, rel=1e-6)


def mp_energy(k, n):
    """40-digit E[phi] for iterlog alpha = 1, integrated in v = L_k(u).

    From the definition: u = w_{k-1} - e_{k-1} for the tower w_0 = v,
    w_i = exp(w_{i-1}), and the integrand phi^n du/dv is summed in log
    space.  Once w_{k-1} leaves even mpmath's range, L_j equals w_{k-j} far
    beyond 40 digits, and 1 + a_j L_j = w_{k-j} (a_j + exp(-w_{k-j-1})).
    """
    with mp.workdps(40):
        tower = [mp.mpf(0), mp.mpf(1)]
        while len(tower) < k:
            tower.append(mp.exp(tower[-1]))
        a = [(1 - mp.mpf(1) / n) ** j for j in range(k)]

        def integrand(v):
            w = [v]
            for _ in range(1, k):
                w.append(mp.exp(w[-1]) if w[-1] is not None and w[-1] < 1e5 else None)
            log_f = -n * mp.log1p(a[-1] * v)
            for j in range(1, k):
                if w[-1] is not None:
                    L = tower[j - 1] + w[-1] - tower[k - 1]
                    for _ in range(j - 1):
                        L = mp.log(L)
                    log_f += w[k - j - 1] - mp.log1p(a[j - 1] * L)
                else:
                    x = w[k - j - 1]
                    log_f -= mp.log(a[j - 1] + (mp.exp(-x) if x is not None and x < 1e4 else 0))
            return mp.exp(log_f)

        return mp.quad(integrand, [0, 1, 16, mp.inf])


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_energy_against_a_40_digit_oracle(depth, n):
    e = modulus_energy_detailed(ModulusFunction.iterlog(depth, 1.0, n=n))
    assert e.status == "converged"
    assert abs(e.value - mp_energy(depth, n)) <= e.error_bound


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
    assert phi._plan == ((0.0, 1.0, 0.25, 0), (1.0, 0.75, 0.25, 1),
                         (math.e, 0.75 ** 2, 0.7, 2))
    assert phi._plan is phi._plan                   # built once
    assert ModulusFunction.power(0.5)._plan == ()
