import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicone import _roots, energy
from bicone.deformations import ConeMap, GluedMap
from bicone.energy import (_W_Q, EnergyResult, _distortion_tail, _panel_value,
                           _w_constants, _w_rule_error, biconformal_energy,
                           conformal_energy_H, energy_F_monte_carlo,
                           energy_modulus_ratio, inner_distortion_integral)
from bicone.geometry import sample_cone_interior, unit_ball_volume
from bicone.moduli import (_MAX_PANELS, EnergyDivergenceError, ModulusFunction,
                           _doubling_edges, _doubling_quadrature, _gl_rule,
                           measured_constants)

import oracles


def cone_map(family, n=2, **kw):
    build = getattr(ModulusFunction, family)
    return ConeMap(build(n=n, **kw), n=n)


# -- closed-form oracles -----------------------------------------------------

def test_identity_energy_is_conformal_volume():
    # |D(id)|^n = n^{n/2}; integral = n^{n/2} vol(cone)
    r2 = conformal_energy_H(cone_map("identity", n=2), tol=1e-8)
    assert abs(r2.value - 2.0) <= max(r2.error_estimate, 1e-7)
    r3 = conformal_energy_H(cone_map("identity", n=3), tol=1e-8)
    assert abs(r3.value - math.pi * math.sqrt(3.0)) <= max(r3.error_estimate, 1e-6)
    k2 = inner_distortion_integral(cone_map("identity", n=2), tol=1e-8)
    assert abs(k2.value - 2.0) <= max(k2.error_estimate, 1e-7)


def test_power_energy_closed_form_n2():
    # E = 2 + 2 (1 - eps)^2 / (3 eps) for the power stretch in the plane
    for eps in (0.25, 0.5, 0.75):
        r = conformal_energy_H(cone_map("power", eps=eps), tol=1e-9)
        exact = 2.0 + 2.0 * (1.0 - eps) ** 2 / (3.0 * eps)
        assert abs(r.value - exact) <= 1e-6 * exact


def test_power_distortion_closed_form_n2():
    eps = 0.5
    c = 1.0 - eps
    exact = 2.0 * (-math.log(eps) / (c * (3.0 - eps))
                   + (-c - math.log(eps) / c) / (1.0 + eps))
    r = inner_distortion_integral(cone_map("power", eps=eps), tol=1e-9)
    assert abs(r.value - exact) <= 1e-6 * exact


def test_iterlog_depth1_energy_exact_n2():
    r = conformal_energy_H(cone_map("iterlog", depth=1, alpha=1.0), tol=1e-9)
    assert abs(r.value - 22.0 / 9.0) <= 1e-6 * (22.0 / 9.0)


FROZEN = {
    ("iterlog2", 2, "conformal"): 3.7389739133,
    ("iterlog3", 2, "conformal"): 10.7282414359,
    ("iterlog1", 3, "conformal"): 5.6321928012,
    ("iterlog2", 3, "conformal"): 6.0498794014,
    ("iterlog1", 2, "distortion"): 2.14587626,
}


@pytest.mark.parametrize("key,frozen", sorted(FROZEN.items()))
def test_frozen_energy_values(key, frozen):
    name, n, kind = key
    depth = int(name[-1])
    m = cone_map("iterlog", n=n, depth=depth, alpha=1.0)
    fn = conformal_energy_H if kind == "conformal" else inner_distortion_integral
    r = fn(m, tol=1e-8)
    assert abs(r.value - frozen) <= 1e-6 * frozen
    assert r.error_estimate <= 1e-5 * frozen
    assert r.method == "tensor_quadrature"


def test_biconformal_energy_frozen():
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=2), n=2)
    r = biconformal_energy(g, tol=1e-8)
    assert abs(r.value - 11.90201023) <= 1e-6 * r.value
    parts = (conformal_energy_H(g.cone, tol=1e-8).value
             + inner_distortion_integral(g.cone, tol=1e-8).value)
    assert abs(r.value - 2.0 * parts) <= 1e-12


def _statuses(depth, n, tol):
    """Status of |DH|^n and of the doubled total, each checked against its bound."""
    g = GluedMap(ModulusFunction.iterlog(depth=depth, alpha=1.0, n=n), n=n)
    out = []
    for r in (conformal_energy_H(g.cone, tol=tol), biconformal_energy(g, tol=tol)):
        assert (r.error_estimate <= tol * r.value) == (r.status == "converged")
        out.append(r.status)
    return out


@pytest.mark.parametrize("n,tol,part,total", [
    (2, 1e-10, "converged", "converged"),
    (2, 1e-15, "truncated", "truncated"),
    (3, 1e-15, "truncated", "truncated"),
])
def test_status_says_whether_the_bound_meets_tol(n, tol, part, total):
    # a result is converged exactly when its certified bound meets tol;
    # tol 1e-15 lies below the 8 eps rounding floor of the |DH|^n part
    assert _statuses(3, n, tol) == [part, total]


def test_total_can_certify_where_its_part_does_not():
    # the doubled total meets tol although its |DH|^n part alone does not
    assert _statuses(4, 3, 1e-14) == ["truncated", "converged"]


@pytest.mark.parametrize("n", [2, 3])
def test_depth3_certifies_well_inside_the_panel_cap(n):
    m = ConeMap(ModulusFunction.iterlog(depth=3, alpha=1.0, n=n), n=n)
    r = conformal_energy_H(m, tol=1e-10)
    fine = conformal_energy_H(m, tol=1e-12)
    assert r.samples_or_nodes < 600_000
    assert abs(r.value - fine.value) <= r.error_estimate



# Exact (value, error_estimate, samples_or_nodes, status) of both tensor
# quadratures; their doubling driver and remainders must keep every bit.
PINNED_FAMILIES = {
    "identity": ("identity", {}),
    "power 0.5": ("power", {"eps": 0.5}),
    **{f"iterlog k={k}": ("iterlog", {"depth": k, "alpha": 1.0}) for k in range(1, 5)},
}
PINNED = {
    ('identity', 2, 1e-06, 'conformal'):
        (1.9999998124413758, 1.8755862808481187e-07, 2304, 'converged'),
    ('identity', 2, 1e-06, 'distortion'):
        (1.999999999999975, 2.2507055561788234e-07, 2880, 'converged'),
    ('identity', 2, 1e-10, 'conformal'):
        (1.9999999999999791, 2.4659656260624088e-14, 2880, 'converged'),
    ('identity', 2, 1e-10, 'distortion'):
        (2.0000000000000004, 2.888104477699186e-14, 3456, 'converged'),
    ('identity', 3, 1e-06, 'conformal'):
        (5.441398092519151, 3.8955136389444927e-10, 2304, 'converged'),
    ('identity', 3, 1e-06, 'distortion'):
        (5.441398092702655, 2.054297650879115e-10, 2880, 'converged'),
    ('identity', 3, 1e-10, 'conformal'):
        (5.441398092702655, 9.689759488671022e-15, 2880, 'converged'),
    ('identity', 3, 1e-10, 'distortion'):
        (5.441398092702655, 2.054297650879115e-10, 2880, 'converged'),
    ('power 0.5', 2, 1e-06, 'conformal'):
        (2.333333295821596, 3.751174171541782e-08, 2880, 'converged'),
    ('power 0.5', 2, 1e-06, 'distortion'):
        (2.2907613037224337, 4.4615813402084247e-11, 3456, 'converged'),
    ('power 0.5', 2, 1e-10, 'conformal'):
        (2.333333333333329, 8.366221141632128e-15, 3456, 'converged'),
    ('power 0.5', 2, 1e-10, 'distortion'):
        (2.2907613037224337, 4.4615813402084247e-11, 3456, 'converged'),
    ('power 0.5', 3, 1e-06, 'conformal'):
        (5.873523894158815, 2.7597068863083787e-06, 2304, 'converged'),
    ('power 0.5', 3, 1e-06, 'distortion'):
        (5.854140440781438, 6.451748550332106e-09, 2880, 'converged'),
    ('power 0.5', 3, 1e-10, 'conformal'):
        (5.873525242045007, 1.688230739699778e-11, 2880, 'converged'),
    ('power 0.5', 3, 1e-10, 'distortion'):
        (5.854140440781438, 1.0412337013447927e-14, 3456, 'converged'),
    ('iterlog k=1', 2, 1e-06, 'conformal'):
        (2.4444442374072612, 3.105557796159719e-07, 4608, 'converged'),
    ('iterlog k=1', 2, 1e-06, 'distortion'):
        (2.1458762619093306, 2.6491640453497963e-08, 7488, 'converged'),
    ('iterlog k=1', 2, 1e-10, 'conformal'):
        (2.44444444439278, 7.750098085119394e-11, 6912, 'converged'),
    ('iterlog k=1', 2, 1e-10, 'distortion'):
        (2.1458762619093323, 5.796215353197909e-15, 9216, 'converged'),
    ('iterlog k=1', 3, 1e-06, 'conformal'):
        (5.632192507819745, 7.537087481738556e-07, 3456, 'converged'),
    ('iterlog k=1', 3, 1e-06, 'distortion'):
        (5.5419912262337405, 5.7968547332937006e-08, 5760, 'converged'),
    ('iterlog k=1', 3, 1e-10, 'conformal'):
        (5.632192801166673, 2.0490288911173656e-10, 5184, 'converged'),
    ('iterlog k=1', 3, 1e-10, 'distortion'):
        (5.541991226233744, 1.4078964526282828e-14, 7488, 'converged'),
    ('iterlog k=2', 2, 1e-06, 'conformal'):
        (3.7389736647640586, 4.480767839490424e-07, 5184, 'converged'),
    ('iterlog k=2', 2, 1e-06, 'distortion'):
        (2.212030938744841, 5.235367796156002e-08, 7656, 'converged'),
    ('iterlog k=2', 2, 1e-10, 'conformal'):
        (3.7389739110004454, 4.245692340706839e-11, 8640, 'converged'),
    ('iterlog k=2', 2, 1e-10, 'distortion'):
        (2.212030938744846, 8.66290759318614e-15, 9384, 'converged'),
    ('iterlog k=2', 3, 1e-06, 'conformal'):
        (6.049878792513682, 1.99135201850034e-06, 4032, 'converged'),
    ('iterlog k=2', 3, 1e-06, 'distortion'):
        (5.621551239495406, 1.2078409842733325e-07, 5976, 'converged'),
    ('iterlog k=2', 3, 1e-10, 'conformal'):
        (6.049879401408563, 8.265387812407069e-11, 7488, 'converged'),
    ('iterlog k=2', 3, 1e-10, 'distortion'):
        (5.621551239495418, 2.172478264276421e-14, 7704, 'converged'),
    ('iterlog k=3', 2, 1e-06, 'conformal'):
        (10.728239464254333, 3.651312952568771e-06, 4608, 'converged'),
    ('iterlog k=3', 2, 1e-06, 'distortion'):
        (2.2978630006500746, 6.57240181092404e-08, 7728, 'converged'),
    ('iterlog k=3', 2, 1e-10, 'conformal'):
        (10.728241433793276, 4.2324425540837934e-10, 8064, 'converged'),
    ('iterlog k=3', 2, 1e-10, 'distortion'):
        (2.297863000650081, 1.0159753209462613e-14, 9456, 'converged'),
    ('iterlog k=3', 3, 1e-06, 'conformal'):
        (7.596893070387091, 1.1231880980120898e-06, 4608, 'converged'),
    ('iterlog k=3', 3, 1e-06, 'distortion'):
        (5.829405708234049, 1.6563516972234966e-07, 6096, 'converged'),
    ('iterlog k=3', 3, 1e-10, 'conformal'):
        (7.5968933947461, 9.591965031298658e-11, 8064, 'converged'),
    ('iterlog k=3', 3, 1e-10, 'distortion'):
        (5.829405708234066, 2.707461441791278e-14, 7824, 'converged'),
    ('iterlog k=4', 2, 1e-06, 'conformal'):
        (74.69217655442871, 2.1124532406945055e-05, 4032, 'converged'),
    ('iterlog k=4', 2, 1e-06, 'distortion'):
        (2.3430855097578793, 7.274047293395986e-08, 7776, 'converged'),
    ('iterlog k=4', 2, 1e-10, 'conformal'):
        (74.69218799678798, 2.3762670081227316e-09, 7488, 'converged'),
    ('iterlog k=4', 2, 1e-10, 'distortion'):
        (2.343085509757886, 1.0915019869406245e-14, 9504, 'converged'),
    ('iterlog k=4', 3, 1e-06, 'conformal'):
        (13.029974019721172, 2.173971746037959e-06, 4608, 'converged'),
    ('iterlog k=4', 3, 1e-06, 'distortion'):
        (6.009141638481645, 2.0346915784669071e-07, 6168, 'converged'),
    ('iterlog k=4', 3, 1e-10, 'conformal'):
        (13.029974644554283, 1.9759087042842373e-10, 8064, 'converged'),
    ('iterlog k=4', 3, 1e-10, 'distortion'):
        (6.009141638481666, 3.14360498441124e-14, 7896, 'converged'),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=str)
def test_tensor_quadrature_results_are_pinned(key):
    label, n, tol, kind = key
    family, kw = PINNED_FAMILIES[label]
    fn = conformal_energy_H if kind == "conformal" else inner_distortion_integral
    r = fn(cone_map(family, n=n, **kw), tol=tol)
    assert (r.value, r.error_estimate, r.samples_or_nodes, r.status) == PINNED[key]

@pytest.mark.parametrize("n,depth", [(n, k) for n in (2, 3) for k in (1, 2, 3, 4)]
                         + [(4, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_conformal_energy_against_an_mpmath_oracle(n, depth):
    # the first-order tail bound holds at every depth, dimension and tol
    m = cone_map("iterlog", n=n, depth=depth, alpha=1.0)
    oracle = oracles.conformal_energy(m.phi)
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        r = conformal_energy_H(m, tol=tol)
        assert r.status == "converged"
        assert abs(r.value - oracle) <= r.error_estimate


def test_identity_energy_at_n3_is_the_conformal_volume():
    # |D(id)|^n = n^{n/2} over a cone of volume vol(B^{n-1}) / n
    exact = 3 ** 1.5 * unit_ball_volume(2) / 3
    for tol in (1e-8, 1e-12):
        r = conformal_energy_H(cone_map("identity", n=3), tol=tol)
        assert r.status == "converged"
        assert abs(r.value - exact) <= r.error_estimate


def test_power_energy_at_n3_against_an_mpmath_oracle():
    m = cone_map("power", n=3, eps=0.5)
    oracle = oracles.conformal_energy(m.phi)
    for tol in (1e-8, 1e-12):
        r = conformal_energy_H(m, tol=tol)
        assert r.status == "converged"
        assert abs(r.value - oracle) <= r.error_estimate


@settings(max_examples=15)
@given(n=st.sampled_from([2, 3, 4, 5, 7, 9]), s=st.floats(1e-6, 1.0),
       phi=st.floats(1e-6, 1.0), g=st.floats(0.0, 1.0))
def test_one_w_panel_is_within_its_rule_error_bound(n, s, phi, g):
    # Both rules run in 30-digit arithmetic, so what separates the one panel
    # from the 41 dyadic panels of depth 40 is the one panel's rule error.
    with mp.workdps(30):
        def panel(lo, hi):
            return oracles.w_integral(n, mp.mpf(s), mp.mpf(phi), mp.mpf(g), lo, hi, 24)

        edges = [mp.mpf(0)] + [1 - mp.mpf(2) ** -j for j in range(1, 41)] + [mp.mpf(1)]
        fine = mp.fsum(panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
        gap = abs(panel(mp.mpf(0), mp.mpf(1)) - fine)
    bound = _w_rule_error(n, ((n - 1) * s ** 2 + _W_Q * phi ** 2) ** (n / 2.0))
    if n % 2 == 0:
        assert bound == 0.0 and gap <= 1e-25 * fine        # exact for polynomials
    else:
        assert gap <= bound


def _exact_w(n, c):
    """(W_n(c), W_n'(c), W_n''(c)) at even n, integrated exactly in w.

    W_n(c) = int_0^1 Q^p (1-w)^{n-2} dw with Q = (wc)^2 + (1-wc)^2 and
    p = n/2; Q, dQ/dc and d^2Q/dc^2 are polynomials in w (coefficient lists).
    """
    def mul(*polys):
        out = [Fraction(1)]
        for b in polys:
            prod = [Fraction(0)] * (len(out) + len(b) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            out = prod
        return sum(a / (i + 1) for i, a in enumerate(out))   # int_0^1 dw

    p = n // 2
    Q, dQ, d2Q = [1, -2 * c, 2 * c * c], [0, -2, 4 * c], [0, 0, 4]
    weight = [[1, -1]] * (n - 2)
    curvature = p * mul(*[Q] * (p - 1), d2Q, *weight)
    if p >= 2:
        curvature += p * (p - 1) * mul(*[Q] * (p - 2), dQ, dQ, *weight)
    return mul(*[Q] * p, *weight), p * mul(*[Q] * (p - 1), dQ, *weight), curvature


@pytest.mark.parametrize("n", [2, 4, 6])
def test_w_constants_match_exact_polynomial_integrals(n):
    W, W_slope, K = _w_constants(n)
    exact_W, exact_slope, _ = _exact_w(n, Fraction(1))
    if n == 2:
        assert (exact_W, exact_slope) == (Fraction(2, 3), Fraction(1, 3))
    # The moments sum 408 rounded terms, measured 0.3-9.4 ulp off at n = 2-6.
    # K_n of the energy module's comment block is 2n / (n^2 - 1) at even n.
    for got, want in ((W, exact_W), (W_slope, exact_slope), (K, Fraction(2 * n, n * n - 1))):
        assert abs(Fraction(got) - want) <= 16 * Fraction(math.ulp(float(want)))
    # K_n bounds |W_n''| over c in [0, 1], and equals it at n = 2
    curvatures = [abs(_exact_w(n, Fraction(i, 32))[2]) for i in range(33)]
    assert float(max(curvatures)) <= K
    assert n != 2 or set(curvatures) == {Fraction(4, 3)}


# -- pointwise distortion bound ----------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_inner_distortion_pointwise_bound(n):
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=n)
    m = ConeMap(phi, n=n)
    X = sample_cone_interior(4000, n=n, seed=7, exclude_axis_margin=1e-9,
                             exclude_boundary_margin=1e-9).points
    jd = m.jacobian(X)
    M = measured_constants(phi).M
    cap = (n - 1) ** (n / 2.0) * M ** (2 * n - 1) * jd.hs_norm ** n
    assert np.all(jd.inner_distortion <= cap * (1 + 1e-12))
    assert np.all(jd.inner_distortion >= 1.0 - 1e-12)   # K >= 1 always


# -- Monte-Carlo estimator -----------------------------------------------------

def test_monte_carlo_identity_has_zero_variance():
    r = energy_F_monte_carlo(cone_map("identity", n=2), samples=5000, seed=0)
    assert abs(r.value - 2.0) <= 1e-10 + r.error_estimate
    assert r.method == "monte_carlo" and r.seed == 0


def test_monte_carlo_matches_quadrature():
    m = cone_map("iterlog", depth=1, alpha=1.0)
    mc = energy_F_monte_carlo(m, samples=200_000, seed=42)
    quad = inner_distortion_integral(m, tol=1e-6)
    assert abs(mc.value - quad.value) <= 0.02 * quad.value


def test_monte_carlo_is_deterministic_per_seed():
    m = cone_map("power", eps=0.5)
    a = energy_F_monte_carlo(m, samples=2000, seed=11)
    b = energy_F_monte_carlo(m, samples=2000, seed=11)
    c = energy_F_monte_carlo(m, samples=2000, seed=12)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    assert a.value != c.value


def test_monte_carlo_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        energy_F_monte_carlo(cone_map("identity"), samples=999)


@pytest.mark.parametrize("depth,n", [(1, 2), (2, 3), (3, 4)])
def test_monte_carlo_result_is_the_same_in_any_block_size(monkeypatch, depth, n):
    m = cone_map("iterlog", n=n, depth=depth, alpha=1.0)
    default = {samples: energy_F_monte_carlo(m, samples, seed=depth)
               for samples in (1000, 4097, 16385)}
    for block in (1000, 4096, 10**9):         # 10**9: every run is one block
        monkeypatch.setattr(_roots, "_BLOCK", block)
        for samples, ref in default.items():
            assert energy_F_monte_carlo(m, samples, seed=depth) == ref


def test_monte_carlo_memory_peak_stays_near_its_sample():
    # the points (2.4 MB) and their stream (3.2 MB) are whole; the inverse
    # and the Jacobian work on 16384-point blocks
    m = cone_map("iterlog", n=3, depth=2, alpha=1.0)
    energy_F_monte_carlo(m, 1000)
    tracemalloc.start()
    try:
        energy_F_monte_carlo(m, 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("samples", [1e4, 1000.0, "1000"])
def test_monte_carlo_rejects_a_non_integer_sample_count(samples):
    with pytest.raises(TypeError, match="samples must be an integer"):
        energy_F_monte_carlo(cone_map("identity"), samples)


# -- divergence and ratios -----------------------------------------------------

@pytest.mark.parametrize("depth", [2, 5])
def test_inverse_energy_below_the_threshold_at_depths_2_and_5(depth):
    # the K_H oracle takes any depth through the shared jet; the printed
    # bound is not checked here, it fails at tight tol (ROADMAP item 9)
    tol = 1e-8
    m = cone_map("iterlog", depth=depth, alpha=0.4)
    r = inner_distortion_integral(m, tol=tol)
    assert r.status == "converged"
    assert abs(r.value / oracles.inverse_energy(m.phi) - 1) <= tol


def test_divergent_modulus_raises():
    m = cone_map("iterlog", depth=1, alpha=0.4)
    with pytest.raises(EnergyDivergenceError):
        conformal_energy_H(m, tol=1e-6)


@pytest.mark.parametrize("alpha", [0.3, 0.4])
def test_inverse_energy_is_finite_below_the_energy_threshold(alpha):
    # n alpha <= 1: E[phi] and E[H] diverge, but E[F] = int K_H does not
    tol = 1e-8
    m = cone_map("iterlog", depth=1, alpha=alpha)
    r = inner_distortion_integral(m, tol=tol)
    assert r.status == "converged"
    assert abs(r.value / oracles.inverse_energy(m.phi) - 1) <= tol


class _FixedProfile:
    """A modulus stand-in whose profile_log gives phi = 1 and a fixed g."""

    def __init__(self, n, g):
        self.n, self.g = n, g

    def profile_log(self, u):
        return np.ones_like(u), np.full_like(u, self.g)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_distortion_cell_against_the_z_form_oracle(n):
    # One u-node (weight 1, the other 23 weight 0) with phi = 1, so that
    # sigma = s = e^-u and the panel is e^{-(n-1)u} times the cell.  Small g
    # is where z = 1 - w(1 - g), formed near w = 1, would cancel.
    wu = np.zeros((1, 24))
    wu[0, 0] = 1.0
    for sigma in (1e-3, 0.5, 1.0):
        u = np.full((1, 24), -math.log(sigma))
        for g in (0.9, 0.5, 1e-2, 1e-6, 1e-12):
            inc = _panel_value(_FixedProfile(n, g), u, wu, "distortion")[0][0]
            cell = inc / math.exp(-(n - 1) * u[0, 0])
            oracle = oracles.inverse_cell(n, math.exp(-u[0, 0]), g)
            assert abs(cell / oracle - 1) <= 1e-14, (sigma, g)


@pytest.mark.parametrize("alpha", [1e-2, 1e-4, 1e-6])
def test_inverse_energy_at_small_alpha_is_within_its_bound(alpha):
    # g = alpha/(1 + u) is small on every panel, so each K_H cell is one
    # whose z would cancel if formed from w
    m = cone_map("iterlog", depth=1, alpha=alpha)
    r = inner_distortion_integral(m, tol=1e-10)
    assert r.status == "converged"
    assert abs(r.value - oracles.inverse_energy(m.phi)) <= r.error_estimate


def test_identity_inverse_energy_is_within_its_bound_of_the_oracle():
    # g = 1 takes the oracle's limit form; the value is the cone's 2
    m = cone_map("identity")
    oracle = oracles.inverse_energy(m.phi)
    assert abs(oracle - 2) <= 1e-18
    for tol in (1e-6, 1e-10):
        r = inner_distortion_integral(m, tol=tol)
        assert r.status == "converged" and abs(r.value - oracle) <= r.error_estimate


@pytest.mark.parametrize("family,n,kw", [("identity", 2, {}), ("identity", 3, {}),
                                         ("power", 2, {"eps": 0.5})])
def test_inverse_energy_stays_finite_far_past_underflow(family, n, kw):
    # tol 1e-300, below the rounding allowance, is not certified; the
    # panels far past the underflow of s and phi are checked below
    r = inner_distortion_integral(cone_map(family, n=n, **kw), tol=1e-300)
    assert math.isfinite(r.value) and math.isfinite(r.error_estimate)
    assert r.status == "truncated" and r.error_estimate > 0.0
    # every doubling panel up to U = 2^59, where s and phi underflow, gives
    # finite K_H cells (a RuntimeWarning fails the test)
    u, wu = _gl_rule(_doubling_edges(_MAX_PANELS))
    assert np.isfinite(_panel_value(cone_map(family, n=n, **kw).phi, u, wu,
                                    "distortion")[0]).all()


@pytest.mark.parametrize("family,n,kw", [("power", 3, {"eps": 1e-200}),
                                         ("power", 7, {"eps": 1e-60}),
                                         ("iterlog", 3, {"depth": 1, "alpha": 1e-200})])
def test_the_inverse_tail_majorant_survives_an_overflowing_elasticity_floor(family, n, kw):
    # c0^(1-n) overflows a float here (c0 = eps, or alpha at depth 1); the
    # majorant is inf while c0^(1-n) e^{-(n-1)U} overflows, and matches the
    # same closed form in 40 digits where it is a normal float
    phi = cone_map(family, n=n, **kw).phi
    m, c0 = n - 1, mp.mpf(kw.get("eps", kw.get("alpha")))
    with mp.workdps(40):
        for U in _doubling_edges(_MAX_PANELS)[1:]:
            phi_U = phi.profile_log(U)[0]
            sigma = mp.exp(-U) / phi_U
            C = (4 * (sigma ** 2 + 1) + m) ** (mp.mpf(n) / 2)
            if family == "power":
                poly = mp.mpf(1) / m
            else:
                poly = sum(math.comb(m, i) * (1 + mp.mpf(U)) ** (m - i)
                           * math.factorial(i) / mp.mpf(m) ** (i + 1) for i in range(m + 1))
            want = C * phi_U * c0 ** (1 - n) * mp.exp(-m * U) * poly
            got = _distortion_tail(phi, U, phi_U)
            if want > np.finfo(float).max:
                assert got == math.inf, U
            elif want >= np.finfo(float).tiny:
                assert abs(got - want) <= 1e-12 * want, U
            else:                           # past the float range at the bottom
                assert 0.0 <= got < np.finfo(float).tiny, U


@pytest.mark.parametrize("eps", [1e-310, 5e-324])
def test_inverse_energy_at_a_subnormal_power_eps_meets_the_closed_form(eps):
    # 1/eps overflows, and log(1/eps) is past the log of the smallest normal
    # float, which the K_H cells must not clip to
    c = 1.0 - eps
    exact = 2.0 * (-math.log(eps) / (c * (3.0 - eps))
                   + (-c - math.log(eps) / c) / (1.0 + eps))
    r = inner_distortion_integral(cone_map("power", eps=eps), tol=1e-10)
    assert r.status == "converged" and math.isfinite(r.error_estimate)
    assert abs(r.value - exact) <= r.error_estimate


def _eager(panel, tol, remainder):
    """The doubling driver with the whole remainder taken at every panel."""
    def whole(U, total, rule, inc, may_stop):
        return remainder(U, total, rule, inc, lambda low, high: True)
    return _doubling_quadrature(panel, tol, whole)


@pytest.mark.parametrize("alpha", [1.0, 0.7, 0.3])
@pytest.mark.parametrize("depth", [3, 4, 5])
def test_the_lazy_remainder_keeps_every_bit_of_the_eager_one(monkeypatch, depth, alpha):
    # tol 1e-14 lazy (at least 16 eps), 1e-15 and 1e-300 eager; n alpha <= 1
    # diverges.  k = 3, alpha = 1, n = 2 at tol 1e-14 runs to the cap.
    cases = [(cone_map("iterlog", n=n, depth=depth, alpha=alpha), tol)
             for n in range(2, 8) if n * alpha > 1.0
             for tol in (1e-2, 1e-6, 1e-10, 1e-14, 1e-15, 1e-300)]
    lazy = [conformal_energy_H(m, tol=tol) for m, tol in cases]
    monkeypatch.setattr(energy, "_doubling_quadrature", _eager)
    assert [conformal_energy_H(m, tol=tol) for m, tol in cases] == lazy
    if (depth, alpha) == (3, 1.0):
        assert lazy[3].samples_or_nodes == _MAX_PANELS * 24 * 24


def test_the_conformal_remainder_takes_few_tails(monkeypatch):
    # T(0) for the value ceiling, then T(U) only where the cheap terms of
    # the bound could stop the sum (7-14 calls when taken at every panel)
    calls = []

    def counted(phi, U):
        calls.append(U)
        return tail_bound(phi, U)

    tail_bound = energy.energy_tail_bound
    monkeypatch.setattr(energy, "energy_tail_bound", counted)
    r = conformal_energy_H(cone_map("iterlog", n=3, depth=4, alpha=1.0), tol=1e-10)
    assert r.status == "converged" and len(calls) <= 3, calls


@pytest.mark.parametrize("family,n,kw,kind,tol,nodes", [
    ("iterlog", 3, {"depth": 1, "alpha": 1.0}, "distortion", 1e-15, 7_488),
    ("iterlog", 3, {"depth": 4, "alpha": 1.0}, "distortion", 1e-15, 9_624),
    ("identity", 2, {}, "conformal", 1e-300, 3_456),
    ("identity", 2, {}, "distortion", 1e-300, 4_032)])
def test_a_tol_below_the_rounding_allowance_stops_early(family, n, kw, kind, tol, nodes):
    # no bound can meet a tol below about 16 eps, so the driver stops
    # "truncated" at the first panel whose bound is within the allowance,
    # not at the 60-panel cap (34,560 nodes for these integrands at g >= 1/2,
    # up to about 490,000 for K_H of iterlog)
    quad = conformal_energy_H if kind == "conformal" else inner_distortion_integral
    m = cone_map(family, n=n, **kw)
    r, ref = quad(m, tol=tol), quad(m, tol=1e-10)
    assert (r.status, r.samples_or_nodes, ref.status) == ("truncated", nodes, "converged")
    assert abs(r.value - ref.value) <= r.error_estimate + ref.error_estimate


@pytest.mark.parametrize("kind,depth,alpha,n,tol", [
    ("conformal", 1, 1.0, 2, 1e-2), ("conformal", 1, 1.0, 3, 1e-4),
    ("distortion", 1, 1.0, 2, 1e-2), ("distortion", 1, 1.0, 3, 1e-4),
    ("distortion", 2, 0.2, 5, 1e-6)])         # E[phi] diverges there: K_H only
def test_a_converged_quadrature_meets_half_its_tol(kind, depth, alpha, n, tol):
    # one stop rule for both integrands: a sum that stops before the cap is
    # "converged" only with err <= tol/2 max(1, |value|)
    quad = conformal_energy_H if kind == "conformal" else inner_distortion_integral
    r = quad(cone_map("iterlog", n=n, depth=depth, alpha=alpha), tol=tol)
    assert r.status == "converged"
    assert r.error_estimate <= 0.5 * tol * max(1.0, abs(r.value))


@pytest.mark.parametrize("family,kw", [
    ("identity", {}),
    ("power", {"eps": 0.5}),
    ("iterlog", {"depth": 2, "alpha": 1.0}),
])
def test_energy_modulus_ratio_finite(family, kw):
    ratio = energy_modulus_ratio(cone_map(family, **kw), tol=1e-7)
    assert math.isfinite(ratio) and ratio > 0


def test_energy_result_is_frozen():
    r = conformal_energy_H(cone_map("identity"), tol=1e-6)
    assert isinstance(r, EnergyResult)
    with pytest.raises(AttributeError):
        r.value = 0.0
