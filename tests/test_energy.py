import math

import mpmath as mp
import numpy as np
import pytest

from bicone.deformations import ConeMap, GluedMap
from bicone.energy import (EnergyResult, biconformal_energy,
                           conformal_energy_H, energy_F_monte_carlo,
                           energy_modulus_ratio, inner_distortion_integral)
from bicone.geometry import sample_cone_interior
from bicone.moduli import EnergyDivergenceError, ModulusFunction, measured_constants


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
        (1.9999998124413723, 1.8755862808481187e-07, 20736, 'converged'),
    ('identity', 2, 1e-06, 'distortion'):
        (1.9999999999999714, 2.2507055206516842e-07, 25920, 'converged'),
    ('identity', 2, 1e-10, 'conformal'):
        (1.9999999999999756, 2.4659656260624082e-14, 25920, 'converged'),
    ('identity', 2, 1e-10, 'distortion'):
        (1.9999999999999967, 2.532833109819124e-14, 31104, 'converged'),
    ('identity', 3, 1e-06, 'conformal'):
        (5.441398092519146, 3.8955134001438424e-10, 20736, 'converged'),
    ('identity', 3, 1e-06, 'distortion'):
        (5.44139809270265, 2.0542009922319265e-10, 25920, 'converged'),
    ('identity', 3, 1e-10, 'conformal'):
        (5.44139809270265, 9.665879423594136e-15, 25920, 'converged'),
    ('identity', 3, 1e-10, 'distortion'):
        (5.44139809270265, 2.0542009922319265e-10, 25920, 'converged'),
    ('power 0.5', 2, 1e-06, 'conformal'):
        (2.333333295821595, 3.751174171541782e-08, 25920, 'converged'),
    ('power 0.5', 2, 1e-06, 'distortion'):
        (2.29076130372243, 4.4611744192575066e-11, 31104, 'converged'),
    ('power 0.5', 2, 1e-10, 'conformal'):
        (2.3333333333333277, 8.366221141632127e-15, 31104, 'converged'),
    ('power 0.5', 2, 1e-10, 'distortion'):
        (2.29076130372243, 4.4611744192575066e-11, 31104, 'converged'),
    ('power 0.5', 3, 1e-06, 'conformal'):
        (5.873523894158798, 2.759706886275586e-06, 20736, 'converged'),
    ('power 0.5', 3, 1e-06, 'distortion'):
        (5.854140440781445, 6.4517381512896884e-09, 25920, 'converged'),
    ('power 0.5', 3, 1e-10, 'conformal'):
        (5.873525242044991, 1.6882274604676972e-11, 25920, 'converged'),
    ('power 0.5', 3, 1e-10, 'distortion'):
        (5.854140440781445, 1.3294602656222795e-17, 31104, 'converged'),
    ('iterlog k=1', 2, 1e-06, 'conformal'):
        (2.4444442374072635, 3.105557796159719e-07, 53568, 'converged'),
    ('iterlog k=1', 2, 1e-06, 'distortion'):
        (2.1458762619093332, 2.649163664165596e-08, 36864, 'converged'),
    ('iterlog k=1', 2, 1e-10, 'conformal'):
        (2.444444444392782, 7.750098085119394e-11, 92736, 'converged'),
    ('iterlog k=1', 2, 1e-10, 'distortion'):
        (2.145876261909335, 1.9843733788486004e-15, 44928, 'converged'),
    ('iterlog k=1', 3, 1e-06, 'conformal'):
        (5.632192507819744, 7.537087481457131e-07, 36864, 'converged'),
    ('iterlog k=1', 3, 1e-06, 'distortion'):
        (5.5419912262337405, 5.7968537488382894e-08, 29376, 'converged'),
    ('iterlog k=1', 3, 1e-10, 'conformal'):
        (5.632192801166672, 2.0490286096035866e-10, 62784, 'converged'),
    ('iterlog k=1', 3, 1e-10, 'distortion'):
        (5.541991226233745, 4.234410507666275e-15, 36864, 'converged'),
    ('iterlog k=2', 2, 1e-06, 'conformal'):
        (3.7389736647640657, 4.480767839490424e-07, 62784, 'converged'),
    ('iterlog k=2', 2, 1e-06, 'distortion'):
        (2.212030938744839, 5.235367403220378e-08, 36864, 'converged'),
    ('iterlog k=2', 2, 1e-10, 'conformal'):
        (3.738973911000452, 4.245692340706839e-11, 130176, 'converged'),
    ('iterlog k=2', 2, 1e-10, 'distortion'):
        (2.212030938744844, 4.733551306181701e-15, 44928, 'converged'),
    ('iterlog k=2', 3, 1e-06, 'conformal'):
        (6.049878792513695, 1.991352018467904e-06, 45504, 'converged'),
    ('iterlog k=2', 3, 1e-06, 'distortion'):
        (5.6215512394954015, 1.2078408844145214e-07, 29952, 'converged'),
    ('iterlog k=2', 3, 1e-10, 'conformal'):
        (6.049879401408576, 8.265384498961115e-11, 109440, 'converged'),
    ('iterlog k=2', 3, 1e-10, 'distortion'):
        (5.621551239495413, 1.1738901650447391e-14, 37440, 'converged'),
    ('iterlog k=3', 2, 1e-06, 'conformal'):
        (10.728239464254337, 3.651312952568771e-06, 53568, 'converged'),
    ('iterlog k=3', 2, 1e-06, 'distortion'):
        (2.297863000650074, 6.572401402741542e-08, 36864, 'converged'),
    ('iterlog k=3', 2, 1e-10, 'conformal'):
        (10.728241433793276, 4.2324425540837934e-10, 117504, 'converged'),
    ('iterlog k=3', 2, 1e-10, 'distortion'):
        (2.2978630006500804, 6.0779285522529915e-15, 44928, 'converged'),
    ('iterlog k=3', 3, 1e-06, 'conformal'):
        (7.596893070387103, 1.1231880979701352e-06, 57600, 'converged'),
    ('iterlog k=3', 3, 1e-06, 'distortion'):
        (5.829405708234055, 1.6563515936724515e-07, 31680, 'converged'),
    ('iterlog k=3', 3, 1e-10, 'conformal'):
        (7.596893394746112, 9.591960592260395e-11, 124992, 'converged'),
    ('iterlog k=3', 3, 1e-10, 'distortion'):
        (5.829405708234072, 1.6719509718452094e-14, 39744, 'converged'),
    ('iterlog k=4', 2, 1e-06, 'conformal'):
        (74.69217655442871, 2.1124532406945055e-05, 45504, 'converged'),
    ('iterlog k=4', 2, 1e-06, 'distortion'):
        (2.3430855097578775, 7.274046877180404e-08, 37440, 'converged'),
    ('iterlog k=4', 2, 1e-10, 'conformal'):
        (74.69218799678798, 2.3762670081227316e-09, 105984, 'converged'),
    ('iterlog k=4', 2, 1e-10, 'distortion'):
        (2.343085509757884, 6.7528638988481155e-15, 45504, 'converged'),
    ('iterlog k=4', 3, 1e-06, 'conformal'):
        (13.029974019721163, 2.173971745987116e-06, 57600, 'converged'),
    ('iterlog k=4', 3, 1e-06, 'distortion'):
        (6.00914163848166, 2.0346914717231169e-07, 31680, 'converged'),
    ('iterlog k=4', 3, 1e-10, 'conformal'):
        (13.02997464455427, 1.9759081468037718e-10, 124992, 'converged'),
    ('iterlog k=4', 3, 1e-10, 'distortion'):
        (6.009141638481681, 2.076166999567051e-14, 39744, 'converged'),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=str)
def test_tensor_quadrature_results_are_pinned(key):
    label, n, tol, kind = key
    family, kw = PINNED_FAMILIES[label]
    fn = conformal_energy_H if kind == "conformal" else inner_distortion_integral
    r = fn(cone_map(family, n=n, **kw), tol=tol)
    assert (r.value, r.error_estimate, r.samples_or_nodes, r.status) == PINNED[key]

def mp_conformal_energy(k, n):
    """int |DH|^n over the upper cone from the reduced (u, w) form, 20 digits.

    The outer integral runs in v = L_k(u) with phi and g from their
    definition; the inner w integral is closed form for n = 2 and a
    30-point Gauss-Legendre sum otherwise (its integrand is analytic within
    distance 1/2 of [0, 1]).  Past u = 1e40, s = e^-u and g are below
    1e-40, so the inner integral is W_n(1) phi^n.
    """
    x, wx = np.polynomial.legendre.leggauss(30)
    with mp.workdps(20):
        gl = [((mp.mpf(xi) + 1) / 2, mp.mpf(wi) / 2) for xi, wi in zip(x, wx)]
        gl = [(w, ww * (1 - w) ** (n - 2)) for w, ww in gl]
        p = mp.mpf(n) / 2
        tower = [mp.mpf(0), mp.mpf(1), mp.e, mp.exp(mp.e)]
        a = [(1 - mp.mpf(1) / n) ** j for j in range(k)]
        beta = [mp.mpf(1) / n] * (k - 1) + [1]

        def inner(c, s2, phi2):
            if n == 2:
                return s2 + phi2 * (1 - c + 2 * c * c / 3)
            return mp.fsum(ww * ((n - 1) * s2 + phi2 * ((1 - w * c) ** 2 + (w * c) ** 2))
                           ** p for w, ww in gl)

        switch = mp.mpf(10) ** 40
        for _ in range(k - 1):
            switch = mp.log(switch)

        def integrand(v):
            w = [v]
            for _ in range(1, k - 1):
                w.append(mp.exp(w[-1]) if w[-1] < 1e4 else mp.inf)
            if v >= switch:
                out = inner(mp.mpf(1), 0, 1) * (1 + a[-1] * v) ** (-n)
                for j in range(1, k):
                    x = w[k - j - 1]
                    out /= a[j - 1] + (mp.exp(-x) if x < 1e4 else 0)
                return out
            if k > 1:                   # k - 1 exponentials in all: u = L_k^{-1}(v)
                w.append(mp.exp(w[-1]))
            u = w[-1] - tower[k - 1]
            log_phi = g = 0
            for j in range(1, k + 1):
                L, dL = tower[j - 1] + u, 1
                for _ in range(j - 1):
                    dL /= L
                    L = mp.log(L)
                log_phi -= beta[j - 1] * mp.log1p(a[j - 1] * L)
                g += beta[j - 1] * a[j - 1] * dL / (1 + a[j - 1] * L)
            s2 = mp.exp(-2 * u) if u < 1e6 else 0
            return mp.fprod(w[1:]) * inner(1 - g, s2, mp.exp(2 * log_phi))

        sigma = 2 * mp.pi ** ((n - 1) / mp.mpf(2)) / mp.gamma((n - 1) / mp.mpf(2))
        # breakpoints every factor 1e4 up to the switch, so that no panel
        # spans many decades of v (depth 1 runs out to v = 1e40)
        points = [mp.mpf(0), mp.mpf(1)]
        while points[-1] * 10 ** 4 < switch:
            points.append(points[-1] * 10 ** 4)
        return sigma * mp.quad(integrand, points + [switch, mp.inf])


@pytest.mark.parametrize("n,depth", [(n, k) for n in (2, 3) for k in (1, 2, 3, 4)]
                         + [(4, 2)])
def test_conformal_energy_against_an_mpmath_oracle(n, depth):
    # the first-order tail bound holds at every depth, dimension and tol
    oracle = mp_conformal_energy(depth, n)
    m = cone_map("iterlog", n=n, depth=depth, alpha=1.0)
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        r = conformal_energy_H(m, tol=tol)
        assert r.status == "converged"
        assert abs(r.value - oracle) <= r.error_estimate


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


# -- divergence and ratios -----------------------------------------------------

def test_divergent_modulus_raises():
    m = cone_map("iterlog", depth=1, alpha=0.4)
    with pytest.raises(EnergyDivergenceError):
        conformal_energy_H(m, tol=1e-6)
    with pytest.raises(EnergyDivergenceError):
        inner_distortion_integral(m, tol=1e-6)


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
