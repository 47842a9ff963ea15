import math

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


@pytest.mark.parametrize("n,tol,part,total", [
    (2, 1e-10, "converged", "converged"),
    (2, 1e-12, "truncated", "truncated"),
    (3, 1e-10, "truncated", "converged"),
])
def test_status_says_whether_the_bound_meets_tol(n, tol, part, total):
    # depth 3 runs out of panels in all three cases; a result is converged
    # exactly when its certified bound meets tol, and the doubled total can
    # meet it although its |DH|^n part alone does not
    g = GluedMap(ModulusFunction.iterlog(depth=3, alpha=1.0, n=n), n=n)
    for r, status in ((conformal_energy_H(g.cone, tol=tol), part),
                      (biconformal_energy(g, tol=tol), total)):
        assert r.status == status
        assert (r.error_estimate <= tol * r.value) == (status == "converged")


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
