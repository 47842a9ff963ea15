"""Acceptance gate: twelve end-to-end criteria, one test each.

Every test prints one `[acceptance] ... PASS` line on success; under
`pytest -v` the per-test PASSED/FAILED line doubles as the criterion
verdict.  Tolerances and sample sizes are part of the contract and are
not to be loosened to make a red test green.
"""

import json
import math

import numpy as np
import pytest

from bicone.cli import main as cli_main
from bicone.continuity import (averaging_lemma_check, doubling_probe,
                               linear_dilatation, modulus_profile,
                               optimal_modulus, quasi_inverse_check,
                               verify_global_modulus_F, verify_global_modulus_H,
                               verify_main_theorem)
from bicone.deformations import ConeMap, GluedMap, RadialMap
from bicone.geometry import cone_norm, sample_cone_interior
from bicone.moduli import (ModulusFunction, check_admissibility,
                           doubling_constant, measured_constants,
                           modulus_energy)


def admissible_set():
    fams = []
    for n in (2, 3):
        fams += [ModulusFunction.identity(n=n),
                 ModulusFunction.power(0.5, n=n),
                 ModulusFunction.iterlog(depth=1, alpha=1.0, n=n),
                 ModulusFunction.iterlog(depth=2, alpha=1.0, n=n),
                 ModulusFunction.iterlog(depth=3, alpha=1.0, n=n)]
    return fams


def ok(label):
    print(f"[acceptance] {label}: PASS")


def test_criterion_01_energy_closed_forms():
    for n in (2, 3):
        for eps in (0.25, 0.5, 1.0):
            got = modulus_energy(ModulusFunction.power(eps, n=n))
            exact = 1.0 / (n * eps)
            assert abs(got - exact) <= 1e-8 * exact, (n, eps)
        for alpha in (0.75, 1.0):
            got = modulus_energy(ModulusFunction.iterlog(depth=1, alpha=alpha, n=n))
            exact = 1.0 / (n * alpha - 1.0)
            assert abs(got - exact) <= 1e-8 * exact, (n, alpha)
    ok("criterion 01 energy closed forms")


def test_criterion_02_condition_suite():
    for phi in admissible_set():
        report = check_admissibility(phi)
        assert report.passed, (phi.describe(),
                               [c.condition for c in report.checks if not c.passed])
    bad = check_admissibility(ModulusFunction.iterlog(depth=1, alpha=0.4, n=2))
    failed = [c.condition for c in bad.checks if not c.passed]
    assert not bad.passed and failed == ["finite energy (C3)"]
    ok("criterion 02 admissibility conditions")


def test_criterion_03_inversion_round_trip():
    for phi in admissible_set():
        n = phi.n
        m = ConeMap(phi, n=n)
        X = sample_cone_interior(10_000, n=n, seed=0,
                                 exclude_axis_margin=1e-12,
                                 exclude_boundary_margin=1e-12).points
        err = float(np.max(cone_norm(m.inverse(m(X), tol=1e-12) - X)))
        assert err <= 1e-9, (phi.describe(), err)
    ok("criterion 03 inversion round trip")


def test_criterion_04_jacobian_against_finite_differences():
    step = 1e-6
    for phi in admissible_set():
        n = phi.n
        m = ConeMap(phi, n=n)
        X = sample_cone_interior(1000, n=n, seed=1,
                                 exclude_axis_margin=1e-4,
                                 exclude_boundary_margin=1e-4).points
        jd = m.jacobian(X)
        fd = np.empty_like(jd.matrix)
        for j in range(n):
            e = np.zeros(n); e[j] = step
            fd[:, :, j] = (m(X + e) - m(X - e)) / (2 * step)
        scale = np.maximum(1.0, np.abs(fd))
        rel = float(np.max(np.abs(jd.matrix - fd) / scale))
        assert rel <= 1e-5, (phi.describe(), rel)
        M = measured_constants(phi).M
        lam = phi.chord_slope(cone_norm(X))
        assert np.all(jd.det >= 1.0 / M - 1e-12), phi.describe()
        assert np.all(jd.det <= lam + 1e-12), phi.describe()
    ok("criterion 04 jacobian vs finite differences + determinant bounds")


def test_criterion_05_energy_identity_monte_carlo():
    from bicone.energy import energy_F_monte_carlo, inner_distortion_integral
    m = ConeMap(ModulusFunction.iterlog(depth=1, alpha=1.0, n=2), n=2)
    mc = energy_F_monte_carlo(m, samples=1_000_000, seed=42)
    quad = inner_distortion_integral(m, tol=1e-4)
    rel = abs(mc.value - quad.value) / quad.value
    assert rel <= 0.02, (mc.value, quad.value, rel)
    ok("criterion 05 monte carlo vs quadrature energy identity")


def test_criterion_06_optimal_moduli_of_the_glued_pair():
    radii = np.geomspace(1e-3, 0.9, 10)
    for n in (2, 3):
        phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=n)
        g = GluedMap(phi, n=n)
        f = g.inverted()
        for r in radii:
            target = float(phi(r))
            w_h = optimal_modulus(g, 0, float(r), norm="cone", count=512, seed=0)
            w_f = optimal_modulus(f, 0, float(r), norm="cone", count=512, seed=0)
            assert abs(w_h - target) <= 1e-12 * target, (n, r)
            assert abs(w_f - target) <= 1e-12 * target, (n, r)
            assert w_h <= target + 1e-9 and w_f <= target + 1e-9
        report = verify_main_theorem(g, radii=radii, count=512, seed=0)
        assert report.passed, [c.condition for c in report.checks if not c.passed]
    ok("criterion 06 optimal moduli, identity regions, axis attainment")


def test_criterion_07_global_modulus_bounds():
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    m = ConeMap(phi, n=2)
    fwd = verify_global_modulus_H(m, pairs=100_000, seed=0)
    assert fwd.passed and fwd.metadata["max_ratio"] <= 4.0
    inv = verify_global_modulus_F(m, pairs=100_000, seed=0)
    M = measured_constants(phi).M
    assert inv.passed and inv.metadata["near_origin_ratio"] <= 3.0 * M
    ok("criterion 07 global 4*phi and near-origin 3M*phi bounds")


def test_criterion_08_power_map_gains_equal_losses():
    h = RadialMap("power", eps=0.5, n=2)
    radii = np.geomspace(1e-6, 0.9, 24)
    q = quasi_inverse_check(h, h.inverted(), center=0, radii=radii,
                            norm="euclid", count=256, seed=0)
    assert float(np.max(np.abs(q.map_after_inverse - 1.0))) <= 1e-12
    assert float(np.max(np.abs(q.inverse_after_map - 1.0))) <= 1e-12
    d = linear_dilatation(h, 0, np.geomspace(1e-8, 0.5, 12), count=256, seed=0)
    assert d.verdict == "qc_consistent"
    assert float(np.max(np.abs(d.ratios - 1.0))) <= 1e-9
    ok("criterion 08 radial power stretch is quasiconformal")


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_08_dilatation_holds_at_tiny_radii(n):
    # below |x| ~ 1.5e-154 the squares of the sphere's coordinates underflow;
    # the displacements keep their precision, so the ratios stay 1
    h = RadialMap("power", eps=0.5, n=n)
    d = linear_dilatation(h, 0, np.geomspace(1e-300, 1e-100, 8), count=256, seed=0)
    assert d.verdict == "qc_consistent"
    assert float(np.max(np.abs(d.ratios - 1.0))) <= 1e-9
    ok(f"criterion 08 radial power stretch keeps dilatation 1 at tiny radii, n = {n}")


def test_criterion_09_glued_map_is_not_quasiconformal():
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    s = 10.0 ** -np.arange(2, 13)
    ratios = phi(phi(s)) / s
    assert np.all(np.diff(ratios) > 0)          # grows as s shrinks
    assert ratios[-1] > 1e3
    g = GluedMap(phi, n=2)
    d = linear_dilatation(g, 0, np.geomspace(1e-12, 0.1, 12),
                          count=256, seed=0)
    assert d.verdict == "qc_violated"
    ok("criterion 09 composed modulus blows up; dilatation verdict qc_violated")


def test_criterion_10_doubling():
    for eps in (0.25, 0.5, 0.75, 1.0):
        got = doubling_constant(ModulusFunction.power(eps), 2.0)
        assert abs(got - 2.0 ** eps) <= 1e-10, eps
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    g = GluedMap(phi, n=2)
    radii = 2.0 ** np.arange(-10.0, -0.9)       # exact dyadic pairs
    prof = modulus_profile(g, 0, radii, norm="cone", count=256, seed=0)
    assert doubling_probe(prof, 2.0) <= doubling_constant(phi, 2.0) + 1e-12
    ok("criterion 10 doubling constants")


def test_criterion_11_averaging_inequality():
    kernels = [ModulusFunction.power(0.5, n=2),
               ModulusFunction.iterlog(depth=1, alpha=1.0, n=2),
               ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)]
    rng = np.random.default_rng(2024)
    for phi in kernels:
        r_c = measured_constants(phi).concavity_radius
        for _ in range(100):
            a, b = rng.uniform(-r_c / 2, r_c / 2, size=(2, 2))
            rep = averaging_lemma_check(phi.derivative, a, b,
                                        lower_integral=phi)
            assert rep.passed, (phi.describe(), a, b, rep.metadata)
        a = np.array([r_c / 3, 0.0])
        rep = averaging_lemma_check(phi.derivative, a, -a, lower_integral=phi)
        assert rep.passed
        defect = abs(rep.metadata["lhs"] - rep.metadata["rhs"])
        assert defect <= 1e-8 * max(1.0, abs(rep.metadata["rhs"]))
    ok("criterion 11 averaging inequality and equality case")


def test_criterion_12_cli_determinism(tmp_path):
    runs = [
        ["modulus", "--map", "glued:phi=iterlog:k=2,alpha=1,n=2",
         "--radii", "log:1e-6..0.5:8", "--count", "256", "--seed", "3",
         "--out", "csv"],
        ["energy", "--map", "cone:phi=power:eps=0.5,n=2", "--tol", "1e-7"],
        ["energy", "--map", "cone:phi=iterlog:k=1,alpha=1,n=2",
         "--method", "mc", "--integrand", "inverse", "--samples", "50000",
         "--seed", "42"],
        ["verify", "conditions", "--phi", "iterlog:k=2,alpha=1,n=2"],
        ["dilatation", "--map", "radial:power:eps=0.5",
         "--radii", "log:1e-6..0.5:6", "--count", "64", "--seed", "5"],
        ["eval", "--phi", "power:eps=0.5", "--points", "log:1e-4..1:6",
         "--out", "csv"],
    ]
    for i, args in enumerate(runs):
        a = tmp_path / f"run{i}a.out"
        b = tmp_path / f"run{i}b.out"
        assert cli_main(args + ["--output", str(a)]) == 0, args
        assert cli_main(args + ["--output", str(b)]) == 0, args
        assert a.read_bytes() == b.read_bytes(), args
    ok("criterion 12 byte-identical seeded CLI replay")
