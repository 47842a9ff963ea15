import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicone.deformations import (BracketError, ConeMap, DomainError, GluedMap,
                                 InverseView, RadialMap)
from bicone.geometry import (_directions, _horizontal_norm, cone_norm, euclid_norm,
                             kronecker_sequence, reflect, sample_cone_interior,
                             sample_cone_sphere)
from bicone.moduli import ModulusFunction, _plan_jet, measured_constants

import oracles


def family_grid():
    out = []
    for n in (2, 3):
        out += [(ModulusFunction.identity(n=n), n),
                (ModulusFunction.power(0.5, n=n), n),
                (ModulusFunction.iterlog(depth=1, alpha=1.0, n=n), n),
                (ModulusFunction.iterlog(depth=2, alpha=1.0, n=n), n),
                (ModulusFunction.iterlog(depth=3, alpha=1.0, n=n), n)]
    return out


def interior(n, count=2000, seed=0):
    return sample_cone_interior(count, n=n, seed=seed,
                                exclude_axis_margin=1e-9,
                                exclude_boundary_margin=1e-9).points


# -- forward map -----------------------------------------------------------

@pytest.mark.parametrize("phi,n", family_grid())
def test_vertical_stretch_structure(phi, n):
    m = ConeMap(phi, n=n)
    X = interior(n, 500)
    Y = m(X)
    # the horizontal part is untouched; only the height moves
    assert np.array_equal(Y[:, :-1], X[:, :-1])
    assert np.all(Y[:, -1] >= X[:, -1] * (1 - 1e-12))
    # base and slant boundary are fixed
    base = np.zeros((5, n))
    base[:, 0] = np.linspace(0.0, 0.99, 5)
    assert np.array_equal(m(base), base)


@pytest.mark.parametrize("phi,n", family_grid())
def test_pointwise_sandwich_both_norms(phi, n):
    m = ConeMap(phi, n=n)
    X = interior(n, 2000)
    Y = m(X)
    cx, cy = cone_norm(X), cone_norm(Y)
    assert np.all(cy >= cx * (1 - 1e-12))
    assert np.all(cy <= phi(cx) * (1 + 1e-12))
    ex, ey = euclid_norm(X), euclid_norm(Y)
    assert np.all(ey >= ex * (1 - 1e-12))
    assert np.all(ey <= phi(ex) * (1 + 1e-12))


def test_domain_is_enforced():
    m = ConeMap(ModulusFunction.power(0.5), n=2)
    with pytest.raises(DomainError):
        m(np.array([0.2, -0.2]))
    with pytest.raises(DomainError):
        m(np.array([0.9, 0.3]))
    with pytest.raises(DomainError):
        m.inverse(np.array([0.2, -0.1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda: GluedMap(ModulusFunction.power(0.5)),
    lambda: RadialMap("power", eps=0.5, n=2),
    lambda: RadialMap("logexample", beta=1.0, n=2)], ids=["glued", "radial-power",
                                                         "radial-logexample"])
def test_a_non_finite_row_is_outside_every_map(build, bad):
    # a NaN row went to the origin (radial) or through as "outside" (glued)
    m = build()
    for col in (0, 1):
        Y = np.array([[0.1, 0.2], [0.3, 0.4]])
        Y[1, col] = bad
        for evaluate in (m, m.inverse, m.inverted()):
            with pytest.raises(DomainError, match="non-finite"):
                evaluate(Y)


def test_the_glued_map_keeps_a_huge_finite_row_outside():
    # a row far outside the double cone maps to itself
    g = GluedMap(ModulusFunction.power(0.5))
    X = np.array([[1e200, 0.0], [0.1, 0.2]])
    with np.errstate(over="ignore"):
        assert np.array_equal(g(X)[0], X[0]) and np.array_equal(g.inverse(X)[0], X[0])


@pytest.mark.parametrize("build", [ConeMap, GluedMap])
def test_a_map_takes_its_modulus_dimension(build):
    # (C3) of this phi holds at n = 3, but its energy diverges at n = 2
    phi = ModulusFunction.iterlog(depth=1, alpha=0.4, n=3)
    assert build(phi).n == build(phi, n=3).n == 3
    with pytest.raises(ValueError, match="dimension is its modulus's"):
        build(phi, n=2)


# -- inversion -------------------------------------------------------------

@pytest.mark.parametrize("phi,n", family_grid())
def test_round_trip_interior(phi, n):
    m = ConeMap(phi, n=n)
    X = interior(n, 2000)
    err = cone_norm(m.inverse(m(X)) - X)
    assert np.max(err) <= 1e-9
    err2 = cone_norm(m(m.inverse(X)) - X)
    assert np.max(err2) <= 1e-9


def test_inverse_height_equation_residual():
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    m = ConeMap(phi, n=2)
    Y = interior(2, 500, seed=3)
    X = m.inverse(Y)
    s = np.linalg.norm(X[:, :-1], axis=1) + X[:, -1]
    resid = X[:, -1] * phi(s) / s - Y[:, -1]
    assert np.max(np.abs(resid)) <= 1e-12


def test_bracket_error_for_inadmissible_modulus(below_identity):
    m = ConeMap(ModulusFunction.power(0.5), n=2)
    with pytest.raises(BracketError):
        m.inverse(np.array([[0.1, 0.4]]))


# -- relative precision of the inverse -------------------------------------

def upper_point(n, rho, tau):
    y = np.zeros(n)
    y[0], y[-1] = rho, tau
    return y


@pytest.mark.parametrize("phi,n", family_grid())
@pytest.mark.parametrize("tau", [1e-9, 1e-13, 1e-100, 1e-300])
def test_inverse_relative_residual_at_small_heights(phi, n, tau):
    X = ConeMap(phi, n=n).inverse(upper_point(n, 0.3, tau))
    s = np.linalg.norm(X[:-1]) + X[-1]
    assert abs(X[-1] * phi(s) / s - tau) <= 1e-12 * tau


@given(k=st.integers(1, 3), n=st.integers(2, 3),
       exponent=st.floats(-300.0, 0.0), frac=st.floats(1e-3, 0.99))
def test_inverse_relative_round_trip_property(k, n, exponent, frac):
    # |y| >= 1e-3 (1 - tau) keeps every preimage representable in float64
    m = ConeMap(ModulusFunction.iterlog(depth=k, alpha=1.0, n=n), n=n)
    tau = 10.0 ** exponent
    y = upper_point(n, frac * (1.0 - tau), tau)
    back = m(m.inverse(y))
    assert np.array_equal(back[:-1], y[:-1])
    assert abs(back[-1] - tau) <= 1e-12 * tau


@given(k=st.integers(1, 3), n=st.integers(2, 3),
       exponent=st.floats(-307.0, 0.0), frac_exponent=st.floats(-300.0, -0.0044))
def test_forward_then_inverse_relative_round_trip_property(k, n, exponent, frac_exponent):
    # The solve holds the height equation to a relative 4 eps; its slope in
    # log T is 1 - (T/s)(1 - g(s)) >= g(s), so T itself is good to 1e-12/g(s).
    # |x| runs down to 1e-300 (1 - t), where the plain norm's square underflows.
    phi = ModulusFunction.iterlog(depth=k, alpha=1.0, n=n)
    m = ConeMap(phi, n=n)
    t = 10.0 ** exponent
    x = upper_point(n, 10.0 ** frac_exponent * (1.0 - t), t)
    back = m.inverse(m(x))
    assert np.array_equal(back[:-1], x[:-1])
    assert abs(back[-1] - t) <= 1e-12 / phi.elasticity(x[0] + t) * t


def test_recorded_tiny_point_keeps_its_horizontal_norm():
    # n = 2 and x = 2.2e-265, t = 1.25e-304: the square of x underflows, so
    # the plain norm read the point as axial (s = t, image height 8.8e-3)
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    m = ConeMap(phi, n=2)
    x = np.array([2.2e-265, 1.25e-304])
    assert cone_norm(x) == 2.2e-265
    assert m(x)[-1] == pytest.approx(1.25e-304 / 2.2e-265 * phi(2.2e-265), rel=1e-14)
    jd = m.jacobian(x)
    assert np.isfinite(jd.hs_norm) and jd.det > 0.0
    assert np.all(np.isfinite(jd.matrix))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rho,tau", [(0.3, 1e-9), (0.3, 1e-100), (0.3, 1e-300),
                                     (1e-4, 1e-6), (0.05, 0.5), (0.0, 0.2)])
def test_inverse_matches_mpmath_height_equation(k, rho, tau):
    n = 2
    phi = ModulusFunction.iterlog(depth=k, alpha=1.0, n=n)
    T = ConeMap(phi, n=n).inverse(upper_point(n, rho, tau))[-1]
    with mp.workdps(50):
        def F(u):
            sigma = mp.exp(u) + rho
            return u + mp.log(oracles.modulus(phi, sigma) / sigma) - mp.log(tau)

        root = mp.findroot(F, (mp.log(mp.mpf(2) ** -1074), mp.log(tau)),
                           solver="anderson")
        slope = mp.diff(F, root)
        # the float answer solves the equation to a relative 1e-12...
        assert abs(F(mp.log(T))) <= 1e-12
        # ...and so sits within 1e-12 / F' of the true preimage
        assert abs(mp.mpf(T) / mp.exp(root) - 1) <= 1e-12 / slope


@pytest.mark.parametrize("phi", [ModulusFunction.iterlog(1, 1.0, n=2),
                                 ModulusFunction.iterlog(2, 1.0, n=2),
                                 ModulusFunction.iterlog(3, 0.7, n=3),
                                 ModulusFunction.power(0.3, n=3)], ids=lambda p: p.describe())
def test_inverse_heights_match_the_preimage_oracle(phi):
    # Preimages with |x| and t log-uniform in [1e-300, 0.3], mapped forward
    # and back.  The jet forms F as (log phi(sigma) + v) + u - log tau with
    # v = -log sigma and u = log T, which near the float floor nearly cancel:
    # about eps (1 + |u| + |v|) of F is rounding, and the slope
    # F' = 1 - w (1 - g) magnifies it into T (ROADMAP item 11).  Each height
    # is within 1e-11 of the 50-digit root, or within twice that
    # conditioning where it is larger; the worst seen is 0.67 of it.
    eps, count = np.finfo(float).eps, 100
    rng = np.random.default_rng(11)
    X = np.zeros((count, phi.n))
    X[:, 0], X[:, -1] = 10.0 ** rng.uniform(-300.0, math.log10(0.3), (2, count))
    m = ConeMap(phi)
    Y = m(X)
    checked = 0
    for rho, tau, T in zip(Y[:, 0], Y[:, -1], m.inverse(Y)[:, -1]):
        exact = oracles.cone_preimage(phi, rho, tau)
        if exact <= 1e-290:
            continue
        sigma = float(exact) + rho
        slope = 1.0 - float(exact) / sigma * (1.0 - phi.elasticity(sigma))
        conditioning = eps * (1.0 + abs(math.log(exact)) + abs(math.log(sigma))) / slope
        assert abs(T / exact - 1) <= max(1e-11, 2.0 * conditioning), (rho, tau)
        checked += 1
    assert checked >= count // 2


# -- jacobian --------------------------------------------------------------

@pytest.mark.parametrize("phi,n", family_grid())
def test_jacobian_matches_finite_differences(phi, n):
    m = ConeMap(phi, n=n)
    X = interior(n, 100, seed=1)
    jd = m.jacobian(X)
    step = 1e-6
    for i, x in enumerate(X[:20]):
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            fd[:, j] = (m(x + e) - m(x - e)) / (2 * step)
        assert np.max(np.abs(jd.matrix[i] - fd)) <= 1e-5 * max(1.0,
                                                               np.max(np.abs(fd)))


@pytest.mark.parametrize("phi,n", family_grid())
def test_jacobian_scalar_reductions_match_matrix(phi, n):
    m = ConeMap(phi, n=n)
    X = interior(n, 400, seed=2)
    jd = m.jacobian(X)
    det = np.linalg.det(jd.matrix)
    assert np.max(np.abs(jd.det / det - 1.0)) <= 1e-10
    hs = np.sqrt(np.sum(jd.matrix ** 2, axis=(1, 2)))
    assert np.max(np.abs(jd.hs_norm / hs - 1.0)) <= 1e-10
    inv = np.linalg.inv(jd.matrix)
    inv_hs = np.sqrt(np.sum(inv ** 2, axis=(1, 2)))
    assert np.max(np.abs(jd.inv_hs_norm / inv_hs - 1.0)) <= 1e-10
    K = inv_hs ** n * det
    assert np.max(np.abs(jd.inner_distortion / K - 1.0)) <= 1e-10


@pytest.mark.parametrize("phi,n", family_grid())
def test_determinant_bounds(phi, n):
    m = ConeMap(phi, n=n)
    X = interior(n, 2000, seed=4)
    jd = m.jacobian(X)
    M = measured_constants(phi).M
    lam = phi.chord_slope(cone_norm(X))
    assert np.all(jd.det >= 1.0 / M - 1e-12)
    assert np.all(jd.det <= lam + 1e-12)


def test_jacobian_builds_its_matrix_on_first_access():
    m = ConeMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=3), n=3)
    X = interior(3, 50, seed=6)
    jd = m.jacobian(X)
    assert "matrix" not in vars(jd)        # the norms alone build no matrix
    assert jd.matrix.shape == (50, 3, 3) and jd.matrix is jd.matrix
    one = m.jacobian(X[7])
    assert np.array_equal(one.matrix, jd.matrix[7])
    assert one.inv_hs_norm == jd.inv_hs_norm[7]


def test_jacobian_derives_only_what_is_read():
    m = ConeMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=3), n=3)
    jd = m.jacobian(interior(3, 50, seed=6))
    inv = jd.inv_hs_norm
    assert not {"hs_norm", "inner_distortion", "matrix"} & set(vars(jd))
    assert jd.inv_hs_norm is inv
    assert np.array_equal(jd.inner_distortion, inv ** 3 * jd.det)


# (x, t) rows: where only D^2 overflows, where both squares do, and ordinary
# ones.  A finiteness test on |DH^-1| alone misses the first kind: there
# (1 + (t lambda')^2) / D^2 underflows to 0 and |DH^-1| reads sqrt(n - 1).
_JACOBIAN_ROWS = {
    (2, 2): ([[5e-157, 5e-160]], [[1e-200, 1e-201]], [[0.3, 0.2], [1e-6, 1e-3], [0.5, 1e-9]]),
    (1, 3): ([[0.6e-158, 0.8e-158, 1e-161]], [[1e-200, 0.0, 1e-201]],
             [[0.1, 0.2, 0.3], [1e-8, 2e-8, 1e-5], [0.3, -0.4, 1e-7]]),
}


@pytest.mark.parametrize("k,n", sorted(_JACOBIAN_ROWS))
def test_jacobian_norms_match_a_40_digit_oracle(k, n):
    phi = ModulusFunction.iterlog(depth=k, alpha=1.0, n=n)
    m = ConeMap(phi, n=n)
    det_only, both, ordinary = (np.array(rows) for rows in _JACOBIAN_ROWS[(k, n)])
    X = np.concatenate([det_only, both, ordinary])
    jd = m.jacobian(X)
    with np.errstate(over="ignore"):
        det2, tl2 = jd.det ** 2, jd.t_lam_prime ** 2
    assert np.isinf(det2[0]) and np.isfinite(tl2[0])          # the rows are
    assert np.isinf(det2[1]) and np.isinf(tl2[1])             # of the kinds
    assert np.all(np.isfinite(det2[2:]) & np.isfinite(tl2[2:]))  # named
    with mp.workdps(40):
        for i, x in enumerate(X):
            one = m.jacobian(x)
            for got, want in zip(
                    [(jd.hs_norm[i], one.hs_norm), (jd.inv_hs_norm[i], one.inv_hs_norm),
                     (jd.inner_distortion[i], one.inner_distortion)],
                    oracles.jacobian_norms(phi, x)):
                for value in got:
                    assert abs(mp.mpf(value) / want - 1) <= 1e-13


def test_jacobian_rejects_degenerate_points():
    m = ConeMap(ModulusFunction.power(0.5), n=2)
    with pytest.raises(DomainError):
        m.jacobian(np.array([[0.0, 0.5]]))      # on the vertical axis
    with pytest.raises(DomainError):
        m.jacobian(np.array([[0.5, 0.0]]))      # on the base


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = ModulusFunction._kernel

    def counted(self, *args, **kwargs):
        calls.append(args)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(ModulusFunction, "_kernel", counted)
    return calls


@pytest.mark.parametrize("phi,n", family_grid())
def test_jacobian_makes_one_kernel_call_with_the_same_bits(phi, n, kernel_calls):
    X = interior(n, 3000, seed=9)
    X[:3, 0] = [1e-200, 1e-270, 3e-300]        # the hypot branch of the norms
    X[:3, 1:-1] = 0.0
    jd = ConeMap(phi, n=n).jacobian(X)
    assert len(kernel_calls) == 1
    (s,), = kernel_calls
    phi_s, g = phi._kernel(s)
    lam, der = phi.chord_slope(s), phi.derivative(s)
    # lambda and phi' carry the bits of the public methods, and so does det
    assert np.array_equal(phi_s / s, lam)
    assert np.array_equal(g * phi_s / s, der)
    w = X[:, -1] / s
    assert np.array_equal(jd.det, (1.0 - w) * lam + w * der)
    one = ConeMap(phi, n=n).jacobian(X[5])
    assert one.inner_distortion == jd.inner_distortion[5]


# -- glued whole-space map -------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_glued_map_identity_regions(n):
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=n), n=n)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, n))
    X = X[cone_norm(X) > 1.0 + 1e-9]
    assert np.array_equal(g(X), X)
    base = np.zeros((100, n))
    base[:, 0] = np.linspace(-0.99, 0.99, 100)
    assert np.array_equal(g(base), base)
    assert np.array_equal(g(np.zeros(n)), np.zeros(n))


@pytest.mark.parametrize("n", [2, 3])
def test_glued_axis_formulas(n):
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=n)
    g = GluedMap(phi, n=n)
    r = np.geomspace(1e-2, 0.99, 20)
    up = np.zeros((r.size, n)); up[:, -1] = r
    assert np.max(np.abs(g(up)[:, -1] - phi(r))) <= 1e-13
    # inverse branch: stay above phi(tiniest subnormal), below which no
    # float64 preimage exists
    r2 = np.geomspace(float(phi(1e-300)) * 1.01, 0.99, 20)
    down = np.zeros((r2.size, n)); down[:, -1] = -r2
    low = g(down)
    assert np.max(np.abs(phi(-low[:, -1]) - r2)) <= 1e-11
    # reflection conjugacy: g on the lower half is r o g^-1 o r
    Y = interior(n, 300, seed=5) * 0.9
    assert np.max(cone_norm(
        g(reflect(Y)) - reflect(g.inverse(Y)))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_glued_round_trip_whole_space(n):
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=n), n=n)
    rng = np.random.default_rng(1)
    X = rng.uniform(-1.2, 1.2, size=(800, n))
    keep = np.abs(cone_norm(X) - 1.0) > 1e-3    # stay off the glue boundary
    X = X[keep]
    err = cone_norm(g.inverse(g(X)) - X)
    assert np.max(err) <= 1e-9
    err2 = cone_norm(g(g.inverse(X)) - X)
    assert np.max(err2) <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_glued_lower_branch_relative_round_trip(n):
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=n), n=n)
    y = upper_point(n, 0.3, -1e-10)
    for back in (g(g.inverse(y)), g.inverse(g(y))):
        assert np.array_equal(back[:-1], y[:-1])
        assert abs(back[-1] / y[-1] - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_glued_map_takes_one_norm_per_call_and_branch(n, monkeypatch):
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=n), n=n)
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.2, 1.2, size=(2000, n)) * 10.0 ** rng.uniform(-300, 0, (2000, 1))
    X[:8] = 0.0
    X[1, -1], X[2, 0], X[3, 0] = 0.5, 0.5, 1.0       # axis, base, slant corner
    X[4:8, 0] = 0.3, 0.3, 1.5, 1.5                  # heights +0.0 and -0.0, inside
    X[[5, 7], -1] = -0.0                            # and outside the double cone
    t = X[:, -1]
    up, lo = t >= 0, t < 0
    inside = cone_norm(X) <= 1.0
    assert (inside & up).sum() > 100 and (inside & lo).sum() > 100
    # the glued map takes |x| of all rows to split them (in cone_norm), and
    # each branch (the public cone map or inverse) takes it again of its own
    # rows only; the inverse is the map on the mirrored rows, so its cone map
    # takes the rows with t <= 0 and its cone inverse those with t > 0.
    # Images keep every bit of the branch composition, signed zeros included.
    expected = {}
    for name, upper, lower in (("map", g.cone, g.cone.inverse),
                               ("inverse", g.cone.inverse, g.cone)):
        ref = X.copy()
        ref[inside & up] = upper(X[inside & up])
        ref[inside & lo] = reflect(lower(reflect(X[inside & lo])))
        expected[name] = ref
    calls = []

    def counted(arr):
        calls.append(arr.shape)
        return _horizontal_norm(arr)

    monkeypatch.setattr("bicone.deformations._horizontal_norm", counted)
    monkeypatch.setattr("bicone.geometry._horizontal_norm", counted)
    assert g(X).tobytes() == expected["map"].tobytes()
    assert g.inverse(X).tobytes() == expected["inverse"].tobytes()

    def split(upper):
        return [X.shape, ((inside & upper).sum(), n), ((inside & ~upper).sum(), n)]

    assert calls == split(t >= 0) + split(t <= 0)


def test_glued_continuity_across_slant():
    g = GluedMap(ModulusFunction.iterlog(depth=2, alpha=1.0, n=2), n=2)
    x = np.linspace(0.05, 0.95, 30)
    inside = np.stack([x, (1 - x) * (1 - 1e-12)], axis=1)
    outside = np.stack([x, (1 - x) * (1 + 1e-12)], axis=1)
    gap = cone_norm(g(inside) - g(outside))
    assert np.max(gap) <= 1e-10


# -- radial reference maps -------------------------------------------------

def test_radial_power_closed_forms():
    h = RadialMap("power", eps=0.5, n=2)
    X = np.array([[0.25, 0.0], [0.0, -0.04], [0.09, 0.12]])
    Y = h(X)
    assert np.max(np.abs(euclid_norm(Y) - euclid_norm(X) ** 0.5)) <= 1e-14
    assert np.max(np.abs(h.inverse(Y) - X)) <= 1e-14
    # direction preserved
    assert np.allclose(Y[2] / euclid_norm(Y[2]), X[2] / euclid_norm(X[2]))


def test_radial_logexample_monotone_and_invertible():
    h = RadialMap("logexample", beta=1.0, n=2)
    rho = np.geomspace(1e-8, 0.999, 200)
    st = h.stress(rho)
    assert np.all(np.diff(st) > 0)
    assert np.all(st >= rho)            # squeezing toward 0 is the inverse's job
    X = np.stack([rho / np.sqrt(2), rho / np.sqrt(2)], axis=1)
    err = euclid_norm(h.inverse(h(X)) - X)
    assert np.max(err) <= 1e-11
    assert np.array_equal(h(np.array([[1.5, 0.0]])), np.array([[1.5, 0.0]]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind,kw", [("power", {"eps": 0.5}), ("logexample", {"beta": 1.0})])
def test_radial_maps_keep_relative_precision_on_tiny_rows(kind, kw, n):
    # |x| log-uniform in [1e-300, 1e-150], where the squares of the
    # coordinates underflow: the image has norm stress(|x|) and the direction
    # of x, and the inverse's image maps back onto it
    h = RadialMap(kind, n=n, **kw)
    rho = 10.0 ** (-150.0 - 150.0 * kronecker_sequence(400, 1, seed=7)[:, 0])
    X = _directions(kronecker_sequence(400, n, seed=8)) * rho[:, None]
    Y = h(X)
    assert np.max(np.abs(euclid_norm(Y) / h.stress(rho) - 1.0)) <= 1e-12
    assert np.max(euclid_norm(Y / euclid_norm(Y)[:, None] - X / rho[:, None])) <= 1e-12
    back = h.inverse(Y)
    assert np.max(euclid_norm(h(back) - Y) / euclid_norm(Y)) <= 1e-12
    if kind == "power":         # elasticity 1/2: the preimage is as exact
        assert np.max(euclid_norm(back - X) / rho) <= 1e-12


def test_the_logexample_image_of_a_tiny_row_is_its_stress():
    h = RadialMap("logexample", beta=1.0)
    assert h([1e-200, 0.0])[0] == h.stress(1e-200)


def test_the_power_map_takes_a_row_whose_squares_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert RadialMap("power", eps=0.5)([1e200, 0.0]).tolist() == [1e100, 0.0]


def test_a_finite_row_whose_cone_norm_overflows_lies_outside_the_cone():
    # |x| + |t| = 3e308 overflows to inf, which compares as outside
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=2)
    row = np.array([1.5e308, 1.5e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cone_norm(row[None]).tolist() == [math.inf]
        assert GluedMap(phi)(row).tolist() == row.tolist()
        assert GluedMap(phi).inverse(row).tolist() == row.tolist()
        with pytest.raises(DomainError):
            ConeMap(phi)(row)


@pytest.mark.parametrize("n", [2, 3])
def test_radial_logexample_inverse_relative_at_small_values(n):
    h = RadialMap("logexample", beta=1.0, n=n)
    # below the stress of the smallest normal float the preimage is subnormal
    floor = float(h.stress(np.finfo(float).tiny))
    v = np.geomspace(floor * 1.01, 0.5, 25)
    assert np.max(np.abs(h.stress(h.inverse_stress(v)) / v - 1.0)) <= 1e-12


@pytest.mark.parametrize("beta", [0.6, 1.0, 2.0])
def test_logexample_inverse_stress_matches_the_preimage_oracle(beta):
    # Targets log-uniform from stress(1e-300) to 1; the solve is
    # ModulusFunction.invert's on the stress, so its preimages meet the same
    # bound: within 1e-11 of the 50-digit root, or within twice the
    # conditioning eps (1 + |log rho|) / g where that is larger.  The worst
    # seen is 0.01 of the bound.
    eps = np.finfo(float).eps
    h = RadialMap("logexample", beta=beta, n=2)
    v = np.exp(np.random.default_rng(13).uniform(math.log(h.stress(1e-300)), 0.0, 25))
    for target, rho in zip(v, h.inverse_stress(v)):
        exact, g = oracles.log_preimage(lambda L: oracles.radial_stress(h, L), target)
        conditioning = eps * (1.0 + abs(math.log(exact))) / g
        assert abs(rho / exact - 1) <= max(1e-11, 2.0 * conditioning), target


# u from 0 to 1e5; rho = e^-u is below the float floor (u = 745.13) from
# u = 746 on, and the kernel never forms it
_STRESS_U = np.concatenate([[0.0, 1e-300, 745.0, 746.0, 1e5],
                            np.geomspace(1e-6, 1e5, 40)])


@pytest.mark.parametrize("beta", ["1/n + 0.1", 1.0, 2.0, 5.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_logexample_kernel_form_matches_the_oracle(n, beta):
    # A = -log stress sums two factors: (1/n) log(1 + L) and
    # beta log(log(e + L)).  Each log is good to eps (1 + |its value|), and
    # its coefficient scales that, so A is good to about
    # eps (1 + beta + A); exp(-A) makes that a relative error of the stress.
    # g sums two positive terms of a few roundings each.  2 eps (1 + beta +
    # |log stress|) and 2 eps g cover both; the worst seen is 0.6 and 1.2
    # in units of eps (1 + beta + |log stress|) and eps g.
    eps = np.finfo(float).eps
    beta = 1 / n + 0.1 if beta == "1/n + 0.1" else beta
    h = RadialMap("logexample", beta=beta, n=n)
    A, got_g = _plan_jet(h._plan, _STRESS_U, 1)
    with mp.workdps(30):
        for u, value, g in zip(_STRESS_U, np.exp(-A), got_g):
            want, want_g = oracles.radial_stress(h, u)
            assert abs(value - want) <= 2 * eps * (1 + beta + abs(mp.log(want))) * want, u
            assert abs(g - want_g) <= 2 * eps * want_g, u
    rho = np.geomspace(1e-300, 0.5, 7)                  # stress reads the kernel
    assert np.array_equal(h.stress(rho), np.exp(-_plan_jet(h._plan, -np.log(rho), 0)[0]))


@pytest.mark.parametrize("beta", ["1/n + 1e-3", 2.0, 10.0])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_the_logexample_curvature_bound_is_the_size_of_h_at_0(n, beta):
    # the inverse stress stops with sup |h| of its two-factor plan, taken at L = 0
    h = RadialMap("logexample", beta=1 / n + 1e-3 if beta == "1/n + 1e-3" else beta, n=n)
    L = np.concatenate([[0.0], np.geomspace(1e-8, 1e300, 400)])
    with np.errstate(over="ignore"):                # (1 + L)^2 past 1e154
        curvature = _plan_jet(h._plan, L, 2)[2]
    assert h._curvature == abs(curvature[0])
    assert np.all(np.abs(curvature) <= h._curvature)
    with mp.workdps(30):
        want = abs(mp.diff(lambda u: oracles.radial_stress(h, u)[1], 0))
    assert abs(h._curvature - want) <= 1e-14 * want


@pytest.mark.parametrize("beta", [2.0, 5.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_logexample_round_trip_below_the_identity(n, beta):
    # For beta > e (1 - 1/n) the stress is below the identity near rho = 1,
    # so the solve's bracket top must be rho = 1, not rho = v.  The stress and
    # the solve's own evaluation each round log stress by up to
    # 2 eps (1 + beta + |log stress|) (the oracle test above); g = d log
    # stress / d log rho turns that into an error of log rho, which is the
    # relative error of rho.  The worst seen is 0.3 of the bound.
    eps = np.finfo(float).eps
    h = RadialMap("logexample", beta=beta, n=n)
    rho = np.geomspace(1e-300, 0.999, 2000)
    v = h.stress(rho)
    assert (v[-1] < rho[-1]) == (beta > math.e * (1 - 1 / n))
    _, g = _plan_jet(h._plan, -np.log(rho), 1)
    bound = 4 * eps * (1 + beta - np.log(v)) / g
    assert np.all(np.abs(h.inverse_stress(v) / rho - 1) <= bound)


def test_radial_validation():
    with pytest.raises(ValueError):
        RadialMap("power", eps=1.5, n=2)
    with pytest.raises(ValueError):
        RadialMap("spiral", eps=0.5, n=2)
    with pytest.raises(ValueError):
        RadialMap("logexample", beta=0.3, n=2)   # needs beta > 1/n


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_logexample_needs_a_finite_beta(beta):
    # NaN passed the old beta <= 1/n check and mapped points to NaN; inf
    # mapped (0.3, 0.4) to the origin
    with pytest.raises(ValueError, match="needs a finite beta > 1/n"):
        RadialMap("logexample", beta=beta, n=2)


@pytest.mark.parametrize("kind,own,stray", [
    ("power", {"eps": 0.5}, {"beta": 3.0}),
    ("logexample", {"beta": 1.0}, {"eps": 0.5}),
    ("logexample", {}, {"eps": 0.5})],
    ids=["power-beta", "logexample-eps", "default-beta-eps"])
def test_a_parameter_of_another_radial_kind_is_rejected(kind, own, stray):
    # both used to be dropped without a word
    RadialMap(kind, n=2, **own)
    with pytest.raises(ValueError, match=f"the {kind} kind takes no {next(iter(stray))}"):
        RadialMap(kind, n=2, **own, **stray)


@pytest.mark.parametrize("kind,kw", [("power", {"eps": 0.5}), ("logexample", {"beta": 1.0})])
@pytest.mark.parametrize("n", [1, 0, -2, 2.0, 2.5, "3", None])
def test_radial_map_needs_an_integer_dimension_of_two_or_more(kind, kw, n):
    with pytest.raises(ValueError, match="dimension n must be an integer >= 2"):
        RadialMap(kind, n=n, **kw)
    assert RadialMap(kind, n=3, **kw).n == 3


def test_every_dimension_check_takes_a_numpy_integer():
    n = np.int64(3)
    phi = ModulusFunction.iterlog(depth=2, alpha=1.0, n=n)
    assert phi == ModulusFunction.iterlog(depth=2, alpha=1.0, n=3)
    assert type(phi.n) is int
    radial = RadialMap("power", eps=0.5, n=n)
    assert type(radial.n) is int
    X = np.array([[0.1, 0.2, 0.3]])
    assert np.array_equal(radial(X), RadialMap("power", eps=0.5, n=3)(X))
    assert np.array_equal(sample_cone_sphere(0.5, n=n, count=8),
                          sample_cone_sphere(0.5, n=3, count=8))
    assert np.array_equal(sample_cone_interior(8, n=n).points,
                          sample_cone_interior(8, n=3).points)


def test_inverse_view_swaps_roles():
    g = GluedMap(ModulusFunction.power(0.5, n=2), n=2)
    f = g.inverted()
    assert isinstance(f, InverseView)
    X = np.array([[0.1, 0.2], [0.0, -0.3]])
    assert np.array_equal(f(X), g.inverse(X))
    assert np.array_equal(f.inverse(X), g(X))
    assert f.n == g.n and f.domain == g.domain
