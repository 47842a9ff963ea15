import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicone import _roots, geometry
from bicone.geometry import (cone_norm, euclid_norm, kronecker_sequence,
                             reflect, sample_cone_interior, sample_cone_sphere,
                             sphere_surface_area, unit_ball_volume)

coords = st.floats(-2.0, 2.0, allow_nan=False)


def test_horizontal_norm_keeps_ordinary_bits_and_rescales_tiny_rows():
    X = sample_cone_interior(2000, n=3, seed=4).points
    assert np.array_equal(geometry._horizontal_norm(X),
                          np.linalg.norm(X[:, :-1], axis=1))
    tiny = np.array([[math.ldexp(3.0, -700), math.ldexp(4.0, -700), 0.5],
                     [0.0, 0.0, 1.0], [5e-324, 0.0, 0.0]])
    assert geometry._horizontal_norm(tiny).tolist() == [math.ldexp(5.0, -700), 0.0, 5e-324]
    assert cone_norm(np.array([2.2e-265, 1.25e-304])) == 2.2e-265


@given(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=2, max_size=6),
       st.integers(-1070, 1020))
def test_point_norms_keep_their_precision_at_every_scale(row, k):
    # 2^k x is exact until its coordinates leave the normal range; the norms
    # of tiny rows and of rows whose squares overflow still follow 2^k to 4 ulp
    x = np.array(row)
    scaled = np.ldexp(x, k)
    # _scaled_norm of a 1-D row is that row's value in a stack
    for norm in (euclid_norm, cone_norm, geometry._scaled_norm):
        want = math.ldexp(float(norm(x)), k)
        assert abs(float(norm(scaled)) - want) <= 4.0 * np.spacing(want)
    assert geometry._scaled_norm(scaled) == geometry._scaled_norm(scaled[None])[0]
    with np.errstate(over="ignore"):
        plain = float(geometry._row_norm(scaled))
    if 1e-150 <= plain <= 1e150:            # ordinary scale: _row_norm's bits
        assert euclid_norm(scaled) == plain
        assert geometry._horizontal_norm(scaled[None]) == geometry._row_norm(scaled[:-1])


def _scaled_rows(cols, scale):
    rng = np.random.default_rng(cols)
    return scale * rng.standard_normal((257, cols)) * np.exp(rng.uniform(-5, 5, (257, cols)))


def _coordinate_order_norm(row):
    """The Euclidean norm of one row of Python floats, squares added in order."""
    acc = 0.0
    for v in row:
        acc += v * v
    return math.sqrt(acc)


@pytest.mark.parametrize("cols", range(1, 13))
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-310, 1e150])
def test_row_norm_has_the_bits_of_numpy(cols, scale):
    # up to 7 entries numpy adds the squares in coordinate order too; from 8
    # on it sums pairwise, and two orders of k non-negative terms give sums
    # within 2 (k - 1) eps of each other, so the roots are a few ulps apart
    x = _scaled_rows(cols, scale)
    for rows in (x, x[0], x.reshape(257, 1, cols), x[:, ::-1]):
        got, ref = geometry._row_norm(rows), np.linalg.norm(rows, axis=-1)
        if cols < 8:
            assert np.array_equal(got, ref)
        else:
            np.testing.assert_array_max_ulp(got, ref, maxulp=2 * cols)


@pytest.mark.parametrize("cols", range(1, 13))
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-310, 1e150])
def test_row_norm_adds_the_squares_in_coordinate_order(cols, scale):
    # at every width, for a stack, a lone row and a strided view alike
    x = _scaled_rows(cols, scale)
    for rows in (x, x[:, ::-1]):
        want = [_coordinate_order_norm(row) for row in rows.tolist()]
        assert geometry._row_norm(rows).tolist() == want
        assert [float(geometry._row_norm(row)) for row in rows] == want
        assert geometry._row_norm(rows.reshape(257, 1, cols)).ravel().tolist() == want
        assert geometry._row_norm(rows.T.copy().T).tolist() == want
    assert geometry._row_norm(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("cols", range(1, 13))
def test_offset_row_norm_has_the_bits_of_the_built_points(cols):
    rng = np.random.default_rng(cols)
    c, d = rng.standard_normal((2, 5, cols))
    t = rng.uniform(-1.0, 1.0, (5, 6, 3))
    points = c[:, None, None] + t[..., None] * d[:, None, None]
    assert np.array_equal(geometry._offset_row_norm(c, d, t),
                          geometry._row_norm(points))


def test_cone_norm_oracles():
    assert cone_norm(np.array([0.6, 0.8, 0.0])) == pytest.approx(1.0, abs=1e-15)
    assert cone_norm(np.array([0.0, 0.0, 0.5])) == 0.5
    assert cone_norm(np.array([0.3, -0.25])) == pytest.approx(0.55, abs=1e-15)


@given(st.lists(coords, min_size=2, max_size=5))
def test_norm_equivalence(point):
    X = np.array(point)
    e, c = euclid_norm(X), cone_norm(X)
    assert e <= c * (1 + 1e-12) + 1e-15
    assert c <= math.sqrt(2.0) * e * (1 + 1e-12) + 1e-15


def test_norm_equivalence_bulk():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100_000, 3))
    e, c = euclid_norm(X), cone_norm(X)
    assert np.all(e <= c + 1e-12)
    assert np.all(c <= math.sqrt(2.0) * e + 1e-12)


def test_reflect_involution():
    X = np.random.default_rng(1).normal(size=(50, 4))
    assert np.array_equal(reflect(reflect(X)), X)
    assert np.array_equal(reflect(X)[:, :-1], X[:, :-1])
    assert np.array_equal(reflect(X)[:, -1], -X[:, -1])


def test_volumes_and_areas():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert sphere_surface_area(0) == pytest.approx(2.0)
    assert sphere_surface_area(1) == pytest.approx(2.0 * math.pi)
    assert sphere_surface_area(2) == pytest.approx(4.0 * math.pi)


def test_kronecker_prefix_and_range():
    a = kronecker_sequence(100, dim=3, seed=7)
    b = kronecker_sequence(250, dim=3, seed=7)
    assert np.array_equal(a, b[:100])
    assert np.all((b >= 0.0) & (b < 1.0))
    assert not np.array_equal(a, kronecker_sequence(100, dim=3, seed=8))


@pytest.mark.parametrize("norm", ["cone", "euclid"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_sample_norms_exact(norm, n):
    r = 0.37
    pts = sample_cone_sphere(r, n=n, norm=norm, restrict="both", count=128, seed=2)
    vals = cone_norm(pts) if norm == "cone" else euclid_norm(pts)
    assert np.max(np.abs(vals - r)) <= 1e-13


def test_sphere_sample_includes_axis_poles():
    pts = sample_cone_sphere(0.2, n=3, norm="cone", restrict="both",
                             count=16, seed=0)
    up = np.array([0.0, 0.0, 0.2])
    assert any(np.array_equal(p, up) for p in pts)
    assert any(np.array_equal(p, -up) for p in pts)
    upper = sample_cone_sphere(0.2, n=3, norm="cone", restrict="upper",
                               count=16, seed=0)
    assert np.all(upper[:, -1] >= 0)


def test_interior_sample_margins_and_prefix():
    s = sample_cone_interior(500, n=3, seed=5, exclude_axis_margin=1e-3,
                             exclude_boundary_margin=1e-3)
    pts = s.points
    assert pts.shape == (500, 3)
    assert np.all((pts[:, -1] >= 0) & (cone_norm(pts) <= 1.0))
    rho = np.linalg.norm(pts[:, :-1], axis=1)
    assert np.all(rho >= 1e-3)
    assert np.all(pts[:, -1] >= 1e-3)
    assert np.all((1.0 - rho - pts[:, -1]) / math.sqrt(2.0) >= 1e-3 - 1e-12)
    assert 0 < s.acceptance_rate <= 1
    longer = sample_cone_interior(900, n=3, seed=5, exclude_axis_margin=1e-3,
                                  exclude_boundary_margin=1e-3)
    assert np.array_equal(pts, longer.points[:500])


def test_interior_sample_fills_cone_uniformly():
    # empirical volume of { t > 1/2 } within the upper cone is 2^-n
    s = sample_cone_interior(40_000, n=2, seed=1)
    frac = float(np.mean(s.points[:, -1] > 0.5))
    assert frac == pytest.approx(0.25, abs=0.01)


def _kronecker_mod(count, dim, seed=0, skip=0):
    """The additive recurrence reduced with % 1.0, the reference for the floor form."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alphas = np.array([phi ** -(j + 1) for j in range(dim)])
    offset = np.random.default_rng(seed).random(dim)
    idx = np.arange(skip + 1, skip + count + 1, dtype=float)[:, None]
    return (offset + idx * alphas) % 1.0


@pytest.mark.parametrize("dim,count,seed,skip", [
    (1, 500, 0, 0), (2, 4096, 3, 7), (3, 1000, 11, 10**6), (4, 2000, 5, 2**40),
    (1, 1, 0, 0), (4, 100_000, 5, 2**40), (5, 333, 2, 12)])
def test_kronecker_floor_reduction_keeps_the_modulo_bits(dim, count, seed, skip):
    # built column-major, with the bits of the row-major form
    got = kronecker_sequence(count, dim, seed=seed, skip=skip)
    assert got.tobytes() == _kronecker_mod(count, dim, seed=seed, skip=skip).tobytes()
    assert all(got[:, j].flags.c_contiguous for j in range(dim))


def test_inv_norm_cdf_of_an_array_equals_its_entries():
    # the central formula runs on every entry and the tails overwrite theirs;
    # each entry keeps the value of a one-point call, at the branch ends too
    ends = [0.02425, 1.0 - 0.02425, 0.0, 1.0, 1e-16, 1.0 - 1e-16, 1e-15, 0.5]
    grid = np.concatenate([ends, np.linspace(0.0, 1.0, 592)]).reshape(3, -1, order="F")
    got = geometry._inv_norm_cdf(grid)
    assert got.shape == grid.shape
    for index in np.ndindex(grid.shape):
        assert got[index].tobytes() == geometry._inv_norm_cdf(grid[index]).tobytes()


def _row_major_interior(count, n, seed, a, b):
    """The solid-cone sampler on C-ordered Kronecker rows, with every
    accepted point gathered and every batch stacked."""
    height = 1.0 - (1.0 + math.sqrt(2.0)) * b
    lost = (n * (height - a) * a ** (n - 1) + a ** n) / height ** n if height > a else 1.0
    accepted, got, attempts = [], 0, 0
    while got < count:
        batch = math.ceil((count - got) / (1.0 - lost))
        u = np.ascontiguousarray(_kronecker_mod(batch, n + 1, seed=seed, skip=attempts))
        attempts += batch
        t = b + height * (1.0 - (1.0 - u[:, n]) ** (1.0 / n))
        rho = (height - (t - b)) * u[:, n - 1] ** (1.0 / (n - 1))
        ok = rho >= a
        if n == 2:
            dirs = np.where(u[ok, :1] < 0.5, -1.0, 1.0)
        else:
            g = geometry._inv_norm_cdf(u[ok, : n - 1])
            dirs = g / np.linalg.norm(g, axis=1)[:, None]
        accepted.append(np.column_stack([dirs * rho[ok, None], t[ok]]))
        got += accepted[-1].shape[0]
    return np.vstack(accepted)[:count], attempts


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("a,b", [(0.0, 0.0), (1e-6, 1e-6), (0.05, 0.01)])
def test_interior_sample_has_the_bits_of_the_row_major_sampler(n, a, b):
    # margins 0 accept every point; the Monte-Carlo margins 1e-6 draw a longer
    # batch; a wide axis margin rejects points and continues the stream
    count = 5000
    s = sample_cone_interior(count, n=n, seed=6, exclude_axis_margin=a,
                             exclude_boundary_margin=b)
    ref, attempts = _row_major_interior(count, n, 6, a, b)
    assert s.points.flags.c_contiguous
    assert s.points.tobytes() == ref.tobytes()
    assert s.attempts == attempts
    if a == 0.05:
        assert s.acceptance_rate < 1.0


def test_a_sparse_batch_keeps_only_its_accepted_rows():
    # a = 0.95 at n = 2 keeps 1 row in 400: a view of the kept rows held the
    # whole 400000-row batch (6.4 MB) for 1000 points
    count, n, a = 1000, 2, 0.95
    s = sample_cone_interior(count, n=n, seed=6, exclude_axis_margin=a)
    assert s.acceptance_rate < 0.5
    assert s.points.base is None or s.points.base.nbytes <= 2 * s.points.nbytes
    ref, attempts = _row_major_interior(count, n, 6, a, 0.0)
    assert s.points.tobytes() == ref.tobytes() and s.attempts == attempts


def _interior_bits(count, n, seed, a, b):
    s = sample_cone_interior(count, n=n, seed=seed, exclude_axis_margin=a,
                             exclude_boundary_margin=b)
    return s.points.tobytes(), s.attempts, s.acceptance_rate


@pytest.mark.parametrize("block", [7, 4096, _roots._BLOCK])
def test_interior_sample_has_the_same_bits_in_any_block_size(monkeypatch, block):
    # counts on both sides of the block edges; margins that accept every point,
    # the Monte-Carlo margins, and a rejecting axis margin whose shortfall
    # loop draws a second batch (at seed 3, for some n at each block size)
    cases = [(count, n, a, b) for n in (2, 3, 4, 5)
             for count in (block - 1, block, block + 1, 2 * block + 3)
             for a, b in ((0.0, 0.0), (1e-6, 1e-6), (0.3, 0.0))]
    default = {case: _interior_bits(*case[:2], 3, *case[2:]) for case in cases}
    monkeypatch.setattr(_roots, "_BLOCK", block)
    batches = []
    stream = geometry.kronecker_sequence
    monkeypatch.setattr(geometry, "kronecker_sequence",
                        lambda *args, **kw: batches.append(args) or stream(*args, **kw))
    shortfalls = 0
    for (count, n, a, b), ref in default.items():
        batches.clear()
        got = _interior_bits(count, n, 3, a, b)
        assert got == ref
        points, attempts = _row_major_interior(count, n, 3, a, b)
        assert (got[0], got[1]) == (points.tobytes(), attempts)
        shortfalls += len(batches) > 1
    assert shortfalls > 0


@pytest.mark.parametrize("n", [9, 10])
def test_interior_sample_maps_each_batch_whole_from_n_9(monkeypatch, n):
    # the 8- and 15-point runs end in a block of one point; the direction
    # norms add each row's squares in coordinate order, so a lone row has the
    # bits it has in a stack and any block size gives the same points
    default = {(count, seed): _interior_bits(count, n, seed, 0.0, 0.0)
               for count in (8, 15) for seed in range(8)}
    monkeypatch.setattr(_roots, "_BLOCK", 7)
    for (count, seed), ref in default.items():
        assert _interior_bits(count, n, seed, 0.0, 0.0) == ref


@pytest.mark.parametrize("n", [9, 10, 12])
def test_samplers_keep_the_prefix_property_at_every_width(n):
    # a one-point run against the first point of a longer one, and a sphere
    # of one stream point (after its pole) against the first two of a longer
    for seed in range(40):
        short = sample_cone_interior(1, n=n, seed=seed).points
        assert short.tobytes() == sample_cone_interior(50, n=n, seed=seed).points[:1].tobytes()
        sphere = sample_cone_sphere(0.5, n=n, count=2, seed=seed)
        assert sphere.tobytes() == sample_cone_sphere(0.5, n=n, count=50, seed=seed)[:2].tobytes()


@pytest.mark.parametrize("n", [1, 0, 2.5])
def test_samplers_need_an_integer_dimension_of_two_or_more(n):
    with pytest.raises(ValueError, match="dimension n must be an integer >= 2"):
        sample_cone_interior(5, n=n)
    with pytest.raises(ValueError, match="dimension n must be an integer >= 2"):
        sample_cone_sphere(0.5, n=n, count=4)
    assert sample_cone_interior(3, n=np.int64(2)).points.shape == (3, 2)
    assert sample_cone_sphere(0.5, n=np.int64(2), count=4).shape == (4, 2)


@pytest.mark.parametrize("count", [0, -3])
def test_samplers_need_a_count_of_at_least_one(count):
    with pytest.raises(ValueError, match="count must be >= 1"):
        sample_cone_interior(count, n=2)
    with pytest.raises(ValueError, match="count must be >= 1"):
        sample_cone_sphere(0.5, n=2, count=count)


@pytest.mark.parametrize("count", [1e4, 1000.0, "1000", None])
def test_interior_sample_rejects_a_non_integer_count(count):
    with pytest.raises(TypeError, match="count must be an integer"):
        sample_cone_interior(count, n=2)
    assert sample_cone_interior(np.int64(3), n=2).points.shape == (3, 2)


@pytest.mark.parametrize("n,count,seed", [(2, 64, 0), (3, 257, 4), (4, 1000, 13)])
def test_sphere_sample_keeps_the_modulo_bits(monkeypatch, n, count, seed):
    def draw():
        return [sample_cone_sphere(0.3, n=n, norm=norm, restrict=restrict,
                                   count=count, seed=seed)
                for norm in ("cone", "euclid") for restrict in ("upper", "both")]

    fast = draw()
    monkeypatch.setattr(geometry, "kronecker_sequence", _kronecker_mod)
    for got, ref in zip(fast, draw()):
        assert np.array_equal(got, ref)


def test_the_samplers_take_the_dimension_from_their_caller():
    with pytest.raises(TypeError):
        sample_cone_sphere(0.1)
    with pytest.raises(TypeError):
        sample_cone_interior(10)


@pytest.mark.parametrize("count", [1, 2, 3, 257])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_spheres_equal_scalar_calls(n, count):
    radii = np.array([0.3, 1e-9, 0.75, 2.0])
    for norm in ("cone", "euclid"):
        for restrict in ("upper", "both"):
            kw = dict(n=n, norm=norm, restrict=restrict, count=count, seed=6)
            got = sample_cone_sphere(radii, **kw)
            assert got.shape == (radii.size * count, n)
            assert np.array_equal(
                got, np.vstack([sample_cone_sphere(r, **kw) for r in radii]))
            assert sample_cone_sphere(np.empty(0), **kw).shape == (0, n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.1, [0.1, np.nan],
                                 [0.1, np.inf], [[0.1]]])
def test_sphere_sample_rejects_bad_radii(bad):
    with pytest.raises(ValueError):
        sample_cone_sphere(bad, n=2, restrict="both", count=8)


@pytest.mark.parametrize("kw, message", [
    ({"norm": "max"}, "unknown norm"), ({"norm": "Cone"}, "unknown norm"),
    ({"restrict": "lower"}, "unknown restriction"),
    ({"restrict": "all"}, "unknown restriction")])
def test_sphere_sample_rejects_unknown_norm_or_restriction(kw, message):
    with pytest.raises(ValueError, match=message):
        sample_cone_sphere(0.2, n=2, count=8, **kw)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interior_sample_moments_match_the_uniform_cone(n):
    # uniform on the cone: t has density n (1 - t)^(n-1), so E[t] = 1/(n+1),
    # and given t, rho has density proportional to rho^(n-2) on [0, 1 - t]
    pts = sample_cone_interior(100_000, n=n, seed=3).points
    rho = np.linalg.norm(pts[:, :-1], axis=1)
    assert np.mean(pts[:, -1]) == pytest.approx(1.0 / (n + 1), abs=2e-4)
    assert np.mean(rho) == pytest.approx((n - 1) / (n + 1), abs=2e-4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interior_sample_meets_margins_with_little_rejection(n):
    margin = 1e-3
    s = sample_cone_interior(20_000, n=n, seed=4, exclude_axis_margin=margin,
                             exclude_boundary_margin=margin)
    pts = s.points
    rho, t = np.linalg.norm(pts[:, :-1], axis=1), pts[:, -1]
    rounding = 4.0 * np.finfo(float).eps
    assert pts.shape == (20_000, n)
    assert np.all(rho >= margin * (1.0 - rounding))
    assert np.all(t >= margin)
    assert np.all((1.0 - rho - t) / math.sqrt(2.0) >= margin - rounding)
    assert s.acceptance_rate >= 0.99
    assert s.attempts >= 20_000


@pytest.mark.parametrize("n,margin", [(2, 0.05), (3, 0.2)])
def test_interior_prefix_survives_axis_redraws(monkeypatch, n, margin):
    # the axis cylinder rejects several per cent of the stream, so some
    # counts fall short on the first draw and continue the stream
    kw = dict(n=n, seed=9, exclude_axis_margin=margin, exclude_boundary_margin=0.01)
    longest = sample_cone_interior(400, **kw).points
    assert np.all(np.linalg.norm(longest[:, :-1], axis=1) >= margin)
    draws = []

    def counted(*args, **kwargs):
        draws.append(kwargs["skip"])
        return kronecker_sequence(*args, **kwargs)

    monkeypatch.setattr(geometry, "kronecker_sequence", counted)
    redrawn = 0
    for count in range(1, 401, 3):
        draws.clear()
        assert np.array_equal(sample_cone_interior(count, **kw).points, longest[:count])
        redrawn += len(draws) > 1
    assert redrawn > 0


def test_interior_sample_refuses_degenerate_margins():
    with pytest.raises(ValueError):
        sample_cone_interior(10, n=3, exclude_axis_margin=-1e-3)
    # a NaN or infinite margin is refused as such, not as a zero acceptance rate
    for bad in (math.nan, math.inf):
        for margin in ("exclude_axis_margin", "exclude_boundary_margin"):
            with pytest.raises(ValueError, match="margins must be finite and >= 0"):
                sample_cone_interior(10, n=3, **{margin: bad})
    # the trimmed cone has height 1 - (1 + sqrt 2) 0.3 < 0.5: nothing is left
    with pytest.raises(RuntimeError):
        sample_cone_interior(10, n=3, exclude_axis_margin=0.5,
                             exclude_boundary_margin=0.3)
    # the axis cylinder holds all but 3e-4 of the trimmed cone
    height = 1.0 - (1.0 + math.sqrt(2.0)) * 0.1
    with pytest.raises(RuntimeError):
        sample_cone_interior(10, n=3, exclude_axis_margin=0.99 * height,
                             exclude_boundary_margin=0.1)
