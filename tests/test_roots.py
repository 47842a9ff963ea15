"""The float-floor step and the lane blocks of the safeguarded Newton solver.

A lane whose root lies below log 2^-1074 has no representable answer.  Once
its Newton step leaves the bracket through the floor, the solver evaluates
the floor once and pins the lane there, instead of halving the bracket down
to it (about 50 evaluations, during which the whole call stays open).

The solver runs its lanes in blocks of ``_BLOCK``; a lane's result does not
depend on the block it lands in.  Each solve passes a bound on |F''|, with
which a lane stops on a Newton step that provably lands on the root.
"""

import math
import warnings

import numpy as np
import pytest

import bicone._roots
import bicone.deformations
import bicone.moduli
from bicone._roots import _BLOCK, _LOG_FLOOR, BracketError, newton_log
from bicone.deformations import ConeMap
from bicone.moduli import ModulusFunction

TINY = 2.0 ** -1074
# sup |d^2/du^2 arctan(u)| = 3 sqrt(3) / 8, at u = -1/sqrt(3)
ARCTAN_CURVATURE = 3.0 * 3.0 ** 0.5 / 8.0


class CountingJet:
    """jet(u, idx) for F(u) = arctan(u - root), counting its calls.

    F' = 1 / (1 + (u - root)^2) is tiny far from the root, so the Newton
    step from u = 0 lands far below the floor for every root used here.
    ``curvature`` bounds |F''|, for the solver's stop rule.
    """

    def __init__(self, roots):
        self.roots = np.asarray(roots, dtype=float)
        self.calls = 0
        self.curvature = ARCTAN_CURVATURE

    def __call__(self, u, idx):
        self.calls += 1
        d = u - self.roots[idx]
        return np.arctan(d), 1.0 / (1.0 + d * d)


def solve(roots, tol=1e-12):
    jet = CountingJet(roots)
    return newton_log(jet, np.zeros(len(roots)), tol, "no straddle",
                      curvature=jet.curvature), jet


def test_root_below_the_floor_pins_in_one_floor_evaluation():
    x, jet = solve([_LOG_FLOOR - 10.0])
    assert x[0] == TINY
    assert jet.calls <= 3          # halving down to the floor took about 50


def test_mixed_batch_keeps_the_representable_lanes():
    representable = [-700.0, -300.0, -2.0]
    alone, _ = solve(representable)
    mixed, _ = solve(representable + [_LOG_FLOOR - 10.0, _LOG_FLOOR - 1e3])
    assert np.array_equal(mixed[:3], alone)
    assert np.array_equal(mixed[3:], [TINY, TINY])
    residual = np.abs(np.arctan(np.log(mixed[:3]) - representable))
    assert np.all(residual <= 1e-12)


def test_a_zero_slope_is_a_step_out_of_the_bracket_without_a_warning():
    # On the axis the cone jet's slope 1 - w(1 - g) cancels to 0 at w = 1
    # once g is below eps; here the slope is 0 at the upper end hi = 0.
    roots = np.array([-3.0, 0.0, _LOG_FLOOR - 10.0])

    def jet(u, idx):
        return u - roots[idx], np.where(u == 0.0, 0.0, 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = newton_log(jet, np.zeros(roots.size), 1e-12, "no straddle", curvature=0.0)
    assert abs(np.log(x[0]) + 3.0) <= 1e-12
    assert x[1] == 1.0 and x[2] == TINY


def test_floor_below_the_root_keeps_the_bracket():
    # the first step leaves through the floor, F(floor) < 0 moves the lower
    # end of the bracket, and the lane still converges to its root
    x, jet = solve([-700.0])
    assert jet.calls > 2
    assert abs(np.log(x[0]) + 700.0) <= 1e-12


@pytest.mark.parametrize("cap", [1, 2])
def test_lanes_open_at_the_iteration_cap_return_their_last_iterate(cap, monkeypatch):
    # lane 0 stops at once (F(hi) = 0), lane 3 pins at the floor on its
    # second evaluation; the others are still open when the cap ends the loop
    monkeypatch.setattr(bicone._roots, "_MAX_ITER", cap)
    x, jet = solve([0.0, -20.0, -300.0, _LOG_FLOOR - 10.0])
    assert jet.calls == cap
    first = 0.0 - np.arctan(20.0) / (1.0 / (1.0 + 20.0 * 20.0))    # Newton step
    if cap == 1:          # -300 and the last lane step through the floor
        expected = [0.0, first, _LOG_FLOOR, _LOG_FLOOR]
    else:                 # both steps leave their brackets: the midpoints
        expected = [0.0, 0.5 * first, 0.5 * _LOG_FLOOR, _LOG_FLOOR]
    assert np.array_equal(x, np.exp(expected))
    assert np.all((TINY <= x) & (x <= 1.0))


def test_a_certified_step_ends_its_lane_one_evaluation_early():
    # With |F''| <= 3 sqrt(3) / 8 a step of d with curvature d^2 / 2 <= 4 eps
    # lands on the root; without a bound (infinite curvature) the lane
    # evaluates there first.  Both answers sit within float resolution of u.
    roots = np.linspace(-30.0, -0.5, 200)
    bounded, jet = solve(roots)
    unbounded = CountingJet(roots)
    x = newton_log(unbounded, np.zeros(roots.size), 1e-12, "no straddle",
                   curvature=math.inf)
    assert jet.calls < unbounded.calls
    eps = np.finfo(float).eps
    for answer in (bounded, x):
        assert np.all(np.abs(np.log(answer) - roots) <= 4 * eps * np.abs(roots))


@pytest.fixture
def iterations(monkeypatch):
    """Jet calls of every newton_log solve made by the maps and moduli."""
    counts = []

    def counting(jet, hi, tol, message, **kwargs):
        calls = [0]

        def counted(u, idx):
            calls[0] += 1
            return jet(u, idx)

        out = newton_log(counted, hi, tol, message, **kwargs)
        counts.append(calls[0])
        return out

    monkeypatch.setattr(bicone.deformations, "newton_log", counting)
    monkeypatch.setattr(bicone.moduli, "newton_log", counting)
    return counts


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_axis_heights_below_phi_of_the_floor_pin_quickly(k, n, iterations):
    phi = ModulusFunction.iterlog(depth=k, alpha=1.0, n=n)
    heights = np.array([1e-3, 1e-4, 1e-8, 1e-100, 1e-300])
    heights = heights[heights < phi(TINY)]
    assert heights.size >= 4
    Y = np.zeros((heights.size, n))
    Y[:, -1] = heights
    assert np.all(ConeMap(phi, n=n).inverse(Y)[:, -1] == TINY)
    assert np.all(phi.invert(heights) == TINY)
    assert len(iterations) == 2
    assert max(iterations) <= 10


@pytest.mark.parametrize("phi", [ModulusFunction.identity(), ModulusFunction.power(0.5),
                                 ModulusFunction.power(0.3, n=3)], ids=lambda p: p.describe())
def test_power_invert_takes_one_evaluation_per_lane(phi, iterations):
    # h = 0 bounds F'' = -h: the first Newton step lands on the root
    v = np.geomspace(1e-12, 0.99, 1000)
    psi = phi.invert(v)
    assert iterations == [1]
    eps = np.finfo(float).eps
    assert np.all(np.abs(psi / v ** (1.0 / phi.eps) - 1.0) <= 4 * eps * (1 - np.log(psi)))


@pytest.mark.parametrize("k", [1, 3])
def test_floor_lanes_leave_the_other_heights_alone(k):
    phi = ModulusFunction.iterlog(depth=k, alpha=1.0, n=2)
    m = ConeMap(phi, n=2)
    above = np.array([[0.3, 1e-9], [0.0, 0.05], [0.1, 0.4]])
    below = np.array([[0.0, 1e-4], [0.0, 1e-200]])
    mixed = m.inverse(np.concatenate([above, below]))
    assert np.array_equal(mixed[:3], m.inverse(above))
    assert np.all(mixed[3:, -1] == TINY)
    T, rho, tau = mixed[:3, -1], np.abs(above[:, 0]), above[:, -1]
    sigma = T + rho
    assert np.all(np.abs(T * phi(sigma) / sigma / tau - 1.0) <= 1e-12)


def mixed_roots(size, seed=0):
    """Roots across the float range, every 97th one below the floor.

    The scales make many Newton steps leave the bracket, so the solve takes
    midpoints and floor steps as well as Newton steps.
    """
    rng = np.random.default_rng(seed)
    roots = rng.uniform(-740.0, -1e-3, size)
    roots[::97] = _LOG_FLOOR - rng.uniform(1.0, 1e3, roots[::97].size)
    return roots, rng.uniform(0.05, 50.0, size)


class ScaledJet(CountingJet):
    """F(u) = arctan((u - root) / scale), recording the lanes of each call."""

    def __init__(self, roots, scale):
        super().__init__(roots)
        self.scale = scale
        self.lanes = []
        self.curvature = ARCTAN_CURVATURE / np.min(scale) ** 2

    def __call__(self, u, idx):
        self.calls += 1
        self.lanes.append(idx.copy())
        d = (u - self.roots[idx]) / self.scale[idx]
        return np.arctan(d), 1.0 / (self.scale[idx] * (1.0 + d * d))


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_blocks_give_the_bits_of_one_block(size, monkeypatch):
    roots, scale = mixed_roots(size)
    hi = np.where(np.arange(size) % 3 == 0, 0.0, np.maximum(roots, _LOG_FLOOR) + 5.0)
    jet = ScaledJet(roots, scale)
    blocked = newton_log(jet, hi, 1e-12, "no straddle", curvature=jet.curvature)
    monkeypatch.setattr(bicone._roots, "_BLOCK", 10 * size)
    one_block = newton_log(jet, hi, 1e-12, "no straddle", curvature=jet.curvature)
    assert np.array_equal(blocked, one_block)
    assert np.all(blocked[::97] == TINY)


def test_jet_sees_global_lane_indices():
    size = 3 * _BLOCK + 7
    roots, scale = mixed_roots(size, seed=1)
    jet = ScaledJet(roots, scale)
    newton_log(jet, np.zeros(size), 1e-12, "no straddle", curvature=jet.curvature)
    blocks = [lanes[0] // _BLOCK for lanes in jet.lanes]
    assert blocks == sorted(blocks) and set(blocks) == {0, 1, 2, 3}
    previous = None
    for block, lanes in zip(blocks, jet.lanes):
        if previous is None or block != previous[0]:      # a block's first call
            start = block * _BLOCK
            assert np.array_equal(lanes, np.arange(start, min(start + _BLOCK, size)))
        else:                     # later calls keep a subset of the lanes, in order
            assert np.all(np.isin(lanes, previous[1])) and np.all(np.diff(lanes) > 0)
        previous = block, lanes


def test_floor_lanes_pin_in_every_block():
    size = 3 * _BLOCK + 7
    roots = np.full(size, -20.0)
    floor_lanes = np.append(np.arange(5, size, 4099), size - 1)
    roots[floor_lanes] = _LOG_FLOOR - 10.0
    x, jet = solve(roots)
    assert len({int(i) // _BLOCK for i in floor_lanes}) == 4
    assert np.all(x[floor_lanes] == TINY)
    assert np.all(np.delete(x, floor_lanes) == x[0])
    assert abs(np.log(x[0]) + 20.0) <= 1e-12


def test_straddle_failure_past_the_first_block_raises():
    size = 2 * _BLOCK
    roots = np.full(size, -3.0)
    roots[_BLOCK + 11] = 1.0           # F(hi = 0) = arctan(-1) < 0
    jet = CountingJet(roots)
    with pytest.raises(BracketError, match="no straddle"):
        newton_log(jet, np.zeros(size), 1e-12, "no straddle", curvature=jet.curvature)
    assert jet.calls > 1               # the first block was solved first


@pytest.mark.parametrize("size", [5, _BLOCK + 3])
def test_solve_leaves_its_upper_ends_unchanged(size):
    # a jet may read hi (the cone inverse's reads log tau), so no solve writes into it
    roots, scale = mixed_roots(size, seed=2)
    hi = np.maximum(roots, _LOG_FLOOR) + 5.0
    given = hi.copy()
    jet = ScaledJet(roots, scale)
    newton_log(jet, hi, 1e-12, "no straddle", curvature=jet.curvature)
    assert hi.tobytes() == given.tobytes()


def where_jet(phi, rho, log_tau):
    """The cone inverse's jet with both np.where calls on every evaluation."""

    def jet(u, idx):
        T = np.exp(u)
        sigma = T + rho[idx]
        v = np.maximum(-np.log(sigma), 0.0)
        p, g = phi.profile_log(v)
        inner = v > 0
        log_lam = np.where(inner, np.log(p) + v, 0.0)
        g = np.where(inner, g, 1.0)
        return u + log_lam - log_tau[idx], 1.0 - T / sigma * (1.0 - g)

    return jet


@pytest.mark.parametrize("phi", [ModulusFunction.iterlog(depth=2, alpha=1.0, n=3),
                                 ModulusFunction.power(0.5, n=3)], ids=lambda p: p.describe())
def test_cone_inverse_keeps_its_bits_on_the_slant(phi):
    # points on the slant |y| + tau = 1, and up to 1e-9 past it, evaluate
    # sigma >= 1, where lambda = g = 1; the inside points skip that branch
    n = 3
    rng = np.random.default_rng(4)
    tau = rng.uniform(1e-6, 0.9, 200)
    direction = rng.standard_normal((200, n - 1))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    slack = np.where(np.arange(200) % 2 == 0, 0.0, 1e-9)
    slant = np.column_stack([direction * (1.0 - tau + slack)[:, None], tau])
    inside = np.column_stack([direction * (0.5 * (1.0 - tau))[:, None], tau])
    m = ConeMap(phi, n=n)
    for Y in (slant, inside, np.concatenate([inside, slant])):
        rho = np.linalg.norm(Y[:, :-1], axis=1)
        log_tau = np.log(Y[:, -1])
        ref = newton_log(where_jet(phi, rho, log_tau), log_tau, 1e-12, "no straddle",
                         curvature=0.25 + phi._curvature)
        X = m.inverse(Y)
        assert X[:, -1].tobytes() == ref.tobytes()
        assert np.array_equal(X[:, :-1], Y[:, :-1])
