"""Vectorized safeguarded Newton iteration for increasing scalar equations.

Every inverse in this package solves an equation F(u) = 0 with F increasing
in u = log of the unknown.  In that variable the log-type moduli are no
longer flat: F' is an elasticity-like slope of order 1/log(1/s) rather than
phi'(s), so Newton steps make real progress even for preimages near the
float floor.  The step is safeguarded as in ``rtsafe`` (Press et al.,
Numerical Recipes, section 9.4): every evaluation shrinks the bracket, and a
step that leaves the open bracket is replaced by its midpoint, so no iterate
ever leaves the interval known to hold the root.  One exception to the
midpoint rule: a step that leaves through the float floor evaluates the
floor itself, once per lane.  If F is still positive there, the root has no
representable value and the lane pins at the smallest float after that one
evaluation, instead of halving its bracket down to the floor.

Because F is a difference of logarithms, the stopping rule |F| <= tol is a
*relative* residual on the original equation, valid at every scale.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = np.finfo(float).eps
# log of the smallest positive float: no unknown below it is representable
_LOG_FLOOR = math.log(2.0 ** -1074)
# A safeguard: Newton lanes stop within a handful of iterations, and lanes
# whose root lies below the floor stop one evaluation after their step
# leaves through it.  Pure bisection over [_LOG_FLOOR, 0] would reach float
# resolution in about 50 halvings.
_MAX_ITER = 100


class BracketError(RuntimeError):
    """Raised when a root bracket does not straddle its target."""


def newton_log(jet, hi, tol: float, straddle_message: str) -> np.ndarray:
    """Solve F(u) = 0 lane by lane for u = log x, F increasing; returns x.

    The bracket is [log 2^-1074, hi].  ``jet(u, idx)`` returns (F(u), F'(u))
    for the lanes ``idx`` (indices into the 1-D lane array ``hi``) at the
    points ``u``; it is only ever called on the lanes still active, so
    callers slice their per-lane data with ``idx``.  The iteration starts at
    ``hi``, where F must be >= 0: a lane with F(hi) < -1e-12 raises
    BracketError(straddle_message).

    A lane stops when |F| <= max(tol, 4 eps), when its bracket has shrunk to
    the float resolution of u, or when its Newton correction falls below that
    resolution.  A lane stopped on its residual returns its final Newton
    iterate, which costs no evaluation and leaves a residual far below tol.

    When a Newton step would leave the bracket through the float floor and
    the floor has not been evaluated yet, the next iterate is the floor
    itself rather than the midpoint.  F(floor) > 0 collapses the bracket to
    the floor, so lanes whose root lies below the float floor pin at the
    smallest float after that one evaluation; F(floor) <= 0 just moves the
    lower end of the bracket, and the lane goes on by the rules above.
    """
    u = np.array(hi, dtype=float)
    hi = u.copy()
    lo = np.full_like(u, _LOG_FLOOR)
    stop = max(tol, 4.0 * _EPS)
    floor_open = np.ones(u.size, dtype=bool)    # floor not yet evaluated
    idx = np.arange(u.size)
    for it in range(_MAX_ITER):
        x = u[idx]
        f, df = jet(x, idx)
        if it == 0 and np.any(f < -1e-12):
            raise BracketError(straddle_message)
        above = f > 0
        a = np.where(above, lo[idx], x)
        b = np.where(above, x, hi[idx])
        lo[idx], hi[idx] = a, b
        step = x - f / df
        inside = (step > a) & (step < b)
        to_floor = (step <= a) & (a == _LOG_FLOOR) & floor_open[idx]
        floor_open[idx[to_floor]] = False
        resolution = 4.0 * _EPS * np.maximum(1.0, np.abs(x))
        done = ((np.abs(f) <= stop) | (b - a <= resolution)
                | (np.abs(f) <= resolution * df))
        u[idx] = np.where(inside, step, np.where(
            done, x, np.where(to_floor, _LOG_FLOOR, 0.5 * (a + b))))
        idx = idx[~done]
        if idx.size == 0:
            break
    return np.exp(u)
