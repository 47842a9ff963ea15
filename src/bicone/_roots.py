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

Because F is a difference of logarithms, |F| is a *relative* residual on
the original equation, valid at every scale, and every lane stops at one
target, float resolution: |F| <= 4 eps.  Each caller passes a bound C on
|F''| over the bracket, derived from its own equation.  Newton's error
bound |F(u - d)| <= C d^2 / 2 for the step d = F/F' then certifies a step
before it is evaluated: once C d^2 / 2 is at most 4 eps and the step stays
inside the bracket, the lane stops and returns that step, one evaluation
earlier than an evaluated residual would show it.

The lanes are solved in blocks of ``_BLOCK``, one block after the other.
Each Newton iteration makes a few dozen elementwise passes over its lanes;
over 16384 lanes the temporaries (128 KB each) stay in cache, while over
1e5 lanes every pass streams from memory and costs two to four times as
much per element.  Within a block, lanes that stop are written out and
dropped at once, so the later iterations touch only the lanes still
active.  Every lane runs the same arithmetic in any block, so the results
keep their bits whatever the block size.  ``_BLOCK`` is the package's one
block size: the solid-cone sampler maps its stream, and the Monte-Carlo
energy inverts and differentiates its points, in blocks of as many rows.
Of a Monte-Carlo op only the Kronecker stream, the points and the
integrand values are whole-sample arrays.

The solver writes neither into ``hi`` nor into the arrays a jet returns,
so a caller may pass as ``hi`` an array its jet reads (the cone inverse
passes log tau), and a jet may return arrays it keeps.  The bracket and
the iterate are new arrays at each iteration: ``np.where`` builds them,
since a masked in-place ``np.copyto`` ran about twice as slow on the mixed
masks of a solve.  The jets do their own work in place.
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
# Lanes (rows) per block, here and in geometry and energy.  On 1e5-point
# Monte-Carlo batches (2-vCPU x86-64 VM) 8192 and 32768 lanes ran at most
# as fast; see the module docstring.
_BLOCK = 16384


class BracketError(RuntimeError):
    """Raised when a root bracket does not straddle its target."""


def newton_log(jet, hi, straddle_message: str, *, curvature: float) -> np.ndarray:
    """Solve F(u) = 0 lane by lane for u = log x, F increasing; returns x.

    The bracket is [log 2^-1074, hi].  ``jet(u, idx)`` returns (F(u), F'(u))
    for the lanes ``idx`` (indices into the 1-D lane array ``hi``) at the
    points ``u``; it is only ever called on the lanes still active, so
    callers slice their per-lane data with ``idx``.  The iteration starts at
    ``hi``, where F must be >= 0: a lane with F(hi) < -1e-12 raises
    BracketError(straddle_message).

    ``curvature`` bounds |F''| over the bracket.  By Newton's error bound
    |F(u - d)| <= curvature d^2 / 2 for the step d = F/F' (Dennis and
    Schnabel, Lemma 4.1.12), so a lane whose step stays inside the bracket
    and has curvature d^2 / 2 <= 4 eps stops there and returns that step:
    its residual is certified to float resolution without evaluating it.
    The test is |d| <= reach, with the scalar reach = sqrt(8 eps / curvature)
    (infinite for curvature 0, where every step inside the bracket stops;
    0 for an unknown bound, curvature = inf).  A lane also stops when
    |F| <= 4 eps, when its bracket has shrunk to the float resolution of u,
    or when |d| falls below that resolution.  A lane stopped on its residual
    returns its final Newton iterate, which costs no evaluation.

    When a Newton step would leave the bracket through the float floor and
    the floor has not been evaluated yet, the next iterate is the floor
    itself rather than the midpoint.  F(floor) > 0 collapses the bracket to
    the floor, so lanes whose root lies below the float floor pin at the
    smallest float after that one evaluation; F(floor) <= 0 just moves the
    lower end of the bracket, and the lane goes on by the rules above.

    The lanes are solved in consecutive blocks of ``_BLOCK``, one block
    after the other (see the module docstring); ``idx`` holds indices into
    the whole lane array all the same.
    """
    hi = np.asarray(hi, dtype=float)
    out = np.empty(hi.size)
    reach = math.sqrt(8.0 * _EPS / curvature) if curvature else math.inf
    for first in range(0, hi.size, _BLOCK):
        idx = np.arange(first, min(first + _BLOCK, hi.size))
        x = b = hi[first:first + _BLOCK]
        a = np.full(idx.size, _LOG_FLOOR)
        floor_open = np.ones(idx.size, dtype=bool)   # floor not yet evaluated
        for it in range(_MAX_ITER):
            f, df = jet(x, idx)
            if it == 0 and np.any(f < -1e-12):
                raise BracketError(straddle_message)
            above = f > 0
            a = np.where(above, a, x)
            b = np.where(above, x, b)
            # a zero slope gives an infinite or NaN step, which is outside
            # the bracket and goes to the floor or the midpoint below
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = f / df
            step = x - delta
            inside = (step > a) & (step < b)
            resolution = 4.0 * _EPS * np.maximum(1.0, np.abs(x))
            np.abs(delta, out=delta)
            done = (np.abs(f) <= 4.0 * _EPS) | (b - a <= resolution) | (delta <= resolution)
            done |= inside & (delta <= reach)      # the step lands on the root
            x = np.where(inside, step, x)     # the Newton step, or the stopped iterate
            bisect = ~(inside | done)
            if bisect.any():      # the step left the bracket: the floor, or the midpoint
                to_floor = bisect & (step <= a) & (a == _LOG_FLOOR) & floor_open
                floor_open &= ~to_floor
                x[bisect] = np.where(to_floor, _LOG_FLOOR, 0.5 * (a + b))[bisect]
            stopped = np.count_nonzero(done)
            if stopped == x.size:
                out[idx] = x
                break
            if stopped:           # write the stopped lanes out, go on with the rest
                lanes = np.flatnonzero(done)
                out[idx[lanes]] = x[lanes]
                keep = np.flatnonzero(~done)
                x, a, b, idx, floor_open = (
                    x[keep], a[keep], b[keep], idx[keep], floor_open[keep])
        else:
            out[idx] = x
    return np.exp(out)
