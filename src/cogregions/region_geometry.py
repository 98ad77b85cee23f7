"""Two-dimensional rate-region geometry.

Regions are exchanged as Pareto frontiers: monotone polylines of
``(r1, r2)`` points with ``r1`` strictly increasing and ``r2``
non-increasing.  Rate constraints at a fixed auxiliary-parameter value form
a :class:`Pentagon` (``R1 <= A``, ``R2 <= B``, ``R1 + R2 <= C``); a family
of pentagons is collapsed to one frontier, the concave hull of the
pentagons' corners (the corner hull, :func:`union_frontier_arrays`): time
sharing makes every region here convex.  All rates are in bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "Pentagon",
    "Frontier",
    "VerificationReport",
    "pentagon_corners",
    "union_frontier_arrays",
    "corner_cloud",
    "hull_frontier",
    "concavify",
    "intersect_frontiers",
    "contains",
    "sweep_grid",
]

@dataclass(frozen=True)
class Pentagon:
    """Rate constraints ``R1 <= r1_max``, ``R2 <= r2_max``, ``R1+R2 <= sum_max``.

    Fields may be ``math.inf`` for an absent constraint.  On construction the
    sum constraint is tightened to ``min(sum_max, r1_max + r2_max)`` so a
    normalized pentagon never carries a vacuous sum bound.
    """

    r1_max: float
    r2_max: float
    sum_max: float = math.inf

    def __post_init__(self) -> None:
        r1 = float(self.r1_max)
        r2 = float(self.r2_max)
        s = float(self.sum_max)
        if math.isnan(r1) or math.isnan(r2) or math.isnan(s):
            raise ValueError("pentagon constraints must not be NaN")
        if r1 < 0 or r2 < 0 or s < 0:
            raise ValueError(
                f"pentagon constraints must be nonnegative, got ({r1}, {r2}, {s})"
            )
        object.__setattr__(self, "r1_max", r1)
        object.__setattr__(self, "r2_max", r2)
        object.__setattr__(self, "sum_max", min(s, r1 + r2))


def pentagon_corners(p: Pentagon) -> list:
    """Pareto vertices of a normalized pentagon.

    Returns the dominant corners, clamped at zero for degenerate shapes,
    deduplicated, Pareto-filtered and sorted by increasing r1.  A rectangle
    yields a single corner; a generic pentagon yields two.
    """
    a, b, c = p.r1_max, p.r2_max, p.sum_max
    if math.isinf(c):
        # Both r1_max and r2_max infinite would make the region unbounded in
        # every direction; normalization only leaves c infinite in that case.
        candidates = [(0.0, b), (a, b), (a, 0.0)]
    else:
        candidates = [
            (0.0, min(b, c)),
            (max(0.0, min(a, c - b)), min(b, c)),
            (min(a, c), max(0.0, min(b, c - a))),
            (min(a, c), 0.0),
        ]
    unique = sorted(set(candidates))
    pareto = [
        q
        for q in unique
        if not any(
            (r[0] >= q[0] and r[1] >= q[1] and r != q) for r in unique
        )
    ]
    return pareto


@dataclass(frozen=True)
class Frontier:
    """Pareto boundary of a 2-D rate region as a monotone polyline.

    ``r1`` is strictly increasing starting at 0; ``r2`` is non-increasing
    and nonnegative.  Between vertices the boundary is interpolated linearly.
    """

    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.r1, dtype=float)
        y = np.asarray(self.r2, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size == 0:
            raise ValueError("frontier needs matching non-empty 1-D r1/r2 arrays")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("frontier vertices must be finite")
        if x[0] != 0.0:
            raise ValueError("frontier must start at r1 = 0")
        if np.any(x[1:] <= x[:-1]):
            raise ValueError("frontier r1 values must be strictly increasing")
        if np.any(y < 0):
            raise ValueError("frontier r2 values must be nonnegative")
        # Tolerate float-level wiggles from interpolation, nothing more.
        if np.any(y[1:] - y[:-1] > 1e-9):
            raise ValueError("frontier r2 values must be non-increasing")
        y = np.minimum.accumulate(y)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "r1", x)
        object.__setattr__(self, "r2", y)

    @property
    def max_r1(self) -> float:
        return float(self.r1[-1])

    def interp(self, at: Union[float, np.ndarray]) -> np.ndarray:
        """Linearly interpolated r2 at the given r1 values (clamped to range).

        ``np.interp`` forms each edge's slope, which overflows on an r2 drop
        over a subnormal r1 step.  Where its result is infinite, the value
        is ``y0 + (y1 - y0) * ((x - x0) / (x1 - x0))`` instead, whose ratio
        lies in [0, 1]; every other result keeps its bits.
        """
        r2 = np.interp(at, self.r1, self.r2)
        broken = np.isinf(r2)
        if not broken.any():
            return r2
        r2 = np.array(r2)
        x = np.asarray(at, dtype=float)[broken]
        i = np.searchsorted(self.r1, x, side="right") - 1
        x0, x1 = self.r1[i], self.r1[i + 1]
        y0, y1 = self.r2[i], self.r2[i + 1]
        r2[broken] = y0 + (y1 - y0) * ((x - x0) / (x1 - x0))
        return r2[()]

    def to_csv(self) -> str:
        lines = ["r1_bits,r2_bits"]
        points = np.column_stack((self.r1, self.r2)).tolist()
        lines += [f"{x:.12g},{y:.12g}" for x, y in points]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {"points": np.column_stack((self.r1, self.r2)).tolist()}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification: ``passed`` iff ``max_discrepancy <= tolerance``."""

    name: str
    passed: bool
    max_discrepancy: float
    tolerance: float
    n: int
    seed: Optional[int] = None
    worst_case: Optional[dict] = field(default=None)

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "passed": bool(self.passed),
                "max_discrepancy": float(self.max_discrepancy),
                "tolerance": float(self.tolerance),
                "n": int(self.n),
                "seed": self.seed,
                "worst_case": self.worst_case,
            }
        )


def union_frontier_arrays(
    r1_max: np.ndarray, r2_max: np.ndarray, sum_max: np.ndarray
) -> Frontier:
    """Union of a pentagon family, given as parallel constraint arrays.

    The frontier is the concave hull of the family's corners,
    :func:`hull_frontier` of its :func:`corner_cloud`, extended flat to
    r1 = 0.  Time sharing is allowed, so every region here is convex, and
    the hull keeps each bound what it is.  Each pentagon is the convex hull
    of its corners and their projections on the axes, so the hull of an
    outer family's corners contains its union: an outer bound stays an
    outer bound.  Every vertex past r1 = 0 is a corner of one pentagon
    (:func:`pentagon_corners`), and time sharing achieves the chords
    between achievable corners: an inner bound stays achievable.

    Arrays, not :class:`Pentagon` objects, so that callers sweeping
    thousands of auxiliary parameters never materialize the family.  The
    sum cap is normalized and NaN and negative constraints are rejected,
    as by :class:`Pentagon`, and so is a family whose union is unbounded;
    negative zeros count as zeros, so the frontier starts at ``+0.0``.
    """
    # Adding 0.0 turns negative zeros positive and leaves every other value.
    a, b, s = (
        np.asarray(v, dtype=float).ravel() + 0.0
        for v in np.broadcast_arrays(r1_max, r2_max, sum_max)
    )
    if a.size == 0:
        raise ValueError("no pentagons")
    if np.isnan(a).any() or np.isnan(b).any() or np.isnan(s).any():
        raise ValueError("pentagon constraints must not be NaN")
    negative = (a < 0) | (b < 0) | (s < 0)
    if negative.any():
        j = np.argmax(negative)
        raise ValueError(
            "pentagon constraints must be nonnegative, "
            f"got ({float(a[j])}, {float(b[j])}, {float(s[j])})"
        )
    # A rate is unbounded only where its own cap and the sum cap are absent.
    no_sum = np.isinf(s)
    if np.isinf(a[no_sum]).any():
        raise ValueError("region unbounded in r1")
    if np.isinf(b[no_sum]).any():
        raise ValueError("region unbounded in r2")
    return hull_frontier(*corner_cloud(a, b, s))


def _corner_kinds(r1_max, r2_max, sum_max):
    """Both Pareto corners of each pentagon, as two ``(x, y)`` kinds.

    The first kind hugs the r2 cap, the second the r1 cap (they coincide
    for rectangles); each coordinate is clamped to its cap and at the axes
    exactly as :func:`pentagon_corners` does, so every corner lies in its
    pentagon even where the normalized sum cap ``fl(r1 + r2)`` rounds up.
    Elementwise, so the caps may be any broadcast-compatible arrays and
    each coordinate has their broadcast shape.
    """
    r1_max, r2_max, sum_max = np.broadcast_arrays(r1_max, r2_max, sum_max)
    sum_cap = r1_max + r2_max
    np.minimum(sum_max, sum_cap, out=sum_cap)
    y1 = np.minimum(r2_max, sum_cap)
    x1 = np.subtract(sum_cap, r2_max)
    np.minimum(x1, r1_max, out=x1)
    np.maximum(x1, 0.0, out=x1)
    x2 = np.minimum(r1_max, sum_cap)
    y2 = np.subtract(sum_cap, x2, out=sum_cap)
    np.minimum(y2, r2_max, out=y2)
    np.maximum(y2, 0.0, out=y2)
    return (x1, y1), (x2, y2)


def corner_cloud(r1_max, r2_max, sum_max):
    """Pareto corner candidates of many pentagons as one point cloud.

    Returns ``(x, y)`` arrays with two entries per pentagon: every
    pentagon's corner hugging the r2 cap, then every pentagon's corner
    hugging the r1 cap (see :func:`_corner_kinds`).
    """
    a = np.asarray(r1_max, dtype=float).ravel()
    b = np.asarray(r2_max, dtype=float).ravel()
    s = np.asarray(sum_max, dtype=float).ravel()
    if a.size == 0:
        raise ValueError("no pentagons")
    (x1, y1), (x2, y2) = _corner_kinds(a, b, s)
    return np.concatenate([x1, x2]), np.concatenate([y1, y2])


# Buckets of the table of _witness_filter.
_BUCKETS = 1024


# _staircase sorts with the stable sort, which merges presorted runs (a
# union's two kinds of corners, each sorted up to rounding), where every
# _SORT_STRIDE-th x descends at most _PRESORTED_DESCENTS times, and with the
# default sort, faster on scattered clouds, elsewhere.  The stride hides
# local disorder, which the stable sort absorbs cheaply.
_SORT_STRIDE = 32
_PRESORTED_DESCENTS = 3


def _staircase(x: np.ndarray, y: np.ndarray):
    """Pareto staircase of a point cloud: x increasing, y strictly decreasing.

    A point survives iff no other point has larger x and y at least as
    large, or equal x and larger y; of exact duplicates one copy is kept:
    of a run of equal x (``0.0`` and ``-0.0`` compare equal), the first in
    input order of those with the run's largest y, the point
    ``np.lexsort((-y, x))`` puts first in the run.  So the result is that
    sort's staircase bit for bit.

    One argsort of x, then the weak suffix maxima: the points no later
    point in that order rises above.  Every staircase point is one, and
    the largest y of a run not beaten from the right is one wherever it
    stands in the run.  The stable sort keeps input order within a run, so
    there the first suffix maximum of each run is the point to keep; after
    the default sort each run's copies of its largest y are searched for
    the least input index.
    """
    sample = x[::_SORT_STRIDE]
    stable = np.count_nonzero(sample[1:] < sample[:-1]) <= _PRESORTED_DESCENTS
    order = np.argsort(x, kind="stable" if stable else None)
    ys = y[order]
    suffix = np.maximum.accumulate(ys[::-1])[::-1]
    peak = ys >= suffix
    order = order[peak]
    xs, ys = x[order], ys[peak]
    head = np.ones(xs.size, dtype=bool)
    head[1:] = xs[1:] > xs[:-1]
    if stable or head.all():
        x, y = xs[head], ys[head]
    else:
        # In each run, the least input index of a copy of the run's largest y.
        starts = np.flatnonzero(head)
        top = np.maximum.reduceat(ys, starts)[np.cumsum(head) - 1]
        pick = np.minimum.reduceat(np.where(ys < top, x.size, order), starts)
        x, y = x[pick], y[pick]
    # y no longer rises, so a point is beaten from the right iff the next
    # one has its y.
    keep = np.empty(y.size, dtype=bool)
    keep[:-1] = y[:-1] > y[1:]
    keep[-1] = True
    return x[keep], y[keep]


def _witness_filter(wx: np.ndarray, wy: np.ndarray):
    """A filter that drops only points a witness beats (``x_w >= x``, ``y_w > y``).

    ``(wx, wy)`` is a :func:`_staircase`.  Returns ``prefilter(x, y)``,
    which takes finite arrays of one shape and returns the flat indices, in
    ``x.ravel()`` order, of the points it keeps: every point no witness
    beats, and some that one does.  Callers take the exact staircase of the
    survivors.  ``prefilter(x, y, cap)`` tests the points ``(min(x, cap),
    min(y, cap))`` instead, a pentagon's box corner from its caps, without
    building them: ``t <= min(y, cap)`` iff ``t <= y`` and ``t <= cap``.
    The test's buffers are allocated once, at the size of the largest input.

    x maps to one of ``_BUCKETS + 1`` buckets by
    ``f(x) = int((clip(x, wx[0], wx[-1]) - wx[0]) / span * _BUCKETS)``,
    ``span = wx[-1] - wx[0]``.  Each rounded step is monotone, so ``f``
    does not fall as x rises, and the quotient is at most 1, so no step
    overflows, even for a subnormal span.  ``table[k]`` is the y of the
    first witness whose bucket exceeds ``k``, or ``-inf`` if none does; it
    is built once per staircase.  A point is kept iff ``table[f(x)] <= y``.
    A staircase whose span is zero or not finite keeps every point.

    Why a dropped point is beaten.  The staircase's y is strictly
    decreasing in x, so the first witness at or right of a point has the
    largest y among those at or right of it; call its y ``W(x)`` (``-inf``
    past the last witness).  Take a point with ``y < table[k]``,
    ``k = f(x)``, and let ``m`` be the witness that gave ``table[k]``.  If
    ``wx[m] <= x``, then ``f(wx[m]) <= f(x) = k``, against the choice of
    ``m``; so ``wx[m] > x``, the first witness at or right of x comes no
    later than ``m``, and as W does not rise with x,
    ``W(x) >= wy[m] = table[k] > y``.
    """
    lo, hi = float(wx[0]), float(wx[-1])
    span = hi - lo
    if not 0.0 < span < math.inf:
        return lambda x, y, cap=None: np.arange(x.size)

    def bucket(v, values, index):
        """``f(v)``, through the float buffer ``values``, into ``index``."""
        np.minimum(v, hi, out=values)
        np.maximum(values, lo, out=values)
        values -= lo
        values /= span
        values *= _BUCKETS
        np.copyto(index, values, casting="unsafe")
        return index

    ext = np.append(wy, -np.inf)
    edges = bucket(wx, np.empty(wx.shape), np.empty(wx.shape, dtype=np.intp))
    table = ext[np.searchsorted(edges, np.arange(_BUCKETS + 1), side="right")]
    # Buffers of the test, grown to the largest input and reused.
    buffers = []

    def prefilter(x, y, cap=None):
        shape = np.broadcast_shapes(*(np.shape(v) for v in (x, y, cap) if v is not None))
        n = math.prod(shape)
        if not buffers or buffers[0].size < n:
            buffers[:] = (np.empty(n), np.empty(n, np.intp), np.empty(n, bool), np.empty(n, bool))
        values, index, keep, below = (b[:n].reshape(shape) for b in buffers)
        if cap is not None:
            x = np.minimum(x, cap, out=values)
        np.take(table, bucket(x, values, index), out=values, mode="clip")
        np.less_equal(values, y, out=keep)
        if cap is not None:
            keep &= np.less_equal(values, cap, out=below)
        return np.flatnonzero(keep)

    return prefilter


def _pops(xi, yi, xj, yj, xk, yk):
    """The monotone chain's pop test on the triple ``(i, j, k)``, elementwise.

    ``(x_j - x_i)(y_k - y_i) - (x_k - x_i)(y_j - y_i) >= 0``: j lies on or
    below the chord from i to k.  The operations and their order are those
    of :func:`_monotone_chain`, so each element has the loop's bits.
    """
    return (xj - xi) * (yk - yi) - (xk - xi) * (yj - yi) >= 0.0


def _monotone_chain(x, y, hull_x, hull_y):
    """Andrew's monotone chain (A. M. Andrew, 1979), one point at a time.

    Pushes the points of the float lists ``x``, ``y`` in order onto the
    stack ``hull_x``, ``hull_y`` (lists holding at least one point).  Before
    each push it pops the top while the stack holds two points or more and
    the top lies on or below the chord from the point beneath it to the new
    point (:func:`_pops`).  Returns the stack.
    """
    for xk, yk in zip(x, y):
        while len(hull_x) >= 2:
            cross = (hull_x[-1] - hull_x[-2]) * (yk - hull_y[-2]) - (
                xk - hull_x[-2]
            ) * (hull_y[-1] - hull_y[-2])
            if cross >= 0.0:
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(xk)
        hull_y.append(yk)
    return hull_x, hull_y


# Vectorized rounds of _concave_chain's candidate step.  Most frontiers
# settle in 2 to 6 rounds.  A round peels only one point off a dent (a
# concave run that a later point pops one by one), so a dent of m points
# would cost m rounds; past the last round the certificate fails at the
# dent and the loop replays its segment.
_CANDIDATE_ROUNDS = 8


def _concave_chain(x: np.ndarray, y: np.ndarray):
    """:func:`_monotone_chain` over a whole sequence, vectorized and certified.

    ``x`` must be strictly increasing.  Returns ``(x, y)`` arrays of the
    stack that :func:`_monotone_chain` leaves when it starts from the first
    point and pushes the rest, bit for bit.  Write ``T(i, j, k)`` for the
    pop test (:func:`_pops`) on points ``i < j < k``.

    1. Candidate.  Drop every interior point ``j`` of the sequence with
       ``T(prev, j, next)`` true, all at once, and repeat on what is left
       until nothing is dropped or ``_CANDIDATE_ROUNDS`` rounds have run.
       This leaves indices ``h_0 = 0 < h_1 < ... < h_m = n - 1``; what
       follows holds for any such indices.
    2. Certify.  A point the chain pops never returns, so if the chain ends
       on ``h``, it never pops an ``h_t``.  Suppose the stack holds
       ``h_0 .. h_t`` right after ``h_t`` is pushed.  Until ``h_t`` is
       popped, the chain's run over the segment ``(h_t, h_{t+1}]`` reads
       nothing below ``h_{t-1}``; it is the run of the same loop from the
       stack ``[h_{t-1}, h_t]`` (``[h_0]`` for ``t = 0``, where the bottom
       point is never popped).  The segment is *simple* when
       ``T(h_{t-1}, h_t, k)`` is false for every ``k`` in it (there is no
       ``h_{-1}`` for ``t = 0``) and ``T(h_t, k - 1, k)`` is true for every
       ``k`` in it but the first: then each point is pushed onto ``h_t``
       and popped by the next one, and the run ends on
       ``[h_{t-1}, h_t, h_{t+1}]``, so the stack holds ``h_0 .. h_{t+1}``
       right after ``h_{t+1}`` is pushed.  One vectorized pass decides
       this for every segment.  If all are simple, by induction over ``t``
       the chain ends on exactly ``h``.
    3. Replay.  Otherwise take the segments that are not simple in
       order.  Let segment ``t`` be the next, and the segments before it
       simple or replayed: by the same induction the loop's stack is
       exactly ``h_0 .. h_t`` right after ``h_t`` is pushed, and the
       loop's run from there on depends on nothing else.  So
       :func:`_monotone_chain` runs over the segment from that certified
       stack.  If it ends on ``h_0 .. h_t, h_{t+1}``, the stack holds
       ``h_0 .. h_{t+1}`` right after ``h_{t+1}`` is pushed, and the
       induction goes on; the loop never read below ``h_t``.  Otherwise
       the run goes on from where it stands over the points past the
       segment, and its stack is the result.  So a staircase whose
       candidate is the hull but for a few segments runs the loop over
       those segments alone.

    The vectorized test and the loop evaluate ``T`` with the same
    operations in the same order, so no decision and no output bit differs
    from the loop's.  Overflow gives ``inf`` or ``nan`` silently in both.
    """
    n = x.size
    if n < 3:
        return x, y
    h, hx, hy = np.arange(n), x, y
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_CANDIDATE_ROUNDS):
            drop = _pops(hx[:-2], hy[:-2], hx[1:-1], hy[1:-1], hx[2:], hy[2:])
            if not drop.any():
                break
            keep = np.concatenate(([True], ~drop, [True]))
            h, hx, hy = h[keep], hx[keep], hy[keep]

        # Position p of the masks is point k = p + 1, in the segment that
        # b = h_t starts; the points past h_1 also have a = h_{t-1}.
        counts = np.diff(h)
        bx, by = np.repeat(hx[:-1], counts), np.repeat(hy[:-1], counts)
        bad = ~_pops(bx, by, x[:-1], y[:-1], x[1:], y[1:])
        bad[h[:-1]] = False
        ax, ay = np.repeat(hx[:-2], counts[1:]), np.repeat(hy[:-2], counts[1:])
        c = h[1]
        bad[c:] |= _pops(ax, ay, bx[c:], by[c:], x[c + 1 :], y[c + 1 :])
    # A failing position p is point p + 1, in segment t: h_t <= p.  The
    # loop's stack h_0 .. h_t as lists, filled up to h_t as t advances.
    stack_x, stack_y = [], []
    segments = np.searchsorted(h, np.flatnonzero(bad), side="right") - 1
    for t in _sorted_unique(segments).tolist():
        stack_x += hx[len(stack_x) : t + 1].tolist()
        stack_y += hy[len(stack_y) : t + 1].tolist()
        lo, hi = h[t] + 1, h[t + 1] + 1
        _monotone_chain(x[lo:hi].tolist(), y[lo:hi].tolist(), stack_x, stack_y)
        # The run ends on h_0 .. h_{t+1} iff h_t, the one point with its x,
        # is still second from the top.
        if len(stack_x) != t + 2 or stack_x[t] != hx[t]:
            _monotone_chain(x[hi:].tolist(), y[hi:].tolist(), stack_x, stack_y)
            return np.array(stack_x), np.array(stack_y)
    return hx, hy


def _staircase_hull(x: np.ndarray, y: np.ndarray) -> Frontier:
    """Upper concave envelope of a Pareto staircase, extended flat to r1 = 0."""
    if x[0] > 0.0:
        x = np.concatenate([[0.0], x])
        y = np.concatenate([[y[0]], y])
    return Frontier(*_concave_chain(x, y))


def hull_frontier(x, y) -> Frontier:
    """Upper concave envelope of a down-closed point cloud as a :class:`Frontier`.

    The Pareto staircase of the cloud is extracted vectorized (dominated
    points never reach the hull scan), then a monotone-chain pass
    (:func:`_concave_chain`) keeps the concave extreme points.  The result
    is exact for the given points — no sampling grid is involved — and
    extends flat to r1 = 0, matching the down-closed region the points
    describe.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("no pentagons")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("corner coordinates must be finite")
    return _staircase_hull(*_staircase(x, y))


def _sorted_unique(values) -> np.ndarray:
    """Sorted distinct values of a float array, flattened.

    Equal to ``np.unique`` for finite input, bit for bit (the same sort,
    then the first of each run of equal values), but without the
    ``numpy.ma`` import that ``np.unique`` triggers in numpy 2.4.
    """
    values = np.sort(values, axis=None)
    first = np.empty(values.shape, dtype=bool)
    first[:1] = True
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _abscissas_up_to(top: float, *arrays) -> np.ndarray:
    """Sorted distinct values of the arrays and ``top``, up to ``top``."""
    xs = _sorted_unique(np.concatenate([*arrays, [top]]))
    return xs[xs <= top]


def sweep_grid(n: int) -> np.ndarray:
    """Uniform grid on [0, 1] densified geometrically near both endpoints.

    Several bound families have square-root boundary layers at the ends of
    their auxiliary-parameter range, where a uniform grid underestimates the
    envelope noticeably.  Appending short geometric tails (1e-9 up to 1e-2,
    mirrored at 1) resolves those layers at negligible cost.
    """
    if n < 2:
        raise ValueError("grid resolution must be at least 2")
    base = np.linspace(0.0, 1.0, int(n))
    tail = np.geomspace(1e-9, 1e-2, 29)
    return _sorted_unique(np.concatenate([base, tail, 1.0 - tail]))


GridAxis = Union[int, np.ndarray, Sequence[float]]


def grid_axis(
    grid: GridAxis, what: str, lo: float = 0.0, tailed: bool = False
) -> np.ndarray:
    """Normalize an integer resolution or explicit array to a sorted axis in [lo, 1].

    An integer gives that many uniform points, or with ``tailed`` the
    :func:`sweep_grid` of that many points (on [0, 1]).  An explicit array
    is sorted and deduplicated; single points are allowed (they pin a
    parameter to a slice).  ``what`` names the axis in the range error.
    Families swept over [0, 1] have square-root boundary layers at the
    endpoints; pass a :func:`sweep_grid` array to resolve them.
    """
    if isinstance(grid, (int, np.integer)):
        if grid < 2:
            raise ValueError("grid resolution must be at least 2")
        return sweep_grid(int(grid)) if tailed else np.linspace(lo, 1.0, int(grid))
    axis = _sorted_unique(np.asarray(grid, dtype=float))
    if axis.size == 0:
        raise ValueError("empty grid")
    if not np.all(np.isfinite(axis)) or axis[0] < lo or axis[-1] > 1.0:
        raise ValueError(f"{what} values must lie in [{lo:g}, 1]")
    return axis


def grid_point(value: float, what: str, lo: float = 0.0) -> float:
    """One auxiliary-parameter value as a float, checked to lie in ``[lo, 1]``."""
    value = float(value)
    if not lo <= value <= 1.0:
        raise ValueError(f"{what} must lie in [{lo:g}, 1], got {value}")
    return value


def concavify(f: Frontier) -> Frontier:
    """Upper concave envelope (time-sharing hull) of a frontier.

    The output dominates the input pointwise and is idempotent: applying it
    to an already concave frontier returns a pointwise-equal polyline.  It
    is :func:`hull_frontier` of the frontier's vertices.
    """
    return hull_frontier(f.r1, f.r2)


def intersect_frontiers(f: Frontier, g: Frontier) -> Frontier:
    """Pointwise minimum of two frontiers on the intersection of their ranges.

    Every frontier starts at r1 = 0, so the common range is ``[0, min of the
    two right endpoints]`` and is never empty.  The vertices are the
    minimum's breakpoints: each frontier's vertices in that range where it
    attains the minimum (ties kept), the right end, and, between two
    vertices of either where ``f - g`` changes sign, the abscissa where its
    linear interpolation vanishes.  The value at each is
    ``min(f.interp(x), g.interp(x))``.  A vertex where the other frontier
    is strictly lower lies on that frontier's edge, which the kept
    breakpoints carry, so it is dropped: the polyline is the minimum up to
    the rounding of that edge's interpolation.
    """
    top = min(f.max_r1, g.max_r1)
    fr, gr = f.r1[f.r1 <= top], g.r1[g.r1 <= top]
    # The stable sort merges the two sorted runs: an abscissa of both
    # frontiers sits twice in a row, f's copy first.
    xs = np.concatenate([fr, gr])
    order = np.argsort(xs, kind="stable")
    xs, of_f = xs[order], order < fr.size
    first = np.ones(xs.size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    last = np.ones(xs.size, dtype=bool)
    last[:-1] = first[1:]
    in_f, in_g, xs = of_f[first], ~of_f[last], xs[first]

    fx, gx = f.interp(xs), g.interp(xs)
    d = fx - gx
    cross = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    x0, x1 = xs[cross], xs[cross + 1]
    # d[i] / (d[i] - d[i+1]) lies in (0, 1); the clip keeps rounding in the cell.
    at = np.clip(x0 + d[cross] / (d[cross] - d[cross + 1]) * (x1 - x0), x0, x1)
    keep = (in_f & (fx <= gx)) | (in_g & (gx <= fx))
    keep[-1] = True
    xs = _sorted_unique(np.concatenate([xs[keep], at]))
    return Frontier(xs, np.minimum(f.interp(xs), g.interp(xs)))


def contains(outer: Frontier, inner: Frontier, tol: float) -> VerificationReport:
    """Check ``inner ⊆ outer`` within ``tol`` bits.

    Abscissas beyond the outer frontier's r1 range (past a tiny abscissa
    slack) are compared against an absent region, i.e. r2 = 0 there.
    Passes iff the interpolated inner r2 exceeds the outer one by at most
    ``tol`` at every vertex of either frontier in the inner one's range and
    at the first abscissa past the slack.  The difference of two polylines
    is linear between these abscissas, and past the slack the inner r2
    only falls, so no other point can do worse.
    """
    edge = np.nextafter(outer.max_r1 + 1e-9, math.inf)
    xs = _abscissas_up_to(inner.max_r1, inner.r1, outer.r1, [edge])
    inner_vals = inner.interp(xs)
    beyond = xs > outer.max_r1 + 1e-9
    outer_vals = np.where(beyond, 0.0, outer.interp(xs))
    viol = inner_vals - outer_vals
    i = int(np.argmax(viol))
    worst = {
        "r1": float(xs[i]),
        "inner_r2": float(inner_vals[i]),
        "outer_r2": float(outer_vals[i]),
    }
    return VerificationReport(
        name="contains",
        passed=bool(viol[i] <= tol),
        max_discrepancy=float(viol[i]),
        tolerance=float(tol),
        n=int(xs.size),
        worst_case=worst,
    )
