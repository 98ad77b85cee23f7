"""Two-dimensional rate-region geometry.

Regions are exchanged as Pareto frontiers: monotone polylines of
``(r1, r2)`` points with ``r1`` strictly increasing and ``r2``
non-increasing.  Rate constraints at a fixed auxiliary-parameter value form
a :class:`Pentagon` (``R1 <= A``, ``R2 <= B``, ``R1 + R2 <= C``); parametric
families of pentagons are collapsed to one frontier by
:func:`union_frontier`, which evaluates the union of the family at the
pentagons' own corner abscissas and joins them by chords.  All rates are in
bits.
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
    "union_frontier",
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
        # Tolerate float-level wiggles from envelope evaluation, nothing more.
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


def _envelope(
    r1_ext: np.ndarray,
    r2cap: np.ndarray,
    sum_cap: np.ndarray,
    grid: np.ndarray,
) -> np.ndarray:
    """Upper envelope of ``min(r2cap, sum_cap - r1)`` over admissible pentagons.

    Pentagon j is admissible at grid point r1 when ``r1_ext[j] >= r1``.
    Returns ``-inf`` where no pentagon is admissible.  ``grid`` must be
    sorted, distinct and free of NaN.

    The result equals, bit for bit, the dense evaluation of every pentagon
    at every grid point, in O((M + G) log(M + G)) time and O(M + G)
    memory.  It rests on three monotone facts about floating point on a
    sorted grid:

    - Pentagon j is admissible on a grid prefix ``[0, e_j)``, found by
      ``searchsorted``.
    - Pentagon j contributes ``min(r2cap[j], fl(sum_cap[j] - g))``: that is
      ``r2cap[j]`` on a prefix ``[0, min(k_j, e_j))`` and
      ``fl(sum_cap[j] - g)`` on ``[k_j, e_j)``, with ``k_j`` from one
      ``searchsorted`` (below).
    - ``fl(x - g)`` is non-decreasing in ``x``, so the largest rounded
      difference over a set of pentagons is the rounded difference of their
      largest sum cap; only the maximum sum cap over the intervals covering
      each grid point is needed (:func:`_stabbing_max`).

    The knee ``k_j``.  Write ``s, r`` for the two caps and
    ``d = fl(s - r)``.  The exact ``s - r`` rounds to ``d``, so it lies
    strictly between the doubles ``d⁻`` and ``d⁺`` next to ``d``, and
    rounding is monotone:

    - Below ``d``, ``g <= d⁻``, so the exact ``s - g`` exceeds ``r`` and
      ``fl(s - g) >= r``: the value is ``r``.
    - Above ``d``, ``g >= d⁺``, so the exact ``s - g`` is below ``r`` and
      ``fl(s - g) <= r``: the value is ``fl(s - g)``, read as flat or as
      sloped.
    - At ``d`` the predicate ``r <= fl(s - d)`` is evaluated: the value is
      ``r`` where it holds and ``fl(s - d)`` where it fails.

    So ``k_j`` is ``searchsorted(grid, d, "left")``, plus one where that
    grid point is ``d`` and the predicate holds; a distinct grid has at
    most one point at ``d``.

    Maxima involve no rounding, so splitting the maximum over pentagons into
    these two terms changes no bit, save the sign of a zero result when the
    inputs hold negative zeros; :func:`union_frontier_arrays` makes its
    zeros positive first.
    """
    n = grid.size
    ext_end = np.searchsorted(grid, r1_ext, side="right")
    # knee_end = min(k_j, e_j): past d, or at d where the r2 cap exceeds
    # the sum-cap line, capped at the admissible end.
    knee = sum_cap - r2cap
    knee_end = np.searchsorted(grid, knee, side="left")
    at = grid[np.minimum(knee_end, n - 1)]
    knee_end += (at == knee) & (r2cap <= sum_cap - at)
    np.minimum(knee_end, ext_end, out=knee_end)

    # Flat parts: pentagon j holds r2cap[j] on the prefix [0, knee_end[j]).
    flat_max = np.full(n + 1, -np.inf)
    np.maximum.at(flat_max, knee_end, r2cap)
    flat_max = np.maximum.accumulate(flat_max[::-1])[::-1][1:]
    # Sloped parts: sum_cap[j] - r1 on [knee_end[j], ext_end[j]).
    sloped = _stabbing_max(knee_end, ext_end, sum_cap, n) - grid
    return np.maximum(flat_max, sloped)


def _stabbing_max(
    lo: np.ndarray, hi: np.ndarray, val: np.ndarray, n: int
) -> np.ndarray:
    """``out[i] = max(val[j] for j with lo[j] <= i < hi[j])``, ``-inf`` if none.

    A sparse table of power-of-two blocks (Bender and Farach-Colton, 2000),
    held two rows at a time.  An interval of length ``L >= 1`` is covered
    by two blocks of length ``2^k``, ``k = floor(log2 L)``: one starting at
    ``lo`` and one ending at ``hi``.  They overlap unless ``L = 2^k``,
    which changes nothing, because ``max`` is idempotent and involves no
    rounding.  Row ``k`` holds, at each start ``i``, the largest value of
    the blocks ``[i, i + 2^k)`` (``-inf`` past the last start ``n - 2^k``).
    From the top row down, each row is pushed into both halves of its
    blocks, ``below[i] = max(row[i], row[i - 2^(k-1)])``, which keeps
    ``-inf`` past the new last start, and the blocks of the new length are
    scattered into it.  Row 0 is the answer.
    """
    live = lo < hi
    lo, hi, val = lo[live], hi[live], val[live]
    # frexp's exponent of a length in [2^k, 2^(k+1)) is k + 1, exactly.
    level = np.frexp(hi - lo)[1] - 1
    # Both blocks of every interval, grouped by level: group k is
    # start[bounds[k]:bounds[k + 1]].
    bounds = np.concatenate([[0], np.cumsum(2 * np.bincount(level))])
    order = np.argsort(np.concatenate([level, level]), kind="stable")
    hi -= np.left_shift(1, level, dtype=np.intp)
    # Each copy is dropped before the next is made, to keep the peak low.
    start = np.concatenate([lo, hi])[order]
    del lo, hi, level
    val = np.concatenate([val, val])[order]
    del order
    row, below = np.full(n, -np.inf), np.empty(n)
    top = bounds.size - 2
    for k in range(top, -1, -1):
        if k < top:
            width = 1 << k
            below[:width] = row[:width]
            np.maximum(row[width:], row[:-width], out=below[width:])
            row, below = below, row
        j = slice(bounds[k], bounds[k + 1])
        np.maximum.at(row, start[j], val[j])
    return row


def union_frontier(pentagons: Sequence[Pentagon]) -> Frontier:
    """Union of a pentagon family as a :class:`Frontier`.

    See :func:`union_frontier_arrays`.  No convexification is applied.
    """
    pentagons = list(pentagons)
    if not pentagons:
        raise ValueError("no pentagons")
    return union_frontier_arrays(
        np.array([p.r1_max for p in pentagons]),
        np.array([p.r2_max for p in pentagons]),
        np.array([p.sum_max for p in pentagons]),
    )


def union_frontier_arrays(
    r1_max: np.ndarray, r2_max: np.ndarray, sum_max: np.ndarray
) -> Frontier:
    """Union of a pentagon family, given as parallel constraint arrays.

    The frontier's vertices are the family's corner abscissas, sorted and
    distinct: 0, every pentagon's r1 extent and every pentagon's knee,
    where its sum cap meets its r2 cap (clamped to its extent).  At each
    vertex the r2 value is that of the union, the largest
    ``min(r2 cap, sum cap - r1)`` over the pentagons whose extent reaches
    it.  Between two adjacent vertices the frontier is their chord.  Time
    sharing achieves the chord of two achievable corners, so an inner bound
    stays achievable.  No pentagon has a knee or an extent strictly between
    two adjacent vertices, so there the union is a maximum of flat and
    slope -1 pieces, a convex function, which lies on or under the chord:
    an outer bound stays an outer bound.  For a family sampled from one
    continuous parameter the frontier is the linear interpolation of the
    family's corner curve.

    Arrays, not :class:`Pentagon` objects, so that callers sweeping
    thousands of auxiliary parameters never materialize the family.  The
    sum cap is normalized and NaN and negative constraints are rejected,
    as by :class:`Pentagon`; negative zeros count as zeros, so the
    frontier starts at ``+0.0``.
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
    sum_cap = np.minimum(s, a + b)
    r1_ext = np.minimum(a, sum_cap)
    r2cap = np.minimum(b, sum_cap)
    if not math.isfinite(float(r1_ext.max())):
        raise ValueError("region unbounded in r1")
    if not math.isfinite(float(r2cap.max())):
        raise ValueError("region unbounded in r2")
    knees = np.minimum(sum_cap - r2cap, r1_ext)
    r1 = _sorted_unique(np.concatenate([[0.0], r1_ext, knees]))
    return Frontier(r1, _envelope(r1_ext, r2cap, sum_cap, r1))


def _corner_kinds(r1_max, r2_max, sum_max):
    """Both Pareto corners of each pentagon, as two ``(x, y)`` kinds.

    The first kind hugs the r2 cap, the second the r1 cap (they coincide
    for rectangles); degenerate shapes clamp at the axes exactly as
    :func:`pentagon_corners` does.  Elementwise, so the caps may be any
    broadcast-compatible arrays and each coordinate has their broadcast
    shape.
    """
    r1_max, r2_max, sum_max = np.broadcast_arrays(r1_max, r2_max, sum_max)
    sum_cap = r1_max + r2_max
    np.minimum(sum_max, sum_cap, out=sum_cap)
    y1 = np.minimum(r2_max, sum_cap)
    x1 = np.subtract(sum_cap, r2_max)
    np.maximum(x1, 0.0, out=x1)
    x2 = np.minimum(r1_max, sum_cap)
    y2 = np.subtract(sum_cap, x2, out=sum_cap)
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


def _staircase(x: np.ndarray, y: np.ndarray):
    """Pareto staircase of a point cloud: x increasing, y strictly decreasing.

    A point survives iff no other point has larger x and y at least as
    large, or equal x and larger y; of exact duplicates one copy is kept.
    """
    order = np.lexsort((-y, x))
    x, y = x[order], y[order]
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] > x[:-1]
    x, y = x[first], y[first]
    suffix = np.maximum.accumulate(y[::-1])[::-1]
    keep = np.empty(y.size, dtype=bool)
    keep[:-1] = y[:-1] > suffix[1:]
    keep[-1] = True
    return x[keep], y[keep]


def _witness_filter(wx: np.ndarray, wy: np.ndarray):
    """A filter that drops only points a witness beats (``x_w >= x``, ``y_w > y``).

    ``(wx, wy)`` is a :func:`_staircase`.  Returns ``prefilter(x, y)``,
    which takes finite arrays of one shape and returns the flat indices, in
    ``x.ravel()`` order, of the points it keeps: every point no witness
    beats, and some that one does.  Callers take the exact staircase of the
    survivors.

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
        return lambda x, y: np.arange(x.size)

    def bucket(v):
        v = np.clip(v, lo, hi)
        v -= lo
        v /= span
        v *= _BUCKETS
        return v.astype(np.intp)

    ext = np.append(wy, -np.inf)
    table = ext[np.searchsorted(bucket(wx), np.arange(_BUCKETS + 1), side="right")]
    return lambda x, y: np.flatnonzero(table[bucket(x)] <= y)


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
# would cost m rounds; past the last round the certificate stops at the
# dent and the loop resumes there.
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
    3. Resume.  Otherwise let segment ``t`` be the first that is not
       simple.  Segments ``0 .. t - 1`` are, so by the same induction the
       loop's stack is exactly ``h_0 .. h_t`` right after ``h_t`` is
       pushed, and the loop's run from there on depends on nothing else:
       :func:`_monotone_chain` resumes from that certified stack over the
       points past ``h_t``.

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
    if not bad.any():
        return hx, hy
    # The first failing position p is point p + 1, in segment t: h_t <= p.
    t = np.searchsorted(h, np.argmax(bad), side="right") - 1
    return _chain_arrays(x[h[t] + 1 :], y[h[t] + 1 :], hx[: t + 1], hy[: t + 1])


def _chain_arrays(x, y, hull_x, hull_y):
    """:func:`_monotone_chain` of arrays: push ``x, y`` onto the stack ``hull``."""
    hull_x, hull_y = _monotone_chain(
        x.tolist(), y.tolist(), hull_x.tolist(), hull_y.tolist()
    )
    return np.array(hull_x), np.array(hull_y)


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
    to an already concave frontier returns a pointwise-equal polyline.

    A frontier is sorted with strictly increasing r1 and non-increasing r2,
    so its Pareto staircase is the points with ``r2[i] > r2[i + 1]``, and
    the last point: the result is :func:`hull_frontier` of the frontier's
    vertices, bit for bit.
    """
    x, y = f.r1, f.r2
    keep = np.empty(x.size, dtype=bool)
    keep[:-1] = y[:-1] > y[1:]
    keep[-1] = True
    return _staircase_hull(x[keep], y[keep])


def intersect_frontiers(f: Frontier, g: Frontier) -> Frontier:
    """Pointwise minimum of two frontiers on the intersection of their ranges.

    Every frontier starts at r1 = 0, so the common range is ``[0, min of the
    two right endpoints]`` and is never empty.  The vertices are both
    frontiers' vertices in that range and, between two of them where
    ``f - g`` changes sign, the abscissa where its linear interpolation
    vanishes.
    """
    xs = _abscissas_up_to(min(f.max_r1, g.max_r1), f.r1, g.r1)
    d = f.interp(xs) - g.interp(xs)
    cross = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    x0, x1 = xs[cross], xs[cross + 1]
    # d[i] / (d[i] - d[i+1]) lies in (0, 1); the clip keeps rounding in the cell.
    at = np.clip(x0 + d[cross] / (d[cross] - d[cross + 1]) * (x1 - x0), x0, x1)
    xs = _sorted_unique(np.concatenate([xs, at]))
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
