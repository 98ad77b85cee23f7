"""Outer bounds on the cognitive-channel rate region, and the bound-family record.

Each bound family is one :class:`Family` record, and
:data:`~cogregions.inner_bounds.FAMILIES` keys the seven by their
command-line names.  A one-parameter family's one vectorized caps function,
``(params, t) -> (r1, r2, sum)``, gives both its closed-form
:class:`~cogregions.region_geometry.Pentagon` at one split
(:meth:`Family.pentagon`) and the
:class:`~cogregions.region_geometry.Frontier` of its union over a grid
(:meth:`Family.union`), so each rate formula is written once.  Frontier
builders accept either integer grid resolutions or explicit parameter
arrays, so two families can be evaluated on matched grids and compared
corner by corner.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .channel import ChannelParams, gaussian_rate
from .region_geometry import (
    Frontier,
    GridAxis,
    Pentagon,
    _corner_kinds,
    _staircase,
    _witness_filter,
    grid_axis,
    grid_point,
    hull_frontier,
    intersect_frontiers,
    union_frontier_arrays,
)

__all__ = [
    "DEFAULT_ALPHA_POINTS",
    "DEFAULT_SPLIT_POINTS",
    "CovarianceSplit",
    "Family",
    "unifying_region",
    "bergmans_frontier",
    "cor2_region",
    "bc_dms_region",
    "th1_bound",
    "bc_pr_bound",
]

# Default resolution of one-parameter (power-split) families.
DEFAULT_ALPHA_POINTS = 1001

# Default points per axis of the four-parameter covariance-split grid.
DEFAULT_SPLIT_POINTS = 21


class Family(NamedTuple):
    """One bound family, as its builder, its pentagons and the command line read it.

    Every callable in the record takes the :class:`ChannelParams` first.
    The builder is looked up by name at each :meth:`build`, so a wrapper
    installed over that name sees the call.  ``caps`` broadcasts over the
    split: one power split ``t`` in [0, 1], named ``axis``, or the four
    parameters of a :class:`CovarianceSplit`.  A split family reads its
    points from form tables instead (see :func:`_split_hull`):
    ``tables(layer, alpha1, alpha2, rho)`` gives the columns of one
    layer's table, each quadratic form evaluated once on the three split
    axes that layer reads; ``corners`` takes the table rows of splits,
    layer 1's columns then layer 2's, and returns groups, the caps ``(r1,
    r2, sum)`` of a pentagon, whose two corners are its points, or one
    kind of point ``(x, y)``; ``line`` takes the rows of ``(alpha1,
    alpha2, rho1)`` lines, layer 2 at the rho2 axis's first and last
    values, and returns per group the largest value of each cap on each
    line, every cap monotone in rho2 (see :func:`_line_corners`), so
    :func:`_split_hull` can skip the rho2 lines the sampled hull already
    beats.  Both may write into the rows they are given.  A split family's
    ``pins`` names, per kind of point, the split axis (``"rho1"`` or
    ``"rho2"``) at whose largest value the kind's point is at least its
    point at any other value of that axis in both coordinates, the rest of
    the split fixed, or ``None``; :func:`_split_hull` runs each pinned kind
    on the mesh with that axis cut to its last point.  Every point so
    dropped is beaten or an exact copy, so the hull keeps its bits: each
    rounded step up to ``log1p`` is monotone, and ``log1p``, within a few
    ulps, would move a vertex by no more where it is not.  Where
    ``single_split`` holds the family's one split is ``t = 1``: an integer
    grid is cut to it and any other ``t`` is refused.
    """

    role: str  # "outer", "inner", or "reference" (a containment reference)
    builder: str  # "module.function", taking params and the grids
    grids: Tuple[str, ...]  # the grid flags the builder takes by keyword
    caps: Optional[Callable] = None  # (params, *split) -> (r1, r2, sum)
    tables: Optional[Callable] = None  # (params, layer, alpha1, alpha2, rho) -> columns
    corners: Optional[Callable] = None  # (params, *rows) -> pentagons or points
    line: Optional[Callable] = None  # (params, *rows at both ends) -> line maxima
    pins: Tuple[Optional[str], ...] = ()  # per kind of point: its pinned axis
    invalid: Callable = lambda params: False  # where the family does not apply
    single_split: Callable = lambda params: False
    error: str = ""  # the ValueError message where it does not apply
    axis: str = "alpha"
    # The family whose pentagons this one's meet split for split at a = 0
    # under beta_of_alpha.
    matched: Optional[str] = None

    def build(self, params: ChannelParams, grids: dict) -> Frontier:
        """The family's frontier from its builder, with its grid flags from ``grids``."""
        module, name = self.builder.split(".")
        builder = getattr(sys.modules[f"{__package__}.{module}"], name)
        return builder(params, **{key: grids[key] for key in self.grids})

    def _check(self, params: ChannelParams, split=1.0) -> None:
        refused = self.single_split(params) and np.any(np.less(split, 1.0))
        if self.invalid(params) or refused:
            raise ValueError(self.error)

    def pentagon(self, params: ChannelParams, t) -> Pentagon:
        """The pentagon at one split: a power split ``t`` or a :class:`CovarianceSplit`."""
        split = astuple(t) if isinstance(t, CovarianceSplit) else (grid_point(t, self.axis),)
        self._check(params, split)
        return Pentagon(*self.caps(params, *split))

    def union(self, params: ChannelParams, grid) -> Frontier:
        """Union of the pentagons over a power-split grid, as the concave hull
        of their corners (see
        :func:`~cogregions.region_geometry.union_frontier_arrays`).
        """
        t = grid_axis(grid, f"{self.axis} grid")
        if isinstance(grid, (int, np.integer)) and self.single_split(params):
            t = t[-1:]
        self._check(params, t)
        return union_frontier_arrays(*self.caps(params, t))

    def hull(self, params: ChannelParams, split_grid) -> Frontier:
        """:func:`hull_frontier` of a split family's points over a split grid."""
        self._check(params)
        return _split_hull(
            params,
            split_grid,
            *(functools.partial(f, params) for f in (self.corners, self.line, self.tables)),
            self.pins,
        )


def _cooperative_rate(params: ChannelParams, share):
    """``log2(1 + p2 + b^2 p1 + 2 sqrt(share b^2 p1 p2))``: receiver 2's rate
    for both messages when a fraction ``share`` of the cognitive power is
    coherent with the primary signal."""
    p1, p2 = params.p1, params.p2
    b2 = params.b * params.b
    return gaussian_rate(p2 + b2 * p1 + 2.0 * np.sqrt(share * b2 * p1 * p2))


def _coherent_rate(p2: float, copy_power):
    """``log2(1 + (sqrt(p2) + sqrt(copy_power))^2)``: the primary signal
    reinforced at receiver 2 by a coherent copy of received power
    ``copy_power``."""
    amplitude = np.sqrt(p2) + np.sqrt(copy_power)
    return gaussian_rate(amplitude * amplitude)


def _unifying_caps(params: ChannelParams, alpha):
    """``(r1, r2, sum)`` caps of the unifying family; broadcasts over ``alpha``."""
    b2 = params.b * params.b
    r1_cap = gaussian_rate(alpha * params.p1)
    r2_cap = _cooperative_rate(params, 1.0 - alpha)
    excess = np.maximum(r1_cap - gaussian_rate(b2 * alpha * params.p1), 0.0)
    return r1_cap, r2_cap, r2_cap + excess


# The unifying family: a one-parameter outer bound valid in every
# interference regime.  ``alpha`` is the fraction of cognitive power
# assigned to the cognitive message.  The sum cap equals the r2 cap plus
# the portion of the r1 cap that receiver 2 cannot resolve by itself,
# ``[log2(1+alpha*p1) - log2(1+b^2*alpha*p1)]^+``; the excess vanishes for
# ``|b| >= 1``, which merges the weak- and strong-interference forms into
# one expression.  This convention is pinned by two closed-form
# requirements: at ``p2 = 0``, ``|b| > 1`` the union over ``alpha`` must
# collapse exactly to the pentagon ``r1 <= log2(1+p1)``, ``r1+r2 <=
# log2(1+b^2*p1)``, and for ``|b| >= 1`` the sum cap must coincide with
# Cor. 2's at every ``alpha``.
_UNIFYING = Family(
    "outer", "outer_bounds.unifying_region", ("alpha_grid",), _unifying_caps
)


def unifying_region(
    params: ChannelParams, alpha_grid: GridAxis = DEFAULT_ALPHA_POINTS
) -> Frontier:
    """Corner hull of the unifying family over a power-split grid; see :meth:`Family.union`."""
    return _UNIFYING.union(params, alpha_grid)


def _bergmans_caps(params: ChannelParams, alpha):
    """``(r1, r2, sum)`` caps of the Bergmans reference; the sum cap is absent."""
    p1 = params.p1
    abar = 1.0 - alpha
    r1_cap = gaussian_rate(alpha * p1 / (abar * p1 + 1.0))
    r2_cap = gaussian_rate(params.b * params.b * abar * p1)
    return r1_cap, r2_cap, np.full(np.shape(alpha), math.inf)


# The Bergmans reference: rectangles obtained by splitting only the
# cognitive power.  A degraded-broadcast allocation of ``p1``: fraction
# ``alpha`` carries the r1 message with the remainder treated as noise, and
# the remainder reaches receiver 2 through the cross gain.  No sum
# constraint.  This is a containment reference, its union strictly inside
# the unifying family's, not an outer bound in its own right.  It reads
# ``p1`` and ``b`` alone.
_BERGMANS = Family(
    "reference", "outer_bounds.bergmans_frontier", ("alpha_grid",), _bergmans_caps
)


def bergmans_frontier(
    params: ChannelParams, alpha_grid: GridAxis = DEFAULT_ALPHA_POINTS
) -> Frontier:
    """Corner hull of the Bergmans reference rectangles over a power-split grid."""
    return _BERGMANS.union(params, alpha_grid)


def _cor2_caps(params: ChannelParams, alpha):
    """``(r1, r2, sum)`` caps of Cor. 2's family; broadcasts over ``alpha``."""
    p1 = params.p1
    copy_power = params.b * params.b * p1 * (1.0 - alpha) / (1.0 + alpha * p1)
    return (
        gaussian_rate(alpha * p1),
        _coherent_rate(params.p2, copy_power),
        _cooperative_rate(params, 1.0 - alpha),
    )


# Cor. 2: the closed-form outer bound for the strong-interference Z
# configuration.  Valid only when receiver 1 sees no interference
# (``a = 0``) and receiver 2 sees strong interference (``|b| >= 1``).  The
# r1 cap and the sum cap coincide with the unifying family's; the r2 cap is
# tighter for every ``alpha > 0`` and equals the sum cap identically at
# ``alpha = 0``.
_COR2 = Family(
    "outer",
    "outer_bounds.cor2_region",
    ("alpha_grid",),
    _cor2_caps,
    invalid=lambda params: params.a != 0.0 or params.b < 1.0,
    error="Cor.2 requires Z strong interference",
)


def cor2_region(
    params: ChannelParams, alpha_grid: GridAxis = DEFAULT_ALPHA_POINTS
) -> Frontier:
    """Corner hull of Cor. 2's family over a power-split grid; see :meth:`Family.union`."""
    return _COR2.union(params, alpha_grid)


@dataclass(frozen=True)
class CovarianceSplit:
    """Two-layer power-and-correlation split of the joint input covariance.

    Layer 1 takes fractions ``alpha1`` / ``alpha2`` of the two transmit
    powers with internal cross-correlation ``rho1``; layer 2 takes the
    remainders with correlation ``rho2``.  Each layer covariance is positive
    semidefinite whenever the fields are in range, the layer diagonals add
    back to the per-user powers by construction, and the correlation of the
    summed layers is the derived :attr:`rho`.
    """

    alpha1: float
    alpha2: float
    rho1: float
    rho2: float

    def __post_init__(self) -> None:
        ranges = (("alpha1", 0.0), ("alpha2", 0.0), ("rho1", -1.0), ("rho2", -1.0))
        for name, lo in ranges:
            object.__setattr__(self, name, grid_point(getattr(self, name), name, lo))

    @property
    def rho(self) -> float:
        """Correlation coefficient of the summed layers at unit powers."""
        alpha1, alpha2, rho1, rho2 = astuple(self)
        return float(_rho_term(1, alpha1, alpha2, rho1) + _rho_term(2, alpha1, alpha2, rho2))


def _fractions(layer: int, alpha1, alpha2):
    """The fractions ``(f1, f2)`` of the two powers that layer 1 or 2 takes."""
    return (alpha1, alpha2) if layer == 1 else (1.0 - alpha1, 1.0 - alpha2)


def _rho_term(layer: int, alpha1, alpha2, rho):
    """One layer's term of the split's total correlation: its covariance at unit powers."""
    f1, f2 = _fractions(layer, alpha1, alpha2)
    return rho * np.sqrt(f1 * f2)


def _layer_forms(params: ChannelParams, layer: int, alpha1, alpha2, rho):
    """``(q1, q2)``: the power of one layer of a split at receivers 1 and 2.

    Each is the quadratic form of a receive vector against the layer
    covariance, so it reads the layer's own ``(alpha1, alpha2, rho)`` and
    nothing of the other layer's correlation.  Broadcasts over array
    inputs.  The total input power at receiver 2 is the sum of the two
    layers' ``q2``, since the form is linear in the covariance.

    Each form is clamped at zero.  The layer covariances are PSD, so a
    negative value is only rounding: where a rank-one layer (``|rho| = 1``)
    nearly cancels, the expanded form can come out near ``-eps * power``,
    and below ``-1`` the rate's ``log1p`` would be NaN.
    """
    f1, f2 = _fractions(layer, alpha1, alpha2)
    v1, v2 = f1 * params.p1, f2 * params.p2
    cov = rho * np.sqrt(v1 * v2)

    def form(h1, h2):
        q = h1 * h1 * v1 + 2.0 * h1 * h2 * cov + h2 * h2 * v2
        return np.maximum(q, 0.0, out=q if isinstance(q, np.ndarray) else None)

    return form(1.0, params.a), form(params.b, 1.0)


def _split_forms(params: ChannelParams, alpha1, alpha2, rho1, rho2):
    """``(q1_layer1, q1_layer2, q2_layer1, q2_layer2)`` of each split (see
    :func:`_layer_forms`); broadcasts over the split."""
    q1l1, q2l1 = _layer_forms(params, 1, alpha1, alpha2, rho1)
    q1l2, q2l2 = _layer_forms(params, 2, alpha1, alpha2, rho2)
    return q1l1, q1l2, q2l1, q2l2


def _split_caps(params: ChannelParams, alpha1, alpha2, rho1, rho2):
    """``(r1, r2, sum)`` caps of the broadcast pentagons; broadcasts over the split.

    Layer 2 is encoded last: ``log2(1 + q1l1 / (1 + q1l2))``,
    ``log2(1 + q2l2)`` and ``log2(1 + q2l1 + q2l2)``, as
    :func:`_pentagon_caps` reads them from the form tables.
    """
    q1l1, q1l2, q2l1, q2l2 = _split_forms(params, alpha1, alpha2, rho1, rho2)
    return (
        gaussian_rate(q1l1 / (1.0 + q1l2)),
        gaussian_rate(q2l2),
        gaussian_rate(q2l1 + q2l2),
    )


def _th1_cut(params: ChannelParams, rho):
    """``log2(1 + Var(X1|X2))`` at total correlations ``rho``, in rho's buffer.

    ``Var(X1|X2)`` is ``p1*(1-rho^2)`` with the split's total correlation
    ``rho`` (see :attr:`CovarianceSplit.rho`), or ``p1`` when ``p2 = 0``:
    there is no X2 to condition on, whatever ``rho`` the split nominally
    carries.  ``rho`` is an array the cut overwrites.
    """
    if params.p2 == 0.0:
        return gaussian_rate(params.p1)
    # p1 * max(1 - rho^2, 0), written into rho's own buffer.
    var = np.multiply(rho, rho, out=rho)
    np.subtract(1.0, var, out=var)
    np.maximum(var, 0.0, out=var)
    return gaussian_rate(np.multiply(params.p1, var, out=var), out=var)


def _split_mesh(params: ChannelParams, split_grid):
    """The four 1-D axes ``(alpha1, alpha2, rho1, rho2)`` of a split grid.

    An integer gives that many uniform points per axis; a length-4 sequence
    gives per-axis resolutions or explicit arrays in that order.
    Power-fraction axes span [0, 1], correlation axes span [-1, 1].

    An axis the caps do not depend on is cut to its first point.  With
    ``p2 = 0`` each layer's X2 variance and cross term are zeros, and a
    zero added to a quadratic form changes no bit, so every cap depends on
    ``alpha1`` alone; with ``p1 = 0`` every cap depends on ``alpha2`` alone
    and the Theorem-1 cut is ``log2(1 + 0) = 0``.  The splits dropped along
    the other axes repeat the kept ones' points bit for bit, so the hull
    does not change (see :func:`_split_hull`).
    """
    if isinstance(split_grid, (int, np.integer)):
        spec: Tuple = (split_grid,) * 4
    else:
        spec = tuple(split_grid)
        if len(spec) != 4:
            raise ValueError(
                "split grid must be an int or four axes (alpha1, alpha2, rho1, rho2)"
            )
    axes = [
        grid_axis(entry, f"split grid axis {i}", lo=lo)
        for i, (entry, lo) in enumerate(zip(spec, (0.0, 0.0, -1.0, -1.0)))
    ]
    has_p1, has_p2 = params.p1 != 0.0, params.p2 != 0.0
    needed = (has_p1, has_p2, has_p1 and has_p2, has_p1 and has_p2)
    return [axis if need else axis[:1] for axis, need in zip(axes, needed)]


# Most splits one evaluation of the streamed split mesh spans, unless a
# single rho2 line holds more (see _split_hull).
_BLOCK_SPLITS = 1 << 15

# Least stride of the split sample whose staircase prefilters the mesh in
# _split_hull; odd, so that the sample reaches both rho2 ends.
_WITNESS_STRIDE = 17

# _split_hull raises each line's bound corner by this times one plus the
# line's largest cap: libm's log1p is within a few ulps but not proven
# monotone.
_LINE_MARGIN = 16.0 * np.finfo(float).eps


def _line_corners(groups):
    """Each line's raised bound corner per group, from the group's line maxima.

    ``groups`` is what a :class:`Family`'s ``line`` returns: per group,
    the largest value each cap takes on each line.  A group ``(X, Y)``
    bounds points by ``(X, Y)``; a group ``(R1, R2, S)`` bounds a
    pentagon's corners by ``(min(R1, S), min(R2, S))``.  Each coordinate
    is raised by ``_LINE_MARGIN * (1 + largest cap)``.
    """
    for caps in groups:
        x, y, *sum_cap = caps
        if sum_cap:
            x, y = np.minimum(x, sum_cap[0]), np.minimum(y, sum_cap[0])
        margin = _LINE_MARGIN * (1.0 + functools.reduce(np.maximum, caps))
        # A cap that is not finite makes a corner that is not finite; at the
        # largest float (fmin drops NaN) it keeps the line, whose evaluation
        # then refuses it.
        top = np.finfo(float).max
        yield tuple(np.fmin(v + margin, top) for v in (x, y))


# The split axes in the order of a split grid, by the names pins give them.
_SPLIT_AXES = ("alpha1", "alpha2", "rho1", "rho2")


def _table(columns, shape, pool: dict, key) -> np.ndarray:
    """The columns a family's ``tables`` returns, broadcast to ``shape`` and
    stacked, shape ``(columns, *shape)``, in the buffer ``key`` of ``pool``
    (see :func:`_buffer`)."""
    shape = (len(columns), *shape)
    table = _buffer(pool, key, math.prod(shape)).reshape(shape)
    for column, values in zip(table, columns):
        column[...] = values
    return table


def _buffer(pool: dict, key, size: int) -> np.ndarray:
    """The first ``size`` entries of ``pool[key]``, a flat buffer that
    grows to the largest size asked of it."""
    if key not in pool or pool[key].size < size:
        pool[key] = np.empty(size)
    return pool[key][:size]


def _gather(table: np.ndarray, rows: np.ndarray, pool: dict, key, axis: int = 1):
    """``table``'s rows (along ``axis``) at ``rows``, written into the
    buffer ``key`` of ``pool`` (see :func:`_buffer`) in the table's layout."""
    shape = list(table.shape)
    shape[axis] = rows.size
    out = _buffer(pool, key, math.prod(shape)).reshape(shape)
    return np.take(table, rows, axis=axis, out=out, mode="clip")


def _finite(*arrays):
    """The arrays broadcast against each other; refused unless finite."""
    arrays = np.broadcast_arrays(*arrays)
    if not all(np.all(np.isfinite(v)) for v in arrays):
        raise ValueError("corner coordinates must be finite")
    return arrays


def _points_of(groups):
    """Every kind of point of a callable's groups: a pentagon ``(r1, r2,
    sum)`` gives its two corner kinds, a point ``(x, y)`` itself."""
    for group in groups:
        yield from _corner_kinds(*group) if len(group) == 3 else (group,)


def _lines_kept(layer1: np.ndarray, ends: np.ndarray, bound, prefilter, pool) -> np.ndarray:
    """The lines of a slab whose bound corners the bucket test keeps (step
    2 of :func:`_split_hull`), in flat order.

    ``ends`` is layer 2's table at the rho2 axis's two ends, shape
    ``(columns, 2, pairs)``: the ends lead, so that each end of a column
    is one contiguous row of a chunk.
    """
    m1 = layer1.shape[1] // ends.shape[2]
    lines = np.arange(layer1.shape[1])
    keep = np.zeros(lines.size, dtype=bool)
    step = max(_BLOCK_SPLITS // 2, 1)
    for start in range(0, lines.size, step):
        index = lines[start : start + step]
        rows1 = _gather(layer1, index, pool, 1)
        rows2 = _gather(ends, index // m1, pool, 2, axis=2)
        for x, y in _line_corners(bound(*rows1, *rows2)):
            keep[index[prefilter(x, y)]] = True
    return np.flatnonzero(keep)


def _stream(layer1: np.ndarray, layer2, lines, m1: int, m2: int, evaluate, prefilter, pool):
    """The points of the given lines of a slab that the bucket test keeps
    (step 3 of :func:`_split_hull`): ``(group, corner, x, y)`` per block,
    group and corner kind, in flat order within each.

    Line ``l`` reads row ``l`` of layer 1 and, in ``layer2(pairs)``, the
    table of layer 2 on the ``(alpha1, alpha2)`` pairs of a block's lines,
    the row of its pair ``l // m1``.
    """
    step = max(_BLOCK_SPLITS // m2, 1)
    for start in range(0, lines.size, step):
        index = lines[start : start + step]
        pair = index // m1
        new = np.ones(pair.size, dtype=bool)
        new[1:] = pair[1:] != pair[:-1]
        rows1 = _gather(layer1, index, pool, 1)[:, :, None]
        rows2 = _gather(layer2(pair[new], pool), np.cumsum(new) - 1, pool, 2)
        for g, group in enumerate(evaluate(*rows1, *rows2)):
            if len(group) == 2:
                x, y = _finite(*group)
                keep = prefilter(x, y)
                yield g, 0, x.take(keep), y.take(keep)
                continue
            # A pentagon: its box corner first, then the corners of the
            # splits whose box the test keeps.
            caps = _finite(*group)
            keep = prefilter(*caps)
            for corner, (x, y) in enumerate(_corner_kinds(*(c.take(keep) for c in caps))):
                keep = prefilter(x, y)
                yield g, corner, x[keep], y[keep]


def _layer2(tables, alpha1, alpha2, rho2, pairs, pool) -> np.ndarray:
    """Layer 2's table on the given ``(alpha1, alpha2)`` pairs, in the
    buffer ``"layer 2"`` of ``pool``: shape ``(columns, pairs, rho2)``."""
    i1, i2 = np.divmod(pairs, alpha2.size)
    columns = tables(2, alpha1[i1, None], alpha2[i2, None], rho2)
    return _table(columns, (pairs.size, rho2.size), pool, "layer 2")


def _survivors(mesh, tables, evaluate, bound, prefilter):
    """Steps 2 and 3 of :func:`_split_hull` on one mesh, a slab of alpha1
    at a time: ``(group, corner, x, y)`` pieces in flat order."""
    alpha1, alpha2, rho1, rho2 = mesh
    # Buffers allocated once per mesh: a slab's tables, and the rows that
    # the line step and the stream gather in turn.
    pool = {}
    slab = max(_BLOCK_SPLITS // (alpha2.size * rho1.size), 1)
    for start in range(0, alpha1.size, slab):
        rows = alpha1[start : start + slab]
        shape = (rows.size, alpha2.size)
        layer1 = tables(1, rows[:, None, None], alpha2[:, None], rho1)
        layer1 = _table(layer1, (*shape, rho1.size), pool, "layer 1").reshape(len(layer1), -1)
        lines = np.arange(layer1.shape[1])
        if rho2.size > 1:
            ends = tables(2, rows[:, None], alpha2, rho2[[0, -1], None, None])
            ends = _table(ends, (2, *shape), pool, "ends").reshape(len(ends), 2, -1)
            lines = _lines_kept(layer1, ends, bound, prefilter, pool)
        layer2 = functools.partial(_layer2, tables, rows, alpha2, rho2)
        yield from _stream(layer1, layer2, lines, rho1.size, rho2.size, evaluate, prefilter, pool)


def _split_hull(
    params: ChannelParams, split_grid, points, line, tables, pins=()
) -> Frontier:
    """:func:`hull_frontier` of a point cloud spanning every split of a split grid.

    The quadratic forms of a layer read that layer's ``(alpha1, alpha2,
    rho)`` alone, three of the four split axes.  So ``tables(layer,
    alpha1, alpha2, rho)`` (layer 1 or 2) broadcasts over those three and
    returns the layer's columns, evaluated on those axes, not per split:
    layer 1 once per ``(alpha1, alpha2, rho1)`` line, layer 2 at the rho2
    ends of every line's pair and, on the whole rho2 axis, once per
    ``(alpha1, alpha2)`` pair of each block's lines.  ``points(*layer1, *layer2)`` takes
    the two layers' table rows of splits, which broadcast to the shape of
    the splits, and returns groups: a pentagon's caps ``(r1, r2, sum)``,
    whose points are its two corners (:func:`_corner_kinds`), or one kind
    of point ``(x, y)``.  It may write into the rows, which are copies.
    The cloud is every split's first kind, then every split's second, and
    so on, as the dense builders concatenated it.  ``line`` takes the rows
    of lines, layer 2 at the rho2 axis's two ends (first end first along
    the leading axis), and returns per group the largest value each cap
    takes on each line, every cap being monotone in rho2 (see
    :func:`_line_corners`).

    ``pins`` names, per kind, ``"rho1"`` or ``"rho2"`` where that axis's
    largest value dominates the rest of it for that kind (see
    :class:`Family`), or ``None``; empty, no kind is pinned.  Each kind
    runs only on its own mesh, the split grid with its pinned axis cut to
    its last point, and reads tables built on that mesh.  Kinds that share
    a pin share a mesh; where the kinds fall on more than one mesh,
    ``points`` and ``line`` take ``kinds``, the indices of the kinds to
    return or to bound.  The cloud is then every kind on its own mesh,
    kinds in order.

    The result is the cloud's hull bit for bit, but neither the cloud nor
    the caps of a whole mesh are ever built.  A mesh is read a slab of
    alpha1 at a time, whose layer-1 table holds at most ``_BLOCK_SPLITS``
    lines or one alpha1 row of them; each evaluation spans at most
    ``_BLOCK_SPLITS`` splits, or one line, and writes into buffers
    allocated once per mesh.  Memory is a slab's tables, those buffers, a
    flag and an index per line of a slab, and the survivors:

    1. Witness: on each mesh, the points of every ``stride``-th split by
       flat index with the rho2 axis cut to its two ends, from ``tables``
       on the splits' gathered parameters, and the staircase of all of
       them.  The hull's vertices cluster at those rank-one layers
       (``|rho2| = 1`` on the default axis), so a sample there beats more.
       The stride is odd, so it reaches both ends; it is
       ``_WITNESS_STRIDE``, or larger where that mesh has more than
       ``_WITNESS_STRIDE * _BLOCK_SPLITS`` splits, so no sample is more
       than ``_BLOCK_SPLITS`` splits.  The staircase gives one bucket
       test, :func:`_witness_filter`, that drops most points some witness
       beats (``x_w >= x`` and ``y_w > y``) and only those.
    2. Lines: on a mesh with two rho2 points or more, ``line`` on the rows
       of every ``(alpha1, alpha2, rho1)`` line of the slab, in chunks of
       at most ``_BLOCK_SPLITS // 2`` lines, and the raised corners of
       :func:`_line_corners` through the bucket test.  A line none of
       whose corners survives is never evaluated.  With a witness span of
       zero every line is kept.  A line of one split is kept unread: its
       bound would cost what its points do.
    3. Stream: the slab's other lines in blocks of whole lines in flat
       ``ij`` order, each block's layer-2 table built on its lines' pairs
       and the rows gathered from the tables.  A pentagon's box corner
       ``(min(r1, sum), min(r2, sum))`` goes through the bucket test first,
       and only the splits it keeps get their two corners and the bucket
       test on them; a point kind goes through it as it is.  A kind's x
       and y are broadcast against each other as views, not copied to the
       block's shape; the survivors are gathered from them.
    4. Hull: one :func:`hull_frontier` call on the survivors, in the
       cloud's order.

    Why no bit changes.  Every table entry and every step that combines
    the layers is elementwise, with the operations and operands of the
    per-split formula (:func:`_split_caps`, :func:`_th1_cut`),
    so a split's points have the same bits whichever slab, block, buffer
    or gather computes them, and every witness is a point of the cloud.
    The Pareto staircase is a function of the point set, save which of
    several equal copies (``0.0`` and ``-0.0``) it keeps, and it keeps the
    first.  Every dropped point is beaten by a real cloud point, so the
    staircase drops it too.  No copy of a staircase point is ever beaten
    (its beater would beat the staircase point), so every copy survives
    and the first one stays first.  So the survivors have the cloud's
    staircase, and the monotone chain over it gives the same hull.  The
    box test drops a split only where the bucket test would drop both
    corners: each corner is a ``min`` of caps, or a difference such as
    ``fl(sum - r2)`` clamped to the cap it stands for, so it lies at or
    below the box corner in both coordinates; the bucket of x does not
    fall as x rises and its table value does not rise with the bucket, so
    a box corner the test drops takes both corners with it.  A pentagon
    whose caps are finite has finite corners, and a valid channel's caps
    are; a cap that is not finite is refused, as a corner that is not
    finite is.

    Why a skipped line holds only beaten points.  Each line cap's argument
    to ``log1p`` is monotone in rho2 in floats: the quadratic forms are
    linear in rho2 with nonnegative gains, and every rounded step
    (products by a nonnegative factor, sums, the clamp at zero, a quotient
    by a rising denominator) is monotone.  So each cap's largest value on a
    line sits at the end ``line`` reads it at, up to log1p's few ulps;
    with two rho2 points the two ends are the whole line.  A pentagon
    corner never exceeds its caps, as above.  The margin covers log1p, so
    every point of the line lies at or below its group's raised corner
    ``(X, Y)``.  The bucket test drops that corner only if a witness has
    ``x_w >= X`` and ``y_w > Y``, and then the witness strictly beats
    every point of the group on that line.
    """
    alpha1, alpha2, rho1, rho2 = _split_mesh(params, split_grid)
    groups = {}
    for kind, pin in enumerate(pins):
        groups.setdefault(pin, []).append(kind)
    if len(groups) < 2:
        # One mesh: every kind points returns, in order.
        groups = {next(iter(groups), None): None}
    meshes = []
    for pin, kinds in groups.items():
        select = {} if kinds is None else {"kinds": tuple(kinds)}
        rho = (rho1[-1:] if pin == "rho1" else rho1, rho2[-1:] if pin == "rho2" else rho2)
        evaluate = functools.partial(points, **select)
        meshes.append((rho, kinds, evaluate, functools.partial(line, **select)))

    witness = []
    for (rho1, rho2), _, evaluate, _ in meshes:
        ends = rho2[[0, -1]] if rho2.size > 1 else rho2
        sampled = (alpha1.size, alpha2.size, rho1.size, ends.size)
        splits = math.prod(sampled)
        stride = max(_WITNESS_STRIDE, -(-splits // _BLOCK_SPLITS)) | 1
        i1, i2, j1, j2 = np.unravel_index(np.arange(0, splits, stride), sampled)
        a1, a2 = alpha1[i1], alpha2[i2]
        rows = (*tables(1, a1, a2, rho1[j1]), *tables(2, a1, a2, ends[j2]))
        witness += [_finite(*point) for point in _points_of(evaluate(*rows))]
    wx, wy = (np.concatenate([c.ravel() for c in coords]) for coords in zip(*witness))
    prefilter = _witness_filter(*_staircase(wx, wy))

    kept = []
    for (rho1, rho2), kinds, evaluate, bound in meshes:
        mesh = (alpha1, alpha2, rho1, rho2)
        for g, corner, x, y in _survivors(mesh, tables, evaluate, bound, prefilter):
            kept.append(((g if kinds is None else kinds[g], corner), x, y))
    # A stable sort restores the cloud's order: kinds, then splits.  The
    # block pieces go before the hull, which copies the survivors again.
    kept.sort(key=lambda item: item[0])
    x = np.concatenate([x for _, x, _ in kept])
    y = np.concatenate([y for _, _, y in kept])
    del kept
    return hull_frontier(x, y)


def _pentagon_tables(params: ChannelParams, layer: int, alpha1, alpha2, rho):
    """The form tables of the broadcast pentagon (see :func:`_split_hull`).

    Layer 1: ``(q1l1, q2l1)``; layer 2: ``(1 + q1l2, q2l2, log2(1 +
    q2l2))``, the last the r2 cap, which reads layer 2 alone.
    """
    q1, q2 = _layer_forms(params, layer, alpha1, alpha2, rho)
    if layer == 1:
        return q1, q2
    return 1.0 + q1, q2, gaussian_rate(q2)


def _th1_tables(params: ChannelParams, layer: int, alpha1, alpha2, rho):
    """The broadcast pentagon's form tables, each layer with its term of
    the total correlation (:func:`_rho_term`) last."""
    columns = _pentagon_tables(params, layer, alpha1, alpha2, rho)
    return (*columns, _rho_term(layer, alpha1, alpha2, rho))


def _layer2_last_r1(q1l1, q1l2_1):
    """``log2(1 + q1l1 / (1 + q1l2))``, the r1 cap with layer 2 encoded last,
    written into the row ``1 + q1l2``."""
    return gaussian_rate(np.divide(q1l1, q1l2_1, out=q1l2_1), out=q1l2_1)


def _pentagon_caps(params: ChannelParams, q1l1, q2l1, q1l2_1, q2l2, r2_cap):
    """The broadcast pentagon's caps from :func:`_pentagon_tables` rows, as
    one group of :func:`_split_hull`; the r1 cap and the sum cap are
    written into the rows ``1 + q1l2`` and ``q2l2``."""
    r1_cap = _layer2_last_r1(q1l1, q1l2_1)
    sum_cap = gaussian_rate(np.add(q2l1, q2l2, out=q2l2), out=q2l2)
    return [(r1_cap, r2_cap, sum_cap)]


def _pentagon_line(params: ChannelParams, q1l1, q2l1, q1l2_1, q2l2, r2_cap):
    """The broadcast pentagon's caps at the rho2 end where each is largest,
    from rows at both ends: r1 falls with rho2, and r2 and the sum rise."""
    return _pentagon_caps(params, q1l1, q2l1, q1l2_1[0], q2l2[1], r2_cap[1])


def _th1_caps(params: ChannelParams, q1l1, q2l1, c1, q1l2_1, q2l2, r2_cap, c2):
    """The broadcast pentagon's caps from :func:`_th1_tables` rows, its r1
    cap cut by its own ``log2(1 + Var(X1|X2))`` (see :func:`th1_bound`)."""
    [(r1_cap, r2_cap, sum_cap)] = _pentagon_caps(params, q1l1, q2l1, q1l2_1, q2l2, r2_cap)
    np.minimum(r1_cap, _th1_cut(params, np.add(c1, c2, out=c2)), out=r1_cap)
    return [(r1_cap, r2_cap, sum_cap)]


def _line_cut(params: ChannelParams, rho):
    """The largest Theorem-1 cut (:func:`_th1_cut`) on each rho2 line, from
    the total correlation ``rho`` at its two ends, which it overwrites.

    ``c1 + c2`` rises with rho2, since ``c2`` is rho2 times a factor at
    least zero, so the cut, which falls as ``|rho|`` rises, is largest at
    an end, or at ``rho = 0``, ``log2(1 + p1)``, where rho changes sign on
    the line.
    """
    crosses = (rho[0] < 0.0) & (rho[1] > 0.0)
    cut = np.broadcast_to(_th1_cut(params, rho), rho.shape)
    return np.where(crosses, gaussian_rate(params.p1), np.maximum(cut[0], cut[1]))


def _th1_line(params: ChannelParams, q1l1, q2l1, c1, q1l2_1, q2l2, r2_cap, c2):
    """:func:`_pentagon_line`, the r1 cap cut by the line's largest cut."""
    [(r1_cap, r2_cap, sum_cap)] = _pentagon_line(params, q1l1, q2l1, q1l2_1, q2l2, r2_cap)
    np.minimum(r1_cap, _line_cut(params, np.add(c1, c2, out=c2)), out=r1_cap)
    return [(r1_cap, r2_cap, sum_cap)]


def _bc_pr_corners(params: ChannelParams, q1l1, q2l1, q1l2_1, q2l2, r2_cap, kinds=(0, 1)):
    """The corners of each split's two private-rate rectangles, of the given
    kinds, from :func:`_pentagon_tables` rows: 0, layer 2 encoded last (the
    broadcast pentagon's r1 and r2 caps), and 1, layer 1 encoded last."""
    rectangles = []
    if 0 in kinds:
        rectangles.append((_layer2_last_r1(q1l1, q1l2_1), r2_cap))
    if 1 in kinds:
        # log2(1 + q2l2 / (1 + q2l1)), written into the row q2l2.
        ratio = np.divide(q2l2, np.add(1.0, q2l1, out=q2l1), out=q2l2)
        rectangles.append((gaussian_rate(q1l1, out=q1l1), gaussian_rate(ratio, out=ratio)))
    return rectangles


def _bc_pr_line(params: ChannelParams, q1l1, q2l1, q1l2_1, q2l2, r2_cap, kinds=(0,)):
    """The layer-2-last rectangle at the rho2 end where each of its caps is
    largest: r1 falls with rho2 and r2 rises.  The layer-1-last rectangle
    is pinned to the largest rho2, a one-point axis with no line step."""
    return _bc_pr_corners(params, q1l1, q2l1, q1l2_1[0], q2l2, r2_cap[1], (0,))


# The broadcast pentagons of the enhanced channel, where a single encoder
# serves both receivers: layer 2 is encoded last, so receiver 2 gets it
# with layer 1 pre-canceled; receiver 1 decodes layer 1 against layer 2 as
# noise; the sum cap is receiver 2's rate for decoding everything.  The sum
# cap always dominates the r2 cap because layer powers are nonnegative, so
# the pentagon never degenerates.
_BC_DMS = Family(
    "outer",
    "outer_bounds.bc_dms_region",
    ("split_grid",),
    _split_caps,
    tables=_pentagon_tables,
    corners=_pentagon_caps,
    # r1 falls, r2 and the sum rise with rho2: q1l2 and q2l2 are linear in
    # rho2 with nonnegative gains, and the layer-1 forms do not read it.
    line=_pentagon_line,
    # No pins.  The pentagon at the largest rho1 holds the others on its
    # line (the r1 and sum caps rise with rho1, the r2 cap does not read
    # it), but the corner on the r1 cap slides along the sum face as r1
    # rises: where the sum cap is flat in rho1 (b = 0), the dense hull
    # keeps such face points by the rounding of its pop test.
)

# Theorem 1: the broadcast pentagons, each cut by its own r1 cap, then the
# unifying family (see :func:`th1_bound`).
_TH1 = Family(
    "outer",
    "outer_bounds.th1_bound",
    ("split_grid", "alpha_grid"),
    tables=_th1_tables,
    corners=_th1_caps,
    # The broadcast caps, as for bcdms, the r1 cap cut by the line's
    # largest cut.
    line=_th1_line,
    # No pins: the cut log2(1 + p1 (1 - rho^2)) is not monotone in rho1.
    invalid=lambda params: params.b <= 1.0,
    error="Theorem 1 requires |b| > 1",
)

# The private-rate rectangles of both encoding orders, then the unifying
# family (see :func:`bc_pr_bound`).
_BC_PR = Family(
    "outer",
    "outer_bounds.bc_pr_bound",
    ("split_grid", "alpha_grid"),
    tables=_pentagon_tables,
    corners=_bc_pr_corners,
    # Each rectangle is its own caps: its r1 falls with rho2 or does not
    # read it, and its r2 rises, as q2l2 does over a q2l1 free of rho2.
    line=_bc_pr_line,
    # Layer 2 last at the largest rho1: its r1 rises with it and its r2 does
    # not read it.  Layer 1 last at the largest rho2: its r1 does not read
    # it and its r2 rises with it.
    pins=("rho1", "rho2"),
)


def bc_dms_region(params: ChannelParams, split_grid=DEFAULT_SPLIT_POINTS) -> Frontier:
    """Upper concave envelope of the broadcast pentagons over a split grid.

    The underlying region is convex (time sharing between splits is
    admissible in the enhanced channel), so the sampled union is
    concavified.  The hull is assembled exactly from the pentagon corner
    cloud — no r1 sampling is involved, which keeps the steep edges of the
    envelope sharp at any grid size — and the cloud is streamed through it
    block by block (:func:`_split_hull`): each layer's forms are tabled
    on the three split axes they read, a slab of alpha1 at a time, each
    block combines table rows, and only the splits whose box corner
    survives the witness get their corners, so memory grows with a slab,
    not with the number of splits.  Both corners run on the whole split mesh: the pentagon at the
    largest rho1 holds the others on its line, but its corner on the r1 cap
    does not bound theirs (see the ``pins`` comment of the record).  The
    result outer-bounds the cognitive region only for ``|b| >= 1``; the
    function computes the enhanced-channel region for any parameters and
    leaves regime policing to callers.
    """
    return _BC_DMS.hull(params, split_grid)


def th1_bound(
    params: ChannelParams,
    split_grid=DEFAULT_SPLIT_POINTS,
    alpha_grid: GridAxis = DEFAULT_ALPHA_POINTS,
) -> Frontier:
    """Strong-interference outer bound: broadcast pentagons, each cut by its own r1 cap.

    Every covariance split's broadcast pentagon (the ``bcdms`` family) is cut by
    ``R1 <= log2(1 + Var(X1|X2))`` of that split's total input covariance
    before the hull is taken.  Both inequalities come out of one
    single-letter converse with a common input law: the broadcast pentagon
    from the enhanced channel, and the r1 cap ``R1 <= I(X1; Y1 | X2)`` of
    the strong-interference outer region of Maric, Yates and Kramer.  For a
    fixed input covariance Gaussian inputs maximise both (the optimality of
    Gaussian superposition for the broadcast channel with degraded message
    sets, Weingarten, Liu, Shamai, Steinberg and Viswanath), and time
    sharing keeps a rate pair inside the bound at the averaged covariance,
    so the concave hull of the cut pentagons is an outer bound.  Cutting the
    whole broadcast envelope by the r1 cap of another covariance instead
    would pair rates that no single input law produces.  The hull is then
    intersected with the unifying family's hull, so the result is
    pointwise below both :func:`bc_dms_region` and :func:`unifying_region`;
    it keeps only the breakpoints of that minimum
    (:func:`~cogregions.region_geometry.intersect_frontiers`).  As in
    :func:`bc_dms_region`, the corner cloud is streamed through the hull
    (:func:`_split_hull`) over the whole split mesh, and never held whole:
    the cut is not monotone in rho1, so no axis is pinned.  The tables
    also hold each layer's term of the total correlation, so a split's cut
    costs one sum and the cut's own steps, and a rho2 line's r1 bound is
    cut by the line's largest cut.
    """
    return intersect_frontiers(
        _TH1.hull(params, split_grid), unifying_region(params, alpha_grid=alpha_grid)
    )


def bc_pr_bound(
    params: ChannelParams,
    split_grid=DEFAULT_SPLIT_POINTS,
    alpha_grid: GridAxis = DEFAULT_ALPHA_POINTS,
) -> Frontier:
    """Outer bound from private-rate broadcast rectangles, both encoding orders.

    Unlike :func:`th1_bound` this holds for every ``b``: the enhanced
    broadcast encoder may pre-cancel either layer, and each split/order pair
    yields a rectangle with no sum constraint.  The rectangle union is
    concavified exactly from its corner cloud (the underlying region is
    convex), streamed through the hull like :func:`bc_dms_region`'s, and
    then cut by the unifying family's hull, keeping only the breakpoints of
    that minimum.  Each rectangle runs on its own 3-D mesh and reads form
    tables built on it: with layer 2 encoded last, the one at the largest
    rho1 is at least every other on its rho1 axis in both rates, and with
    layer 1 encoded last the one at the largest rho2 is; the other
    rectangles are beaten or exact copies, so the hull keeps its bits from
    ``2 n^3`` splits where the whole mesh has ``2 n^4``.
    """
    return intersect_frontiers(
        _BC_PR.hull(params, split_grid), unifying_region(params, alpha_grid=alpha_grid)
    )
