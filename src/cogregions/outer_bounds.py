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
    parameters of a :class:`CovarianceSplit`.  A split family may give
    ``corners``, the points :func:`_split_hull` takes, in its place, and
    then has no :meth:`pentagon`.  A split family's ``line`` gives groups
    of caps, each monotone in ``rho2``, that bound its points (see
    :func:`_line_corners`), so :func:`_split_hull` can skip the rho2 lines
    the sampled hull already beats.  A split family's ``pins`` names, per
    kind of point, the split axis (``"rho1"`` or ``"rho2"``) at whose
    largest value the kind's point is at least its point at any other value
    of that axis in both coordinates, the rest of the split fixed, or
    ``None``; :func:`_split_hull` runs each pinned kind on the mesh with
    that axis cut to its last point.  Every point so dropped is beaten or
    an exact copy, so the hull keeps its bits: each rounded step up to
    ``log1p`` is monotone, and ``log1p``, within a few ulps, would move a
    vertex by no more where it is not.  Where ``single_split`` holds the
    family's one split is ``t = 1``: an integer grid is cut to it and any
    other ``t`` is refused.
    """

    role: str  # "outer", "inner", or "reference" (a containment reference)
    builder: str  # "module.function", taking params and the grids
    grids: Tuple[str, ...]  # the grid flags the builder takes by keyword
    caps: Optional[Callable] = None  # (params, *split) -> (r1, r2, sum)
    corners: Optional[Callable] = None  # (params, *split) -> _split_hull's points
    line: Optional[Callable] = None  # (params, *split) -> caps monotone in rho2
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
        points = self.corners or (lambda p, *split: _corner_kinds(*self.caps(p, *split)))
        return _split_hull(
            params,
            split_grid,
            functools.partial(points, params),
            functools.partial(self.line, params),
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
        (_, _, c1), (_, _, c2) = _layer_entries(1.0, 1.0, *astuple(self))
        return float(c1 + c2)


def _layer_entries(p1: float, p2: float, alpha1, alpha2, rho1, rho2):
    """``(var1, var2, cov)`` of each layer covariance of a :class:`CovarianceSplit`.

    Broadcasts over array split parameters.
    """
    v11, v12 = alpha1 * p1, alpha2 * p2
    v21, v22 = (1.0 - alpha1) * p1, (1.0 - alpha2) * p2
    return (
        (v11, v12, rho1 * np.sqrt(v11 * v12)),
        (v21, v22, rho2 * np.sqrt(v21 * v22)),
    )


def _split_forms(params: ChannelParams, alpha1, alpha2, rho1, rho2):
    """Quadratic forms of the receive vectors against the layer covariances.

    Broadcasts over array inputs.  Returns ``(q1_layer1, q1_layer2,
    q2_layer1, q2_layer2)``: the power of each layer seen at each receiver.
    The total input power at receiver 2 is ``q2_layer1 + q2_layer2`` since
    the form is linear in the covariance.

    Each form is clamped at zero.  The layer covariances are PSD, so a
    negative value is only rounding: where a rank-one layer (``|rho| = 1``)
    nearly cancels, the expanded form can come out near ``-eps * power``,
    and below ``-1`` the rate's ``log1p`` would be NaN.
    """
    a, b = params.a, params.b
    layer1, layer2 = _layer_entries(params.p1, params.p2, alpha1, alpha2, rho1, rho2)

    def form(h1, h2, m11, m22, m12):
        q = h1 * h1 * m11 + 2.0 * h1 * h2 * m12 + h2 * h2 * m22
        return np.maximum(q, 0.0, out=q if isinstance(q, np.ndarray) else None)

    return (
        form(1.0, a, *layer1),
        form(1.0, a, *layer2),
        form(b, 1.0, *layer1),
        form(b, 1.0, *layer2),
    )


def _layer2_last_caps(q1l1, q1l2, q2l2):
    """``(r1, r2)`` caps with layer 2 encoded last, from :func:`_split_forms`."""
    return gaussian_rate(q1l1 / (1.0 + q1l2)), gaussian_rate(q2l2)


def _split_caps(params: ChannelParams, alpha1, alpha2, rho1, rho2):
    """``(r1, r2, sum)`` caps of the broadcast pentagons; broadcasts over the split."""
    q1l1, q1l2, q2l1, q2l2 = _split_forms(params, alpha1, alpha2, rho1, rho2)
    return (*_layer2_last_caps(q1l1, q1l2, q2l2), gaussian_rate(q2l1 + q2l2))


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


def _line_corners(groups, lines: int):
    """Each line's raised bound corner per group, from the group's caps at both ends.

    ``groups`` is what a :class:`Family`'s ``line`` returns on splits whose
    leading axis holds the two rho2 ends of ``lines`` lines.  A group
    ``(x, y)`` bounds points by its caps' largest values ``(X, Y)``; a
    group ``(r1, r2, sum)`` bounds a pentagon's corners by
    ``(min(R1, S), min(R2, S))``.  Each coordinate is raised by
    ``_LINE_MARGIN * (1 + largest cap)``.
    """
    for caps in groups:
        top = [np.broadcast_to(cap, (2, lines)).max(axis=0) for cap in caps]
        x, y, *sum_cap = top
        if sum_cap:
            x, y = np.minimum(x, sum_cap[0]), np.minimum(y, sum_cap[0])
        margin = _LINE_MARGIN * (1.0 + np.maximum.reduce(top))
        # A cap that is not finite makes a corner that is not finite; at the
        # largest float it keeps the line, whose evaluation then refuses it.
        yield tuple(np.nan_to_num(v + margin, nan=np.finfo(float).max) for v in (x, y))


# The split parameters in the order every split function takes them.
_SPLIT_AXES = ("alpha1", "alpha2", "rho1", "rho2")


def _split_hull(params: ChannelParams, split_grid, points, line, pins=()) -> Frontier:
    """:func:`hull_frontier` of a point cloud spanning every split of a split grid.

    ``points(alpha1, alpha2, rho1, rho2)`` broadcasts over split parameters
    and returns one ``(x, y)`` pair per kind of point (the two corners of a
    pentagon, say); each pair broadcasts to the shape of the split
    parameters, splits in ``ij`` order.  The cloud is every split's first
    kind, then every split's second, and so on, as the dense builders
    concatenated it.  ``line`` broadcasts the same way and returns groups
    of caps, each monotone in ``rho2``, that bound the points (see
    :func:`_line_corners`).

    ``pins`` names, per kind, the split axis whose largest value dominates
    the rest of it for that kind (see :class:`Family`), or ``None``; empty,
    no kind is pinned.  Each kind runs only on its own mesh, the split grid
    with its pinned axis cut to its last point.  Kinds that share a pin
    share a mesh; where the kinds fall on more than one mesh, ``points``
    and ``line`` take ``kinds``, the indices of the kinds to return or to
    bound.  The cloud is then every kind on its own mesh, kinds in order.

    The result is the cloud's hull bit for bit, but neither the cloud nor
    the caps of a whole mesh are ever built: each evaluation spans at most
    ``_BLOCK_SPLITS`` splits, or one line, and memory is that block plus a
    flag and an index per line and the survivors of step 3:

    1. Witness: on each mesh, the points of every ``stride``-th split by
       flat index with the rho2 axis cut to its two ends, evaluated on
       gathered 1-D parameters, and the staircase of all of them.  The
       hull's vertices cluster at those rank-one layers (``|rho2| = 1`` on
       the default axis), so a sample there beats more.  The stride is
       odd, so it reaches both ends; it is ``_WITNESS_STRIDE``, or larger
       where that mesh has more than ``_WITNESS_STRIDE * _BLOCK_SPLITS``
       splits, so no sample is more than ``_BLOCK_SPLITS`` splits.  The
       staircase gives one bucket test, :func:`_witness_filter`, that
       drops most points some witness beats (``x_w >= x`` and ``y_w > y``)
       and only those.
    2. Lines: on a mesh with two rho2 points or more, ``line`` at the rho2
       axis's two ends for every ``(alpha1, alpha2, rho1)`` line, in chunks
       of at most ``_BLOCK_SPLITS`` splits, and the raised corners of
       :func:`_line_corners` through the bucket test.  A line none of
       whose corners survives is never evaluated.  With a witness span of
       zero every line is kept.  A line of one split is kept unread: its
       bound would cost what its points do.
    3. Stream: the other lines, gathered in blocks of whole lines in flat
       ``ij`` order, and the bucket test on their points.  A kind's x and
       y are broadcast against each other as views, not copied to the
       block's shape; the survivors are gathered from them.
    4. Hull: one :func:`hull_frontier` call on the survivors, in the
       cloud's order.

    Why no bit changes.  The caps are elementwise, so a split's points have
    the same bits whichever block or gather computes them, and every
    witness is a point of the cloud.  The Pareto staircase is a function of
    the point set, save which of several equal copies (``0.0`` and
    ``-0.0``) it keeps, and it keeps the first.  Every dropped point is
    beaten by a real cloud point, so the staircase drops it too.  No copy
    of a staircase point is ever beaten (its beater would beat the
    staircase point), so every copy survives and the first one stays
    first.  So the survivors have the cloud's staircase, and the monotone
    chain over it gives the same hull.

    Why a skipped line holds only beaten points.  Each line cap's argument
    to ``log1p`` is monotone in rho2 in floats: the quadratic forms are
    linear in rho2 with nonnegative gains, and every rounded step
    (products by a nonnegative factor, sums, the clamp at zero, a quotient
    by a rising denominator) is monotone.  So each cap's largest value on a
    line sits at an end, up to log1p's few ulps; with two rho2 points the
    two ends are the whole line.  A pentagon corner is a ``min`` of caps,
    or a difference such as ``fl(sum - r2)`` clamped to the cap it stands
    for, so it never exceeds its caps.  The margin covers log1p, so every
    point of the line lies at or below its group's raised corner
    ``(X, Y)``.  The bucket test drops that corner only if a witness has
    ``x_w >= X`` and ``y_w > Y``, and then the witness strictly beats
    every point of the group on that line.
    """
    axes = _split_mesh(params, split_grid)
    groups = {}
    for kind, pin in enumerate(pins):
        groups.setdefault(pin, []).append(kind)
    if len(groups) < 2:
        # One mesh: every kind points returns, in order.
        groups = {next(iter(groups), None): None}
    meshes = []
    for pin, kinds in groups.items():
        mesh = list(axes)
        if pin is not None:
            i = _SPLIT_AXES.index(pin)
            mesh[i] = mesh[i][-1:]
        select = {} if kinds is None else {"kinds": tuple(kinds)}
        meshes.append(
            (mesh, kinds, functools.partial(points, **select), functools.partial(line, **select))
        )

    witness = []
    for mesh, _, evaluate, _ in meshes:
        rho2 = mesh[3]
        ends = rho2[[0, -1]] if rho2.size > 1 else rho2
        sampled = (*(axis.size for axis in mesh[:3]), ends.size)
        splits = math.prod(sampled)
        stride = max(_WITNESS_STRIDE, -(-splits // _BLOCK_SPLITS)) | 1
        sample = np.unravel_index(np.arange(0, splits, stride), sampled)
        gathered = (axis[i] for axis, i in zip((*mesh[:3], ends), sample))
        witness += [np.broadcast_arrays(*kind) for kind in evaluate(*gathered)]
    wx, wy = (np.concatenate([c.ravel() for c in coords]) for coords in zip(*witness))
    if not (np.all(np.isfinite(wx)) and np.all(np.isfinite(wy))):
        raise ValueError("corner coordinates must be finite")
    prefilter = _witness_filter(*_staircase(wx, wy))

    kept = []
    for mesh, kinds, evaluate, bound in meshes:
        shape = tuple(axis.size for axis in mesh)
        rho2 = mesh[3]

        def lines_of(index):
            """``(alpha1, alpha2, rho1)`` of the given flat line indices."""
            return [axis[i] for axis, i in zip(mesh, np.unravel_index(index, shape[:3]))]

        lines = np.arange(math.prod(shape[:3]))
        if rho2.size > 1:
            keep = np.zeros(lines.size, dtype=bool)
            step = max(_BLOCK_SPLITS // 2, 1)
            ends = rho2[[0, -1]]
            for start in range(0, lines.size, step):
                index = lines[start : start + step]
                for x, y in _line_corners(bound(*lines_of(index), ends[:, None]), index.size):
                    keep[index[prefilter(x, y)]] = True
            lines = np.flatnonzero(keep)

        step = max(_BLOCK_SPLITS // rho2.size, 1)
        for start in range(0, lines.size, step):
            split = [v[:, None] for v in lines_of(lines[start : start + step])]
            for j, (x, y) in enumerate(evaluate(*split, rho2)):
                if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                    raise ValueError("corner coordinates must be finite")
                x, y = np.broadcast_arrays(x, y)
                keep = prefilter(x, y)
                kept.append((j if kinds is None else kinds[j], x.take(keep), y.take(keep)))
    # A stable sort restores the cloud's order: kinds, then splits.  The
    # block pieces go before the hull, which copies the survivors again.
    kept.sort(key=lambda item: item[0])
    x = np.concatenate([x for _, x, _ in kept])
    y = np.concatenate([y for _, _, y in kept])
    del kept
    return hull_frontier(x, y)


def _conditional_r1_caps(params: ChannelParams, split):
    """``log2(1 + Var(X1|X2))`` of every split's total input covariance.

    ``Var(X1|X2)`` is ``p1*(1-rho^2)`` with the split's total correlation
    ``rho`` (see :attr:`CovarianceSplit.rho`), or ``p1`` when ``p2 = 0``:
    there is no X2 to condition on, whatever ``rho`` the split nominally
    carries.
    """
    if params.p2 == 0.0:
        return gaussian_rate(params.p1)
    (_, _, c1), (_, _, c2) = _layer_entries(1.0, 1.0, *split)
    # p1 * max(1 - rho^2, 0), written into rho's own buffer.
    rho = c1 + c2
    var = np.multiply(rho, rho, out=rho)
    np.subtract(1.0, var, out=var)
    np.maximum(var, 0.0, out=var)
    return gaussian_rate(np.multiply(params.p1, var, out=var))


def _th1_corners(params: ChannelParams, *split):
    """The corners of each split's broadcast pentagon, its r1 cap cut by its
    own ``log2(1 + Var(X1|X2))`` (see :func:`th1_bound`)."""
    r1_cap, r2_cap, sum_cap = _split_caps(params, *split)
    np.minimum(r1_cap, _conditional_r1_caps(params, split), out=r1_cap)
    return _corner_kinds(r1_cap, r2_cap, sum_cap)


def _pentagon_line(params: ChannelParams, *split):
    """The broadcast pentagon's caps as one group of :func:`_line_corners`."""
    return [_split_caps(params, *split)]


def _bc_pr_corners(params: ChannelParams, *split, kinds=(0, 1)):
    """The corners of each split's two private-rate rectangles, of the given
    kinds: 0, layer 2 encoded last (the broadcast pentagon's r1 and r2
    caps), and 1, layer 1 encoded last."""
    q1l1, q1l2, q2l1, q2l2 = _split_forms(params, *split)
    rectangles = []
    if 0 in kinds:
        rectangles.append(_layer2_last_caps(q1l1, q1l2, q2l2))
    if 1 in kinds:
        rectangles.append((gaussian_rate(q1l1), gaussian_rate(q2l2 / (1.0 + q2l1))))
    return rectangles


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
    corners=_th1_corners,
    # The uncut broadcast caps, as for bcdms: the cut only lowers r1.
    line=_pentagon_line,
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
    corners=_bc_pr_corners,
    # Each rectangle is its own caps: its r1 falls with rho2 or does not
    # read it, and its r2 rises, as q2l2 does over a q2l1 free of rho2.
    line=_bc_pr_corners,
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
    block by block (:func:`_split_hull`), so memory does not grow with the
    number of splits.  Both corners run on the whole split mesh: the
    pentagon at the largest rho1 holds the others on its line, but its
    corner on the r1 cap does not bound theirs (see the ``pins`` comment
    of the record).  The result outer-bounds the cognitive region only for
    ``|b| >= 1``; the function computes the enhanced-channel region for any
    parameters and leaves regime policing to callers.
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
    the cut is not monotone in rho1, so no axis is pinned.
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
    that minimum.  Each rectangle runs on its own 3-D mesh: with layer 2
    encoded last, the one at the largest rho1 is at least every other on
    its rho1 axis in both rates, and with layer 1 encoded last the one at
    the largest rho2 is; the other rectangles are beaten or exact copies,
    so the hull keeps its bits from ``2 n^3`` splits where the whole mesh
    has ``2 n^4``.
    """
    return intersect_frontiers(
        _BC_PR.hull(params, split_grid), unifying_region(params, alpha_grid=alpha_grid)
    )
