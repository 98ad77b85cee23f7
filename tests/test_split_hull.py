"""The streamed covariance-split hull against the dense path it replaced.

``_split_hull`` never builds the whole corner cloud of a split mesh: it
reads each split's caps from per-layer form tables, skips the rho2 lines
whose bound corners the witness staircase beats, and tests a pentagon's
box corner before its corners.  These tests pin that it returns that
cloud's hull bit for bit, with the block size and the witness stride shrunk
so that many blocks and witnesses take part, that every cap read from the
tables has the bits of a per-split reference formula kept here, that
Theorem 1's pentagon at one split is the broadcast one with its r1 cap cut,
that the three split builders match a copy of the dense builders on random
instances in every regime,
that the box test and the lines it skips drop only beaten points and the
line caps are really monotone, that each kind pinned to the largest value
of an axis is dominated there, and that memory stays bounded at the fig3
mesh and at 81 points per axis.
"""

import functools
import math
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogregions import outer_bounds, region_geometry
from cogregions.channel import ChannelParams, gaussian_rate, pdc_threshold, th3_threshold
from cogregions.cli import FIG3
from cogregions.inner_bounds import FAMILIES
from cogregions.outer_bounds import (
    CovarianceSplit,
    bc_dms_region,
    bc_pr_bound,
    th1_bound,
    unifying_region,
)
from cogregions.region_geometry import (
    Pentagon,
    _corner_kinds,
    corner_cloud,
    grid_axis,
    hull_frontier,
    intersect_frontiers,
    sweep_grid,
)


def _bits(frontier):
    return frontier.r1.view(np.int64).tolist(), frontier.r2.view(np.int64).tolist()


def _bits_of(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


# ------------------------------------------------------ streamed vs whole

# Explicit axis values k / 8 recover their index k exactly.
_SCALE = 8


@st.composite
def _tables(draw):
    """Point tables ``(kinds, *mesh shape)`` with duplicates and signed zeros."""
    shape = tuple(draw(st.integers(1, 5)) for _ in range(4))
    kinds = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = (kinds, *shape)
    mode = draw(st.sampled_from(["pool", "zeros", "uniform"]))
    if mode == "pool":  # few distinct values, many exact copies
        x = rng.choice([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0], size)
        y = rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], size)
    elif mode == "zeros":  # staircase (0, 1), (1, 0) with both zero signs
        x = rng.choice([-0.0, 0.0, 1.0], size, p=[0.1, 0.1, 0.8])
        y = np.where(x == 1.0, rng.choice([-0.0, 0.0], size), 1.0)
    else:
        x, y = rng.uniform(0.0, 3.0, size), rng.uniform(0.0, 3.0, size)
    return x, y


def _split_values(layer, alpha1, alpha2, rho):
    """Tables of the split parameters themselves: rows read as ``(alpha1,
    alpha2, rho1, rho2)``."""
    return (alpha1, alpha2, rho) if layer == 1 else (rho,)


@settings(max_examples=300, deadline=None)
@given(_tables(), st.integers(1, 40), st.integers(1, 7))
def test_streamed_hull_matches_whole_cloud_bitwise(table, block, stride):
    x, y = table
    axes = [np.arange(n) / _SCALE for n in x.shape[1:]]

    def index(*split):
        return tuple(np.rint(np.asarray(v) * _SCALE).astype(int) for v in split)

    def points(*split):
        return [(xk[index(*split)], yk[index(*split)]) for xk, yk in zip(x, y)]

    # Each kind's largest x and y on a rho2 line bound its points there,
    # at either end of the line.
    line_max = [(xk.max(axis=-1), yk.max(axis=-1)) for xk, yk in zip(x, y)]

    def line(*split):
        return [(xm[index(*split[:3])], ym[index(*split[:3])]) for xm, ym in line_max]

    with mock.patch.object(outer_bounds, "_BLOCK_SPLITS", block), mock.patch.object(
        outer_bounds, "_WITNESS_STRIDE", stride
    ):
        params = ChannelParams(0.5, 2.0, 1.0, 1.0)
        got = outer_bounds._split_hull(params, axes, points, line, _split_values)
    want = hull_frontier(
        np.concatenate([xk.ravel() for xk in x]),
        np.concatenate([yk.ravel() for yk in y]),
    )
    assert _bits(got) == _bits(want)


# -------------------------------------- split builders vs the dense path


def _dense_mesh(split_grid):
    """Sparse ``ij`` mesh of a split grid, every axis kept."""
    spec = (split_grid,) * 4 if isinstance(split_grid, int) else tuple(split_grid)
    axes = [
        grid_axis(entry, "axis", lo=lo) for entry, lo in zip(spec, (0, 0, -1, -1))
    ]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def _expand(values, mesh):
    shape = np.broadcast_shapes(*(axis.shape for axis in mesh))
    return np.broadcast_to(values, shape).reshape(-1)


def _split_forms(params, alpha1, alpha2, rho1, rho2):
    """``(q1_layer1, q1_layer2, q2_layer1, q2_layer2)`` of each split;
    broadcasts over the split."""
    q1l1, q2l1 = outer_bounds._layer_forms(params, 1, alpha1, alpha2, rho1)
    q1l2, q2l2 = outer_bounds._layer_forms(params, 2, alpha1, alpha2, rho2)
    return q1l1, q1l2, q2l1, q2l2


def _split_caps(params, alpha1, alpha2, rho1, rho2):
    """``(r1, r2, sum)`` caps of the broadcast pentagons, layer 2 encoded
    last, per split: ``log2(1 + q1l1 / (1 + q1l2))``, ``log2(1 + q2l2)``
    and ``log2(1 + q2l1 + q2l2)``."""
    q1l1, q1l2, q2l1, q2l2 = _split_forms(params, alpha1, alpha2, rho1, rho2)
    return (
        gaussian_rate(q1l1 / (1.0 + q1l2)),
        gaussian_rate(q2l2),
        gaussian_rate(q2l1 + q2l2),
    )


def _dense_bc_dms(params, split_grid):
    mesh = _dense_mesh(split_grid)
    caps = _split_caps(params, *mesh)
    return hull_frontier(*corner_cloud(*(_expand(cap, mesh) for cap in caps)))


def _conditional_r1_caps(params, split):
    """The Theorem-1 cut of every split of ``(alpha1, alpha2, rho1, rho2)`` arrays."""
    alpha1, alpha2, rho1, rho2 = split
    return outer_bounds._th1_cut(
        params,
        outer_bounds._rho_term(1, alpha1, alpha2, rho1)
        + outer_bounds._rho_term(2, alpha1, alpha2, rho2),
    )


def _dense_th1(params, split_grid, alpha_grid):
    mesh = _dense_mesh(split_grid)
    r1_cap, r2_cap, sum_cap = _split_caps(params, *mesh)
    r1_cap = np.minimum(r1_cap, _conditional_r1_caps(params, mesh))
    cloud = corner_cloud(*(_expand(cap, mesh) for cap in (r1_cap, r2_cap, sum_cap)))
    return intersect_frontiers(
        hull_frontier(*cloud), unifying_region(params, alpha_grid=alpha_grid)
    )


def _dense_bc_pr(params, split_grid, alpha_grid):
    mesh = _dense_mesh(split_grid)
    r1_last2, r2_last2, _ = (_expand(c, mesh) for c in _split_caps(params, *mesh))
    q1l1, _, q2l1, q2l2 = _split_forms(params, *mesh)
    rect_r1 = np.concatenate([r1_last2, _expand(gaussian_rate(q1l1), mesh)])
    rect_r2 = np.concatenate(
        [r2_last2, _expand(gaussian_rate(q2l2 / (1.0 + q2l1)), mesh)]
    )
    return intersect_frontiers(
        hull_frontier(rect_r1, rect_r2), unifying_region(params, alpha_grid=alpha_grid)
    )


def _instances():
    """Random instances across the regimes, then zero powers and ``b = 1``."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(18):
        a = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.5))
        b = float(rng.uniform(0.0, 4.0))
        p1, p2 = (float(10.0 ** rng.uniform(-1.5, 1.3)) for _ in range(2))
        out.append(ChannelParams(a, b, p1, p2))
    out += [
        ChannelParams(0.2, 2.5, 0.0, 1.0),
        ChannelParams(0.2, 2.5, 2.0, 0.0),
        ChannelParams(0.0, 3.0, 0.0, 4.0),
        ChannelParams(0.0, 0.7, 3.0, 0.0),
        ChannelParams(0.4, 1.8, 0.0, 0.0),
        ChannelParams(0.3, 1.0, 2.0, 1.0),
    ]
    return out


def test_split_builders_match_dense_path_bitwise():
    alpha = 51
    # 21^4 runs seven slabs; the tailed grid runs one row per slab.
    grids = (21, (sweep_grid(11), 7, 3, 7))
    for i, params in enumerate(_instances()):
        # With two rho2 points the line step's two ends are the whole line;
        # a line bound from one end alone skips lines that hold hull vertices.
        for grid in (grids[i % 2], (11, 11, 11, 2)):
            assert _bits(bc_dms_region(params, grid)) == _bits(
                _dense_bc_dms(params, grid)
            )
            assert _bits(bc_pr_bound(params, grid, alpha)) == _bits(
                _dense_bc_pr(params, grid, alpha)
            )
            if params.b > 1.0:
                assert _bits(th1_bound(params, grid, alpha)) == _bits(
                    _dense_th1(params, grid, alpha)
                )


@pytest.mark.parametrize(
    "grid, every",
    [(23, 8), ((7, 5, 5, 2), 3), ((7, 5, 5, [1.0]), 3), ((6, 4, 3, [0.25]), 3)],
    ids=["prime", "two_rho2", "one_rho2", "one_inner_rho2"],
)
def test_split_builders_match_dense_path_at_a_prime_grid_and_short_rho2_axes(grid, every):
    # A prime grid ends the slabs and the blocks off round sizes; two rho2
    # points make the line step's two ends the whole line, and one point
    # runs no line step.
    for params in _instances()[::every]:
        assert _bits(bc_dms_region(params, grid)) == _bits(_dense_bc_dms(params, grid))
        assert _bits(bc_pr_bound(params, grid, 21)) == _bits(_dense_bc_pr(params, grid, 21))
        if params.b > 1.0:
            assert _bits(th1_bound(params, grid, 21)) == _bits(_dense_th1(params, grid, 21))


@pytest.mark.parametrize(
    "params",
    [
        ChannelParams(0.3, 0.7, 2.0, 3.0),
        ChannelParams(0.0, 5.0, 1.0, 2.0),
        ChannelParams(0.4, 0.0, 3.0, 1.5),
    ],
    ids=["open_weak", "a_zero", "b_zero"],
)
def test_split_builders_match_dense_path_at_41_points_per_axis(params):
    # 2.8M splits: bcpr's rectangles each on their own 41^3 mesh.
    assert _bits(bc_pr_bound(params, 41, 51)) == _bits(_dense_bc_pr(params, 41, 51))
    assert _bits(bc_dms_region(params, 41)) == _bits(_dense_bc_dms(params, 41))


def test_th1_matches_dense_path_at_fig3_mesh():
    # 457 alpha1 rows, 33 slabs of 14 rows: the slab edges, the witness
    # staircase and the bucket table all differ from the 21^4 case.
    split = (sweep_grid(401), 21, 5, 21)
    assert _bits(th1_bound(FIG3, split, 201)) == _bits(_dense_th1(FIG3, split, 201))


# The record each split builder reads its family from.
_RECORDS = {th1_bound: "_TH1", bc_dms_region: "_BC_DMS", bc_pr_bound: "_BC_PR"}


def _spied(build, calls):
    """Patch ``build``'s record so that its tables, corners and line append
    ``(callable, broadcast shape of what they read)`` to ``calls``."""
    name = _RECORDS[build]
    family = getattr(outer_bounds, name)

    def spy(what, evaluate):
        def wrapped(params, *args, **kwargs):
            calls.append((what, np.broadcast_shapes(*(np.shape(v) for v in args))))
            return evaluate(params, *args, **kwargs)

        return wrapped

    spies = {what: spy(what, getattr(family, what)) for what in ("tables", "corners", "line")}
    return mock.patch.object(outer_bounds, name, family._replace(**spies))


def test_bc_pr_evaluates_forms_once_per_block():
    params = ChannelParams(0.3, 0.6, 2.0, 3.0)
    calls = []
    with _spied(bc_pr_bound, calls):
        bc_pr_bound(params, 21, 51)
    # Each rectangle on its own 21^3 mesh: the witness samples of both
    # meshes (every 17th split of 21^2 * 2 rho2 ends, then of 21^3), each
    # read from its two layers' forms.  Then, at the largest rho1, layer
    # 1's forms on its 441 lines and layer 2's at both rho2 ends, the line
    # step, and layer 2's forms on the pairs of the 228 lines kept, in one
    # block; at the largest rho2, layer 1's forms on its 9261 one-split
    # lines and layer 2's on their 441 pairs, in one block, with no line
    # step before them.
    assert calls == [
        ("tables", (52,)),
        ("tables", (52,)),
        ("corners", (52,)),
        ("tables", (545,)),
        ("tables", (545,)),
        ("corners", (545,)),
        ("tables", (21, 21, 1)),
        ("tables", (2, 21, 21)),
        ("line", (2, 441)),
        ("tables", (228, 21)),
        ("corners", (228, 21)),
        ("tables", (21, 21, 21)),
        ("tables", (441, 1)),
        ("corners", (9261, 1)),
    ]


def _evaluated_splits(build, params, split_grid):
    """How many splits ``build`` evaluates, witness and line ends included."""
    calls = []
    with _spied(build, calls):
        build(params, split_grid)
    return sum(math.prod(shape) for what, shape in calls if what != "tables")


# The split axes in the order of a split grid, by the names pins give them.
_AXES = ("alpha1", "alpha2", "rho1", "rho2")


def _pinned_mesh_size(family, params, split_grid):
    """Splits of the meshes a family's kinds run on: one mesh per kind,
    its pinned axis cut, where the family has pins, else the whole mesh."""
    axes = outer_bounds._split_mesh(params, split_grid)
    sizes = [a.size for a in axes]
    total = 0
    for pin in family.pins or [None]:
        cut = [1 if pin == name else n for name, n in zip(_AXES, sizes)]
        total += math.prod(cut)
    return total


@pytest.mark.parametrize(
    "build", [th1_bound, bc_dms_region, bc_pr_bound], ids=["th1", "bcdms", "bcpr"]
)
def test_split_hull_skips_lines_the_witness_beats(build):
    # At the fig3 point the line step leaves unevaluated more splits than
    # the witness and the line ends cost, on the default and tuned meshes:
    # the whole 4-D mesh for th1 and bcdms, both 3-D meshes for bcpr.
    family = FAMILIES[{th1_bound: "th1", bc_dms_region: "bcdms", bc_pr_bound: "bcpr"}[build]]
    for split_grid in (21, (sweep_grid(401), 21, 5, 21)):
        mesh = _pinned_mesh_size(family, FIG3, split_grid)
        assert _evaluated_splits(build, FIG3, split_grid) < mesh


def _powers():
    special = [0.0, 5e-324, 1e-310, 1e-300, 1e15, 1e150, 1e300]
    return st.sampled_from(special) | st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def _channels(draw):
    a = draw(st.just(0.0) | st.floats(0.0, 2.0))
    b = draw(st.just(1.0) | st.floats(0.0, 6.0))
    try:
        return ChannelParams(a, b, draw(_powers()), draw(_powers()))
    except ValueError:  # past the ChannelParams limit
        assume(False)


_LINE_FAMILIES = ("bcdms", "th1", "bcpr")


def _rows(family, params, *split):
    """A family's table rows at the given splits, each a writable array of
    the splits' broadcast shape, as :func:`outer_bounds._split_hull` hands
    them over."""
    alpha1, alpha2, rho1, rho2 = split
    shape = np.broadcast_shapes(*(np.shape(v) for v in split))
    layer1 = family.tables(params, 1, alpha1, alpha2, rho1)
    layer2 = family.tables(params, 2, alpha1, alpha2, rho2)
    return [np.array(np.broadcast_to(column, shape)) for column in (*layer1, *layer2)]


def _line_rows(family, params, alpha1, alpha2, rho1, ends):
    """The table rows of lines: layer 1 per line, layer 2 at the ``ends``
    (leading axis)."""
    layer1 = family.tables(params, 1, alpha1, alpha2, rho1)
    layer2 = family.tables(params, 2, alpha1, alpha2, ends[:, None])
    shape = (ends.size, alpha1.size)
    return [
        *(np.array(np.broadcast_to(column, alpha1.shape)) for column in layer1),
        *(np.array(np.broadcast_to(column, shape)) for column in layer2),
    ]


@settings(max_examples=150, deadline=None)
@given(_channels(), st.sampled_from(_LINE_FAMILIES), st.integers(0, 2**32 - 1))
def test_line_caps_are_monotone_and_bound_the_line(params, name, seed):
    # Each cap the line step reads at one end is monotone along every rho2
    # line within the margin (Theorem 1's are the broadcast pentagon's,
    # before the cut), Theorem 1's cut bound is at least the cut at every
    # split of the line, and each point of the line lies under a raised
    # corner that _line_corners builds from the line maxima.
    family = FAMILIES[name]
    rng = np.random.default_rng(seed)
    lines = 16
    alpha1, alpha2 = (rng.choice([0.0, 1.0, *rng.uniform(0, 1, 6)], lines) for _ in "12")
    rho1 = rng.choice([-1.0, 0.0, 1.0, *rng.uniform(-1, 1, 6)], lines)
    lo, hi = np.sort(rng.choice([-1.0, 1.0, *rng.uniform(-1, 1, 4)], 2))
    rho2 = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, 60)]))
    split = (alpha1[:, None], alpha2[:, None], rho1[:, None], rho2)
    uncut = FAMILIES["bcdms"] if name == "th1" else family
    for caps in uncut.corners(params, *_rows(uncut, params, *split)):
        caps = np.broadcast_arrays(*caps, rho2)[:-1]
        margin = outer_bounds._LINE_MARGIN * (1.0 + np.max(caps, axis=(0, 2)))
        for cap in caps:
            step = np.diff(cap, axis=1)
            rising = np.all(step >= -margin[:, None], axis=1)
            falling = np.all(step <= margin[:, None], axis=1)
            assert np.all(rising | falling)
    if name == "th1":
        def rho(alpha1, alpha2, rho1, rho2):
            terms = (outer_bounds._rho_term(layer, alpha1, alpha2, r) for layer, r in ((1, rho1), (2, rho2)))
            return np.add(*np.broadcast_arrays(*terms))

        cut = outer_bounds._th1_cut(params, rho(*split))
        top = outer_bounds._line_cut(params, rho(alpha1, alpha2, rho1, rho2[[0, -1], None]))
        assert np.all(np.broadcast_to(top, (lines,))[:, None] >= cut)
    # The kinds with a line step: those not pinned to a one-point rho2 axis.
    kinds = [k for k, pin in enumerate(family.pins) if pin != "rho2"]
    select = {"kinds": tuple(kinds)} if family.pins else {}
    ends = _line_rows(family, params, alpha1, alpha2, rho1, rho2[[0, -1]])
    corners = list(outer_bounds._line_corners(family.line(params, *ends, **select)))
    points = family.corners(params, *_rows(family, params, *split), **select)
    for x, y in outer_bounds._points_of(points):
        x, y = np.broadcast_arrays(x, y, rho2)[:2]
        under = [(x <= cx[:, None]) & (y <= cy[:, None]) for cx, cy in corners]
        assert np.logical_or.reduce(under).all()


def _edge_powers():
    special = [0.0, 5e-324, 1e-310, 1e17]
    return st.sampled_from(special) | st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def _edge_channels(draw):
    """Zero, subnormal and huge powers; b at 1 and at both thresholds."""
    p1, p2 = draw(_edge_powers()), draw(_edge_powers())
    a = draw(st.just(0.0) | st.floats(0.0, 2.0))
    at = draw(st.sampled_from(["one", "pdc", "th3", "any"]))
    thresholds = {"one": 1.0, "pdc": pdc_threshold(p1, p2), "th3": th3_threshold(p1, p2)}
    b = thresholds[at] if at in thresholds else draw(st.floats(0.0, 8.0))
    try:
        return ChannelParams(a, b, p1, p2)
    except ValueError:  # past the ChannelParams limit
        assume(False)


def _axis(draw, rng, lo, special):
    size = draw(st.integers(1, 4))
    return np.unique(rng.choice([*special, *rng.uniform(lo, 1.0, 4)], size))


@settings(max_examples=200, deadline=None)
@given(_edge_channels(), st.integers(0, 2**32 - 1), st.data())
def test_table_caps_match_split_caps_bitwise(params, seed, data):
    # Every cap a family reads from its form tables, slab rows broadcast
    # against each other as _split_hull hands them over, has the bits of
    # the per-split formula at the same split, |rho| = 1 included.
    rng = np.random.default_rng(seed)
    axes = [
        _axis(data.draw, rng, lo, special)
        for lo, special in ((0.0, [0.0, 1.0]), (0.0, [0.0, 1.0]), (-1.0, [-1.0, 0.0, 1.0]), (-1.0, [-1.0, 1.0]))
    ]
    alpha1, alpha2, rho1, rho2 = axes
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    shape = np.broadcast_shapes(*(m.shape for m in mesh))

    def rows(family):
        tables = functools.partial(family.tables, params)
        grid = (alpha1[:, None, None], alpha2[:, None])
        layer1 = outer_bounds._table(tables(1, *grid, rho1), shape[:3], {}, 1)[..., None]
        layer2 = outer_bounds._table(tables(2, *grid, rho2), (*shape[:2], rho2.size), {}, 2)
        layer2 = layer2[:, :, :, None, :]
        return [np.array(np.broadcast_to(c, shape)) for c in (*layer1, *layer2)]

    r1_cap, r2_cap, sum_cap = (np.broadcast_to(c, shape) for c in _split_caps(params, *mesh))
    q1l1, _, q2l1, q2l2 = _split_forms(params, *mesh)
    cut = np.minimum(r1_cap, _conditional_r1_caps(params, mesh))
    want = {
        "bcdms": [(r1_cap, r2_cap, sum_cap)],
        "th1": [(cut, r2_cap, sum_cap)],
        "bcpr": [(r1_cap, r2_cap), (gaussian_rate(q1l1), gaussian_rate(q2l2 / (1.0 + q2l1)))],
    }
    for name, groups in want.items():
        family = FAMILIES[name]
        got = family.corners(params, *rows(family))
        assert len(got) == len(groups)
        for got_caps, want_caps in zip(got, groups):
            for g, w in zip(got_caps, want_caps):
                assert np.array_equal(_bits_of(np.broadcast_to(g, shape)), _bits_of(np.broadcast_to(w, shape)))


@settings(max_examples=200, deadline=None)
@given(_edge_channels(), st.integers(0, 2**32 - 1))
def test_th1_pentagon_is_the_broadcast_pentagon_with_its_r1_cut(params, seed):
    # Theorem 1's pentagon at one split is bcdms's, its r1 cap cut by the
    # reference cut at that split's total correlation; r2 and the raw sum
    # cap keep their bits.
    assume(params.b > 1.0)
    rng = np.random.default_rng(seed)
    alphas = (rng.choice([0.0, 1.0, rng.random()]) for _ in "12")
    rhos = (rng.choice([-1.0, 0.0, 1.0, rng.uniform(-1.0, 1.0)]) for _ in "12")
    split = CovarianceSplit(*alphas, *rhos)
    broadcast = FAMILIES["bcdms"].pentagon(params, split)
    cut = _conditional_r1_caps(params, [np.array([v]) for v in astuple(split)])
    r1 = np.minimum(broadcast.r1_max, np.broadcast_to(cut, (1,))[0])
    want = Pentagon(r1, broadcast.r2_max, broadcast.sum_max)
    got = FAMILIES["th1"].pentagon(params, split)
    fields = ("r1_max", "r2_max", "sum_max")
    assert [_bits_of(getattr(got, f)) for f in fields] == [_bits_of(getattr(want, f)) for f in fields]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["pool", "uniform"]))
def test_box_test_drops_only_beaten_points(seed, mode):
    # A pentagon whose box corner (min(r1, sum), min(r2, sum)) the bucket
    # test drops has both corners beaten by a witness, and the test on
    # either corner drops it too.
    rng = np.random.default_rng(seed)
    n = 400
    if mode == "pool":  # exact copies and zeros of both signs
        caps = rng.choice([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0], (3, n))
    else:
        caps = rng.uniform(0.0, 3.0, (3, n))
    corners = _corner_kinds(*caps)
    wx = np.concatenate([x[:40] for x, _ in corners] + [rng.uniform(0.0, 3.0, 10)])
    wy = np.concatenate([y[:40] for _, y in corners] + [rng.uniform(0.0, 3.0, 10)])
    wx, wy = region_geometry._staircase(wx, wy)
    prefilter = region_geometry._witness_filter(wx, wy)
    dropped = np.setdiff1d(np.arange(n), prefilter(*caps))
    for x, y in corners:
        assert not np.isin(dropped, prefilter(x, y)).any()
        beaten = (wx[:, None] >= x[dropped]) & (wy[:, None] > y[dropped])
        assert beaten.any(axis=0).all()


# Per pinned kind of point, the coordinates that do not read its pinned axis.
_UNREAD = {("bcpr", 0): (1,), ("bcpr", 1): (0,)}


def test_pins_are_declared_where_the_point_is_dominated():
    pinned = {
        (name, kind)
        for name, family in FAMILIES.items()
        for kind, pin in enumerate(family.pins)
        if pin is not None
    }
    assert pinned == set(_UNREAD)
    assert not FAMILIES["th1"].pins and not FAMILIES["bcdms"].pins


@settings(max_examples=150, deadline=None)
@given(_channels(), st.sampled_from(sorted(_UNREAD)), st.integers(0, 2**32 - 1))
def test_pinned_kinds_are_dominated_at_the_largest_value(params, pinned, seed):
    # Along the pinned axis, the rest of the split fixed, each coordinate of
    # the kind's point does not fall, and those that do not read the axis
    # keep their bits; so the point at the axis's largest value is at least
    # every other one in both coordinates.
    name, kind = pinned
    family = FAMILIES[name]
    axis = _AXES.index(family.pins[kind])
    rng = np.random.default_rng(seed)
    splits = 16
    split = [
        rng.choice([lo, 0.0, 1.0, *rng.uniform(lo, 1, 6)], splits)[:, None]
        for lo in (0.0, 0.0, -1.0, -1.0)
    ]
    lo, hi = np.sort(rng.choice([-1.0, 1.0, *rng.uniform(-1, 1, 4)], 2))
    split[axis] = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, 40)]))
    (x, y), = family.corners(params, *_rows(family, params, *split), kinds=(kind,))
    point = np.broadcast_arrays(x, y, *split)[:2]
    for i, coord in enumerate(point):
        if i in _UNREAD[pinned]:
            first = np.broadcast_to(coord[:, :1], coord.shape)
            assert np.array_equal(_bits_of(coord), _bits_of(first))
        else:
            assert np.all(np.diff(coord, axis=1) >= 0.0)
        assert np.all(coord <= coord[:, -1:])


@st.composite
def _split_grids(draw):
    """Small split grids: integers, or explicit axes, with rho2 axes that
    stop short of +-1 or hold only one to three points."""
    power = st.integers(2, 6) | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)
    rho = st.integers(2, 9) | st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5)
    short = st.lists(st.floats(-0.95, 0.95), min_size=3, max_size=8)
    return (draw(power), draw(power), draw(rho), draw(rho | short))


@settings(max_examples=150, deadline=None)
@given(_channels(), _split_grids(), st.integers(1, 200), st.integers(1, 20))
def test_split_builders_match_dense_path_on_random_meshes(params, grid, block, stride):
    with mock.patch.object(outer_bounds, "_BLOCK_SPLITS", block), mock.patch.object(
        outer_bounds, "_WITNESS_STRIDE", stride
    ):
        assert _bits(bc_dms_region(params, grid)) == _bits(_dense_bc_dms(params, grid))
        assert _bits(bc_pr_bound(params, grid, 21)) == _bits(
            _dense_bc_pr(params, grid, 21)
        )
        if params.b > 1.0:
            assert _bits(th1_bound(params, grid, 21)) == _bits(
                _dense_th1(params, grid, 21)
            )


def test_zero_power_meshes_collapse_to_one_axis():
    axes = outer_bounds._split_mesh(ChannelParams(0.2, 2.5, 2.0, 0.0), 21)
    assert [axis.size for axis in axes] == [21, 1, 1, 1]
    axes = outer_bounds._split_mesh(ChannelParams(0.2, 2.5, 0.0, 1.0), 21)
    assert [axis.size for axis in axes] == [1, 21, 1, 1]
    axes = outer_bounds._split_mesh(ChannelParams(0.2, 2.5, 0.0, 0.0), 21)
    assert [axis.size for axis in axes] == [1, 1, 1, 1]


def test_split_hull_rejects_non_finite_corners():
    # b^2 * p1 overflows, so the caps hold inf and the corners NaN.
    # ChannelParams refuses such an instance, so the hull's own guard is
    # reached with one built past that check.
    with pytest.raises(ValueError, match="gains and powers too large"):
        ChannelParams(0.0, 1e200, 1e200, 1.0)
    params = object.__new__(ChannelParams)
    for name, value in zip(("a", "b", "p1", "p2"), (0.0, 1e200, 1e200, 1.0)):
        object.__setattr__(params, name, value)
    for build in (bc_dms_region, th1_bound, bc_pr_bound):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="corner coordinates must be finite"
        ):
            build(params, 5)


# ------------------------------------------------------------------ memory


def test_split_hull_evaluates_at_most_one_slab_per_call():
    # Neither the witness sample, a slab's form tables, the line ends nor a
    # block spans more than _BLOCK_SPLITS splits unless one alpha1 row
    # alone holds more, however many splits the mesh has: the witness
    # stride grows with the mesh.
    params = ChannelParams(0.3, 3.0, 2.0, 3.0)
    split_grid = (200, 3, 3, 3)
    block, row = 32, 3 * 3 * 3
    spans = []

    def spanned(evaluate):
        def wrapped(*rows):
            spans.append(math.prod(np.broadcast_shapes(*(np.shape(v) for v in rows))))
            return evaluate(params, *rows)

        return wrapped

    with mock.patch.object(outer_bounds, "_BLOCK_SPLITS", block):
        got = outer_bounds._split_hull(
            params,
            split_grid,
            spanned(outer_bounds._th1_caps),
            spanned(outer_bounds._th1_line),
            tables=spanned(outer_bounds._th1_tables),
        )
    assert max(spans) <= max(block, row)
    want = th1_bound(params, split_grid, alpha_grid=51)
    assert _bits(intersect_frontiers(got, unifying_region(params, 51))) == _bits(want)



def test_split_hull_memory_is_bounded_at_81_points_per_axis():
    # 43M splits, whose caps alone would take over 1 GB as dense arrays.
    for build in (bc_pr_bound, bc_dms_region):
        tracemalloc.start()
        try:
            build(FIG3, split_grid=81)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def test_th1_fig3_mesh_memory_is_bounded():
    # The dense path held the caps and the 2.0M-point cloud: a 94 MB peak.
    split = (sweep_grid(401), 21, 5, 21)
    tracemalloc.start()
    try:
        th1_bound(FIG3, split_grid=split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert math.prod(a.size for a in outer_bounds._split_mesh(FIG3, split)) > 10**6
