"""Pentagon/frontier geometry: construction, unions, hulls, containment."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogregions import outer_bounds, region_geometry
from cogregions.channel import ChannelParams
from cogregions.region_geometry import (
    Frontier,
    Pentagon,
    concavify,
    contains,
    corner_cloud,
    grid_axis,
    hull_frontier,
    intersect_frontiers,
    pentagon_corners,
    sweep_grid,
    union_frontier_arrays,
)


# ---------------------------------------------------------------- pentagons


def test_pentagon_normalizes_vacuous_sum():
    p = Pentagon(1.0, 1.0, 3.0)
    assert p.sum_max == 2.0


def test_pentagon_rejects_bad_inputs():
    with pytest.raises(ValueError) as err:
        Pentagon(1.0, -0.5, 1.0)
    assert "nonnegative" in str(err.value)
    with pytest.raises(ValueError) as err:
        Pentagon(math.nan, 1.0, 1.0)
    assert str(err.value) == "pentagon constraints must not be NaN"


def test_corners_symmetric_pentagon():
    assert pentagon_corners(Pentagon(1.0, 1.0, 1.5)) == [(0.5, 1.0), (1.0, 0.5)]


def test_corners_rectangle_single_vertex():
    assert pentagon_corners(Pentagon(1.0, 1.0, 3.0)) == [(1.0, 1.0)]
    # An infinite r1 cap leaves the sum cap infinite: one corner, at r1 = inf.
    assert pentagon_corners(Pentagon(math.inf, 1.0)) == [(math.inf, 1.0)]


def test_corners_power_reduction_shape():
    # Pentagon from the single-transmitter reduction: two Pareto corners.
    got = pentagon_corners(Pentagon(2.585, 8.969, 8.969))
    assert len(got) == 2
    assert got[0] == (0.0, 8.969)
    assert got[1][0] == pytest.approx(2.585, abs=1e-12)
    assert got[1][1] == pytest.approx(8.969 - 2.585, abs=1e-12)


def test_corners_sum_only_region():
    # Sum cap below both rate caps: the region is a clipped triangle.
    got = pentagon_corners(Pentagon(2.0, 2.0, 1.0))
    assert got == [(0.0, 1.0), (1.0, 0.0)]


# ---------------------------------------------------------------- frontiers


def test_frontier_validation():
    with pytest.raises(ValueError) as err:
        Frontier(np.array([0.5, 1.0]), np.array([1.0, 0.5]))
    assert str(err.value) == "frontier must start at r1 = 0"
    with pytest.raises(ValueError) as err:
        Frontier(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert str(err.value) == "frontier r1 values must be strictly increasing"
    with pytest.raises(ValueError) as err:
        Frontier(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    assert str(err.value) == "frontier r2 values must be non-increasing"
    shape = "frontier needs matching non-empty 1-D r1/r2 arrays"
    for r1, r2, message in (
        ([], [], shape),
        ([0.0, 1.0], [1.0], shape),
        ([[0.0, 1.0]], [[1.0, 0.5]], shape),
        ([0.0, math.inf], [1.0, 0.5], "frontier vertices must be finite"),
        ([0.0, 1.0], [1.0, math.nan], "frontier vertices must be finite"),
        ([0.0, 1.0], [0.5, -0.5], "frontier r2 values must be nonnegative"),
    ):
        with pytest.raises(ValueError) as err:
            Frontier(np.array(r1), np.array(r2))
        assert str(err.value) == message


def test_frontier_interp_and_serialization():
    f = Frontier(np.array([0.0, 1.0, 2.0]), np.array([2.0, 2.0, 1.0]))
    assert f.max_r1 == 2.0
    assert f.interp(1.5) == pytest.approx(1.5)
    csv = f.to_csv()
    assert csv.splitlines()[0] == "r1_bits,r2_bits"
    assert csv.splitlines()[1] == "0,2"
    assert f.to_json() == {"points": [[0.0, 2.0], [1.0, 2.0], [2.0, 1.0]]}


def test_frontier_interp_across_a_subnormal_step():
    # The last edge drops 0.585 bits over a 2.2e-311 step, as on the
    # Theorem-1 hull at a subnormal p1: np.interp's slope overflows there.
    f = Frontier(np.array([0.0, 1.22e-310, 1.44e-310]), np.array([1.585, 1.585, 1.0]))
    xs = np.array([-1.0, 0.0, 6e-311, 1.22e-310, 1.33e-310, 1.44e-310, 1.0])
    got = f.interp(xs)
    assert np.all(np.isfinite(got))
    assert got[4] == pytest.approx(1.2925, rel=1e-9)
    assert f.interp(1.33e-310) == got[4]
    exact = np.array([True, True, True, True, False, True, True])
    assert np.array_equal(_bits(got[exact]), _bits(np.interp(xs[exact], f.r1, f.r2)))


def test_union_single_rectangle_is_flat_segment():
    f = union_frontier_arrays([1.0], [1.0], [math.inf])
    np.testing.assert_allclose(f.interp([0.0, 0.5, 1.0]), 1.0, atol=0)
    assert f.max_r1 == 1.0


def test_union_two_rectangles_staircase():
    f = union_frontier_arrays([1.0, 2.0], [2.0, 1.0], [math.inf, math.inf])
    # The vertices are the corners; the corner at r1 = 1 belongs to the tall box.
    assert f.r1.tolist() == [0.0, 1.0, 2.0]
    assert f.r2.tolist() == [2.0, 2.0, 1.0]
    # Between the corners the frontier is their chord, which time sharing
    # achieves, not the union's step.
    assert f.interp(1.5) == 1.5


def test_union_errors():
    for build in (union_frontier_arrays, corner_cloud):
        with pytest.raises(ValueError) as err:
            build([], [], [])
        assert str(err.value) == "no pentagons"
    with pytest.raises(ValueError) as err:
        union_frontier_arrays([1.0, math.inf], [1.0, 1.0], [2.0, math.inf])
    assert str(err.value) == "region unbounded in r1"
    with pytest.raises(ValueError) as err:
        union_frontier_arrays([1.0], [math.inf], [math.inf])
    assert str(err.value) == "region unbounded in r2"
    # A finite sum cap bounds both rates, whatever the rate caps.
    f = union_frontier_arrays([math.inf, 0.5], [math.inf, math.inf], [2.0, 1.0])
    assert f.r1.tolist() == [0.0, 2.0] and f.r2.tolist() == [2.0, 0.0]


def test_union_hits_exact_corner():
    # An irrational corner abscissa: the pentagon is admissible at its own
    # extent, with no slack.
    pent = Pentagon(math.sqrt(2.0) / 2.0, 1.0, math.inf)
    f = union_frontier_arrays([pent.r1_max], [pent.r2_max], [pent.sum_max])
    assert f.r1[-1] == pent.r1_max
    # The normalized sum cap r1 + r2 rounds, so the corner on the r2 cap
    # may sit an ulp left of the extent and the sum cap may clip the last
    # ulp of r2 there; the vertices are the pentagon's own corners.
    assert f.interp(pent.r1_max) == pytest.approx(1.0, abs=1e-15)
    assert list(zip(f.r1[1:].tolist(), f.r2[1:].tolist())) == pentagon_corners(pent)


def test_sweep_grid_shape():
    g = sweep_grid(101)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0)
    assert g.min() == 0.0 and g.max() == 1.0
    assert np.any(g <= 1e-8)  # boundary layer resolved
    with pytest.raises(ValueError):
        sweep_grid(1)


# ------------------------------------------------------------------- hulls


def test_concavify_bridges_staircase():
    stair = Frontier(np.array([0.0, 1.0, 2.0]), np.array([2.0, 2.0, 1.0]))
    hull = concavify(stair)
    # Hull passes through the chord r1 + r2 = 3 between (1,2) and (2,1).
    assert hull.interp(1.5) == pytest.approx(1.5)
    assert hull.interp(2.0) == pytest.approx(1.0)


def test_concavify_idempotent_on_concave_input():
    f = Frontier(np.array([0.0, 1.0, 2.0]), np.array([3.0, 2.5, 1.0]))
    g = concavify(f)
    xs = np.linspace(0.0, 2.0, 101)
    np.testing.assert_allclose(g.interp(xs), f.interp(xs), atol=1e-12)
    h = concavify(g)
    np.testing.assert_allclose(h.interp(xs), g.interp(xs), atol=1e-12)


def test_hull_frontier_from_corner_cloud():
    x, y = corner_cloud(
        np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([math.inf, math.inf])
    )
    hull = hull_frontier(x, y)
    assert hull.interp(0.0) == pytest.approx(2.0)
    assert hull.interp(1.5) == pytest.approx(1.5)
    assert hull.max_r1 == 2.0


def test_corner_cloud_matches_pentagon_corners():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.uniform(0.0, 3.0, size=2)
        s = rng.uniform(0.0, 6.0)
        cloud_x, cloud_y = corner_cloud([a], [b], [s])
        cloud = set(zip(np.round(cloud_x, 12), np.round(cloud_y, 12)))
        want = {
            (round(cx, 12), round(cy, 12))
            for cx, cy in pentagon_corners(Pentagon(a, b, s))
        }
        # Every Pareto corner appears in the cloud (cloud may hold dominated
        # duplicates; the hull discards those).
        assert want <= cloud


def test_hull_frontier_rejects_empty_and_non_finite():
    with pytest.raises(ValueError) as err:
        hull_frontier(np.array([]), np.array([]))
    assert str(err.value) == "no pentagons"
    with pytest.raises(ValueError):
        hull_frontier(np.array([0.0, math.inf]), np.array([1.0, 1.0]))


# ------------------------------------------------- intersection/containment


def test_intersect_with_self_is_identity():
    f = Frontier(np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.5, 0.5]))
    g = intersect_frontiers(f, f)
    xs = np.linspace(0.0, 2.0, 101)
    np.testing.assert_allclose(g.interp(xs), f.interp(xs), atol=1e-12)


def test_intersect_rectangles():
    f = Frontier(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    g = Frontier(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    h = intersect_frontiers(f, g)
    assert h.max_r1 == 1.0
    np.testing.assert_allclose(h.interp([0.0, 0.5, 1.0]), 0.5, atol=0)


def test_intersect_adds_the_crossing():
    f = Frontier(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    g = Frontier(np.array([0.0, 1.0]), np.array([0.8, 0.2]))
    h = intersect_frontiers(f, g)
    assert h.r1.size == 3
    assert h.r1[1] == pytest.approx(0.5, abs=1e-15)
    assert h.interp(0.5) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_intersect_is_the_pointwise_minimum(data):
    f, g = data.draw(_frontiers()), data.draw(_frontiers())
    h = intersect_frontiers(f, g)
    assert h.max_r1 == min(f.max_r1, g.max_r1)
    xs = np.linspace(0.0, h.max_r1, 257)
    want = np.minimum(f.interp(xs), g.interp(xs))
    np.testing.assert_allclose(h.interp(xs), want, rtol=0.0, atol=1e-12)


# Bits by which an operand vertex that the intersection drops may sit off
# its polyline: the vertex lies on the other operand's edge, which the
# interpolation between the kept breakpoints rounds (at most 1.7e-12 over
# 20,000 random pairs of these frontiers, 1.3e-12 over the open-regime
# outer frontiers of three seeds of the benchmark's regime sweep, both on
# steep edges).
_DROPPED_VERTEX_BITS = 1e-11


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_intersect_keeps_only_the_minimums_breakpoints(data):
    f, g = data.draw(_frontiers()), data.draw(_frontiers())
    h = intersect_frontiers(f, g)
    fx, gx = f.interp(h.r1), g.interp(h.r1)
    # Every value is the minimum at its abscissa, bit for bit.
    assert np.array_equal(_bits(h.r2), _bits(np.minimum(fx, gx)))
    # Every vertex is a vertex of an operand that attains the minimum there,
    # a crossing of the two, or the right end.  A crossing lies strictly
    # inside a cell between two operand vertices where f - g changes sign,
    # unless its interpolation rounds onto the cell's end: then it is the
    # cell's clipped crossing, where one difference is a rounding bit.
    xs = np.union1d(f.r1, g.r1)
    xs = xs[xs <= h.max_r1]
    d = f.interp(xs) - g.interp(xs)
    i = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    x0, x1 = xs[i], xs[i + 1]
    clipped = np.clip(x0 + d[i] / (d[i] - d[i + 1]) * (x1 - x0), x0, x1)
    clipped = set(clipped[np.isin(clipped, xs)].tolist())
    for x, fv, gv in zip(h.r1.tolist(), fx.tolist(), gx.tolist()):
        if x == h.max_r1 or (x in f.r1 and fv <= gv) or (x in g.r1 and gv <= fv):
            continue
        if x in clipped:
            continue
        assert x not in xs
        i = np.searchsorted(xs, x) - 1
        assert d[i] * d[i + 1] < 0.0
    # Every operand vertex in range lies on the polyline.
    for op in (f, g):
        v = op.r1[op.r1 <= h.max_r1]
        want = np.minimum(f.interp(v), g.interp(v))
        assert np.max(np.abs(h.interp(v) - want)) <= _DROPPED_VERTEX_BITS


def test_intersect_drops_the_vertices_above_the_minimum():
    # g's vertex at 0.5 lies above f, and f's vertex at 1.5 above g: only
    # f's start, the crossing at 1 / 0.7 and g's end remain.
    f = Frontier(np.array([0.0, 1.5, 2.0]), np.array([1.0, 0.25, 0.0]))
    g = Frontier(np.array([0.0, 0.5, 1.8]), np.array([2.0, 1.0, 0.0]))
    h = intersect_frontiers(f, g)
    assert h.r1.size == 3
    assert h.r1[[0, 2]].tolist() == [0.0, 1.8]
    assert h.r1[1] == pytest.approx(1.0 / 0.7, abs=1e-15)
    assert h.r2[[0, 2]].tolist() == [1.0, 0.0]
    assert h.r2[1] == pytest.approx(1.0 - 0.5 / 0.7, abs=1e-15)


def test_contains_checks_outer_vertices_too():
    # The worst point is an outer vertex, between the inner ones.
    outer = Frontier(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.2, 0.19]))
    inner = Frontier(np.array([0.0, 1.0]), np.array([0.5, 0.3]))
    rep = contains(outer=outer, inner=inner, tol=1e-9)
    assert rep.max_discrepancy == pytest.approx(0.2)
    assert rep.worst_case["r1"] == 0.5


def test_contains_checks_just_past_the_outer_range():
    # Past the outer range the inner r2 falls from 0.5 to 0 at its last vertex.
    outer = Frontier(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    inner = Frontier(np.array([0.0, 2.0]), np.array([1.0, 0.0]))
    rep = contains(outer=outer, inner=inner, tol=1e-9)
    assert rep.max_discrepancy == pytest.approx(0.5)
    assert rep.worst_case["outer_r2"] == 0.0


def test_contains_reflexive_at_zero_tolerance():
    f = Frontier(np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.5, 0.5]))
    rep = contains(outer=f, inner=f, tol=0.0)
    assert rep.passed
    assert rep.max_discrepancy == 0.0


def test_contains_detects_violation():
    inner = Frontier(np.array([0.0, 1.0]), np.array([2.0, 2.0]))
    outer = Frontier(np.array([0.0, 1.0]), np.array([1.5, 1.5]))
    rep = contains(outer=outer, inner=inner, tol=1e-9)
    assert not rep.passed
    assert rep.max_discrepancy == pytest.approx(0.5)
    assert rep.worst_case["r1"] == pytest.approx(0.0)


def test_contains_inner_extends_beyond_outer():
    inner = Frontier(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    outer = Frontier(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    rep = contains(outer=outer, inner=inner, tol=1e-9)
    assert not rep.passed  # points past the outer support exceed r2=0 there


def test_report_json_line_is_deterministic():
    f = Frontier(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    rep = contains(outer=f, inner=f, tol=0.0)
    assert rep.to_json_line() == rep.to_json_line()
    assert rep.to_json_line().startswith('{"name":')


# ------------------------------------- exact kernels vs dense references


def _dense_envelope(r1_ext, r2cap, sum_cap, grid):
    """Reference: every pentagon evaluated at every grid point."""
    g = grid[:, None]
    vals = np.where(
        r1_ext[None, :] >= g,
        np.minimum(r2cap[None, :], sum_cap[None, :] - g),
        -np.inf,
    )
    return vals.max(axis=1)


def _unfiltered_hull(x, y):
    """Reference: staircase of the whole cloud, then the monotone chain."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    order = np.lexsort((-y, x))
    x, y = x[order], y[order]
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] > x[:-1]
    x, y = x[first], y[first]
    suffix = np.maximum.accumulate(y[::-1])[::-1]
    keep = np.empty(y.size, dtype=bool)
    keep[:-1] = y[:-1] > suffix[1:]
    keep[-1] = True
    x, y = x[keep], y[keep]
    if x[0] > 0.0:
        x = np.concatenate([[0.0], x])
        y = np.concatenate([[y[0]], y])
    hull_x, hull_y = [x[0]], [y[0]]
    for xi, yi in zip(x[1:].tolist(), y[1:].tolist()):
        while len(hull_x) >= 2:
            cross = (hull_x[-1] - hull_x[-2]) * (yi - hull_y[-2]) - (
                xi - hull_x[-2]
            ) * (hull_y[-1] - hull_y[-2])
            if cross < 0.0:
                break
            hull_x.pop()
            hull_y.pop()
        hull_x.append(xi)
        hull_y.append(yi)
    return np.array(hull_x), np.array(hull_y)


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


# Small pools force tied caps, zero caps and shared abscissas.
_CAP = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 3.0)
)
_SUM = st.one_of(_CAP, st.floats(0.0, 6.0), st.just(math.inf))


@st.composite
def _families(draw):
    m = draw(st.integers(1, 25))
    return tuple(
        np.array(draw(st.lists(cap, min_size=m, max_size=m)))
        for cap in (_CAP, _CAP, _SUM)
    )


# Bits by which the corner hull may sit under the union at a corner
# abscissa: the monotone chain's pop test rounds, so it may drop a corner
# that lies an ulp above a chord (at most 2.2e-16 over 20,000 random
# families).
_CHAIN_ROUNDING = 1e-14


def _pentagon_corner_set(a, b, s):
    """Every :func:`pentagon_corners` corner of every pentagon."""
    return {
        corner
        for caps in zip(a.tolist(), b.tolist(), s.tolist())
        for corner in pentagon_corners(Pentagon(*caps))
    }


@settings(max_examples=300, deadline=None)
@given(_families())
def test_union_is_the_hull_of_its_corners(family):
    f = union_frontier_arrays(*family)
    # Negative zeros count as zeros: the frontier starts at +0.0.
    assert _bits(f.r1)[0] == 0
    a, b, s = (v + 0.0 for v in family)
    hull = hull_frontier(*corner_cloud(a, b, s))
    assert np.array_equal(_bits(f.r1), _bits(hull.r1))
    assert np.array_equal(_bits(f.r2), _bits(hull.r2))
    # Outer stays outer: on or above the union at every corner abscissa, up
    # to the chain's rounding.  Between two of them the union is convex and
    # the hull concave, so no other point can do worse.
    sum_cap = np.minimum(s, a + b)
    r1_ext = np.minimum(a, sum_cap)
    r2cap = np.minimum(b, sum_cap)
    knees = np.minimum(sum_cap - r2cap, r1_ext)
    corners = np.unique(np.concatenate([[0.0], r1_ext, knees]))
    union = _dense_envelope(r1_ext, r2cap, sum_cap, corners)
    assert np.all(f.interp(corners) >= union - _CHAIN_ROUNDING)
    # Inner stays achievable: every vertex past r1 = 0 is a pentagon's corner.
    vertices = set(zip(f.r1.tolist(), f.r2.tolist()))
    assert {v for v in vertices if v[0] > 0.0} <= _pentagon_corner_set(a, b, s)


@st.composite
def _clouds(draw):
    n = draw(st.integers(1, 400))
    kind = draw(
        st.sampled_from(
            [
                "pool",
                "uniform",
                "collinear",
                "shared_x",
                "near_collinear",
                "noisy_concave",
                "flat_runs",
            ]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "pool":  # many duplicate points and shared coordinates
        x = rng.choice([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0], n)
        y = rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], n)
    elif kind == "uniform":
        x, y = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n)
    elif kind == "collinear":
        x = rng.choice(np.linspace(0.0, 2.0, 17), n)
        y = 2.0 - x
    elif kind == "near_collinear":  # the pop test's sign is rounding noise
        x = rng.uniform(0.0, 2.0, n)
        y = 2.0 - x + rng.normal(0.0, 1e-16, n)
    elif kind == "noisy_concave":
        x = rng.uniform(0.0, 1.0, n)
        y = np.sqrt(1.0 - x * x) + rng.normal(0.0, 10.0 ** rng.uniform(-16, -3), n)
    elif kind == "flat_runs":  # long runs of one r2 value
        x = rng.uniform(0.0, 2.0, n)
        y = np.round(2.0 - x * x / 2.0, 1)
    else:
        x = np.full(n, 1.25)
        y = rng.uniform(0.0, 3.0, n)
    return x, y


@settings(max_examples=400, deadline=None)
@given(_clouds())
def test_hull_frontier_matches_unfiltered_staircase_bitwise(cloud):
    x, y = cloud
    got = hull_frontier(x, y)
    want_x, want_y = _unfiltered_hull(x, y)
    assert np.array_equal(_bits(got.r1), _bits(want_x))
    assert np.array_equal(_bits(got.r2), _bits(want_y))


@settings(max_examples=400, deadline=None)
@given(_clouds(), st.integers(1, 64))
def test_witness_prefilter_keeps_the_staircase_bitwise(cloud, stride):
    # The split-hull builders drop the points a sampled staircase beats
    # before the full staircase; that must leave the staircase unchanged.
    x, y = cloud
    staircase = region_geometry._staircase
    keep = region_geometry._witness_filter(*staircase(x[::stride], y[::stride]))(x, y)
    got_x, got_y = staircase(x[keep], y[keep])
    want_x, want_y = staircase(x, y)
    assert np.array_equal(_bits(got_x), _bits(want_x))
    assert np.array_equal(_bits(got_y), _bits(want_y))


# Staircases from a seeded search over random clouds.  In the first, one
# segment between candidate hull vertices is not simple.  In the second,
# near-collinear, the loop over that segment would pop the vertex it starts
# from.  In the third, also near-collinear, each point of every segment pops
# its predecessor, but one point would pop the vertex that starts its
# segment: only that test fails the segment.  In the fourth, the first
# segment that is not simple lies between simple ones.  The fifth has a
# dent of ten points, which the candidate step peels one per round: it runs
# out of rounds with part of the dent left, and the certificate stops there.
# Each time the chain kernel runs the sequential loop over a segment that is
# not simple, from the certified stack h_0 .. h_t; where that run pops h_t,
# it goes on over the points past the segment.
_ONE_SEGMENT = (
    [0.0, 0.06555800041283832, 0.46148527862338673, 0.8345174520624182,
     2.7092224775834413],
    [2.458388151696552, 2.458388151696552, 2.1437331325260245,
     1.4978614159576138, 1.4501568340033038],
)
_NEAR_COLLINEAR = (
    [0.0, 0.929081878694771, 1.3614342168382845, 1.8796396857866275,
     1.95883510475865],
    [1.070918121305229, 1.070918121305229, 0.6385657831617155,
     0.12036031421337258, 0.041164895241349996],
)
_POPS_ITS_VERTEX = (
    [0.0, 0.38821899838209073, 1.4169074035317688, 1.4608833489034156,
     1.7975002781392873, 1.8136045059644341],
    [1.6117810016179093, 1.6117810016179093, 0.583092596468231,
     0.5391166510965845, 0.20249972186071263, 0.18639549403556574],
)
# Candidate hull vertices h = [0, 1, 4, 5]; segment (1, 4] is not simple.
_INTERIOR_SEGMENT = (
    [0.0, 0.311, 0.546, 0.673, 2.573, 2.581],
    [2.22, 2.22, 2.104, 1.985, 1.444, 1.316],
)
_LONG_DENT = (
    [i / 20 for i in range(11)] + [3.0],
    [1.0 - (i / 20) ** 2 for i in range(11)] + [0.74],
)


@pytest.mark.parametrize(
    "cloud, loops",
    [
        # (stack held, points pushed): the loop runs from h_0 .. h_t over
        # the segment, then over what is left if the segment popped h_t.
        (_ONE_SEGMENT, [(2, 3)]),
        (_NEAR_COLLINEAR, [(2, 3), (4, 0)]),
        (_POPS_ITS_VERTEX, [(3, 2), (4, 0)]),
        (_INTERIOR_SEGMENT, [(2, 3)]),
        (_LONG_DENT, [(3, 9), (3, 0)]),
    ],
)
def test_chain_kernel_resumes_from_certified_stack(cloud, loops):
    x, y = (np.array(v) for v in cloud)
    calls = []
    loop = region_geometry._monotone_chain

    def spy(xs, ys, hull_x, hull_y):
        calls.append((len(hull_x), len(xs)))
        return loop(xs, ys, hull_x, hull_y)

    with mock.patch.object(region_geometry, "_monotone_chain", spy):
        got = hull_frontier(x, y)
    assert calls == loops
    want_x, want_y = _unfiltered_hull(x, y)
    assert np.array_equal(_bits(got.r1), _bits(want_x))
    assert np.array_equal(_bits(got.r2), _bits(want_y))


# A concave staircase whose first segment alone is not simple: the
# candidate drops both points between (0, 10) and (3, 8.2) at once, but the
# loop keeps (1, 9.3) until (3, 8.2) pops it, as (2, 8.4) does not.
_FIRST_SEGMENT = (
    [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    [10.0, 9.3, 8.4, 8.2, 7.4, 6.4, 5.0, 3.0],
)


def test_chain_kernel_replays_only_the_segment_that_is_not_simple():
    x, y = (np.array(v) for v in _FIRST_SEGMENT)
    calls = []
    loop = region_geometry._monotone_chain

    def spy(xs, ys, hull_x, hull_y):
        calls.append((len(hull_x), len(xs)))
        return loop(xs, ys, hull_x, hull_y)

    with mock.patch.object(region_geometry, "_monotone_chain", spy):
        got = region_geometry._concave_chain(x, y)
    # One run of the loop over the first segment, from the stack [h_0].
    assert calls == [(1, 3)]
    assert got[0].tolist() == [0.0, 3.0, 4.0, 5.0, 6.0, 7.0]


@st.composite
def _chain_inputs(draw):
    """Strictly increasing x, strictly decreasing y: zig-zags, collinear
    runs, zeros of both signs, and bumps in the first segment."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["zigzag", "collinear", "zeros", "bumps"]))
    x = np.cumsum(rng.choice([0.125, 0.25, 0.5], n)) if mode == "collinear" else np.cumsum(rng.uniform(0.01, 1.0, n))
    if mode == "zigzag":  # slopes alternately steep and shallow
        drops = np.where(np.arange(n) % 2 == 0, 1.0, 0.05) * rng.uniform(0.5, 1.5, n)
    elif mode == "collinear":  # exact runs of a few slopes
        drops = np.repeat(rng.choice([0.125, 0.25, 0.5], n // 8 + 1), 8)[:n] * (x - np.append(0.0, x[:-1]))
    elif mode == "bumps":  # a concave chain with points pushed up or down
        drops = np.sort(rng.uniform(0.01, 1.0, n)) * rng.choice([0.7, 1.0, 1.3], n)
    else:
        drops = rng.uniform(0.01, 1.0, n)
    y = np.cumsum(drops[::-1])[::-1] - drops[-1]
    if mode == "zeros":
        x = x - x[0]
        x[0] = draw(st.sampled_from([0.0, -0.0]))
        y[-1] = draw(st.sampled_from([0.0, -0.0]))
    return x, y


@settings(max_examples=300, deadline=None)
@given(_chain_inputs())
def test_chain_kernel_matches_the_loop_bitwise(chain):
    x, y = chain
    got_x, got_y = region_geometry._concave_chain(x, y)
    want_x, want_y = region_geometry._monotone_chain(
        x[1:].tolist(), y[1:].tolist(), [float(x[0])], [float(y[0])]
    )
    assert np.array_equal(_bits(got_x), _bits(np.array(want_x)))
    assert np.array_equal(_bits(got_y), _bits(np.array(want_y)))


def _lexsort_staircase(x, y):
    """Reference: the staircase as one lexsort by x, then by y descending."""
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


# Zeros of both signs, subnormals and a few shared values, so that runs of
# equal x hold exact copies and copies that differ only in a zero's sign.
_TIES = [-0.0, 0.0, 5e-324, 1e-310, 0.5, 1.0, 2.0]


@st.composite
def _tied_clouds(draw):
    """Clouds with runs of equal x, or two x-sorted runs as a union's corners."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["ties", "mixed", "two_runs", "sorted"]))
    x = rng.choice(_TIES, n) if mode == "ties" else rng.uniform(0.0, 3.0, n)
    y = rng.choice(_TIES, n)
    if mode == "mixed":
        x = np.where(rng.random(n) < 0.5, rng.choice(_TIES, n), x)
        y = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 3.0, n), y)
    elif mode in ("two_runs", "sorted"):
        # Sorted kinds whose abscissas and ordinates tie across the kinds.
        x = np.round(x, draw(st.integers(0, 3)))
        y = np.round(3.0 - x + rng.normal(0.0, 0.3, n), 1)
        cut = n // 2 if mode == "two_runs" else n
        x[:cut], x[cut:] = np.sort(x[:cut]), np.sort(x[cut:])
    return x, y


@settings(max_examples=300, deadline=None)
@given(_tied_clouds())
def test_staircase_matches_lexsort_reference_bitwise(cloud):
    x, y = cloud
    got_x, got_y = region_geometry._staircase(x, y)
    want_x, want_y = _lexsort_staircase(x, y)
    assert np.array_equal(_bits(got_x), _bits(want_x))
    assert np.array_equal(_bits(got_y), _bits(want_y))


def test_staircase_matches_lexsort_on_a_split_hull_survivor_cloud():
    # The 48k unsorted survivors that th1_bound hands to hull_frontier at a
    # 41^4 split mesh, where the default sort runs.
    seen = []

    def spy(x, y):
        seen.append((x, y))
        return hull_frontier(x, y)

    with mock.patch.object(outer_bounds, "hull_frontier", spy):
        outer_bounds.th1_bound(ChannelParams(0.3, 3.0, 2.0, 3.0), 41)
    (x, y), = seen
    assert x.size > 40_000
    got_x, got_y = region_geometry._staircase(x, y)
    want_x, want_y = _lexsort_staircase(x, y)
    assert np.array_equal(_bits(got_x), _bits(want_x))
    assert np.array_equal(_bits(got_y), _bits(want_y))


@st.composite
def _frontiers(draw):
    """Frontiers with flat runs and zeros of both signs."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.cumsum(rng.choice([1e-3, 0.1, 0.5], n))
    x[0] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):
        y = np.sort(rng.choice([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0], n))[::-1]
    else:
        top = x[-1] if x[-1] > 0.0 else 1.0
        y = np.round(2.0 - 2.0 * (x / top) ** 2, draw(st.integers(0, 3)))
        y = np.where((y == 0.0) & (rng.random(n) < 0.5), -0.0, y)
    return Frontier(x, y)


@settings(max_examples=300, deadline=None)
@given(_frontiers())
def test_concavify_staircase_matches_sorted_staircase_bitwise(f):
    with mock.patch.object(
        region_geometry, "_staircase_hull", wraps=region_geometry._staircase_hull
    ) as hull:
        got = concavify(f)
    (stair_x, stair_y), _ = hull.call_args
    want_x, want_y = region_geometry._staircase(f.r1, f.r2)
    assert np.array_equal(_bits(stair_x), _bits(want_x))
    assert np.array_equal(_bits(stair_y), _bits(want_y))
    want_x, want_y = _unfiltered_hull(f.r1, f.r2)
    assert np.array_equal(_bits(got.r1), _bits(want_x))
    assert np.array_equal(_bits(got.r2), _bits(want_y))


def _searchsorted_unbeaten(wx, wy, x, y):
    """Reference: the points no witness beats, every point binary-searched."""
    return np.append(wy, -np.inf)[np.searchsorted(wx, x, side="left")] <= y


_HUGE = np.finfo(float).max
_TINY = 5e-324


@st.composite
def _witness_cases(draw):
    """A witness staircase and test points, with the corner cases of the bucket map."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 60))
    mode = draw(
        st.sampled_from(["uniform", "pool", "one_x", "zero_x", "huge", "tiny"])
    )
    if mode == "uniform":
        wx, wy = rng.uniform(0.0, 3.0, m), rng.uniform(0.0, 3.0, m)
    elif mode == "pool":  # ties in x and in y, both zero signs
        wx = rng.choice([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0], m)
        wy = rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], m)
    elif mode == "one_x":  # a one-witness staircase
        wx, wy = np.full(m, 1.25), rng.uniform(0.0, 3.0, m)
    elif mode == "zero_x":
        wx, wy = rng.choice([-0.0, 0.0], m), rng.uniform(0.0, 3.0, m)
    elif mode == "huge":  # spans up to and past the largest double
        wx = rng.choice([-_HUGE, -1e300, 0.0, 1e300, _HUGE], m)
        wx *= rng.uniform(0.5, 1.0, m)
        wy = rng.uniform(-1e300, 1e300, m)
    else:  # subnormal spans, whose reciprocals overflow
        wx = rng.choice([0.0, _TINY, 2 * _TINY, 1e-310, 1e-300], m)
        wy = rng.uniform(0.0, 1.0, m)
    wx, wy = region_geometry._staircase(wx, wy)

    lo, hi = float(wx[0]), float(wx[-1])
    xs = [wx, [-0.0, 0.0, lo, hi, -_HUGE, _HUGE, -_TINY, _TINY]]
    span = hi - lo
    if 0.0 < span < math.inf:
        # Bucket edges, their neighbours, and x past the last witness.
        step = span / region_geometry._BUCKETS
        edges = [lo + k * step for k in range(region_geometry._BUCKETS + 1)]
        edges = np.array([e for e in edges if math.isfinite(e)])
        xs += [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        xs.append([hi + span * u for u in rng.uniform(0.0, 1.0, 20).tolist()])
        xs.append(rng.uniform(lo, hi, 200))
    pool = np.concatenate([np.asarray(v, dtype=float) for v in xs])
    pool = pool[np.isfinite(pool)]
    n = draw(st.integers(1, 400))
    x = rng.choice(pool, n)
    ys = np.concatenate([wy, np.nextafter(wy, -np.inf), np.nextafter(wy, np.inf)])
    ys = np.concatenate([ys[np.isfinite(ys)], [-0.0, 0.0, -_HUGE, _HUGE]])
    y = np.where(rng.random(n) < 0.7, rng.choice(ys, n), rng.uniform(-1.0, 3.0, n))
    if draw(st.booleans()):  # a 2-D slab, x a broadcast view, as in a split mesh
        rows = draw(st.integers(1, 4))
        x = np.broadcast_to(x, (rows, n))
        y = rng.choice(np.append(y, ys), (rows, n))
    return wx, wy, x, y


@settings(max_examples=400, deadline=None)
@given(_witness_cases())
def test_witness_filter_keeps_every_unbeaten_point(case):
    # Flat indices in order, a superset of the unbeaten points: the filter
    # drops only points that a witness beats.
    wx, wy, x, y = case
    got = region_geometry._witness_filter(wx, wy)(x, y)
    assert np.all(np.diff(got) > 0) and np.all((0 <= got) & (got < x.size))
    want = np.flatnonzero(_searchsorted_unbeaten(wx, wy, x.ravel(), y.ravel()))
    assert np.isin(want, got).all()


def test_witness_filter_drops_points_beaten_from_a_later_bucket():
    # Witnesses spanning [0, 1024]: bucket k holds [k, k + 1).  A beater in
    # a later bucket drops a point; one in the point's own bucket does not.
    wx, wy = np.array([0.0, 1.7, 2.0, 1024.0]), np.array([3.0, 2.0, 1.0, 0.0])
    x = np.array([0.5, 1.5, 1.5, 2.5, 1024.0])
    y = np.array([1.5, 1.5, 2.5, -0.5, 0.0])
    # (0.5, 1.5) is beaten from bucket 1, (1.5, 1.5) only from its own
    # bucket 1 and (2.5, -0.5) from bucket 1024; (1.5, 2.5) and (1024, 0)
    # are unbeaten.
    keep = region_geometry._witness_filter(wx, wy)(x, y)
    assert keep.tolist() == [1, 2, 4]


def test_union_large_grid_memory_is_linear():
    # A 200k-pentagon family: its corner cloud holds 400k points, where a
    # dense envelope would need abscissas x family doubles.
    rng = np.random.default_rng(3)
    m = 200_000
    a, b = rng.uniform(0.0, 4.0, m), rng.uniform(0.0, 4.0, m)
    s = rng.uniform(0.0, 8.0, m)
    tracemalloc.start()
    try:
        f = union_frontier_arrays(a, b, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # On or above the union at 200 of the corner abscissas, evaluated ten
    # at a time to keep the dense reference small.
    sum_cap = np.minimum(s, a + b)
    r1_ext, r2cap = np.minimum(a, sum_cap), np.minimum(b, sum_cap)
    abscissas = np.concatenate([r1_ext, np.minimum(sum_cap - r2cap, r1_ext)])
    picks = rng.choice(abscissas, 200, replace=False)
    want = np.concatenate(
        [_dense_envelope(r1_ext, r2cap, sum_cap, x) for x in np.split(picks, 20)]
    )
    assert np.all(f.interp(picks) >= want - _CHAIN_ROUNDING)


@pytest.mark.parametrize("grid", [11, np.linspace(0.0, 1.0, 5)])
def test_union_arrays_rejects_nan_and_negative_caps(grid):
    # One bad pentagon at the end of a family swept over a parameter grid.
    t = grid_axis(grid, "t")
    ok_a, ok_b, ok_s = 1.0 + t, 2.0 - t, np.full(t.size, 2.5)

    def family(a, b, s):
        return np.append(ok_a, a), np.append(ok_b, b), np.append(ok_s, s)

    with pytest.raises(ValueError) as err:
        union_frontier_arrays(*family(math.nan, 1.0, 2.0))
    assert str(err.value) == "pentagon constraints must not be NaN"
    with pytest.raises(ValueError) as want:
        Pentagon(1.0, -0.5, 2.0)
    with pytest.raises(ValueError) as err:
        union_frontier_arrays(*family(1.0, -0.5, 2.0))
    assert str(err.value) == str(want.value)
    # The family without the bad pentagon is accepted.
    assert union_frontier_arrays(ok_a, ok_b, ok_s).max_r1 == 2.0
