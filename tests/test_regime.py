"""The regime label: one decision in ``classify``, read by ``capacity_region``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogregions.channel import ChannelParams, classify, pdc_threshold, th3_threshold
from cogregions.inner_bounds import capacity_region
from cogregions.outer_bounds import bc_pr_bound, cor2_region, th1_bound
from cogregions.region_geometry import contains

# Tiny grids: the dispatch is under test, not the frontiers' accuracy.
GRIDS = {"alpha_grid": 11, "beta_grid": 11, "split_grid": 3}

EXACT = ("b_zero", "pdc_exact", "th3_exact")


def expected_regime(params):
    """The five-way rule, written out independently of ``classify``."""
    a, b, p1, p2 = params.a, params.b, params.p1, params.p2
    if b == 0.0:
        return "b_zero"
    if a == 0.0 and b <= pdc_threshold(p1, p2):
        return "pdc_exact"
    if a == 0.0 and b >= th3_threshold(p1, p2):
        return "th3_exact"
    return "open_strong" if b > 1.0 else "open_weak"


# Both powers also draw subnormals, where a Theorem-1 hull edge can drop over
# a subnormal r1 step (its slope overflows in np.interp) and the superposition
# copy scaling can overflow.
_powers = st.one_of(
    st.just(0.0),
    st.floats(0.0, 10.0, exclude_min=True),
    st.floats(0.0, 2.2250738585072014e-308, exclude_min=True),
)


@st.composite
def instances(draw):
    """Random instances, Z-channel instances between the two thresholds, and
    instances exactly on a regime boundary."""
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    p1, p2 = draw(_powers), draw(_powers)
    kinds = ["random", "z window", "b=0", "b=1", "b=pdc", "b=th3", "tie"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        b = draw(st.floats(0.0, 12.0))
    elif kind == "z window":
        # Powers for which the window between the thresholds is open.
        p1, p2 = draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0))
        a, lo, hi = 0.0, pdc_threshold(p1, p2), th3_threshold(p1, p2)
        b = lo + (hi - lo) * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    elif kind == "b=0":
        b = 0.0
    elif kind == "b=1":
        b = 1.0
    elif kind == "b=pdc":
        b = pdc_threshold(p1, p2)
    elif kind == "b=th3":
        b = th3_threshold(p1, p2)
    elif draw(st.booleans()):
        # Both thresholds meet at b: p1 = 0 and b = sqrt(1 + p2) ...
        p1 = 0.0
        b = math.sqrt(1.0 + p2)
    else:
        # ... or p2 = 0 and b = 1.
        p2, b = 0.0, 1.0
    return ChannelParams(a=a, b=b, p1=p1, p2=p2)


def _same_bits(first, second):
    return np.array_equal(first.r1, second.r1) and np.array_equal(first.r2, second.r2)


@settings(max_examples=200)
@given(instances())
def test_capacity_region_follows_the_classify_label(params):
    regime = classify(params).regime
    assert regime == expected_regime(params)

    result = capacity_region(params, **GRIDS)
    assert result.regime == regime
    assert result.status == ("exact" if regime in EXACT else "open")
    if regime in EXACT:
        assert result.outer is None
    elif regime == "open_weak":
        assert _same_bits(result.outer, bc_pr_bound(params, split_grid=3, alpha_grid=11))
    elif params.a == 0.0:
        # The Z channel between the two thresholds: Cor. 2 is the outer bound.
        assert _same_bits(result.outer, cor2_region(params, alpha_grid=11))
    else:
        assert _same_bits(result.outer, th1_bound(params, split_grid=3, alpha_grid=11))


# Largest amount (bits) by which the exact frontier on one side of a Z-channel
# threshold may leave the outer frontier on the other side, at the default
# grids.  Measured at most 5.2e-9 with Cor. 2 as the open side's outer
# bound; Theorem 1 on the 21^4 split mesh leaves it by 1.4e-3 to 0.63.
SEAM_TOL = 1e-6


@pytest.mark.parametrize("p1, p2", [(2.0, 3.0), (1.0, 1.0), (5.0, 0.5), (0.3, 4.0)])
@pytest.mark.parametrize("threshold, exact_side", [(pdc_threshold, -1.0), (th3_threshold, 1.0)])
def test_z_channel_frontiers_nest_across_a_threshold(p1, p2, threshold, exact_side):
    # Capacity is continuous in b, so the exact frontier just inside an exact
    # regime lies inside the open regime's outer frontier just outside it.
    thr = threshold(p1, p2)
    exact = capacity_region(ChannelParams(a=0.0, b=thr * (1.0 + exact_side * 1e-9), p1=p1, p2=p2))
    open_ = capacity_region(ChannelParams(a=0.0, b=thr * (1.0 - exact_side * 1e-9), p1=p1, p2=p2))
    assert exact.status == "exact" and open_.regime == "open_strong"
    report = contains(open_.outer, exact.frontier, tol=SEAM_TOL)
    assert report.passed, report.worst_case



def _per_rate_miss(points, outer):
    """Largest per-rate miss of the points against a concave frontier.

    The miss of ``(r1, r2)`` is the least ``t >= 0`` with ``(r1 - t, r2 - t)``
    under ``outer`` (zero past its right end); ``r2 - t - outer(r1 - t)``
    falls as ``t`` rises, so bisection finds it.
    """
    r1, r2 = points
    lo, hi = np.zeros_like(r1), np.maximum(r1, r2)
    for _ in range(80):
        t = 0.5 * (lo + hi)
        x = np.maximum(r1 - t, 0.0)
        under = r2 - t <= np.where(x > outer.max_r1, 0.0, outer.interp(x))
        hi, lo = np.where(under, t, hi), np.where(under, lo, t)
    return float(np.max(hi))


# Item 1 of ROADMAP.md's target for the a -> 0+ seam, in bits per rate.
A_SEAM_TOL = 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: until the split outer bounds hold at any resolution, "
    "the a = 0 inner frontier leaves Theorem 1 at a = 1e-6 on the 21^4 split "
    "mesh by 5.3e-3 to 0.067 bits per rate at these four points",
)
def test_z_channel_inner_frontier_meets_theorem_1_as_a_leaves_zero():
    # Capacity is continuous in a, so the a = 0 inner frontier between the
    # two thresholds lies inside the Theorem-1 outer frontier at a = 1e-6,
    # within item 1's target.
    misses = []
    for p1, p2 in [(2.0, 3.0), (1.0, 1.0), (5.0, 0.5), (0.3, 4.0)]:
        b = 0.5 * (pdc_threshold(p1, p2) + th3_threshold(p1, p2))
        inner = capacity_region(ChannelParams(a=0.0, b=b, p1=p1, p2=p2)).frontier
        outer = th1_bound(ChannelParams(a=1e-6, b=b, p1=p1, p2=p2), split_grid=21)
        misses.append(_per_rate_miss((inner.r1, inner.r2), outer))
    assert max(misses) <= A_SEAM_TOL, misses
