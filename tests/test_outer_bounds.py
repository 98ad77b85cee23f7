"""Outer bounds: unifying family, Z-channel closed form, broadcast regions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogregions.channel import ChannelParams, gaussian_rate
from cogregions.inner_bounds import FAMILIES, scheme_e_region
from cogregions.outer_bounds import (
    CovarianceSplit,
    bc_dms_region,
    bc_pr_bound,
    bergmans_frontier,
    cor2_region,
    th1_bound,
    unifying_region,
)
from cogregions.region_geometry import Pentagon, concavify, contains, sweep_grid

STRONG_Z = ChannelParams(a=0.0, b=3.0, p1=1.0, p2=1.0)


# ---------------------------------------------------------- unifying family


def test_unifying_bound_full_allocation():
    p = FAMILIES["unifying"].pentagon(STRONG_Z, 1.0)
    assert p.r1_max == pytest.approx(1.0, abs=1e-12)
    assert p.r2_max == pytest.approx(math.log2(11.0), abs=1e-12)
    assert p.sum_max == pytest.approx(math.log2(11.0), abs=1e-12)


def test_unifying_bound_zero_allocation_collapses_to_sum():
    # With no power on the first message the pentagon is the full-cooperation
    # segment: r1 = 0 and r2 capped by the coherent-combining sum rate.
    p = FAMILIES["unifying"].pentagon(STRONG_Z, 0.0)
    assert p.r1_max == 0.0
    assert p.r2_max == pytest.approx(math.log2(17.0), abs=1e-12)
    assert p.sum_max == p.r2_max


def test_unifying_bound_weak_gain_keeps_positive_excess():
    # For |b| < 1 receiver 2 cannot resolve the first message by itself, so
    # the sum cap exceeds the r2 cap by the unresolved portion.
    params = ChannelParams(a=0.5, b=0.5, p1=1.0, p2=1.0)
    p = FAMILIES["unifying"].pentagon(params, 1.0)
    excess = math.log2(2.0) - math.log2(1.25)
    assert p.r2_max == pytest.approx(math.log2(2.25), abs=1e-12)
    assert p.sum_max == pytest.approx(math.log2(2.25) + excess, abs=1e-12)


def test_unifying_bound_excess_vanishes_for_strong_gain():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = ChannelParams(
            a=0.0,
            b=1.0 + 4.0 * rng.random(),
            p1=10.0 * rng.random(),
            p2=10.0 * rng.random(),
        )
        p = FAMILIES["unifying"].pentagon(params, float(rng.random()))
        assert p.sum_max <= p.r2_max + 1e-12


def test_unifying_region_interference_free_reduction():
    # At p2 = 0 the union over splits collapses to a single pentagon:
    # r1 <= log2(1 + p1), r1 + r2 <= log2(1 + b^2 p1).
    fr = unifying_region(
        ChannelParams(a=0.0, b=10.0, p1=5.0, p2=0.0), alpha_grid=sweep_grid(1001)
    )
    top = math.log2(6.0)
    total = math.log2(501.0)
    assert fr.max_r1 == pytest.approx(top, abs=1e-9)
    assert fr.interp(0.0) == pytest.approx(total, abs=1e-9)
    assert fr.interp(top) == pytest.approx(total - top, abs=1e-9)
    # Midpoint of the slanted face sits on the sum line as well.
    assert fr.interp(0.5 * top) == pytest.approx(total - 0.5 * top, abs=1e-9)


def test_unifying_rejects_bad_alpha():
    with pytest.raises(ValueError) as err:
        FAMILIES["unifying"].pentagon(STRONG_Z, 1.5)
    assert str(err.value) == "alpha must lie in [0, 1], got 1.5"
    with pytest.raises(ValueError) as err:
        unifying_region(STRONG_Z, alpha_grid=np.array([0.0, 1.2]))
    assert str(err.value) == "alpha grid values must lie in [0, 1]"
    with pytest.raises(ValueError) as err:
        unifying_region(STRONG_Z, alpha_grid=np.array([]))
    assert str(err.value) == "empty grid"
    with pytest.raises(ValueError) as err:
        unifying_region(STRONG_Z, alpha_grid=1)
    assert str(err.value) == "grid resolution must be at least 2"


# ------------------------------------------------------ Z-channel closed form


def test_cor2_requires_z_strong_interference():
    with pytest.raises(ValueError) as err:
        FAMILIES["cor2"].pentagon(ChannelParams(a=0.5, b=3.0, p1=1.0, p2=1.0), 0.5)
    assert str(err.value) == "Cor.2 requires Z strong interference"
    with pytest.raises(ValueError):
        cor2_region(ChannelParams(a=0.0, b=0.8, p1=1.0, p2=1.0))
    # Strong interference suffices; the bound does not demand the stricter
    # very-strong threshold that makes it tight.
    FAMILIES["cor2"].pentagon(ChannelParams(a=0.0, b=1.2, p1=1.0, p2=1.0), 0.5)


def test_cor2_zero_alpha_caps_coincide():
    p = FAMILIES["cor2"].pentagon(STRONG_Z, 0.0)
    assert p.r2_max == p.sum_max
    assert p.r2_max == pytest.approx(math.log2(17.0), abs=1e-12)


def test_cor2_full_alpha_pentagon():
    p = FAMILIES["cor2"].pentagon(STRONG_Z, 1.0)
    assert p.r1_max == pytest.approx(1.0, abs=1e-12)
    assert p.r2_max == pytest.approx(1.0, abs=1e-12)
    # The raw sum cap log2(11) is vacuous against r1_cap + r2_cap.
    assert p.sum_max == pytest.approx(2.0, abs=1e-12)


def test_cor2_tightens_unifying_r2_cap():
    rng = np.random.default_rng(11)
    for _ in range(100):
        params = ChannelParams(
            a=0.0,
            b=1.0 + 9.0 * rng.random(),
            p1=0.1 + 10.0 * rng.random(),
            p2=0.1 + 10.0 * rng.random(),
        )
        alpha = float(rng.random())
        tight = FAMILIES["cor2"].pentagon(params, alpha)
        loose = FAMILIES["unifying"].pentagon(params, alpha)
        assert tight.r1_max == pytest.approx(loose.r1_max, abs=1e-12)
        assert tight.r2_max <= loose.r2_max + 1e-12
        # The sum caps agree before pentagon normalization; compare through
        # the un-normalized r2 cap of the unifying form.
        raw_sum = gaussian_rate(
            params.p2
            + params.b**2 * params.p1
            + 2.0 * math.sqrt((1.0 - alpha) * params.b**2 * params.p1 * params.p2)
        )
        assert loose.r2_max == pytest.approx(raw_sum, abs=1e-12)


def test_cor2_region_envelope_endpoints():
    fr = cor2_region(STRONG_Z, alpha_grid=sweep_grid(1001))
    assert fr.max_r1 == pytest.approx(1.0, abs=1e-12)
    assert fr.interp(0.0) == pytest.approx(math.log2(17.0), abs=1e-12)
    assert fr.interp(1.0) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------- Bergmans reference


BERGMANS_POINT = ChannelParams(a=0.0, b=10.0, p1=5.0, p2=0.0)


def test_bergmans_rectangle_values():
    p = FAMILIES["bergmans"].pentagon(BERGMANS_POINT, 0.5)
    assert p.r1_max == pytest.approx(math.log2(12.0 / 7.0), abs=1e-12)
    assert p.r2_max == pytest.approx(math.log2(251.0), abs=1e-12)
    assert math.isinf(p.sum_max) is False


def test_bergmans_frontier_endpoints_and_containment():
    fr = bergmans_frontier(BERGMANS_POINT, alpha_grid=sweep_grid(1001))
    assert fr.interp(0.0) == pytest.approx(math.log2(501.0), abs=1e-9)
    assert fr.max_r1 == pytest.approx(math.log2(6.0), abs=1e-9)
    outer = unifying_region(BERGMANS_POINT, alpha_grid=sweep_grid(1001))
    report = contains(outer, fr, tol=1e-9)
    assert report.passed, report.worst_case


# ------------------------------------------------------- covariance splits


def test_covariance_split_validation():
    with pytest.raises(ValueError) as err:
        CovarianceSplit(alpha1=1.5, alpha2=0.5, rho1=0.0, rho2=0.0)
    assert str(err.value) == "alpha1 must lie in [0, 1], got 1.5"
    with pytest.raises(ValueError) as err:
        CovarianceSplit(alpha1=0.5, alpha2=0.5, rho1=0.0, rho2=-1.2)
    assert str(err.value) == "rho2 must lie in [-1, 1], got -1.2"


def test_covariance_split_total_correlation():
    assert CovarianceSplit(0.25, 0.25, 1.0, 1.0).rho == pytest.approx(1.0, abs=1e-15)
    assert CovarianceSplit(0.5, 0.5, 0.0, 0.0).rho == 0.0
    # In-range layer correlations can never push the total outside [-1, 1].
    rng = np.random.default_rng(13)
    for _ in range(200):
        split = CovarianceSplit(
            *rng.random(2), *(2.0 * rng.random(2) - 1.0)
        )
        assert abs(split.rho) <= 1.0 + 1e-12


# ------------------------------------------------------ broadcast pentagons


def test_bc_dms_pentagon_uncorrelated_even_split():
    p = FAMILIES["bcdms"].pentagon(STRONG_Z, CovarianceSplit(0.5, 0.0, 0.0, 0.0))
    assert p.r1_max == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)
    assert p.r2_max == pytest.approx(math.log2(6.5), abs=1e-12)
    # Raw sum cap log2(11) loses to the corner sum here.
    assert p.sum_max == pytest.approx(math.log2(4.0 / 3.0) + math.log2(6.5), abs=1e-12)


def test_bc_dms_pentagon_degenerate_second_layer():
    p = FAMILIES["bcdms"].pentagon(STRONG_Z, CovarianceSplit(1.0, 1.0, 0.3, -0.7))
    assert p.r2_max == 0.0
    assert p.r1_max == pytest.approx(1.0, abs=1e-12)
    assert p.sum_max == p.r1_max


def test_bc_dms_pentagon_never_degenerates():
    rng = np.random.default_rng(17)
    for _ in range(300):
        params = ChannelParams(
            a=rng.random(),
            b=3.0 * rng.random(),
            p1=10.0 * rng.random(),
            p2=10.0 * rng.random(),
        )
        split = CovarianceSplit(*rng.random(2), *(2.0 * rng.random(2) - 1.0))
        p = FAMILIES["bcdms"].pentagon(params, split)
        assert p.r2_max <= p.sum_max + 1e-12


def test_bc_dms_region_reduces_to_bergmans_without_p2():
    # With p2 = 0 only the cognitive power split matters and each pentagon
    # collapses to the reference rectangle, so the hull passes through the
    # rectangle corners exactly.
    params = ChannelParams(a=0.0, b=10.0, p1=5.0, p2=0.0)
    axis = sweep_grid(301)
    fr = bc_dms_region(
        params,
        split_grid=(axis, np.array([0.0]), np.array([0.0]), np.array([0.0])),
    )
    corner_r1 = gaussian_rate(axis * 5.0 / (1.0 + (1.0 - axis) * 5.0))
    expected_r2 = gaussian_rate(100.0 * (1.0 - axis) * 5.0)
    worst = float(np.max(np.abs(fr.interp(corner_r1) - expected_r2)))
    assert worst <= 1e-9


def test_bc_dms_region_allows_weak_gain():
    # The enhanced-channel region is defined for every b; regime policing is
    # the caller's job.
    fr = bc_dms_region(ChannelParams(a=0.0, b=0.5, p1=1.0, p2=1.0), split_grid=5)
    assert fr.max_r1 > 0.0


def test_split_grid_validation():
    with pytest.raises(ValueError) as err:
        bc_dms_region(STRONG_Z, split_grid=(3, 3, 3))
    assert str(err.value) == (
        "split grid must be an int or four axes (alpha1, alpha2, rho1, rho2)"
    )
    with pytest.raises(ValueError) as err:
        bc_dms_region(STRONG_Z, split_grid=1)
    assert str(err.value) == "grid resolution must be at least 2"
    bad_alpha = (np.array([0.0, 1.5]), 3, 3, 3)
    with pytest.raises(ValueError) as err:
        bc_dms_region(STRONG_Z, split_grid=bad_alpha)
    assert str(err.value) == "split grid axis 0 values must lie in [0, 1]"
    bad_rho = (3, 3, np.array([-1.5, 0.0]), 3)
    with pytest.raises(ValueError) as err:
        bc_dms_region(STRONG_Z, split_grid=bad_rho)
    assert str(err.value) == "split grid axis 2 values must lie in [-1, 1]"
    with pytest.raises(ValueError) as err:
        bc_dms_region(STRONG_Z, split_grid=(np.array([]), 3, 3, 3))
    assert str(err.value) == "empty grid"


# --------------------------------------------------------- combined bounds


def test_th1_requires_strong_gain():
    for b in (1.0, 0.5):
        with pytest.raises(ValueError) as err:
            th1_bound(ChannelParams(a=0.0, b=b, p1=1.0, p2=1.0), split_grid=3)
        assert str(err.value) == "Theorem 1 requires |b| > 1"


def test_th1_sits_below_both_constituents():
    th1 = th1_bound(STRONG_Z, split_grid=9)
    unifying = unifying_region(STRONG_Z)
    broadcast = bc_dms_region(STRONG_Z, split_grid=9)
    for outer in (unifying, broadcast):
        report = contains(outer, th1, tol=1e-9)
        assert report.passed, report.worst_case


def test_th1_matches_z_channel_closed_form():
    # On a split grid dense along the first power fraction, the broadcast
    # construction reproduces the closed-form Z-channel envelope to grid
    # accuracy; both are compared through their concave hulls because the
    # two families sample different power splits.
    th1 = th1_bound(
        STRONG_Z,
        split_grid=(sweep_grid(401), 21, 5, 21),
        alpha_grid=sweep_grid(1001),
    )
    hull = concavify(cor2_region(STRONG_Z, alpha_grid=sweep_grid(1001)))
    grid = np.linspace(0.0, min(th1.max_r1, hull.max_r1), 2001)
    worst = float(np.max(np.abs(th1.interp(grid) - hull.interp(grid))))
    assert worst <= 5e-3, worst


def test_th1_strictly_tightens_unifying_without_p2():
    params = ChannelParams(a=0.0, b=10.0, p1=5.0, p2=0.0)
    th1 = th1_bound(params)
    unifying = unifying_region(params)
    grid = np.linspace(0.0, th1.max_r1, 501)
    assert float(np.max(unifying.interp(grid) - th1.interp(grid))) > 0.1


def test_th1_contains_superposition_frontier_off_z():
    # Each split's pentagon is cut by the r1 cap of its own covariance.  A
    # cut that is too tight pushes the bound below the achievable
    # superposition frontier; small cross gains at receiver 1 keep the two
    # frontiers close, so such a cut shows here.  5e-3 bits is the sampling
    # allowance of acceptance check 7 and ``fig3``.  The alpha1 axis is finer
    # than theirs: the right edge comes from a boundary layer near
    # alpha1 = 1, which their axis under-samples here by up to 8.2e-3 bits.
    rng = np.random.default_rng(11)
    split_grid = (sweep_grid(1601), 11, 3, 11)
    for _ in range(4):
        p1, p2 = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=2))
        params = ChannelParams(
            a=float(np.exp(rng.uniform(math.log(1e-3), math.log(0.1)))),
            b=float(rng.uniform(1.05, 10.0)),
            p1=float(p1),
            p2=float(p2),
        )
        outer = th1_bound(params, split_grid=split_grid, alpha_grid=sweep_grid(1001))
        inner = concavify(scheme_e_region(params, beta_grid=sweep_grid(1001)))
        report = contains(outer, inner, tol=5e-3)
        assert report.passed, (params, report.max_discrepancy, report.worst_case)


def test_bc_pr_dominates_th1():
    th1 = th1_bound(STRONG_Z)
    relaxed = bc_pr_bound(STRONG_Z)
    report = contains(relaxed, th1, tol=1e-9)
    assert report.passed, report.worst_case


def test_bc_pr_defined_for_weak_gain():
    fr = bc_pr_bound(ChannelParams(a=0.5, b=0.8, p1=1.0, p2=1.0), split_grid=9)
    # The unifying cut limits r1 to the single-user cap even though the
    # cooperative rectangles reach further.
    assert fr.max_r1 == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ family table


def _bits(pentagon):
    fields = (pentagon.r1_max, pentagon.r2_max, pentagon.sum_max)
    return np.array(fields).view(np.int64).tolist()


_POWER = st.one_of(st.just(0.0), st.floats(0.0, 1e4))
_CHANNELS = st.builds(ChannelParams, st.floats(0.0, 5.0), st.floats(0.0, 10.0), _POWER, _POWER)
_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(_CHANNELS, st.data())
def test_family_pentagon_is_its_caps_at_one_split(params, data):
    # Every family reads one ChannelParams: its pentagon at split t is, bit
    # for bit, the t entry of its caps over a grid holding t.
    for name, family in FAMILIES.items():
        if family.caps is None or family.invalid(params):
            continue
        size = data.draw(st.integers(1, 8), label="grid size")
        if "split_grid" in family.grids:
            grid = [
                np.array(data.draw(st.lists(axis, min_size=size, max_size=size)))
                for axis in (_UNIT, _UNIT, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
            ]
        elif family.single_split(params):
            grid = [np.ones(size)]
        else:
            grid = [np.array(data.draw(st.lists(_UNIT, min_size=size, max_size=size)))]
        caps = [np.broadcast_to(cap, (size,)) for cap in family.caps(params, *grid)]
        i = data.draw(st.integers(0, size - 1), label="split")
        t = [float(axis[i]) for axis in grid]
        t = CovarianceSplit(*t) if len(t) == 4 else t[0]
        want = Pentagon(*(cap[i] for cap in caps))
        assert _bits(family.pentagon(params, t)) == _bits(want), name
