"""Superposition inner bound and the capacity-region dispatcher."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogregions.channel import ChannelParams, gaussian_rate
from cogregions.inner_bounds import (
    FAMILIES,
    CapacityResult,
    beta_of_alpha,
    capacity_region,
    scheme_e_region,
)
from cogregions.region_geometry import contains, sweep_grid

Z_STRONG = ChannelParams(a=0.0, b=3.0, p1=1.0, p2=1.0)


# ------------------------------------------------------ power-split mapping


def test_beta_of_alpha_endpoints_and_midpoint():
    assert beta_of_alpha(0.0, p1=1.0) == 0.0
    assert beta_of_alpha(1.0, p1=1.0) == 1.0
    assert beta_of_alpha(0.5, p1=1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_beta_of_alpha_solves_defining_equation():
    rng = np.random.default_rng(23)
    alpha = rng.random(200)
    for p1 in (0.5, 1.0, 5.0, 20.0):
        beta = beta_of_alpha(alpha, p1)
        recovered = beta / (1.0 + (1.0 - beta) * p1)
        assert float(np.max(np.abs(recovered - alpha))) <= 1e-12


def test_beta_of_alpha_complement_is_cancellation_free():
    # 1 - beta is what the rate expressions consume; it must track
    # (1-alpha)/(1+alpha*p1) even when alpha sits within 1e-9 of 1.  The
    # round trip through a double near 1 quantizes the complement to
    # multiples of 2^-53, so the achievable absolute accuracy is 2^-54.
    alpha = 1.0 - np.geomspace(1e-15, 1e-6, 50)
    beta = beta_of_alpha(alpha, p1=5.0)
    expected = (1.0 - alpha) / (1.0 + alpha * 5.0)
    assert float(np.max(np.abs((1.0 - beta) - expected))) <= 2.0**-53


def test_beta_of_alpha_validates_and_preserves_shape():
    with pytest.raises(ValueError) as err:
        beta_of_alpha(1.5, p1=1.0)
    assert str(err.value) == "alpha must lie in [0, 1]"
    with pytest.raises(ValueError):
        beta_of_alpha(np.array([0.5, math.nan]), p1=1.0)
    assert isinstance(beta_of_alpha(0.5, p1=1.0), float)
    assert beta_of_alpha(np.array([0.0, 1.0]), p1=1.0).shape == (2,)


# -------------------------------------------------- superposition pentagons


def test_scheme_pentagon_private_only():
    p = FAMILIES["schemeE"].pentagon(Z_STRONG, 1.0)
    assert p.r1_max == pytest.approx(1.0, abs=1e-12)
    assert p.r2_max == pytest.approx(1.0, abs=1e-12)
    assert p.sum_max == pytest.approx(2.0, abs=1e-12)


def test_scheme_pentagon_full_relay():
    # All cognitive power spent repeating the primary codeword: nothing for
    # receiver 1, coherent combining at receiver 2.
    p = FAMILIES["schemeE"].pentagon(Z_STRONG, 0.0)
    assert p.r1_max == 0.0
    assert p.r2_max == pytest.approx(math.log2(17.0), abs=1e-12)
    assert p.r2_max == p.sum_max


def test_scheme_pentagon_guards():
    with pytest.raises(ValueError) as err:
        FAMILIES["schemeE"].pentagon(ChannelParams(a=0.0, b=3.0, p1=1.0, p2=0.0), 0.5)
    assert str(err.value) == "degenerate superposition: set beta=1"
    with pytest.raises(ValueError) as err:
        FAMILIES["schemeE"].pentagon(Z_STRONG, -0.1)
    assert str(err.value) == "beta must lie in [0, 1], got -0.1"
    # beta = 1 stays valid without any primary power to copy.
    p = FAMILIES["schemeE"].pentagon(ChannelParams(a=0.0, b=3.0, p1=1.0, p2=0.0), 1.0)
    assert p.r1_max == pytest.approx(1.0, abs=1e-12)


def test_general_pentagon_cross_talk_costs_only_r1():
    noisy = ChannelParams(a=0.5, b=3.0, p1=1.0, p2=1.0)
    for beta in (0.3, 0.7, 1.0):
        clean = FAMILIES["schemeE"].pentagon(Z_STRONG, beta)
        heard = FAMILIES["schemeE"].pentagon(noisy, beta)
        assert heard.r1_max < clean.r1_max
        assert heard.r2_max == clean.r2_max
        assert heard.sum_max <= clean.sum_max + 1e-12


def test_general_pentagon_private_only_with_cross_gain():
    p = FAMILIES["schemeE"].pentagon(ChannelParams(a=0.5, b=3.0, p1=1.0, p2=1.0), 1.0)
    assert p.r1_max == pytest.approx(math.log2(1.0 + 1.0 / 1.25), abs=1e-12)
    # At beta = 1 the copy has no private share: its gain is the cross gain
    # a, bit for bit, also at a subnormal and a zero p2.
    a, p1 = 0.5, 3.0
    for p2 in (1.0, 1e-309, 0.0):
        p = FAMILIES["schemeE"].pentagon(ChannelParams(a=a, b=3.0, p1=p1, p2=p2), 1.0)
        assert p.r1_max == float(gaussian_rate(p1 / (1.0 + a * a * p2)))


def test_general_pentagon_with_subnormal_primary_power():
    # With p2 subnormal the copy scaling sqrt(bbar p1 / p2) overflows, yet the
    # copy's noise power (sqrt(bbar p1) + a sqrt(p2))^2 is just bbar p1.
    params = ChannelParams(a=1.0, b=1.0, p1=2.0, p2=1e-309)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in np.linspace(0.0, 1.0, 11):
            pentagon = FAMILIES["schemeE"].pentagon(params, float(beta))
            expected = math.log2(1.0 + beta * 2.0 / (1.0 + (1.0 - beta) * 2.0))
            assert pentagon.r1_max == pytest.approx(expected, abs=1e-12)


def test_scheme_matches_z_outer_bound_at_mapped_splits():
    # Under the power-split bijection, the achievable r1 and r2 caps land
    # exactly on the closed-form outer bound; only the sum cap is looser.
    for b in (3.0, 10.0):
        params = ChannelParams(a=0.0, b=b, p1=1.0, p2=1.0)
        for alpha in np.linspace(0.0, 1.0, 101):
            inner = FAMILIES["schemeE"].pentagon(params, beta_of_alpha(alpha, params.p1))
            outer = FAMILIES["cor2"].pentagon(params, float(alpha))
            assert inner.r1_max == pytest.approx(outer.r1_max, abs=1e-12)
            assert inner.r2_max == pytest.approx(outer.r2_max, abs=1e-12)
            assert inner.sum_max <= outer.sum_max + 1e-12


def test_scheme_region_envelope():
    fr = scheme_e_region(Z_STRONG, beta_grid=np.array([0.0, 0.5, 1.0]))
    assert fr.interp(0.0) == pytest.approx(math.log2(17.0), abs=1e-12)
    assert fr.max_r1 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError) as err:
        scheme_e_region(
            ChannelParams(a=0.0, b=3.0, p1=1.0, p2=0.0),
            beta_grid=np.array([0.5, 1.0]),
        )
    assert str(err.value) == "degenerate superposition: set beta=1"


def test_scheme_region_matches_scalar_pentagons():
    params = ChannelParams(a=0.7, b=2.0, p1=3.0, p2=2.0)
    beta = np.linspace(0.0, 1.0, 9)
    fr = scheme_e_region(params, beta_grid=beta)
    for value in beta:
        p = FAMILIES["schemeE"].pentagon(params, float(value))
        corner = min(p.r2_max, p.sum_max - p.r1_max)
        assert fr.interp(p.r1_max) >= corner - 1e-12


# --------------------------------------------------------- capacity switch


def test_capacity_rectangle_without_interference():
    result = capacity_region(ChannelParams(a=0.7, b=0.0, p1=5.0, p2=5.0))
    assert isinstance(result, CapacityResult)
    assert result.status == "exact"
    assert result.outer is None
    top = math.log2(6.0)
    assert result.frontier.max_r1 == pytest.approx(top, abs=1e-12)
    assert result.frontier.interp(0.0) == pytest.approx(top, abs=1e-12)
    assert result.frontier.interp(top) == pytest.approx(top, abs=1e-12)


def test_capacity_rectangle_degenerate_powers():
    result = capacity_region(ChannelParams(a=0.0, b=0.0, p1=0.0, p2=3.0))
    assert result.status == "exact"
    assert result.frontier.max_r1 == 0.0
    assert result.frontier.interp(0.0) == pytest.approx(2.0, abs=1e-12)


def test_capacity_exact_above_superposition_threshold():
    result = capacity_region(Z_STRONG)
    assert result.status == "exact"
    assert result.outer is None
    assert result.frontier.interp(1.0) == pytest.approx(1.0, abs=1e-9)
    assert result.frontier.interp(0.0) == pytest.approx(math.log2(17.0), abs=1e-9)


def test_capacity_exact_below_primary_decoding_threshold():
    # b = 1.05 is below sqrt(1 + p2/(1+p1)) ~ 1.2247, where the unifying
    # envelope is achievable.
    result = capacity_region(ChannelParams(a=0.0, b=1.05, p1=1.0, p2=1.0))
    assert result.status == "exact"
    assert result.outer is None


def test_capacity_open_window_reports_both_frontiers():
    # The broadcast outer bound is a supremum over covariance splits, so a
    # grid coarse along the first power fraction under-samples it near the
    # knee; a sweep axis there keeps the sampled bound above the inner
    # frontier to grid accuracy.
    split_grid = (
        sweep_grid(201),
        np.linspace(0.0, 1.0, 9),
        np.linspace(-1.0, 1.0, 3),
        np.linspace(-1.0, 1.0, 9),
    )
    result = capacity_region(
        ChannelParams(a=0.0, b=2.5, p1=1.0, p2=1.0), split_grid=split_grid
    )
    assert result.status == "open"
    assert result.outer is not None
    report = contains(result.outer, result.frontier, tol=5e-3)
    assert report.passed, report.worst_case


def test_capacity_open_weak_cross_gain_uses_private_rates_bound():
    result = capacity_region(
        ChannelParams(a=0.5, b=0.8, p1=1.0, p2=1.0), split_grid=9
    )
    assert result.status == "open"
    assert result.outer is not None
    report = contains(result.outer, result.frontier, tol=5e-3)
    assert report.passed, report.worst_case


@pytest.mark.parametrize("e", [17, 18, 40, 140, 150, 152])
def test_capacity_open_at_huge_powers_where_a_split_form_cancels(e):
    # At a = 0.3, b = 2, p1 = p2 = 10**e a rank-one layer's quadratic form
    # cancels exactly on split-grid points.  Its rounding, about -eps times
    # the power, is clamped at zero instead of sending log1p to NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = capacity_region(ChannelParams(a=0.3, b=2.0, p1=10.0**e, p2=10.0**e))
    assert result.regime == "open_strong"
    for frontier in (result.frontier, result.outer):
        for rates in (frontier.r1, frontier.r2):
            assert np.all(np.isfinite(rates))
            assert np.all(rates >= 0.0)


# Powers log-uniform from 1e-5 to the largest double, plus zero and a
# subnormal; cross gains with b at both regime edges.
_HUGE_POWERS = st.sampled_from([0.0, 1e-310]) | st.floats(-5.0, 308.25).map(lambda e: 10.0**e)


@settings(max_examples=150)
@given(
    st.sampled_from([0.0]) | st.floats(0.0, 20.0),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 20.0),
    _HUGE_POWERS,
    _HUGE_POWERS,
)
def test_capacity_at_huge_powers_is_finite_or_rejected(a, b, p1, p2):
    # Up to the documented limit every regime gives finite, nonnegative
    # frontiers without a floating-point warning; beyond it ChannelParams
    # says why it refuses the instance.
    scale = 16.0 * max(1.0, a * a, b * b) * max(1.0, p1) * max(1.0, p2)
    if not math.isfinite(scale):
        with pytest.raises(ValueError, match="gains and powers too large"):
            ChannelParams(a=a, b=b, p1=p1, p2=p2)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = capacity_region(
            ChannelParams(a=a, b=b, p1=p1, p2=p2), alpha_grid=21, beta_grid=21, split_grid=5
        )
    for frontier in (result.frontier, result.outer):
        if frontier is None:
            continue
        for rates in (frontier.r1, frontier.r2):
            assert np.all(np.isfinite(rates))
            assert np.all(rates >= 0.0)


def test_capacity_open_without_primary_power():
    result = capacity_region(
        ChannelParams(a=0.5, b=10.0, p1=5.0, p2=0.0), split_grid=9
    )
    assert result.status == "open"
    assert result.frontier.max_r1 == pytest.approx(math.log2(6.0), abs=1e-9)
