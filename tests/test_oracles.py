"""Independent verification oracles: Monte Carlo and brute-force sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogregions import cli
from cogregions.channel import ChannelParams, th3_threshold
from cogregions.inner_bounds import FAMILIES, beta_of_alpha
from cogregions.oracles import (
    _degradedness_rows,
    _psd_factor,
    degradedness_check,
    mc_rate_check,
    sampled_checks,
    verify_condition5,
    verify_condition6,
    verify_th3_capacity,
)


# ------------------------------------------------------- Monte Carlo checks


def test_mc_rate_check_coherent_combining():
    cov = [[1.0, math.sqrt(0.5)], [math.sqrt(0.5), 1.0]]
    report = mc_rate_check([3.0, 1.0], cov, n_samples=200_000, seed=5)
    assert report.passed
    assert report.worst_case["closed_form"] == pytest.approx(
        15.242640687119284, abs=1e-12
    )


def test_mc_rate_check_fully_correlated_inputs():
    report = mc_rate_check([3.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], n_samples=200_000)
    assert report.passed
    assert report.worst_case["closed_form"] == pytest.approx(17.0, abs=1e-12)


def test_mc_rate_check_noise_only():
    report = mc_rate_check([0.0, 0.0], np.eye(2), n_samples=50_000, seed=3)
    assert report.passed
    assert report.worst_case["closed_form"] == 1.0


def test_mc_rate_check_validation():
    with pytest.raises(ValueError) as err:
        mc_rate_check([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], n_samples=50_000)
    assert str(err.value) == "covariance must be positive semidefinite"
    with pytest.raises(ValueError) as err:
        mc_rate_check([1.0, 1.0], np.eye(2), n_samples=500)
    assert str(err.value) == "n_samples must be at least 10000"
    with pytest.raises(ValueError) as err:
        mc_rate_check([1.0, 1.0], np.eye(3), n_samples=50_000)
    assert str(err.value) == "covariance shape must match the gain vector"
    # The factorization reads one triangle and the closed form both, so an
    # asymmetric matrix would read as a sampling failure, not an input error.
    with pytest.raises(ValueError) as err:
        mc_rate_check((1.0, 1.0), [[1.0, 0.9], [0.0, 1.0]], n_samples=10_000)
    assert str(err.value) == "covariance must be symmetric"
    with pytest.raises(ValueError) as err:
        mc_rate_check((1.0, 1.0), [[1.0, math.nan], [math.nan, 1.0]], n_samples=10_000)
    assert str(err.value) == "covariance must be finite"
    with pytest.raises(ValueError) as err:
        mc_rate_check((1.0, math.inf), np.eye(2), n_samples=10_000)
    assert str(err.value) == "gains must be finite"


def test_multi_case_checks_need_cases_of_one_shape():
    params = ChannelParams(a=0.0, b=2.0, p1=1.0, p2=1.0)
    for cases in ([], [("one", (1.0,), [[1.0]]), ("two", (1.0, 1.0), np.eye(2))]):
        with pytest.raises(ValueError) as err:
            sampled_checks(cases, None, None, 10_000, 0)
        assert str(err.value) == "cases must be one or more, with gain vectors of one length"
    with pytest.raises(ValueError) as err:
        sampled_checks(None, params, (), 10_000, 0)
    assert str(err.value) == "input_rhos must hold one or more correlations"
    with pytest.raises(ValueError) as err:
        sampled_checks(None, params, (0.0, -1.5), 10_000, 0)
    assert str(err.value) == "input_rho must lie in [-1, 1], got -1.5"


def test_mc_rate_check_is_deterministic_per_seed():
    cov = np.eye(2)
    first = mc_rate_check([1.0, 2.0], cov, n_samples=50_000, seed=11)
    second = mc_rate_check([1.0, 2.0], cov, n_samples=50_000, seed=11)
    third = mc_rate_check([1.0, 2.0], cov, n_samples=50_000, seed=12)
    assert first.max_discrepancy == second.max_discrepancy
    assert first.max_discrepancy != third.max_discrepancy


def test_degradedness_check_strong_gain():
    report = degradedness_check(
        ChannelParams(a=0.5, b=2.0, p1=1.0, p2=1.0), n_samples=200_000, seed=1
    )
    assert report.passed, report.worst_case
    assert report.tolerance == 5.0


def test_degradedness_check_boundary_gain_has_exact_noise_budget():
    # At |b| = 1 the reconstruction needs no extra noise at all.
    report = degradedness_check(
        ChannelParams(a=0.0, b=1.0, p1=2.0, p2=3.0), n_samples=200_000, seed=2
    )
    assert report.passed, report.worst_case


def test_degradedness_check_reports_received_variance():
    report = degradedness_check(
        ChannelParams(a=0.5, b=2.0, p1=1.0, p2=1.0), n_samples=200_000
    )
    assert report.worst_case["var_y1_closed_form"] == pytest.approx(2.25, abs=1e-12)


def test_degradedness_check_correlated_inputs():
    report = degradedness_check(
        ChannelParams(a=0.5, b=3.0, p1=4.0, p2=2.0),
        n_samples=200_000,
        seed=4,
        input_rho=0.7,
    )
    assert report.passed, report.worst_case
    assert report.worst_case["input_rho"] == 0.7


def test_degradedness_check_false_alarm_rate_is_nominal():
    # On correct inputs each nonzero covariance difference is a standard
    # normal in standard-error units; the largest of the three distinct ones
    # (receiver 1's observation against X1, X2 and itself) exceeds 2.5 with
    # probability about 3.7%.  A standard error that ignores the rebuilt
    # observation's own noise inflates that rate to about 12%.
    params = ChannelParams(a=0.0, b=1.685, p1=0.25, p2=0.395)
    discrepancies = [
        degradedness_check(params, n_samples=10_000, seed=seed).max_discrepancy
        for seed in range(600)
    ]
    rate = sum(d > 2.5 for d in discrepancies) / len(discrepancies)
    assert rate <= 0.07, rate


def test_degradedness_check_validation():
    with pytest.raises(ValueError) as err:
        degradedness_check(ChannelParams(a=0.0, b=0.5, p1=1.0, p2=1.0))
    assert str(err.value) == "construction requires |b| ≥ 1"
    with pytest.raises(ValueError) as err:
        degradedness_check(
            ChannelParams(a=0.0, b=2.0, p1=1.0, p2=1.0), input_rho=1.5
        )
    assert str(err.value) == "input_rho must lie in [-1, 1], got 1.5"
    with pytest.raises(ValueError) as err:
        degradedness_check(ChannelParams(a=0.0, b=2.0, p1=1.0, p2=1.0), n_samples=99)
    assert str(err.value) == "n_samples must be at least 10000"


# ---------------------------------------------------------- exact identities

# The sampled checks' linear maps, checked without sampling: a sample
# covariance of A g is A cov(g) A^T, so these identities are what the
# sampled checks test up to sampling noise.

_POWERS = st.sampled_from([0.0]) | st.floats(0.0, 10.0)


def _cauchy_schwarz_gap(first: np.ndarray, second: np.ndarray) -> float:
    """Largest ``|first - second|`` entry over ``sqrt(first_ii first_jj)``; 0 where both are 0."""
    diag = np.diag(first)
    scale = np.sqrt(np.outer(diag, diag))
    diff = np.abs(first - second)
    assert np.all(diff[scale == 0.0] == 0.0)
    return float(np.max(diff / np.where(scale > 0.0, scale, 1.0)))


@settings(max_examples=300)
@given(
    st.floats(0.0, 2.0),
    st.sampled_from([1.0]) | st.floats(1.0, 20.0),
    _POWERS,
    _POWERS,
    st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0),
)
def test_degradedness_rows_rebuild_receiver_1_exactly(a, b, p1, p2, rho):
    # (X1, X2, Y1) and (X1, X2, Y1_rebuilt) have one Gram matrix: the
    # rebuilt observation has receiver 1's joint law with the inputs.
    rows = _degradedness_rows(ChannelParams(a=a, b=b, p1=p1, p2=p2), rho)
    direct, rebuilt = rows[[0, 1, 2]], rows[[0, 1, 3]]
    assert _cauchy_schwarz_gap(direct @ direct.T, rebuilt @ rebuilt.T) <= 1e-12


# Nonzero powers stop at 1e-100: below about 1e-150 the squares inside
# eigh underflow and the factor loses relative accuracy on a term that the
# received variance 1 + h S h^T cannot show.
_FACTORED_POWERS = st.sampled_from([0.0]) | st.floats(1e-100, 10.0)


@settings(max_examples=100)
@given(st.floats(0.0, 2.0), st.floats(0.0, 20.0), _FACTORED_POWERS, _FACTORED_POWERS)
def test_mc_cases_weights_carry_the_closed_form_variance(a, b, p1, p2):
    # |F^T h|^2 = h S h^T for the factor F F^T = S that the check samples
    # through, so its received variance is 1 + h S h^T.
    for name, gains, cov in cli._mc_cases(ChannelParams(a=a, b=b, p1=p1, p2=p2)):
        h, cov = np.asarray(gains), np.asarray(cov)
        weights = _psd_factor(cov).T @ h
        assert math.isclose(weights @ weights, h @ cov @ h, rel_tol=1e-12, abs_tol=0.0), name


# --------------------------------------------- sum-redundancy biconditionals


def test_condition5_below_threshold():
    report = verify_condition5(1.0, 3.0, 1.5)
    assert report.passed
    assert report.max_discrepancy == 0.0
    assert report.worst_case["sweep_holds"] is False
    assert report.worst_case["threshold_holds"] is False
    assert report.worst_case["claimed_threshold"]["threshold"] == 2.0


def test_condition5_far_above_threshold():
    report = verify_condition5(5.0, 5.0, 10.0)
    assert report.passed
    assert report.worst_case["sweep_holds"] is True
    assert report.worst_case["threshold_holds"] is True


def test_condition5_boundary_counterexample():
    # Exactly at b = sqrt(p2 + 1) the claimed threshold claims redundancy but
    # the sweep finds interior power splits whose corner sum exceeds the sum
    # cap.  The claimed biconditional genuinely fails here; the oracle must
    # say so, while the exact condition b^2 >= 1 + p2 + b*sqrt(p1*p2) agrees.
    report = verify_condition5(1.0, 3.0, 2.0)
    claimed = report.worst_case["claimed_threshold"]
    assert claimed["holds"] is True
    assert claimed["agrees_with_sweep"] is False
    assert report.passed
    assert report.worst_case["threshold_holds"] is False
    assert report.worst_case["sweep_holds"] is False
    assert report.worst_case["max_corner_excess_bits"] == pytest.approx(
        0.134726995283577, abs=1e-9
    )


def test_condition5_grid_validation():
    with pytest.raises(ValueError) as err:
        verify_condition5(1.0, 1.0, 3.0, alpha_grid=np.array([]))
    assert str(err.value) == "empty grid"
    with pytest.raises(ValueError) as err:
        verify_condition5(1.0, 1.0, 3.0, alpha_grid=np.array([0.0, 1.5]))
    assert str(err.value) == "alpha grid values must lie in [0, 1]"


def test_condition6_strong_gain():
    report = verify_condition6(1.0, 1.0, 3.0)
    assert report.passed
    assert report.max_discrepancy == 0.0
    assert report.worst_case["sweep_holds"] is True
    assert report.worst_case["quadratic_form_holds"] is True


def test_condition6_just_above_threshold():
    threshold = math.sqrt(3.0) + 1.0
    report = verify_condition6(1.0, 1.0, 2.7321)
    assert report.passed
    assert report.worst_case["threshold"] == pytest.approx(threshold, abs=1e-12)


def test_condition6_below_threshold_all_sides_agree():
    report = verify_condition6(5.0, 5.0, 10.0)
    assert report.passed
    assert report.worst_case["sweep_holds"] is False
    assert report.worst_case["threshold_holds"] is False
    assert report.worst_case["quadratic_form_holds"] is False


def test_condition6_threshold_equals_quadratic_root():
    # The closed-form threshold is the positive root of the quadratic form,
    # so crossing it flips both sides together.
    rng = np.random.default_rng(31)
    for _ in range(100):
        p1 = 0.1 + 10.0 * rng.random()
        p2 = 0.1 + 10.0 * rng.random()
        b = 0.5 + 12.0 * rng.random()
        report = verify_condition6(p1, p2, b, beta_grid=201)
        assert report.passed, (p1, p2, b, report.worst_case)


# --------------------------------------------------- capacity identity check


def test_th3_capacity_identity_holds():
    for b in (3.0, 10.0):
        report = verify_th3_capacity(1.0, 1.0, b)
        assert report.passed, report.worst_case
        assert report.max_discrepancy <= 1.0
        assert report.worst_case["rate_cap_identity_bits"] <= 1e-12
        assert report.worst_case["sum_constraint_excess_bits"] <= 1e-12
        assert report.worst_case["frontier_gap_bits"] <= 1e-9


def test_th3_capacity_caps_match_scalar_pentagons():
    # The check evaluates both families' caps on the whole grid at once;
    # the pentagon-by-pentagon loop over the public scalar builders is the
    # reference, and the arithmetic is the same, so the numbers are equal.
    for p1, p2, scale in ((1.0, 1.0, 1.0), (0.3, 7.0, 1.7), (12.0, 0.05, 1.0)):
        b = scale * th3_threshold(p1, p2)
        params = ChannelParams(a=0.0, b=b, p1=p1, p2=p2)
        alpha = np.linspace(0.0, 1.0, 301)
        cap_identity = sum_excess = 0.0
        for al, be in zip(alpha.tolist(), beta_of_alpha(alpha, p1).tolist()):
            outer = FAMILIES["cor2"].pentagon(params, al)
            inner = FAMILIES["schemeE"].pentagon(params, be)
            cap_identity = max(
                cap_identity,
                abs(inner.r1_max - outer.r1_max),
                abs(inner.r2_max - outer.r2_max),
            )
            sum_excess = max(sum_excess, inner.r1_max + inner.r2_max - inner.sum_max)
        report = verify_th3_capacity(p1, p2, b, alpha_grid=301)
        assert report.worst_case["rate_cap_identity_bits"] == cap_identity
        assert report.worst_case["sum_constraint_excess_bits"] == sum_excess


def test_th3_capacity_requires_regime():
    with pytest.raises(ValueError) as err:
        verify_th3_capacity(1.0, 1.0, 2.0)
    assert str(err.value) == "not in Theorem-3 regime"
    # b = 3 meets the p2 = 0 threshold of 1, but the scheme has only beta = 1.
    with pytest.raises(ValueError) as err:
        verify_th3_capacity(2.0, 0.0, 3.0)
    assert str(err.value) == "Theorem-3 check needs p2 > 0"
    with pytest.raises(ValueError) as err:
        verify_th3_capacity(1.0, 1.0, 3.0, alpha_grid=1)
    assert str(err.value) == "grid resolution must be at least 2"


def test_th3_capacity_explicit_axis():
    report = verify_th3_capacity(2.0, 1.0, 5.0, alpha_grid=np.linspace(0.0, 1.0, 201))
    assert report.passed, report.worst_case
    assert report.n == 201
