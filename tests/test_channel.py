"""Channel parameter validation and regime classification."""

import math

import numpy as np
import pytest

from cogregions.channel import (
    ChannelParams,
    classify,
    gaussian_rate,
    pdc_threshold,
    th3_threshold,
)


def test_params_store_magnitude_of_b():
    p = ChannelParams(a=0.5, b=-2.0, p1=1.0, p2=1.0)
    assert p.b == 2.0


def test_params_reject_negative_cross_gain():
    with pytest.raises(ValueError) as err:
        ChannelParams(a=-0.1, b=1.0, p1=1.0, p2=1.0)
    assert str(err.value) == "cross gain a must be nonnegative (real-valued model)"


def test_params_reject_negative_power():
    with pytest.raises(ValueError) as err:
        ChannelParams(a=0.0, b=1.0, p1=-1.0, p2=1.0)
    assert str(err.value) == "powers p1, p2 must be nonnegative"


def test_params_reject_non_finite():
    with pytest.raises(ValueError, match="must be finite"):
        ChannelParams(a=0.0, b=math.inf, p1=1.0, p2=1.0)
    with pytest.raises(ValueError, match="must be finite"):
        ChannelParams(a=math.nan, b=1.0, p1=1.0, p2=1.0)


def test_params_reject_products_that_overflow():
    # 16 max(1, a^2, b^2) max(1, p1) max(1, p2) must be finite.
    assert ChannelParams(a=0.0, b=1.0, p1=1e307, p2=1.0).p1 == 1e307
    assert ChannelParams(a=0.0, b=10.0, p1=1e150, p2=1e150).b == 10.0
    for a, b, p1, p2 in [(0.0, 1.0, 1.2e307, 1.0), (0.0, 10.0, 1e153, 1e153),
                         (1e154, 0.0, 1.0, 1.0), (0.0, 2.0, 1e200, 1e200)]:
        with pytest.raises(ValueError, match="gains and powers too large"):
            ChannelParams(a=a, b=b, p1=p1, p2=p2)


def test_gaussian_rate_matches_log2_and_broadcasts():
    assert abs(gaussian_rate(1.0) - 1.0) <= 1e-15
    assert abs(gaussian_rate(16.0) - math.log2(17.0)) <= 1e-12
    out = gaussian_rate(np.array([0.0, 3.0, 15.0]))
    np.testing.assert_allclose(out, [0.0, 2.0, 4.0], atol=1e-12)


def test_thresholds_closed_forms():
    assert abs(pdc_threshold(1.0, 1.0) - math.sqrt(1.5)) <= 1e-15
    assert abs(th3_threshold(1.0, 1.0) - (math.sqrt(3.0) + 1.0)) <= 1e-15


def test_classify_strong_interference_with_th3():
    rep = classify(ChannelParams(a=0.0, b=3.0, p1=1.0, p2=1.0))
    assert rep.interference_class == "strong"
    assert rep.z_channel == "a_zero"
    assert rep.th3_capacity is True
    assert rep.pdc_capacity_known is False
    assert rep.regime == "th3_exact"
    assert set(rep.thresholds) == {"pdc_capacity", "th3_capacity"}
    assert "cor2_dominates" not in rep.as_dict()


def test_classify_boundaries_are_closed():
    # b equal to a threshold counts as meeting it.
    at_pdc = classify(ChannelParams(a=0.0, b=pdc_threshold(1.0, 3.0), p1=1.0, p2=3.0))
    assert at_pdc.pdc_capacity_known is True
    at_th3 = classify(ChannelParams(a=0.0, b=th3_threshold(1.0, 3.0), p1=1.0, p2=3.0))
    assert at_th3.th3_capacity is True
    assert at_th3.regime == "th3_exact"


def test_classify_b_zero_takes_precedence_over_a_zero():
    rep = classify(ChannelParams(a=0.0, b=0.0, p1=5.0, p2=5.0))
    assert rep.z_channel == "b_zero"
    assert rep.interference_class == "weak"
    assert rep.pdc_capacity_known is True


def test_classify_reference_configuration_not_proven():
    rep = classify(ChannelParams(a=0.01, b=10.0, p1=5.0, p2=5.0))
    assert rep.th3_capacity is False  # threshold ~10.568 exceeds 10
    assert rep.z_channel == "none"
    assert rep.regime == "open_strong"


def test_classify_open_window():
    # Between the weak-regime threshold and the superposition threshold.
    rep = classify(ChannelParams(a=0.0, b=2.5, p1=1.0, p2=1.0))
    assert rep.regime == "open_strong"
    assert rep.pdc_capacity_known is False
    assert rep.th3_capacity is False


def test_as_dict_round_trip():
    rep = classify(ChannelParams(a=0.0, b=3.0, p1=1.0, p2=1.0))
    d = rep.as_dict()
    assert d["interference_class"] == "strong"
    assert d["thresholds"]["th3_capacity"] == pytest.approx(
        math.sqrt(3.0) + 1.0, abs=1e-15
    )
