"""The streamed Monte Carlo oracles against the one-shot versions they replaced.

``mc_rate_check`` and ``degradedness_check`` draw their samples through
``_BLOCK``-row buffers and reduce them in place.  These tests pin that their
reports equal, byte for byte, those of a copy of the one-shot code, with the
block shrunk so that many blocks and a ragged last block take part; that
the in-place reductions equal ``np.var`` and ``np.cov`` bit for bit; and
that memory stays bounded at a million samples.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogregions import oracles
from cogregions.channel import ChannelParams
from cogregions.oracles import (
    _pair_moment,
    _psd_factor,
    _sample_covariance,
    _sample_variance,
    degradedness_check,
    mc_rate_check,
)
from cogregions.region_geometry import VerificationReport


# ----------------------------------------------------- one-shot references


def _one_shot_mc_rate_check(gains, cov, n, seed, name="mc_rate_check"):
    h = np.asarray(gains, dtype=float)
    cov = np.asarray(cov, dtype=float)
    factor = _psd_factor(cov)
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((n, h.size)) @ factor.T
    received = inputs @ h + rng.standard_normal(n)
    estimate = float(np.var(received, ddof=1))
    target = float(1.0 + h @ cov @ h)
    stderr = target * math.sqrt(2.0 / (n - 1))
    discrepancy = abs(estimate - target) / stderr
    return VerificationReport(
        name=name,
        passed=bool(discrepancy <= 5.0),
        max_discrepancy=float(discrepancy),
        tolerance=5.0,
        n=n,
        seed=int(seed),
        worst_case={"closed_form": target, "estimate": estimate},
    )


def _one_shot_degradedness_check(params, n, seed, rho):
    a, b = params.a, params.b
    p1, p2 = params.p1, params.p2
    rng = np.random.default_rng(seed)
    g1, g2, z1, z2, z0 = rng.standard_normal((5, n))
    samples = np.empty((4, n))
    x1, x2, y1, y1_rebuilt = samples
    x2[:] = math.sqrt(p2) * g2
    x1[:] = math.sqrt(p1) * (rho * g2 + math.sqrt(1.0 - rho * rho) * g1)
    y1[:] = x1 + a * x2 + z1
    y2 = b * x1 + x2 + z2
    y1_rebuilt[:] = (y2 - x2) / b + a * x2 + math.sqrt(1.0 - 1.0 / (b * b)) * z0

    cov = np.cov(samples)
    direct_rows, rebuilt_rows = [0, 1, 2], [0, 1, 3]
    direct = cov[np.ix_(direct_rows, direct_rows)]
    rebuilt = cov[np.ix_(rebuilt_rows, rebuilt_rows)]
    cross = cov[np.ix_(direct_rows, rebuilt_rows)]
    var_diff = (
        _pair_moment(direct) + _pair_moment(rebuilt) - 2.0 * _pair_moment(cross)
    ) / n
    diff = np.abs(direct - rebuilt)
    stderr = np.sqrt(np.maximum(var_diff, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(stderr > 0.0, diff / stderr, np.where(diff == 0.0, 0.0, np.inf))
    worst = int(np.argmax(ratio))
    i, j = divmod(worst, 3)
    var_y1_closed_form = (
        1.0 + p1 + a * a * p2 + 2.0 * a * rho * math.sqrt(p1 * p2)
    )
    return VerificationReport(
        name="degradedness_check",
        passed=bool(ratio[i, j] <= 5.0),
        max_discrepancy=float(ratio[i, j]),
        tolerance=5.0,
        n=n,
        seed=int(seed),
        worst_case={
            "entry": [i, j],
            "direct": float(direct[i, j]),
            "rebuilt": float(rebuilt[i, j]),
            "input_rho": rho,
            "var_y1_closed_form": var_y1_closed_form,
        },
    )


# ------------------------------------------------------ streamed vs whole

# Ragged sample counts just above the minimum keep one-row blocks cheap.
_SAMPLES = st.integers(oracles.MIN_MC_SAMPLES, oracles.MIN_MC_SAMPLES + 300)
_BLOCKS = st.integers(1, 64)
_SEEDS = st.integers(0, 2**31 - 1)
_POWERS = st.sampled_from([0.0]) | st.floats(0.0, 10.0)


@st.composite
def _gains_and_cov(draw):
    """``k`` gains and a symmetric PSD ``k x k`` covariance of rank 1 to ``k``."""
    k = draw(st.integers(1, 3))
    rank = draw(st.integers(1, k))
    # Generic values, so that any change in rounding shows; zero gains and
    # zero rows (a silent input) are drawn on purpose.
    rng = np.random.default_rng(draw(_SEEDS))
    gains = rng.uniform(-3.0, 3.0, k) * draw(st.lists(st.booleans(), min_size=k, max_size=k))
    root = rng.uniform(-3.0, 3.0, (k, rank))
    root *= np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))[:, None]
    cov = root @ root.T
    return gains.tolist(), (cov + cov.T) / 2.0


@settings(max_examples=60, deadline=None)
@given(_gains_and_cov(), _SAMPLES, _SEEDS, _BLOCKS)
def test_streamed_mc_rate_check_matches_one_shot(case, n, seed, block):
    gains, cov = case
    with mock.patch.object(oracles, "_BLOCK", block):
        streamed = mc_rate_check(gains, cov, n_samples=n, seed=seed, name="x")
    assert streamed.to_json_line() == _one_shot_mc_rate_check(
        gains, cov, n, seed, name="x"
    ).to_json_line()


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 2.0),
    st.sampled_from([1.0]) | st.floats(1.0, 20.0),
    _POWERS,
    _POWERS,
    st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0),
    _SAMPLES,
    _SEEDS,
    _BLOCKS,
)
def test_streamed_degradedness_check_matches_one_shot(a, b, p1, p2, rho, n, seed, block):
    params = ChannelParams(a=a, b=b, p1=p1, p2=p2)
    with mock.patch.object(oracles, "_BLOCK", block):
        streamed = degradedness_check(params, n_samples=n, seed=seed, input_rho=rho)
    assert streamed.to_json_line() == _one_shot_degradedness_check(
        params, n, seed, rho
    ).to_json_line()


@given(st.integers(1, 64), st.integers(1, 300))
def test_blocks_cover_the_rows_two_or_more_at_a_time(block, n):
    with mock.patch.object(oracles, "_BLOCK", block):
        blocks = list(oracles._blocks(n))
    assert [s.start for s in blocks] == [0] + [s.stop for s in blocks[:-1]]
    assert blocks[-1].stop == n
    assert all(s.stop - s.start >= min(2, n) for s in blocks)


@pytest.mark.parametrize("extra", [1, 12_345])
def test_streamed_checks_match_one_shot_across_default_blocks(extra):
    # A lone last row would take numpy's vector product, which rounds
    # differently; it joins the block before it.
    n = 2 * oracles._BLOCK + extra
    cov = [[2.0, 1.2], [1.2, 3.0]]
    assert (
        mc_rate_check((3.0, 1.0), cov, n_samples=n, seed=5).to_json_line()
        == _one_shot_mc_rate_check((3.0, 1.0), cov, n, 5).to_json_line()
    )
    params = ChannelParams(a=0.0, b=4.0, p1=1.0, p2=2.0)
    assert (
        degradedness_check(params, n_samples=n, seed=6, input_rho=0.7).to_json_line()
        == _one_shot_degradedness_check(params, n, 6, 0.7).to_json_line()
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 200_000), _SEEDS)
def test_in_place_reductions_match_numpy_bitwise(rows, n, seed):
    x = np.random.default_rng(seed).normal(3.0, 2.0, (rows, n))
    expected_cov = np.cov(x)
    expected_var = np.var(x[0], ddof=1)
    row = x[0].copy()
    assert _sample_variance(row) == expected_var
    assert np.array_equal(
        _sample_covariance(x).view(np.int64), expected_cov.view(np.int64)
    )


# ------------------------------------------------------------------ memory


def _peak_mb(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_degradedness_check_memory_is_bounded():
    # The (4, n) sample matrix is 32 MB; raw draws and a covariance copy
    # would add 72 MB more.
    params = ChannelParams(a=0.0, b=5.0, p1=1.0, p2=1.0)
    assert _peak_mb(degradedness_check, params, n_samples=1_000_000) <= 40.0


def test_mc_rate_check_memory_is_bounded():
    # The received samples are 8 MB; whole-length inputs would add 16 MB.
    cov = [[1.0, 0.5], [0.5, 1.0]]
    assert _peak_mb(mc_rate_check, (5.0, 1.0), cov, n_samples=1_000_000) <= 16.0
