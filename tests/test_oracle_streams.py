"""The streamed Monte Carlo oracles against one-shot references.

``mc_rate_check`` and ``degradedness_check`` draw their raw normals in
blocks of at most ``_BLOCK`` samples, each raw variable from a child stream
of its own (the inputs, then the noise; or ``g1, g2, z1, z2, z0``), keep
one running covariance of them and map each case through its own
coefficient matrix.  These tests pin that their reports equal, up
to summation order, those of a one-shot reference that draws the same
streams whole and reduces them with ``np.var`` / ``np.cov``, with the block
shrunk so that many blocks, one-row blocks and a ragged last block take
part; that the multi-case pass ``sampled_checks``, whose cases share one
draw, gives each case the bytes of its one-case call; and that memory stays
bounded at a million samples.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogregions import cli, oracles
from cogregions.channel import ChannelParams
from cogregions.oracles import (
    _pair_moment,
    _psd_factor,
    degradedness_check,
    mc_rate_check,
    sampled_checks,
)

# A moment may differ from the reference's by this much, relative to its
# scale: the two sum the same products in different orders.
_MOMENT_RTOL = 1e-12

# A pass/fail verdict may differ only this close to the 5-sigma tolerance.
_VERDICT_MARGIN = 1e-9


def _close_discrepancy(got: float, want: float, n: int) -> bool:
    """Discrepancies in standard errors agree up to the moments' rounding.

    A standard error is about ``1/sqrt(n)`` of the moment it measures, so
    a moment's relative rounding reaches a discrepancy about ``sqrt(n)``
    times larger, absolutely, however small the discrepancy itself is.
    """
    return math.isclose(
        got, want, rel_tol=_MOMENT_RTOL, abs_tol=_MOMENT_RTOL * math.sqrt(n)
    )


def _same_verdict(passed: bool, discrepancy: float, tolerance: float) -> bool:
    return passed == (discrepancy <= tolerance) or (
        abs(discrepancy - tolerance) <= _VERDICT_MARGIN
    )


# ----------------------------------------------------- one-shot references


def _one_shot_variance(gains, cov, n, seed):
    """``mc_rate_check``'s sampled variance from whole-length draws of its streams."""
    h = np.asarray(gains, dtype=float)
    *inputs, noise = np.random.default_rng(seed).spawn(h.size + 1)
    g = np.stack([stream.standard_normal(n) for stream in inputs], axis=1)
    signal = (g @ _psd_factor(np.asarray(cov)).T) @ h
    return float(np.var(signal + noise.standard_normal(n), ddof=1))


def _one_shot_covariance(params, n, seed, rho):
    """``np.cov`` of ``degradedness_check``'s ``(X1, X2, Y1, Y1_rebuilt)``, drawn whole."""
    a, b, p1, p2 = params.a, params.b, params.p1, params.p2
    g1, g2, z1, z2, z0 = (s.standard_normal(n) for s in np.random.default_rng(seed).spawn(5))
    x1 = math.sqrt(p1) * (rho * g2 + math.sqrt(1.0 - rho * rho) * g1)
    x2 = math.sqrt(p2) * g2
    y1 = x1 + a * x2 + z1
    y2 = b * x1 + x2 + z2
    y1_rebuilt = (y2 - x2) / b + a * x2 + math.sqrt(1.0 - 1.0 / (b * b)) * z0
    return np.cov(np.stack([x1, x2, y1, y1_rebuilt]))


def _ratios(cov, n):
    """Entrywise discrepancies of ``degradedness_check`` from a 4x4 covariance."""
    direct = cov[np.ix_([0, 1, 2], [0, 1, 2])]
    rebuilt = cov[np.ix_([0, 1, 3], [0, 1, 3])]
    cross = cov[np.ix_([0, 1, 2], [0, 1, 3])]
    var_diff = (
        _pair_moment(direct) + _pair_moment(rebuilt) - 2.0 * _pair_moment(cross)
    ) / n
    diff = np.abs(direct - rebuilt)
    stderr = np.sqrt(np.maximum(var_diff, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(stderr > 0.0, diff / stderr, np.where(diff == 0.0, 0.0, np.inf))


def _assert_mc_matches(gains, cov, n, seed, got=None):
    """``got`` (by default the one-case call) against the one-shot reference."""
    if got is None:
        got = mc_rate_check(gains, cov, n_samples=n, seed=seed, name="x")
    h = np.asarray(gains, dtype=float)
    target = float(1.0 + h @ np.asarray(cov) @ h)
    estimate = _one_shot_variance(gains, cov, n, seed)
    discrepancy = abs(estimate - target) / (target * math.sqrt(2.0 / (n - 1)))
    assert (got.n, got.seed, got.tolerance) == (n, seed, 5.0)
    assert got.worst_case["closed_form"] == target
    assert math.isclose(got.worst_case["estimate"], estimate, rel_tol=_MOMENT_RTOL)
    assert _close_discrepancy(got.max_discrepancy, discrepancy, n)
    assert _same_verdict(got.passed, discrepancy, 5.0)


def _assert_degradedness_matches(params, n, seed, rho, got=None):
    """``got`` (by default the one-case call) against the one-shot reference."""
    if got is None:
        got = degradedness_check(params, n_samples=n, seed=seed, input_rho=rho)
    cov = _one_shot_covariance(params, n, seed, rho)
    ratio = _ratios(cov, n)
    worst = float(ratio.max())
    a, p1, p2 = params.a, params.p1, params.p2
    closed_form = 1.0 + p1 + a * a * p2 + 2.0 * a * rho * math.sqrt(p1 * p2)
    assert (got.name, got.n, got.seed, got.tolerance) == ("degradedness_check", n, seed, 5.0)
    assert got.worst_case["input_rho"] == rho
    assert got.worst_case["var_y1_closed_form"] == closed_form
    assert _close_discrepancy(got.max_discrepancy, worst, n)
    assert _same_verdict(got.passed, worst, 5.0)
    # The reported entry is a worst one of the reference, up to a tie in
    # rounding (at rho = +-1, X1 is a multiple of X2 and two entries tie).
    i, j = got.worst_case["entry"]
    assert _close_discrepancy(float(ratio[i, j]), worst, n)
    for field, rows in (("direct", [0, 1, 2]), ("rebuilt", [0, 1, 3])):
        r, c = rows[i], rows[j]
        scale = math.sqrt(cov[r, r] * cov[c, c])
        assert abs(got.worst_case[field] - cov[r, c]) <= _MOMENT_RTOL * scale


# ------------------------------------------------------ streamed vs whole

# Ragged sample counts just above the minimum keep one-row blocks cheap.
_SAMPLES = st.integers(oracles.MIN_MC_SAMPLES, oracles.MIN_MC_SAMPLES + 300)
_BLOCKS = st.integers(1, 64)
_SEEDS = st.integers(0, 2**31 - 1)
_POWERS = st.sampled_from([0.0]) | st.floats(0.0, 10.0)


@st.composite
def _gains_and_cov(draw, k=None):
    """``k`` gains and a symmetric PSD ``k x k`` covariance of rank 1 to ``k``."""
    if k is None:
        k = draw(st.integers(1, 3))
    rank = draw(st.integers(1, k))
    # Zero gains and zero rows (a silent input) are drawn on purpose.
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
        _assert_mc_matches(gains, cov, n, seed)


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
        _assert_degradedness_matches(params, n, seed, rho)


@pytest.mark.parametrize("extra", [1, 12_345])
def test_streamed_checks_match_one_shot_across_default_blocks(extra):
    # extra = 1 leaves a one-row last block.
    n = 2 * oracles._BLOCK + extra
    _assert_mc_matches((3.0, 1.0), [[2.0, 1.2], [1.2, 3.0]], n, 5)
    _assert_degradedness_matches(ChannelParams(a=0.0, b=4.0, p1=1.0, p2=2.0), n, 6, 0.7)


@st.composite
def _mc_cases(draw):
    """One to four named ``(gains, cov)`` cases with one gain-vector length."""
    k = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    return [(f"case{i}", *draw(_gains_and_cov(k))) for i in range(count)]


def _lines(reports):
    return [report.to_json_line() for report in reports]


@settings(max_examples=10, deadline=None)
@given(_mc_cases(), _SAMPLES, _SEEDS, _BLOCKS)
def test_mc_rate_checks_give_each_case_its_one_case_bytes(cases, n, seed, block):
    with mock.patch.object(oracles, "_BLOCK", block):
        reports = sampled_checks(cases, None, None, n, seed)
        alone = [mc_rate_check(gains, cov, n, seed, name) for name, gains, cov in cases]
    assert _lines(reports) == _lines(alone)
    assert [report.name for report in reports] == [name for name, _, _ in cases]


@settings(max_examples=10, deadline=None)
@given(
    st.floats(0.0, 2.0),
    st.floats(1.0, 20.0),
    _POWERS,
    _POWERS,
    st.lists(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0), min_size=1, max_size=3),
    _SAMPLES,
    _SEEDS,
    _BLOCKS,
)
def test_degradedness_checks_give_each_case_its_one_case_bytes(
    a, b, p1, p2, rhos, n, seed, block
):
    params = ChannelParams(a=a, b=b, p1=p1, p2=p2)
    with mock.patch.object(oracles, "_BLOCK", block):
        reports = sampled_checks(None, params, rhos, n, seed)
        alone = [degradedness_check(params, n, seed, rho) for rho in rhos]
    assert _lines(reports) == _lines(alone)


@pytest.mark.parametrize(
    "block, n",
    [
        (1, oracles.MIN_MC_SAMPLES + 2),
        (97, oracles.MIN_MC_SAMPLES + 1),
        (4_096, 65_537),
        (None, 65_537),  # the default block: 8 whole blocks and a one-row one
    ],
)
def test_multi_case_passes_match_one_shot(block, n):
    # The passes of ``verify``, with its cases.
    params = ChannelParams(a=0.3, b=2.0, p1=2.0, p2=3.0)
    cases = cli._mc_cases(params)
    rhos = (0.0, 0.7)
    with mock.patch.object(oracles, "_BLOCK", block or oracles._BLOCK):
        mc = sampled_checks(cases, None, None, n, 9)
        degraded = sampled_checks(None, params, rhos, n, 10)
    for (_, gains, cov), report in zip(cases, mc, strict=True):
        _assert_mc_matches(gains, cov, n, 9, got=report)
    for rho, report in zip(rhos, degraded, strict=True):
        _assert_degradedness_matches(params, n, 10, rho, got=report)


# Points at input_rho = +-1, where X1 is a multiple of X2 and the entries
# (0, 2) and (1, 2) tie in exact arithmetic; which one has the larger
# rounded ratio changes with the block size.
_TIED = [
    (ChannelParams(0.0, 8.327499048493465, 0.2963580401523752, 0.9103941710646964), -1.0, 198),
    (ChannelParams(1.6900461831366929, 18.836284741117808, 0.3239155159813273,
                   1.2692417487935013), 1.0, 360),
]


@pytest.mark.parametrize("params, rho, seed", _TIED)
def test_degradedness_check_reports_the_first_of_tied_entries(params, rho, seed):
    entries = set()
    for block in range(1, 65):
        with mock.patch.object(oracles, "_BLOCK", block):
            report = degradedness_check(params, oracles.MIN_MC_SAMPLES, seed, input_rho=rho)
        entries.add(tuple(report.worst_case["entry"]))
    assert entries == {(0, 2)}


# ------------------------------------------------------------------ memory


def _peak_mb(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_degradedness_check_memory_is_bounded():
    # One block of the five raw draws is about 0.3 MB; a (4, n) sample
    # matrix would be 32 MB.
    params = ChannelParams(a=0.0, b=5.0, p1=1.0, p2=1.0)
    assert _peak_mb(degradedness_check, params, n_samples=1_000_000) <= 16.0


def test_mc_rate_check_memory_is_bounded():
    # One block of the three raw draws and its input rows are about 0.3 MB;
    # the received samples alone would be 8 MB.
    cov = [[1.0, 0.5], [0.5, 1.0]]
    assert _peak_mb(mc_rate_check, (5.0, 1.0), cov, n_samples=1_000_000) <= 4.0
