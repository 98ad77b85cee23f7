"""Independent verification oracles.

Monte Carlo checks re-derive the closed-form variance arguments of the rate
formulas from sampled Gaussian inputs; the degradedness check reconstructs
receiver 1's observation from receiver 2's and compares joint covariances;
the condition sweeps brute-force the redundancy of sum constraints against
their claimed thresholds.  Every report is deterministic for a fixed seed.
Every sampled quantity is a fixed linear map of a few independent standard
normals, and a sample covariance commutes with linear maps: the covariance
of ``A g`` is ``A cov(g) A^T`` exactly, centring included.  So a sampled
pass keeps one running covariance of its raw normals, drawn in blocks of at
most ``_BLOCK`` samples so that no buffer spans them all, and maps every
case through its own coefficient matrix.  Raw variable ``i`` is child
stream ``i`` of ``SeedSequence(seed)``: the Monte Carlo cases read streams
``0..k`` (their ``k`` inputs, then the noise), the degradedness cases
streams ``0..4``.  Each stream's draws depend on neither the block size nor
the other streams, and each entry of the running covariance on its own two
rows only, so the Monte Carlo cases read the same bits from the top-left
block of a pass that also serves the degradedness cases.  ``verify`` makes
one such pass, :func:`sampled_checks`, over the cases of both suites
(common random numbers), and each of its reports equals, bit for bit, the
one-case call with the same seed.

Discrepancies are reported in units that make ``passed iff max_discrepancy
<= tolerance`` hold exactly: standard-error multiples for sampled checks,
mismatch counts for biconditional sweeps, and worst constraint-to-tolerance
ratios for the multi-tolerance capacity identity.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .channel import ChannelParams, gaussian_rate, th3_threshold
from .inner_bounds import _scheme_e_caps, beta_of_alpha, scheme_e_region
from .outer_bounds import _cor2_caps, cor2_region
from .region_geometry import GridAxis, VerificationReport, grid_axis

__all__ = [
    "VerificationReport",
    "mc_rate_check",
    "degradedness_check",
    "sampled_checks",
    "verify_condition5",
    "verify_condition6",
    "verify_th3_capacity",
]

MIN_MC_SAMPLES = 10_000

# Samples per block of streamed Monte Carlo draws; bounds each pass's
# buffers to a few hundred kilobytes whatever ``n_samples`` is.  Small blocks
# also keep resident memory flat across checks: glibc raises its mmap
# threshold after freeing a large buffer, so later multi-megabyte blocks
# come from the malloc heap, which may keep them resident.
_BLOCK = 8_192


def _sample_cov(draw, d: int, n: int) -> np.ndarray:
    """Unbiased sample covariance of ``d`` variables, ``n`` samples drawn in blocks.

    ``draw(block)`` fills a ``(d, m)`` buffer with the next ``m`` samples,
    one row per variable, ``m`` at most ``_BLOCK``.  Full blocks reuse one
    buffer and a ragged last block gets a shorter one.  Only the running
    sums of the samples and of their pairwise products are kept, so no
    buffer spans all ``n`` samples; the result is ``(sum x x^T - sum x sum
    x^T / n) / (n - 1)``.  Every sampled variable has zero mean, so the raw
    moments lose nothing measurable to cancellation.  The products go
    through ``einsum``, whose summation order depends on no BLAS build.
    """
    total = np.zeros(d)
    cross = np.zeros((d, d))
    block = np.empty((d, min(_BLOCK, n)))
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        if m != block.shape[1]:
            block = np.empty((d, m))
        draw(block)
        total += block.sum(axis=1)
        cross += np.einsum("im,jm->ij", block, block)
    return (cross - np.outer(total, total) / n) / (n - 1)


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix via its eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    scale = max(1.0, float(eigvals[-1]))
    if eigvals[0] < -1e-9 * scale:
        raise ValueError("covariance must be positive semidefinite")
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def mc_rate_check(
    gains: Sequence[float],
    cov,
    n_samples: int = 1_000_000,
    seed: int = 0,
    name: str = "mc_rate_check",
) -> VerificationReport:
    """Monte Carlo check of a closed-form received-signal variance.

    Draws jointly Gaussian inputs with covariance ``cov``, forms
    ``Y = gains . X + Z`` with unit noise, and compares the sample variance
    of ``Y`` against the closed form ``1 + h S h^T`` that every rate
    expression in this package feeds to ``log2``.  Passes iff the estimate
    is within 5 standard errors of the sample-variance estimator.  ``cov``
    must be finite and exactly symmetric: the factorization reads only one
    triangle, while the closed form reads both.  The one-case form of
    :func:`sampled_checks`.
    """
    return sampled_checks([(name, gains, cov)], None, None, n_samples, seed)[0]


def _mc_rows(cases, n: int) -> list:
    """Checked ``(name, h, cov, r)`` of each case, ``r = (F^T h, 1)`` its row of
    the raw variables: the ``k`` standard-normal inputs, then the noise."""
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    prepared = []
    for name, gains, cov in cases:
        h = np.asarray(gains, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (h.size, h.size):
            raise ValueError("covariance shape must match the gain vector")
        if not np.all(np.isfinite(h)):
            raise ValueError("gains must be finite")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance must be finite")
        if not np.array_equal(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        prepared.append((name, h, cov, np.append(_psd_factor(cov).T @ h, 1.0)))
    if len({h.size for _, h, _, _ in prepared}) != 1:
        raise ValueError("cases must be one or more, with gain vectors of one length")
    return prepared


def _mc_report(name, h, cov, estimate: float, n: int, seed: int) -> VerificationReport:
    """:func:`mc_rate_check`'s report from the sampled variance ``estimate``."""
    target = float(1.0 + h @ cov @ h)
    # Sample variance of Gaussian data has variance 2 sigma^4 / (n - 1).
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


def sampled_checks(mc_cases, params, input_rhos, n_samples: int, seed: int) -> list:
    """:func:`mc_rate_check` of each case, then :func:`degradedness_check` at
    each input correlation, all on one draw; a suite whose cases are None is
    skipped.

    ``mc_cases`` holds ``(name, gains, cov)`` triples whose gain vectors
    have one length ``k``.  Every case reads the same sampled variables
    (common random numbers), so the draws cost what one case's do, and each
    report is, bit for bit, that of the one-case call with the same
    ``n_samples`` and ``seed``: a case reads only the shared sample
    covariance and its own gains or rows.

    Raw variable ``i`` is child stream ``i`` of ``SeedSequence(seed)``: the
    Monte Carlo cases read streams ``0..k``, the degradedness cases streams
    ``0..4`` as ``(g1, g2, z1, z2, z0)``.  One running covariance of as many
    streams as either suite reads serves both, and each suite maps its
    top-left block, which is bit for bit the covariance its own pass draws:
    each stream draws its rows alone, and each sum of products reads only
    its own two rows.  Both suites' arguments are checked before drawing.
    """
    n = int(n_samples)
    mc = [] if mc_cases is None else _mc_rows(mc_cases, n)
    rhos = [] if input_rhos is None else _checked_rhos(params, n, input_rhos)
    k1 = mc[0][3].size if mc else 0
    d = max(k1, 5 if rhos else 0)
    streams = np.random.default_rng(seed).spawn(d)

    def draw(block):
        for stream, row in zip(streams, block):
            stream.standard_normal(out=row)

    raw = _sample_cov(draw, d, n)
    # Each suite reads the top-left block of its own streams, laid out as
    # its own pass lays out the whole covariance.
    mc_raw = np.ascontiguousarray(raw[:k1, :k1])
    degraded_raw = np.ascontiguousarray(raw[:5, :5])
    reports = [
        _mc_report(name, h, cov, float(r @ mc_raw @ r), n, seed) for name, h, cov, r in mc
    ]
    for rho in rhos:
        rows = _degradedness_rows(params, rho)
        cov = rows @ degraded_raw @ rows.T
        reports.append(_degradedness_report(params, n, seed, rho, cov))
    return reports


def _pair_moment(s_ab: np.ndarray) -> np.ndarray:
    """``n Cov(cov(A_i, A_j), cov(B_i, B_j))`` of Gaussian sample covariances.

    ``s_ab`` is the covariance block ``S[A, B]``; entry ``(i, j)`` is
    ``S[A_i, B_i] S[A_j, B_j] + S[A_i, B_j] S[A_j, B_i]``.  With ``B = A``
    it is ``n`` times the variance of each sample covariance of ``A``.
    """
    d = np.diag(s_ab)
    return np.outer(d, d) + s_ab * s_ab.T


def degradedness_check(
    params: ChannelParams,
    n_samples: int = 1_000_000,
    seed: int = 0,
    input_rho: float = 0.0,
) -> VerificationReport:
    """Check that receiver 1's signal can be rebuilt from receiver 2's.

    For ``|b| >= 1``, the reconstruction ``(Y2 - X2)/b + a X2 +
    sqrt(1 - 1/b^2) Z0`` has the same joint distribution with the inputs as
    ``Y1`` itself — both are ``X1 + a X2`` plus independent unit noise.  The
    check samples inputs with correlation ``input_rho``, builds both
    observations, and compares the two 3x3 joint covariance matrices
    ``Cov(X1, X2, .)`` entrywise in standard-error units.  The standard
    error is that of the difference of the two sample covariances, which
    share the inputs but not the noise: with ``S`` the sample covariance of
    ``(X1, X2, Y1, Y1_rebuilt)``, the Gaussian identity ``n Cov(cov(A, B),
    cov(C, D)) = S_AC S_BD + S_AD S_BC`` gives both variances and the cross
    term.  Entries with a vanishing standard error (degenerate inputs) must
    agree exactly.  The one-case form of :func:`sampled_checks`.
    """
    return sampled_checks(None, params, (input_rho,), n_samples, seed)[0]


def _checked_rhos(params: ChannelParams, n: int, input_rhos) -> list:
    """``input_rhos`` as floats, once the construction's arguments check out."""
    if params.b < 1.0:
        raise ValueError("construction requires |b| ≥ 1")
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    rhos = [float(rho) for rho in input_rhos]
    if not rhos:
        raise ValueError("input_rhos must hold one or more correlations")
    for rho in rhos:
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"input_rho must lie in [-1, 1], got {rho}")
    return rhos


def _degradedness_rows(params: ChannelParams, rho: float) -> np.ndarray:
    """Rows of ``(X1, X2, Y1, Y1_rebuilt)`` as linear maps of ``(g1, g2, z1, z2, z0)``.

    The inputs are ``X1 = sqrt(p1) (rho g2 + sqrt(1 - rho^2) g1)`` and
    ``X2 = sqrt(p2) g2``; receiver 2 sees ``Y2 = b X1 + X2 + Z2``, from
    which ``Y1`` is rebuilt as ``(Y2 - X2)/b + a X2 + sqrt(1 - 1/b^2) Z0``.
    """
    a, b = params.a, params.b
    g1, g2, z1, z2, z0 = np.eye(5)
    x1 = math.sqrt(params.p1) * (rho * g2 + math.sqrt(1.0 - rho * rho) * g1)
    x2 = math.sqrt(params.p2) * g2
    y1 = x1 + a * x2 + z1
    y2 = b * x1 + x2 + z2
    y1_rebuilt = (y2 - x2) / b + a * x2 + math.sqrt(1.0 - 1.0 / (b * b)) * z0
    return np.stack([x1, x2, y1, y1_rebuilt])


def _degradedness_report(
    params: ChannelParams, n: int, seed: int, rho: float, cov: np.ndarray
) -> VerificationReport:
    """:func:`degradedness_check`'s report from the covariance of ``(X1, X2, Y1, Y1_rebuilt)``."""
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
    # Entries that tie in exact arithmetic (at input_rho = +-1, X1 is a
    # multiple of X2) differ by rounding: report the first of them.  A
    # moment's rounding reaches a discrepancy in standard errors about
    # sqrt(n) times larger (measured below 1e-15 * sqrt(n)), so the band is
    # that with a wide margin; entries that truly differ by more, as at an
    # input_rho one ulp inside +-1, are not ties.  An infinite top (an entry
    # that differs with zero standard error) takes no band: inf - inf is nan.
    top = float(ratio.max())
    band = 1e-13 * (top + math.sqrt(n)) if math.isfinite(top) else 0.0
    i, j = divmod(int(np.argmax(ratio >= top - band)), 3)
    a, p1, p2 = params.a, params.p1, params.p2
    var_y1_closed_form = (
        1.0 + p1 + a * a * p2 + 2.0 * a * rho * math.sqrt(p1 * p2)
    )
    return VerificationReport(
        name="degradedness_check",
        passed=bool(top <= 5.0),
        max_discrepancy=top,
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


def _z_bound_caps(p1: float, p2: float, b: float, alpha: np.ndarray):
    """Closed-form (r1, r2, sum) caps of the Z outer bound, vectorized.

    Written out independently of the ``cor2`` family's caps kernel in
    :mod:`~cogregions.outer_bounds` so the condition sweeps do not inherit a
    bug from the module they help validate.
    """
    b2 = b * b
    abar = 1.0 - alpha
    r1_cap = gaussian_rate(alpha * p1)
    amplitude = np.sqrt(p2) + np.sqrt(b2 * p1 * abar / (1.0 + alpha * p1))
    r2_cap = gaussian_rate(amplitude * amplitude)
    sum_cap = gaussian_rate(p2 + b2 * p1 + 2.0 * np.sqrt(abar * b2 * p1 * p2))
    return r1_cap, r2_cap, sum_cap


def verify_condition5(
    p1: float,
    p2: float,
    b: float,
    alpha_grid: GridAxis = 1001,
) -> VerificationReport:
    """Brute-force one instance of the Z-bound sum-redundancy biconditional.

    The Z outer bound's sum constraint is redundant — for every power split
    the r1 and r2 caps already add up below it — exactly when
    ``b^2 >= 1 + p2 + b*sqrt(p1*p2)``, that is, when ``b`` is at least the
    positive root ``(sqrt(p1*p2) + sqrt(p1*p2 + 4*(1 + p2))) / 2``.  The
    sweep evaluates the caps on the grid and compares against that
    condition; ``max_discrepancy`` is 1 when the two sides disagree, else
    0.  The paper's claimed threshold ``b >= sqrt(p2 + 1)`` is necessary
    but not sufficient; ``claimed_threshold`` in ``worst_case`` reports
    its own verdict against the sweep, without affecting ``passed``.
    Integer grids get geometric end tails, since violations can hide in
    the boundary layers.
    """
    alpha = grid_axis(alpha_grid, "alpha grid", tailed=True)
    p1, p2, b = float(p1), float(p2), float(b)
    r1_cap, r2_cap, sum_cap = _z_bound_caps(p1, p2, b, alpha)
    excess = r1_cap + r2_cap - sum_cap
    worst = int(np.argmax(excess))
    sweep_holds = bool(excess[worst] <= 1e-12)
    cross = math.sqrt(p1 * p2)
    threshold_holds = bool(b * b >= 1.0 + p2 + b * cross)
    claimed_holds = bool(b >= math.sqrt(p2 + 1.0))
    agree = sweep_holds == threshold_holds
    return VerificationReport(
        name="condition5_biconditional",
        passed=agree,
        max_discrepancy=0.0 if agree else 1.0,
        tolerance=0.0,
        n=int(alpha.size),
        worst_case={
            "sweep_holds": sweep_holds,
            "threshold_holds": threshold_holds,
            "threshold": 0.5 * (cross + math.sqrt(p1 * p2 + 4.0 * (1.0 + p2))),
            "claimed_threshold": {
                "threshold": math.sqrt(p2 + 1.0),
                "holds": claimed_holds,
                "agrees_with_sweep": claimed_holds == sweep_holds,
            },
            "worst_alpha": float(alpha[worst]),
            "max_corner_excess_bits": float(excess[worst]),
        },
    )


def verify_condition6(
    p1: float,
    p2: float,
    b: float,
    beta_grid: GridAxis = 1001,
) -> VerificationReport:
    """Brute-force one instance of the superposition sum-redundancy claim.

    Two claims are checked at once: the scheme's sum constraint is inactive
    for every private-power fraction exactly when ``b >= sqrt(1 + p2*(1 +
    p1)) + sqrt(p1*p2)``, and that threshold is equivalent to the quadratic
    form ``b^2 >= 1 + p2 + 2*sqrt(b^2*p1*p2)``.  ``max_discrepancy`` counts
    disagreeing comparisons (0, 1, or 2).
    """
    beta = grid_axis(beta_grid, "beta grid", tailed=True)
    p1, p2, b = float(p1), float(p2), float(b)
    b2 = b * b
    bbar = 1.0 - beta
    r1_cap = gaussian_rate(beta * p1 / (1.0 + bbar * p1))
    amplitude = np.sqrt(p2) + np.sqrt(bbar * b2 * p1)
    r2_cap = gaussian_rate(amplitude * amplitude)
    sum_cap = gaussian_rate(p2 + b2 * p1 + 2.0 * np.sqrt(bbar * b2 * p1 * p2))
    excess = r1_cap + r2_cap - sum_cap
    worst = int(np.argmax(excess))
    sweep_holds = bool(excess[worst] <= 1e-12)
    threshold = th3_threshold(p1, p2)
    threshold_holds = bool(b >= threshold)
    quadratic_holds = bool(b2 >= 1.0 + p2 + 2.0 * math.sqrt(b2 * p1 * p2))
    mismatches = int(sweep_holds != threshold_holds) + int(
        quadratic_holds != threshold_holds
    )
    return VerificationReport(
        name="condition6_biconditional",
        passed=mismatches == 0,
        max_discrepancy=float(mismatches),
        tolerance=0.0,
        n=int(beta.size),
        worst_case={
            "sweep_holds": sweep_holds,
            "threshold_holds": threshold_holds,
            "quadratic_form_holds": quadratic_holds,
            "threshold": threshold,
            "worst_beta": float(beta[worst]),
            "max_corner_excess_bits": float(excess[worst]),
        },
    )


def verify_th3_capacity(
    p1: float,
    p2: float,
    b: float,
    alpha_grid: GridAxis = 1001,
) -> VerificationReport:
    """Verify that the superposition scheme meets the Z outer bound.

    Valid only above the superposition threshold and for ``p2 > 0``: the
    scheme's copy scaling divides by ``p2``, so at ``p2 = 0`` it has only
    the ``beta = 1`` split and the identity has nothing to match.  Checks,
    per power split under the alpha-to-beta change of variable: the r1 and
    r2 caps of scheme and bound agree to 1e-12; the scheme's sum
    constraint is inactive to 1e-12; and the assembled frontiers agree
    within 1e-9 bits at every pentagon-corner abscissa.
    ``max_discrepancy`` is the worst constraint-to-tolerance ratio, so the
    report passes at tolerance 1.

    An integer ``alpha_grid`` means a uniform grid here: the 1e-12 identity
    is checked through the scalar power split ``beta``, whose floating-point
    representation near 1 cannot resolve complements below ~5e-17, so the
    1e-9-deep boundary layers of the sweep grid would report pure roundoff.
    """
    p1, p2, b = float(p1), float(p2), float(b)
    if p2 == 0.0:
        raise ValueError("Theorem-3 check needs p2 > 0")
    if b < th3_threshold(p1, p2):
        raise ValueError("not in Theorem-3 regime")
    params = ChannelParams(a=0.0, b=b, p1=p1, p2=p2)
    alpha = grid_axis(alpha_grid, "alpha grid")
    beta = beta_of_alpha(alpha, p1)

    outer_r1, outer_r2, _ = _cor2_caps(params, alpha)
    inner_r1, inner_r2, inner_sum = _scheme_e_caps(params, beta)
    cap_identity = max(
        0.0,
        float(np.max(np.abs(inner_r1 - outer_r1))),
        float(np.max(np.abs(inner_r2 - outer_r2))),
    )
    # The excess over the normalized sum cap min(sum, r1 + r2), as a
    # Pentagon would carry it.
    corner_sum = inner_r1 + inner_r2
    sum_excess = float(np.max(corner_sum - np.minimum(inner_sum, corner_sum)))

    outer = cor2_region(params, alpha_grid=alpha)
    inner = scheme_e_region(params, beta_grid=beta)
    corners = gaussian_rate(alpha * p1)
    gap = float(np.max(np.abs(outer.interp(corners) - inner.interp(corners))))

    ratio = max(cap_identity / 1e-12, max(sum_excess, 0.0) / 1e-12, gap / 1e-9)
    return VerificationReport(
        name="th3_capacity_identity",
        passed=bool(ratio <= 1.0),
        max_discrepancy=float(ratio),
        tolerance=1.0,
        n=int(alpha.size),
        worst_case={
            "rate_cap_identity_bits": cap_identity,
            "sum_constraint_excess_bits": sum_excess,
            "frontier_gap_bits": gap,
        },
    )
