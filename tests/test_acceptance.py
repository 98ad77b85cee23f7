"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Every test prints ``ACCEPTANCE <n> [PASS|FAIL] <measurements>`` before its
assertions so the verdict and the measured numbers are visible in the run
summary.  Check 2 tests the exact sum-cap redundancy threshold and reports
how far the claimed ``sqrt(p2+1)`` misses it; check 7 holds the reference
frontier pair to its 0.1-bit gap budget.
"""

import math

import numpy as np

from cogregions.channel import ChannelParams, gaussian_rate
from cogregions.inner_bounds import FAMILIES, scheme_e_region
from cogregions.oracles import (
    degradedness_check,
    mc_rate_check,
    verify_th3_capacity,
)
from cogregions.outer_bounds import (
    CovarianceSplit,
    bc_dms_region,
    bergmans_frontier,
    th1_bound,
    unifying_region,
)
from cogregions.region_geometry import (
    Pentagon,
    _abscissas_up_to,
    concavify,
    contains,
    intersect_frontiers,
    pentagon_corners,
    sweep_grid,
    union_frontier_arrays,
)

PARAM_AXIS_POINTS = 20
TRIPLE_COUNT = PARAM_AXIS_POINTS**3


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {detail}")


def _parameter_triples():
    """The pinned 20x20x20 (p1, p2, b) grid, flattened to column vectors."""
    p1_axis = np.linspace(0.1, 10.0, PARAM_AXIS_POINTS)
    p2_axis = np.linspace(0.1, 10.0, PARAM_AXIS_POINTS)
    b_axis = np.linspace(1.0, 15.0, PARAM_AXIS_POINTS)
    mesh = np.meshgrid(p1_axis, p2_axis, b_axis, indexing="ij")
    return tuple(m.reshape(-1, 1) for m in mesh)


def test_acceptance_1_superposition_meets_z_outer_bound():
    worst_gap = 0.0
    worst_identity = 0.0
    worst_excess = 0.0
    ok = True
    for b in (3.0, 10.0):
        report = verify_th3_capacity(1.0, 1.0, b, alpha_grid=1001)
        ok = ok and report.passed
        worst_gap = max(worst_gap, report.worst_case["frontier_gap_bits"])
        worst_identity = max(
            worst_identity, report.worst_case["rate_cap_identity_bits"]
        )
        worst_excess = max(
            worst_excess, report.worst_case["sum_constraint_excess_bits"]
        )
    _verdict(
        1,
        ok,
        f"b in (3, 10), 1001 power splits: frontier gap {worst_gap:.3e} bits "
        f"(tol 1e-9), rate-cap identity {worst_identity:.3e} bits (tol 1e-12), "
        f"sum-constraint excess {worst_excess:.3e} bits",
    )
    assert ok
    assert worst_gap <= 1e-9
    assert worst_identity <= 1e-12


def test_acceptance_2_z_sum_redundancy_biconditional():
    # With the Z-bound caps, 2^(r1+r2) - 2^sum equals
    #   alpha*p1*(1 + p2 - b^2) + 2b*sqrt(p1*p2*(1-alpha))*(sqrt(1+alpha*p1) - 1).
    # Divided by alpha*p1 the second term is
    #   2b*sqrt(p2/p1)*sqrt(1-alpha)*p1/(sqrt(1+alpha*p1) + 1),
    # which decreases in alpha towards b*sqrt(p1*p2) as alpha -> 0, so the sum
    # cap is redundant at every split exactly when
    # b^2 >= 1 + p2 + b*sqrt(p1*p2).  The sup sits at alpha -> 0,
    # which a uniform alpha grid misses, hence the tailed sweep grid.  The
    # claimed threshold b >= sqrt(p2+1) is necessary but not sufficient; the
    # verdict still reports how often and how badly it errs.
    p1f, p2f, bf = _parameter_triples()
    alpha = sweep_grid(1001)
    abar = 1.0 - alpha
    mismatches = 0
    claimed_mismatches = 0
    closest_below = math.inf
    closest_above = -math.inf
    worst_excess = 0.0
    worst_triple = None
    chunk = 500
    for start in range(0, TRIPLE_COUNT, chunk):
        p1 = p1f[start : start + chunk]
        p2 = p2f[start : start + chunk]
        b = bf[start : start + chunk]
        b2 = b * b
        r1 = gaussian_rate(alpha * p1)
        amplitude = np.sqrt(p2) + np.sqrt(b2 * p1 * abar / (1.0 + alpha * p1))
        r2 = gaussian_rate(amplitude * amplitude)
        total = gaussian_rate(p2 + b2 * p1 + 2.0 * np.sqrt(abar * b2 * p1 * p2))
        excess = np.max(r1 + r2 - total, axis=1)
        sweep_holds = excess <= 1e-12
        p1c, p2c, bc = p1[:, 0], p2[:, 0], b[:, 0]
        threshold_holds = bc * bc >= 1.0 + p2c + bc * np.sqrt(p1c * p2c)
        mismatches += int(np.count_nonzero(sweep_holds != threshold_holds))
        if np.any(~threshold_holds):
            closest_below = min(closest_below, float(np.min(excess[~threshold_holds])))
        if np.any(threshold_holds):
            closest_above = max(closest_above, float(np.max(excess[threshold_holds])))
        claimed_holds = bc >= np.sqrt(p2c + 1.0)
        disagree = sweep_holds != claimed_holds
        claimed_mismatches += int(np.count_nonzero(disagree))
        if np.any(disagree):
            i = int(np.argmax(np.where(disagree, excess, -np.inf)))
            if excess[i] > worst_excess:
                worst_excess = float(excess[i])
                worst_triple = (float(p1c[i]), float(p2c[i]), float(bc[i]))
    ok = mismatches == 0
    detail = (
        f"{mismatches} of {TRIPLE_COUNT} parameter triples break the "
        "sum-redundancy-iff-b^2>=1+p2+b*sqrt(p1*p2) biconditional (sweep "
        f"excess: smallest {closest_below:.3g} bits below the threshold, "
        f"largest {closest_above:.3g} bits at or above it, tol 1e-12); the "
        f"claimed b>=sqrt(p2+1) gets {claimed_mismatches} triples wrong"
    )
    if worst_triple is not None:
        p1w, p2w, bw = worst_triple
        sharp = 0.5 * (
            math.sqrt(p1w * p2w) + math.sqrt(p1w * p2w + 4.0 * (1.0 + p2w))
        )
        detail += (
            f"; worst at (p1={p1w:.6g}, p2={p2w:.6g}, b={bw:.6g}) with corner "
            f"excess {worst_excess:.12g} bits — redundancy there actually "
            f"needs b >= {sharp:.6g}, not sqrt(p2+1) = {math.sqrt(p2w + 1.0):.6g}"
        )
    _verdict(2, ok, detail)
    assert ok, (
        f"{mismatches} triples where the sweep and the exact threshold "
        "b^2 >= 1 + p2 + b*sqrt(p1*p2) disagree"
    )


def test_acceptance_3_superposition_sum_redundancy_biconditional():
    p1f, p2f, bf = _parameter_triples()
    beta = sweep_grid(1001)
    bbar = 1.0 - beta
    mismatches = 0
    quad_mismatches = 0
    chunk = 500
    for start in range(0, TRIPLE_COUNT, chunk):
        p1 = p1f[start : start + chunk]
        p2 = p2f[start : start + chunk]
        b = bf[start : start + chunk]
        b2 = b * b
        r1 = gaussian_rate(beta * p1 / (1.0 + bbar * p1))
        amplitude = np.sqrt(p2) + np.sqrt(bbar * b2 * p1)
        r2 = gaussian_rate(amplitude * amplitude)
        total = gaussian_rate(p2 + b2 * p1 + 2.0 * np.sqrt(bbar * b2 * p1 * p2))
        excess = np.max(r1 + r2 - total, axis=1)
        sweep_holds = excess <= 1e-12
        threshold = np.sqrt(1.0 + p2[:, 0] * (1.0 + p1[:, 0])) + np.sqrt(
            p1[:, 0] * p2[:, 0]
        )
        threshold_holds = b[:, 0] >= threshold
        quadratic_holds = b2[:, 0] >= 1.0 + p2[:, 0] + 2.0 * np.sqrt(
            b2[:, 0] * p1[:, 0] * p2[:, 0]
        )
        mismatches += int(np.count_nonzero(sweep_holds != threshold_holds))
        quad_mismatches += int(np.count_nonzero(quadratic_holds != threshold_holds))
    ok = mismatches == 0 and quad_mismatches == 0
    _verdict(
        3,
        ok,
        f"{mismatches} of {TRIPLE_COUNT} triples break the superposition "
        f"sum-redundancy biconditional; {quad_mismatches} disagree with the "
        "quadratic form of the threshold",
    )
    assert mismatches == 0
    assert quad_mismatches == 0


def test_acceptance_4_interference_free_reduction_and_reference_gap():
    axis = sweep_grid(1001)
    frontier = unifying_region(
        ChannelParams(a=0.0, b=10.0, p1=5.0, p2=0.0), alpha_grid=axis
    )
    top = math.log2(6.0)
    total = math.log2(501.0)
    reduction_error = max(
        abs(frontier.max_r1 - top),
        abs(frontier.interp(0.0) - total),
        abs(frontier.interp(top) - (total - top)),
        abs(frontier.interp(0.5 * top) - (total - 0.5 * top)),
    )
    reference = bergmans_frontier(
        ChannelParams(a=0.0, b=10.0, p1=5.0, p2=0.0), alpha_grid=axis
    )
    containment = contains(frontier, reference, tol=1e-9)
    corner_r1 = math.log2(12.0 / 7.0)
    corner_r2 = math.log2(251.0)
    slack = float(frontier.interp(corner_r1)) - corner_r2
    ok = reduction_error <= 1e-9 and containment.passed and slack >= 0.2
    _verdict(
        4,
        ok,
        f"pentagon reduction error {reduction_error:.3e} bits (tol 1e-9); "
        f"reference rectangles contained: {containment.passed}; slack above "
        f"the even-split rectangle corner {slack:.12g} bits (needs >= 0.2)",
    )
    assert reduction_error <= 1e-9
    assert containment.passed, containment.worst_case
    assert slack >= 0.2
    assert abs(slack - 0.21951566058088368) <= 1e-9


def test_acceptance_5_broadcast_region_containment():
    params = ChannelParams(a=0.0, b=3.0, p1=1.0, p2=1.0)
    region = bc_dms_region(params, split_grid=21)
    axis = sweep_grid(8193)
    abar = 1.0 - axis
    b2 = params.b * params.b
    r1_caps = gaussian_rate(axis * params.p1)
    amplitude = np.sqrt(params.p2) + np.sqrt(
        b2 * params.p1 * abar / (1.0 + axis * params.p1)
    )
    reference = union_frontier_arrays(
        r1_caps,
        gaussian_rate(amplitude * amplitude),
        np.full(axis.size, math.inf),
    )
    containment = contains(reference, region, tol=1e-3)
    worst_slice = 0.0
    for alpha1 in np.linspace(0.0, 1.0, 101):
        for rho2 in (-1.0, -0.3, 0.0, 0.7, 1.0):
            pent = FAMILIES["bcdms"].pentagon(
                params, CovarianceSplit(float(alpha1), 0.0, 0.0, rho2)
            )
            closed = gaussian_rate(
                alpha1 * params.p1 / (1.0 + (1.0 - alpha1) * params.p1)
            )
            worst_slice = max(worst_slice, abs(pent.r1_max - closed))
    ok = containment.passed and worst_slice <= 1e-12
    _verdict(
        5,
        ok,
        f"21^4-split broadcast region inside the closed-form rate-cap region: "
        f"max violation {containment.max_discrepancy:.3e} bits (tol 1e-3); "
        f"private-rate slice error {worst_slice:.3e} bits (tol 1e-12)",
    )
    assert containment.passed, containment.worst_case
    assert worst_slice <= 1e-12


def test_acceptance_6_degraded_reconstruction_mc():
    worst = 0.0
    ok = True
    hand_value = None
    case = 0
    for b in (1.0, 2.0, 10.0):
        for a in (0.0, 0.5):
            for rho in (0.0, 0.7):
                report = degradedness_check(
                    ChannelParams(a=a, b=b, p1=1.0, p2=1.0),
                    n_samples=1_000_000,
                    seed=100 + case,
                    input_rho=rho,
                )
                case += 1
                ok = ok and report.passed
                worst = max(worst, report.max_discrepancy)
                if (a, b, rho) == (0.5, 2.0, 0.0):
                    hand_value = report.worst_case["var_y1_closed_form"]
    hand_ok = hand_value == 2.25
    _verdict(
        6,
        ok and hand_ok,
        f"{case} gain/correlation combinations at n=1e6: worst covariance-"
        f"entry discrepancy {worst:.3g} standard errors (tol 5); hand-checked "
        f"received variance {hand_value} (expected 2.25)",
    )
    assert ok and worst <= 5.0
    assert hand_value == 2.25


def test_acceptance_7_reference_frontier_pair_gap():
    params = ChannelParams(a=0.01, b=10.0, p1=5.0, p2=5.0)
    outer = th1_bound(
        params,
        split_grid=(sweep_grid(401), 21, 5, 21),
        alpha_grid=sweep_grid(1001),
    )
    inner = concavify(scheme_e_region(params, beta_grid=sweep_grid(1001)))
    plot_top = math.log2(6.0)
    support_deficit = plot_top - inner.max_r1
    # The difference of two polylines is linear between their vertices, so
    # its extremes on [0, top] lie at the vertices of either frontier or at top.
    xs = _abscissas_up_to(min(plot_top, inner.max_r1, outer.max_r1), outer.r1, inner.r1)
    gap = outer.interp(xs) - inner.interp(xs)
    max_gap = float(np.max(gap))
    min_gap = float(np.min(gap))
    within = xs[np.maximum.accumulate(gap) <= 0.1]
    crossover = float(within[-1]) if within.size else 0.0
    dominance_ok = min_gap >= -5e-3
    deficit_ok = support_deficit <= 1e-3
    gap_ok = max_gap <= 0.1
    ok = dominance_ok and deficit_ok and gap_ok
    _verdict(
        7,
        ok,
        f"outer-minus-inner minimum {min_gap:.3e} bits (sampling allowance "
        f"-5e-3); inner support deficit {support_deficit:.3e} bits (tol 1e-3); "
        f"max gap {max_gap:.12g} bits at r1 = {float(xs[int(np.argmax(gap))]):.12g} "
        f"(budget 0.1, last within budget at r1 = {crossover:.12g})",
    )
    assert dominance_ok, min_gap
    assert deficit_ok, support_deficit
    assert gap_ok, (
        "the superposition inner frontier falls away from the outer bound at "
        f"the right edge: max gap {max_gap:.12g} bits > 0.1; the budget holds "
        f"only up to r1 = {crossover:.12g} of {plot_top:.12g}"
    )


def test_acceptance_8_rate_formula_mc_oracle():
    rng = np.random.default_rng(2026)
    worst = 0.0
    ok = True
    checks = 0
    for point in range(5):
        p1 = float(rng.uniform(0.1, 10.0))
        p2 = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.5, 12.0))
        h = (b, 1.0)
        weights = rng.random(3)  # envelope, sum-cap, and scheme split draws

        def input_cov(cross_fraction: float) -> list:
            c = math.sqrt(cross_fraction * p1 * p2)
            return [[p1, c], [c, p2]]

        bbar = float(weights[2])
        layer_c = math.sqrt(bbar * p1 * p2)
        cases = [
            (h, input_cov(float(weights[0]))),
            (h, input_cov(float(weights[1]))),
            (h, [[bbar * p1, layer_c], [layer_c, p2]]),
            (h, input_cov(bbar)),
        ]
        for i, (gains, cov) in enumerate(cases):
            report = mc_rate_check(
                gains, cov, n_samples=1_000_000, seed=1000 + 10 * point + i
            )
            checks += 1
            ok = ok and report.passed
            worst = max(worst, report.max_discrepancy)
    _verdict(
        8,
        ok,
        f"{checks} received-variance closed forms at 5 random parameter "
        f"points, n=1e6: worst discrepancy {worst:.3g} standard errors (tol 5)",
    )
    assert ok and worst <= 5.0


def _union(pentagons):
    """:func:`union_frontier_arrays` of a list of pentagons."""
    caps = [(p.r1_max, p.r2_max, p.sum_max) for p in pentagons]
    return union_frontier_arrays(*np.array(caps).T)


def test_acceptance_9_geometry_property_suite():
    rng = np.random.default_rng(99)
    n_cases = 1000
    worst_idempotence = 0.0
    worst_commutativity = 0.0
    worst_dominance = -math.inf
    worst_corner = -math.inf

    def random_pentagons(count):
        pents = []
        for _ in range(count):
            r1 = float(rng.uniform(0.05, 3.0))
            r2 = float(rng.uniform(0.05, 3.0))
            s = float(rng.uniform(0.3 * (r1 + r2), 1.2 * (r1 + r2)))
            pents.append(Pentagon(r1, r2, s))
        return pents

    for _ in range(n_cases):
        first_set = random_pentagons(int(rng.integers(1, 5)))
        second_set = random_pentagons(int(rng.integers(1, 4)))
        first = _union(first_set)
        second = _union(second_set)

        # Union dominates every input corner.
        for pent in first_set:
            for x, y in pentagon_corners(pent):
                worst_corner = max(worst_corner, y - float(first.interp(x)))

        # Concavification is idempotent.
        hull = concavify(first)
        again = concavify(hull)
        xs = np.unique(np.concatenate([hull.r1, again.r1]))
        worst_idempotence = max(
            worst_idempotence,
            float(np.max(np.abs(hull.interp(xs) - again.interp(xs)))),
        )

        # Intersection commutes and is dominated by both inputs.
        fg = intersect_frontiers(first, second)
        gf = intersect_frontiers(second, first)
        xs = np.unique(np.concatenate([fg.r1, gf.r1]))
        worst_commutativity = max(
            worst_commutativity,
            float(np.max(np.abs(fg.interp(xs) - gf.interp(xs)))),
        )
        values = fg.interp(fg.r1)
        worst_dominance = max(
            worst_dominance,
            float(np.max(values - first.interp(fg.r1))),
            float(np.max(values - second.interp(fg.r1))),
        )

        # Containment is reflexive at zero tolerance.
        assert contains(first, first, tol=0.0).passed

    ok = (
        worst_corner <= 1e-9
        and worst_idempotence <= 1e-12
        and worst_commutativity <= 1e-12
        and worst_dominance <= 1e-12
    )
    _verdict(
        9,
        ok,
        f"{n_cases} randomized pentagon sets: corner dominance slack "
        f"{worst_corner:.3e} (tol 1e-9), hull idempotence {worst_idempotence:.3e} "
        f"(tol 1e-12), intersection commutativity {worst_commutativity:.3e} "
        f"(tol 1e-12), intersection dominance {worst_dominance:.3e} (tol 1e-12)",
    )
    assert worst_corner <= 1e-9
    assert worst_idempotence <= 1e-12
    assert worst_commutativity <= 1e-12
    assert worst_dominance <= 1e-12
