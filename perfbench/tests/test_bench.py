"""The benchmark's own logic: inputs, statistics, span arithmetic, checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads
from cogregions import ChannelParams, classify, sweep_grid
from cogregions import inner_bounds, outer_bounds, region_geometry


def _regime(inst):
    return workloads.regime_of(classify(ChannelParams(inst.a, inst.b, inst.p1, inst.p2)))


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_generated_instances_land_in_their_regime(seed):
    rounds = list(itertools.islice(workloads.regime_rounds(seed), 5))
    instances = [inst for items in rounds for inst in items]
    instances += [item[0] for items in itertools.islice(workloads.th3_rounds(seed), 20)
                  for item in items]
    instances += [workloads.warmup_input("regime_sweep", seed),
                  workloads.warmup_input("verify_all", seed)[0]]
    for inst in instances:
        assert _regime(inst) == inst.regime, inst
    regimes = {inst.regime for inst in instances}
    assert regimes == set(workloads.EXPECTED_STATUS)


def test_reference_instances_land_in_their_regime():
    for inst in workloads.REFERENCE_REGIME + [workloads.REFERENCE_VERIFY[0]]:
        assert _regime(inst) == inst.regime, inst


def test_rounds_have_fixed_mix_and_distinct_inputs():
    rounds = list(itertools.islice(workloads.regime_rounds(5), 4))
    assert [len(r) for r in rounds] == [21, 20, 20, 20]
    params = [(i.a, i.b, i.p1, i.p2) for r in rounds for i in r]
    assert len(set(params)) == len(params)
    labels = sorted(i.label for i in rounds[1])
    for label in ("b=1", "b=pdc", "b=th3", "b=cor2", "p1=0", "p2=0"):
        assert label in labels
    again = list(itertools.islice(workloads.regime_rounds(5), 4))
    assert again == rounds


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    value, pct = run.tail([5.0, 1.0, 4.0, 3.0, 2.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and pct == pytest.approx(100.0 / 11.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    samples = list(np.random.default_rng(0).random(57))
    value, _ = run.tail(samples)
    assert sum(s > value for s in samples) == 10


def _span(id_, parent, start, end, name="x", op=0):
    return {"id": id_, "parent": parent, "op": op, "name": name, "start": start, "end": end}


def test_self_time_subtracts_covered_child_intervals():
    assert spans.covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    nested = [
        _span(0, None, 0, 100, "a"),
        _span(1, 0, 10, 60, "b"),
        _span(2, 1, 20, 40, "c"),
        _span(3, 0, 70, 80, "c"),
        # Same ids in another op (another process) must not mix.
        _span(0, None, 0, 10, "a", op=1),
    ]
    selfs = spans.self_times_ns(nested)
    assert selfs[(0, 0)] == 40
    assert selfs[(0, 1)] == 30
    assert selfs[(0, 2)] == 20
    assert selfs[(1, 0)] == 10
    layers = spans.layer_metrics(nested)
    assert layers["a"]["calls"] == 2
    assert layers["a"]["self_ms"] == pytest.approx(50e-6)
    assert layers["c"]["ms"] == pytest.approx(30e-6)


def test_split_count():
    assert spans.split_count(21) == 21**4
    axis = sweep_grid(401)
    assert spans.split_count((axis, 21, 5, 21)) == axis.size * 21 * 5 * 21


def test_tracer_wraps_every_binding_and_restores():
    original = region_geometry.union_frontier_arrays
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert outer_bounds.union_frontier_arrays is not original
        assert region_geometry.union_frontier_arrays is outer_bounds.union_frontier_arrays
        # Through the module: the test's own imported name is not rebound.
        inner_bounds.capacity_region(ChannelParams(0.0, 1.05, 2.0, 3.0))
    finally:
        tracer.uninstall()
    assert outer_bounds.union_frontier_arrays is original
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "inner_bounds.capacity_region"
    assert "region_geometry.union_frontier_arrays" in names
    by_id = {s["id"]: s for s in tracer.spans}
    envelope = next(s for s in tracer.spans if s["name"].endswith("union_frontier_arrays"))
    assert by_id[envelope["parent"]]["name"] == "outer_bounds.unifying_region"
    assert envelope["pentagons"] == 1001


def test_inner_excess_flags_known_bad_pair():
    outer = np.array([[0.0, 1.0], [0.5, 0.0]])
    bad = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert workloads.inner_excess_bits(bad, outer) == pytest.approx(1.0)
    good = np.array([[0.0, 0.9], [0.25, 0.4]])
    assert workloads.inner_excess_bits(good, outer) < 0.0
    # A vertical drop reaches its upper end.
    drop = np.array([[0.0, 2.0], [1.0, 2.0], [1.0, 0.0]])
    assert workloads.inner_excess_bits(np.array([[1.0, 2.0]]), drop) == 0.0


def _write_region(path, doc):
    path.write_text(json.dumps(doc))
    workloads.meta_path(path).write_text("{}")


def test_check_region_flags_inner_outside_outer(tmp_path):
    strong = workloads.Instance("open_strong", "t", 0.3, 3.0, 2.0, 3.0)
    weak = workloads.Instance("open_weak", "t", 0.3, 0.7, 2.0, 3.0)
    out = tmp_path / "region.json"
    _write_region(out, {"points": [[0.0, 1.0], [1.0, 1.0]], "status": "open",
                        "outer_points": [[0.0, 1.0], [0.5, 0.0]]})
    # A known defect in the open-strong regime, a failure in any other.
    failure, defect = workloads.check_region(strong, 0, out)
    assert failure is None and "inner leaves outer" in defect
    failure, defect = workloads.check_region(weak, 0, out)
    assert "inner leaves outer" in failure and defect is None
    _write_region(out, {"points": [[0.0, 1.0], [0.4, 0.1]], "status": "open",
                        "outer_points": [[0.0, 1.0], [0.5, 0.0]]})
    assert workloads.check_region(strong, 0, out) == (None, None)
    _write_region(out, {"points": [[0.0, 1.0]], "status": "exact"})
    assert "status" in workloads.check_region(strong, 0, out)[0]
    assert workloads.check_region(strong, 2, out) == ("exit 2", None)
    out.write_text("{not json")
    assert workloads.check_region(strong, 0, out)[0].startswith("bad output")


def test_region_ops_pass_exact_and_show_the_open_strong_defect(tmp_path):
    cli = __import__("cogregions.cli").cli
    exact = workloads.Instance("th3_exact", "t", 0.0, 8.0, 2.0, 3.0)
    result = workloads.run_region(cli, exact, tmp_path)
    assert result.failure is None and result.defect is None
    fig3 = workloads.Instance("open_strong", "fig3", *workloads.FIG3_POINT)
    result = workloads.run_region(cli, fig3, tmp_path)
    assert result.failure is None and "inner leaves outer" in result.defect
    ops = [(exact, workloads.run_region(cli, exact, tmp_path), 0), (fig3, result, 0)]
    assert run.ok_frac(ops) == 0.5
    assert run.failure_summary(ops)["by_group"]["open_strong"]["defects"] == 1


def _write_verify(path, discrepancy=1.0, failing=()):
    reports = []
    for name in workloads.VERIFY_NAMES:
        report = {"name": name, "passed": name not in failing}
        if name == "degradedness_check":
            report.update(max_discrepancy=discrepancy, tolerance=5.0,
                          passed=discrepancy <= 5.0)
        reports.append(report)
    path.write_text("".join(json.dumps(r) + "\n" for r in reports))


def test_check_verify_tells_degradedness_false_alarms_from_failures(tmp_path):
    out = tmp_path / "verify.jsonl"
    _write_verify(out)
    assert workloads.check_verify(0, out) == (None, None)
    assert workloads.check_verify(1, out) == ("exit 1", None)
    # A miss within sqrt(2) tolerances is the known standard-error defect.
    _write_verify(out, discrepancy=5.03)
    failure, defect = workloads.check_verify(1, out)
    assert failure is None and "5.03" in defect
    assert workloads.check_verify(0, out) == ("exit 0", None)
    _write_verify(out, discrepancy=7.2)
    assert "degradedness_check" in workloads.check_verify(1, out)[0]
    _write_verify(out, discrepancy=5.03, failing=("condition5_biconditional",))
    assert "condition5_biconditional" in workloads.check_verify(1, out)[0]
    out.write_text("{not json")
    assert workloads.check_verify(0, out)[0].startswith("bad output")


def test_traced_and_untraced_passes_run_the_same_inputs(tmp_path):
    cli = __import__("cogregions.cli").cli
    first = [workloads.Instance("b_zero", "t1", 0.3, 0.0, 2.0, 3.0)]
    second = [workloads.Instance("b_zero", "t2", 0.4, 0.0, 1.0, 2.0)]
    plain, traced, tracer, played = run.paired_pass("regime_sweep", cli, iter([first, second]),
                                                    tmp_path / "op", seconds=0.0)
    assert played == [first]
    assert [item for item, _, _ in plain] == [item for item, _, _ in traced] == first
    assert tracer.spans and not tracer._patches


def test_a_missing_reference_output_counts_as_changed(tmp_path):
    assert workloads.sha256(tmp_path / "missing.json") is None
    recorded = json.loads((workloads.HERE / "baseline.json").read_text())["outputs"]
    hashes = dict(recorded["regime_sweep"])
    assert run.outputs_changed("regime_sweep", hashes) == 0
    hashes["ref-b0/region.json"] = None
    assert run.outputs_changed("regime_sweep", hashes) == 1


def test_own_peak_rss_leaves_out_the_parents_peak():
    held = bytearray(b"x") * (120 << 20)
    code = "import run; print(run.own_peak_rss_kb())"
    out = subprocess.run([sys.executable, "-c", code], cwd=workloads.HERE, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 80 << 10 < len(held) >> 10


def test_fig3_op_passes_and_reports_its_child(tmp_path):
    result = workloads.run_fig3(tmp_path)
    assert result.failure is None and result.defect is None
    assert result.child_maxrss_kb > 100 << 10
    assert json.loads(result.stdout)["max_gap_bits"] > 0.0
