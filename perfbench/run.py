"""Benchmark runner for cogregions.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` as a closed loop with one caller
for about ``S`` seconds (whole rounds), checks every output, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` a separate run wraps the program's public functions and
reports the per-layer ones.  Detail and provenance go to the lines before
it and to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120.0
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "COGREGIONS_THREADS")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def tail(samples):
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``.  On the nearest-rank definition that is
    the sample of rank ``n - 10``, i.e. percentile ``100 * (n - 10) / n``.
    With ``n <= 10`` no percentile qualifies; the maximum is returned as
    percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# -------------------------------------------------------------- provenance


def git_sha():
    """Commit of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    """Digest of the program sources, which identifies them without git."""
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(workloads.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------- measurement


def own_peak_rss_kb() -> int:
    """Peak RSS of this process's own address space, in KiB.

    Linux carries ``ru_maxrss`` over ``exec``, so it would report the peak
    of whatever process started this one when that is larger.  ``VmHWM``
    belongs to the address space and starts afresh at ``exec``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def probe_setup(workload: str, seed: int, out_dir: Path) -> float:
    """Seconds from starting a fresh interpreter to its first timed op."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(workloads.HERE / "probe.py"), workload, str(seed), str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=out_dir, env=workloads.child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = any(line.strip() == "ready" for line in iter(proc.stdout.readline, ""))
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        proc.wait()
    finally:
        timer.cancel()
    if not ready or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe for {workload} exited {proc.returncode}")
    return seconds


def timed_pass(workload, cli, rounds, op_dir, seconds=None, tracer=None):
    """Run whole rounds until ``seconds`` have passed, or all of ``rounds``.

    Returns the ops, each ``(item, OpResult, bytes written)``.  With a
    tracer, each op carries an id of its own into the spans.
    """
    ops = []
    t0 = time.perf_counter()
    for items in rounds:
        for item in items:
            shutil.rmtree(op_dir, ignore_errors=True)
            op_dir.mkdir(parents=True)
            if tracer is not None:
                tracer.op += 1
            result = workloads.run_op(workload, cli, item, op_dir, tracer)
            written = sum(p.stat().st_size for p in result.files if p.is_file())
            ops.append((item, result, written))
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
    return ops


def traced_pass(workload, cli, rounds, op_dir, tracer):
    """All of ``rounds`` with the span wrappers of ``tracer`` installed."""
    if cli is not None:
        tracer.install()
    try:
        return timed_pass(workload, cli, rounds, op_dir, tracer=tracer)
    finally:
        tracer.uninstall()


def paired_pass(workload, cli, rounds, op_dir, seconds):
    """Each round once untraced and once traced, until ``seconds`` have passed.

    Which of the two goes first alternates from round to round, so that
    drift in machine speed and warm-up reach both alike and the traced
    time compares like with like.  Returns ``(untraced ops, traced ops,
    tracer, rounds run)``.
    """
    tracer = spans.Tracer(False)
    plain, traced, played = [], [], []
    t0 = time.perf_counter()
    for items in rounds:
        for with_trace in ((False, True), (True, False))[len(played) % 2]:
            if with_trace:
                traced += traced_pass(workload, cli, [items], op_dir, tracer)
            else:
                plain += timed_pass(workload, cli, [items], op_dir)
        played.append(items)
        if time.perf_counter() - t0 >= seconds:
            break
    return plain, traced, tracer, played


def failure_summary(ops) -> dict:
    """Failed ops and known defects grouped by regime (or workload), with examples."""
    by_group, examples = {}, []
    for item, result, _ in ops:
        inst = item[0] if isinstance(item, tuple) else item
        group = inst.regime if inst is not None else "fig3"
        row = by_group.setdefault(group, {"ops": 0, "failed": 0, "defects": 0,
                                          "latencies_ms": []})
        row["ops"] += 1
        row["latencies_ms"].append(result.seconds * 1e3)
        row["failed"] += bool(result.failure)
        row["defects"] += bool(result.defect)
        reason = result.failure or result.defect
        if reason and len(examples) < 5:
            examples.append({"input": None if inst is None else inst.__dict__,
                             "reason": reason, "known_defect": not result.failure})
    groups = {
        g: {"ops": r["ops"], "failed": r["failed"], "defects": r["defects"],
            "p50_ms": statistics.median(r["latencies_ms"])}
        for g, r in sorted(by_group.items())
    }
    return {"by_group": groups, "examples": examples}


def ok_frac(ops) -> float:
    """Share of ops that neither failed nor showed a known defect."""
    return sum(1 for _, r, _ in ops if not (r.failure or r.defect)) / len(ops)


def end_to_end(args, cli, rounds, work_dir):
    setups = [probe_setup(args.workload, args.seed, work_dir / f"probe{i}")
              for i in range(SETUP_REPEATS)]
    ops = timed_pass(args.workload, cli, rounds, work_dir / "op", seconds=args.seconds)
    latencies = [result.seconds for _, result, _ in ops]
    if args.workload == "fig3_cli":
        peak_kb = max(result.child_maxrss_kb for _, result, _ in ops)
    else:
        peak_kb = own_peak_rss_kb()
    tail_s, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": ok_frac(ops),
    }
    details = {"ops": len(ops), "tail_percentile": tail_pct, "setup_runs_s": setups,
               "failures": failure_summary(ops)}
    return ops, values, details


def outputs_changed(workload, hashes) -> int:
    """Reference output files whose bytes differ from the recorded baseline."""
    baseline = json.loads((workloads.HERE / "baseline.json").read_text(encoding="utf-8"))
    recorded = baseline["outputs"][workload]
    return sum(1 for name in set(recorded) | set(hashes) if recorded.get(name) != hashes.get(name))


def per_layer(args, cli, rounds, work_dir, layer_names):
    plain, traced, tracer, played = paired_pass(args.workload, cli, rounds, work_dir / "op",
                                                args.seconds)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    hashes, reference = workloads.reference_outputs(args.workload, cli, work_dir / "ref")
    # The first round once more, for the leaf-call memory peaks only.
    peaks = spans.Tracer(True)
    memory = traced_pass(args.workload, cli, played[:1], work_dir / "op", peaks)

    layers = spans.layer_metrics(tracer.spans)
    for name, row in spans.layer_metrics(peaks.spans).items():
        if name in spans.PEAK_MEMORY:
            layers.setdefault(name, {})["peak_mb"] = row["peak_mb"]
    special = {
        "outer_bounds.splits": sum(layers.get(f"outer_bounds.{n}", {}).get("splits", 0)
                                   for n in ("bc_dms_region", "bc_pr_bound")),
        "cli.self_ms": layers.get("cli.main", {}).get("self_ms", 0.0),
        "cli.bytes_written": sum(written for _, _, written in traced),
        "cli.outputs_changed": outputs_changed(args.workload, hashes),
        "trace.overhead_frac": sum(r.seconds for _, r, _ in traced)
        / sum(r.seconds for _, r, _ in plain) - 1.0,
    }
    values = {}
    for name in layer_names:
        if name in special:
            values[name] = special[name]
        else:
            layer, field = name.rsplit(".", 1)
            values[name] = layers.get(layer, {}).get(field, 0)
    ops = plain + traced + memory + [(item, result, 0) for item, result in reference]
    details = {"ops_untraced": len(plain), "ops_traced": len(traced), "rounds": len(played),
               "reference_hashes": hashes, "failures": failure_summary(ops)}
    return ops, values, details


# -------------------------------------------------------------------- main


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    bench = load_benchmark()
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"tmp-{os.getpid()}"
    try:
        cli, rounds, warm = workloads.setup(args.workload, args.seed, work_dir / "warmup")
        if args.trace:
            specs = bench["per_layer"]
            ops, values, details = per_layer(args, cli, rounds, work_dir,
                                             [m["name"] for m in specs])
        else:
            specs = bench["end_to_end"]
            ops, values, details = end_to_end(args, cli, rounds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    details["warmup_failure"] = warm.failure
    failed = sum(1 for _, result, _ in ops if result.failure)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record = {"provenance": provenance(args), "why": workloads.WHY[args.workload],
              "details": details, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"details": details}))
    for key, metric in metrics.items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
