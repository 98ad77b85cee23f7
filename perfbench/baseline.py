"""Record the current commit as the benchmark's baseline in ``baseline.json``.

Usage: ``python3 perfbench/baseline.py``.  It first hashes the reference
outputs (what ``cli.outputs_changed`` compares with), then runs every
workload at seed 0 for ``run_seconds`` of ``BENCHMARK.json``, with
``--trace 0`` and ``--trace 1``, and stores their results, and times ``capacity_region`` at the fig3 point for the
comparison with the ROADMAP table.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time

import run
import workloads

BASELINE = workloads.HERE / "baseline.json"
SEED = 0

# Figures of the ROADMAP "Current state" table (2-core machine, numpy 2.4.6).
ROADMAP = {"fig3_cli_wall_s": 1.1, "fig3_cli_peak_rss_mb": 173.0,
           "capacity_region_fig3_point_ms": 110.0}


def reference_hashes(names) -> dict:
    cli = workloads.import_program().cli
    tmp = run.OUT / "baseline-tmp"
    try:
        outputs = {}
        for name in names:
            outputs[name], _ = workloads.reference_outputs(name, cli, tmp / name)
        return outputs
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def capacity_fig3_ms(repeats=7) -> float:
    package = workloads.import_program()
    params = package.ChannelParams(*workloads.FIG3_POINT)
    package.capacity_region(params)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        package.capacity_region(params)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def run_workload(name, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(workloads.HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=workloads.ROOT, check=True, stdout=subprocess.DEVNULL)
    record = run.OUT / f"{name}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def main() -> int:
    bench = run.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    run.OUT.mkdir(exist_ok=True)

    doc = {"outputs": reference_hashes(names)}
    BASELINE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    results = {}
    for name in names:
        results[name] = {}
        for trace in (0, 1):
            record = run_workload(name, SEED, seconds, trace)
            results[name][f"trace{trace}"] = {
                "result": record["result"],
                "details": {k: v for k, v in record["details"].items()
                            if k != "reference_hashes"},
            }
    provenance = record["provenance"]
    fig3 = results["fig3_cli"]["trace0"]["result"]["metrics"]
    doc["provenance"] = {k: provenance[k] for k in
                         ("git_sha", "src_sha256", "python", "numpy", "nproc", "machine",
                          "thread_env")}
    doc["provenance"].update(seed=SEED, seconds=seconds)
    doc["roadmap_comparison"] = {
        "roadmap": ROADMAP,
        "measured": {
            "fig3_cli_wall_s": fig3["op_p50_ms"]["value"] / 1e3,
            "fig3_cli_peak_rss_mb": fig3["peak_rss_mb"]["value"],
            "capacity_region_fig3_point_ms": capacity_fig3_ms(),
        },
    }
    doc["results"] = results
    BASELINE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
