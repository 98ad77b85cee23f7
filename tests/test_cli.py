"""Command-line interface: subcommands, config overlay, file outputs."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cogregions
from cogregions import cli, oracles
from cogregions.channel import ChannelParams, th3_threshold
from cogregions.cli import main
from cogregions.inner_bounds import FAMILIES, capacity_region, scheme_e_region
from cogregions.oracles import (
    _psd_factor,
    degradedness_check,
    mc_rate_check,
    verify_condition5,
    verify_condition6,
    verify_th3_capacity,
)
from cogregions.outer_bounds import (
    bc_dms_region,
    bc_pr_bound,
    bergmans_frontier,
    cor2_region,
    th1_bound,
    unifying_region,
)

LOG2_6 = math.log2(6.0)
LOG2_17 = math.log2(17.0)
LOG2_501 = math.log2(501.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "r1_bits,r2_bits"
    return [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]


# ---------------------------------------------------------------- classify


def test_classify_strong_z_channel(capsys):
    code, out, _ = run(
        capsys, "classify", "--a", "0", "--b", "3", "--p1", "1", "--p2", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["interference_class"] == "strong"
    assert doc["z_channel"] == "a_zero"
    assert doc["th3_capacity"] is True
    assert doc["regime"] == "th3_exact"
    assert doc["thresholds"]["th3_capacity"] == pytest.approx(math.sqrt(3.0) + 1.0)


def test_classify_no_second_receiver_path(capsys):
    code, out, _ = run(capsys, "classify", "--b", "0")
    assert code == 0
    assert json.loads(out)["z_channel"] == "b_zero"


def test_classify_reference_configuration(capsys):
    code, out, _ = run(
        capsys, "classify", "--a", "0.01", "--b", "10", "--p1", "5", "--p2", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["th3_capacity"] is False
    assert "cor2_dominates" not in doc
    assert doc["regime"] == "open_strong"


def test_classify_and_capacity_status_agree_at_reference_configuration(capsys):
    point = ("--a", "0.01", "--b", "10", "--p1", "5", "--p2", "5")
    _, out, _ = run(capsys, "classify", *point)
    assert json.loads(out)["regime"] == "open_strong"
    code, out, _ = run(
        capsys, "region", "--bound", "capacity", *point, "--format", "json",
        "--alpha-grid", "51", "--beta-grid", "51", "--split-grid", "5",
    )
    assert code == 0
    assert json.loads(out)["status"] == "open"


# ------------------------------------------------------------------ region


@pytest.mark.parametrize(
    "bound", ["unifying", "cor2", "bcdms", "th1", "bcpr", "bergmans", "schemeE"]
)
def test_region_bounds_emit_csv(capsys, bound):
    code, out, _ = run(
        capsys,
        "region",
        "--bound",
        bound,
        "--a",
        "0",
        "--b",
        "3",
        "--alpha-grid",
        "51",
        "--beta-grid",
        "51",
        "--split-grid",
        "5",
    )
    assert code == 0
    points = parse_csv(out)
    assert points[0][0] == 0.0
    assert all(y >= 0.0 for _, y in points)


def test_region_scheme_envelope_values(capsys):
    code, out, _ = run(
        capsys,
        "region",
        "--bound",
        "schemeE",
        "--a",
        "0",
        "--b",
        "3",
        "--beta-grid",
        "3",
    )
    assert code == 0
    points = parse_csv(out)
    assert points[0] == (0.0, pytest.approx(LOG2_17, abs=1e-9))
    assert points[-1][0] == pytest.approx(1.0, abs=1e-9)


def test_region_capacity_reports_status(capsys, tmp_path):
    out_path = tmp_path / "cap.json"
    code, _, _ = run(
        capsys,
        "region",
        "--bound",
        "capacity",
        "--a",
        "0",
        "--b",
        "3",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "exact"
    assert doc["points"][0][1] == pytest.approx(LOG2_17, abs=1e-9)
    meta = json.loads((tmp_path / "cap.meta.json").read_text())
    assert meta["status"] == "exact"
    assert meta["tag"] == "cogregions/capacity"


def test_region_capacity_open_includes_outer_frontier(capsys):
    code, out, _ = run(
        capsys,
        "region",
        "--bound",
        "capacity",
        "--a",
        "0",
        "--b",
        "2.5",
        "--format",
        "json",
        "--split-grid",
        "5",
        "--alpha-grid",
        "101",
        "--beta-grid",
        "101",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "open"
    assert len(doc["outer_points"]) > 0


def test_region_interference_free_pentagon(capsys):
    code, out, _ = run(
        capsys,
        "region",
        "--bound",
        "unifying",
        "--a",
        "0",
        "--b",
        "10",
        "--p1",
        "5",
        "--p2",
        "0",
        "--format",
        "json",
    )
    assert code == 0
    points = json.loads(out)["points"]
    assert points[0] == [0.0, pytest.approx(LOG2_501, abs=1e-9)]
    assert points[-1][0] == pytest.approx(LOG2_6, abs=1e-9)
    assert points[-1][1] == pytest.approx(LOG2_501 - LOG2_6, abs=1e-9)


def test_region_rejects_wrong_regime(capsys):
    code, _, err = run(capsys, "region", "--bound", "cor2", "--a", "0.5", "--b", "3")
    assert code == 2
    assert err.strip() == "error: Cor.2 requires Z strong interference"


# Each family's builder called directly at the grids of _GRID_FLAGS, its
# role, and, where the command line can reach its validity check, a point
# the check refuses with its message.
_GRID_FLAGS = ("--alpha-grid", "51", "--beta-grid", "51", "--split-grid", "5")
_FAMILY_CASES = {
    "unifying": (lambda p: unifying_region(p, alpha_grid=51), "outer", None),
    "cor2": (
        lambda p: cor2_region(p, alpha_grid=51),
        "outer",
        (("--a", "0.5", "--b", "3"), "error: Cor.2 requires Z strong interference"),
    ),
    "bcdms": (lambda p: bc_dms_region(p, split_grid=5), "outer", None),
    "th1": (
        lambda p: th1_bound(p, split_grid=5, alpha_grid=51),
        "outer",
        (("--a", "0", "--b", "1"), "error: Theorem 1 requires |b| > 1"),
    ),
    "bcpr": (lambda p: bc_pr_bound(p, split_grid=5, alpha_grid=51), "outer", None),
    "bergmans": (lambda p: bergmans_frontier(p, alpha_grid=51), "reference", None),
    "schemeE": (lambda p: scheme_e_region(p, beta_grid=51), "inner", None),
}


@pytest.mark.parametrize("name", list(_FAMILY_CASES))
def test_region_reads_each_family_from_the_table(capsys, name):
    # The selectors, in the order --help lists them.
    assert cli.BOUNDS == (*FAMILIES, "capacity") == (*_FAMILY_CASES, "capacity")
    build, role, refused = _FAMILY_CASES[name]
    assert FAMILIES[name].role == role
    point = ("--a", "0", "--b", "3", "--p1", "2", "--p2", "3", "--format", "json")
    code, out, _ = run(capsys, "region", "--bound", name, *point, *_GRID_FLAGS)
    assert code == 0
    expected = build(ChannelParams(a=0.0, b=3.0, p1=2.0, p2=3.0)).to_json()
    assert out == json.dumps(expected) + "\n"
    if refused is not None:
        flags, message = refused
        code, _, err = run(capsys, "region", "--bound", name, *flags, *_GRID_FLAGS)
        assert (code, err.strip()) == (2, message)


def test_scheme_e_without_primary_power_runs_its_one_split(capsys):
    # At p2 = 0 the copy scaling admits only beta = 1, and an integer grid is
    # cut to it; the matched pairing needs p2 > 0.
    for argv in (
        ("region", "--bound", "schemeE", "--a", "0", "--b", "3", "--p2", "0"),
        ("compare", "schemeE", "th1", "--a", "0.3", "--b", "3", "--p2", "0"),
        ("compare", "schemeE", "cor2", "--a", "0", "--b", "3", "--p2", "0"),
    ):
        code, out, err = run(capsys, *argv, "--p1", "1")
        assert (code, err) == (0, "")
    assert json.loads(out)["matched_power_splits"] is False
    point = ("--a", "0.3", "--b", "3", "--p1", "2", "--p2", "0")
    code, out, _ = run(capsys, "region", "--bound", "schemeE", *point)
    assert code == 0
    inner = capacity_region(ChannelParams(a=0.3, b=3.0, p1=2.0, p2=0.0)).frontier
    assert out == inner.to_csv()


def test_region_output_is_deterministic(capsys, tmp_path):
    argv = [
        "region",
        "--bound",
        "th1",
        "--a",
        "0",
        "--b",
        "3",
        "--split-grid",
        "7",
        "--alpha-grid",
        "101",
    ]
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def _env_with_src():
    """The environment, with this checkout's sources first on ``PYTHONPATH``."""
    src = str(Path(cogregions.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_interleaved_main_calls_match_fresh_processes(capsys, tmp_path):
    # One process reuses one parser; no flag value or default may leak from
    # one call into the next (the second region call relies on the csv
    # default after a json call).
    point = ["--a", "0.2", "--b", "2.5", "--p1", "2", "--p2", "3"]
    grids = [*point, "--split-grid", "7", "--alpha-grid", "101", "--beta-grid", "101"]
    calls = {
        "region1.json": ["region", "--bound", "capacity", "--format", "json", *grids],
        "classify.json": ["classify", *point],
        "verify.jsonl": ["verify", "cond5", *point],
        "region2.csv": ["region", "--bound", "bcpr", *grids],
    }
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    for name, argv in calls.items():
        command = [sys.executable, "-m", "cogregions.cli", *argv, "--out"]
        subprocess.run([*command, str(fresh / name)], env=_env_with_src(), check=True)
        assert main([*argv, "--out", str(reused / name)]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in fresh.iterdir())
    assert names == sorted(path.name for path in reused.iterdir())
    assert len(names) == 6  # both region calls write a .meta.json
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


# ------------------------------------------------------------------ config


def test_config_overlay_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"a": 0.0, "b": 3.0, "p1": 1.0, "p2": 1.0}))
    code, out, _ = run(capsys, "classify", "--config", str(config))
    assert code == 0
    assert json.loads(out)["th3_capacity"] is True
    # An explicit flag wins over the config file.
    code, out, _ = run(capsys, "classify", "--config", str(config), "--b", "2.0")
    assert code == 0
    assert json.loads(out)["th3_capacity"] is False


def test_config_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"b": 3.0, "bee": 1}))
    code, _, err = run(capsys, "classify", "--config", str(config))
    assert code == 2
    assert err.strip() == "error: unknown config keys: bee"


def test_config_validates_values(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"format": "xml"}))
    code, _, err = run(capsys, "region", "--bound", "unifying", "--config", str(config))
    assert code == 2
    assert err.strip() == "error: unknown format: xml"
    config.write_text(json.dumps({"samples": 0}))
    code, _, err = run(capsys, "verify", "mc", "--config", str(config))
    assert code == 2
    assert err.strip() == "error: sample count must be at least 1"
    # Values of the wrong type exit 2 with a message, not a traceback.
    verify, fig3 = ("verify", "mc"), ("fig3",)
    for command, loaded, message in (
        (verify, {"alpha_grid": [0, 0.5, 1]}, "alpha_grid must be an integer, got [0, 0.5, 1]"),
        (fig3, {"split_grid": True}, "split_grid must be an integer, got True"),
        (verify, {"samples": 20000.0}, "samples must be an integer, got 20000.0"),
        (verify, {"a": [1]}, "a must be a number, got [1]"),
        (verify, {"out": 5}, "out must be a string or null, got 5"),
        (verify, [1, 2], "config must be a JSON object"),
    ):
        config.write_text(json.dumps(loaded))
        code, _, err = run(capsys, *command, "--config", str(config))
        assert code == 2
        assert err.strip() == f"error: {message}"
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "classify", "--config", str(missing))
    assert code == 2
    assert err.strip() == f"error: cannot read config {missing}: No such file or directory"


def test_grid_resolution_below_two_is_rejected_from_flag_and_config(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"alpha_grid": 1}))
    region = ("region", "--bound", "unifying")
    for given in (("--alpha-grid", "1"), ("--config", str(config))):
        code, out, err = run(capsys, *region, *given)
        assert (code, out, err) == (2, "", "error: grid resolution must be at least 2\n")


# The flags each command reads, besides --config, as README lists them.
COMMAND_FLAGS = {
    "classify": "--a --b --p1 --p2 --out",
    "region": "--a --b --p1 --p2 --alpha-grid --beta-grid --split-grid --format --out",
    "compare": "--a --b --p1 --p2 --alpha-grid --beta-grid --split-grid --tol --out",
    "verify": "--a --b --p1 --p2 --alpha-grid --beta-grid --samples --seed --out",
    "fig3": "--alpha-grid --beta-grid --split-grid --format --out",
}

# The positional arguments, or required flags, each command needs.
COMMAND_ARGS = {
    "classify": [],
    "region": ["--bound", "unifying"],
    "compare": ["bergmans", "unifying"],
    "verify": ["cond5"],
    "fig3": [],
}

# A valid value of every settable flag, by config key.
FLAG_VALUES = {
    "a": 0.5, "b": 2.0, "p1": 1.5, "p2": 2.5, "alpha_grid": 51, "beta_grid": 51,
    "split_grid": 5, "samples": 20000, "seed": 3, "format": "json", "out": "x.json",
    "tol": 0.001,
}


def test_each_command_accepts_exactly_the_flags_it_reads(capsys, tmp_path):
    # Every command x flag pair: a flag the command reads reaches its
    # configuration, from the command line and from a config file; any other
    # flag exits 2, and so does the same key in a config file.  Flags are not
    # abbreviated, or fig3 would take --a and --b for its grid flags.
    parser = cli._build_parser()
    subs = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subs.choices) == set(COMMAND_FLAGS)
    config = tmp_path / "cfg.json"
    for command, reads in COMMAND_FLAGS.items():
        options = {opt for action in subs.choices[command]._actions
                   for opt in action.option_strings}
        assert options - {"-h", "--help", "--bound"} == {*reads.split(), "--config"}
        for key, value in FLAG_VALUES.items():
            flag = "--" + key.replace("_", "-")
            argv = [command, *COMMAND_ARGS[command], flag, str(value)]
            config.write_text(json.dumps({key: value}))
            from_config = [command, *COMMAND_ARGS[command], "--config", str(config)]
            if flag in reads.split():
                assert cli._resolve(parser.parse_args(argv))[key] == value
                assert cli._resolve(parser.parse_args(from_config))[key] == value
                continue
            with pytest.raises(SystemExit) as stopped:
                main(argv)
            assert stopped.value.code == 2
            # The command reports it under its own usage line.
            err = capsys.readouterr().err
            assert err.startswith(f"usage: cogregions {command} [-h]")
            assert err.endswith(
                f"cogregions {command}: error: unrecognized arguments: {flag} {value}\n"
            )
            code, out, err = run(capsys, *from_config)
            assert (code, out, err) == (2, "", f"error: unknown config keys: {key}\n")


# ----------------------------------------------------------------- compare


def test_compare_reference_rectangles_inside_unifying(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "bergmans",
        "unifying",
        "--a",
        "0",
        "--b",
        "10",
        "--p1",
        "5",
        "--p2",
        "0",
        "--tol",
        "1e-9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["first_in_second"] is True
    assert doc["max_gap_bits"] > 0.2


def test_compare_swapped_direction_fails(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "unifying",
        "bergmans",
        "--a",
        "0",
        "--b",
        "10",
        "--p1",
        "5",
        "--p2",
        "0",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["first_in_second"] is False
    assert doc["max_violation_bits"] > 0.2


def test_compare_scheme_against_z_bound_uses_matched_splits(capsys):
    code, out, _ = run(
        capsys, "compare", "schemeE", "cor2", "--a", "0", "--b", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["matched_power_splits"] is True
    assert doc["first_in_second"] is True
    assert doc["max_violation_bits"] <= 1e-9


def test_compare_th1_inside_unifying(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        "th1",
        "unifying",
        "--a",
        "0",
        "--b",
        "3",
        "--split-grid",
        "7",
        "--alpha-grid",
        "101",
    )
    assert code == 0
    assert json.loads(out)["first_in_second"] is True


# ------------------------------------------------------------------ verify


def test_verify_condition5_uses_exact_threshold(capsys):
    # sqrt(p2 + 1) <= b, so the claimed threshold calls the sum cap
    # redundant, but b^2 < 1 + p2 + b*sqrt(p1*p2) and the sweep finds a
    # 0.49-bit corner excess: the exact biconditional holds.
    argv = ["verify", "cond5", "--a", "0", "--b", "3.21", "--p1", "10", "--p2", "8.96"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["worst_case"]["max_corner_excess_bits"] > 0.49
    assert doc["worst_case"]["claimed_threshold"]["agrees_with_sweep"] is False


def test_verify_condition6_suite(capsys):
    code, out, _ = run(capsys, "verify", "cond6", "--a", "0", "--b", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["name"] == "condition6_biconditional"
    assert doc["passed"] is True


def test_verify_all_skips_inapplicable_suites(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "all",
        "--a",
        "0.5",
        "--b",
        "0.5",
        "--samples",
        "50000",
    )
    assert code == 0
    assert "skipping degraded: needs |b| >= 1" in err
    assert "skipping th3: not in Theorem-3 regime" in err
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(doc["passed"] for doc in reports)
    names = {doc["name"] for doc in reports}
    assert "condition5_biconditional" in names
    assert "condition6_biconditional" in names
    assert not any("degradedness" in name for name in names)


def test_verify_all_includes_everything_in_regime(capsys):
    code, out, err = run(
        capsys, "verify", "all", "--a", "0", "--b", "3", "--samples", "50000"
    )
    assert code == 0
    assert err == ""
    names = [json.loads(line)["name"] for line in out.strip().splitlines()]
    assert "degradedness_check" in names
    assert "th3_capacity_identity" in names


def test_verify_all_runs_th3_where_both_thresholds_meet(capsys):
    # At p1 = 0, b = sqrt(1 + p2) the label is pdc_exact, yet the Theorem-3
    # precondition holds, so the check runs.
    code, out, err = run(
        capsys, "verify", "all", "--a", "0", "--b", "2", "--p1", "0", "--p2", "3",
        "--samples", "10000",
    )
    assert code == 0
    assert err == ""
    names = [json.loads(line)["name"] for line in out.strip().splitlines()]
    assert "th3_capacity_identity" in names


@pytest.mark.parametrize("b", ["3", "1"])
def test_verify_th3_without_primary_power(capsys, b):
    point = ("--a", "0", "--b", b, "--p1", "2", "--p2", "0")
    code, out, err = run(capsys, "verify", "all", *point, "--samples", "10000")
    assert code == 0
    assert err == "skipping th3: needs p2 > 0\n"
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(doc["passed"] for doc in reports)
    assert "th3_capacity_identity" not in {doc["name"] for doc in reports}

    code, out, err = run(capsys, "verify", "th3", *point)
    assert code == 2
    assert out == ""
    assert err == "error: Theorem-3 check needs p2 > 0\n"


def test_verify_th3_refuses_a_nonzero_cross_gain(capsys):
    # Theorem 3 is a Z-channel result and its check reads no a: with a != 0
    # it would pass on the Z channel instead of the one asked about.
    point = ("--a", "0.3", "--b", "5", "--p1", "1", "--p2", "1")
    code, out, err = run(capsys, "verify", "th3", *point)
    assert code == 2
    assert out == ""
    assert err == "error: Theorem-3 check needs a = 0\n"


def test_verify_mc_reports_are_json_lines(capsys):
    code, out, _ = run(
        capsys, "verify", "mc", "--samples", "50000", "--seed", "7"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 5
    assert all(doc["tolerance"] == 5.0 for doc in reports)
    assert all(doc["n"] == 50000 for doc in reports)


def _sequential_lines(a, b, p1, p2, n, seed, suite):
    """The reports of ``verify SUITE`` from the public oracles, one by one.

    The Monte Carlo and degradedness cases all draw under ``seed``.
    """
    params = ChannelParams(a=a, b=b, p1=p1, p2=p2)

    def input_cov(cross_power):
        off = math.sqrt(cross_power * p2)
        return [[p1, off], [off, p2]]

    layer_off = math.sqrt(0.5 * p1 * p2)
    cases = [
        ("mc_unifying_r2cap", (b, 1.0), input_cov(0.3 * p1)),
        ("mc_z_sumcap", (b, 1.0), input_cov(p1)),
        ("mc_scheme_layercap", (b, 1.0), [[0.5 * p1, layer_off], [layer_off, p2]]),
        ("mc_scheme_sumcap", (b, 1.0), input_cov(0.5 * p1)),
        ("mc_receiver1_var", (1.0, a), input_cov(0.5 * p1)),
    ]
    reports = []
    if suite in ("mc", "all"):
        reports += [mc_rate_check(h, cov, n_samples=n, seed=seed, name=name)
                    for name, h, cov in cases]
    if suite == "degraded" or (suite == "all" and b >= 1.0):
        reports.append(degradedness_check(params, n, seed))
        reports.append(degradedness_check(params, n, seed, input_rho=0.7))
    if suite == "all":
        reports.append(verify_condition5(p1, p2, b, 1001))
        reports.append(verify_condition6(p1, p2, b, 1001))
        if a == 0.0 and b >= th3_threshold(p1, p2):
            reports.append(verify_th3_capacity(p1, p2, b, 1001))
    return "".join(report.to_json_line() + "\n" for report in reports)


@pytest.mark.parametrize(
    "suite, a, b, err",
    [
        ("all", 0.0, 6.0, ""),
        ("all", 0.5, 0.5, "skipping degraded: needs |b| >= 1\n"
                          "skipping th3: not in Theorem-3 regime\n"),
        ("all", 0.01, 10.0, "skipping th3: not in Theorem-3 regime\n"),
        ("mc", 0.3, 2.0, ""),
        ("degraded", 0.3, 2.0, ""),
    ],
)
def test_verify_reports_match_one_by_one_oracle_calls(capsys, suite, a, b, err):
    # Each pass shares one draw among its cases; the bytes are those of
    # one-case calls with each report's own seed.
    argv = ["verify", suite, "--a", str(a), "--b", str(b), "--p1", "2", "--p2", "3",
            "--samples", "20001", "--seed", "9"]
    code, out, stderr = run(capsys, *argv)
    assert out == _sequential_lines(a, b, 2.0, 3.0, 20001, 9, suite)
    assert stderr == err
    assert code == (0 if all(json.loads(line)["passed"] for line in out.splitlines()) else 1)


@pytest.mark.parametrize("seed", [0, 4, 11])
@pytest.mark.parametrize("block, n", [(1, 10_000), (97, 10_001), (None, 65_537)])
def test_verify_all_draws_both_sampled_suites_at_once(capsys, monkeypatch, seed, block, n):
    # verify all makes one sampling pass for both sampled suites.  All three
    # commands pass, and verify all's Monte Carlo lines are, byte for byte,
    # those of verify mc and its degradedness lines those of verify degraded,
    # with one-row blocks, ragged ones, and the default block (8 whole blocks
    # and a one-row one).
    if block is not None:
        monkeypatch.setattr(oracles, "_BLOCK", block)
    point = ["--a", "0.3", "--b", "2", "--p1", "2", "--p2", "3"]
    outs = {}
    for suite in ("all", "mc", "degraded"):
        code, out, _ = run(capsys, "verify", suite, *point, "--samples", str(n),
                           "--seed", str(seed))
        assert code == 0
        assert all(json.loads(line)["passed"] for line in out.splitlines())
        outs[suite] = out.splitlines()
    assert outs["all"][:5] == outs["mc"]
    assert outs["all"][5:7] == outs["degraded"]

    # The Monte Carlo streams are the first k + 1 = 3 children of the
    # degradedness seed, of its five: the two inputs, then the noise.
    degraded_seed = json.loads(outs["degraded"][0])["seed"]
    assert degraded_seed == seed
    *inputs, noise = np.random.default_rng(degraded_seed).spawn(5)[:3]
    x = np.stack([stream.standard_normal(n) for stream in inputs])
    z = noise.standard_normal(n)
    cases = cli._mc_cases(ChannelParams(a=0.3, b=2.0, p1=2.0, p2=3.0))
    for line, (name, h, cov) in zip(outs["mc"], cases, strict=True):
        received = np.asarray(h) @ (_psd_factor(np.asarray(cov)) @ x) + z
        doc = json.loads(line)
        assert (doc["name"], doc["seed"]) == (name, seed)
        assert math.isclose(
            doc["worst_case"]["estimate"], float(np.var(received, ddof=1)), rel_tol=1e-12
        )


def test_verify_all_memory_is_bounded(capsys):
    # Each pass holds only one block of its raw draws (about 0.3 MB), not
    # the 32 MB sample matrix a whole-length degradedness check would need.
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "verify", "all", "--a", "0", "--b", "5")
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak_mb <= 24.0


def _failing(name, calls):
    """A check that records its call in ``calls`` and raises ``name failed``."""

    def check(*args, **kwargs):
        calls.append(name)
        raise ValueError(f"{name} failed")

    return check


def test_verify_all_reports_the_earliest_error_in_plan_order(capsys, monkeypatch):
    # The checks run one after another: the first error ends the run after
    # the notes before it, and nothing later in the plan runs or prints.
    calls = []
    for name in ("verify_condition5", "verify_condition6", "verify_th3_capacity"):
        monkeypatch.setattr(cli, name, _failing(name, calls))
    code, out, err = run(capsys, "verify", "all", "--a", "0.5", "--b", "0.5",
                         "--samples", "10000")
    assert (code, out) == (2, "")
    assert err == "skipping degraded: needs |b| >= 1\nerror: verify_condition5 failed\n"
    assert calls == ["verify_condition5"]

    calls.clear()
    monkeypatch.setattr(cli, "sampled_checks", _failing("sampled_checks", calls))
    code, out, err = run(capsys, "verify", "all", "--a", "0", "--b", "3",
                         "--samples", "10000")
    assert (code, out, err) == (2, "", "error: sampled_checks failed\n")
    assert calls == ["sampled_checks"]


def test_verify_mc_reports_the_first_checks_error(capsys, monkeypatch):
    # The Monte Carlo pass checks its cases in report order before drawing:
    # of two malformed cases, the first one's error is shown.
    mc_cases = cli._mc_cases

    def malformed_cases(params):
        cases = mc_cases(params)
        (name, h, cov), last = cases[0], cases[-1]
        cases[0] = (name, h, [[1.0, 0.5], [0.0, 1.0]])
        cases[-1] = (last[0], (math.inf, 1.0), last[2])
        return cases

    monkeypatch.setattr(cli, "_mc_cases", malformed_cases)
    code, out, err = run(capsys, "verify", "mc", "--samples", "20000")
    assert (code, out, err) == (2, "", "error: covariance must be symmetric\n")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc"
)
def test_repeated_verify_all_keeps_resident_memory_flat(tmp_path):
    # glibc may keep freed sample buffers resident; that must not add up
    # from one verify call to the next.
    script = (
        "import contextlib, io\n"
        "from cogregions.cli import main\n"
        "def rss_mb():\n"
        "    with open('/proc/self/status') as status:\n"
        "        for line in status:\n"
        "            if line.startswith('VmRSS:'):\n"
        "                return int(line.split()[1]) / 1024\n"
        "for b, seed in ((3, 0), (4, 1), (5, 2), (6, 3), (8, 4)):\n"
        "    argv = ['verify', 'all', '--a', '0', '--b', str(b), '--seed', str(seed)]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    print(rss_mb())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=_env_with_src(),
        capture_output=True,
        text=True,
        check=True,
    )
    rss = [float(line) for line in done.stdout.split()]
    assert len(rss) == 5
    assert rss[-1] - rss[0] <= 8.0, rss


def test_verify_too_few_samples_is_an_input_error(capsys):
    for b in ("3", "0.5"):
        code, out, err = run(capsys, "verify", "all", "--b", b, "--samples", "100")
        assert code == 2
        assert out == ""
        assert err == "error: n_samples must be at least 10000\n"


# -------------------------------------------------------------------- fig3


def test_fig3_reference_pair(capsys, tmp_path):
    prefix = tmp_path / "fig"
    code, out, _ = run(
        capsys,
        "fig3",
        "--alpha-grid",
        "201",
        "--beta-grid",
        "201",
        "--out",
        str(prefix),
    )
    assert code == 0
    report = json.loads(out)
    assert report["outer_dominates_within_allowance"] is True
    # The acceptance-7 budget: within 0.1 bits across the inner frontier's
    # whole support.
    assert report["max_gap_bits"] <= 0.1
    assert report["gap_within_0.1_up_to_r1"] == report["inner_support_max_r1"]
    assert report["inner_support_deficit_bits"] < 1e-2
    assert report["min_inner_r2_plotted"] > 1.5
    assert report["min_outer_r2_plotted"] > 1.5
    for suffix in (
        "_outer.csv",
        "_inner.csv",
        "_outer.meta.json",
        "_inner.meta.json",
        "_gap.json",
    ):
        assert (tmp_path / ("fig" + suffix)).exists()
    on_disk = json.loads((tmp_path / "fig_gap.json").read_text())
    assert on_disk == report
    # Output bytes, by sha256 prefix (see test_cli_golden.py); the gap file
    # repeats stdout.
    def digest(data):
        return hashlib.sha256(data).hexdigest()[:16]

    digests = {
        suffix: digest((tmp_path / ("fig" + suffix)).read_bytes())
        for suffix in ("_outer.csv", "_inner.csv", "_outer.meta.json", "_inner.meta.json")
    }
    digests["stdout"] = digest(out.encode())
    assert digests == {
        "_outer.csv": "230f5838ccade7ce",
        "_inner.csv": "616e57e99e68135c",
        "_outer.meta.json": "25710cc7669f5363",
        "_inner.meta.json": "52ec9e9097b4d63c",
        "stdout": "98198eac7d767062",
    }
    assert (tmp_path / "fig_gap.json").read_text() == out


def test_fig3_split_grid_from_config_matches_the_flag(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"split_grid": 3}))
    runs = []
    for name, source in (("flag", ["--split-grid", "3"]), ("config", ["--config", str(config)])):
        folder = tmp_path / name
        folder.mkdir()
        code, out, _ = run(capsys, "fig3", "--alpha-grid", "51", "--beta-grid", "51",
                           *source, "--out", str(folder / "fig"))
        files = {path.name: path.read_bytes() for path in folder.iterdir()}
        runs.append((code, out, files))
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == 5
    assert json.loads(runs[0][2]["fig_outer.meta.json"])["grids"]["split"] == 3


def test_cli_never_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma in numpy 2.4, which costs every fresh CLI
    # process 14-24 ms; the geometry sorts and deduplicates by itself.
    script = (
        "import sys\n"
        "from cogregions.cli import main\n"
        "assert main(['fig3']) == 0\n"
        "assert main(['region', '--bound', 'capacity', '--a', '0.01', '--b', '10',"
        " '--p1', '5', '--p2', '5']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=_env_with_src(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"


def test_other_commands_never_import_concurrent_futures(tmp_path):
    # No command runs anything on a thread pool or starts a Python thread,
    # verify included; importing the pool module would cost every fresh
    # CLI process about 7 ms.
    script = (
        "import sys, threading\n"
        "from cogregions.cli import main\n"
        "assert main(['classify']) == 0\n"
        "assert main(['verify', 'all', '--a', '0', '--b', '3', '--samples', '10000']) == 0\n"
        "assert main(['region', '--bound', 'capacity', '--a', '0.01', '--b', '10',"
        " '--p1', '5', '--p2', '5']) == 0\n"
        "assert main(['fig3']) == 0\n"
        "assert threading.active_count() == 1\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=_env_with_src(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"
