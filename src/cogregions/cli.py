"""Command-line front end.

Subcommands: ``classify`` (regime flags as JSON), ``region`` (compute one
bound/region frontier and export it), ``compare`` (containment and gap
report for two frontiers), ``verify`` (oracle suites as JSON-lines reports),
and ``fig3`` (inner/outer frontier pair at a fixed reference configuration
with a gap report).  Each flag is declared once, in ``_FLAGS``; a command
accepts exactly the flags it reads (``_COMMAND_FLAGS``) plus ``--config``,
whose keys are those flags' names, so no input is silently ignored.
``verify`` runs its checks one after another on the calling thread; its
Monte Carlo and degradedness cases share one draw under the seed, and each
sampled report is, byte for byte, its one-case oracle call with that seed.

Every command is deterministic for fixed flags and seed: output files are
byte-identical across re-runs and metadata carries no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .channel import ChannelParams, classify, gaussian_rate
from .inner_bounds import DEFAULT_BETA_POINTS, FAMILIES, beta_of_alpha, capacity_region
from .oracles import (
    sampled_checks,
    verify_condition5,
    verify_condition6,
    verify_th3_capacity,
)
from .outer_bounds import DEFAULT_ALPHA_POINTS, DEFAULT_SPLIT_POINTS
from .region_geometry import (
    Frontier,
    _abscissas_up_to,
    contains,
    grid_axis,
    sweep_grid,
)

__all__ = ["main"]

# Bound selectors: each family's name, then ``capacity``.
BOUNDS = (*FAMILIES, "capacity")

# The two families whose pentagons meet split for split at ``a = 0`` (see
# ``Family.matched``).
MATCHED_PAIR = next({name, f.matched} for name, f in FAMILIES.items() if f.matched)

SUITES = ("mc", "degraded", "cond5", "cond6", "th3", "all")

# Reference configuration for the fig3 command.
FIG3 = ChannelParams(a=0.01, b=10.0, p1=5.0, p2=5.0)

# Sampling sag of the concavified outer hull at the fig3 default grids;
# shrinks toward zero as the split grids are refined.
FIG3_DOMINANCE_ALLOWANCE = 5e-3

# Every flag once: its default, its argparse keywords, and the JSON type its
# config value must have with the "must be" wording (a JSON boolean is
# neither a number nor an integer here).
_NUMBER, _INTEGER = ((int, float), "a number"), (int, "an integer")
_FLAGS = {
    "a": (0.0, dict(type=float, help="cross gain at receiver 1"), _NUMBER),
    "b": (1.0, dict(type=float, help="cross gain at receiver 2"), _NUMBER),
    "p1": (1.0, dict(type=float, help="cognitive transmit power"), _NUMBER),
    "p2": (1.0, dict(type=float, help="primary transmit power"), _NUMBER),
    "alpha_grid": (
        DEFAULT_ALPHA_POINTS,
        dict(type=int, help="points on the outer-bound power-split grid"),
        _INTEGER,
    ),
    "beta_grid": (
        DEFAULT_BETA_POINTS,
        dict(type=int, help="points on the inner-bound power-split grid"),
        _INTEGER,
    ),
    "split_grid": (
        DEFAULT_SPLIT_POINTS,
        dict(type=int, help="points per axis of the covariance-split grid"),
        _INTEGER,
    ),
    "samples": (1_000_000, dict(type=int, help="Monte Carlo sample count"), _INTEGER),
    "seed": (0, dict(type=int, help="RNG seed"), _INTEGER),
    "format": ("csv", dict(choices=("csv", "json"), help="output format"), (str, "a string")),
    "out": (
        None,
        dict(help="output path (default: stdout)"),
        ((str, type(None)), "a string or null"),
    ),
    "tol": (1e-9, dict(type=float, help="containment tolerance of compare, in bits"), _NUMBER),
}

_POINT = ("a", "b", "p1", "p2")
_GRIDS = ("alpha_grid", "beta_grid", "split_grid")

# The flags each command reads; its config keys are the same names.
_COMMAND_FLAGS = {
    "classify": (*_POINT, "out"),
    "region": (*_POINT, *_GRIDS, "format", "out"),
    "compare": (*_POINT, *_GRIDS, "tol", "out"),
    "verify": (*_POINT, "alpha_grid", "beta_grid", "samples", "seed", "out"),
    "fig3": (*_GRIDS, "format", "out"),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an argument it does not take is a usage error
    under its own usage line, not handed back to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _add_command(subs, name: str, func, help: str) -> argparse.ArgumentParser:
    """Subcommand ``name`` with exactly the flags it reads, plus ``--config``.

    Flags are spelled in full: an abbreviation would let fig3 take ``--b``
    for ``--beta-grid``.
    """
    sub = subs.add_parser(name, help=help, allow_abbrev=False)
    for key in _COMMAND_FLAGS[name]:
        sub.add_argument("--" + key.replace("_", "-"), default=None, **_FLAGS[key][1])
    sub.add_argument("--config", default=None, help="JSON config file mirroring the flags")
    sub.set_defaults(func=func)
    return sub


def _resolve(args: argparse.Namespace, **defaults) -> dict:
    """The command's defaults (``defaults`` over the table's), overlaid by the
    config file, overlaid by explicit flags.  Only the command's keys are
    accepted, and only given values are range-checked.
    """
    keys = _COMMAND_FLAGS[args.command]
    given = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                given = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}") from exc
        if not isinstance(given, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(given) - set(keys))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in given.items():
            types, kind = _FLAGS[key][2]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
    given.update({key: v for key in keys if (v := getattr(args, key)) is not None})
    if any(given.get(key, 2) < 2 for key in _GRIDS):
        raise ValueError("grid resolution must be at least 2")
    if given.get("samples", 1) < 1:
        raise ValueError("sample count must be at least 1")
    if given.get("format", "csv") not in ("csv", "json"):
        raise ValueError(f"unknown format: {given['format']}")
    return {key: _FLAGS[key][0] for key in keys} | defaults | given


def _params(cfg: dict) -> ChannelParams:
    return ChannelParams(a=cfg["a"], b=cfg["b"], p1=cfg["p1"], p2=cfg["p2"])


def _meta_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return (root if ext in (".csv", ".json") else out) + ".meta.json"


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_frontier(
    path: Optional[str], fmt: str, frontier: Frontier, meta: dict, extra_json: dict
) -> None:
    """Write one frontier (+ sibling metadata when a path is given)."""
    if fmt == "csv":
        text = frontier.to_csv()
    else:
        doc = frontier.to_json()
        doc.update(extra_json)
        text = json.dumps(doc) + "\n"
    _write(path, text)
    if path is not None:
        _write(_meta_path(path), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _frontier_for(selector: str, params: ChannelParams, cfg: dict):
    """The selector's frontier, and for ``capacity`` the result it came from."""
    if selector in FAMILIES:
        return FAMILIES[selector].build(params, cfg), None
    result = capacity_region(params, **{key: cfg[key] for key in _GRIDS})
    return result.frontier, result


def _region_meta(cfg: dict, selector: str, params: ChannelParams) -> dict:
    return {
        "command": "region",
        "bound": selector,
        "tag": f"cogregions/{selector}",
        "version": __version__,
        "params": {"a": params.a, "b": params.b, "p1": params.p1, "p2": params.p2},
        "grids": {
            "alpha": cfg["alpha_grid"],
            "beta": cfg["beta_grid"],
            "split": cfg["split_grid"],
        },
        "format": cfg["format"],
    }


def _gap(outer: Frontier, inner: Frontier, top: float):
    """Abscissas in ``[0, top]`` and ``outer - inner`` r2 there.

    The abscissas are both frontiers' vertices up to ``top``, and ``top``.
    The difference of two polylines is linear between them, so its
    extremes on ``[0, top]`` lie among them.
    """
    xs = _abscissas_up_to(top, outer.r1, inner.r1)
    return xs, outer.interp(xs) - inner.interp(xs)


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    report = classify(_params(cfg))
    _write(cfg["out"], json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    params = _params(cfg)
    frontier, result = _frontier_for(args.bound, params, cfg)
    meta = _region_meta(cfg, args.bound, params)
    extra_json = {}
    if result is not None:
        meta["status"] = extra_json["status"] = result.status
        if result.outer is not None and cfg["format"] == "json":
            extra_json["outer_points"] = result.outer.to_json()["points"]
    _emit_frontier(cfg["out"], cfg["format"], frontier, meta, extra_json)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    params = _params(cfg)
    # At p2 = 0 scheme E has the single split beta = 1: nothing to match.
    matched = (
        {args.first, args.second} == MATCHED_PAIR and params.a == 0.0 and params.p2 > 0.0
    )
    if matched:
        # Sample both families at matched power splits, else staircase
        # sampling noise (~1e-2 bits) would swamp the frontier comparison.
        axis = grid_axis(cfg["alpha_grid"], "alpha grid")
        cfg = dict(cfg, alpha_grid=axis, beta_grid=beta_of_alpha(axis, params.p1))
    first, _ = _frontier_for(args.first, params, cfg)
    second, _ = _frontier_for(args.second, params, cfg)
    report = contains(outer=second, inner=first, tol=cfg["tol"])
    xs, gap = _gap(second, first, min(first.max_r1, second.max_r1))
    doc = {
        "command": "compare",
        "first": args.first,
        "second": args.second,
        "params": {"a": params.a, "b": params.b, "p1": params.p1, "p2": params.p2},
        "first_in_second": report.passed,
        "max_violation_bits": report.max_discrepancy,
        "violation_worst_case": report.worst_case,
        "max_gap_bits": float(np.max(gap)),
        "min_gap_bits": float(np.min(gap)),
        "gap_at_r1": float(xs[int(np.argmax(gap))]),
        "matched_power_splits": matched,
        "tol": cfg["tol"],
    }
    _write(cfg["out"], json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if report.passed else 1


def _mc_cases(params: ChannelParams) -> list:
    """Monte Carlo cases of the received-variance form ``1 + h S h^T``.

    The rate expressions reduce to ``log2`` of ``1 + h S h^T`` for a
    receive vector ``h`` and an input (or layer) covariance ``S``.  Each
    case builds its own ``(h, S)``, shaped like one family's cap at a
    representative split, and checks the sampled variance against that
    form; no case reads a package caps function, so a wrong cap formula
    passes here.  Returns ``(name, h, S)`` triples in report order.
    """
    p1, p2, b, a = params.p1, params.p2, params.b, params.a
    h2 = (b, 1.0)

    def input_cov(cross_power: float) -> list:
        return [
            [p1, math.sqrt(cross_power * p2)],
            [math.sqrt(cross_power * p2), p2],
        ]

    bbar = 0.5
    layer_cov = [
        [bbar * p1, math.sqrt(bbar * p1 * p2)],
        [math.sqrt(bbar * p1 * p2), p2],
    ]
    return [
        ("mc_unifying_r2cap", h2, input_cov(0.3 * p1)),
        ("mc_z_sumcap", h2, input_cov(p1)),
        ("mc_scheme_layercap", h2, layer_cov),
        ("mc_scheme_sumcap", h2, input_cov(0.5 * p1)),
        ("mc_receiver1_var", (1.0, a), input_cov(0.5 * p1)),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    """Run a suite's checks in order; notes go to stderr as they come.

    The Monte Carlo and degradedness cases share one draw under ``seed``:
    the Monte Carlo cases read its first three streams, so each report is
    the one its own suite gives.  The first error ends the run, after the
    notes before it.
    """
    cfg = _resolve(args)
    params = _params(cfg)
    suite = args.suite
    if suite == "th3" and params.a != 0.0:
        raise ValueError("Theorem-3 check needs a = 0")
    mc_cases = _mc_cases(params) if suite in ("mc", "all") else None
    degraded = suite == "degraded" or (suite == "all" and params.b >= 1.0)
    reports = []
    if mc_cases or degraded:
        rhos = (0.0, 0.7) if degraded else None
        reports += sampled_checks(mc_cases, params, rhos, cfg["samples"], cfg["seed"])
    if suite == "all" and not degraded:
        print("skipping degraded: needs |b| >= 1", file=sys.stderr)
    if suite in ("cond5", "all"):
        reports.append(
            verify_condition5(params.p1, params.p2, params.b, cfg["alpha_grid"])
        )
    if suite in ("cond6", "all"):
        reports.append(
            verify_condition6(params.p1, params.p2, params.b, cfg["beta_grid"])
        )
    # The Theorem-3 precondition, not the ``th3_exact`` label: where both
    # thresholds meet at b the label reads ``pdc_exact`` and the check holds.
    report = classify(params)
    in_th3_regime = report.z_channel == "a_zero" and report.th3_capacity
    if suite == "th3" or (suite == "all" and in_th3_regime and params.p2 > 0.0):
        reports.append(
            verify_th3_capacity(params.p1, params.p2, params.b, cfg["alpha_grid"])
        )
    elif suite == "all":
        reason = "needs p2 > 0" if in_th3_regime else "not in Theorem-3 regime"
        print(f"skipping th3: {reason}", file=sys.stderr)

    text = "".join(report.to_json_line() + "\n" for report in reports)
    _write(cfg["out"], text)
    if cfg["out"] is None:
        sys.stdout.flush()
    return 0 if all(report.passed for report in reports) else 1


def cmd_fig3(args: argparse.Namespace) -> int:
    cfg = _resolve(args, split_grid="tuned")
    params = FIG3
    # The tuned default densifies the first power-fraction axis: the outer
    # frontier's right edge is produced by splits in a thin boundary layer
    # near alpha1 = 1.
    split = cfg["split_grid"]
    pair = capacity_region(
        params,
        alpha_grid=sweep_grid(cfg["alpha_grid"]),
        beta_grid=sweep_grid(cfg["beta_grid"]),
        split_grid=(sweep_grid(401), 21, 5, 21) if split == "tuned" else split,
    )
    outer, inner = pair.outer, pair.frontier

    plot_top = float(gaussian_rate(params.p1))
    xs, gap = _gap(outer, inner, min(plot_top, inner.max_r1, outer.max_r1))
    max_gap = float(np.max(gap))
    min_gap = float(np.min(gap))
    within = xs[np.maximum.accumulate(gap) <= 0.1]
    report = {
        "command": "fig3",
        "params": {"a": params.a, "b": params.b, "p1": params.p1, "p2": params.p2},
        "r1_range_bits": [0.0, plot_top],
        "max_gap_bits": max_gap,
        "max_gap_at_r1": float(xs[int(np.argmax(gap))]),
        "gap_within_0.1_up_to_r1": float(within[-1]) if within.size else 0.0,
        "inner_support_max_r1": inner.max_r1,
        "inner_support_deficit_bits": plot_top - inner.max_r1,
        "min_outer_minus_inner_bits": min_gap,
        "dominance_allowance_bits": FIG3_DOMINANCE_ALLOWANCE,
        "outer_dominates_within_allowance": bool(
            min_gap >= -FIG3_DOMINANCE_ALLOWANCE
        ),
        "min_inner_r2_plotted": float(np.min(inner.interp(xs))),
        "min_outer_r2_plotted": float(np.min(outer.interp(xs))),
        "note": (
            "inner frontier is the concavified superposition scheme; outer "
            "frontier is the Theorem-1 bound, each broadcast split cut by its "
            "own r1 cap log2(1+Var(X1|X2)); outer-minus-inner values down to "
            "minus the allowance are sampling sag of the outer hull"
        ),
    }

    prefix = cfg["out"] or "fig3"
    for name, frontier in (("outer", outer), ("inner", inner)):
        meta = {
            "command": "fig3",
            "role": name,
            "tag": f"cogregions/fig3-{name}",
            "version": __version__,
            "params": report["params"],
            "grids": {
                "alpha": cfg["alpha_grid"],
                "beta": cfg["beta_grid"],
                "split": split,
            },
        }
        path = f"{prefix}_{name}.{cfg['format']}"
        _emit_frontier(path, cfg["format"], frontier, meta, {})
    _write(f"{prefix}_gap.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["outer_dominates_within_allowance"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cogregions",
        description="Capacity bounds for the Gaussian cognitive interference channel.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    _add_command(subs, "classify", cmd_classify, "interference-regime flags as JSON")
    sub = _add_command(subs, "region", cmd_region, "compute one bound/region frontier")
    sub.add_argument("--bound", choices=BOUNDS, required=True)
    sub = _add_command(
        subs, "compare", cmd_compare, "containment and gap report for two frontiers"
    )
    sub.add_argument("first", choices=BOUNDS)
    sub.add_argument("second", choices=BOUNDS)
    sub = _add_command(subs, "verify", cmd_verify, "run an oracle suite, JSON-lines reports")
    sub.add_argument("suite", choices=SUITES, nargs="?", default="all")
    _add_command(subs, "fig3", cmd_fig3, "reference inner/outer frontier pair + gap report")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
