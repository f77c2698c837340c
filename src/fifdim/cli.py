"""Command-line interface.

    fif validate|sample|bounds|boxdim|report <config.json>
        [--depth k] [--kmin a --kmax b] [--out dir]

Exit codes: 0 ok, 1 config error, 2 validation failure, 3 budget
exceeded, 4 inconsistency between empirical slope and theoretical
bounds.  Outputs are deterministic: fixed float formatting and fixed
reduction orders, so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .dimension import DEFAULT_WINDOWS, empirical_dimension, reconcile
from .domains import BudgetError
from .engine import (
    FifModel,
    ModelError,
    build_model,
    check_well_defined,
    evaluate_on_vk,
    validate_join_up,
)
from .svgplot import loglog_chart, polyline_chart, scatter_chart

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _dump_json(payload: dict, path: Path | None) -> str:
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n"
    if path is not None:
        path.write_text(text)
    return text


def _build(cfg: RunConfig) -> FifModel:
    return build_model(cfg.spec)


def cmd_validate(cfg: RunConfig, args) -> int:
    try:
        model = _build(cfg)
    except ModelError as exc:
        print(f"FAIL: {exc}")
        return EXIT_VALIDATION
    print(f"join-up residual: {model.joinup_residual:.3e}")
    print("well-defined: yes")
    print(
        f"||s|| bracket: [{model.s_norm[0]:.12g}, {model.s_norm[1]:.12g}]; "
        f"M bracket: [{model.M[0]:.12g}, {model.M[1]:.12g}]"
    )
    return EXIT_OK


def _sample_table(model: FifModel, depth: int):
    if depth == 0:
        pts = model.interpolation_nodes()
        vals = model.p_at(pts)
        return pts, vals
    return evaluate_on_vk(model, depth)


def cmd_sample(cfg: RunConfig, args) -> int:
    model = _build(cfg)
    depth = args.depth if args.depth is not None else int(
        cfg.analysis.get("sample_depth", 6)
    )
    pts, vals = _sample_table(model, depth)
    out = _outdir(args) / "sample.csv"
    m = model.domain.m
    with open(out, "w") as fh:
        fh.write(",".join(f"x{u + 1}" for u in range(m)) + ",value\n")
        for p, v in zip(pts, vals):
            fh.write(",".join(f"{c:.17g}" for c in p) + f",{v:.17g}\n")
    print(f"wrote {out} ({len(vals)} rows)")
    return EXIT_OK


def cmd_bounds(cfg: RunConfig, args) -> int:
    model = _build(cfg)
    report = reconcile(
        model,
        gamma_pin=cfg.analysis.get("gamma_pin"),
        with_empirical=False,
    )
    text = _dump_json(report.to_dict(), _outdir(args) / "bounds.json")
    print(text, end="")
    return EXIT_OK


def cmd_boxdim(cfg: RunConfig, args) -> int:
    model = _build(cfg)
    k_min, k_max = _window(cfg, args, model)
    est = empirical_dimension(model, k_min, k_max)
    text = _dump_json(est.to_dict(), _outdir(args) / "boxdim.json")
    print(text, end="")
    return EXIT_OK


def cmd_report(cfg: RunConfig, args) -> int:
    model = _build(cfg)
    k_min, k_max = _window(cfg, args, model)
    report = reconcile(
        model,
        k_min=k_min,
        k_max=k_max,
        gamma_pin=cfg.analysis.get("gamma_pin"),
        with_empirical=True,
    )
    out = _outdir(args)
    _dump_json(report.to_dict(), out / "report.json")

    depth = args.depth if args.depth is not None else int(
        cfg.analysis.get("sample_depth", 6)
    )
    pts, vals = _sample_table(model, depth)
    if model.domain.m == 1:
        svg = polyline_chart(pts[:, 0], vals)
    else:
        svg = scatter_chart(pts[:, :2], vals)
    (out / "graph.svg").write_text(svg)
    (out / "loglog.svg").write_text(
        loglog_chart(
            report.empirical.entries,
            report.empirical.slope,
            report.best_lower,
            report.best_upper,
        )
    )
    print(f"wrote {out / 'report.json'}, {out / 'graph.svg'}, {out / 'loglog.svg'}")
    if report.inconsistent:
        print("INCONSISTENT: empirical slope falls outside theoretical bounds")
        return EXIT_INCONSISTENT
    return EXIT_OK


def _window(cfg: RunConfig, args, model: FifModel):
    dk_min, dk_max = DEFAULT_WINDOWS[model.domain.kind]
    k_min = args.kmin if args.kmin is not None else int(
        cfg.analysis.get("k_min", dk_min)
    )
    k_max = args.kmax if args.kmax is not None else int(
        cfg.analysis.get("k_max", dk_max)
    )
    return k_min, k_max


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


COMMANDS = {
    "validate": cmd_validate,
    "sample": cmd_sample,
    "bounds": cmd_bounds,
    "boxdim": cmd_boxdim,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fif",
        description="Fractal interpolation functions and box-dimension bounds",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the run configuration JSON")
    parser.add_argument("--depth", type=int, default=None,
                        help="vertex level for sampling")
    parser.add_argument("--kmin", type=int, default=None)
    parser.add_argument("--kmax", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        for path, msg in exc.errors:
            print(f"config error at {path or '<root>'}: {msg}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return COMMANDS[args.command](cfg, args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
