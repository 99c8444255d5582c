"""Command-line front end: single solves, convergence sweeps, hedge tables.

Runs are file-driven (--config points at a JSON document) with a handful of
flag overrides for quick experiments. Output on stdout is machine-parseable
key=value lines; artifacts (tree/solution JSON, CSV tables) go to --output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bsde_solver, report, rmq
from .model import MODELS


class ConfigError(ValueError):
    pass


def _number(cfg, key, default):
    try:
        return float(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: not a number") from exc


def _build_problem(cfg):
    name = cfg.get("model", "black-scholes")
    if not isinstance(name, str) or name not in MODELS:
        raise ConfigError(f"model: unknown model {name!r} ({' | '.join(MODELS)})")
    spec = MODELS[name]
    params = cfg.get("params") or {}
    T = _number(cfg, "T", spec.T)
    y0 = _number(cfg, "y0", spec.y0)
    try:
        return spec.factory(spec.param_type(**{**spec.defaults, **params}), T, y0)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}") from exc


def _optimizer_settings(cfg):
    opt = cfg.get("optimizer") or {}
    try:
        return rmq.OptimizerSettings(**opt)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


def _positive_int(cfg, key, default):
    try:
        val = int(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: not an integer") from exc
    if val < 1:
        raise ConfigError(f"{key}: must be at least 1")
    return val


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be a JSON object")
    if args.model:
        cfg["model"] = args.model
    if args.output:
        cfg["output"] = args.output
    return cfg


def _parse_count_list(text):
    try:
        items = [int(tok) for tok in str(text).replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"count list {text!r}: not integers") from exc
    if not items:
        raise ConfigError("count list is empty")
    return items


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    if args.steps is not None:
        cfg["steps"] = args.steps
    if args.quantizers is not None:
        cfg["quantizers"] = args.quantizers
    problem = _build_problem(cfg)
    n = _positive_int(cfg, "steps", 20)
    N = _positive_int(cfg, "quantizers", 50)
    settings = _optimizer_settings(cfg)

    tree = rmq.build_tree(problem, rmq.TimeGrid(n, problem.T), N, settings)
    sol = bsde_solver.solve(tree, problem)
    v0 = float(sol.control_layers[0].controls[0])
    print(f"u0={sol.u0:.4f}")
    print(f"v0={v0:.4f}")
    out = cfg.get("output")
    if out:
        rmq.save_tree(tree, out, solution=sol)
        print(f"output={out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sweep_cfg = dict(cfg.get("sweep") or {})
    if args.quantizers is not None:
        sweep_cfg["quantizers"] = _parse_count_list(args.quantizers)
    if args.steps is not None:
        sweep_cfg["steps"] = _parse_count_list(args.steps)
    if "quantizers" not in sweep_cfg or "steps" not in sweep_cfg:
        raise ConfigError("sweep: needs 'quantizers' and 'steps' lists")
    problem = _build_problem(cfg)
    spec = report.SweepSpec(
        problem,
        tuple(sweep_cfg["quantizers"]),
        tuple(sweep_cfg["steps"]),
    )
    result = report.run_sweep(spec, _optimizer_settings(cfg))
    out = cfg.get("output", "sweep.csv")
    report.emit_csv(result, out)
    report.emit_json(result, str(out) + ".json")
    print(f"cells={result.values.size}")
    print(f"failures={len(result.errors)}")
    print(f"output={out}")
    for key, msg in result.errors.items():
        print(f"error[N={key[0]},n={key[1]}]={msg}", file=sys.stderr)
    return 1 if result.failed else 0


def cmd_hedge(args) -> int:
    cfg = _load_config(args)
    if args.steps is not None:
        cfg["steps"] = args.steps
    if args.quantizers is not None:
        cfg["quantizers"] = args.quantizers
    if args.hedge_steps is not None:
        cfg["hedge_steps"] = _parse_count_list(args.hedge_steps)
    problem = _build_problem(cfg)
    n = _positive_int(cfg, "steps", 20)
    N = _positive_int(cfg, "quantizers", 50)
    steps = cfg.get("hedge_steps", [5, 10, 15])
    if not isinstance(steps, (list, tuple)):
        raise ConfigError("hedge_steps: must be a list of step indices")
    for k in steps:
        if not 0 <= int(k) < n:
            raise ConfigError(f"hedge_steps: step {k} out of range [0, {n - 1}]")

    tree = rmq.build_tree(problem, rmq.TimeGrid(n, problem.T), N, _optimizer_settings(cfg))
    sol = bsde_solver.solve(tree, problem)
    try:
        rows = report.hedge_compare(sol, problem, steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = cfg.get("output", "hedge.csv")
    report.emit_csv(rows, out)
    print(f"rows={len(rows)}")
    print(f"output={out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantbsde",
        description="Quantization-based solver for one-dimensional decoupled FBSDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--model", help=" | ".join(MODELS))
    common.add_argument("--output", help="artifact path (JSON for solve, CSV otherwise)")

    p_solve = sub.add_parser("solve", parents=[common], help="single solve, prints u0 and v0")
    p_solve.add_argument("--steps", type=int, help="number of time steps")
    p_solve.add_argument("--quantizers", type=int, help="codewords per layer")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=[common], help="(N, n) convergence table to CSV")
    p_sweep.add_argument("--steps", help="comma-separated step counts")
    p_sweep.add_argument("--quantizers", help="comma-separated quantizer counts")
    p_sweep.set_defaults(func=cmd_sweep)

    p_hedge = sub.add_parser("hedge", parents=[common], help="control vs closed form to CSV")
    p_hedge.add_argument("--steps", type=int, help="number of time steps")
    p_hedge.add_argument("--quantizers", type=int, help="codewords per layer")
    p_hedge.add_argument("--hedge-steps", dest="hedge_steps", help="comma-separated step indices")
    p_hedge.set_defaults(func=cmd_hedge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface computation failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
