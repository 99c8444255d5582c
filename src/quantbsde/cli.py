"""Command-line front end: single solves, convergence sweeps, hedge tables.

Runs are file-driven (--config points at a JSON document) with a handful of
flag overrides for quick experiments. Output on stdout is machine-parseable
key=value lines; artifacts (tree/solution JSON, CSV tables) go to --output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bsde_solver, report, rmq
from .model import MODELS


class ConfigError(ValueError):
    pass


def _build_problem(cfg):
    name = cfg.get("model", "black-scholes")
    if not isinstance(name, str) or name not in MODELS:
        raise ConfigError(f"model: unknown model {name!r} ({' | '.join(MODELS)})")
    spec = MODELS[name]
    params = cfg.get("params") or {}
    try:
        params = spec.param_type(**{**spec.defaults, **params})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}") from exc
    try:
        return spec.factory(params, cfg.get("T", spec.T), cfg.get("y0", spec.y0))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _optimizer_settings(cfg):
    """The ``optimizer`` section as settings; each of its errors starts ``optimizer: ``."""
    opt = cfg.get("optimizer") or {}
    try:
        if isinstance(opt, dict) and "max_iterations" in opt:
            opt = {**opt, "max_iterations": _integers(opt, "max_iterations")}
        return rmq.OptimizerSettings(**opt)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


def _integers(cfg, key, default=None, least=1, many=False):
    """``cfg[key]`` as an integer of at least ``least``, or with ``many`` as a
    non-empty list of them, given as a JSON list or a comma-separated string.

    A string of digits or an integral float is read as its int, and each item
    then goes through ``rmq._integer`` under the name ``key``.
    """
    raw = cfg.get(key, default)
    items = raw if many else [raw]
    if isinstance(items, str):
        items = [tok for tok in items.replace(" ", "").split(",") if tok]
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{key}: needs a non-empty list of integers")
    ints = [int(i) if (isinstance(i, str) and i.removeprefix("-").isdecimal())
            or (isinstance(i, float) and i.is_integer()) else i for i in items]
    try:
        vals = [rmq._integer(key, i, least) for i in ints]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return vals if many else vals[0]


def _load_config(args) -> dict:
    """The config file's settings with every flag that was given copied over.

    sweep's --steps and --quantizers override the lists of its "sweep" section.
    An ``output`` in an unreachable folder raises open's OSError here.
    """
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"config: invalid JSON in {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be a JSON object")
    section = cfg
    if args.command == "sweep":
        section = cfg.setdefault("sweep", {})
        if not isinstance(section, dict):
            raise ConfigError("sweep: must be a JSON object")
    for key in ("model", "output", "steps", "quantizers", "hedge_steps"):
        val = getattr(args, key, None)
        if val is not None:
            (section if key in ("steps", "quantizers") else cfg)[key] = val
    if "output" in cfg:
        out = cfg["output"]
        if not (isinstance(out, str) and out):
            raise ConfigError(f"output: {out!r} is not a non-empty path")
        try:
            os.stat(os.path.dirname(out) or ".")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, out) from None
    return cfg


def _solve(problem, cfg):
    """Build ``problem``'s quantization tree as configured and solve it backward."""
    n = _integers(cfg, "steps", 20)
    N = _integers(cfg, "quantizers", 50)
    tree = rmq.build_tree(problem, rmq.TimeGrid(n, problem.T), N, _optimizer_settings(cfg))
    return bsde_solver.solve(tree, problem)


def cmd_solve(cfg) -> int:
    sol = _solve(_build_problem(cfg), cfg)
    out = cfg.get("output")
    if out:
        rmq.save_tree(sol.tree, out, solution=sol)
    print(f"u0={sol.u0:.4f}")
    print(f"v0={float(sol.control_layers[0].controls[0]):.4f}")
    if out:
        print(f"output={out}")
    return 0


def cmd_sweep(cfg) -> int:
    sweep = cfg["sweep"]
    quantizers = _integers(sweep, "quantizers", many=True)
    steps = _integers(sweep, "steps", many=True)
    problem = _build_problem(cfg)
    try:  # a repeated count
        spec = report.SweepSpec(problem, quantizers, steps)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    result = report.run_sweep(spec, _optimizer_settings(cfg))
    out = cfg.get("output", "sweep.csv")
    report.emit_csv(result, out)
    report.emit_json(result, out + ".json")
    print(f"cells={result.values.size}")
    print(f"failures={len(result.errors)}")
    print(f"output={out}")
    for key, msg in result.errors.items():
        print(f"error[N={key[0]},n={key[1]}]={msg}", file=sys.stderr)
    return 1 if result.failed else 0


def cmd_hedge(cfg) -> int:
    problem = _build_problem(cfg)
    steps = _integers(cfg, "hedge_steps", [5, 10, 15], least=0, many=True)
    n = _integers(cfg, "steps", 20)
    try:  # before the build
        steps = report._hedge_steps(problem, steps, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = report.hedge_compare(_solve(problem, cfg), problem, steps)
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
    p_solve.add_argument("--steps", help="number of time steps")
    p_solve.add_argument("--quantizers", help="codewords per layer")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=[common], help="(N, n) convergence table to CSV")
    p_sweep.add_argument("--steps", help="comma-separated step counts")
    p_sweep.add_argument("--quantizers", help="comma-separated quantizer counts")
    p_sweep.set_defaults(func=cmd_sweep)

    p_hedge = sub.add_parser("hedge", parents=[common], help="control vs closed form to CSV")
    p_hedge.add_argument("--steps", help="number of time steps")
    p_hedge.add_argument("--quantizers", help="codewords per layer")
    p_hedge.add_argument("--hedge-steps", dest="hedge_steps", help="comma-separated step indices")
    p_hedge.set_defaults(func=cmd_hedge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_load_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface computation failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
