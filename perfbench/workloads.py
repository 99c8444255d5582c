"""The four workloads of the quantbsde benchmark.

Every workload is a closed loop with one client: a pass starts when the
previous one has ended. A workload has three parts:

- ``setup(seed, smoke, workdir)`` builds the inputs and the reference values
  the checks need, and returns them as a dict;
- ``work(state, tracer)`` is the timed pass. It calls the package only
  through module attributes (``rmq.build_tree``, not a name imported from
  ``quantbsde``), so that a traced run sees every layer;
- ``check(state, raw)`` runs outside the timed pass and returns an
  ``Outcome``: failed cases, every u0 at full precision, and the largest
  price error against a reference.

``state["cases"]`` is the number of cases one pass attempts.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quantbsde import bsde_solver, model, report, rmq

import tracer as tracing

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_TIMEOUT_S = 120.0
# A Black-Scholes u0 further than this from bs_price fails its check. This is
# a sanity bound, well above the errors of today's scheme (at most 0.037 over
# these workloads); the measured error is reported separately as price_err.
SANITY_ABS = 0.1

BS_PARAMS = {"rate": 0.04, "sigma": 0.25, "strike": 100.0}
BS_T, BS_Y0 = 1.0, 100.0
BERGMAN_PARAMS = {
    "mu": 0.05,
    "sigma": 0.2,
    "lend_rate": 0.01,
    "borrow_rate": 0.06,
    "strike_low": 95.0,
    "strike_high": 105.0,
}
BERGMAN_T, BERGMAN_Y0 = 0.25, 100.0
# The reference values of acceptance criterion 4; bergman-sweep has no closed
# form, so its price_err is measured against these.
CRITERION_4 = {(20, 50): 2.9427, (100, 100): 2.7782, (5, 5): 2.8492}


@dataclass
class Outcome:
    failed: int = 0
    messages: list = field(default_factory=list)
    u0: dict = field(default_factory=dict)
    price_err: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    work: object
    check: object


def bs_problem(strike: float = BS_PARAMS["strike"]):
    p = model.BlackScholesParams(BS_PARAMS["rate"], BS_PARAMS["sigma"], strike)
    return model.make_black_scholes(p, BS_T, BS_Y0)


def bs_reference(strike: float = BS_PARAMS["strike"]) -> float:
    p = model.BlackScholesParams(BS_PARAMS["rate"], BS_PARAMS["sigma"], strike)
    return model.bs_price(p, 0.0, BS_T, BS_Y0)


def bergman_problem():
    return model.make_bergman(model.BergmanParams(**BERGMAN_PARAMS), BERGMAN_T, BERGMAN_Y0)


def _check_price(out: Outcome, label: str, u0, ref: float) -> None:
    if isinstance(u0, Exception):
        out.fail(f"{label}: {type(u0).__name__}: {u0}")
        return
    out.u0[label] = u0
    err = abs(u0 - ref)
    if not math.isfinite(u0) or err > SANITY_ABS:
        out.fail(f"{label}: u0={u0!r} is not within {SANITY_ABS} of bs_price {ref!r}")
        return
    out.price_err = max(out.price_err, err)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ChildRun:
    code: int
    wall_s: float
    stdout: str
    stderr: str


def run_child(argv, cwd: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run one interpreter to completion and time it from start to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    return ChildRun(proc.returncode, time.perf_counter() - t0, proc.stdout, proc.stderr)


# -- bs-refine: the criterion-8 refinement ladder, build + solve in process --


def bs_refine_setup(seed, smoke, workdir):
    N, steps = (30, [2, 4]) if smoke else (200, [10, 20, 40, 80])
    return {"problem": bs_problem(), "ref": bs_reference(), "N": N, "steps": steps,
            "cases": len(steps)}


def bs_refine_work(st, tracer):
    out = {}
    for n in st["steps"]:
        try:
            tree = rmq.build_tree(st["problem"], rmq.TimeGrid(n, BS_T), st["N"])
            out[n] = bsde_solver.solve(tree, st["problem"]).u0
        except Exception as exc:  # noqa: BLE001 - a failed case is counted
            out[n] = exc
    return out


def bs_refine_check(st, raw):
    out = Outcome()
    for n in sorted(raw):
        _check_price(out, f"N={st['N']},n={n}", raw[n], st["ref"])
    return out


# -- bergman-sweep: report.run_sweep over the criterion-4 grid, then emit --


def bergman_sweep_setup(seed, smoke, workdir):
    qs, ss = ((5, 10), (2, 5)) if smoke else ((5, 10, 15, 20, 50, 100), (5, 10, 20, 50, 100))
    spec = report.SweepSpec(bergman_problem(), qs, ss)
    return {"spec": spec, "csv": workdir / "sweep.csv", "cases": len(qs) * len(ss) + 2}


def bergman_sweep_work(st, tracer):
    result = report.run_sweep(st["spec"])
    report.emit_csv(result, st["csv"])
    report.emit_json(result, str(st["csv"]) + ".json")
    return result


def _read_csv_cells(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[1:] for row in list(csv.reader(fh))[1:]]


def _check_sweep_artifacts(out: Outcome, result, csv_path, label: str) -> None:
    """The CSV must hold the 4-decimal values and the sidecar the exact ones."""
    want_csv = [[f"{v:.4f}" for v in row] for row in result.values]
    if _read_csv_cells(csv_path) != want_csv:
        out.fail(f"{label}: CSV does not read back as SweepResult.values")
    with open(str(csv_path) + ".json", encoding="utf-8") as fh:
        side = json.load(fh)["values"]
    if side != result.values.tolist():
        out.fail(f"{label}: JSON sidecar does not read back as SweepResult.values")


def bergman_sweep_check(st, result):
    out = Outcome()
    spec = st["spec"]
    for i, N in enumerate(spec.quantizer_counts):
        for j, n in enumerate(spec.step_counts):
            v = float(result.values[i, j])
            if (N, n) in result.errors or not math.isfinite(v):
                out.fail(f"N={N},n={n}: ERR {result.errors.get((N, n))}")
                continue
            out.u0[f"N={N},n={n}"] = v
            if (N, n) in CRITERION_4:
                out.price_err = max(out.price_err, abs(v - CRITERION_4[(N, n)]))
    _check_sweep_artifacts(out, result, st["csv"], "sweep")
    return out


# -- cli: one fresh interpreter per command, through quantbsde.cli.main --

CLI_CHILD = Path(__file__).with_name("cli_child.py")


def cli_setup(seed, smoke, workdir):
    if smoke:
        small, big, hedge_steps, sweep_q, sweep_n = (10, 5), (20, 5), [1, 2, 3], [3, 5], [2, 4]
    else:
        small, big, hedge_steps, sweep_q, sweep_n = (50, 20), (100, 50), [5, 10, 15], [5, 10, 20], [10, 50]
    join = lambda xs: ",".join(str(x) for x in xs)  # noqa: E731
    commands = [
        ("solve", ["solve", "--steps", str(small[1]), "--quantizers", str(small[0])]),
        ("solve_output", ["solve", "--steps", str(big[1]), "--quantizers", str(big[0]),
                          "--output", "solve.rmq.json"]),
        ("hedge", ["hedge", "--steps", str(small[1]), "--quantizers", str(small[0]),
                   "--hedge-steps", join(hedge_steps), "--output", "hedge.csv"]),
        ("sweep", ["sweep", "--model", "bergman", "--quantizers", join(sweep_q),
                   "--steps", join(sweep_n), "--output", "sweep.csv"]),
    ]

    # in-process references for the same configurations
    problem = bs_problem()
    refs = {}
    for N, n in (small, big):
        tree = rmq.build_tree(problem, rmq.TimeGrid(n, BS_T), N)
        refs[(N, n)] = bsde_solver.solve(tree, problem)
    hedge_rows = report.hedge_compare(refs[small], problem, hedge_steps)
    sweep = report.run_sweep(report.SweepSpec(bergman_problem(), sweep_q, sweep_n))
    return {
        "commands": commands, "workdir": workdir, "small": small, "big": big,
        "refs": refs, "hedge_rows": hedge_rows, "sweep": sweep, "bs_ref": bs_reference(),
        "cases": len(commands),
    }


def cli_work(st, tracer):
    runs = {}
    for name, args in st["commands"]:
        spans_path = st["workdir"] / f"spans-{name}.json"
        target = "-" if tracer is None else str(spans_path)
        runs[name] = run_child([sys.executable, str(CLI_CHILD), target, *args], st["workdir"])
        if tracer is not None and spans_path.exists():
            tracer.absorb(tracing.load(spans_path))
            spans_path.unlink()
    return runs


def key_values(text: str) -> dict:
    """The ``key=value`` lines of a CLI process's output."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _cli_solve_problems(st, printed, size) -> list:
    sol = st["refs"][size]
    v0 = float(sol.control_layers[0].controls[0])
    if printed.get("u0") != f"{sol.u0:.4f}" or printed.get("v0") != f"{v0:.4f}":
        return [f"printed u0={printed.get('u0')} v0={printed.get('v0')}, "
                f"in-process {sol.u0:.4f} {v0:.4f}"]
    return []


def _cli_problems(st, name, run) -> list:
    """What is wrong with one command's exit code, stdout and artifacts."""
    if run.code != 0:
        return [f"exit {run.code}: {run.stderr.strip()[-300:]}"]
    printed = key_values(run.stdout)
    wd = st["workdir"]
    if name == "solve":
        return _cli_solve_problems(st, printed, st["small"])
    if name == "solve_output":
        problems = _cli_solve_problems(st, printed, st["big"])
        tree, stored = rmq.load_tree(wd / "solve.rmq.json")
        N, n = st["big"]
        if (tree.time_grid.n, tree.layers[-1].size) != (n, N) or stored is None \
                or stored["u0"] != st["refs"][st["big"]].u0:
            problems.append("artifact does not reload as the in-process solve")
        return problems
    if name == "hedge":
        with open(wd / "hedge.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        want = [[str(r.step), f"{r.codeword:.6f}", f"{r.v_hat:.6f}", f"{r.v_exact:.6f}",
                 f"{r.abs_err:.6f}"] for r in st["hedge_rows"]]
        if printed.get("rows") != str(len(want)) or rows != want:
            return ["hedge table differs from the in-process hedge_compare"]
        return []
    ref = st["sweep"]
    if printed.get("cells") != str(ref.values.size) or printed.get("failures") != "0":
        return [f"printed cells={printed.get('cells')} failures={printed.get('failures')}"]
    check = Outcome()
    _check_sweep_artifacts(check, ref, wd / "sweep.csv", "artifacts")
    return check.messages


def cli_check(st, runs):
    out = Outcome()
    for name, run in runs.items():
        problems = _cli_problems(st, name, run)
        if problems:
            out.fail(f"{name}: " + "; ".join(problems))
        elif name.startswith("solve"):
            u0 = float(key_values(run.stdout)["u0"])
            out.u0[name] = u0
            out.price_err = max(out.price_err, abs(u0 - st["bs_ref"]))
            if name == "solve_output":  # the artifact holds this value bit for bit
                out.u0[name + ":artifact"] = st["refs"][st["big"]].u0
        elif name == "sweep":  # the sidecar holds these values bit for bit
            spec = st["sweep"].spec
            for i, N in enumerate(spec.quantizer_counts):
                for j, n in enumerate(spec.step_counts):
                    out.u0[f"sweep:N={N},n={n}"] = float(st["sweep"].values[i, j])
    return out


# -- tree-reuse: load a saved (100, 50) tree, then solve a strike ladder on it --


def tree_reuse_setup(seed, smoke, workdir):
    N, n, count = (100, 20, 10) if smoke else (100, 50, 200)
    problem = bs_problem()
    tree = rmq.build_tree(problem, rmq.TimeGrid(n, BS_T), N)
    path = workdir / "tree.rmq.json"
    rmq.save_tree(tree, path, solution=bsde_solver.solve(tree, problem))
    strikes = np.sort(np.random.default_rng(seed).uniform(70.0, 130.0, count))
    return {
        "path": path, "problem": problem, "ref": bs_reference(),
        "strikes": [float(K) for K in strikes],
        "problems": [bs_problem(float(K)) for K in strikes],
        "refs": [bs_reference(float(K)) for K in strikes],
        "cases": count + 1,
    }


def tree_reuse_work(st, tracer):
    tree, stored = rmq.load_tree(st["path"])
    again = bsde_solver.solve(tree, st["problem"]).u0
    return stored, again, [bsde_solver.solve(tree, q).u0 for q in st["problems"]]


def tree_reuse_check(st, raw):
    stored, again, ladder = raw
    out = Outcome()
    if stored is None or again != stored["u0"]:
        out.fail(f"stored problem: re-solve gives {again!r}, artifact holds "
                 f"{None if stored is None else stored['u0']!r}")
    else:
        _check_price(out, "stored", again, st["ref"])
    for K, u0, ref in zip(st["strikes"], ladder, st["refs"]):
        _check_price(out, f"K={K!r}", u0, ref)
    if any(b > a for a, b in zip(ladder, ladder[1:])):
        out.fail("u0 increases with strike somewhere on the ladder")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bs-refine", bs_refine_setup, bs_refine_work, bs_refine_check),
        Workload("bergman-sweep", bergman_sweep_setup, bergman_sweep_work, bergman_sweep_check),
        Workload("cli", cli_setup, cli_work, cli_check),
        Workload("tree-reuse", tree_reuse_setup, tree_reuse_work, tree_reuse_check),
    )
}
