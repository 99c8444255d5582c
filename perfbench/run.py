"""quantbsde benchmark: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload bs-refine --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout that
holds this file, and nothing is installed. With ``--trace 0`` the run reports
the end-to-end metrics, all taken with tracing off. With ``--trace 1`` it
reports the per-layer metrics: half of the time runs untraced passes, half
runs passes with the tracer installed, and the difference of the two medians
is ``trace.overhead_s``. The last line of stdout is the result object; the
line before it holds the details (environment, every u0 at full precision,
pass times, failures). ``--out PATH`` also writes both to a file.

``--smoke`` shrinks every workload to a size that runs in seconds; see
``smoke.py``. Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Only the standard library is imported at module level: ``timed_setup`` imports
# the package (and ``workloads``, which imports it) so that set-up time includes
# the import, and later functions import ``workloads`` locally.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("bs-refine", "bergman-sweep", "cli", "tree-reuse")
SETUP_SAMPLES = 3
STARTUP_SAMPLES, IMPORT_SAMPLES = 5, 3
WATCHDOG_S = 175

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "price_err": "price",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "rmq.optimize_grid.calls": "count",
    "rmq.optimize_grid.self_s": "s",
    "rmq.optimize_grid.first_layer_s": "s",
    "rmq.optimize_grid.later_layer_s_p50": "s",
    "rmq.transition_matrix.calls": "count",
    "rmq.transition_matrix.self_s": "s",
    "rmq.conditional_law.calls": "count",
    "rmq.conditional_law.calls_per_layer": "calls/layer",
    "rmq.build_tree.calls": "count",
    "rmq.build_tree.self_s": "s",
    "rmq.save_tree.s": "s",
    "rmq.save_tree.bytes": "bytes",
    "rmq.load_tree.s": "s",
    "bsde_solver.solve.calls": "count",
    "bsde_solver.solve.self_s": "s",
    "bsde_solver.backward_step.calls": "count",
    "bsde_solver.backward_step.self_s": "s",
    "report.run_sweep.s": "s",
    "report.run_sweep.cell_sum_over_wall": "ratio",
    "report.emit_csv.s": "s",
    "report.emit_json.s": "s",
    "cli.solve.process_s": "s",
    "cli.solve_output.process_s": "s",
    "cli.hedge.process_s": "s",
    "cli.sweep.process_s": "s",
    "cli.main.s": "s",
    "python.startup_s": "s",
    "quantbsde.import_s": "s",
    "import.scipy_special_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for smoke.py")
    ap.add_argument("--out", help="also write the details and the result to this JSON file")
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: time one set-up in this fresh interpreter and print it")
    return ap.parse_args(argv)


def timed_setup(args, workdir, tracer=None):
    """Import the package and prepare the workload; return (seconds, state)."""
    t0 = time.perf_counter()
    import quantbsde  # noqa: F401 - importing the package is part of set-up
    import workloads

    if tracer is not None:
        tracer.install()
    try:
        state = workloads.WORKLOADS[args.workload].setup(args.seed, args.smoke, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0, state


def probe_setup(args, workdir) -> float:
    """One set-up sample in a fresh interpreter, as a user would pay it."""
    import workloads

    argv = [sys.executable, str(BENCH / "run.py"), "--probe-setup", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    if args.smoke:
        argv.append("--smoke")
    run = workloads.run_child(argv, workdir)
    if run.code != 0:
        raise RuntimeError(f"set-up probe failed with exit {run.code}: {run.stderr[-500:]}")
    return json.loads(run.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Pass:
    wall_s: float
    raw: object  # what the workload's work() returned, or the exception it raised
    outcome: object  # workloads.Outcome
    spans: list


def measure(workload, state, budget_s, tracer=None) -> list:
    """Closed loop: run passes back to back until ``budget_s`` has elapsed."""
    import workloads

    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < budget_s:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw = workload.work(state, tracer)
        except Exception as exc:  # noqa: BLE001 - the pass is counted as failed
            raw = exc
        wall = time.perf_counter() - t0
        spans = []
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.take()
        if isinstance(raw, Exception):
            outcome = workloads.Outcome(failed=state["cases"],
                                        messages=[f"pass raised {type(raw).__name__}: {raw}"])
        else:
            try:
                outcome = workload.check(state, raw)
            except Exception as exc:  # noqa: BLE001 - a broken output is a failure
                outcome = workloads.Outcome(failed=state["cases"],
                                            messages=[f"check raised {type(exc).__name__}: {exc}"])
        if passes and not outcome.failed and outcome.u0 != passes[0].outcome.u0:
            outcome.fail("results differ from the first pass")
        passes.append(Pass(wall, raw, outcome, spans))
    return passes


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
            for k, v in deps.items() if k in ("blas", "lapack")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas,
        "thread_env": {k: os.environ.get(k)
                       for k in ("QUANTBSDE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def import_probes(workdir) -> dict:
    """Package import cost split from interpreter start-up, each process fresh."""
    import workloads

    py = sys.executable

    def wall(argv):
        run = workloads.run_child(argv, workdir)
        if run.code != 0:
            raise RuntimeError(f"{argv} failed: {run.stderr[-500:]}")
        return run

    startup = statistics.median(wall([py, "-c", "pass"]).wall_s for _ in range(STARTUP_SAMPLES))
    imported = statistics.median(
        wall([py, "-c", "import quantbsde"]).wall_s for _ in range(IMPORT_SAMPLES))
    special = []
    for _ in range(IMPORT_SAMPLES):
        # "import time: self [us] | cumulative | imported package"
        for line in wall([py, "-X", "importtime", "-c", "import quantbsde"]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.special":
                special.append(int(parts[1]) / 1e6)
    return {
        "python.startup_s": startup,
        "quantbsde.import_s": imported - startup,
        "import.scipy_special_s": statistics.median(special) if special else 0.0,
    }


def layer_metrics(untraced, traced, setup_spans, probes) -> tuple:
    """Per-layer metrics from the traced passes; see README.md for each one."""
    import tracer as tracing

    med = tracing.median_or_zero
    aggs = [tracing.aggregate(p.spans) for p in traced]

    def per_pass(name, key):
        return med(a.get(name, {}).get(key, 0) for a in aggs)

    def durations(spans, name, keep=lambda attrs: True):
        return [e - s for _, n, s, e, _, _, a in spans if n == name and keep(a)]

    traced_spans = [sp for p in traced for sp in p.spans]
    every_span = setup_spans + traced_spans
    m = {}
    for name in ("rmq.optimize_grid", "rmq.transition_matrix", "rmq.conditional_law",
                 "rmq.build_tree", "bsde_solver.solve", "bsde_solver.backward_step"):
        m[f"{name}.calls"] = per_pass(name, "calls")
        m[f"{name}.self_s"] = per_pass(name, "self_s")
    del m["rmq.conditional_law.self_s"]
    m["rmq.optimize_grid.first_layer_s"] = med(
        durations(traced_spans, "rmq.optimize_grid", lambda a: a["k"] == 0))
    m["rmq.optimize_grid.later_layer_s_p50"] = med(
        durations(traced_spans, "rmq.optimize_grid", lambda a: a["k"] > 0))
    ratios = []
    for p in traced:
        layers = sum(a["n"] for _, n, _, _, _, _, a in p.spans if n == "rmq.build_tree")
        calls = sum(1 for sp in p.spans if sp[1] == "rmq.conditional_law")
        ratios.append(calls / layers if layers else 0.0)
    m["rmq.conditional_law.calls_per_layer"] = med(ratios)
    # save_tree runs only in set-up on tree-reuse, so set-up spans count here
    m["rmq.save_tree.s"] = med(durations(every_span, "rmq.save_tree"))
    m["rmq.save_tree.bytes"] = med(a["bytes"] for _, n, _, _, _, _, a in every_span
                                   if n == "rmq.save_tree")
    m["rmq.load_tree.s"] = med(durations(traced_spans, "rmq.load_tree"))
    m["report.run_sweep.s"] = med(durations(traced_spans, "report.run_sweep"))
    m["report.run_sweep.cell_sum_over_wall"] = med(
        a["cell_sum"] / (e - s) for _, n, s, e, _, _, a in traced_spans if n == "report.run_sweep")
    m["report.emit_csv.s"] = med(durations(traced_spans, "report.emit_csv"))
    m["report.emit_json.s"] = med(durations(traced_spans, "report.emit_json"))
    for cmd in ("solve", "solve_output", "hedge", "sweep"):
        m[f"cli.{cmd}.process_s"] = med(
            p.raw[cmd].wall_s for p in untraced if isinstance(p.raw, dict) and cmd in p.raw)
    m["cli.main.s"] = med(sum(durations(p.spans, "cli.main")) for p in traced)
    m.update(probes)
    m["trace.overhead_s"] = med(p.wall_s for p in traced) - med(p.wall_s for p in untraced)
    table = {name: {k: med(a.get(name, {}).get(k, 0) for a in aggs)
                    for k in ("calls", "total_s", "self_s")}
             for name in sorted({sp[1] for sp in traced_spans})}
    return m, table


def run(args, workdir) -> int:
    import cli_child
    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    setup_s, state = timed_setup(args, workdir, tracer)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": environment()}
    if args.trace:
        setup_spans = tracer.take()
        untraced = measure(workload, state, args.seconds / 2)
        traced = measure(workload, state, args.seconds / 2, tracer)
        passes = untraced + traced
    else:
        setup_samples = [setup_s] + [probe_setup(args, workdir) for _ in range(SETUP_SAMPLES - 1)]
        untraced = passes = measure(workload, state, args.seconds)
        detail["setup_samples_s"] = setup_samples
    attempted = state["cases"] * len(passes)
    failed = sum(min(p.outcome.failed, state["cases"]) for p in passes)

    if args.trace:
        metrics, table = layer_metrics(untraced, traced, setup_spans, import_probes(workdir))
        detail["layers_per_pass"] = table
        detail["traced_pass_s"] = [p.wall_s for p in traced]
        spans_path = OUT / f"spans-{args.workload}.json"
        tracing.dump(setup_spans + [sp for p in traced for sp in p.spans], spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        if args.workload == "cli":
            peak_kb = max((int(workloads.key_values(r.stderr).get("peak_rss_kb", 0))
                           for p in untraced if isinstance(p.raw, dict)
                           for r in p.raw.values()), default=0)
        else:
            peak_kb = cli_child.peak_rss_kb()
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "run_s": statistics.median(p.wall_s for p in untraced),
            "peak_rss_mb": peak_kb / 1024.0,
            "price_err": max(p.outcome.price_err for p in untraced),
            "ok_ratio": 1.0 - failed / attempted,
        }
    detail["run_s_samples"] = len(untraced)
    detail["pass_s"] = [p.wall_s for p in untraced]
    if args.workload == "cli":
        detail["cli_process_s"] = {
            name: [p.raw[name].wall_s for p in untraced if isinstance(p.raw, dict)]
            for name, _ in state["commands"]}
    detail["u0"] = passes[0].outcome.u0
    detail["failures"] = [m for p in passes for m in p.outcome.messages][:50]
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "result": result}, fh, indent=1)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    if not (ROOT / "src" / "quantbsde" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'quantbsde'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.probe_setup:
            setup_s, _ = timed_setup(args, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
