"""Interleaved parent/change pairs of the benchmark, written to one JSON file.

    python3 bench/pairs.py --rev HEAD~1 --pairs 10 --out BENCH.json \
        [--workload bs-refine --workload cli]

The parent revision ``--rev`` is exported with ``git archive`` into a
temporary directory, so no worktree is added and nothing under ``.git`` is
written. The change side is this checkout as it stands on disk. Each pair
runs ``perfbench/run.py --trace 0`` once on each side with the same seed,
for the ``run_seconds`` of ``BENCHMARK.json``, and the side that runs first
alternates from pair to pair, so slow drift of the machine falls on both
sides alike.

The output holds, per workload, every run's end-to-end metrics, each side's
median and quartiles per metric, the number of pairs the change won (ties
count for neither side), and the largest relative u0 difference between the
two sides. Quartiles are ``statistics.quantiles(values, n=4)``, the
definition ``perfbench/steadiness.py`` reports spreads with. Workloads
default to all of ``BENCHMARK.json``, and each metric's better direction and
bound are taken from it.

Each metric's summary also states a verdict, and the last lines printed give
one per workload and metric. The bound is a share of the parent's median,
and so is the parent's spread, the distance between its quartiles:

- ``gain``: the change wins at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's spread;
- ``regression``: the change's median is worse by more than the bound;
- ``unresolved``: the parent's spread is wider than the bound;
- ``flat`` otherwise.

The first rule that holds gives the verdict.

Each run also records ``cpus_usable``, the CPU count of its environment
line, since a sweep's worker pool gains only where there are two or more.
The last lines name the counts seen on each side per workload, with a
warning where a side ran on fewer than 2 or the two sides saw different
counts; the verdicts and the exit code do not depend on them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="parent revision to compare against")
    ap.add_argument("--workload", action="append",
                    help="workload to run; repeat for several (default: all of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10, help="parent/change pairs per workload")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    args.workload = args.workload or [w["name"] for w in spec["workloads"]]
    args.better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    args.bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.seconds = spec["run_seconds"]
    return args


def git(*argv) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; returns its result and detail lines."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}\n{proc.stderr}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "u0": detail["u0"], "env": detail["env"],
            "cpus_usable": detail["env"]["cpus_usable"]}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def share(diff: float, base: float) -> float:
    """``diff`` as a share of ``|base|``; 0 for no difference, inf on a base of 0."""
    if diff == 0:
        return 0.0
    return diff / abs(base) if base else math.copysign(math.inf, diff)


def verdict(better: str, bound: float, wins: int, pairs: int, parent: dict,
            change: dict) -> str:
    """The module docstring's rule for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (change["median"] - parent["median"])  # > 0: the change is worse
    width = parent["q3"] - parent["q1"]
    if 10 * wins >= 9 * pairs and -worse > width:
        return "gain"
    if share(worse, parent["median"]) > bound:
        return "regression"
    if share(width, parent["median"]) > bound:
        return "unresolved"
    return "flat"


def summarize(runs, better: dict, bound: dict) -> dict:
    out = {}
    for name, direction in better.items():
        sides = {side: [r["metrics"][name] for r in runs if r["side"] == side]
                 for side in ("parent", "change")}
        wins = 0
        for p, c in zip(sides["parent"], sides["change"]):
            wins += (c < p) if direction == "lower" else (c > p)
        parent, change = spread(sides["parent"]), spread(sides["change"])
        pairs = len(sides["change"])
        out[name] = {"better": direction, "wins": wins, "pairs": pairs,
                     "parent": parent, "change": change, "bound": bound[name],
                     "verdict": verdict(direction, bound[name], wins, pairs, parent, change)}
    return out


def u0_agreement(parent: dict, change: dict) -> dict:
    """Largest relative u0 difference over the cases both sides priced."""
    worst, at = 0.0, None
    for label, a in parent.items():
        b = change.get(label)
        if isinstance(a, float) and isinstance(b, float):
            rel = abs(a - b) / max(abs(a), 1e-300)
            if at is None or rel > worst:
                worst, at = rel, label
    return {"max_rel_diff": worst, "at": at, "cases": len(parent)}


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_sha = git("rev-parse", args.rev)
    doc = {
        "command": [Path(sys.argv[0]).name, *(argv if argv is not None else sys.argv[1:])],
        "parent": parent_sha,
        "change": {"head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "quartiles": "statistics.quantiles(n=4)",
        "python": platform.python_version(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        parent_root = Path(tmp)
        export(parent_sha, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    rec = run_once(sides[side], workload, i + 1, args.seconds)
                    rec.update(pair=i, side=side, first=side == order[0])
                    runs.append(rec)
                    print(f"{workload} pair {i} {side}: run_s={rec['metrics']['run_s']:.3f}",
                          file=sys.stderr, flush=True)
            first = {side: next(r for r in runs if r["side"] == side) for side in sides}
            doc["env"] = first["change"]["env"]
            doc["workloads"][workload] = {
                "summary": summarize(runs, args.better, args.bound),
                "u0_agreement": u0_agreement(first["parent"]["u0"], first["change"]["u0"]),
                "runs": [{k: r[k] for k in ("pair", "side", "first", "metrics",
                                             "attempted", "failed", "cpus_usable")}
                         for r in runs],
            }
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["summary"].items():
            p, c = m["parent"], m["change"]
            print(f"{workload} {name}: {m['verdict']} (parent {p['median']:.6g} "
                  f"[{p['q1']:.6g}, {p['q3']:.6g}], change {c['median']:.6g}, "
                  f"{m['wins']}/{m['pairs']} pairs won, bound {m['bound']})")
    for workload, entry in doc["workloads"].items():
        seen = {side: sorted({r["cpus_usable"] for r in entry["runs"] if r["side"] == side})
                for side in ("parent", "change")}
        print(f"{workload} cpus_usable: parent {seen['parent']}, change {seen['change']}")
        if seen["parent"] != seen["change"] or min(seen["parent"] + seen["change"]) < 2:
            print(f"{workload}: warning: the sides ran on fewer than 2 usable CPUs "
                  "or on different counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
