"""Interleaved parent/change pairs of the benchmark, written to one JSON file.

    python3 bench/pairs.py --rev HEAD~1 --pairs 10 --out BENCH.json \
        [--workload bs-refine --workload cli]

The parent revision ``--rev`` is exported with ``git archive`` into a
temporary directory, and the change side, this checkout as it stands on
disk, is copied into another (``change_checkout``), so both sides run from
exports of the same kind, whose paths have the same length: a workload's
peak RSS moves with where its process runs, not only with its code. No
worktree is added and nothing under ``.git`` is written. Each pair
runs ``perfbench/run.py --trace 0`` once on each side with the same seed,
for the ``run_seconds`` of ``BENCHMARK.json``, and the side that runs first
alternates from pair to pair, so slow drift of the machine falls on both
sides alike.

The output holds, per workload, every run's end-to-end metrics, each side's
median and quartiles per metric, the number of pairs the change won (ties
count for neither side), the median over pairs of change / parent
(``paired_ratio``; 1 for a pair of equal values), and the largest relative
u0 difference between the two sides. The paired ratio reads a cost smaller
than the parent's spread, which the verdict below cannot. Quartiles are
``statistics.quantiles(values, n=4)``, the definition
``perfbench/steadiness.py`` reports spreads with. Workloads default to all
of ``BENCHMARK.json``, and each metric's better direction and bound are
taken from it.

Each metric's summary also states a verdict, and the last lines printed give
one per workload and metric. The bound is a share of the parent's median,
and so is the parent's spread, the distance between its quartiles:

- ``gain``: the change wins at least 9 of 10 pairs and its median is better
  than the parent's by more than its spread and by more than 1e-12 of its
  median, so a rounding-level move of a zero-spread metric is no gain;
- ``regression``: the change's median is worse by more than the bound;
- ``unresolved``: the parent's spread is wider than the bound;
- ``flat`` otherwise.

The first rule that holds gives the verdict.

``bench/calls.py`` shares this module's harness: ``parent_checkout``,
``header``, ``tree_digest`` and ``largest_rel_diff``.

Each run also records ``cpus_usable``, the CPU count of its environment
line, since a sweep's worker pool gains only where there are two or more.
The last lines name the counts seen on each side per workload, with a
warning where a side ran on fewer than 2 or the two sides saw different
counts; the verdicts and the exit code do not depend on them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
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
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, since each side's quartiles need two runs")
    args.workload = args.workload or [w["name"] for w in spec["workloads"]]
    args.better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    args.bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.seconds = spec["run_seconds"]
    return args


def git(*argv) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def header(argv) -> dict:
    """The command line, HEAD, and whether a tracked file differs from HEAD."""
    return {"command": [Path(sys.argv[0]).name, *(argv if argv is not None else sys.argv[1:])],
            "change": {"head": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}}


@contextlib.contextmanager
def parent_checkout(rev: str):
    """Yield (sha, directory): the tree of ``rev`` written by ``git archive``
    into a temporary directory, removed on exit."""
    sha = git("rev-parse", rev)
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(tmp, filter="data")
        yield sha, Path(tmp)


@contextlib.contextmanager
def change_checkout(root: Path = ROOT):
    """Yield a temporary directory holding the files of the checkout ``root``
    that ``git ls-files --cached --others --exclude-standard`` lists, as they
    are on disk: tracked files with their edits and new files that are not
    ignored. Listed files missing from disk are skipped. Removed on exit."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True).stdout.decode()
    with tempfile.TemporaryDirectory(prefix="bench-change-") as tmp:
        for name in filter(None, listed.split("\0")):
            src, dst = root / name, Path(tmp) / name
            if src.is_file():
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(src, dst)
        yield Path(tmp)


def tree_digest(tree, solution=None) -> str:
    """sha256 of a quantization tree and a solution as ``load_tree`` returns
    it: the time grid, each layer's step and distortion, codewords and
    weights, each transition's step, shape and entries (the arrays as their
    bytes), and the solution's JSON text."""
    h = hashlib.sha256(repr((tree.time_grid.n, tree.time_grid.T)).encode())
    for la in tree.layers:
        h.update(repr((la.step, la.distortion)).encode())
        h.update(la.codewords.tobytes())
        h.update(la.weights.tobytes())
    for tr in tree.transitions:
        h.update(repr((tr.step, tr.entries.shape)).encode())
        h.update(tr.entries.tobytes())
    h.update(json.dumps(solution).encode())
    return h.hexdigest()


def largest_rel_diff(triples) -> dict:
    """The largest |a - b| / max(|a|, |b|) over (label, a, b), 0 where
    a == b, and the label it is at (None for no triples)."""
    worst, at = 0.0, None
    for label, a, b in triples:
        rel = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
        if at is None or rel > worst:
            worst, at = rel, label
    return {"max_rel_diff": worst, "at": at}


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
    if 10 * wins >= 9 * pairs and -worse > max(width, 1e-12 * abs(parent["median"])):
        return "gain"
    if share(worse, parent["median"]) > bound:
        return "regression"
    if share(width, parent["median"]) > bound:
        return "unresolved"
    return "flat"


def ratio(change: float, parent: float) -> float:
    """``change / parent``; 1 where they are equal, inf on a parent of 0."""
    if change == parent:
        return 1.0
    return change / parent if parent else math.copysign(math.inf, change)


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
                     "paired_ratio": statistics.median(
                         map(ratio, sides["change"], sides["parent"])),
                     "verdict": verdict(direction, bound[name], wins, pairs, parent, change)}
    return out


def verdict_line(workload: str, name: str, m: dict) -> str:
    """The printed verdict of one metric of one workload."""
    p, c = m["parent"], m["change"]
    return (f"{workload} {name}: {m['verdict']} (parent {p['median']:.6g} "
            f"[{p['q1']:.6g}, {p['q3']:.6g}], change {c['median']:.6g}, "
            f"paired ratio {m['paired_ratio']:.4g}, "
            f"{m['wins']}/{m['pairs']} pairs won, bound {m['bound']})")


def u0_agreement(parent: dict, change: dict) -> dict:
    """Largest relative u0 difference over the cases both sides priced."""
    both = [(label, a, change.get(label)) for label, a in parent.items()
            if isinstance(a, float) and isinstance(change.get(label), float)]
    return {**largest_rel_diff(both), "cases": len(parent)}


def main(argv=None) -> int:
    args = parse_args(argv)
    doc = {
        **header(argv),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "quartiles": "statistics.quantiles(n=4)",
        "python": platform.python_version(),
        "workloads": {},
    }
    with parent_checkout(args.rev) as (doc["parent"], parent_root), \
            change_checkout() as change_root:
        sides = {"parent": parent_root, "change": change_root}
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
            print(verdict_line(workload, name, m))
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
