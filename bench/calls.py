"""Stats-kernel calls per RMQ layer on the benchmark's two build workloads.

    python3 bench/calls.py --out CALLS.json [--rev HEAD~1]

Every call of ``rmq._mixture_stats`` is counted, and attributed to the
layer whose ``rmq._quantize_layer`` is running, by wrapping both functions.
The cases are the bs-refine ladder (Black-Scholes call, N=200,
n = 10, 20, 40, 80) and the 30 cells of the Bergman sweep
(N in 5, 10, 15, 20, 50, 100 and n in 5, 10, 20, 50, 100), each model at
its ``model.MODELS`` defaults, as in ``perfbench/workloads.py``. Each case
records its total calls, the calls of each layer, the mean over the
warm-started layers 2..n, its u0 at full precision and the sha256 of its
tree (``pairs.tree_digest``).

A third set, the envelope, holds 36 Black-Scholes builds (the defaults'
r = 0.04, K = 100, y0 = 100) at N=50, n=10 over sigma in 0.1, 0.2, 0.3,
0.5, 0.7, 1, 1.5, 2, 3 and T in 0.25, 1, 2, 5. Each records whether it converged
or stalled (``ConvergenceError``, with the step), its calls, sigma sqrt(T),
its u0 (None when stalled) and a sha256: of its tree, or for a stalled
build of the error message and the last grid (``stall_digest``). Beyond
sigma sqrt(T) = 0.75 the Euler chain puts mass on negative prices and some
builds stall.

With ``--rev`` the same counts are also taken on that revision, exported
with ``git archive`` into a temporary directory
(``pairs.parent_checkout``), and the output holds both sides, the largest
relative u0 difference (``pairs.largest_rel_diff``) over the two build
workloads and, for the envelope, the builds that converge on one side only
and the largest relative u0 difference of the builds that converge on both,
up to and beyond sigma sqrt(T) = 0.75, and the count of cases, out of all
70, whose digests agree, with the cases that differ
(``trees bit-identical: k of 70``). Each side is counted in its own
interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from pairs import ROOT, header, largest_rel_diff, parent_checkout, tree_digest

LADDER = (200, (10, 20, 40, 80))
SWEEP = ((5, 10, 15, 20, 50, 100), (5, 10, 20, 50, 100))
ENVELOPE = (50, 10, (0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0), (0.25, 1.0, 2.0, 5.0))
SAFE_SPREAD = 0.75  # largest sigma sqrt(T) at which every envelope build converged


def stall_digest(exc) -> str:
    """sha256 of a stalled build's error message and last grid."""
    h = hashlib.sha256(str(exc).encode())
    h.update(np.asarray(exc.last_grid, dtype=np.float64).tobytes())
    return h.hexdigest()


def count(src: Path) -> dict:
    """Count kernel calls with the package found under ``src``."""
    sys.path.insert(0, str(src))
    from quantbsde import bsde_solver, model, rmq

    real_stats, real_layer = rmq._mixture_stats, rmq._quantize_layer
    per_layer: list = []

    def stats(*args, **kwargs):
        per_layer[-1] += 1
        return real_stats(*args, **kwargs)

    def layer(*args, **kwargs):
        per_layer.append(0)
        return real_layer(*args, **kwargs)

    rmq._mixture_stats, rmq._quantize_layer = stats, layer

    def case(problem, N: int, n: int) -> dict:
        per_layer.clear()
        tree = rmq.build_tree(problem, rmq.TimeGrid(n, problem.T), N)
        later = per_layer[1:]
        return {"N": N, "n": n, "calls": sum(per_layer),
                "later_mean": sum(later) / len(later) if later else None,
                "per_layer": list(per_layer), "u0": bsde_solver.solve(tree, problem).u0,
                "sha256": tree_digest(tree)}

    def default_problem(name: str, T: float | None = None, **params):
        """The model ``name`` at its defaults, with ``T`` and ``params`` replaced."""
        spec = model.MODELS[name]
        return spec.factory(spec.param_type(**{**spec.defaults, **params}),
                            spec.T if T is None else T, spec.y0)

    bs, bergman = default_problem("black-scholes"), default_problem("bergman")

    def envelope_case(sigma: float, T: float) -> dict:
        per_layer.clear()
        problem = default_problem("black-scholes", T, sigma=sigma)
        N, n = ENVELOPE[:2]
        out = {"sigma": sigma, "T": T, "sigma_sqrt_T": sigma * math.sqrt(T)}
        try:
            tree = rmq.build_tree(problem, rmq.TimeGrid(n, T), N)
        except rmq.ConvergenceError as exc:
            return {**out, "converged": False, "stalled_at": exc.step,
                    "calls": sum(per_layer), "u0": None, "sha256": stall_digest(exc)}
        return {**out, "converged": True, "calls": sum(per_layer),
                "u0": bsde_solver.solve(tree, problem).u0, "sha256": tree_digest(tree)}

    N, steps = LADDER
    ladder = [case(bs, N, n) for n in steps]
    sweep = [case(bergman, N, n) for N in SWEEP[0] for n in SWEEP[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rmq.DegenerateDiffusionWarning)
        envelope = [envelope_case(sigma, T) for sigma in ENVELOPE[2] for T in ENVELOPE[3]]
    return {"bs-refine": {"calls": sum(c["calls"] for c in ladder), "cases": ladder},
            "bergman-sweep": {"calls": sum(c["calls"] for c in sweep), "cases": sweep},
            "envelope": {"calls": sum(c["calls"] for c in envelope),
                         "converged": sum(c["converged"] for c in envelope),
                         "cases": envelope}}


def count_in_child(src: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--src", str(src)], check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def u0_agreement(parent: dict, change: dict) -> dict:
    return largest_rel_diff(
        (f"{workload} N={a['N']},n={a['n']}", a["u0"], b["u0"])
        for workload in ("bs-refine", "bergman-sweep")
        for a, b in zip(parent[workload]["cases"], change[workload]["cases"]))


def envelope_agreement(parent: dict, change: dict) -> dict:
    """Envelope builds that converge on one side only, and the largest u0
    difference of those converging on both, up to and beyond SAFE_SPREAD."""
    pairs = list(zip(parent["envelope"]["cases"], change["envelope"]["cases"]))
    label = "sigma={sigma},T={T}".format
    both = [(label(**a), a, b) for a, b in pairs if a["converged"] and b["converged"]]
    return {
        "flips": [f"{label(**a)}: {'converged' if a['converged'] else 'stalled'} -> "
                  f"{'converged' if b['converged'] else 'stalled'}"
                  for a, b in pairs if a["converged"] != b["converged"]],
        "safe": largest_rel_diff((name, a["u0"], b["u0"]) for name, a, b in both
                                 if a["sigma_sqrt_T"] <= SAFE_SPREAD),
        "beyond": largest_rel_diff((name, a["u0"], b["u0"]) for name, a, b in both
                                   if a["sigma_sqrt_T"] > SAFE_SPREAD),
    }


def tree_agreement(parent: dict, change: dict) -> dict:
    """How many cases of the three sets have the same digest on both
    sides, and the labels of those that do not."""
    def label(workload: str, case: dict) -> str:
        if workload == "envelope":
            return f"envelope sigma={case['sigma']},T={case['T']}"
        return f"{workload} N={case['N']},n={case['n']}"

    pairs = [(label(workload, a), a, b)
             for workload in ("bs-refine", "bergman-sweep", "envelope")
             for a, b in zip(parent[workload]["cases"], change[workload]["cases"])]
    differ = [name for name, a, b in pairs if a["sha256"] != b["sha256"]]
    return {"identical": len(pairs) - len(differ), "cases": len(pairs), "differ": differ}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--rev", help="also count on this revision")
    ap.add_argument("--src", help="count with the package under this directory and "
                                  "print the counts as JSON on stdout")
    args = ap.parse_args(argv)
    if args.src:
        json.dump(count(Path(args.src)), sys.stdout)
        return 0
    if not args.out:
        ap.error("--out is required")
    doc = {**header(argv), "counts": count_in_child(ROOT / "src")}
    if args.rev:
        with parent_checkout(args.rev) as (sha, parent_root):
            parent = count_in_child(parent_root / "src")
        doc["parent"] = {"rev": sha, "counts": parent}
        doc["u0_agreement"] = u0_agreement(parent, doc["counts"])
        doc["envelope_agreement"] = envelope_agreement(parent, doc["counts"])
        doc["tree_agreement"] = tree_agreement(parent, doc["counts"])
    for workload, side in doc["counts"].items():
        before = f"{doc['parent']['counts'][workload]['calls']} -> " if args.rev else ""
        print(f"{workload}: {before}{side['calls']} kernel calls", file=sys.stderr)
    converged = doc["counts"]["envelope"]["converged"]
    before = f"{doc['parent']['counts']['envelope']['converged']} -> " if args.rev else ""
    print(f"envelope: {before}{converged} of {len(doc['counts']['envelope']['cases'])} "
          "builds converge", file=sys.stderr)
    if args.rev:
        agreement = doc["envelope_agreement"]
        for flip in agreement["flips"]:
            print(f"envelope flip: {flip}", file=sys.stderr)
        print(f"u0 max rel diff: {doc['u0_agreement']}", file=sys.stderr)
        for side in ("safe", "beyond"):
            print(f"envelope {side} u0 max rel diff: {agreement[side]}", file=sys.stderr)
        trees = doc["tree_agreement"]
        print(f"trees bit-identical: {trees['identical']} of {trees['cases']}", file=sys.stderr)
        for name in trees["differ"]:
            print(f"tree differs: {name}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
