"""Time and hash the ``.rmq.json`` artifact of the cli workload's big solve.

    python3 bench/artifact.py --out ARTIFACT.json [--rev HEAD~1]

The case is ``quantbsde solve --steps 50 --quantizers 100 --output ...``:
the CLI's default Black-Scholes problem, built as a (N=100, n=50) tree and
solved, then written with ``rmq.save_tree`` together with its solution. In
one interpreter the tree is built and solved once, ``save_tree`` is timed
REPEATS times in process (``time.perf_counter``), and then ``load_tree``
reads the file back REPEATS times; the medians are the per-stage "artifact
I/O" times beside the benchmark's end-to-end one. The interpreter also
records its VmHWM (peak resident memory) right before the first save and
after the last, and the artifact's size and sha256.

With ``--rev`` the same is done with that revision's package, exported with
``git archive`` into a temporary directory as ``bench/pairs.py`` does. Each
of ROUNDS rounds runs one interpreter per side, and the side that runs
first alternates from round to round. Every artifact is then decoded
through this checkout's ``load_tree`` and hashed (``tree_sha256``: the
arrays' bytes and the solution's JSON text), so ``same_tree`` says whether
all of them hold bit-identical trees and solutions, whatever their format.
A file that this checkout cannot decode (a format version it does not read)
records ``tree_sha256`` null and the reader's message as ``tree_error``,
and makes ``same_tree`` false.
The script exits 1 if any two artifacts differ in sha256 (``same_bytes``),
so a writer change that alters the file shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import ROOT, export, git

STEPS, QUANTIZERS = 50, 100
REPEATS, ROUNDS = 7, 2  # timed saves per interpreter, interpreters per side


def vmhwm_kb() -> int:
    """VmHWM of this process (``ru_maxrss`` would carry a vfork parent's)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def measure(src: Path, path: Path) -> dict:
    """Build, solve, save to ``path`` and load the case with the package
    under ``src``."""
    sys.path.insert(0, str(src))
    from quantbsde import bsde_solver, model, rmq

    spec = model.MODELS["black-scholes"]
    problem = spec.factory(spec.param_type(**spec.defaults), spec.T, spec.y0)
    tree = rmq.build_tree(problem, rmq.TimeGrid(STEPS, problem.T), QUANTIZERS)
    sol = bsde_solver.solve(tree, problem)
    before = vmhwm_kb()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        rmq.save_tree(tree, path, solution=sol)
        times.append(time.perf_counter() - t0)
    after = vmhwm_kb()  # before the file is read back
    load_times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        rmq.load_tree(path)
        load_times.append(time.perf_counter() - t0)
    data = path.read_bytes()
    return {"save_s": statistics.median(times), "save_s_runs": times,
            "load_s": statistics.median(load_times), "load_s_runs": load_times,
            "vmhwm_kb_before_save": before, "vmhwm_kb_after_save": after,
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
            "u0": sol.u0}


def measure_in_child(src: Path, path: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--src", str(src), "--path", str(path)],
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def tree_sha256(path: Path) -> str:
    """sha256 of the tree and solution that this checkout's ``load_tree``
    decodes from ``path``: every array's bytes and the solution's JSON text."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from quantbsde.rmq import load_tree

    tree, solution = load_tree(path)
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--rev", help="also measure this revision")
    ap.add_argument("--src", help="measure with the package under this directory and "
                                  "print the result as JSON on stdout")
    ap.add_argument("--path", help="with --src: the artifact file to write")
    args = ap.parse_args(argv)
    if args.src:
        json.dump(measure(Path(args.src), Path(args.path)), sys.stdout)
        return 0
    if not args.out:
        ap.error("--out is required")
    doc = {"command": [Path(sys.argv[0]).name, *(argv if argv is not None else sys.argv[1:])],
           "case": {"model": "black-scholes", "steps": STEPS, "quantizers": QUANTIZERS,
                    "solution": True},
           "change": {"head": git("rev-parse", "HEAD"),
                      "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
           "python": platform.python_version(),
           "repeats": REPEATS}
    with tempfile.TemporaryDirectory(prefix="artifact-parent-") as tmp:
        sides = {"change": ROOT / "src"}
        if args.rev:
            doc["parent"] = {"rev": git("rev-parse", args.rev)}
            export(doc["parent"]["rev"], Path(tmp))
            sides = {"parent": Path(tmp) / "src", **sides}
        runs = {side: [] for side in sides}
        for i in range(ROUNDS):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                path = Path(tmp) / f"{side}-{i}.rmq.json"
                runs[side].append(measure_in_child(sides[side], path))
                try:
                    runs[side][-1]["tree_sha256"] = tree_sha256(path)
                except ValueError as exc:
                    runs[side][-1].update(tree_sha256=None, tree_error=str(exc))
                path.unlink()
    for side, rounds in runs.items():
        doc.setdefault(side, {})["rounds"] = rounds
        print(f"{side}: save_s " + ", ".join(f"{r['save_s']:.3f}" for r in rounds)
              + "; load_s " + ", ".join(f"{r['load_s']:.3f}" for r in rounds)
              + f"; VmHWM {rounds[0]['vmhwm_kb_before_save'] / 1024:.1f} -> "
              + ", ".join(f"{r['vmhwm_kb_after_save'] / 1024:.1f}" for r in rounds)
              + f" MB; sha256 {rounds[0]['sha256'][:16]}"
              + f"; tree_sha256 {str(rounds[0]['tree_sha256'])[:16]}", file=sys.stderr)
    every = [r for rounds in runs.values() for r in rounds]
    doc["same_bytes"] = len({r["sha256"] for r in every}) == 1
    trees = {r["tree_sha256"] for r in every}
    doc["same_tree"] = len(trees) == 1 and None not in trees
    print(f"same_bytes {doc['same_bytes']}, same_tree {doc['same_tree']}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if not doc["same_bytes"]:
        print("artifacts differ in sha256", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
