"""Stats-kernel calls per RMQ layer, and the CLI's output, against a parent revision.

    python3 bench/calls.py --out CALLS.json [--rev HEAD~1]

Every call of ``rmq._mixture_stats`` is counted, and attributed to the
layer whose ``rmq._quantize_layer`` is running, by wrapping both functions.
The cases are the bs-refine ladder (Black-Scholes call, N=200,
n = 10, 20, 40, 80) and the 30 cells of the Bergman sweep
(N in 5, 10, 15, 20, 50, 100 and n in 5, 10, 20, 50, 100), each model at
its ``model.MODELS`` defaults, as in ``perfbench/workloads.py``, and one
tree that is not geometric Brownian motion: the Vasicek bond of
``tests/oracles.py`` at N=50, n=20. Each case records its total calls,
the calls of each layer, the mean over the warm-started layers 2..n, its
u0 at full precision, the sha256 of its tree (``pairs.tree_digest``) and
the bytes its transitions store (``stored_bytes``), and each workload the
sums of those, printed as ``<workload>: <parent> -> <change> MiB stored
by transitions``. The other gates compare dense reads, so a change of
storage form shows only there; the stored bytes do not move with where
the heap places things.

A third set, the envelope, holds 36 Black-Scholes builds (the defaults'
r = 0.04, K = 100, y0 = 100) at N=50, n=10 over sigma in 0.1, 0.2, 0.3,
0.5, 0.7, 1, 1.5, 2, 3 and T in 0.25, 1, 2, 5. Each records whether it converged
or stalled (``ConvergenceError``, with the step), its calls, sigma sqrt(T),
its u0 (None when stalled), its stored bytes (0 when stalled) and a
sha256: of its tree, or for a stalled build of the error
message and the last grid (``stall_digest``). Beyond sigma sqrt(T) = 0.75
the Euler chain puts mass on negative prices and some builds stall.

The ladder, the sweep and the Vasicek cell are then built a second time
at ``fixed_point_tol`` = ``TIGHT_TOL`` (1e-11), where u0 no longer
depends on the optimizer's path: at the default 1e-9 a change of path
alone moves Bergman u0 by about 1e-10 relative. These
builds are kept apart (``tight``) and all converge; a stall stops the
script with its ``ConvergenceError``.

The count runs in a fresh interpreter per side. Before it imports
anything else, that interpreter records the three figures of ROADMAP aim 2
(``source``): the lines of ``quantbsde/*.py``, the public names of the
fresh ``import quantbsde`` (those of its ``dir`` without a leading
underscore, as ``tests/test_public_names.py`` reads them) and the fields of
``OptimizerSettings``, printed as ``src: <parent> -> <change> lines, ...
public names, ... settings``. With the count's
wrappers taken off, that interpreter then builds the bs-refine ladder once
more under ``tracemalloc``, one trace per build (``transients``): the
bytes each tree retains and the peak traced above them, the build's
transient workspace. The (200, 80) build's transient is printed as
``bs-refine: <parent> -> <change> MiB build transient (peak above
retained)``. Like the stored bytes, it does not move with where the heap
places things, and the count itself stays untraced, so its counts are as
before. The benchmark's ``peak_rss_mb`` stays the end-to-end memory figure.

With ``--rev`` that revision is exported once with ``git archive`` into a
temporary directory (``pairs.parent_checkout``) and counted the same way,
each side in its own interpreter. One pass over the labelled case pairs
(``agreement``) then gives the largest relative u0 difference
(``pairs.largest_rel_diff``) over the other workloads; the envelope
builds that converge on one side only, and the largest relative u0
difference of those that converge on both, up to and beyond
sigma sqrt(T) = 0.75; and how many of all 71 cases have the same digest on
both sides, with the ones that differ (``trees bit-identical: k of 71``).
The largest relative u0 difference of the two sides' builds at
``TIGHT_TOL`` (``tight_agreement``) is printed as ``u0 at tol 1e-11: max
rel diff <x> (<case>)``.

The CLI is then run on both sides, the change side being this checkout as
it stands on disk: each case in a fresh interpreter, in an empty directory
of its own. The cases are the ``quantbsde`` commands of README.md's
"Command line" section and its JSON config example, run through ``solve``,
``sweep`` and ``hedge``; both sides take them from this checkout's README.
Compared byte for byte: the exit code, stdout, stderr and every file a case
writes (CSV tables, ``.rmq.json`` trees, the sweep's JSON sidecar without
its ``timings_seconds``, since wall-clock times differ from run to run).
One line is printed per case, and the script exits 1 when any case differs.
For each JSON file that differs, one more line gives the count of unequal
numbers and the largest absolute and relative difference, each with its
JSON path; or, where the two documents differ in anything but their
numbers, the first path at which they do. For each ``.rmq.json`` tree that
differs, one more line says whether both files decode through this
checkout's ``load_tree`` to bit-identical trees and solutions
(``pairs.tree_digest``), so a change of file format alone shows as such,
and if not, sizes the difference of the decoded numbers, transition
entries included (``decoded``), in the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
from pairs import ROOT, header, largest_rel_diff, parent_checkout, tree_digest

LADDER = (200, (10, 20, 40, 80))
SWEEP = ((5, 10, 15, 20, 50, 100), (5, 10, 20, 50, 100))
VASICEK = (50, 20, 0.3, 0.05, 0.02, 0.03)  # N, n, a, b, sigma, y0; T = 1
ENVELOPE = (50, 10, (0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0), (0.25, 1.0, 2.0, 5.0))
SAFE_SPREAD = 0.75  # largest sigma sqrt(T) at which every envelope build converged
TIGHT_TOL = 1e-11  # stop rule at which u0 no longer depends on the optimizer's path
CONFIG = "run.json"


def stall_digest(exc) -> str:
    """sha256 of a stalled build's error message and last grid."""
    h = hashlib.sha256(str(exc).encode())
    h.update(np.asarray(exc.last_grid, dtype=np.float64).tobytes())
    return h.hexdigest()


def stored_bytes(tree) -> int:
    """The bytes ``tree``'s transitions store: for one stored as a tuple, the
    ``nbytes`` of every array in it (its mask and its nonzero entries); for
    any other, its K x N doubles."""
    total = 0
    for tr in tree.transitions:
        stored = getattr(tr, "_stored", None)
        if isinstance(stored, tuple):
            total += sum(a.nbytes for a in stored if isinstance(a, np.ndarray))
        else:
            total += 8 * tr.entries.size
    return total


def source(src: Path) -> dict:
    """The lines of ``src``'s ``quantbsde/*.py`` (newlines, as ``wc -l``
    counts them), the public names of ``quantbsde`` imported from ``src``
    and the fields of its ``OptimizerSettings``; the names are those of a
    fresh import only in an interpreter that has not imported the package."""
    sys.path.insert(0, str(src))
    import quantbsde

    files = sorted((src / "quantbsde").glob("*.py"))
    return {"lines": sum(path.read_bytes().count(b"\n") for path in files),
            "public_names": sum(not name.startswith("_") for name in dir(quantbsde)),
            "settings": len(dataclasses.fields(quantbsde.OptimizerSettings))}


def count(src: Path) -> tuple[dict, dict, list]:
    """Count kernel calls with the package found under ``src``; return the
    counts, the cases built again at ``TIGHT_TOL`` per workload but the
    envelope, and, untraced by the count, the bs-refine ladder's
    ``transients``."""
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

    def case(problem, N: int, n: int, settings=None) -> dict:
        per_layer.clear()
        tree = rmq.build_tree(problem, rmq.TimeGrid(n, problem.T), N, settings)
        later = per_layer[1:]
        return {"N": N, "n": n, "calls": sum(per_layer),
                "later_mean": sum(later) / len(later) if later else None,
                "per_layer": list(per_layer), "u0": bsde_solver.solve(tree, problem).u0,
                "sha256": tree_digest(tree), "stored_bytes": stored_bytes(tree)}

    def default_problem(name: str, T: float | None = None, **params):
        """The model ``name`` at its defaults, with ``T`` and ``params`` replaced."""
        spec = model.MODELS[name]
        return spec.factory(spec.param_type(**{**spec.defaults, **params}),
                            spec.T if T is None else T, spec.y0)

    bs, bergman = default_problem("black-scholes"), default_problem("bergman")
    a, b, sigma, y0 = VASICEK[2:]
    vasicek = model.FbsdeProblem(
        drift=lambda y: a * (b - y), diffusion=lambda y: sigma,
        driver=lambda t, y, u, v: -y * u, terminal=lambda y: 1.0,
        T=1.0, y0=y0, diffusion_floor=1e-10)

    def envelope_case(sigma: float, T: float) -> dict:
        per_layer.clear()
        problem = default_problem("black-scholes", T, sigma=sigma)
        N, n = ENVELOPE[:2]
        out = {"sigma": sigma, "T": T, "sigma_sqrt_T": sigma * math.sqrt(T)}
        try:
            tree = rmq.build_tree(problem, rmq.TimeGrid(n, T), N)
        except rmq.ConvergenceError as exc:
            return {**out, "converged": False, "stalled_at": exc.step,
                    "calls": sum(per_layer), "u0": None, "sha256": stall_digest(exc),
                    "stored_bytes": 0}
        return {**out, "converged": True, "calls": sum(per_layer),
                "u0": bsde_solver.solve(tree, problem).u0, "sha256": tree_digest(tree),
                "stored_bytes": stored_bytes(tree)}

    N, steps = LADDER
    cells = {"bs-refine": [(bs, N, n) for n in steps],
             "bergman-sweep": [(bergman, N, n) for N in SWEEP[0] for n in SWEEP[1]],
             "vasicek": [(vasicek, *VASICEK[:2])]}
    built = {workload: [case(*cell) for cell in cs] for workload, cs in cells.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rmq.DegenerateDiffusionWarning)
        envelope = [envelope_case(sigma, T) for sigma in ENVELOPE[2] for T in ENVELOPE[3]]

    def totals(cases: list) -> dict:
        return {"calls": sum(c["calls"] for c in cases),
                "stored_bytes": sum(c["stored_bytes"] for c in cases), "cases": cases}

    tight = rmq.OptimizerSettings(fixed_point_tol=TIGHT_TOL)
    counts = {**{workload: totals(cases) for workload, cases in built.items()},
              "envelope": {**totals(envelope),
                           "converged": sum(c["converged"] for c in envelope)}}
    tight_cases = {workload: [case(*cell, tight) for cell in cs]
                   for workload, cs in cells.items()}
    rmq._mixture_stats, rmq._quantize_layer = real_stats, real_layer
    return counts, tight_cases, transients(bs, *LADDER)


def transients(problem, N: int, steps) -> list:
    """Build ``problem``'s trees at ``N`` and each n of ``steps``, each build
    traced on its own by ``tracemalloc``; return, per build, the bytes its
    tree retains and the peak traced above them."""
    from quantbsde import rmq

    out = []
    for n in steps:
        tracemalloc.start()
        try:
            tree = rmq.build_tree(problem, rmq.TimeGrid(n, problem.T), N)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del tree
        out.append({"N": N, "n": n, "retained_bytes": retained,
                    "transient_bytes": peak - retained})
    return out


def count_in_child(src: Path) -> dict:
    """``source(src)`` and ``count(src)`` in a fresh interpreter, as
    ``source``, ``counts``, ``tight`` and ``transients``."""
    proc = subprocess.run([sys.executable, __file__, "--src", str(src)], check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def agreement(parent: dict, change: dict) -> dict:
    """The u0, envelope and tree agreement of the two sides' counts (module
    docstring), from one pass over the labelled case pairs."""
    u0, safe, beyond, flips, differ = [], [], [], [], []
    state = {True: "converged", False: "stalled"}
    for workload, side in change.items():
        for a, b in zip(parent[workload]["cases"], side["cases"]):
            if workload != "envelope":
                label = "N={N},n={n}".format(**a)
                u0.append((f"{workload} {label}", a["u0"], b["u0"]))
            else:
                label = "sigma={sigma},T={T}".format(**a)
                if a["converged"] != b["converged"]:
                    flips.append(f"{label}: {state[a['converged']]} -> {state[b['converged']]}")
                elif a["converged"]:
                    near = a["sigma_sqrt_T"] <= SAFE_SPREAD
                    (safe if near else beyond).append((label, a["u0"], b["u0"]))
            if a["sha256"] != b["sha256"]:
                differ.append(f"{workload} {label}")
    cases = sum(len(side["cases"]) for side in change.values())
    return {"u0_agreement": largest_rel_diff(u0),
            "envelope_agreement": {"flips": flips, "safe": largest_rel_diff(safe),
                                   "beyond": largest_rel_diff(beyond)},
            "tree_agreement": {"identical": cases - len(differ), "cases": cases,
                               "differ": differ}}


def tight_agreement(parent: dict, change: dict) -> dict:
    """The largest relative u0 difference between the two sides' builds at
    ``TIGHT_TOL``, each ``{workload: cases}`` (``pairs.largest_rel_diff``)."""
    return largest_rel_diff((f"{workload} N={a['N']},n={a['n']}", a["u0"], b["u0"])
                            for workload, cases in change.items()
                            for a, b in zip(parent[workload], cases))


def readme_cases() -> list:
    """(name, argv, config text or None) for each README command."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    section = section[: section.index("\n## ", 1)]
    cases = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.DOTALL):
        for line in block.splitlines():
            if line.startswith("quantbsde ") and "--config" not in line:
                argv = shlex.split(line)[1:]
                cases.append((" ".join(argv), argv, None))
    config = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    for command in ("solve", "sweep", "hedge"):
        argv = [command, "--config", CONFIG]
        cases.append((" ".join(argv), argv, config))
    return cases


def run_case(src: Path, workdir: Path, argv: list, config: str | None) -> dict:
    """Run one case with the package under ``src``; return what it left."""
    workdir.mkdir(parents=True)
    if config is not None:
        (workdir / CONFIG).write_text(config, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-c", "from quantbsde.cli import entry; entry()", *argv],
        cwd=workdir, env=env, capture_output=True)
    out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
           "stderr": proc.stderr}
    for path in sorted(workdir.iterdir()):
        if path.name != CONFIG:
            out[path.name] = comparable(path.read_bytes())
    return out


def comparable(data: bytes) -> bytes:
    """The file's bytes, or for a sweep sidecar its bytes without the timings."""
    try:
        doc = json.loads(data)
    except (UnicodeDecodeError, ValueError):
        return data
    if not (isinstance(doc, dict) and "timings_seconds" in doc):
        return data
    del doc["timings_seconds"]
    return json.dumps(doc, indent=2).encode()


def number_diffs(a, b, path: str = "$"):
    """(path, a, b) for each pair of unequal numbers of two JSON documents;
    ValueError naming the first path at which they differ in anything else."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from number_diffs(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from number_diffs(x, y, f"{path}[{i}]")
    elif {type(a), type(b)} <= {int, float}:
        if a != b:
            yield path, a, b
    elif a != b:
        raise ValueError(f"documents differ beyond their numbers at {path}")


def json_diff_line(a: bytes, b: bytes) -> str | None:
    """The largest differences between two JSON files, or None if either is
    not JSON."""
    try:
        docs = json.loads(a), json.loads(b)
    except (UnicodeDecodeError, ValueError):
        return None
    return diff_summary(*docs)


def diff_summary(a, b) -> str:
    """The count of unequal numbers of two JSON-like documents and the
    largest absolute and relative differences, each with its path; or the
    first path at which they differ in anything else."""
    try:
        diffs = list(number_diffs(a, b))
    except ValueError as exc:
        return str(exc)
    if not diffs:
        return "numbers equal; the text differs"
    at, a, b = max(diffs, key=lambda d: abs(d[1] - d[2]))
    worst_rel = largest_rel_diff(diffs)
    return (f"{len(diffs)} numbers differ; largest absolute {abs(a - b):.3g} at {at}, "
            f"largest relative {worst_rel['max_rel_diff']:.3g} at {worst_rel['at']}")


def decoded(tree, solution) -> dict:
    """A loaded tree and solution as one JSON-like document whose
    transitions are their entries as nested lists, for ``number_diffs``."""
    return {"time_grid": [tree.time_grid.n, tree.time_grid.T],
            "layers": [{"step": la.step, "codewords": la.codewords.tolist(),
                        "weights": la.weights.tolist(), "distortion": la.distortion}
                       for la in tree.layers],
            "transitions": [tr.entries.tolist() for tr in tree.transitions],
            "solution": solution}


def tree_line(a: Path, b: Path) -> str:
    """Whether two tree files decode through this checkout's ``load_tree``
    to bit-identical trees and solutions, and if not, by how much."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from quantbsde.rmq import load_tree

    try:
        loaded = [load_tree(path) for path in (a, b)]
    except ValueError as exc:
        return f"does not load: {exc}"
    if tree_digest(*loaded[0]) == tree_digest(*loaded[1]):
        return "decodes to bit-identical trees and solutions"
    summary = diff_summary(decoded(*loaded[0]), decoded(*loaded[1]))
    return f"decodes to different trees or solutions: {summary}"


def same_output(sha: str, parent_root: Path) -> dict:
    """Run the README cases on both sides and print how they compare; return
    the count of cases and the names of those that differ."""
    cases, differ = readme_cases(), []
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        for i, (name, case_argv, config) in enumerate(cases):
            workdirs = [Path(tmp) / side / str(i) for side in ("parent", "change")]
            sides = [run_case(root / "src", workdir, case_argv, config)
                     for root, workdir in zip((parent_root, ROOT), workdirs)]
            keys = sorted(set(sides[0]) | set(sides[1]))
            bad = [k for k in keys if sides[0].get(k) != sides[1].get(k)]
            differ += [name] if bad else []
            print(f"{'DIFF' if bad else 'same'}  {name}"
                  + (f"  ({', '.join(bad)})" if bad else ""))
            for key in bad:
                line = json_diff_line(sides[0].get(key, b""), sides[1].get(key, b""))
                if line is not None:
                    print(f"      {key}: {line}")
                if key.endswith(".rmq.json") and key in sides[0] and key in sides[1]:
                    print(f"      {key}: {tree_line(*(w / key for w in workdirs))}")
    print(f"same_output: {len(cases)} cases against {sha[:12]}, {len(differ)} differ")
    return {"cases": len(cases), "differ": differ}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--rev", help="also count, and run the CLI, on this revision")
    ap.add_argument("--src", help="count with the package under this directory and "
                                  "print the counts as JSON on stdout")
    args = ap.parse_args(argv)
    if args.src:
        src = source(Path(args.src))  # before count imports the rest of the package
        counts, tight, traced = count(Path(args.src))
        json.dump({"source": src, "counts": counts, "tight": tight, "transients": traced},
                  sys.stdout)
        return 0
    if not args.out:
        ap.error("--out is required")
    doc = {**header(argv), "tight_tol": TIGHT_TOL, **count_in_child(ROOT / "src")}
    if args.rev:
        with parent_checkout(args.rev) as (sha, parent_root):
            doc["parent"] = {"rev": sha, **count_in_child(parent_root / "src")}
            cli = same_output(sha, parent_root)
        doc.update(agreement(doc["parent"]["counts"], doc["counts"]), cli=cli,
                   tight_agreement=tight_agreement(doc["parent"]["tight"], doc["tight"]))
    figures = []
    for key in ("lines", "public_names", "settings"):
        before = f"{doc['parent']['source'][key]} -> " if args.rev else ""
        figures.append(f"{before}{doc['source'][key]} {key.replace('_', ' ')}")
    print(f"src: {', '.join(figures)}", file=sys.stderr)
    transient = doc["transients"][-1]["transient_bytes"]
    before = (f"{doc['parent']['transients'][-1]['transient_bytes'] / 2**20:.2f} -> "
              if args.rev else "")
    print(f"bs-refine: {before}{transient / 2**20:.2f} MiB build transient "
          "(peak above retained)", file=sys.stderr)
    for workload, side in doc["counts"].items():
        before = f"{doc['parent']['counts'][workload]['calls']} -> " if args.rev else ""
        print(f"{workload}: {before}{side['calls']} kernel calls", file=sys.stderr)
        before = (f"{doc['parent']['counts'][workload]['stored_bytes'] / 2**20:.2f} -> "
                  if args.rev else "")
        print(f"{workload}: {before}{side['stored_bytes'] / 2**20:.2f} MiB stored by "
              "transitions", file=sys.stderr)
    converged = doc["counts"]["envelope"]["converged"]
    before = f"{doc['parent']['counts']['envelope']['converged']} -> " if args.rev else ""
    print(f"envelope: {before}{converged} of {len(doc['counts']['envelope']['cases'])} "
          "builds converge", file=sys.stderr)
    if args.rev:
        envelope = doc["envelope_agreement"]
        for flip in envelope["flips"]:
            print(f"envelope flip: {flip}", file=sys.stderr)
        print(f"u0 max rel diff: {doc['u0_agreement']}", file=sys.stderr)
        tight = doc["tight_agreement"]
        print(f"u0 at tol {TIGHT_TOL:g}: max rel diff {tight['max_rel_diff']} ({tight['at']})",
              file=sys.stderr)
        for side in ("safe", "beyond"):
            print(f"envelope {side} u0 max rel diff: {envelope[side]}", file=sys.stderr)
        trees = doc["tree_agreement"]
        print(f"trees bit-identical: {trees['identical']} of {trees['cases']}", file=sys.stderr)
        for name in trees["differ"]:
            print(f"tree differs: {name}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 1 if args.rev and doc["cli"]["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
