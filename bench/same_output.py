"""Byte-for-byte comparison of the CLI's output with a parent revision's.

    python3 bench/same_output.py --rev HEAD~1

The parent revision ``--rev`` is exported with ``git archive`` into a
temporary directory (``pairs.parent_checkout``); the change side is this
checkout as it stands on disk. On each side every case runs the CLI in a
fresh interpreter, in an empty directory of its own. The cases are the
``quantbsde`` commands of README.md's "Command line" section and its JSON
config example, run through ``solve``, ``sweep`` and ``hedge``; both sides
take them from this checkout's README.

Compared byte for byte: the exit code, stdout, stderr and every file a case
writes (CSV tables, ``.rmq.json`` trees, the sweep's JSON sidecar). The
sidecar is compared with its ``timings_seconds`` removed, since wall-clock
times differ from run to run. Prints one line per case and exits 1 on any
difference. For each JSON file that differs, one more line gives the
largest absolute and the largest relative difference of any number and
the JSON path of each; a relative difference is |a - b| / max(|a|, |b|)
(``pairs.largest_rel_diff``).
Where the two documents differ in anything but their numbers, the line
names the first path at which they do. For each ``.rmq.json`` tree that
differs, one more line says whether both files decode through this
checkout's ``load_tree`` to bit-identical trees and solutions
(``pairs.tree_digest``), so a change of file format alone shows as such.
Where they do not, it also gives the count and the largest differences of
the decoded numbers, transition entries included (``decoded``), as above.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import ROOT, largest_rel_diff, parent_checkout, tree_digest

CONFIG = "run.json"


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="parent revision to compare against")
    args = ap.parse_args(argv)
    differ = 0
    cases = readme_cases()
    with (parent_checkout(args.rev) as (parent_sha, parent_root),
          tempfile.TemporaryDirectory(prefix="same-output-") as tmp):
        for i, (name, case_argv, config) in enumerate(cases):
            workdirs = [Path(tmp) / side / str(i) for side in ("parent", "change")]
            sides = [run_case(root / "src", workdir, case_argv, config)
                     for root, workdir in zip((parent_root, ROOT), workdirs)]
            keys = sorted(set(sides[0]) | set(sides[1]))
            bad = [k for k in keys if sides[0].get(k) != sides[1].get(k)]
            differ += bool(bad)
            print(f"{'DIFF' if bad else 'same'}  {name}"
                  + (f"  ({', '.join(bad)})" if bad else ""))
            for key in bad:
                line = json_diff_line(sides[0].get(key, b""), sides[1].get(key, b""))
                if line is not None:
                    print(f"      {key}: {line}")
                if key.endswith(".rmq.json") and key in sides[0] and key in sides[1]:
                    print(f"      {key}: {tree_line(*(w / key for w in workdirs))}")
    print(f"same_output: {len(cases)} cases against {parent_sha[:12]}, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
