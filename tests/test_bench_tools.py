"""The helpers of the ``bench/`` gate scripts; only the change side's
export runs git, on a repository of its own in a temporary directory.

The scripts are loaded by path, as they are run; ``calls`` imports
``pairs`` by that name. Only ``calls.source`` runs in a fresh interpreter,
as the count's child runs it.
"""

import dataclasses
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from quantbsde import rmq
from quantbsde.bsde_solver import solve
from quantbsde.model import MODELS
from quantbsde.rmq import QuantizationTree, TimeGrid, build_tree, load_tree, save_tree

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


pairs = load("pairs")
calls = load("calls")

PARENT = {"median": 1.0, "q1": 0.95, "q3": 1.05}


@pytest.mark.parametrize("wins, change, parent, expected", [
    (10, 0.8, PARENT, "gain"),
    (8, 0.8, PARENT, "flat"),  # better by more than the spread, but 8 of 10 pairs
    (0, 1.3, PARENT, "regression"),
    (5, 1.0, {"median": 1.0, "q1": 0.7, "q3": 1.3}, "unresolved"),
    (5, 1.02, PARENT, "flat"),
    # a deterministic metric: a 2e-13 relative move is rounding, a 1e-6 move is a gain
    (10, 0.008589963375584375, {"median": 0.008589963375586152, "q1": 0.008589963375586152,
                                "q3": 0.008589963375586152}, "flat"),
    (10, 1.0 - 1e-6, {"median": 1.0, "q1": 1.0, "q3": 1.0}, "gain"),
])
def test_verdict(wins, change, parent, expected):
    assert pairs.verdict("lower", 0.25, wins, 10, parent,
                         {"median": change, "q1": change, "q3": change}) == expected


def test_verdict_where_higher_is_better():
    low = {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert pairs.verdict("higher", 0.01, 0, 10, PARENT, low) == "regression"
    assert pairs.verdict("higher", 0.01, 10, 10, low, PARENT) == "gain"


def test_paired_ratio_is_the_median_over_pairs_of_change_over_parent():
    # three pairs, the sides run in either order: the ratios are 1.1, 0.9
    # and 1.05, while the medians alone (2.0 and 1.8) would read 0.9, and the
    # parent's spread leaves the verdict unresolved
    times = [("parent", 1.0), ("change", 1.1), ("change", 1.8), ("parent", 2.0),
             ("parent", 4.0), ("change", 4.2)]
    runs = [{"side": side, "metrics": {"run_s": t, "ok_ratio": 1.0}} for side, t in times]
    summary = pairs.summarize(runs, {"run_s": "lower", "ok_ratio": "higher"},
                              {"run_s": 0.25, "ok_ratio": 0.01})
    assert summary["run_s"]["paired_ratio"] == pytest.approx(1.05, rel=1e-12)
    assert summary["run_s"]["wins"] == 1
    assert summary["ok_ratio"]["paired_ratio"] == 1.0
    assert pairs.verdict_line("bs-refine", "run_s", summary["run_s"]) == (
        "bs-refine run_s: unresolved (parent 2 [1, 4], change 1.8, paired ratio 1.05, "
        "1/3 pairs won, bound 0.25)")
    assert pairs.ratio(0.0, 0.0) == 1.0 and pairs.ratio(1.0, 0.0) == math.inf


def test_largest_rel_diff():
    assert pairs.largest_rel_diff([("zero", 0.0, 0.0)]) == {"max_rel_diff": 0.0, "at": "zero"}
    assert pairs.largest_rel_diff([("zero", 0.0, 0.0), ("half", -2.0, -1.0)]) == {
        "max_rel_diff": 0.5, "at": "half"}
    assert pairs.largest_rel_diff([]) == {"max_rel_diff": 0.0, "at": None}


def test_parse_args_rejects_fewer_than_two_pairs(capsys):
    with pytest.raises(SystemExit) as exc:
        pairs.parse_args(["--rev", "HEAD", "--pairs", "1", "--out", "unused.json"])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_change_export_holds_what_git_lists_as_it_is_on_disk(tmp_path):
    # a tracked file edited on disk, a new file, an ignored one, and a tracked
    # file deleted from disk, which the export skips
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "src" / "kept.py").write_text("old\n")
    (repo / "gone.py").write_text("gone\n")
    for argv in (["init", "-q"], ["add", "."]):
        subprocess.run(["git", *argv], cwd=repo, check=True, capture_output=True)
    (repo / "src" / "kept.py").write_text("edited\n")
    (repo / "new.py").write_text("new\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()
    git_files = {p: p.read_bytes() for p in (repo / ".git").rglob("*") if p.is_file()}
    with pairs.change_checkout(repo) as out:
        exported = {p.relative_to(out).as_posix(): p.read_text()
                    for p in out.rglob("*") if p.is_file()}
    assert exported == {".gitignore": "*.log\n", "src/kept.py": "edited\n", "new.py": "new\n"}
    assert out.name.startswith("bench-change-") and not out.exists()
    assert {p: p.read_bytes() for p in (repo / ".git").rglob("*") if p.is_file()} == git_files


def test_tree_digest_survives_a_round_trip_and_sees_the_solution(tmp_path):
    spec = MODELS["black-scholes"]
    problem = spec.factory(spec.param_type(**spec.defaults), spec.T, spec.y0)
    tree = build_tree(problem, TimeGrid(3, problem.T), 4)
    sol = solve(tree, problem)
    path = tmp_path / "run.rmq.json"
    save_tree(tree, path, solution=sol)
    loaded, solution = load_tree(path)
    in_memory = {"u0": sol.u0, "values": [vl.values.tolist() for vl in sol.value_layers],
                 "controls": [cl.controls.tolist() for cl in sol.control_layers]}
    assert pairs.tree_digest(loaded) == pairs.tree_digest(tree)
    assert pairs.tree_digest(loaded, solution) == pairs.tree_digest(tree, in_memory)
    solution["values"][1][0] += 1.0
    assert pairs.tree_digest(loaded, solution) != pairs.tree_digest(tree, in_memory)


def test_stored_bytes_counts_the_mask_and_nonzeros_or_every_double():
    # np.eye(4): a 2-byte mask and 4 doubles; stored dense, or on a revision
    # with no _stored, its 16 doubles
    stored = rmq.TransitionMatrix(0, np.eye(4))
    dense = SimpleNamespace(_stored=np.eye(4), entries=np.eye(4))
    older = SimpleNamespace(entries=np.eye(4))
    assert calls.stored_bytes(SimpleNamespace(transitions=[stored])) == 2 + 4 * 8
    assert calls.stored_bytes(SimpleNamespace(transitions=[stored, dense, older])) == (
        34 + 2 * 16 * 8)


def test_transients_traces_each_build_of_the_ladder():
    spec = MODELS["black-scholes"]
    problem = spec.factory(spec.param_type(**spec.defaults), spec.T, spec.y0)
    traced = calls.transients(problem, 20, (2, 4))
    assert [(t["N"], t["n"]) for t in traced] == [(20, 2), (20, 4)]
    assert all(t["retained_bytes"] > 0 and t["transient_bytes"] > 0 for t in traced)
    assert traced[0]["retained_bytes"] < traced[1]["retained_bytes"]


def test_number_diffs_yields_unequal_numbers_then_names_the_first_other_mismatch():
    a = {"x": [1, 2.0], "y": "a", "z": [1]}
    b = {"x": [1, 2.5], "y": "b", "z": []}
    diffs = calls.number_diffs(a, b)
    assert next(diffs) == ("$.x[1]", 2.0, 2.5)
    with pytest.raises(ValueError, match=r"differ beyond their numbers at \$\.y$"):
        next(diffs)


def test_tree_line_sizes_the_difference_of_two_trees(tmp_path):
    spec = MODELS["black-scholes"]
    problem = spec.factory(spec.param_type(**spec.defaults), spec.T, spec.y0)
    tree = build_tree(problem, TimeGrid(3, problem.T), 4)
    bare, solved, moved = (tmp_path / f"{name}.rmq.json" for name in ("bare", "solved", "moved"))
    save_tree(tree, bare)
    save_tree(tree, solved, solution=solve(tree, problem))
    assert calls.tree_line(bare, bare) == "decodes to bit-identical trees and solutions"
    edited = tree.transitions[1].entries.copy()
    edited[0, 1] += 1e-12  # the row still sums to 1 within 1e-10
    transitions = list(tree.transitions)
    transitions[1] = dataclasses.replace(transitions[1], entries=edited)
    save_tree(QuantizationTree(tree.time_grid, tree.layers, transitions), moved)
    assert calls.tree_line(solved, moved) == (
        "decodes to different trees or solutions: "
        "documents differ beyond their numbers at $.solution")
    assert calls.tree_line(bare, moved).startswith(
        "decodes to different trees or solutions: 1 numbers differ; "
        "largest absolute 1e-12 at $.transitions[1][0][1], largest relative ")


def test_readme_cases_are_the_four_flag_commands_and_the_three_config_runs():
    cases = calls.readme_cases()
    assert [config is None for _, _, config in cases] == [True] * 4 + [False] * 3
    assert [name for name, _, _ in cases[4:]] == [
        "solve --config run.json", "sweep --config run.json", "hedge --config run.json"]


def test_agreement_reports_the_flip_the_differing_digests_and_the_u0_move():
    def side(bs_u0, bergman_sha, stalled):
        wide = {"sigma": 1.0, "T": 2.0, "sigma_sqrt_T": 2 ** 0.5, "converged": True,
                "u0": 59.5, "sha256": "wide"}
        if stalled:
            wide.update(converged=False, u0=None, sha256="stall")
        return {
            "bs-refine": {"cases": [{"N": 200, "n": 10, "u0": bs_u0, "sha256": "bs"}]},
            "bergman-sweep": {"cases": [{"N": 5, "n": 5, "u0": 3.0, "sha256": bergman_sha}]},
            "envelope": {"cases": [{"sigma": 0.2, "T": 1.0, "sigma_sqrt_T": 0.2,
                                    "converged": True, "u0": 9.0, "sha256": "safe"}, wide]},
        }

    assert calls.agreement(side(8.0, "b", False), side(8.5, "b2", True)) == {
        "u0_agreement": {"max_rel_diff": 0.5 / 8.5, "at": "bs-refine N=200,n=10"},
        "envelope_agreement": {
            "flips": ["sigma=1.0,T=2.0: converged -> stalled"],
            "safe": {"max_rel_diff": 0.0, "at": "sigma=0.2,T=1.0"},
            "beyond": {"max_rel_diff": 0.0, "at": None}},
        "tree_agreement": {"identical": 2, "cases": 4,
                           "differ": ["bergman-sweep N=5,n=5", "envelope sigma=1.0,T=2.0"]},
    }


def test_tight_agreement_is_the_largest_u0_move_at_the_tight_tolerance():
    def side(bergman_u0):
        return {"bs-refine": [{"N": 200, "n": 10, "u0": 11.8}],
                "bergman-sweep": [{"N": 5, "n": 5, "u0": 3.0},
                                  {"N": 5, "n": 10, "u0": bergman_u0}],
                "vasicek": [{"N": 50, "n": 20, "u0": 0.97}]}

    assert calls.TIGHT_TOL == 1e-11
    assert calls.tight_agreement(side(2.5), side(2.5)) == {
        "max_rel_diff": 0.0, "at": "bs-refine N=200,n=10"}
    assert calls.tight_agreement(side(2.0), side(2.5)) == {
        "max_rel_diff": 0.5 / 2.5, "at": "bergman-sweep N=5,n=10"}


def test_source_counts_the_lines_public_names_and_settings_of_this_checkout():
    # a fresh interpreter: here a submodule that another test imports
    # (quantbsde.cli) would be one more public name
    src = BENCH.with_name("src")
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import calls; print(json.dumps(calls.source(Path(sys.argv[2]))))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), str(src)],
                          capture_output=True, text=True, check=True)
    lines = sum(len(path.read_text().splitlines()) for path in src.glob("quantbsde/*.py"))
    assert json.loads(proc.stdout) == {"lines": lines, "public_names": 44, "settings": 2}
