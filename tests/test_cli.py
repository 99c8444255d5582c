"""Command-line behaviour, exercised in-process through cli.main.

Only the console-script checks run the CLI, or import the package, in a
fresh interpreter.
"""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import quantbsde
from quantbsde import load_tree
from quantbsde.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_dict(out):
    pairs = [line.split("=", 1) for line in out.strip().splitlines() if "=" in line]
    return {k: v for k, v in pairs}


@pytest.fixture
def builds(monkeypatch):
    """The calls made to ``rmq.build_tree``, which is replaced by a failure."""
    calls = []

    def build_tree(*args, **kwargs):
        calls.append(args)
        raise AssertionError("build_tree was called")

    monkeypatch.setattr(quantbsde.rmq, "build_tree", build_tree)
    return calls


class TestSolve:
    def test_default_call_model(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--steps", "20", "--quantizers", "50")
        assert code == 0
        kv = stdout_dict(out)
        assert kv["u0"] == "11.8058"
        assert re.fullmatch(r"-?\d+\.\d{4}", kv["v0"])
        assert err == ""

    def test_output_artifact_holds_tree_and_solution(self, capsys, tmp_path):
        out_path = tmp_path / "run.rmq.json"
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--steps",
            "6",
            "--quantizers",
            "10",
            "--output",
            str(out_path),
        )
        assert code == 0
        assert stdout_dict(out)["output"] == str(out_path)
        tree, solution = load_tree(out_path)
        assert tree.time_grid.n == 6
        assert len(tree.layers) == 7
        assert solution is not None
        assert f"{solution['u0']:.4f}" == stdout_dict(out)["u0"]
        assert len(solution["values"]) == 7
        assert len(solution["controls"]) == 6
        assert len(solution["values"][3]) == 10

    def test_nonlinear_model_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--model", "bergman", "--steps", "10", "--quantizers", "10"
        )
        assert code == 0
        assert re.fullmatch(r"-?\d+\.\d{4}", stdout_dict(out)["u0"])

    def test_config_file_drives_the_run(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "bergman", "steps": 4, "quantizers": 5}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert "u0=" in out

    @pytest.mark.parametrize("iterations", [200.0, "200"])
    def test_integer_like_max_iterations_runs(self, capsys, tmp_path, iterations):
        cfg = tmp_path / "run.json"
        settings = {"steps": 3, "quantizers": 4, "optimizer": {"max_iterations": iterations}}
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0, err
        assert "u0=" in out

    def test_flag_overrides_config_output(self, capsys, tmp_path):
        cfg_out = tmp_path / "from_config.json"
        flag_out = tmp_path / "from_flag.json"
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"model": "bergman", "steps": 3, "quantizers": 4, "output": str(cfg_out)}
            )
        )
        code, _, _ = run_cli(
            capsys, "solve", "--config", str(cfg), "--output", str(flag_out)
        )
        assert code == 0
        assert flag_out.exists()
        assert not cfg_out.exists()

    def test_unwritable_output_prints_nothing(self, capsys, tmp_path, builds):
        out_path = tmp_path / "absent" / "run.rmq.json"
        code, out, err = run_cli(
            capsys,
            "solve",
            "--steps",
            "3",
            "--quantizers",
            "4",
            "--output",
            str(out_path),
        )
        assert builds == []  # the missing folder is found before the build
        assert code == 1
        assert out == ""
        assert err == (
            f"error: FileNotFoundError: [Errno 2] No such file or directory: '{out_path}'\n"
        )

    def test_stalled_optimizer_names_its_layer(self, capsys, tmp_path):
        cfg = tmp_path / "stall.json"
        cfg.write_text(
            json.dumps({"optimizer": {"max_iterations": 1, "fixed_point_tol": 1e-12}})
        )
        code, out, err = run_cli(
            capsys, "solve", "--config", str(cfg), "--steps", "3", "--quantizers", "5"
        )
        assert code == 1
        assert "u0=" not in out
        assert err.startswith("error: ConvergenceError:")
        assert "step 1" in err


class TestSweep:
    def test_small_grid_writes_csv_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--model",
            "bergman",
            "--quantizers",
            "5,8",
            "--steps",
            "4,6",
            "--output",
            str(out_path),
        )
        assert code == 0
        kv = stdout_dict(out)
        assert kv["cells"] == "4"
        assert kv["failures"] == "0"
        assert kv["output"] == str(out_path)
        assert err == ""
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "4", "6"]
        assert len(rows) == 3
        sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert sidecar["model"] == "bergman"
        assert sidecar["step_counts"] == [4, 6]

    def test_failing_cells_are_reported_and_kept_in_the_artifacts(self, capsys, tmp_path):
        cfg = tmp_path / "stall.json"
        cfg.write_text(json.dumps(
            {"optimizer": {"max_iterations": 1}, "sweep": {"quantizers": [5, 10], "steps": [5]}}
        ))
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--output", str(out_path))
        assert code == 1
        assert stdout_dict(out) == {"cells": "2", "failures": "2", "output": str(out_path)}
        lines = err.splitlines()
        assert len(lines) == 2
        for line, N in zip(lines, (5, 10)):
            assert line.startswith(f"error[N={N},n=5]=ConvergenceError: ")
        with open(out_path, newline="") as fh:
            assert list(csv.reader(fh)) == [["N", "5"], ["5", "ERR"], ["10", "ERR"]]
        sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert sidecar["values"] == [[None], [None]]
        assert sorted(sidecar["errors"]) == ["N=10,n=5", "N=5,n=5"]
        assert all(t > 0.0 for row in sidecar["timings_seconds"] for t in row)

    def test_unwritable_output_names_the_path(self, capsys, tmp_path, builds):
        out_path = tmp_path / "absent" / "s.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--quantizers", "4", "--steps", "2", "--output", str(out_path)
        )
        assert builds == []  # the missing folder is found before any cell runs
        assert code == 1
        assert out == ""
        assert err.startswith("error: FileNotFoundError:")
        assert str(out_path) in err

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"quantizers": [5, 5], "steps": [5]}, "quantizer count 5 is repeated"),
            ({"quantizers": [5], "steps": [4, 6, 4]}, "step count 4 is repeated"),
        ],
        ids=["quantizers", "steps"],
    )
    def test_repeated_count_is_a_config_error(self, capsys, tmp_path, builds, sweep, message):
        cfg = tmp_path / "repeat.json"
        cfg.write_text(json.dumps({"optimizer": {"max_iterations": 1}, "sweep": sweep}))
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--output", str(out_path))
        assert code == 2
        assert out == ""
        assert err == f"error: sweep: {message}\n"
        assert builds == []
        assert not out_path.exists()

    def test_missing_lists_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_count_list(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--quantizers", "a,b", "--steps", "5"
        )
        assert code == 2
        assert err == "error: quantizers must be an integer, got 'a'\n"


class TestHedge:
    def test_table_covers_requested_layers(self, capsys, tmp_path):
        out_path = tmp_path / "hedge.csv"
        code, out, _ = run_cli(
            capsys,
            "hedge",
            "--steps",
            "10",
            "--quantizers",
            "8",
            "--hedge-steps",
            "2,5",
            "--output",
            str(out_path),
        )
        assert code == 0
        assert stdout_dict(out)["rows"] == "16"
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 17
        assert rows[0] == ["step", "codeword", "v_hat", "v_exact", "abs_err"]
        assert {r[0] for r in rows[1:]} == {"2", "5"}

    def test_step_at_or_past_the_horizon_is_rejected(self, capsys, builds):
        code, out, err = run_cli(
            capsys, "hedge", "--steps", "4", "--quantizers", "4", "--hedge-steps", "4"
        )
        assert builds == []  # checked before the build
        assert code == 2
        assert out == ""
        assert err == "error: hedge step must be in 0..3, got 4\n"

    def test_models_without_closed_form_are_rejected(self, capsys, builds):
        code, _, err = run_cli(
            capsys,
            "hedge",
            "--model",
            "bergman",
            "--steps",
            "5",
            "--quantizers",
            "5",
            "--hedge-steps",
            "1",
        )
        assert builds == []  # checked before the build
        assert code == 2
        assert "black-scholes" in err


class TestValidation:
    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--model", "heston")
        assert code == 2
        assert err.startswith("error:")
        assert "heston" in err

    def test_invalid_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{nope")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "invalid JSON" in err

    def test_non_utf8_config(self, capsys, tmp_path):
        cfg = tmp_path / "bom.json"
        cfg.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"config: invalid JSON in {cfg}: " in err

    def test_too_deeply_nested_config(self, capsys, tmp_path):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"config: invalid JSON in {cfg}: " in err

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "JSON object" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "cannot read" in err

    def test_nonpositive_step_count(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--steps", "0")
        assert code == 2
        assert "at least 1" in err

    @pytest.mark.parametrize("model", ["black-scholes", "bergman"])
    @pytest.mark.parametrize(
        "bad, key",
        [
            ({"params": {"sigma": -0.2}}, "params"),
            ({"params": {"rate_typo": 0.1}}, "params"),
            ({"params": [1, 2]}, "params"),
            ({"T": "abc"}, "T"),
            ({"T": -1}, "T"),
            ({"T": "inf"}, "T"),
            ({"y0": "nan"}, "y0"),
            ({"optimizer": {"max_iterations": 2.5}}, "max_iterations"),
            ({"T": True}, "T"),
            ({"params": {"sigma": True}}, "sigma"),
            ({"y0": -5}, "y0"),
            ({"y0": 0}, "y0"),
            ({"optimizer": {"fixed_point_tol": "inf"}}, "fixed_point_tol"),
            ({"T": "1.0"}, "T"),
            ({"y0": "100"}, "y0"),
            ({"optimizer": {"fixed_point_tol": "1e-9"}}, "fixed_point_tol"),
            ({"optimizer": {"max_iterations": "2e2"}}, "max_iterations"),
        ],
        ids=[
            "bad-sigma",
            "unknown-param",
            "non-object-params",
            "non-numeric-T",
            "nonpositive-T",
            "infinite-T",
            "nan-y0",
            "fractional-max-iterations",
            "boolean-T",
            "boolean-sigma",
            "negative-y0",
            "zero-y0",
            "infinite-fixed-point-tol",
            "string-T",
            "string-y0",
            "string-fixed-point-tol",
            "string-max-iterations",
        ],
    )
    def test_bad_model_parameters(self, capsys, tmp_path, model, bad, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": model, **bad}))
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert key in err

    @pytest.mark.parametrize(
        "command, settings, flags, key",
        [
            ("solve", {"steps": 2.7, "quantizers": 4}, [], "steps"),
            ("solve", {"steps": True, "quantizers": 4}, [], "steps"),
            ("solve", {"steps": 3, "quantizers": 4.5}, [], "quantizers"),
            ("hedge", {"steps": 3, "quantizers": 4, "hedge_steps": ["a"]}, [], "hedge_steps"),
            ("hedge", {"steps": 3, "quantizers": 4, "hedge_steps": [1.9]}, [], "hedge_steps"),
            ("sweep", {"sweep": {"quantizers": [2.7], "steps": [3]}}, [], "quantizers"),
            ("sweep", {"sweep": {"quantizers": ["a"], "steps": [3]}}, [], "quantizers"),
            ("sweep", {"sweep": {"quantizers": 5, "steps": [3]}}, [], "quantizers"),
            ("sweep", {"sweep": {"quantizers": [0], "steps": [3]}}, [], "quantizers"),
            ("sweep", {"sweep": [1]}, [], "sweep"),
            ("sweep", {}, ["--quantizers", "0", "--steps", "3"], "quantizers"),
            ("solve", {"steps": 3, "quantizers": 4, "output": 1}, [], "output"),
            ("solve", {"steps": 3, "quantizers": 4, "output": ""}, [], "output"),
            ("sweep", {"sweep": {"quantizers": [3], "steps": [2]}, "output": ""}, [], "output"),
        ],
        ids=[
            "fractional-steps",
            "boolean-steps",
            "fractional-quantizers",
            "non-numeric-hedge-step",
            "fractional-hedge-step",
            "fractional-sweep-quantizers",
            "non-numeric-sweep-quantizers",
            "scalar-sweep-quantizers",
            "zero-sweep-quantizers",
            "non-object-sweep",
            "zero-quantizers-flag",
            "non-string-output",
            "empty-output",
            "empty-sweep-output",
        ],
    )
    def test_bad_setting_is_a_config_error(
        self, capsys, tmp_path, command, settings, flags, key
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(capsys, command, "--config", str(cfg), *flags)
        assert code == 2
        assert out == ""
        assert key in err

    def test_unknown_optimizer_key(self, capsys, tmp_path):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"optimizer": {"max_iteration": 1}}))
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "optimizer" in err
        assert "max_iteration" in err


class TestReadmeConfig:
    """The config example under "Command line" in README.md runs as shown."""

    @pytest.mark.parametrize("command", ["solve", "sweep", "hedge"])
    def test_example_runs(self, capsys, tmp_path, command):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Command line"):]
        block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        settings = json.loads(block)
        settings["output"] = str(tmp_path / Path(settings["output"]).name)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 0, err
        assert stdout_dict(out)["output"] == settings["output"]
        if command == "solve":
            assert stdout_dict(out)["u0"] == "11.8058"


class TestConsoleScript:
    ARGS = ["solve", "--model", "bergman", "--steps", "3", "--quantizers", "4"]

    def test_installed_entry_point(self, tmp_path):
        """The `quantbsde` script target runs the CLI in a fresh interpreter.

        The `[project.scripts]` target is imported and called directly, so the
        check needs no install; an installed `quantbsde` on PATH is run too.
        """
        toml = tomllib or pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            target = toml.load(fh)["project"]["scripts"]["quantbsde"]
        module, func = target.split(":")
        src_dir = str(Path(quantbsde.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        runs = [
            ([sys.executable, "-c", f"from {module} import {func}; {func}()"], env)
        ]
        exe = shutil.which("quantbsde")
        if exe:
            runs.append(([exe], None))
        for command, run_env in runs:
            proc = subprocess.run(
                command + self.ARGS,
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=run_env,
            )
            assert proc.returncode == 0, proc.stderr
            assert "u0=" in proc.stdout

    def test_module_runs_as_a_script(self, tmp_path):
        """`python -m quantbsde.cli` runs the CLI like the console script."""
        src_dir = str(Path(quantbsde.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "quantbsde.cli", *self.ARGS],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^u0=", proc.stdout, re.MULTILINE)

    def test_import_loads_no_scipy(self):
        """scipy is a test-only dependency: the package and its CLI run without it."""
        src_dir = str(Path(quantbsde.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, quantbsde, quantbsde.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
