"""Sweep orchestration and CSV/JSON emission."""

import csv
import dataclasses
import json
import re
import time
import weakref

import numpy as np
import pytest

import quantbsde.rmq as rmq_mod
from quantbsde import (
    BergmanParams,
    BlackScholesParams,
    FbsdeProblem,
    SweepResult,
    SweepSpec,
    TimeGrid,
    build_tree,
    emit_csv,
    emit_json,
    hedge_compare,
    make_bergman,
    make_black_scholes,
    run_sweep,
    solve,
)

BS = BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0)


@pytest.fixture()
def bs_problem():
    return make_black_scholes(BS, T=1.0, y0=100.0)


@pytest.fixture()
def small_spec(bs_problem):
    return SweepSpec(bs_problem, quantizer_counts=(5, 8), step_counts=(4, 6))


class TestRunSweep:
    def test_single_cell_matches_direct_solve(self, bs_problem):
        spec = SweepSpec(bs_problem, (10,), (5,))
        result = run_sweep(spec)
        tree = build_tree(bs_problem, TimeGrid(5, 1.0), 10)
        want = solve(tree, bs_problem).u0
        assert result.values[0, 0] == want
        assert not result.failed
        assert result.timings[0, 0] > 0.0

    def test_timings_are_per_cell(self):
        # cells run one at a time, so their own times cannot add up to more
        # than the sweep's wall time
        problem = make_bergman(
            BergmanParams(0.05, 0.2, 0.01, 0.06, 95.0, 105.0), T=0.25, y0=100.0
        )
        spec = SweepSpec(problem, (5, 10, 20), (5, 10, 20))
        t0 = time.perf_counter()
        result = run_sweep(spec)
        wall = time.perf_counter() - t0
        assert np.all(result.timings > 0.0)
        assert result.timings.sum() <= wall

    def test_cell_failures_are_isolated(self, bs_problem, monkeypatch):
        real = rmq_mod.build_tree

        def flaky(problem, grid, N, settings=None):
            if N == 13:
                raise RuntimeError("injected failure")
            return real(problem, grid, N, settings)

        monkeypatch.setattr(rmq_mod, "build_tree", flaky)
        spec = SweepSpec(bs_problem, (5, 13), (4,))
        result = run_sweep(spec)
        assert result.failed
        assert list(result.errors) == [(13, 4)]
        assert "RuntimeError: injected failure" in result.errors[(13, 4)]
        assert np.isfinite(result.values[0, 0])
        assert np.isnan(result.values[1, 0])

    def test_one_tree_alive_at_a_time(self, bs_problem, monkeypatch):
        # each build starts only once every earlier cell's tree is freed; an
        # assertion failing inside the build is recorded as that cell's error
        real, trees = rmq_mod.build_tree, []

        def recorded(problem, grid, N, settings=None):
            alive = [i for i, ref in enumerate(trees) if ref() is not None]
            assert not alive, f"trees {alive} alive at build {len(trees)}"
            tree = real(problem, grid, N, settings)
            trees.append(weakref.ref(tree))
            return tree

        monkeypatch.setattr(rmq_mod, "build_tree", recorded)
        result = run_sweep(SweepSpec(bs_problem, (5, 8), (4, 6)))
        assert result.errors == {}
        assert len(trees) == 4 and all(ref() is None for ref in trees)

    def test_sweep_spec_validation(self, bs_problem):
        with pytest.raises(ValueError):
            SweepSpec(bs_problem, (0,), (5,))
        with pytest.raises(ValueError):
            SweepSpec(bs_problem, (5,), (-1,))
        with pytest.raises(ValueError):
            SweepSpec(bs_problem, (2.7,), (3,))
        with pytest.raises(ValueError, match="True"):
            SweepSpec(bs_problem, (True,), (4,))


class TestHedgeCompare:
    def test_rows_cover_the_requested_layers(self, bs_problem):
        tree = build_tree(bs_problem, TimeGrid(10, 1.0), 8)
        sol = solve(tree, bs_problem)
        rows = hedge_compare(sol, bs_problem, [0, 3])
        assert len(rows) == 1 + 8  # layer 0 is the Dirac root
        assert {r.step for r in rows} == {0, 3}

    def test_row_contents_are_consistent(self, bs_problem):
        from quantbsde import bs_control

        tree = build_tree(bs_problem, TimeGrid(10, 1.0), 8)
        sol = solve(tree, bs_problem)
        dt = tree.time_grid.dt
        for r in hedge_compare(sol, bs_problem, [4]):
            assert r.abs_err == abs(r.v_hat - r.v_exact)
            assert r.v_exact == bs_control(BS, 4 * dt, 1.0, r.codeword)
            assert r.codeword in tree.layers[4].codewords

    @staticmethod
    def brownian_problem(control=None):
        # arithmetic Brownian motion with an identity payoff and no driver:
        # U_t = Y_t, so the control is sigma everywhere
        return FbsdeProblem(
            drift=lambda y: 0.0 * y,
            diffusion=lambda y: 0.3 + 0.0 * y,
            driver=lambda t, y, u, v: 0.0 * u,
            terminal=lambda y: y,
            T=1.0,
            y0=0.0,
            diffusion_floor=1e-6,
            control=control,
        )

    def test_rows_compare_with_the_problems_own_control(self):
        problem = self.brownian_problem(control=lambda t, T, y: 0.3)
        sol = solve(build_tree(problem, TimeGrid(5, 1.0), 6), problem)
        rows = hedge_compare(sol, problem, [0, 2, 4])
        assert len(rows) == 1 + 6 + 6
        assert all(r.v_exact == 0.3 for r in rows)
        assert all(r.abs_err == abs(r.v_hat - 0.3) for r in rows)

    def test_rejects_models_without_a_closed_form(self):
        for problem in (
            make_bergman(
                BergmanParams(0.05, 0.2, 0.01, 0.06, 95.0, 105.0), T=0.25, y0=100.0
            ),
            dataclasses.replace(make_black_scholes(BS, T=0.25, y0=100.0), control=None),
        ):
            tree = build_tree(problem, TimeGrid(4, 0.25), 6)
            sol = solve(tree, problem)
            with pytest.raises(ValueError, match="black-scholes"):
                hedge_compare(sol, problem, [1])

    def test_custom_problem_without_control_is_told_to_give_one(self):
        problem = self.brownian_problem()
        sol = solve(build_tree(problem, TimeGrid(5, 1.0), 6), problem)
        with pytest.raises(ValueError, match="needs a problem with a closed-form control") as exc:
            hedge_compare(sol, problem, [0])
        assert "black-scholes" in str(exc.value)

    def test_rejects_a_tree_of_another_horizon(self, bs_problem):
        # a T=0.5 tree prices the T=0.5 call; its controls are not the
        # T=1 controls it would be compared with
        sol = solve(build_tree(bs_problem, TimeGrid(10, 0.5), 30), bs_problem)
        with pytest.raises(ValueError, match=r"T=0\.5 .* T=1\.0"):
            hedge_compare(sol, bs_problem, [0])
        # the model and step checks come first, as before
        with pytest.raises(ValueError, match=r"must be in 0\.\.9, got 10"):
            hedge_compare(sol, bs_problem, [10])
        no_control = dataclasses.replace(bs_problem, control=None)
        with pytest.raises(ValueError, match="black-scholes"):
            hedge_compare(sol, no_control, [0])

    def test_rejects_steps_outside_the_control_range(self, bs_problem):
        tree = build_tree(bs_problem, TimeGrid(5, 1.0), 6)
        sol = solve(tree, bs_problem)
        with pytest.raises(ValueError, match=r"must be in 0\.\.4, got 5"):
            hedge_compare(sol, bs_problem, [5])
        with pytest.raises(ValueError, match=r"must be in 0\.\.4, got -1"):
            hedge_compare(sol, bs_problem, [-1])
        with pytest.raises(ValueError):
            hedge_compare(sol, bs_problem, [1.9])
        with pytest.raises(ValueError, match="True"):
            hedge_compare(sol, bs_problem, [True])


class TestEmission:
    def test_sweep_csv_layout(self, small_spec, tmp_path):
        result = run_sweep(small_spec)
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "4", "6"]
        assert [r[0] for r in rows[1:]] == ["5", "8"]
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row[1:]):
                assert re.fullmatch(r"-?\d+\.\d{4}", cell)
                assert float(cell) == pytest.approx(result.values[i, j], abs=5e-5)

    def test_sweep_csv_marks_failed_cells(self, bs_problem, tmp_path, monkeypatch):
        real = rmq_mod.build_tree
        monkeypatch.setattr(
            rmq_mod,
            "build_tree",
            lambda problem, grid, N, settings=None: (_ for _ in ()).throw(
                RuntimeError("boom")
            )
            if N == 13
            else real(problem, grid, N, settings),
        )
        spec = SweepSpec(bs_problem, (5, 13), (4,))
        result = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[2] == ["13", "ERR"]

    def test_empty_sweep_writes_only_the_header(self, bs_problem, tmp_path):
        result = run_sweep(SweepSpec(bs_problem, (), ()))
        path = tmp_path / "empty.csv"
        emit_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["N"]]

    def test_hedge_csv_layout(self, bs_problem, tmp_path):
        tree = build_tree(bs_problem, TimeGrid(6, 1.0), 5)
        sol = solve(tree, bs_problem)
        rows = hedge_compare(sol, bs_problem, [2, 4])
        path = tmp_path / "hedge.csv"
        emit_csv(rows, path)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["step", "codeword", "v_hat", "v_exact", "abs_err"]
        assert len(got) == 1 + len(rows)
        assert re.fullmatch(r"-?\d+\.\d{6}", got[1][1])

    def test_json_sidecar_round_trips(self, bs_problem, tmp_path, monkeypatch):
        real = rmq_mod.build_tree

        def flaky(problem, grid, N, settings=None):
            if N == 13:
                raise RuntimeError("boom")
            return real(problem, grid, N, settings)

        monkeypatch.setattr(rmq_mod, "build_tree", flaky)
        spec = SweepSpec(bs_problem, (5, 13), (4,))
        result = run_sweep(spec)
        path = tmp_path / "sweep.json"
        emit_json(result, path)
        doc = json.loads(path.read_text())
        assert doc["model"] == "black-scholes"
        assert doc["quantizer_counts"] == [5, 13]
        assert doc["values"][0][0] == result.values[0, 0]  # full precision
        assert doc["values"][1][0] is None
        assert doc["errors"] == {"N=13,n=4": "RuntimeError: boom"}
        assert doc["timings_seconds"][0][0] > 0.0
