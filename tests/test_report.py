"""Sweep orchestration and CSV/JSON emission."""

import contextlib
import csv
import dataclasses
import json
import multiprocessing
import os
import re
import signal
import time
import warnings
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


@pytest.fixture(autouse=True)
def no_process_outlives_a_sweep():
    yield
    assert multiprocessing.active_children() == []


def use_cpus(monkeypatch, count):
    """Make ``run_sweep`` see ``count`` usable CPUs, and so run its cells
    on that many workers (or in process for 1)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool needs fork")


class TestRunSweep:
    def test_single_cell_matches_direct_solve(self, bs_problem):
        spec = SweepSpec(bs_problem, (10,), (5,))
        result = run_sweep(spec)
        tree = build_tree(bs_problem, TimeGrid(5, 1.0), 10)
        want = solve(tree, bs_problem).u0
        assert result.values[0, 0] == want
        assert not result.failed
        assert result.timings[0, 0] > 0.0

    @staticmethod
    def timed_bergman_sweep():
        problem = make_bergman(
            BergmanParams(0.05, 0.2, 0.01, 0.06, 95.0, 105.0), T=0.25, y0=100.0
        )
        spec = SweepSpec(problem, (5, 10, 20), (5, 10, 20))
        t0 = time.perf_counter()
        result = run_sweep(spec)
        return result, time.perf_counter() - t0

    def test_timings_are_per_cell(self, monkeypatch):
        # one worker runs the cells one at a time, so their own times cannot
        # add up to more than the sweep's wall time
        use_cpus(monkeypatch, 1)
        result, wall = self.timed_bergman_sweep()
        assert np.all(result.timings > 0.0)
        assert result.timings.sum() <= wall

    def test_timings_are_per_cell_on_two_workers(self, monkeypatch):
        # each timing is taken inside its worker, and two workers run at
        # most two cells at once
        use_cpus(monkeypatch, 2)
        result, wall = self.timed_bergman_sweep()
        assert np.all(result.timings > 0.0)
        assert np.all(result.timings <= wall)
        assert result.timings.sum() <= 2 * wall

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

    @staticmethod
    def sweep_checking_trees(problem, monkeypatch):
        # each build starts only once every earlier tree of its process is
        # freed; an assertion failing inside the build is recorded as that
        # cell's error
        real, trees = rmq_mod.build_tree, []

        def recorded(problem, grid, N, settings=None):
            alive = [i for i, ref in enumerate(trees) if ref() is not None]
            assert not alive, f"trees {alive} alive at build {len(trees)}"
            tree = real(problem, grid, N, settings)
            trees.append(weakref.ref(tree))
            return tree

        monkeypatch.setattr(rmq_mod, "build_tree", recorded)
        return run_sweep(SweepSpec(problem, (5, 8), (4, 6))), trees

    def test_one_tree_alive_at_a_time(self, bs_problem, monkeypatch):
        use_cpus(monkeypatch, 1)
        result, trees = self.sweep_checking_trees(bs_problem, monkeypatch)
        assert result.errors == {}
        assert len(trees) == 4 and all(ref() is None for ref in trees)

    def test_one_tree_alive_at_a_time_in_each_worker(self, bs_problem, monkeypatch):
        # the wrapper runs in the workers, so its assertion reaches this
        # process only as a cell error; with 4 cells on 2 workers, some
        # worker builds twice
        use_cpus(monkeypatch, 2)
        result, _ = self.sweep_checking_trees(bs_problem, monkeypatch)
        assert result.errors == {}

    def test_workers_and_in_process_agree(self, monkeypatch):
        # bit for bit, with errors in N-major order although the costliest
        # cells (N=20 first) are dispatched first
        problem = make_bergman(
            BergmanParams(0.05, 0.2, 0.01, 0.06, 95.0, 105.0), T=0.25, y0=100.0
        )
        real = rmq_mod.build_tree

        def flaky(problem, grid, N, settings=None):
            if (N, grid.n) in ((5, 20), (20, 5)):
                raise RuntimeError(f"injected failure at N={N}")
            return real(problem, grid, N, settings)

        monkeypatch.setattr(rmq_mod, "build_tree", flaky)
        spec = SweepSpec(problem, (5, 10, 20), (5, 10, 20))
        results = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            results[cpus] = run_sweep(spec)
        alone, pooled = results[1], results[2]
        assert np.array_equal(alone.values, pooled.values, equal_nan=True)
        assert list(pooled.errors.items()) == list(alone.errors.items())
        assert list(pooled.errors) == [(5, 20), (20, 5)]
        assert pooled.errors[(20, 5)] == "RuntimeError: injected failure at N=20"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_cell_warnings_reach_the_caller(self, bs_problem, monkeypatch, cpus):
        real = rmq_mod.build_tree

        def warned(problem, grid, N, settings=None):
            warnings.warn(f"cell N={N}, n={grid.n}", rmq_mod.DegenerateDiffusionWarning)
            return real(problem, grid, N, settings)

        monkeypatch.setattr(rmq_mod, "build_tree", warned)
        use_cpus(monkeypatch, cpus)
        with pytest.warns(rmq_mod.DegenerateDiffusionWarning) as record:
            result = run_sweep(SweepSpec(bs_problem, (5, 8), (4, 6)))
        assert result.errors == {}
        assert [str(w.message) for w in record] == [
            "cell N=5, n=4", "cell N=5, n=6", "cell N=8, n=4", "cell N=8, n=6"
        ]
        assert {w.category for w in record} == {rmq_mod.DegenerateDiffusionWarning}

    def test_warnings_as_errors_fail_their_cell(self, bs_problem, monkeypatch):
        # the worker inherits the caller's filters, as the cell would in process
        real = rmq_mod.build_tree

        def warned(problem, grid, N, settings=None):
            if N == 8:
                warnings.warn("strict", rmq_mod.DegenerateDiffusionWarning)
            return real(problem, grid, N, settings)

        monkeypatch.setattr(rmq_mod, "build_tree", warned)
        use_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", rmq_mod.DegenerateDiffusionWarning)
            result = run_sweep(SweepSpec(bs_problem, (5, 8), (4,)))
        assert result.errors == {(8, 4): "DegenerateDiffusionWarning: strict"}
        assert np.isfinite(result.values[0, 0])

    @needs_fork
    def test_a_dead_worker_fails_its_cells_without_a_hang(self, bs_problem, monkeypatch):
        real = rmq_mod.build_tree

        def dying(problem, grid, N, settings=None):
            if N == 13:
                os._exit(3)
            return real(problem, grid, N, settings)

        monkeypatch.setattr(rmq_mod, "build_tree", dying)
        use_cpus(monkeypatch, 2)
        with time_limit(60):
            result = run_sweep(SweepSpec(bs_problem, (5, 13, 8), (4,)))
        assert (13, 4) in result.errors
        assert all(msg.startswith("BrokenProcessPool: ") for msg in result.errors.values())
        failed = np.array([[(N, 4) in result.errors] for N in (5, 13, 8)])
        assert np.array_equal(np.isnan(result.values), failed)
        assert np.all(result.timings[failed] == 0.0)

    @needs_fork
    def test_cells_not_sent_to_a_broken_pool_fail(self, bs_problem, monkeypatch):
        # a worker that dies while cells are still being sent breaks the
        # pool, and the cells not yet sent fail; the cheapest is sent last
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        real = ProcessPoolExecutor.submit

        def submit(pool, fn, *args):
            if args == (5, 4):
                raise BrokenProcessPool("a worker died")
            return real(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        use_cpus(monkeypatch, 2)
        with time_limit(60):
            result = run_sweep(SweepSpec(bs_problem, (5, 8), (4,)))
        assert result.errors == {(5, 4): "BrokenProcessPool: a worker died"}
        assert np.isfinite(result.values[1, 0])

    def test_one_cell_and_one_cpu_run_in_process(self, bs_problem, monkeypatch):
        # the cell's build sees this process's own state; a worker's would
        # be lost to it
        real, pids = rmq_mod.build_tree, []

        def recorded(problem, grid, N, settings=None):
            pids.append(os.getpid())
            return real(problem, grid, N, settings)

        monkeypatch.setattr(rmq_mod, "build_tree", recorded)
        use_cpus(monkeypatch, 2)
        run_sweep(SweepSpec(bs_problem, (5,), (4,)))
        use_cpus(monkeypatch, 1)
        run_sweep(SweepSpec(bs_problem, (5, 8), (4,)))
        assert pids == [os.getpid()] * 3

    def test_sweep_spec_validation(self, bs_problem):
        with pytest.raises(ValueError):
            SweepSpec(bs_problem, (0,), (5,))
        with pytest.raises(ValueError):
            SweepSpec(bs_problem, (5,), (-1,))
        with pytest.raises(ValueError):
            SweepSpec(bs_problem, (2.7,), (3,))
        with pytest.raises(ValueError, match="True"):
            SweepSpec(bs_problem, (True,), (4,))

    def test_repeated_counts_are_rejected(self, bs_problem):
        # a cell is named by its (N, n), so a repeat would share an error
        with pytest.raises(ValueError, match="quantizer count 5 is repeated"):
            SweepSpec(bs_problem, (5, 5), (5,))
        with pytest.raises(ValueError, match="step count 4 is repeated"):
            SweepSpec(bs_problem, (5,), (4, 6, 4))


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

    def test_json_sidecar_takes_numpy_scalar_and_integer_parameters(self, tmp_path):
        # they pass the number rule and are stored as floats
        p = BergmanParams(np.float32(0.05), 0.2, 0.01, 0.06, np.int64(95), 105)
        result = run_sweep(SweepSpec(make_bergman(p, T=0.25, y0=100.0), (5,), (4,)))
        path = tmp_path / "sweep.json"
        emit_json(result, path)
        params = json.loads(path.read_text())["params"]
        assert params == {"mu": float(np.float32(0.05)), "sigma": 0.2, "lend_rate": 0.01,
                          "borrow_rate": 0.06, "strike_low": 95.0, "strike_high": 105.0}
        assert all(type(v) is float for v in params.values())

    def test_json_sidecar_writes_a_custom_problems_numpy_scalars_or_nothing(
            self, bs_problem, tmp_path):
        # a custom problem's params is a free dict, not checked by the number rule
        custom = dataclasses.replace(bs_problem, params={"strike": np.int64(95),
                                                         "rate": np.float64(0.04)})
        result = run_sweep(SweepSpec(custom, (5,), (4,)))
        path = tmp_path / "sweep.json"
        emit_json(result, path)
        params = json.loads(path.read_text())["params"]
        assert params == {"strike": 95, "rate": 0.04} and type(params["strike"]) is int
        bad = tmp_path / "bad.json"
        unwritable = dataclasses.replace(result, spec=dataclasses.replace(
            result.spec, problem=dataclasses.replace(custom, params={"shape": (object(),)})))
        with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
            emit_json(unwritable, bad)
        assert not bad.exists()
