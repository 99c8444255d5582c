"""Convergence sweeps, hedge-comparison tables, and CSV/JSON emission.

A sweep runs the full pipeline (tree build + backward solve) over a grid of
(quantizer count, step count) pairs and collects the start values u0, wall
clock per cell, and any per-cell failure without aborting the rest. Its
cells run on forked worker processes, one per usable CPU, or in this
process where there is one CPU, one cell or no ``fork`` (``run_sweep``).
The hedge table compares the quantized control node by node with the
closed-form control the problem carries (``FbsdeProblem.control``).
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import bsde_solver, rmq
from .model import FbsdeProblem

__all__ = [
    "SweepSpec",
    "SweepResult",
    "HedgeRow",
    "run_sweep",
    "hedge_compare",
    "emit_csv",
    "emit_json",
]


@dataclass(frozen=True)
class SweepSpec:
    """A model plus the quantizer and step counts to cross, in the given
    order, each an integer of at least 1 (``rmq._integer``) and none
    repeated, since a cell is named by its (N, n)."""

    problem: FbsdeProblem
    quantizer_counts: tuple
    step_counts: tuple

    def __post_init__(self) -> None:
        qs = tuple(rmq._integer("quantizer count", q, 1) for q in self.quantizer_counts)
        ss = tuple(rmq._integer("step count", s, 1) for s in self.step_counts)
        for name, counts in (("quantizer count", qs), ("step count", ss)):
            for i, count in enumerate(counts):
                if count in counts[:i]:
                    raise ValueError(f"{name} {count} is repeated")
        object.__setattr__(self, "quantizer_counts", qs)
        object.__setattr__(self, "step_counts", ss)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """u0 per cell (NaN where a cell failed), timings, and failure messages."""

    spec: SweepSpec
    values: np.ndarray
    timings: np.ndarray
    errors: dict

    @property
    def failed(self) -> bool:
        return bool(self.errors)


@dataclass(frozen=True)
class HedgeRow:
    step: int
    codeword: float
    v_hat: float
    v_exact: float
    abs_err: float


def run_sweep(
    spec: SweepSpec, settings: rmq.OptimizerSettings | None = None
) -> SweepResult:
    """Solve every (N, n) cell of the sweep; failures are recorded in place.

    Cells run on ``min(len(os.sched_getaffinity(0)), cells)`` worker
    processes started with ``fork``, so the problem and settings reach them
    without pickling; only (N, n) goes out and each cell's result comes
    back. The costliest cells (by N^2 n) are dispatched first. With one
    usable CPU, at most one cell, or no ``fork`` or ``sched_getaffinity``,
    the cells run one after another in this process instead, through the
    same per-cell function. Either way each timing is that cell's own build
    and solve time, up to the failure for a failed cell, and each worker
    holds one tree at a time: no name keeps a cell's tree or solution past
    the read of its u0.

    Warnings raised in a cell are recorded there and re-issued here, with
    their category and message, in N-major cell order, after every cell
    has returned; ``errors`` is filled in that order too. A cell whose
    result never came back, because its worker died, gets the error
    ``BrokenProcessPool: ...`` and a timing of 0. Every worker is joined
    before this returns.
    """
    qs, ss = spec.quantizer_counts, spec.step_counts
    cells = [(N, n) for N in qs for n in ss]
    workers = _worker_count(len(cells))
    if workers > 1:
        done = _run_on_workers(spec.problem, settings, cells, workers)
    else:
        done = {(N, n): _solve_cell(spec.problem, settings, N, n) for N, n in cells}
    values = np.full((len(qs), len(ss)), np.nan)
    timings = np.zeros((len(qs), len(ss)))
    errors: dict = {}
    for i, N in enumerate(qs):
        for j, n in enumerate(ss):
            values[i, j], timings[i, j], error, caught = done[N, n]
            if error is not None:
                errors[(N, n)] = error
            for category, message in caught:
                warnings.warn(message, category, stacklevel=2)
    return SweepResult(spec, values, timings, errors)


def _solve_cell(problem: FbsdeProblem, settings, N: int, n: int) -> tuple:
    """(u0, seconds, error text or None, [(category, message)] of the
    warnings raised) for one cell; u0 is NaN where the cell failed."""
    u0, error = math.nan, None
    with warnings.catch_warnings(record=True) as caught:
        t0 = time.perf_counter()
        try:
            grid = rmq.TimeGrid(n, problem.T)
            u0 = bsde_solver.solve(rmq.build_tree(problem, grid, N, settings), problem).u0
        except Exception as exc:  # noqa: BLE001 - recorded per cell
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return u0, seconds, error, [(w.category, str(w.message)) for w in caught]


def _worker_count(cells: int) -> int:
    """Worker processes for a sweep of ``cells`` cells; 1 means in-process."""
    if cells < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), cells)


# (problem, settings) of the sweep a worker process serves, set in each
# worker by _start_worker; it stays None in the calling process
_worker_sweep = None


def _start_worker(problem: FbsdeProblem, settings) -> None:
    global _worker_sweep
    _worker_sweep = (problem, settings)


def _worker_cell(N: int, n: int) -> tuple:
    return _solve_cell(*_worker_sweep, N, n)


def _run_on_workers(problem: FbsdeProblem, settings, cells, workers: int) -> dict:
    """``_solve_cell``'s result per cell, from ``workers`` forked processes."""
    # imported here so that a process that never sweeps does not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def lost(exc) -> tuple:
        return math.nan, 0.0, f"{type(exc).__name__}: {exc}", []

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _start_worker, (problem, settings)
    )
    try:
        futures, done = {}, {}
        for cell in sorted(cells, key=lambda c: c[0] * c[0] * c[1], reverse=True):
            try:
                futures[cell] = pool.submit(_worker_cell, *cell)
            except BrokenProcessPool as exc:  # a worker died before this cell was sent
                done[cell] = lost(exc)
        for cell, future in futures.items():
            try:
                done[cell] = future.result()
            except Exception as exc:  # noqa: BLE001 - a dead worker or an unsendable result
                done[cell] = lost(exc)
        return done
    finally:
        pool.shutdown(cancel_futures=True)


def _hedge_steps(problem: FbsdeProblem, steps, n: int) -> list[int]:
    """``steps`` as ints in 0..n-1 (``rmq._integer``) if ``problem`` has a
    closed-form ``control``, which of the built-in models only the call
    model has; ValueError otherwise. There is no control on the terminal
    layer n."""
    if problem.control is None:
        raise ValueError(
            "hedge comparison needs a problem with a closed-form control "
            "(FbsdeProblem.control); of the built-in models only black-scholes has one"
        )
    return [rmq._integer("hedge step", k, 0, n) for k in steps]


def hedge_compare(
    solution: bsde_solver.BackwardSolution,
    problem: FbsdeProblem,
    steps,
) -> list[HedgeRow]:
    """Node-level comparison of the quantized control with the closed form.

    ``problem`` and ``steps`` are checked by ``_hedge_steps``; the tree's
    horizon must be ``problem.T``.
    """
    grid = solution.tree.time_grid
    steps = _hedge_steps(problem, steps, grid.n)
    if grid.T != problem.T:
        raise ValueError(f"tree horizon T={grid.T!r} is not the problem's horizon T={problem.T!r}")
    rows: list[HedgeRow] = []
    for k in steps:
        for cw, vh in zip(solution.tree.layers[k].codewords, solution.control_layers[k].controls):
            v_ex = problem.control(k * grid.dt, problem.T, float(cw))
            rows.append(HedgeRow(k, float(cw), float(vh), v_ex, abs(float(vh) - v_ex)))
    return rows


def emit_csv(result, path) -> None:
    """Write a sweep matrix or a hedge table as CSV.

    Sweep layout: header row of step counts, first column the quantizer
    count, cells with 4 decimals, failed cells as "ERR". Hedge layout:
    columns step, codeword, v_hat, v_exact, abs_err.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if isinstance(result, SweepResult):
            writer.writerow(["N"] + [str(s) for s in result.spec.step_counts])
            for N, row in zip(result.spec.quantizer_counts, result.values):
                writer.writerow([str(N)] + ["ERR" if np.isnan(u0) else f"{u0:.4f}" for u0 in row])
        else:
            writer.writerow(["step", "codeword", "v_hat", "v_exact", "abs_err"])
            for r in result:
                floats = (r.codeword, r.v_hat, r.v_exact, r.abs_err)
                writer.writerow([r.step] + [f"{x:.6f}" for x in floats])


def _json_number(value):
    """A numpy scalar as the Python value it holds, for ``json``; TypeError
    for anything else ``json`` cannot write."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_json(result: SweepResult, path) -> None:
    """Full-precision JSON sidecar for a sweep: values, timings, errors.

    A numpy scalar in the problem's ``params`` is written as the Python
    number it holds. The document is serialized before the file is opened,
    so a value ``json`` cannot write raises TypeError and writes nothing."""
    doc = {
        "model": result.spec.problem.label,
        "params": result.spec.problem.params,
        "quantizer_counts": list(result.spec.quantizer_counts),
        "step_counts": list(result.spec.step_counts),
        "values": [
            [None if np.isnan(v) else v for v in row] for row in result.values
        ],
        "timings_seconds": result.timings.tolist(),
        "errors": {f"N={N},n={n}": msg for (N, n), msg in result.errors.items()},
    }
    text = json.dumps(doc, indent=2, default=_json_number)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
