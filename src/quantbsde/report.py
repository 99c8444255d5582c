"""Convergence sweeps, hedge-comparison tables, and CSV/JSON emission.

A sweep runs the full pipeline (tree build + backward solve) over a grid of
(quantizer count, step count) pairs and collects the start values u0, wall
clock per cell, and any per-cell failure without aborting the rest. The
hedge table compares the quantized control node by node with the closed-form
control the problem carries (``FbsdeProblem.control``).
"""

from __future__ import annotations

import csv
import json
import time
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
    order, each an integer of at least 1 (``rmq._integer``)."""

    problem: FbsdeProblem
    quantizer_counts: tuple
    step_counts: tuple

    def __post_init__(self) -> None:
        qs = tuple(rmq._integer("quantizer count", q, 1) for q in self.quantizer_counts)
        ss = tuple(rmq._integer("step count", s, 1) for s in self.step_counts)
        object.__setattr__(self, "quantizer_counts", qs)
        object.__setattr__(self, "step_counts", ss)


@dataclass(frozen=True)
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

    Cells run one after another, N-major, so each timing is that cell's own
    build and solve time, up to the failure for a failed cell. A sweep holds
    one tree at a time: no name keeps a cell's tree or solution past the
    read of its u0, so the next cell's build starts after it is freed.
    """
    qs, ss = spec.quantizer_counts, spec.step_counts
    values = np.full((len(qs), len(ss)), np.nan)
    timings = np.zeros((len(qs), len(ss)))
    errors: dict = {}
    problem = spec.problem
    for i, N in enumerate(qs):
        for j, n in enumerate(ss):
            t0 = time.perf_counter()
            try:
                grid = rmq.TimeGrid(n, problem.T)
                values[i, j] = bsde_solver.solve(
                    rmq.build_tree(problem, grid, N, settings), problem
                ).u0
            except Exception as exc:  # noqa: BLE001 - recorded per cell
                errors[(N, n)] = f"{type(exc).__name__}: {exc}"
            timings[i, j] = time.perf_counter() - t0
    return SweepResult(spec, values, timings, errors)


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


def emit_json(result: SweepResult, path) -> None:
    """Full-precision JSON sidecar for a sweep: values, timings, errors."""
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
