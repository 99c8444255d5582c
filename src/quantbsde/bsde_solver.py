"""Explicit backward recursion for the value and control on a quantized tree.

Starting from the terminal payoff on the last codebook, each step computes
two conditional moments against the transition matrix,

    E1_i = sum_j u_{k+1}(y_j) P_ij
    E2_i = sum_j u_{k+1}(y_j) (y_j - y_i) P_ij,

and from them the control and value at node i:

    v_k(y_i) = E2_i / (dt * sigma(y_i)) - E1_i * b(y_i) / sigma(y_i)
    u_k(y_i) = E1_i + dt * f(t_k, y_i, E1_i, v_k(y_i)).

The driver is evaluated at the conditional mean E1, keeping every step a
closed-form pass over the matrix rows — no regression, no simulation. A
Monte Carlo Brownian-weight estimator of the same control is included purely
as a benchmark.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import FbsdeProblem, _map_values, _real
from .rmq import QuantizationTree, _floored_diffusion, _integer, _read_only

__all__ = [
    "ValueLayer",
    "ControlLayer",
    "BackwardSolution",
    "terminal_layer",
    "backward_step",
    "solve",
    "ps_control_benchmark",
]


@dataclass(frozen=True, eq=False)
class ValueLayer:
    """u_k on the codewords of step k, kept read-only and not copied (``_read_only``)."""

    step: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _read_only(_real("values", self.values)))


@dataclass(frozen=True, eq=False)
class ControlLayer:
    """v_k on the codewords of step k, kept read-only and not copied (``_read_only``)."""

    step: int
    controls: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", _read_only(_real("controls", self.controls)))


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Value layers 0..n, control layers 0..n-1, and the start value u0."""

    tree: QuantizationTree
    value_layers: tuple
    control_layers: tuple
    u0: float


def terminal_layer(tree: QuantizationTree, problem: FbsdeProblem) -> ValueLayer:
    """Payoff evaluated on the last codebook, through ``_map_values``."""
    last = tree.layers[-1]
    payoff = _map_values("payoff", last.step, last.codewords, problem.terminal(last.codewords))
    return ValueLayer(last.step, payoff)


def _step(tree: QuantizationTree, k, next_values: ValueLayer) -> int:
    """``k`` as a step 0..n-1 of ``tree`` (``_integer``) whose next layer is
    ``next_values``, one value per codeword; ValueError otherwise."""
    k = _integer("step k", k, 0, tree.time_grid.n)
    if next_values.step != k + 1:
        raise ValueError(f"next_values is for step {next_values.step}, expected {k + 1}")
    shape = (tree.layers[k + 1].size,)
    if next_values.values.shape != shape:
        raise ValueError(f"next_values has shape {next_values.values.shape}, expected {shape}")
    return k


def backward_step(
    tree: QuantizationTree,
    k: int,
    next_values: ValueLayer,
    problem: FbsdeProblem,
) -> tuple[ValueLayer, ControlLayer]:
    """One explicit backward step from layer k+1 to layer k, for a step k
    in 0..n-1 (``_step``); sigma is floored as in ``conditional_law``,
    and the warning names step k. Drift, diffusion and driver values go
    through ``_map_values``."""
    k = _step(tree, k, next_values)
    dt = tree.time_grid.dt
    y = tree.layers[k].codewords
    y_next = tree.layers[k + 1].codewords
    P = tree.transitions[k].entries
    u_next = next_values.values

    E1 = P @ u_next
    E2 = P @ (u_next * y_next) - y * E1
    s = _floored_diffusion(problem, y, k)
    v = E2 / (dt * s) - E1 * _map_values("drift", k, y, problem.drift(y)) / s
    f_val = _map_values("driver", k, y, problem.driver(k * dt, y, E1, v))
    u = E1 + dt * f_val
    return ValueLayer(k, u), ControlLayer(k, v)


def solve(tree: QuantizationTree, problem: FbsdeProblem) -> BackwardSolution:
    """Run the backward recursion over the whole tree."""
    n = tree.time_grid.n
    values = [None] * (n + 1)
    controls = [None] * n
    values[n] = terminal_layer(tree, problem)
    for k in range(n - 1, -1, -1):
        values[k], controls[k] = backward_step(tree, k, values[k + 1], problem)
    return BackwardSolution(
        tree=tree,
        value_layers=tuple(values),
        control_layers=tuple(controls),
        u0=float(values[0].values[0]),
    )


def ps_control_benchmark(
    tree: QuantizationTree,
    problem: FbsdeProblem,
    k: int,
    next_values: ValueLayer,
    paths: int,
    seed: int,
) -> ControlLayer:
    """Monte Carlo Brownian-weight control estimate at step k (benchmark only).

    For each source node y the one-step Euler image
    y + dt b(y) + sqrt(dt) sigma(y) Z of ``paths`` Gaussian draws Z is
    projected onto the next codebook, and the control is estimated as
    E[u_{k+1}(projection) * Z] / sqrt(dt). Deterministic for a fixed seed.
    Source nodes with zero marginal mass have no defined estimate; they are
    reported with a warning and filled with NaN. Drift and diffusion go
    through ``_map_values``, and sigma is not floored. Through ``_integer``,
    ``paths`` is at least 1 and ``seed`` at least 0; ``k`` is checked as in
    ``backward_step``.
    """
    paths = _integer("paths", paths, 1)
    k = _step(tree, k, next_values)
    seed = _integer("seed", seed, 0)
    dt = tree.time_grid.dt
    src = tree.layers[k]
    y = src.codewords
    y_next = tree.layers[k + 1].codewords
    u_next = next_values.values
    mids = 0.5 * (y_next[1:] + y_next[:-1])
    rng = np.random.default_rng(seed)
    sq = math.sqrt(dt)
    mean = y + dt * _map_values("drift", k, y, problem.drift(y))
    scale = sq * _map_values("diffusion", k, y, problem.diffusion(y))

    out = np.empty(src.size)
    dead = src.weights == 0.0
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} source node(s) at step {k} carry zero mass; "
            "control estimate undefined there (NaN)",
            stacklevel=2,
        )
    for i in range(src.size):
        if dead[i]:
            out[i] = np.nan
            continue
        z = rng.standard_normal(paths)
        cells = np.searchsorted(mids, mean[i] + scale[i] * z, side="right")
        out[i] = float(np.mean(u_next[cells] * z)) / sq
    return ControlLayer(k, out)
