"""One integer rule, one positive-number rule and one real-array rule
across every entry point.

Every integer argument of the library goes through ``rmq._integer``,
every positive number through ``model._positive`` and every array the
package is given through ``gaussian._real``, which owns its kind and shape.
These tests pin the rules at each entry point: a boolean, a fraction or a
string is a ValueError that names the integer argument, and a numpy
integer gives the result the equal int gives; complex or string values are
a ValueError that names the array, and so is an array of the wrong
dimension or with no element.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from quantbsde import (
    BergmanParams,
    BlackScholesParams,
    ControlLayer,
    OptimizerSettings,
    QuantizedLayer,
    SweepSpec,
    TimeGrid,
    TransitionMatrix,
    ValueLayer,
    backward_step,
    bs_control,
    bs_price,
    build_tree,
    conditional_law,
    distortion_gradient,
    hedge_compare,
    make_black_scholes,
    mixture_distortion,
    normal_cdf,
    optimize_grid,
    ps_control_benchmark,
    solve,
    transition_matrix,
)

BS = BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0)
PROBLEM = make_black_scholes(BS, T=1.0, y0=100.0)
TREE = build_tree(PROBLEM, TimeGrid(3, 1.0), 4)
SOLUTION = solve(TREE, PROBLEM)
NEXT = SOLUTION.value_layers[2]
ROOT = QuantizedLayer(0, np.array([100.0]), np.array([1.0]), 0.0)


def _layers(pair):
    value, control = pair
    return value.step, value.values.tolist(), control.step, control.controls.tolist()


# name in the message, a valid value, and the call whose result is compared
INTEGERS = {
    "TimeGrid.n": ("number of time steps", 3, lambda v: TimeGrid(v, 1.0)),
    "build_tree.N": (
        "codeword count N", 3,
        lambda v: solve(build_tree(PROBLEM, TimeGrid(2, 1.0), v), PROBLEM).u0,
    ),
    "optimize_grid.N": (
        "codeword count N", 3,
        lambda v: optimize_grid(ROOT, 0.5, PROBLEM, v).codewords.tolist(),
    ),
    "max_iterations": (
        "max_iterations", 200, lambda v: OptimizerSettings(max_iterations=v),
    ),
    "SweepSpec.quantizer_counts": (
        "quantizer count", 5, lambda v: SweepSpec(PROBLEM, (v,), (3,)).quantizer_counts,
    ),
    "SweepSpec.step_counts": (
        "step count", 3, lambda v: SweepSpec(PROBLEM, (5,), (v,)).step_counts,
    ),
    "hedge_compare.steps": (
        "hedge step", 1, lambda v: hedge_compare(SOLUTION, PROBLEM, [v]),
    ),
    "ps_control_benchmark.paths": (
        "paths", 200,
        lambda v: ps_control_benchmark(TREE, PROBLEM, 1, NEXT, v, 3).controls.tolist(),
    ),
    "ps_control_benchmark.k": (
        "step k", 1,
        lambda v: ps_control_benchmark(TREE, PROBLEM, v, NEXT, 200, 3).controls.tolist(),
    ),
    "ps_control_benchmark.seed": (
        "seed", 3,
        lambda v: ps_control_benchmark(TREE, PROBLEM, 1, NEXT, 200, v).controls.tolist(),
    ),
    "backward_step.k": (
        "step k", 1, lambda v: _layers(backward_step(TREE, v, NEXT, PROBLEM)),
    ),
}


@pytest.mark.parametrize("entry", list(INTEGERS))
@pytest.mark.parametrize("bad", [True, 2.5, "3"], ids=["boolean", "fraction", "string"])
def test_integer_arguments_reject_non_integers(entry, bad):
    name, _, call = INTEGERS[entry]
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
        call(bad)


@pytest.mark.parametrize("entry", list(INTEGERS))
def test_integer_arguments_take_numpy_integers(entry):
    _, good, call = INTEGERS[entry]
    assert call(np.int64(good)) == call(good)


POSITIVES = {
    "TimeGrid.T": ("horizon T", lambda v: TimeGrid(3, v)),
    "FbsdeProblem.T": ("horizon T", lambda v: dataclasses.replace(PROBLEM, T=v)),
    "FbsdeProblem.diffusion_floor": (
        "diffusion_floor", lambda v: dataclasses.replace(PROBLEM, diffusion_floor=v),
    ),
    "fixed_point_tol": ("fixed_point_tol", lambda v: OptimizerSettings(fixed_point_tol=v)),
    "BlackScholesParams.sigma": ("sigma", lambda v: BlackScholesParams(0.04, v, 100.0)),
    "BlackScholesParams.strike": ("strike", lambda v: BlackScholesParams(0.04, 0.25, v)),
    "BergmanParams.sigma": (
        "sigma", lambda v: BergmanParams(0.05, v, 0.01, 0.06, 95.0, 105.0),
    ),
    "y0": ("y0", lambda v: make_black_scholes(BS, 1.0, v)),
    "bs_price.spot": ("spot", lambda v: bs_price(BS, 0.0, 1.0, v)),
    "bs_control.spot": ("spot", lambda v: bs_control(BS, 0.0, 1.0, v)),
    "conditional_law.dt": ("time step dt", lambda v: conditional_law(ROOT, v, PROBLEM)),
    "optimize_grid.dt": ("time step dt", lambda v: optimize_grid(ROOT, v, PROBLEM, 3)),
    "transition_matrix.dt": (
        "time step dt", lambda v: transition_matrix(ROOT, TREE.layers[1], v, PROBLEM),
    ),
}


@pytest.mark.parametrize("entry", list(POSITIVES))
@pytest.mark.parametrize(
    "bad", [0, -1, math.inf, math.nan, True], ids=["zero", "negative", "inf", "nan", "boolean"]
)
def test_positive_numbers_reject_the_rest(entry, bad):
    name, call = POSITIVES[entry]
    with pytest.raises(ValueError, match=f"{name} must be (positive|a finite number)"):
        call(bad)


PAIR, HALVES = np.array([99.0, 101.0]), np.array([0.5, 0.5])
MIXTURE = (np.array([100.0]), np.array([1.0]), np.array([1.0]))

# an argument that is cast to float, and the call that passes it complex
# values, zero imaginary parts included
COMPLEX = {
    "codewords": lambda: QuantizedLayer(1, PAIR + 3j, HALVES, 0.0),
    "weights": lambda: QuantizedLayer(1, PAIR, HALVES + 0j, 0.0),
    "entries": lambda: TransitionMatrix(0, np.eye(2) + 0j),
    "values": lambda: ValueLayer(0, PAIR + 1j),
    "controls": lambda: ControlLayer(0, PAIR + 0j),
    "grid": lambda: mixture_distortion(PAIR + 0j, *MIXTURE),
    "means": lambda: distortion_gradient(PAIR, MIXTURE[0] + 0j, *MIXTURE[1:]),
    "stds": lambda: distortion_gradient(PAIR, MIXTURE[0], MIXTURE[1] + 0j, MIXTURE[2]),
    "probs": lambda: mixture_distortion(PAIR, *MIXTURE[:2], MIXTURE[2] + 0j),
    "x": lambda: normal_cdf(PAIR + 0j),
}


@pytest.mark.parametrize("name", list(COMPLEX))
def test_complex_arrays_are_named_not_cast(name):
    # a cast to float would keep the real parts alone, with only numpy's
    # ComplexWarning to show for it
    with pytest.raises(ValueError, match=f"^{name} must be real, got complex values$"):
        COMPLEX[name]()


# the same arguments given strings, which a cast to float would parse
TEXT_PAIR, TEXT_ONE = np.array(["99", "101"]), np.array(["1"])
STRINGS = {
    "codewords": lambda: QuantizedLayer(1, TEXT_PAIR, HALVES, 0.0),
    "weights": lambda: QuantizedLayer(1, PAIR, np.array(["0.5", "0.5"]), 0.0),
    "entries": lambda: TransitionMatrix(0, np.array([["1"]])),
    "values": lambda: ValueLayer(0, TEXT_PAIR),
    "controls": lambda: ControlLayer(0, TEXT_PAIR),
    "grid": lambda: mixture_distortion(TEXT_PAIR, *MIXTURE),
    "means": lambda: distortion_gradient(PAIR, np.array(["100"]), *MIXTURE[1:]),
    "stds": lambda: distortion_gradient(PAIR, MIXTURE[0], TEXT_ONE, MIXTURE[2]),
    "probs": lambda: mixture_distortion(PAIR, *MIXTURE[:2], TEXT_ONE),
    "x": lambda: normal_cdf(TEXT_PAIR),
}


@pytest.mark.parametrize("name", list(STRINGS))
def test_string_arrays_are_named_not_parsed(name):
    with pytest.raises(ValueError, match=f"^{name} must be real, got str values$"):
        STRINGS[name]()


def test_a_boolean_payoff_is_a_map_not_an_error():
    # a digital call: booleans pass the array rule, cast to 0.0 and 1.0
    def u0(terminal):
        problem = dataclasses.replace(PROBLEM, terminal=terminal)
        return solve(build_tree(problem, TimeGrid(5, 1.0), 10), problem).u0

    assert u0(lambda y: y > 100.0) == u0(lambda y: np.where(y > 100.0, 1.0, 0.0))


def test_a_map_that_returns_strings_is_named_with_its_step():
    problem = dataclasses.replace(PROBLEM, drift=lambda y: "0.5")
    with pytest.raises(ValueError, match="^drift returned str values at step 0$"):
        conditional_law(ROOT, 0.5, problem)


# an array argument of the wrong dimension or with no element: its name, the
# dimension it must have, the shape it was given, and the call
SHAPES = {
    "0-d-grid-distortion": ("grid", 1, (), lambda: mixture_distortion(0.0, *MIXTURE)),
    "empty-grid-distortion": ("grid", 1, (0,), lambda: mixture_distortion([], *MIXTURE)),
    "0-d-grid-gradient": ("grid", 1, (), lambda: distortion_gradient(0.0, *MIXTURE)),
    "empty-grid-gradient": ("grid", 1, (0,), lambda: distortion_gradient([], *MIXTURE)),
    "2-d-values": ("values", 1, (1, 2), lambda: ValueLayer(0, PAIR[None])),
    "empty-values": ("values", 1, (0,), lambda: ValueLayer(0, [])),
    "2-d-controls": ("controls", 1, (2, 1), lambda: ControlLayer(0, PAIR[:, None])),
    "empty-controls": ("controls", 1, (0,), lambda: ControlLayer(0, np.empty(0))),
    "empty-means": ("means", 1, (0,), lambda: mixture_distortion(PAIR, np.empty(0), [], [])),
}


@pytest.mark.parametrize("case", list(SHAPES))
def test_arrays_of_the_wrong_shape_are_named(case):
    name, ndim, shape, call = SHAPES[case]
    message = f"{name} must be a nonempty {ndim}-d array, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
