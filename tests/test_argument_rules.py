"""One rule per kind of argument, across every entry point.

Every integer argument of the library goes through ``rmq._integer``,
every positive number through ``model._positive`` and every array the
package is given through ``gaussian._real``, which owns its kind and shape.
These tests pin the rules at each entry point: a boolean, a fraction or a
string is a ValueError that names the integer argument, and a numpy
integer gives the result the equal int gives; complex or string values are
a ValueError that names the array, and so is an array of the wrong
dimension or with no element.

The last tables send one bad value of each outside kind through every
entry point that takes it, and pin one message: a count from the CLI or
the library (``rmq._integer``), a probability vector (``rmq._probabilities``),
a sorted grid (``rmq._ordered_grid``), a tree file's layer and transition, and
any error of the CLI's optimizer section, which names that section.
"""

import base64
import dataclasses
import json
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
    load_tree,
    normal_cdf,
    optimize_grid,
    ps_control_benchmark,
    save_tree,
    solve,
    transition_matrix,
)
from quantbsde.cli import main

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


def _message(call):
    """The message of the ValueError that ``call`` raises."""
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.fixture
def cli(capsys, tmp_path):
    """Run the CLI, with ``config`` written as its --config file; the message
    it prints on stderr, once it has exited with code 2."""

    def run(*argv, config=None):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = (*argv, "--config", str(path))
        code = main(list(argv))
        err = capsys.readouterr().err
        assert (code, err[:7], err.count("\n")) == (2, "error: ", 1), err
        return err[7:-1]

    return run


# a count as the CLI and the library take it: the name in the message, and
# the call that gives the message (flags are strings, config values as they are)
COUNTS = {
    "solve --steps": ("steps", lambda v, cli: cli("solve", "--steps", str(v))),
    "sweep --steps": (
        "steps", lambda v, cli: cli("sweep", "--quantizers", "3", "--steps", f"2,{v}"),
    ),
    "optimizer.max_iterations": (
        "optimizer: max_iterations",
        lambda v, cli: cli("solve", config={"optimizer": {"max_iterations": v}}),
    ),
    "SweepSpec": ("step count", lambda v, cli: _message(lambda: SweepSpec(PROBLEM, (5,), (v,)))),
    "OptimizerSettings": (
        "max_iterations", lambda v, cli: _message(lambda: OptimizerSettings(max_iterations=v)),
    ),
}


@pytest.mark.parametrize("entry", list(COUNTS))
@pytest.mark.parametrize(
    "bad, message",
    [(0, "{} must be at least 1, got 0"), ("2.5", "{} must be an integer, got '2.5'")],
    ids=["zero", "fraction-string"],
)
def test_a_bad_count_has_one_message_at_every_entry_point(cli, entry, bad, message):
    name, call = COUNTS[entry]
    assert call(bad, cli) == message.format(name)


@pytest.mark.parametrize(
    "optimizer, message",
    [
        ({"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
        ({"fixed_point_tol": -1}, "fixed_point_tol must be positive, got -1.0"),
        ({"tolerance": 1e-9},
         "OptimizerSettings.__init__() got an unexpected keyword argument 'tolerance'"),
    ],
    ids=["fraction", "negative-tolerance", "unknown-key"],
)
def test_every_error_of_the_optimizer_section_has_its_prefix(cli, optimizer, message):
    assert cli("solve", config={"optimizer": optimizer}) == "optimizer: " + message


# a probability vector: which array's shape it must have, and the call
PROBABILITIES = {
    "weights": ("codewords", lambda p: QuantizedLayer(1, PAIR, p, 0.0)),
    "probs": ("means", lambda p: mixture_distortion(PAIR, PAIR, np.ones(2), p)),
}


@pytest.mark.parametrize("name", list(PROBABILITIES))
@pytest.mark.parametrize(
    "bad, message",
    [
        ([1.0], "{} must have the shape (2,) of {}, got (1,)"),
        ([0.5, math.nan], "{} must be finite and nonnegative"),
        ([0.5, 0.6], "{} must sum to 1 within 1e-12, got 1.1"),
    ],
    ids=["wrong-shape", "nan", "sum-1.1"],
)
def test_a_bad_probability_vector_has_one_message(name, bad, message):
    like, call = PROBABILITIES[name]
    assert _message(lambda: call(np.array(bad))) == message.format(name, like)


GRIDS = {
    "codewords": lambda x: QuantizedLayer(1, x, HALVES, 0.0),
    "grid": lambda x: mixture_distortion(x, *MIXTURE),
}


@pytest.mark.parametrize("name", list(GRIDS))
def test_a_decreasing_grid_has_one_message(name):
    message = _message(lambda: GRIDS[name](PAIR[::-1]))
    assert message == f"{name} must be finite and strictly increasing"


# a flat transition and one with a NaN entry, and the message: the tree file
# names its shape as the JSON list it holds, the array as its tuple
NAN_ENTRY = np.full((4, 4), 0.25)
NAN_ENTRY[0, 0] = math.nan
TRANSITIONS = {
    "flat": (np.full(16, 0.25), "entries must be a nonempty 2-d array, got shape {}"),
    "nan-entry": (NAN_ENTRY, "entries must lie in [0, 1]"),
}


# a layer with a NaN codeword or weight: the tree file gives the message the
# arrays give as a QuantizedLayer
NAN_LAYERS = {
    "codewords": "codewords must be finite and strictly increasing",
    "weights": "weights must be finite and nonnegative",
}


@pytest.mark.parametrize("key", list(NAN_LAYERS))
def test_a_nan_codeword_or_weight_has_one_message(tmp_path, key):
    layer = TREE.layers[1]
    arrays = {"codewords": layer.codewords.copy(), "weights": layer.weights.copy()}
    arrays[key][0] = math.nan
    path = tmp_path / "tree.rmq.json"
    save_tree(TREE, path)
    doc = json.loads(path.read_text())
    doc["layers"][1].update({k: v.tolist() for k, v in arrays.items()})
    path.write_text(json.dumps(doc))
    assert _message(lambda: load_tree(path)) == f"malformed tree file {path}: {NAN_LAYERS[key]}"
    assert _message(lambda: QuantizedLayer(1, *arrays.values(), 0.0)) == NAN_LAYERS[key]


@pytest.mark.parametrize("case", list(TRANSITIONS))
def test_a_bad_transition_in_a_tree_file_has_one_message(tmp_path, case):
    entries, message = TRANSITIONS[case]
    path = tmp_path / "tree.rmq.json"
    save_tree(TREE, path)
    doc = json.loads(path.read_text())
    encoded = base64.b64encode(entries.astype("<f8").tobytes()).decode("ascii")
    doc["transitions"][1].update(shape=list(entries.shape), entries=encoded)
    path.write_text(json.dumps(doc))
    want = f"malformed tree file {path}: " + message.format(list(entries.shape))
    assert _message(lambda: load_tree(path)) == want


@pytest.mark.parametrize("case", list(TRANSITIONS))
def test_a_bad_transition_matrix_has_one_message(case):
    entries, message = TRANSITIONS[case]
    assert _message(lambda: TransitionMatrix(0, entries)) == message.format(entries.shape)
