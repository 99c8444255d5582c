"""Backward recursion on a quantization tree, plus the sampling benchmark.

The explicit step has exact algebraic consequences (linearity, constant
propagation, a closed-form control for constant inputs) that make strong
oracle-free assertions possible; the Monte Carlo benchmark is checked
against its own closed-form limit.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from quantbsde import (
    MODELS,
    BlackScholesParams,
    ControlLayer,
    DegenerateDiffusionWarning,
    FbsdeProblem,
    QuantizationTree,
    QuantizedLayer,
    TimeGrid,
    TransitionMatrix,
    ValueLayer,
    backward_step,
    build_tree,
    make_black_scholes,
    ps_control_benchmark,
    solve,
    terminal_layer,
)

import oracles
from oracles import (
    BACHELIER_SIGMA,
    BACHELIER_STRIKE,
    BERGMAN_BORROW,
    BERGMAN_R,
    BERGMAN_SIGMA,
    BERGMAN_STRIKES,
    BERGMAN_T,
    BERGMAN_Y0,
    EULER_STEP_Z1,
    INV_SQRT_2PI,
    VASICEK_A,
    VASICEK_B,
    VASICEK_SIGMA,
    bachelier_control,
    bachelier_price,
    bergman_fd_price,
    vasicek_bond,
    vasicek_control,
)

BS = BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0)


def bs_problem():
    return make_black_scholes(BS, T=1.0, y0=100.0)


def zero_driver_problem(strike=100.0, mu=0.04, sigma=0.25, T=1.0, y0=100.0):
    """GBM forward part with f = 0; values are plain conditional expectations."""
    return FbsdeProblem(
        drift=lambda y: mu * np.asarray(y, dtype=float),
        diffusion=lambda y: sigma * np.asarray(y, dtype=float),
        driver=lambda t, y, u, v: np.zeros_like(np.asarray(u, dtype=float)),
        terminal=lambda y: np.maximum(np.asarray(y, dtype=float) - strike, 0.0),
        T=T,
        y0=y0,
        diffusion_floor=1e-8 * y0 * sigma * y0,
    )


def toy_tree(codes, weights, y0=100.0, T=1.0):
    """One-step tree: Dirac start, prescribed terminal codebook."""
    codes = np.asarray(codes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return QuantizationTree(
        TimeGrid(1, T),
        (
            QuantizedLayer(0, np.array([y0]), np.array([1.0]), 0.0),
            QuantizedLayer(1, codes, weights, 0.0),
        ),
        (TransitionMatrix(0, weights[None, :]),),
    )


def unit_shock_sides(problem, y, dt, x, monkeypatch):
    """Where the benchmark's image of source node y lands when every draw is
    Z = 1, against two next codebooks whose one midpoint sits one ulp above
    and one ulp below x. Returns the controls (0 left of the midpoint,
    1/sqrt(dt) right of it) for the two books; (0, 1/sqrt(dt)) means the
    image is exactly x.
    """

    class UnitShocks:
        def standard_normal(self, size):
            return np.ones(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: UnitShocks())
    up = np.nextafter(np.nextafter(x, np.inf), np.inf)
    down = np.nextafter(np.nextafter(x, -np.inf), -np.inf)
    got = []
    for book in (np.array([x, up]), np.array([down, x])):
        tree = QuantizationTree(
            TimeGrid(1, dt),
            (
                QuantizedLayer(0, np.array([y]), np.array([1.0]), 0.0),
                QuantizedLayer(1, book, np.array([0.5, 0.5]), 0.0),
            ),
            (TransitionMatrix(0, np.array([[0.5, 0.5]])),),
        )
        nxt = ValueLayer(1, np.array([0.0, 1.0]))
        got.append(ps_control_benchmark(tree, problem, 0, nxt, 4, 0).controls[0])
    return tuple(got)


class TestTerminalLayer:
    def test_call_payoff_on_the_last_codebook(self):
        tree = toy_tree([80.0, 100.0, 120.0], [0.25, 0.5, 0.25])
        vl = terminal_layer(tree, bs_problem())
        assert vl.step == 1
        assert vl.values.tolist() == [0.0, 0.0, 20.0]

    def test_constant_payoff(self):
        problem = zero_driver_problem()
        problem = FbsdeProblem(
            drift=problem.drift,
            diffusion=problem.diffusion,
            driver=problem.driver,
            terminal=lambda y: np.full_like(np.asarray(y, dtype=float), 7.0),
            T=1.0,
            y0=100.0,
            diffusion_floor=problem.diffusion_floor,
        )
        tree = toy_tree([90.0, 110.0], [0.5, 0.5])
        assert terminal_layer(tree, problem).values.tolist() == [7.0, 7.0]


class TestBackwardStep:
    def test_zero_driver_reduces_to_conditional_expectation(self):
        tree = toy_tree([80.0, 100.0, 120.0], [0.2, 0.5, 0.3])
        u_next = ValueLayer(1, np.array([1.0, 2.0, 4.0]))
        vl, _ = backward_step(tree, 0, u_next, zero_driver_problem())
        want = tree.transitions[0].entries @ u_next.values
        assert vl.values == pytest.approx(want, abs=1e-15)

    def test_discounting_driver_scales_the_expectation(self):
        tree = toy_tree([80.0, 100.0, 120.0], [0.2, 0.5, 0.3])
        u_next = ValueLayer(1, np.array([1.0, 2.0, 4.0]))
        vl, _ = backward_step(tree, 0, u_next, bs_problem())
        e1 = (tree.transitions[0].entries @ u_next.values)[0]
        assert vl.values[0] == pytest.approx((1.0 - 0.04 * 1.0) * e1, abs=1e-14)

    def test_constant_next_values_give_closed_form_control(self):
        # with u_{k+1} = c: E1 = c and the control collapses to
        # (c / (dt sigma(y))) * (E[Y_{k+1}|y] - y - dt b(y))
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(20, 1.0), 30)
        c = 7.0
        for k in (0, 7, 19):
            N = tree.layers[k + 1].size
            u_next = ValueLayer(k + 1, np.full(N, c))
            vl, cl = backward_step(tree, k, u_next, problem)
            y = tree.layers[k].codewords
            y_next = tree.layers[k + 1].codewords
            dt = tree.time_grid.dt
            drift_gap = (
                tree.transitions[k].entries @ y_next - y - dt * problem.drift(y)
            )
            want = c * drift_gap / (dt * problem.diffusion(y))
            assert cl.controls == pytest.approx(want, abs=1e-10)
            assert vl.values == pytest.approx(
                np.full_like(y, (1.0 - 0.04 * dt) * c), rel=1e-12
            )

    def test_constant_values_have_vanishing_control_at_the_root(self):
        # layer 1 is stationary for the mixture seeded by the Dirac root, so
        # its weighted mean reproduces the one-step Euler mean exactly and
        # the root control on constants is zero to machine precision
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(50, 1.0), 50)
        c = 7.0
        u_next = ValueLayer(1, np.full(tree.layers[1].size, c))
        _, cl = backward_step(tree, 0, u_next, problem)
        assert abs(cl.controls[0]) <= 1e-9 * c

    def test_constant_values_weighted_control_stays_small(self):
        # interior layers cannot cancel exactly, but the weighted average of
        # |control| on constants stays below 2% of the constant at N = 50
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(20, 1.0), 50)
        c = 7.0
        worst = 0.0
        for k in range(20):
            u_next = ValueLayer(k + 1, np.full(tree.layers[k + 1].size, c))
            _, cl = backward_step(tree, k, u_next, problem)
            w = tree.layers[k].weights
            worst = max(worst, float(w @ np.abs(cl.controls)))
        assert worst < 2e-2 * c

    def test_control_is_linear_in_next_values(self):
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(10, 1.0), 20)
        rng = np.random.default_rng(88)
        k = 4
        u1 = rng.normal(0.0, 5.0, 20)
        u2 = rng.normal(0.0, 5.0, 20)
        a, b = 1.7, -0.3
        _, c1 = backward_step(tree, k, ValueLayer(5, u1), problem)
        _, c2 = backward_step(tree, k, ValueLayer(5, u2), problem)
        _, c12 = backward_step(tree, k, ValueLayer(5, a * u1 + b * u2), problem)
        assert c12.controls == pytest.approx(
            a * c1.controls + b * c2.controls, abs=1e-9
        )

    def test_rejects_mislabeled_next_layer(self):
        tree = toy_tree([90.0, 110.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="expected 1"):
            backward_step(tree, 0, ValueLayer(2, np.zeros(2)), bs_problem())

    def test_nan_driver_is_reported_with_the_node(self):
        tree = toy_tree([80.0, 100.0, 120.0], [0.2, 0.5, 0.3])

        def bad_driver(t, y, u, v):
            out = np.zeros_like(np.asarray(u, dtype=float))
            return np.where(np.asarray(y) > 90.0, np.nan, out)

        problem = FbsdeProblem(
            drift=lambda y: 0.04 * np.asarray(y, dtype=float),
            diffusion=lambda y: 0.25 * np.asarray(y, dtype=float),
            driver=bad_driver,
            terminal=lambda y: y,
            T=1.0,
            y0=100.0,
            diffusion_floor=1e-6,
        )
        with pytest.raises(ValueError, match=r"step 0, node 0"):
            backward_step(tree, 0, ValueLayer(1, np.ones(3)), problem)

    def test_infinite_driver_is_reported_at_its_own_step(self):
        # an inf used to pass, turn into inf * 0 = NaN one step back, and be
        # reported as a NaN at step 3, node 0
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(5, 1.0), 10)

        def driver(t, y, u, v):
            return np.where(np.asarray(y) > 120.0, np.inf, problem.driver(t, y, u, v))

        y = tree.layers[4].codewords
        i = int(np.flatnonzero(y > 120.0)[0])
        message = rf"^driver returned inf at step 4, node {i} \(codeword {y[i]:g}\)$"
        with pytest.raises(ValueError, match=message):
            solve(tree, dataclasses.replace(problem, driver=driver))

    def test_infinite_payoff_is_rejected_with_its_node(self):
        # it used to be reported as a driver NaN at step 4, node 0
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(5, 1.0), 10)

        def terminal(y):
            return np.where(np.asarray(y) > 120.0, np.inf, problem.terminal(y))

        y = tree.layers[5].codewords
        i = int(np.flatnonzero(y > 120.0)[0])
        message = rf"^payoff returned inf at step 5, node {i} \(codeword {y[i]:g}\)$"
        with pytest.raises(ValueError, match=message):
            solve(tree, dataclasses.replace(problem, terminal=terminal))

    def test_infinite_drift_is_reported_at_its_own_step(self):
        # it used to pass silently into the controls and u0
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(5, 1.0), 10)

        def drift(y):
            return np.where(np.asarray(y) > 120.0, np.inf, problem.drift(y))

        y = tree.layers[4].codewords
        i = int(np.flatnonzero(y > 120.0)[0])
        message = rf"^drift returned inf at step 4, node {i} \(codeword {y[i]:g}\)$"
        with pytest.raises(ValueError, match=message):
            solve(tree, dataclasses.replace(problem, drift=drift))

    @pytest.mark.parametrize(
        "what, message",
        [
            ("payoff", r"^payoff returned shape \(7,\) at step 3, expected \(6,\) or a scalar$"),
            ("drift", r"^drift returned shape \(1,\) at step 1, expected \(6,\) or a scalar$"),
        ],
        ids=["payoff", "drift"],
    )
    def test_a_map_of_another_shape_is_named(self, what, message):
        # the payoff used to fail in numpy's broadcast with no map or step;
        # the drift, right at step 0's one codeword, was broadcast silently
        # over step 1 and priced u0 = 11.1332
        problem = bs_problem()
        if what == "payoff":
            problem = dataclasses.replace(problem, terminal=lambda y: np.append(y, 1.0))
        else:
            problem = dataclasses.replace(problem, drift=lambda y: np.array([4.0]))
        with pytest.raises(ValueError, match=message):
            solve(build_tree(problem, TimeGrid(3, 1.0), 6), problem)

    @pytest.mark.parametrize(
        "what, message",
        [
            ("drift", r"^drift returned complex values at step 0$"),
            ("driver", r"^driver returned complex values at step 2$"),
        ],
        ids=["drift-in-build", "driver-in-solve"],
    )
    def test_a_map_of_complex_values_is_named(self, what, message):
        # both used to be cast to float with their imaginary parts dropped,
        # and priced with only numpy's ComplexWarning to show for it
        problem = bs_problem()
        if what == "drift":
            bad = dataclasses.replace(problem, drift=lambda y: problem.drift(y) + 0j)
            with pytest.raises(ValueError, match=message):
                build_tree(bad, TimeGrid(3, 1.0), 6)
        else:
            tree = build_tree(problem, TimeGrid(3, 1.0), 6)
            bad = dataclasses.replace(
                problem, driver=lambda t, y, u, v: problem.driver(t, y, u, v) + 0j)
            with pytest.raises(ValueError, match=message):
                solve(tree, bad)

    def test_floored_sigma_warning_names_its_step(self):
        # sigma(y) = 0.05 + |y| is below the floor 0.3 at 2 codewords of layer 3
        problem = FbsdeProblem(
            drift=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            diffusion=lambda y: 0.05 + np.abs(np.asarray(y, dtype=float)),
            driver=lambda t, y, u, v: np.zeros_like(np.asarray(u, dtype=float)),
            terminal=lambda y: np.asarray(y, dtype=float),
            T=1.0,
            y0=0.0,
            diffusion_floor=0.3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDiffusionWarning)
            tree = build_tree(problem, TimeGrid(4, 1.0), 6)
        floored = int(np.sum(problem.diffusion(tree.layers[3].codewords) < 0.3))
        assert floored > 0
        nxt = terminal_layer(tree, problem)
        message = rf"at {floored} node\(s\) of step 3;"
        with pytest.warns(DegenerateDiffusionWarning, match=message):
            backward_step(tree, 3, nxt, problem)

    @pytest.mark.parametrize("k", [-1, 3, 1.0, True])
    def test_step_must_lie_in_the_tree(self, k):
        # k=-1 with a layer-0 value layer used to pass the step check and
        # run on the last transition; True ran as step 1
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(3, 1.0), 1)
        nxt = ValueLayer(0, np.zeros(1)) if k == -1 else ValueLayer(2, np.zeros(1))
        with pytest.raises(ValueError, match=r"step k must be (an integer|in 0\.\.2, got)"):
            backward_step(tree, k, nxt, problem)

    @pytest.mark.parametrize("size", [7, 3])
    def test_next_values_must_fill_the_next_layer(self, size):
        # numpy's matmul error used to surface instead
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(3, 1.0), 5)
        nxt = ValueLayer(2, np.zeros(size))
        message = rf"next_values has shape \({size},\), expected \(5,\)"
        with pytest.raises(ValueError, match=message):
            backward_step(tree, 1, nxt, problem)


class TestSolve:
    def test_layer_bookkeeping(self):
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(8, 1.0), 12)
        sol = solve(tree, problem)
        assert len(sol.value_layers) == 9
        assert len(sol.control_layers) == 8
        assert [vl.step for vl in sol.value_layers] == list(range(9))
        assert [cl.step for cl in sol.control_layers] == list(range(8))
        assert sol.u0 == sol.value_layers[0].values[0]
        want_terminal = problem.terminal(tree.layers[-1].codewords)
        assert np.array_equal(sol.value_layers[-1].values, want_terminal)

    def test_price_lands_near_the_closed_form(self):
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(20, 1.0), 30)
        sol = solve(tree, problem)
        assert sol.u0 == pytest.approx(11.8370, abs=0.3)

    def test_zero_driver_comparison_principle(self):
        # ordered payoffs stay ordered under the recursion (P is nonnegative)
        lo = zero_driver_problem(strike=100.0)
        hi = zero_driver_problem(strike=90.0)
        tree = build_tree(lo, TimeGrid(10, 1.0), 15)
        sol_lo = solve(tree, lo)
        sol_hi = solve(tree, hi)
        for a, b in zip(sol_lo.value_layers, sol_hi.value_layers):
            assert np.all(a.values <= b.values + 1e-12)

    @pytest.mark.parametrize("N", [25, 50, 100, 200])
    def test_vasicek_bond_price_and_covariance_control(self, N):
        # additive noise, a state-dependent driver and a constant payoff,
        # written as scalar maps. u0 carries the time error alone (about
        # +7.5e-5 at n=20), and the covariance form of the control, which
        # leaves out each row's drift gap, is off by about dt/tau = 0.2, the
        # first-order time error of a control that vanishes at maturity
        a, b, sigma = VASICEK_A, VASICEK_B, VASICEK_SIGMA
        problem = FbsdeProblem(
            drift=lambda y: a * (b - np.asarray(y, dtype=float)),
            diffusion=lambda y: sigma,
            driver=lambda t, y, u, v: -np.asarray(y, dtype=float) * u,
            terminal=lambda y: 1.0,
            T=1.0,
            y0=0.03,
            diffusion_floor=1e-10,
        )
        tree = build_tree(problem, TimeGrid(20, 1.0), N)
        sol = solve(tree, problem)
        assert abs(sol.u0 - vasicek_bond(1.0, 0.03)) <= 1e-4
        k, dt = 15, tree.time_grid.dt
        P = tree.transitions[k].entries
        u_next, y_next = sol.value_layers[k + 1].values, tree.layers[k + 1].codewords
        E1 = P @ u_next
        v = (P @ (u_next * y_next) - E1 * (P @ y_next)) / (dt * sigma)
        layer = tree.layers[k]
        want = vasicek_control(1.0 - k * dt, layer.codewords)
        mid_mass = np.cumsum(layer.weights) - 0.5 * layer.weights
        central = (mid_mass >= 0.05) & (mid_mass <= 0.95)
        assert np.max(np.abs(v[central] / want[central] - 1.0)) <= 0.25

    def test_bachelier_call_converges_in_the_codeword_count(self):
        # additive noise and no drift, so the Euler step is exact in law:
        # u0 and the k=15 control, over the acceptance test's central 90%
        # mask, converge as N doubles (errors near 3.2e-2, 8.4e-3, 2.1e-3
        # and 7.95%, 2.07%, 0.55%)
        problem = FbsdeProblem(
            drift=lambda y: 0.0,
            diffusion=lambda y: BACHELIER_SIGMA,
            driver=lambda t, y, u, v: 0.0,
            terminal=lambda y: np.maximum(y - BACHELIER_STRIKE, 0.0),
            T=1.0,
            y0=100.0,
            diffusion_floor=1e-8,
        )
        k, price_errors, control_errors = 15, [], []
        for N in (50, 100, 200):
            tree = build_tree(problem, TimeGrid(20, 1.0), N)
            sol = solve(tree, problem)
            price_errors.append(abs(sol.u0 - bachelier_price(1.0, 100.0)))
            layer = tree.layers[k]
            want = bachelier_control(1.0 - k * tree.time_grid.dt, layer.codewords)
            rel = np.abs(sol.control_layers[k].controls - want) / want
            c = np.cumsum(layer.weights)
            central = (c - layer.weights >= 0.05) & (c <= 0.95)
            control_errors.append(float(np.max(rel[central])))
        for coarse, fine in zip(price_errors, price_errors[1:]):
            assert coarse >= 3.5 * fine
        for coarse, fine in zip(control_errors, control_errors[1:]):
            assert coarse >= 3.0 * fine
        assert control_errors[-1] < 0.01

    def test_bergman_claim_converges_to_its_finite_difference_price(self):
        # the one nonlinear driver: at n=50, |u0 - oracle| near 2.9e-2, 8.0e-3
        # and 1.9e-3 at N = 50, 100, 200 (ratios 3.63, 4.22), against the
        # implicit solve on (1601, 400), which sits 4.1e-4 from (3201, 800)
        spec = MODELS["bergman"]
        d = spec.defaults
        assert (d["lend_rate"], d["borrow_rate"], d["sigma"]) == (
            BERGMAN_R, BERGMAN_BORROW, BERGMAN_SIGMA)
        assert (d["strike_low"], d["strike_high"]) == BERGMAN_STRIKES
        assert (spec.T, spec.y0) == (BERGMAN_T, BERGMAN_Y0)
        oracle = bergman_fd_price(1601, 400)
        assert abs(oracle - bergman_fd_price(3201, 800)) < 5e-4
        problem = spec.factory(spec.param_type(**d), spec.T, spec.y0)
        errors = [abs(solve(build_tree(problem, TimeGrid(50, spec.T), N), problem).u0 - oracle)
                  for N in (50, 100, 200)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse >= 2.5 * fine
        assert errors[-1] < 5e-3

    def test_bergman_oracle_reads_no_uninitialized_memory(self, monkeypatch):
        # solve_banded checks every entry of its banded matrix, the two
        # corners no diagonal fills included, for NaN and inf
        class NanEmpty:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, dtype=float):
                return np.full(shape, np.nan, dtype=dtype)

        want = bergman_fd_price(801, 200)
        monkeypatch.setattr(oracles, "np", NanEmpty())
        assert bergman_fd_price(801, 200) == want


class TestSamplingBenchmark:
    def test_zero_next_values_give_zero_controls(self):
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(5, 1.0), 8)
        cl = ps_control_benchmark(
            tree, problem, 2, ValueLayer(3, np.zeros(8)), paths=1000, seed=5
        )
        assert np.array_equal(cl.controls, np.zeros(8))

    def test_deterministic_for_a_fixed_seed(self):
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(5, 1.0), 8)
        sol = solve(tree, problem)
        args = (tree, problem, 2, sol.value_layers[3])
        a = ps_control_benchmark(*args, paths=4000, seed=11)
        b = ps_control_benchmark(*args, paths=4000, seed=11)
        c = ps_control_benchmark(*args, paths=4000, seed=12)
        assert np.array_equal(a.controls, b.controls)
        assert not np.array_equal(a.controls, c.controls)

    def test_zero_mass_nodes_are_flagged(self):
        tree = QuantizationTree(
            TimeGrid(1, 1.0),
            (
                QuantizedLayer(0, np.array([90.0, 110.0]), np.array([0.0, 1.0]), 0.0),
                QuantizedLayer(1, np.array([80.0, 120.0]), np.array([0.5, 0.5]), 0.0),
            ),
            (TransitionMatrix(0, np.array([[0.5, 0.5], [0.5, 0.5]])),),
        )
        problem = bs_problem()
        with pytest.warns(UserWarning, match="zero mass"):
            cl = ps_control_benchmark(
                tree, problem, 0, ValueLayer(1, np.array([1.0, 2.0])), 500, 3
            )
        assert math.isnan(cl.controls[0])
        assert math.isfinite(cl.controls[1])

    def test_drift_only_image_is_the_euler_mean(self, monkeypatch):
        # sigma vanishes at the source node, so every image is y + dt b(y)
        problem = FbsdeProblem(
            drift=lambda y: 0.05 * np.asarray(y, dtype=float),
            diffusion=lambda y: 0.2 * (np.asarray(y, dtype=float) - 100.0),
            driver=lambda t, y, u, v: np.zeros_like(np.asarray(u, dtype=float)),
            terminal=lambda y: np.asarray(y, dtype=float),
            T=0.05,
            y0=90.0,
            diffusion_floor=1e-8,
        )
        sides = unit_shock_sides(problem, 100.0, 0.05, 100.25, monkeypatch)
        assert sides == (0.0, 1.0 / math.sqrt(0.05))

    def test_one_unit_shock_image_is_mean_plus_scale(self, monkeypatch):
        # Z = 1 puts every image at y + dt b(y) + sqrt(dt) sigma(y)
        problem = make_black_scholes(
            BlackScholesParams(rate=0.05, sigma=0.2, strike=100.0), T=0.05, y0=100.0
        )
        sides = unit_shock_sides(problem, 100.0, 0.05, EULER_STEP_Z1, monkeypatch)
        assert sides == (0.0, 1.0 / math.sqrt(0.05))

    @pytest.mark.parametrize("case", ["built", "dead-node"])
    def test_controls_are_the_per_node_euler_estimate(self, case):
        # the estimator written out node by node: one generator drawing in
        # node order, nothing drawn for dead nodes, and each image the Euler
        # step y + dt b(y) + sqrt(dt) sigma(y) z
        problem = bs_problem()
        if case == "built":
            tree = build_tree(problem, TimeGrid(5, 1.0), 8)
            k, nxt = 2, solve(tree, problem).value_layers[3]
        else:
            tree = QuantizationTree(
                TimeGrid(1, 1.0),
                (
                    QuantizedLayer(0, np.array([90.0, 100.0, 110.0]),
                                   np.array([0.5, 0.0, 0.5]), 0.0),
                    QuantizedLayer(1, np.array([80.0, 100.0, 120.0]),
                                   np.array([0.25, 0.5, 0.25]), 0.0),
                ),
                (TransitionMatrix(0, np.full((3, 3), [0.25, 0.5, 0.25])),),
            )
            k, nxt = 0, ValueLayer(1, np.array([0.0, 3.0, 20.0]))
        dt = tree.time_grid.dt
        src, y_next = tree.layers[k], tree.layers[k + 1].codewords
        mids = 0.5 * (y_next[1:] + y_next[:-1])
        rng = np.random.default_rng(17)
        want = np.full(src.size, np.nan)
        for i, y in enumerate(src.codewords):
            if src.weights[i] == 0.0:
                continue
            z = rng.standard_normal(3000)
            image = y + dt * problem.drift(y) + math.sqrt(dt) * problem.diffusion(y) * z
            cells = np.searchsorted(mids, image, side="right")
            want[i] = float(np.mean(nxt.values[cells] * z)) / math.sqrt(dt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = ps_control_benchmark(tree, problem, k, nxt, 3000, 17).controls
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isfinite(want).sum() == (src.weights > 0.0).sum()

    def test_scalar_maps_stand_for_every_node(self):
        # an additive-noise problem written with scalars gives the controls
        # of the same problem written with arrays, bit for bit
        arrays = dataclasses.replace(
            zero_driver_problem(),
            drift=lambda y: np.full(np.shape(y), 4.0),
            diffusion=lambda y: np.full(np.shape(y), 25.0),
        )
        scalars = dataclasses.replace(arrays, drift=lambda y: 4.0, diffusion=lambda y: 25.0)
        tree = build_tree(arrays, TimeGrid(5, 1.0), 8)
        nxt = solve(tree, arrays).value_layers[3]
        got = ps_control_benchmark(tree, scalars, 2, nxt, 500, 3).controls
        want = ps_control_benchmark(tree, arrays, 2, nxt, 500, 3).controls
        assert got.tobytes() == want.tobytes()

    def test_rejects_bad_arguments(self):
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(5, 1.0), 8)
        with pytest.raises(ValueError, match="paths"):
            ps_control_benchmark(tree, problem, 2, ValueLayer(3, np.zeros(8)), 0, 1)
        with pytest.raises(ValueError, match="expected 3"):
            ps_control_benchmark(
                tree, problem, 2, ValueLayer(2, np.zeros(8)), 100, 1
            )

    @pytest.mark.parametrize("paths", [2.5, True, "100"])
    def test_paths_follow_the_count_rule(self, paths):
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(3, 1.0), 4)
        with pytest.raises(ValueError, match="paths must be an integer"):
            ps_control_benchmark(tree, problem, 1, ValueLayer(2, np.zeros(4)), paths, 1)

    def test_paths_take_integer_likes(self):
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(3, 1.0), 4)
        args = (tree, problem, 1, solve(tree, problem).value_layers[2])
        a = ps_control_benchmark(*args, paths=np.int64(500), seed=3)
        b = ps_control_benchmark(*args, paths=500, seed=3)
        assert np.array_equal(a.controls, b.controls)

    @pytest.mark.parametrize("seed", [True, 2.5, "x", -1])
    def test_seed_follows_the_integer_rule(self, seed):
        # True used to run as seed 1
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(3, 1.0), 4)
        nxt = ValueLayer(2, np.zeros(4))
        with pytest.raises(ValueError, match="seed must be"):
            ps_control_benchmark(tree, problem, 1, nxt, 100, seed)

    @pytest.mark.parametrize("k", [-1, 3, 1.0, True])
    def test_step_must_lie_in_the_tree(self, k):
        # k=-1 with a layer-0 value layer used to pass the step check and
        # estimate on the last layer
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(3, 1.0), 4)
        nxt = ValueLayer(0, np.zeros(4)) if k == -1 else ValueLayer(2, np.zeros(4))
        with pytest.raises(ValueError, match=r"step k must be (an integer|in 0\.\.2, got)"):
            ps_control_benchmark(tree, problem, k, nxt, 100, 1)

    @pytest.mark.parametrize("size", [7, 3])
    def test_next_values_must_fill_the_next_layer(self, size):
        # 7 values used to give 5 controls, and 3 values a raw IndexError
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(3, 1.0), 5)
        nxt = ValueLayer(2, np.zeros(size))
        message = rf"next_values has shape \({size},\), expected \(5,\)"
        with pytest.raises(ValueError, match=message):
            ps_control_benchmark(tree, problem, 1, nxt, 100, 1)

    def test_converges_to_its_closed_form_limit(self):
        # E[u(proj(Y)) Z] has an exact expression through Gaussian pdf
        # differences at the standardized cell boundaries
        problem = bs_problem()
        tree = build_tree(problem, TimeGrid(10, 1.0), 15)
        sol = solve(tree, problem)
        k = 5
        u_next = sol.value_layers[k + 1]
        dt = tree.time_grid.dt
        src = tree.layers[k]
        y_next = tree.layers[k + 1].codewords
        mids = 0.5 * (y_next[1:] + y_next[:-1])
        paths = 200_000
        cl = ps_control_benchmark(tree, problem, k, u_next, paths, seed=42)

        m = src.codewords + dt * problem.drift(src.codewords)
        sd = math.sqrt(dt) * problem.diffusion(src.codewords)
        zb = (mids[None, :] - m[:, None]) / sd[:, None]  # standardized bounds
        pdf = np.concatenate(
            [np.zeros((src.size, 1)), INV_SQRT_2PI * np.exp(-0.5 * zb * zb),
             np.zeros((src.size, 1))],
            axis=1,
        )
        limit = (pdf[:, :-1] - pdf[:, 1:]) @ u_next.values / math.sqrt(dt)

        # empirical scale of the estimator noise, from an independent seed
        rng = np.random.default_rng(4242)
        for i in range(src.size):
            z = rng.standard_normal(paths)
            img = src.codewords[i] + dt * problem.drift(src.codewords[i]) + (
                math.sqrt(dt) * problem.diffusion(src.codewords[i]) * z
            )
            cells = np.searchsorted(mids, img, side="right")
            s = float(np.std(u_next.values[cells] * z)) / math.sqrt(dt)
            se = s / math.sqrt(paths)
            assert abs(cl.controls[i] - limit[i]) <= 5.0 * se + 1e-12
