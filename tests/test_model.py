"""Model definitions: built-in problems, closed forms, and their contracts."""

import dataclasses
import math

import numpy as np
import pytest

from quantbsde import (
    MODELS,
    BergmanParams,
    BlackScholesParams,
    FbsdeProblem,
    bs_control,
    bs_price,
    make_bergman,
    make_black_scholes,
)

from oracles import BS_CONTROL_ATM, BS_PRICE_ATM, quad_call_price

BS = BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0)
BERGMAN = BergmanParams(
    mu=0.05,
    sigma=0.2,
    lend_rate=0.01,
    borrow_rate=0.06,
    strike_low=95.0,
    strike_high=105.0,
)


def _problem(T=1.0, y0=100.0):
    return FbsdeProblem(
        drift=lambda y: 0.0 * y,
        diffusion=lambda y: 0.2 + 0.0 * y,
        driver=lambda t, y, u, v: 0.0 * u,
        terminal=lambda y: y,
        T=T,
        y0=y0,
        diffusion_floor=1e-6,
    )


class TestBlackScholesClosedForms:
    def test_atm_price_frozen_value(self):
        assert bs_price(BS, 0.0, 1.0, 100.0) == pytest.approx(BS_PRICE_ATM, abs=1e-12)

    def test_atm_control_frozen_value(self):
        assert bs_control(BS, 0.0, 1.0, 100.0) == pytest.approx(
            BS_CONTROL_ATM, abs=1e-12
        )

    def test_price_against_quadrature(self):
        # the closed form must agree with direct integration of the
        # discounted payoff against the lognormal terminal density
        rng = np.random.default_rng(2024)
        for _ in range(100):
            r = rng.uniform(-0.02, 0.10)
            s = rng.uniform(0.05, 0.60)
            tau = rng.uniform(0.1, 3.0)
            strike = rng.uniform(20.0, 200.0)
            y = strike * rng.uniform(0.3, 3.0)
            p = BlackScholesParams(rate=r, sigma=s, strike=strike)
            want = quad_call_price(r, s, strike, tau, y)
            got = bs_price(p, 0.0, tau, y)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_deep_itm_price(self):
        want = quad_call_price(0.04, 0.25, 100.0, 1.0, 200.0)
        assert bs_price(BS, 0.0, 1.0, 200.0) == pytest.approx(want, rel=1e-6)

    def test_vanishing_strike_recovers_spot(self):
        p = BlackScholesParams(rate=0.04, sigma=0.25, strike=1e-8)
        want = 100.0 - 1e-8 * math.exp(-0.04)
        assert bs_price(p, 0.0, 1.0, 100.0) == pytest.approx(want, abs=1e-9)

    def test_control_is_delta_times_sigma_y(self):
        # finite-difference delta of the price, scaled by sigma*y
        for y in (70.0, 100.0, 140.0):
            for t in (0.0, 0.5, 0.9):
                h = 1e-5 * y
                delta = (bs_price(BS, t, 1.0, y + h) - bs_price(BS, t, 1.0, y - h)) / (
                    2.0 * h
                )
                want = delta * BS.sigma * y
                assert bs_control(BS, t, 1.0, y) == pytest.approx(want, rel=1e-6)

    def test_price_monotone_in_spot(self):
        spots = np.linspace(40.0, 250.0, 50)
        prices = [bs_price(BS, 0.0, 1.0, y) for y in spots]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    @pytest.mark.parametrize("t", [1.0, 1.5])
    def test_rejects_time_at_or_past_maturity(self, t):
        with pytest.raises(ValueError):
            bs_price(BS, t, 1.0, 100.0)
        with pytest.raises(ValueError):
            bs_control(BS, t, 1.0, 100.0)

    @pytest.mark.parametrize("y", [0.0, -5.0])
    def test_rejects_nonpositive_spot(self, y):
        with pytest.raises(ValueError):
            bs_price(BS, 0.0, 1.0, y)
        with pytest.raises(ValueError):
            bs_control(BS, 0.0, 1.0, y)

    @pytest.mark.parametrize(
        "t, T, name", [(math.nan, 1.0, "t"), (True, 1.0, "t"), (0.0, math.nan, "T")]
    )
    def test_times_follow_the_number_rule(self, t, T, name):
        # a NaN t used to price NaN
        for closed_form in (bs_price, bs_control):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
                closed_form(BS, t, T, 100.0)


class TestBlackScholesProblem:
    def setup_method(self):
        self.problem = make_black_scholes(BS, T=1.0, y0=100.0)

    def test_forward_coefficients(self):
        y = np.array([50.0, 100.0, 150.0])
        assert np.allclose(self.problem.drift(y), 0.04 * y)
        assert np.allclose(self.problem.diffusion(y), 0.25 * y)

    def test_payoff_examples(self):
        assert self.problem.terminal(120.0) == 20.0
        assert self.problem.terminal(80.0) == 0.0
        assert self.problem.terminal(100.0) == 0.0

    def test_driver_discounts_the_value(self):
        # f(t, y, u, v) = -r u, independent of t, y and v
        assert self.problem.driver(0.3, 100.0, 5.0, 10.0) == pytest.approx(
            -0.2, abs=1e-15
        )
        assert self.problem.driver(0.0, 80.0, 5.0, -3.0) == pytest.approx(
            -0.2, abs=1e-15
        )

    def test_driver_vectorized(self):
        u = np.array([1.0, 2.0, 4.0])
        got = self.problem.driver(0.1, np.full(3, 100.0), u, np.zeros(3))
        assert np.allclose(got, -0.04 * u)

    def test_label_and_params(self):
        assert self.problem.label == "black-scholes"
        assert self.problem.params["strike"] == 100.0

    def test_control_is_the_closed_form(self):
        for t, T, y in [(0.0, 1.0, 100.0), (0.5, 1.0, 73.4), (0.9, 1.0, 131.0)]:
            assert self.problem.control(t, T, y) == bs_control(BS, t, T, y)

    def test_default_diffusion_floor(self):
        assert self.problem.diffusion_floor == pytest.approx(2.5e-5, rel=1e-12)


class TestBergmanProblem:
    def setup_method(self):
        self.problem = make_bergman(BERGMAN, T=0.25, y0=100.0)

    def test_bull_spread_payoff(self):
        h = self.problem.terminal
        assert h(90.0) == 0.0
        assert h(100.0) == 5.0
        assert h(105.0) == 10.0
        assert h(110.0) == 5.0
        assert h(200.0) == -85.0

    def test_driver_worked_example(self):
        # u=3, v=10: portfolio borrows (u - v/sigma = -47 < 0), so the
        # borrow/lend spread contributes +0.05*47 on top of the linear part
        got = self.problem.driver(0.0, 100.0, 3.0, 10.0)
        assert got == pytest.approx(0.32, abs=1e-12)

    def test_driver_linear_when_not_borrowing(self):
        # u - v/sigma >= 0 kills the min term
        got = self.problem.driver(0.0, 100.0, 10.0, 1.0)
        want = -0.01 * 10.0 - 0.2 * 1.0
        assert got == pytest.approx(want, abs=1e-14)

    def test_driver_lipschitz_in_u_and_v(self):
        # |f_u| <= r + (R-r), |f_v| <= (mu-r)/s + (R-r)/s = 0.45
        f = self.problem.driver
        rng = np.random.default_rng(7)
        bound = 0.45 + 1e-10
        for _ in range(500):
            u1, u2 = rng.uniform(-20, 20, 2)
            v1, v2 = rng.uniform(-20, 20, 2)
            num = abs(f(0.0, 100.0, u1, v1) - f(0.0, 100.0, u2, v2))
            den = abs(u1 - u2) + abs(v1 - v2)
            assert num <= bound * den

    def test_driver_vectorized(self):
        u = np.array([3.0, 10.0])
        v = np.array([10.0, 1.0])
        got = self.problem.driver(0.0, np.full(2, 100.0), u, v)
        assert np.allclose(got, [0.32, -0.3], atol=1e-12)

    def test_label(self):
        assert self.problem.label == "bergman"

    def test_has_no_closed_form_control(self):
        assert self.problem.control is None


class TestRegistry:
    @pytest.mark.parametrize("name", list(MODELS))
    def test_defaults_build_the_named_model(self, name):
        spec = MODELS[name]
        problem = spec.factory(spec.param_type(**spec.defaults), spec.T, spec.y0)
        assert problem.label == name
        assert problem.params == spec.defaults
        assert (problem.T, problem.y0) == (spec.T, spec.y0)

    @pytest.mark.parametrize(
        "factory, params, want",
        [
            (make_black_scholes, BS, [("rate", 0.04), ("sigma", 0.25), ("strike", 100.0)]),
            (
                make_bergman,
                BERGMAN,
                [
                    ("mu", 0.05),
                    ("sigma", 0.2),
                    ("lend_rate", 0.01),
                    ("borrow_rate", 0.06),
                    ("strike_low", 95.0),
                    ("strike_high", 105.0),
                ],
            ),
        ],
        ids=["black-scholes", "bergman"],
    )
    def test_params_keep_their_keys_and_order(self, factory, params, want):
        # the sweep's JSON sidecar writes this dict as it stands
        assert list(factory(params, 1.0, 100.0).params.items()) == want


class TestParameterValidation:
    def test_bs_params_reject_bad_sigma_or_strike(self):
        with pytest.raises(ValueError):
            BlackScholesParams(rate=0.04, sigma=0.0, strike=100.0)
        with pytest.raises(ValueError):
            BlackScholesParams(rate=0.04, sigma=0.25, strike=-1.0)

    def test_bergman_params_reject_inverted_rates(self):
        with pytest.raises(ValueError):
            BergmanParams(
                mu=0.05,
                sigma=0.2,
                lend_rate=0.07,
                borrow_rate=0.06,
                strike_low=95.0,
                strike_high=105.0,
            )

    def test_bergman_params_reject_unordered_strikes(self):
        with pytest.raises(ValueError):
            BergmanParams(
                mu=0.05,
                sigma=0.2,
                lend_rate=0.01,
                borrow_rate=0.06,
                strike_low=105.0,
                strike_high=95.0,
            )

    def test_problem_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            make_black_scholes(BS, T=0.0, y0=100.0)

    @pytest.mark.parametrize("T", [True, math.inf, "1.0"])
    def test_horizon_must_be_a_finite_number(self, T):
        cases = [(make_black_scholes, BS), (make_bergman, BERGMAN)]
        for factory, params in cases:
            with pytest.raises(ValueError, match="T"):
                factory(params, T, 100.0)
        with pytest.raises(ValueError, match="T"):
            _problem(T=T)

    @pytest.mark.parametrize("y0", [-5.0, 0.0, math.nan, math.inf, True, "100"])
    def test_gbm_models_reject_a_nonpositive_start(self, y0):
        cases = [(make_black_scholes, BS), (make_bergman, BERGMAN)]
        for factory, params in cases:
            with pytest.raises(ValueError, match="y0"):
                factory(params, 1.0, y0)

    @pytest.mark.parametrize("y0", [math.inf, math.nan, True])
    def test_problem_start_must_be_a_finite_number(self, y0):
        with pytest.raises(ValueError, match="y0"):
            _problem(y0=y0)

    def test_problem_stores_floats(self):
        problem = _problem(T=1, y0=2)
        assert (problem.T, problem.y0) == (1.0, 2.0)
        assert type(problem.T) is float and type(problem.y0) is float

    @pytest.mark.parametrize("bad", [True, False, "0.2", math.inf, math.nan])
    def test_params_must_be_finite_numbers(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            BlackScholesParams(rate=0.04, sigma=bad, strike=100.0)
        with pytest.raises(ValueError, match="lend_rate"):
            BergmanParams(0.05, 0.2, bad, 0.06, 95.0, 105.0)

    def test_problem_rejects_degenerate_diffusion_at_start(self):
        with pytest.raises(ValueError):
            FbsdeProblem(
                drift=lambda y: 0.0 * y,
                diffusion=lambda y: 0.0 * y,
                driver=lambda t, y, u, v: 0.0 * u,
                terminal=lambda y: y,
                T=1.0,
                y0=100.0,
                diffusion_floor=1e-6,
            )

    @pytest.mark.parametrize(
        "s0, message",
        [
            (math.inf, r"^diffusion returned inf at step 0, node 0 \(codeword 100\)$"),
            (math.nan, r"^diffusion returned nan at step 0, node 0 \(codeword 100\)$"),
            (0.0, r"^diffusion must be nonzero at the start point y0$"),
        ],
        ids=["inf", "nan", "zero"],
    )
    def test_start_diffusion_must_be_finite_and_nonzero(self, s0, message):
        problem = make_black_scholes(BS, 1.0, 100.0)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(problem, diffusion=lambda y: s0)

    def test_start_diffusion_is_read_on_the_step_0_codebook(self):
        # sigma(y0) used to be called with the float y0, so a map reading
        # y.shape failed with an AttributeError
        seen = []

        def diffusion(y):
            seen.append(y)
            return np.full(y.shape, 0.02)

        dataclasses.replace(make_black_scholes(BS, 1.0, 100.0), diffusion=diffusion)
        assert [(type(y), y.dtype, y.tolist()) for y in seen] == [(np.ndarray, float, [100.0])]

    @pytest.mark.parametrize("floor", [math.inf, math.nan, True, "1e-6"])
    def test_floor_must_be_a_finite_number(self, floor):
        problem = make_black_scholes(BS, 1.0, 100.0)
        with pytest.raises(ValueError, match="diffusion_floor must be a finite number"):
            dataclasses.replace(problem, diffusion_floor=floor)

    def test_problem_stores_the_floor_as_a_float(self):
        problem = dataclasses.replace(make_black_scholes(BS, 1.0, 100.0), diffusion_floor=1)
        assert type(problem.diffusion_floor) is float and problem.diffusion_floor == 1.0

    def test_problem_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            FbsdeProblem(
                drift=lambda y: 0.0 * y,
                diffusion=lambda y: 0.2 * y,
                driver=lambda t, y, u, v: 0.0 * u,
                terminal=lambda y: y,
                T=1.0,
                y0=100.0,
                diffusion_floor=0.0,
            )
        with pytest.raises(ValueError, match="diffusion_floor must be positive"):
            dataclasses.replace(make_black_scholes(BS, 1.0, 100.0), diffusion_floor=-1e-6)
