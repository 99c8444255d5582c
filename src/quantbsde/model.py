"""Problem definitions: forward coefficients, driver, terminal payoff.

A decoupled FBSDE here is: a scalar forward diffusion
``dY = b(Y) dt + sigma(Y) dW`` started at ``y0``, and a backward pair
``(U, V)`` with terminal condition ``U_T = h(Y_T)`` and generator
``f(t, y, u, v)``. The built-in models, registered by name in ``MODELS``,
are geometric Brownian motion with a discounting driver (vanilla call
pricing/hedging) and a two-rate borrowing/lending model with a bull-spread
payoff, whose driver is genuinely nonlinear in ``(u, v)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

from .gaussian import normal_cdf

__all__ = [
    "FbsdeProblem",
    "BlackScholesParams",
    "BergmanParams",
    "ModelSpec",
    "MODELS",
    "make_black_scholes",
    "make_bergman",
    "bs_price",
    "bs_control",
]


@dataclass(frozen=True)
class FbsdeProblem:
    """A decoupled Markovian FBSDE in one dimension.

    ``drift``/``diffusion``/``terminal`` are vectorized maps on the state;
    ``driver`` takes ``(t, y, u, v)``. A map gets a 1-d float codebook ``y``
    (``np.array([y0])`` for sigma(y0)) and ``u``, ``v`` of its shape, and
    answers with a scalar or one value per codeword (``_map_values``);
    sigma(y0) must be nonzero. ``T``, ``y0`` and ``diffusion_floor`` are
    finite real numbers, not booleans, stored as floats; ``T`` and
    ``diffusion_floor`` are positive. ``diffusion_floor`` is the epsilon used
    wherever ``1/sigma`` or a conditional standard deviation would degenerate.
    ``control`` is the closed-form control ``(t, T, y) -> v``, or None where
    there is none; the hedge table compares against it. ``label``/``params``
    only name the model in the sweep's JSON sidecar.
    """

    drift: Callable
    diffusion: Callable
    driver: Callable
    terminal: Callable
    T: float
    y0: float
    diffusion_floor: float
    label: str = "custom"
    params: dict = field(default_factory=dict)
    control: Callable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", _positive("horizon T", self.T))
        object.__setattr__(self, "y0", _finite_number("y0", self.y0))
        floor = _positive("diffusion_floor", self.diffusion_floor)
        object.__setattr__(self, "diffusion_floor", floor)
        y = np.array([self.y0])
        s0 = _map_values("diffusion", 0, y, self.diffusion(y))
        if not s0[0] != 0.0:
            raise ValueError("diffusion must be nonzero at the start point y0")


def _finite_number(name: str, value) -> float:
    """``value`` as a float if it is a finite real number and not a boolean;
    ValueError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _positive(name: str, value) -> float:
    """``_finite_number(name, value)`` if it is positive; ValueError naming
    ``name`` otherwise."""
    x = _finite_number(name, value)
    if not x > 0.0:
        raise ValueError(f"{name} must be positive, got {x!r}")
    return x


def _real(name: str, value, step: int | None = None) -> np.ndarray:
    """``value`` as a float array, not copied if it is one; ValueError naming
    ``name`` if it holds complex values, even with zero imaginary parts,
    since a cast to float would drop them: ``<name> must be real, got
    complex values``, or for a map's values at ``step``, ``<name> returned
    complex values at step <step>``. The one rule for the arrays of the
    public dataclasses, the grid and mixture checks and every map value."""
    x = np.asarray(value)
    if np.iscomplexobj(x):
        if step is None:
            raise ValueError(f"{name} must be real, got complex values")
        raise ValueError(f"{name} returned complex values at step {step}")
    return np.asarray(x, dtype=float)


def _map_values(what: str, step: int, y, values) -> np.ndarray:
    """``values``, those of map ``what`` at the codewords ``y`` of step
    ``step``, as a new float array of ``y``'s shape: a scalar stands for
    every node, and any other shape is a ValueError naming it, as are
    complex values (``_real``) and the first node and codeword whose value
    is not finite. The one rule for every map value."""
    x = _real(what, values, step)
    if x.ndim and x.shape != y.shape:
        raise ValueError(
            f"{what} returned shape {x.shape} at step {step}, expected {y.shape} or a scalar"
        )
    x = np.full(y.shape, x)
    if not np.isfinite(x).all():
        i = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValueError(f"{what} returned {x[i]} at step {step}, node {i} (codeword {y[i]:g})")
    return x


def _check_numbers(params, positive=()) -> None:
    """Every field of ``params`` is a finite real number, and those named in
    ``positive`` are positive; a boolean is not a number. Each is stored as
    the float its rule returns, so a numpy scalar or an int becomes a float."""
    for f in fields(params):
        rule = _positive if f.name in positive else _finite_number
        object.__setattr__(params, f.name, rule(f.name, getattr(params, f.name)))


@dataclass(frozen=True)
class BlackScholesParams:
    rate: float
    sigma: float
    strike: float

    def __post_init__(self) -> None:
        _check_numbers(self, positive=("sigma", "strike"))


@dataclass(frozen=True)
class BergmanParams:
    mu: float
    sigma: float
    lend_rate: float
    borrow_rate: float
    strike_low: float
    strike_high: float

    def __post_init__(self) -> None:
        _check_numbers(self, positive=("sigma",))
        if self.lend_rate > self.borrow_rate:
            raise ValueError("lend_rate must not exceed borrow_rate")
        if not (0.0 < self.strike_low < self.strike_high):
            raise ValueError("strikes must satisfy 0 < strike_low < strike_high")


def _gbm_problem(p, mu, driver, terminal, T, y0, label: str, control=None) -> FbsdeProblem:
    """Geometric Brownian motion ``b(y) = mu y``, ``sigma(y) = p.sigma y``
    under ``driver`` and ``terminal``, with the default diffusion floor
    ``1e-8 y0 sigma(y0)``, ``params`` the fields of ``p`` and ``control``
    the closed-form control, if any. Raises ValueError unless y0 is a
    positive finite number.
    """
    y0 = _positive("y0", y0)
    s = p.sigma

    def drift(y):
        return mu * y

    def diffusion(y):
        return s * y

    floor = 1e-8 * y0 * (s * y0)
    return FbsdeProblem(drift, diffusion, driver, terminal, T, y0, floor, label, asdict(p), control)


def make_black_scholes(p: BlackScholesParams, T: float, y0: float) -> FbsdeProblem:
    """Call option under geometric Brownian motion with rate-``r`` drift.

    Forward part ``b(y) = r y``, ``sigma(y) = sigma y``; payoff
    ``h(y) = (y - K)+``; driver ``f(t, y, u, v) = -r u``, i.e. plain
    discounting of the value, so the value process is the discounted
    conditional expectation of the payoff and the control is the
    delta-hedge scaled by ``sigma y``, ``bs_control``. Raises ValueError
    unless y0 > 0.
    """
    r, K = p.rate, p.strike

    def driver(t, y, u, v):
        return -r * u

    def terminal(y):
        return np.maximum(y - K, 0.0)

    return _gbm_problem(p, r, driver, terminal, T, y0, "black-scholes", partial(bs_control, p))


def make_bergman(p: BergmanParams, T: float, y0: float) -> FbsdeProblem:
    """Bull-spread claim under distinct borrowing and lending rates.

    Forward part ``b(y) = mu y``, ``sigma(y) = sigma y``; payoff
    ``h(y) = (y - K1)+ - 2 (y - K2)+``; driver

        f(t, y, u, v) = -r u - ((mu - r)/sigma) v
                        - (R - r) min(u - v/sigma, 0)

    with lending rate ``r`` and borrowing rate ``R``. The ``min`` term
    switches the financing rate whenever the replicating portfolio
    borrows, which makes the generator nonlinear in ``(u, v)``. Raises
    ValueError unless y0 > 0.
    """
    mu, s = p.mu, p.sigma
    r, R = p.lend_rate, p.borrow_rate
    K1, K2 = p.strike_low, p.strike_high

    def driver(t, y, u, v):
        return -r * u - ((mu - r) / s) * v - (R - r) * np.minimum(u - v / s, 0.0)

    def terminal(y):
        return np.maximum(y - K1, 0.0) - 2.0 * np.maximum(y - K2, 0.0)

    return _gbm_problem(p, mu, driver, terminal, T, y0, "bergman")


class ModelSpec(NamedTuple):
    """A built-in model: its parameter type, factory ``(params, T, y0)``,
    default parameters, horizon and start point."""

    param_type: type
    factory: Callable
    defaults: dict
    T: float
    y0: float


MODELS = {
    "black-scholes": ModelSpec(
        BlackScholesParams,
        make_black_scholes,
        {"rate": 0.04, "sigma": 0.25, "strike": 100.0},
        1.0,
        100.0,
    ),
    "bergman": ModelSpec(
        BergmanParams,
        make_bergman,
        {
            "mu": 0.05,
            "sigma": 0.2,
            "lend_rate": 0.01,
            "borrow_rate": 0.06,
            "strike_low": 95.0,
            "strike_high": 105.0,
        },
        0.25,
        100.0,
    ),
}


def _d1(p: BlackScholesParams, tau: float, y: float) -> float:
    return (math.log(y / p.strike) + (p.rate + 0.5 * p.sigma**2) * tau) / (
        p.sigma * math.sqrt(tau)
    )


def _before_maturity(t, T, y) -> tuple[float, float]:
    """(T - t, y) for numbers ``t < T`` (``_finite_number``) and a spot ``y``
    (``_positive``), else ValueError naming the argument: the closed forms' rule."""
    t, T = _finite_number("t", t), _finite_number("T", T)
    if not t < T:
        raise ValueError(f"t must be before maturity T={T!r}, got {t!r}")
    return T - t, _positive("spot", y)


def bs_price(p: BlackScholesParams, t: float, T: float, y: float) -> float:
    """Closed-form call price at time ``t < T`` and spot ``y > 0``."""
    tau, y = _before_maturity(t, T, y)
    d1 = _d1(p, tau, y)
    d2 = d1 - p.sigma * math.sqrt(tau)
    return y * normal_cdf(d1) - p.strike * math.exp(-p.rate * tau) * normal_cdf(d2)


def bs_control(p: BlackScholesParams, t: float, T: float, y: float) -> float:
    """Closed-form control ``Phi(d1) sigma y`` (delta times ``sigma y``) at
    time ``t < T`` and spot ``y > 0``."""
    tau, y = _before_maturity(t, T, y)
    return normal_cdf(_d1(p, tau, y)) * p.sigma * y
