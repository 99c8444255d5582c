"""Independent oracles and frozen high-precision constants for the tests.

Everything here is deliberately implemented without touching the package's
own closed forms: a power-series normal cdf, adaptive quadrature for partial
moments and call prices, and finite differences for gradients. Constants
were frozen from a 50-digit arbitrary-precision session.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import solve_banded
from scipy.special import ndtr

# frozen at 50-digit precision
INV_SQRT_2PI = 0.3989422804014327
PHI_10 = 7.694598626706419e-23
CDF_196 = 0.9750021048517795
CDF_0285 = 0.6121779290374987
SQRT_2_OVER_PI = 0.7978845608028654
ONE_MINUS_2_OVER_PI = 0.3633802276324187
BS_PRICE_ATM = 11.837046440824071  # r=0.04, sigma=0.25, K=100, T=1, y=100, t=0
BS_CONTROL_ATM = 15.304448225937467  # Phi(0.285) * 0.25 * 100
EULER_MEAN_GBM = 101.25768696516823  # 100 (1 + 0.05 * 0.005)^50
EULER_STEP_Z1 = 104.72213595499957  # 100 + 0.05*5 + sqrt(0.05)*20


def series_normal_cdf(x: float) -> float:
    """Power-series normal cdf, usable for |x| <= ~8.

    Phi(x) = 1/2 + phi(x) * sum_{k>=0} x^(2k+1) / (1*3*...*(2k+1)); all terms
    are positive, so there is no cancellation.
    """
    if x < 0.0:
        return 1.0 - series_normal_cdf(-x)
    term = x
    total = 0.0
    k = 0
    while term > 1e-22 * (total + 1.0) and k < 500:
        total += term
        k += 1
        term *= x * x / (2 * k + 1)
    pdf = INV_SQRT_2PI * math.exp(-0.5 * x * x)
    return 0.5 + pdf * total


def quad_partial_moments(lo: float, hi: float, mean: float, std: float):
    """Adaptive-quadrature zeroth/first partial moments of N(mean, std^2).

    Infinite endpoints are truncated at 15 standard deviations, where the
    remaining mass is below 1e-49.
    """
    a = mean - 15.0 * std if not math.isfinite(lo) else lo
    b = mean + 15.0 * std if not math.isfinite(hi) else hi
    a, b = max(a, mean - 15.0 * std), min(b, mean + 15.0 * std)
    if a >= b:
        return 0.0, 0.0

    def pdf(u):
        z = (u - mean) / std
        return INV_SQRT_2PI * math.exp(-0.5 * z * z) / std

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        m0 = quad(pdf, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        m1 = quad(lambda u: u * pdf(u), a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return m0, m1


def quad_call_price(rate: float, sigma: float, strike: float, tau: float, y: float) -> float:
    """Discounted call expectation by quadrature over the lognormal factor.

    Integrates only over the region where the payoff is nonzero, so the
    integrand is smooth and adaptive quadrature converges to ~1e-12.
    """
    sq = sigma * math.sqrt(tau)
    drift = (rate - 0.5 * sigma * sigma) * tau
    z_star = (math.log(strike / y) - drift) / sq

    def integrand(z):
        payoff = y * math.exp(drift + sq * z) - strike
        return payoff * INV_SQRT_2PI * math.exp(-0.5 * z * z)

    hi = max(z_star, sq) + 45.0
    val = quad(integrand, z_star, hi, epsabs=1e-12, epsrel=1e-12, limit=300)[0]
    return math.exp(-rate * tau) * val


def fd_gradient(func, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a grid."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (func(xp) - func(xm)) / (2.0 * h)
    return g


def random_mixture(rng, max_components: int = 8):
    """A random Gaussian mixture (means, stds, probs) for property tests."""
    m = int(rng.integers(1, max_components + 1))
    means = rng.normal(0.0, 5.0, m)
    stds = np.exp(rng.uniform(math.log(0.05), math.log(5.0), m))
    probs = rng.dirichlet(np.ones(m))
    return means, stds, probs


def random_sorted_grid(rng, n: int, spread: float = 1.0) -> np.ndarray:
    """Strictly increasing grid with gaps bounded away from zero."""
    gaps = rng.uniform(0.05, 1.0, n) * spread
    x = np.cumsum(gaps)
    return x - x.mean() + rng.normal(0.0, 2.0)


# Vasicek zero-coupon bond (Vasicek, J. Financ. Econ. 1977): the short rate
# dY = a (b - Y) dt + sigma dW, driver f = -y u and terminal value 1, so
# u(t, y) = A(tau) exp(-B(tau) y) with tau = T - t and B(tau) =
# (1 - exp(-a tau)) / a, and the control is v = sigma du/dy = -sigma B u.
VASICEK_A, VASICEK_B, VASICEK_SIGMA = 0.3, 0.05, 0.02


def vasicek_bond(tau: float, y):
    """Closed-form bond price at time to maturity ``tau`` and short rate ``y``."""
    a, b, s = VASICEK_A, VASICEK_B, VASICEK_SIGMA
    B = (1.0 - math.exp(-a * tau)) / a
    log_A = (b - s * s / (2.0 * a * a)) * (B - tau) - s * s * B * B / (4.0 * a)
    return np.exp(log_A - B * np.asarray(y, dtype=float))


def vasicek_control(tau: float, y):
    """Closed-form control ``-sigma B(tau) u`` of the bond."""
    B = (1.0 - math.exp(-VASICEK_A * tau)) / VASICEK_A
    return -VASICEK_SIGMA * B * vasicek_bond(tau, y)


# Bachelier call: dY = sigma dW with no drift, driver f = 0 and payoff
# (y - K)+, so u(t, y) = (y - K) Phi(d) + s phi(d) with s = sigma sqrt(tau)
# and d = (y - K) / s, and the control is v = sigma du/dy = sigma Phi(d). The
# Euler step is exact in law for this forward part.
BACHELIER_SIGMA, BACHELIER_STRIKE = 25.0, 100.0


def bachelier_price(tau: float, y):
    """Closed-form call price at time to maturity ``tau`` and spot ``y``."""
    s = BACHELIER_SIGMA * math.sqrt(tau)
    x = np.asarray(y, dtype=float) - BACHELIER_STRIKE
    return x * ndtr(x / s) + s * INV_SQRT_2PI * np.exp(-0.5 * (x / s) ** 2)


def bachelier_control(tau: float, y):
    """Closed-form control ``sigma Phi(d)`` of the call."""
    s = BACHELIER_SIGMA * math.sqrt(tau)
    return BACHELIER_SIGMA * ndtr((np.asarray(y, dtype=float) - BACHELIER_STRIKE) / s)


# Bergman bull spread (Bergman, Rev. Financ. Stud. 1995) at the built-in
# model's defaults: lending rate r, borrowing rate R, payoff (S - K1)+ -
# 2 (S - K2)+ at T. With v = sigma S u_S the driver turns the BSDE into the
# PDE, in x = ln S,
#   u_t + (r - sigma^2/2) u_x + sigma^2/2 u_xx - r u - (R - r) min(u - u_x, 0) = 0,
# whose min term switches to the borrowing rate where the hedge borrows.
BERGMAN_R, BERGMAN_BORROW, BERGMAN_SIGMA = 0.01, 0.06, 0.2
BERGMAN_STRIKES, BERGMAN_T, BERGMAN_Y0 = (95.0, 105.0), 0.25, 100.0


def bergman_fd_price(M: int, L: int) -> float:
    """u(0, y0) of the Bergman PDE by a fully implicit finite-difference
    solve on ``M`` nodes over ln y0 +- 1 and ``L`` time steps.

    Central differences; at each step, policy iteration on the min term
    (Howard's algorithm: each pass fixes the borrowing set, c = 1 where
    u - u_x < 0, and solves the tridiagonal system with
    ``scipy.linalg.solve_banded``) until the set stops changing. The
    boundary values are 0 below and 115 exp(-r tau) - S above, where the
    claim is a riskless 115 less a short share.
    """
    r, R, s = BERGMAN_R, BERGMAN_BORROW, BERGMAN_SIGMA
    K1, K2 = BERGMAN_STRIKES
    x = np.linspace(math.log(BERGMAN_Y0) - 1.0, math.log(BERGMAN_Y0) + 1.0, M)
    h, dt = x[1] - x[0], BERGMAN_T / L
    S = np.exp(x)
    u = np.maximum(S - K1, 0.0) - 2.0 * np.maximum(S - K2, 0.0)
    diff = 0.5 * s * s / (h * h)
    ab = np.empty((3, M - 2))
    for step in range(1, L + 1):
        top = (2.0 * K2 - K1) * math.exp(-r * step * dt) - S[-1]
        c = np.zeros(M - 2)
        for _ in range(50):
            drift = (r - 0.5 * s * s + (R - r) * c) / (2.0 * h)
            ab[0, 1:] = -dt * (diff + drift[:-1])  # upper diagonal
            ab[1] = 1.0 + dt * (2.0 * diff + r + (R - r) * c)
            ab[2, :-1] = -dt * (diff - drift[1:])  # lower diagonal
            rhs = u[1:-1].copy()
            rhs[-1] += dt * (diff + drift[-1]) * top  # the lower boundary, 0, adds nothing
            new = np.concatenate(([0.0], solve_banded((1, 1), ab, rhs), [top]))
            borrow = (new[1:-1] - (new[2:] - new[:-2]) / (2.0 * h) < 0.0).astype(float)
            if np.array_equal(borrow, c):
                break
            c = borrow
        else:
            raise RuntimeError(f"policy iteration did not settle at step {step}")
        u = new
    return float(u[M // 2])
