"""Recursive marginal quantization of the one-dimensional Euler scheme.

Each time layer of the Euler chain, conditionally on the previous layer's
codebook, is a finite Gaussian mixture. This module optimizes an N-point
quantizer of that mixture (damped Newton on the distortion gradient with an
exact tridiagonal Hessian, Lloyd fixed-point steps as fallback), records the
marginal weights and the companion transition matrices, and chains the layers
into a tree. All cell integrals are closed-form Gaussian partial moments
about the mixture mean, so the distortion cancels no large terms, and cell
masses are differences of Phi(a) - 1{a > 0}, so both tails keep their
relative precision. Building a tree involves no sampling of any kind.

Each layer of ``build_tree`` is one pass: one conditional law, one grid
optimization, and one transition matrix built from the cell masses the
optimizer returns with its grid. ``optimize_grid`` and ``transition_matrix``
expose the two halves of that pass on their own. The pass reads one
per-layer mixture object, which holds only the law, its mean and spread and
the kernel's grid-free coefficients; each kernel call allocates its own
tables and returns the cell masses with the moments. A layer after the first
starts from the mixture's component means, standardized and mapped through the
first Cornish-Fisher term to the mixture's mean, spread and skewness, plus
the misses of earlier layers extrapolated in that spread; the first starts
from Gaussian quantiles matched to the mixture's mean and variance.

Voronoi cells are the midpoint intervals of the sorted codewords, with
infinite outer edges; a point exactly on a midpoint belongs to the cell on
the right.
"""

from __future__ import annotations

import base64
import json
import math
import operator
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .gaussian import _real, cdf_and_pdf
from .model import FbsdeProblem, _finite_number, _map_values, _positive

__all__ = [
    "TimeGrid",
    "QuantizedLayer",
    "TransitionMatrix",
    "QuantizationTree",
    "OptimizerSettings",
    "ConvergenceError",
    "DegenerateDiffusionWarning",
    "conditional_law",
    "mixture_distortion",
    "distortion_gradient",
    "optimize_grid",
    "transition_matrix",
    "build_tree",
    "save_tree",
    "load_tree",
]


class ConvergenceError(RuntimeError):
    """Grid optimization did not meet the fixed-point tolerance.

    Carries the time step of the layer that stalled, the last iterate and its
    gradient norm so callers can inspect the failure point.
    """

    def __init__(
        self, message: str, last_grid: np.ndarray, gradient_norm: float, step: int
    ):
        super().__init__(message)
        self.last_grid = last_grid
        self.gradient_norm = gradient_norm
        self.step = step


class DegenerateDiffusionWarning(UserWarning):
    """The diffusion coefficient fell below the floor somewhere on a grid."""


def _floored_diffusion(problem: FbsdeProblem, y, step: int) -> np.ndarray:
    """sigma(y) through ``_map_values``, with |sigma| floored at
    ``problem.diffusion_floor``, sign kept and exact zeros to +floor; a
    DegenerateDiffusionWarning names the count of floored nodes and ``step``."""
    s = _map_values("diffusion", step, y, problem.diffusion(y))
    eps = problem.diffusion_floor
    below = np.abs(s) < eps
    floored = int(np.count_nonzero(below))
    if floored:
        warnings.warn(
            f"diffusion below floor {eps:g} at {floored} node(s) of step {step}; flooring",
            DegenerateDiffusionWarning,
            stacklevel=3,
        )
        s = np.where(below, np.where(s < 0.0, -eps, eps), s)
    return s


def _is_integer(value) -> bool:
    """True for an int or numpy integer, False for a boolean and the rest."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


def _integer(name: str, value, least: int, below: int | None = None) -> int:
    """``value`` as an int (``operator.index``; not a boolean) of at least
    ``least`` and, if ``below`` is given, less than ``below``; else
    ValueError naming ``name``. The one rule for every integer argument."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    i = operator.index(value)
    if below is None and i < least:
        raise ValueError(f"{name} must be at least {least}, got {i}")
    if below is not None and not least <= i < below:
        raise ValueError(f"{name} must be in {least}..{below - 1}, got {i}")
    return i


@dataclass(frozen=True)
class TimeGrid:
    """Uniform mesh t_k = k T / n, k = 0..n.

    ``n`` is an integer of at least 1 (``_integer``), and ``T`` a positive
    finite real number (``model._positive``), stored as a float.
    """

    n: int
    T: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("number of time steps", self.n, 1))
        object.__setattr__(self, "T", _positive("horizon T", self.T))

    @property
    def dt(self) -> float:
        return self.T / self.n


def _increasing(x) -> bool:
    """True if the array ``x`` is finite and strictly increasing: the one
    order rule for codebooks, optimizer iterates and starting grids."""
    return bool(np.isfinite(x).all() and (x[1:] > x[:-1]).all())


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that refuses writes; ``a`` is not copied. Every array
    a layer or a solution layer holds is stored through it, and every
    transition read is returned through it."""
    v = a.view()
    v.flags.writeable = False
    return v


# A class whose fields hold arrays (these three, ``bsde_solver``'s layers and
# solution, ``report.SweepResult``) compares and hashes by identity: == on its
# arrays has no single truth value, and ``save_tree`` pairs a solution with
# its tree by ``is``.
@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    """One layer's codebook: codewords (``_ordered_grid``), their weights
    (``_probabilities``), distortion; both arrays read-only, not copied
    (``_read_only``)."""

    step: int
    codewords: np.ndarray
    weights: np.ndarray
    distortion: float

    def __post_init__(self) -> None:
        cw = _ordered_grid("codewords", self.codewords)
        w = _probabilities("weights", self.weights, cw, "codewords")
        object.__setattr__(self, "codewords", _read_only(cw))
        object.__setattr__(self, "weights", _read_only(w))
        distortion = _finite_number("distortion", self.distortion)
        if distortion < 0.0:
            raise ValueError(f"distortion must be nonnegative, got {distortion!r}")
        object.__setattr__(self, "distortion", distortion)

    @property
    def size(self) -> int:
        return int(self.codewords.size)


class _Entries:
    """The ``entries`` field of ``TransitionMatrix``: set from a matrix, which
    it checks and stores as (shape, ``np.packbits`` of the row-major mask of
    its entries with any bit set (a -0.0 has its sign bit), a copy of those
    entries); read as the dense matrix, rebuilt bit for bit as a new
    read-only array."""

    def __get__(self, tr, owner=None):
        if tr is None:
            raise AttributeError("entries")  # so the field has no default
        shape, bits, values = tr._stored
        dense = np.zeros(shape)
        dense[np.unpackbits(bits, count=dense.size).view(bool).reshape(shape)] = values
        return _read_only(dense)

    def __set__(self, tr, value):
        e = _real("entries", value, 2)
        if not (e.min() >= 0 and e.max() <= 1):  # a NaN fails both
            raise ValueError("entries must lie in [0, 1]")
        if not np.max(np.abs(e.sum(axis=1) - 1.0)) <= 1e-10:
            raise ValueError("every row must sum to 1 within 1e-10")
        nonzero = e.view(np.int64) != 0
        object.__setattr__(tr, "_stored", (e.shape, np.packbits(nonzero), e[nonzero]))


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic one-step transition probabilities between codebooks:
    a matrix with no empty dimension.

    ``entries`` is read as the dense K x N matrix, and refuses writes; use
    ``dataclasses.replace`` for another matrix. Every matrix, whatever its
    size or share of zeros, is stored by its nonzero entries alone, copied,
    under a bit mask (``_Entries``), and each read rebuilds the dense
    matrix, bit for bit, as a new array.

    A row is a Gaussian's cell masses, and its mass sits in a band of cells
    that narrows like sqrt(dt). On the Black-Scholes ladder at N = 200
    (model defaults) 0.87, 0.77, 0.63 and 0.50 of the entries are nonzero
    at n = 10, 20, 40 and 80, and the (200, 80) tree retains 13.3 MB
    against 25.7 MB with every transition dense (tracemalloc).
    """

    step: int
    entries: np.ndarray = _Entries()


@dataclass(frozen=True, eq=False)
class QuantizationTree:
    """Layers 0..n plus the n transition matrices linking them; layer k and
    transition k carry the integer step k (``_is_integer``)."""

    time_grid: TimeGrid
    layers: tuple
    transitions: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        n = self.time_grid.n
        if len(self.layers) != n + 1 or len(self.transitions) != n:
            raise ValueError("layer/transition counts must match the time grid")
        for kind, items in (("layer", self.layers), ("transition", self.transitions)):
            for k, item in enumerate(items):
                if not (_is_integer(item.step) and item.step == k):
                    raise ValueError(f"{kind} {k} has step {item.step!r}")
        for k, tr in enumerate(self.transitions):
            a, b = self.layers[k], self.layers[k + 1]
            e = tr.entries  # read once: each read rebuilds the matrix
            if e.shape != (a.size, b.size):
                raise ValueError(f"transition {k} shape does not match its layers")
            pushed = a.weights @ e
            if not np.max(np.abs(pushed - b.weights)) <= 1e-10:
                raise ValueError(f"weight propagation violated at step {k}")


@dataclass(frozen=True)
class OptimizerSettings:
    """Iteration budget and fixed-point tolerance of the grid optimizer.

    ``max_iterations`` bounds the optimizer steps per layer and is an integer
    of at least 1 (``_integer``). ``fixed_point_tol`` bounds the stationarity
    residual max_j |x_j - M1_j/M0_j| of each optimized layer, in codeword
    units (the quantity acceptance criterion 7 measures), and is a positive
    finite real number (``model._positive``).
    """

    max_iterations: int = 200
    fixed_point_tol: float = 1e-9

    def __post_init__(self) -> None:
        iterations = _integer("max_iterations", self.max_iterations, 1)
        object.__setattr__(self, "max_iterations", iterations)
        tol = _positive("fixed_point_tol", self.fixed_point_tol)
        object.__setattr__(self, "fixed_point_tol", tol)


def conditional_law(
    source: QuantizedLayer, dt: float, problem: FbsdeProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian mixture components of the next Euler layer given ``source``.

    Component i is N(m_i, v_i^2) with m_i = y_i + dt b(y_i) and
    v_i = sqrt(dt) max(|sigma(y_i)|, floor). Falling back to the floor is
    reported through a DegenerateDiffusionWarning (with the count of floored
    nodes), never silently. Drift and diffusion go through ``_map_values``.
    ``dt`` is a positive finite real number (``model._positive``);
    ``optimize_grid`` and ``transition_matrix`` pass theirs through here.
    """
    dt = _positive("time step dt", dt)
    y = source.codewords
    drift = _map_values("drift", source.step, y, problem.drift(y))
    sig = np.abs(_floored_diffusion(problem, y, source.step))
    return y + dt * drift, math.sqrt(dt) * sig


# The cdf table Phi(a) - 1{a > 0} is evaluated only on standardized boundaries
# inside this band and taken as 0 outside it, dropping at most Phi(-8.3) =
# 5.2e-17 of mass per entry above it and Phi(-8.5) = 9.5e-18 below. The pdf is
# 0 outside the band, and infinite outer boundaries fall outside it.
_BAND_LO, _BAND_HI = -8.5, 8.3


def _ordered_grid(name: str, grid) -> np.ndarray:
    """``grid`` as a float array if it is a nonempty 1-d array (``_real``)
    and ``_increasing``; ValueError naming ``name`` otherwise. The one rule
    for layer codewords and the grids of the distortion functions."""
    x = _real(name, grid, 1)
    if not _increasing(x):
        raise ValueError(f"{name} must be finite and strictly increasing")
    return x


def _probabilities(name: str, p, like: np.ndarray, like_name: str) -> np.ndarray:
    """``p`` as a float array (``_real``) of the shape of ``like``, named
    ``like_name``, finite, nonnegative and summing to 1 within 1e-12; else
    ValueError naming ``name``. The one rule for weights and mixture probs."""
    p = _real(name, p)
    if p.shape != like.shape:
        raise ValueError(f"{name} must have the shape {like.shape} of {like_name}, got {p.shape}")
    if not (np.isfinite(p) & (p >= 0.0)).all():
        raise ValueError(f"{name} must be finite and nonnegative")
    if not abs(float(p.sum()) - 1.0) <= 1e-12:
        raise ValueError(f"{name} must sum to 1 within 1e-12, got {float(p.sum())!r}")
    return p


def _mixture_input(means, stds, probs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``means`` (nonempty 1-d, finite), ``stds`` (their shape, finite and
    positive) and ``probs`` (``_probabilities`` of the means' shape) as float
    arrays (``_real``); ValueError naming the argument otherwise."""
    m, v = _real("means", means, 1), _real("stds", stds)
    if v.shape != m.shape:
        raise ValueError(f"stds must have the shape {m.shape} of means, got {v.shape}")
    if not np.isfinite(m).all():
        raise ValueError("means must be finite")
    if not (np.isfinite(v) & (v > 0.0)).all():
        raise ValueError("stds must be finite and positive")
    return m, v, _probabilities("probs", probs, m, "means")


class _Mixture:
    """One layer's Gaussian mixture sum_i p_i N(m_i, v_i^2); the start and
    every kernel call of the layer read it, on grids of any size.

    It holds the float arrays ``m``, ``v``, ``p`` as given, the mean ``c``,
    the centred means ``mc``, the spread ``s`` and the 3 x K rows of the
    kernel's two moment products (``q`` for the density table, ``r`` for the
    cell masses), and nothing whose shape depends on a grid: each kernel
    call allocates its own tables (``_mixture_stats``).
    """

    def __init__(self, m: np.ndarray, v: np.ndarray, p: np.ndarray):
        self.m, self.v, self.p = m, v, p
        self.c = float(p @ m)
        self.mc = mc = m - self.c
        e2 = mc * mc + v * v
        self.s = math.sqrt(float(p @ e2))
        self.q = np.array([p * v, p * v * mc, p / v])
        self.r = np.array([p, p * mc, p * e2])


def _mixture_stats(x: np.ndarray, mix: _Mixture):
    """Aggregated cell statistics of the Gaussian mixture ``mix`` over the
    Voronoi cells of the increasing float array ``x``.

    Returns (M0, M1, distortion, F, raw) where, for cell j, M0_j / M1_j are
    the mixture's zeroth/first partial moments, F holds the mixture density
    at the n+1 cell boundaries (exact zeros at the infinite ends) and raw
    (K x n) holds the per-component cell masses, which give the transition
    probabilities. The cdf table holds Phi(a) - 1{a > 0}, 0 at infinite
    boundaries and outside the band (_BAND_LO, _BAND_HI) of standardized
    values, where the pdf is 0 too; so a cell mass is a difference of small
    numbers, plus 1 in the cell that holds the component's mean.

    Moments are aggregated over components by two 3-row matrix products,
    taken about the mixture mean c: component i contributes
    (m_i - c) m0 + v_i dphi to the first moment and
    ((m_i - c)^2 + v_i^2) m0 + [v_i phi(b~) ((b - c) + (m_i - c))] differences
    to the second. Centring keeps the distortion from cancelling terms of
    size c^2 against each other.

    Each call allocates its two K x (n+1) tables as one block, and ``raw``
    is a view into it, so the tables live as long as the caller keeps
    ``raw``. The cdf runs on the in-band boundaries alone: on their copy
    ``in_band``, which it returns as the pdf, and on about 19.5 bytes per
    boundary of work arrays. This puts the peak of the Black-Scholes
    (200, 80) build 0.97 MB above the 13.3 MB tree it retains (tracemalloc).
    """
    n, K = x.size, mix.m.size
    bounds = np.empty(n + 1)
    bounds[0] = -np.inf
    bounds[-1] = np.inf
    bounds[1:-1] = 0.5 * (x[:-1] + x[1:])

    # one block, not two arrays: two per call cross glibc's trim threshold
    # more often and fault about four times as many pages per build
    C, P = tables = np.empty((2, K, n + 1))
    a = np.subtract(bounds[None, :], mix.m[:, None], out=C)
    a /= mix.v[:, None]  # standardized, comps x (n+1); C replaces it below
    band = a > _BAND_LO
    band &= a < _BAND_HI
    in_band = a[band]
    tables.fill(0.0)
    C[band], P[band] = cdf_and_pdf(in_band)

    c = mix.c
    Q = mix.q @ P
    # per-component cell masses, in the first K x n doubles of the spent P
    raw = np.subtract(C[:, 1:], C[:, :-1], out=P.reshape(-1)[: K * n].reshape(K, n))
    raw[np.arange(K), np.searchsorted(bounds, mix.m, side="right") - 1] += 1.0
    R = mix.r @ raw

    M0 = R[0]
    M1c = R[1] + Q[0, :-1] - Q[0, 1:]  # first moment about c
    M1 = M1c + c * M0
    t = np.zeros(n + 1)
    t[1:-1] = (bounds[1:-1] - c) * Q[0, 1:-1] + Q[1, 1:-1]
    xc = x - c
    dist = float(((R[2] + t[:-1] - t[1:]) - 2.0 * xc * M1c + xc * xc * M0).sum())
    return M0, M1, dist, Q[2], raw


def mixture_distortion(grid, means, stds, probs) -> float:
    """Quadratic distortion of ``grid`` as a quantizer of a Gaussian mixture.

    The mixture has one or more components N(means[i], stds[i]^2) with
    probabilities ``probs``, which sum to 1 within 1e-12 (``_mixture_input``
    checks the arguments); cells are the Voronoi midpoint intervals of the
    sorted grid with infinite outer edges. Computed in closed form from
    partial moments up to order two.
    """
    x = _ordered_grid("grid", grid)
    return _mixture_stats(x, _Mixture(*_mixture_input(means, stds, probs)))[2]


def distortion_gradient(grid, means, stds, probs) -> np.ndarray:
    """Analytic gradient of mixture_distortion: g_j = 2 (x_j M0_j - M1_j)."""
    x = _ordered_grid("grid", grid)
    M0, M1, _, _, _ = _mixture_stats(x, _Mixture(*_mixture_input(means, stds, probs)))
    return 2.0 * (x * M0 - M1)


def _solve_tridiagonal_spd(diag, off, rhs):
    """Solve the symmetric tridiagonal system with diagonal ``diag`` and
    off-diagonal ``off`` by an LDL^T factorization, in plain Python lists.

    Returns None as soon as a pivot is not positive (NaN included), which is
    exactly when the matrix is not positive definite.
    """
    n = len(diag)
    d = [0.0] * n
    ell = [0.0] * n
    y = [0.0] * n
    piv = diag[0]
    if not piv > 0.0:
        return None
    d[0], y[0] = piv, rhs[0]
    for j in range(1, n):
        lj = off[j - 1] / d[j - 1]
        piv = diag[j] - lj * off[j - 1]
        if not piv > 0.0:
            return None
        ell[j], d[j], y[j] = lj, piv, rhs[j] - lj * y[j - 1]
    y[-1] /= d[-1]
    for j in range(n - 2, -1, -1):
        y[j] = y[j] / d[j] - ell[j + 1] * y[j + 1]
    return y


def _newton_direction(x, M0, F, g):
    """Solve H delta = -g for the tridiagonal distortion Hessian.

    H_jj = 2 M0_j - (dx_{j-1}/2) F_j - (dx_j/2) F_{j+1},
    H_{j,j+1} = -(dx_j/2) F_{j+1}, with F the mixture density at the interior
    boundaries. The Hessian can lose definiteness in near-empty tail cells;
    a Levenberg shift escalates until the LDL^T factorization has positive
    pivots.
    """
    off = -0.5 * (x[1:] - x[:-1]) * F[1:-1]
    diag = 2.0 * M0
    diag[:-1] += off
    diag[1:] += off
    scale = max(float(np.abs(diag).max()), 1e-300)
    diag, off, rhs = diag.tolist(), off.tolist(), (-g).tolist()
    shift = 0.0
    for _ in range(12):
        shifted = [dj + shift for dj in diag] if shift else diag
        delta = _solve_tridiagonal_spd(shifted, off, rhs)
        if delta is not None:
            return np.array(delta)
        shift = scale * 1e-12 if shift == 0.0 else shift * 100.0
    return None


def _optimize_codewords(mix: _Mixture, x: np.ndarray, settings: OptimizerSettings, step: int):
    """Damped-Newton / Lloyd iteration to a stationary grid from ``x``, which it never writes.

    Newton candidates are accepted only if they keep the grid strictly
    increasing and do not increase the distortion (backtracking halves the
    step up to 9 times); otherwise a Lloyd step (codeword <- cell conditional
    mean) is taken. Before each step, and after the last one, the
    stationarity residual max_j |x_j - M1_j/M0_j| = max_j |g_j| / (2 M0_j)
    is read off the stats already computed on the current grid, so the stop
    costs no kernel call. The iteration returns as soon as the residual is
    below the fixed-point tolerance, with the grid, its distortion and its
    per-component cell masses ``raw`` (``_mixture_stats``).
    """
    M0, M1, dist, F, raw = _mixture_stats(x, mix)
    for it in range(settings.max_iterations + 1):
        g = 2.0 * (x * M0 - M1)
        resid = float(np.max(np.abs(g) / np.maximum(2.0 * M0, 1e-300)))
        if resid < settings.fixed_point_tol:
            return x, dist, raw
        if it == settings.max_iterations:
            break
        # one set of kernel tables at a time: this grid's, and each rejected
        # candidate's, go before the next call allocates its own
        raw = stats = None
        delta = _newton_direction(x, M0, F, g)
        if delta is not None and np.isfinite(delta).all():
            lam = 1.0
            for _h in range(9):
                cand = x + lam * delta
                if _increasing(cand):
                    stats = _mixture_stats(cand, mix)
                    if stats[2] <= dist + 1e-12 * (abs(dist) + 1.0):
                        break
                    stats = None
                lam *= 0.5
        if stats is None:
            # Lloyd step; empty cells keep their codeword. Exact Lloyd maps
            # preserve ordering, so only float noise can produce ties.
            cand = np.where(M0 > 0.0, M1 / np.maximum(M0, 1e-300), x)
            bad = np.diff(cand) <= 0
            while np.any(bad):
                idx = np.nonzero(bad)[0]
                cand[idx + 1] = np.nextafter(cand[idx], np.inf)
                bad = np.diff(cand) <= 0
            stats = _mixture_stats(cand, mix)
        x = cand
        M0, M1, dist, F, raw = stats
    raise ConvergenceError(
        f"grid optimization stalled at step {step}: stationarity residual "
        f"{resid:.3e} after {settings.max_iterations} iterations "
        f"(tol {settings.fixed_point_tol:g})",
        last_grid=x,
        gradient_norm=float(np.max(np.abs(g))),
        step=step,
    )


def _quantile_start(mix: _Mixture, n: int) -> np.ndarray:
    """``n`` moment-matched Gaussian quantile points for ``mix``. The
    variance is sum p (v^2 + m^2) - c^2, not ``mix.s``^2: the two round
    differently, and that moves builds on a knife edge."""
    var = float(mix.p @ (mix.v**2 + mix.m**2)) - mix.c * mix.c
    sd = math.sqrt(max(var, 1e-300))
    inv_cdf = NormalDist().inv_cdf
    q = [(2.0 * j - 1.0) / (2.0 * n) for j in range(1, n + 1)]
    return mix.c + sd * np.array([inv_cdf(qj) for qj in q])


def _normalized_transition(step: int, raw) -> TransitionMatrix:
    """Transition matrix from per-component cell masses.

    Rows telescope to 1 up to roundoff; they are renormalized if off by at
    most 1e-10 and rejected otherwise, since a larger defect means the grid
    or cdf is broken upstream. The check runs before ``raw`` is touched.
    ``raw`` is then divided in place and the transition is built from it,
    a copy of its nonzero entries and their packed mask, so ``raw`` still
    holds the dense normalized masses afterwards and is not kept.
    """
    sums = raw.sum(axis=1)
    if not np.max(np.abs(sums - 1.0)) <= 1e-10:
        raise RuntimeError(
            f"transition row sums off by {np.max(np.abs(sums - 1.0)):.3e} "
            f"at step {step}; upstream grid or cdf bug"
        )
    raw /= sums[:, None]
    return TransitionMatrix(step, raw)


def _quantize_layer(
    prev: QuantizedLayer, mix: _Mixture, settings: OptimizerSettings, start: np.ndarray
) -> tuple[QuantizedLayer, TransitionMatrix]:
    """Optimize the layer after ``prev`` against its conditional mixture
    ``mix`` from ``start``, and link the two by their transition matrix.

    The transition comes from the cell masses the optimizer returns with its
    grid, and the layer's weights are ``prev.weights`` pushed through those
    masses rather than through the transition, so that the transition is
    not rebuilt; the two are the same numbers, so the propagation invariant
    holds exactly. If the optimizer stalls while the component means
    ``mix.m`` are not strictly increasing in the codewords of ``prev``, the
    ConvergenceError's message also says that the Euler map reverses order
    at that step and gives the smallest slope dm/dy; this is computed only
    on that failure path.
    """
    try:
        x, dist, raw = _optimize_codewords(mix, start, settings, prev.step + 1)
    except ConvergenceError as exc:
        slope = np.diff(mix.m) / np.diff(prev.codewords)
        if slope.size and not slope.min() > 0.0:
            raise ConvergenceError(
                f"{exc}; the Euler map reverses order at step {exc.step}: smallest "
                f"slope dm/dy {slope.min():.3g} across the source codewords",
                exc.last_grid, exc.gradient_norm, exc.step,
            ) from None
        raise
    tr = _normalized_transition(prev.step, raw)
    return QuantizedLayer(prev.step + 1, x, prev.weights @ raw, dist), tr


def optimize_grid(
    prev: QuantizedLayer,
    dt: float,
    problem: FbsdeProblem,
    N: int,
    settings: OptimizerSettings | None = None,
) -> QuantizedLayer:
    """Optimize the next layer's N-point codebook given the previous layer.

    The target law is the Gaussian mixture from ``conditional_law(prev)``.
    The returned layer is stationary: each codeword equals the conditional
    mean M1_j/M0_j of its own cell to within ``settings.fixed_point_tol``,
    in codeword units. Weights are ``prev.weights`` pushed through the
    normalized transition matrix, which is built from the optimizer's last
    cell masses and discarded; this is the layer ``build_tree`` would
    produce from ``prev`` with the same start, the moment-matched quantiles.
    ``N`` is an integer of at least 1 (``_integer``). Raises
    ConvergenceError when the iteration budget runs out, and RuntimeError
    when a transition row sum is off by more than 1e-10 (see
    ``transition_matrix``).
    """
    N = _integer("codeword count N", N, 1)
    mix = _Mixture(*conditional_law(prev, dt, problem), prev.weights)
    start = _quantile_start(mix, N)
    return _quantize_layer(prev, mix, settings or OptimizerSettings(), start)[0]


def transition_matrix(
    prev: QuantizedLayer, next_layer: QuantizedLayer, dt: float, problem: FbsdeProblem
) -> TransitionMatrix:
    """One-step transition probabilities between adjacent codebooks.

    P_ij is the mass that component i of the conditional mixture assigns to
    cell j of the next layer: a difference of Gaussian cdf values at the
    cell midpoints. Rows telescope to 1 up to roundoff; they are
    renormalized if off by at most 1e-10 and rejected otherwise, since a
    larger defect means the grid or cdf is broken upstream.
    """
    mix = _Mixture(*conditional_law(prev, dt, problem), prev.weights)
    return _normalized_transition(prev.step, _mixture_stats(next_layer.codewords, mix)[4])


def _warm_start_from(mix: _Mixture) -> np.ndarray | None:
    """Moment-matched start: the component means standardized, z = d/sigma_d
    with d = m - c, mapped to c + s (z + (gamma - gamma_z)/6 (z^2 - 1)),
    where c, s and gamma are the mixture's mean, spread and skewness and
    gamma_z the skewness of z under its weights (the first Cornish-Fisher
    term). Its weighted mean is c, since sum p z = 0 and sum p z^2 = 1.
    None for a point codebook or a start that is not ``_increasing``."""
    p, d, s = mix.p, mix.mc, mix.s
    var_d = float(p @ (d * d))
    if var_d <= 0.0:
        return None
    z = d / math.sqrt(var_d)
    gamma = float(p @ (d * d * d + 3.0 * d * (mix.v * mix.v))) / s**3
    gamma_z = float(p @ (z * z * z))
    x0 = mix.c + s * (z + (gamma - gamma_z) / 6.0 * (z * z - 1.0))
    return x0 if _increasing(x0) else None


def _extrapolate(nodes, misses, at):
    """Value at ``at`` of the Lagrange polynomial through ``misses`` placed
    at the distinct ``nodes``."""
    total = 0.0
    for j, (node, miss) in enumerate(zip(nodes, misses)):
        weight = 1.0
        for i, other in enumerate(nodes):
            if i != j:
                weight *= (at - other) / (node - other)
        total = total + weight * miss
    return total


def build_tree(
    problem: FbsdeProblem,
    grid: TimeGrid,
    N: int,
    settings: OptimizerSettings | None = None,
) -> QuantizationTree:
    """Quantize all Euler layers of ``problem`` on ``grid`` with N codewords.

    Layer 0 is a Dirac at ``y0``; layers 1..n carry N codewords each. Each
    layer is optimized against the mixture induced by its predecessor and
    linked to it by a transition matrix, so marginal weights propagate
    exactly. Per layer the conditional law is evaluated once, and the
    transition reuses the optimizer's last cell masses. Layers after the
    first are warm-started from the moment-matched start of
    ``_warm_start_from`` (the standardized component means, scaled to the
    mixture's spread s and corrected for its skewness), plus the
    extrapolated miss. A layer's miss is its optimized codewords minus its
    own moment-matched start. The misses of the last one to four warm
    layers, each placed at its layer's spread s, are extrapolated to the new
    layer's s by their Lagrange polynomial, and the sum is kept only if it
    is strictly increasing. The first layer, and a layer whose start is not
    increasing, start at moment-matched Gaussian quantiles. ``N`` is an
    integer of at least 1 (``_integer``).
    """
    N = _integer("codeword count N", N, 1)
    settings = settings or OptimizerSettings()
    dt = grid.dt
    layers = [QuantizedLayer(0, np.array([problem.y0]), np.array([1.0]), 0.0)]
    transitions = []
    history = []  # (spread, miss) of the last four warm layers, oldest first
    for k in range(grid.n):
        prev = layers[-1]
        mix = _Mixture(*conditional_law(prev, dt, problem), prev.weights)
        warm = _warm_start_from(mix) if prev.size == N else None
        start = _quantile_start(mix, N) if warm is None else warm
        if warm is not None:
            # Lagrange weights divide by node differences: nodes stay distinct
            history = [h for h in history if h[0] != mix.s]
            if history:
                carried = warm + _extrapolate(*zip(*history), mix.s)
                start = carried if _increasing(carried) else warm
        layer, tr = _quantize_layer(prev, mix, settings, start)
        history = [] if warm is None else [*history[-3:], (mix.s, layer.codewords - warm)]
        layers.append(layer)
        transitions.append(tr)
    return QuantizationTree(grid, tuple(layers), tuple(transitions))


_FORMAT = "quantbsde-tree"
_VERSION = 2  # the one version save_tree writes and load_tree reads


def save_tree(tree: QuantizationTree, path, solution=None) -> None:
    """Serialize a tree (optionally with a backward solution) as JSON.

    The conventional file extension is ``.rmq.json``. The file's bytes are
    the text of one ``json.dumps`` of the version-2 document {format,
    version, time_grid, layers, transitions[, solution]}. Codewords,
    weights, distortions and the solution are JSON numbers, written with
    full round-trip precision. Each transition is {step, shape, entries},
    where ``entries`` is one base64 string of the matrix's row-major bytes
    as little-endian float64 (``<f8``), so its values are exact but no
    longer readable as text.

    No part of the document is held as one string: the head, each layer and
    each solution row go through their own ``json.dumps`` and are written
    to a binary file as they are made, and each transition's base64 bytes
    are written as they are (the base64 alphabet needs no JSON escaping).
    So the memory the writer adds is about one transition's base64:
    +0.17 MB over its start by tracemalloc at (N, n) = (100, 50) with a
    solution, where the file is 5.6 MB.

    Before the file is opened, the solution is checked as ``load_tree``
    checks it (``_check_solution``, on the solution's own arrays), and it
    must be the solution of ``tree`` itself (``solution.tree is tree``);
    ValueError otherwise.
    """
    if solution is not None:
        values = [vl.values for vl in solution.value_layers]
        controls = [cl.controls for cl in solution.control_layers]
        _check_solution({"u0": solution.u0, "values": values, "controls": controls}, tree)
        if solution.tree is not tree:
            raise ValueError("solution belongs to another tree")
    head = {"format": _FORMAT, "version": _VERSION,
            "time_grid": {"n": tree.time_grid.n, "T": tree.time_grid.T}}
    with open(path, "wb") as fh:
        fh.write(_dumps(head)[:-1] + b', "layers": ')
        _write_array(fh, (
            (_dumps({"step": la.step, "codewords": la.codewords.tolist(),
                     "weights": la.weights.tolist(), "distortion": la.distortion}),)
            for la in tree.layers
        ))
        fh.write(b', "transitions": ')
        _write_array(fh, (
            (_dumps({"step": tr.step, "shape": list(e.shape)})[:-1] + b', "entries": "',
             base64.b64encode(np.ascontiguousarray(e, dtype="<f8")),  # row-major
             b'"}')
            for tr in tree.transitions
            for e in (tr.entries,)  # read once: each read rebuilds the matrix
        ))
        if solution is not None:
            fh.write(b', "solution": ' + _dumps({"u0": solution.u0})[:-1] + b', "values": ')
            _write_array(fh, ((_dumps(row.tolist()),) for row in values))
            fh.write(b', "controls": ')
            _write_array(fh, ((_dumps(row.tolist()),) for row in controls))
            fh.write(b"}")
        fh.write(b"}")


def _dumps(obj) -> bytes:
    """``json.dumps(obj)`` as bytes; its text is ASCII (``ensure_ascii``)."""
    return json.dumps(obj).encode("ascii")


def _write_array(fh, items) -> None:
    """Write to the binary file ``fh`` the JSON array whose elements are
    ``items``, each a sequence of byte strings written one after another,
    so no element or the array is ever joined into one string."""
    fh.write(b"[")
    sep = b""
    for parts in items:
        fh.write(sep)
        fh.writelines(parts)
        sep = b", "
        del parts  # freed before the next element is made
    fh.write(b"]")


def load_tree(path) -> tuple[QuantizationTree, dict | None]:
    """Load a serialized tree; returns (tree, solution-dict-or-None).

    Reads the version-2 files ``save_tree`` writes, whose transition
    entries are base64 (``_float64s``). A file that is not tree JSON (not
    UTF-8, or nested too deep to parse, included), is of another version,
    lacks a key, holds a field of the wrong type or value, or carries a
    solution whose ``values``/``controls`` do not match the
    layer sizes or whose u0 is not its first layer-0 value raises ValueError
    naming ``path``. The version and the step labels are JSON integers, so
    not ``true`` or ``2.0``, and each transition's shape is two of them,
    neither negative (``_matrix_shape``), checked before its entries are
    decoded (``_float64s``), which lie in [0, 1] (``TransitionMatrix``). Every
    other number read is a finite JSON int or float, not a boolean: lists by
    ``_numbers`` and then their reader, distortions and u0 by ``_finite_number``.
    Top-level keys other than those above are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError(f"not a quantization-tree file: {path}")
    version = doc.get("version")
    if type(version) is not int or version != _VERSION:
        raise ValueError(f"{path}: unsupported tree format version {version!r}")
    try:
        tree = _tree_from_doc(doc)
        solution = doc.get("solution")
        if solution is not None:
            _check_solution(solution, tree)
    except KeyError as exc:
        raise ValueError(f"malformed tree file {path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed tree file {path}: {exc}") from exc
    return tree, solution


def _numbers(name: str, items) -> np.ndarray:
    """``items`` as a float array if it is a 1-d float array or a list of
    JSON numbers (int or float, not a boolean), finite or not: its reader
    checks that, as ``_check_solution`` does; ValueError naming ``name`` otherwise."""
    if (isinstance(items, np.ndarray) and items.dtype == float and items.ndim == 1
            or isinstance(items, list) and set(map(type, items)) <= {int, float}):
        return np.asarray(items, dtype=float)
    raise ValueError(f"{name} must be finite numbers")


def _float64s(name: str, text, shape) -> np.ndarray:
    """``text`` decoded as base64 of the row-major little-endian float64
    bytes of an array of ``shape``, if it holds 8 bytes per element; else
    ValueError naming ``name``. ``TransitionMatrix`` checks the values."""
    if not isinstance(text, str):
        raise ValueError(f"{name} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{name} must be base64 ({exc})") from exc
    want = 8 * math.prod(shape)
    if len(raw) != want:
        raise ValueError(f"{name} hold {len(raw)} bytes, not {want} for shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def _matrix_shape(shape) -> list[int]:
    """A transition's ``shape`` if it is a list of two JSON integers, each at
    least 0 (``_integer``); else ValueError, in ``_real``'s form if it is not.
    Checked before the entries are decoded, whose byte count it sets."""
    if not (isinstance(shape, list) and len(shape) == 2):
        raise ValueError(f"entries must be a nonempty 2-d array, got shape {shape!r}")
    return [_integer("transition shape", size, 0) for size in shape]


def _tree_from_doc(doc: dict) -> QuantizationTree:
    """The tree of ``doc``; ``_float64s`` decodes each transition's entries,
    once ``_matrix_shape`` has checked its shape."""
    tg = TimeGrid(doc["time_grid"]["n"], doc["time_grid"]["T"])
    layers = [
        QuantizedLayer(la["step"], _numbers("codewords", la["codewords"]),
                       _numbers("weights", la["weights"]), la["distortion"])
        for la in doc["layers"]
    ]
    transitions = [
        TransitionMatrix(
            tr["step"], _float64s("entries", tr["entries"], _matrix_shape(tr["shape"]))
        )
        for tr in doc["transitions"]
    ]
    return QuantizationTree(tg, layers, transitions)


def _check_solution(solution: dict, tree: QuantizationTree) -> dict:
    """``solution`` if its value and control layers (0..n, 0..n-1) match the
    tree's layer sizes, they (``_numbers``, then a finiteness scan here) and
    u0 are finite numbers, and u0 is exactly the first value of layer 0 (JSON
    keeps floats bit for bit); ValueError otherwise."""
    sizes = [la.size for la in tree.layers]
    for key, want in (("values", sizes), ("controls", sizes[:-1])):
        if [len(row) for row in solution[key]] != want:
            raise ValueError(f"solution {key} do not match the layer sizes")
        for row in solution[key]:
            if not np.isfinite(_numbers(f"solution {key}", row)).all():
                raise ValueError(f"solution {key} must be finite numbers")
    u0, first = _finite_number("solution u0", solution["u0"]), solution["values"][0][0]
    if u0 != first:
        raise ValueError(f"solution u0 {u0!r} is not the layer-0 value {float(first)!r}")
    return solution
