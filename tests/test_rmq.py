"""Quantizer construction: mixture moments, grid optimization, tree building.

Numerical claims are checked against independent oracles: adaptive
quadrature for distortions, finite differences for gradients, a scalar
minimizer for the two-point optimum, and Monte Carlo for transition
probabilities.
"""

import base64
import dataclasses
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from quantbsde import (
    BergmanParams,
    BlackScholesParams,
    ConvergenceError,
    DegenerateDiffusionWarning,
    MODELS,
    FbsdeProblem,
    OptimizerSettings,
    QuantizationTree,
    QuantizedLayer,
    SweepResult,
    SweepSpec,
    TimeGrid,
    TransitionMatrix,
    build_tree,
    conditional_law,
    distortion_gradient,
    load_tree,
    make_bergman,
    make_black_scholes,
    mixture_distortion,
    normal_cdf,
    optimize_grid,
    save_tree,
    solve,
    transition_matrix,
)
import quantbsde.rmq as rmq_mod

from oracles import (
    EULER_MEAN_GBM,
    ONE_MINUS_2_OVER_PI,
    SQRT_2_OVER_PI,
    fd_gradient,
    quad_partial_moments,
    random_mixture,
    random_sorted_grid,
)


def gbm_problem(mu=0.05, sigma=0.2, T=0.25, y0=100.0):
    # geometric Brownian motion forward part; the backward data is unused here
    return make_black_scholes(
        BlackScholesParams(rate=mu, sigma=sigma, strike=100.0), T=T, y0=y0
    )


def unit_gaussian_problem():
    """Forward part whose one-step law from y0=0 with dt=1 is exactly N(0,1)."""
    return FbsdeProblem(
        drift=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        diffusion=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        driver=lambda t, y, u, v: np.zeros_like(np.asarray(u, dtype=float)),
        terminal=lambda y: np.asarray(y, dtype=float),
        T=1.0,
        y0=0.0,
        diffusion_floor=1e-12,
    )


def kernel_stats(grid, means, stds, probs):
    """``rmq._mixture_stats`` of ``grid`` with a fresh ``_Mixture`` object;
    the inputs are taken as float arrays, the form the kernel is given in
    the package."""
    grid, means, stds, probs = (np.asarray(a, dtype=float) for a in (grid, means, stds, probs))
    return rmq_mod._mixture_stats(grid, rmq_mod._Mixture(means, stds, probs))


def layer_mixture(layer, dt, problem):
    """The ``_Mixture`` of the layer after ``layer``."""
    return rmq_mod._Mixture(*conditional_law(layer, dt, problem), layer.weights)


def b64_float64s(values):
    """``values`` as base64 of their little-endian float64 bytes."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def tree_document(tree, sol=None):
    """The version-2 document of a saved tree, built by hand: each
    transition's entries are base64 of their row-major little-endian float64
    bytes."""
    doc = {
        "format": "quantbsde-tree",
        "version": 2,
        "time_grid": {"n": tree.time_grid.n, "T": tree.time_grid.T},
        "layers": [
            {"step": la.step, "codewords": la.codewords.tolist(),
             "weights": la.weights.tolist(), "distortion": la.distortion}
            for la in tree.layers
        ],
        "transitions": [
            {"step": tr.step, "shape": list(tr.entries.shape),
             "entries": b64_float64s(tr.entries.ravel().tolist())}
            for tr in tree.transitions
        ],
    }
    if sol is not None:
        doc["solution"] = {
            "u0": sol.u0,
            "values": [vl.values.tolist() for vl in sol.value_layers],
            "controls": [cl.controls.tolist() for cl in sol.control_layers],
        }
    return doc


def dirac(at=0.0, step=0):
    return QuantizedLayer(step, np.array([at]), np.array([1.0]), 0.0)


def quad_distortion(grid, means, stds, probs):
    """Brute-force distortion: integrate min_j (u - x_j)^2 against the mixture."""
    x = np.asarray(grid, dtype=float)
    lo = float(np.min(means) - 12.0 * np.max(stds))
    hi = float(np.max(means) + 12.0 * np.max(stds))

    def fn(u):
        dens = 0.0
        for m, s, p in zip(means, stds, probs):
            z = (u - m) / s
            dens += p * math.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
        return float(np.min((u - x) ** 2)) * dens

    kinks = [b for b in 0.5 * (x[:-1] + x[1:]) if lo < b < hi]
    kinks += [xi for xi in x if lo < xi < hi]
    return quad(
        fn, lo, hi, points=sorted(kinks), limit=500, epsabs=1e-11, epsrel=1e-11
    )[0]


class TestTimeGrid:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 100])
    def test_mesh_telescopes_to_horizon(self, n):
        g = TimeGrid(n, 0.25)
        assert abs(g.dt * n - 0.25) <= np.spacing(0.25)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            TimeGrid(0, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(10, 0.0)

    def test_horizon_is_stored_as_a_float(self):
        g = TimeGrid(3, 1)
        assert type(g.T) is float and g.T == 1.0
        assert type(TimeGrid(3, np.float32(0.25)).dt) is float

    def test_tree_on_a_float32_horizon_saves_and_round_trips(self, tmp_path):
        grid = TimeGrid(3, np.float32(0.25))
        tree = build_tree(gbm_problem(), grid, 4)
        path = tmp_path / "f32.rmq.json"
        save_tree(tree, path)
        loaded, _ = load_tree(path)
        assert loaded.time_grid == grid == TimeGrid(3, 0.25)
        for la, lb in zip(loaded.layers, tree.layers):
            assert np.array_equal(la.codewords, lb.codewords)


class TestConditionalLaw:
    def test_dirac_source(self):
        means, stds = conditional_law(dirac(100.0), 0.05, gbm_problem())
        assert means == pytest.approx([100.25], abs=1e-13)
        assert stds == pytest.approx([math.sqrt(0.05) * 20.0], abs=1e-13)

    def test_floor_kicks_in_with_warning(self):
        problem = FbsdeProblem(
            drift=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            diffusion=lambda y: 0.01 * np.ones_like(np.asarray(y, dtype=float)),
            driver=lambda t, y, u, v: 0.0 * np.asarray(u, dtype=float),
            terminal=lambda y: y,
            T=1.0,
            y0=0.0,
            diffusion_floor=2.0,
        )
        with pytest.warns(DegenerateDiffusionWarning):
            _, stds = conditional_law(dirac(0.0), 0.25, problem)
        assert stds == pytest.approx([0.5 * 2.0], abs=1e-15)


class TestDistortion:
    def test_single_point_at_the_mean_leaves_the_variance(self):
        assert mixture_distortion([3.0], [3.0], [1.5], [1.0]) == pytest.approx(
            1.5**2, rel=1e-13
        )

    def test_single_point_off_the_mean(self):
        got = mixture_distortion([4.0], [3.0], [1.5], [1.0])
        assert got == pytest.approx(1.5**2 + 1.0, rel=1e-13)

    def test_two_point_standard_normal_optimum_value(self):
        g = np.array([-SQRT_2_OVER_PI, SQRT_2_OVER_PI])
        got = mixture_distortion(g, [0.0], [1.0], [1.0])
        assert got == pytest.approx(ONE_MINUS_2_OVER_PI, abs=1e-13)

    def test_two_point_optimum_location_via_scalar_minimizer(self):
        res = minimize_scalar(
            lambda a: mixture_distortion([-a, a], [0.0], [1.0], [1.0]),
            bounds=(0.1, 3.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert res.x == pytest.approx(SQRT_2_OVER_PI, abs=1e-7)

    def test_matches_quadrature_on_random_mixtures(self):
        rng = np.random.default_rng(512)
        for _ in range(20):
            means, stds, probs = random_mixture(rng, max_components=3)
            grid = random_sorted_grid(rng, int(rng.integers(1, 7)), spread=3.0)
            want = quad_distortion(grid, means, stds, probs)
            got = mixture_distortion(grid, means, stds, probs)
            assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_matches_quadrature_for_a_mixture_centred_at_100(self):
        means = np.array([97.0, 100.5, 104.0])
        stds = np.array([1.5, 3.0, 0.8])
        probs = np.array([0.3, 0.5, 0.2])
        grid = np.array([93.0, 97.5, 99.0, 100.2, 102.0, 104.5])
        got = mixture_distortion(grid, means, stds, probs)
        assert got == pytest.approx(
            quad_distortion(grid, means, stds, probs), rel=1e-7, abs=1e-9
        )
        M0, M1, _, _, _ = kernel_stats(grid, means, stds, probs)
        bounds = np.concatenate(([-np.inf], 0.5 * (grid[:-1] + grid[1:]), [np.inf]))
        for j in range(grid.size):
            parts = [
                quad_partial_moments(bounds[j], bounds[j + 1], m, s)
                for m, s in zip(means, stds)
            ]
            assert M0[j] == pytest.approx(
                sum(p * q[0] for p, q in zip(probs, parts)), abs=1e-12
            )
            assert M1[j] == pytest.approx(
                sum(p * q[1] for p, q in zip(probs, parts)), rel=1e-11, abs=1e-10
            )

    def test_shift_invariant_on_a_black_scholes_layer(self):
        # an N=200 layer with means near 100: moving grid and means together
        # leaves the distortion unchanged, up to the rounding of the shift
        problem = make_black_scholes(
            BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0), T=1.0, y0=100.0
        )
        tree = build_tree(problem, TimeGrid(5, 1.0), 200)
        prev, layer = tree.layers[3], tree.layers[4]
        means, stds = conditional_law(prev, tree.time_grid.dt, problem)
        base = mixture_distortion(layer.codewords, means, stds, prev.weights)
        for shift in (-100.0, 0.0, 100.0, 1000.0):
            got = mixture_distortion(
                layer.codewords + shift, means + shift, stds, prev.weights
            )
            assert abs(got - base) <= 1e-10 * base, shift

    def test_refining_the_grid_cannot_increase_distortion(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            means, stds, probs = random_mixture(rng)
            big = random_sorted_grid(rng, 6, spread=2.0)
            keep = np.sort(rng.choice(6, size=3, replace=False))
            small = big[keep]
            d_small = mixture_distortion(small, means, stds, probs)
            d_big = mixture_distortion(big, means, stds, probs)
            assert d_big <= d_small + 1e-12

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            mixture_distortion([1.0, 0.0], [0.0], [1.0], [1.0])

    @pytest.mark.parametrize("fn", [mixture_distortion, distortion_gradient])
    @pytest.mark.parametrize("grid", [[0.0, math.inf], [math.nan]], ids=["inf", "nan"])
    def test_rejects_a_non_finite_grid_point(self, fn, grid):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            fn(grid, [0.0], [1.0], [1.0])

    @pytest.mark.parametrize("fn", [mixture_distortion, distortion_gradient])
    @pytest.mark.parametrize(
        "means, stds, probs, message",
        [
            ([0.0], [-1.0], [1.0], "stds must be finite and positive"),
            ([0.0], [1.0], [-1.0], "probs must be finite and nonnegative"),
            ([0.0], [0.0], [1.0], "stds must be finite and positive"),
            ([math.nan], [1.0], [1.0], "means must be finite"),
            ([0.0, 1.0], [1.0, 1.0], [1.0], "probs must have the shape"),
            ([0.0, 1.0], [1.0], [0.5, 0.5], "stds must have the shape"),
            ([0.0], [math.inf], [1.0], "stds must be finite and positive"),
            ([0.0], [1.0], [math.nan], "probs must be finite and nonnegative"),
            (0.0, [1.0], [1.0], r"^means must be a nonempty 1-d array, got shape \(\)$"),
            # these two used to return 0.0 and half the normalized distortion
            ([], [], [], r"^means must be a nonempty 1-d array, got shape \(0,\)$"),
            ([0.0], [1.0], [0.5], "probs must sum to 1 within 1e-12, got 0.5"),
            ([0.0, 1.0], [1.0, 1.0], [0.5, 0.5 + 4e-12], "probs must sum to 1 within 1e-12"),
        ],
        ids=["negative-std", "negative-prob", "zero-std", "nan-mean", "short-probs",
             "short-stds", "infinite-std", "nan-prob", "scalar-means", "no-components",
             "half-mass", "mass-off-by-4e-12"],
    )
    def test_rejects_what_is_not_a_mixture(self, fn, means, stds, probs, message):
        with pytest.raises(ValueError, match=message):
            fn([-0.5, 0.5], means, stds, probs)


class TestBandedKernel:
    """The stats kernel evaluates the cdf only on standardized boundaries in
    (-8.5, 8.3) and takes the exact limits outside."""

    def test_one_point_grid_has_no_interior_boundary(self):
        means, stds, probs = [-1.0, 2.0], [0.5, 3.0], [0.25, 0.75]
        M0, M1, dist, F, raw = kernel_stats([0.3], means, stds, probs)
        assert raw.tolist() == [[1.0], [1.0]]
        assert F.tolist() == [0.0, 0.0]
        assert M0 == pytest.approx([1.0], abs=1e-15)
        assert M1 == pytest.approx([1.25], rel=1e-15)
        assert dist == pytest.approx(0.25 * (0.25 + 1.3**2) + 0.75 * (9.0 + 1.7**2), rel=1e-14)

    def test_saturated_entries_are_exact(self):
        # boundaries at -20, -10, 0 and 9.5 standard deviations
        grid = [-21.0, -19.0, -1.0, 1.0, 18.0]
        _, _, _, F, raw = kernel_stats(grid, [0.0], [1.0], [1.0])
        assert raw.tolist() == [[0.0, 0.0, 0.5, 0.5, 0.0]]
        assert F[[0, 1, 2, 4, 5]].tolist() == [0.0] * 5
        assert F[3] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_upper_tail_cell_masses_keep_their_relative_precision(self):
        # above the mean each mass must come from the small side Phi(-a):
        # a difference of two cdf values near 1 is off by 1.46e-5 here
        grid = np.linspace(-3.0, 7.5, 22)
        raw = kernel_stats(grid, [0.0], [1.0], [1.0])[4][0]
        bounds = np.concatenate(([-np.inf], 0.5 * (grid[:-1] + grid[1:]), [np.inf]))
        upper = bounds[:-1] > 0.0
        want = normal_cdf(-bounds[:-1]) - normal_cdf(-bounds[1:])
        assert upper.sum() == 15
        assert np.max(np.abs(raw[upper] - want[upper]) / want[upper]) <= 1e-14


class TestKernelWork:
    """The per-layer mixture object that every stats-kernel call of a layer
    reads, and the warm start that extrapolates the last layers' misses."""

    def test_reused_work_matches_fresh_calls(self):
        # one _Mixture per mixture, reused across grids of several sizes
        # whose in-band share ranges from a few entries to all of them; each
        # call's cell masses are its own, and no later call writes them
        rng = np.random.default_rng(2024)
        K = 7
        for _ in range(3):
            means = rng.normal(100.0, 2.0, K)
            stds = rng.uniform(0.2, 2.0, K)
            probs = rng.dirichlet(np.ones(K))
            mix = rmq_mod._Mixture(means, stds, probs)
            earlier = []
            for spread, n in ((0.01, 12), (0.3, 5), (1.0, 12), (3.0, 1), (10.0, 20),
                              (60.0, 12), (1.0, 2), (0.01, 30)):
                grid = 100.0 + spread * np.sort(rng.normal(0.0, 3.0, n))
                assert np.all(np.diff(grid) > 0)
                fresh = kernel_stats(grid, means, stds, probs)
                reused = rmq_mod._mixture_stats(grid, mix)
                for got, want in zip(reused, fresh):
                    assert np.array_equal(got, want), (spread, n)
                raw = reused[4]
                assert raw.shape == (K, n)
                for before, kept in earlier:
                    assert not np.shares_memory(raw, before)
                    assert np.array_equal(before, kept)
                earlier.append((raw, raw.copy()))

    def test_extrapolation_is_exact_on_polynomial_misses(self):
        # misses placed at non-uniform spreads; these nodes and this point
        # keep every Lagrange weight and every partial sum exact in binary
        cols = np.array([1.0, -2.0, 0.5])
        polys = [
            lambda s: cols,
            lambda s: cols + 3.0 * s,
            lambda s: cols + 3.0 * s - 0.25 * s * s,
            lambda s: cols + 3.0 * s - 0.25 * s * s + 0.125 * s**3,
        ]
        nodes, at = (0.5, 1.0, 2.0, 3.0), 6.0
        for degree, poly in enumerate(polys):
            used = nodes[3 - degree:]
            got = rmq_mod._extrapolate(used, [poly(s) for s in used], at)
            assert np.array_equal(got, poly(at)), degree

    @pytest.mark.parametrize("model", ["black-scholes", "bergman", "high-volatility"])
    def test_warm_start_keeps_the_mixture_mean(self, model):
        problem = {
            "black-scholes": gbm_problem(mu=0.04, sigma=0.25, T=1.0),
            "bergman": make_bergman(
                BergmanParams(0.05, 0.2, 0.01, 0.06, 95.0, 105.0), T=0.25, y0=100.0),
            "high-volatility": gbm_problem(mu=0.04, sigma=0.7, T=1.0),
        }[model]
        tree = build_tree(problem, TimeGrid(10, problem.T), 30)
        for layer in tree.layers[1:]:
            mix = layer_mixture(layer, tree.time_grid.dt, problem)
            x0 = rmq_mod._warm_start_from(mix)
            mu = float(layer.weights @ mix.m)
            assert x0 is not None
            assert abs(float(layer.weights @ x0) - mu) <= 1e-12 * abs(mu)

    def test_zero_skew_mixture_starts_at_the_dilated_means(self):
        # constant sigma and an affine drift about 0 on a codebook symmetric
        # about 0: both skewness terms are exactly 0
        problem = FbsdeProblem(
            drift=lambda y: -0.5 * np.asarray(y, dtype=float),
            diffusion=lambda y: np.full(np.shape(y), 0.3),
            driver=lambda t, y, u, v: np.zeros_like(np.asarray(u, dtype=float)),
            terminal=lambda y: np.asarray(y, dtype=float),
            T=1.0,
            y0=0.0,
            diffusion_floor=1e-8,
        )
        layer = QuantizedLayer(3, [-2.0, -0.5, 0.0, 0.5, 2.0], [0.125, 0.25, 0.25, 0.25, 0.125], 0.1)
        means, stds = conditional_law(layer, 0.1, problem)
        w = layer.weights
        mu = float(w @ means)
        d = means - mu
        z = d / math.sqrt(float(w @ (d * d)))
        s = math.sqrt(float(w @ (d * d + stds * stds)))
        mix = layer_mixture(layer, 0.1, problem)
        x0 = rmq_mod._warm_start_from(mix)
        assert np.array_equal(x0, mu + s * z)
        assert s == mix.s and mu == mix.c

    @pytest.mark.parametrize(
        "codewords, weights",
        [([100.0], [1.0]), ([99.0, 100.0, 101.0], [0.0, 1.0, 0.0])],
        ids=["one-codeword", "one-weighted-codeword"],
    )
    def test_point_codebook_has_no_warm_start(self, codewords, weights):
        layer = QuantizedLayer(1, codewords, weights, 0.0)
        assert rmq_mod._warm_start_from(layer_mixture(layer, 0.1, gbm_problem())) is None

    def test_black_scholes_50_20_takes_fewer_kernel_calls(self, monkeypatch):
        calls = []
        real = rmq_mod._mixture_stats

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rmq_mod, "_mixture_stats", counted)
        problem = make_black_scholes(
            BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0), T=1.0, y0=100.0
        )
        tree = build_tree(problem, TimeGrid(20, 1.0), 50)
        # the shift-and-dilate start with misses extrapolated in k took 81
        assert len(calls) <= 64
        u0 = solve(tree, problem).u0
        assert abs(u0 - 11.805803960132348) <= 1e-12 * 11.805803960132348


class TestNewtonSolve:
    @pytest.mark.parametrize("n", [2, 5, 200])
    def test_ldlt_matches_a_dense_solve(self, n):
        rng = np.random.default_rng(n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.uniform(0.1, 1.0, n)
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
        rhs = rng.normal(size=n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        got = rmq_mod._solve_tridiagonal_spd(diag.tolist(), off.tolist(), rhs.tolist())
        want = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(np.array(got) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_ldlt_reports_a_nonpositive_pivot(self):
        assert rmq_mod._solve_tridiagonal_spd([1.0, 1.0], [2.0], [1.0, 1.0]) is None
        assert rmq_mod._solve_tridiagonal_spd([0.0, 1.0], [0.0], [1.0, 1.0]) is None
        assert rmq_mod._solve_tridiagonal_spd([math.nan], [], [1.0]) is None

    def test_indefinite_hessian_takes_the_shift_path(self, monkeypatch):
        pivots_ok = []
        real = rmq_mod._solve_tridiagonal_spd

        def spy(diag, off, rhs):
            out = real(diag, off, rhs)
            pivots_ok.append(out is not None)
            return out

        monkeypatch.setattr(rmq_mod, "_solve_tridiagonal_spd", spy)
        x = np.array([0.0, 1.0, 2.0])
        M0 = np.array([0.5, 1e-20, 0.5])
        F = np.array([0.0, 1.0, 1.0, 0.0])  # middle diagonal 2e-20 - 1 < 0
        g = np.array([0.1, -0.2, 0.1])
        delta = rmq_mod._newton_direction(x, M0, F, g)
        assert pivots_ok[0] is False and pivots_ok[-1] is True
        assert delta is not None and np.all(np.isfinite(delta))
        # a NaN cell mass fails every shift: 12 factorizations, then no direction
        pivots_ok.clear()
        M0, F = np.array([math.nan, 0.5]), np.array([0.0, 1.0, 0.0])
        assert rmq_mod._newton_direction(x[:2], M0, F, g[:2]) is None
        assert pivots_ok == [False] * 12


class TestCellMoments:
    """Per-cell M0/M1 of ``_mixture_stats`` for a single Gaussian component.

    The outer cells are half lines, and a one-point grid is the whole line.
    """

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            mean = float(rng.normal(0.0, 10.0))
            std = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            grid = np.sort(mean + rng.uniform(-8, 8, int(rng.integers(1, 5))) * std)
            M0, M1, _, _, _ = kernel_stats(grid, [mean], [std], [1.0])
            bounds = np.concatenate(([-np.inf], 0.5 * (grid[:-1] + grid[1:]), [np.inf]))
            scale = max(1.0, abs(mean) + std)
            for j in range(grid.size):
                q0, q1 = quad_partial_moments(bounds[j], bounds[j + 1], mean, std)
                assert M0[j] == pytest.approx(q0, abs=1e-10)
                assert M1[j] == pytest.approx(q1, abs=1e-10 * scale)

    def test_partition_sums(self):
        # the cells partition the line, so they recover total mass and mean
        rng = np.random.default_rng(11)
        for _ in range(20):
            mean = float(rng.normal(0, 5))
            std = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
            grid = np.sort(rng.normal(mean, 3 * std, 10))
            M0, M1, _, _, _ = kernel_stats(grid, [mean], [std], [1.0])
            assert M0.sum() == pytest.approx(1.0, abs=1e-12)
            assert M1.sum() == pytest.approx(mean, abs=1e-12 * max(1.0, abs(mean)))


class TestDistortionGradient:
    def test_zero_at_the_two_point_optimum(self):
        g = distortion_gradient(
            np.array([-SQRT_2_OVER_PI, SQRT_2_OVER_PI]), [0.0], [1.0], [1.0]
        )
        assert np.max(np.abs(g)) <= 1e-13

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            means, stds, probs = random_mixture(rng)
            grid = random_sorted_grid(rng, int(rng.integers(2, 8)), spread=2.0)
            want = fd_gradient(
                lambda x: mixture_distortion(x, means, stds, probs), grid
            )
            got = distortion_gradient(grid, means, stds, probs)
            tol = 1e-6 * max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= tol

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            distortion_gradient([1.0, 0.0], [0.0], [1.0], [1.0])


class TestOptimizeGrid:
    def test_single_codeword_is_the_mixture_mean(self):
        layer = optimize_grid(dirac(100.0), 0.05, gbm_problem(), 1)
        assert layer.codewords == pytest.approx([100.25], abs=1e-12)
        assert layer.weights == pytest.approx([1.0], abs=0.0)
        assert layer.distortion == pytest.approx(20.0, rel=1e-12)

    def test_two_codewords_on_a_standard_normal(self):
        layer = optimize_grid(dirac(0.0), 1.0, unit_gaussian_problem(), 2)
        assert layer.codewords == pytest.approx(
            [-SQRT_2_OVER_PI, SQRT_2_OVER_PI], abs=1e-7
        )
        assert layer.weights == pytest.approx([0.5, 0.5], abs=1e-12)
        assert layer.distortion == pytest.approx(ONE_MINUS_2_OVER_PI, abs=1e-9)

    def test_returned_grid_is_stationary(self):
        layer = optimize_grid(dirac(100.0), 0.05, gbm_problem(), 5)
        means, stds = conditional_law(dirac(100.0), 0.05, gbm_problem())
        g = distortion_gradient(layer.codewords, means, stds, [1.0])
        assert np.max(np.abs(g)) <= 1e-9

    def test_beats_random_perturbations(self):
        layer = optimize_grid(dirac(100.0), 0.05, gbm_problem(), 5)
        means, stds = conditional_law(dirac(100.0), 0.05, gbm_problem())
        x = layer.codewords
        gap = float(np.min(np.diff(x)))
        rng = np.random.default_rng(404)
        for _ in range(1000):
            cand = np.sort(x + rng.normal(0.0, 0.1 * gap, x.size))
            if np.any(np.diff(cand) <= 0):
                continue
            d = mixture_distortion(cand, means, stds, [1.0])
            assert d >= layer.distortion - 1e-12 * layer.distortion

    @pytest.mark.parametrize("N", [True, 2.5], ids=["boolean", "fractional"])
    def test_rejects_a_non_integer_codeword_count(self, N):
        with pytest.raises(ValueError, match="codeword count N must be an integer"):
            optimize_grid(dirac(0.0), 1.0, unit_gaussian_problem(), N)

    def test_exhausted_budget_raises_with_diagnostics(self):
        settings = OptimizerSettings(max_iterations=1, fixed_point_tol=1e-12)
        with pytest.raises(ConvergenceError) as exc:
            optimize_grid(dirac(0.0), 1.0, unit_gaussian_problem(), 5, settings)
        err = exc.value
        assert err.step == 1
        assert "step 1" in str(err)
        assert "stationarity residual" in str(err)
        assert err.last_grid.shape == (5,)
        assert np.all(np.diff(err.last_grid) > 0)
        assert math.isfinite(err.gradient_norm)

    @pytest.mark.parametrize(
        "N, want",
        [(2, [-0.79788, 0.79788]), (3, [-1.22401, 0.0, 1.22401]),
         (5, [-1.72415, -0.76457, 0.0, 0.76457, 1.72415])],
    )
    def test_lloyd_steps_alone_reach_the_newton_grid(self, monkeypatch, N, want):
        newton = optimize_grid(dirac(0.0), 1.0, unit_gaussian_problem(), N)
        monkeypatch.setattr(rmq_mod, "_newton_direction", lambda *args: None)
        lloyd = optimize_grid(dirac(0.0), 1.0, unit_gaussian_problem(), N)
        assert np.max(np.abs(lloyd.codewords - newton.codewords)) <= 1e-8
        assert lloyd.codewords == pytest.approx(want, abs=1e-5)

    def test_a_lloyd_step_repairs_tied_cell_means(self, monkeypatch):
        # the first stats call reports cells 0 and 1 with one mean; the
        # Lloyd step must still hand the kernel a strictly increasing grid
        real, grids = rmq_mod._mixture_stats, []

        def tied(grid, mix):
            grids.append(grid.copy())
            M0, M1, dist, F, raw = real(grid, mix)
            if len(grids) == 1:
                M0, M1 = M0.copy(), M1.copy()
                M0[1], M1[1] = M0[0], M1[0]
            return M0, M1, dist, F, raw

        monkeypatch.setattr(rmq_mod, "_mixture_stats", tied)
        monkeypatch.setattr(rmq_mod, "_newton_direction", lambda *args: None)
        layer = optimize_grid(dirac(0.0), 1.0, unit_gaussian_problem(), 3)
        assert rmq_mod._increasing(grids[1])
        assert grids[1][1] == np.nextafter(grids[1][0], np.inf)
        assert layer.codewords == pytest.approx([-1.22401, 0.0, 1.22401], abs=1e-5)

    def test_high_volatility_build_through_a_lloyd_step_is_stationary(self):
        # every Newton candidate of one iteration is rejected here, so the
        # build converges only after one Lloyd step
        problem = make_black_scholes(BlackScholesParams(0.04, 1.2, 100.0), T=0.5, y0=100.0)
        tree = build_tree(problem, TimeGrid(5, 0.5), 10)
        resid = 0.0
        for src, nxt in zip(tree.layers, tree.layers[1:]):
            means, stds = conditional_law(src, tree.time_grid.dt, problem)
            g = distortion_gradient(nxt.codewords, means, stds, src.weights)
            # criterion 7's |x - M1/M0| = |g| / (2 M0)
            resid = max(resid, float(np.max(np.abs(g) / np.maximum(2.0 * nxt.weights, 1e-300))))
        assert resid <= 1e-9

    @pytest.mark.parametrize("tol", [None, 1e-6], ids=["default", "1e-6"])
    @pytest.mark.parametrize("case", ["black-scholes-50-20", "bergman-20-50"])
    def test_every_layer_meets_the_tolerance_as_a_residual(self, case, tol):
        # the stop bounds max_j |x_j - M1_j/M0_j| itself, criterion 7's quantity
        if case == "black-scholes-50-20":
            problem, N, n = make_black_scholes(
                BlackScholesParams(0.04, 0.25, 100.0), T=1.0, y0=100.0), 50, 20
        else:
            problem, N, n = make_bergman(
                BergmanParams(0.05, 0.2, 0.01, 0.06, 95.0, 105.0), T=0.25, y0=100.0), 20, 50
        settings = OptimizerSettings() if tol is None else OptimizerSettings(fixed_point_tol=tol)
        tree = build_tree(problem, TimeGrid(n, problem.T), N, settings)
        for src, nxt in zip(tree.layers, tree.layers[1:]):
            means, stds = conditional_law(src, tree.time_grid.dt, problem)
            M0, M1, _, _, _ = kernel_stats(nxt.codewords, means, stds, src.weights)
            assert np.all(M0 > 0.0)
            resid = float(np.max(np.abs(nxt.codewords - M1 / M0)))
            assert resid < settings.fixed_point_tol, nxt.step

    def test_stationary_start_costs_one_kernel_call(self, monkeypatch):
        layer = optimize_grid(dirac(0.0), 1.0, unit_gaussian_problem(), 5)
        means, stds = conditional_law(dirac(0.0), 1.0, unit_gaussian_problem())
        mix = rmq_mod._Mixture(means, stds, np.array([1.0]))
        calls = []
        real = rmq_mod._mixture_stats

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rmq_mod, "_mixture_stats", counted)
        x, dist, raw = rmq_mod._optimize_codewords(mix, layer.codewords, OptimizerSettings(), 1)
        assert len(calls) == 1
        assert np.array_equal(x, layer.codewords)
        assert dist == layer.distortion
        assert np.array_equal(raw, kernel_stats(x, means, stds, [1.0])[4])

    def test_tight_tolerance_converges_at_black_scholes_50_20(self):
        # 1e-12 is about 70 ulps at codewords near 100, and still in reach here
        problem = make_black_scholes(BlackScholesParams(0.04, 0.25, 100.0), T=1.0, y0=100.0)
        settings = OptimizerSettings(fixed_point_tol=1e-12)
        tree = build_tree(problem, TimeGrid(20, 1.0), 50, settings)
        u0 = solve(tree, problem).u0
        assert abs(u0 - 11.805803960132348) <= 1e-12 * 11.805803960132348

    @pytest.mark.parametrize("N, n", [(100, 50), (200, 10), (200, 20), (200, 40), (200, 80)])
    def test_tight_tolerance_converges_at_N_100_and_above(self, N, n):
        # the residual reaches 1e-12 in the upper tail only if those cell
        # masses keep their relative precision; taken as differences of cdf
        # values near 1, each build stalls at step 1 at 7.9e-12 to 9.9e-11
        problem = make_black_scholes(BlackScholesParams(0.04, 0.25, 100.0), T=1.0, y0=100.0)
        tree = build_tree(problem, TimeGrid(n, 1.0), N, OptimizerSettings(fixed_point_tol=1e-12))
        assert len(tree.layers) == n + 1 and tree.layers[-1].size == N


class TestTransitionMatrix:
    def test_single_target_codeword(self):
        nxt = QuantizedLayer(1, np.array([100.0]), np.array([1.0]), 1.0)
        tm = transition_matrix(dirac(100.0), nxt, 0.05, gbm_problem())
        assert tm.entries.shape == (1, 1)
        assert tm.entries[0, 0] == 1.0

    def test_symmetric_split(self):
        nxt = QuantizedLayer(1, np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 0.0)
        tm = transition_matrix(dirac(0.0), nxt, 1.0, unit_gaussian_problem())
        assert tm.entries[0] == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_against_monte_carlo(self):
        prev = QuantizedLayer(
            0,
            np.array([80.0, 95.0, 105.0, 120.0, 140.0]),
            np.full(5, 0.2),
            0.0,
        )
        codes = np.array([75.0, 90.0, 100.0, 110.0, 120.0, 135.0, 155.0])
        nxt = QuantizedLayer(1, codes, np.full(7, 1.0 / 7.0), 0.0)
        problem = gbm_problem()
        tm = transition_matrix(prev, nxt, 0.1, problem)
        mids = 0.5 * (codes[:-1] + codes[1:])
        rng = np.random.default_rng(31)
        M = 2_000_000
        for i, y in enumerate(prev.codewords):
            z = rng.standard_normal(M)
            landed = y + 0.1 * problem.drift(y) + math.sqrt(0.1) * problem.diffusion(y) * z
            counts = np.bincount(
                np.searchsorted(mids, landed, side="right"), minlength=7
            )
            p_hat = counts / M
            se = np.sqrt(p_hat * (1.0 - p_hat) / M)
            assert np.all(np.abs(tm.entries[i] - p_hat) <= 4.0 * se + 8.0 / M)

    def test_rows_renormalized_exactly(self):
        prev = QuantizedLayer(
            0, np.array([90.0, 110.0]), np.array([0.4, 0.6]), 0.0
        )
        nxt = QuantizedLayer(
            1, np.array([85.0, 100.0, 125.0]), np.full(3, 1.0 / 3.0), 0.0
        )
        tm = transition_matrix(prev, nxt, 0.1, gbm_problem())
        assert np.max(np.abs(tm.entries.sum(axis=1) - 1.0)) <= 1e-15

    def test_large_row_defect_is_an_error(self, monkeypatch):
        # sabotage the raw cell masses so every row telescopes to 0.9
        real = rmq_mod._mixture_stats

        def leaky(grid, mix):
            *stats, raw = real(grid, mix)
            return (*stats, raw * 0.9)

        monkeypatch.setattr(rmq_mod, "_mixture_stats", leaky)
        nxt = QuantizedLayer(1, np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 0.0)
        with pytest.raises(RuntimeError, match="row sums"):
            transition_matrix(dirac(0.0), nxt, 1.0, unit_gaussian_problem())


class TestBuildTree:
    def test_single_step_single_codeword(self):
        tree = build_tree(gbm_problem(T=0.05), TimeGrid(1, 0.05), 1)
        assert len(tree.layers) == 2
        assert tree.layers[0].codewords == pytest.approx([100.0])
        assert tree.layers[1].codewords == pytest.approx([100.25], abs=1e-12)
        assert tree.transitions[0].entries.tolist() == [[1.0]]

    def test_terminal_mean_matches_the_euler_chain(self):
        # stationarity makes each layer preserve its mixture mean, so the
        # tree mean telescopes to y0 * (1 + mu dt)^k exactly
        tree = build_tree(gbm_problem(), TimeGrid(50, 0.25), 20)
        final = tree.layers[-1]
        mean = float(final.weights @ final.codewords)
        assert mean == pytest.approx(EULER_MEAN_GBM, abs=1e-8)
        assert mean == pytest.approx(101.2577, abs=1e-3)

    def test_every_layer_mean_telescopes(self):
        tree = build_tree(gbm_problem(), TimeGrid(20, 0.25), 15)
        dt = tree.time_grid.dt
        for k, layer in enumerate(tree.layers):
            want = 100.0 * (1.0 + 0.05 * dt) ** k
            got = float(layer.weights @ layer.codewords)
            assert got == pytest.approx(want, abs=1e-8)

    def test_distortion_decreases_with_codebook_size(self):
        grid = TimeGrid(10, 0.25)
        dists = []
        for N in (5, 10, 20, 50):
            tree = build_tree(gbm_problem(), grid, N)
            dists.append(tree.layers[-1].distortion)
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_weight_propagation_is_exact(self):
        tree = build_tree(gbm_problem(), TimeGrid(20, 0.25), 10)
        for k, tr in enumerate(tree.transitions):
            pushed = tree.layers[k].weights @ tr.entries
            assert np.max(np.abs(pushed - tree.layers[k + 1].weights)) <= 1e-15

    def test_transition_rows_are_stochastic(self):
        tree = build_tree(gbm_problem(), TimeGrid(20, 0.25), 10)
        for tr in tree.transitions:
            assert np.all(tr.entries >= 0.0)
            assert np.max(np.abs(tr.entries.sum(axis=1) - 1.0)) <= 1e-10

    def test_deterministic_rebuild(self):
        a = build_tree(gbm_problem(), TimeGrid(20, 0.25), 10)
        b = build_tree(gbm_problem(), TimeGrid(20, 0.25), 10)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.codewords, lb.codewords)
            assert np.array_equal(la.weights, lb.weights)
            assert la.distortion == lb.distortion
        for ta, tb in zip(a.transitions, b.transitions):
            assert np.array_equal(ta.entries, tb.entries)

    def test_each_transition_owns_one_k_by_n_plus_1_block(self):
        # a transition reads back as a new K x N array, apart from every
        # other transition's memory
        tree = build_tree(gbm_problem(), TimeGrid(8, 0.25), 20)
        for tr in tree.transitions:
            K, N = tr.entries.shape
            owner = tr.entries
            while owner.base is not None:
                owner = owner.base
            assert owner.nbytes <= 8 * K * (N + 1)
        for i, a in enumerate(tree.transitions):
            for b in tree.transitions[i + 1:]:
                assert not np.shares_memory(a.entries, b.entries)

    def test_a_long_black_scholes_tree_retains_at_most_14_mb(self):
        # the bs-refine rung (200, 80): all 80 of its transitions are stored
        # by their nonzeros; with every transition dense it retains 25.7 MB
        problem = make_black_scholes(
            BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0), T=1.0, y0=100.0
        )
        build_tree(problem, TimeGrid(2, 1.0), 200)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tree = build_tree(problem, TimeGrid(80, 1.0), 200)
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert sum(isinstance(tr._stored, tuple) for tr in tree.transitions) == 80
        assert retained <= 14e6

    def test_a_long_black_scholes_build_peaks_at_most_1_5_mb_above_its_tree(self):
        # the bs-refine rung (200, 80): above the tree the build holds one
        # layer's two K x (N+1) tables and band masks, and the cdf's work
        # arrays for one kernel call, sized by its in-band boundaries; with
        # six rows for all K x (N+1) boundaries kept per layer it peaks at 2.86 MB
        problem = make_black_scholes(
            BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0), T=1.0, y0=100.0
        )
        build_tree(problem, TimeGrid(2, 1.0), 200)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            tree = build_tree(problem, TimeGrid(80, 1.0), 200)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.time_grid.n == 80
        assert peak - retained <= 1.5e6

    def test_rejects_empty_codebook(self):
        with pytest.raises(ValueError):
            build_tree(gbm_problem(), TimeGrid(5, 0.25), 0)

    @pytest.mark.parametrize("N", [True, 2.5], ids=["boolean", "fractional"])
    def test_rejects_a_non_integer_codeword_count(self, N):
        with pytest.raises(ValueError, match="codeword count N must be an integer"):
            build_tree(gbm_problem(), TimeGrid(5, 0.25), N)

    def test_single_codeword_price_is_pinned(self):
        # the optimizer's Newton step from the quantile start is the centroid
        problem = make_black_scholes(
            BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0), T=1.0, y0=100.0
        )
        tree = build_tree(problem, TimeGrid(20, 1.0), 1)
        assert solve(tree, problem).u0 == 3.916904601358432

    @pytest.mark.parametrize(
        "problem, N, n",
        [
            (
                make_black_scholes(
                    BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0),
                    T=1.0,
                    y0=100.0,
                ),
                20,
                5,
            ),
            (
                make_bergman(
                    BergmanParams(
                        mu=0.05,
                        sigma=0.2,
                        lend_rate=0.01,
                        borrow_rate=0.06,
                        strike_low=95.0,
                        strike_high=105.0,
                    ),
                    T=0.25,
                    y0=100.0,
                ),
                10,
                5,
            ),
            # a long grid, half of whose entries are zero by its last steps
            (
                make_black_scholes(
                    BlackScholesParams(rate=0.04, sigma=0.25, strike=100.0),
                    T=1.0,
                    y0=100.0,
                ),
                128,
                60,
            ),
        ],
        ids=["black-scholes", "bergman", "black-scholes-long"],
    )
    def test_fused_transitions_match_the_public_wrapper(self, problem, N, n):
        tree = build_tree(problem, TimeGrid(n, problem.T), N)
        dt = tree.time_grid.dt
        sparse = 0
        for k, tr in enumerate(tree.transitions):
            public = transition_matrix(tree.layers[k], tree.layers[k + 1], dt, problem)
            assert tr.entries.tobytes() == public.entries.tobytes()
            assert isinstance(tr._stored, tuple) == isinstance(public._stored, tuple)
            sparse += isinstance(tr._stored, tuple)
        assert sparse == n

    def test_floored_diffusion_warns_once_per_layer(self):
        # sigma(y) = 0.05 + |y| is below the floor at y0 = 0 and on the
        # central codewords of later layers
        floor = 0.3
        problem = FbsdeProblem(
            drift=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            diffusion=lambda y: 0.05 + np.abs(np.asarray(y, dtype=float)),
            driver=lambda t, y, u, v: np.zeros_like(np.asarray(u, dtype=float)),
            terminal=lambda y: np.asarray(y, dtype=float),
            T=1.0,
            y0=0.0,
            diffusion_floor=floor,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tree = build_tree(problem, TimeGrid(4, 1.0), 6)
        floored = [
            la.step
            for la in tree.layers[:-1]
            if np.any(problem.diffusion(la.codewords) < floor)
        ]
        assert len(floored) >= 2
        got = [w for w in caught if issubclass(w.category, DegenerateDiffusionWarning)]
        assert len(got) == len(floored)
        for step, w in zip(floored, got):
            assert f"of step {step};" in str(w.message)

    def test_non_finite_drift_names_its_layer(self):
        # drift is NaN above 105, which layer 1 already reaches at N=50
        problem = dataclasses.replace(
            gbm_problem(mu=0.04, sigma=0.25, T=1.0),
            drift=lambda y: np.where(np.asarray(y) > 105.0, np.nan, 0.04 * np.asarray(y)),
        )
        y = build_tree(problem, TimeGrid(1, 0.1), 50).layers[1].codewords
        i = int(np.flatnonzero(y > 105.0)[0])
        message = rf"^drift returned nan at step 1, node {i} \(codeword {y[i]:g}\)$"
        with pytest.raises(ValueError, match=message):
            build_tree(problem, TimeGrid(10, 1.0), 50)

    @pytest.mark.parametrize("N", [5, 8, 20])
    def test_order_reversing_euler_map_falls_back_to_quantile_starts(self, monkeypatch, N):
        # Ornstein-Uhlenbeck drift -12 (y - 1) on dt = 0.1: the Euler map
        # y -> y + dt b(y) has slope -0.2, so every moment-matched start
        # reverses the codebook and each later layer starts from quantiles
        problem = FbsdeProblem(
            drift=lambda y: -12.0 * (np.asarray(y, dtype=float) - 1.0),
            diffusion=lambda y: np.full(np.shape(y), 0.3),
            driver=lambda t, y, u, v: np.zeros_like(np.asarray(u, dtype=float)),
            terminal=lambda y: np.asarray(y, dtype=float),
            T=1.0,
            y0=1.5,
            diffusion_floor=1e-8,
        )
        starts = []
        warm_start = rmq_mod._warm_start_from

        def recorded(mix):
            starts.append(warm_start(mix))
            return starts[-1]

        monkeypatch.setattr(rmq_mod, "_warm_start_from", recorded)
        tree = build_tree(problem, TimeGrid(10, 1.0), N)
        assert len(starts) == 9 and all(s is None for s in starts)
        # the step is affine, so stationarity carries the Euler mean exactly
        assert solve(tree, problem).u0 == pytest.approx(1.0 + 0.5 * (-0.2) ** 10, abs=1e-12)

    def test_one_mixture_per_layer(self, monkeypatch):
        # build_tree evaluates the conditional law once per layer, and the
        # start and every kernel call of that layer read its one _Mixture
        laws, layers, starts = [], [], []
        real_law, real_layer = rmq_mod.conditional_law, rmq_mod._quantize_layer
        real_stats, real_start = rmq_mod._mixture_stats, rmq_mod._warm_start_from

        def law(*args):
            laws.append(args[0].step)
            return real_law(*args)

        def layer(prev, mix, settings, start):
            layers.append((prev, mix, []))
            return real_layer(prev, mix, settings, start)

        def stats(grid, mix):
            layers[-1][2].append((mix, grid.size))
            return real_stats(grid, mix)

        def warm(mix):
            starts.append(mix)
            return real_start(mix)

        for name, fn in (("conditional_law", law), ("_quantize_layer", layer),
                         ("_mixture_stats", stats), ("_warm_start_from", warm)):
            monkeypatch.setattr(rmq_mod, name, fn)
        N, n = 20, 8
        tree = build_tree(gbm_problem(), TimeGrid(n, 0.25), N)
        assert laws == list(range(n))
        assert len(layers) == n
        assert all(prev is la for (prev, _, _), la in zip(layers, tree.layers))
        mixtures = [mix for _, mix, _ in layers]
        assert len({id(mix) for mix in mixtures}) == n
        assert len(starts) == n - 1
        assert all(a is b for a, b in zip(starts, mixtures[1:]))
        for prev, mix, seen in layers:
            assert mix.p is prev.weights
            assert seen and all(m is mix and size == N for m, size in seen)

    def test_stalled_layer_is_named(self):
        settings = OptimizerSettings(max_iterations=1, fixed_point_tol=1e-12)
        with pytest.raises(ConvergenceError) as exc:
            build_tree(gbm_problem(), TimeGrid(3, 0.25), 5, settings)
        assert exc.value.step == 1
        assert "step 1" in str(exc.value)

    def test_order_reversing_stall_names_the_reversal(self):
        # Ornstein-Uhlenbeck drift -30 (y - 1) on dt = 0.1: the Euler map has
        # slope 1 - 3 = -2, and the N=8 build stalls at step 7
        problem = FbsdeProblem(
            drift=lambda y: -30.0 * (np.asarray(y, dtype=float) - 1.0),
            diffusion=lambda y: np.full(np.shape(y), 0.3),
            driver=lambda t, y, u, v: np.zeros_like(np.asarray(u, dtype=float)),
            terminal=lambda y: np.asarray(y, dtype=float),
            T=1.0,
            y0=1.5,
            diffusion_floor=1e-8,
        )
        with pytest.raises(ConvergenceError) as exc:
            build_tree(problem, TimeGrid(10, 1.0), 8)
        assert exc.value.step == 7
        assert str(exc.value).startswith(
            "grid optimization stalled at step 7: stationarity residual 4.4")
        assert str(exc.value).endswith(
            "; the Euler map reverses order at step 7: smallest slope dm/dy -2 "
            "across the source codewords")
        assert exc.value.last_grid.shape == (8,)
        assert math.isfinite(exc.value.gradient_norm)

    def test_order_keeping_stall_has_no_reversal_note(self):
        # a later layer of a GBM tree stalls on a budget of 20 iterations;
        # its Euler map keeps order, so the message is the optimizer's own
        problem = make_black_scholes(BlackScholesParams(0.04, 1.0, 100.0), T=2.0, y0=100.0)
        with pytest.raises(ConvergenceError) as exc:
            build_tree(problem, TimeGrid(10, 2.0), 50, OptimizerSettings(max_iterations=20))
        assert exc.value.step > 1
        assert str(exc.value).endswith("after 20 iterations (tol 1e-09)")


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        tree = build_tree(gbm_problem(), TimeGrid(8, 0.25), 6)
        path = tmp_path / "tree.rmq.json"
        save_tree(tree, path)
        loaded, solution = load_tree(path)
        assert solution is None
        assert loaded.time_grid == tree.time_grid
        for la, lb in zip(loaded.layers, tree.layers):
            assert la.step == lb.step
            assert np.array_equal(la.codewords, lb.codewords)
            assert np.array_equal(la.weights, lb.weights)
            assert la.distortion == lb.distortion
        for ta, tb in zip(loaded.transitions, tree.transitions):
            assert ta.step == tb.step
            assert ta.entries.tobytes() == tb.entries.tobytes()

    @pytest.mark.parametrize(
        "N, n, with_solution",
        [(6, 8, True), (6, 8, False), (5, 1, True), (5, 1, False), (1, 4, True), (1, 1, False)],
    )
    def test_file_is_one_dumps_of_the_v2_document(self, tmp_path, N, n, with_solution):
        # the writer streams the transitions one at a time; the text must be
        # that of json.dumps on the whole document, keys in the v2 order
        problem = gbm_problem()
        tree = build_tree(problem, TimeGrid(n, 0.25), N)
        sol = solve(tree, problem) if with_solution else None
        path = tmp_path / "tree.rmq.json"
        save_tree(tree, path, solution=sol)
        assert path.read_text(encoding="utf-8") == json.dumps(tree_document(tree, sol))

    @pytest.mark.parametrize(
        "spoil", ["other-tree", "nan-value", "same-size-tree", "u0-off-layer-0"])
    def test_solution_load_tree_would_reject_is_not_written(self, tmp_path, spoil):
        # the first two files used to be written, and load_tree then rejected
        # them; the last two used to be written and loaded
        problem = gbm_problem()
        tree = build_tree(problem, TimeGrid(3, 0.25), 5)
        if spoil == "other-tree":
            sol = solve(build_tree(problem, TimeGrid(3, 0.25), 6), problem)
            message = "solution values do not match the layer sizes"
        elif spoil == "same-size-tree":
            other = gbm_problem(sigma=0.6)
            sol = solve(build_tree(other, TimeGrid(3, 0.25), 5), other)
            message = "solution belongs to another tree"
        elif spoil == "u0-off-layer-0":
            sol = dataclasses.replace(solve(tree, problem), u0=5.0)
            message = "solution u0 5.0 is not the layer-0 value"
        else:
            sol = solve(tree, problem)
            values = (dataclasses.replace(sol.value_layers[0], values=[math.nan]),)
            sol = dataclasses.replace(sol, value_layers=values + sol.value_layers[1:])
            message = "solution values must be finite numbers"
        path = tmp_path / "tree.rmq.json"
        with pytest.raises(ValueError, match=message):
            save_tree(tree, path, solution=sol)
        assert not path.exists()

    def test_writer_memory_does_not_grow_with_the_document(self, tmp_path):
        # the CLI's (N, n) = (100, 50) case with its solution: one transition's
        # base64 is 0.1 MB and the whole document 5.6 MB. A writer that holds
        # the layers and the solution as text and lists at once peaks at +1.5 MB
        spec = MODELS["black-scholes"]
        problem = spec.factory(spec.param_type(**spec.defaults), spec.T, spec.y0)
        tree = build_tree(problem, TimeGrid(50, problem.T), 100)
        sol = solve(tree, problem)
        path = tmp_path / "tree.rmq.json"
        save_tree(tree, path, solution=sol)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            save_tree(tree, path, solution=sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 0.5e6
        assert path.stat().st_size > 5e6

    def test_sparse_transitions_save_load_and_save_to_the_same_bytes(self, tmp_path):
        problem = gbm_problem(mu=0.04, sigma=0.25, T=1.0)
        tree = build_tree(problem, TimeGrid(60, 1.0), 128)
        first, second = tmp_path / "first.rmq.json", tmp_path / "second.rmq.json"
        save_tree(tree, first, solution=solve(tree, problem))
        loaded, solution = load_tree(first)
        assert [isinstance(tr._stored, tuple) for tr in loaded.transitions] == [
            isinstance(tr._stored, tuple) for tr in tree.transitions]
        assert sum(isinstance(tr._stored, tuple) for tr in loaded.transitions) == 60
        save_tree(loaded, second, solution=solve(loaded, problem))
        assert second.read_bytes() == first.read_bytes()
        assert solution["u0"] == solve(tree, problem).u0

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a quantization-tree"):
            load_tree(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "future.rmq.json"
        path.write_text(json.dumps({"format": "quantbsde-tree", "version": 3}))
        with pytest.raises(ValueError, match="version 3"):
            load_tree(path)


class TestMalformedTreeFiles:
    """Every malformed file is a ValueError that names the file."""

    @pytest.fixture
    def tree_and_solution(self):
        problem = gbm_problem()
        tree = build_tree(problem, TimeGrid(3, 0.25), 4)
        return tree, solve(tree, problem)

    @pytest.fixture
    def saved(self, tmp_path, tree_and_solution):
        tree, sol = tree_and_solution
        path = tmp_path / "run.rmq.json"
        save_tree(tree, path, solution=sol)
        return path, json.loads(path.read_text())

    def test_well_formed_file_loads_with_its_solution(self, saved):
        path, doc = saved
        tree, solution = load_tree(path)
        assert tree.time_grid == TimeGrid(3, 0.25)
        assert solution == doc["solution"]

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda doc: doc.pop("layers"), "missing key 'layers'"),
            (lambda doc: doc["time_grid"].update(n="3"),
             "number of time steps must be an integer"),
            (lambda doc: doc["layers"][1].update(step="1"), "layer 1 has step '1'"),
            (lambda doc: doc["solution"]["values"][1].pop(), "solution values do not match"),
            (lambda doc: doc["solution"]["controls"][1].pop(),
             "solution controls do not match"),
            (lambda doc: doc["layers"][1].update(weights=[math.nan] * 4), "weights must be"),
            (lambda doc: doc["layers"][2].update(distortion=math.nan), "distortion must be"),
            (lambda doc: doc["solution"]["values"][1].__setitem__(0, "1.5"),
             "solution values must be finite numbers"),
            (lambda doc: doc["solution"].update(u0=math.nan), "solution u0 must be a finite"),
            (lambda doc: doc["solution"].update(u0=5.0),
             "solution u0 5.0 is not the layer-0 value"),
            # each of these used to load as the number 1.0 (or the string's value)
            (lambda doc: doc["layers"][0].update(codewords=[True]),
             "codewords must be finite numbers"),
            (lambda doc: doc["layers"][0].update(weights=[True]),
             "weights must be finite numbers"),
            (lambda doc: doc["layers"][0].update(distortion=True),
             "distortion must be a finite number, got True"),
            (lambda doc: doc["layers"][2]["codewords"].__setitem__(0, 10**400),
             "int too large to convert to float"),
            (lambda doc: doc["layers"][1].update(codewords=[], weights=[]),
             "codewords must be a nonempty 1-d array"),
            (lambda doc: doc["transitions"][1].update(shape=[16]),
             r"entries must be a nonempty 2-d array, got shape \[16\]"),
            (lambda doc: doc["transitions"][1].update(
                entries=b64_float64s([0.5] * 8), shape=[4, 2]),
             "transition 1 shape does not match its layers"),
            (lambda doc: doc["transitions"][1].update(step=2), "transition 1 has step 2"),
            # each of these used to load as the integer 1
            (lambda doc: doc.update(version=True), "unsupported tree format version True"),
            (lambda doc: doc.update(version=1.0), "unsupported tree format version 1.0"),
            (lambda doc: doc["layers"][1].update(step=True), "layer 1 has step True"),
            (lambda doc: doc["layers"][1].update(step=1.0), "layer 1 has step 1.0"),
            (lambda doc: doc["transitions"][1].update(step=True),
             "transition 1 has step True"),
            # entries are base64 of little-endian float64 bytes
            (lambda doc: doc["transitions"][1].update(entries=[0.25] * 16),
             "entries must be a base64 string, got list"),
            (lambda doc: doc["transitions"][1].update(
                entries="*" + doc["transitions"][1]["entries"][1:]),
             "entries must be base64"),
            (lambda doc: doc["transitions"][1].update(
                entries="\u00e9" + doc["transitions"][1]["entries"][1:]),
             "entries must be base64"),
            (lambda doc: doc["transitions"][1].update(entries=b64_float64s([0.25] * 15)),
             r"entries hold 120 bytes, not 128 for shape \[4, 4\]"),
            (lambda doc: doc["transitions"][1].update(entries=b64_float64s([0.25] * 17)),
             r"entries hold 136 bytes, not 128 for shape \[4, 4\]"),
            (lambda doc: doc["transitions"][1].update(
                entries=b64_float64s([math.nan] + [0.25] * 15)),
             r"entries must lie in \[0, 1\]"),
            (lambda doc: doc["transitions"][1].update(
                entries=b64_float64s([0.25] * 15 + [math.inf])),
             r"entries must lie in \[0, 1\]"),
            (lambda doc: doc.update(version=1), "unsupported tree format version 1$"),
            (lambda doc: doc["transitions"][1].update(shape=[0, 4], entries=""),
             r"entries must be a nonempty 2-d array, got shape \(0, 4\)"),
            # the shape is checked before the entries are decoded
            *[(lambda doc, shape=shape: doc["transitions"][1].update(shape=shape), message)
              for shape, message in (
                  ([-1, 4], "transition shape must be at least 0, got -1"),
                  ([True, 4], "transition shape must be an integer, got True"),
                  ([4.0, 4], "transition shape must be an integer, got 4.0"),
                  ([4, 4, 1], r"entries must be a nonempty 2-d array, got shape \[4, 4, 1\]"))],
        ],
        ids=["missing-key", "string-n", "string-step", "short-values", "short-controls",
             "nan-weights", "nan-distortion", "string-value", "nan-u0",
             "u0-off-layer-0",
             "boolean-codeword", "boolean-weight", "boolean-distortion",
             "huge-integer", "empty-codewords", "flat-entries", "row-stochastic-misfit",
             "wrong-transition-step", "boolean-version", "float-version", "boolean-step",
             "float-step", "boolean-transition-step",
             "list-entries-in-v2", "non-base64-character", "non-ascii-character",
             "short-byte-count", "long-byte-count", "encoded-nan", "encoded-inf",
             "version-1", "empty-transition",
             *[f"{kind}-shape-in-v2" for kind in ("negative", "boolean", "float",
                                                  "three-entry")]],
    )
    def test_is_a_value_error_naming_the_file(self, saved, spoil, message):
        path, doc = saved
        spoil(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"run\.rmq\.json: {message}"):
            load_tree(path)

    def test_truncated_file(self, saved):
        path, _ = saved
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match=r"run\.rmq\.json: not a JSON file"):
            load_tree(path)

    def test_non_utf8_file(self, saved):
        path, _ = saved
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError, match=r"run\.rmq\.json: not a JSON file"):
            load_tree(path)

    def test_too_deeply_nested_file(self, saved):
        path, _ = saved
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match=r"run\.rmq\.json: not a JSON file"):
            load_tree(path)


class TestDataTypes:
    def test_layer_rejects_unsorted_codewords(self):
        with pytest.raises(ValueError):
            QuantizedLayer(0, np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.0)

    def test_layer_rejects_mismatched_weights(self):
        with pytest.raises(ValueError):
            QuantizedLayer(0, np.array([0.0, 1.0]), np.array([1.0]), 0.0)

    def test_layer_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            QuantizedLayer(0, np.array([0.0, 1.0]), np.array([0.5, 0.6]), 0.0)

    def test_layer_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            QuantizedLayer(0, np.array([0.0, 1.0]), np.array([-0.1, 1.1]), 0.0)

    def test_layer_rejects_negative_distortion(self):
        with pytest.raises(ValueError):
            QuantizedLayer(0, np.array([0.0]), np.array([1.0]), -1.0)

    def test_array_holders_compare_and_hash_by_identity(self):
        # == on a field's array has no single truth value, so two builds of
        # one problem are unequal, and at N=1 too, where the arrays are 1-long
        problem = gbm_problem()
        for N in (1, 5):
            trees = [build_tree(problem, TimeGrid(3, 0.25), N) for _ in range(2)]
            sols = [solve(tree, problem) for tree in trees]
            spec = SweepSpec(problem, (N,), (3,))
            results = [SweepResult(spec, np.zeros((1, 1)), np.zeros((1, 1)), {}) for _ in sols]
            pairs = [trees, sols, results, [t.layers[1] for t in trees],
                     [t.transitions[0] for t in trees],
                     [s.value_layers[1] for s in sols], [s.control_layers[1] for s in sols]]
            for a, b in pairs:
                assert a == a and not a != a
                assert a != b and not a == b
                assert len({a, b, a}) == 2
            assert {trees[0], sols[0]} == {sols[0], trees[0]}
            assert trees[0].time_grid == trees[1].time_grid == TimeGrid(3, 0.25)
            assert spec == SweepSpec(problem, (N,), (3,))
        assert OptimizerSettings() == OptimizerSettings()

    def test_transition_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            TransitionMatrix(0, np.array([[1.2, -0.2]]))

    def test_transition_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            TransitionMatrix(0, np.array([[0.5, 0.4]]))

    @pytest.mark.parametrize("shape", [(0, 4), (0, 0), (4, 0)], ids=["0x4", "0x0", "4x0"])
    def test_transition_rejects_an_empty_matrix(self, shape):
        with pytest.raises(ValueError) as info:
            TransitionMatrix(0, np.zeros(shape))
        assert str(info.value) == f"entries must be a nonempty 2-d array, got shape {shape}"

    def test_transition_rejects_a_vector_naming_its_shape(self):
        with pytest.raises(ValueError) as info:
            TransitionMatrix(0, np.full(3, 1 / 3))
        assert str(info.value) == "entries must be a nonempty 2-d array, got shape (3,)"

    def test_sparse_entries_read_back_bit_for_bit(self):
        # Rows with one contiguous run, a run with a zero inside it, and a
        # run at each edge: the 8 nonzero entries of 24 are stored
        e = np.zeros((4, 6))
        e[0, 2:4] = [0.25, 0.75]
        e[1, 1:4] = [0.5, 0.0, 0.5]
        e[2, 0] = 1.0
        e[3, 3:] = [0.125, 0.375, 0.5]
        tr = TransitionMatrix(0, e)
        assert not np.shares_memory(tr.entries, e) and not tr.entries.flags.writeable
        assert isinstance(tr._stored, tuple)
        assert tr.entries.tobytes() == e.tobytes()
        assert tr.entries is not tr.entries  # each read is a new array
        moved = dataclasses.replace(tr, step=1)
        assert moved.step == 1 and moved.entries.tobytes() == e.tobytes()
        # a -0.0 has a bit set, so it is stored and keeps its sign
        e[0, 0] = -0.0
        signed = TransitionMatrix(0, e)
        assert isinstance(signed._stored, tuple)
        assert signed.entries.tobytes() == e.tobytes()
        # scattered nonzeros, 8 of 24, though each row's span is all 6 columns
        scattered = np.zeros((4, 6))
        scattered[:, [0, 5]] = 0.5
        scattered[1, [0, 5]] = [0.25, 0.75]
        assert isinstance(TransitionMatrix(0, scattered)._stored, tuple)
        assert TransitionMatrix(0, scattered).entries.tobytes() == scattered.tobytes()
        # every entry nonzero: still a copy, not a view of the matrix given
        full = np.full((2, 2), 0.5)
        entries = TransitionMatrix(0, full).entries
        assert not np.shares_memory(entries, full) and not entries.flags.writeable
        assert entries.tobytes() == full.tobytes()

    def test_every_matrix_is_stored_by_its_nonzeros_a_full_one_too(self):
        # half of the entries nonzero, three of four, and all of them
        assert isinstance(TransitionMatrix(0, np.eye(2))._stored, tuple)
        three_of_four = np.array([[0.5, 0.5], [0.0, 1.0]])
        assert isinstance(TransitionMatrix(0, three_of_four)._stored, tuple)
        assert isinstance(TransitionMatrix(0, np.full((2, 2), 0.5))._stored, tuple)

    def test_transition_matrix_build_tree_and_load_tree_store_by_nonzeros(self, tmp_path):
        # transition 0 of this tree has every entry nonzero, the last ones do not
        problem = gbm_problem()
        tree = build_tree(problem, TimeGrid(4, 0.25), 20)
        path = tmp_path / "tree.rmq.json"
        save_tree(tree, path)
        public = transition_matrix(tree.layers[0], tree.layers[1], tree.time_grid.dt, problem)
        made = [public, *tree.transitions, *load_tree(path)[0].transitions]
        assert np.all(made[0].entries > 0.0) and not np.all(made[-1].entries > 0.0)
        for tr in made:
            e = tr.entries
            mask = e.view(np.int64) != 0
            shape, bits, values = tr._stored
            assert shape == e.shape
            assert bits.tobytes() == np.packbits(mask).tobytes()
            assert values.tobytes() == e[mask].tobytes()

    @pytest.mark.parametrize(
        "read",
        [
            lambda tree, sol: TransitionMatrix(0, np.eye(4)).entries,
            lambda tree, sol: tree.layers[1].codewords,
            lambda tree, sol: tree.layers[1].weights,
            lambda tree, sol: sol.value_layers[1].values,
            lambda tree, sol: sol.control_layers[1].controls,
        ],
        ids=["sparse-entries", "codewords", "weights", "values", "controls"],
    )
    def test_a_write_is_refused(self, read):
        problem = gbm_problem()
        tree = build_tree(problem, TimeGrid(3, 0.25), 5)
        sol = solve(tree, problem)
        a = read(tree, sol)
        before = a.tobytes()
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            a[(0,) * a.ndim] = 5.0
        assert read(tree, sol).tobytes() == before

    def test_layer_rejects_a_nan_codeword(self):
        # a single codeword has no ordering to violate
        with pytest.raises(ValueError, match="codewords"):
            QuantizedLayer(1, np.array([math.nan]), np.array([1.0]), 0.0)

    def test_tree_rejects_mismatched_counts(self):
        grid = TimeGrid(2, 1.0)
        layers = (dirac(0.0), dirac(1.0, step=1))
        with pytest.raises(ValueError):
            QuantizationTree(grid, layers, ())

    @pytest.mark.parametrize(
        "kind, label, message",
        [
            ("layer", 7, "layer 1 has step 7"),
            ("layer", True, "layer 1 has step True"),
            ("layer", 1.0, "layer 1 has step 1.0"),
            ("layer", "1", "layer 1 has step '1'"),
            ("transition", 2, "transition 1 has step 2"),
            ("transition", True, "transition 1 has step True"),
        ],
    )
    def test_tree_rejects_a_mislabelled_step(self, kind, label, message):
        # the constructor used to accept these, save_tree wrote them, and
        # load_tree then rejected the file
        tree = build_tree(gbm_problem(), TimeGrid(3, 0.25), 4)
        parts = {"layer": list(tree.layers), "transition": list(tree.transitions)}
        parts[kind][1] = dataclasses.replace(parts[kind][1], step=label)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            QuantizationTree(tree.time_grid, parts["layer"], parts["transition"])

    def test_tree_takes_numpy_integer_steps(self):
        tree = build_tree(gbm_problem(), TimeGrid(3, 0.25), 4)
        layers = [dataclasses.replace(la, step=np.int64(la.step)) for la in tree.layers]
        rebuilt = QuantizationTree(tree.time_grid, layers, tree.transitions)
        assert [la.step for la in rebuilt.layers] == [0, 1, 2, 3]

    def test_tree_rejects_violated_propagation(self):
        grid = TimeGrid(1, 1.0)
        layers = (
            dirac(0.0),
            QuantizedLayer(1, np.array([-1.0, 1.0]), np.array([0.3, 0.7]), 0.0),
        )
        trans = (TransitionMatrix(0, np.array([[0.5, 0.5]])),)
        with pytest.raises(ValueError, match="propagation"):
            QuantizationTree(grid, layers, trans)

    def test_optimizer_settings_validation(self):
        with pytest.raises(ValueError):
            OptimizerSettings(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerSettings(fixed_point_tol=0.0)
        with pytest.raises(ValueError, match="integer"):
            OptimizerSettings(max_iterations=2.5)
        with pytest.raises(ValueError, match="finite"):
            OptimizerSettings(fixed_point_tol="inf")

    @pytest.mark.parametrize(
        "n, T", [(2.5, 1.0), (True, 1.0), (4, math.inf)],
        ids=["fractional-n", "boolean-n", "infinite-T"],
    )
    def test_time_grid_rejects_bad_inputs(self, n, T):
        with pytest.raises(ValueError):
            TimeGrid(n, T)

    def test_time_grid_takes_integer_like_n(self):
        grid = TimeGrid(np.int64(4), 1.0)
        assert grid.n == 4 and type(grid.n) is int
