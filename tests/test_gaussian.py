import math
import tracemalloc

import numpy as np
import pytest

from quantbsde import normal_cdf
from quantbsde.gaussian import cdf_and_pdf
from quantbsde.rmq import _BAND_HI, _BAND_LO

from oracles import (
    CDF_196,
    INV_SQRT_2PI,
    PHI_10,
    series_normal_cdf,
)


def normal_pdf(x):
    """The density ``cdf_and_pdf`` returns, the one the stats kernel uses,
    of a copy of ``x``: the cdf writes the pdf into its argument."""
    pdf = cdf_and_pdf(np.array(x, dtype=float, ndmin=1))[1]
    return float(pdf[0]) if np.ndim(x) == 0 else pdf


class TestNormalPdf:
    def test_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-16)

    def test_even_symmetry(self):
        x = np.linspace(-6.0, 6.0, 41)
        assert np.array_equal(normal_pdf(x), normal_pdf(-x))

    def test_far_tail(self):
        assert normal_pdf(10.0) == pytest.approx(PHI_10, rel=1e-13)
        assert normal_pdf(10.0) < 1e-21

    def test_strictly_positive_on_finite_reals(self):
        assert np.all(normal_pdf(np.linspace(-30, 30, 101)) > 0.0)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_frozen_value(self):
        assert normal_cdf(1.96) == pytest.approx(CDF_196, abs=1e-14)

    def test_infinite_limits(self):
        assert normal_cdf(np.inf) == 1.0
        assert normal_cdf(-np.inf) == 0.0

    def test_reflection_identity(self):
        x = np.linspace(-8.0, 8.0, 81)
        assert np.max(np.abs(normal_cdf(x) + normal_cdf(-x) - 1.0)) <= 1e-15

    def test_against_series_oracle(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-6.0, 6.0, 500)
        for x in xs:
            assert normal_cdf(float(x)) == pytest.approx(
                series_normal_cdf(float(x)), abs=1e-12
            )

    def test_nondecreasing_on_sorted_sample(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.normal(0.0, 3.0, 1000))
        assert np.all(np.diff(normal_cdf(x)) >= 0.0)


class TestAgainstCephes:
    """The numpy cdf follows the cephes ``ndtr`` that scipy ships; scipy is a
    test-only dependency, imported here and nowhere in the package."""

    # the branch edges of a = x sqrt(2): |x| = sqrt(1/2), 1 and 8
    EDGES = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)])

    def test_matches_ndtr_on_a_dense_grid(self):
        from scipy.special import ndtr

        edges = np.concatenate([self.EDGES, -self.EDGES])
        a = np.concatenate(
            [
                np.linspace(-37.5, 9.0, 400_001),
                edges,
                np.nextafter(edges, np.inf),
                np.nextafter(edges, -np.inf),
            ]
        )
        got, want = normal_cdf(a), ndtr(a)
        normal = want >= 1e-300
        rel = np.abs(got[normal] - want[normal]) / want[normal]
        assert rel.max() <= 1e-15
        assert np.abs(got[~normal] - want[~normal]).max() <= 1e-300

    def test_exact_limits_and_nan(self):
        out = normal_cdf(np.array([-np.inf, np.inf, np.nan, -1e300, 1e300]))
        assert out[0] == 0.0 and out[1] == 1.0
        assert np.isnan(out[2])
        assert out[3] == 0.0 and out[4] == 1.0
        assert math.isnan(normal_cdf(math.nan))

    def test_keeps_the_input_shape(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert normal_cdf(x).shape == (3, 4)
        assert np.array_equal(normal_cdf(x).ravel(), normal_cdf(x.ravel()))

    def test_shared_pdf_matches_the_density(self):
        a = np.linspace(-8.5, 8.3, 10_001)
        cdf, pdf = cdf_and_pdf(a.copy())
        # the kernel's table is Phi(a) - 1{a > 0}: minus the survival
        # function above 0, from the same erfc rational beyond sqrt(2)
        assert np.array_equal(cdf + (a > 0), normal_cdf(a))
        upper = a > math.sqrt(2.0)
        assert np.array_equal(-cdf[upper], normal_cdf(-a[upper]))
        exact = INV_SQRT_2PI * np.exp(-0.5 * a * a)
        assert np.max(np.abs(pdf - exact) / exact) <= 5e-14

    def test_returns_the_pdf_in_its_argument_and_leaves_earlier_results_alone(self):
        # every branch: |x| < 1, 1 <= |x| < 8 and |x| >= 8, signed zeros, NaN
        a = np.concatenate([np.linspace(-13.0, 13.0, 2_001), [0.0, -0.0, np.nan]])
        work = a.copy()
        first = cdf, pdf = cdf_and_pdf(work)
        assert pdf is work
        assert not np.shares_memory(cdf, work)
        kept = [r.tobytes() for r in first]
        for other in (-a, a[::7].copy(), np.zeros(4)):
            second = cdf_and_pdf(other)
            assert not any(np.shares_memory(r, s) for r in first for s in second)
        assert [r.tobytes() for r in first] == kept
        assert [r.tobytes() for r in cdf_and_pdf(a.copy())] == kept

    def test_peaks_under_24_bytes_per_value_above_its_argument(self):
        # values spread over the stats kernel's band, as it passes them; a
        # copy of the argument and both rows of the rational kept until the
        # end peaked at 31.6 bytes per value
        n = 40_000
        a = np.linspace(_BAND_LO, _BAND_HI, n + 2)[1:-1].copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cdf, pdf = cdf_and_pdf(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / n <= 24.0
