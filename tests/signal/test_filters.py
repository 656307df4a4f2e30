"""Unit tests for the smoothing filters."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, SignalError
from repro.signal import (
    median_filter,
    median_filter_multi,
    moving_average,
    savitzky_golay,
)


class TestMedianFilter:
    def test_removes_isolated_impulses(self):
        x = np.zeros(100)
        x[50] = 100.0
        out = median_filter(x, kernel=5)
        assert abs(out[50]) < 1e-9

    def test_preserves_constant_signal(self):
        x = np.full(50, 3.0)
        assert np.allclose(median_filter(x, 5), x)

    def test_preserves_slow_ramp_interior(self):
        x = np.linspace(0, 1, 100)
        out = median_filter(x, 5)
        assert np.allclose(out[5:-5], x[5:-5], atol=1e-9)

    def test_kernel_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=30)
        assert np.allclose(median_filter(x, 1), x)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            median_filter(np.zeros(10), 4)

    def test_empty_signal_rejected(self):
        with pytest.raises(SignalError):
            median_filter(np.array([]), 3)

    def test_2d_rejected(self):
        with pytest.raises(SignalError):
            median_filter(np.zeros((2, 10)), 3)

    def test_short_signal_passthrough(self):
        x = np.array([1.0, 2.0])
        assert np.allclose(median_filter(x, 5), x)


class TestSavitzkyGolay:
    def test_polynomial_reproduced_exactly(self):
        """SG of order p reproduces degree-<=p polynomials exactly."""
        t = np.linspace(0, 1, 100)
        x = 2.0 + 3.0 * t - t ** 2
        out = savitzky_golay(x, window=11, polyorder=3)
        assert np.allclose(out, x, atol=1e-10)

    def test_attenuates_high_frequency_noise(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0, 1, 500)
        clean = np.sin(2 * np.pi * 2 * t)
        noisy = clean + 0.5 * rng.normal(size=t.size)
        out = savitzky_golay(noisy, window=21, polyorder=3)
        assert np.mean((out - clean) ** 2) < np.mean((noisy - clean) ** 2)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigurationError):
            savitzky_golay(np.zeros(50), window=10)

    def test_window_not_above_polyorder_rejected(self):
        with pytest.raises(ConfigurationError):
            savitzky_golay(np.zeros(50), window=3, polyorder=3)

    def test_short_signal_passthrough(self):
        x = np.arange(5.0)
        assert np.allclose(savitzky_golay(x, window=11, polyorder=3), x)


class TestMovingAverage:
    def test_constant_preserved(self):
        x = np.full(20, 7.0)
        assert np.allclose(moving_average(x, 5), x)

    def test_window_one_identity(self):
        x = np.random.default_rng(2).normal(size=30)
        assert np.allclose(moving_average(x, 1), x)

    def test_edges_use_truncated_window(self):
        x = np.array([1.0, 1.0, 1.0, 1.0])
        out = moving_average(x, 3)
        assert np.allclose(out, 1.0)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.zeros(5), 0)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=40,
        )
    )
    def test_output_bounded_by_input_range(self, values):
        x = np.asarray(values)
        out = moving_average(x, 5)
        assert np.all(out >= x.min() - 1e-9)
        assert np.all(out <= x.max() + 1e-9)


class TestMedianFilterMulti:
    def test_matches_per_row_median_filter(self):
        # Kernels 3 and 5 run the min/max selection network, the others
        # a sorting median; per-row scipy medfilt is the reference.
        rng = np.random.default_rng(0)
        noise = rng.normal(size=(4, 257))
        # Ties and constant runs: values drawn from a 4-value set, plus
        # long flat stretches, so windows hold repeated values.
        ties = rng.integers(-2, 2, size=(4, 257)).astype(np.float64)
        ties[:, 40:90] = 1.0
        ties[1, 100:160] = 0.0
        for x in (noise, ties):
            for kernel in (1, 3, 5, 9):
                multi = median_filter_multi(x, kernel)
                per_row = np.vstack([median_filter(row, kernel) for row in x])
                assert np.array_equal(multi, per_row), kernel
        # A signal exactly one kernel long filters (no passthrough).
        for kernel in (3, 5, 9):
            x = rng.normal(size=(3, kernel))
            per_row = np.vstack([median_filter(row, kernel) for row in x])
            assert np.array_equal(median_filter_multi(x, kernel), per_row)

    def test_single_channel_matches(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 64))
        assert np.array_equal(
            median_filter_multi(x, 5)[0], median_filter(x[0], 5)
        )

    def test_short_signal_passthrough(self):
        x = np.arange(6.0).reshape(2, 3)
        out = median_filter_multi(x, kernel=5)
        assert np.array_equal(out, x)
        out[0, 0] = 99.0
        assert np.isclose(x[0, 0], 0.0)  # a copy, not a view

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            median_filter_multi(np.zeros((2, 10)), kernel=4)

    def test_1d_rejected(self):
        with pytest.raises(SignalError):
            median_filter_multi(np.zeros(10))

    def test_empty_rejected(self):
        with pytest.raises(SignalError):
            median_filter_multi(np.zeros((2, 0)))


class TestMovingAverageMatchesConvolveFormulation:
    """The cumsum implementation must reproduce the old double-convolve."""

    @staticmethod
    def _reference(samples: np.ndarray, window: int) -> np.ndarray:
        kernel = np.ones(window)
        sums = np.convolve(samples, kernel, mode="same")
        counts = np.convolve(np.ones_like(samples), kernel, mode="same")
        return sums / counts

    @pytest.mark.parametrize("window", [2, 3, 4, 5, 10, 29, 30, 99, 100])
    def test_matches_reference(self, window):
        rng = np.random.default_rng(window)
        x = rng.normal(size=100)
        np.testing.assert_allclose(
            moving_average(x, window),
            self._reference(x, window),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_window_larger_than_signal(self):
        """w > n is the one deliberate divergence from the convolve
        formulation, which returned a max(n, w)-length array there
        (np.convolve 'same' output is as long as the *longer* operand).
        The cumsum version keeps the output aligned with the input:
        every truncated window covers the whole signal."""
        x = np.arange(5.0)
        out = moving_average(x, 11)
        assert out.shape == x.shape
        np.testing.assert_allclose(out, np.full(5, 2.0), rtol=1e-12)


class TestSavitzkyGolayCached:
    """The cached SG twin must be bit-identical where it promises to be."""

    def test_matches_uncached_bit_for_bit(self):
        from repro.signal.filters import savitzky_golay, savitzky_golay_cached

        rng = np.random.default_rng(0)
        for n in (12, 57, 200, 457):
            x = rng.standard_normal(n)
            for window, polyorder in ((11, 3), (5, 2), (7, 3)):
                assert np.array_equal(
                    savitzky_golay_cached(x, window=window, polyorder=polyorder),
                    savitzky_golay(x, window=window, polyorder=polyorder),
                )

    def test_fit_edges_false_interior_identical(self):
        # Skipping the polynomial edge fits must leave every interior
        # sample (index half .. n-half-1) bit-identical; the edge
        # samples are unspecified and callers must never read them.
        from repro.signal.filters import savitzky_golay, savitzky_golay_cached

        rng = np.random.default_rng(1)
        x = rng.standard_normal(300)
        window = 11
        half = window // 2
        full = savitzky_golay(x, window=window, polyorder=3)
        lazy = savitzky_golay_cached(
            x, window=window, polyorder=3, fit_edges=False
        )
        assert np.array_equal(lazy[half:-half], full[half:-half])

    def test_cache_reuse_identical_across_calls(self):
        from repro.signal.filters import (
            clear_savgol_cache,
            savitzky_golay_cached,
        )

        rng = np.random.default_rng(2)
        x = rng.standard_normal(128)
        clear_savgol_cache()
        cold = savitzky_golay_cached(x)
        warm = savitzky_golay_cached(x)
        assert np.array_equal(cold, warm)

    def test_validation_matches_uncached(self):
        from repro.signal.filters import savitzky_golay_cached

        with pytest.raises(ConfigurationError):
            savitzky_golay_cached(np.ones(32), window=10)
        with pytest.raises(ConfigurationError):
            savitzky_golay_cached(np.ones(32), window=3, polyorder=3)
        with pytest.raises(SignalError):
            savitzky_golay_cached(np.ones((2, 32)))
