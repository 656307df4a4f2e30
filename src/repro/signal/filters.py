"""Smoothing filters for PPG preprocessing.

The paper uses a median filter for noise removal (non-linear, preserves
waveform detail while killing impulse noise from the low-cost front
end) and a Savitzky-Golay filter before the extreme-point search in the
calibration module (removes locally unimportant fluctuation while
retaining the wave's shape).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import signal as sps
from scipy.ndimage import convolve1d

from ..errors import ConfigurationError, SignalError

try:  # scipy private edge helper; absence demotes the cached SG path
    from scipy.signal._savitzky_golay import _fit_edges_polyfit
except ImportError:  # pragma: no cover - depends on scipy version
    _fit_edges_polyfit = None


def _check_1d(samples: np.ndarray, name: str) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise SignalError(f"{name} expects a 1-D signal, got shape {samples.shape}")
    if samples.size == 0:
        raise SignalError(f"{name} received an empty signal")
    return samples


def median_filter(samples: np.ndarray, kernel: int = 5) -> np.ndarray:
    """Median-filter a 1-D signal (the Noise Removal module).

    Args:
        samples: input signal.
        kernel: odd window length.

    Returns:
        Filtered signal of the same length.
    """
    samples = _check_1d(samples, "median_filter")
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigurationError(f"median kernel must be a positive odd int: {kernel}")
    if kernel == 1 or samples.size < kernel:
        return samples.copy()
    return sps.medfilt(samples, kernel_size=kernel)


def median_filter_multi(samples: np.ndarray, kernel: int = 5) -> np.ndarray:
    """Median-filter every row of a 2-D ``(channels, n)`` array at once.

    Produces exactly the same output as calling :func:`median_filter`
    per row: ``scipy.signal.medfilt`` zero-pads the edges, and so does
    this. For the 3- and 5-point kernels the pipeline uses, the running
    median is a fixed min/max selection network over the zero-padded
    shifted rows, several times faster than sorting every window; any
    other odd kernel takes one ``np.median`` over a strided window
    view. Both select one of the window's values, as the sorting median
    of an odd-length window does, so the output is value-identical
    (pinned against per-row ``medfilt`` by
    ``tests/signal/test_filters.py``). A signal shorter than the kernel
    comes back as a copy.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise SignalError(
            f"median_filter_multi expects a 2-D signal, got shape {samples.shape}"
        )
    n = samples.shape[1]
    if n == 0:
        raise SignalError("median_filter_multi received an empty signal")
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigurationError(f"median kernel must be a positive odd int: {kernel}")
    if kernel == 1 or n < kernel:
        return samples.copy()
    half = kernel // 2
    # Zero padding by assignment: np.pad costs more than the network.
    padded = np.zeros((samples.shape[0], n + 2 * half))
    padded[:, half : half + n] = samples
    # Shifted views: row i of tap j holds the window value padded[i, t + j].
    taps = [padded[:, j : j + n] for j in range(kernel)]
    if kernel == 3:
        return _median3(*taps)
    if kernel == 5:
        a, b, c, d, e = taps
        # med5 = med3(max(min(a,b), min(c,d)), min(max(a,b), max(c,d)), e)
        return _median3(
            np.maximum(np.minimum(a, b), np.minimum(c, d)),
            np.minimum(np.maximum(a, b), np.maximum(c, d)),
            e,
        )
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=1)
    return np.median(windows, axis=-1)


def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise median of three arrays via the min/max exchange
    network: ``max(min(a, b), min(max(a, b), c))``."""
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def savitzky_golay(
    samples: np.ndarray, window: int = 11, polyorder: int = 3
) -> np.ndarray:
    """Savitzky-Golay smoothing (the SG filter of the calibration step).

    Args:
        samples: input signal.
        window: odd window length, must exceed ``polyorder``.
        polyorder: fitted polynomial order.

    Returns:
        Smoothed signal of the same length.
    """
    samples = _check_1d(samples, "savitzky_golay")
    if window % 2 == 0 or window <= polyorder:
        raise ConfigurationError(
            f"SG window must be odd and > polyorder: window={window}, "
            f"polyorder={polyorder}"
        )
    if samples.size < window:
        return samples.copy()
    return sps.savgol_filter(samples, window_length=window, polyorder=polyorder)


@lru_cache(maxsize=16)
def _savgol_coeffs_cached(window: int, polyorder: int) -> np.ndarray:
    """FIR coefficients of the SG filter; the lstsq fit behind them is
    data-independent, so one set serves every signal.

    Concurrency: ``lru_cache`` is internally locked, and the cached
    array is frozen (``setflags(write=False)``) before publication, so
    concurrent callers share one immutable coefficient set safely.
    """
    coeffs = sps.savgol_coeffs(window, polyorder)
    coeffs.setflags(write=False)
    return coeffs


def warm_savgol(window: int = 11, polyorder: int = 3) -> None:
    """Prime the SG coefficient cache for a (window, polyorder) pair."""
    _savgol_coeffs_cached(int(window), int(polyorder))


def clear_savgol_cache() -> None:
    """Drop cached SG coefficients (cold-start benchmarks and tests)."""
    _savgol_coeffs_cached.cache_clear()


def savitzky_golay_cached(
    samples: np.ndarray,
    window: int = 11,
    polyorder: int = 3,
    fit_edges: bool = True,
) -> np.ndarray:
    """Bit-identical fast path for :func:`savitzky_golay`.

    ``scipy.signal.savgol_filter`` (mode ``"interp"``) is one FIR
    correlation plus two least-squares polynomial edge fits — but it
    recomputes the FIR coefficients (their own lstsq solve) on every
    call. This variant reuses cached coefficients and replays scipy's
    own interior/edge steps, so the output is bit-identical to
    :func:`savitzky_golay` (pinned by ``tests/signal/test_filters.py``)
    at ~40% less cost. When the private scipy edge helper is missing,
    it silently falls back to the stock filter.

    Args:
        samples: input signal.
        window: odd window length, must exceed ``polyorder``.
        polyorder: fitted polynomial order.
        fit_edges: when False, skip the two polynomial edge fits — by
            far the dominant cost — leaving the first and last
            ``window // 2`` output samples *unspecified* (raw
            constant-padded convolution values). Only for callers that
            provably never read those samples; interior samples are
            bit-identical either way.
    """
    samples = _check_1d(samples, "savitzky_golay")
    if window % 2 == 0 or window <= polyorder:
        raise ConfigurationError(
            f"SG window must be odd and > polyorder: window={window}, "
            f"polyorder={polyorder}"
        )
    if samples.size < window:
        return samples.copy()
    if _fit_edges_polyfit is None:  # pragma: no cover - scipy-dependent
        return sps.savgol_filter(
            samples, window_length=window, polyorder=polyorder
        )
    coeffs = _savgol_coeffs_cached(window, polyorder)
    smoothed = convolve1d(samples, coeffs, axis=-1, mode="constant")
    if fit_edges:
        _fit_edges_polyfit(samples, window, polyorder, 0, 1.0, -1, smoothed)
    return smoothed


def moving_average(samples: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge truncation.

    Used by the evaluation utilities; not part of the paper pipeline.
    """
    samples = _check_1d(samples, "moving_average")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if window == 1:
        return samples.copy()
    # Cumulative-sum formulation of the old double-np.convolve: O(n)
    # instead of O(n * window). ``np.convolve(x, ones(w), "same")[i]``
    # sums x over [i - w//2, i + (w-1)//2] clipped to the signal, and
    # the count convolution is exactly the clipped window length. One
    # deliberate divergence: for window > n the convolve version
    # returned a window-length array ("same" follows the longer
    # operand); here the output always matches the input length.
    n = samples.size
    prefix = np.concatenate(([0.0], np.cumsum(samples)))
    i = np.arange(n)
    lo = np.clip(i - window // 2, 0, n)
    hi = np.clip(i + (window - 1) // 2 + 1, 0, n)
    return (prefix[hi] - prefix[lo]) / (hi - lo)
