"""Fine-grained keystroke time calibration (Eq. 1 of the paper).

The phone-reported keystroke timestamps are coarse because of the
dynamically changing communication delay between the phone and the PPG
acquisition device. Keystrokes, however, produce the most pronounced
deflections in the trace, so the true press moment is recovered by
searching — within a window around the reported time — for the extreme
point that deviates the most from the local mean:

.. math::

    \\arg\\max_{s \\in S}
    \\left| y_s - \\frac{1}{w+1} \\sum_{i=-w/2}^{w/2} y_{s+i} \\right|

where ``S`` is the candidate set of local extrema of the
Savitzky-Golay-filtered signal and ``w`` the window size (30 samples at
100 Hz).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..config import PipelineConfig
from ..errors import ConfigurationError, SignalError
from ..types import KeystrokeEvent, PPGRecording
from .filters import savitzky_golay, savitzky_golay_cached
from .peaks import local_extrema


def _local_mean_deviation(samples: np.ndarray, index: int, window: int) -> float:
    """The Eq. 1 objective: |y_s - mean of the window centered at s|."""
    half = window // 2
    lo = max(0, index - half)
    hi = min(samples.size, index + half + 1)
    return float(abs(samples[index] - np.mean(samples[lo:hi])))


def calibrate_keystroke_index(
    samples: np.ndarray,
    reported_index: int,
    window: int = 30,
    sg_window: int = 11,
    sg_polyorder: int = 3,
) -> int:
    """Snap a coarse keystroke index to the true artifact apex.

    Args:
        samples: 1-D reference signal (after noise removal).
        reported_index: sample index of the phone-reported press time.
        window: search/objective window size ``w`` (paper: 30).
        sg_window: Savitzky-Golay window applied before the search.
        sg_polyorder: Savitzky-Golay polynomial order.

    Returns:
        The calibrated sample index.

    Raises:
        SignalError: if ``reported_index`` lies outside the signal.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise SignalError(f"expected a 1-D signal, got shape {samples.shape}")
    if not 0 <= reported_index < samples.size:
        raise SignalError(
            f"reported index {reported_index} outside signal of "
            f"length {samples.size}"
        )
    if window < 2:
        raise ConfigurationError(f"window must be >= 2, got {window}")

    smoothed = savitzky_golay(samples, window=sg_window, polyorder=sg_polyorder)
    half = window // 2
    lo = max(0, reported_index - half)
    hi = min(smoothed.size, reported_index + half + 1)
    candidates = local_extrema(smoothed[lo:hi]) + lo

    best_index = reported_index
    best_score = -np.inf
    for candidate in candidates:
        score = _local_mean_deviation(smoothed, int(candidate), window)
        if score > best_score:
            best_score = score
            best_index = int(candidate)
    return best_index


def calibrate_trial_indices(
    recording: PPGRecording,
    events: Sequence[KeystrokeEvent],
    config: PipelineConfig,
    reference: np.ndarray,
) -> List[int]:
    """Calibrate every keystroke of a trial against a reference signal.

    Each event's reported time becomes a raw sample index, clipped into
    the signal, and snaps to the apex that
    :func:`calibrate_keystroke_index` would pick from it. The indices
    equal that per-event search's (pinned by
    ``tests/signal/test_calibration.py``); the work is arranged for
    per-trial latency:

    - The reference is Savitzky-Golay-smoothed once per trial, with
      cached FIR coefficients, and the two polynomial *edge* fits — the
      dominant SG cost — run only when some keystroke's
      search/objective window can reach the first or last
      ``sg_window // 2`` samples. Interior smoothed values are
      bit-identical either way, and only read values affect the
      selected indices.
    - The strict local-extrema mask is computed once over the whole
      smoothed signal instead of per search window. A slice-interior
      point compares against the same two neighbours as the global
      signal, so restricting the global extrema to the open interval
      and re-adding the two window endpoints reproduces
      ``local_extrema(segment)`` exactly.
    - All events' candidates are scored in one vectorized gather:
      rows of a sliding-window view rowwise-averaged (``np.mean`` over
      the last axis reduces each row independently, matching the
      per-slice mean), with edge-clipped candidates falling back to
      the scalar objective. ``local_extrema`` orders candidates
      ascending and the per-event search keeps the *first* strict
      maximum, which is precisely ``np.argmax``.

    Args:
        recording: the source recording (provides the time base).
        events: phone-reported keystroke events.
        config: pipeline constants (windows, SG parameters).
        reference: 1-D reference signal aligned with ``recording``
            (typically the channel average after noise removal).

    Returns:
        Calibrated sample indices, one per event, in event order.
    """
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 1 or reference.size != recording.n_samples:
        raise SignalError(
            "reference must be 1-D and aligned with the recording: "
            f"got {reference.shape} for {recording.n_samples} samples"
        )
    window = config.calibration_window
    if window < 2:
        raise ConfigurationError(f"window must be >= 2, got {window}")
    n = reference.size
    half = window // 2

    raws = []
    for event in events:
        raw_index = int(round((event.reported_time - recording.start_time)
                              * recording.fs))
        raws.append(min(max(raw_index, 0), n - 1))

    # A keystroke at raw index r reads smoothed samples in
    # [r - 2*half, r + 2*half] only (candidate search window plus each
    # candidate's objective window). Fit the SG edges just when that
    # span can touch the first/last sg_window//2 samples.
    halflen = config.sg_window // 2
    fit_edges = any(
        r - 2 * half < halflen or r + 2 * half + 1 > n - halflen
        for r in raws
    )
    smoothed = savitzky_golay_cached(
        reference,
        window=config.sg_window,
        polyorder=config.sg_polyorder,
        fit_edges=fit_edges,
    )
    if not raws:
        return []

    if n > 2:
        inner = smoothed[1:-1]
        is_ext = ((inner > smoothed[:-2]) & (inner > smoothed[2:])) | (
            (inner < smoothed[:-2]) & (inner < smoothed[2:])
        )
        ext_idx = np.flatnonzero(is_ext) + 1
    else:
        ext_idx = np.empty(0, dtype=np.intp)
    win_len = 2 * half + 1
    if n >= win_len:
        windows = np.lib.stride_tricks.sliding_window_view(smoothed, win_len)
    else:
        windows = None

    cand_lists = []
    for r in raws:
        lo = r - half if r - half > 0 else 0
        hi = r + half + 1 if r + half + 1 < n else n
        if hi - lo <= 2:
            # local_extrema returns every index of a <=2-sample window.
            cand_lists.append(np.arange(lo, hi))
        else:
            a = int(np.searchsorted(ext_idx, lo, side="right"))
            b = int(np.searchsorted(ext_idx, hi - 1, side="left"))
            cand_lists.append(np.concatenate(([lo], ext_idx[a:b], [hi - 1])))
    cand_all = (
        np.concatenate(cand_lists) if len(cand_lists) > 1 else cand_lists[0]
    )
    starts = cand_all - half
    if not fit_edges:
        # The skip-edges condition already proves every candidate's
        # objective window lies inside the signal (and n >= win_len).
        interior = None
    elif windows is not None:
        interior = (starts >= 0) & (cand_all + half + 1 <= n)
    else:
        interior = np.zeros(cand_all.size, dtype=bool)
    scores = np.empty(cand_all.size)
    if interior is None or interior.all():
        np.subtract(
            smoothed[cand_all], np.mean(windows[starts], axis=-1), out=scores
        )
        np.abs(scores, out=scores)
    else:
        if interior.any():
            scores[interior] = np.abs(
                smoothed[cand_all[interior]]
                - np.mean(windows[starts[interior]], axis=-1)
            )
        for i in np.flatnonzero(~interior):
            scores[i] = _local_mean_deviation(
                smoothed, int(cand_all[i]), window
            )

    indices = []
    pos = 0
    for cand in cand_lists:
        segment = scores[pos : pos + cand.size]
        indices.append(int(cand[int(np.argmax(segment))]))
        pos += cand.size
    return indices
