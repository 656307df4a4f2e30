"""PPG samples preprocessing (the first phase of Fig. 4).

``preprocess_trial`` applies, in order: median-filter noise removal,
fine-grained keystroke time calibration against the channel-average
reference (Eq. 1), smoothness-priors detrending (Eq. 2-3), and
keystroke presence detection by short-time energy thresholding. The
result carries everything the enrollment and authentication phases
need: detrended channels, calibrated per-keystroke indices, and the
per-keystroke detection flags that drive input-case identification.
``preprocess_trials`` maps it over a list of trials.

``_preprocess_trial_reference`` keeps the pre-optimization per-channel
path as the parity baseline for tests and ``scripts/bench_pipeline.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import PipelineConfig
from ..errors import SignalError
from ..signal import (
    calibrate_trial_indices,
    median_filter_multi,
    segment_around,
    short_time_energy,
    smoothness_priors_detrend,
)
from ..types import PinEntryTrial, SegmentedKeystroke


@dataclass(frozen=True)
class PreprocessedTrial:
    """Output of the preprocessing phase for one PIN-entry trial.

    Attributes:
        trial: the raw input trial.
        filtered: median-filtered channels, ``(n_channels, n)``.
        detrended: detrended filtered channels, ``(n_channels, n)``.
        reference: channel-average detrended signal used for energy
            analysis, shape ``(n,)``.
        keystroke_indices: calibrated sample index per typed digit.
        keystroke_detected: per-digit flag — True when the short-time
            energy around the calibrated index exceeds the threshold.
        energy_threshold: the threshold used (1/2 of the mean
            short-time energy by default).
        config: the pipeline configuration the trial was preprocessed
            with; supplies the default segment window.
    """

    trial: PinEntryTrial
    filtered: np.ndarray
    detrended: np.ndarray
    reference: np.ndarray
    keystroke_indices: Tuple[int, ...]
    keystroke_detected: Tuple[bool, ...]
    energy_threshold: float
    config: Optional[PipelineConfig] = None

    @property
    def detected_count(self) -> int:
        """Number of keystrokes whose artifact was detected."""
        return int(sum(self.keystroke_detected))

    def detected_positions(self) -> List[int]:
        """Digit positions (0-based within the PIN) that were detected."""
        return [i for i, hit in enumerate(self.keystroke_detected) if hit]

    def segment(self, position: int, window: Optional[int] = None) -> SegmentedKeystroke:
        """Cut the single-keystroke waveform for digit ``position``.

        Args:
            position: 0-based index into the typed PIN.
            window: segment length; ``None`` (the default) uses the
                ``segment_window`` of the config the trial was
                preprocessed with. An explicit value — including an
                invalid one like 0, which ``segment_around`` rejects —
                is passed through untouched.
        """
        if not 0 <= position < len(self.trial.pin):
            raise SignalError(
                f"position {position} outside PIN of length {len(self.trial.pin)}"
            )
        if window is None:
            config = self.config if self.config is not None else PipelineConfig()
            window = config.segment_window
        center = self.keystroke_indices[position]
        samples = segment_around(self.detrended, center, window)
        return SegmentedKeystroke(
            samples=samples,
            key=self.trial.pin[position],
            center_index=center,
            fs=self.trial.recording.fs,
        )


def preprocess_trial(
    trial: PinEntryTrial, config: Optional[PipelineConfig] = None
) -> PreprocessedTrial:
    """Run the full preprocessing phase on one trial.

    Args:
        trial: raw PIN-entry trial.
        config: pipeline constants; defaults to the paper's values. The
            config's ``fs`` must match the recording's.

    Returns:
        The preprocessed trial.

    Raises:
        SignalError: on a sampling-rate mismatch, an empty recording, or
            non-finite samples.
    """
    if config is None:
        config = PipelineConfig()
    if abs(trial.recording.fs - config.fs) > 1e-9:
        raise SignalError(
            f"recording at {trial.recording.fs} Hz but pipeline configured "
            f"for {config.fs} Hz; use PipelineConfig.scaled_to"
        )
    if not bool(np.all(np.isfinite(trial.recording.samples))):
        # Fail with a typed error instead of a NaN-poisoned crash
        # deep inside scipy. Known-missing (NaN) samples are the
        # degradation policy's job, upstream of preprocessing.
        raise SignalError(
            "recording contains non-finite samples; repair them first "
            "(e.g. via a DegradationPolicy with gap repair)"
        )
    filtered = median_filter_multi(trial.recording.samples, config.median_kernel)

    # Calibration searches the channel-average of the filtered signal:
    # keystroke artifacts are coherent across channels while sensor
    # noise is not, so averaging raises the artifact contrast.
    indices = calibrate_trial_indices(
        trial.recording, trial.events, config, filtered.mean(axis=0)
    )

    detrended = smoothness_priors_detrend(filtered, config.detrend_lambda)
    reference = detrended.mean(axis=0)
    energy = short_time_energy(reference, config.energy_window)
    threshold = config.energy_threshold_ratio * float(energy.mean())
    detected = tuple(bool(energy[i] > threshold) for i in indices)

    return PreprocessedTrial(
        trial=trial,
        filtered=filtered,
        detrended=detrended,
        reference=reference,
        keystroke_indices=tuple(int(i) for i in indices),
        keystroke_detected=detected,
        energy_threshold=threshold,
        config=config,
    )


def preprocess_trials(
    trials: Sequence[PinEntryTrial], config: Optional[PipelineConfig] = None
) -> List[PreprocessedTrial]:
    """Run :func:`preprocess_trial` on every trial, in input order."""
    if config is None:
        config = PipelineConfig()
    return [preprocess_trial(trial, config) for trial in trials]


def _preprocess_trial_reference(
    trial: PinEntryTrial, config: Optional[PipelineConfig] = None
) -> PreprocessedTrial:
    """Pre-optimization reference path, kept for parity and benchmarks.

    Reproduces the original per-trial cost profile: median-filters each
    channel in a Python loop, calibrates each keystroke with its own
    Savitzky-Golay pass over the full reference (the pre-hoisting
    behavior of ``calibrate_keystroke_index``), and estimates each
    channel's trend with the generic sparse-LU solver. Results match
    :func:`preprocess_trial` to solver precision.
    """
    from ..signal.calibration import calibrate_keystroke_index
    from ..signal.detrend import _estimate_trend_reference
    from ..signal.filters import median_filter

    if config is None:
        config = PipelineConfig()
    recording = trial.recording
    if abs(recording.fs - config.fs) > 1e-9:
        raise SignalError(
            f"recording at {recording.fs} Hz but pipeline configured "
            f"for {config.fs} Hz; use PipelineConfig.scaled_to"
        )

    filtered = np.vstack(
        [median_filter(ch, config.median_kernel) for ch in recording.samples]
    )
    calibration_reference = filtered.mean(axis=0)
    indices = []
    for event in trial.events:
        raw_index = int(
            round((event.reported_time - recording.start_time) * recording.fs)
        )
        raw_index = int(np.clip(raw_index, 0, recording.n_samples - 1))
        indices.append(
            calibrate_keystroke_index(
                calibration_reference,
                raw_index,
                window=config.calibration_window,
                sg_window=config.sg_window,
                sg_polyorder=config.sg_polyorder,
            )
        )

    detrended = filtered - np.vstack(
        [
            _estimate_trend_reference(ch, config.detrend_lambda)
            for ch in filtered
        ]
    )
    reference = detrended.mean(axis=0)
    energy = short_time_energy(reference, config.energy_window)
    threshold = config.energy_threshold_ratio * float(energy.mean())
    detected = tuple(bool(energy[i] > threshold) for i in indices)

    return PreprocessedTrial(
        trial=trial,
        filtered=filtered,
        detrended=detrended,
        reference=reference,
        keystroke_indices=tuple(int(i) for i in indices),
        keystroke_detected=detected,
        energy_threshold=threshold,
        config=config,
    )
