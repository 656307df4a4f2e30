"""Comparison baselines.

`ShangThresholdBaseline` re-implements the manual-feature method the
paper compares against (Fig. 11, Table I): Shang & Wu's wrist-PPG
authentication builds a "strong classifier" from the legitimate user's
data alone — enrolled DTW templates per channel, channel-averaged
distances, and a tuned threshold tau (1.7 in the paper's
re-implementation). Its two weaknesses, which the comparison
reproduces, are threshold sensitivity (accuracy ~0.62 on P2Auth's
keystroke data) and DTW cost (two orders of magnitude slower than the
ROCKET pipeline).

`AccelerometerPipeline` applies the P2Auth feature/classifier stack to
the simultaneously captured accelerometer stream (Fig. 12): the same
learning machinery on a far less informative signal.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.models import WaveformModel
from ..errors import EnrollmentError, NotFittedError
from ..features import ManualFeatureExtractor
from ..types import PinEntryTrial


class ShangThresholdBaseline:
    """Threshold-on-DTW-distance authenticator (manual baseline).

    Args:
        tau: acceptance threshold as a multiple of the mean
            intra-enrollment template distance (the paper tunes the
            absolute threshold to 1.7 on its data; a relative threshold
            is the scale-free equivalent).
        band_fraction: DTW band width.
        dtw_stride: subsampling stride for DTW (cost control).
    """

    def __init__(
        self, tau: float = 1.7, band_fraction: float = 0.1, dtw_stride: int = 1
    ) -> None:
        if tau <= 0:
            raise EnrollmentError(f"tau must be positive, got {tau}")
        self.tau = tau
        self._extractor = ManualFeatureExtractor(
            band_fraction=band_fraction, dtw_stride=dtw_stride
        )
        self._threshold: Optional[float] = None

    def enroll(self, waveforms: np.ndarray) -> "ShangThresholdBaseline":
        """Enroll from legitimate waveforms ``(n, channels, window)``.

        Only legitimate data is used — the method's selling point — so
        the threshold is calibrated from the enrollment samples' own
        distances to the selected template.
        """
        waveforms = np.asarray(waveforms, dtype=np.float64)
        if waveforms.ndim != 3 or waveforms.shape[0] < 2:
            raise EnrollmentError(
                "enrollment needs at least 2 waveforms of shape "
                f"(n, channels, window), got {waveforms.shape}"
            )
        self._extractor.fit(waveforms)
        intra = self._extractor.template_distances(waveforms)
        reference = float(np.mean(intra[intra > 0])) if np.any(intra > 0) else 1e-12
        self._threshold = self.tau * reference
        return self

    def distances(self, waveforms: np.ndarray) -> np.ndarray:
        """Channel-averaged DTW distances to the enrolled template."""
        if self._threshold is None:
            raise NotFittedError("ShangThresholdBaseline.enroll not called")
        return self._extractor.template_distances(np.asarray(waveforms))

    def accepts(self, waveform: np.ndarray) -> bool:
        """Accept iff the distance falls below the tuned threshold."""
        waveform = np.asarray(waveform, dtype=np.float64)
        if waveform.ndim == 2:
            waveform = waveform[np.newaxis]
        return bool(self.distances(waveform)[0] < self._threshold)


def accel_waveform(trial: PinEntryTrial, window: int = 360, margin: int = 30) -> np.ndarray:
    """Fixed accelerometer window around the first reported keystroke.

    Args:
        trial: a trial synthesized with ``include_accel=True``.
        window: output length in accelerometer samples (75 Hz).
        margin: samples kept before the first keystroke.

    Returns:
        Array of shape ``(3, window)``.
    """
    if trial.accel is None:
        raise EnrollmentError("trial has no accelerometer recording")
    accel = trial.accel
    first = min(e.reported_time for e in trial.events)
    start = int(round(first * accel.fs)) - margin
    start = int(np.clip(start, 0, max(0, accel.n_samples - 1)))
    chunk = accel.samples[:, start : start + window]
    if chunk.shape[1] < window:
        chunk = np.pad(chunk, ((0, 0), (0, window - chunk.shape[1])), mode="edge")
    return chunk


class AccelerometerPipeline:
    """ROCKET + ridge over accelerometer windows (Fig. 12 comparison).

    Args:
        num_features: MiniRocket feature budget.
        window: accelerometer window length in samples.
    """

    def __init__(self, num_features: int = 2520, window: int = 360) -> None:
        self.window = window
        # Balanced training: without it the near-featureless accel data
        # degenerates to reject-everything, which would overstate the
        # TRR; balanced, the model genuinely tries to separate and its
        # weak accuracy AND weak rejection both show (as in Fig. 12).
        self._model = WaveformModel(
            feature_method="rocket", num_features=num_features, balanced=True
        )

    def enroll(
        self,
        legit_trials: Sequence[PinEntryTrial],
        third_party_trials: Sequence[PinEntryTrial],
    ) -> "AccelerometerPipeline":
        """Train on accelerometer windows of the given trials."""
        positives = np.stack(
            [accel_waveform(t, self.window) for t in legit_trials]
        )
        negatives = np.stack(
            [accel_waveform(t, self.window) for t in third_party_trials]
        )
        self._model.fit(positives, negatives)
        return self

    def accepts(self, trial: PinEntryTrial) -> bool:
        """Accept/reject one probe trial from its accelerometer data."""
        return self._model.accepts(accel_waveform(trial, self.window))
