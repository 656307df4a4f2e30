"""Model layer of enrollment: waveform extraction and learning units.

This module holds the *data-facing* half of the enrollment phase: the
fixed-window waveform extractors of Section IV-B.2, the
:class:`WaveformModel` learning unit (feature extractor + scaler +
binary classifier) with the :class:`SharedNegativeSet` a negative bank
trains it against, and the :class:`EnrolledModels` bundle a finished
enrollment produces. Orchestration (quality gates, the training loop)
lives in :mod:`repro.core.enroll`; the rule for which negatives each
model gets, and the banks built from it, in :mod:`repro.core.negatives`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import PipelineConfig
from ..errors import EnrollmentError, NotFittedError, SignalError
from ..features import ManualFeatureExtractor, MiniRocket
from ..ml import RidgeClassifier, StandardScaler
from ..ml.base import BinaryClassifier
from ..types import SegmentedKeystroke
from .fusion import fuse_waveforms
from .pipeline import PreprocessedTrial

#: Feature methods supported by :class:`WaveformModel`.
FEATURE_METHODS = ("rocket", "manual", "raw")

#: Feature methods whose extractor can be fitted on the negative class
#: alone, making the featurized negatives shareable across victims.
#: "manual" fits its extractor on the positives, so it cannot share.
SHAREABLE_FEATURE_METHODS = ("rocket", "raw")


@dataclass(frozen=True)
class EnrollmentOptions:
    """Knobs of the enrollment phase.

    Attributes:
        privacy_boost: also train the fused-waveform model and use it
            for one-handed authentication (Section IV-B.2.2).
        num_features: total MiniRocket feature budget (paper: ~10K).
        full_window: length of the fixed one-handed waveform window in
            samples (covers all four keystrokes at typical rhythm).
        full_margin: samples kept before the first keystroke in the
            full window.
        feature_method: "rocket" (paper default), "manual"
            (statistical + DTW baseline), or "raw" (hand the raw series
            to the classifier — used by the neural baselines).
        classifier_factory: builds a fresh binary classifier per model.
        seed: seed for the MiniRocket bias sampling.
        min_positive_samples: minimum legitimate samples a model needs.
        quality_gate: refuse to train on enrollment trials whose
            :class:`~repro.signal.quality.QualityReport` is unusable —
            a model fitted on garbage silently degrades every later
            decision, so a bad trial raises
            :class:`~repro.errors.EnrollmentError` instead.
        min_quality_artifact_ratio: keystroke-artifact visibility
            threshold the gate forwards to
            :func:`~repro.signal.quality.assess_recording`.
    """

    privacy_boost: bool = False
    num_features: int = 9996
    full_window: int = 480
    full_margin: int = 45
    feature_method: str = "rocket"
    classifier_factory: Callable[[], BinaryClassifier] = RidgeClassifier
    seed: int = 0
    min_positive_samples: int = 3
    quality_gate: bool = True
    min_quality_artifact_ratio: float = 3.0

    def __post_init__(self) -> None:
        if self.feature_method not in FEATURE_METHODS:
            raise EnrollmentError(
                f"feature_method must be one of {FEATURE_METHODS}, "
                f"got {self.feature_method!r}"
            )
        if self.full_window < 8 or self.full_margin < 0:
            raise EnrollmentError("invalid full-window geometry")
        if self.min_positive_samples < 1:
            raise EnrollmentError("min_positive_samples must be >= 1")


def fixed_window(samples: np.ndarray, start: int, window: int) -> np.ndarray:
    """Cut ``window`` columns starting at ``start``, edge-padding.

    Unlike :func:`repro.signal.segment_around`, the window is anchored
    (not centered) and the signal may be shorter than the window — the
    missing tail is edge-replicated, modelling a capture buffer that
    holds the last sample until the window fills.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[np.newaxis, :]
    n = samples.shape[1]
    start = int(np.clip(start, 0, max(0, n - 1)))
    end = start + window
    chunk = samples[:, start:min(end, n)]
    if chunk.shape[1] < window:
        pad = window - chunk.shape[1]
        chunk = np.pad(chunk, ((0, 0), (0, pad)), mode="edge")
    return chunk


def extract_full_waveform(
    preprocessed: PreprocessedTrial, window: int = 480, margin: int = 45
) -> np.ndarray:
    """The one-handed "whole PPG sample": a fixed window from just
    before the first calibrated keystroke, shape ``(channels, window)``.
    """
    first = min(preprocessed.keystroke_indices)
    return fixed_window(preprocessed.detrended, first - margin, window)


def extract_segments(
    preprocessed: PreprocessedTrial, config: PipelineConfig
) -> List[SegmentedKeystroke]:
    """Single-keystroke segments for every *detected* keystroke."""
    return [
        preprocessed.segment(pos, config.segment_window)
        for pos in preprocessed.detected_positions()
    ]


def extract_fused_waveform(
    preprocessed: PreprocessedTrial, config: PipelineConfig
) -> np.ndarray:
    """Privacy-boost fused waveform (Eq. 4) of the detected keystrokes."""
    segments = extract_segments(preprocessed, config)
    if not segments:
        raise SignalError("no detected keystrokes to fuse")
    return fuse_waveforms(segments)


@dataclass(frozen=True)
class SharedNegativeSet:
    """Featurized third-party negatives for one model slot.

    Attributes:
        feature_method: the method the features were produced with.
        extractor: the MiniRocket fitted on the negatives ("rocket"
            method; ``None`` for "raw").
        features: the featurized negatives — ``(n_neg, n_features)``
            for "rocket", the raw ``(n_neg, channels, window)`` stack
            for "raw".
    """

    feature_method: str
    extractor: Optional[MiniRocket]
    features: np.ndarray


class WaveformModel:
    """One binary authentication model over fixed-length waveforms.

    Args:
        feature_method: see :class:`EnrollmentOptions`.
        num_features: MiniRocket feature budget (rocket method only).
        classifier_factory: builds the classifier.
        seed: MiniRocket bias seed.
    """

    def __init__(
        self,
        feature_method: str = "rocket",
        num_features: int = 9996,
        classifier_factory: Callable[[], BinaryClassifier] = RidgeClassifier,
        seed: int = 0,
        balanced: bool = False,
    ) -> None:
        if feature_method not in FEATURE_METHODS:
            raise EnrollmentError(f"unknown feature method: {feature_method!r}")
        self.feature_method = feature_method
        self.num_features = num_features
        self.seed = seed
        self.balanced = balanced
        self._classifier = classifier_factory()
        self._rocket: Optional[MiniRocket] = None
        self._manual: Optional[ManualFeatureExtractor] = None
        self._scaler: Optional[StandardScaler] = None
        self._fitted = False

    def _extract(self, x: np.ndarray) -> np.ndarray:
        """Unscaled features of ``(n, channels, window)`` waveforms."""
        if self.feature_method == "raw":
            return x
        extractor = self._rocket if self.feature_method == "rocket" else self._manual
        if extractor is None:
            raise NotFittedError("WaveformModel.fit has not been called")
        return extractor.transform(x)

    def _featurize(self, x: np.ndarray) -> np.ndarray:
        """The classifier's input for ``(n, channels, window)`` waveforms."""
        features = self._extract(x)
        if self.feature_method == "raw":
            return features
        if self._scaler is None:
            raise NotFittedError("WaveformModel.fit has not been called")
        return self._scaler.transform(features)

    def fit(
        self,
        positives: np.ndarray,
        negatives: Union[np.ndarray, SharedNegativeSet],
    ) -> "WaveformModel":
        """Train on legitimate (``positives``) vs third-party samples.

        ``positives`` has shape ``(n, channels, window)``. ``negatives``
        is either a raw stack of the same shape, on which the extractor
        is fitted together with the positives, or a
        :class:`SharedNegativeSet` of a
        :class:`~repro.core.negatives.NegativeBank`, whose extractor
        (fitted on the negatives alone) and negative features are reused
        verbatim.
        """
        positives = np.asarray(positives, dtype=np.float64)
        shared = negatives if isinstance(negatives, SharedNegativeSet) else None
        neg = (
            shared.features
            if shared is not None
            else np.asarray(negatives, dtype=np.float64)
        )
        if positives.ndim != 3 or (shared is None and neg.ndim != 3):
            raise EnrollmentError(
                "expected 3-D (n, channels, window) training arrays, got "
                f"{positives.shape} and {neg.shape}"
            )
        n_pos, n_neg = positives.shape[0], neg.shape[0]
        if n_pos == 0 or n_neg == 0:
            raise EnrollmentError("both classes need at least one sample")
        if shared is not None:
            if (
                shared.feature_method != self.feature_method
                or self.feature_method not in SHAREABLE_FEATURE_METHODS
            ):
                raise EnrollmentError(
                    f"negatives featurized with {shared.feature_method!r} "
                    f"cannot train a {self.feature_method!r} model"
                )
            self._rocket = shared.extractor
            features = np.concatenate([self._extract(positives), neg], axis=0)
        else:
            x = np.concatenate([positives, neg], axis=0)
            if self.feature_method == "rocket":
                self._rocket = MiniRocket(
                    num_features=self.num_features, seed=self.seed
                )
                self._rocket.fit(x)
            elif self.feature_method == "manual":
                # Stride 2 halves the DTW cost while keeping the
                # manual baseline one to two orders of magnitude
                # slower than the ROCKET path (Table I's comparison).
                self._manual = ManualFeatureExtractor(dtw_stride=2)
                self._manual.fit(positives)
            features = self._extract(x)
        if self.feature_method != "raw":
            self._scaler = StandardScaler().fit(features)
            features = self._scaler.transform(features)
        y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
        if self.balanced:
            n = n_pos + n_neg
            weights = np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
            try:
                self._classifier.fit(features, y, sample_weight=weights)
            except TypeError:
                # Classifier without weight support: fall back silently;
                # balance is an optimization, not a correctness need.
                self._classifier.fit(features, y)
        else:
            self._classifier.fit(features, y)
        self._fitted = True
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Signed scores for waveforms of shape ``(n, channels, window)``
        or a single ``(channels, window)`` waveform."""
        if not self._fitted:
            raise NotFittedError("WaveformModel.fit has not been called")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[np.newaxis]
        features = self._featurize(x)
        return np.asarray(self._classifier.decision_function(features))

    def accepts(self, waveform: np.ndarray) -> bool:
        """Accept/reject a single waveform (Eq. 9)."""
        return bool(self.decision_function(waveform)[0] > 0.0)


@dataclass
class EnrolledModels:
    """The trained models of one enrolled user.

    Attributes:
        full_model: one-handed full-waveform classifier.
        fused_model: privacy-boost classifier, if enabled.
        key_models: per-key single-waveform classifiers.
        options: the enrollment options used.
        config: the pipeline configuration used.
    """

    full_model: Optional[WaveformModel]
    fused_model: Optional[WaveformModel]
    key_models: Dict[str, WaveformModel]
    options: EnrollmentOptions
    config: PipelineConfig
    keys_enrolled: Tuple[str, ...] = field(default_factory=tuple)


def _collect_segments(
    preprocessed: Sequence[PreprocessedTrial], config: PipelineConfig
) -> Dict[str, List[np.ndarray]]:
    """Group detected single-keystroke waveforms by key."""
    by_key: Dict[str, List[np.ndarray]] = {}
    for pre in preprocessed:
        for segment in extract_segments(pre, config):
            by_key.setdefault(segment.key, []).append(segment.samples)
    return by_key
