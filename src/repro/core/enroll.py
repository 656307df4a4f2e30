"""Enrollment orchestration: quality gates and the model-training loop.

Turns a handful of legitimate PIN entries plus the third-party sample
store into the binary classifiers of Section IV-B.2: a *full waveform*
model for one-handed entries, an optional *fused waveform* model when
the privacy boost is enabled (Eq. 4), and one *single waveform* model
per key for the two-handed and NO-PIN cases.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..config import PipelineConfig
from ..errors import EnrollmentError
from ..signal.quality import assess_recording
from ..types import PinEntryTrial
from .models import (
    EnrolledModels,
    EnrollmentOptions,
    WaveformModel,
    _collect_segments,
    extract_full_waveform,
    extract_fused_waveform,
)
from .negatives import MIN_SAME_KEY_NEGATIVES, NegativeBank, _check_bank
from .pipeline import PreprocessedTrial, preprocess_trials


def check_enrollment_quality(
    trials: Sequence[PinEntryTrial],
    config: PipelineConfig,
    options: EnrollmentOptions,
) -> None:
    """The enrollment quality gate: refuse to train on garbage.

    The quality module has always warned that training on unusable
    recordings is worse than rejecting them; this enforces it. Every
    legitimate enrollment trial must pass
    :func:`~repro.signal.quality.assess_recording` against its own
    keystroke events.

    Raises:
        EnrollmentError: naming the first failing trial and why.
    """
    if not options.quality_gate:
        return
    for index, trial in enumerate(trials):
        if not bool(np.all(np.isfinite(trial.recording.samples))):
            # Enrollment is supervised: missing samples mean re-record,
            # never repair-and-train (repaired signal would teach the
            # model the interpolator, not the user).
            raise EnrollmentError(
                f"enrollment trial {index} contains non-finite samples; "
                "re-prompt the user instead of training on this entry"
            )
        report = assess_recording(
            trial.recording,
            trial.events,
            config,
            min_artifact_ratio=options.min_quality_artifact_ratio,
        )
        if not report.ok:
            ratio = (
                f"{report.artifact_ratio:.2f}"
                if report.artifact_ratio is not None
                else "n/a"
            )
            raise EnrollmentError(
                f"enrollment trial {index} failed the quality gate: "
                f"{report.usable_channels} usable channel(s), keystroke "
                f"artifact ratio {ratio} (need >= "
                f"{options.min_quality_artifact_ratio:.2f}); re-prompt the "
                "user instead of training on this entry"
            )


def _usable(p: PreprocessedTrial) -> bool:
    """Whether an entry qualifies for whole-entry models: (nearly) all
    of its keystrokes were detected (one miss tolerated, so enrollment
    stays possible at the low sampling rates of Fig. 16/17)."""
    return p.detected_count >= max(2, len(p.trial.pin) - 1)


def enroll_models(
    legit_trials: Sequence[PinEntryTrial],
    third_party_trials: Sequence[PinEntryTrial],
    config: Optional[PipelineConfig] = None,
    options: Optional[EnrollmentOptions] = None,
    shared_negatives: Optional[NegativeBank] = None,
) -> EnrolledModels:
    """Run the enrollment phase.

    Args:
        legit_trials: the enrolling user's PIN entries (the paper caps
            usability at 9).
        third_party_trials: samples from the third-party store used as
            negatives (paper default: 100). Ignored when
            ``shared_negatives`` is given.
        config: pipeline constants.
        options: enrollment options.
        shared_negatives: a :class:`~repro.core.negatives.NegativeBank`
            built from the store by
            :func:`~repro.core.negatives.build_negative_bank`; when
            given, the store-side preprocessing and feature extraction
            are skipped entirely and every model trains against the
            bank's pre-featurized negatives (extractors fitted on the
            negatives alone).

    Returns:
        The user's trained models.

    Raises:
        EnrollmentError: when a required model cannot be trained (too
            few usable samples), when an enrollment trial fails the
            quality gate (``options.quality_gate``), or when
            ``shared_negatives`` was built under incompatible settings.
    """
    if config is None:
        config = PipelineConfig()
    if options is None:
        options = EnrollmentOptions()
    if not legit_trials:
        raise EnrollmentError("no legitimate trials supplied")
    if shared_negatives is None and not third_party_trials:
        raise EnrollmentError("no third-party trials supplied")
    if shared_negatives is not None:
        _check_bank(shared_negatives, config, options)
    check_enrollment_quality(legit_trials, config, options)

    legit_pre = preprocess_trials(list(legit_trials), config)
    if shared_negatives is not None:
        return _enroll_shared(legit_pre, shared_negatives, config, options)
    third_pre = preprocess_trials(list(third_party_trials), config)

    def model(balanced: bool = False) -> WaveformModel:
        return WaveformModel(
            feature_method=options.feature_method,
            num_features=options.num_features,
            classifier_factory=options.classifier_factory,
            seed=options.seed,
            balanced=balanced,
        )

    # Full-waveform model: trained on legitimate one-handed entries,
    # vs third-party entries. An entry qualifies when (nearly) all of
    # its keystrokes were detected; tolerating one miss keeps
    # enrollment possible at low sampling rates, where the energy
    # detector occasionally drops a keystroke (Fig. 16/17 regimes).
    full_pos = [
        extract_full_waveform(p, options.full_window, options.full_margin)
        for p in legit_pre
        if _usable(p)
    ]
    full_neg = [
        extract_full_waveform(p, options.full_window, options.full_margin)
        for p in third_pre
    ]
    full_model = None
    if len(full_pos) >= options.min_positive_samples:
        full_model = model().fit(np.stack(full_pos), np.stack(full_neg))

    fused_model = None
    if options.privacy_boost:
        fused_pos = [
            extract_fused_waveform(p, config)
            for p in legit_pre
            if _usable(p)
        ]
        fused_neg = [
            extract_fused_waveform(p, config)
            for p in third_pre
            if p.detected_count > 0
        ]
        if len(fused_pos) < options.min_positive_samples:
            raise EnrollmentError(
                "privacy boost requires at least "
                f"{options.min_positive_samples} fully detected entries"
            )
        fused_model = model().fit(np.stack(fused_pos), np.stack(fused_neg))

    # Single-waveform models: one binary classifier per enrolled key.
    legit_by_key = _collect_segments(legit_pre, config)
    third_by_key = _collect_segments(third_pre, config)
    third_all = [s for segs in third_by_key.values() for s in segs]

    key_models: Dict[str, WaveformModel] = {}
    for key, positives in legit_by_key.items():
        if len(positives) < options.min_positive_samples:
            continue
        negatives = list(third_by_key.get(key, []))
        if len(negatives) < MIN_SAME_KEY_NEGATIVES:
            # Too few same-key third-party samples: fall back to the
            # whole store so the classifier still sees other people.
            negatives = third_all
        # Deliberately NOT negatives: the user's own other keys.
        # Intra-user key discrimination is much harder than inter-user
        # discrimination and dragging those samples into the negative
        # class collapses the margin around the legitimate keystrokes.
        # Security in every mode (including NO-PIN) rests on *user*
        # specificity, which third-party negatives capture.
        if not negatives:
            continue
        # Single-keystroke models are trained class-balanced: a 90-sample
        # waveform carries far less evidence than a full entry, and the
        # ~10:1 negative imbalance would otherwise push the boundary
        # into the legitimate class (every watch-hand keystroke would
        # score near zero and two-handed integration would fail).
        key_models[key] = model(balanced=True).fit(
            np.stack(positives), np.stack(negatives)
        )

    if full_model is None and fused_model is None and not key_models:
        raise EnrollmentError(
            "no model could be trained: too few usable enrollment samples"
        )

    return EnrolledModels(
        full_model=full_model,
        fused_model=fused_model,
        key_models=key_models,
        options=options,
        config=config,
        keys_enrolled=tuple(sorted(key_models)),
    )


def _enroll_shared(
    legit_pre: Sequence[PreprocessedTrial],
    bank: NegativeBank,
    config: PipelineConfig,
    options: EnrollmentOptions,
) -> EnrolledModels:
    """The :func:`enroll_models` flow against a pre-built negative bank.

    Mirrors the unshared path model for model — same positive
    extraction, same usability and minimum-sample rules, same per-key
    fallback behavior — but every ``fit`` is a :meth:`WaveformModel.
    fit_shared` against the bank's pre-featurized negatives.
    """

    def model(balanced: bool = False) -> WaveformModel:
        return WaveformModel(
            feature_method=options.feature_method,
            num_features=options.num_features,
            classifier_factory=options.classifier_factory,
            seed=options.seed,
            balanced=balanced,
        )

    full_pos = [
        extract_full_waveform(p, options.full_window, options.full_margin)
        for p in legit_pre
        if _usable(p)
    ]
    full_model = None
    if len(full_pos) >= options.min_positive_samples:
        full_model = model().fit_shared(np.stack(full_pos), bank.full)

    fused_model = None
    if options.privacy_boost:
        if bank.fused is None:
            raise EnrollmentError(
                "privacy boost requested but the shared negative bank was "
                "built without fused negatives"
            )
        fused_pos = [
            extract_fused_waveform(p, config) for p in legit_pre if _usable(p)
        ]
        if len(fused_pos) < options.min_positive_samples:
            raise EnrollmentError(
                "privacy boost requires at least "
                f"{options.min_positive_samples} fully detected entries"
            )
        fused_model = model().fit_shared(np.stack(fused_pos), bank.fused)

    legit_by_key = _collect_segments(legit_pre, config)
    key_models: Dict[str, WaveformModel] = {}
    for key, positives in legit_by_key.items():
        if len(positives) < options.min_positive_samples:
            continue
        shared = bank.key_sets.get(key, bank.key_fallback)
        if shared is None:
            continue
        key_models[key] = model(balanced=True).fit_shared(
            np.stack(positives), shared
        )

    if full_model is None and fused_model is None and not key_models:
        raise EnrollmentError(
            "no model could be trained: too few usable enrollment samples"
        )

    return EnrolledModels(
        full_model=full_model,
        fused_model=fused_model,
        key_models=key_models,
        options=options,
        config=config,
        keys_enrolled=tuple(sorted(key_models)),
    )
