"""Enrollment orchestration: quality gates and the model-training loop.

Turns a handful of legitimate PIN entries plus the third-party sample
store into the binary classifiers of Section IV-B.2: a *full waveform*
model for one-handed entries, an optional *fused waveform* model when
the privacy boost is enabled (Eq. 4), and one *single waveform* model
per key for the two-handed and NO-PIN cases.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

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
from .negatives import (
    NegativeBank,
    NegativeStacks,
    _check_bank,
    select_negatives,
)
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
    negatives: Union[Sequence[PinEntryTrial], NegativeBank],
    config: Optional[PipelineConfig] = None,
    options: Optional[EnrollmentOptions] = None,
) -> EnrolledModels:
    """Run the enrollment phase.

    Args:
        legit_trials: the enrolling user's PIN entries (the paper caps
            usability at 9).
        negatives: the third-party store (paper default: 100 samples).
            Either its raw trials, preprocessed here and cut into each
            model's negatives by
            :func:`~repro.core.negatives.select_negatives`, every
            extractor then fitted on positives and negatives together;
            or a :class:`~repro.core.negatives.NegativeBank` built from
            the store by :func:`~repro.core.negatives.build_negative_bank`,
            whose pre-featurized negatives and extractors (fitted on
            the negatives alone) every model reuses.
        config: pipeline constants.
        options: enrollment options.

    Returns:
        The user's trained models.

    Raises:
        EnrollmentError: when a required model cannot be trained (too
            few usable samples, or privacy boost with no fused
            negative), when an enrollment trial fails the quality gate
            (``options.quality_gate``), or when a bank was built under
            incompatible settings.
    """
    if config is None:
        config = PipelineConfig()
    if options is None:
        options = EnrollmentOptions()
    if not legit_trials:
        raise EnrollmentError("no legitimate trials supplied")
    if isinstance(negatives, NegativeBank):
        _check_bank(negatives, config, options)
    elif not negatives:
        raise EnrollmentError("no third-party trials supplied")
    check_enrollment_quality(legit_trials, config, options)

    legit_pre = preprocess_trials(list(legit_trials), config)
    slots: Union[NegativeStacks, NegativeBank] = (
        negatives
        if isinstance(negatives, NegativeBank)
        else select_negatives(
            preprocess_trials(list(negatives), config), config, options
        )
    )

    def model(balanced: bool = False) -> WaveformModel:
        return WaveformModel(
            feature_method=options.feature_method,
            num_features=options.num_features,
            classifier_factory=options.classifier_factory,
            seed=options.seed,
            balanced=balanced,
        )

    # Whole-entry models train on the entries whose keystrokes were
    # (nearly) all detected; tolerating one miss keeps enrollment
    # possible at low sampling rates, where the energy detector
    # occasionally drops a keystroke (Fig. 16/17 regimes).
    usable = [p for p in legit_pre if _usable(p)]
    full_pos = [
        extract_full_waveform(p, options.full_window, options.full_margin)
        for p in usable
    ]
    full_model = None
    if len(full_pos) >= options.min_positive_samples:
        full_model = model().fit(np.stack(full_pos), slots.full)

    fused_model = None
    if options.privacy_boost:
        if slots.fused is None:
            raise EnrollmentError(
                "privacy boost needs fused negatives: no third-party trial "
                "has a detected keystroke, or the bank was built without "
                "privacy boost"
            )
        fused_pos = [extract_fused_waveform(p, config) for p in usable]
        if len(fused_pos) < options.min_positive_samples:
            raise EnrollmentError(
                "privacy boost requires at least "
                f"{options.min_positive_samples} fully detected entries"
            )
        fused_model = model().fit(np.stack(fused_pos), slots.fused)

    # Single-waveform models: one binary classifier per enrolled key.
    key_models: Dict[str, WaveformModel] = {}
    for key, positives in _collect_segments(legit_pre, config).items():
        if len(positives) < options.min_positive_samples:
            continue
        # Deliberately NOT negatives: the user's own other keys.
        # Intra-user key discrimination is much harder than inter-user
        # discrimination and dragging those samples into the negative
        # class collapses the margin around the legitimate keystrokes.
        # Security in every mode (including NO-PIN) rests on *user*
        # specificity, which third-party negatives capture.
        key_negatives = slots.key_sets.get(key, slots.key_fallback)
        if key_negatives is None:
            continue
        # Single-keystroke models are trained class-balanced: a 90-sample
        # waveform carries far less evidence than a full entry, and the
        # ~10:1 negative imbalance would otherwise push the boundary
        # into the legitimate class (every watch-hand keystroke would
        # score near zero and two-handed integration would fail).
        key_models[key] = model(balanced=True).fit(
            np.stack(positives), key_negatives
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
