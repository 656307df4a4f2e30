"""Third-party negatives: which ones each model trains against.

:func:`select_negatives` is the one rule for cutting each model slot's
negatives out of a preprocessed third-party store. Enrollment trains on
those stacks raw, or on a :class:`NegativeBank` that
:func:`build_negative_bank` featurizes from them once, so that enrolling
many users against the same store repeats none of the store-side
preprocessing or feature extraction. A bank's extractors are fitted on
the negatives alone (``SHAREABLE_FEATURE_METHODS``), so it is
independent of any particular enrolling user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..config import PipelineConfig
from ..errors import EnrollmentError
from ..features import MiniRocket
from ..types import PinEntryTrial
from .models import (
    EnrollmentOptions,
    SharedNegativeSet,
    _collect_segments,
    extract_full_waveform,
    extract_fused_waveform,
)
from .pipeline import PreprocessedTrial, preprocess_trials

#: Minimum same-key third-party segments before a per-key model uses
#: them instead of falling back to the whole store.
MIN_SAME_KEY_NEGATIVES = 10


@dataclass(frozen=True)
class NegativeStacks:
    """Each model slot's raw negatives, as :func:`select_negatives`
    cuts them: ``(n, channels, window)`` stacks in the slots of
    :class:`NegativeBank`."""

    full: np.ndarray
    fused: Optional[np.ndarray]
    key_sets: Dict[str, np.ndarray]
    key_fallback: Optional[np.ndarray]


@dataclass(frozen=True)
class NegativeBank:
    """Third-party negatives preprocessed and featurized once.

    Built by :func:`build_negative_bank` from a third-party store and
    passed as the negatives of
    :func:`~repro.core.enroll.enroll_models` (or ``P2Auth.enroll``,
    ``ModelRegistry.enroll``) so that enrolling many users against the
    same store repeats none of the store-side preprocessing or feature
    extraction. The extractors are fitted on the negatives alone, so
    the bank is independent of any particular enrolling user.

    Attributes:
        full: negatives for the full-waveform model.
        fused: negatives for the privacy-boost fused model (``None``
            when the bank was built without privacy boost or no store
            trial had a detected keystroke).
        key_sets: per-key negatives, only for keys with at least
            ``MIN_SAME_KEY_NEGATIVES`` same-key segments in the store.
        key_fallback: all store segments pooled — used for keys not in
            ``key_sets``.
        config: pipeline configuration the store was preprocessed with.
        options: enrollment options the bank was featurized under.
    """

    full: SharedNegativeSet
    fused: Optional[SharedNegativeSet]
    key_sets: Dict[str, SharedNegativeSet]
    key_fallback: Optional[SharedNegativeSet]
    config: PipelineConfig
    options: EnrollmentOptions


def select_negatives(
    preprocessed: Sequence[PreprocessedTrial],
    config: PipelineConfig,
    options: EnrollmentOptions,
) -> NegativeStacks:
    """Cut each model slot's negatives out of a preprocessed store.

    - full: every trial's full window;
    - fused (privacy boost only): the fused waveform of each trial with
      a detected keystroke, ``None`` when no trial has one;
    - each key: its same-key segments when the store holds at least
      :data:`MIN_SAME_KEY_NEGATIVES` of them; any other key falls back
      to every segment pooled (``None`` when there is none), so its
      classifier still sees other people.
    """
    full = np.stack(
        [
            extract_full_waveform(p, options.full_window, options.full_margin)
            for p in preprocessed
        ]
    )
    fused = None
    if options.privacy_boost:
        fused_neg = [
            extract_fused_waveform(p, config)
            for p in preprocessed
            if p.detected_count > 0
        ]
        if fused_neg:
            fused = np.stack(fused_neg)
    by_key = _collect_segments(preprocessed, config)
    pooled = [s for segs in by_key.values() for s in segs]
    return NegativeStacks(
        full=full,
        fused=fused,
        key_sets={
            key: np.stack(segs)
            for key, segs in by_key.items()
            if len(segs) >= MIN_SAME_KEY_NEGATIVES
        },
        key_fallback=np.stack(pooled) if pooled else None,
    )


def _fit_shared_set(
    stack: np.ndarray, options: EnrollmentOptions
) -> SharedNegativeSet:
    """Fit an extractor on a negative stack and featurize it."""
    if options.feature_method == "rocket":
        rocket = MiniRocket(
            num_features=options.num_features, seed=options.seed
        )
        rocket.fit(stack)
        return SharedNegativeSet(
            feature_method="rocket",
            extractor=rocket,
            features=rocket.transform(stack),
        )
    if options.feature_method == "raw":
        return SharedNegativeSet(
            feature_method="raw", extractor=None, features=stack
        )
    raise EnrollmentError(
        f"feature method {options.feature_method!r} cannot share negatives: "
        f"its extractor is fitted on the positive class"
    )


def build_negative_bank(
    third_party_trials: Sequence[PinEntryTrial],
    config: Optional[PipelineConfig] = None,
    options: Optional[EnrollmentOptions] = None,
    preprocessed: Optional[Sequence[PreprocessedTrial]] = None,
) -> NegativeBank:
    """Preprocess a third-party store and featurize each slot's
    :func:`select_negatives` stack once.

    Args:
        third_party_trials: the store's trials.
        config: pipeline constants.
        options: enrollment options; ``feature_method`` must be one of
            ``SHAREABLE_FEATURE_METHODS``.
        preprocessed: already-preprocessed store trials (e.g. from the
            evaluation feature cache); skips the preprocessing pass.

    Returns:
        The reusable negative bank.
    """
    if config is None:
        config = PipelineConfig()
    if options is None:
        options = EnrollmentOptions()
    if preprocessed is None:
        if not third_party_trials:
            raise EnrollmentError("no third-party trials supplied")
        preprocessed = preprocess_trials(list(third_party_trials), config)
    elif not preprocessed:
        raise EnrollmentError("no preprocessed third-party trials supplied")

    stacks = select_negatives(preprocessed, config, options)

    def share(stack: Optional[np.ndarray]) -> Optional[SharedNegativeSet]:
        return None if stack is None else _fit_shared_set(stack, options)

    return NegativeBank(
        full=_fit_shared_set(stacks.full, options),
        fused=share(stacks.fused),
        key_sets={
            key: _fit_shared_set(stack, options)
            for key, stack in stacks.key_sets.items()
        },
        key_fallback=share(stacks.key_fallback),
        config=config,
        options=options,
    )


def _check_bank(
    bank: NegativeBank, config: PipelineConfig, options: EnrollmentOptions
) -> None:
    """Reject a bank built under incompatible settings."""
    if bank.config != config:
        raise EnrollmentError(
            "shared negative bank was built with a different pipeline config"
        )
    relevant = (
        "feature_method",
        "num_features",
        "seed",
        "full_window",
        "full_margin",
    )
    for name in relevant:
        if getattr(bank.options, name) != getattr(options, name):
            raise EnrollmentError(
                f"shared negative bank was built with {name}="
                f"{getattr(bank.options, name)!r} but enrollment uses "
                f"{getattr(options, name)!r}"
            )
