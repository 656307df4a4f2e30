"""Shared third-party negatives: preprocess and featurize the store once.

Enrolling many users against the same third-party store repeats none of
the store-side preprocessing or feature extraction when the negatives
are packaged as a :class:`NegativeBank` — the extractors are fitted on
the negatives alone (``SHAREABLE_FEATURE_METHODS``), so the bank is
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
    _collect_segments,
    extract_full_waveform,
    extract_fused_waveform,
)
from .pipeline import PreprocessedTrial, preprocess_trials

#: Minimum same-key third-party segments before a per-key model uses
#: them instead of falling back to the whole store.
MIN_SAME_KEY_NEGATIVES = 10


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


@dataclass(frozen=True)
class NegativeBank:
    """Third-party negatives preprocessed and featurized once.

    Built by :func:`build_negative_bank` from a third-party store and
    passed to :func:`~repro.core.enroll.enroll_models` (via
    ``shared_negatives=``) so that enrolling many users against the
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
            ``key_sets`` (mirrors the unshared fallback rule).
        config: pipeline configuration the store was preprocessed with.
        options: enrollment options the bank was featurized under.
    """

    full: SharedNegativeSet
    fused: Optional[SharedNegativeSet]
    key_sets: Dict[str, SharedNegativeSet]
    key_fallback: Optional[SharedNegativeSet]
    config: PipelineConfig
    options: EnrollmentOptions


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
    """Preprocess and featurize a third-party store once.

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

    full_neg = [
        extract_full_waveform(p, options.full_window, options.full_margin)
        for p in preprocessed
    ]
    full = _fit_shared_set(np.stack(full_neg), options)

    fused: Optional[SharedNegativeSet] = None
    if options.privacy_boost:
        fused_neg = [
            extract_fused_waveform(p, config)
            for p in preprocessed
            if p.detected_count > 0
        ]
        if fused_neg:
            fused = _fit_shared_set(np.stack(fused_neg), options)

    by_key = _collect_segments(preprocessed, config)
    all_segments = [s for segs in by_key.values() for s in segs]
    key_sets = {
        key: _fit_shared_set(np.stack(segs), options)
        for key, segs in by_key.items()
        if len(segs) >= MIN_SAME_KEY_NEGATIVES
    }
    key_fallback = (
        _fit_shared_set(np.stack(all_segments), options)
        if all_segments
        else None
    )

    return NegativeBank(
        full=full,
        fused=fused,
        key_sets=key_sets,
        key_fallback=key_fallback,
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
