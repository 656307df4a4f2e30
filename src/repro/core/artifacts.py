"""Typed artifacts of the Fig. 4 sequence, and the decision they end in.

The staged engine (:mod:`repro.core.stages`) passes these between its
stages: :class:`Segments` (the routed probe), :class:`FeatureBlock`
(one classifier input) and :class:`Scores` (the classifier verdicts).
It returns an :class:`AuthDecision`. :func:`_integrate` (the Section
IV-B.3 results integration rule) lives with :class:`AuthDecision`
because it is part of the decision contract, not of any one stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..types import InputCase, SegmentedKeystroke
from .degradation import DegradationEvent

if TYPE_CHECKING:
    from .models import WaveformModel


@dataclass(frozen=True)
class Segments:
    """A probe routed by input case, with its waveforms cut out.

    ``route`` selects the downstream model family:

    - ``"reject"`` — fewer than two keystrokes detected;
    - ``"keystrokes"`` — per-key single-waveform models
      (two-handed cases and NO-PIN mode);
    - ``"full"`` / ``"fused"`` — the one-handed whole-entry model
      (``waveform`` holds the extracted window, ``label`` the wording
      used in the decision reason).
    """

    case: InputCase
    route: str
    detected: int
    segments: Tuple[SegmentedKeystroke, ...] = field(default_factory=tuple)
    waveform: Optional[np.ndarray] = None
    label: str = ""


@dataclass(frozen=True)
class FeatureBlock:
    """Featurized input for one classifier call.

    ``model`` is ``None`` for a keystroke on a key that was never
    enrolled — it scores ``-inf`` downstream (a failed check, never a
    free pass).
    """

    key: Optional[str]
    model: Optional[WaveformModel]
    features: Optional[np.ndarray]


@dataclass(frozen=True)
class Scores:
    """Classifier verdicts, one per :class:`FeatureBlock`, in order.

    ``keys`` names the keystroke blocks; a whole-entry block has none.
    """

    keys: Tuple[str, ...]
    scores: Tuple[float, ...]
    passes: Tuple[bool, ...]


@dataclass(frozen=True)
class AuthDecision:
    """Outcome of one authentication attempt.

    Attributes:
        accepted: the final verdict.
        reason: short human-readable explanation.
        input_case: the identified input case (None if PIN failed
            before signal analysis).
        pin_ok: result of PIN verification (None in NO-PIN mode).
        scores: classifier scores that contributed to the verdict.
        keys_checked: keys whose single-waveform models ran.
        passes: per-key pass flags aligned with ``keys_checked``.
        degradation: rungs of the degradation ladder taken before the
            decision (empty when no policy ran or nothing was wrong).
    """

    accepted: bool
    reason: str
    input_case: Optional[InputCase] = None
    pin_ok: Optional[bool] = None
    scores: Tuple[float, ...] = field(default_factory=tuple)
    keys_checked: Tuple[str, ...] = field(default_factory=tuple)
    passes: Tuple[bool, ...] = field(default_factory=tuple)
    degradation: Tuple[DegradationEvent, ...] = field(default_factory=tuple)


def _integrate(passes: Tuple[bool, ...]) -> bool:
    """Results integration rule of Section IV-B.3.

    3 keystrokes: pass if >= 2 legal. 2 keystrokes: all must be legal.
    4+ keystrokes (NO-PIN one-handed entry): at most one may fail.
    A single keystroke never authenticates.
    """
    n = len(passes)
    hits = sum(passes)
    if n <= 1:
        return False
    if n == 2:
        return hits == 2
    if n == 3:
        return hits >= 2
    return hits >= n - 1


