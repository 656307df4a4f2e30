"""The authentication engine: the Fig. 4 sequence as six stages.

One probe goes through six stages; each stage's ``run`` maps one value
to the next::

    trial ──repair──► (trial, degradation) ──preprocess──► PreprocessedTrial
          ──segment──► Segments ──featurize──► (FeatureBlock, ...)
          ──classify──► Scores ──decide──► AuthDecision

:class:`AuthPipeline` composes the six. It is the one engine that
serves decisions:
:meth:`P2Auth.authenticate <repro.core.authenticator.P2Auth.authenticate>`
runs it, and through it the registry, session manager, streaming
front-end, evaluation harness and HTTP service. perfbench's traced
launcher (``perfbench/benchlib/traced_serve.py``) wraps each stage's
``run`` to time its per-stage layers.

Each stage wraps the pre-existing functions (``apply_policy``,
``preprocess_trial``, segmentation/fusion, ``WaveformModel._featurize``,
score integration) without reimplementing them, which is what keeps the
engine bit-identical to the historical monolithic one (asserted by
``tests/test_stage_parity.py``). Stages keep no per-call state, so one
pipeline serves concurrent calls.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import PipelineConfig
from ..errors import AuthenticationError, NotFittedError
from ..types import InputCase, PinEntryTrial
from .artifacts import AuthDecision, FeatureBlock, Scores, Segments, _integrate
from .degradation import DegradationEvent, DegradationPolicy, apply_policy
from .input_case import identify_input_case
from .models import (
    EnrolledModels,
    WaveformModel,
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
)
from .pipeline import PreprocessedTrial, preprocess_trial

# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class RepairStage:
    """``trial → (trial, degradation)``: the graceful-degradation ladder.

    With no policy configured the trial passes through untouched and
    the degradation is empty — the pre-policy behaviour.
    """

    def __init__(
        self, config: PipelineConfig, policy: Optional[DegradationPolicy]
    ) -> None:
        self._config = config
        self._policy = policy

    def run(
        self, trial: PinEntryTrial
    ) -> Tuple[PinEntryTrial, Tuple[DegradationEvent, ...]]:
        if self._policy is None:
            return trial, ()
        return apply_policy(trial, self._config, self._policy)


class PreprocessStage:
    """``trial → PreprocessedTrial``: the Section IV-A pipeline."""

    def __init__(self, config: PipelineConfig) -> None:
        self._config = config

    def run(self, trial: PinEntryTrial) -> PreprocessedTrial:
        return preprocess_trial(trial, self._config)


class SegmentStage:
    """``PreprocessedTrial → Segments``: input-case routing + waveform cuts.

    The model-presence checks run here, before any waveform is
    extracted, preserving the historical exception order: a one-handed
    probe against a user with no full (or fused) model raises without
    touching the signal.
    """

    def __init__(self, models: EnrolledModels, no_pin_mode: bool) -> None:
        self._models = models
        self._no_pin_mode = no_pin_mode

    def run(self, trial: PreprocessedTrial) -> Segments:
        models = self._models
        case = identify_input_case(trial)
        detected = trial.detected_count
        if case is InputCase.REJECT:
            return Segments(case=case, route="reject", detected=detected)
        if self._no_pin_mode or case is not InputCase.ONE_HANDED:
            return Segments(
                case=case,
                route="keystrokes",
                detected=detected,
                segments=tuple(extract_segments(trial, models.config)),
            )
        options = models.options
        if options.privacy_boost:
            if models.fused_model is None:
                raise AuthenticationError(
                    "privacy boost enabled but no fused model"
                )
            waveform = extract_fused_waveform(trial, models.config)
            route, label = "fused", "fused waveform"
        else:
            if models.full_model is None:
                raise AuthenticationError("no full-waveform model enrolled")
            waveform = extract_full_waveform(
                trial, options.full_window, options.full_margin
            )
            route, label = "full", "full waveform"
        return Segments(
            case=case,
            route=route,
            detected=detected,
            waveform=waveform,
            label=label,
        )


def _featurize_one(model: WaveformModel, x: np.ndarray) -> np.ndarray:
    """The pre-classifier half of ``WaveformModel.decision_function``."""
    if not model._fitted:
        raise NotFittedError("WaveformModel.fit has not been called")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[np.newaxis]
    return model._featurize(x)


class FeaturizeStage:
    """``Segments → (FeatureBlock, ...)``: each model's feature extractor."""

    def __init__(self, models: EnrolledModels) -> None:
        self._models = models

    def run(self, segments: Segments) -> Tuple[FeatureBlock, ...]:
        models = self._models
        if segments.route == "reject":
            return ()
        if segments.route == "keystrokes":
            blocks: List[FeatureBlock] = []
            for segment in segments.segments:
                model = models.key_models.get(segment.key)
                features = (
                    None
                    if model is None
                    else _featurize_one(model, segment.samples)
                )
                blocks.append(FeatureBlock(segment.key, model, features))
            return tuple(blocks)
        model = (
            models.fused_model
            if segments.route == "fused"
            else models.full_model
        )
        assert model is not None and segments.waveform is not None
        return (FeatureBlock(None, model, _featurize_one(model, segments.waveform)),)


class ClassifyStage:
    """``(FeatureBlock, ...) → Scores``: classifier calls + verdicts."""

    def run(self, blocks: Tuple[FeatureBlock, ...]) -> Scores:
        keys: List[str] = []
        scores: List[float] = []
        passes: List[bool] = []
        for block in blocks:
            if block.key is not None:
                keys.append(block.key)
            if block.model is None or block.features is None:
                # A keystroke on a key never enrolled cannot be
                # verified — it counts as a failed check, never as a
                # free pass.
                scores.append(float("-inf"))
                passes.append(False)
                continue
            score = float(
                np.asarray(
                    block.model._classifier.decision_function(block.features)
                )[0]
            )
            scores.append(score)
            passes.append(score > 0.0)
        return Scores(keys=tuple(keys), scores=tuple(scores), passes=tuple(passes))


class DecideStage:
    """``Segments + Scores → AuthDecision``: results integration
    (Section IV-B.3)."""

    def run(
        self,
        segments: Segments,
        scores: Scores,
        pin_ok: Optional[bool],
        degradation: Tuple[DegradationEvent, ...],
    ) -> AuthDecision:
        case = segments.case
        if segments.route == "reject":
            return AuthDecision(
                accepted=False,
                reason=(
                    f"only {segments.detected} keystroke(s) detected; "
                    "at least two are required"
                ),
                input_case=case,
                pin_ok=pin_ok,
                degradation=degradation,
            )
        if segments.route == "keystrokes":
            passes = scores.passes
            return AuthDecision(
                accepted=_integrate(passes),
                reason=(
                    f"{sum(passes)}/{len(passes)} keystroke "
                    f"waveforms legal ({case.value})"
                ),
                input_case=case,
                pin_ok=pin_ok,
                scores=scores.scores,
                keys_checked=scores.keys,
                passes=passes,
                degradation=degradation,
            )
        score = scores.scores[0]
        accepted = score > 0.0
        return AuthDecision(
            accepted=accepted,
            reason=(
                f"{segments.label} score {score:+.3f} "
                f"({'legal' if accepted else 'illegal'})"
            ),
            input_case=case,
            pin_ok=pin_ok,
            scores=(score,),
            degradation=degradation,
        )


# ---------------------------------------------------------------------------
# The composed pipeline
# ---------------------------------------------------------------------------


class AuthPipeline:
    """The six stages composed into the authentication engine.

    Args:
        models: the enrolled user's models.
        config: pipeline constants for repair + preprocessing; defaults
            to ``models.config`` (they differ only if an authenticator
            was constructed with a different config than it enrolled
            with, in which case the façade's config wins — the
            historical behaviour).
        policy: graceful-degradation policy (``None`` disables it).
        no_pin_mode: authenticate by keystroke pattern alone.
    """

    def __init__(
        self,
        models: EnrolledModels,
        config: Optional[PipelineConfig] = None,
        policy: Optional[DegradationPolicy] = None,
        no_pin_mode: bool = False,
    ) -> None:
        if config is None:
            config = models.config
        self.models = models
        self.no_pin_mode = no_pin_mode
        self.repair = RepairStage(config, policy)
        self.preprocess = PreprocessStage(config)
        self.segment = SegmentStage(models, no_pin_mode)
        self.featurize = FeaturizeStage(models)
        self.classify = ClassifyStage()
        self.decide = DecideStage()

    def run(self, trial: PinEntryTrial, pin_ok: Optional[bool]) -> AuthDecision:
        """Authenticate one raw probe trial.

        A wrong-PIN probe short-circuits before any signal processing —
        it never reaches the repair ladder, so a damaged recording with
        a wrong PIN is rejected for the PIN, not refused for quality.

        Args:
            trial: the probe trial.
            pin_ok: the PIN verdict (``None`` only in NO-PIN mode).
        """
        if not self.no_pin_mode:
            if pin_ok is None:
                raise AuthenticationError(
                    "pin_ok is required outside NO-PIN mode"
                )
            if not pin_ok:
                return AuthDecision(
                    accepted=False,
                    reason="PIN verification failed",
                    pin_ok=False,
                )
        trial, degradation = self.repair.run(trial)
        segments = self.segment.run(self.preprocess.run(trial))
        scores = self.classify.run(self.featurize.run(segments))
        return self.decide.run(segments, scores, pin_ok, degradation)
