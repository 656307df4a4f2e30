"""The authentication engine: the Fig. 4 sequence as six typed stages.

The authentication sequence, decomposed into typed stages with
explicit artifacts::

    Recording → Repaired → Preprocessed → Segments → Features → Scores
              → AuthDecision

Every stage is a small object satisfying the :class:`Stage` protocol
(``run(items) -> outputs``), and :class:`AuthPipeline` composes the
six. It is the one engine that serves decisions:
:meth:`P2Auth.authenticate <repro.core.authenticator.P2Auth.authenticate>`
runs it, and through it the registry, session manager, streaming
front-end, evaluation harness and HTTP service. perfbench's traced
launcher (``perfbench/benchlib/traced_serve.py``) wraps each stage's
``run`` to time its per-stage layers.

Each stage wraps the pre-existing functions (``apply_policy``,
``preprocess_trials``, segmentation/fusion, ``WaveformModel._featurize``,
score integration) without reimplementing them, which is what keeps the
engine bit-identical to the historical monolithic one (asserted by
``tests/test_stage_parity.py``). Stages keep no per-call state, so one
pipeline serves concurrent calls.
"""

from __future__ import annotations

from typing import (
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    runtime_checkable,
)

import numpy as np

from ..config import PipelineConfig
from ..errors import AuthenticationError, NotFittedError
from ..types import InputCase, PinEntryTrial
from .artifacts import (
    AuthDecision,
    FeatureBlock,
    Features,
    Preprocessed,
    Recording,
    Repaired,
    Scores,
    Segments,
    _integrate,
)
from .degradation import DegradationPolicy, apply_policy
from .input_case import identify_input_case
from .models import (
    EnrolledModels,
    WaveformModel,
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
)
from .pipeline import preprocess_trials

In = TypeVar("In", contravariant=True)
Out = TypeVar("Out", covariant=True)


@runtime_checkable
class Stage(Protocol[In, Out]):
    """One step of the authentication pipeline.

    A stage maps a batch of input artifacts to a batch of output
    artifacts, one output per input, in order; every stage loops over
    its items.
    """

    name: str

    def run(self, items: Sequence[In]) -> List[Out]:
        """Transform a batch of artifacts."""
        ...


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class RepairStage:
    """``Recording → Repaired``: the graceful-degradation ladder."""

    name = "repair"

    def __init__(
        self, config: PipelineConfig, policy: Optional[DegradationPolicy]
    ) -> None:
        self._config = config
        self._policy = policy

    def run(self, items: Sequence[Recording]) -> List[Repaired]:
        if self._policy is None:
            return [
                Repaired(trial=r.trial, pin_ok=r.pin_ok) for r in items
            ]
        out = []
        for r in items:
            trial, events = apply_policy(r.trial, self._config, self._policy)
            out.append(
                Repaired(trial=trial, pin_ok=r.pin_ok, degradation=events)
            )
        return out


class PreprocessStage:
    """``Repaired → Preprocessed``: the Section IV-A pipeline."""

    name = "preprocess"

    def __init__(self, config: PipelineConfig) -> None:
        self._config = config

    def run(self, items: Sequence[Repaired]) -> List[Preprocessed]:
        preprocessed = preprocess_trials(
            [r.trial for r in items], self._config
        )
        return [
            Preprocessed(
                trial=p, pin_ok=r.pin_ok, degradation=r.degradation
            )
            for r, p in zip(items, preprocessed)
        ]


class SegmentStage:
    """``Preprocessed → Segments``: input-case routing + waveform cuts.

    The model-presence checks run here, before any waveform is
    extracted, preserving the historical exception order: a one-handed
    probe against a user with no full (or fused) model raises without
    touching the signal.
    """

    name = "segment"

    def __init__(self, models: EnrolledModels, no_pin_mode: bool) -> None:
        self._models = models
        self._no_pin_mode = no_pin_mode

    def run(self, items: Sequence[Preprocessed]) -> List[Segments]:
        return [self._route(item) for item in items]

    def _route(self, item: Preprocessed) -> Segments:
        models = self._models
        case = identify_input_case(item.trial)
        if case is InputCase.REJECT:
            return Segments(
                case=case,
                route="reject",
                detected=item.trial.detected_count,
                pin_ok=item.pin_ok,
                degradation=item.degradation,
            )
        if self._no_pin_mode or case is not InputCase.ONE_HANDED:
            return Segments(
                case=case,
                route="keystrokes",
                detected=item.trial.detected_count,
                segments=tuple(extract_segments(item.trial, models.config)),
                pin_ok=item.pin_ok,
                degradation=item.degradation,
            )
        options = models.options
        if options.privacy_boost:
            if models.fused_model is None:
                raise AuthenticationError(
                    "privacy boost enabled but no fused model"
                )
            waveform = extract_fused_waveform(item.trial, models.config)
            route, label = "fused", "fused waveform"
        else:
            if models.full_model is None:
                raise AuthenticationError("no full-waveform model enrolled")
            waveform = extract_full_waveform(
                item.trial, options.full_window, options.full_margin
            )
            route, label = "full", "full waveform"
        return Segments(
            case=case,
            route=route,
            detected=item.trial.detected_count,
            waveform=waveform,
            label=label,
            pin_ok=item.pin_ok,
            degradation=item.degradation,
        )


def _featurize_one(model: WaveformModel, x: np.ndarray) -> np.ndarray:
    """The pre-classifier half of ``WaveformModel.decision_function``."""
    if not model._fitted:
        raise NotFittedError("WaveformModel.fit has not been called")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[np.newaxis]
    return model._featurize(x, fit=False)


class FeaturizeStage:
    """``Segments → Features``: run each model's feature extractor."""

    name = "featurize"

    def __init__(self, models: EnrolledModels) -> None:
        self._models = models

    def run(self, items: Sequence[Segments]) -> List[Features]:
        return [self._featurize(item) for item in items]

    def _featurize(self, item: Segments) -> Features:
        models = self._models
        blocks: List[FeatureBlock] = []
        if item.route == "keystrokes":
            for segment in item.segments:
                model = models.key_models.get(segment.key)
                if model is None:
                    blocks.append(FeatureBlock(segment.key, None, None))
                    continue
                blocks.append(
                    FeatureBlock(
                        segment.key,
                        model,
                        _featurize_one(model, segment.samples),
                    )
                )
        elif item.route in ("full", "fused"):
            model = (
                models.fused_model
                if item.route == "fused"
                else models.full_model
            )
            assert model is not None and item.waveform is not None
            blocks.append(
                FeatureBlock(None, model, _featurize_one(model, item.waveform))
            )
        return Features(
            case=item.case,
            route=item.route,
            detected=item.detected,
            blocks=tuple(blocks),
            label=item.label,
            pin_ok=item.pin_ok,
            degradation=item.degradation,
        )


class ClassifyStage:
    """``Features → Scores``: classifier calls + per-block verdicts."""

    name = "classify"

    def run(self, items: Sequence[Features]) -> List[Scores]:
        return [self._score(item) for item in items]

    @staticmethod
    def _score(item: Features) -> Scores:
        keys: List[str] = []
        scores: List[float] = []
        passes: List[bool] = []
        for block in item.blocks:
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
        return Scores(
            case=item.case,
            route=item.route,
            detected=item.detected,
            keys=tuple(keys),
            scores=tuple(scores),
            passes=tuple(passes),
            label=item.label,
            pin_ok=item.pin_ok,
            degradation=item.degradation,
        )


class DecideStage:
    """``Scores → AuthDecision``: results integration (Section IV-B.3)."""

    name = "decide"

    def run(self, items: Sequence[Scores]) -> List[AuthDecision]:
        return [self._decide(item) for item in items]

    @staticmethod
    def _decide(item: Scores) -> AuthDecision:
        if item.route == "reject":
            return AuthDecision(
                accepted=False,
                reason=(
                    f"only {item.detected} keystroke(s) detected; "
                    "at least two are required"
                ),
                input_case=item.case,
                pin_ok=item.pin_ok,
                degradation=item.degradation,
            )
        if item.route == "keystrokes":
            accepted = _integrate(item.passes)
            return AuthDecision(
                accepted=accepted,
                reason=(
                    f"{sum(item.passes)}/{len(item.passes)} keystroke "
                    f"waveforms legal ({item.case.value})"
                ),
                input_case=item.case,
                pin_ok=item.pin_ok,
                scores=item.scores,
                keys_checked=item.keys,
                passes=item.passes,
                degradation=item.degradation,
            )
        score = item.scores[0]
        accepted = score > 0.0
        return AuthDecision(
            accepted=accepted,
            reason=(
                f"{item.label} score {score:+.3f} "
                f"({'legal' if accepted else 'illegal'})"
            ),
            input_case=item.case,
            pin_ok=item.pin_ok,
            scores=(score,),
            degradation=item.degradation,
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
        self.models = models
        self.config = config if config is not None else models.config
        self.policy = policy
        self.no_pin_mode = no_pin_mode
        self.repair = RepairStage(self.config, policy)
        self.preprocess = PreprocessStage(self.config)
        self.segment = SegmentStage(models, no_pin_mode)
        self.featurize = FeaturizeStage(models)
        self.classify = ClassifyStage()
        self.decide = DecideStage()

    @property
    def stages(self) -> Tuple[Stage, ...]:
        """The stage chain, in execution order."""
        return (
            self.repair,
            self.preprocess,
            self.segment,
            self.featurize,
            self.classify,
            self.decide,
        )

    def run(
        self,
        trials: Sequence[PinEntryTrial],
        pin_oks: Optional[Sequence[Optional[bool]]] = None,
    ) -> List[AuthDecision]:
        """Authenticate a batch of raw probe trials.

        Wrong-PIN probes short-circuit before any signal processing —
        they never reach the repair ladder, so a damaged recording with
        a wrong PIN is rejected for the PIN, not refused for quality.

        Args:
            trials: the probe trials.
            pin_oks: per-trial PIN verdicts (``None`` entries only in
                NO-PIN mode).
        """
        if pin_oks is None:
            pin_oks = [None] * len(trials)
        if len(pin_oks) != len(trials):
            raise AuthenticationError(
                f"got {len(trials)} trials but {len(pin_oks)} PIN verdicts"
            )
        results: List[Optional[AuthDecision]] = [None] * len(trials)
        live: List[Recording] = []
        live_at: List[int] = []
        for i, (trial, pin_ok) in enumerate(zip(trials, pin_oks)):
            if not self.no_pin_mode:
                if pin_ok is None:
                    raise AuthenticationError(
                        "pin_ok is required outside NO-PIN mode"
                    )
                if not pin_ok:
                    results[i] = AuthDecision(
                        accepted=False,
                        reason="PIN verification failed",
                        pin_ok=False,
                    )
                    continue
            live.append(Recording(trial=trial, pin_ok=pin_ok))
            live_at.append(i)
        if live:
            items: Sequence = live
            for stage in self.stages:
                items = stage.run(items)
            for i, decision in zip(live_at, items):
                results[i] = decision
        return [r for r in results if r is not None]
