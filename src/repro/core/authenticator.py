"""The P2Auth facade: the public API of the reproduction.

:class:`P2Auth` ties the whole Fig. 4 workflow together — PIN storage
and verification, the preprocessing pipeline, enrollment, and
authentication with results integration. A typical session::

    auth = P2Auth(pin="1628")
    auth.enroll(my_trials, third_party_trials)
    decision = auth.authenticate(probe_trial)

P2Auth holds no pipeline logic of its own: it verifies the PIN and
hands the probe to the staged :class:`~repro.core.stages.AuthPipeline`
it built at enrollment — the one engine behind the registry, the
session manager, the streaming front-end, the evaluation harness and
the HTTP service.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Set, Union

from ..config import PipelineConfig
from ..errors import EnrollmentError
from ..features import warm_engine
from ..signal.detrend import warm_detrend_factor
from ..signal.filters import warm_savgol
from ..types import PinEntryTrial
from .artifacts import AuthDecision
from .degradation import DegradationPolicy
from .enroll import enroll_models
from .models import EnrolledModels, EnrollmentOptions
from .negatives import NegativeBank
from .pin import PinVerifier
from .stages import AuthPipeline


class P2Auth:
    """Two-factor authenticator: PIN + keystroke-induced PPG.

    Args:
        pin: the user's PIN, or ``None`` for the NO-PIN mode in which
            the keystroke pattern alone authenticates (Section
            IV-B.2.6).
        pipeline_config: signal-processing constants (paper defaults).
        options: enrollment options (privacy boost, feature method...).
        salt: fixed PIN-hash salt for deterministic tests.
        policy: graceful-degradation policy applied to every probe
            trial before preprocessing (gap repair, channel fallback,
            quality gate — see :mod:`repro.core.degradation`).
            ``None`` disables the ladder: trials are scored as-is, the
            pre-policy behaviour.
    """

    def __init__(
        self,
        pin: Optional[str] = None,
        pipeline_config: Optional[PipelineConfig] = None,
        options: Optional[EnrollmentOptions] = None,
        salt: Optional[bytes] = None,
        policy: Optional[DegradationPolicy] = None,
    ) -> None:
        self._pin = PinVerifier(pin, salt=salt)
        self._config = (
            pipeline_config if pipeline_config is not None else PipelineConfig()
        )
        self._options = options if options is not None else EnrollmentOptions()
        self._policy = policy
        # `_install` publishes the engine under this lock; readers take
        # the one reference unlocked. `warmup` claims its work under it
        # too.
        self._engine_lock = threading.Lock()
        self._engine: Optional[AuthPipeline] = None  # guarded-by: _engine_lock
        self._warmed_models: Optional[EnrolledModels] = None  # guarded-by: _engine_lock
        self._warmed_lengths: Set[int] = set()  # guarded-by: _engine_lock
        # Move the one-off C-kernel compile/load off the request path:
        # constructing an authenticator is the natural "service starting"
        # moment, authenticate() is not.
        warm_engine()

    @property
    def no_pin_mode(self) -> bool:
        """Whether this authenticator runs without a fixed PIN."""
        return not self._pin.has_pin

    @property
    def enrolled(self) -> bool:
        """Whether :meth:`enroll` has completed."""
        # reprolint: disable-next=RL010 -- lone reference read; _install publishes atomically
        return self._engine is not None

    @property
    def models(self) -> EnrolledModels:
        """The trained models (raises before enrollment)."""
        return self.pipeline.models

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration in effect."""
        return self._config

    @property
    def options(self) -> EnrollmentOptions:
        """The enrollment options in effect."""
        return self._options

    @property
    def policy(self) -> Optional[DegradationPolicy]:
        """The degradation policy in effect (``None`` = disabled)."""
        return self._policy

    @property
    def pipeline(self) -> AuthPipeline:
        """The engine behind :meth:`authenticate` (raises before
        enrollment)."""
        # reprolint: disable-next=RL010 -- lone reference read; _install publishes atomically
        engine = self._engine
        if engine is None:
            raise EnrollmentError("no user is enrolled")
        return engine

    def _install(self, models: EnrolledModels) -> None:
        """Build the engine for ``models`` and publish it.

        Call it once the PIN verifier is final: the engine reads
        :attr:`no_pin_mode` when it is built.
        """
        engine = AuthPipeline(
            models,
            config=self._config,
            policy=self._policy,
            no_pin_mode=self.no_pin_mode,
        )
        with self._engine_lock:
            self._engine = engine

    def warmup(self, signal_lengths: Sequence[int] = ()) -> bool:
        """Pay one-off costs now so the first authenticate call doesn't.

        Before enrollment only the feature engine is warmed. After it,
        each fitted MiniRocket extractor is planned (``MiniRocket.warm``
        runs no transform, so an extractor shared by many users costs
        nothing once planned), the Savitzky-Golay coefficients are
        primed, and so is the banded-Cholesky detrend factor for each
        length in ``signal_lengths`` (the factor cache keys on length,
        which is unknown until a probe arrives). Results are
        unaffected: a warmed and an unwarmed authenticator return
        bit-identical decisions.

        Returns:
            True when any cold work was done; False when everything was
            already warm — a second call with the same arguments does
            nothing. A *concurrent* caller may see False while another
            thread's warm work is still in flight; results are
            unaffected either way, and the registry publishes instances
            only after their warmup returned.
        """
        # reprolint: disable-next=RL010 -- lone reference read; _install publishes atomically
        engine = self._engine
        if engine is None:
            warm_engine()
            return False
        models = engine.models
        # Claim outstanding work under the lock, run it outside: the
        # underlying warms are idempotent process-wide caches, so a
        # racing claimer doing duplicate cache fills would be benign —
        # but holding the lock across a kernel compile (RL012) would
        # stall every concurrent caller behind one slow build.
        with self._engine_lock:
            need_models = self._warmed_models is not models
            self._warmed_models = models
            new_lengths = sorted(
                set(map(int, signal_lengths)) - self._warmed_lengths
            )
            self._warmed_lengths.update(new_lengths)
        if need_models:
            warm_savgol(self._config.sg_window, self._config.sg_polyorder)
            for model in (
                models.full_model,
                models.fused_model,
                *models.key_models.values(),
            ):
                rocket = getattr(model, "_rocket", None)
                if rocket is not None and rocket._fitted:
                    rocket.warm()
        for length in new_lengths:
            warm_detrend_factor(length, self._config.detrend_lambda)
        return need_models or bool(new_lengths)

    def enroll(
        self,
        legit_trials: Sequence[PinEntryTrial],
        negatives: Union[Sequence[PinEntryTrial], NegativeBank],
    ) -> "P2Auth":
        """Enroll a user from their trials plus the third-party store.

        Args:
            legit_trials: the enrolling user's PIN entries.
            negatives: negative samples from other people stored on the
                device (paper default: 100 trials), or a
                :class:`~repro.core.negatives.NegativeBank` built from
                them, which skips the store-side preprocessing and
                feature extraction (see
                :func:`~repro.core.enroll.enroll_models`).
        """
        self._install(
            enroll_models(legit_trials, negatives, self._config, self._options)
        )
        return self

    def _pin_verdict(
        self, trial: PinEntryTrial, claimed_pin: Optional[str]
    ) -> Optional[bool]:
        if self.no_pin_mode:
            return None
        entered = claimed_pin if claimed_pin is not None else trial.pin
        return self._pin.verify(entered)

    def authenticate(
        self,
        trial: PinEntryTrial,
        claimed_pin: Optional[str] = None,
    ) -> AuthDecision:
        """Authenticate one PIN-entry trial.

        Runs the staged :class:`~repro.core.stages.AuthPipeline`
        (repair, preprocess, segment, featurize, classify, decide) on
        the probe. Call :meth:`warmup` first to keep one-off costs out
        of the request; see ``docs/performance.md`` for the latency
        budget.

        Args:
            trial: the probe trial.
            claimed_pin: the PIN the typist entered; defaults to the
                digits recorded in the trial.

        Returns:
            The authentication decision.

        Raises:
            QualityError: when a degradation policy is set and the
                trial is too damaged to score (gap beyond the repair
                budget, too few usable channels, failed quality gate).
        """
        pin_ok = self._pin_verdict(trial, claimed_pin)
        return self.pipeline.run(trial, pin_ok)
