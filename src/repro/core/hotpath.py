"""The fused single-probe authentication engine.

:class:`HotAuthPipeline` is what :meth:`P2Auth.authenticate
<repro.core.authenticator.P2Auth.authenticate>` runs, and through it
the registry, session manager, streaming front-end and HTTP service.
It runs the same Fig. 4 sequence as the staged
:class:`~repro.core.stages.AuthPipeline` (which keeps serving batches,
the eval path, ``profile=True`` and the parity suite), but composed
for per-probe latency instead of batch throughput:

- **No intermediate artifacts.** The staged engine materializes a
  ``Recording → Repaired → Preprocessed → Segments → Features → Scores``
  chain (six frozen dataclasses plus per-stage lists) per probe. The
  fused path calls the same underlying stage functions back to back and
  keeps everything in locals.
- **Preallocated scratch buffers.** The median-filter network, the
  detrended channels, and the feature rows are written into buffers
  that are reused across calls. They live in one module-level
  ``threading.local``: each thread owns one set, shared by every
  pipeline (every user) that runs on it, keyed by the layout each
  buffer depends on — ``(channels, n, median_kernel)`` for the
  preprocessing scratch, the feature width for the rows. A thread runs
  one call at a time, so sharing across users is safe, and a process
  serving many users holds one buffer set per thread instead of one
  per (user, thread) pair. Decisions carry only scalars, strings, and
  tuples, so nothing the caller sees aliases the scratch.
- **Cheaper-but-identical kernels.** The 5-point median runs as a
  min/max selection network, the Savitzky-Golay smoothing reuses cached
  FIR coefficients, the calibration extreme-point search is vectorized,
  and the MiniRocket C kernel is invoked through a pre-marshalled
  argument plan. Each replacement is *value-identical* to the function
  the staged path calls — pinned at ``rtol=0/atol=0`` by
  ``tests/test_stage_parity.py``.
- **Explicit warmup.** :meth:`warmup` pays every one-off cost — the
  C-kernel compile/load and transform plans, the banded-Cholesky
  factorization, the SG coefficients — without running a transform,
  so no first-call work sits in the request path. The shared buffers
  are allocated by a thread's first call for each layout. Warming
  changes latency only, never results.

The parity contract: for any probe and PIN verdict,
``HotAuthPipeline.authenticate`` returns an ``AuthDecision`` whose
every field equals the staged pipeline's, and raises the same typed
errors with the same messages on the same inputs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..concurrency import checked_rlock
from ..config import PipelineConfig
from ..errors import AuthenticationError, NotFittedError
from ..signal.calibration import calibrate_trial_indices_fast
from ..signal.detrend import _solve_trend_fast, _validate_lam, warm_detrend_factor
from ..signal.energy import short_time_energy
from ..signal.filters import (
    median_filter_multi_fast,
    median_filter_workspace,
    warm_savgol,
)
from ..types import InputCase, PinEntryTrial
from .artifacts import AuthDecision, _integrate
from .degradation import DegradationEvent, DegradationPolicy, apply_policy
from .input_case import identify_input_case
from .models import (
    EnrolledModels,
    WaveformModel,
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
)
from .pipeline import PreprocessedTrial, _validate_probe

#: Distinct layouts per buffer kind (scratch, feature rows) each thread
#: keeps alive at once; least-recently-used layouts are evicted beyond
#: this. Probe lengths vary with typing speed, so scratch misses are
#: routine; each costs only a few small allocations.
SCRATCH_SHAPES = 8

K = TypeVar("K")
V = TypeVar("V")


class _Scratch:  # concurrency: thread-hostile
    """Preprocessing buffers for one ``(channels, n, kernel)`` layout.

    Unsynchronized by design: instances live in ``threading.local``
    storage, one set per thread, and must never escape it."""

    __slots__ = ("median_work", "filtered", "detrended", "calib_ref",
                 "energy_ref")

    def __init__(self, channels: int, n: int, kernel: int) -> None:
        if kernel in (3, 5) and n >= kernel:
            self.median_work: Optional[tuple] = median_filter_workspace(
                channels, n, kernel
            )
        else:
            self.median_work = None
        self.filtered = np.empty((channels, n))
        self.detrended = np.empty((channels, n))
        self.calib_ref = np.empty(n)
        self.energy_ref = np.empty(n)


class _ThreadBuffers(threading.local):  # concurrency: thread-local
    """One thread's buffers, shared by every pipeline that runs on it.

    ``scratch`` is keyed by ``(channels, n, median_kernel)``, ``rows``
    (a ``(raw, standardized)`` pair) by feature width: everything each
    buffer's layout depends on, so pipelines of different users and
    configs can take turns on one thread. A thread runs one call at a
    time and decisions keep no reference to either, so sharing never
    changes a result.
    """

    def __init__(self) -> None:
        self.scratch: "OrderedDict[Tuple[int, int, int], _Scratch]" = OrderedDict()
        self.rows: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()


_BUFFERS = _ThreadBuffers()


def _lru_get(cache: "OrderedDict[K, V]", key: K, build: Callable[[], V]) -> V:
    """``cache[key]``, built on a miss; keeps at most SCRATCH_SHAPES."""
    entry = cache.get(key)
    if entry is None:
        entry = build()
        # reprolint: disable-next=RL011 -- confinement, not escape: the cache lives in threading.local storage
        cache[key] = entry
        while len(cache) > SCRATCH_SHAPES:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return entry


def clear_thread_buffers() -> None:
    """Drop the calling thread's scratch and feature rows.

    The next call on this thread allocates afresh, as a cold start
    does. Other threads' buffers are untouched.
    """
    _BUFFERS.scratch.clear()
    _BUFFERS.rows.clear()


class HotAuthPipeline:
    """Fused, buffer-reusing variant of the staged authentication path.

    Args:
        models: the enrolled user's models.
        config: pipeline constants; defaults to ``models.config`` (same
            precedence as :class:`~repro.core.stages.AuthPipeline`).
        policy: graceful-degradation policy (``None`` disables it).
        no_pin_mode: authenticate by keystroke pattern alone.

    Thread-safe: the scratch and feature-row buffers live in the
    module's per-thread storage (one set per thread, shared by every
    pipeline, allocated lazily), so concurrent ``authenticate`` calls
    on one or many instances are decision-identical to serial runs —
    pinned by ``tests/concurrency/test_race_stress.py``. The warmup
    flags are the only cross-thread state and sit behind an internal
    lock.
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
        self._lam = _validate_lam(self.config.detrend_lambda)
        self._warm_lock = checked_rlock("HotAuthPipeline._warm_lock")
        self._warmed = False  # guarded-by: _warm_lock
        self._warmed_lengths: set = set()  # guarded-by: _warm_lock

    # -- warmup ------------------------------------------------------------

    def _iter_models(self) -> Iterable[WaveformModel]:
        models = self.models
        for model in (models.full_model, models.fused_model):
            if model is not None:
                yield model
        for model in models.key_models.values():
            yield model

    def warmup(self, signal_lengths: Sequence[int] = ()) -> bool:
        """Pay every one-off cost ahead of the first authenticate call.

        Compiles/loads the MiniRocket C kernel, marshals each enrolled
        model's transform plan (running no transform; a planned
        extractor costs nothing), primes the Savitzky-Golay coefficient
        cache, and — for each length in ``signal_lengths`` — the
        banded-Cholesky detrend factorization. Results are unaffected:
        a warmed and an unwarmed pipeline return bit-identical decisions.

        Args:
            signal_lengths: expected probe lengths whose detrend
                factorizations should be primed (the factor cache keys
                on length, which is unknown until a probe arrives).

        Returns:
            True when any cold work was done; False when everything was
            already warm (the idempotence contract — a second call with
            the same arguments is a no-op). A *concurrent* caller may
            see False while another thread's warm work is still in
            flight; results are unaffected either way, and the registry
            publishes instances only after their warmup returned.
        """
        # Claim outstanding work under the lock, run it outside: the
        # underlying warms are idempotent process-wide caches, so a
        # racing claimer doing duplicate cache fills would be benign —
        # but holding the lock across a kernel compile (RL012) would
        # stall every concurrent warmup behind one slow build.
        with self._warm_lock:
            need_engine = not self._warmed
            self._warmed = True
            new_lengths: List[int] = []
            for length in signal_lengths:
                length = int(length)
                if length not in self._warmed_lengths:
                    self._warmed_lengths.add(length)
                    new_lengths.append(length)
        did_work = False
        if need_engine:
            warm_savgol(self.config.sg_window, self.config.sg_polyorder)
            for model in self._iter_models():
                rocket = getattr(model, "_rocket", None)
                if rocket is not None and rocket._fitted:
                    rocket.warm()
            did_work = True
        for length in new_lengths:
            warm_detrend_factor(length, self._lam)
            did_work = True
        return did_work

    # -- the fused request path --------------------------------------------

    def _featurize_fast(
        self, model: WaveformModel, x: np.ndarray
    ) -> np.ndarray:
        """Buffer-reusing twin of the staged featurize step.

        Mirrors ``stages._featurize_one`` + ``WaveformModel._featurize``
        exactly for the ROCKET method — same transform (into a reused
        row buffer), same elementwise standardization (in place) — and
        delegates verbatim for every other feature method.
        """
        if not model._fitted:
            raise NotFittedError("WaveformModel.fit has not been called")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[np.newaxis]
        if model.feature_method != "rocket":
            return model._featurize(x, fit=False)
        if model._rocket is None or model._scaler is None:
            raise NotFittedError("WaveformModel.fit has not been called")
        width = model._rocket.n_features_out
        raw_buf, std_buf = _lru_get(
            _BUFFERS.rows,
            width,
            lambda: (np.empty((1, width)), np.empty((1, width))),
        )
        features = model._rocket.transform(x, out=raw_buf)
        # (x - mean) / scale, elementwise into the reused row — the same
        # two operations StandardScaler.transform performs.
        np.subtract(features, model._scaler._mean, out=std_buf)
        np.divide(std_buf, model._scaler._scale, out=std_buf)
        return std_buf

    @staticmethod
    def _score_one(model: WaveformModel, features: np.ndarray) -> float:
        return float(
            np.asarray(model._classifier.decision_function(features))[0]
        )

    @staticmethod
    def _extract_full_fast(
        pre: PreprocessedTrial, window: int, margin: int
    ) -> np.ndarray:
        """``extract_full_waveform`` minus the edge-padding machinery.

        When the anchored window lies entirely inside the signal — every
        realistic probe — the extracted waveform is exactly the slice
        ``detrended[:, start:start+window]``, so return that view and
        skip ``np.pad``. Windows that run off the end delegate to the
        staged extractor unchanged.
        """
        detrended = pre.detrended
        n = detrended.shape[1]
        start = min(pre.keystroke_indices) - margin
        if start < 0:
            start = 0
        elif start > n - 1:
            start = n - 1
        if start + window <= n:
            return detrended[:, start : start + window]
        return extract_full_waveform(pre, window, margin)

    def _preprocess_fused(self, trial: PinEntryTrial) -> PreprocessedTrial:
        """The Section IV-A phase on reused buffers.

        Value-identical to ``preprocess_trials([trial], config)[0]``:
        the fast median/SG/calibration kernels are pinned to their
        staged counterparts, and the detrend solves the same multi-RHS
        banded system against the same cached factorization.
        """
        config = self.config
        _validate_probe(trial, config)
        samples = np.asarray(trial.recording.samples, dtype=np.float64)
        if samples.ndim != 2:
            # Raises the staged path's exact SignalError for bad shapes.
            median_filter_multi_fast(samples, config.median_kernel)
        channels, n = samples.shape
        kernel = config.median_kernel
        scratch = _lru_get(
            _BUFFERS.scratch,
            (channels, n, kernel),
            lambda: _Scratch(channels, n, kernel),
        )

        filtered = median_filter_multi_fast(
            samples,
            config.median_kernel,
            out=scratch.filtered,
            work=scratch.median_work,
        )
        trend = _solve_trend_fast(filtered, self._lam)
        detrended = np.subtract(filtered, trend, out=scratch.detrended)

        calibration_reference = np.mean(
            filtered, axis=0, out=scratch.calib_ref
        )
        indices = calibrate_trial_indices_fast(
            trial.recording, trial.events, config, calibration_reference
        )

        reference = np.mean(detrended, axis=0, out=scratch.energy_ref)
        energy = short_time_energy(reference, config.energy_window)
        threshold = config.energy_threshold_ratio * float(energy.mean())
        detected = tuple(bool(energy[i] > threshold) for i in indices)

        return PreprocessedTrial(
            trial=trial,
            filtered=filtered,
            detrended=detrended,
            reference=reference,
            keystroke_indices=tuple(int(i) for i in indices),
            keystroke_detected=detected,
            energy_threshold=threshold,
            config=config,
        )

    def authenticate(
        self, trial: PinEntryTrial, pin_ok: Optional[bool] = None
    ) -> AuthDecision:
        """Authenticate one probe on the fused path.

        Decision-for-decision identical to
        ``AuthPipeline.run([trial], [pin_ok])[0]`` — same fields, same
        reason strings, same exceptions (asserted by the parity suite).
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
        degradation: Tuple[DegradationEvent, ...] = ()
        if self.policy is not None:
            trial, degradation = apply_policy(trial, self.config, self.policy)

        pre = self._preprocess_fused(trial)
        models = self.models
        case = identify_input_case(pre)
        if case is InputCase.REJECT:
            return AuthDecision(
                accepted=False,
                reason=(
                    f"only {pre.detected_count} keystroke(s) detected; "
                    "at least two are required"
                ),
                input_case=case,
                pin_ok=pin_ok,
                degradation=degradation,
            )

        if self.no_pin_mode or case is not InputCase.ONE_HANDED:
            keys: List[str] = []
            scores: List[float] = []
            passes: List[bool] = []
            for segment in extract_segments(pre, models.config):
                keys.append(segment.key)
                model = models.key_models.get(segment.key)
                if model is None:
                    # Never-enrolled key: a failed check, not a free pass.
                    scores.append(float("-inf"))
                    passes.append(False)
                    continue
                score = self._score_one(
                    model, self._featurize_fast(model, segment.samples)
                )
                scores.append(score)
                passes.append(score > 0.0)
            passes_t = tuple(passes)
            accepted = _integrate(passes_t)
            return AuthDecision(
                accepted=accepted,
                reason=(
                    f"{sum(passes_t)}/{len(passes_t)} keystroke "
                    f"waveforms legal ({case.value})"
                ),
                input_case=case,
                pin_ok=pin_ok,
                scores=tuple(scores),
                keys_checked=tuple(keys),
                passes=passes_t,
                degradation=degradation,
            )

        options = models.options
        if options.privacy_boost:
            if models.fused_model is None:
                raise AuthenticationError(
                    "privacy boost enabled but no fused model"
                )
            waveform = extract_fused_waveform(pre, models.config)
            model, label = models.fused_model, "fused waveform"
        else:
            if models.full_model is None:
                raise AuthenticationError("no full-waveform model enrolled")
            waveform = self._extract_full_fast(
                pre, options.full_window, options.full_margin
            )
            model, label = models.full_model, "full waveform"
        score = self._score_one(model, self._featurize_fast(model, waveform))
        accepted = score > 0.0
        return AuthDecision(
            accepted=accepted,
            reason=(
                f"{label} score {score:+.3f} "
                f"({'legal' if accepted else 'illegal'})"
            ),
            input_case=case,
            pin_ok=pin_ok,
            scores=(score,),
            degradation=degradation,
        )
