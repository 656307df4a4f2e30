"""Multi-user model registry: many enrolled users in one process.

A deployed authentication service holds templates for many users, not
one. :class:`ModelRegistry` separates template storage from the
:class:`~repro.core.authenticator.P2Auth` façade: each user maps to
their own enrolled authenticator, an LRU bound caps how many live in
memory, and a pluggable :class:`RegistryBackend` (the bundled
:class:`NpzDirectoryBackend` reuses :mod:`repro.core.persistence`)
keeps evicted or restarted users loadable. The registry never touches
the authentication path — a user's ``P2Auth`` behaves identically
whether it came from :meth:`ModelRegistry.enroll`, a backend load, or
direct construction.
"""

from __future__ import annotations

import os
import re
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from ..concurrency import assert_owned, checked_rlock
from ..config import PipelineConfig
from ..errors import (
    AuthenticationError,
    ConfigurationError,
    EnrollmentError,
    NotFittedError,
)
from ..features import transform_stacked
from ..types import PinEntryTrial
from .artifacts import FeatureBlock, Features, Recording
from .authenticator import P2Auth
from .degradation import DegradationPolicy
from .enrollment import EnrollmentOptions, NegativeBank
from .models import WaveformModel
from .stages import AuthDecision

_USER_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def _check_user_id(user_id: str) -> str:
    if not _USER_ID_RE.match(user_id):
        raise ConfigurationError(
            f"invalid user id {user_id!r}: use 1-64 characters from "
            "[A-Za-z0-9._-]"
        )
    return user_id


class RegistryBackend(Protocol):
    """Persistence behind a :class:`ModelRegistry`.

    Implementations store whole enrolled authenticators keyed by user
    id. The registry performs backend I/O *outside* its lock — a slow
    load of one user must not stall authentications of users already
    in memory — so ``load`` may be called concurrently (including for
    the same id when two threads miss at once; the registry keeps one
    winner). Implementations therefore need to tolerate concurrent
    calls; the bundled file-per-user backend does so naturally.
    """

    def store(self, user_id: str, auth: P2Auth) -> None:
        """Persist one enrolled authenticator."""
        ...

    def load(self, user_id: str) -> P2Auth:
        """Reload a stored authenticator (KeyError when absent)."""
        ...

    def delete(self, user_id: str) -> None:
        """Forget a stored user (no-op when absent)."""
        ...

    def user_ids(self) -> List[str]:
        """All stored user ids."""
        ...

    def exists(self, user_id: str) -> bool:
        """Whether ``user_id`` is stored, without loading any model.

        Backends with a cheap membership probe (an index hit, a
        ``stat``) should override this; the default scans
        :meth:`user_ids`.
        """
        return user_id in self.user_ids()

    def __contains__(self, user_id: str) -> bool:
        return self.exists(user_id)


def backend_exists(backend: RegistryBackend, user_id: str) -> bool:
    """Membership probe that tolerates minimal duck-typed backends.

    Uses the backend's ``exists`` when it has one; otherwise falls back
    to scanning ``user_ids()`` — the pre-``exists`` protocol surface —
    so registries keep working with third-party backends that only
    implement store/load/delete/user_ids.
    """
    probe = getattr(backend, "exists", None)
    if callable(probe):
        return bool(probe(user_id))
    return user_id in backend.user_ids()


class NpzDirectoryBackend:
    """One ``.npz`` archive per user in a directory.

    Reuses :func:`~repro.core.persistence.save_authenticator` /
    :func:`~repro.core.persistence.load_authenticator`, so the same
    serializability rules apply (rocket+ridge models only).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._tmp = self._root / ".tmp"
        self._tmp.mkdir(exist_ok=True)

    def _path(self, user_id: str) -> Path:
        return self._root / f"{_check_user_id(user_id)}.npz"

    def store(self, user_id: str, auth: P2Auth) -> None:
        from .persistence import save_authenticator

        # Write-then-rename: a concurrent load of the same id sees
        # either the old complete archive or the new one, never a
        # half-written file. The staging dir keeps temp files out of
        # the ``*.npz`` glob.
        path = self._path(user_id)
        fd, tmp_name = tempfile.mkstemp(suffix=".npz", dir=self._tmp)
        try:
            with os.fdopen(fd, "wb") as handle:
                save_authenticator(auth, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise

    def load(self, user_id: str) -> P2Auth:
        from .persistence import load_authenticator

        # No exists() pre-check: a concurrent delete between the check
        # and the open would surface as FileNotFoundError anyway, so
        # map that directly to the protocol's KeyError.
        try:
            return load_authenticator(self._path(user_id))
        except FileNotFoundError:
            raise KeyError(user_id) from None

    def delete(self, user_id: str) -> None:
        self._path(user_id).unlink(missing_ok=True)

    def exists(self, user_id: str) -> bool:
        """Membership via one ``stat`` — no archive parsing.

        Invalid ids are simply absent (``False``), matching
        :meth:`user_ids` never listing them.
        """
        if not _USER_ID_RE.match(user_id):
            return False
        return self._path(user_id).exists()

    def __contains__(self, user_id: str) -> bool:
        return self.exists(user_id)

    def user_ids(self) -> List[str]:
        # Skip stems that fail the user-id grammar (stray files, or
        # ids load() would reject): every listed id must round-trip.
        return sorted(
            p.stem
            for p in self._root.glob("*.npz")
            if _USER_ID_RE.match(p.stem)
        )


class ModelRegistry:
    """Enrolled authenticators for many users, LRU-bounded in memory.

    Args:
        capacity: maximum authenticators held in memory; ``None`` means
            unbounded. When the bound is hit, the least recently used
            user is dropped from memory (their templates survive in the
            backend, if one is configured).
        backend: optional persistence backend. Enrollments are written
            through immediately; a :meth:`get` for a user not in memory
            falls back to a backend load.
        config: pipeline constants for authenticators built by
            :meth:`enroll`.
        options: enrollment options for :meth:`enroll`.
        policy: degradation policy for :meth:`enroll`-built
            authenticators.

    All public methods are thread-safe; enrollment (the expensive part)
    runs outside the lock, so concurrent enrollments of different users
    proceed in parallel.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        backend: Optional[RegistryBackend] = None,
        config: Optional[PipelineConfig] = None,
        options: Optional[EnrollmentOptions] = None,
        policy: Optional[DegradationPolicy] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError("capacity must be >= 1 (or None)")
        self._capacity = capacity
        self._backend = backend
        self._config = config
        self._options = options
        self._policy = policy
        self._cache: "OrderedDict[str, P2Auth]" = OrderedDict()  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._lock = checked_rlock("ModelRegistry._lock")

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def __contains__(self, user_id: str) -> bool:
        with self._lock:
            if user_id in self._cache:
                return True
        if self._backend is not None:
            # Membership probe, not a directory scan: O(1) for
            # backends with an exists() (all bundled ones).
            return backend_exists(self._backend, user_id)
        return False

    @property
    def stats(self) -> Dict[str, int]:
        """Cache counters: ``hits`` / ``misses`` / ``evictions``.

        A hit is a :meth:`get` served from memory; a miss is one that
        went to the backend (or raised); an eviction is an LRU drop by
        the capacity bound (explicit :meth:`evict` calls don't count).
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def enroll(
        self,
        user_id: str,
        pin: Optional[str],
        legit_trials: Sequence[PinEntryTrial],
        third_party_trials: Sequence[PinEntryTrial],
        shared_negatives: Optional[NegativeBank] = None,
        salt: Optional[bytes] = None,
    ) -> P2Auth:
        """Enroll (or re-enroll) a user and register their models.

        Builds a fresh :class:`P2Auth` under the registry's config /
        options / policy, trains it, then registers it under
        ``user_id`` (write-through to the backend when one is set).
        """
        _check_user_id(user_id)
        auth = P2Auth(
            pin=pin,
            pipeline_config=self._config,
            options=self._options,
            salt=salt,
            policy=self._policy,
        )
        auth.enroll(
            legit_trials, third_party_trials, shared_negatives=shared_negatives
        )
        self.add(user_id, auth)
        return auth

    def add(self, user_id: str, auth: P2Auth) -> None:
        """Register an already-enrolled authenticator under ``user_id``."""
        _check_user_id(user_id)
        if not auth.enrolled:
            raise ConfigurationError(
                f"cannot register {user_id!r}: the authenticator has no "
                "enrolled models"
            )
        if self._backend is not None:
            self._backend.store(user_id, auth)
        # Warm outside the lock for the same reason loads run outside
        # it: the one-off costs (C-kernel plan marshalling, cached
        # factorizations) must not stall concurrent registry calls.
        auth.warmup()
        with self._lock:
            self._cache[user_id] = auth
            self._cache.move_to_end(user_id)
            self._shrink()

    def get(self, user_id: str) -> P2Auth:
        """The user's authenticator (memory hit or backend load).

        Backend loads — disk reads plus model reconstruction, the slow
        path — run *outside* the registry lock, so two threads missing
        on different users load in parallel instead of serializing
        behind one another (pinned by ``tests/core/test_registry.py``).
        Each loaded authenticator is warmed (its unplanned extractors
        planned, no transform run) before it is published: the first
        probe against it pays none of the one-off costs.
        When two threads race on the same user, the first to publish
        wins and the loser's copy is discarded, so every caller sees
        one canonical instance per user.

        Raises:
            KeyError: when the user is in neither memory nor backend.
        """
        with self._lock:
            auth = self._cache.get(user_id)
            if auth is not None:
                self._hits += 1
                self._cache.move_to_end(user_id)
                return auth
            self._misses += 1
            if self._backend is None:
                raise KeyError(user_id)
        loaded = self._backend.load(user_id)
        loaded.warmup()
        with self._lock:
            auth = self._cache.get(user_id)
            if auth is not None:
                # A racing loader (or add) published first; theirs is
                # the canonical instance.
                self._cache.move_to_end(user_id)
                return auth
            self._cache[user_id] = loaded
            self._shrink()
            return loaded

    def authenticate(
        self,
        user_id: str,
        trial: PinEntryTrial,
        claimed_pin: Optional[str] = None,
    ) -> AuthDecision:
        """Authenticate a probe against one user's models."""
        return self.get(user_id).authenticate(trial, claimed_pin=claimed_pin)

    @staticmethod
    def _enqueue_featurize(
        pending: List[Tuple[WaveformModel, np.ndarray]],
        model: WaveformModel,
        x: np.ndarray,
    ) -> int:
        # The pre-transform half of stages._featurize_one, with the
        # transform itself deferred so same-shape tasks can stack.
        if not model._fitted:
            raise NotFittedError("WaveformModel.fit has not been called")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[np.newaxis]
        pending.append((model, x))
        return len(pending) - 1

    @staticmethod
    def _run_featurize_tasks(
        pending: List[Tuple[WaveformModel, np.ndarray]],
    ) -> List[np.ndarray]:
        """Compute each pending task's standardized feature row.

        Single-instance rocket tasks whose extractors share a fitted
        shape and dilation schedule are stacked into one compiled
        transform call carrying per-instance bias tables
        (:func:`~repro.features.transform_stacked`); everything else —
        manual/raw models, odd shapes, no compiled kernel — falls back
        to the per-task ``_featurize`` the staged engine runs. Either
        way each task's features are bit-identical to its solo call:
        the kernel processes instances independently and the
        standardization is row-wise.
        """
        features_out: List[Optional[np.ndarray]] = [None] * len(pending)
        groups: Dict[tuple, List[int]] = {}
        for ti, (model, x) in enumerate(pending):
            rocket = model._rocket
            if (
                model.feature_method == "rocket"
                and rocket is not None
                and rocket._fitted
                and model._scaler is not None
                and x.shape[0] == 1
            ):
                key = (
                    x.shape,
                    tuple(int(d) for d in rocket._dilations),
                    tuple(int(f) for f in rocket._features_per_dilation),
                )
                groups.setdefault(key, []).append(ti)
            else:
                features_out[ti] = model._featurize(x, fit=False)
        for task_ids in groups.values():
            raw = None
            if len(task_ids) > 1:
                stacked = np.concatenate(
                    [pending[ti][1] for ti in task_ids], axis=0
                )
                raw = transform_stacked(
                    [pending[ti][0]._rocket for ti in task_ids], stacked
                )
            if raw is None:
                for ti in task_ids:
                    model, x = pending[ti]
                    features_out[ti] = model._featurize(x, fit=False)
            else:
                for j, ti in enumerate(task_ids):
                    scaler = pending[ti][0]._scaler
                    assert scaler is not None
                    features_out[ti] = scaler.transform(raw[j : j + 1])
        return [f for f in features_out if f is not None]

    def authenticate_many(
        self,
        user_ids: Sequence[str],
        trials: Sequence[PinEntryTrial],
        claimed_pins: Optional[Sequence[Optional[str]]] = None,
    ) -> List[AuthDecision]:
        """Authenticate a batch of probes, each against its own user.

        Decision-for-decision identical to calling :meth:`authenticate`
        per item (pinned by ``tests/test_stage_parity.py``), but the
        heavy stages batch *across users*:

        - preprocessing groups items by pipeline config, so same-shape
          trials of different users detrend as one banded solve;
        - feature extraction stacks same-schedule probes into a single
          compiled MiniRocket call with per-instance bias tables — one
          kernel invocation serves every user in the batch.

        Wrong-PIN probes short-circuit before any signal processing,
        exactly as in the single-probe path. Errors surface in stage
        order (lookup, PIN, preprocess, featurize) rather than strict
        item order; the decisions themselves never differ from the
        loop.

        Args:
            user_ids: claimed identity per probe, aligned with
                ``trials``.
            trials: the probe trials.
            claimed_pins: entered PINs, aligned with ``trials``; each
                ``None`` entry defaults to that trial's recorded
                digits.
        """
        if len(user_ids) != len(trials):
            raise ConfigurationError(
                f"got {len(trials)} trials but {len(user_ids)} user ids"
            )
        if claimed_pins is None:
            claimed_pins = [None] * len(trials)
        if len(claimed_pins) != len(trials):
            raise EnrollmentError(
                f"got {len(trials)} trials but {len(claimed_pins)} PINs"
            )
        auths = [self.get(user_id) for user_id in user_ids]
        pipelines = [auth.pipeline for auth in auths]
        verdicts = [
            auth._pin_verdict(trial, pin)
            for auth, trial, pin in zip(auths, trials, claimed_pins)
        ]

        results: List[Optional[AuthDecision]] = [None] * len(trials)
        live: List[int] = []
        for i, (pipeline, verdict) in enumerate(zip(pipelines, verdicts)):
            if not pipeline.no_pin_mode:
                if verdict is None:
                    raise AuthenticationError(
                        "pin_ok is required outside NO-PIN mode"
                    )
                if not verdict:
                    results[i] = AuthDecision(
                        accepted=False,
                        reason="PIN verification failed",
                        pin_ok=False,
                    )
                    continue
            live.append(i)

        # Repair per item (each user's own degradation policy) ...
        repaired = {
            i: pipelines[i].repair.run(
                [Recording(trial=trials[i], pin_ok=verdicts[i])]
            )[0]
            for i in live
        }
        # ... then preprocess batched by config: the batch members are
        # per-trial independent (shape-grouped stacked detrend solves
        # each right-hand side on its own), so outputs match the
        # per-item runs bit for bit.
        config_groups: Dict[PipelineConfig, List[int]] = {}
        for i in live:
            config_groups.setdefault(pipelines[i].config, []).append(i)
        pre = {}
        for idxs in config_groups.values():
            outs = pipelines[idxs[0]].preprocess.run(
                [repaired[i] for i in idxs]
            )
            pre.update(zip(idxs, outs))

        # Segment per item, deferring each block's feature transform.
        pending: List[Tuple[WaveformModel, np.ndarray]] = []
        item_blocks: Dict[
            int, List[Tuple[Optional[str], Optional[WaveformModel],
                            Optional[int]]]
        ] = {}
        segs = {}
        for i in live:
            seg = pipelines[i].segment.run([pre[i]])[0]
            segs[i] = seg
            models = pipelines[i].models
            entries: List[
                Tuple[Optional[str], Optional[WaveformModel], Optional[int]]
            ] = []
            if seg.route == "keystrokes":
                for segment in seg.segments:
                    model = models.key_models.get(segment.key)
                    if model is None:
                        entries.append((segment.key, None, None))
                    else:
                        entries.append((
                            segment.key,
                            model,
                            self._enqueue_featurize(
                                pending, model, segment.samples
                            ),
                        ))
            elif seg.route in ("full", "fused"):
                model = (
                    models.fused_model
                    if seg.route == "fused"
                    else models.full_model
                )
                assert model is not None and seg.waveform is not None
                entries.append((
                    None,
                    model,
                    self._enqueue_featurize(pending, model, seg.waveform),
                ))
            item_blocks[i] = entries

        task_features = self._run_featurize_tasks(pending)

        for i in live:
            seg = segs[i]
            blocks = tuple(
                FeatureBlock(
                    key, model, None if ti is None else task_features[ti]
                )
                for key, model, ti in item_blocks[i]
            )
            features = Features(
                case=seg.case,
                route=seg.route,
                detected=seg.detected,
                blocks=blocks,
                label=seg.label,
                pin_ok=seg.pin_ok,
                degradation=seg.degradation,
            )
            scores = pipelines[i].classify.run([features])[0]
            results[i] = pipelines[i].decide.run([scores])[0]
        return [r for r in results if r is not None]

    def evict(self, user_id: str) -> bool:
        """Drop a user from memory (backend copy, if any, is kept).

        Returns:
            whether the user was in memory.
        """
        with self._lock:
            return self._cache.pop(user_id, None) is not None

    def remove(self, user_id: str) -> None:
        """Forget a user entirely: memory and backend."""
        with self._lock:
            self._cache.pop(user_id, None)
        if self._backend is not None:
            self._backend.delete(user_id)

    def list_users(self) -> List[str]:
        """All known user ids (memory plus backend), sorted."""
        with self._lock:
            known = set(self._cache)
        if self._backend is not None:
            known.update(self._backend.user_ids())
        return sorted(known)

    def cached_users(self) -> List[str]:
        """User ids currently in memory, least recently used first."""
        with self._lock:
            return list(self._cache)

    def warm_users(self) -> frozenset:
        """Snapshot of the user ids currently warm (in memory).

        Cheap — one locked set copy, no backend I/O — so benchmarks and
        the service's admin endpoint can split cold-vs-warm traffic
        without perturbing the LRU order (unlike :meth:`get`, this
        never counts as a use).
        """
        with self._lock:
            return frozenset(self._cache)

    def describe(self) -> Dict[str, object]:
        """Admin metadata: capacity, backend kind, occupancy, counters.

        The payload behind the service's ``/admin/stats`` endpoint.
        ``backend`` is the backend class name (``None`` when the
        registry is memory-only); ``stats`` embeds the hit/miss/
        eviction counters of :attr:`stats`.
        """
        with self._lock:
            cached = len(self._cache)
            stats = {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
        return {
            "capacity": self._capacity,
            "backend": (
                None if self._backend is None else type(self._backend).__name__
            ),
            "cached_users": cached,
            "stats": stats,
        }

    def _shrink(self) -> None:  # guarded-by: caller
        assert_owned(self._lock, "ModelRegistry._shrink")
        if self._capacity is None:
            return
        while len(self._cache) > self._capacity:
            self._cache.popitem(last=False)
            self._evictions += 1


__all__ = [
    "ModelRegistry",
    "NpzDirectoryBackend",
    "RegistryBackend",
    "backend_exists",
]
