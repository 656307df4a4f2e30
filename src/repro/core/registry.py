"""Multi-user model registry: many enrolled users in one process.

A deployed authentication service holds templates for many users, not
one. :class:`ModelRegistry` separates template storage from the
:class:`~repro.core.authenticator.P2Auth` façade: each user maps to
their own enrolled authenticator, an LRU bound caps how many live in
memory, and a :class:`RegistryBackend` (the bundled one is
:class:`~repro.core.backends.ShardedPackedBackend`) keeps evicted or
restarted users loadable. The registry never touches the
authentication path — a user's ``P2Auth`` behaves identically whether
it came from :meth:`ModelRegistry.enroll`, a backend load, or direct
construction.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Dict, List, Optional, Protocol, Sequence

from ..concurrency import assert_owned, checked_rlock
from ..config import PipelineConfig
from ..errors import ConfigurationError
from ..types import PinEntryTrial
from .artifacts import AuthDecision
from .authenticator import P2Auth
from .degradation import DegradationPolicy
from .enrollment import EnrollmentOptions, NegativeBank

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
    calls; the bundled sharded backend does so through atomic renames.
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
        """Whether ``user_id`` is stored, without loading any model."""
        ...


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
            # Membership probe, not a directory scan.
            return self._backend.exists(user_id)
        return False

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration :meth:`enroll` trains under."""
        return self._config if self._config is not None else PipelineConfig()

    @property
    def options(self) -> EnrollmentOptions:
        """The enrollment options :meth:`enroll` trains under."""
        return self._options if self._options is not None else EnrollmentOptions()

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
    "RegistryBackend",
]
