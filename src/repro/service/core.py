"""Transport-agnostic async service core over the model registry.

:class:`AuthService` is the facade every transport adapter (the stdlib
ASGI app, tests, the load harness) talks to. It owns:

- a :class:`~repro.core.registry.ModelRegistry` — the thread-safe
  template store and engine host;
- the :class:`~repro.core.enrollment.NegativeBank` every wire
  enrollment trains against, built once before the service starts;
- one :class:`~repro.core.session.SessionManager` per active user (the
  retry/lockout ladder), in an LRU of bounded size whose evictions
  carry the ladder over via
  :meth:`~repro.core.session.SessionManager.lockout_status` /
  ``restore_lockout`` — cycling other users through the service must
  never reset a lockout;
- the PIN-proof state: single-use time-bounded enrollment windows and
  per-user credentials (the enrolled PIN, held server-side as the trust
  anchor exactly like the far more sensitive biometric templates);
- striped per-user ``asyncio`` locks and a bounded thread pool: the
  sync engine runs off the event loop, same-user requests serialize
  (decisions bit-identical to a serial client), cross-user requests
  overlap.

Concurrency model: the service's own dicts and counters are touched
only from the event loop thread (single-loop service, the usual ASGI
shape); the engine objects it hands to pool threads are protected by
the stripe lock held across each offload, so no two pool threads ever
run the same user's session concurrently. The registry underneath
remains fully thread-safe on its own lock.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import math
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..core.enrollment import NegativeBank, _check_bank
from ..core.registry import ModelRegistry, _check_user_id
from ..core.session import LockoutStatus, RetryPolicy, SessionManager, SessionState
from ..errors import (
    ConfigurationError,
    EnrollmentError,
    ProofError,
    UnknownUserError,
)
from .protocol import (
    AuthRequest,
    AuthResponse,
    DEFAULT_PIN_LENGTH,
    EnrollBeginResponse,
    EnrollCompleteRequest,
    EnrollCompleteResponse,
    SessionStatusResponse,
    decode_trial,
    make_nonce,
    make_pin,
    verify_proof,
)

T = TypeVar("T")

#: A claimed PIN that can never verify (PinVerifier requires digits):
#: passed to the engine when the wire proof failed, so the decision is
#: the engine's own "PIN verification failed" short-circuit — produced
#: before any signal processing, bit-identical to a direct wrong-PIN
#: call — and the retry ladder advances normally.
_PIN_MISMATCH_SENTINEL = ""

#: Bound on the replayed-nonce memory (user_id, nonce) pairs.
_NONCE_CACHE_SIZE = 65536

#: Bound on open enrollment windows; beyond it the oldest is dropped.
#: Any client can already replace any user's window, so dropping one
#: grants nothing new.
_MAX_OPEN_WINDOWS = 4096


@dataclass
class EnrollmentWindow:
    """One single-use, time-bounded PIN-proof enrollment window."""

    user_id: str
    pin: str
    nonce: str
    expires_at: float
    attempts_left: int

    def expired(self, now: float) -> bool:
        return now > self.expires_at


class AuthService:  # concurrency: thread-hostile
    """Async authentication service over a model registry.

    Drive from one event loop; the class is not thread-safe itself
    (its engine offloads are — see the module docstring).

    Args:
        registry: the template store. May be pre-populated (a packed
            population); users enrolled out-of-band become servable
            through :meth:`adopt_user`.
        shared_negatives: the negative bank every wire enrollment
            trains against (negatives are a deployment asset and never
            cross the wire). Build it once, under the registry's
            pipeline config and enrollment options; a bank built under
            other settings raises :class:`ConfigurationError` here.
            Without a bank the service only authenticates:
            ``enroll_complete`` refuses after the proof check.
        retry: the per-user retry/lockout ladder policy; ``None``
            disables backoff and lockout (unlimited retries).
        stripes: number of per-user lock stripes. Same-stripe users
            serialize; more stripes, more cross-user concurrency.
        max_workers: bound on the engine thread pool.
        session_capacity: live :class:`SessionManager` bound; evicted
            sessions persist their ladder snapshot.
        enroll_ttl_s: enrollment window lifetime, seconds.
        enroll_max_attempts: failed proofs before a window burns.
        pin_length: digits in service-generated enrollment PINs.
        clock: monotone seconds source (injectable for tests).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        shared_negatives: Optional[NegativeBank] = None,
        retry: Optional[RetryPolicy] = RetryPolicy(),
        stripes: int = 64,
        max_workers: int = 4,
        session_capacity: int = 1024,
        enroll_ttl_s: float = 300.0,
        enroll_max_attempts: int = 3,
        pin_length: int = DEFAULT_PIN_LENGTH,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if stripes < 1:
            raise ConfigurationError(f"stripes must be >= 1, got {stripes}")
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if session_capacity < 1:
            raise ConfigurationError(
                f"session_capacity must be >= 1, got {session_capacity}"
            )
        if enroll_ttl_s <= 0:
            raise ConfigurationError(
                f"enroll_ttl_s must be > 0, got {enroll_ttl_s}"
            )
        if enroll_max_attempts < 1:
            raise ConfigurationError(
                f"enroll_max_attempts must be >= 1, got {enroll_max_attempts}"
            )
        if shared_negatives is not None:
            # Caught here, a mismatch would otherwise answer every
            # enrollment with a 422 the client cannot act on.
            try:
                _check_bank(shared_negatives, registry.config, registry.options)
            except EnrollmentError as err:
                raise ConfigurationError(
                    f"negative bank does not match the registry: {err}"
                ) from None
        self._registry = registry
        self._shared_negatives = shared_negatives
        self._retry = retry
        self._stripe_count = stripes
        self._session_capacity = session_capacity
        self._enroll_ttl_s = float(enroll_ttl_s)
        self._enroll_max_attempts = enroll_max_attempts
        self._pin_length = pin_length
        self._clock = clock
        self._max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="p2auth-svc"
        )
        # Event-loop-only state (single-loop service; see module doc).
        self._stripes_loop: Optional[asyncio.AbstractEventLoop] = None
        self._stripes: List[asyncio.Lock] = []
        self._credentials: Dict[str, str] = {}
        # Insertion order is expiry order: every window gets the same
        # TTL and a re-begin moves its user to the end.
        self._windows: Dict[str, EnrollmentWindow] = {}
        self._sessions: "OrderedDict[str, SessionManager]" = OrderedDict()
        self._ladders: Dict[str, LockoutStatus] = {}
        self._seen_nonces: "OrderedDict[Tuple[str, str], None]" = OrderedDict()
        self._counters: Dict[str, int] = {
            "requests": 0,
            "accepted": 0,
            "rejected": 0,
            "quality_refused": 0,
            "proof_failures": 0,
            "throttled": 0,
            "enrollments": 0,
            "nonce_replays": 0,
            "session_evictions": 0,
        }

    # -- infrastructure ---------------------------------------------------

    @property
    def registry(self) -> ModelRegistry:
        """The underlying template registry."""
        return self._registry

    def close(self) -> None:
        """Shut down the engine thread pool (idempotent)."""
        self._pool.shutdown(wait=True)

    def _stripe(self, user_id: str) -> asyncio.Lock:
        """The asyncio lock serializing requests for ``user_id``.

        Stripes are rebuilt when the running loop changes (tests often
        run one ``asyncio.run`` per case): locks are bound to the loop
        that first acquires them and cannot migrate.
        """
        loop = asyncio.get_running_loop()
        if loop is not self._stripes_loop:
            self._stripes_loop = loop
            self._stripes = [
                asyncio.Lock() for _ in range(self._stripe_count)
            ]
        digest = hashlib.blake2b(
            user_id.encode("utf-8"), digest_size=8
        ).digest()
        return self._stripes[int.from_bytes(digest, "big") % self._stripe_count]

    async def _offload(self, fn: Callable[[], T]) -> T:
        """Run sync engine work on the bounded pool, off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(self._pool, fn)

    def _check_nonce(self, user_id: str, nonce: str) -> None:
        key = (user_id, nonce)
        if key in self._seen_nonces:
            self._counters["nonce_replays"] += 1
            raise ProofError("nonce already used; proofs are single-use")
        self._seen_nonces[key] = None
        while len(self._seen_nonces) > _NONCE_CACHE_SIZE:
            self._seen_nonces.popitem(last=False)

    # -- enrollment (PIN-proof protocol) ----------------------------------

    def enroll_begin(self, user_id: str) -> EnrollBeginResponse:
        """Open a single-use enrollment window for ``user_id``.

        Generates the PIN and nonce server-side. The response is the
        out-of-band channel (the watch face shows the PIN to the user);
        the subsequent ``enroll/complete`` request only ever carries the
        HMAC proof. Re-opening a window replaces any previous one for
        the same user. Re-enrollment of an existing user is allowed —
        completing the new window replaces their templates.

        Open windows are bounded: each call first drops every expired
        window, and past :data:`_MAX_OPEN_WINDOWS` the oldest goes.
        """
        _check_user_id(user_id)
        now = self._clock()
        windows = self._windows
        while windows:
            oldest = next(iter(windows.values()))
            if not oldest.expired(now):
                break
            del windows[oldest.user_id]
        window = EnrollmentWindow(
            user_id=user_id,
            pin=make_pin(self._pin_length),
            nonce=make_nonce(),
            expires_at=now + self._enroll_ttl_s,
            attempts_left=self._enroll_max_attempts,
        )
        windows.pop(user_id, None)  # re-insert at the end: expiry order
        windows[user_id] = window
        while len(windows) > _MAX_OPEN_WINDOWS:
            del windows[next(iter(windows))]
        return EnrollBeginResponse(
            user_id=user_id,
            pin=window.pin,
            nonce=window.nonce,
            expires_at=window.expires_at,
        )

    async def enroll_complete(
        self, request: EnrollCompleteRequest
    ) -> EnrollCompleteResponse:
        """Verify the PIN proof and enroll the submitted trials.

        The window is single-use: consumed on success, burned after
        ``enroll_max_attempts`` failed proofs, and refused once its
        TTL elapsed. Trial decoding and enrollment (the expensive model
        training) run on the thread pool under the user's stripe lock,
        against the service's negative bank. A malformed trial raises
        :class:`~repro.errors.ProtocolError` from there and leaves the
        window open.
        """
        user_id = request.user_id
        _check_user_id(user_id)
        async with self._stripe(user_id):
            window = self._windows.get(user_id)
            if window is None:
                raise ProofError(f"no open enrollment window for {user_id!r}")
            if window.expired(self._clock()):
                del self._windows[user_id]
                raise ProofError("enrollment window expired; begin again")
            if not hmac.compare_digest(window.nonce, request.nonce):
                raise ProofError("enrollment nonce mismatch")
            if not verify_proof(
                window.pin, user_id, window.nonce, request.proof
            ):
                window.attempts_left -= 1
                self._counters["proof_failures"] += 1
                if window.attempts_left <= 0:
                    del self._windows[user_id]
                    raise ProofError(
                        "PIN proof rejected; enrollment window burned"
                    )
                raise ProofError("PIN proof rejected")
            bank = self._shared_negatives
            if bank is None:
                raise ConfigurationError(
                    "wire enrollment is disabled: this service was built "
                    "without a negative bank"
                )

            pin = window.pin
            wire_trials = request.trials

            def train() -> None:
                trials = [decode_trial(t, pin) for t in wire_trials]
                self._registry.enroll(
                    user_id, pin, trials, (), shared_negatives=bank
                )

            await self._offload(train)
            # Success consumes the window and rotates credentials;
            # any previous session belongs to the replaced templates.
            # While training ran, the window may have been replaced by a
            # new begin, swept or capped out; only this one is consumed.
            if self._windows.get(user_id) is window:
                del self._windows[user_id]
            self._credentials[user_id] = pin
            self._sessions.pop(user_id, None)
            self._ladders.pop(user_id, None)
            self._counters["enrollments"] += 1
            return EnrollCompleteResponse(
                user_id=user_id, enrolled=True, n_trials=len(wire_trials)
            )

    def adopt_user(self, user_id: str, pin: str) -> None:
        """Register credentials for a user enrolled out-of-band.

        The trusted-side bootstrap for pre-materialized registries
        (bulk-enrolled packed populations): the operator that built the
        templates also knows each user's PIN and hands it to the
        service directly — never over the wire path.
        """
        _check_user_id(user_id)
        if user_id not in self._registry:
            raise UnknownUserError(
                f"cannot adopt {user_id!r}: not in the registry"
            )
        self._credentials[user_id] = pin

    # -- authentication ---------------------------------------------------

    async def _session_for(self, user_id: str) -> SessionManager:
        """The user's live session, creating (and warming) it on demand.

        Registry misses load from the backend on the thread pool. A new
        session restores any ladder snapshot saved when a previous one
        was evicted, then gets transport-attested wear (the HTTP
        deployment trusts the watch's on-wrist signal; a restored
        lockout stays locked).
        """
        session = self._sessions.get(user_id)
        if session is not None:
            self._sessions.move_to_end(user_id)
            return session
        try:
            auth = await self._offload(lambda: self._registry.get(user_id))
        except KeyError:
            raise UnknownUserError(f"unknown user {user_id!r}") from None
        session = SessionManager(auth, retry=self._retry)
        snapshot = self._ladders.pop(user_id, None)
        if snapshot is not None:
            session.restore_lockout(snapshot)
        session.assume_worn()
        # reprolint: disable-next=RL011 -- the per-user stripe lock serializes every access; a session never sees two threads at once
        self._sessions[user_id] = session
        while len(self._sessions) > self._session_capacity:
            evicted_id, evicted = self._sessions.popitem(last=False)
            self._ladders[evicted_id] = evicted.lockout_status()
            self._counters["session_evictions"] += 1
        return session

    async def authenticate(self, request: AuthRequest) -> AuthResponse:
        """Run one wire authentication attempt end to end.

        Proof verification, trial reconstruction, and the engine call
        all happen under the user's stripe lock, so same-user attempts
        serialize (ladder order is well-defined) while other users
        proceed on their own stripes. The engine decision is the
        registry's own — bit-identical to a direct
        :meth:`ModelRegistry.authenticate` call with the same trial.
        """
        user_id = request.user_id
        _check_user_id(user_id)
        self._counters["requests"] += 1
        async with self._stripe(user_id):
            pin = self._credentials.get(user_id)
            if pin is None:
                if user_id in self._registry:
                    raise ProofError(
                        f"no service credentials for {user_id!r}; "
                        "enroll through the service or adopt_user()"
                    )
                raise UnknownUserError(f"unknown user {user_id!r}")
            self._check_nonce(user_id, request.nonce)
            proof_ok = verify_proof(pin, user_id, request.nonce, request.proof)
            if not proof_ok:
                self._counters["proof_failures"] += 1
            session = await self._session_for(user_id)
            claimed = pin if proof_ok else _PIN_MISMATCH_SENTINEL
            now = self._clock()
            wire_trial = request.trial

            def attempt():
                trial = decode_trial(wire_trial, pin)
                return session.submit_entry(trial, claimed_pin=claimed, now=now)

            try:
                decision = await self._offload(attempt)
            except Exception as err:
                self._count_refusal(err)
                raise
            if decision.accepted:
                self._counters["accepted"] += 1
            else:
                self._counters["rejected"] += 1
            status = session.lockout_status(now)
            return AuthResponse(
                user_id=user_id,
                accepted=decision.accepted,
                reason=decision.reason,
                pin_ok=decision.pin_ok,
                input_case=(
                    None
                    if decision.input_case is None
                    else decision.input_case.value
                ),
                scores=tuple(decision.scores),
                passes=tuple(decision.passes),
                degradation=tuple(
                    {
                        "stage": e.stage,
                        "action": e.action,
                        "detail": e.detail,
                    }
                    for e in decision.degradation
                ),
                session_state=session.state.value,
                failures=status.failures,
                retry_after_s=(
                    0.0
                    if not math.isfinite(status.retry_after_s)
                    else status.retry_after_s
                ),
            )

    def _count_refusal(self, err: Exception) -> None:
        from ..errors import BackoffError, LockoutError, QualityError

        if isinstance(err, QualityError):
            self._counters["quality_refused"] += 1
        elif isinstance(err, (BackoffError, LockoutError)):
            self._counters["throttled"] += 1

    # -- session & admin --------------------------------------------------

    async def session_status(self, user_id: str) -> SessionStatusResponse:
        """The user's session/ladder state without submitting an entry."""
        _check_user_id(user_id)
        async with self._stripe(user_id):
            session = self._sessions.get(user_id)
            if session is not None:
                status = session.lockout_status(self._clock())
                return SessionStatusResponse(
                    user_id=user_id,
                    state=session.state.value,
                    authenticated=session.authenticated,
                    locked=status.locked,
                    failures=status.failures,
                    max_failures=status.max_failures,
                    retry_after_s=(
                        None
                        if not math.isfinite(status.retry_after_s)
                        else status.retry_after_s
                    ),
                )
            snapshot = self._ladders.get(user_id)
            if snapshot is None and user_id not in self._registry:
                raise UnknownUserError(f"unknown user {user_id!r}")
            locked = snapshot.locked if snapshot is not None else False
            return SessionStatusResponse(
                user_id=user_id,
                state=(
                    SessionState.LOCKED.value
                    if locked
                    else SessionState.OFF_WRIST.value
                ),
                authenticated=False,
                locked=locked,
                failures=snapshot.failures if snapshot is not None else 0,
                max_failures=(
                    None if self._retry is None else self._retry.max_failures
                ),
                retry_after_s=None if locked else 0.0,
            )

    async def unlock(self, user_id: str, reason: str = "admin unlock") -> None:
        """Clear a lockout through the fallback authentication path."""
        _check_user_id(user_id)
        async with self._stripe(user_id):
            self._ladders.pop(user_id, None)
            session = self._sessions.get(user_id)
            if session is None:
                if user_id not in self._registry:
                    raise UnknownUserError(f"unknown user {user_id!r}")
                return
            session.unlock(reason)
            session.assume_worn("re-attested after unlock")

    def stats(self) -> Dict[str, Any]:
        """Service + registry observability snapshot (admin endpoint)."""
        registry = self._registry.describe()
        registry["warm_users"] = len(self._registry.warm_users())
        return {
            "registry": registry,
            "service": dict(self._counters),
            "sessions": {
                "live": len(self._sessions),
                "capacity": self._session_capacity,
                "saved_ladders": len(self._ladders),
            },
            "config": {
                "stripes": self._stripe_count,
                "max_workers": self._max_workers,
                "retry": (
                    None
                    if self._retry is None
                    else {
                        "max_failures": self._retry.max_failures,
                        "backoff_base_s": self._retry.backoff_base_s,
                        "backoff_factor": self._retry.backoff_factor,
                        "max_backoff_s": self._retry.max_backoff_s,
                    }
                ),
                "enroll_ttl_s": self._enroll_ttl_s,
            },
        }

    def list_users(self) -> List[str]:
        """All user ids the registry knows (admin endpoint)."""
        return self._registry.list_users()

    async def warm(self, user_ids: Sequence[str]) -> int:
        """Load the given users into registry memory (cold→warm split).

        Returns the number of users now warm. Loads fan out over the
        engine pool; unknown ids raise :class:`UnknownUserError`.
        """

        def load(uid: str) -> None:
            try:
                self._registry.get(uid)
            except KeyError:
                raise UnknownUserError(f"unknown user {uid!r}") from None

        await asyncio.gather(
            *(self._offload(lambda uid=uid: load(uid)) for uid in user_ids)
        )
        return len(self._registry.warm_users())


__all__ = ["AuthService", "EnrollmentWindow"]
