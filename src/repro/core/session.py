"""Session management: the paper's deployment story as a state machine.

Section VI sketches how P2Auth is used in practice: the user
authenticates at the moment of putting the watch on; afterwards,
continued wear is tracked from the heart-rate status; removing the
watch invalidates the session, and sensitive actions (payments)
require a fresh authentication regardless.

:class:`SessionManager` encodes that lifecycle::

    OFF_WRIST ──wear detected──► WORN ──entry accepted──► AUTHENTICATED
        ▲                         │  ▲                        │
        └───────wear lost─────────┘  └──reauth required───────┘
        ▲                                                     │
        └──────────────────wear lost──────────────────────────┘

On top of the lifecycle sits a bounded re-prompt ladder
(:class:`RetryPolicy`): consecutive failed entries back off
exponentially, and too many failures lock the session until an
explicit :meth:`SessionManager.unlock` (the deployment's fallback
authentication path). Degradation-ladder rungs taken by the
authenticator (gap repair, channel fallback, quality gate — see
:mod:`repro.core.degradation`) are copied into the session audit log as
structured :class:`SessionEvent` entries. The log keeps the newest
:data:`LOG_CAPACITY` events, so a long-lived session stays bounded.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from ..errors import (
    AuthenticationError,
    BackoffError,
    ConfigurationError,
    LockoutError,
    QualityError,
)
from ..types import PinEntryTrial, PPGRecording
from .artifacts import AuthDecision
from .authenticator import P2Auth
from .wear import WearStatus, detect_wear

#: Events a session's audit log keeps; older ones are dropped first.
LOG_CAPACITY = 256


class SessionState(enum.Enum):
    """Lifecycle states of a wearable authentication session."""

    OFF_WRIST = "off_wrist"
    WORN = "worn"
    AUTHENTICATED = "authenticated"
    LOCKED = "locked"


@dataclass(frozen=True)
class SessionEvent:
    """One entry in the session audit log.

    Attributes:
        kind: "wear_check", "entry", "reauth_required", "degradation",
            "backoff", "lockout", or "unlock".
        state: the state *after* the event.
        detail: human-readable description.
    """

    kind: str
    state: SessionState
    detail: str


@dataclass(frozen=True)
class LockoutStatus:
    """Queryable snapshot of the retry ladder (no event-log parsing).

    Attributes:
        locked: whether the ladder has locked the session.
        failures: consecutive failed entries since the last success or
            unlock.
        max_failures: the policy's lockout threshold, or ``None`` when
            no retry policy is configured (unlimited retries).
        not_before: earliest time (session clock) the next entry may be
            submitted; ``0.0`` when no backoff is pending.
        retry_after_s: seconds until the next entry is admissible, as
            of the query's ``now``: ``0.0`` when an entry may be
            submitted immediately, finite during a backoff window, and
            ``math.inf`` while locked (a lockout only clears through
            :meth:`SessionManager.unlock`). This is the number a
            transport puts in a 429 ``Retry-After`` header.
    """

    locked: bool
    failures: int
    max_failures: Optional[int]
    not_before: float
    retry_after_s: float


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-prompt ladder for failed PIN entries.

    Attributes:
        max_failures: consecutive failed entries (rejections or quality
            rejections) before the session locks.
        backoff_base_s: delay imposed after the first failure, seconds.
        backoff_factor: multiplier applied per additional failure.
        max_backoff_s: backoff ceiling, seconds.
    """

    max_failures: int = 5
    backoff_base_s: float = 1.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_failures < 1:
            raise ConfigurationError("max_failures must be >= 1")
        if self.backoff_base_s < 0 or self.max_backoff_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")

    def backoff(self, failures: int) -> float:
        """Delay before the next attempt after ``failures`` consecutive
        failures (exponential, capped)."""
        if failures <= 0:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** (failures - 1)
        return float(min(self.max_backoff_s, delay))


class SessionManager:  # concurrency: thread-hostile
    """Drives an enrolled authenticator through the session lifecycle.

    A manager models one user's session state machine and is not
    thread-safe; drive it from a single thread (the wrapped ``P2Auth``
    may still be shared elsewhere).

    Args:
        auth: an enrolled :class:`P2Auth`.
        wear_threshold: confidence threshold forwarded to
            :func:`~repro.core.wear.detect_wear`.
        retry: bounded re-prompt ladder; ``None`` (the default)
            preserves the unlimited-retry behaviour.

    The manager is deliberately conservative: any loss of wear —
    however brief — drops the session to ``OFF_WRIST``, and PIN entries
    are only evaluated while the watch is worn (an off-wrist trial is
    by definition not the wearer's biometric). With a retry policy, a
    locked session stays locked through wear changes until
    :meth:`unlock` — re-wearing the watch must not reset the ladder.

    Entry timing for the backoff ladder comes from the ``now`` argument
    of :meth:`submit_entry` (wall-clock seconds); when omitted, an
    internal logical clock advancing one second per submission stands
    in, keeping tests and simulations deterministic.
    """

    def __init__(
        self,
        auth: P2Auth,
        wear_threshold: float = 0.25,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not auth.enrolled:
            raise AuthenticationError("enroll a user before starting a session")
        self._auth = auth
        self._wear_threshold = wear_threshold
        self._retry = retry
        self._state = SessionState.OFF_WRIST
        self._log: Deque[SessionEvent] = deque(maxlen=LOG_CAPACITY)
        self._failures = 0
        self._not_before = 0.0
        self._clock = 0.0
        self._last_now = 0.0

    @property
    def state(self) -> SessionState:
        """Current session state."""
        return self._state

    @property
    def authenticated(self) -> bool:
        """Whether the session is currently authenticated."""
        return self._state is SessionState.AUTHENTICATED

    @property
    def locked(self) -> bool:
        """Whether the retry ladder has locked the session."""
        return self._state is SessionState.LOCKED

    @property
    def consecutive_failures(self) -> int:
        """Failed entries since the last success (or unlock)."""
        return self._failures

    @property
    def retry_not_before(self) -> float:
        """Earliest time the next entry may be submitted (backoff)."""
        return self._not_before

    @property
    def log(self) -> Tuple[SessionEvent, ...]:
        """The newest :data:`LOG_CAPACITY` audit events, oldest first."""
        return tuple(self._log)

    def lockout_status(self, now: Optional[float] = None) -> LockoutStatus:
        """The retry ladder's state as a queryable snapshot.

        A pure query: neither the session clock nor the ladder moves.
        ``now`` defaults to the last time observed by
        :meth:`submit_entry` (the session's monotone watermark), so a
        caller that always supplies wall-clock times gets wall-clock
        ``retry_after_s`` values; like the submission path, a ``now``
        behind the watermark is clamped up to it.

        This is the API transports use to populate a 429
        ``Retry-After`` header — it replaces parsing "backoff" /
        "lockout" events out of :attr:`log`.
        """
        if now is None:
            effective = self._last_now
        elif not math.isfinite(now):
            raise ConfigurationError(f"query time must be finite, got {now!r}")
        else:
            effective = max(float(now), self._last_now)
        if self._state is SessionState.LOCKED:
            retry_after = math.inf
        elif self._retry is None:
            retry_after = 0.0
        else:
            retry_after = max(0.0, self._not_before - effective)
        return LockoutStatus(
            locked=self._state is SessionState.LOCKED,
            failures=self._failures,
            max_failures=(
                None if self._retry is None else self._retry.max_failures
            ),
            not_before=self._not_before,
            retry_after_s=retry_after,
        )

    def restore_lockout(self, status: LockoutStatus) -> None:
        """Re-arm the retry ladder from a :class:`LockoutStatus` snapshot.

        The inverse of :meth:`lockout_status`, for hosts that bound how
        many live sessions they keep (the service layer's session-slot
        LRU): evicting a session must not forget its ladder, or an
        attacker could reset a lockout by cycling enough other users
        through the host. Restoring a locked snapshot locks this
        session; restoring counters re-arms backoff at the recorded
        ``not_before``. Wear state is deliberately untouched — only the
        ladder survives eviction.
        """
        if status.failures < 0:
            raise ConfigurationError(
                f"failures must be >= 0, got {status.failures}"
            )
        if not math.isfinite(status.not_before) or status.not_before < 0:
            raise ConfigurationError(
                f"not_before must be finite and >= 0, got {status.not_before!r}"
            )
        # The watermark is NOT advanced to ``not_before``: the snapshot
        # puts that instant in the future, and clamping queries up to it
        # would make the restored backoff window appear already elapsed.
        self._failures = status.failures
        self._not_before = status.not_before
        if status.locked:
            self._state = SessionState.LOCKED
            self._record(
                "lockout", "restored locked ladder from snapshot"
            )
        elif status.failures or status.not_before:
            self._record(
                "backoff",
                f"restored ladder snapshot ({status.failures} failures, "
                f"not before {status.not_before:.1f})",
            )

    def assume_worn(self, detail: str = "transport-attested wear") -> None:
        """Trusted ``OFF_WRIST -> WORN`` transition without a recording.

        For transports whose wear detection runs device-side (the HTTP
        service trusts the watch's own on-wrist attestation rather than
        shipping quiescent PPG stretches per request). A ``LOCKED``
        session stays locked — attestation must not bypass the retry
        ladder — and any other state is left unchanged.
        """
        if self._state is SessionState.OFF_WRIST:
            self._state = SessionState.WORN
            self._record("wear_check", f"assumed worn: {detail}")
        else:
            self._record(
                "wear_check", f"assume_worn no-op in {self._state.value}"
            )

    def _record(self, kind: str, detail: str) -> None:
        self._log.append(SessionEvent(kind=kind, state=self._state, detail=detail))

    def process_wear_check(self, recording: PPGRecording) -> WearStatus:
        """Feed a periodic quiescent PPG stretch through wear detection.

        Transitions: gaining wear moves ``OFF_WRIST -> WORN``; losing
        wear drops any state to ``OFF_WRIST`` (ending an authenticated
        session, as the paper's removal rule requires). A ``LOCKED``
        session records the check but never transitions — re-wearing
        the watch must not bypass the retry ladder.
        """
        status = detect_wear(
            recording, self._auth.config, threshold=self._wear_threshold
        )
        if self._state is SessionState.LOCKED:
            self._record(
                "wear_check",
                f"ignored while locked (worn={status.worn})",
            )
        elif status.worn and self._state is SessionState.OFF_WRIST:
            self._state = SessionState.WORN
            self._record(
                "wear_check",
                f"wear detected (hr ~{status.heart_rate_bpm:.0f} bpm)",
            )
        elif not status.worn and self._state is not SessionState.OFF_WRIST:
            was_authenticated = self._state is SessionState.AUTHENTICATED
            self._state = SessionState.OFF_WRIST
            self._record(
                "wear_check",
                "wear lost"
                + ("; authenticated session ended" if was_authenticated else ""),
            )
        else:
            self._record(
                "wear_check",
                f"no change (worn={status.worn}, "
                f"confidence {status.confidence:.2f})",
            )
        return status

    def _register_failure(self, now: float) -> None:
        """Advance the retry ladder after a failed entry."""
        self._failures += 1
        if self._retry is None:
            return
        if self._failures >= self._retry.max_failures:
            self._state = SessionState.LOCKED
            self._record(
                "lockout",
                f"{self._failures} consecutive failures; session locked "
                "until explicit unlock",
            )
            return
        delay = self._retry.backoff(self._failures)
        if delay > 0:
            self._not_before = now + delay
            self._record(
                "backoff",
                f"failure {self._failures}/{self._retry.max_failures}; "
                f"next entry no earlier than +{delay:.1f}s",
            )

    def submit_entry(
        self,
        trial: PinEntryTrial,
        claimed_pin: Optional[str] = None,
        now: Optional[float] = None,
    ) -> AuthDecision:
        """Evaluate a PIN entry within the session.

        Args:
            trial: the PIN-entry trial.
            claimed_pin: the PIN the typist entered; defaults to the
                digits recorded in the trial.
            now: wall-clock time of the attempt, seconds, for the
                backoff ladder; defaults to an internal logical clock
                advancing 1 s per submission. Over a long session the
                clock is kept monotone: a ``now`` earlier than a
                previously observed time (clock adjustment, suspend
                skew) is clamped up to it, so a stale timestamp can
                neither re-open an elapsed backoff window nor rewind
                the ladder.

        Raises:
            ConfigurationError: on a non-finite ``now`` — a NaN would
                silently disarm every backoff comparison and poison
                ``retry_not_before`` for the rest of the session.
            AuthenticationError: when the watch is not worn (an
                off-wrist entry cannot carry the wearer's biometric).
            LockoutError: when the session is locked (sticky until
                :meth:`unlock`; maps to HTTP 429 without Retry-After).
            BackoffError: when the attempt lands inside a retry
                backoff window; carries the remaining delay as
                ``retry_after_s`` (maps to HTTP 429 + Retry-After).
            QualityError: when the authenticator's degradation policy
                refuses the trial; counts as a failed attempt on the
                retry ladder (the user is re-prompted, not rejected).
        """
        if now is None:
            now = self._clock
        elif not math.isfinite(now):
            raise ConfigurationError(
                f"entry time must be finite, got {now!r}"
            )
        now = max(float(now), self._last_now)
        self._last_now = now
        self._clock = max(self._clock, now) + 1.0
        if self._state is SessionState.LOCKED:
            self._record("entry", "refused: session is locked")
            raise LockoutError(
                "session is locked after too many failed entries; unlock "
                "through the fallback authentication path"
            )
        if self._retry is not None and now < self._not_before:
            remaining = self._not_before - now
            self._record(
                "entry",
                f"refused: retry backoff for another {remaining:.1f}s",
            )
            raise BackoffError(
                f"retry backoff in effect; wait another {remaining:.1f}s",
                retry_after_s=remaining,
            )
        if self._state is SessionState.OFF_WRIST:
            raise AuthenticationError(
                "cannot authenticate while the watch is off-wrist"
            )
        try:
            decision = self._auth.authenticate(trial, claimed_pin=claimed_pin)
        except QualityError as err:
            self._record("entry", f"quality rejection: {err}")
            self._register_failure(now)
            raise
        for event in decision.degradation:
            self._record(
                "degradation", f"{event.stage}: {event.action} ({event.detail})"
            )
        if decision.accepted:
            self._failures = 0
            self._not_before = 0.0
            self._state = SessionState.AUTHENTICATED
            self._record("entry", f"accepted: {decision.reason}")
        else:
            self._record("entry", f"rejected: {decision.reason}")
            self._register_failure(now)
        return decision

    def unlock(self, reason: str = "fallback authentication") -> None:
        """Clear a lockout after out-of-band verification.

        The deployment story's escape hatch: the phone-side fallback
        (e.g. account password) vouches for the user, the ladder
        resets, and the session returns to ``OFF_WRIST`` — wear and a
        fresh PIN entry are still required.
        """
        if self._state is not SessionState.LOCKED:
            self._record("unlock", f"no-op: not locked ({reason})")
            return
        self._failures = 0
        self._not_before = 0.0
        self._state = SessionState.OFF_WRIST
        self._record("unlock", reason)

    def require_reauth(self, reason: str = "sensitive action") -> None:
        """Demote an authenticated session to WORN (step-up auth).

        The paper's payments example: routine wear keeps the session,
        but sensitive actions demand a fresh PIN entry.
        """
        if self._state is SessionState.AUTHENTICATED:
            self._state = SessionState.WORN
        self._record("reauth_required", reason)
