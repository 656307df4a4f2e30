"""Exception hierarchy for the P2Auth reproduction.

Every error raised by this package derives from :class:`P2AuthError`, so
callers can catch one type at an API boundary. Subclasses distinguish
configuration mistakes from runtime signal/authentication failures.

Service contract
----------------

Every class carries a stable, machine-readable ``code`` — the string a
transport adapter puts in its error payloads — and
:data:`HTTP_STATUS_BY_ERROR` is the one canonical error→HTTP mapping
(``repro.service.http`` consumes it; nothing else defines statuses).
Codes and the mapping are part of the public API: tests pin that the
mapping is exhaustive over the taxonomy and that no subclass falls
through to 500 by accident (see ``tests/test_errors.py``).
"""

from __future__ import annotations

import math
from typing import ClassVar, Dict, Optional, Type


class P2AuthError(Exception):
    """Base class for all errors raised by the ``repro`` package."""

    #: Stable machine-readable identifier for transport error payloads.
    code: ClassVar[str] = "internal"


class ConfigurationError(P2AuthError):
    """An invalid parameter was supplied to a simulator or pipeline stage."""

    code: ClassVar[str] = "bad_request"


class SignalError(P2AuthError):
    """A signal-processing stage received data it cannot process.

    Examples: an empty recording, a window larger than the signal, or a
    sampling rate mismatch between recording and pipeline configuration.
    """

    code: ClassVar[str] = "bad_signal"


class SegmentationError(SignalError):
    """Keystroke segmentation could not produce a valid waveform window."""

    code: ClassVar[str] = "segmentation_failed"


class QualityError(SignalError):
    """A recording failed the signal-quality gate.

    Raised by the degradation policy when a trial is too damaged to
    score — not enough usable channels, a missing-sample gap beyond the
    repair budget, or keystroke artifacts invisible over the noise
    floor. Distinct from a *rejection*: the system refuses to make a
    biometric decision at all rather than decide on garbage.
    """

    code: ClassVar[str] = "quality_refused"


class EnrollmentError(P2AuthError):
    """User enrollment failed (e.g. too few samples to train a model)."""

    code: ClassVar[str] = "enrollment_failed"


class PersistenceError(EnrollmentError):
    """An enrolled model cannot be serialized or deserialized.

    Raised by :mod:`repro.core.packing` when packing is asked to handle
    a configuration outside the deployable rocket+ridge combination
    (e.g. the manual-feature baseline or a custom classifier), naming
    the unsupported ``(feature_method, classifier)`` pair, and when a
    stored blob or file is truncated or corrupt. Subclasses
    :class:`EnrollmentError` because the remedy for the first is the
    same — re-enroll under a serializable configuration.
    """

    code: ClassVar[str] = "persistence_failed"


class AuthenticationError(P2AuthError):
    """An authentication request was malformed (not a mere rejection).

    A *rejected* attempt is a normal outcome and is reported through
    :class:`repro.core.artifacts.AuthDecision`; this exception is for
    requests the system cannot evaluate at all, such as a trial whose PPG
    recording does not cover the keystroke timestamps.
    """

    code: ClassVar[str] = "auth_request_invalid"


class UnknownUserError(AuthenticationError):
    """A request named a user id the registry does not know."""

    code: ClassVar[str] = "unknown_user"


class LockoutError(AuthenticationError):
    """The retry ladder has locked the session.

    Sticky: the session stays locked until the deployment's fallback
    authentication path calls :meth:`~repro.core.session.SessionManager.unlock`.
    ``retry_after_s`` is therefore unbounded (``math.inf``) — transports
    translate it to a 429 without a finite ``Retry-After``.
    """

    code: ClassVar[str] = "locked_out"

    def __init__(self, message: str, retry_after_s: float = math.inf) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class BackoffError(AuthenticationError):
    """An entry arrived inside a retry backoff window.

    Transient: the same request succeeds once ``retry_after_s`` seconds
    have elapsed. Transports translate it to a 429 with a finite
    ``Retry-After`` header.
    """

    code: ClassVar[str] = "retry_backoff"

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ProtocolError(P2AuthError):
    """A wire request failed strict protocol validation.

    Raised by :mod:`repro.service.protocol` for malformed bodies:
    missing or unknown fields, wrong types, undecodable payloads.
    """

    code: ClassVar[str] = "protocol_error"


class PayloadTooLargeError(ProtocolError):
    """A request declared a body larger than the server accepts."""

    code: ClassVar[str] = "payload_too_large"


class ProofError(P2AuthError):
    """A PIN proof or enrollment window check failed.

    Covers a wrong HMAC proof during enrollment, a reused or expired
    enrollment window, and a stale/replayed nonce. Deliberately carries
    no detail about *which* check failed beyond the message — the wire
    error must not help an attacker distinguish "wrong PIN" from
    "expired window".
    """

    code: ClassVar[str] = "proof_rejected"


class NotFittedError(P2AuthError):
    """A model or transform was used before :meth:`fit` was called."""

    code: ClassVar[str] = "not_fitted"


class ConcurrencyError(P2AuthError):
    """A lock-discipline invariant was violated at runtime.

    Raised only under ``REPRO_CONCURRENCY_DEBUG=1`` (see
    :mod:`repro.concurrency`), when state declared ``guarded-by`` a lock
    is touched by a thread that does not hold that lock. In production
    the checks compile away to plain :class:`threading.RLock` usage.
    """

    code: ClassVar[str] = "concurrency_violation"


#: The canonical error→HTTP mapping. One table, consumed by every
#: transport adapter; resolution walks the exception MRO so a subclass
#: without its own row inherits its parent's status (pinned exhaustive
#: over the taxonomy by ``tests/test_errors.py``).
#:
#: Semantics: client mistakes are 4xx — malformed requests 400, unknown
#: users 404, failed proofs 403, oversized bodies 413,
#: unusable-but-well-formed signals 422
#: ("refused, retry with a cleaner capture"), throttling 429 — while
#: anything the client cannot fix by changing the request is a 500.
HTTP_STATUS_BY_ERROR: Dict[Type[P2AuthError], int] = {  # concurrency: immutable-after-init
    P2AuthError: 500,
    ConfigurationError: 400,
    ProtocolError: 400,
    PayloadTooLargeError: 413,
    ProofError: 403,
    SignalError: 422,
    SegmentationError: 422,
    QualityError: 422,
    EnrollmentError: 422,
    PersistenceError: 500,
    AuthenticationError: 400,
    UnknownUserError: 404,
    LockoutError: 429,
    BackoffError: 429,
    NotFittedError: 500,
    ConcurrencyError: 500,
}


def http_status_for(exc_type: Type[BaseException]) -> int:
    """The HTTP status for an error class, by MRO resolution.

    Walks the class's MRO until a :data:`HTTP_STATUS_BY_ERROR` row
    matches, so third-party subclasses inherit the nearest ancestor's
    status. Non-``P2AuthError`` types resolve to 500 (internal).
    """
    for base in exc_type.__mro__:
        if base in HTTP_STATUS_BY_ERROR:
            return HTTP_STATUS_BY_ERROR[base]
    return 500


def retry_after_s(exc: BaseException) -> Optional[float]:
    """The machine-readable retry delay an error carries, if any.

    Finite for :class:`BackoffError` (transports emit ``Retry-After``),
    ``None`` for indefinite lockouts and for errors without a delay.
    """
    delay = getattr(exc, "retry_after_s", None)
    if delay is None or not math.isfinite(delay):
        return None
    return float(delay)
