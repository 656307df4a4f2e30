"""Wire protocol: typed requests/responses and PIN-proof crypto.

Everything that crosses a transport boundary is defined here — strict
parsers that reject unknown or mistyped fields with
:class:`~repro.errors.ProtocolError`, dataclasses for each endpoint's
request and response, and the stdlib-only crypto for the PIN-proof
protocol.

The PIN-proof protocol (adapted from the mesh-enrollment design the
roadmap names): the raw PIN **never appears in a request body**.

- *Enrollment*: the service creates a single-use, time-bounded window
  holding a freshly generated PIN and nonce. The PIN reaches the user
  out of band (the watch face — modelled as the ``enroll/begin``
  *response*, which flows to the trusted device, not over the probe
  path). The client proves knowledge with
  ``HMAC-SHA256(key=pin, msg=user_id || "|" || nonce)``.
- *Authentication*: the typed PIN again stays client-side; the request
  carries a fresh client nonce and the same HMAC shape. The service —
  which holds the enrolled PIN as the trust anchor, exactly like it
  holds the far more sensitive biometric templates — recomputes and
  compares in constant time, and rejects replayed nonces.
- *Trials on the wire* carry keystroke timing and PPG samples but no
  digit labels: the per-event keys are re-attached server-side from the
  PIN the proof was verified against, reconstructing a trial
  bit-identical to the device-side capture.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import math
import secrets
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ProtocolError
from ..types import (
    ChannelInfo,
    Hand,
    KeystrokeEvent,
    PinEntryTrial,
    PPGRecording,
    Wavelength,
)

#: Bytes of entropy in a wire nonce (hex-encoded to twice this length).
NONCE_BYTES = 16

#: Digits in a service-generated enrollment PIN.
DEFAULT_PIN_LENGTH = 4

#: Longest ``nonce`` or ``proof`` a request may carry. Clients send 32
#: hex characters of nonce and 64 of proof; the bound keeps the replay
#: cache, which holds every nonce it has seen, small per entry.
MAX_TOKEN_CHARS = 128


# ---------------------------------------------------------------------------
# Crypto helpers (stdlib only)
# ---------------------------------------------------------------------------


def make_nonce() -> str:
    """A fresh unpredictable nonce, hex-encoded."""
    return secrets.token_hex(NONCE_BYTES)


def make_pin(length: int = DEFAULT_PIN_LENGTH) -> str:
    """A service-generated enrollment PIN of ``length`` digits."""
    if length < 1:
        raise ProtocolError(f"PIN length must be >= 1, got {length}")
    return "".join(secrets.choice("0123456789") for _ in range(length))


def pin_proof(pin: str, user_id: str, nonce: str) -> str:
    """``HMAC-SHA256(key=pin, msg=user_id || "|" || nonce)``, hex.

    Computed client-side from the typed PIN; verified server-side
    against the enrolled PIN. The PIN never crosses the wire, but the
    key is a 4-digit PIN: one captured proof, user id and nonce give
    it up in at most 10^4 HMACs. The service assumes TLS on every hop;
    the proof is no defence against an observer without it.
    """
    msg = user_id.encode("utf-8") + b"|" + nonce.encode("utf-8")
    return hmac.new(pin.encode("utf-8"), msg, hashlib.sha256).hexdigest()


def verify_proof(pin: str, user_id: str, nonce: str, proof: str) -> bool:
    """Constant-time check of a claimed :func:`pin_proof` against ``pin``."""
    return hmac.compare_digest(pin_proof(pin, user_id, nonce), str(proof))


# ---------------------------------------------------------------------------
# Strict parsing helpers
# ---------------------------------------------------------------------------


def _require_mapping(obj: Any, ctx: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ProtocolError(f"{ctx}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(payload: Mapping[str, Any], allowed: Sequence[str], ctx: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ProtocolError(f"{ctx}: unknown field(s) {', '.join(unknown)}")


def _get(
    payload: Mapping[str, Any],
    name: str,
    types: tuple,
    ctx: str,
    required: bool = True,
    default: Any = None,
) -> Any:
    if name not in payload:
        if required:
            raise ProtocolError(f"{ctx}: missing required field {name!r}")
        return default
    value = payload[name]
    # bool is an int subclass; require explicit bools only where asked.
    if isinstance(value, bool) and bool not in types:
        raise ProtocolError(f"{ctx}: field {name!r} must not be a boolean")
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in types)
        raise ProtocolError(
            f"{ctx}: field {name!r} must be {names}, got {type(value).__name__}"
        )
    return value


def _get_float(payload: Mapping[str, Any], name: str, ctx: str) -> float:
    value = _get(payload, name, (int, float), ctx)
    try:
        number = float(value)
    except OverflowError:  # an int past float range
        number = math.inf
    if not math.isfinite(number):  # json.loads also yields NaN, Infinity
        raise ProtocolError(f"{ctx}: field {name!r} must be a finite number")
    return number


def _get_str(payload: Mapping[str, Any], name: str, ctx: str) -> str:
    value = _get(payload, name, (str,), ctx)
    if not value:
        raise ProtocolError(f"{ctx}: field {name!r} must be non-empty")
    return value


def _get_token(payload: Mapping[str, Any], name: str, ctx: str) -> str:
    """A ``nonce`` or ``proof``: 1 to :data:`MAX_TOKEN_CHARS` printable
    ASCII characters, so the HMAC and ``compare_digest`` never see
    anything else."""
    value = _get_str(payload, name, ctx)
    if not (
        len(value) <= MAX_TOKEN_CHARS and value.isascii() and value.isprintable()
    ):
        raise ProtocolError(
            f"{ctx}: field {name!r} must be 1-{MAX_TOKEN_CHARS} printable "
            "ASCII characters"
        )
    return value


# ---------------------------------------------------------------------------
# Trial encoding: keystroke timing + PPG samples, no digit labels
# ---------------------------------------------------------------------------


def encode_trial(trial: PinEntryTrial) -> Dict[str, Any]:
    """Serialize a trial for the wire, stripping the knowledge factor.

    The payload carries the PPG recording (float64 bytes, base64),
    per-event timing and hand, and the one-handed flag — but neither
    the typed PIN string nor the per-event digit labels.
    :func:`decode_trial` re-attaches digits server-side after the PIN
    proof verifies, making the round trip bit-identical.
    """
    if trial.accel is not None:
        raise ProtocolError(
            "accelerometer streams are not supported on the wire; "
            "strip the accel recording before encoding"
        )
    rec = trial.recording
    samples = np.ascontiguousarray(rec.samples, dtype=np.float64)
    return {
        "recording": {
            "fs": float(rec.fs),
            "start_time": float(rec.start_time),
            "shape": [int(samples.shape[0]), int(samples.shape[1])],
            "channels": [
                {"site": info.sensor_site, "wavelength": info.wavelength.value}
                for info in rec.channels
            ],
            "samples_b64": base64.b64encode(samples.tobytes()).decode("ascii"),
        },
        "events": [
            {
                "true_time": float(e.true_time),
                "reported_time": float(e.reported_time),
                "hand": e.hand.value,
            }
            for e in trial.events
        ],
        "one_handed": bool(trial.one_handed),
        "typist": int(trial.user_id),
    }


def _decode_recording(payload: Mapping[str, Any], ctx: str) -> PPGRecording:
    rec = _require_mapping(payload, ctx)
    _reject_unknown(
        rec, ("fs", "start_time", "shape", "channels", "samples_b64"), ctx
    )
    fs = _get_float(rec, "fs", ctx)
    start_time = _get_float(rec, "start_time", ctx)
    shape = _get(rec, "shape", (list, tuple), ctx)
    if len(shape) != 2 or not all(isinstance(d, int) and d > 0 for d in shape):
        raise ProtocolError(f"{ctx}: shape must be two positive integers")
    channels_raw = _get(rec, "channels", (list, tuple), ctx)
    channels: List[ChannelInfo] = []
    for i, ch in enumerate(channels_raw):
        cctx = f"{ctx}.channels[{i}]"
        ch = _require_mapping(ch, cctx)
        _reject_unknown(ch, ("site", "wavelength"), cctx)
        wavelength = _get_str(ch, "wavelength", cctx)
        try:
            wl = Wavelength(wavelength)
        except ValueError:
            raise ProtocolError(
                f"{cctx}: unknown wavelength {wavelength!r}"
            ) from None
        channels.append(
            ChannelInfo(sensor_site=_get(ch, "site", (int,), cctx), wavelength=wl)
        )
    encoded = _get_str(rec, "samples_b64", ctx)
    try:
        raw = base64.b64decode(encoded.encode("ascii"), validate=True)
    except Exception:
        raise ProtocolError(f"{ctx}: samples_b64 is not valid base64") from None
    expected = int(shape[0]) * int(shape[1]) * 8
    if len(raw) != expected:
        raise ProtocolError(
            f"{ctx}: payload holds {len(raw)} bytes but shape {tuple(shape)} "
            f"needs {expected}"
        )
    samples = (
        np.frombuffer(raw, dtype=np.float64)
        .reshape(int(shape[0]), int(shape[1]))
        .copy()
    )
    return PPGRecording(
        samples=samples, fs=fs, channels=tuple(channels), start_time=start_time
    )


def decode_trial(payload: Mapping[str, Any], pin: str) -> PinEntryTrial:
    """Reconstruct a :class:`PinEntryTrial` from a wire payload.

    ``pin`` supplies the digit labels the wire deliberately omits: the
    i-th event gets the i-th digit. Only called after the request's PIN
    proof verified against the same ``pin`` (or, on a failed proof,
    with the enrolled PIN purely to shape the rejected trial — the
    engine then short-circuits on the sentinel claim before any signal
    processing).

    Raises:
        ProtocolError: on any structural mismatch, including an event
            count that disagrees with the PIN length, or a
            ``reported_time`` outside the recording
            (``[start_time, start_time + n_samples / fs]``), which
            calibration would otherwise clamp onto its first or last
            sample.
    """
    ctx = "trial"
    trial = _require_mapping(payload, ctx)
    _reject_unknown(
        trial, ("recording", "events", "one_handed", "typist"), ctx
    )
    recording = _decode_recording(
        _get(trial, "recording", (Mapping,), ctx), f"{ctx}.recording"
    )
    events_raw = _get(trial, "events", (list, tuple), ctx)
    if len(events_raw) != len(pin):
        raise ProtocolError(
            f"{ctx}: {len(events_raw)} keystroke events for a "
            f"{len(pin)}-digit PIN"
        )
    start = recording.start_time
    end = start + recording.n_samples / recording.fs
    events: List[KeystrokeEvent] = []
    for i, (ev, digit) in enumerate(zip(events_raw, pin)):
        ectx = f"{ctx}.events[{i}]"
        ev = _require_mapping(ev, ectx)
        _reject_unknown(ev, ("true_time", "reported_time", "hand"), ectx)
        hand_raw = _get_str(ev, "hand", ectx)
        try:
            hand = Hand(hand_raw)
        except ValueError:
            raise ProtocolError(f"{ectx}: unknown hand {hand_raw!r}") from None
        true_time = _get_float(ev, "true_time", ectx)
        reported_time = _get_float(ev, "reported_time", ectx)
        if not start <= reported_time <= end:
            raise ProtocolError(
                f"{ectx}: reported_time {reported_time!r} lies outside the "
                f"recording [{start!r}, {end!r}]"
            )
        events.append(
            KeystrokeEvent(
                key=digit,
                true_time=true_time,
                reported_time=reported_time,
                hand=hand,
            )
        )
    return PinEntryTrial(
        recording=recording,
        events=tuple(events),
        pin=pin,
        user_id=_get(trial, "typist", (int,), ctx, required=False, default=0),
        one_handed=_get(
            trial, "one_handed", (bool,), ctx, required=False, default=True
        ),
    )


# ---------------------------------------------------------------------------
# Request / response dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnrollBeginRequest:
    """Open a single-use enrollment window for ``user_id``."""

    user_id: str

    @classmethod
    def parse(cls, payload: Any) -> "EnrollBeginRequest":
        body = _require_mapping(payload, "enroll/begin")
        _reject_unknown(body, ("user_id",), "enroll/begin")
        return cls(user_id=_get_str(body, "user_id", "enroll/begin"))


@dataclass(frozen=True)
class EnrollBeginResponse:
    """The opened window. ``pin`` models the out-of-band watch display."""

    user_id: str
    pin: str
    nonce: str
    expires_at: float

    def to_wire(self) -> Dict[str, Any]:
        return {
            "user_id": self.user_id,
            "pin": self.pin,
            "nonce": self.nonce,
            "expires_at": self.expires_at,
        }


@dataclass(frozen=True)
class EnrollCompleteRequest:
    """Enrollment trials plus the PIN proof for an open window.

    ``trials`` stay as raw wire payloads here: digit labels can only be
    re-attached once the service has matched the window and verified
    the proof against its PIN.
    """

    user_id: str
    nonce: str
    proof: str
    trials: Tuple[Mapping[str, Any], ...]

    @classmethod
    def parse(cls, payload: Any) -> "EnrollCompleteRequest":
        ctx = "enroll/complete"
        body = _require_mapping(payload, ctx)
        _reject_unknown(body, ("user_id", "nonce", "proof", "trials"), ctx)
        trials = _get(body, "trials", (list, tuple), ctx)
        if not trials:
            raise ProtocolError(f"{ctx}: trials must be non-empty")
        return cls(
            user_id=_get_str(body, "user_id", ctx),
            nonce=_get_token(body, "nonce", ctx),
            proof=_get_token(body, "proof", ctx),
            trials=tuple(_require_mapping(t, f"{ctx}.trials") for t in trials),
        )


@dataclass(frozen=True)
class EnrollCompleteResponse:
    user_id: str
    enrolled: bool
    n_trials: int

    def to_wire(self) -> Dict[str, Any]:
        return {
            "user_id": self.user_id,
            "enrolled": self.enrolled,
            "n_trials": self.n_trials,
        }


@dataclass(frozen=True)
class AuthRequest:
    """One authentication attempt: a wire trial plus a fresh PIN proof."""

    user_id: str
    nonce: str
    proof: str
    trial: Mapping[str, Any]

    @classmethod
    def parse(cls, payload: Any) -> "AuthRequest":
        ctx = "auth"
        body = _require_mapping(payload, ctx)
        _reject_unknown(body, ("user_id", "nonce", "proof", "trial"), ctx)
        return cls(
            user_id=_get_str(body, "user_id", ctx),
            nonce=_get_token(body, "nonce", ctx),
            proof=_get_token(body, "proof", ctx),
            trial=_require_mapping(_get(body, "trial", (Mapping,), ctx), ctx),
        )


@dataclass(frozen=True)
class AuthResponse:
    """The engine's decision plus the session ladder after the attempt.

    Mirrors :class:`~repro.core.artifacts.AuthDecision` except for
    ``keys_checked``, which is deliberately withheld — per-key verdicts
    are labelled by PIN digits, and responses must not leak the
    knowledge factor any more than requests may.
    """

    user_id: str
    accepted: bool
    reason: str
    pin_ok: Optional[bool]
    input_case: Optional[str]
    scores: Tuple[float, ...] = field(default_factory=tuple)
    passes: Tuple[bool, ...] = field(default_factory=tuple)
    degradation: Tuple[Dict[str, str], ...] = field(default_factory=tuple)
    session_state: str = ""
    failures: int = 0
    retry_after_s: float = 0.0

    def to_wire(self) -> Dict[str, Any]:
        return {
            "user_id": self.user_id,
            "accepted": self.accepted,
            "reason": self.reason,
            "pin_ok": self.pin_ok,
            "input_case": self.input_case,
            "scores": list(self.scores),
            "passes": list(self.passes),
            "degradation": list(self.degradation),
            "session_state": self.session_state,
            "failures": self.failures,
            "retry_after_s": self.retry_after_s,
        }


@dataclass(frozen=True)
class SessionStatusResponse:
    """Queryable session/ladder state (no event-log parsing)."""

    user_id: str
    state: str
    authenticated: bool
    locked: bool
    failures: int
    max_failures: Optional[int]
    retry_after_s: Optional[float]

    def to_wire(self) -> Dict[str, Any]:
        return {
            "user_id": self.user_id,
            "state": self.state,
            "authenticated": self.authenticated,
            "locked": self.locked,
            "failures": self.failures,
            "max_failures": self.max_failures,
            "retry_after_s": self.retry_after_s,
        }


__all__ = [
    "AuthRequest",
    "AuthResponse",
    "DEFAULT_PIN_LENGTH",
    "EnrollBeginRequest",
    "EnrollBeginResponse",
    "EnrollCompleteRequest",
    "EnrollCompleteResponse",
    "MAX_TOKEN_CHARS",
    "NONCE_BYTES",
    "SessionStatusResponse",
    "decode_trial",
    "encode_trial",
    "make_nonce",
    "make_pin",
    "pin_proof",
    "verify_proof",
]
