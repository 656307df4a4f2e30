"""Transport-agnostic authentication service over the registry.

Three layers, each usable without the ones above it:

- :mod:`repro.service.core` — :class:`AuthService`, the async facade
  owning a :class:`~repro.core.registry.ModelRegistry` plus per-user
  :class:`~repro.core.session.SessionManager` slots, with striped
  per-user locks and a bounded thread pool offloading the sync engine
  (same-user requests serialize; cross-user requests run concurrently).
- :mod:`repro.service.protocol` — typed wire dataclasses with strict
  validation and the PIN-proof enrollment/authentication crypto
  (HMAC-SHA256 proofs, single-use time-bounded windows; the raw PIN
  never crosses the wire).
- :mod:`repro.service.http` — a minimal asyncio HTTP/1.1 server
  exposing enroll / authenticate / session / registry-admin / stats
  endpoints (``python -m repro serve``).
"""

from .core import AuthService, EnrollmentWindow
from .http import serve
from .protocol import (
    AuthRequest,
    AuthResponse,
    EnrollBeginResponse,
    EnrollCompleteRequest,
    EnrollCompleteResponse,
    decode_trial,
    encode_trial,
    pin_proof,
)

__all__ = [
    "AuthRequest",
    "AuthResponse",
    "AuthService",
    "EnrollBeginResponse",
    "EnrollCompleteRequest",
    "EnrollCompleteResponse",
    "EnrollmentWindow",
    "decode_trial",
    "encode_trial",
    "pin_proof",
    "serve",
]
