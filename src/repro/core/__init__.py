"""P2Auth core: the paper's primary contribution.

The workflow of Fig. 4, end to end: preprocessing (`pipeline`), input
case identification (`input_case`), privacy-boost waveform fusion
(`fusion`), PIN verification (`pin`), enrollment (waveform models in
`models`, the shared third-party bank in `negatives`, training in
`enroll`), authentication through the staged engine (`stages`, with its typed
`artifacts`), the :class:`P2Auth` facade (`authenticator`), the
multi-user :class:`ModelRegistry` (`registry`), and the attack models
(`attacks`). The stage classes and artifacts are reached through
:class:`P2Auth` and are not exported here.
"""

from .attacks import EmulatingAttacker, RandomAttacker
from .authenticator import P2Auth

# Keep `.artifacts` after `.authenticator`: imported ahead of `.attacks`
# (same module set), it tripled the page faults of `import repro.cli`
# (20k -> 58k) and added ~0.5 s to every process start on a 2-vCPU
# x86_64 guest.
from .artifacts import AuthDecision
from .backends import ShardedPackedBackend
from .degradation import DegradationEvent, DegradationPolicy, apply_policy
from .packing import (
    PackedAuthenticator,
    load_authenticator,
    load_session,
    pack_authenticator,
    save_authenticator,
    unpack_authenticator,
)
from .registry import ModelRegistry, RegistryBackend
from .session import (
    LockoutStatus,
    RetryPolicy,
    SessionEvent,
    SessionManager,
    SessionState,
)
from .streaming import (
    DetectedKeystroke,
    StreamingAuthenticator,
    StreamingKeystrokeDetector,
)
from .wear import WearStatus, detect_wear
from .enroll import check_enrollment_quality, enroll_models
from .models import (
    EnrolledModels,
    EnrollmentOptions,
    WaveformModel,
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
)
from .negatives import NegativeBank, SharedNegativeSet, build_negative_bank
from .fusion import fuse_waveforms
from .input_case import identify_input_case
from .pin import PinVerifier
from .pipeline import PreprocessedTrial, preprocess_trial, preprocess_trials

__all__ = [
    "AuthDecision",
    "DegradationEvent",
    "DegradationPolicy",
    "DetectedKeystroke",
    "EmulatingAttacker",
    "EnrolledModels",
    "EnrollmentOptions",
    "ModelRegistry",
    "NegativeBank",
    "P2Auth",
    "PackedAuthenticator",
    "ShardedPackedBackend",
    "RegistryBackend",
    "LockoutStatus",
    "RetryPolicy",
    "SharedNegativeSet",
    "PinVerifier",
    "PreprocessedTrial",
    "RandomAttacker",
    "SessionEvent",
    "SessionManager",
    "SessionState",
    "StreamingAuthenticator",
    "StreamingKeystrokeDetector",
    "WaveformModel",
    "WearStatus",
    "apply_policy",
    "build_negative_bank",
    "check_enrollment_quality",
    "detect_wear",
    "enroll_models",
    "load_authenticator",
    "load_session",
    "pack_authenticator",
    "unpack_authenticator",
    "extract_full_waveform",
    "extract_fused_waveform",
    "extract_segments",
    "fuse_waveforms",
    "identify_input_case",
    "preprocess_trial",
    "preprocess_trials",
    "save_authenticator",
]
