"""Reproduction of P2Auth (ICDCS 2023).

P2Auth is a two-factor authentication scheme combining the PIN with
keystroke-induced photoplethysmography (PPG) measurements from a wrist
wearable. This package reimplements the full system — the signal
pipeline, MiniRocket feature extraction, per-user ridge classifiers,
privacy-boost waveform fusion, and all evaluation baselines — on top of
a physiologically grounded PPG simulator that substitutes for the
paper's human-subject data collection (see DESIGN.md).

Quickstart::

    import numpy as np
    from repro import P2Auth, TrialSynthesizer, sample_population

    users = sample_population(5, seed=7)
    synth = TrialSynthesizer()
    rng = np.random.default_rng(0)

    legit = users[0]
    enroll = [synth.synthesize_trial(legit, "1628", rng) for _ in range(9)]
    third_party = [
        synth.synthesize_trial(u, "1628", rng) for u in users[1:] for _ in range(8)
    ]

    auth = P2Auth(pin="1628")
    auth.enroll(enroll, third_party)

    probe = synth.synthesize_trial(legit, "1628", rng)
    decision = auth.authenticate(probe, claimed_pin="1628")
    print(decision.accepted, decision.reason)
"""

from .config import (
    PAPER_PINS,
    PipelineConfig,
    ProtocolConfig,
    SimulationConfig,
)
from .core.attacks import EmulatingAttacker, RandomAttacker
from .core.artifacts import AuthDecision
from .core.authenticator import P2Auth
from .errors import (
    AuthenticationError,
    ConfigurationError,
    EnrollmentError,
    NotFittedError,
    P2AuthError,
    SegmentationError,
    SignalError,
)
from .physio import TrialSynthesizer, UserProfile, sample_population, sample_user
from .types import (
    AccelRecording,
    ChannelInfo,
    Hand,
    InputCase,
    KeystrokeEvent,
    PinEntryTrial,
    PPGRecording,
    PROTOTYPE_CHANNELS,
    SegmentedKeystroke,
    Wavelength,
)

__version__ = "1.0.0"

__all__ = [
    "AccelRecording",
    "AuthDecision",
    "AuthenticationError",
    "ChannelInfo",
    "ConfigurationError",
    "EmulatingAttacker",
    "EnrollmentError",
    "Hand",
    "InputCase",
    "KeystrokeEvent",
    "NotFittedError",
    "P2Auth",
    "P2AuthError",
    "PAPER_PINS",
    "PinEntryTrial",
    "PipelineConfig",
    "PPGRecording",
    "PROTOTYPE_CHANNELS",
    "ProtocolConfig",
    "RandomAttacker",
    "SegmentationError",
    "SegmentedKeystroke",
    "SignalError",
    "SimulationConfig",
    "TrialSynthesizer",
    "UserProfile",
    "Wavelength",
    "sample_population",
    "sample_user",
    "__version__",
]
