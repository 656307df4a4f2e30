"""Fixtures for the race-stress harness.

Every test in this package runs with ``sys.setswitchinterval(1e-5)``
— roughly a thousand times more thread preemption than the default —
so interleavings that would take hours of wall-clock traffic to hit in
production show up within a few hundred iterations. The CI job also
sets ``REPRO_CONCURRENCY_DEBUG=1`` so locks constructed inside the
tests carry live ownership assertions.
"""

from __future__ import annotations

import sys

import pytest

from repro.config import PAPER_PINS
from repro.core import EnrollmentOptions, P2Auth
from repro.data import StudyData, ThirdPartyStore

PIN = PAPER_PINS[0]
FEATURES = 840


@pytest.fixture(autouse=True)
def fast_thread_switching():
    """Amplify races: preempt threads every ~10 microseconds."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture(scope="module")
def data():
    return StudyData(n_users=5, seed=3)


@pytest.fixture(scope="module")
def third_party(data):
    return ThirdPartyStore(data, [1, 2], PIN).sample(20)


@pytest.fixture(scope="module")
def enroll_trials(data):
    return data.trials(0, PIN, "one_handed", 8)[:6]


@pytest.fixture(scope="module")
def shared_auth(enroll_trials, third_party):
    """One enrolled authenticator that every worker thread shares."""
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
    auth.enroll(enroll_trials, third_party)
    auth.warmup((enroll_trials[0].recording.n_samples,))
    return auth


@pytest.fixture(scope="module")
def user_auths(data):
    """Three users' enrolled, warmed authenticators, keyed by user index."""
    auths = {}
    for uid in (0, 1, 3):
        negatives = [u for u in (1, 2, 3) if u != uid][:2]
        auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
        auth.enroll(
            data.trials(uid, PIN, "one_handed", 8)[:6],
            ThirdPartyStore(data, negatives, PIN).sample(20),
        )
        auth.warmup()
        auths[uid] = auth
    return auths


@pytest.fixture(scope="module")
def probes(data):
    """Mixed legit/attack probes, all the same signal shape so every
    thread contends for the same scratch buffers."""
    legit = data.trials(0, PIN, "one_handed", 8)[6:]
    attacks = data.emulating_trials(4, 0, PIN, 2)
    return list(legit) + list(attacks)
