"""Shared fixtures for the test suite.

Expensive artifacts (population, study data, enrolled authenticator)
are session-scoped: they are deterministic, read-only, and building
them once keeps the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PipelineConfig, SimulationConfig
from repro.core import EnrollmentOptions, P2Auth
from repro.data import StudyData, ThirdPartyStore
from repro.physio import TrialSynthesizer, sample_population

#: PIN used throughout the tests.
TEST_PIN = "1628"

#: Small feature budget keeping model fits fast.
TEST_FEATURES = 840


@pytest.fixture(scope="session")
def sim_config():
    return SimulationConfig()


@pytest.fixture(scope="session")
def pipeline_config():
    return PipelineConfig()


@pytest.fixture(scope="session")
def population(sim_config):
    """Eight deterministic user profiles."""
    return sample_population(8, seed=123, config=sim_config)


@pytest.fixture(scope="session")
def synthesizer(sim_config):
    return TrialSynthesizer(sim_config)


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def one_trial(population, synthesizer):
    """A single one-handed trial of user 0 typing the test PIN."""
    rng = np.random.default_rng(11)
    return synthesizer.synthesize_trial(population[0], TEST_PIN, rng)


@pytest.fixture(scope="session")
def accel_trial(population, synthesizer):
    """A trial with the accelerometer stream included."""
    rng = np.random.default_rng(12)
    return synthesizer.synthesize_trial(
        population[0], TEST_PIN, rng, include_accel=True
    )


@pytest.fixture()
def restore_blas_threads():
    """Yields the OpenBLAS thread count and restores it afterwards.

    ``repro serve`` (``cli._build_service``) and the BLAS tests set one
    thread; later tests and benchmarks run at the default.
    """
    from repro.blas import blas_threads, set_blas_threads

    previous = blas_threads()
    yield previous
    if previous is not None:
        set_blas_threads(previous)


@pytest.fixture(scope="session")
def study_data():
    """Small lazily generated study dataset."""
    return StudyData(n_users=7, seed=5)


@pytest.fixture(scope="session")
def enrolled_auth(study_data):
    """A P2Auth instance enrolled for user 0 at test scale."""
    enroll = study_data.trials(0, TEST_PIN, "one_handed", 7)
    store = ThirdPartyStore(study_data, [1, 2, 3, 4], TEST_PIN)
    auth = P2Auth(
        pin=TEST_PIN,
        options=EnrollmentOptions(num_features=TEST_FEATURES),
    )
    auth.enroll(enroll, store.sample(24))
    return auth


@pytest.fixture(scope="session")
def enrolled_auth_boost(study_data):
    """A privacy-boost P2Auth instance enrolled for user 0."""
    enroll = study_data.trials(0, TEST_PIN, "one_handed", 7)
    store = ThirdPartyStore(study_data, [1, 2, 3, 4], TEST_PIN)
    auth = P2Auth(
        pin=TEST_PIN,
        options=EnrollmentOptions(
            num_features=TEST_FEATURES, privacy_boost=True
        ),
    )
    auth.enroll(enroll, store.sample(24))
    return auth
