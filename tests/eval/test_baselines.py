"""Unit tests for the comparison baselines."""

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.core import preprocess_trial
from repro.core import extract_full_waveform
from repro.data import StudyData, ThirdPartyStore
from repro.errors import EnrollmentError, NotFittedError
from repro.eval.baselines import (
    AccelerometerPipeline,
    ShangThresholdBaseline,
    accel_waveform,
)

PIN = "1628"


@pytest.fixture(scope="module")
def data():
    return StudyData(n_users=5, seed=6)


@pytest.fixture(scope="module")
def accel_data():
    return StudyData(n_users=5, seed=6, include_accel=True)


@pytest.fixture(scope="module")
def full_waveforms(data):
    config = PipelineConfig()
    out = {}
    for uid in (0, 3):
        out[uid] = np.stack(
            [
                extract_full_waveform(preprocess_trial(t, config))
                for t in data.trials(uid, PIN, "one_handed", 6)
            ]
        )
    return out


class TestShangBaseline:
    def test_enrollment_data_accepted(self, full_waveforms):
        baseline = ShangThresholdBaseline(tau=1.7, dtw_stride=4)
        baseline.enroll(full_waveforms[0][:4])
        accepted = [baseline.accepts(w) for w in full_waveforms[0][4:]]
        assert any(accepted)

    def test_distances_smaller_for_own_data(self, full_waveforms):
        baseline = ShangThresholdBaseline(dtw_stride=4)
        baseline.enroll(full_waveforms[0][:4])
        own = baseline.distances(full_waveforms[0][4:]).mean()
        other = baseline.distances(full_waveforms[3][:2]).mean()
        assert other > own

    def test_accept_before_enroll_rejected(self, full_waveforms):
        with pytest.raises(NotFittedError):
            ShangThresholdBaseline().accepts(full_waveforms[0][0])

    def test_needs_two_enrollment_samples(self, full_waveforms):
        with pytest.raises(EnrollmentError):
            ShangThresholdBaseline().enroll(full_waveforms[0][:1])

    def test_invalid_tau(self):
        with pytest.raises(EnrollmentError):
            ShangThresholdBaseline(tau=0.0)


class TestAccelWaveform:
    def test_shape(self, accel_data):
        trial = accel_data.trials(0, PIN, "one_handed", 1)[0]
        wf = accel_waveform(trial, window=360)
        assert wf.shape == (3, 360)

    def test_missing_accel_rejected(self, data):
        trial = data.trials(0, PIN, "one_handed", 1)[0]
        with pytest.raises(EnrollmentError):
            accel_waveform(trial)


class TestAccelerometerPipeline:
    def test_enroll_and_authenticate(self, accel_data):
        enroll = accel_data.trials(0, PIN, "one_handed", 5)
        store = ThirdPartyStore(accel_data, [1, 2], PIN)
        pipeline = AccelerometerPipeline(num_features=840)
        pipeline.enroll(enroll, store.sample(10))
        probe = accel_data.trials(0, PIN, "one_handed", 6)[5]
        assert isinstance(pipeline.accepts(probe), bool)
