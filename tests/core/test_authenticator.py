"""Unit tests for the P2Auth facade."""

import numpy as np
import pytest

from repro.core import EnrollmentOptions, P2Auth
from repro.data import ThirdPartyStore
from repro.errors import EnrollmentError

PIN = "1628"
FEATURES = 840


class TestLifecycle:
    def test_authenticate_before_enroll_rejected(self, study_data):
        auth = P2Auth(pin=PIN)
        trial = study_data.trials(0, PIN, "one_handed", 1)[0]
        with pytest.raises(EnrollmentError):
            auth.authenticate(trial)

    def test_models_property_before_enroll(self):
        with pytest.raises(EnrollmentError):
            _ = P2Auth(pin=PIN).models

    def test_enrolled_flag(self, enrolled_auth):
        assert enrolled_auth.enrolled

    def test_enroll_returns_self(self, study_data):
        store = ThirdPartyStore(study_data, [1, 2, 3], PIN)
        auth = P2Auth(
            pin=PIN, options=EnrollmentOptions(num_features=FEATURES)
        )
        result = auth.enroll(
            study_data.trials(0, PIN, "one_handed", 5), store.sample(15)
        )
        assert result is auth

    def test_no_pin_mode_flag(self):
        assert P2Auth(pin=None).no_pin_mode
        assert not P2Auth(pin=PIN).no_pin_mode


class TestEndToEnd:
    def test_legit_accepted_attacker_rejected(self, enrolled_auth, study_data):
        legit = study_data.trials(0, PIN, "one_handed", 10)[7:]
        legit_rate = np.mean(
            [enrolled_auth.authenticate(t).accepted for t in legit]
        )
        attacks = study_data.emulating_trials(6, 0, PIN, 6)
        attack_rate = np.mean(
            [enrolled_auth.authenticate(t).accepted for t in attacks]
        )
        assert legit_rate > attack_rate
        assert attack_rate <= 0.34

    def test_claimed_pin_defaults_to_typed_digits(
        self, enrolled_auth, study_data
    ):
        trial = study_data.trials(0, PIN, "one_handed", 8)[7]
        default = enrolled_auth.authenticate(trial)
        explicit = enrolled_auth.authenticate(trial, claimed_pin=trial.pin)
        assert default.accepted == explicit.accepted

    def test_no_pin_mode_end_to_end(self, study_data):
        auth = P2Auth(
            pin=None, options=EnrollmentOptions(num_features=FEATURES)
        )
        enroll = study_data.trials(0, "1234567890", "one_handed", 5)
        store = ThirdPartyStore(study_data, [1, 2, 3], "1234567890")
        auth.enroll(enroll, store.sample(12))
        probe = study_data.trials(0, PIN, "random", 3)
        decisions = [auth.authenticate(t) for t in probe]
        # No PIN check happened.
        assert all(d.pin_ok is None for d in decisions)
        # The keystroke factor alone still rejects another user.
        attack = study_data.trials(6, PIN, "random", 3)
        attack_rate = np.mean([auth.authenticate(t).accepted for t in attack])
        assert attack_rate <= 0.34
