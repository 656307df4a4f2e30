"""Unit tests for authenticator save/load (the one-file packed form)."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    DegradationPolicy,
    EnrollmentOptions,
    P2Auth,
    RetryPolicy,
    SessionManager,
    load_authenticator,
    load_session,
    pack_authenticator,
    save_authenticator,
)
from repro.core.packing import FILE_MAGIC, _encode_blob
from repro.data import ThirdPartyStore
from repro.errors import ConfigurationError, EnrollmentError, PersistenceError
from repro.ml import KNNClassifier

PIN = "1628"
FEATURES = 840


@pytest.fixture(scope="module")
def archive_path(enrolled_auth, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "user0.p2a"
    save_authenticator(enrolled_auth, path)
    return path


class TestSaveLoad:
    def test_round_trip_decisions_identical(
        self, enrolled_auth, archive_path, study_data
    ):
        restored = load_authenticator(archive_path)
        probes = study_data.trials(0, PIN, "one_handed", 10)[7:]
        for probe in probes:
            original = enrolled_auth.authenticate(probe)
            loaded = restored.authenticate(probe)
            assert original.accepted == loaded.accepted
            assert original.scores == loaded.scores

    def test_round_trip_scores_identical_per_key(
        self, enrolled_auth, archive_path, study_data
    ):
        restored = load_authenticator(archive_path)
        probe = study_data.trials(0, PIN, "double3", 1)[0]
        original = enrolled_auth.authenticate(probe)
        loaded = restored.authenticate(probe)
        assert original.keys_checked == loaded.keys_checked
        assert original.scores == loaded.scores

    def test_pin_digest_restored_without_pin(self, archive_path, study_data):
        restored = load_authenticator(archive_path)
        assert not restored.no_pin_mode
        probe = study_data.trials(0, PIN, "one_handed", 8)[7]
        # Wrong PIN still rejected by the restored digest.
        assert not restored.authenticate(probe, claimed_pin="0000").accepted

    def test_keys_enrolled_preserved(self, enrolled_auth, archive_path):
        restored = load_authenticator(archive_path)
        assert restored.models.keys_enrolled == enrolled_auth.models.keys_enrolled

    def test_unenrolled_rejected(self, tmp_path):
        with pytest.raises(EnrollmentError):
            save_authenticator(P2Auth(pin=PIN), tmp_path / "x.p2a")

    def test_custom_classifier_rejected(self, study_data, tmp_path):
        auth = P2Auth(
            pin=PIN,
            options=EnrollmentOptions(
                num_features=FEATURES,
                classifier_factory=lambda: KNNClassifier(3),
            ),
        )
        store = ThirdPartyStore(study_data, [1, 2, 3], PIN)
        auth.enroll(study_data.trials(0, PIN, "one_handed", 5), store.sample(15))
        with pytest.raises(EnrollmentError):
            save_authenticator(auth, tmp_path / "knn.p2a")

    def test_garbage_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ConfigurationError):
            load_authenticator(path)

    @pytest.mark.parametrize("cut", ["prelude", "header", "middle", "tail"])
    def test_truncated_file_raises_persistence_error(
        self, archive_path, tmp_path, cut
    ):
        data = archive_path.read_bytes()
        end = {"prelude": 10, "header": 40, "middle": len(data) // 2,
               "tail": len(data) - 8}[cut]
        path = tmp_path / "cut.p2a"
        path.write_bytes(data[:end])
        with pytest.raises(PersistenceError):
            load_authenticator(path)

    def test_privacy_boost_round_trip(self, enrolled_auth_boost, tmp_path, study_data):
        path = tmp_path / "boost.p2a"
        save_authenticator(enrolled_auth_boost, path)
        restored = load_authenticator(path)
        probe = study_data.trials(0, PIN, "one_handed", 8)[7]
        assert (
            restored.authenticate(probe).accepted
            == enrolled_auth_boost.authenticate(probe).accepted
        )


    @pytest.mark.parametrize("missing", ["record", "extractor"])
    def test_file_missing_a_blob_raises_persistence_error(
        self, enrolled_auth, tmp_path, missing
    ):
        packed = pack_authenticator(enrolled_auth, dtype="float64")
        arrays = {"record": np.frombuffer(packed.record, dtype=np.uint8)}
        if missing == "record":
            fingerprint, blob = next(iter(packed.extractors.items()))
            arrays = {f"extractor/{fingerprint}": np.frombuffer(blob, np.uint8)}
        path = tmp_path / "partial.p2a"
        path.write_bytes(_encode_blob(FILE_MAGIC, {}, arrays))
        with pytest.raises(PersistenceError):
            load_authenticator(path)


class TestUnsupportedCombos:
    def _enroll(self, study_data, options):
        auth = P2Auth(pin=PIN, options=options)
        store = ThirdPartyStore(study_data, [1, 2, 3], PIN)
        auth.enroll(study_data.trials(0, PIN, "one_handed", 5), store.sample(15))
        return auth

    def test_manual_model_names_the_combo(self, study_data, tmp_path):
        auth = self._enroll(
            study_data, EnrollmentOptions(feature_method="manual")
        )
        with pytest.raises(PersistenceError) as excinfo:
            save_authenticator(auth, tmp_path / "manual.p2a")
        message = str(excinfo.value)
        assert "feature_method='manual'" in message
        assert "model 'full'" in message

    def test_fused_custom_classifier_names_the_combo(self, study_data, tmp_path):
        auth = self._enroll(
            study_data,
            EnrollmentOptions(
                num_features=FEATURES,
                privacy_boost=True,
                classifier_factory=lambda: KNNClassifier(3),
            ),
        )
        with pytest.raises(PersistenceError) as excinfo:
            save_authenticator(auth, tmp_path / "fused-knn.p2a")
        assert "classifier='KNNClassifier'" in str(excinfo.value)

    def test_persistence_error_is_an_enrollment_error(self):
        assert issubclass(PersistenceError, EnrollmentError)


class TestPolicyRoundTrip:
    @pytest.fixture(scope="class")
    def policied_auth(self, study_data):
        auth = P2Auth(
            pin=PIN,
            options=EnrollmentOptions(num_features=FEATURES),
            policy=DegradationPolicy(max_gap_s=0.3, min_usable_channels=2),
        )
        store = ThirdPartyStore(study_data, [1, 2, 3], PIN)
        auth.enroll(study_data.trials(0, PIN, "one_handed", 5), store.sample(15))
        return auth

    @pytest.fixture(scope="class")
    def gappy_probe(self, study_data):
        probe = study_data.trials(0, PIN, "one_handed", 7)[6]
        samples = probe.recording.samples.copy()
        samples[:, 50:60] = np.nan  # repairable 0.1 s gap
        return dataclasses.replace(
            probe, recording=probe.recording.with_samples(samples)
        )

    def test_policy_restored_with_identical_degradation_events(
        self, policied_auth, gappy_probe, tmp_path
    ):
        path = tmp_path / "policied.p2a"
        save_authenticator(policied_auth, path)
        restored = load_authenticator(path)
        assert restored.policy == policied_auth.policy
        original = policied_auth.authenticate(gappy_probe)
        loaded = restored.authenticate(gappy_probe)
        assert original.degradation == loaded.degradation
        assert original.degradation  # the gap actually exercised the ladder
        assert original.accepted == loaded.accepted
        np.testing.assert_allclose(
            original.scores, loaded.scores, rtol=0, atol=0
        )

    def test_archive_without_policy_restores_none(self, archive_path):
        assert load_authenticator(archive_path).policy is None


class TestSessionRoundTrip:
    def test_session_round_trip(self, enrolled_auth, study_data, tmp_path):
        retry = RetryPolicy(max_failures=3, backoff_base_s=0.5)
        session = SessionManager(
            enrolled_auth, wear_threshold=0.4, retry=retry
        )
        path = tmp_path / "session.p2a"
        save_authenticator(enrolled_auth, path, session=session)
        restored = load_session(path)
        assert restored._wear_threshold == 0.4
        assert restored._retry == retry

    def test_archive_without_session_rejected(self, archive_path):
        with pytest.raises(ConfigurationError, match="saved without a session"):
            load_session(archive_path)
