"""Unit tests for the session state machine."""

import numpy as np
import pytest

from repro.core import P2Auth
from repro.core.session import SessionManager, SessionState
from repro.errors import AuthenticationError
from repro.physio.cardiac import synthesize_cardiac
from repro.types import PPGRecording

PIN = "1628"


@pytest.fixture()
def session(enrolled_auth):
    return SessionManager(enrolled_auth)


@pytest.fixture(scope="module")
def worn_recording(study_data, rng=None):
    user = study_data.user(0)
    generator = np.random.default_rng(0)
    cardiac = synthesize_cardiac(800, 100.0, user.cardiac, generator)
    samples = np.tile(cardiac, (4, 1)) + generator.normal(0, 0.15, size=(4, 800))
    return PPGRecording(samples=samples, fs=100.0)


@pytest.fixture(scope="module")
def off_recording():
    generator = np.random.default_rng(1)
    return PPGRecording(
        samples=generator.normal(0, 0.3, size=(4, 800)), fs=100.0
    )


class TestLifecycle:
    def test_starts_off_wrist(self, session):
        assert session.state is SessionState.OFF_WRIST
        assert not session.authenticated

    def test_requires_enrolled_auth(self):
        with pytest.raises(AuthenticationError):
            SessionManager(P2Auth(pin=PIN))

    def test_wear_gain_transitions_to_worn(self, session, worn_recording):
        status = session.process_wear_check(worn_recording)
        assert status.worn
        assert session.state is SessionState.WORN

    def test_entry_off_wrist_rejected_outright(self, session, study_data):
        trial = study_data.trials(0, PIN, "one_handed", 1)[0]
        with pytest.raises(AuthenticationError):
            session.submit_entry(trial)

    def test_accepted_entry_authenticates(
        self, session, worn_recording, study_data
    ):
        session.process_wear_check(worn_recording)
        trial = study_data.trials(0, PIN, "one_handed", 10)[8]
        decision = session.submit_entry(trial)
        if decision.accepted:
            assert session.state is SessionState.AUTHENTICATED

    def test_wear_loss_ends_authenticated_session(
        self, session, worn_recording, off_recording, study_data
    ):
        session.process_wear_check(worn_recording)
        trial = study_data.trials(0, PIN, "one_handed", 10)[9]
        session.submit_entry(trial)
        session.process_wear_check(off_recording)
        assert session.state is SessionState.OFF_WRIST
        assert not session.authenticated

    def test_reauth_demotes_to_worn(self, session, worn_recording, study_data):
        session.process_wear_check(worn_recording)
        # Force authenticated state via an accepted entry (retry a few).
        for trial in study_data.trials(0, PIN, "one_handed", 12)[7:]:
            if session.submit_entry(trial).accepted:
                break
        if session.state is SessionState.AUTHENTICATED:
            session.require_reauth("payment")
            assert session.state is SessionState.WORN

    def test_rejected_entry_does_not_authenticate(
        self, session, worn_recording, study_data
    ):
        session.process_wear_check(worn_recording)
        imposter_trial = study_data.trials(5, PIN, "one_handed", 1)[0]
        decision = session.submit_entry(imposter_trial)
        assert not decision.accepted
        assert session.state is SessionState.WORN

    def test_log_records_events(self, session, worn_recording, study_data):
        session.process_wear_check(worn_recording)
        trial = study_data.trials(0, PIN, "one_handed", 8)[7]
        session.submit_entry(trial)
        kinds = [event.kind for event in session.log]
        assert "wear_check" in kinds
        assert "entry" in kinds

    def test_log_keeps_only_the_newest_events(self, session, study_data):
        # A long-lived session must not grow without bound: the log
        # keeps the newest 256 events (LOG_CAPACITY), oldest first.
        session.assume_worn()
        trial = study_data.trials(0, PIN, "one_handed", 8)[7]
        for _ in range(299):
            session.submit_entry(trial, claimed_pin="0000")
        last = session.submit_entry(trial)
        log = session.log
        assert len(log) == 256
        assert all(event.kind == "entry" for event in log)
        assert log[-1].detail.endswith(last.reason)
        assert log[-1].detail != log[-2].detail


class TestAssumeWorn:
    def test_off_wrist_transitions_to_worn(self, session):
        session.assume_worn("device attestation")
        assert session.state is SessionState.WORN
        assert any(
            e.kind == "wear_check" and "assumed worn" in e.detail
            for e in session.log
        )

    def test_noop_outside_off_wrist(self, enrolled_auth, study_data):
        from repro.core.session import RetryPolicy

        session = SessionManager(
            enrolled_auth, retry=RetryPolicy(max_failures=1)
        )
        session.assume_worn()
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        session.submit_entry(imposter, now=0.0)
        assert session.locked
        session.assume_worn()  # must not bypass the ladder
        assert session.state is SessionState.LOCKED


class TestLockoutStatusQuery:
    @pytest.fixture()
    def worn_session(self, enrolled_auth):
        from repro.core.session import RetryPolicy

        session = SessionManager(
            enrolled_auth,
            retry=RetryPolicy(max_failures=3, backoff_base_s=2.0),
        )
        session.assume_worn()
        return session

    def test_fresh_session_is_clear(self, worn_session):
        status = worn_session.lockout_status()
        assert not status.locked
        assert status.failures == 0
        assert status.max_failures == 3
        assert status.retry_after_s == 0.0

    def test_no_policy_means_unlimited(self, session):
        status = session.lockout_status()
        assert status.max_failures is None
        assert status.retry_after_s == 0.0

    def test_backoff_counts_down_with_now(self, worn_session, study_data):
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        worn_session.submit_entry(imposter, now=0.0)
        status = worn_session.lockout_status(now=0.5)
        assert status.failures == 1
        assert status.not_before == pytest.approx(2.0)
        assert status.retry_after_s == pytest.approx(1.5)
        assert worn_session.lockout_status(now=10.0).retry_after_s == 0.0

    def test_query_is_pure(self, worn_session, study_data):
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        worn_session.submit_entry(imposter, now=0.0)
        before = worn_session.lockout_status(now=1.0)
        # A far-future query must not advance the session watermark.
        worn_session.lockout_status(now=1e6)
        after = worn_session.lockout_status(now=1.0)
        assert before == after
        assert worn_session.retry_not_before == pytest.approx(2.0)

    def test_locked_reports_infinite_retry_after(
        self, worn_session, study_data
    ):
        import math

        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        for t in (0.0, 10.0, 20.0):
            worn_session.submit_entry(imposter, now=t)
        assert worn_session.locked
        status = worn_session.lockout_status()
        assert status.locked
        assert math.isinf(status.retry_after_s)

    def test_non_finite_now_rejected(self, worn_session):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            worn_session.lockout_status(now=float("nan"))

    def test_typed_backoff_and_lockout_errors(
        self, worn_session, study_data
    ):
        from repro.errors import BackoffError, LockoutError

        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        worn_session.submit_entry(imposter, now=0.0)
        with pytest.raises(BackoffError) as excinfo:
            worn_session.submit_entry(imposter, now=0.5)
        assert excinfo.value.retry_after_s == pytest.approx(1.5)
        for t in (10.0, 20.0):
            worn_session.submit_entry(imposter, now=t)
        with pytest.raises(LockoutError):
            worn_session.submit_entry(imposter, now=100.0)


class TestRestoreLockout:
    @pytest.fixture()
    def retry(self):
        from repro.core.session import RetryPolicy

        return RetryPolicy(max_failures=3, backoff_base_s=2.0)

    def test_ladder_survives_snapshot_round_trip(
        self, enrolled_auth, study_data, retry
    ):
        from repro.errors import BackoffError

        first = SessionManager(enrolled_auth, retry=retry)
        first.assume_worn()
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        first.submit_entry(imposter, now=0.0)
        snapshot = first.lockout_status()

        second = SessionManager(enrolled_auth, retry=retry)
        second.restore_lockout(snapshot)
        second.assume_worn()
        assert second.lockout_status() == snapshot
        with pytest.raises(BackoffError):
            second.submit_entry(imposter, now=0.5)

    def test_locked_snapshot_locks_the_session(
        self, enrolled_auth, study_data, retry
    ):
        from repro.errors import LockoutError

        first = SessionManager(enrolled_auth, retry=retry)
        first.assume_worn()
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        for t in (0.0, 10.0, 20.0):
            first.submit_entry(imposter, now=t)
        assert first.locked

        second = SessionManager(enrolled_auth, retry=retry)
        second.restore_lockout(first.lockout_status())
        assert second.locked
        with pytest.raises(LockoutError):
            second.submit_entry(imposter, now=100.0)
        second.unlock()
        assert second.state is SessionState.OFF_WRIST

    def test_invalid_snapshots_rejected(self, enrolled_auth, retry):
        from repro.core.session import LockoutStatus
        from repro.errors import ConfigurationError

        session = SessionManager(enrolled_auth, retry=retry)
        with pytest.raises(ConfigurationError):
            session.restore_lockout(
                LockoutStatus(
                    locked=False,
                    failures=-1,
                    max_failures=3,
                    not_before=0.0,
                    retry_after_s=0.0,
                )
            )
        with pytest.raises(ConfigurationError):
            session.restore_lockout(
                LockoutStatus(
                    locked=False,
                    failures=0,
                    max_failures=3,
                    not_before=float("inf"),
                    retry_after_s=0.0,
                )
            )
