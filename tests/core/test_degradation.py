"""Unit tests for the graceful-degradation policy and retry ladder."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    DegradationPolicy,
    P2Auth,
    RetryPolicy,
    SessionManager,
    SessionState,
    apply_policy,
)
from repro.errors import AuthenticationError, ConfigurationError, QualityError

PIN = "1628"


def _with_samples(trial, samples):
    return dataclasses.replace(
        trial, recording=trial.recording.with_samples(samples)
    )


@pytest.fixture()
def trial(study_data):
    return study_data.trials(0, PIN, "one_handed", 1)[0]


class TestApplyPolicy:
    def test_clean_trial_is_identity(self, trial, pipeline_config):
        prepared, events = apply_policy(trial, pipeline_config)
        assert prepared is trial
        assert events == ()

    def test_short_gap_repaired(self, trial, pipeline_config):
        samples = trial.recording.samples.copy()
        samples[:, 50:60] = np.nan  # 0.1 s at 100 Hz, inside the budget
        prepared, events = apply_policy(
            _with_samples(trial, samples), pipeline_config
        )
        assert np.all(np.isfinite(prepared.recording.samples))
        stages = [e.stage for e in events]
        assert "gap_repair" in stages

    def test_gap_beyond_budget_demoted_to_fallback(self, trial, pipeline_config):
        samples = trial.recording.samples.copy()
        samples[2, 100:180] = np.nan  # 0.8 s gap on one channel
        prepared, events = apply_policy(
            _with_samples(trial, samples), pipeline_config
        )
        # The oversized gap costs the channel, not the trial.
        assert np.all(np.isfinite(prepared.recording.samples))
        actions = [(e.stage, e.action) for e in events]
        assert ("gap_repair", "demoted") in actions
        assert ("channel_fallback", "imputed") in actions

    def test_gap_beyond_budget_raises_without_fallback(
        self, trial, pipeline_config
    ):
        samples = trial.recording.samples.copy()
        samples[2, 100:180] = np.nan
        policy = DegradationPolicy(channel_fallback=False)
        with pytest.raises(QualityError):
            apply_policy(_with_samples(trial, samples), pipeline_config, policy)

    def test_dead_channel_imputed(self, trial, pipeline_config):
        samples = trial.recording.samples.copy()
        samples[3] = np.nan
        prepared, events = apply_policy(
            _with_samples(trial, samples), pipeline_config
        )
        assert prepared.recording.samples.shape == trial.recording.samples.shape
        assert np.all(np.isfinite(prepared.recording.samples))
        assert any(e.stage == "channel_fallback" for e in events)
        # The gate confirms the repaired recording is usable.
        assert any(
            e.stage == "quality_gate" and e.action == "passed" for e in events
        )

    def test_all_channels_dead_raises(self, trial, pipeline_config):
        samples = np.full_like(trial.recording.samples, np.nan)
        with pytest.raises(QualityError):
            apply_policy(_with_samples(trial, samples), pipeline_config)

    def test_gate_rejects_flat_signal(self, trial, pipeline_config):
        samples = np.zeros_like(trial.recording.samples)
        with pytest.raises(QualityError):
            apply_policy(_with_samples(trial, samples), pipeline_config)

    def test_repair_disabled_leaves_nans(self, trial, pipeline_config):
        samples = trial.recording.samples.copy()
        samples[:, 50:60] = np.nan
        policy = DegradationPolicy(repair_gaps=False, gate=False)
        prepared, _ = apply_policy(
            _with_samples(trial, samples), pipeline_config, policy
        )
        assert np.isnan(prepared.recording.samples[:, 55]).all()


class TestAuthenticatorIntegration:
    def test_decision_carries_degradation_events(self, study_data):
        enroll = study_data.trials(0, PIN, "one_handed", 7)
        probe = study_data.trials(0, PIN, "one_handed", 8)[7]
        from repro.data import ThirdPartyStore

        store = ThirdPartyStore(study_data, [1, 2, 3], PIN)
        from repro.core import EnrollmentOptions

        auth = P2Auth(
            pin=PIN,
            options=EnrollmentOptions(num_features=840),
            policy=DegradationPolicy(),
        )
        auth.enroll(enroll, store.sample(18))

        clean = auth.authenticate(probe)
        assert clean.degradation == ()

        samples = probe.recording.samples.copy()
        samples[1] = np.nan
        damaged = _with_samples(probe, samples)
        decision = auth.authenticate(damaged)
        assert any(e.stage == "channel_fallback" for e in decision.degradation)

    def test_no_policy_preserves_prior_behaviour(self, enrolled_auth, trial):
        assert enrolled_auth.policy is None
        decision = enrolled_auth.authenticate(trial)
        assert decision.degradation == ()


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=1.0, backoff_factor=2.0, max_backoff_s=5.0
        )
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == 1.0
        assert policy.backoff(2) == 2.0
        assert policy.backoff(4) == 5.0  # capped

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_failures=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-1.0)


class TestSessionRetryLadder:
    @pytest.fixture()
    def worn_session(self, enrolled_auth, study_data):
        from repro.physio.cardiac import synthesize_cardiac
        from repro.types import PPGRecording

        session = SessionManager(
            enrolled_auth,
            retry=RetryPolicy(max_failures=3, backoff_base_s=2.0),
        )
        user = study_data.user(0)
        generator = np.random.default_rng(0)
        cardiac = synthesize_cardiac(800, 100.0, user.cardiac, generator)
        samples = np.tile(cardiac, (4, 1)) + generator.normal(
            0, 0.15, size=(4, 800)
        )
        session.process_wear_check(PPGRecording(samples=samples, fs=100.0))
        assert session.state is SessionState.WORN
        return session

    def test_failures_back_off_then_lock(self, worn_session, study_data):
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        # Failure 1 at t=0: backoff until t=2.
        worn_session.submit_entry(imposter, now=0.0)
        assert worn_session.consecutive_failures == 1
        assert worn_session.retry_not_before == pytest.approx(2.0)
        # Retrying inside the window is refused without signal analysis.
        with pytest.raises(AuthenticationError):
            worn_session.submit_entry(imposter, now=1.0)
        # Failure 2 at t=3: backoff doubles.
        worn_session.submit_entry(imposter, now=3.0)
        assert worn_session.retry_not_before == pytest.approx(7.0)
        # Failure 3 locks the session.
        worn_session.submit_entry(imposter, now=8.0)
        assert worn_session.locked
        with pytest.raises(AuthenticationError):
            worn_session.submit_entry(imposter, now=100.0)
        kinds = [e.kind for e in worn_session.log]
        assert "backoff" in kinds
        assert "lockout" in kinds

    def test_quality_refusal_counts_as_failure(self, worn_session, study_data):
        trial = study_data.trials(0, PIN, "one_handed", 1)[0]
        garbage = _with_samples(
            trial, np.zeros_like(trial.recording.samples)
        )
        auth = worn_session._auth
        assert auth.policy is None  # fixture auth has no ladder...
        # ...so drive a policy-bearing session for the quality path.
        from repro.core import DegradationPolicy as DP

        with_policy = P2Auth(
            pin=PIN, options=auth.options, policy=DP()
        )
        with_policy._install(auth.models)
        session = SessionManager(
            with_policy, retry=RetryPolicy(max_failures=2)
        )
        session._state = SessionState.WORN
        with pytest.raises(QualityError):
            session.submit_entry(garbage, now=0.0)
        assert session.consecutive_failures == 1
        kinds = [e.kind for e in session.log]
        assert "entry" in kinds

    def test_success_resets_ladder(self, worn_session, study_data):
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        worn_session.submit_entry(imposter, now=0.0)
        assert worn_session.consecutive_failures == 1
        for probe in study_data.trials(0, PIN, "one_handed", 12)[7:]:
            if worn_session.submit_entry(probe, now=1000.0).accepted:
                break
        if worn_session.authenticated:
            assert worn_session.consecutive_failures == 0
            assert worn_session.retry_not_before == 0.0

    def test_locked_sticky_through_wear_and_unlock(
        self, worn_session, study_data
    ):
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        for attempt, now in enumerate((0.0, 10.0, 100.0)):
            worn_session.submit_entry(imposter, now=now)
        assert worn_session.locked
        # Re-wearing the watch must not clear the lockout.
        generator = np.random.default_rng(1)
        from repro.types import PPGRecording

        worn_session.process_wear_check(
            PPGRecording(
                samples=generator.normal(0, 0.3, size=(4, 800)), fs=100.0
            )
        )
        assert worn_session.locked
        worn_session.unlock("password fallback")
        assert worn_session.state is SessionState.OFF_WRIST
        assert worn_session.consecutive_failures == 0
        assert any(e.kind == "unlock" for e in worn_session.log)

    def test_backwards_clock_cannot_reopen_backoff(
        self, worn_session, study_data
    ):
        """A stale ``now`` (clock adjustment, suspend skew) is clamped
        up to the last observed time: it can neither bypass an active
        backoff window nor rewind the ladder's timeline."""
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        # Failure at t=50: backoff until t=52.
        worn_session.submit_entry(imposter, now=50.0)
        assert worn_session.retry_not_before == pytest.approx(52.0)
        # A probe stamped "earlier" is still inside the window.
        with pytest.raises(AuthenticationError):
            worn_session.submit_entry(imposter, now=0.0)

    def test_non_finite_now_rejected(self, worn_session, study_data):
        """NaN compares False against every bound, so an unchecked NaN
        ``now`` would walk straight through the backoff guard and then
        poison ``retry_not_before`` for the rest of the session."""
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        worn_session.submit_entry(imposter, now=0.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                worn_session.submit_entry(imposter, now=bad)
        # The rejected stamps left no trace on the ladder's clock.
        assert worn_session.retry_not_before == pytest.approx(2.0)
        assert worn_session.consecutive_failures == 1

    def test_multiday_session_clock_stays_bounded(
        self, worn_session, study_data
    ):
        """Over a long session with jittery wall-clock input the logical
        clock is monotone and the backoff horizon never runs further
        than ``max_backoff_s`` ahead of the submitted time."""
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        policy = worn_session._retry
        day = 86_400.0
        last_seen = 0.0
        for step, jitter in enumerate((0.0, -30.0, 12.0, -86_400.0)):
            now = (step + 1) * day + jitter
            try:
                worn_session.submit_entry(imposter, now=now)
            except AuthenticationError:
                pass
            if worn_session.locked:
                worn_session.unlock()
                worn_session._state = SessionState.WORN
            effective = max(now, last_seen)
            last_seen = max(last_seen, effective)
            assert worn_session._clock >= effective
            assert (
                worn_session.retry_not_before - effective
                <= policy.max_backoff_s
            )

    def test_no_retry_policy_never_locks(self, enrolled_auth, study_data):
        session = SessionManager(enrolled_auth)
        session._state = SessionState.WORN
        imposter = study_data.trials(5, PIN, "one_handed", 1)[0]
        for _ in range(6):
            session.submit_entry(imposter)
        assert not session.locked
        assert session.state is SessionState.WORN

    def test_degradation_events_logged(self, study_data):
        from repro.core import EnrollmentOptions
        from repro.data import ThirdPartyStore

        enroll = study_data.trials(0, PIN, "one_handed", 7)
        store = ThirdPartyStore(study_data, [1, 2, 3], PIN)
        auth = P2Auth(
            pin=PIN,
            options=EnrollmentOptions(num_features=840),
            policy=DegradationPolicy(),
        )
        auth.enroll(enroll, store.sample(18))
        session = SessionManager(auth)
        session._state = SessionState.WORN
        probe = study_data.trials(0, PIN, "one_handed", 8)[7]
        samples = probe.recording.samples.copy()
        samples[1] = np.nan
        session.submit_entry(_with_samples(probe, samples))
        assert any(e.kind == "degradation" for e in session.log)
