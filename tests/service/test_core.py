"""AuthService: windows, parity, concurrency, lockout persistence."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core import EnrollmentOptions, ModelRegistry
from repro.core.artifacts import AuthDecision
from repro.core.session import RetryPolicy
from repro.errors import (
    BackoffError,
    ConfigurationError,
    LockoutError,
    ProofError,
    UnknownUserError,
)
from repro.service import AuthService, encode_trial, pin_proof
from repro.service.protocol import (
    AuthRequest,
    EnrollCompleteRequest,
    make_nonce,
)

from .conftest import FEATURES, PIN


def _auth_request(user_id, trial, pin=PIN):
    nonce = make_nonce()
    return AuthRequest(
        user_id=user_id,
        nonce=nonce,
        proof=pin_proof(pin, user_id, nonce),
        trial=encode_trial(trial),
    )


class _Clock:
    """Injectable deterministic clock."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stripes": 0},
            {"max_workers": 0},
            {"session_capacity": 0},
            {"enroll_ttl_s": 0.0},
            {"enroll_max_attempts": 0},
        ],
    )
    def test_bad_parameters_rejected(self, service_registry, kwargs):
        with pytest.raises(ConfigurationError):
            AuthService(service_registry, **kwargs)


class TestEnrollmentWindow:
    def test_begin_issues_pin_and_nonce(self, service):
        begin = service.enroll_begin("w1")
        assert len(begin.pin) == 4 and begin.pin.isdigit()
        assert len(begin.nonce) == 32
        other = service.enroll_begin("w2")
        assert other.nonce != begin.nonce

    def test_complete_without_window(self, service, one_trial):
        req = EnrollCompleteRequest(
            user_id="w1", nonce="n", proof="p",
            trials=(encode_trial(one_trial),),
        )
        with pytest.raises(ProofError, match="no open enrollment window"):
            asyncio.run(service.enroll_complete(req))

    def test_window_expires(self, service_registry, one_trial):
        clock = _Clock()
        svc = AuthService(service_registry, clock=clock, enroll_ttl_s=60.0)
        try:
            begin = svc.enroll_begin("w1")
            clock.now += 61.0
            req = EnrollCompleteRequest(
                user_id="w1",
                nonce=begin.nonce,
                proof=pin_proof(begin.pin, "w1", begin.nonce),
                trials=(encode_trial(one_trial),),
            )
            with pytest.raises(ProofError, match="expired"):
                asyncio.run(svc.enroll_complete(req))
            # The expired window is gone, not retryable.
            with pytest.raises(ProofError, match="no open enrollment window"):
                asyncio.run(svc.enroll_complete(req))
        finally:
            svc.close()

    def test_nonce_mismatch_rejected(self, service, one_trial):
        begin = service.enroll_begin("w1")
        req = EnrollCompleteRequest(
            user_id="w1",
            nonce=make_nonce(),
            proof=pin_proof(begin.pin, "w1", begin.nonce),
            trials=(encode_trial(one_trial),),
        )
        with pytest.raises(ProofError, match="nonce"):
            asyncio.run(service.enroll_complete(req))

    def test_bad_proofs_burn_the_window(self, service_registry, one_trial):
        svc = AuthService(service_registry, enroll_max_attempts=2)
        try:
            begin = svc.enroll_begin("w1")

            def bad():
                return EnrollCompleteRequest(
                    user_id="w1",
                    nonce=begin.nonce,
                    proof=pin_proof("0000", "w1", begin.nonce),
                    trials=(encode_trial(one_trial),),
                )

            with pytest.raises(ProofError, match="rejected"):
                asyncio.run(svc.enroll_complete(bad()))
            with pytest.raises(ProofError, match="burned"):
                asyncio.run(svc.enroll_complete(bad()))
            # Even the correct proof is now refused: single-use window.
            good = EnrollCompleteRequest(
                user_id="w1",
                nonce=begin.nonce,
                proof=pin_proof(begin.pin, "w1", begin.nonce),
                trials=(encode_trial(one_trial),),
            )
            with pytest.raises(ProofError, match="no open enrollment window"):
                asyncio.run(svc.enroll_complete(good))
        finally:
            svc.close()

    @staticmethod
    def _complete(svc, user_id, begin, trial):
        return asyncio.run(
            svc.enroll_complete(
                EnrollCompleteRequest(
                    user_id=user_id,
                    nonce=begin.nonce,
                    proof=pin_proof(begin.pin, user_id, begin.nonce),
                    trials=(encode_trial(trial),),
                )
            )
        )

    def test_begin_sweeps_expired_windows(self, service_registry, one_trial):
        clock = _Clock()
        svc = AuthService(service_registry, clock=clock, enroll_ttl_s=60.0)
        try:
            abandoned = [svc.enroll_begin(f"a{i}") for i in range(3)]
            clock.now += 30.0
            fresh = svc.enroll_begin("f0")
            clock.now += 31.0  # the a* windows are now expired, f0 is not
            svc.enroll_begin("f1")
            assert list(svc._windows) == ["f0", "f1"]
            # Swept, not merely expired: nothing is left to report on.
            with pytest.raises(ProofError, match="no open enrollment window"):
                self._complete(svc, "a0", abandoned[0], one_trial)
            assert svc._windows["f0"].nonce == fresh.nonce
        finally:
            svc.close()

    def test_open_windows_are_capped_oldest_first(
        self, service_registry, one_trial, monkeypatch
    ):
        monkeypatch.setattr("repro.service.core._MAX_OPEN_WINDOWS", 3)
        clock = _Clock()
        svc = AuthService(service_registry, clock=clock, enroll_ttl_s=60.0)
        try:
            begins = {}
            for uid in ("w0", "w1", "w2"):
                begins[uid] = svc.enroll_begin(uid)
                clock.now += 1.0
            # Re-beginning w0 moves it behind w2: w1 is now the oldest.
            begins["w0"] = svc.enroll_begin("w0")
            clock.now += 1.0
            begins["w3"] = svc.enroll_begin("w3")
            assert list(svc._windows) == ["w2", "w0", "w3"]
            with pytest.raises(ProofError, match="no open enrollment window"):
                self._complete(svc, "w1", begins["w1"], one_trial)
            for uid in ("w2", "w0", "w3"):
                assert svc._windows[uid].nonce == begins[uid].nonce
        finally:
            svc.close()

    def test_window_capped_out_while_training(self, one_trial, monkeypatch):
        # Training runs off the loop; a begin for another user meanwhile
        # caps this window out. Completing still succeeds and leaves the
        # newer window open.
        monkeypatch.setattr("repro.service.core._MAX_OPEN_WINDOWS", 1)

        class _EnrollingRegistry(_StubRegistry):
            def enroll(self, user_id, *args, **kwargs):
                self._auths[user_id] = None

        svc = AuthService(_EnrollingRegistry({}))
        run_in_pool = svc._offload

        async def offload(fn):
            svc.enroll_begin("other")
            return await run_in_pool(fn)

        svc._offload = offload
        try:
            begin = svc.enroll_begin("w1")
            response = self._complete(svc, "w1", begin, one_trial)
            assert response.enrolled and "w1" in svc.registry
            assert list(svc._windows) == ["other"]
        finally:
            svc.close()

    def test_wire_enrollment_end_to_end(self, study_data, third_party, probes):
        registry = ModelRegistry(
            options=EnrollmentOptions(num_features=FEATURES)
        )
        svc = AuthService(registry, third_party_trials=third_party)
        try:
            begin = svc.enroll_begin("alice")
            pin = begin.pin
            trials = tuple(
                encode_trial(t)
                for t in study_data.trials(0, pin, "one_handed", 7)
            )
            req = EnrollCompleteRequest(
                user_id="alice",
                nonce=begin.nonce,
                proof=pin_proof(pin, "alice", begin.nonce),
                trials=trials,
            )
            resp = asyncio.run(svc.enroll_complete(req))
            assert resp.enrolled and resp.n_trials == 7
            assert "alice" in registry
            # The window is consumed: replaying the completion fails.
            with pytest.raises(ProofError, match="no open enrollment window"):
                asyncio.run(svc.enroll_complete(req))
            # And the enrolled user authenticates over the wire.
            probe = study_data.trials(0, pin, "one_handed", 8)[7]
            out = asyncio.run(
                svc.authenticate(_auth_request("alice", probe, pin=pin))
            )
            assert out.accepted
            assert out.session_state == "authenticated"
        finally:
            svc.close()


class TestAdoptUser:
    def test_adopt_unknown_user(self, service):
        with pytest.raises(UnknownUserError):
            service.adopt_user("ghost", PIN)

    def test_unadopted_user_with_templates(self, service_registry, probes):
        svc = AuthService(service_registry)
        try:
            with pytest.raises(ProofError, match="credentials"):
                asyncio.run(
                    svc.authenticate(_auth_request("u0", probes["legit"][0]))
                )
        finally:
            svc.close()

    def test_unknown_user_is_404_not_403(self, service, probes):
        with pytest.raises(UnknownUserError):
            asyncio.run(
                service.authenticate(_auth_request("ghost", probes["legit"][0]))
            )


class TestDecisionParity:
    """The acceptance criterion: service == direct engine, bitwise."""

    def _direct(self, registry, user_id, trial, claimed_pin):
        return registry.authenticate(user_id, trial, claimed_pin=claimed_pin)

    def _compare(self, response, decision: AuthDecision):
        assert response.accepted == decision.accepted
        assert response.reason == decision.reason
        assert response.pin_ok == decision.pin_ok
        expected_case = (
            None if decision.input_case is None else decision.input_case.value
        )
        assert response.input_case == expected_case
        # Bit-identical scores: == on floats, deliberately.
        assert response.scores == tuple(decision.scores)
        assert response.passes == tuple(decision.passes)

    def test_probe_battery_matches_direct_calls(
        self, service, service_registry, probes
    ):
        battery = [("u0", t) for t in probes["legit"]]
        battery += [("u0", t) for t in probes["impostor"]]

        async def run():
            return await asyncio.gather(
                *(
                    service.authenticate(_auth_request(uid, trial))
                    for uid, trial in battery
                )
            )

        responses = asyncio.run(run())
        for (uid, trial), response in zip(battery, responses):
            direct = self._direct(service_registry, uid, trial, PIN)
            self._compare(response, direct)
        # The battery must exercise both verdicts to prove anything.
        verdicts = {r.accepted for r in responses}
        assert verdicts == {True, False}

    def test_wrong_proof_matches_direct_wrong_pin(
        self, service, service_registry, probes
    ):
        trial = probes["legit"][0]
        response = asyncio.run(
            service.authenticate(_auth_request("u0", trial, pin="9999"))
        )
        direct = self._direct(service_registry, "u0", trial, "9999")
        self._compare(response, direct)
        assert response.pin_ok is False
        assert not response.accepted


class TestNonceReplay:
    def test_replayed_nonce_rejected(self, service, probes):
        req = _auth_request("u0", probes["legit"][0])

        async def run():
            await service.authenticate(req)
            await service.authenticate(req)

        with pytest.raises(ProofError, match="single-use"):
            asyncio.run(run())
        assert service.stats()["service"]["nonce_replays"] == 1


class _StubAuth:
    """Engine stub measuring overlap of concurrent authenticate calls."""

    enrolled = True

    def __init__(self, tracker, delay=0.05):
        self._tracker = tracker
        self._delay = delay

    def authenticate(self, trial, claimed_pin=None):
        with self._tracker["lock"]:
            self._tracker["active"] += 1
            self._tracker["max_active"] = max(
                self._tracker["max_active"], self._tracker["active"]
            )
        time.sleep(self._delay)
        with self._tracker["lock"]:
            self._tracker["active"] -= 1
        return AuthDecision(accepted=True, reason="stub", pin_ok=True)


class _StubRegistry:
    """Just enough registry surface for AuthService."""

    def __init__(self, auths):
        self._auths = auths

    def get(self, user_id):
        return self._auths[user_id]

    def __contains__(self, user_id):
        return user_id in self._auths

    def describe(self):
        return {"capacity": None, "backend": None, "cached_users": 0,
                "stats": {}}

    def warm_users(self):
        return frozenset(self._auths)

    def list_users(self):
        return sorted(self._auths)


def _stub_service(user_ids, delay=0.05, **kwargs):
    tracker = {"lock": threading.Lock(), "active": 0, "max_active": 0}
    auths = {uid: _StubAuth(tracker, delay) for uid in user_ids}
    svc = AuthService(_StubRegistry(auths), retry=None, **kwargs)
    for uid in user_ids:
        svc.adopt_user(uid, PIN)
    return svc, tracker


class TestConcurrency:
    def test_same_user_requests_serialize(self, one_trial):
        svc, tracker = _stub_service(["s0"], max_workers=4)
        try:
            async def run():
                await asyncio.gather(
                    *(
                        svc.authenticate(_auth_request("s0", one_trial))
                        for _ in range(4)
                    )
                )

            asyncio.run(run())
            assert tracker["max_active"] == 1
        finally:
            svc.close()

    def test_cross_user_requests_overlap(self, one_trial):
        users = [f"s{i}" for i in range(4)]
        svc, tracker = _stub_service(users, delay=0.2, max_workers=4)
        try:
            async def run():
                await asyncio.gather(
                    *(
                        svc.authenticate(_auth_request(uid, one_trial))
                        for uid in users
                    )
                )

            start = time.monotonic()
            asyncio.run(run())
            elapsed = time.monotonic() - start
            assert tracker["max_active"] >= 2
            # Four 0.2 s engine calls must not take 4 * 0.2 s.
            assert elapsed < 0.7
        finally:
            svc.close()


class TestLockoutPersistence:
    def _throttled_service(self, registry, capacity=1):
        clock = _Clock()
        svc = AuthService(
            registry,
            retry=RetryPolicy(
                max_failures=2, backoff_base_s=5.0, backoff_factor=2.0
            ),
            session_capacity=capacity,
            clock=clock,
        )
        svc.adopt_user("u0", PIN)
        svc.adopt_user("u1", PIN)
        return svc, clock

    def test_backoff_then_lockout_with_retry_after(
        self, service_registry, probes
    ):
        svc, clock = self._throttled_service(service_registry, capacity=4)
        try:
            trial = probes["legit"][0]
            bad = lambda: _auth_request("u0", trial, pin="9999")  # noqa: E731
            first = asyncio.run(svc.authenticate(bad()))
            assert not first.accepted and first.failures == 1
            assert first.retry_after_s == pytest.approx(5.0)
            # Inside the window: typed 429 with the remaining delay.
            clock.now += 1.0
            with pytest.raises(BackoffError) as exc:
                asyncio.run(svc.authenticate(bad()))
            assert exc.value.retry_after_s == pytest.approx(4.0)
            # Past the window: the attempt runs, fails, and locks out.
            clock.now += 10.0
            second = asyncio.run(svc.authenticate(bad()))
            assert second.failures == 2
            assert second.session_state == "locked"
            with pytest.raises(LockoutError):
                asyncio.run(svc.authenticate(bad()))
            assert svc.stats()["service"]["throttled"] == 2
        finally:
            svc.close()

    def test_lockout_survives_slot_eviction(self, service_registry, probes):
        svc, clock = self._throttled_service(service_registry, capacity=1)
        try:
            trial = probes["legit"][0]
            for _ in range(2):
                asyncio.run(
                    svc.authenticate(_auth_request("u0", trial, pin="9999"))
                )
                clock.now += 100.0
            status = asyncio.run(svc.session_status("u0"))
            assert status.locked
            # u1 takes the only session slot, evicting u0's session.
            asyncio.run(svc.authenticate(_auth_request("u1", probes["impostor"][0])))
            assert svc.stats()["service"]["session_evictions"] == 1
            # The evicted ladder still gates u0: locked, not reset.
            with pytest.raises(LockoutError):
                asyncio.run(
                    svc.authenticate(_auth_request("u0", trial))
                )
            status = asyncio.run(svc.session_status("u0"))
            assert status.locked and status.state == "locked"
        finally:
            svc.close()

    def test_unlock_clears_ladder_and_restores_service(
        self, service_registry, probes
    ):
        svc, clock = self._throttled_service(service_registry, capacity=1)
        try:
            trial = probes["legit"][0]
            for _ in range(2):
                asyncio.run(
                    svc.authenticate(_auth_request("u0", trial, pin="9999"))
                )
                clock.now += 100.0
            # Evict the locked session so the saved ladder is what
            # unlock must clear.
            asyncio.run(svc.authenticate(_auth_request("u1", probes["impostor"][0])))
            asyncio.run(svc.unlock("u0"))
            out = asyncio.run(svc.authenticate(_auth_request("u0", trial)))
            assert out.accepted
        finally:
            svc.close()


class TestAdminSurface:
    def test_stats_shape(self, service, probes):
        asyncio.run(service.authenticate(_auth_request("u0", probes["legit"][0])))
        stats = service.stats()
        assert stats["registry"]["backend"] is None
        assert stats["registry"]["warm_users"] >= 1
        assert stats["service"]["requests"] == 1
        assert stats["service"]["accepted"] == 1
        assert stats["sessions"]["live"] == 1
        assert stats["config"]["stripes"] == 64

    def test_list_users(self, service):
        assert set(service.list_users()) >= {"u0", "u1"}

    def test_warm(self, service):
        n = asyncio.run(service.warm(["u0", "u1"]))
        assert n >= 2
        with pytest.raises(UnknownUserError):
            asyncio.run(service.warm(["ghost"]))

    def test_session_status_for_fresh_user(self, service):
        status = asyncio.run(service.session_status("u0"))
        assert status.state == "off_wrist"
        assert not status.locked and status.failures == 0
        with pytest.raises(UnknownUserError):
            asyncio.run(service.session_status("ghost"))
