"""Race-stress harness: concurrent decisions must equal serial ones.

The contract under test is *bit-identical determinism under
concurrency*: any interleaving of threads through the shared
authenticator, registry, and feature cache must produce exactly the
decisions (and arrays) a serial run produces. A single flipped score
bit fails these tests — scores are compared as exact float tuples, and
cached arrays bitwise.

``test_shared_hot_path_matches_serial`` drives one shared `P2Auth`
(one cached engine) from every thread; an engine that kept per-call
state on the instance would hand one thread's intermediate arrays to
another and return corrupted scores.
``test_many_users_share_thread_buffers`` has every thread walk many
users' authenticators in its own rotation, so each thread interleaves
users while the others do the same with theirs.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core import ModelRegistry, ShardedPackedBackend
from repro.eval.featurecache import FeatureCache

from .conftest import PIN

#: Worker threads per stress test.  Small enough to run everywhere,
#: large enough that (with the 10 us switch interval) every probe sees
#: dozens of preemptions.
THREADS = 4

#: Per-thread passes over the probe list.
ROUNDS = 25


def decision_key(decision) -> Tuple:
    """Every decision field that must match the serial run exactly."""
    return (
        decision.accepted,
        decision.reason,
        decision.input_case,
        decision.pin_ok,
        decision.scores,
        decision.keys_checked,
        decision.passes,
        decision.degradation,
    )


def run_threads(worker: Callable[[int], None], n_threads: int = THREADS) -> List[str]:
    """Run ``worker(thread_index)`` on N barrier-synchronized threads.

    Returns the collected error strings (empty = all threads agreed
    with the serial baseline and raised nothing).
    """
    errors: List[str] = []
    errors_lock = threading.Lock()
    barrier = threading.Barrier(n_threads)

    def wrapped(idx: int) -> None:
        try:
            barrier.wait()
            worker(idx)
        except Exception as exc:  # pragma: no cover - failure path
            with errors_lock:
                errors.append(f"thread {idx}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=wrapped, args=(i,), name=f"stress-{i}")
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestSharedHotPath:
    """Concurrent ``authenticate`` through shared authenticators."""

    def test_shared_hot_path_matches_serial(self, shared_auth, probes):
        # Serial baseline first — also primes the lazy pipelines so the
        # threads race on a fully built object, not on construction.
        baseline = [decision_key(shared_auth.authenticate(t)) for t in probes]
        mismatches: List[str] = []
        report_lock = threading.Lock()

        def worker(idx: int) -> None:
            local: List[str] = []
            for round_no in range(ROUNDS):
                for pi, trial in enumerate(probes):
                    got = decision_key(shared_auth.authenticate(trial))
                    if got != baseline[pi]:
                        local.append(
                            f"thread {idx} round {round_no} probe {pi}: "
                            f"{got!r} != {baseline[pi]!r}"
                        )
            if local:
                with report_lock:
                    mismatches.extend(local[:3])

        errors = run_threads(worker)
        assert not errors, errors
        assert not mismatches, (
            "concurrent authenticate diverged from serial:\n"
            + "\n".join(mismatches[:6])
        )

    def test_many_users_share_thread_buffers(self, user_auths, data):
        # Every thread walks all users' probes in its own rotation, so
        # each thread moves from one user's engine to the next mid-run,
        # while other threads do the same with theirs.
        work = [
            (uid, trial)
            for uid in sorted(user_auths)
            for trial in data.trials(uid, PIN, "one_handed", 8)[6:]
        ]
        baseline = [
            decision_key(user_auths[uid].authenticate(trial))
            for uid, trial in work
        ]
        mismatches: List[str] = []
        report_lock = threading.Lock()

        def worker(idx: int) -> None:
            local: List[str] = []
            for round_no in range(ROUNDS // 5):
                for step in range(len(work)):
                    wi = (step + 2 * idx + round_no) % len(work)
                    uid, trial = work[wi]
                    got = decision_key(user_auths[uid].authenticate(trial))
                    if got != baseline[wi]:
                        local.append(
                            f"thread {idx} round {round_no} user {uid}: "
                            f"{got!r} != {baseline[wi]!r}"
                        )
            if local:
                with report_lock:
                    mismatches.extend(local[:3])

        errors = run_threads(worker)
        assert not errors, errors
        assert not mismatches, (
            "many-user authenticate diverged from serial:\n"
            + "\n".join(mismatches[:6])
        )


class TestRegistryThrash:
    """get/evict/authenticate churn on a backend-backed registry."""

    @pytest.fixture(scope="class")
    def registry(self, tmp_path_factory, data, third_party, monkeypatch_class_env):
        from repro.core import EnrollmentOptions

        # float64 records: a reload scores bit-identically to the
        # enrolled original, so the baseline is the same either way.
        backend = ShardedPackedBackend(
            tmp_path_factory.mktemp("registry"), dtype="float64"
        )
        registry = ModelRegistry(
            capacity=1,  # two users + capacity one = constant reload churn
            backend=backend,
            options=EnrollmentOptions(num_features=840),
        )
        for user_index, user_id in ((0, "alice"), (1, "bob")):
            registry.enroll(
                user_id,
                PIN,
                data.trials(user_index, PIN, "one_handed", 8)[:6],
                third_party,
            )
        return registry

    @pytest.fixture(scope="class")
    def monkeypatch_class_env(self):
        """Class-scoped REPRO_CONCURRENCY_DEBUG=1 so the registry's
        locks are constructed checked."""
        mp = pytest.MonkeyPatch()
        mp.setenv("REPRO_CONCURRENCY_DEBUG", "1")
        yield mp
        mp.undo()

    def test_get_evict_authenticate_thrash(self, registry, data, probes):
        users = ("alice", "bob")
        user_probes = {
            "alice": data.trials(0, PIN, "one_handed", 8)[6:],
            "bob": data.trials(1, PIN, "one_handed", 8)[6:],
        }
        baseline = {
            (uid, pi): decision_key(registry.get(uid).authenticate(trial))
            for uid in users
            for pi, trial in enumerate(user_probes[uid])
        }
        mismatches: List[str] = []
        report_lock = threading.Lock()

        def worker(idx: int) -> None:
            local: List[str] = []
            for round_no in range(8):
                uid = users[(idx + round_no) % 2]
                other = users[(idx + round_no + 1) % 2]
                for pi, trial in enumerate(user_probes[uid]):
                    got = decision_key(registry.get(uid).authenticate(trial))
                    if got != baseline[(uid, pi)]:
                        local.append(
                            f"{uid} probe {pi} (thread {idx}): {got!r}"
                        )
                # Evicting the *other* user forces the next thread that
                # wants them through the unlocked backend-load path.
                registry.evict(other)
                got_pair = [
                    decision_key(registry.get(u).authenticate(user_probes[u][0]))
                    for u in (uid, other)
                ]
                want_pair = [baseline[(uid, 0)], baseline[(other, 0)]]
                if got_pair != want_pair:
                    local.append(f"get+authenticate (thread {idx}): {got_pair!r}")
            if local:
                with report_lock:
                    mismatches.extend(local[:3])

        errors = run_threads(worker)
        assert not errors, errors
        assert not mismatches, (
            "registry thrash diverged from serial:\n" + "\n".join(mismatches[:6])
        )


class TestCacheThrash:
    """Concurrent fill/clear on one shared :class:`FeatureCache`."""

    def _reference(self, trials) -> Sequence:
        reference_cache = FeatureCache()
        return reference_cache.preprocess(trials)

    def test_fill_clear_thrash_stays_bitwise_identical(
        self, monkeypatch, data, third_party
    ):
        monkeypatch.setenv("REPRO_CONCURRENCY_DEBUG", "1")
        trials = data.trials(0, PIN, "one_handed", 8)
        serial = self._reference(trials)
        cache = FeatureCache(max_trials=6)  # below len(trials): evictions live
        mismatches: List[str] = []
        report_lock = threading.Lock()

        def worker(idx: int) -> None:
            local: List[str] = []
            for round_no in range(12):
                got = cache.preprocess(trials)
                for pi, (a, b) in enumerate(zip(got, serial)):
                    if not (
                        np.array_equal(a.detrended, b.detrended)
                        and np.array_equal(a.filtered, b.filtered)
                        and a.keystroke_indices == b.keystroke_indices
                        and a.energy_threshold == b.energy_threshold
                    ):
                        local.append(
                            f"thread {idx} round {round_no} trial {pi}"
                        )
                bank = cache.negative_bank(third_party)
                if bank.full.features.shape[0] == 0:
                    local.append(f"thread {idx}: empty bank")
                if idx == 0 and round_no % 4 == 3:
                    cache.clear()
            if local:
                with report_lock:
                    mismatches.extend(local[:3])

        errors = run_threads(worker)
        assert not errors, errors
        assert not mismatches, (
            "cache thrash diverged from serial:\n" + "\n".join(mismatches[:6])
        )
        # clear() resets the counters, and thread 0's final clear may be
        # the last operation — touch the cache once more so the snapshot
        # API is exercised against known-nonzero counters.
        cache.preprocess(trials)
        stats = cache.stats
        assert stats.trial_hits + stats.trial_misses > 0

    def test_default_cache_returns_one_instance(self):
        from repro.eval.featurecache import clear_default_cache, default_cache

        clear_default_cache()
        seen: List[int] = []
        seen_lock = threading.Lock()

        def worker(idx: int) -> None:
            cache = default_cache()
            with seen_lock:
                seen.append(id(cache))

        errors = run_threads(worker, n_threads=8)
        clear_default_cache()
        assert not errors, errors
        assert len(set(seen)) == 1, (
            "check-then-set race rebuilt the default cache: "
            f"{len(set(seen))} distinct instances"
        )
