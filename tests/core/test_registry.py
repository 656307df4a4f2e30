"""Unit tests for the multi-user model registry."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    EnrollmentOptions,
    ModelRegistry,
    P2Auth,
    ShardedPackedBackend,
    pack_authenticator,
)
from repro.data import ThirdPartyStore
from repro.errors import ConfigurationError
from repro.eval import materialize_population
from repro.features import MiniRocket
from repro.features import minirocket as mr

PIN = "1628"
FEATURES = 840


def _backend(root):
    """A float64 store: reloads score bit-identically to the original."""
    return ShardedPackedBackend(root, dtype="float64")


def _enrolled(study_data, user_id):
    enroll = study_data.trials(user_id, PIN, "one_handed", 5)
    store = ThirdPartyStore(
        study_data, [u for u in range(5) if u != user_id], PIN
    )
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
    auth.enroll(enroll, store.sample(15))
    return auth


@pytest.fixture(scope="module")
def alice(study_data):
    return _enrolled(study_data, 0)


@pytest.fixture(scope="module")
def bob(study_data):
    return _enrolled(study_data, 1)


class TestValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ModelRegistry(capacity=0)

    def test_user_id_charset_enforced(self, alice):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError):
            registry.add("no spaces allowed", alice)
        with pytest.raises(ConfigurationError):
            registry.add("", alice)

    def test_unenrolled_authenticator_rejected(self):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError):
            registry.add("alice", P2Auth(pin=PIN))

    def test_missing_user_raises_key_error(self):
        with pytest.raises(KeyError):
            ModelRegistry().get("nobody")


class TestLruBehaviour:
    def test_capacity_bound_holds(self, alice):
        registry = ModelRegistry(capacity=2)
        for name in ("a", "b", "c", "d"):
            registry.add(name, alice)
            assert len(registry) <= 2

    def test_eviction_order_is_least_recently_used(self, alice):
        registry = ModelRegistry(capacity=2)
        registry.add("a", alice)
        registry.add("b", alice)
        # Touch "a" so "b" becomes the LRU entry.
        registry.get("a")
        registry.add("c", alice)
        assert registry.cached_users() == ["a", "c"]
        with pytest.raises(KeyError):
            registry.get("b")

    def test_explicit_evict_only_touches_memory(self, alice, tmp_path):
        backend = _backend(tmp_path)
        registry = ModelRegistry(backend=backend)
        registry.add("alice", alice)
        assert registry.evict("alice")
        assert not registry.evict("alice")
        # Still loadable through the backend.
        assert "alice" in registry.list_users()
        assert registry.get("alice").enrolled

    def test_remove_forgets_backend_copy(self, alice, tmp_path):
        registry = ModelRegistry(backend=_backend(tmp_path))
        registry.add("alice", alice)
        registry.remove("alice")
        assert registry.list_users() == []
        with pytest.raises(KeyError):
            registry.get("alice")


class TestBackendRoundTrip:
    def test_evicted_user_scores_identically_after_reload(
        self, alice, study_data, tmp_path
    ):
        registry = ModelRegistry(capacity=1, backend=_backend(tmp_path))
        registry.add("alice", alice)
        probes = study_data.trials(0, PIN, "one_handed", 7)[5:]
        before = [registry.authenticate("alice", p) for p in probes]
        registry.add("filler", alice)  # evicts alice from memory
        assert registry.cached_users() == ["filler"]
        after = [registry.authenticate("alice", p) for p in probes]
        for b, a in zip(before, after):
            assert b.accepted == a.accepted
            assert b.reason == a.reason
            np.testing.assert_allclose(b.scores, a.scores, rtol=0, atol=0)

    def test_fresh_registry_sees_stored_users(self, alice, bob, tmp_path):
        backend = _backend(tmp_path)
        first = ModelRegistry(backend=backend)
        first.add("alice", alice)
        first.add("bob", bob)
        rebooted = ModelRegistry(backend=_backend(tmp_path))
        assert rebooted.list_users() == ["alice", "bob"]
        assert rebooted.cached_users() == []
        assert rebooted.get("bob").enrolled

    def test_two_users_authenticate_independently(
        self, alice, bob, study_data
    ):
        registry = ModelRegistry()
        registry.add("alice", alice)
        registry.add("bob", bob)
        alice_probe = study_data.trials(0, PIN, "one_handed", 7)[6]
        bob_probe = study_data.trials(1, PIN, "one_handed", 7)[6]
        assert registry.authenticate("alice", alice_probe).accepted
        assert registry.authenticate("bob", bob_probe).accepted
        # Cross-user probes score differently from same-user probes.
        cross = registry.authenticate("bob", alice_probe)
        own = registry.authenticate("alice", alice_probe)
        assert cross.scores != own.scores


class TestThreadSafety:
    def test_concurrent_get_add_evict(self, alice):
        registry = ModelRegistry(capacity=3)
        names = [f"user-{i}" for i in range(8)]
        for name in names[:3]:
            registry.add(name, alice)
        errors = []
        barrier = threading.Barrier(8)

        def hammer(worker):
            barrier.wait()
            try:
                for i in range(50):
                    name = names[(worker + i) % len(names)]
                    registry.add(name, alice)
                    try:
                        assert registry.get(name).enrolled
                    except KeyError:
                        pass  # concurrently evicted: allowed
                    registry.evict(names[(worker + i + 1) % len(names)])
                    assert len(registry) <= 3
                    registry.cached_users()
                    registry.list_users()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert errors == []
        assert len(registry) <= 3


class _BlockingBackend:
    """Test backend whose ``load`` parks on a barrier.

    The barrier only releases when *both* loader threads are inside
    ``load`` at the same time — which is impossible if the registry
    still held its lock across backend I/O. A timeout (broken barrier)
    therefore means the loads serialized.
    """

    def __init__(self, auth, parties=2, timeout=10.0):
        self._auth = auth
        self._barrier = threading.Barrier(parties)
        self._timeout = timeout

    def store(self, user_id, auth):
        pass

    def load(self, user_id):
        self._barrier.wait(timeout=self._timeout)
        import copy

        return copy.copy(self._auth)

    def delete(self, user_id):
        pass

    def user_ids(self):
        return []


class TestLockFreeLoads:
    def test_concurrent_misses_load_in_parallel(self, alice):
        registry = ModelRegistry(backend=_BlockingBackend(alice))
        results, errors = {}, []

        def fetch(name):
            try:
                results[name] = registry.get(name)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=fetch, args=(name,))
            for name in ("u1", "u2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert results["u1"].enrolled and results["u2"].enrolled
        assert sorted(registry.cached_users()) == ["u1", "u2"]

    def test_same_user_race_publishes_one_instance(self, alice):
        registry = ModelRegistry(backend=_BlockingBackend(alice))
        results, errors = [], []

        def fetch():
            try:
                results.append(registry.get("shared"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        # Both loads completed, but exactly one instance was published
        # and every caller got it.
        assert len(results) == 2
        assert results[0] is results[1]
        assert registry.get("shared") is results[0]

    def test_loaded_user_arrives_warmed(self, alice, tmp_path):
        registry = ModelRegistry(backend=_backend(tmp_path))
        registry.add("alice", alice)
        registry.evict("alice")
        loaded = registry.get("alice")
        # The registry warmed the authenticator on load: a direct
        # warmup call finds no cold work left.
        assert loaded.warmup() is False


class TestPlannedLoads:
    """A registry miss costs one load: warming runs no transform."""

    def test_get_runs_no_transform_once_extractors_are_planned(
        self, alice, tmp_path, monkeypatch
    ):
        backend = ShardedPackedBackend(tmp_path, n_shards=4)
        ids = materialize_population(
            backend, 8, [pack_authenticator(alice, "float32")]
        )
        registry = ModelRegistry(backend=backend, capacity=2)
        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            mr._ckernel, "transform_prepared",
            spy("transform", mr._ckernel.transform_prepared),
        )
        monkeypatch.setattr(
            MiniRocket, "_transform_vectorized",
            spy("transform", MiniRocket._transform_vectorized),
        )
        monkeypatch.setattr(
            mr._ckernel, "prepare", spy("prepare", mr._ckernel.prepare)
        )

        def rockets(auth):
            return [
                model._rocket for model in auth.hot_pipeline._iter_models()
            ]

        per_get = []
        for uid in ids:
            registry.evict(uid)
            del calls[:]
            loaded = registry.get(uid)
            per_get.append(list(calls))
            if mr._ckernel.available():
                assert all(r._plan is not None for r in rockets(loaded))
        assert registry.stats["misses"] == len(ids)
        # Every user shares the first user's pooled, planned extractors,
        # so after the first load a get builds no plan and transforms
        # nothing; the first load plans without transforming either.
        assert all(name == "prepare" for name in per_get[0])
        assert per_get[1:] == [[]] * (len(ids) - 1)
        first = rockets(registry.get(ids[-1]))
        registry.evict(ids[0])
        assert [id(r) for r in rockets(registry.get(ids[0]))] == [
            id(r) for r in first
        ]


class TestShardedHygiene:
    def test_user_ids_skips_invalid_stems(self, alice, tmp_path):
        backend = _backend(tmp_path)
        backend.store("alice", alice)
        # Stray records whose stems load() would reject must not leak
        # into the listing.
        stray = tmp_path / "shards" / "0000"
        stray.mkdir(parents=True, exist_ok=True)
        (stray / "has space.p2u").write_bytes(b"junk")
        (stray / ("x" * 65 + ".p2u")).write_bytes(b"junk")
        assert backend.user_ids() == ["alice"]

    def test_exists_is_list_consistent(self, alice, tmp_path):
        backend = _backend(tmp_path)
        backend.store("alice", alice)
        assert backend.exists("alice") and "alice" in backend
        assert not backend.exists("bob")
        assert not backend.exists("has space")  # invalid id: absent


class _CountingBackend:
    """Backend counting protocol calls; exists() is the cheap probe."""

    def __init__(self):
        self.exists_calls = 0
        self.user_ids_calls = 0

    def store(self, user_id, auth):
        pass

    def load(self, user_id):
        raise KeyError(user_id)

    def delete(self, user_id):
        pass

    def user_ids(self):
        self.user_ids_calls += 1
        return ["stored"]

    def exists(self, user_id):
        self.exists_calls += 1
        return user_id == "stored"


class TestMembershipProbe:
    def test_contains_uses_exists_not_directory_scan(self):
        backend = _CountingBackend()
        registry = ModelRegistry(backend=backend)
        assert "stored" in registry
        assert "absent" not in registry
        assert backend.exists_calls == 2
        assert backend.user_ids_calls == 0


class TestCacheStats:
    def test_hits_misses_evictions_counted(self, alice, tmp_path):
        registry = ModelRegistry(
            capacity=1, backend=_backend(tmp_path)
        )
        assert registry.stats == {"hits": 0, "misses": 0, "evictions": 0}
        registry.add("alice", alice)
        registry.get("alice")  # memory hit
        registry.add("bob", alice)  # evicts alice
        registry.get("bob")  # hit
        registry.get("alice")  # miss -> backend load (evicts bob)
        with pytest.raises(KeyError):
            registry.get("nobody")  # miss, nowhere to load from
        stats = registry.stats
        assert stats["hits"] == 2
        assert stats["misses"] == 2
        assert stats["evictions"] == 2

    def test_explicit_evict_not_counted(self, alice):
        registry = ModelRegistry()
        registry.add("alice", alice)
        registry.evict("alice")
        assert registry.stats["evictions"] == 0


class TestAdminSurface:
    def test_warm_users_snapshot(self, alice, bob):
        registry = ModelRegistry()
        assert registry.warm_users() == frozenset()
        registry.add("alice", alice)
        registry.add("bob", bob)
        warm = registry.warm_users()
        assert warm == frozenset({"alice", "bob"})
        registry.evict("alice")
        assert registry.warm_users() == frozenset({"bob"})
        # The snapshot is independent of later registry mutations.
        assert warm == frozenset({"alice", "bob"})

    def test_warm_users_does_not_touch_lru_order(self, alice, bob):
        registry = ModelRegistry(capacity=2)
        registry.add("alice", alice)
        registry.add("bob", bob)
        registry.warm_users()  # must not count as a use of either user
        registry.add("carol", bob)
        assert "alice" not in registry.warm_users()  # LRU, not snapshot order

    def test_describe_memory_only(self, alice):
        registry = ModelRegistry(capacity=4)
        registry.add("alice", alice)
        meta = registry.describe()
        assert meta["capacity"] == 4
        assert meta["backend"] is None
        assert meta["cached_users"] == 1
        assert meta["stats"] == {"hits": 0, "misses": 0, "evictions": 0}

    def test_describe_names_backend_kind_and_counters(self, alice, tmp_path):
        backend = _backend(tmp_path / "models")
        registry = ModelRegistry(capacity=1, backend=backend)
        registry.add("alice", alice)
        registry.get("alice")
        registry.evict("alice")
        registry.get("alice")  # miss -> backend load
        meta = registry.describe()
        assert meta["backend"] == "ShardedPackedBackend"
        assert meta["capacity"] == 1
        assert meta["stats"]["hits"] == 1
        assert meta["stats"]["misses"] == 1
