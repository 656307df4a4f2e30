"""Unit tests for the packed registry backend (repro.core.backends).

Round-trips cover the protocol surface of the bundled backend; the
concurrency section exercises the protocol's promise that concurrent
store/load/delete of the *same* user id stays safe (any load sees
either a complete template or KeyError, never a torn read).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    EnrollmentOptions,
    P2Auth,
    ShardedPackedBackend,
    pack_authenticator,
)
from repro.data import ThirdPartyStore
from repro.errors import ConfigurationError

PIN = "1628"
FEATURES = 840

BACKENDS = {"sharded": ShardedPackedBackend}


@pytest.fixture(scope="module")
def alice(study_data):
    enroll = study_data.trials(0, PIN, "one_handed", 5)
    store = ThirdPartyStore(study_data, [1, 2, 3, 4], PIN)
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
    auth.enroll(enroll, store.sample(15))
    return auth


@pytest.fixture(scope="module")
def battery(study_data):
    legit = study_data.trials(0, PIN, "one_handed", 7)[5:7]
    two_handed = study_data.trials(0, PIN, "double3", 1)
    attack = study_data.emulating_trials(4, 0, PIN, 1)
    probes = [(t, None) for t in legit + two_handed + attack]
    probes.append((legit[0], "0000"))
    return probes


def _make(kind, root):
    return BACKENDS[kind](root)


@pytest.mark.parametrize("kind", sorted(BACKENDS))
class TestProtocolRoundTrip:
    def test_round_trip_preserves_battery_decisions(
        self, kind, alice, battery, tmp_path
    ):
        backend = _make(kind, tmp_path)
        backend.store("alice", alice)
        reloaded = backend.load("alice")
        for trial, pin in battery:
            ref = alice.authenticate(trial, claimed_pin=pin)
            got = reloaded.authenticate(trial, claimed_pin=pin)
            assert got.accepted == ref.accepted
            assert got.input_case == ref.input_case
            assert got.pin_ok == ref.pin_ok

    def test_membership_surface(self, kind, alice, tmp_path):
        backend = _make(kind, tmp_path)
        assert backend.user_ids() == []
        assert not backend.exists("alice")
        assert "alice" not in backend
        backend.store("alice", alice)
        backend.store("bob", alice)
        assert backend.user_ids() == ["alice", "bob"]
        assert backend.exists("alice") and "bob" in backend
        assert not backend.exists("nobody")
        # Ids the store path would reject are simply absent.
        assert not backend.exists("no spaces")

    def test_delete_then_load_raises_key_error(self, kind, alice, tmp_path):
        backend = _make(kind, tmp_path)
        backend.store("alice", alice)
        backend.delete("alice")
        backend.delete("alice")  # idempotent
        assert backend.user_ids() == []
        with pytest.raises(KeyError):
            backend.load("alice")

    def test_missing_user_raises_key_error(self, kind, tmp_path):
        with pytest.raises(KeyError):
            _make(kind, tmp_path).load("ghost")

    def test_restore_supersedes(self, kind, alice, tmp_path):
        backend = _make(kind, tmp_path)
        backend.store("alice", alice)
        backend.store("alice", alice)
        assert backend.user_ids() == ["alice"]
        assert backend.load("alice").enrolled

    def test_reopen_sees_stored_users(self, kind, alice, tmp_path):
        first = _make(kind, tmp_path)
        first.store("alice", alice)
        second = _make(kind, tmp_path)
        assert second.user_ids() == ["alice"]
        assert second.load("alice").enrolled


@pytest.mark.parametrize("kind", sorted(BACKENDS))
class TestSameIdConcurrency:
    """The protocol docstring's concurrency promise, exercised."""

    def test_concurrent_store_load_delete_same_id(
        self, kind, alice, study_data, tmp_path
    ):
        backend = _make(kind, tmp_path)
        backend.store("shared", alice)
        probe = study_data.trials(0, PIN, "one_handed", 7)[6]
        ref = alice.authenticate(probe)
        errors = []
        barrier = threading.Barrier(6)

        def worker(role):
            barrier.wait()
            try:
                for _ in range(8):
                    if role % 3 == 0:
                        backend.store("shared", alice)
                    elif role % 3 == 1:
                        try:
                            loaded = backend.load("shared")
                        except KeyError:
                            continue  # deleted concurrently: allowed
                        got = loaded.authenticate(probe)
                        assert got.accepted == ref.accepted
                        np.testing.assert_allclose(
                            got.scores, ref.scores, rtol=0, atol=1e-5
                        )
                    else:
                        backend.delete("shared")
                        backend.exists("shared")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6)))
        assert errors == []
        # The backend is still consistent: a final store round-trips.
        backend.store("shared", alice)
        assert backend.load("shared").enrolled


class TestShardedLayout:
    def test_manifest_pins_shards_and_dtype(self, alice, tmp_path):
        first = ShardedPackedBackend(tmp_path, n_shards=8, dtype="float16")
        first.store("alice", alice)
        # Reopen with different constructor args: the manifest wins, so
        # the shard of an existing user never moves.
        second = ShardedPackedBackend(tmp_path, n_shards=64, dtype="float64")
        assert second.n_shards == 8
        assert second.dtype == "float16"
        assert second.load("alice").enrolled

    def test_extractors_written_once(self, alice, tmp_path):
        backend = ShardedPackedBackend(tmp_path)
        packed = pack_authenticator(alice, dtype="float32")
        for user in ("u1", "u2", "u3"):
            backend.store_packed(user, packed)
        blobs = list((tmp_path / "extractors").glob("*.p2x"))
        assert len(blobs) == len(packed.extractors)
        records = list(tmp_path.glob("shards/*/*.p2u"))
        assert len(records) == 3

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedPackedBackend(tmp_path / "a", n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedPackedBackend(tmp_path / "b", dtype="int8")
