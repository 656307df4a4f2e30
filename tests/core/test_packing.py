"""Unit tests for the packed template format (repro.core.packing).

The decision-parity contract documented in docs/performance.md is
pinned here: float64 records reproduce scores bit-identically;
float32/float16 records reproduce every *decision* of the standard
probe battery (legit / two-handed / attack / wrong-PIN) with score
drift inside the documented tolerances.
"""

import numpy as np
import pytest

from repro.core import (
    EnrollmentOptions,
    P2Auth,
    build_negative_bank,
    pack_authenticator,
    unpack_authenticator,
)
from repro.core.packing import (
    EXTRACTOR_MAGIC,
    RECORD_MAGIC,
    decode_extractor,
    unpack_record,
)
from repro.core.stages import AuthPipeline
from repro.data import ThirdPartyStore
from repro.errors import ConfigurationError, PersistenceError

PIN = "1628"
FEATURES = 840

#: Score drift bounds per storage dtype (documented in
#: docs/performance.md "Registry storage"); float64 must be bit-exact.
SCORE_ATOL = {"float32": 1e-6, "float16": 1e-2}

DECISION_FIELDS = (
    "accepted", "reason", "input_case", "pin_ok", "scores",
    "keys_checked", "passes", "degradation",
)


@pytest.fixture(scope="module")
def enrolled(study_data):
    enroll = study_data.trials(0, PIN, "one_handed", 5)
    store = ThirdPartyStore(study_data, [1, 2, 3, 4], PIN)
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
    auth.enroll(enroll, store.sample(15))
    return auth


@pytest.fixture(scope="module")
def battery(study_data):
    """The standard probe battery: (trial, claimed_pin) pairs."""
    legit = study_data.trials(0, PIN, "one_handed", 7)[5:7]
    two_handed = study_data.trials(0, PIN, "double3", 2)
    attack = study_data.emulating_trials(4, 0, PIN, 2)
    probes = [(t, None) for t in legit + two_handed + attack]
    probes.append((legit[0], "0000"))  # wrong PIN
    return probes


def _decide(auth, probes):
    return [
        auth.authenticate(trial, claimed_pin=pin) for trial, pin in probes
    ]


class TestDecisionParity:
    def test_float64_round_trip_is_bit_exact(self, enrolled, battery):
        reloaded = unpack_authenticator(
            pack_authenticator(enrolled, dtype="float64")
        )
        for ref, got in zip(_decide(enrolled, battery),
                            _decide(reloaded, battery)):
            for field in DECISION_FIELDS:
                assert getattr(ref, field) == getattr(got, field)

    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    def test_quantized_decisions_match_with_bounded_drift(
        self, enrolled, battery, dtype
    ):
        reloaded = unpack_authenticator(
            pack_authenticator(enrolled, dtype=dtype)
        )
        for ref, got in zip(_decide(enrolled, battery),
                            _decide(reloaded, battery)):
            assert got.accepted == ref.accepted
            assert got.input_case == ref.input_case
            assert got.pin_ok == ref.pin_ok
            assert got.keys_checked == ref.keys_checked
            assert got.passes == ref.passes
            if dtype == "float32":
                # Reason strings embed scores at 3 decimals; float16
                # drift (~1e-3) can move that digit, float32 cannot.
                assert got.reason == ref.reason
            np.testing.assert_allclose(
                got.scores, ref.scores, rtol=0, atol=SCORE_ATOL[dtype]
            )

    def test_battery_covers_accepts_and_rejects(self, enrolled, battery):
        decisions = _decide(enrolled, battery)
        assert any(d.accepted for d in decisions)
        assert any(not d.accepted for d in decisions)


def staged_run(auth, trial, pin_ok):
    """One probe through the staged engine (``authenticate`` is fused)."""
    pipeline = AuthPipeline(
        auth.models,
        config=auth.config,
        policy=auth.policy,
        no_pin_mode=auth.no_pin_mode,
    )
    return pipeline.run([trial], [pin_ok])[0]


def _slot_vectors(auth):
    """``(owner, attribute)`` of every per-user vector, slot by slot."""
    models = auth.models
    slots = [m for m in (models.full_model, models.fused_model) if m is not None]
    slots.extend(models.key_models.values())
    return [
        (owner, attr)
        for model in slots
        for owner, attr in (
            (model._scaler, "_mean"),
            (model._scaler, "_scale"),
            (model._classifier, "coef_"),
        )
    ]


class TestStoredDtype:
    """Unpacked vectors stay in their stored dtype, as record views."""

    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    def test_scores_bit_identical_to_widened_copy(
        self, enrolled, battery, dtype
    ):
        packed = pack_authenticator(enrolled, dtype=dtype)
        stored = unpack_authenticator(packed)
        widened = unpack_authenticator(packed)
        for owner, attr in _slot_vectors(widened):
            setattr(owner, attr, np.asarray(getattr(owner, attr), np.float64))
        for trial, pin in battery:
            pin_ok = stored._pin_verdict(trial, pin)
            pairs = (
                (stored.authenticate(trial, claimed_pin=pin),
                 widened.authenticate(trial, claimed_pin=pin)),
                (staged_run(stored, trial, pin_ok),
                 staged_run(widened, trial, pin_ok)),
            )
            for got, ref in pairs:
                for field in DECISION_FIELDS:
                    assert getattr(got, field) == getattr(ref, field)

    @pytest.mark.parametrize("dtype", ["float64", "float32", "float16"])
    def test_vectors_are_record_views_in_stored_dtype(self, enrolled, dtype):
        packed = pack_authenticator(enrolled, dtype=dtype)
        record = np.frombuffer(packed.record, dtype=np.uint8)
        auth = unpack_record(
            packed.record,
            lambda fp: decode_extractor(packed.extractors[fp]),
        )
        vectors = [getattr(owner, attr) for owner, attr in _slot_vectors(auth)]
        assert vectors
        for vector in vectors:
            assert vector.dtype == np.dtype(dtype)
            assert np.shares_memory(vector, record)


class TestFormat:
    def test_pack_is_deterministic(self, enrolled):
        first = pack_authenticator(enrolled, dtype="float32")
        second = pack_authenticator(enrolled, dtype="float32")
        assert first.record == second.record
        assert first.extractors == second.extractors

    def test_float16_is_smaller_than_float32(self, enrolled):
        f32 = pack_authenticator(enrolled, dtype="float32")
        f16 = pack_authenticator(enrolled, dtype="float16")
        assert f16.record_nbytes < f32.record_nbytes

    def test_extractor_blob_round_trips(self, enrolled):
        packed = pack_authenticator(enrolled)
        fingerprint, blob = next(iter(packed.extractors.items()))
        rocket = decode_extractor(blob)
        assert rocket._fitted

    def test_unknown_dtype_rejected(self, enrolled):
        with pytest.raises(ConfigurationError):
            pack_authenticator(enrolled, dtype="bfloat16")

    def test_bad_magic_rejected(self, enrolled):
        packed = pack_authenticator(enrolled)
        with pytest.raises(PersistenceError):
            unpack_record(b"XXXX" + packed.record[4:], lambda fp: None)
        blob = next(iter(packed.extractors.values()))
        with pytest.raises(PersistenceError):
            decode_extractor(b"XXXX" + blob[4:])

    @pytest.mark.parametrize("cut", ["prelude", "header", "middle", "tail"])
    def test_truncated_record_raises_persistence_error(self, enrolled, cut):
        record = pack_authenticator(enrolled, dtype="float64").record
        end = {"prelude": 10, "header": 40, "middle": len(record) // 2,
               "tail": len(record) - 8}[cut]
        with pytest.raises(PersistenceError):
            unpack_record(record[:end], lambda fp: None)

    def test_invalid_header_json_raises_persistence_error(self, enrolled):
        record = bytearray(pack_authenticator(enrolled).record)
        record[12] = ord("}")  # first byte of the JSON header
        with pytest.raises(PersistenceError):
            unpack_record(bytes(record), lambda fp: None)

    def test_record_and_extractor_magics_differ(self, enrolled):
        packed = pack_authenticator(enrolled)
        assert packed.record[:4] == RECORD_MAGIC
        for blob in packed.extractors.values():
            assert blob[:4] == EXTRACTOR_MAGIC
        # A record is not decodable as an extractor and vice versa.
        with pytest.raises(PersistenceError):
            decode_extractor(packed.record)


class TestExtractorSharing:
    def test_bank_enrolled_users_share_fingerprints(self, study_data):
        """Users enrolled against one NegativeBank dedup to one set."""
        options = EnrollmentOptions(num_features=FEATURES)
        store = ThirdPartyStore(study_data, [2, 3, 4], PIN)
        bank = build_negative_bank(store.sample(15), options=options)
        packs = []
        for user in (0, 1):
            auth = P2Auth(pin=PIN, options=options)
            auth.enroll(
                study_data.trials(user, PIN, "one_handed", 5),
                store.sample(15),
                shared_negatives=bank,
            )
            packs.append(pack_authenticator(auth))
        assert sorted(packs[0].extractors) == sorted(packs[1].extractors)
        for fingerprint, blob in packs[0].extractors.items():
            assert packs[1].extractors[fingerprint] == blob

    def test_unshared_users_do_not_collide(self, study_data, enrolled):
        other = P2Auth(
            pin=PIN, options=EnrollmentOptions(num_features=FEATURES)
        )
        other.enroll(
            study_data.trials(1, PIN, "one_handed", 5),
            ThirdPartyStore(study_data, [2, 3, 4], PIN).sample(15),
        )
        a = pack_authenticator(enrolled)
        b = pack_authenticator(other)
        # Different fitted negatives => different bias tables => no
        # accidental fingerprint collisions.
        assert not set(a.extractors) & set(b.extractors)
