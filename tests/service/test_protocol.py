"""Wire protocol: proof crypto, strict parsing, trial round trips."""

from __future__ import annotations

import hashlib
import hmac
import json

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.service.protocol import (
    AuthRequest,
    AuthResponse,
    EnrollBeginRequest,
    EnrollCompleteRequest,
    MAX_TOKEN_CHARS,
    decode_trial,
    encode_trial,
    make_nonce,
    make_pin,
    pin_proof,
    verify_proof,
)

from .conftest import PIN


class TestProofCrypto:
    def test_proof_is_deterministic(self):
        assert pin_proof("1628", "u0", "abc") == pin_proof("1628", "u0", "abc")

    @pytest.mark.parametrize(
        "pin,user,nonce",
        [("1629", "u0", "abc"), ("1628", "u1", "abc"), ("1628", "u0", "abd")],
    )
    def test_proof_varies_with_every_input(self, pin, user, nonce):
        assert pin_proof(pin, user, nonce) != pin_proof("1628", "u0", "abc")

    def test_verify_accepts_canonical_proof(self):
        nonce = make_nonce()
        proof = pin_proof("1628", "u0", nonce)
        assert verify_proof("1628", "u0", nonce, proof)

    def test_verify_refuses_derived_key_proof(self):
        # The same MAC keyed by a PIN-derived key instead of the PIN is
        # a second proof form; only pin_proof verifies.
        nonce = make_nonce()
        key = hmac.new(b"1628", b"p2auth/proof-key/u0", hashlib.sha256).hexdigest()
        proof = hmac.new(
            key.encode(), b"u0|" + nonce.encode(), hashlib.sha256
        ).hexdigest()
        assert not verify_proof("1628", "u0", nonce, proof)

    def test_verify_rejects_wrong_pin(self):
        nonce = make_nonce()
        assert not verify_proof("1628", "u0", nonce, pin_proof("0000", "u0", nonce))

    def test_verify_rejects_transplanted_proof(self):
        # A proof minted for one user/nonce must not verify elsewhere.
        nonce = make_nonce()
        proof = pin_proof("1628", "u0", nonce)
        assert not verify_proof("1628", "u1", nonce, proof)
        assert not verify_proof("1628", "u0", make_nonce(), proof)

    def test_raw_pin_never_appears_in_proof(self):
        nonce = make_nonce()
        assert "1628" not in pin_proof("1628", "u0", nonce)

    def test_make_pin_digits_and_length(self):
        pin = make_pin(6)
        assert len(pin) == 6 and pin.isdigit()
        with pytest.raises(ProtocolError):
            make_pin(0)

    def test_nonces_are_unique_and_hex(self):
        nonces = {make_nonce() for _ in range(64)}
        assert len(nonces) == 64
        assert all(len(n) == 32 and int(n, 16) >= 0 for n in nonces)


class TestTrialRoundTrip:
    def test_round_trip_is_bit_identical(self, one_trial):
        back = decode_trial(encode_trial(one_trial), one_trial.pin)
        assert back.pin == one_trial.pin
        assert back.one_handed == one_trial.one_handed
        assert back.user_id == one_trial.user_id
        assert back.recording.fs == one_trial.recording.fs
        assert back.recording.channels == one_trial.recording.channels
        # Exact equality, not allclose: the samples must survive the
        # wire byte-for-byte or decision parity is unprovable.
        assert np.array_equal(
            back.recording.samples, one_trial.recording.samples
        )
        assert back.events == one_trial.events

    def test_wire_payload_carries_no_digit_labels(self, one_trial):
        wire = encode_trial(one_trial)
        assert "pin" not in wire
        assert all("key" not in ev for ev in wire["events"])

    def test_accel_streams_are_refused(self, accel_trial):
        with pytest.raises(ProtocolError, match="accel"):
            encode_trial(accel_trial)

    def test_event_count_must_match_pin_length(self, one_trial):
        wire = encode_trial(one_trial)
        with pytest.raises(ProtocolError, match="events"):
            decode_trial(wire, one_trial.pin + "9")

    def test_unknown_field_rejected(self, one_trial):
        wire = encode_trial(one_trial)
        wire["surprise"] = 1
        with pytest.raises(ProtocolError, match="unknown field"):
            decode_trial(wire, one_trial.pin)

    def test_bad_base64_rejected(self, one_trial):
        wire = encode_trial(one_trial)
        wire["recording"]["samples_b64"] = "!!not-base64!!"
        with pytest.raises(ProtocolError, match="base64"):
            decode_trial(wire, one_trial.pin)

    def test_sample_byte_count_must_match_shape(self, one_trial):
        wire = encode_trial(one_trial)
        wire["recording"]["shape"] = [1, 8]
        with pytest.raises(ProtocolError, match="bytes"):
            decode_trial(wire, one_trial.pin)

    def test_bool_is_not_an_int(self, one_trial):
        wire = encode_trial(one_trial)
        wire["typist"] = True
        with pytest.raises(ProtocolError, match="boolean"):
            decode_trial(wire, one_trial.pin)

    @pytest.mark.parametrize(
        "value", [10**400, float("nan"), float("inf")],
        ids=["int-1e400", "nan", "inf"],
    )
    @pytest.mark.parametrize(
        "where", ["fs", "start_time", "true_time", "reported_time"]
    )
    def test_non_finite_number_rejected(self, one_trial, where, value):
        # json.loads yields all three; float(10**400) overflows, and a
        # NaN or infinity reaching the engine answered 500.
        wire = json.loads(json.dumps(encode_trial(one_trial)))
        holder = wire["recording"] if where in ("fs", "start_time") else wire["events"][1]
        holder[where] = value
        with pytest.raises(ProtocolError, match="finite number"):
            decode_trial(wire, one_trial.pin)

    @pytest.mark.parametrize(
        "moved",
        [
            lambda start, end: -1e9,
            lambda start, end: 1e9,
            lambda start, end: start - 0.5,
            lambda start, end: end + 0.5,
        ],
        ids=["-1e9", "1e9", "before-start", "after-end"],
    )
    def test_keystroke_time_outside_recording_rejected(self, one_trial, moved):
        # Calibration would clamp it onto the first or last sample.
        rec = one_trial.recording
        start, end = rec.start_time, rec.start_time + rec.n_samples / rec.fs
        wire = encode_trial(one_trial)
        wire["events"][1]["reported_time"] = moved(start, end)
        with pytest.raises(ProtocolError, match="outside the recording"):
            decode_trial(wire, one_trial.pin)

    def test_keystroke_time_on_either_edge_accepted(self, one_trial):
        rec = one_trial.recording
        edges = (rec.start_time, rec.start_time + rec.n_samples / rec.fs)
        for i, edge in enumerate(edges):
            wire = encode_trial(one_trial)
            wire["events"][i]["reported_time"] = edge
            assert decode_trial(wire, one_trial.pin).events[i].reported_time == edge

    def test_unknown_hand_rejected(self, one_trial):
        wire = encode_trial(one_trial)
        wire["events"][0]["hand"] = "tentacle"
        with pytest.raises(ProtocolError, match="hand"):
            decode_trial(wire, one_trial.pin)

    def test_missing_recording_rejected(self, one_trial):
        wire = encode_trial(one_trial)
        del wire["recording"]
        with pytest.raises(ProtocolError, match="recording"):
            decode_trial(wire, one_trial.pin)


class TestRequestParsers:
    def test_enroll_begin_strict(self):
        assert EnrollBeginRequest.parse({"user_id": "u0"}).user_id == "u0"
        with pytest.raises(ProtocolError):
            EnrollBeginRequest.parse({"user_id": "u0", "extra": 1})
        with pytest.raises(ProtocolError):
            EnrollBeginRequest.parse(["u0"])
        with pytest.raises(ProtocolError):
            EnrollBeginRequest.parse({"user_id": ""})

    def test_enroll_complete_requires_trials(self):
        base = {"user_id": "u0", "nonce": "n", "proof": "p"}
        with pytest.raises(ProtocolError, match="trials"):
            EnrollCompleteRequest.parse(base)
        with pytest.raises(ProtocolError, match="non-empty"):
            EnrollCompleteRequest.parse({**base, "trials": []})

    def test_auth_request_requires_proof(self, one_trial):
        body = {"user_id": "u0", "nonce": "n", "trial": encode_trial(one_trial)}
        with pytest.raises(ProtocolError, match="proof"):
            AuthRequest.parse(body)
        parsed = AuthRequest.parse({**body, "proof": "p"})
        assert parsed.user_id == "u0"

    def test_nonce_and_proof_are_bounded_printable_ascii(self, one_trial):
        nonce = make_nonce()
        body = {
            "user_id": "u0",
            "nonce": nonce,
            "proof": pin_proof(PIN, "u0", nonce),
            "trial": encode_trial(one_trial),
        }
        enroll = {k: v for k, v in body.items() if k != "trial"}
        enroll["trials"] = [body["trial"]]
        assert AuthRequest.parse(body).nonce == nonce
        assert EnrollCompleteRequest.parse(enroll).nonce == nonce
        longest = "n" * MAX_TOKEN_CHARS
        assert AuthRequest.parse({**body, "nonce": longest}).nonce == longest
        for field in ("nonce", "proof"):
            for bad in ("n" * (MAX_TOKEN_CHARS + 1), "\u00e9", "\ud800", "a\nb"):
                with pytest.raises(ProtocolError, match=field):
                    AuthRequest.parse({**body, field: bad})
                with pytest.raises(ProtocolError, match=field):
                    EnrollCompleteRequest.parse({**enroll, field: bad})

    def test_auth_response_withholds_keys_checked(self):
        wire = AuthResponse(
            user_id="u0", accepted=True, reason="ok", pin_ok=True,
            input_case="legal",
        ).to_wire()
        assert "keys_checked" not in wire
        assert PIN not in str(wire)
