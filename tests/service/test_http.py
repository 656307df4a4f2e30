"""HTTP server: routing, error mapping, wire hygiene, socket handling."""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro.core.session import RetryPolicy
from repro.service import AuthService, encode_trial, pin_proof
from repro.service import http as service_http
from repro.service.http import MAX_BODY_BYTES, MAX_HEADERS, serve
from repro.service.protocol import MAX_TOKEN_CHARS, make_nonce

from .conftest import PIN, exchange, exchange_with_headers, live_server


def send_raw(service, raw):
    """Send ``raw`` to a live server over ``service``; returns
    ``(status, json, headers)``."""

    async def run():
        async with live_server(service) as address:
            return await exchange_with_headers(address, raw)

    return asyncio.run(run())


def call_app(service, method, path, body=b""):
    """One request to a live server; returns (status, json, headers)."""
    head = f"{method} {path} HTTP/1.1\r\ncontent-length: {len(body)}\r\n\r\n"
    return send_raw(service, head.encode() + body)


def post_json(service, path, obj):
    return call_app(service, "POST", path, json.dumps(obj).encode())


class TestRouting:
    def test_health(self, service):
        status, body, headers = call_app(service, "GET", "/v1/health")
        assert status == 200 and body == {"status": "ok"}
        assert headers["content-type"] == "application/json"

    def test_unknown_route_is_404(self, service):
        status, body, _ = call_app(service, "GET", "/v1/nope")
        assert status == 404 and body["error"]["code"] == "not_found"

    def test_wrong_method_is_405_with_allow(self, service):
        status, body, headers = call_app(service, "GET", "/v1/auth")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert headers["allow"] == "POST"

    def test_bad_json_is_400_protocol_error(self, service):
        status, body, _ = call_app(service, "POST", "/v1/auth", b"{nope")
        assert status == 400 and body["error"]["code"] == "protocol_error"

    def test_deeply_nested_json_is_400_not_500(self, service):
        # 200 KB nested 100,000 deep: json.loads hits RecursionError.
        body = b"[" * 100_000 + b"]" * 100_000
        status, payload, _ = call_app(service, "POST", "/v1/auth", body)
        assert status == 400 and payload["error"]["code"] == "protocol_error"

    def test_unknown_field_is_400(self, service):
        status, body, _ = post_json(service, "/v1/enroll/begin", {"user": "x"})
        assert status == 400 and body["error"]["code"] == "protocol_error"

    def test_admin_users(self, service):
        status, body, _ = call_app(service, "GET", "/v1/admin/users")
        assert status == 200 and set(body["users"]) >= {"u0", "u1"}

    def test_admin_stats(self, service):
        status, body, _ = call_app(service, "GET", "/v1/admin/stats")
        assert status == 200
        assert set(body) == {"registry", "service", "sessions", "config"}
        assert "capacity" in body["registry"]

    def test_payload_too_large(self, service):
        # Answered from the head alone: the server never waits for a
        # body it would refuse.
        status, body, _ = send_raw(
            service,
            b"POST /v1/auth HTTP/1.1\r\n"
            + f"content-length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        )
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"


class TestErrorMapping:
    def test_unknown_user_is_404(self, service, probes):
        nonce = make_nonce()
        status, body, _ = post_json(
            service,
            "/v1/auth",
            {
                "user_id": "ghost",
                "nonce": nonce,
                "proof": pin_proof(PIN, "ghost", nonce),
                "trial": encode_trial(probes["legit"][0]),
            },
        )
        assert status == 404 and body["error"]["code"] == "unknown_user"

    def test_replayed_nonce_is_403(self, service, probes):
        nonce = make_nonce()
        req = {
            "user_id": "u0",
            "nonce": nonce,
            "proof": pin_proof(PIN, "u0", nonce),
            "trial": encode_trial(probes["legit"][0]),
        }
        status, _, _ = post_json(service, "/v1/auth", req)
        assert status == 200
        status, body, _ = post_json(service, "/v1/auth", req)
        assert status == 403 and body["error"]["code"] == "proof_rejected"

    def test_keystroke_time_outside_recording_is_400(self, service, probes):
        # With a valid proof, the engine would clamp the time onto the
        # recording's last sample and score the probe.
        nonce = make_nonce()
        trial = encode_trial(probes["legit"][0])
        trial["events"][0]["reported_time"] = 1e9
        status, body, _ = post_json(
            service,
            "/v1/auth",
            {
                "user_id": "u0",
                "nonce": nonce,
                "proof": pin_proof(PIN, "u0", nonce),
                "trial": trial,
            },
        )
        assert status == 400 and body["error"]["code"] == "protocol_error"

    @pytest.mark.parametrize(
        "path, field, value",
        [
            ("/v1/auth", "proof", "\u00e9"),
            ("/v1/auth", "proof", "\ud800"),
            ("/v1/auth", "nonce", "\ud800"),
            ("/v1/auth", "nonce", "n" * (MAX_TOKEN_CHARS + 1)),
            ("/v1/enroll/complete", "nonce", "\u00e9"),
        ],
        ids=["proof-latin1", "proof-surrogate", "nonce-surrogate",
             "nonce-129-chars", "enroll-nonce-latin1"],
    )
    def test_malformed_proof_or_nonce_is_400(
        self, service, probes, caplog, path, field, value
    ):
        # hmac raises TypeError or UnicodeEncodeError on such strings,
        # so the parser has to refuse them before any proof check.
        nonce = make_nonce()
        req = {
            "user_id": "u0",
            "nonce": nonce,
            "proof": pin_proof(PIN, "u0", nonce),
            field: value,
        }
        if path == "/v1/auth":
            req["trial"] = encode_trial(probes["legit"][0])
        else:
            req["trials"] = [encode_trial(probes["legit"][0])]
        with caplog.at_level(logging.DEBUG, logger="repro.service.http"):
            status, body, _ = post_json(service, path, req)
        assert status == 400 and body["error"]["code"] == "protocol_error"
        assert [r for r in caplog.records if r.name.startswith("repro")] == []

    def test_backoff_is_429_with_retry_after(self, service_registry, probes):
        svc = AuthService(
            service_registry,
            retry=RetryPolicy(max_failures=3, backoff_base_s=30.0),
        )
        svc.adopt_user("u0", PIN)
        try:
            def bad():
                nonce = make_nonce()
                return {
                    "user_id": "u0",
                    "nonce": nonce,
                    "proof": pin_proof("9999", "u0", nonce),
                    "trial": encode_trial(probes["legit"][0]),
                }

            status, body, _ = post_json(svc, "/v1/auth", bad())
            assert status == 200 and not body["accepted"]
            status, body, headers = post_json(svc, "/v1/auth", bad())
            assert status == 429
            assert body["error"]["code"] == "retry_backoff"
            assert 1 <= int(headers["retry-after"]) <= 30
        finally:
            svc.close()


class TestCorruptRecord:
    def test_corrupt_stored_record_is_500_persistence_failed(
        self, service_registry, probes, tmp_path
    ):
        # A record with a valid prelude but a header of the wrong shape
        # is a server-side fault, not an unknown user.
        from repro.core import ModelRegistry, ShardedPackedBackend
        from repro.core.packing import _PRELUDE, PACK_VERSION, RECORD_MAGIC

        backend = ShardedPackedBackend(tmp_path)
        registry = ModelRegistry(backend=backend)
        registry.add("u0", service_registry.get("u0"))
        svc = AuthService(registry, retry=None)
        svc.adopt_user("u0", PIN)
        header = json.dumps({"meta": {}}).encode()
        backend._path("u0").write_bytes(
            RECORD_MAGIC
            + _PRELUDE.pack(PACK_VERSION, 0, len(header))
            + header
        )
        registry.evict("u0")
        try:
            nonce = make_nonce()
            status, body, _ = post_json(
                svc,
                "/v1/auth",
                {
                    "user_id": "u0",
                    "nonce": nonce,
                    "proof": pin_proof(PIN, "u0", nonce),
                    "trial": encode_trial(probes["legit"][0]),
                },
            )
        finally:
            svc.close()
        assert status == 500
        assert body["error"]["code"] == "persistence_failed"


class _FaultyService:
    """Stands in for AuthService; its admin stats fault unexpectedly."""

    def stats(self):
        raise RuntimeError("secret-detail")


class TestInternalErrors:
    def test_500_hides_exception_text_and_logs_it(self, caplog):
        with caplog.at_level(logging.ERROR, logger="repro.service.http"):
            status, body, _ = call_app(
                _FaultyService(), "GET", "/v1/admin/stats"
            )
        assert status == 500
        assert body["error"]["code"] == "internal"
        raw = json.dumps(body)
        assert "secret-detail" not in raw
        assert "RuntimeError" not in raw
        # The operator still gets the whole story, traceback included.
        (record,) = [r for r in caplog.records if r.exc_info]
        assert record.exc_info[0] is RuntimeError
        assert "secret-detail" in caplog.text


def _string_leaves(obj, key=""):
    """Yield every (field_name, value) string leaf of a JSON body."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _string_leaves(v, k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _string_leaves(v, key)
    elif isinstance(obj, str):
        yield key, obj


def _assert_no_pin(path, obj, pin):
    """No string field of a request may carry the PIN.

    Opaque fields get structural checks instead of substring ones — a
    random PIN can appear by chance inside base64/hex blobs, so a
    substring assertion there would be flaky, and a 4-digit PIN can
    never *be* a 32/64-char hex string anyway.
    """
    for field, value in _string_leaves(obj):
        if field == "samples_b64":
            continue
        if field in ("proof", "nonce"):
            assert len(value) in (32, 64) and int(value, 16) >= 0
            assert value != pin
            continue
        assert pin not in value, f"PIN leaked in {path} field {field!r}"


class TestWireHygiene:
    """The raw PIN must never appear in any request body."""

    def test_full_flow_requests_never_carry_the_pin(
        self, service_registry, study_data, negative_bank, probes
    ):
        from repro.core import EnrollmentOptions, ModelRegistry

        registry = ModelRegistry(
            options=EnrollmentOptions(num_features=840)
        )
        svc = AuthService(registry, shared_negatives=negative_bank)
        captured_requests = []

        def post(path, obj):
            captured_requests.append((path, obj))
            return post_json(svc, path, obj)

        try:
            status, begin, _ = post("/v1/enroll/begin", {"user_id": "alice"})
            assert status == 200
            pin = begin["pin"]
            trials = [
                encode_trial(t)
                for t in study_data.trials(0, pin, "one_handed", 7)
            ]
            status, done, _ = post(
                "/v1/enroll/complete",
                {
                    "user_id": "alice",
                    "nonce": begin["nonce"],
                    "proof": pin_proof(pin, "alice", begin["nonce"]),
                    "trials": trials,
                },
            )
            assert status == 200 and done["enrolled"]
            full = registry.get("alice").models.full_model
            assert full._rocket is negative_bank.full.extractor
            probe = study_data.trials(0, pin, "one_handed", 8)[7]
            nonce = make_nonce()
            status, out, _ = post(
                "/v1/auth",
                {
                    "user_id": "alice",
                    "nonce": nonce,
                    "proof": pin_proof(pin, "alice", nonce),
                    "trial": encode_trial(probe),
                },
            )
            assert status == 200 and out["accepted"]
            # The assertion this class exists for: no request body —
            # enrollment or authentication — ever carries the PIN.
            assert len(captured_requests) == 3
            for path, obj in captured_requests:
                _assert_no_pin(path, obj, pin)
            # And the auth response withholds per-key digit labels.
            assert "keys_checked" not in out
        finally:
            svc.close()


class TestSocketServer:
    def test_round_trip_with_keep_alive(self, service):
        async def run():
            ready = asyncio.Event()
            task = asyncio.create_task(serve(service, "127.0.0.1", 0, ready=ready))
            await asyncio.wait_for(ready.wait(), 5)
            host, port = ready.address
            reader, writer = await asyncio.open_connection(host, port)

            async def request(raw):
                writer.write(raw)
                await writer.drain()
                status_line = await reader.readline()
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers["content-length"]))
                return int(status_line.split()[1]), json.loads(body)

            # Two requests over one connection: keep-alive works.
            status, body = await request(
                b"GET /v1/health HTTP/1.1\r\nhost: x\r\n\r\n"
            )
            assert status == 200 and body == {"status": "ok"}
            payload = json.dumps({"user_id": "u0"}).encode()
            status, body = await request(
                b"POST /v1/enroll/begin HTTP/1.1\r\nhost: x\r\n"
                + f"content-length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            assert status == 200 and body["user_id"] == "u0"
            writer.close()
            await writer.wait_closed()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(run())

    def test_malformed_request_line_closes_with_400(self, service):
        async def run():
            ready = asyncio.Event()
            task = asyncio.create_task(serve(service, "127.0.0.1", 0, ready=ready))
            await asyncio.wait_for(ready.wait(), 5)
            host, port = ready.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            status_line = await reader.readline()
            assert b"400" in status_line
            writer.close()
            await writer.wait_closed()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(run())

    @pytest.mark.parametrize(
        "value, body",
        [
            (b"abc", b""),
            (b"+5", b"hello"),  # int() would read a 5-byte body
            (b"1_000", b"x" * 1000),  # int() would read 1000 bytes
            (b"\xb2", b""),  # latin-1 superscript two: isdigit() but no int
            (b"9" * 5000, b""),  # past int()'s 4300-digit limit
        ],
        ids=["letters", "plus-sign", "underscore", "superscript", "5000-digits"],
    )
    def test_malformed_content_length_answers_400(self, service, value, body):
        request = (
            b"GET /v1/health HTTP/1.1\r\ncontent-length: " + value
            + b"\r\n\r\n" + body
        )

        async def run():
            async with live_server(service) as address:
                return await exchange(address, request)

        status, payload = asyncio.run(run())
        assert status == 400
        assert payload["error"]["code"] == "protocol_error"

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
            b"GET /v1/health HTTP/1.1\r\nx-pad: " + b"a" * (70 * 1024)
            + b"\r\n\r\n",
        ],
        ids=["request-line", "header-line"],
    )
    def test_over_long_line_answers_400(self, service, request_bytes):
        async def run():
            async with live_server(service) as address:
                return await exchange(address, request_bytes)

        status, payload = asyncio.run(run())
        assert status == 400
        assert payload["error"]["code"] == "protocol_error"

    def test_payload_too_large_reaches_a_client_mid_body(
        self, service, monkeypatch
    ):
        # The client has sent 4 MiB of its body before it reads: the
        # server must not close over that unread input, or the kernel
        # resets the connection before the 413 is read.
        monkeypatch.setattr(service_http, "MAX_BODY_BYTES", 1024)
        request = (
            b"POST /v1/auth HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n"
            + b"x" * (4 * 1024 * 1024)
        )

        async def run():
            async with live_server(service) as address:
                return await exchange(address, request)

        status, payload = asyncio.run(run())
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"

    @pytest.mark.parametrize(
        "count, status, code",
        [(MAX_HEADERS, 200, None), (MAX_HEADERS + 1, 400, "protocol_error")],
        ids=["at-limit", "over-limit"],
    )
    def test_header_count_is_bounded(self, service, count, status, code):
        headers = b"".join(b"x-h%d: v\r\n" % i for i in range(count))
        request = b"GET /v1/health HTTP/1.1\r\n" + headers + b"\r\n"

        async def run():
            async with live_server(service) as address:
                return await exchange(address, request)

        got_status, payload = asyncio.run(run())
        assert got_status == status
        assert payload.get("error", {}).get("code") == code

    @staticmethod
    async def _get(reader, writer, path):
        """One keep-alive GET on an open connection; (status, body)."""
        writer.write(f"GET {path} HTTP/1.1\r\nhost: x\r\n\r\n".encode())
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5)
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.lower().split(": ", 1) for line in lines[1:] if line)
        body = await reader.readexactly(int(headers["content-length"]))
        return int(lines[0].split(" ")[1]), json.loads(body)

    def test_idle_connection_is_closed(self, service, monkeypatch):
        monkeypatch.setattr("repro.service.http.IDLE_TIMEOUT_S", 0.2)

        async def run():
            async with live_server(service) as address:
                reader, writer = await asyncio.open_connection(*address)
                assert await self._get(reader, writer, "/v1/health") == (
                    200, {"status": "ok"}
                )
                t0 = asyncio.get_running_loop().time()
                assert await asyncio.wait_for(reader.read(), 5) == b""
                idle_s = asyncio.get_running_loop().time() - t0
                writer.close()
                return idle_s

        assert 0.15 <= asyncio.run(run()) < 4.0

    def test_slow_request_outlasts_the_idle_timeout(self, service, monkeypatch):
        # The timer runs only while a request line is awaited: a request
        # served for longer than the timeout still gets its response,
        # and the connection stays open for the next one.
        monkeypatch.setattr("repro.service.http.IDLE_TIMEOUT_S", 0.2)
        session_status = service.session_status

        async def slow_session_status(user_id):
            await asyncio.sleep(0.5)
            return await session_status(user_id)

        monkeypatch.setattr(service, "session_status", slow_session_status)

        async def run():
            async with live_server(service) as address:
                reader, writer = await asyncio.open_connection(*address)
                try:
                    first = await self._get(reader, writer, "/v1/session/u0")
                    second = await self._get(reader, writer, "/v1/health")
                finally:
                    writer.close()
                return first, second

        (status, body), second = asyncio.run(run())
        assert status == 200 and body["user_id"] == "u0"
        assert second == (200, {"status": "ok"})

    def test_request_line_cut_off_by_the_idle_close_is_not_served(
        self, service, monkeypatch
    ):
        # The close ends the reader's wait with the partial line; nobody
        # is left to read a response to it.
        monkeypatch.setattr("repro.service.http.IDLE_TIMEOUT_S", 0.2)
        served = []
        session_status = service.session_status

        async def spy(user_id):
            served.append(user_id)
            return await session_status(user_id)

        monkeypatch.setattr(service, "session_status", spy)

        async def run():
            async with live_server(service) as address:
                reader, writer = await asyncio.open_connection(*address)
                writer.write(b"GET /v1/session/u0 HTTP/1.1")  # no line end
                await writer.drain()
                try:
                    reply = await asyncio.wait_for(reader.read(), 5)
                    await asyncio.sleep(0.1)  # let the server finish up
                finally:
                    writer.close()
                return reply

        assert asyncio.run(run()) == b""
        assert served == []

    @pytest.mark.parametrize(
        "partial",
        [
            b"GET /v1/session/u0 HTTP/1.1\r\nhost: x\r\n",
            b"POST /v1/auth HTTP/1.1\r\ncontent-length: 64\r\n\r\n"
            b'{"user_id": "u0", ',
        ],
        ids=["stalled-headers", "short-body"],
    )
    def test_stalled_request_is_closed_and_not_served(
        self, service, monkeypatch, partial
    ):
        # The timer runs from the wait for the request line to the last
        # body byte: a client that stops partway through its headers or
        # body is closed, and what it sent is never dispatched.
        monkeypatch.setattr("repro.service.http.IDLE_TIMEOUT_S", 0.2)
        dispatched = []
        dispatch = service_http._dispatch

        async def spy(service, method, path, body):
            dispatched.append(path)
            return await dispatch(service, method, path, body)

        monkeypatch.setattr(service_http, "_dispatch", spy)

        async def run():
            async with live_server(service) as address:
                reader, writer = await asyncio.open_connection(*address)
                writer.write(partial)
                await writer.drain()
                t0 = asyncio.get_running_loop().time()
                try:
                    reply = await asyncio.wait_for(reader.read(), 5)
                    closed_s = asyncio.get_running_loop().time() - t0
                    await asyncio.sleep(0.1)  # let the server finish up
                finally:
                    writer.close()
                return reply, closed_s

        reply, closed_s = asyncio.run(run())
        assert reply == b""
        assert 0.15 <= closed_s < 4.0
        assert dispatched == []
