"""A minimal asyncio HTTP/1.1 server over the service core.

:func:`serve` runs an :class:`~repro.service.core.AuthService` on a
small ``asyncio.start_server`` HTTP/1.1 loop with keep-alive, which is
what ``python -m repro serve`` and the load harness run. It closes a
connection that does not send a whole request within
:data:`IDLE_TIMEOUT_S` of waiting for one, answers a declared body
over :data:`MAX_BODY_BYTES` with 413 before reading it, drains what
the client still sends after an error that ends its connection so the
response is not lost to a reset, and closes every open connection
when it stops.

Routes (all bodies JSON):

========  =============================  =======================================
method    path                           action
========  =============================  =======================================
GET       /v1/health                     liveness probe
POST      /v1/enroll/begin               open a single-use enrollment window
POST      /v1/enroll/complete            PIN proof + trials -> train templates
POST      /v1/auth                       one authentication attempt
GET       /v1/session/{user_id}          session/ladder state query
POST      /v1/session/{user_id}/unlock   fallback-auth unlock
GET       /v1/admin/stats                service + registry observability
GET       /v1/admin/users                enrolled user ids
========  =============================  =======================================

Error contract: every :class:`~repro.errors.P2AuthError` maps through
the one canonical table in :mod:`repro.errors` — the body is
``{"error": {"code": ..., "message": ...}}`` with the class's stable
``code``, the status comes from :func:`~repro.errors.http_status_for`,
and throttling responses carry ``Retry-After`` when
:func:`~repro.errors.retry_after_s` yields a finite delay. Any other
exception answers 500 with code ``internal`` and a fixed message; its
type, text and traceback go to this module's logger, never to the
client.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    P2AuthError,
    PayloadTooLargeError,
    ProtocolError,
    http_status_for,
    retry_after_s,
)
from .core import AuthService
from .protocol import AuthRequest, EnrollBeginRequest, EnrollCompleteRequest

_log = logging.getLogger(__name__)

#: Upper bound on accepted request bodies (enrollment trials are the
#: largest legitimate payload; a 10-trial batch is well under this).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Header lines one request may carry, the limit ``http.client`` sets
#: too; with each line capped at 64 KiB this bounds a request head.
MAX_HEADERS = 100

#: Seconds a connection has, from when the server starts waiting for its
#: next request line, to deliver that request through its last body
#: byte before the server closes it. Serving a request never counts
#: toward it.
IDLE_TIMEOUT_S = 60.0

#: After an error response that ends a connection, the server reads and
#: drops up to this many bytes the peer still sends, for at most
#: :data:`DISCARD_TIMEOUT_S`, before it closes. Closing over unread
#: input makes the kernel send a reset, which can reach the client
#: before it has read the response.
DISCARD_MAX_BYTES = 8 * 1024 * 1024
DISCARD_TIMEOUT_S = 2.0

_REASONS = {  # concurrency: immutable-after-init
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _HttpResult:
    """One computed response: status, JSON-serializable body, headers."""

    __slots__ = ("status", "body", "headers")

    def __init__(
        self,
        status: int,
        body: Any,
        headers: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.headers = headers if headers is not None else []


def _error_result(err: P2AuthError) -> _HttpResult:
    headers: List[Tuple[str, str]] = []
    delay = retry_after_s(err)
    if delay is not None:
        headers.append(("retry-after", str(max(1, math.ceil(delay)))))
    return _HttpResult(
        status=http_status_for(type(err)),
        body={"error": {"code": err.code, "message": str(err)}},
        headers=headers,
    )


async def _dispatch(
    service: AuthService, method: str, path: str, body: bytes
) -> _HttpResult:
    """Route one request. Raises nothing: errors become results."""
    try:
        return await _route(service, method, path, body)
    except P2AuthError as err:
        return _error_result(err)
    except Exception:  # noqa: BLE001 - the transport's last line
        # of defense: an unexpected fault must surface as a 500 with
        # the internal code, never tear down the connection loop. Its
        # text can carry internals, so only the server log sees it.
        _log.exception("unhandled error serving %s %r", method, path)
        return _HttpResult(
            500,
            {
                "error": {
                    "code": "internal",
                    "message": "internal server error",
                }
            },
        )


def _parse_json(body: bytes, ctx: str) -> Any:
    if not body:
        raise ProtocolError(f"{ctx}: empty body; a JSON object is required")
    try:
        return json.loads(body)
    except ValueError:
        raise ProtocolError(f"{ctx}: body is not valid JSON") from None
    except RecursionError:
        raise ProtocolError(f"{ctx}: body nests too deeply") from None


async def _route(
    service: AuthService, method: str, path: str, body: bytes
) -> _HttpResult:
    if path == "/v1/health":
        if method != "GET":
            return _method_not_allowed("GET")
        return _HttpResult(200, {"status": "ok"})

    if path == "/v1/enroll/begin":
        if method != "POST":
            return _method_not_allowed("POST")
        req = EnrollBeginRequest.parse(_parse_json(body, "enroll/begin"))
        return _HttpResult(200, service.enroll_begin(req.user_id).to_wire())

    if path == "/v1/enroll/complete":
        if method != "POST":
            return _method_not_allowed("POST")
        creq = EnrollCompleteRequest.parse(
            _parse_json(body, "enroll/complete")
        )
        return _HttpResult(200, (await service.enroll_complete(creq)).to_wire())

    if path == "/v1/auth":
        if method != "POST":
            return _method_not_allowed("POST")
        areq = AuthRequest.parse(_parse_json(body, "auth"))
        return _HttpResult(200, (await service.authenticate(areq)).to_wire())

    if path.startswith("/v1/session/"):
        rest = path[len("/v1/session/") :]
        if rest.endswith("/unlock"):
            if method != "POST":
                return _method_not_allowed("POST")
            user_id = rest[: -len("/unlock")]
            await service.unlock(user_id)
            return _HttpResult(200, {"user_id": user_id, "unlocked": True})
        if "/" in rest or not rest:
            return _not_found(path)
        if method != "GET":
            return _method_not_allowed("GET")
        return _HttpResult(200, (await service.session_status(rest)).to_wire())

    if path == "/v1/admin/stats":
        if method != "GET":
            return _method_not_allowed("GET")
        return _HttpResult(200, service.stats())

    if path == "/v1/admin/users":
        if method != "GET":
            return _method_not_allowed("GET")
        return _HttpResult(200, {"users": service.list_users()})

    return _not_found(path)


def _not_found(path: str) -> _HttpResult:
    return _HttpResult(
        404, {"error": {"code": "not_found", "message": f"no route {path!r}"}}
    )


def _method_not_allowed(allowed: str) -> _HttpResult:
    return _HttpResult(
        405,
        {"error": {"code": "method_not_allowed", "message": f"use {allowed}"}},
        headers=[("allow", allowed)],
    )


# ---------------------------------------------------------------------------
# Minimal asyncio HTTP/1.1 server (no external dependencies)
# ---------------------------------------------------------------------------


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # the line overran the reader's 64 KiB limit
        raise ProtocolError("request or header line too long") from None


class _IdleTimer:  # concurrency: thread-hostile
    """Closes a connection left waiting :data:`IDLE_TIMEOUT_S` for a
    whole request.

    One timer handle per connection: :meth:`arm` and :meth:`disarm` only
    move the deadline, and a handle that fires early re-arms itself for
    the moved one, so a busy connection schedules no timer per request.
    """

    __slots__ = ("_loop", "_transport", "_deadline", "_handle")

    def __init__(self, transport: asyncio.BaseTransport) -> None:
        self._loop = asyncio.get_running_loop()
        self._transport = transport
        self._deadline: Optional[float] = None
        self._handle: Optional[asyncio.TimerHandle] = None

    def arm(self) -> None:
        self._deadline = self._loop.time() + IDLE_TIMEOUT_S
        if self._handle is None:
            self._handle = self._loop.call_at(self._deadline, self._fire)

    def disarm(self) -> None:
        self._deadline = None

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()

    def closed(self) -> bool:
        """Whether the connection was closed under the reader, as the
        timer closes it (a peer's half-close leaves it open)."""
        return self._transport.is_closing()

    def _fire(self) -> None:
        self._handle = None
        if self._deadline is None:
            return  # a request is being served; the next arm() restarts
        if self._loop.time() < self._deadline:
            self._handle = self._loop.call_at(self._deadline, self._fire)
        else:
            # The reader then sees EOF and the connection loop returns.
            self._transport.close()


async def _read_request(
    reader: asyncio.StreamReader, idle: _IdleTimer
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket.

    ``idle`` is armed from the wait for the request line until the last
    body byte, and only then. A read that ends the connection (``None``
    or an exception) leaves it armed; the connection's handler cancels
    it.
    """
    idle.arm()
    try:
        request_line = await _read_line(reader)
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not request_line or idle.closed():
        return None  # a line cut short by the idle close is not served
    parts = request_line.decode("latin-1").strip().split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line {request_line!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    count = 0
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        count += 1
        if count > MAX_HEADERS:
            raise ProtocolError(f"more than {MAX_HEADERS} header lines")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    # ASCII digits only: int() alone takes "+5" and "1_000", isdigit()
    # alone "\u00b2". 18 digits are far past MAX_BODY_BYTES already.
    raw = headers.get("content-length", "0")
    if not (raw.isascii() and raw.isdigit() and len(raw) <= 18):
        raise ProtocolError(f"unacceptable content-length {raw[:32]!r}")
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise PayloadTooLargeError(f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    idle.disarm()
    if idle.closed():
        # The close cut the headers short: a closed transport reads as
        # an empty line, which ends the header block early.
        return None
    path = target.split("?", 1)[0]
    return method, path, headers, body


def _render_response(result: _HttpResult, keep_alive: bool) -> bytes:
    payload = json.dumps(result.body).encode("utf-8")
    reason = _REASONS.get(result.status, "Unknown")
    lines = [
        f"HTTP/1.1 {result.status} {reason}",
        "content-type: application/json",
        f"content-length: {len(payload)}",
        f"connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{k}: {v}" for k, v in result.headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + payload


async def _discard_input(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then drop what the peer still sends until it closes,
    :data:`DISCARD_MAX_BYTES` are read or :data:`DISCARD_TIMEOUT_S`
    pass, whichever comes first."""

    async def drop() -> None:
        left = DISCARD_MAX_BYTES
        while left > 0:
            chunk = await reader.read(min(left, 64 * 1024))
            if not chunk:
                return
            left -= len(chunk)

    writer.write_eof()
    try:
        await asyncio.wait_for(drop(), DISCARD_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass


async def _handle_connection(
    service: AuthService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    idle = _IdleTimer(writer.transport)
    try:
        while True:
            try:
                request = await _read_request(reader, idle)
            except ProtocolError as err:
                writer.write(_render_response(_error_result(err), False))
                await writer.drain()
                await _discard_input(reader, writer)
                return
            except asyncio.IncompleteReadError:
                return
            if request is None:
                return
            method, path, headers, body = request
            result = await _dispatch(service, method.upper(), path, body)
            keep_alive = headers.get("connection", "keep-alive") != "close"
            writer.write(_render_response(result, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError):
        return
    finally:
        idle.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve(
    service: AuthService,
    host: str = "127.0.0.1",
    port: int = 8314,
    *,
    ready: Optional[asyncio.Event] = None,
) -> None:
    """Run the HTTP/1.1 server until cancelled.

    ``ready`` (when given) is set once the socket is listening — the
    hook tests and the load harness use it to avoid polling. Pass
    ``port=0`` to bind an ephemeral port; the bound address is stored
    on ``ready.address`` when an event is supplied.

    Cancelling it closes every open connection and waits for their
    handlers to return (a request being served finishes first), so
    none is left for the event loop to cancel on its way down.
    """
    connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}

    async def connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        connections[task] = writer
        try:
            await _handle_connection(service, reader, writer)
        finally:
            del connections[task]

    server = await asyncio.start_server(connection, host, port)
    if ready is not None:
        # Stashing the bound (host, port) on the event is the simplest
        # handshake that needs no extra queue plumbing.
        ready.address = server.sockets[0].getsockname()[:2]  # type: ignore[attr-defined]
        ready.set()
    try:
        async with server:
            await server.serve_forever()
    finally:
        for writer in connections.values():
            writer.close()
        await asyncio.gather(*connections, return_exceptions=True)


__all__ = [
    "DISCARD_MAX_BYTES",
    "DISCARD_TIMEOUT_S",
    "IDLE_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "MAX_HEADERS",
    "serve",
]
