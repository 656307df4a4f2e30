"""A minimal HTTP/1.1 keep-alive client, timed from outside the server.

The client speaks just enough HTTP for the service's JSON endpoints:
one request at a time on one socket, ``content-length`` framing both
ways. Each call returns the latency from the first byte sent to the
last byte of the response read, and the server's CPU over exactly that
window when a :class:`~benchlib.procfs.ThreadCpu` is attached.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .procfs import ThreadCpu, cpu_delta_ns


@dataclass(frozen=True)
class Reply:
    status: int
    body: bytes
    latency_ns: int
    cpu_ns: int

    def json(self) -> Any:
        return json.loads(self.body)


class Connection:
    """One keep-alive connection to ``host:port``."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        cpu: Optional[ThreadCpu] = None,
        timeout_s: float = 60.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._cpu = cpu
        self._buf = b""
        #: The server CPU snapshot taken when the last reply was read.
        self.last_cpu: Optional[Dict[str, int]] = None

    def close(self) -> None:
        self._sock.close()

    def request(self, method: str, path: str, body: bytes = b"") -> Reply:
        before = self._cpu.snapshot() if self._cpu is not None else None
        t0 = time.perf_counter_ns()
        self.send(method, path, body)
        reply = self.receive()
        t1 = time.perf_counter_ns()
        cpu_ns = 0
        if before is not None:
            self.last_cpu = self._cpu.snapshot()
            cpu_ns = cpu_delta_ns(before, self.last_cpu)
        return Reply(reply.status, reply.body, t1 - t0, cpu_ns)

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        """Send one request without waiting for its reply."""
        head = (
            f"{method} {path} HTTP/1.1\r\nhost: bench\r\n"
            f"content-length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self._sock.sendall(head + body)

    def receive(self) -> Reply:
        """Read the next reply, untimed."""
        status, payload = self._read_response()
        return Reply(status, payload, 0, 0)

    def _fill(self) -> None:
        chunk = self._sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def _read_response(self) -> "tuple[int, bytes]":
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, _, self._buf = self._buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(self._buf) < length:
            self._fill()
        payload, self._buf = self._buf[:length], self._buf[length:]
        return status, payload
