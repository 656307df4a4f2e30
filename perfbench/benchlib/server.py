"""Boot the deployed server as a child process and stop it cleanly."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .procfs import ThreadCpu
from .wire import Connection


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


#: The deployed server's entry point.
REPRO_CLI = (sys.executable, "-m", "repro")


class Server:
    """``<command> serve <serve_args> --port N`` as a child process.

    Args:
        src: the repository's ``src`` directory, put on ``PYTHONPATH``.
        serve_args: arguments after ``serve`` (``--packed`` etc.).
        log_path: where the child's stdout and stderr go.
        command: what runs ``serve``: :data:`REPRO_CLI`, or the traced
            launcher with its own arguments.
    """

    def __init__(
        self,
        src: Path,
        serve_args: Sequence[str],
        log_path: Path,
        command: Sequence[str] = REPRO_CLI,
    ) -> None:
        self.port = free_port()
        argv = [*command, "serve", *serve_args, "--port", str(self.port)]
        env = dict(os.environ, PYTHONPATH=str(src))
        self._log = open(log_path, "wb")
        self._log_path = log_path
        self.proc = subprocess.Popen(
            argv, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_healthy(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}:\n{self.log_tail()}"
                )
            try:
                conn = Connection("127.0.0.1", self.port, timeout_s=5.0)
            except OSError:
                time.sleep(0.02)
                continue
            try:
                if conn.request("GET", "/v1/health").status == 200:
                    return
            finally:
                conn.close()
        raise RuntimeError(f"server not healthy after {timeout_s}s:\n{self.log_tail()}")

    def connect(self, cpu: Optional[ThreadCpu] = None) -> Connection:
        return Connection("127.0.0.1", self.port, cpu=cpu)

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGINT (the CLI's clean shutdown), then SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return int(self.proc.returncode)

    def log_tail(self, n: int = 20) -> str:
        if not self._log.closed:
            self._log.flush()
        lines = self._log_path.read_text(errors="replace").splitlines()
        return "\n".join(lines[-n:])
