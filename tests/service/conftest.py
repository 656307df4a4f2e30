"""Fixtures for the service-layer tests.

Enrollment is the expensive part, so the two-user registry is
session-scoped and read-only; every test gets its own (cheap)
:class:`AuthService` over it. Tests that mutate the registry —
wire-enrollment happy paths — build a fresh one.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any, AsyncIterator, Optional, Tuple

import pytest

from repro.config import PipelineConfig
from repro.core import EnrollmentOptions, ModelRegistry, build_negative_bank
from repro.data import ThirdPartyStore
from repro.service import AuthService
from repro.service.http import serve

#: PIN every pre-enrolled service user types.
PIN = "1628"

#: Small feature budget keeping model fits fast.
FEATURES = 840


@pytest.fixture(scope="session")
def third_party(study_data):
    """Negative corpus shared by every enrollment in these tests."""
    store = ThirdPartyStore(study_data, [2, 3, 4, 5], PIN)
    return store.sample(24)


@pytest.fixture(scope="session")
def negative_bank(third_party):
    """The :data:`FEATURES` negative bank built from :func:`third_party`:
    what ``repro serve`` hands a service for wire enrollments."""
    return build_negative_bank(
        third_party, PipelineConfig(), EnrollmentOptions(num_features=FEATURES)
    )


@pytest.fixture(scope="session")
def service_registry(study_data, third_party):
    """A registry with users ``u0``/``u1`` enrolled (study users 0/1)."""
    registry = ModelRegistry(
        options=EnrollmentOptions(num_features=FEATURES)
    )
    for uid, idx in (("u0", 0), ("u1", 1)):
        registry.enroll(
            uid,
            PIN,
            study_data.trials(idx, PIN, "one_handed", 7),
            third_party,
        )
    return registry


@pytest.fixture(scope="session")
def probes(study_data):
    """Held-out probes beyond the 7 enrollment trials.

    ``legit``: user 0 typing their own PIN (target ``u0``).
    ``impostor``: user 1 typing user 0's PIN (also target ``u0``).
    """
    return {
        "legit": study_data.trials(0, PIN, "one_handed", 11)[7:],
        "impostor": study_data.trials(1, PIN, "one_handed", 11)[7:],
    }


@pytest.fixture()
def service(service_registry):
    """A fresh unlimited-retry service over the shared registry."""
    svc = AuthService(service_registry, retry=None, max_workers=4)
    svc.adopt_user("u0", PIN)
    svc.adopt_user("u1", PIN)
    yield svc
    svc.close()


@contextlib.asynccontextmanager
async def live_server(service: AuthService) -> AsyncIterator[Tuple[str, int]]:
    """Run :func:`serve` on an ephemeral port; yields its address."""
    ready = asyncio.Event()
    task = asyncio.create_task(serve(service, "127.0.0.1", 0, ready=ready))
    await asyncio.wait_for(ready.wait(), 5)
    try:
        yield ready.address  # type: ignore[attr-defined]
    finally:
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task


async def exchange(
    address: Tuple[str, int], raw: bytes, half_close: bool = False
) -> Optional[Tuple[int, Any]]:
    """Send ``raw`` on a fresh connection; read one response.

    Returns ``(status, json_body)``, or ``None`` when the server closed
    the connection without answering. ``half_close`` shuts the write
    side after sending, as a client that has nothing more to say.
    """
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(raw)
        if half_close:
            writer.write_eof()
        await writer.drain()
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5)
        except asyncio.IncompleteReadError as err:
            assert err.partial == b"", f"truncated response {err.partial!r}"
            return None
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(
            line.lower().split(": ", 1) for line in lines[1:] if line
        )
        body = await asyncio.wait_for(
            reader.readexactly(int(headers["content-length"])), 5
        )
        return int(lines[0].split(" ")[1]), json.loads(body)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.wait_closed()
