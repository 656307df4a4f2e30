"""Traced server launcher: wrap the layer entry points, then ``serve``.

Usage::

    PYTHONPATH=src python perfbench/benchlib/traced_serve.py \\
        --spans OUT.json serve --packed DIR --features 9996 ...

Everything after ``--spans OUT.json`` goes to the same ``repro.cli``
entry point ``python -m repro`` runs. Before that, the public functions
that mark each layer's boundary are replaced by wrappers that record
one span per call: name, start and end (``perf_counter_ns``), the
parent span, and the request id (the request's nonce). Spans stay in
memory and are written to ``OUT.json`` when the server shuts down.

The current span travels in a ``ContextVar``; ``AuthService._offload``
is wrapped to run each pool task inside a copy of the caller's context,
so spans opened on engine threads name their event-loop parent.
Untraced benchmark runs never import this module.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, List, Optional, Tuple

Span = Tuple[int, Optional[int], Optional[str], str, int, int, Optional[int]]

_current: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "span", default=None
)
_request: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "request", default=None
)


class Recorder:
    """Collects spans; ``list.append`` is atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        request_id: Optional[Callable[[Any], str]] = None,
        size: Optional[Callable[..., int]] = None,
    ) -> Callable[..., Any]:
        """A span-recording wrapper around ``fn`` (sync or async).

        ``request_id`` derives the request id from the result and makes
        it current for the rest of the request; ``size`` computes an
        integer attribute (bytes) from the call's arguments once the
        span has closed.
        """
        spans, ids = self.spans, self._ids

        def close(sid: int, parent: Optional[int], t0: int, t1: int,
                  result: Any, args: Any, kwargs: Any) -> None:
            if request_id is not None and result is not None:
                _request.set(request_id(result))
            extra = None
            if size is not None and result is not None:
                extra = size(*args, **kwargs)
            spans.append((sid, parent, _request.get(), name, t0, t1, extra))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid, parent = next(ids), _current.get()
                token = _current.set(sid)
                result = None
                t0 = time.perf_counter_ns()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    t1 = time.perf_counter_ns()
                    _current.reset(token)
                    close(sid, parent, t0, t1, result, args, kwargs)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid, parent = next(ids), _current.get()
            token = _current.set(sid)
            result = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                _current.reset(token)
                close(sid, parent, t0, t1, result, args, kwargs)
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, **kwargs)))
        else:
            setattr(owner, attr, self.wrap(raw, name, **kwargs))

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="ascii") as handle:
            json.dump(self.spans, handle)
        os.replace(tmp, path)


STAGES = ("repair", "preprocess", "segment", "featurize", "classify", "decide")


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    from repro.core import backends, registry, session, stages
    from repro.core.authenticator import P2Auth
    from repro.service import core, protocol

    nonce = lambda request: request.nonce  # noqa: E731
    patch = recorder.patch
    patch(protocol.AuthRequest, "parse", "service.protocol.parse", request_id=nonce)
    patch(protocol.EnrollCompleteRequest, "parse", "service.protocol.enroll_parse",
          request_id=nonce)
    patch(protocol.AuthResponse, "to_wire", "service.protocol.to_wire")
    # The service core calls these through its own module globals.
    patch(core, "decode_trial", "service.protocol.decode_trial")
    patch(core, "verify_proof", "service.protocol.verify_proof")
    patch(core.AuthService, "authenticate", "service.core.authenticate")
    patch(core.AuthService, "enroll_complete", "service.core.enroll_complete")
    patch(session.SessionManager, "__init__", "core.session.new")
    patch(session.SessionManager, "submit_entry", "core.session.submit_entry")
    patch(registry.ModelRegistry, "get", "core.registry.get")
    patch(registry.ModelRegistry, "add", "core.registry.add")
    patch(backends.ShardedPackedBackend, "load", "core.backends.load",
          size=lambda self, uid: os.stat(self._path(uid)).st_size)
    patch(backends.ShardedPackedBackend, "store", "core.backends.store")
    patch(P2Auth, "warmup", "core.authenticator.warmup")
    patch(P2Auth, "authenticate", "core.authenticator.authenticate")
    patch(P2Auth, "enroll", "core.authenticator.enroll")
    for stage in STAGES:
        cls = getattr(stages, f"{stage.capitalize()}Stage")
        patch(cls, "run", f"core.stages.{stage}")

    offload = core.AuthService._offload

    async def offload_in_context(self: Any, fn: Callable[[], Any]) -> Any:
        ctx = contextvars.copy_context()
        return await offload(self, lambda: ctx.run(fn))

    core.AuthService._offload = offload_in_context  # type: ignore[method-assign]


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans OUT.json serve ...", file=sys.stderr)
        return 2
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
