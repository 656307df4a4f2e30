"""Seeded fuzz over HTTP framing and the wire request parsers.

About 300 malformed requests, drawn from ``random.Random(0)``, go to a
live :func:`~repro.service.http.serve`, each on its own connection and
one at a time. Every one must draw a 4xx whose JSON body carries an
``error.code``: never a 500, never a dropped connection, and nothing
logged by the HTTP layer. The one allowed silent close is a body
shorter than its content-length followed by the client's half-close —
there is no complete request left to answer.
"""

from __future__ import annotations

import asyncio
import copy
import json
import logging
import random
import string
from typing import Any, Callable, Dict, List, Tuple

from repro.service import encode_trial
from repro.service.http import MAX_BODY_BYTES

from .conftest import exchange, live_server

N_CASES = 300

#: ``(kind, raw request, half_close)``
Case = Tuple[str, bytes, bool]

POST_ROUTES = ("/v1/auth", "/v1/enroll/begin", "/v1/enroll/complete")

#: Values no field of the protocol accepts where a string, an object,
#: a list or a finite number is required.
NOT_STR = (0, -1, 1.5, True, None, [], {}, ["x"], {"a": 1})
NOT_OBJECT = (0, 1.5, True, None, "x", [], [{}])
NOT_LIST = (0, 1.5, True, None, "x", {}, {"a": []})
NOT_NUMBER = ("x", None, True, [], {}, [1.0], 10**400, float("nan"), float("-inf"))


def _request(method: str, path: str, body: bytes = b"", **headers: str) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "host: fuzz"]
    lines.append(f"content-length: {headers.pop('length', len(body))}")
    lines.extend(f"{k.replace('_', '-')}: {v}" for k, v in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _post_json(path: str, obj: Any) -> bytes:
    return _request("POST", path, json.dumps(obj).encode())


def _token(rng: random.Random, alphabet: str = string.ascii_letters) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))


def _garbage_request_line(rng: random.Random) -> Case:
    parts = [_token(rng, string.printable[:94]) for _ in range(rng.choice([1, 2, 4, 5]))]
    return "request_line", " ".join(parts).encode() + b"\r\n\r\n", False


def _unroutable_request_line(rng: random.Random) -> Case:
    # Three well-formed parts, but no route matches the path.
    method = rng.choice(["GET", "POST", "PUT", _token(rng)])
    path = "/" + _token(rng) + rng.choice(["", "/v1/health", "?q=1"])
    return "request_line", _request(method, path), False


def _truncated_request_line(rng: random.Random) -> Case:
    line = f"POST {rng.choice(POST_ROUTES)} HTTP/1.1"
    # Cut before the second space: at most two parts ever arrive.
    cut = rng.randint(1, line.index(" ", line.index(" ") + 1))
    return "request_line", line[:cut].encode(), True


def _bad_content_length(rng: random.Random) -> Case:
    value = rng.choice(
        [
            "abc", "-5", "-0", "+5", "1_000", "0x10", "1e3", "5.0", " 5 5",
            "\xb2", "9" * rng.randint(20, 5000),
            str(MAX_BODY_BYTES + rng.randint(1, 10**9)),
        ]
    )
    path = rng.choice(POST_ROUTES + ("/v1/health",))
    return "content_length", _request("POST", path, length=value), False


def _long_header_line(rng: random.Random) -> Case:
    pad = "a" * rng.randint(65 * 1024, 80 * 1024)
    if rng.random() < 0.5:
        return "long_line", f"GET /{pad} HTTP/1.1\r\n\r\n".encode(), False
    return "long_line", _request("GET", "/v1/health", x_pad=pad), False


def _random_body(rng: random.Random) -> Case:
    body = bytes(rng.randrange(256) for _ in range(rng.randint(1, 2048)))
    return "random_body", _request("POST", rng.choice(POST_ROUTES), body), False


def _short_body(rng: random.Random) -> Case:
    declared = rng.randint(2, 4096)
    body = b"{" * rng.randint(0, declared - 1)
    raw = _request("POST", rng.choice(POST_ROUTES), body, length=str(declared))
    return "short_body", raw, True


def _non_object_json(rng: random.Random) -> Case:
    body = rng.choice([[], 1, -2.5, "x", None, True, [{"user_id": "u0"}], ["u0"]])
    return "json", _post_json(rng.choice(POST_ROUTES), body), False


def _deep_nesting(rng: random.Random) -> Case:
    depth = rng.randint(2_000, 100_000)
    if rng.random() < 0.5:
        body = b"[" * depth + b"]" * depth
    else:
        body = b'{"a":' * depth + b"1" + b"}" * depth
    return "json", _request("POST", rng.choice(POST_ROUTES), body), False


def _wrong_typed_fields(rng: random.Random, templates: Dict[str, Dict[str, Any]]) -> Case:
    path = rng.choice(POST_ROUTES)
    body = copy.deepcopy(templates[path])
    wrong = {"trial": NOT_OBJECT, "trials": NOT_LIST}
    names = rng.sample(sorted(body), rng.randint(1, len(body)))
    for name in names:
        body[name] = rng.choice(wrong.get(name, NOT_STR))
    return "fields", _post_json(path, body), False


def _wrong_typed_trial(rng: random.Random, templates: Dict[str, Dict[str, Any]]) -> Case:
    # A well-typed auth envelope for an adopted user, so the fault is
    # only found when the service decodes the trial itself.
    body = copy.deepcopy(templates["/v1/auth"])
    body["nonce"] = "%032x" % rng.getrandbits(128)
    trial = body["trial"]
    recording = trial["recording"]
    event = rng.choice(trial["events"])
    mutations: List[Callable[[], None]] = [
        lambda: recording.__setitem__("fs", rng.choice(NOT_NUMBER)),
        lambda: recording.__setitem__("start_time", rng.choice(NOT_NUMBER)),
        lambda: recording.__setitem__(
            "shape", rng.choice(["x", [1], [0, 5], [1.5, 2], [True, 2], [2, 3]])
        ),
        lambda: recording.__setitem__(
            "channels", rng.choice(["x", [1], [{"site": "x", "wavelength": "x"}]])
        ),
        lambda: recording.__setitem__("samples_b64", rng.choice([5, "", "!!", None])),
        lambda: trial.__setitem__("events", rng.choice(["x", [], [1, 2, 3, 4]])),
        lambda: event.__setitem__("hand", rng.choice([3, "middle", None])),
        lambda: event.__setitem__("true_time", rng.choice(NOT_NUMBER)),
        lambda: trial.__setitem__("one_handed", rng.choice(["yes", 1, None])),
        lambda: trial.__setitem__("typist", rng.choice(["x", 1.5, True, None])),
        lambda: trial.__setitem__(_token(rng), 1),
    ]
    for mutate in rng.sample(mutations, rng.randint(1, 3)):
        mutate()
    return "trial", _post_json("/v1/auth", body), False


GENERATORS = (
    _garbage_request_line,
    _unroutable_request_line,
    _truncated_request_line,
    _bad_content_length,
    _long_header_line,
    _random_body,
    _short_body,
    _non_object_json,
    _deep_nesting,
    _wrong_typed_fields,
    _wrong_typed_trial,
)


def _cases(wire_trial: Dict[str, Any]) -> List[Case]:
    templates = {
        "/v1/auth": {
            "user_id": "u0", "nonce": "0" * 32, "proof": "0" * 64,
            "trial": wire_trial,
        },
        "/v1/enroll/begin": {"user_id": "u0"},
        "/v1/enroll/complete": {
            "user_id": "u0", "nonce": "0" * 32, "proof": "0" * 64,
            "trials": [wire_trial],
        },
    }
    rng = random.Random(0)
    cases = []
    for i in range(N_CASES):
        generate = GENERATORS[i % len(GENERATORS)]
        if generate in (_wrong_typed_fields, _wrong_typed_trial):
            cases.append(generate(rng, templates))
        else:
            cases.append(generate(rng))
    return cases


def test_malformed_requests_draw_typed_4xx(service, probes, caplog):
    cases = _cases(encode_trial(probes["legit"][0]))
    caplog.set_level(logging.DEBUG, logger="repro.service.http")

    async def run():
        replies = []
        async with live_server(service) as address:
            for kind, raw, half_close in cases:
                replies.append(await exchange(address, raw, half_close))
            health = await exchange(address, _request("GET", "/v1/health"))
        return replies, health

    replies, health = asyncio.run(run())
    assert health == (200, {"status": "ok"})
    for (kind, raw, _half), reply in zip(cases, replies):
        if reply is None:
            assert kind == "short_body", f"no reply to {kind}: {raw[:80]!r}"
            continue
        status, body = reply
        assert 400 <= status < 500, f"{status} for {kind}: {raw[:80]!r}"
        assert isinstance(body["error"]["code"], str)
    logged = [
        r for r in caplog.records
        if r.name.startswith("repro.service.http")
        or (r.name == "asyncio" and r.levelno >= logging.WARNING)
    ]
    assert logged == []
