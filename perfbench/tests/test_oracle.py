"""The client's oracle check flags wrong decisions and refused requests."""

import json

from benchlib.runner import Client, Samples, Traffic
from benchlib.wire import Reply
from benchlib.world import World

OUTCOME = (True, "full waveform score +0.846 (legal)", True, (0.846,))


def world():
    return World(
        root=None,
        user_ids=tuple(f"u{i:07d}" for i in range(8)),
        digest="0" * 64,
        probe_json=tuple(tuple("{}" for _ in range(5)) for _ in range(4)),
        oracle={(t, p): OUTCOME for t in range(4) for p in range(5)},
    )


def wire_body(accepted=True, scores=(0.846,), failures=0):
    return json.dumps({
        "user_id": "u0000001", "accepted": accepted,
        "reason": OUTCOME[1], "pin_ok": True, "input_case": "one_handed",
        "scores": list(scores), "passes": [True], "degradation": [],
        "session_state": "authenticated", "failures": failures,
        "retry_after_s": 0.0,
    }).encode()


class FakeConn:
    def __init__(self, *replies):
        self.replies = list(replies)
        self.sent = []

    def request(self, method, path, body=b""):
        self.sent.append((method, path, body))
        status, payload = self.replies.pop(0)
        return Reply(status, payload, latency_ns=1000, cpu_ns=500)


def run_auth(*replies):
    conn = FakeConn(*replies)
    out = Samples()
    Client(world(), conn, Traffic(0, zipf=True)).auth(1, 2, out, timed=True)
    return out, conn


def test_matching_reply_is_timed():
    out, conn = run_auth((200, wire_body()))
    assert (out.attempted, out.failed) == (1, 0)
    assert out.auth_lat_ns == [1000] and out.auth_cpu_ns == [500]
    body = json.loads(conn.sent[0][2])
    assert body["user_id"] == "u0000001" and len(body["nonce"]) == 32


def test_flipped_decision_is_flagged():
    out, _ = run_auth((200, wire_body(accepted=False)))
    assert out.failed == 1 and out.auth_lat_ns == []


def test_score_drift_in_the_last_bit_is_flagged():
    out, _ = run_auth((200, wire_body(scores=(0.8460000000000001,))))
    assert out.failed == 1


def test_armed_retry_ladder_is_flagged():
    out, _ = run_auth((200, wire_body(failures=1)))
    assert out.failed == 1


def test_throttled_request_is_flagged():
    out, _ = run_auth((429, b'{"error": {"code": "backoff", "message": "wait"}}'))
    assert out.failed == 1 and out.attempted == 1 and out.auth_lat_ns == []


class FakeTrials:
    def for_pin(self, k, pin):
        return [{"trial": k}]


def test_enroll_rebegins_until_four_distinct_digits_and_checks_reply():
    begin = lambda pin: (200, json.dumps({"user_id": "n1", "pin": pin,
                                          "nonce": "ab", "expires_at": 1.0}).encode())
    done = (200, json.dumps({"user_id": "n1", "enrolled": True, "n_trials": 9}).encode())
    conn = FakeConn(begin("1123"), begin("4821"), done)
    out = Samples()
    Client(world(), conn, Traffic(0, zipf=False)).enroll("n1", 1, FakeTrials(), out, timed=True)
    assert out.failed == 0 and out.attempted == 3
    assert out.enroll_rids == ["ab"]

    short = (200, json.dumps({"user_id": "n1", "enrolled": True, "n_trials": 8}).encode())
    conn = FakeConn(begin("4821"), short)
    out = Samples()
    Client(world(), conn, Traffic(0, zipf=False)).enroll("n1", 1, FakeTrials(), out, timed=True)
    assert out.failed == 1 and out.enroll_lat_ns == []


class FakeWide:
    """One of several connections the warm pass keeps a request in flight on."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.sent = []

    def send(self, method, path, body=b""):
        self.sent.append(json.loads(body)["user_id"])

    def receive(self):
        status, payload = self.replies.pop(0)
        return Reply(status, payload, latency_ns=0, cpu_ns=0)


def test_warm_pass_keeps_one_request_per_connection_and_checks_each():
    a = FakeWide((200, wire_body()), (200, wire_body()))
    b = FakeWide((200, wire_body(accepted=False)))
    out = Samples()
    client = Client(world(), FakeConn(), Traffic(0, zipf=False))
    client.warm([(1, 0), (2, 0), (3, 0)], [a, b], out)
    assert a.sent == ["u0000001", "u0000003"] and b.sent == ["u0000002"]
    assert (out.attempted, out.failed) == (3, 1)
    assert out.auth_lat_ns == []  # warm-pass auths are never timed
