"""One benchmark run: set up the world and server, drive it, measure.

Every workload is a serial closed loop over one keep-alive connection:
the next request goes out only after the previous reply is read.
Around each timed request the client snapshots the server's per-thread
CPU, so each sample carries both client latency and server CPU.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.protocol import pin_proof

from .calib import EVERY_S, SpeedProbe
from .procfs import StealMeter, ThreadCpu, peak_rss_mib, settle
from .server import REPRO_CLI, Server
from .wire import Connection, Reply
from .world import (
    ENROLL_TRIALS,
    FEATURES,
    N_PROBES,
    N_USERS,
    PIN,
    EnrollTrials,
    World,
    build_world,
    template_of,
    wire_outcome,
)

#: Timed auths a run needs before the printed p99 has ten samples beyond
#: it; peak RSS is read once they are done.
MIN_TIMED_AUTHS = 1000

#: Timed enrollments an ``enroll_mix`` window holds at least.
MIN_MIX_ENROLLS = 8

#: Fresh-user enrollments timed after an auth-only window.
WRITE_PROBE_ENROLLS = 8

ZIPF_EXPONENT = 1.2

#: The server's engine pool size (``serve --workers``, default 4).
SERVER_WORKERS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    serve_args: Tuple[str, ...]
    zipf: bool  # Zipf(1.2) picks; uniform otherwise
    warm_users: Optional[int]  # None: every user in the warm pass
    enroll_every: Optional[int]  # one enrollment after this many auths
    min_auths: int  # the window runs at least until this many auths ...
    min_enrolls: int  # ... and this many enrollments


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("warm_zipf", (), True, None, None, MIN_TIMED_AUTHS, 0),
        Workload(
            "cold_churn",
            ("--capacity", "32", "--sessions", "32"),
            False,
            64,
            None,
            MIN_TIMED_AUTHS,
            0,
        ),
        Workload("enroll_mix", (), True, None, 80, 0, MIN_MIX_ENROLLS),
    )
}


@dataclass
class Samples:
    """What one timed window (plus its probes) measured."""

    auth_lat_ns: List[int] = field(default_factory=list)
    auth_cpu_ns: List[int] = field(default_factory=list)
    auth_rids: List[str] = field(default_factory=list)
    enroll_lat_ns: List[int] = field(default_factory=list)
    enroll_cpu_ns: List[int] = field(default_factory=list)
    enroll_rids: List[str] = field(default_factory=list)
    calib_ns: List[int] = field(default_factory=list)  # SpeedProbe runs
    calib_at: List[int] = field(default_factory=list)  # timed auths before each
    enroll_calib_ns: List[int] = field(default_factory=list)  # one per timed enrollment
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


class Traffic:
    """Seeded picks and nonces: the same seed gives the same requests."""

    def __init__(self, seed: int, zipf: bool) -> None:
        self._np = np.random.default_rng(seed)
        self._py = random.Random(seed)
        self._zipf = zipf
        # Popularity ranks map onto a seeded permutation of the users,
        # so hot users are spread over all four templates.
        self._order = self._np.permutation(N_USERS)
        ranks = np.arange(1, N_USERS + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_EXPONENT
        self._p = weights / weights.sum()

    def picks(self) -> Iterator[Tuple[int, int]]:
        """Endless (user index, probe index) pairs."""
        while True:
            if self._zipf:
                ranks = self._np.choice(N_USERS, size=4096, p=self._p)
                users = self._order[ranks]
            else:
                users = self._np.integers(0, N_USERS, size=4096)
            probes = self._np.integers(0, N_PROBES, size=4096)
            yield from zip(users.tolist(), probes.tolist())

    def nonce(self) -> str:
        return f"{self._py.getrandbits(128):032x}"


class Client:
    """Request building and checking against the world's oracle."""

    def __init__(self, world: World, conn: Connection, traffic: Traffic,
                 cpu: Optional[ThreadCpu] = None,
                 speed: Optional[SpeedProbe] = None) -> None:
        self.world = world
        self.conn = conn
        self.traffic = traffic
        self.cpu = cpu
        self.speed = speed

    def _auth_body(self, index: int, probe: int) -> Tuple[str, bytes]:
        """A fresh nonce and the ``/v1/auth`` body for one pick."""
        uid = self.world.user_ids[index]
        nonce = self.traffic.nonce()
        body = (
            f'{{"user_id":"{uid}","nonce":"{nonce}",'
            f'"proof":"{pin_proof(PIN, uid, nonce)}",'
            f'"trial":{self.world.probe_json[template_of(uid)][probe]}}}'
        ).encode("ascii")
        return nonce, body

    def _auth_ok(self, index: int, probe: int, reply: Reply, out: Samples) -> bool:
        """Count one auth and check its reply against the oracle."""
        uid = self.world.user_ids[index]
        out.attempted += 1
        if reply.status != 200:
            out.fail(f"auth {uid}: HTTP {reply.status} {reply.body[:200]!r}")
            return False
        wire = reply.json()
        expected = self.world.oracle[(template_of(uid), probe)]
        if wire_outcome(wire) != expected or wire["failures"] != 0:
            out.fail(f"auth {uid} probe {probe}: got {wire_outcome(wire)}, "
                     f"failures={wire['failures']}; oracle {expected}")
            return False
        return True

    def auth(self, index: int, probe: int, out: Samples, timed: bool) -> None:
        nonce, body = self._auth_body(index, probe)
        reply = self.conn.request("POST", "/v1/auth", body)
        if self._auth_ok(index, probe, reply, out) and timed:
            out.auth_lat_ns.append(reply.latency_ns)
            out.auth_cpu_ns.append(reply.cpu_ns)
            out.auth_rids.append(nonce)

    def warm(self, picks: Sequence[Tuple[int, int]], conns: Sequence[Connection],
             out: Samples) -> None:
        """Untimed auths for ``picks``, one in flight on each of ``conns``.

        The server's engine pool starts its workers lazily, and each new
        worker grows the heap. Keeping as many requests in flight as
        there are workers starts all of them before the window opens.
        """
        width = len(conns)
        for start in range(0, len(picks), width):
            batch = picks[start:start + width]
            for conn, (index, probe) in zip(conns, batch):
                conn.send("POST", "/v1/auth", self._auth_body(index, probe)[1])
            for conn, (index, probe) in zip(conns, batch):
                self._auth_ok(index, probe, conn.receive(), out)

    def enroll(self, uid: str, k: int, trials: EnrollTrials, out: Samples,
               timed: bool) -> None:
        """``enroll/begin`` then a timed ``enroll/complete`` of 9 trials.

        Begin is re-issued (it replaces the window) until the minted
        PIN has four distinct digits: each distinct digit trains its own
        key model, so this holds the work per enrollment constant.
        Generating the trials happens between the two requests, and so
        does one run of the calibration kernel before a timed
        enrollment. After the reply the client waits for the server to
        go idle, and the CPU it used meanwhile (BLAS workers spinning
        down after training) counts toward the enrollment.
        """
        begin_body = json.dumps({"user_id": uid}).encode("ascii")
        while True:
            begin = self.conn.request("POST", "/v1/enroll/begin", begin_body)
            out.attempted += 1
            if begin.status != 200:
                out.fail(f"enroll/begin {uid}: HTTP {begin.status}")
                return
            window = begin.json()
            if len(set(window["pin"])) == 4:
                break
        pin, nonce = window["pin"], window["nonce"]
        body = json.dumps({
            "user_id": uid,
            "nonce": nonce,
            "proof": pin_proof(pin, uid, nonce),
            "trials": trials.for_pin(k, pin),
        }).encode("ascii")
        pre_ns = self.speed.measure() if timed and self.speed is not None else None
        reply = self.conn.request("POST", "/v1/enroll/complete", body)
        tail_ns = 0
        if self.cpu is not None and self.conn.last_cpu is not None:
            tail_ns = settle(self.cpu, self.conn.last_cpu)
        out.attempted += 1
        if reply.status != 200:
            out.fail(f"enroll/complete {uid}: HTTP {reply.status} {reply.body[:200]!r}")
            return
        wire = reply.json()
        if wire != {"user_id": uid, "enrolled": True, "n_trials": ENROLL_TRIALS}:
            out.fail(f"enroll/complete {uid}: unexpected reply {wire}")
            return
        if timed:
            out.enroll_lat_ns.append(reply.latency_ns)
            out.enroll_cpu_ns.append(reply.cpu_ns + tail_ns)
            out.enroll_rids.append(nonce)
            if pre_ns is not None:
                out.enroll_calib_ns.append(pre_ns)

    def stats(self) -> Dict[str, Any]:
        reply = self.conn.request("GET", "/v1/admin/stats")
        if reply.status != 200:
            raise RuntimeError(f"admin/stats: HTTP {reply.status}")
        return reply.json()


@dataclass
class Phase:
    """One server's life: set-up, timed window, readings."""

    setup_s: float
    samples: Samples
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    steal_share: float
    rss_mib: float
    digest: str
    window_s: float
    threads: int = 0  # server threads when the window opened


def run_phase(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    src: Path,
    work: Path,
    t_start: float,
    server_command: Sequence[str] = REPRO_CLI,
) -> Phase:
    """Build a fresh world, boot a server on it, warm it, time it."""
    world = build_world(work / "population")
    server = Server(
        src,
        ["--packed", str(world.root), "--features", str(FEATURES),
         *workload.serve_args],
        work / "server.log",
        server_command,
    )
    try:
        server.wait_healthy()
        traffic = Traffic(seed, workload.zipf)
        cpu = ThreadCpu(server.pid)
        conn = server.connect(cpu=cpu)
        speed = SpeedProbe()
        client = Client(world, conn, traffic, cpu, speed)
        enroll_trials = EnrollTrials()
        out = Samples()  # untimed warm-pass requests still count and are checked
        if workload.warm_users is None:
            warm = [(index, index % N_PROBES) for index in range(N_USERS)]
        else:
            picks = Traffic(seed + 1, zipf=False).picks()
            warm = [next(picks) for _ in range(workload.warm_users)]
        wide = [server.connect() for _ in range(SERVER_WORKERS)]
        client.warm(warm, wide, out)
        for extra in wide:
            extra.close()
        # One enrollment so the write path's one-off costs never land
        # in a timed sample.
        client.enroll(f"warm-{seed}", 0, enroll_trials, out, timed=False)
        setup_s = time.perf_counter() - t_start

        threads = len(os.listdir(f"/proc/{server.pid}/task"))
        before = client.stats()
        steal = StealMeter()
        picks = traffic.picks()
        t0 = next_calib = time.perf_counter()
        deadline = t0 + seconds
        n_auth = n_enroll = 0
        rss: Optional[float] = None
        while True:
            now = time.perf_counter()
            if n_auth >= workload.min_auths and n_enroll >= workload.min_enrolls:
                if rss is None:
                    # Peak RSS after a fixed amount of work, so a faster
                    # server doing more loads or enrollments in the
                    # window is not charged for them.
                    rss = peak_rss_mib(server.pid)
                if now >= deadline:
                    break
            if now >= next_calib:
                out.calib_ns.append(speed.measure())
                out.calib_at.append(len(out.auth_cpu_ns))
                next_calib = now + EVERY_S
            client.auth(*next(picks), out, timed=True)
            n_auth += 1
            if workload.enroll_every and n_auth % workload.enroll_every == 0:
                n_enroll += 1
                client.enroll(f"mix-{seed}-{n_enroll}", n_enroll, enroll_trials,
                              out, timed=True)
        window_s = time.perf_counter() - t0
        steal_share = steal.share()
        after = client.stats()
        if not workload.enroll_every:
            for k in range(WRITE_PROBE_ENROLLS):
                client.enroll(f"probe-{seed}-{k}", k + 1, enroll_trials, out,
                              timed=True)
        conn.close()
    finally:
        rc = server.stop()
    if rc != 0:
        raise RuntimeError(f"server exited with {rc}:\n{server.log_tail()}")
    shutil.rmtree(world.root)
    assert rss is not None
    return Phase(setup_s, out, before, after, steal_share, rss, world.digest,
                 window_s, threads)


def new_work_dir(root: Path) -> Path:
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))
