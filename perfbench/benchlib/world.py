"""The one world every workload runs on, and the oracle that checks it.

- **Feature budget:** 9996 MiniRocket features, the paper's ~10k and
  the ``EnrollmentOptions`` default; wire enrollments use it too.
- **Population:** 4 templates from ``enroll_templates``, stamped
  round-robin into 512 users of a float32 ``ShardedPackedBackend``,
  all with PIN 1628.
- **Probes:** template ``i``'s probes are the held-out trials 7-11 of
  its own cohort (``StudyData(n_users=5, seed=101*i)``, user 0; trials
  0-6 trained it). Every probe is legitimate, so the retry ladder never
  arms.
- **Oracle:** ``(accepted, reason, pin_ok, scores)`` for each of the
  4x5 (template, probe) pairs, from direct ``ModelRegistry.authenticate``
  over the same packed backend the server reads.

A user's template comes from its id (``u0000005`` -> 5 % 4), never from
the order in which a listing returns ids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.config import PipelineConfig
from repro.core import (
    EnrollmentOptions,
    ModelRegistry,
    ShardedPackedBackend,
    check_enrollment_quality,
)
from repro.data import StudyData
from repro.errors import EnrollmentError
from repro.eval import enroll_templates, materialize_population
from repro.service.protocol import encode_trial

PIN = "1628"
FEATURES = 9996
N_TEMPLATES = 4
N_USERS = 512
PROBE_TRIALS = range(7, 12)
N_PROBES = len(PROBE_TRIALS)
ENROLL_TRIALS = 9
#: Simulated typists in the fixed cohort enrollment trials come from.
N_TYPISTS = 8

#: (accepted, reason, pin_ok, scores) of one decision.
Outcome = Tuple[bool, str, bool, Tuple[float, ...]]


def user_id(index: int) -> str:
    """The id ``materialize_population`` stores user ``index`` under."""
    return f"u{index:07d}"


def template_of(uid: str) -> int:
    """Template index of a population user, parsed from its id."""
    return int(uid[1:]) % N_TEMPLATES


@dataclass(frozen=True)
class World:
    """A materialized population plus everything the client sends."""

    root: Path
    user_ids: Tuple[str, ...]
    digest: str  # sha256 over the packed template bytes
    probe_json: Tuple[Tuple[str, ...], ...]  # [template][probe] -> wire trial
    oracle: Mapping[Tuple[int, int], Outcome]


def outcome_of(decision: Any) -> Outcome:
    return (
        bool(decision.accepted),
        str(decision.reason),
        bool(decision.pin_ok),
        tuple(float(s) for s in decision.scores),
    )


def wire_outcome(body: Mapping[str, Any]) -> Outcome:
    return (
        body["accepted"],
        body["reason"],
        body["pin_ok"],
        tuple(body["scores"]),
    )


def _template_digest(templates: Sequence[Any]) -> str:
    h = hashlib.sha256()
    for packed in templates:
        h.update(packed.record)
        for fingerprint in sorted(packed.extractors):
            h.update(fingerprint.encode("ascii"))
            h.update(packed.extractors[fingerprint])
    return h.hexdigest()


def build_world(root: Path) -> World:
    """Train the templates, materialize the population, fill the oracle."""
    templates = enroll_templates(
        N_TEMPLATES, num_features=FEATURES, pin=PIN, dtype="float32", n_jobs=2
    )
    backend = ShardedPackedBackend(root, dtype="float32")
    ids = materialize_population(backend, N_USERS, templates)
    probes = [
        StudyData(n_users=5, seed=101 * t).trials(
            0, PIN, "one_handed", PROBE_TRIALS.stop
        )[PROBE_TRIALS.start :]
        for t in range(N_TEMPLATES)
    ]
    direct = ModelRegistry(backend=backend)
    oracle = {
        (t, p): outcome_of(
            direct.authenticate(user_id(t), trial, claimed_pin=PIN)
        )
        for t in range(N_TEMPLATES)
        for p, trial in enumerate(probes[t])
    }
    return World(
        root=root,
        user_ids=tuple(ids),
        digest=_template_digest(templates),
        probe_json=tuple(
            tuple(json.dumps(encode_trial(trial)) for trial in row)
            for row in probes
        ),
        oracle=oracle,
    )


class EnrollTrials:
    """Gate-passing enrollment trials for a server-minted PIN.

    Enrollment ``k`` is typed by user ``k % N_TYPISTS`` of one fixed
    cohort. The typist changes training cost by about 7%, so every run
    gets the same typists in the same order, and enrollment cost varies
    only with the PIN the server mints. As a real client re-prompts,
    entries that fail ``check_enrollment_quality`` are dropped and the
    first :data:`ENROLL_TRIALS` that pass are kept.
    """

    def __init__(self) -> None:
        self._study = StudyData(n_users=N_TYPISTS, seed=7919)
        self._config = PipelineConfig()
        self._options = EnrollmentOptions(num_features=FEATURES)

    def for_pin(self, k: int, pin: str) -> List[Dict[str, Any]]:
        # Some simulated typists rarely pass the gate on some PINs; the
        # next typist in the cohort then takes over.
        for offset in range(N_TYPISTS):
            picked = self._passing((k + offset) % N_TYPISTS, pin)
            if len(picked) == ENROLL_TRIALS:
                return picked
        raise EnrollmentError(f"no typist passed the quality gate on PIN {pin!r}")

    def _passing(self, user: int, pin: str) -> List[Dict[str, Any]]:
        candidates = self._study.trials(user, pin, "one_handed", 4 * ENROLL_TRIALS)
        picked: List[Dict[str, Any]] = []
        for trial in candidates:
            try:
                check_enrollment_quality([trial], self._config, self._options)
            except EnrollmentError:
                continue
            picked.append(encode_trial(trial))
            if len(picked) == ENROLL_TRIALS:
                break
        return picked
