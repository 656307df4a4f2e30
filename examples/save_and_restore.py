#!/usr/bin/env python3
"""Persisting an enrolled authenticator across sessions.

A deployed P2Auth enrolls once and then lives on the device. This
example enrolls a user, saves the models to one packed template file,
"reboots" (drops everything), restores, and shows the restored
authenticator makes bit-identical decisions — including rejecting a
wrong PIN purely from the stored salted digest, without ever having
seen the PIN in this process.

Run:  python examples/save_and_restore.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import P2Auth, TrialSynthesizer, sample_population
from repro.core import EnrollmentOptions, load_authenticator, save_authenticator

PIN = "1628"


def main() -> None:
    rng = np.random.default_rng(3)
    users = sample_population(12, seed=23)
    synth = TrialSynthesizer()
    legit = users[0]

    print("Session 1: enrolling...")
    enrollment = [synth.synthesize_trial(legit, PIN, rng) for _ in range(9)]
    third_party = [
        synth.synthesize_trial(u, PIN, rng) for u in users[1:10] for _ in range(10)
    ]
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=2520))
    auth.enroll(enrollment, third_party)

    probes = [synth.synthesize_trial(legit, PIN, rng) for _ in range(5)]
    original = [auth.authenticate(p) for p in probes]
    print(f"  decisions: {[d.accepted for d in original]}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "user0.p2a"
        save_authenticator(auth, path)
        size_kib = path.stat().st_size / 1024
        print(f"  saved to {path.name} ({size_kib:.0f} KiB)\n")

        print("Session 2: restoring after 'reboot'...")
        del auth
        restored = load_authenticator(path)
        replayed = [restored.authenticate(p) for p in probes]
        print(f"  decisions: {[d.accepted for d in replayed]}")

        identical = all(
            a.accepted == b.accepted and a.scores == b.scores
            for a, b in zip(original, replayed)
        )
        print(f"  bit-identical to session 1: {identical}")

        wrong = restored.authenticate(probes[0], claimed_pin="0000")
        print(f"  wrong PIN against stored digest: accepted={wrong.accepted}")

        attacker_probe = synth.synthesize_trial(
            users[11], PIN, rng, rhythm_from=legit
        )
        attack = restored.authenticate(attacker_probe)
        print(f"  emulating attack on restored models: accepted={attack.accepted}")


if __name__ == "__main__":
    main()
