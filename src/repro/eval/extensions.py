"""Extension experiments beyond the paper's evaluation.

The paper leaves three natural questions open; each gets a runner in
the same :class:`~repro.eval.experiments.ExperimentResult` format:

- **Template aging** (`run_aging_sweep`) — the study spanned 8 weeks
  and found PPG patterns stable; how fast does accuracy decay once the
  physiology drifts systematically away from the enrolled template?
- **Enrollment size** (`run_enrollment_size_sweep`) — the paper caps
  enrollment at 9 entries for usability; what does each entry buy?
- **Threshold analysis** (`run_eer_analysis`) — the paper uses the
  ridge classifier's natural zero threshold; the EER characterizes the
  whole genuine/impostor score geometry.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import PAPER_PINS, PipelineConfig
from ..core import (
    EnrollmentOptions,
    P2Auth,
    WaveformModel,
    extract_full_waveform,
    preprocess_trial,
)
from ..data import StudyData, ThirdPartyStore
from .experiments import DEFAULT, ExperimentResult, ExperimentScale, _study
from .metrics import equal_error_rate
from .parallel import run_tasks
from .protocol import evaluate_user


def _aging_case(
    data: StudyData,
    scale: ExperimentScale,
    pin: str,
    age: float,
    victim_id: int,
) -> float:
    """Accuracy of one victim against probes aged by ``age``.

    Module-level (not a closure) so aging tasks pickle for the
    process pool.
    """
    synth = data.synthesizer
    contributors = [
        u
        for u in range(scale.n_users)
        if u != victim_id and u not in scale.attacker_ids
    ]
    store = ThirdPartyStore(data, contributors, pin)
    auth = P2Auth(
        pin=pin,
        options=EnrollmentOptions(num_features=scale.num_features),
    )
    auth.enroll(
        data.trials(victim_id, pin, "one_handed", scale.enroll_n),
        store.sample(scale.third_party_n),
    )
    user = data.user(victim_id)
    accepted = []
    for rep in range(scale.test_n):
        rng = np.random.default_rng(900_000 + victim_id * 1000 + rep)
        probe = synth.synthesize_trial(user, pin, rng, aging=age)
        accepted.append(auth.authenticate(probe).accepted)
    return float(np.mean(accepted))


def run_aging_sweep(
    scale: ExperimentScale = DEFAULT,
    ages: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 2.0),
    *,
    n_jobs: Optional[int] = None,
) -> ExperimentResult:
    """Authentication accuracy against systematically aged templates.

    Users enroll at age 0; probes are synthesized with increasing
    template drift. Security is also tracked: the emulating attacker
    stays un-aged (they observe the victim *now*). The age x victim
    grid fans out over one process pool when ``n_jobs`` > 1.
    """
    data = _study(scale)
    pin = PAPER_PINS[0]
    victims = list(scale.victim_ids)

    tasks = [
        partial(_aging_case, data, scale, pin, age, victim_id)
        for age in ages
        for victim_id in victims
    ]
    flat = run_tasks(tasks, n_jobs=n_jobs)

    rows = []
    summary: Dict[str, float] = {}
    for i, age in enumerate(ages):
        accs = flat[i * len(victims) : (i + 1) * len(victims)]
        accuracy = float(np.mean(accs))
        rows.append((age, accuracy))
        summary[f"acc_age_{age:g}"] = accuracy
    return ExperimentResult(
        experiment="ext-aging",
        title="Extension — accuracy vs template aging",
        headers=("aging", "accuracy"),
        rows=tuple(rows),
        summary=summary,
    )


def run_enrollment_size_sweep(
    scale: ExperimentScale = DEFAULT,
    sizes: Sequence[int] = (3, 5, 7, 9, 12),
    *,
    n_jobs: Optional[int] = None,
) -> ExperimentResult:
    """Accuracy and TRR as a function of the enrollment entry count.

    The size x victim grid flattens into one task pool under
    ``n_jobs``.
    """
    data = _study(scale)
    victims = list(scale.victim_ids)
    tasks = [
        partial(
            evaluate_user,
            data,
            victim,
            attacker_ids=scale.attacker_ids,
            enroll_n=size,
            test_n=scale.test_n,
            third_party_n=scale.third_party_n,
            ra_per_attacker=scale.ra_per_attacker,
            ea_per_attacker=scale.ea_per_attacker,
            num_features=scale.num_features,
        )
        for size in sizes
        for victim in victims
    ]
    flat = run_tasks(tasks, n_jobs=n_jobs)
    rows = []
    summary: Dict[str, float] = {}
    for i, size in enumerate(sizes):
        results = flat[i * len(victims) : (i + 1) * len(victims)]
        acc = float(np.mean([r.accuracy for r in results]))
        trr = float(
            np.mean([(r.trr_random + r.trr_emulating) / 2 for r in results])
        )
        rows.append((size, acc, trr))
        summary[f"acc_{size}"] = acc
        summary[f"trr_{size}"] = trr
    return ExperimentResult(
        experiment="ext-enroll",
        title="Extension — performance vs enrollment size",
        headers=("enrollment entries", "accuracy", "trr"),
        rows=tuple(rows),
        summary=summary,
    )


def _eer_scores(
    data: StudyData, scale: ExperimentScale, pin: str, victim_id: int
) -> Tuple[List[float], List[float]]:
    """Genuine and impostor score lists for one victim's waveform model.

    Module-level so EER tasks pickle for the process pool.
    """
    config = PipelineConfig()
    contributors = [
        u
        for u in range(scale.n_users)
        if u != victim_id and u not in scale.attacker_ids
    ]
    store = ThirdPartyStore(data, contributors, pin)
    trials = data.trials(
        victim_id, pin, "one_handed", scale.enroll_n + scale.test_n
    )
    enroll, test = trials[: scale.enroll_n], trials[scale.enroll_n :]

    positives = np.stack(
        [extract_full_waveform(preprocess_trial(t, config)) for t in enroll]
    )
    negatives = np.stack(
        [
            extract_full_waveform(preprocess_trial(t, config))
            for t in store.sample(scale.third_party_n)
        ]
    )
    model = WaveformModel(num_features=scale.num_features).fit(
        positives, negatives
    )
    genuine = [
        float(s)
        for s in model.decision_function(
            np.stack(
                [extract_full_waveform(preprocess_trial(t, config)) for t in test]
            )
        )
    ]
    impostor: List[float] = []
    for attacker in scale.attacker_ids:
        attacks = data.emulating_trials(
            attacker, victim_id, pin, scale.ea_per_attacker
        )
        impostor.extend(
            float(s)
            for s in model.decision_function(
                np.stack(
                    [
                        extract_full_waveform(preprocess_trial(t, config))
                        for t in attacks
                    ]
                )
            )
        )
    return genuine, impostor


def run_eer_analysis(
    scale: ExperimentScale = DEFAULT, *, n_jobs: Optional[int] = None
) -> ExperimentResult:
    """Equal error rate of the full-waveform score distributions.

    Pools genuine scores (held-out legitimate entries) and impostor
    scores (emulating attacks) over all victims, reporting the EER and
    the zero-threshold operating point the paper uses. Victims fan out
    over a process pool when ``n_jobs`` > 1.
    """
    data = _study(scale)
    pin = PAPER_PINS[0]

    tasks = [
        partial(_eer_scores, data, scale, pin, victim_id)
        for victim_id in scale.victim_ids
    ]
    genuine: List[float] = []
    impostor: List[float] = []
    for g, i in run_tasks(tasks, n_jobs=n_jobs):
        genuine.extend(g)
        impostor.extend(i)

    eer = equal_error_rate(genuine, impostor)
    frr_zero = float(np.mean(np.asarray(genuine) <= 0.0))
    far_zero = float(np.mean(np.asarray(impostor) > 0.0))
    rows = (
        ("equal error rate", eer),
        ("FRR at zero threshold", frr_zero),
        ("FAR at zero threshold", far_zero),
        ("genuine score mean", float(np.mean(genuine))),
        ("impostor score mean", float(np.mean(impostor))),
    )
    return ExperimentResult(
        experiment="ext-eer",
        title="Extension — score-threshold analysis (full-waveform model)",
        headers=("quantity", "value"),
        rows=rows,
        summary={"eer": eer, "frr_zero": frr_zero, "far_zero": far_zero},
    )


#: Extension runners, keyed like the paper runners.
EXTENSION_RUNNERS = {  # concurrency: immutable-after-init
    "ext-aging": run_aging_sweep,
    "ext-enroll": run_enrollment_size_sweep,
    "ext-eer": run_eer_analysis,
}
