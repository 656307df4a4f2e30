"""One experiment runner per table/figure of the paper's evaluation.

Every runner takes an :class:`ExperimentScale` and returns an
:class:`ExperimentResult` whose rows mirror the paper's artifact —
the same cases, sweeps, and series, so EXPERIMENTS.md can put the
paper-reported and measured values side by side. ``SMOKE`` scale keeps
CI fast; ``DEFAULT`` matches the shapes of the paper at reduced cost;
``PAPER`` is the full 15-volunteer protocol.

The runners are table-driven: each figure is one declarative
:class:`ExperimentSpec` entry in :data:`SPECS`, and a single generic
:func:`run_experiment` executes whichever spec it is handed. A
sweep-style figure declares its case grid (``cases``) and how to fold
per-case results into rows (``tabulate``); the handful of figures with
bespoke protocols (timing, baselines, the qualitative Fig. 9) plug in a
``custom`` body instead. The public ``run_fig*`` callables are thin
named wrappers generated from the table.

The paper's artifacts and their runners:

========  =================================================  ===============
Artifact  Content                                            Runner
========  =================================================  ===============
Fig. 8    privacy-boost accuracy/TRR per volunteer           run_fig8
Fig. 9    PPG traces of PIN "1648" for four users            run_fig9
Fig. 10   accuracy for 5 input cases + TRR under RA/EA       run_fig10
Fig. 11   ROCKET vs manual feature extraction                run_fig11
Fig. 12   PPG vs accelerometer                               run_fig12
Table I   time/memory overheads of the two pipelines         run_table1
Fig. 13   channel count and individual channels              run_fig13a/b
Fig. 14   third-party dataset size sweep                     run_fig14
Fig. 15   machine-learning model comparison                  run_fig15
Fig. 16   sampling-rate sweep at four channels               run_fig16
Fig. 17   sampling rate x channel count grid                 run_fig17
========  =================================================  ===============
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import PAPER_PINS, PipelineConfig
from ..core import EnrollmentOptions, P2Auth, extract_full_waveform, preprocess_trial
from ..data import StudyData, ThirdPartyStore, enroll_test_split
from ..errors import ConfigurationError
from ..ml import KNNClassifier, ResNet1DClassifier, RidgeClassifier, RNNFNNClassifier
from ..signal import decimate_recording
from ..types import PinEntryTrial
from .baselines import AccelerometerPipeline, ShangThresholdBaseline
from .parallel import run_tasks
from .profiling import profile_call
from .protocol import UserEvaluation, evaluate_user
from .reporting import format_table


@dataclass(frozen=True)
class ExperimentScale:
    """Cost/fidelity knobs shared by all experiment runners.

    Attributes:
        n_users: simulated population size.
        n_victims: users enrolled and evaluated as victims.
        n_attackers: users reserved as attackers (never in the store).
        enroll_n: enrollment entries per victim (paper: 9).
        test_n: held-out legitimate entries per victim.
        third_party_n: third-party store samples (paper: 100).
        ra_per_attacker / ea_per_attacker: attack entries per attacker.
        num_features: MiniRocket feature budget.
        seed: master seed for the population and all trials.
    """

    n_users: int = 20
    n_victims: int = 4
    n_attackers: int = 2
    enroll_n: int = 9
    test_n: int = 8
    third_party_n: int = 80
    ra_per_attacker: int = 5
    ea_per_attacker: int = 5
    num_features: int = 2520
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_victims + self.n_attackers > self.n_users:
            raise ConfigurationError(
                "victims + attackers exceed the population"
            )

    @property
    def victim_ids(self) -> Tuple[int, ...]:
        """Victims are the first users of the population."""
        return tuple(range(self.n_victims))

    @property
    def attacker_ids(self) -> Tuple[int, ...]:
        """Attackers are the last users of the population."""
        return tuple(range(self.n_users - self.n_attackers, self.n_users))


#: Fast scale for CI and unit tests.
SMOKE = ExperimentScale(
    n_users=7,
    n_victims=2,
    n_attackers=2,
    enroll_n=6,
    test_n=4,
    third_party_n=24,
    ra_per_attacker=3,
    ea_per_attacker=3,
    num_features=840,
)

#: Default scale: paper-shaped results at a fraction of the cost.
DEFAULT = ExperimentScale()

#: The paper's full protocol (15 volunteers, 100 third-party samples,
#: ~10K features, 4 attackers).
PAPER = ExperimentScale(
    n_users=15,
    n_victims=9,
    n_attackers=4,
    enroll_n=9,
    test_n=9,
    third_party_n=100,
    ra_per_attacker=10,
    ea_per_attacker=10,
    num_features=9996,
    seed=1,
)


@dataclass(frozen=True)
class ExperimentResult:
    """A reproduced table/figure.

    Attributes:
        experiment: short id ("fig8", "tab1", ...).
        title: human-readable description.
        headers: column names.
        rows: table rows, paper-shaped.
        summary: headline numbers for tests and EXPERIMENTS.md.
    """

    experiment: str
    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    summary: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


TrialTransform = Callable[[PinEntryTrial], PinEntryTrial]


# Trial transforms are module-level classes (not closures) so that
# evaluation tasks carrying them stay picklable for the process pool.


@dataclass(frozen=True)
class ChannelSubset:
    """Transform keeping only the given PPG channel rows."""

    indices: Tuple[int, ...]

    def __call__(self, trial: PinEntryTrial) -> PinEntryTrial:
        return dc_replace(
            trial, recording=trial.recording.select_channels(list(self.indices))
        )


@dataclass(frozen=True)
class DecimateTo:
    """Transform resampling the PPG recording to ``fs`` Hz."""

    fs: float

    def __call__(self, trial: PinEntryTrial) -> PinEntryTrial:
        return dc_replace(
            trial, recording=decimate_recording(trial.recording, self.fs)
        )


@dataclass(frozen=True)
class ComposedTransform:
    """Apply several trial transforms in sequence."""

    steps: Tuple[TrialTransform, ...]

    def __call__(self, trial: PinEntryTrial) -> PinEntryTrial:
        for step in self.steps:
            trial = step(trial)
        return trial


def channel_subset(indices: Sequence[int]) -> TrialTransform:
    """Transform keeping only the given PPG channel rows."""
    return ChannelSubset(indices=tuple(indices))


def decimate_to(fs: float) -> TrialTransform:
    """Transform resampling the PPG recording to ``fs`` Hz."""
    return DecimateTo(fs=fs)


def _study(scale: ExperimentScale, include_accel: bool = False) -> StudyData:
    return StudyData(
        n_users=scale.n_users, seed=scale.seed, include_accel=include_accel
    )


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(list(values)))


def _task_params(scale: ExperimentScale, **kwargs: Any) -> Dict[str, object]:
    """The scale's ``evaluate_user`` defaults, overridden by ``kwargs``."""
    params: Dict[str, object] = dict(
        attacker_ids=scale.attacker_ids,
        enroll_n=scale.enroll_n,
        test_n=scale.test_n,
        third_party_n=scale.third_party_n,
        ra_per_attacker=scale.ra_per_attacker,
        ea_per_attacker=scale.ea_per_attacker,
        num_features=scale.num_features,
    )
    params.update(kwargs)
    return params


def _evaluate_all(
    data: StudyData,
    scale: ExperimentScale,
    pin: str = PAPER_PINS[0],
    victims: Optional[Sequence[int]] = None,
    n_jobs: Optional[int] = None,
    **kwargs: Any,
) -> List[UserEvaluation]:
    """Evaluate every victim under one condition and return the list.

    Keyword arguments override the scale's defaults and are forwarded
    to :func:`repro.eval.protocol.evaluate_user`. ``n_jobs`` fans the
    victims out over a process pool; results match a serial run.
    """
    victims = list(victims if victims is not None else scale.victim_ids)
    params = _task_params(scale, **kwargs)
    tasks = [
        partial(evaluate_user, data, victim, pin, **params) for victim in victims
    ]
    return run_tasks(tasks, n_jobs=n_jobs)


def _evaluate_cases(
    data: StudyData,
    scale: ExperimentScale,
    cases: Sequence[Tuple[object, Dict[str, object]]],
    pin: str = PAPER_PINS[0],
    n_jobs: Optional[int] = None,
) -> List[List[UserEvaluation]]:
    """Evaluate several ``(label, kwargs)`` cases over all victims.

    The case x victim grid is flattened into one task list so a single
    process pool covers the whole sweep — there are no nested pools and
    workers stay busy even when cases outnumber victims. Results come
    back regrouped per case, in input order. Tasks are dispatched in
    per-case chunks: every victim of a case shares its third-party
    store, so landing them on one worker turns the store-side
    preprocessing and featurization into feature-cache hits.
    """
    victims = list(scale.victim_ids)
    tasks: List[partial] = []
    for _label, kwargs in cases:
        params = _task_params(scale, **kwargs)
        tasks.extend(
            partial(evaluate_user, data, victim, pin, **params)
            for victim in victims
        )
    flat = run_tasks(tasks, n_jobs=n_jobs, chunksize=len(victims))
    n = len(victims)
    return [flat[i * n : (i + 1) * n] for i in range(len(cases))]


def _case_stats(results: Sequence[UserEvaluation]) -> Tuple[float, float]:
    """Mean accuracy and mean (RA+EA averaged) TRR over victims."""
    acc = _mean([r.accuracy for r in results])
    trr = _mean([_mean([r.trr_random, r.trr_emulating]) for r in results])
    return acc, trr


#: A case grid: ``scale -> [(label, evaluate_user-kwargs), ...]``.
CaseFactory = Callable[
    [ExperimentScale], List[Tuple[Any, Dict[str, object]]]
]

#: Folds per-case results into ``(rows, summary)``.
Tabulate = Callable[
    [
        Sequence[Tuple[Any, Dict[str, object]]],
        Sequence[Sequence[UserEvaluation]],
    ],
    Tuple[List[Tuple[object, ...]], Dict[str, float]],
]

#: A bespoke experiment body: ``(data, scale, n_jobs) -> (rows, summary)``.
CustomBody = Callable[
    [StudyData, ExperimentScale, Optional[int]],
    Tuple[List[Tuple[object, ...]], Dict[str, float]],
]


# ---------------------------------------------------------------------------
# Case grids for the sweep-style figures
# ---------------------------------------------------------------------------

_CHANNEL_SUBSETS = {1: [0], 2: [0, 1], 3: [0, 1, 2], 4: [0, 1, 2, 3]}  # concurrency: immutable-after-init
_CHANNEL_LABELS = ["s0/infrared", "s0/red", "s1/infrared", "s1/red"]  # concurrency: immutable-after-init
_STORE_SIZES = (5, 10, 20, 60, 100, 200, 300)
_SAMPLING_RATES = (30.0, 50.0, 75.0, 100.0)


def _fig10_cases(scale: ExperimentScale) -> List[Tuple[Any, Dict[str, object]]]:
    return [
        ("one-hand", dict()),
        ("single boost", dict(privacy_boost=True)),
        ("double-3", dict(condition="double3")),
        ("double-2", dict(condition="double2")),
        ("no-PIN", dict(no_pin=True, ra_pin_pool=None)),
    ]


def _fig13a_cases(scale: ExperimentScale) -> List[Tuple[Any, Dict[str, object]]]:
    return [
        (count, dict(privacy_boost=True, transform=channel_subset(indices)))
        for count, indices in _CHANNEL_SUBSETS.items()
    ]


def _fig13b_cases(scale: ExperimentScale) -> List[Tuple[Any, Dict[str, object]]]:
    return [
        (label, dict(privacy_boost=True, transform=channel_subset([index])))
        for index, label in enumerate(_CHANNEL_LABELS)
    ]


def _fig14_cases(scale: ExperimentScale) -> List[Tuple[Any, Dict[str, object]]]:
    return [(size, dict(third_party_n=size)) for size in _STORE_SIZES]


def _fig16_cases(scale: ExperimentScale) -> List[Tuple[Any, Dict[str, object]]]:
    base = PipelineConfig()
    cases: List[Tuple[Any, Dict[str, object]]] = []
    for rate in _SAMPLING_RATES:
        transform = None if rate == base.fs else decimate_to(rate)
        config = base if rate == base.fs else base.scaled_to(rate)
        cases.append(
            (
                rate,
                dict(
                    privacy_boost=True,
                    transform=transform,
                    pipeline_config=config,
                ),
            )
        )
    return cases


def _fig17_cases(scale: ExperimentScale) -> List[Tuple[Any, Dict[str, object]]]:
    base = PipelineConfig()
    cases: List[Tuple[Any, Dict[str, object]]] = []
    for rate in _SAMPLING_RATES:
        config = base if rate == base.fs else base.scaled_to(rate)
        for count in (1, 2, 3, 4):
            steps: List[TrialTransform] = [
                channel_subset(_CHANNEL_SUBSETS[count])
            ]
            if rate != base.fs:
                steps.append(decimate_to(rate))
            cases.append(
                (
                    (rate, count),
                    dict(
                        privacy_boost=True,
                        transform=ComposedTransform(steps=tuple(steps)),
                        pipeline_config=config,
                    ),
                )
            )
    return cases


# ---------------------------------------------------------------------------
# Tabulators: per-case results -> (rows, summary)
# ---------------------------------------------------------------------------


def _fig10_tabulate(
    cases: Sequence[Tuple[Any, Dict[str, object]]],
    per_case: Sequence[Sequence[UserEvaluation]],
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    rows: List[Tuple[object, ...]] = []
    accuracies: List[float] = []
    trr_ra_all: List[float] = []
    trr_ea_all: List[float] = []
    for (label, _kwargs), results in zip(cases, per_case):
        acc = _mean([r.accuracy for r in results])
        trr_ra = _mean([r.trr_random for r in results])
        trr_ea = _mean([r.trr_emulating for r in results])
        accuracies.append(acc)
        trr_ra_all.append(trr_ra)
        trr_ea_all.append(trr_ea)
        rows.append((label, acc, trr_ra, trr_ea))
    rows.append(("average", _mean(accuracies), _mean(trr_ra_all), _mean(trr_ea_all)))
    summary = {
        "one_hand": accuracies[0],
        "single_boost": accuracies[1],
        "double3": accuracies[2],
        "double2": accuracies[3],
        "no_pin": accuracies[4],
        "average": _mean(accuracies),
        "trr_random": _mean(trr_ra_all),
        "trr_emulating": _mean(trr_ea_all),
    }
    return rows, summary


def _fig13a_tabulate(
    cases: Sequence[Tuple[Any, Dict[str, object]]],
    per_case: Sequence[Sequence[UserEvaluation]],
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    rows: List[Tuple[object, ...]] = []
    summary: Dict[str, float] = {}
    for (count, _kwargs), results in zip(cases, per_case):
        acc, trr = _case_stats(results)
        rows.append((count, acc, trr))
        summary[f"acc_{count}ch"] = acc
        summary[f"trr_{count}ch"] = trr
    return rows, summary


def _fig13b_tabulate(
    cases: Sequence[Tuple[Any, Dict[str, object]]],
    per_case: Sequence[Sequence[UserEvaluation]],
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    rows: List[Tuple[object, ...]] = []
    ir_acc: List[float] = []
    red_acc: List[float] = []
    ir_trr: List[float] = []
    red_trr: List[float] = []
    for (label, _kwargs), results in zip(cases, per_case):
        acc, trr = _case_stats(results)
        rows.append((label, acc, trr))
        if "infrared" in label:
            ir_acc.append(acc)
            ir_trr.append(trr)
        else:
            red_acc.append(acc)
            red_trr.append(trr)
    summary = {
        "infrared_accuracy": _mean(ir_acc),
        "red_accuracy": _mean(red_acc),
        "infrared_trr": _mean(ir_trr),
        "red_trr": _mean(red_trr),
    }
    return rows, summary


def _fig14_tabulate(
    cases: Sequence[Tuple[Any, Dict[str, object]]],
    per_case: Sequence[Sequence[UserEvaluation]],
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    rows: List[Tuple[object, ...]] = []
    summary: Dict[str, float] = {}
    for (size, _kwargs), results in zip(cases, per_case):
        acc, trr = _case_stats(results)
        rows.append((size, acc, trr))
        summary[f"acc_{size}"] = acc
        summary[f"trr_{size}"] = trr
    return rows, summary


def _fig16_tabulate(
    cases: Sequence[Tuple[Any, Dict[str, object]]],
    per_case: Sequence[Sequence[UserEvaluation]],
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    rows: List[Tuple[object, ...]] = []
    summary: Dict[str, float] = {}
    for (rate, _kwargs), results in zip(cases, per_case):
        acc, trr = _case_stats(results)
        rows.append((int(rate), acc, trr))
        summary[f"acc_{int(rate)}hz"] = acc
        summary[f"trr_{int(rate)}hz"] = trr
    return rows, summary


def _fig17_tabulate(
    cases: Sequence[Tuple[Any, Dict[str, object]]],
    per_case: Sequence[Sequence[UserEvaluation]],
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    rows: List[Tuple[object, ...]] = []
    summary: Dict[str, float] = {}
    for ((rate, count), _kwargs), results in zip(cases, per_case):
        acc = _mean([r.accuracy for r in results])
        rows.append((int(rate), count, acc))
        summary[f"acc_{int(rate)}hz_{count}ch"] = acc
    return rows, summary


# ---------------------------------------------------------------------------
# Bespoke experiment bodies (timing, baselines, the qualitative Fig. 9)
# ---------------------------------------------------------------------------


def _fig8_body(
    data: StudyData, scale: ExperimentScale, n_jobs: Optional[int]
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    results = _evaluate_all(data, scale, privacy_boost=True, n_jobs=n_jobs)
    rows: List[Tuple[object, ...]] = []
    for r in results:
        trr = _mean([r.trr_random, r.trr_emulating])
        instability = data.user(r.user_id).noise.instability
        rows.append((f"volunteer {r.user_id}", r.accuracy, trr, instability))
    accuracy = _mean([r.accuracy for r in results])
    trr = _mean([_mean([r.trr_random, r.trr_emulating]) for r in results])
    rows.append(("mean", accuracy, trr, float("nan")))
    return rows, {"accuracy": accuracy, "trr": trr}


def _fig9_body(
    data: StudyData, scale: ExperimentScale, n_jobs: Optional[int], pin: str = "1648"
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    # n_jobs is accepted for the uniform body signature but unused:
    # this qualitative analysis is light enough that pool start-up
    # would dominate.
    config = PipelineConfig()
    n_users = min(4, scale.n_users)
    reps = 5

    # segments[user][key] -> list of (channels, window) arrays.
    segments: List[Dict[str, List[np.ndarray]]] = []
    for user_id in range(n_users):
        per_key: Dict[str, List[np.ndarray]] = {}
        for trial in data.trials(user_id, pin, "one_handed", reps):
            pre = preprocess_trial(trial, config)
            for position, key in enumerate(trial.pin):
                seg = pre.segment(position, config.segment_window)
                per_key.setdefault(key, []).append(seg.samples)
        segments.append(per_key)

    def dist(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sqrt(np.mean((a - b) ** 2)))

    def mean_cross(xs: List[np.ndarray], ys: List[np.ndarray]) -> float:
        return _mean([dist(a, b) for a in xs for b in ys])

    intra: List[float] = []
    for per_key in segments:
        for waveforms in per_key.values():
            pairs = [
                dist(waveforms[i], waveforms[j])
                for i in range(len(waveforms))
                for j in range(i + 1, len(waveforms))
            ]
            if pairs:
                intra.append(_mean(pairs))
    inter: List[float] = []
    rows: List[Tuple[object, ...]] = []
    for u in range(n_users):
        for v in range(u + 1, n_users):
            shared = set(segments[u]) & set(segments[v])
            pair = _mean(
                [mean_cross(segments[u][k], segments[v][k]) for k in shared]
            )
            inter.append(pair)
            rows.append((f"user {u} vs user {v}", pair))
    intra_mean = _mean(intra)
    inter_mean = _mean(inter)
    rows.append(("mean intra-user", intra_mean))
    rows.append(("mean inter-user", inter_mean))
    rows.append(("inter/intra ratio", inter_mean / intra_mean))
    summary = {
        "intra": intra_mean,
        "inter": inter_mean,
        "ratio": inter_mean / intra_mean,
    }
    return rows, summary


def _fig11_body(
    data: StudyData, scale: ExperimentScale, n_jobs: Optional[int]
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    config = PipelineConfig()
    pin = PAPER_PINS[0]

    rocket = _evaluate_all(data, scale, n_jobs=n_jobs)
    rocket_acc = _mean([r.accuracy for r in rocket])
    rocket_trr = _mean(
        [_mean([r.trr_random, r.trr_emulating]) for r in rocket]
    )

    manual_acc: List[float] = []
    manual_rej: List[float] = []
    for victim in scale.victim_ids:
        trials = data.trials(victim, pin, "one_handed", scale.enroll_n + scale.test_n)
        enroll, test = enroll_test_split(trials, scale.enroll_n)
        def waveform(t: PinEntryTrial) -> np.ndarray:
            return extract_full_waveform(preprocess_trial(t, config))

        baseline = ShangThresholdBaseline(tau=1.7, dtw_stride=2)
        baseline.enroll(np.stack([waveform(t) for t in enroll]))
        manual_acc.append(_mean([baseline.accepts(waveform(t)) for t in test]))
        rejections = []
        for attacker in scale.attacker_ids:
            for t in data.emulating_trials(
                attacker, victim, pin, scale.ea_per_attacker
            ):
                rejections.append(not baseline.accepts(waveform(t)))
        manual_rej.append(_mean(rejections))
    manual_accuracy = _mean(manual_acc)
    manual_trr = _mean(manual_rej)

    rows = [
        ("P2Auth (ROCKET)", rocket_acc, rocket_trr),
        ("manual (DTW threshold)", manual_accuracy, manual_trr),
    ]
    summary = {
        "rocket_accuracy": rocket_acc,
        "rocket_trr": rocket_trr,
        "manual_accuracy": manual_accuracy,
        "manual_trr": manual_trr,
    }
    return rows, summary


def _fig12_body(
    data: StudyData, scale: ExperimentScale, n_jobs: Optional[int]
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    pin = PAPER_PINS[0]

    ppg = _evaluate_all(data, scale, n_jobs=n_jobs)
    ppg_acc = _mean([r.accuracy for r in ppg])
    ppg_trr = _mean([_mean([r.trr_random, r.trr_emulating]) for r in ppg])

    accel_acc: List[float] = []
    accel_rej: List[float] = []
    contributors = [
        uid
        for uid in range(scale.n_users)
        if uid not in scale.attacker_ids
    ]
    for victim in scale.victim_ids:
        trials = data.trials(victim, pin, "one_handed", scale.enroll_n + scale.test_n)
        enroll, test = enroll_test_split(trials, scale.enroll_n)
        store = ThirdPartyStore(
            data, [u for u in contributors if u != victim], pin
        )
        third = store.sample(scale.third_party_n)
        pipeline = AccelerometerPipeline(num_features=scale.num_features)
        pipeline.enroll(enroll, third)
        accel_acc.append(_mean([pipeline.accepts(t) for t in test]))
        rejections = []
        for attacker in scale.attacker_ids:
            for t in data.emulating_trials(
                attacker, victim, pin, scale.ea_per_attacker
            ):
                rejections.append(not pipeline.accepts(t))
        accel_rej.append(_mean(rejections))
    accel_accuracy = _mean(accel_acc)
    accel_trr = _mean(accel_rej)

    rows = [
        ("PPG", ppg_acc, ppg_trr),
        ("accelerometer", accel_accuracy, accel_trr),
    ]
    summary = {
        "ppg_accuracy": ppg_acc,
        "ppg_trr": ppg_trr,
        "accel_accuracy": accel_accuracy,
        "accel_trr": accel_trr,
    }
    return rows, summary


def _tab1_body(
    data: StudyData, scale: ExperimentScale, n_jobs: Optional[int]
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    # n_jobs is accepted for the uniform body signature but unused —
    # this is a timing experiment and concurrent workers would distort
    # the per-pipeline wall times it reports.
    pin = PAPER_PINS[0]
    victim = scale.victim_ids[0]
    trials = data.trials(victim, pin, "one_handed", scale.enroll_n + 1)
    enroll, probe = trials[: scale.enroll_n], trials[scale.enroll_n]
    store = ThirdPartyStore(
        data,
        [u for u in range(scale.n_users)
         if u != victim and u not in scale.attacker_ids],
        pin,
    )
    third = store.sample(scale.third_party_n)

    rows: List[Tuple[object, ...]] = []
    summary: Dict[str, float] = {}
    for label, method in (("ROCKET-based", "rocket"), ("manual feature-based", "manual")):
        options = EnrollmentOptions(
            feature_method=method, num_features=scale.num_features
        )
        auth = P2Auth(pin=pin, options=options)
        enroll_run = profile_call(lambda: auth.enroll(enroll, third))
        auth_run = profile_call(lambda: auth.authenticate(probe))
        rows.append(
            (
                label,
                enroll_run.seconds,
                enroll_run.peak_mib,
                auth_run.seconds,
                auth_run.peak_mib,
            )
        )
        key = "rocket" if method == "rocket" else "manual"
        summary[f"{key}_enroll_s"] = enroll_run.seconds
        summary[f"{key}_auth_s"] = auth_run.seconds
    summary["enroll_ratio"] = summary["rocket_enroll_s"] / summary["manual_enroll_s"]
    summary["auth_ratio"] = summary["rocket_auth_s"] / summary["manual_auth_s"]
    return rows, summary


def _fig15_body(
    data: StudyData, scale: ExperimentScale, n_jobs: Optional[int]
) -> Tuple[List[Tuple[object, ...]], Dict[str, float]]:
    # Models run one after the other (victims fan out within each) so
    # the reported wall time still compares the models fairly.
    # Classifier factories are ``functools.partial`` objects, not
    # lambdas, so tasks pickle.
    models = [
        ("rocket+ridge", dict(feature_method="rocket",
                              classifier_factory=RidgeClassifier)),
        ("knn", dict(feature_method="rocket",
                     classifier_factory=partial(KNNClassifier, k=5))),
        ("resnet", dict(feature_method="raw",
                        classifier_factory=partial(ResNet1DClassifier, epochs=50))),
        ("rnn-fnn", dict(feature_method="raw",
                         classifier_factory=partial(RNNFNNClassifier, epochs=60))),
    ]
    rows: List[Tuple[object, ...]] = []
    summary: Dict[str, float] = {}
    for label, kwargs in models:
        start = time.perf_counter()
        results = _evaluate_all(data, scale, n_jobs=n_jobs, **kwargs)
        elapsed = time.perf_counter() - start
        acc = _mean([r.accuracy for r in results])
        trr = _mean([_mean([r.trr_random, r.trr_emulating]) for r in results])
        rows.append((label, acc, trr, elapsed))
        key = label.replace("+", "_").replace("-", "_")
        summary[f"{key}_accuracy"] = acc
        summary[f"{key}_trr"] = trr
    return rows, summary


# ---------------------------------------------------------------------------
# The spec table and the one generic runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative table/figure entry.

    Either ``cases`` + ``tabulate`` (a case sweep evaluated through the
    shared flattened grid) or ``custom`` (a bespoke body) must be set.

    Attributes:
        experiment: artifact id ("fig8", "tab1", ...).
        title: the result's table title.
        headers: the result's column names.
        description: docstring of the generated ``run_*`` wrapper; the
            first line is what ``python -m repro list`` prints.
        runner_name: name of the generated wrapper (defaults to
            ``run_<experiment>``).
        include_accel: synthesize accelerometer streams in the study.
        cases: declarative case grid for sweep-style figures.
        tabulate: folds per-case results into ``(rows, summary)``.
        custom: bespoke body for figures that are not plain sweeps.
    """

    experiment: str
    title: str
    headers: Tuple[str, ...]
    description: str
    runner_name: str = ""
    include_accel: bool = False
    cases: Optional[CaseFactory] = None
    tabulate: Optional[Tabulate] = None
    custom: Optional[CustomBody] = None

    def __post_init__(self) -> None:
        if (self.custom is None) == (self.cases is None):
            raise ConfigurationError(
                f"spec {self.experiment!r} must set exactly one of "
                "cases/custom"
            )
        if self.cases is not None and self.tabulate is None:
            raise ConfigurationError(
                f"spec {self.experiment!r} declares cases without a tabulate"
            )

    @property
    def name(self) -> str:
        """The generated wrapper's function name."""
        return self.runner_name or f"run_{self.experiment}"


#: The declarative experiment table: one entry per paper artifact.
SPECS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        experiment="fig8",
        title="Fig. 8 — privacy boost: per-volunteer accuracy and TRR",
        headers=("volunteer", "accuracy", "trr", "instability"),
        description=(
            "Per-volunteer accuracy and TRR with waveform fusion enabled.\n"
            "\n"
            "    Paper: average accuracy ~83% across 12 volunteers, TRR close"
            " to or\n"
            "    above 90%; stable users (volunteer 8) beat restless ones\n"
            "    (volunteer 11).\n"
            "    "
        ),
        custom=_fig8_body,
    ),
    ExperimentSpec(
        experiment="fig9",
        title='Fig. 9 — keystroke-waveform separation for PIN "1648"',
        headers=("pair", "rms distance"),
        description=(
            "Quantitative stand-in for the paper's waveform plot.\n"
            "\n"
            "    The figure's message is that, for the same PIN, each user's\n"
            "    keystroke waveforms look alike across repetitions while"
            " differing\n"
            "    strongly between users. We compare calibrated (apex-aligned)\n"
            "    single-keystroke segments per key: the mean RMS distance"
            " between\n"
            "    same-user repetitions (intra) versus different-user pairs"
            " (inter)\n"
            "    of the *same* key. A ratio well above 1 is the quantitative\n"
            "    analogue of the visual separation in the paper's plot.\n"
            "    "
        ),
        custom=_fig9_body,
    ),
    ExperimentSpec(
        experiment="fig10",
        title="Fig. 10 — authentication accuracy for 5 cases and attack TRR",
        headers=("case", "accuracy", "trr_random", "trr_emulating"),
        description=(
            "The paper's headline figure: five input cases and two attacks.\n"
            "\n"
            "    Paper: one-handed ~98%, privacy boost ~83%, double-3 ~88%,\n"
            "    double-2 ~70%, overall average ~84%; TRR ~98% for both random"
            " and\n"
            "    emulating attacks.\n"
            "    "
        ),
        cases=_fig10_cases,
        tabulate=_fig10_tabulate,
    ),
    ExperimentSpec(
        experiment="fig11",
        title="Fig. 11 — ROCKET-based vs manual feature extraction",
        headers=("method", "accuracy", "trr"),
        description=(
            "ROCKET pipeline vs the Shang-style threshold-DTW baseline.\n"
            "\n"
            "    Paper: the manual baseline reaches only ~0.62 accuracy on"
            " keystroke\n"
            "    data while P2Auth clearly wins on both accuracy and TRR. The"
            " DTW\n"
            "    baseline loop stays serial — it is cheap next to the ROCKET"
            " runs.\n"
            "    "
        ),
        custom=_fig11_body,
    ),
    ExperimentSpec(
        experiment="fig12",
        title="Fig. 12 — PPG vs accelerometer-based authentication",
        headers=("sensor", "accuracy", "trr"),
        description=(
            "PPG vs accelerometer under the same ROCKET pipeline.\n"
            "\n"
            "    Paper: typing is nearly static, so wrist acceleration barely\n"
            "    changes and accelerometer-based authentication is both less\n"
            "    accurate and less attack-resistant than PPG.\n"
            "    "
        ),
        include_accel=True,
        custom=_fig12_body,
    ),
    ExperimentSpec(
        experiment="tab1",
        title="Table I — computational and memory overheads",
        headers=(
            "method",
            "enroll time (s)",
            "enroll peak (MiB)",
            "auth time (s)",
            "auth peak (MiB)",
        ),
        description=(
            "Enrollment/authentication time and memory, ROCKET vs manual.\n"
            "\n"
            "    Paper (Table I): ROCKET enrolls in ~1% of the manual"
            " baseline's\n"
            "    time and authenticates in ~3%, at comparable memory.\n"
            "    "
        ),
        runner_name="run_table1",
        custom=_tab1_body,
    ),
    ExperimentSpec(
        experiment="fig13a",
        title="Fig. 13a — performance vs channel count (privacy boost)",
        headers=("channels", "accuracy", "trr"),
        description=(
            "Accuracy/TRR vs number of PPG channels (privacy-boost case).\n"
            "\n"
            "    Paper: accuracy increases significantly with the channel"
            " count\n"
            "    while the rejection rate stays roughly flat.\n"
            "    "
        ),
        cases=_fig13a_cases,
        tabulate=_fig13a_tabulate,
    ),
    ExperimentSpec(
        experiment="fig13b",
        title="Fig. 13b — performance of individual channels",
        headers=("channel", "accuracy", "trr"),
        description=(
            "Accuracy/TRR of each individual channel.\n"
            "\n"
            "    Paper: infrared channels authenticate better; red channels"
            " reject\n"
            "    better — the two wavelengths are complementary.\n"
            "    "
        ),
        cases=_fig13b_cases,
        tabulate=_fig13b_tabulate,
    ),
    ExperimentSpec(
        experiment="fig14",
        title="Fig. 14 — impact of third-party dataset size",
        headers=("store size", "accuracy", "trr"),
        description=(
            "Accuracy and TRR vs third-party store size.\n"
            "\n"
            "    Paper: as the store grows from 20 to 300 samples the"
            " rejection\n"
            "    rate rises while authentication accuracy falls (the 9"
            " legitimate\n"
            "    entries get swamped); 100 is the chosen operating point.\n"
            "    "
        ),
        cases=_fig14_cases,
        tabulate=_fig14_tabulate,
    ),
    ExperimentSpec(
        experiment="fig15",
        title="Fig. 15 — impact of the machine-learning model",
        headers=("model", "accuracy", "trr", "wall time (s)"),
        description=(
            "ROCKET+ridge vs ResNet, KNN, and RNN-FNN.\n"
            "\n"
            "    Paper: rocket reaches ~0.96 on the complete test data with"
            " the\n"
            "    shortest computation time; the other models may authenticate"
            " real\n"
            "    users comparably but reject attackers worse.\n"
            "    "
        ),
        custom=_fig15_body,
    ),
    ExperimentSpec(
        experiment="fig16",
        title="Fig. 16 — sampling-rate sweep at four channels (privacy boost)",
        headers=("rate (Hz)", "accuracy", "trr"),
        description=(
            "Privacy-boost performance vs PPG sampling rate, four channels.\n"
            "\n"
            "    Paper: ~68% accuracy at 30 Hz; performance plateaus as the"
            " rate\n"
            "    rises — the system tolerates low-rate commodity sensors.\n"
            "    "
        ),
        cases=_fig16_cases,
        tabulate=_fig16_tabulate,
    ),
    ExperimentSpec(
        experiment="fig17",
        title="Fig. 17 — accuracy over sampling rate x channel count",
        headers=("rate (Hz)", "channels", "accuracy"),
        description=(
            "Accuracy over the sampling rate x channel count grid.\n"
            "\n"
            "    Paper: the system works across the whole grid, and more"
            " channels\n"
            "    damp the run-to-run variation of the model. The full grid"
            " flattens\n"
            "    into one task pool, so ``n_jobs`` workers stay busy across"
            " all\n"
            "    rate x channel combinations at once.\n"
            "    "
        ),
        cases=_fig17_cases,
        tabulate=_fig17_tabulate,
    ),
)

SPECS_BY_ID: Dict[str, ExperimentSpec] = {  # concurrency: immutable-after-init
    spec.experiment: spec for spec in SPECS
}


def run_experiment(
    spec: ExperimentSpec,
    scale: ExperimentScale = DEFAULT,
    *,
    n_jobs: Optional[int] = None,
) -> ExperimentResult:
    """Execute one experiment spec — the single generic runner.

    Sweep-style specs evaluate their case grid through the shared
    flattened case x victim pool; custom specs hand control to their
    body. Either way the result is assembled here, so every figure goes
    through identical machinery.
    """
    data = _study(scale, include_accel=spec.include_accel)
    if spec.custom is not None:
        rows, summary = spec.custom(data, scale, n_jobs)
    else:
        assert spec.cases is not None and spec.tabulate is not None
        cases = spec.cases(scale)
        per_case = _evaluate_cases(data, scale, cases, n_jobs=n_jobs)
        rows, summary = spec.tabulate(cases, per_case)
    return ExperimentResult(
        experiment=spec.experiment,
        title=spec.title,
        headers=spec.headers,
        rows=tuple(rows),
        summary=summary,
    )


def _make_runner(spec: ExperimentSpec) -> Callable[..., ExperimentResult]:
    """A named ``run_*`` wrapper for one spec (keeps the public API)."""

    def runner(
        scale: ExperimentScale = DEFAULT, *, n_jobs: Optional[int] = None
    ) -> ExperimentResult:
        return run_experiment(spec, scale, n_jobs=n_jobs)

    runner.__name__ = spec.name
    runner.__qualname__ = spec.name
    runner.__doc__ = spec.description
    return runner


#: Registry of all experiment runners, keyed by artifact id.
RUNNERS: Dict[str, Callable[..., ExperimentResult]] = {  # concurrency: immutable-after-init
    spec.experiment: _make_runner(spec) for spec in SPECS
}

run_fig8 = RUNNERS["fig8"]
run_fig9 = RUNNERS["fig9"]
run_fig10 = RUNNERS["fig10"]
run_fig11 = RUNNERS["fig11"]
run_fig12 = RUNNERS["fig12"]
run_table1 = RUNNERS["tab1"]
run_fig13a = RUNNERS["fig13a"]
run_fig13b = RUNNERS["fig13b"]
run_fig14 = RUNNERS["fig14"]
run_fig15 = RUNNERS["fig15"]
run_fig16 = RUNNERS["fig16"]
run_fig17 = RUNNERS["fig17"]


def run_all(
    scale: ExperimentScale = DEFAULT, *, n_jobs: Optional[int] = None
) -> List[ExperimentResult]:
    """Run every experiment and return the results in artifact order."""
    return [runner(scale, n_jobs=n_jobs) for runner in RUNNERS.values()]
