"""Robustness evaluation: the pipeline under injected faults.

The Section V protocol measures P2Auth on clean signals. This harness
asks the deployment question instead: *what happens when the input is
damaged?* It sweeps a grid of fault type × intensity × victim (faults
from :mod:`repro.faults`, applied to probe trials only — enrollment
stays clean, as registration happens under supervision), and reports
three numbers per cell:

- **FRR** — false rejection rate on the victim's own (faulted) entries,
  counting quality refusals as rejections: from the user's point of
  view a re-prompt is a failure to get in.
- **FAR** — false acceptance rate over random + emulating attacks under
  the same fault. The never-accept invariant demands this stays at the
  clean baseline or below: damage may cost usability, never security.
- **quality-rejection rate** — the fraction of all probes the
  degradation ladder refused to decide on (typed
  :class:`~repro.errors.QualityError` / other pipeline errors), as
  opposed to scoring and rejecting.

A *recovery* comparison runs one fault class under three policies —
no policy, gate-only, and the full ladder — to show the ladder turning
refusals/errors into decisions (ISSUE acceptance: a single dead channel
must recover to a decision, never to an acceptance of garbage).

Determinism: every probe's fault draws from
:func:`repro.faults.fault_rng` keyed on (sweep seed, fault, intensity,
probe kind, victim, index), so a parallel sweep (PR-1 process pool)
produces exactly the rows of a serial one. The sweep seed resolves
explicit value → ``REPRO_FAULT_SEED`` → 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..config import PAPER_PINS
from ..core import DegradationPolicy, EnrollmentOptions, NegativeBank, P2Auth
from ..core.models import SHAREABLE_FEATURE_METHODS
from ..data import StudyData, ThirdPartyStore, enroll_test_split
from ..errors import ConfigurationError, P2AuthError, QualityError
from ..faults import (
    FAULT_TYPES,
    SCENARIO_TYPES,
    FaultInjector,
    fault_rng,
    make_fault,
    make_scenario,
    resolve_fault_seed,
)
from ..types import PinEntryTrial
from .featurecache import default_cache, sharing_enabled
from .parallel import run_tasks

#: Default intensity grid of a full sweep.
DEFAULT_INTENSITIES: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)

#: CI smoke subset: two representative fault classes at the extremes.
SMOKE_FAULTS: Tuple[str, ...] = ("channel_dropout", "sample_dropout")
SMOKE_INTENSITIES: Tuple[float, ...] = (0.0, 1.0)

#: Policies compared by the recovery analysis.
RECOVERY_MODES: Tuple[str, ...] = ("none", "gate_only", "full")

#: Template-aging grid of a full scenario sweep, in days. Deliberately
#: offset from the 28-day re-enrollment period so ``periodic_reenroll``
#: is evaluated mid-cycle (a grid of multiples of the period would hand
#: it a freshly re-enrolled, age-0 template at every point).
DEFAULT_AGE_GRID: Tuple[float, ...] = (0.0, 30.0, 60.0, 120.0)

#: CI smoke subsets for the scenario sweep: one motion state, the
#: cross-device transfer, and the two age extremes.
SMOKE_SCENARIOS: Tuple[str, ...] = ("typing_while_walking", "cross_device")
SMOKE_AGE_GRID: Tuple[float, ...] = (0.0, 120.0)

#: Template-maintenance policies compared by the mitigation sweep.
MITIGATION_POLICIES: Tuple[str, ...] = (
    "frozen",
    "periodic_reenroll",
    "sliding_update",
)

#: ``periodic_reenroll`` refreshes the template every this many days.
REENROLL_PERIOD_DAYS: float = 28.0

#: ``sliding_update`` keeps the template this many days behind the user.
SLIDING_LAG_DAYS: float = 7.0


@dataclass(frozen=True)
class ProbeCounts:
    """Outcome tally over one set of probes.

    Attributes:
        accepted: probes the authenticator accepted.
        rejected: probes scored and rejected (a biometric decision).
        quality_refused: probes the ladder refused via
            :class:`~repro.errors.QualityError` (no decision made).
        errors: probes that raised any other typed pipeline error
            (still never an acceptance).
    """

    accepted: int = 0
    rejected: int = 0
    quality_refused: int = 0
    errors: int = 0

    @property
    def total(self) -> int:
        """Number of probes tallied."""
        return self.accepted + self.rejected + self.quality_refused + self.errors

    @property
    def decided(self) -> int:
        """Probes that reached a biometric decision (accept or reject)."""
        return self.accepted + self.rejected

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON reports."""
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "quality_refused": self.quality_refused,
            "errors": self.errors,
        }


class _CellRates:
    """Rate properties shared by every sweep cell (has legit/attack)."""

    legit: ProbeCounts
    attack: ProbeCounts

    @property
    def frr(self) -> float:
        """False rejection rate: legit probes that did not get in."""
        if self.legit.total == 0:
            return float("nan")
        return 1.0 - self.legit.accepted / self.legit.total

    @property
    def far(self) -> float:
        """False acceptance rate over the faulted attack probes."""
        if self.attack.total == 0:
            return float("nan")
        return self.attack.accepted / self.attack.total

    @property
    def quality_rejection_rate(self) -> float:
        """Fraction of all probes refused without a decision."""
        total = self.legit.total + self.attack.total
        if total == 0:
            return float("nan")
        refused = (
            self.legit.quality_refused
            + self.legit.errors
            + self.attack.quality_refused
            + self.attack.errors
        )
        return refused / total


@dataclass(frozen=True)
class RobustnessCell(_CellRates):
    """One grid cell: a fault at an intensity against one victim.

    Attributes:
        fault: fault name from :data:`repro.faults.FAULT_TYPES`.
        intensity: the fault's severity knob.
        victim_id: the enrolled victim probed.
        legit: outcomes over the victim's own faulted entries.
        attack: outcomes over faulted random + emulating attacks.
    """

    fault: str
    intensity: float
    victim_id: int
    legit: ProbeCounts
    attack: ProbeCounts


@dataclass(frozen=True)
class ScenarioCell(_CellRates):
    """One scenario-sweep cell: scenario × intensity × victim × age.

    Attributes:
        scenario: name from :data:`repro.faults.SCENARIO_TYPES`.
        intensity: the scenario's severity knob.
        victim_id: the enrolled victim probed.
        age_days: simulated days since enrollment day 0; probes (legit
            and attack) come from physiology drifted to this age.
        policy: template-maintenance policy
            (:data:`MITIGATION_POLICIES`) that sets the template's age.
        legit: outcomes over the victim's own scenario-transformed,
            aged entries.
        attack: outcomes over scenario-transformed, aged random +
            emulating attacks.
    """

    scenario: str
    intensity: float
    victim_id: int
    age_days: float
    policy: str
    legit: ProbeCounts
    attack: ProbeCounts


def _probe_transform(
    auth: P2Auth,
    trials: Sequence[PinEntryTrial],
    transform: FaultInjector,
    key_parts: Tuple[object, ...],
) -> ProbeCounts:
    """Transform and authenticate each trial, tallying the outcomes.

    The per-probe generator is keyed on ``(*key_parts, index)``, so any
    caller that fixes its key parts gets rows independent of execution
    order — the property the parallel sweeps rely on.
    """
    accepted = rejected = quality = errors = 0
    for index, trial in enumerate(trials):
        rng = fault_rng(*key_parts, index)
        faulted = transform.apply(trial, rng)
        try:
            decision = auth.authenticate(faulted)
        except QualityError:
            quality += 1
            continue
        except P2AuthError:
            errors += 1
            continue
        except (ValueError, FloatingPointError):
            # Without a degradation policy, NaN-poisoned input crashes
            # deep in scipy/numpy with untyped errors — the behaviour
            # the ladder exists to replace. Tally it as an error so the
            # recovery comparison can show the contrast.
            errors += 1
            continue
        if decision.accepted:
            accepted += 1
        else:
            rejected += 1
    return ProbeCounts(
        accepted=accepted,
        rejected=rejected,
        quality_refused=quality,
        errors=errors,
    )


def _probe(
    auth: P2Auth,
    trials: Sequence[PinEntryTrial],
    fault_name: str,
    intensity: float,
    kind: str,
    victim_id: int,
    seed: int,
) -> ProbeCounts:
    """Fault and authenticate each trial under the historical rng keys."""
    return _probe_transform(
        auth,
        trials,
        make_fault(fault_name, intensity),
        (seed, fault_name, intensity, kind, victim_id),
    )


def _enroll_victim(
    data: StudyData,
    victim_id: int,
    pin: str,
    attacker_ids: Sequence[int],
    enroll_n: int,
    test_n: int,
    third_party_n: int,
    num_features: int,
    policy: Optional[DegradationPolicy],
    template_age_days: float = 0.0,
    probe_age_days: float = 0.0,
) -> Tuple[P2Auth, List[PinEntryTrial]]:
    """Enroll one victim; return the auth and test set.

    Mirrors the clean-protocol split of
    :func:`repro.eval.protocol.evaluate_user` (one-handed enrollment,
    shared third-party negatives through the process-wide cache).
    Enrollment trials come from the victim's physiology aged
    ``template_age_days`` (0 = the clean enrollment-day data,
    bit-identical to the historical behaviour); the returned test set
    comes from the same trial indices aged ``probe_age_days``. The
    third-party negative store stays at age 0 — it is a population
    resource collected once, and keeping it fixed preserves the shared
    feature cache across ages.
    """
    attacker_ids = list(attacker_ids)
    if victim_id in attacker_ids:
        raise ConfigurationError("the victim cannot attack themselves")
    contributor_ids = [
        uid
        for uid in range(data.n_users)
        if uid != victim_id and uid not in attacker_ids
    ]
    if not contributor_ids:
        raise ConfigurationError("no users left to populate the third-party store")

    pool = data.aged_trials(
        victim_id, pin, "one_handed", enroll_n + test_n,
        age_days=template_age_days,
    )
    enroll_trials, _ = enroll_test_split(pool, enroll_n)
    probe_pool = data.aged_trials(
        victim_id, pin, "one_handed", enroll_n + test_n,
        age_days=probe_age_days,
    )
    _, test_trials = enroll_test_split(probe_pool, enroll_n)
    store = ThirdPartyStore(data, contributor_ids, pin, "one_handed")
    third_party = store.sample(third_party_n)

    options = EnrollmentOptions(num_features=num_features)
    auth = P2Auth(pin=pin, options=options, policy=policy)
    negatives: Union[List[PinEntryTrial], NegativeBank] = third_party
    if sharing_enabled(None) and options.feature_method in SHAREABLE_FEATURE_METHODS:
        negatives = default_cache().negative_bank(third_party, auth.config, options)
    auth.enroll(enroll_trials, negatives)
    return auth, list(test_trials)


def evaluate_robustness_cell(
    data: StudyData,
    fault_name: str,
    intensity: float,
    victim_id: int,
    pin: str = PAPER_PINS[0],
    *,
    attacker_ids: Sequence[int] = (),
    enroll_n: int = 9,
    test_n: int = 9,
    third_party_n: int = 100,
    ra_per_attacker: int = 5,
    ea_per_attacker: int = 5,
    num_features: int = 9996,
    seed: int = 0,
    policy: Optional[DegradationPolicy] = None,
) -> RobustnessCell:
    """Evaluate one grid cell.

    Enrollment is clean; the fault hits probe trials only. ``policy``
    defaults to the full degradation ladder (pass an explicit policy —
    or ``None`` via :func:`evaluate_recovery` — to change that).
    """
    if fault_name not in FAULT_TYPES:
        raise ConfigurationError(
            f"unknown fault {fault_name!r}; known: {sorted(FAULT_TYPES)}"
        )
    if policy is None:
        policy = DegradationPolicy()
    auth, test_trials = _enroll_victim(
        data, victim_id, pin, attacker_ids, enroll_n, test_n,
        third_party_n, num_features, policy,
    )

    legit = _probe(
        auth, test_trials, fault_name, intensity, "legit", victim_id, seed
    )

    attack_trials: List[PinEntryTrial] = []
    for attacker_id in attacker_ids:
        attack_trials.extend(
            data.random_attack_trials(
                attacker_id, ra_per_attacker, pin_pool=PAPER_PINS
            )
        )
        attack_trials.extend(
            data.emulating_trials(attacker_id, victim_id, pin, ea_per_attacker)
        )
    attack = _probe(
        auth, attack_trials, fault_name, intensity, "attack", victim_id, seed
    )

    return RobustnessCell(
        fault=fault_name,
        intensity=float(intensity),
        victim_id=victim_id,
        legit=legit,
        attack=attack,
    )


def run_robustness_sweep(
    data: StudyData,
    faults: Optional[Sequence[str]] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    victim_ids: Sequence[int] = (0,),
    *,
    n_jobs: Optional[int] = None,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> List[RobustnessCell]:
    """Sweep the fault × intensity × victim grid.

    Args:
        data: the study dataset.
        faults: fault names; defaults to every registered fault,
            alphabetically.
        intensities: the severity grid.
        victim_ids: victims evaluated per grid point.
        n_jobs: process-pool fan-out (see :mod:`repro.eval.parallel`);
            rows are identical to a serial run.
        seed: sweep fault seed; ``None`` resolves ``REPRO_FAULT_SEED``
            then 0.
        **kwargs: forwarded to :func:`evaluate_robustness_cell`.

    Returns:
        Cells in (victim, fault, intensity) order — victims outermost so
        a chunked pool keeps one victim's shared negatives on one worker.

    Every fault is a bit-exact no-op at intensity 0, so all of one
    victim's zero-intensity cells are the same clean evaluation; it is
    computed once per victim and replicated across faults (with only the
    ``fault`` label changed) instead of re-run per fault family. The
    returned rows are identical to the replicate-free sweep.
    """
    fault_names = (
        tuple(faults) if faults is not None else tuple(sorted(FAULT_TYPES))
    )
    resolved_seed = resolve_fault_seed(seed)
    # reprolint: disable-next=RL005 -- exact no-op grid coordinate
    zero = [i for i in intensities if i == 0.0]
    # reprolint: disable-next=RL005 -- exact no-op grid coordinate
    nonzero = [i for i in intensities if i != 0.0]
    share_baseline = bool(zero) and bool(fault_names)
    tasks = []
    for victim_id in victim_ids:
        if share_baseline:
            tasks.append(
                partial(
                    evaluate_robustness_cell, data, fault_names[0], 0.0,
                    victim_id, seed=resolved_seed, **kwargs,
                )
            )
        for fault_name in fault_names:
            for intensity in nonzero:
                tasks.append(
                    partial(
                        evaluate_robustness_cell, data, fault_name, intensity,
                        victim_id, seed=resolved_seed, **kwargs,
                    )
                )
    per_victim = max(
        1, (1 if share_baseline else 0) + len(fault_names) * len(nonzero)
    )
    results = run_tasks(tasks, n_jobs=n_jobs, chunksize=per_victim)

    cells: List[RobustnessCell] = []
    cursor = iter(results)
    for _ in victim_ids:
        baseline = next(cursor) if share_baseline else None
        by_fault = {
            fault_name: [next(cursor) for _ in nonzero]
            for fault_name in fault_names
        }
        for fault_name in fault_names:
            faulted = iter(by_fault[fault_name])
            for intensity in intensities:
                # reprolint: disable-next=RL005 -- exact no-op grid coordinate
                if intensity == 0.0:
                    assert baseline is not None
                    cells.append(
                        dataclasses.replace(baseline, fault=fault_name)
                    )
                else:
                    cells.append(next(faulted))
    return cells


def template_age(policy: str, age_days: float) -> float:
    """The age of the enrolled template under a maintenance policy.

    At calendar age ``age_days`` the user's physiology has drifted by
    :func:`repro.physio.drift_magnitude`; the template was built from
    physiology of this returned age. ``frozen`` never updates (the
    template stays at enrollment day 0); ``periodic_reenroll``
    re-enrolls every :data:`REENROLL_PERIOD_DAYS` days (template age =
    the last multiple of the period); ``sliding_update`` folds recent
    accepted entries into the template, keeping it
    :data:`SLIDING_LAG_DAYS` days behind the user.
    """
    if age_days < 0:
        raise ConfigurationError(f"age_days must be >= 0, got {age_days}")
    if policy == "frozen":
        return 0.0
    if policy == "periodic_reenroll":
        return math.floor(age_days / REENROLL_PERIOD_DAYS) * REENROLL_PERIOD_DAYS
    if policy == "sliding_update":
        return max(0.0, age_days - SLIDING_LAG_DAYS)
    raise ConfigurationError(
        f"unknown mitigation policy {policy!r}; "
        f"known: {list(MITIGATION_POLICIES)}"
    )


def evaluate_scenario_cell(
    data: StudyData,
    scenario_name: str,
    intensity: float,
    victim_id: int,
    pin: str = PAPER_PINS[0],
    *,
    age_days: float = 0.0,
    policy: str = "frozen",
    attacker_ids: Sequence[int] = (),
    enroll_n: int = 9,
    test_n: int = 9,
    third_party_n: int = 100,
    ra_per_attacker: int = 5,
    ea_per_attacker: int = 5,
    num_features: int = 9996,
    seed: int = 0,
    degradation: Optional[DegradationPolicy] = None,
) -> ScenarioCell:
    """Evaluate one scenario-sweep cell.

    The victim enrolls on physiology aged :func:`template_age` (per the
    maintenance ``policy``); every probe — the victim's own entries and
    the attacks — comes from physiology aged ``age_days`` and passes
    through the scenario transform at ``intensity``. At ``age_days=0``
    with the default ``frozen`` policy and intensity 0 this is exactly
    the clean robustness evaluation.
    """
    if scenario_name not in SCENARIO_TYPES:
        raise ConfigurationError(
            f"unknown scenario {scenario_name!r}; "
            f"known: {sorted(SCENARIO_TYPES)}"
        )
    if degradation is None:
        degradation = DegradationPolicy()
    auth, test_trials = _enroll_victim(
        data, victim_id, pin, attacker_ids, enroll_n, test_n,
        third_party_n, num_features, degradation,
        template_age_days=template_age(policy, age_days),
        probe_age_days=age_days,
    )

    scenario = make_scenario(scenario_name, intensity)
    legit = _probe_transform(
        auth, test_trials, scenario,
        (seed, "scenario", scenario_name, intensity, "legit", victim_id,
         age_days),
    )

    attack_trials: List[PinEntryTrial] = []
    for attacker_id in attacker_ids:
        attack_trials.extend(
            data.random_attack_trials(
                attacker_id, ra_per_attacker, pin_pool=PAPER_PINS,
                age_days=age_days,
            )
        )
        attack_trials.extend(
            data.emulating_trials(
                attacker_id, victim_id, pin, ea_per_attacker,
                age_days=age_days,
            )
        )
    attack = _probe_transform(
        auth, attack_trials, scenario,
        (seed, "scenario", scenario_name, intensity, "attack", victim_id,
         age_days),
    )

    return ScenarioCell(
        scenario=scenario_name,
        intensity=float(intensity),
        victim_id=victim_id,
        age_days=float(age_days),
        policy=policy,
        legit=legit,
        attack=attack,
    )


def run_scenario_sweep(
    data: StudyData,
    scenarios: Optional[Sequence[str]] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    victim_ids: Sequence[int] = (0,),
    age_grid: Sequence[float] = (0.0,),
    *,
    policy: str = "frozen",
    n_jobs: Optional[int] = None,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> List[ScenarioCell]:
    """Sweep the scenario × intensity × victim × age grid.

    Args:
        data: the study dataset.
        scenarios: scenario names; defaults to every registered
            scenario, alphabetically.
        intensities: the severity grid.
        victim_ids: victims evaluated per grid point.
        age_grid: template/probe ages in days (see
            :func:`evaluate_scenario_cell`).
        policy: template-maintenance policy applied to every cell.
        n_jobs: process-pool fan-out; rows are identical to a serial
            run.
        seed: sweep fault seed; ``None`` resolves ``REPRO_FAULT_SEED``
            then 0.
        **kwargs: forwarded to :func:`evaluate_scenario_cell`.

    Returns:
        Cells in (victim, age, scenario, intensity) order — victims
        outermost so a chunked pool keeps one victim's shared negatives
        on one worker.

    Like :func:`run_robustness_sweep`, the zero-intensity cell is the
    same clean evaluation for every scenario at a given (victim, age)
    and is computed once there, then replicated across scenarios with
    only the label changed.
    """
    scenario_names = (
        tuple(scenarios) if scenarios is not None
        else tuple(sorted(SCENARIO_TYPES))
    )
    resolved_seed = resolve_fault_seed(seed)
    # reprolint: disable-next=RL005 -- exact no-op grid coordinate
    has_zero = any(i == 0.0 for i in intensities)
    # reprolint: disable-next=RL005 -- exact no-op grid coordinate
    nonzero = [i for i in intensities if i != 0.0]
    share_baseline = has_zero and bool(scenario_names)
    tasks = []
    for victim_id in victim_ids:
        for age in age_grid:
            if share_baseline:
                tasks.append(
                    partial(
                        evaluate_scenario_cell, data, scenario_names[0], 0.0,
                        victim_id, age_days=age, policy=policy,
                        seed=resolved_seed, **kwargs,
                    )
                )
            for scenario_name in scenario_names:
                for intensity in nonzero:
                    tasks.append(
                        partial(
                            evaluate_scenario_cell, data, scenario_name,
                            intensity, victim_id, age_days=age, policy=policy,
                            seed=resolved_seed, **kwargs,
                        )
                    )
    per_victim = max(
        1,
        len(age_grid)
        * ((1 if share_baseline else 0) + len(scenario_names) * len(nonzero)),
    )
    results = run_tasks(tasks, n_jobs=n_jobs, chunksize=per_victim)

    cells: List[ScenarioCell] = []
    cursor = iter(results)
    for _ in victim_ids:
        for _ in age_grid:
            baseline = next(cursor) if share_baseline else None
            by_scenario = {
                name: [next(cursor) for _ in nonzero]
                for name in scenario_names
            }
            for name in scenario_names:
                transformed = iter(by_scenario[name])
                for intensity in intensities:
                    # reprolint: disable-next=RL005 -- exact no-op grid coordinate
                    if intensity == 0.0:
                        assert baseline is not None
                        cells.append(
                            dataclasses.replace(baseline, scenario=name)
                        )
                    else:
                        cells.append(next(transformed))
    return cells


def run_mitigation_sweep(
    data: StudyData,
    policies: Sequence[str] = MITIGATION_POLICIES,
    age_grid: Sequence[float] = DEFAULT_AGE_GRID,
    victim_ids: Sequence[int] = (0,),
    *,
    scenario: str = "resting",
    intensity: float = 0.0,
    n_jobs: Optional[int] = None,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> List[ScenarioCell]:
    """Sweep template-maintenance policies over the aging grid.

    Isolates aging from wear conditions: by default probes pass through
    a scenario at intensity 0 (a bit-exact no-op), so the FRR-vs-age and
    FAR-vs-age curves per policy measure template staleness alone.

    Returns:
        Cells in (victim, policy, age) order.
    """
    resolved_seed = resolve_fault_seed(seed)
    tasks = [
        partial(
            evaluate_scenario_cell, data, scenario, intensity, victim_id,
            age_days=age, policy=policy, seed=resolved_seed, **kwargs,
        )
        for victim_id in victim_ids
        for policy in policies
        for age in age_grid
    ]
    per_victim = max(1, len(policies) * len(age_grid))
    return run_tasks(tasks, n_jobs=n_jobs, chunksize=per_victim)


def _recovery_policy(mode: str) -> Optional[DegradationPolicy]:
    """The degradation policy behind a recovery-comparison mode."""
    if mode == "none":
        return None
    if mode == "gate_only":
        return DegradationPolicy(repair_gaps=False, channel_fallback=False)
    if mode == "full":
        return DegradationPolicy()
    raise ConfigurationError(
        f"unknown recovery mode {mode!r}; known: {list(RECOVERY_MODES)}"
    )


def evaluate_recovery(
    data: StudyData,
    fault_name: str = "channel_dropout",
    intensity: float = 1.0,
    victim_id: int = 0,
    pin: str = PAPER_PINS[0],
    *,
    enroll_n: int = 9,
    test_n: int = 9,
    third_party_n: int = 100,
    num_features: int = 9996,
    seed: int = 0,
) -> Dict[str, Dict[str, int]]:
    """Compare the degradation ladder against weaker policies.

    Runs the victim's own entries under one fault through three
    authenticators — no policy, quality gate only, and the full ladder —
    and tallies outcomes per mode. The acceptance claim: the full
    ladder converts refusals/errors into *decisions* (and recovers
    genuine acceptances) without ever accepting what the weaker modes
    refused as corrupt.
    """
    out: Dict[str, Dict[str, int]] = {}
    for mode in RECOVERY_MODES:
        auth, test_trials = _enroll_victim(
            data, victim_id, pin, (), enroll_n, test_n,
            third_party_n, num_features, _recovery_policy(mode),
        )
        counts = _probe(
            auth, test_trials, fault_name, intensity, "legit", victim_id, seed
        )
        out[mode] = counts.as_dict()
    return out


def _pooled(counts: Sequence[ProbeCounts]) -> ProbeCounts:
    """Sum outcome tallies across victims."""
    return ProbeCounts(
        accepted=sum(c.accepted for c in counts),
        rejected=sum(c.rejected for c in counts),
        quality_refused=sum(c.quality_refused for c in counts),
        errors=sum(c.errors for c in counts),
    )


def _aggregate(
    cells: Sequence[RobustnessCell],
) -> List[Dict[str, Any]]:
    """Collapse per-victim cells into per-(fault, intensity) rows."""
    grouped: Dict[Tuple[str, float], List[RobustnessCell]] = {}
    for cell in cells:
        grouped.setdefault((cell.fault, cell.intensity), []).append(cell)
    rows: List[Dict[str, Any]] = []
    for (fault, intensity) in sorted(grouped):
        members = grouped[(fault, intensity)]
        legit = _pooled([c.legit for c in members])
        attack = _pooled([c.attack for c in members])
        pooled = RobustnessCell(
            fault=fault, intensity=intensity, victim_id=-1,
            legit=legit, attack=attack,
        )
        rows.append(
            {
                "fault": fault,
                "intensity": intensity,
                "frr": round(pooled.frr, 4),
                "far": round(pooled.far, 4),
                "quality_rejection_rate": round(
                    pooled.quality_rejection_rate, 4
                ),
                "legit": legit.as_dict(),
                "attack": attack.as_dict(),
                "n_victims": len(members),
            }
        )
    return rows


def build_report(
    cells: Sequence[RobustnessCell],
    recovery: Optional[Mapping[str, Mapping[str, int]]] = None,
    *,
    seed: int = 0,
    label: str = "default",
) -> Dict[str, Any]:
    """Assemble the JSON-serialisable robustness report.

    Deliberately timestamp-free: regenerating with the same seed and
    grid produces a byte-identical ``ROBUSTNESS.json``.
    """
    rows = _aggregate(cells)
    # The security invariant is relative, not absolute: emulating
    # attackers occasionally beat the clean biometric (the paper's TRR
    # is below 100%), so the clean intensity-0 column sets each fault's
    # FAR baseline — damage may never push FAR above it.
    baselines: Dict[str, float] = {
        r["fault"]: r["far"]
        for r in rows
        # reprolint: disable-next=RL005 -- exact no-op grid coordinate
        if r["intensity"] == 0.0
    }
    excess = [
        r["far"] - baselines[r["fault"]]
        for r in rows
        if r["fault"] in baselines
    ]
    report: Dict[str, Any] = {
        "meta": {
            "label": label,
            "seed": seed,
            "faults": sorted({c.fault for c in cells}),
            "intensities": sorted({c.intensity for c in cells}),
            "victims": sorted({c.victim_id for c in cells}),
        },
        "grid": rows,
        "invariants": {
            "max_far": max((r["far"] for r in rows), default=float("nan")),
            "baseline_far": baselines,
            "max_excess_far": round(max(excess), 4) if excess else None,
            "faults_never_increase_far": (
                all(e <= 0 for e in excess) if excess else None
            ),
        },
    }
    if recovery is not None:
        report["recovery"] = {
            "fault": "channel_dropout",
            "intensity": 1.0,
            "modes": {mode: dict(counts) for mode, counts in recovery.items()},
        }
    return report


def render_markdown(report: Mapping[str, Any]) -> str:
    """Render a report as the committed ``ROBUSTNESS.md`` table."""
    lines = [
        "# Robustness sweep",
        "",
        f"Label: `{report['meta']['label']}`, fault seed "
        f"{report['meta']['seed']}. Enrollment is clean; faults hit probe "
        "trials only. FRR counts quality refusals as rejections; the "
        "quality-rejection rate is the fraction of all probes refused "
        "without a biometric decision.",
        "",
        "| fault | intensity | FRR | FAR | quality-rejection rate |",
        "|---|---|---|---|---|",
    ]
    for row in report["grid"]:
        lines.append(
            f"| {row['fault']} | {row['intensity']:.2f} | "
            f"{row['frr']:.3f} | {row['far']:.3f} | "
            f"{row['quality_rejection_rate']:.3f} |"
        )
    recovery = report.get("recovery")
    if recovery:
        lines.extend(
            [
                "",
                "## Degradation-ladder recovery",
                "",
                f"Fault `{recovery['fault']}` at intensity "
                f"{recovery['intensity']:.2f}, victim's own entries, by "
                "policy:",
                "",
                "| policy | accepted | rejected | quality refused | errors |",
                "|---|---|---|---|---|",
            ]
        )
        for mode in RECOVERY_MODES:
            counts = recovery["modes"].get(mode)
            if counts is None:
                continue
            lines.append(
                f"| {mode} | {counts['accepted']} | {counts['rejected']} | "
                f"{counts['quality_refused']} | {counts['errors']} |"
            )
    never = report["invariants"]["faults_never_increase_far"]
    if never is None:
        verdict = "not checkable (no intensity-0 baseline in the grid)"
    elif never:
        verdict = "**holds** — no fault raised FAR above its clean baseline"
    else:
        verdict = "**VIOLATED**"
    lines.extend(
        [
            "",
            f"Security invariant: {verdict} "
            f"(max FAR {report['invariants']['max_far']:.3f}, max excess "
            f"over baseline "
            + (
                f"{report['invariants']['max_excess_far']:+.3f}"
                if report["invariants"]["max_excess_far"] is not None
                else "n/a"
            )
            + ").",
            "",
        ]
    )
    return "\n".join(lines)


def _aggregate_scenarios(
    cells: Sequence[ScenarioCell],
) -> List[Dict[str, Any]]:
    """Collapse per-victim cells into (scenario, age, intensity) rows."""
    grouped: Dict[Tuple[str, float, float], List[ScenarioCell]] = {}
    for cell in cells:
        key = (cell.scenario, cell.age_days, cell.intensity)
        grouped.setdefault(key, []).append(cell)
    rows: List[Dict[str, Any]] = []
    for (scenario, age_days, intensity) in sorted(grouped):
        members = grouped[(scenario, age_days, intensity)]
        legit = _pooled([c.legit for c in members])
        attack = _pooled([c.attack for c in members])
        pooled = ScenarioCell(
            scenario=scenario, intensity=intensity, victim_id=-1,
            age_days=age_days, policy=members[0].policy,
            legit=legit, attack=attack,
        )
        rows.append(
            {
                "scenario": scenario,
                "age_days": age_days,
                "intensity": intensity,
                "frr": round(pooled.frr, 4),
                "far": round(pooled.far, 4),
                "quality_rejection_rate": round(
                    pooled.quality_rejection_rate, 4
                ),
                "legit": legit.as_dict(),
                "attack": attack.as_dict(),
                "n_victims": len(members),
            }
        )
    return rows


def _mitigation_curves(
    cells: Sequence[ScenarioCell],
) -> Dict[str, List[Dict[str, Any]]]:
    """Pool mitigation cells into per-policy FRR/FAR-vs-age curves."""
    grouped: Dict[Tuple[str, float], List[ScenarioCell]] = {}
    for cell in cells:
        grouped.setdefault((cell.policy, cell.age_days), []).append(cell)
    curves: Dict[str, List[Dict[str, Any]]] = {}
    for (policy, age_days) in sorted(grouped):
        members = grouped[(policy, age_days)]
        pooled = ScenarioCell(
            scenario=members[0].scenario, intensity=members[0].intensity,
            victim_id=-1, age_days=age_days, policy=policy,
            legit=_pooled([c.legit for c in members]),
            attack=_pooled([c.attack for c in members]),
        )
        curves.setdefault(policy, []).append(
            {
                "age_days": age_days,
                "template_age_days": template_age(policy, age_days),
                "frr": round(pooled.frr, 4),
                "far": round(pooled.far, 4),
                "quality_rejection_rate": round(
                    pooled.quality_rejection_rate, 4
                ),
                "n_victims": len(members),
            }
        )
    return curves


def build_scenario_report(
    cells: Sequence[ScenarioCell],
    mitigation: Sequence[ScenarioCell] = (),
    *,
    seed: int = 0,
    label: str = "default",
) -> Dict[str, Any]:
    """Assemble the JSON-serialisable ``SCENARIOS.json`` report.

    Two CI-checked invariants:

    - ``scenario_far_within_baseline`` — no scenario pushes FAR above
      its own intensity-0 baseline: wear conditions may cost usability,
      never security. Checked at scenario level, with attack outcomes
      pooled over ages and victims: pooling keeps the check above the
      single-probe resolution at which a perturbation can flip one
      near-boundary attack either way, while still isolating the
      scenario's effect (the baseline ages identically).
    - ``update_policy_beats_frozen_at_max_age`` — at the oldest
      simulated age of the mitigation sweep, at least one template
      update policy has strictly lower FRR than ``frozen``: the
      mitigation is worth its complexity.

    Deliberately timestamp-free: regenerating with the same seed and
    grids produces a byte-identical report.
    """
    rows = _aggregate_scenarios(cells)
    by_scenario: Dict[Tuple[str, float], List[ScenarioCell]] = {}
    for cell in cells:
        by_scenario.setdefault((cell.scenario, cell.intensity), []).append(
            cell
        )
    pooled_far: Dict[Tuple[str, float], float] = {}
    for key, members in by_scenario.items():
        attack = _pooled([c.attack for c in members])
        pooled_far[key] = (
            attack.accepted / attack.total if attack.total else float("nan")
        )
    baselines: Dict[str, float] = {
        scenario: far
        for (scenario, intensity), far in pooled_far.items()
        # reprolint: disable-next=RL005 -- exact no-op grid coordinate
        if intensity == 0.0
    }
    excess = [
        far - baselines[scenario]
        for (scenario, _), far in sorted(pooled_far.items())
        if scenario in baselines
    ]

    curves = _mitigation_curves(mitigation)
    frozen_frr: Optional[float] = None
    best_update_frr: Optional[float] = None
    best_update_policy: Optional[str] = None
    max_age: Optional[float] = None
    if mitigation:
        max_age = max(c.age_days for c in mitigation)
        for policy, points in curves.items():
            at_max = [p for p in points if p["age_days"] == max_age]
            if not at_max:
                continue
            frr = at_max[-1]["frr"]
            if policy == "frozen":
                frozen_frr = frr
            elif best_update_frr is None or frr < best_update_frr:
                best_update_frr = frr
                best_update_policy = policy
    beats = (
        best_update_frr < frozen_frr
        if frozen_frr is not None and best_update_frr is not None
        else None
    )

    report: Dict[str, Any] = {
        "meta": {
            "label": label,
            "seed": seed,
            "scenarios": sorted({c.scenario for c in cells}),
            "intensities": sorted({c.intensity for c in cells}),
            "age_grid": sorted({c.age_days for c in cells}),
            "victims": sorted({c.victim_id for c in cells}),
            "policies": sorted({c.policy for c in mitigation}),
            "reenroll_period_days": REENROLL_PERIOD_DAYS,
            "sliding_lag_days": SLIDING_LAG_DAYS,
        },
        "scenario_grid": rows,
        "mitigation": {
            "age_grid": sorted({c.age_days for c in mitigation}),
            "curves": curves,
        },
        "invariants": {
            "max_far": max((r["far"] for r in rows), default=float("nan")),
            "baseline_far": {
                scenario: round(far, 4)
                for scenario, far in sorted(baselines.items())
            },
            "max_excess_far": round(max(excess), 4) if excess else None,
            "scenario_far_within_baseline": (
                all(e <= 1e-12 for e in excess) if excess else None
            ),
            "max_age_days": max_age,
            "frozen_frr_at_max_age": frozen_frr,
            "best_update_frr_at_max_age": best_update_frr,
            "best_update_policy": best_update_policy,
            "update_policy_beats_frozen_at_max_age": beats,
        },
    }
    return report


def render_scenario_markdown(report: Mapping[str, Any]) -> str:
    """Render a scenario report as the committed ``SCENARIOS.md``."""
    lines = [
        "# Scenario robustness sweep",
        "",
        f"Label: `{report['meta']['label']}`, fault seed "
        f"{report['meta']['seed']}. Probes (legitimate and attack) come "
        "from physiology aged to the row's day and pass through the "
        "scenario transform; the enrolled template stays at age 0 "
        "(frozen policy). FRR counts quality refusals as rejections.",
        "",
        "| scenario | age (days) | intensity | FRR | FAR | "
        "quality-rejection rate |",
        "|---|---|---|---|---|---|",
    ]
    for row in report["scenario_grid"]:
        lines.append(
            f"| {row['scenario']} | {row['age_days']:.0f} | "
            f"{row['intensity']:.2f} | {row['frr']:.3f} | "
            f"{row['far']:.3f} | {row['quality_rejection_rate']:.3f} |"
        )
    curves = report["mitigation"]["curves"]
    if curves:
        lines.extend(
            [
                "",
                "## Template maintenance vs aging",
                "",
                "Clean probes (scenario intensity 0) against a template "
                f"maintained per policy: `periodic_reenroll` refreshes "
                f"every {report['meta']['reenroll_period_days']:.0f} days, "
                f"`sliding_update` keeps the template "
                f"{report['meta']['sliding_lag_days']:.0f} days behind the "
                "user.",
                "",
                "| policy | age (days) | template age | FRR | FAR | "
                "quality-rejection rate |",
                "|---|---|---|---|---|---|",
            ]
        )
        for policy in sorted(curves):
            for point in curves[policy]:
                lines.append(
                    f"| {policy} | {point['age_days']:.0f} | "
                    f"{point['template_age_days']:.0f} | "
                    f"{point['frr']:.3f} | {point['far']:.3f} | "
                    f"{point['quality_rejection_rate']:.3f} |"
                )
    inv = report["invariants"]
    within = inv["scenario_far_within_baseline"]
    if within is None:
        security = "not checkable (no intensity-0 baseline in the grid)"
    elif within:
        security = (
            "**holds** — no scenario raised FAR (pooled over ages and "
            "victims) above its intensity-0 baseline"
        )
    else:
        security = "**VIOLATED**"
    beats = inv["update_policy_beats_frozen_at_max_age"]
    if beats is None:
        usability = "not checkable (no mitigation sweep)"
    elif beats:
        usability = (
            f"**holds** — `{inv['best_update_policy']}` reaches FRR "
            f"{inv['best_update_frr_at_max_age']:.3f} vs frozen "
            f"{inv['frozen_frr_at_max_age']:.3f} at day "
            f"{inv['max_age_days']:.0f}"
        )
    else:
        usability = "**VIOLATED**"
    lines.extend(
        [
            "",
            f"Security invariant: {security}.",
            "",
            f"Mitigation invariant: {usability}.",
            "",
        ]
    )
    return "\n".join(lines)
