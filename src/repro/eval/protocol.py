"""The Section V evaluation protocol.

``evaluate_user`` enrolls one victim and measures the three headline
numbers against them: authentication accuracy over held-out legitimate
entries, true rejection rate under random attacks, and true rejection
rate under emulating attacks. ``evaluate_condition`` repeats that over
a set of victims and aggregates.

Every experiment in :mod:`repro.eval.experiments` is a thin wrapper
around these two functions with different knobs — input condition,
privacy boost, feature method, classifier, channel subset (via
``transform``), sampling rate, and third-party store size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import PAPER_PINS, PipelineConfig
from ..core import EnrollmentOptions, NegativeBank, P2Auth
from ..core.models import SHAREABLE_FEATURE_METHODS
from ..data import StudyData, ThirdPartyStore, enroll_test_split
from ..errors import ConfigurationError
from ..ml import RidgeClassifier
from ..types import PinEntryTrial
from .featurecache import default_cache, sharing_enabled
from .parallel import run_tasks

#: PIN used to enroll NO-PIN users: one pass over every key gives the
#: per-key models full coverage.
NO_PIN_ENROLL_SEQUENCE = "1234567890"

TrialTransform = Callable[[PinEntryTrial], PinEntryTrial]


@dataclass(frozen=True)
class UserEvaluation:
    """Per-victim evaluation outcome.

    Attributes:
        user_id: the enrolled victim.
        accuracy: legitimate-entry acceptance rate.
        trr_random: true rejection rate under random attacks.
        trr_emulating: true rejection rate under emulating attacks.
        n_test: legitimate test entries evaluated.
        n_random: random-attack entries evaluated.
        n_emulating: emulating-attack entries evaluated.
    """

    user_id: int
    accuracy: float
    trr_random: float
    trr_emulating: float
    n_test: int
    n_random: int
    n_emulating: int


@dataclass(frozen=True)
class ConditionResult:
    """Aggregate over victims for one experimental condition."""

    per_user: Tuple[UserEvaluation, ...]

    @property
    def accuracy(self) -> float:
        """Mean authentication accuracy across victims."""
        return float(np.mean([u.accuracy for u in self.per_user]))

    @property
    def trr_random(self) -> float:
        """Mean random-attack TRR across victims."""
        return float(np.mean([u.trr_random for u in self.per_user]))

    @property
    def trr_emulating(self) -> float:
        """Mean emulating-attack TRR across victims."""
        return float(np.mean([u.trr_emulating for u in self.per_user]))


def _apply(
    transform: Optional[TrialTransform], trials: Sequence[PinEntryTrial]
) -> List[PinEntryTrial]:
    if transform is None:
        return list(trials)
    return [transform(t) for t in trials]


def evaluate_user(
    data: StudyData,
    victim_id: int,
    pin: str = PAPER_PINS[0],
    *,
    condition: str = "one_handed",
    privacy_boost: bool = False,
    no_pin: bool = False,
    enroll_n: int = 9,
    test_n: int = 9,
    third_party_n: int = 100,
    attacker_ids: Sequence[int] = (),
    ra_per_attacker: int = 5,
    ea_per_attacker: int = 5,
    feature_method: str = "rocket",
    classifier_factory: Callable = RidgeClassifier,
    num_features: int = 9996,
    transform: Optional[TrialTransform] = None,
    pipeline_config: Optional[PipelineConfig] = None,
    ra_pin_pool: Optional[Tuple[str, ...]] = PAPER_PINS,
    share_negatives: Optional[bool] = None,
) -> UserEvaluation:
    """Enroll ``victim_id`` and evaluate accuracy and attack rejection.

    Args:
        data: the study dataset.
        victim_id: the user to enroll.
        pin: the victim's PIN (ignored in NO-PIN mode).
        condition: input condition tested ("one_handed", "double3",
            "double2"); enrollment always uses one-handed entries, as
            the registration prompt does in the paper.
        privacy_boost: enable waveform fusion for one-handed entries.
        no_pin: NO-PIN mode — enrollment covers every key once per
            entry and probes are random sequences.
        enroll_n: legitimate enrollment entries (paper caps at 9).
        test_n: held-out legitimate entries.
        third_party_n: negatives drawn from the third-party store.
        attacker_ids: users acting as attackers; they are excluded from
            the store so the models never see them.
        ra_per_attacker / ea_per_attacker: attack entries per attacker.
        feature_method / classifier_factory / num_features: model
            configuration forwarded to enrollment.
        transform: applied to every trial before use (channel subset,
            decimation, ...).
        pipeline_config: override pipeline constants (needed together
            with decimating transforms).
        ra_pin_pool: PIN pool random attackers guess from; ``None``
            draws uniform random digit strings instead.
        share_negatives: build the third-party negatives once per store
            content through the process-wide feature cache (see
            :mod:`repro.eval.featurecache`) instead of re-preprocessing
            and re-featurizing them for every victim. ``None`` (the
            default) resolves via the ``REPRO_SHARE_NEGATIVES``
            environment switch, which defaults to on. Only engages for
            feature methods whose extractor can be fitted on the
            negatives alone ("rocket", "raw"); "manual" always takes
            the unshared path.

    Returns:
        The victim's :class:`UserEvaluation`.
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

    enroll_pin = NO_PIN_ENROLL_SEQUENCE if no_pin else pin
    enroll_condition = "one_handed"

    legit_pool = data.trials(
        victim_id, enroll_pin, enroll_condition, enroll_n + (0 if no_pin else test_n)
    )
    if no_pin:
        enroll_trials = legit_pool[:enroll_n]
        test_trials = data.trials(victim_id, pin, "random", test_n)
    else:
        enroll_trials, test_trials = enroll_test_split(legit_pool, enroll_n)
        if condition != "one_handed":
            test_trials = data.trials(victim_id, pin, condition, test_n)

    store = ThirdPartyStore(data, contributor_ids, enroll_pin, enroll_condition)
    third_party = store.sample(third_party_n)

    options = EnrollmentOptions(
        privacy_boost=privacy_boost,
        num_features=num_features,
        feature_method=feature_method,
        classifier_factory=classifier_factory,
    )
    auth = P2Auth(
        pin=None if no_pin else pin,
        pipeline_config=pipeline_config,
        options=options,
    )
    transformed_third = _apply(transform, third_party)
    negatives: Union[List[PinEntryTrial], NegativeBank] = transformed_third
    if (
        sharing_enabled(share_negatives)
        and feature_method in SHAREABLE_FEATURE_METHODS
    ):
        negatives = default_cache().negative_bank(
            transformed_third, auth.config, options
        )
    auth.enroll(_apply(transform, enroll_trials), negatives)

    accepted = [
        auth.authenticate(t).accepted for t in _apply(transform, test_trials)
    ]
    accuracy = float(np.mean(accepted)) if accepted else float("nan")

    ra_decisions: List[bool] = []
    ea_decisions: List[bool] = []
    for attacker_id in attacker_ids:
        ra_trials = data.random_attack_trials(
            attacker_id, ra_per_attacker, pin_pool=ra_pin_pool
        )
        ra_decisions.extend(
            auth.authenticate(t).accepted for t in _apply(transform, ra_trials)
        )
        ea_trials = data.emulating_trials(
            attacker_id,
            victim_id,
            None if no_pin else pin,
            ea_per_attacker,
            condition=condition if not no_pin else "one_handed",
        )
        ea_decisions.extend(
            auth.authenticate(t).accepted for t in _apply(transform, ea_trials)
        )

    trr_random = (
        float(np.mean([not d for d in ra_decisions])) if ra_decisions else float("nan")
    )
    trr_emulating = (
        float(np.mean([not d for d in ea_decisions])) if ea_decisions else float("nan")
    )

    return UserEvaluation(
        user_id=victim_id,
        accuracy=accuracy,
        trr_random=trr_random,
        trr_emulating=trr_emulating,
        n_test=len(accepted),
        n_random=len(ra_decisions),
        n_emulating=len(ea_decisions),
    )


def evaluate_condition(
    data: StudyData,
    victim_ids: Sequence[int],
    attacker_ids: Sequence[int],
    pin: str = PAPER_PINS[0],
    n_jobs: Optional[int] = None,
    **kwargs: Any,
) -> ConditionResult:
    """Evaluate one condition over several victims and aggregate.

    All keyword arguments of :func:`evaluate_user` are forwarded.
    ``n_jobs`` fans the per-victim evaluations out over a process pool
    (see :mod:`repro.eval.parallel`); results are identical to a
    serial run.
    """
    victim_ids = list(victim_ids)
    if not victim_ids:
        raise ConfigurationError("need at least one victim")
    tasks = [
        partial(
            evaluate_user, data, victim_id, pin, attacker_ids=attacker_ids,
            **kwargs,
        )
        for victim_id in victim_ids
    ]
    return ConditionResult(per_user=tuple(run_tasks(tasks, n_jobs=n_jobs)))
