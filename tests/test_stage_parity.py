"""Parity contract of the authentication engine against the monolith.

The layered refactor (``repro.core.stages`` / ``registry`` / the split
enrollment package) is only allowed to *reorganize* the code — not to
change a single bit of its behavior. This suite pins that contract:

- an inline copy of the pre-refactor monolithic authentication body is
  compared field-for-field (``rtol=0``/``atol=0``) against the staged
  engine (``repro.core.stages.AuthPipeline``) on legitimate,
  attacker, privacy-boost, two-handed, and wrong-PIN probes;
- ``P2Auth.authenticate``, which serves every decision through that
  engine, must equal the monolith on the same probes (preprocessed
  by ``preprocess_trial``), and raise the same errors;
- a registry-enrolled user must score identically to a directly
  constructed ``P2Auth``;
- a table-driven experiment sweep row must equal the hand-rolled
  pre-refactor row construction;
- regenerated robustness grid rows must match the committed
  ``ROBUSTNESS.json``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import PAPER_PINS
from repro.core import (
    AuthDecision,
    EnrollmentOptions,
    ModelRegistry,
    P2Auth,
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
    identify_input_case,
    preprocess_trial,
)
from repro.core.stages import AuthPipeline
from repro.data import StudyData, ThirdPartyStore
from repro.errors import AuthenticationError
from repro.types import InputCase

REPO_ROOT = Path(__file__).resolve().parents[1]
PIN = PAPER_PINS[0]
FEATURES = 840


# ---------------------------------------------------------------------------
# The pre-refactor reference implementation, copied verbatim from the
# monolithic repro.core.authentication as of the commit before the
# staged engine landed. Do not "improve" it — it is the parity oracle.
# ---------------------------------------------------------------------------


def _reference_integrate(passes):
    n = len(passes)
    hits = sum(passes)
    if n <= 1:
        return False
    if n == 2:
        return hits == 2
    if n == 3:
        return hits >= 2
    return hits >= n - 1


def _reference_check_keystrokes(models, preprocessed):
    keys = []
    scores = []
    passes = []
    for segment in extract_segments(preprocessed, models.config):
        keys.append(segment.key)
        model = models.key_models.get(segment.key)
        if model is None:
            scores.append(float("-inf"))
            passes.append(False)
            continue
        score = float(model.decision_function(segment.samples)[0])
        scores.append(score)
        passes.append(score > 0.0)
    return tuple(keys), tuple(scores), tuple(passes)


def _reference_authenticate(models, preprocessed, pin_ok, no_pin_mode=False):
    if not no_pin_mode:
        if pin_ok is None:
            raise AuthenticationError("pin_ok is required outside NO-PIN mode")
        if not pin_ok:
            return AuthDecision(
                accepted=False, reason="PIN verification failed", pin_ok=False
            )

    case = identify_input_case(preprocessed)
    if case is InputCase.REJECT:
        return AuthDecision(
            accepted=False,
            reason=(
                f"only {preprocessed.detected_count} keystroke(s) detected; "
                "at least two are required"
            ),
            input_case=case,
            pin_ok=pin_ok,
        )

    if no_pin_mode or case is not InputCase.ONE_HANDED:
        keys, scores, passes = _reference_check_keystrokes(models, preprocessed)
        accepted = _reference_integrate(passes)
        return AuthDecision(
            accepted=accepted,
            reason=(
                f"{sum(passes)}/{len(passes)} keystroke waveforms legal "
                f"({case.value})"
            ),
            input_case=case,
            pin_ok=pin_ok,
            scores=scores,
            keys_checked=keys,
            passes=passes,
        )

    options = models.options
    if options.privacy_boost:
        if models.fused_model is None:
            raise AuthenticationError("privacy boost enabled but no fused model")
        waveform = extract_fused_waveform(preprocessed, models.config)
        score = float(models.fused_model.decision_function(waveform)[0])
        label = "fused waveform"
    else:
        if models.full_model is None:
            raise AuthenticationError("no full-waveform model enrolled")
        waveform = extract_full_waveform(
            preprocessed, options.full_window, options.full_margin
        )
        score = float(models.full_model.decision_function(waveform)[0])
        label = "full waveform"

    accepted = score > 0.0
    return AuthDecision(
        accepted=accepted,
        reason=f"{label} score {score:+.3f} ({'legal' if accepted else 'illegal'})",
        input_case=case,
        pin_ok=pin_ok,
        scores=(score,),
    )


def staged_run(auth, trial, pin_ok=True) -> AuthDecision:
    """One probe through a directly built staged engine."""
    pipeline = AuthPipeline(
        auth.models,
        config=auth.config,
        policy=auth.policy,
        no_pin_mode=auth.no_pin_mode,
    )
    return pipeline.run(trial, pin_ok)


def assert_decisions_identical(staged: AuthDecision, reference: AuthDecision):
    """Field-for-field equality; scores at rtol=0/atol=0."""
    assert staged.accepted == reference.accepted
    assert staged.reason == reference.reason
    assert staged.input_case == reference.input_case
    assert staged.pin_ok == reference.pin_ok
    assert staged.keys_checked == reference.keys_checked
    assert staged.passes == reference.passes
    assert staged.degradation == reference.degradation
    assert len(staged.scores) == len(reference.scores)
    np.testing.assert_allclose(
        np.asarray(staged.scores),
        np.asarray(reference.scores),
        rtol=0,
        atol=0,
    )


# ---------------------------------------------------------------------------
# Fixtures: one small population, two enrolled authenticators
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def data():
    return StudyData(n_users=5, seed=3)


@pytest.fixture(scope="module")
def third_party(data):
    return ThirdPartyStore(data, [1, 2], PIN).sample(20)


@pytest.fixture(scope="module")
def enroll_trials(data):
    return data.trials(0, PIN, "one_handed", 8)[:6]


@pytest.fixture(scope="module")
def auth(enroll_trials, third_party):
    a = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
    a.enroll(enroll_trials, third_party)
    return a


@pytest.fixture(scope="module")
def boost_auth(enroll_trials, third_party):
    a = P2Auth(
        pin=PIN,
        options=EnrollmentOptions(num_features=FEATURES, privacy_boost=True),
    )
    a.enroll(enroll_trials, third_party)
    return a


@pytest.fixture(scope="module")
def probes(data):
    legit = data.trials(0, PIN, "one_handed", 8)[6:]
    two_handed = data.trials(0, PIN, "double3", 2)
    attacks = data.emulating_trials(4, 0, PIN, 2)
    return {"legit": legit, "two_handed": two_handed, "attack": attacks}


# ---------------------------------------------------------------------------
# 1. Staged engine vs the monolithic reference
# ---------------------------------------------------------------------------


class TestStagedVsReference:
    @pytest.mark.parametrize("kind", ["legit", "two_handed", "attack"])
    def test_full_model_routes(self, auth, probes, kind):
        for trial in probes[kind]:
            pre = preprocess_trial(trial, auth.config)
            reference = _reference_authenticate(auth.models, pre, True)
            staged = staged_run(auth, trial)
            assert_decisions_identical(staged, reference)

    @pytest.mark.parametrize("kind", ["legit", "attack"])
    def test_privacy_boost_route(self, boost_auth, probes, kind):
        for trial in probes[kind]:
            pre = preprocess_trial(trial, boost_auth.config)
            reference = _reference_authenticate(boost_auth.models, pre, True)
            staged = staged_run(boost_auth, trial)
            assert_decisions_identical(staged, reference)

    def test_wrong_pin_short_circuits(self, auth, probes):
        trial = probes["legit"][0]
        pre = preprocess_trial(trial, auth.config)
        reference = _reference_authenticate(auth.models, pre, False)
        staged = staged_run(auth, trial, pin_ok=False)
        assert_decisions_identical(staged, reference)
        assert staged.reason == "PIN verification failed"

    def test_exception_parity_without_fused_model(self, auth, probes):
        # A one-handed probe with the boost flag but no fused model must
        # raise exactly as the monolith did, before any waveform work.
        from dataclasses import replace

        trial = probes["legit"][0]
        pre = preprocess_trial(trial, auth.config)
        boosted = replace(
            auth.models,
            options=replace(auth.models.options, privacy_boost=True),
            fused_model=None,
        )
        with pytest.raises(AuthenticationError, match="no fused model"):
            _reference_authenticate(boosted, pre, True)
        with pytest.raises(AuthenticationError, match="no fused model"):
            AuthPipeline(boosted).run(trial, True)


# ---------------------------------------------------------------------------
# 2. Registry façade vs direct construction
# ---------------------------------------------------------------------------


class TestRegistryParity:
    def test_registry_enrollment_scores_identically(
        self, data, auth, enroll_trials, third_party, probes
    ):
        registry = ModelRegistry(
            options=EnrollmentOptions(num_features=FEATURES)
        )
        registry.enroll("alice", PIN, enroll_trials, third_party)
        for trial in probes["legit"] + probes["attack"]:
            via_registry = registry.authenticate("alice", trial)
            direct = auth.authenticate(trial)
            assert_decisions_identical(via_registry, direct)


# ---------------------------------------------------------------------------
# 3. Table-driven experiment runner vs hand-rolled sweep row
# ---------------------------------------------------------------------------


class TestExperimentRowParity:
    def test_generic_runner_matches_hand_rolled_row(self):
        from functools import partial

        from repro.eval.experiments import (
            ExperimentScale,
            ExperimentSpec,
            run_experiment,
        )
        from repro.eval.experiments import _fig14_tabulate
        from repro.eval.protocol import evaluate_user

        scale = ExperimentScale(
            n_users=5,
            n_victims=2,
            n_attackers=2,
            enroll_n=5,
            test_n=3,
            third_party_n=12,
            ra_per_attacker=2,
            ea_per_attacker=2,
            num_features=FEATURES,
            seed=2,
        )
        size = 12
        spec = ExperimentSpec(
            experiment="fig14",
            title="parity probe",
            headers=("store size", "accuracy", "trr"),
            description="single fig14 sweep row for the parity suite.",
            cases=lambda s: [(size, dict(third_party_n=size))],
            tabulate=_fig14_tabulate,
        )
        result = run_experiment(spec, scale)

        # Hand-rolled, pre-refactor style: serial evaluate_user calls
        # and explicit mean arithmetic.
        study = StudyData(n_users=scale.n_users, seed=scale.seed)
        evaluate = partial(
            evaluate_user,
            study,
            pin=PIN,
            attacker_ids=scale.attacker_ids,
            enroll_n=scale.enroll_n,
            test_n=scale.test_n,
            third_party_n=size,
            ra_per_attacker=scale.ra_per_attacker,
            ea_per_attacker=scale.ea_per_attacker,
            num_features=scale.num_features,
        )
        results = [evaluate(victim_id=victim) for victim in scale.victim_ids]
        acc = float(np.mean([r.accuracy for r in results]))
        trr = float(
            np.mean(
                [
                    float(np.mean([r.trr_random, r.trr_emulating]))
                    for r in results
                ]
            )
        )
        assert result.rows == ((size, acc, trr),)
        assert result.summary == {f"acc_{size}": acc, f"trr_{size}": trr}


# ---------------------------------------------------------------------------
# 4. Robustness grid rows vs the committed ROBUSTNESS.json
# ---------------------------------------------------------------------------


class TestRobustnessParity:
    def test_channel_dropout_rows_match_committed_report(self):
        from repro.eval.robustness import build_report, run_robustness_sweep

        committed = json.loads(
            (REPO_ROOT / "ROBUSTNESS.json").read_text()
        )
        expected = [
            row
            for row in committed["grid"]
            if row["fault"] == "channel_dropout"
        ]
        assert expected, "committed report lost its channel_dropout rows"

        study = StudyData(n_users=6, seed=5)
        cells = run_robustness_sweep(
            study,
            faults=["channel_dropout"],
            intensities=(0.0, 0.25, 0.5, 1.0),
            victim_ids=(0, 1),
            attacker_ids=(4, 5),
            enroll_n=9,
            test_n=6,
            third_party_n=60,
            ra_per_attacker=3,
            ea_per_attacker=3,
            num_features=2520,
            seed=0,
        )
        report = build_report(cells, seed=0, label="default")
        assert report["grid"] == expected


# ---------------------------------------------------------------------------
# 5. P2Auth.authenticate vs the monolith
# ---------------------------------------------------------------------------


def reference_run(auth, trial, pin_ok=True) -> AuthDecision:
    """The monolith on ``preprocess_trial`` output: a reference built
    outside the engine that ``authenticate`` runs."""
    pre = preprocess_trial(trial, auth.config)
    return _reference_authenticate(auth.models, pre, pin_ok)


class TestFusedParity:
    """``authenticate`` must never differ from the monolith reference.

    Every probe kind runs through ``P2Auth.authenticate`` and through
    the monolith on independently preprocessed input, compared
    field-for-field at rtol=0/atol=0.
    """

    @pytest.mark.parametrize("kind", ["legit", "two_handed", "attack"])
    def test_all_probe_kinds(self, auth, probes, kind):
        for trial in probes[kind]:
            assert_decisions_identical(
                auth.authenticate(trial), reference_run(auth, trial)
            )

    @pytest.mark.parametrize("kind", ["legit", "attack"])
    def test_privacy_boost_route(self, boost_auth, probes, kind):
        for trial in probes[kind]:
            assert_decisions_identical(
                boost_auth.authenticate(trial),
                reference_run(boost_auth, trial),
            )

    def test_wrong_pin_short_circuits(self, auth, probes):
        trial = probes["legit"][0]
        fast = auth.authenticate(trial, claimed_pin="0000")
        assert_decisions_identical(
            fast, reference_run(auth, trial, pin_ok=False)
        )
        assert fast.reason == "PIN verification failed"

    def test_scratch_reuse_does_not_drift(self, auth, probes):
        # Repeated calls through one cached engine must keep returning
        # the reference decision.
        references = [reference_run(auth, t) for t in probes["legit"]]
        for _ in range(3):
            for trial, reference in zip(probes["legit"], references):
                assert_decisions_identical(auth.authenticate(trial), reference)

    def test_median_kernels_share_one_thread(
        self, enroll_trials, third_party, probes
    ):
        # The 3- and 5-point median kernels take the selection network:
        # two authenticators whose kernels differ, fed each probe (one
        # signal shape) in turn, must each still match their own
        # reference.
        from repro.config import PipelineConfig

        auths = []
        for kernel in (3, 5):
            a = P2Auth(
                pin=PIN,
                pipeline_config=PipelineConfig(median_kernel=kernel),
                options=EnrollmentOptions(num_features=FEATURES),
            )
            a.enroll(enroll_trials, third_party)
            auths.append(a)
        trials = probes["legit"] + probes["attack"]
        references = [[reference_run(a, t) for t in trials] for a in auths]
        assert any(
            x.scores != y.scores for x, y in zip(*references)
        ), "the two kernels never changed a score; the case tests nothing"
        for _ in range(2):
            for i, trial in enumerate(trials):
                for a, reference in zip(auths, references):
                    assert_decisions_identical(
                        a.authenticate(trial), reference[i]
                    )

    def test_post_degradation_repaired_probe(self, data, third_party):
        import dataclasses

        from repro.core import DegradationPolicy, apply_policy

        enroll = data.trials(0, PIN, "one_handed", 8)[:6]
        a = P2Auth(
            pin=PIN,
            options=EnrollmentOptions(num_features=FEATURES),
            policy=DegradationPolicy(),
        )
        a.enroll(enroll, third_party)
        probe = data.trials(0, PIN, "one_handed", 8)[6]
        samples = probe.recording.samples.copy()
        samples[0, 40:50] = np.nan  # 0.1 s gap: inside the repair budget
        damaged = dataclasses.replace(
            probe, recording=probe.recording.with_samples(samples)
        )
        repaired, events = apply_policy(damaged, a.config, a.policy)
        assert events, "the repair ladder never ran"
        reference = dataclasses.replace(
            reference_run(a, repaired), degradation=events
        )
        assert_decisions_identical(a.authenticate(damaged), reference)


class TestWarmup:
    def test_idempotent_and_results_invisible(
        self, enroll_trials, third_party, probes
    ):
        warmed = P2Auth(
            pin=PIN, options=EnrollmentOptions(num_features=FEATURES)
        )
        warmed.enroll(enroll_trials, third_party)
        n = probes["legit"][0].recording.n_samples
        assert warmed.warmup((n,)) is True
        assert warmed.warmup((n,)) is False  # idempotence contract
        cold = P2Auth(
            pin=PIN, options=EnrollmentOptions(num_features=FEATURES)
        )
        cold.enroll(enroll_trials, third_party)
        for trial in probes["legit"] + probes["attack"]:
            assert_decisions_identical(
                warmed.authenticate(trial),
                cold.authenticate(trial),
            )

    def test_warmup_before_enrollment_is_safe(self):
        assert P2Auth(pin=PIN).warmup() is False
