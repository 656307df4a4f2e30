"""Unit tests for the authentication phase and results integration."""

import ast
import dataclasses
import inspect
import typing

import numpy as np
import pytest

from repro.core import artifacts, preprocess_trial, stages
from repro.core.artifacts import _integrate
from repro.core.stages import AuthPipeline
from repro.errors import AuthenticationError
from repro.types import InputCase

from .test_enrollment import PIN  # reuse module fixtures' constants


class TestIntegrationRule:
    """Section IV-B.3: 2-of-3 for three keystrokes, all for two."""

    def test_three_keystrokes_two_pass(self):
        assert _integrate((True, True, False))
        assert _integrate((True, True, True))

    def test_three_keystrokes_one_pass_fails(self):
        assert not _integrate((True, False, False))

    def test_two_keystrokes_all_must_pass(self):
        assert _integrate((True, True))
        assert not _integrate((True, False))

    def test_single_keystroke_never_passes(self):
        assert not _integrate((True,))
        assert not _integrate(())

    def test_four_keystrokes_tolerate_one_failure(self):
        assert _integrate((True, True, True, False))
        assert not _integrate((True, True, False, False))


class TestAuthenticationFlow:
    def test_wrong_pin_short_circuits(self, enrolled_auth, study_data):
        trial = study_data.trials(0, PIN, "one_handed", 8)[7]
        decision = enrolled_auth.authenticate(trial, claimed_pin="9999")
        assert not decision.accepted
        assert decision.pin_ok is False
        assert decision.input_case is None  # no signal analysis happened

    def test_legit_one_handed_accepted(self, enrolled_auth, study_data):
        trials = study_data.trials(0, PIN, "one_handed", 10)[7:]
        accepted = [enrolled_auth.authenticate(t).accepted for t in trials]
        assert np.mean(accepted) >= 2 / 3

    def test_decision_carries_case_and_scores(self, enrolled_auth, study_data):
        trial = study_data.trials(0, PIN, "one_handed", 8)[7]
        decision = enrolled_auth.authenticate(trial)
        assert decision.input_case is InputCase.ONE_HANDED
        assert len(decision.scores) == 1
        assert decision.pin_ok is True

    def test_two_handed_uses_key_models(self, enrolled_auth, study_data):
        trial = study_data.trials(0, PIN, "double3", 1)[0]
        decision = enrolled_auth.authenticate(trial)
        if decision.input_case in (
            InputCase.TWO_HANDED_3,
            InputCase.TWO_HANDED_2,
        ):
            assert len(decision.keys_checked) == len(decision.passes)
            assert len(decision.keys_checked) >= 2

    def test_single_detected_keystroke_rejected(
        self, enrolled_auth, study_data, pipeline_config, monkeypatch
    ):
        trial = study_data.trials(0, PIN, "one_handed", 1)[0]
        pre = preprocess_trial(trial, pipeline_config)
        pre = dataclasses.replace(
            pre, keystroke_detected=(True, False, False, False)
        )
        monkeypatch.setattr(
            stages, "preprocess_trial", lambda _trial, _config: pre
        )
        decision = AuthPipeline(enrolled_auth.models).run(trial, True)
        assert not decision.accepted
        assert decision.input_case is InputCase.REJECT

    def test_unknown_key_counts_as_failure(self, enrolled_auth, study_data):
        """A detected keystroke on a never-enrolled key cannot pass."""
        trial = study_data.trials(0, "5094", "one_handed", 1)[0]
        engine = AuthPipeline(enrolled_auth.models, no_pin_mode=True)
        decision = engine.run(trial, True)
        assert not any(
            passed
            for key, passed in zip(decision.keys_checked, decision.passes)
            if key not in enrolled_auth.models.key_models
        )

    def test_missing_pin_ok_outside_no_pin_mode(self, enrolled_auth, study_data):
        trial = study_data.trials(0, PIN, "one_handed", 1)[0]
        with pytest.raises(AuthenticationError):
            AuthPipeline(enrolled_auth.models).run(trial, None)

    def test_privacy_boost_path(self, enrolled_auth_boost, study_data):
        trial = study_data.trials(0, PIN, "one_handed", 8)[7]
        decision = enrolled_auth_boost.authenticate(trial)
        assert "fused" in decision.reason or decision.input_case is not InputCase.ONE_HANDED


def _type_checking_namespace(module):
    """The module's globals plus what its ``if TYPE_CHECKING:`` block
    imports: the names a type checker resolves annotations against."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            block = ast.Module(body=node.body, type_ignores=[])
            exec(compile(block, module.__file__, "exec"), namespace)
    return namespace


class TestArtifactAnnotations:
    def test_every_dataclass_annotation_resolves(self):
        namespace = _type_checking_namespace(artifacts)
        classes = [
            obj
            for obj in vars(artifacts).values()
            if dataclasses.is_dataclass(obj) and obj.__module__ == artifacts.__name__
        ]
        assert len(classes) == 4
        for cls in classes:
            typing.get_type_hints(cls, globalns=namespace)
