"""Unit tests for Platt scaling."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml import PlattScaler


def _scores(n=60, gap=2.0, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(gap / 2, 1.0, size=n)
    neg = rng.normal(-gap / 2, 1.0, size=n)
    scores = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(n), -np.ones(n)])
    return scores, y


class TestPlattScaler:
    def test_probabilities_in_unit_interval(self):
        scores, y = _scores()
        scaler = PlattScaler().fit(scores, y)
        p = scaler.predict_proba(np.linspace(-5, 5, 50))
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_monotone_in_score(self):
        scores, y = _scores()
        scaler = PlattScaler().fit(scores, y)
        p = scaler.predict_proba(np.linspace(-5, 5, 50))
        assert np.all(np.diff(p) >= -1e-12)

    def test_high_scores_high_probability(self):
        scores, y = _scores(gap=4.0)
        scaler = PlattScaler().fit(scores, y)
        assert scaler.predict_proba(np.array([4.0]))[0] > 0.9
        assert scaler.predict_proba(np.array([-4.0]))[0] < 0.1

    def test_roughly_calibrated_midpoint(self):
        scores, y = _scores(gap=2.0, n=500)
        scaler = PlattScaler().fit(scores, y)
        # At score 0 the classes are equally likely by symmetry.
        assert abs(scaler.predict_proba(np.array([0.0]))[0] - 0.5) < 0.1

    def test_separable_scores_stay_finite(self):
        scores = np.array([-2.0, -1.5, 1.5, 2.0])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        scaler = PlattScaler().fit(scores, y)
        assert np.isfinite(scaler.a_)
        assert np.isfinite(scaler.b_)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            PlattScaler().predict_proba(np.zeros(3))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            PlattScaler(max_iter=0)
        with pytest.raises(ValueError):
            PlattScaler(l2=-1.0)

    def test_works_on_ridge_scores_end_to_end(self, study_data):
        """Calibrate the full-waveform model's scores."""
        from repro.config import PipelineConfig
        from repro.core import preprocess_trial
        from repro.core import WaveformModel, extract_full_waveform
        from repro.data import ThirdPartyStore

        config = PipelineConfig()
        def wf(t):
            return extract_full_waveform(preprocess_trial(t, config))

        legit = [wf(t) for t in study_data.trials(0, "1628", "one_handed", 12)]
        third = [
            wf(t) for t in ThirdPartyStore(study_data, [1, 2, 3], "1628").sample(20)
        ]
        model = WaveformModel(num_features=840).fit(
            np.stack(legit[:7]), np.stack(third[:14])
        )
        cal_scores = np.concatenate(
            [
                model.decision_function(np.stack(legit[7:])),
                model.decision_function(np.stack(third[14:])),
            ]
        )
        cal_y = np.concatenate([np.ones(5), -np.ones(6)])
        scaler = PlattScaler().fit(cal_scores, cal_y)
        p_legit = scaler.predict_proba(
            model.decision_function(np.stack(legit[7:]))
        )
        p_third = scaler.predict_proba(
            model.decision_function(np.stack(third[14:]))
        )
        assert p_legit.mean() > p_third.mean()
