"""Unit tests for the enrollment phase."""

import numpy as np
import pytest

from repro.core import (
    EnrollmentOptions,
    WaveformModel,
    enroll_models,
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
    preprocess_trial,
    preprocess_trials,
)
from repro.core.models import fixed_window
from repro.data import StudyData, ThirdPartyStore
from repro.errors import EnrollmentError, NotFittedError
from repro.ml import KNNClassifier

PIN = "1628"
FEATURES = 840


@pytest.fixture(scope="module")
def data():
    return StudyData(n_users=6, seed=9)


@pytest.fixture(scope="module")
def enroll_trials(data):
    return data.trials(0, PIN, "one_handed", 6)


@pytest.fixture(scope="module")
def third_trials(data):
    return ThirdPartyStore(data, [1, 2, 3], PIN).sample(18)


@pytest.fixture(scope="module")
def models(enroll_trials, third_trials):
    return enroll_models(
        enroll_trials,
        third_trials,
        options=EnrollmentOptions(num_features=FEATURES, privacy_boost=True),
    )


class TestFixedWindow:
    def test_plain_cut(self):
        x = np.arange(100.0)[np.newaxis, :]
        out = fixed_window(x, 10, 20)
        assert out.shape == (1, 20)
        assert out[0, 0] == 10.0

    def test_edge_padding(self):
        x = np.arange(10.0)[np.newaxis, :]
        out = fixed_window(x, 5, 10)
        assert out.shape == (1, 10)
        assert np.all(out[0, 5:] == 9.0)

    def test_negative_start_clamped(self):
        x = np.arange(50.0)[np.newaxis, :]
        out = fixed_window(x, -10, 20)
        assert out[0, 0] == 0.0


class TestExtraction:
    def test_full_waveform_shape(self, enroll_trials, pipeline_config):
        pre = preprocess_trial(enroll_trials[0], pipeline_config)
        wf = extract_full_waveform(pre, window=480, margin=45)
        assert wf.shape == (4, 480)

    def test_segments_one_per_detected_keystroke(
        self, enroll_trials, pipeline_config
    ):
        pre = preprocess_trial(enroll_trials[0], pipeline_config)
        segments = extract_segments(pre, pipeline_config)
        assert len(segments) == pre.detected_count
        for segment in segments:
            assert segment.samples.shape == (4, pipeline_config.segment_window)

    def test_fused_waveform_is_sum_of_segments(
        self, enroll_trials, pipeline_config
    ):
        pre = preprocess_trial(enroll_trials[0], pipeline_config)
        segments = extract_segments(pre, pipeline_config)
        fused = extract_fused_waveform(pre, pipeline_config)
        assert np.allclose(fused, np.sum([s.samples for s in segments], axis=0))


class TestWaveformModel:
    def test_fit_and_score(self, enroll_trials, third_trials, pipeline_config):
        pos = np.stack(
            [
                extract_full_waveform(preprocess_trial(t, pipeline_config))
                for t in enroll_trials
            ]
        )
        neg = np.stack(
            [
                extract_full_waveform(preprocess_trial(t, pipeline_config))
                for t in third_trials
            ]
        )
        model = WaveformModel(num_features=FEATURES).fit(pos, neg)
        assert model.accepts(pos[0])
        scores = model.decision_function(neg)
        assert scores.mean() < 0.0

    def test_custom_classifier_factory(self, enroll_trials, third_trials, pipeline_config):
        pos = np.stack(
            [
                extract_full_waveform(preprocess_trial(t, pipeline_config))
                for t in enroll_trials[:4]
            ]
        )
        neg = np.stack(
            [
                extract_full_waveform(preprocess_trial(t, pipeline_config))
                for t in third_trials[:8]
            ]
        )
        model = WaveformModel(
            num_features=FEATURES, classifier_factory=lambda: KNNClassifier(3)
        ).fit(pos, neg)
        assert isinstance(model.accepts(pos[0]), bool)

    def test_unfitted_rejected(self):
        model = WaveformModel(num_features=FEATURES)
        with pytest.raises(NotFittedError):
            model.decision_function(np.zeros((4, 480)))

    def test_bad_training_shapes(self):
        model = WaveformModel(num_features=FEATURES)
        with pytest.raises(EnrollmentError):
            model.fit(np.zeros((3, 480)), np.zeros((3, 4, 480)))
        with pytest.raises(EnrollmentError):
            model.fit(np.zeros((0, 4, 480)), np.zeros((3, 4, 480)))

    def test_unknown_feature_method(self):
        with pytest.raises(EnrollmentError):
            WaveformModel(feature_method="wavelets")


class TestEnrollModels:
    def test_all_models_present(self, models):
        assert models.full_model is not None
        assert models.fused_model is not None
        assert set(models.keys_enrolled) == set(PIN)

    def test_key_models_match_enrolled_keys(self, models):
        assert set(models.key_models) == set(PIN)

    def test_no_legit_trials_rejected(self, third_trials):
        with pytest.raises(EnrollmentError):
            enroll_models([], third_trials)

    def test_no_third_party_rejected(self, enroll_trials):
        with pytest.raises(EnrollmentError):
            enroll_models(enroll_trials, [])

    def test_no_boost_means_no_fused_model(self, enroll_trials, third_trials):
        models = enroll_models(
            enroll_trials,
            third_trials,
            options=EnrollmentOptions(num_features=FEATURES),
        )
        assert models.fused_model is None

    def test_options_validation(self):
        with pytest.raises(EnrollmentError):
            EnrollmentOptions(feature_method="wavelets")
        with pytest.raises(EnrollmentError):
            EnrollmentOptions(full_window=2)
        with pytest.raises(EnrollmentError):
            EnrollmentOptions(min_positive_samples=0)


class TestSharedNegatives:
    @pytest.fixture(scope="class")
    def options(self):
        return EnrollmentOptions(num_features=FEATURES)

    @pytest.fixture(scope="class")
    def bank(self, third_trials, options):
        from repro.core import build_negative_bank

        return build_negative_bank(third_trials, options=options)

    @pytest.fixture(scope="class")
    def shared_models(self, enroll_trials, bank, options):
        return enroll_models(enroll_trials, bank, options=options)

    def test_bank_structure(self, bank, third_trials):
        assert bank.full.features.shape[0] == len(third_trials)
        assert bank.full.extractor is not None
        assert bank.key_fallback is not None
        for shared in bank.key_sets.values():
            assert shared.features.shape[0] >= 10

    def test_same_models_trained_as_unshared(
        self, shared_models, models
    ):
        assert (shared_models.full_model is None) == (models.full_model is None)
        assert shared_models.keys_enrolled == models.keys_enrolled

    def test_shared_models_authenticate(
        self, shared_models, data, enroll_trials, options
    ):
        probe = preprocess_trial(data.trials(0, PIN, "one_handed", 7)[-1])
        waveform = extract_full_waveform(probe)
        assert shared_models.full_model is not None
        # The victim's own entry scores higher than another user's.
        other = preprocess_trial(data.trials(4, PIN, "one_handed", 1)[0])
        other_waveform = extract_full_waveform(other)
        own = shared_models.full_model.decision_function(waveform)[0]
        foreign = shared_models.full_model.decision_function(other_waveform)[0]
        assert own > foreign

    def test_enroll_without_store_trials(self, enroll_trials, bank, options):
        """A bank replaces the raw store trials entirely."""
        shared = enroll_models(enroll_trials, bank, options=options)
        assert shared.full_model is not None

    def test_deterministic(self, enroll_trials, bank, options, data):
        a = enroll_models(enroll_trials, bank, options=options)
        b = enroll_models(enroll_trials, bank, options=options)
        probe = preprocess_trial(data.trials(5, PIN, "one_handed", 1)[0])
        waveform = extract_full_waveform(probe)
        assert np.array_equal(
            a.full_model.decision_function(waveform),
            b.full_model.decision_function(waveform),
        )

    def test_incompatible_options_rejected(self, enroll_trials, bank):
        with pytest.raises(EnrollmentError):
            enroll_models(
                enroll_trials,
                bank,
                options=EnrollmentOptions(num_features=FEATURES * 2),
            )

    def test_incompatible_config_rejected(self, enroll_trials, bank, options):
        from repro.config import PipelineConfig

        with pytest.raises(EnrollmentError):
            enroll_models(
                enroll_trials,
                bank,
                config=PipelineConfig(detrend_lambda=5.0),
                options=options,
            )

    def test_manual_method_cannot_build_bank(self, third_trials):
        from repro.core import build_negative_bank

        with pytest.raises(EnrollmentError):
            build_negative_bank(
                third_trials,
                options=EnrollmentOptions(feature_method="manual"),
            )

    def test_fit_on_shared_set_requires_matching_method(self, bank):
        model = WaveformModel(feature_method="raw")
        with pytest.raises(EnrollmentError):
            model.fit(np.zeros((2, 4, 90)), bank.full)

    def test_raw_method_bank(self, third_trials, enroll_trials):
        from repro.core import build_negative_bank

        options = EnrollmentOptions(
            feature_method="raw", classifier_factory=KNNClassifier
        )
        bank = build_negative_bank(third_trials, options=options)
        assert bank.full.extractor is None
        shared = enroll_models(enroll_trials, bank, options=options)
        assert shared.full_model is not None


class TestNegativeSelection:
    """One rule picks each model's negatives, through a bank or raw trials."""

    @pytest.fixture(scope="class")
    def store(self, data):
        # Keys 1 and 2 appear in both PINs, 6 and 8 in one of them.
        return (
            ThirdPartyStore(data, [1, 2, 3], PIN).sample(6)
            + ThirdPartyStore(data, [1, 2, 3], "7412").sample(6)
        )

    @pytest.fixture(scope="class")
    def store_segments(self, store):
        from repro.config import PipelineConfig
        from repro.core.models import _collect_segments
        from repro.core.negatives import MIN_SAME_KEY_NEGATIVES

        by_key = _collect_segments(
            preprocess_trials(store), PipelineConfig()
        )
        # The premise: "1" has its own set, "6" falls back to the pool.
        assert len(by_key["1"]) >= MIN_SAME_KEY_NEGATIVES
        assert len(by_key["6"]) < MIN_SAME_KEY_NEGATIVES
        return by_key

    @pytest.fixture(scope="class")
    def options(self):
        return EnrollmentOptions(num_features=FEATURES)

    def test_bank_key_models_train_on_the_selected_sets(
        self, store, store_segments, enroll_trials, options
    ):
        from repro.core import build_negative_bank

        bank = build_negative_bank(store, options=options)
        assert set(bank.key_sets) == {
            key for key, segs in store_segments.items() if len(segs) >= 10
        }
        models = enroll_models(enroll_trials, bank, options=options)
        assert models.key_models["1"]._rocket is bank.key_sets["1"].extractor
        assert models.key_models["6"]._rocket is bank.key_fallback.extractor

    @pytest.mark.parametrize("key", ["1", "6"])
    def test_trial_key_models_train_on_the_selected_stacks(
        self, store, store_segments, enroll_trials, options, key
    ):
        from repro.config import PipelineConfig
        from repro.core.models import _collect_segments

        models = enroll_models(enroll_trials, store, options=options)
        positives = _collect_segments(
            preprocess_trials(enroll_trials), PipelineConfig()
        )[key]
        expected = (
            store_segments[key]
            if key == "1"
            else [s for segs in store_segments.values() for s in segs]
        )
        by_hand = WaveformModel(num_features=FEATURES, balanced=True).fit(
            np.stack(positives), np.stack(expected)
        )
        trained = models.key_models[key]._classifier
        assert np.array_equal(trained.coef_, by_hand._classifier.coef_)
        assert trained.intercept_ == by_hand._classifier.intercept_

    @pytest.mark.parametrize("path", ["trials", "bank"])
    def test_privacy_boost_without_fused_negatives_is_typed(
        self, store, enroll_trials, path
    ):
        # All-zero store trials have no detected keystroke to fuse.
        import dataclasses

        from repro.core import build_negative_bank

        flat = [
            dataclasses.replace(
                t,
                recording=t.recording.with_samples(
                    np.zeros_like(t.recording.samples)
                ),
            )
            for t in store[:6]
        ]
        options = EnrollmentOptions(num_features=FEATURES, privacy_boost=True)
        negatives = (
            build_negative_bank(flat, options=options)
            if path == "bank"
            else flat
        )
        with pytest.raises(EnrollmentError, match="fused negatives"):
            enroll_models(enroll_trials, negatives, options=options)


class TestEnrollmentQualityGate:
    def test_clean_trials_pass_default_gate(self, enroll_trials, third_trials):
        models = enroll_models(
            enroll_trials,
            third_trials,
            options=EnrollmentOptions(num_features=FEATURES),
        )
        assert models.options.quality_gate
        assert models.full_model is not None

    def test_flat_trial_rejected_with_typed_error(
        self, enroll_trials, third_trials
    ):
        import dataclasses

        flat = dataclasses.replace(
            enroll_trials[2],
            recording=enroll_trials[2].recording.with_samples(
                np.zeros_like(enroll_trials[2].recording.samples)
            ),
        )
        trials = list(enroll_trials)
        trials[2] = flat
        with pytest.raises(EnrollmentError, match="trial 2"):
            enroll_models(
                trials,
                third_trials,
                options=EnrollmentOptions(num_features=FEATURES),
            )

    def test_nan_trial_rejected_with_typed_error(
        self, enroll_trials, third_trials
    ):
        import dataclasses

        samples = enroll_trials[0].recording.samples.copy()
        samples[1, 40:200] = np.nan
        damaged = dataclasses.replace(
            enroll_trials[0],
            recording=enroll_trials[0].recording.with_samples(samples),
        )
        trials = [damaged] + list(enroll_trials[1:])
        with pytest.raises(EnrollmentError, match="non-finite"):
            enroll_models(
                trials,
                third_trials,
                options=EnrollmentOptions(num_features=FEATURES),
            )

    def test_gate_can_be_disabled(self, enroll_trials, third_trials):
        import dataclasses

        flat = dataclasses.replace(
            enroll_trials[2],
            recording=enroll_trials[2].recording.with_samples(
                np.zeros_like(enroll_trials[2].recording.samples)
            ),
        )
        trials = list(enroll_trials)
        trials[2] = flat
        # With the gate off, the old train-on-anything behaviour returns
        # (segmentation may still skip the unusable trial downstream).
        models = enroll_models(
            trials,
            third_trials,
            options=EnrollmentOptions(num_features=FEATURES, quality_gate=False),
        )
        assert models.full_model is not None
