"""Unit and property tests for the MiniRocket implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, NotFittedError, SignalError
from repro.features import MiniRocket
from repro.features import minirocket as mr
from repro.features.minirocket import (
    KERNEL_INDICES,
    KERNEL_LENGTH,
    NUM_KERNELS,
    _fit_dilations,
    _golden_quantiles,
    _shifted_stack,
)

from .conftest import ENGINES, simulate_host


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 6.28, 200)
    return np.array(
        [np.sin((1 + 0.2 * i) * t) + 0.1 * rng.normal(size=t.size) for i in range(12)]
    )


class TestKernelDesign:
    def test_exactly_84_kernels(self):
        assert NUM_KERNELS == 84

    def test_kernels_are_3_of_9_combinations(self):
        assert len(set(KERNEL_INDICES)) == 84
        for idx in KERNEL_INDICES:
            assert len(idx) == 3
            assert all(0 <= i < KERNEL_LENGTH for i in idx)

    def test_kernel_weights_sum_to_zero(self):
        # Three +2 weights and six -1 weights: 3*2 + 6*(-1) = 0.
        assert 3 * 2 + (KERNEL_LENGTH - 3) * (-1) == 0


class TestHelpers:
    def test_golden_quantiles_in_unit_interval(self):
        q = _golden_quantiles(500)
        assert np.all((q >= 0) & (q < 1))
        # Low discrepancy: reasonably uniform coverage.
        hist, _ = np.histogram(q, bins=10, range=(0, 1))
        assert hist.min() >= 30

    def test_fit_dilations_budget(self):
        dilations, counts = _fit_dilations(200, 840, 32)
        assert np.all(dilations >= 1)
        assert np.all(np.diff(dilations) > 0)
        assert int(counts.sum()) == 840 // 84

    def test_dilations_respect_input_length(self):
        dilations, _counts = _fit_dilations(100, 9996, 32)
        assert dilations.max() * (KERNEL_LENGTH - 1) <= 99

    def test_shifted_stack_alignment(self):
        x = np.arange(10.0)[np.newaxis, :]
        stack = _shifted_stack(x, dilation=1)
        assert stack.shape == (9, 1, 10)
        # Center row is the signal itself.
        assert np.array_equal(stack[4, 0], x[0])
        # Row 5 is x shifted left by 1, zero padded at the end.
        assert np.array_equal(stack[5, 0][:-1], x[0][1:])
        assert stack[5, 0][-1] == 0.0
        # Row 3 is x shifted right by 1, zero padded at the start.
        assert np.array_equal(stack[3, 0][1:], x[0][:-1])
        assert stack[3, 0][0] == 0.0


class TestTransform:
    def test_feature_count_and_range(self, series):
        rocket = MiniRocket(num_features=840, seed=0)
        features = rocket.fit_transform(series)
        assert features.shape == (12, rocket.n_features_out)
        assert rocket.n_features_out >= 840 - NUM_KERNELS
        assert np.all((features >= 0.0) & (features <= 1.0))

    def test_deterministic(self, series):
        a = MiniRocket(num_features=420, seed=3).fit_transform(series)
        b = MiniRocket(num_features=420, seed=3).fit_transform(series)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, series):
        a = MiniRocket(num_features=420, seed=1).fit_transform(series)
        b = MiniRocket(num_features=420, seed=2).fit_transform(series)
        assert not np.array_equal(a, b)

    def test_different_signals_different_features(self, series):
        rocket = MiniRocket(num_features=420, seed=0).fit(series)
        features = rocket.transform(series)
        assert not np.allclose(features[0], features[-1])

    def test_multichannel_splits_budget(self, series):
        multi = np.stack([series, series * 0.5], axis=1)  # (n, 2, len)
        rocket = MiniRocket(num_features=840, seed=0).fit(multi)
        # Budget split over 2 channels, each rounded to a multiple of 84.
        assert rocket.n_features_out % (2 * NUM_KERNELS) == 0

    def test_transform_checks_channels(self, series):
        rocket = MiniRocket(num_features=420).fit(series)
        multi = np.stack([series, series], axis=1)
        with pytest.raises(SignalError):
            rocket.transform(multi)

    def test_transform_checks_length(self, series):
        rocket = MiniRocket(num_features=420).fit(series)
        with pytest.raises(SignalError):
            rocket.transform(series[:, :100])

    def test_transform_before_fit_rejected(self, series):
        with pytest.raises(NotFittedError):
            MiniRocket().transform(series)
        with pytest.raises(NotFittedError):
            _ = MiniRocket().n_features_out

    def test_too_few_features_rejected(self):
        with pytest.raises(ConfigurationError):
            MiniRocket(num_features=50)

    def test_too_short_series_rejected(self):
        with pytest.raises(SignalError):
            MiniRocket(num_features=420).fit(np.zeros((3, 5)))

    def test_empty_input_rejected(self):
        with pytest.raises(SignalError):
            MiniRocket(num_features=420).fit(np.zeros((0, 100)))

    def test_offset_invariance_of_valid_pooled_features(self, series):
        """Zero-sum kernels cancel constant offsets exactly wherever the
        PPV pools only the unpadded convolution region."""
        rocket = MiniRocket(num_features=420, seed=0).fit(series)
        mask = rocket.valid_pooling_mask
        assert mask.shape == (rocket.n_features_out,)
        assert mask.any() and (~mask).any()
        base = rocket.transform(series)
        shifted = rocket.transform(series + 100.0)
        assert np.allclose(base[:, mask], shifted[:, mask])

    def test_separates_frequency_classes(self, series):
        """Features must linearly separate an easy two-class problem."""
        rng = np.random.default_rng(1)
        t = np.linspace(0, 6.28, 200)
        a = np.array([np.sin(2 * t + rng.uniform(0, 6)) for _ in range(15)])
        b = np.array([np.sin(3 * t + rng.uniform(0, 6)) for _ in range(15)])
        x = np.vstack([a, b])
        rocket = MiniRocket(num_features=840, seed=0)
        f = rocket.fit_transform(x)
        # Class means in feature space must be further apart than the
        # average intra-class spread.
        mu_a, mu_b = f[:15].mean(axis=0), f[15:].mean(axis=0)
        gap = np.linalg.norm(mu_a - mu_b)
        spread = 0.5 * (
            np.mean(np.linalg.norm(f[:15] - mu_a, axis=1))
            + np.mean(np.linalg.norm(f[15:] - mu_b, axis=1))
        )
        assert gap > 0.5 * spread

    @given(st.integers(min_value=84, max_value=3000))
    @settings(max_examples=10, deadline=None)
    def test_realized_budget_close_to_requested(self, budget):
        x = np.random.default_rng(0).normal(size=(3, 64))
        rocket = MiniRocket(num_features=budget, seed=0).fit(x)
        realized = rocket.n_features_out
        assert realized >= min(budget, NUM_KERNELS)
        assert realized <= budget + NUM_KERNELS * 32


def _count_transforms(monkeypatch):
    """Record every call into a transform engine; returns the log."""
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        mr._ckernel, "transform_prepared",
        spy("c", mr._ckernel.transform_prepared),
    )
    monkeypatch.setattr(
        MiniRocket, "_transform_vectorized",
        spy("vectorized", MiniRocket._transform_vectorized),
    )
    monkeypatch.setattr(
        MiniRocket, "_transform_loop",
        spy("reference", MiniRocket._transform_loop),
    )
    return calls


class TestWarm:
    def test_warm_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            MiniRocket().warm()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_runs_no_transform(self, series, engine, monkeypatch):
        simulate_host(engine, monkeypatch)
        assert mr.warm_engine() == engine
        rocket = MiniRocket(num_features=336).fit(series)
        calls = _count_transforms(monkeypatch)
        assert rocket.warm() is rocket
        assert calls == []
        rocket.transform(series[:1])  # the spies do see a real transform
        assert calls == [engine]

    @pytest.mark.skipif(
        not mr._ckernel.available(), reason="no compiled kernel"
    )
    def test_warm_plans_once_on_c_engine(self, series, monkeypatch):
        rocket = MiniRocket(num_features=336).fit(series)
        assert rocket._plan is None
        rocket.warm()
        plan = rocket._plan
        assert plan is not None
        # A planned extractor's warm() calls neither warm_engine nor
        # _ckernel.prepare.
        touched = []
        monkeypatch.setattr(mr, "warm_engine", touched.append)
        monkeypatch.setattr(mr._ckernel, "prepare", touched.append)
        rocket.warm()
        assert touched == []
        assert rocket._plan is plan

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warmed_transform_matches_unwarmed_twin(
        self, series, engine, monkeypatch
    ):
        simulate_host(engine, monkeypatch)
        warmed = MiniRocket(num_features=336).fit(series)
        twin = MiniRocket(num_features=336).fit(series)
        warmed.warm()
        got = warmed.transform(series)
        expected = twin.transform(series)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
