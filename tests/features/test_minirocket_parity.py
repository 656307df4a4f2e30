"""Bit-exact parity between the MiniRocket engines.

The vectorized NumPy engine and the compiled C kernel must reproduce
the original per-kernel reference loop *exactly* — every assertion here
uses ``atol=0, rtol=0`` (or ``np.array_equal``). The engines are
constructed to preserve the reference's floating-point evaluation
order, so this is equality by design, not by tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.features import minirocket as mr
from repro.features.minirocket import (
    KERNEL_INDICES,
    NUM_KERNELS,
    MiniRocket,
    _golden_quantiles,
)

ENGINES = ["vectorized"] + (["c"] if mr._ckernel.available() else [])


def _data(n, channels, length, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, channels, length))
    return x + np.sin(np.linspace(0.0, 2.5, length))


def _pair(engine, **kwargs):
    """A fast-engine instance and an identically-seeded twin."""
    return MiniRocket(engine=engine, **kwargs), MiniRocket(**kwargs)


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineParity:
    def test_univariate(self, engine):
        x = _data(12, 1, 90)
        fast, ref = _pair(engine, num_features=840)
        got = fast.fit(x).transform(x)
        expected = ref.fit(x)._transform_reference(x)
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_multivariate(self, engine):
        x = _data(10, 4, 90, seed=3)
        fast, ref = _pair(engine, num_features=1996)
        got = fast.fit(x).transform(x)
        expected = ref.fit(x)._transform_reference(x)
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    @pytest.mark.parametrize("length", [17, 33, 91, 127])
    def test_odd_lengths(self, engine, length):
        x = _data(6, 2, length, seed=length)
        fast, ref = _pair(engine, num_features=504)
        got = fast.fit(x).transform(x)
        expected = ref.fit(x)._transform_reference(x)
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_single_dilation_per_kernel(self, engine):
        x = _data(5, 1, 60, seed=9)
        fast, ref = _pair(engine, num_features=420, max_dilations_per_kernel=1)
        got = fast.fit(x).transform(x)
        expected = ref.fit(x)._transform_reference(x)
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_batch_size_invariance(self, engine):
        """Instance batching is an implementation detail: any chunking
        must give the same matrix."""
        x = _data(11, 2, 90, seed=5)
        outputs = []
        for batch_size in (1, 7, 256):
            rocket = MiniRocket(
                num_features=840, batch_size=batch_size, engine=engine
            )
            outputs.append(rocket.fit(x).transform(x))
        np.testing.assert_allclose(outputs[0], outputs[1], rtol=0, atol=0)
        np.testing.assert_allclose(outputs[0], outputs[2], rtol=0, atol=0)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=1, max_value=6),
        channels=st.integers(min_value=1, max_value=3),
        length=st.integers(min_value=12, max_value=64),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_shapes(self, engine, n, channels, length, seed):
        x = _data(n, channels, length, seed=seed)
        fast, ref = _pair(engine, num_features=336)
        got = fast.fit(x).transform(x)
        expected = ref.fit(x)._transform_reference(x)
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)


class TestFitParity:
    def test_biases_match_per_kernel_quantile_loop(self):
        """The batched-quantile fit must reproduce the original
        per-kernel ``np.quantile`` calls bit-for-bit."""
        x = _data(8, 2, 90, seed=7)
        rocket = MiniRocket(num_features=840, seed=0).fit(x)

        # Reimplementation of the original fit's bias computation,
        # consuming the RNG in the same (channel-outer, dilation-inner)
        # order.
        rng = np.random.default_rng(0)
        n, channels, length = x.shape
        for ch in range(channels):
            for d_idx, dilation in enumerate(rocket._dilations):
                n_feat = int(rocket._features_per_dilation[d_idx])
                example = x[int(rng.integers(0, n)), ch]
                stack = mr._shifted_stack(example[np.newaxis, :], int(dilation))[
                    :, 0, :
                ]
                quantiles = _golden_quantiles(NUM_KERNELS * n_feat).reshape(
                    NUM_KERNELS, n_feat
                )
                expected = np.empty((NUM_KERNELS, n_feat))
                for k, indices in enumerate(KERNEL_INDICES):
                    conv = -stack.sum(axis=0) + 3.0 * stack[list(indices)].sum(
                        axis=0
                    )
                    expected[k] = np.quantile(conv, quantiles[k])
                np.testing.assert_allclose(
                    rocket._biases[ch][d_idx], expected, rtol=0, atol=0
                )


class TestAs3d:
    def test_no_copy_for_contiguous_float64(self):
        x = np.zeros((4, 2, 30))
        assert np.shares_memory(MiniRocket._as_3d(x), x)

    def test_2d_view_not_copy(self):
        x = np.zeros((4, 30))
        out = MiniRocket._as_3d(x)
        assert out.shape == (4, 1, 30)
        assert np.shares_memory(out, x)

    def test_non_float64_is_converted(self):
        x = np.zeros((4, 2, 30), dtype=np.float32)
        out = MiniRocket._as_3d(x)
        assert out.dtype == np.float64
        assert not np.shares_memory(out, x)

    def test_non_contiguous_is_copied_contiguous(self):
        x = np.zeros((4, 2, 60))[:, :, ::2]
        out = MiniRocket._as_3d(x)
        assert out.flags.c_contiguous


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            MiniRocket(engine="fortran")

    def test_env_var_selects_engine(self, monkeypatch):
        # The per-kernel loop is the parity oracle, not an engine.
        monkeypatch.setenv("REPRO_MINIROCKET_ENGINE", "reference")
        with pytest.raises(ConfigurationError):
            mr._resolve_engine(None)
        monkeypatch.setenv("REPRO_MINIROCKET_ENGINE", "vectorized")
        assert mr._resolve_engine(None) == "vectorized"

    def test_auto_resolves_to_concrete_engine(self):
        assert mr._resolve_engine("auto") in ("c", "vectorized")
