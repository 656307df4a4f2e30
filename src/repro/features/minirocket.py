"""MiniRocket time-series transform, implemented from scratch.

MiniRocket (Dempster, Schmidt & Webb, KDD 2021) transforms a time
series with a fixed set of 84 convolution kernels of length 9 whose
weights take only two values: three positions carry weight +2 and six
carry weight -1 (every kernel sums to zero, giving offset invariance).
Kernels are applied at exponentially spaced dilations (Eq. 5 of the
P2Auth paper), and each (kernel, dilation, bias) combination is pooled
to a single feature — the proportion of positive values

.. math::

    PPV(Z) = \\frac{1}{N} \\sum_i \\mathbb{1}[z_i > b]

(Eq. 6). Biases are drawn from quantiles of the convolution output on
training examples, which is the only data-dependent part of the fit.

The convolution is computed with the restricted-weight trick from the
original paper: with :math:`A = -X` and :math:`G = 3X`,

.. math::

    C = \\sum_{j=0}^{8} A^{(j)} + \\sum_{j \\in K} G^{(j)}

where :math:`X^{(j)}` denotes ``X`` shifted by ``(j - 4) * dilation``
and ``K`` the kernel's three +2 positions — so the 84 kernels share one
set of nine shifted copies per dilation.

Multivariate series are handled channel-independently: the feature
budget is split evenly across channels and the per-channel feature
blocks are concatenated, which keeps channel-count comparisons
(Fig. 13 of the P2Auth paper) fair at a fixed total feature length.

Engines
-------

``transform`` runs one of two engines that produce bit-identical
features (see ``docs/performance.md``), picked by what the host has:

- ``"c"`` — a small compiled kernel (built on demand with the system C
  compiler) that fuses convolution, thresholding, and pooling in cache;
  it serves every transform wherever the kernel builds and loads.
- ``"vectorized"`` — batched linear algebra in NumPy: all 84 kernel
  convolutions of a dilation come from one matrix product of the
  module-level :data:`KERNEL_WEIGHTS` with the shifted stack, and the
  PPV pooling is broadcast across the whole (kernel, feature) grid.
  Instances go through in batches of :data:`BATCH_SIZE`, which bounds
  peak memory. It is the path on a host without a C compiler.

The original per-kernel Python loop is no engine: it is kept verbatim
as :meth:`MiniRocket._transform_reference`, the oracle both engines are
tested bit-identical against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, NotFittedError, SignalError
from . import _ckernel

#: Kernel length fixed by the MiniRocket design.
KERNEL_LENGTH = 9

#: The 84 kernels: all ways to place the three +2 weights.
KERNEL_INDICES: Tuple[Tuple[int, int, int], ...] = tuple(
    combinations(range(KERNEL_LENGTH), 3)
)

NUM_KERNELS = len(KERNEL_INDICES)


def _kernel_weight_matrix() -> np.ndarray:
    weights = np.full((NUM_KERNELS, KERNEL_LENGTH), -1.0)
    for k, idx in enumerate(KERNEL_INDICES):
        weights[k, list(idx)] = 2.0
    return weights


#: The (84, 9) weight matrix: row ``k`` holds kernel ``k`` (+2 at its
#: three chosen taps, -1 elsewhere). One matrix product of this with
#: the nine shifted copies yields every kernel convolution at once.
KERNEL_WEIGHTS = _kernel_weight_matrix()
KERNEL_WEIGHTS.setflags(write=False)

#: The three +2 tap positions of each kernel as index vectors, used to
#: gather the shifted stack with the same addition order as the
#: reference loop (``(s_a + s_b) + s_c``).
_TAP_A = np.array([idx[0] for idx in KERNEL_INDICES])  # concurrency: immutable-after-init
_TAP_B = np.array([idx[1] for idx in KERNEL_INDICES])  # concurrency: immutable-after-init
_TAP_C = np.array([idx[2] for idx in KERNEL_INDICES])  # concurrency: immutable-after-init
# Enforce the immutability declared above: these index vectors are read
# concurrently by every featurization thread.
for _tap in (_TAP_A, _TAP_B, _TAP_C):
    _tap.setflags(write=False)
del _tap

#: Instances per NumPy-engine batch; caps the size of the intermediate
#: convolution/comparison buffers so peak memory stays bounded on large
#: inputs.
BATCH_SIZE = 256


def _golden_quantiles(n: int) -> np.ndarray:
    """Low-discrepancy quantile sequence ((phi * k) mod 1, k = 1..n)."""
    phi = (np.sqrt(5.0) + 1.0) / 2.0
    return np.mod(phi * np.arange(1, n + 1), 1.0)


def _fit_dilations(
    input_length: int, num_features: int, max_dilations_per_kernel: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Choose dilations and the feature count per dilation.

    Follows the reference implementation: dilations are the unique
    integer parts of an exponentially spaced grid whose maximum keeps
    the dilated kernel inside the input, and the per-kernel feature
    budget is spread across them proportionally.
    """
    num_features_per_kernel = max(1, num_features // NUM_KERNELS)
    true_max = min(num_features_per_kernel, max_dilations_per_kernel)
    multiplier = num_features_per_kernel / true_max

    max_exponent = np.log2((input_length - 1) / (KERNEL_LENGTH - 1))
    max_exponent = max(max_exponent, 0.0)
    raw = np.logspace(0, max_exponent, true_max, base=2.0).astype(np.int64)
    dilations, counts = np.unique(raw, return_counts=True)
    features_per_dilation = (counts * multiplier).astype(np.int64)

    remainder = num_features_per_kernel - int(features_per_dilation.sum())
    i = 0
    while remainder > 0:
        features_per_dilation[i % len(features_per_dilation)] += 1
        remainder -= 1
        i += 1
    return dilations, features_per_dilation


def _shifted_stack(x: np.ndarray, dilation: int) -> np.ndarray:
    """Return the nine dilated shifts of ``x``, zero-padded.

    Args:
        x: array of shape ``(n_instances, length)``.
        dilation: kernel dilation ``d``.

    Returns:
        Array ``S`` of shape ``(9, n_instances, length)`` where
        ``S[j, :, i] = x[:, i + (j - 4) * d]`` (zero outside).
    """
    n, length = x.shape
    stack = np.zeros((KERNEL_LENGTH, n, length), dtype=np.float64)
    center = KERNEL_LENGTH // 2
    for j in range(KERNEL_LENGTH):
        offset = (j - center) * dilation
        if offset == 0:
            stack[j] = x
        elif offset > 0:
            if offset < length:
                stack[j, :, : length - offset] = x[:, offset:]
        else:
            if -offset < length:
                stack[j, :, -offset:] = x[:, : length + offset]
    return stack


def c_kernel_available() -> bool:
    """True when the compiled MiniRocket kernel can be built and loaded.

    The public probe for scripts and benchmarks; triggers the on-demand
    compile on first call, so a ``True`` answer means the kernel is
    already loaded.
    """
    return _ckernel.available()


def warm_engine() -> str:
    """Pay the one-off compile cost now; name the engine that will serve.

    Probing kernel availability builds and loads the shared library on
    first call — the dominant first-request cost (~hundreds of ms) when
    it happens inside ``authenticate``. Call this at process start, from
    ``P2Auth.__init__``, or via ``warmup()`` to move it off the request
    path.

    Returns:
        ``"c"`` when the compiled kernel loaded, ``"vectorized"``
        otherwise.
    """
    return "c" if _ckernel.available() else "vectorized"


class MiniRocket:
    """The MiniRocket transform.

    Args:
        num_features: total output feature count (paper: ~10K). For
            multivariate input the budget is split evenly across
            channels; the realized count is rounded down to a multiple
            of 84 per channel and never below 84.
        max_dilations_per_kernel: cap on distinct dilations per kernel.
        seed: seed for the training-example choice used to set biases.

    Usage::

        rocket = MiniRocket(num_features=9996)
        rocket.fit(x_train)             # (n, length) or (n, ch, length)
        features = rocket.transform(x)  # (n, realized_num_features)
    """

    def __init__(
        self,
        num_features: int = 9996,
        max_dilations_per_kernel: int = 32,
        seed: int = 0,
    ) -> None:
        if num_features < NUM_KERNELS:
            raise ConfigurationError(
                f"num_features must be >= {NUM_KERNELS}, got {num_features}"
            )
        if max_dilations_per_kernel < 1:
            raise ConfigurationError("max_dilations_per_kernel must be >= 1")
        self.num_features = num_features
        self.max_dilations_per_kernel = max_dilations_per_kernel
        self.seed = seed
        self._fitted = False
        self._n_channels: Optional[int] = None
        self._input_length: Optional[int] = None
        self._dilations: Optional[np.ndarray] = None
        self._features_per_dilation: Optional[np.ndarray] = None
        # biases[channel] -> list over dilations of (84, features) arrays
        self._biases: Optional[List[List[np.ndarray]]] = None
        # Pre-marshalled compiled-kernel arguments; built lazily on the
        # first C-engine transform and invalidated by fit().
        self._plan: Optional[_ckernel.TransformPlan] = None

    @staticmethod
    def _as_3d(x: np.ndarray) -> np.ndarray:
        """Normalize input to C-contiguous ``(n, n_channels, length)``.

        Conforming input — already float64 and C-contiguous — is passed
        through as a view without copying.
        """
        x = np.asarray(x)
        if x.dtype != np.float64 or not x.flags.c_contiguous:
            x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, np.newaxis, :]
        if x.ndim != 3:
            raise SignalError(
                f"expected (n, length) or (n, channels, length), got {x.shape}"
            )
        if x.shape[0] == 0:
            raise SignalError("no instances to transform")
        if x.shape[2] < KERNEL_LENGTH:
            raise SignalError(
                f"series length {x.shape[2]} shorter than kernel "
                f"length {KERNEL_LENGTH}"
            )
        return x

    @property
    def n_features_out(self) -> int:
        """Realized output feature count (available after :meth:`fit`)."""
        if not self._fitted:
            raise NotFittedError("MiniRocket.fit has not been called")
        per_channel = NUM_KERNELS * int(np.sum(self._features_per_dilation))
        return per_channel * int(self._n_channels)

    @property
    def valid_pooling_mask(self) -> np.ndarray:
        """Boolean mask over output columns: True where PPV pools only
        the valid (unpadded) convolution region.

        Valid-pooled features are exactly offset-invariant (the
        zero-sum kernels cancel constants); padded-pooled features see
        the zero padding and are not.
        """
        if not self._fitted:
            raise NotFittedError("MiniRocket.fit has not been called")
        mask: List[bool] = []
        for _ch in range(int(self._n_channels)):
            for n_feat in self._features_per_dilation:
                for k in range(NUM_KERNELS):
                    mask.extend((k + f) % 2 == 1 for f in range(int(n_feat)))
        return np.asarray(mask, dtype=bool)

    def fit(self, x: np.ndarray) -> "MiniRocket":
        """Fix dilations and biases from training data.

        All 84 kernel convolutions of the training example are gathered
        at once and their bias quantiles come from a single batched
        ``np.quantile`` call per (channel, dilation) — no per-kernel
        Python loop — with the same floating-point operation order as
        the original per-kernel loop, so the fitted biases are
        bit-identical to it.

        Args:
            x: training series, shape ``(n, length)`` or
                ``(n, channels, length)``.
        """
        x = self._as_3d(x)
        n, channels, length = x.shape
        per_channel_budget = max(NUM_KERNELS, self.num_features // channels)
        self._dilations, self._features_per_dilation = _fit_dilations(
            length, per_channel_budget, self.max_dilations_per_kernel
        )
        rng = np.random.default_rng(self.seed)

        biases: List[List[np.ndarray]] = []
        for ch in range(channels):
            channel_biases: List[np.ndarray] = []
            for dilation, n_feat in zip(
                self._dilations, self._features_per_dilation
            ):
                n_feat = int(n_feat)
                quantiles = _golden_quantiles(n_feat * NUM_KERNELS).reshape(
                    NUM_KERNELS, n_feat
                )
                # One random training example per (dilation, channel)
                # supplies the convolution-output quantiles.
                example = x[rng.integers(0, n), ch][np.newaxis, :]
                stack = _shifted_stack(example, int(dilation))
                c_alpha = -stack.sum(axis=0)
                conv = c_alpha + 3.0 * (
                    (stack[_TAP_A] + stack[_TAP_B]) + stack[_TAP_C]
                )
                conv = conv.reshape(NUM_KERNELS, length)
                # One np.quantile call evaluates every requested
                # quantile on every kernel row; keep each kernel's own
                # quantiles (the "diagonal" of that grid).
                grid = np.quantile(conv, quantiles.ravel(), axis=1)
                rows = np.arange(NUM_KERNELS * n_feat)
                kernel_biases = grid[
                    rows, np.repeat(np.arange(NUM_KERNELS), n_feat)
                ].reshape(NUM_KERNELS, n_feat)
                channel_biases.append(kernel_biases)
            biases.append(channel_biases)

        self._biases = biases
        self._n_channels = channels
        self._input_length = length
        self._plan = None
        self._fitted = True
        return self

    def _check_transform_input(self, x: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("MiniRocket.fit has not been called")
        x = self._as_3d(x)
        n, channels, length = x.shape
        if channels != self._n_channels:
            raise SignalError(
                f"fitted on {self._n_channels} channels, got {channels}"
            )
        if length != self._input_length:
            raise SignalError(
                f"fitted on length {self._input_length}, got {length}"
            )
        return x

    def _c_plan(self) -> Optional[_ckernel.TransformPlan]:
        """The cached compiled-kernel plan; ``None`` when unavailable."""
        if self._plan is None:
            self._plan = _ckernel.prepare(
                self._dilations,
                self._features_per_dilation,
                self._biases,
                self.n_features_out,
            )
        return self._plan

    def get_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """The fitted state as a ``(header, arrays)`` pair.

        The header holds the construction scalars, the arrays the fitted
        dilation schedule and bias tables — together everything
        :meth:`from_state` needs to rebuild an extractor whose
        transforms are bit-identical to this one's. The serialization
        container (the packed extractor blob of
        :mod:`repro.core.packing`) is the caller's business; the array
        names are stable keys
        (``dilations``, ``features_per_dilation``,
        ``biases/<channel>/<dilation>``).
        """
        if not self._fitted:
            raise NotFittedError("MiniRocket.fit has not been called")
        assert self._biases is not None
        header: Dict[str, Any] = {
            "num_features": self.num_features,
            "max_dilations_per_kernel": self.max_dilations_per_kernel,
            "seed": self.seed,
            "n_channels": int(self._n_channels or 0),
            "input_length": int(self._input_length or 0),
            "n_bias_dilations": len(self._biases[0]),
        }
        arrays: Dict[str, np.ndarray] = {
            "dilations": np.asarray(self._dilations),
            "features_per_dilation": np.asarray(self._features_per_dilation),
        }
        for ch, channel_biases in enumerate(self._biases):
            for d, biases in enumerate(channel_biases):
                arrays[f"biases/{ch}/{d}"] = biases
        return header, arrays

    @classmethod
    def from_state(
        cls, header: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
    ) -> "MiniRocket":
        """Rebuild a fitted extractor from :meth:`get_state` output.

        The arrays may be read-only views into a larger buffer (e.g. a
        packed extractor blob): the transform only ever reads them, so
        no copy is made.
        """
        rocket = cls(
            num_features=int(header["num_features"]),
            max_dilations_per_kernel=int(header["max_dilations_per_kernel"]),
            seed=int(header["seed"]),
        )
        rocket._dilations = np.asarray(arrays["dilations"])
        rocket._features_per_dilation = np.asarray(
            arrays["features_per_dilation"]
        )
        n_channels = int(header["n_channels"])
        n_dil = int(header["n_bias_dilations"])
        rocket._biases = [
            [np.asarray(arrays[f"biases/{ch}/{d}"]) for d in range(n_dil)]
            for ch in range(n_channels)
        ]
        rocket._n_channels = n_channels
        rocket._input_length = int(header["input_length"])
        rocket._fitted = True
        return rocket

    def warm(self) -> "MiniRocket":
        """Pay the one-off transform costs ahead of the first real call.

        Builds and loads the C kernel if needed and, where it loads,
        marshals the prepared argument plan — the only state a transform
        builds lazily. Runs no transform. Results are unaffected — warming is observable only
        as latency. Idempotent, and O(1) once the plan exists, so an
        extractor shared by many users is planned once.
        """
        if not self._fitted:
            raise NotFittedError("MiniRocket.fit has not been called")
        self._c_plan()
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Transform series into PPV features.

        Args:
            x: series with the same channel count and length as the
                training data.

        Returns:
            Feature matrix of shape ``(n, n_features_out)``.
        """
        x = self._check_transform_input(x)
        plan = self._c_plan()
        if plan is not None:
            features = _ckernel.transform_prepared(plan, x)
            if features is not None:
                return features
        # No compiled kernel, or it declined the shape: NumPy.
        return self._transform_vectorized(x)

    def _transform_vectorized(self, x: np.ndarray) -> np.ndarray:
        """Batched-linear-algebra engine.

        Per (channel, instance batch, dilation): one matrix product
        ``KERNEL_WEIGHTS @ stack`` yields all 84 convolutions, then the
        PPV counts for the whole (kernel, feature) grid come from four
        broadcast comparisons — kernels split by parity, features split
        into the padded (full-length) and valid (unpadded) pooling
        groups, exactly the regions the reference loop pools.
        """
        n, channels, length = x.shape
        n_feature_cols = self.n_features_out
        per_channel = n_feature_cols // channels
        out = np.empty((n, n_feature_cols))
        batch = BATCH_SIZE

        for ch in range(channels):
            xc = x[:, ch, :]
            for start in range(0, n, batch):
                xb = xc[start : start + batch]
                b = xb.shape[0]
                col = ch * per_channel
                for d_index, (dilation, n_feat) in enumerate(
                    zip(self._dilations, self._features_per_dilation)
                ):
                    dilation = int(dilation)
                    n_feat = int(n_feat)
                    stack = _shifted_stack(xb, dilation)
                    conv = np.matmul(
                        KERNEL_WEIGHTS, stack.reshape(KERNEL_LENGTH, -1)
                    ).reshape(NUM_KERNELS, b, length)
                    biases = self._biases[ch][d_index]
                    pad = (KERNEL_LENGTH // 2) * dilation
                    if length > 2 * pad:
                        vlo, vhi = pad, length - pad
                    else:
                        vlo, vhi = 0, length
                    feats = np.empty((NUM_KERNELS, n_feat, b))
                    # (k + f) even -> pool the full (padded) length;
                    # (k + f) odd -> pool only the valid region.
                    for p in (0, 1):
                        conv_p = conv[p::2]
                        bias_p = biases[p::2]
                        f_pad = slice(p, None, 2)
                        f_val = slice(1 - p, None, 2)
                        bp = bias_p[:, f_pad]
                        if bp.size:
                            hits = np.count_nonzero(
                                conv_p[:, None, :, :] > bp[:, :, None, None],
                                axis=-1,
                            )
                            feats[p::2, f_pad] = hits / float(length)
                        bv = bias_p[:, f_val]
                        if bv.size:
                            hits = np.count_nonzero(
                                conv_p[:, None, :, vlo:vhi]
                                > bv[:, :, None, None],
                                axis=-1,
                            )
                            feats[p::2, f_val] = hits / float(vhi - vlo)
                    out[start : start + b, col : col + NUM_KERNELS * n_feat] = (
                        feats.reshape(NUM_KERNELS * n_feat, b).T
                    )
                    col += NUM_KERNELS * n_feat
        return out

    def _transform_loop(self, x: np.ndarray) -> np.ndarray:
        """The original per-kernel loop, kept verbatim for parity."""
        n, channels, length = x.shape
        blocks: List[np.ndarray] = []
        center = KERNEL_LENGTH // 2
        for ch in range(channels):
            xc = x[:, ch, :]
            for d_index, (dilation, n_feat) in enumerate(
                zip(self._dilations, self._features_per_dilation)
            ):
                dilation = int(dilation)
                n_feat = int(n_feat)
                stack = _shifted_stack(xc, dilation)
                c_alpha = -stack.sum(axis=0)
                pad = center * dilation
                valid = slice(pad, length - pad) if length > 2 * pad else slice(0, length)
                biases = self._biases[ch][d_index]
                for k, idx in enumerate(KERNEL_INDICES):
                    conv = c_alpha + 3.0 * (
                        stack[idx[0]] + stack[idx[1]] + stack[idx[2]]
                    )
                    # Alternate padded/valid pooling regions across the
                    # (kernel, feature) grid, as in the reference
                    # implementation; both groups are one broadcast each.
                    feats = np.empty((n_feat, n))
                    padded_slice = slice(k % 2, None, 2)
                    valid_slice = slice((k + 1) % 2, None, 2)
                    padded_b = biases[k, padded_slice]
                    valid_b = biases[k, valid_slice]
                    if padded_b.size:
                        feats[padded_slice] = np.mean(
                            conv[np.newaxis]
                            > padded_b[:, np.newaxis, np.newaxis],
                            axis=2,
                        )
                    if valid_b.size:
                        feats[valid_slice] = np.mean(
                            conv[np.newaxis, :, valid]
                            > valid_b[:, np.newaxis, np.newaxis],
                            axis=2,
                        )
                    blocks.extend(feats)
        return np.column_stack(blocks)

    def _transform_reference(self, x: np.ndarray) -> np.ndarray:
        """Transform with the original per-kernel Python loop.

        The loop is the pre-vectorization implementation, preserved
        unchanged; the vectorized and compiled engines are tested for
        bit-identical output against it.
        """
        x = self._check_transform_input(x)
        return self._transform_loop(x)

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit on ``x`` and return its transform."""
        return self.fit(x).transform(x)
