"""Smoothness-priors detrending (Tarvainen, Ranta-aho, Karjalainen 2002).

Implements Eq. 2-3 of the paper: the detrended signal is

.. math::

    \\hat{Y}_{det} = [I - (I + \\lambda^2 D_2^T D_2)^{-1}] Y

where :math:`D_2` is the second-order difference matrix. The term
:math:`(I + \\lambda^2 D_2^T D_2)^{-1} Y` is the estimated smooth trend;
subtracting it removes non-linear baseline drift while leaving the
keystroke transients intact, which the short-time-energy input-case
identification depends on.

The system matrix :math:`A = I + \\lambda^2 D_2^T D_2` is symmetric
positive-definite and pentadiagonal, so it is solved with a banded
Cholesky factorization (``scipy.linalg.cholesky_banded``, then the
LAPACK ``pbtrs`` backsubstitution) in O(n). The factor depends only on
``(n, lam)`` — not on the data — so it is computed once per signal
length and regularization value, cached in an LRU, and reused for
every channel and every trial of that shape. All channels of a trial
are solved as one multi-RHS backsubstitution.

The previous generic ``scipy.sparse.linalg.spsolve`` implementation is
kept verbatim as :func:`_estimate_trend_reference`; the parity suite in
``tests/signal/test_detrend.py`` pins the banded path to it at
``atol <= 1e-10``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky_banded
from scipy.sparse.linalg import spsolve

from ..errors import ConfigurationError, SignalError

#: Maximum number of cached banded Cholesky factorizations. Each entry
#: is a (3, n) float64 array, so even 4096-sample factors cost ~100 KiB;
#: a typical experiment sweep touches only a handful of (n, lam) pairs.
FACTOR_CACHE_SIZE = 64


def _second_difference(n: int) -> sparse.csc_matrix:
    """The (n-2) x n second-order difference matrix D2 of Eq. 3."""
    if n < 3:
        raise SignalError(f"detrending needs at least 3 samples, got {n}")
    diagonals = [np.ones(n - 2), -2.0 * np.ones(n - 2), np.ones(n - 2)]
    return sparse.diags(diagonals, offsets=[0, 1, 2], shape=(n - 2, n)).tocsc()


def _validate_lam(lam: float) -> float:
    if lam <= 0:
        raise ConfigurationError(f"lambda must be positive, got {lam}")
    return float(lam)


def _banded_system(n: int, lam: float) -> np.ndarray:
    """Upper banded storage (3, n) of ``I + lam^2 D2^T D2``.

    The diagonals of :math:`D_2^T D_2` follow directly from its stencil
    ``[1, -2, 1]``: the main diagonal is ``[1, 5, 6, ..., 6, 5, 1]``,
    the first off-diagonal ``[-2, -4, ..., -4, -2]``, and the second
    off-diagonal is all ones — with the boundary terms truncated where
    the stencil runs off the matrix.
    """
    if n < 3:
        raise SignalError(f"detrending needs at least 3 samples, got {n}")
    i = np.arange(n)
    lam2 = lam * lam
    main = (i <= n - 3).astype(np.float64)
    main += 4.0 * ((i >= 1) & (i <= n - 2))
    main += 1.0 * (i >= 2)
    j = np.arange(n - 1)
    off1 = -2.0 * ((j <= n - 3).astype(np.float64) + ((j >= 1) & (j <= n - 2)))
    ab = np.zeros((3, n))
    ab[2] = 1.0 + lam2 * main
    ab[1, 1:] = lam2 * off1
    ab[0, 2:] = lam2  # second off-diagonal of D2^T D2 is all ones
    return ab


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _banded_cholesky(n: int, lam: float) -> np.ndarray:
    """Cached upper-banded Cholesky factor of the ``(n, lam)`` system."""
    factor = cholesky_banded(_banded_system(n, lam), check_finite=False)
    factor.setflags(write=False)
    return factor


def detrend_cache_info() -> Any:
    """Hit/miss statistics of the factorization cache (for tests/benches)."""
    return _banded_cholesky.cache_info()


def clear_detrend_cache() -> None:
    """Drop every cached factorization (used by parity tests)."""
    _banded_cholesky.cache_clear()


def warm_detrend_factor(n: int, lam: float = 50.0) -> None:
    """Prime the factorization cache for signals of length ``n``.

    Factorizing the pentadiagonal system is the dominant first-call
    cost of detrending a new signal length (~1 ms at paper shapes);
    warmup paths call this so the first real probe pays only the
    backsubstitution.
    """
    lam = _validate_lam(lam)
    if n < 3:
        raise SignalError(f"detrending needs at least 3 samples, got {n}")
    _banded_cholesky(int(n), lam)


# Lazy memo for the resolved LAPACK routine. The unlocked write below
# is a benign race: every racing thread resolves and stores the
# identical function object, and CPython publishes the reference
# atomically — so the memo is thread-safe without a lock.
_pbtrs = None  # concurrency: thread-safe


def _solve_trend(rows: np.ndarray, lam: float) -> np.ndarray:
    """Solve ``A x = b`` for every row of ``rows`` in one banded call.

    Issues the LAPACK ``pbtrs`` backsubstitution that
    ``scipy.linalg.cho_solve_banded`` wraps, against the cached factor,
    minus the wrapper's per-call validation; the values are
    bit-identical to ``cho_solve_banded`` (pinned by
    ``tests/signal/test_detrend.py``). ``rows`` is not modified.

    Args:
        rows: float64 right-hand sides, shape ``(n,)`` or ``(m, n)``.
        lam: regularization parameter (validated by the caller).

    Returns:
        The solutions, same shape as ``rows``; a 2-D result is the
        transposed view of LAPACK's column-major output.
    """
    global _pbtrs
    factor = _banded_cholesky(rows.shape[-1], lam)
    if _pbtrs is None:
        from scipy.linalg import get_lapack_funcs

        (_pbtrs,) = get_lapack_funcs(("pbtrs",), (factor, rows))
    solved, info = _pbtrs(factor, rows.T, lower=False)
    if info != 0:  # pragma: no cover - factor is known positive-definite
        raise SignalError(f"banded backsubstitution failed (info={info})")
    return solved.T


def estimate_trend(samples: np.ndarray, lam: float = 50.0) -> np.ndarray:
    """Estimate the smooth trend component of ``samples``.

    Args:
        samples: 1-D input signal.
        lam: regularization parameter lambda; larger values produce a
            smoother (slower) trend estimate.

    Returns:
        The trend, same length as the input.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise SignalError(f"expected a 1-D signal, got shape {samples.shape}")
    lam = _validate_lam(lam)
    if samples.size < 3:
        raise SignalError(f"detrending needs at least 3 samples, got {samples.size}")
    return _solve_trend(samples, lam)


def _estimate_trend_reference(samples: np.ndarray, lam: float = 50.0) -> np.ndarray:
    """Pre-banded reference: generic sparse LU solve of the same system.

    Kept verbatim from the original implementation as the parity
    baseline for :func:`estimate_trend`; roughly 60x slower at paper
    shapes because it rebuilds and refactors the sparse system on every
    call.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise SignalError(f"expected a 1-D signal, got shape {samples.shape}")
    lam = _validate_lam(lam)
    n = samples.size
    d2 = _second_difference(n)
    system = sparse.identity(n, format="csc") + (lam ** 2) * (d2.T @ d2)
    return spsolve(system, samples)


def smoothness_priors_detrend(samples: np.ndarray, lam: float = 50.0) -> np.ndarray:
    """Remove the smoothness-priors trend from ``samples`` (Eq. 2).

    2-D inputs are solved as one multi-RHS banded backsubstitution —
    all channels share the cached factorization.

    Args:
        samples: 1-D or 2-D ``(channels, n)`` input.
        lam: regularization parameter lambda.

    Returns:
        Detrended signal with the same shape as the input.
    """
    samples = np.asarray(samples, dtype=np.float64)
    lam = _validate_lam(lam)
    if samples.ndim not in (1, 2):
        raise SignalError(f"expected 1-D or 2-D input, got shape {samples.shape}")
    if samples.shape[-1] < 3:
        raise SignalError(
            f"detrending needs at least 3 samples, got {samples.shape[-1]}"
        )
    return samples - _solve_trend(samples, lam)
