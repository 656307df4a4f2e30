"""On-demand build and loading of the compiled MiniRocket kernel.

``minirocket_kernel.c`` is compiled into a shared library with the
system C compiler the first time it is needed and cached next to the
package (``_build/``, keyed by a source/flags digest, so edits
invalidate the cache).  Everything here is best-effort: any failure —
no compiler, read-only package directory, unsupported flags — simply
disables the fast path and :mod:`repro.features.minirocket` falls back
to the NumPy engine.  No build tooling is required at install time.

The compile flags matter for correctness, not just speed:
``-ffp-contract=off`` forbids fused multiply-adds and ``-ffast-math``
is never used, so the kernel's floating-point results are bit-identical
to the NumPy reference loop (asserted by the parity tests).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading
from pathlib import Path
from typing import List, Optional

import numpy as np

_SOURCE = Path(__file__).with_name("minirocket_kernel.c")
_BUILD_DIR = Path(__file__).with_name("_build")

#: Compilers and flag sets to try, most specific first.  -march=native
#: lets gcc vectorize the compare/count loops with whatever SIMD the
#: host has; the plain -O3 fallback still beats NumPy comfortably.
_COMPILERS = ("cc", "gcc", "clang")
_FLAG_SETS = (
    ["-O3", "-march=native", "-ffp-contract=off", "-funroll-loops"],
    ["-O3", "-ffp-contract=off", "-funroll-loops"],
    ["-O3", "-ffp-contract=off"],
)

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None  # guarded-by: _lock
_failed = False  # guarded-by: _lock


def _try_compile(so_path: Path) -> bool:
    source = str(_SOURCE)
    for compiler in _COMPILERS:
        for flags in _FLAG_SETS:
            tmp = so_path.with_name(so_path.name + f".tmp{os.getpid()}")
            cmd = [compiler, *flags, "-shared", "-fPIC", "-o", str(tmp), source]
            try:
                result = subprocess.run(
                    cmd,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                    timeout=120,
                )
            except (OSError, subprocess.SubprocessError):
                continue
            if result.returncode == 0 and tmp.exists():
                os.replace(tmp, so_path)
                return True
            tmp.unlink(missing_ok=True)
    return False


def _build_digest() -> str:
    payload = _SOURCE.read_bytes() + repr(_FLAG_SETS).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _failed
    # Double-checked fast path: the unlocked reads race the locked
    # writer benignly — a stale None only sends the caller into the
    # locked slow path, and CPython publishes the CDLL reference
    # atomically.
    # reprolint: disable-next=RL010 -- double-checked fast path; stale read falls through to the lock
    if _lib is not None or _failed:
        return _lib  # reprolint: disable=RL010 -- same double-checked fast path
    with _lock:
        if _lib is not None or _failed:
            return _lib
        try:
            so_path = _BUILD_DIR / f"minirocket_kernel-{_build_digest()}.so"
            if not so_path.exists():
                _BUILD_DIR.mkdir(exist_ok=True)
                # reprolint: disable-next=RL012 -- this lock exists to serialize the one-off build; the authenticate path never takes it
                if not _try_compile(so_path):
                    _failed = True
                    return None
            # reprolint: disable-next=RL012 -- one-off dlopen under the build lock, same contract as the compile above
            lib = ctypes.CDLL(str(so_path))
            f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
            i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
            c_i64 = ctypes.c_int64
            lib.mr_transform.restype = ctypes.c_int
            lib.mr_transform.argtypes = [
                f64, c_i64, c_i64, c_i64,  # x, n, channels, length
                i64, i64, c_i64,           # dilations, nfeat, ndil
                f64, f64, c_i64,           # biases, out, total_features
            ]
            _lib = lib
        # Intended silent fallback: any build/load failure demotes to the
        # pure-NumPy engine; minirocket.warm_engine reports which engine
        # serves, so the demotion stays visible to callers that ask.
        # reprolint: disable-next=RL006 -- fallback to NumPy engine is the contract
        except Exception:
            _failed = True
            _lib = None
        return _lib


def available() -> bool:
    """True when the compiled kernel could be built and loaded."""
    return _load() is not None


class TransformPlan:
    """Pre-marshalled ``mr_transform`` arguments for repeated calls.

    Building one converts the dilation/bias arrays into the contiguous
    int64 and float64 layouts the C entry point expects, once;
    :func:`transform_prepared` then only has to hand pointers to
    ctypes.  Plans hold no state about the input batch, so one plan
    serves any ``(n, channels, length)`` matching the fitted extractor.
    """

    __slots__ = ("dilations", "features_per_dilation", "flat_biases",
                 "n_features_out", "n_dilations")

    def __init__(
        self,
        dilations: np.ndarray,
        features_per_dilation: np.ndarray,
        flat_biases: np.ndarray,
        n_features_out: int,
    ) -> None:
        self.dilations = dilations
        self.features_per_dilation = features_per_dilation
        self.flat_biases = flat_biases
        self.n_features_out = int(n_features_out)
        self.n_dilations = len(dilations)


def prepare(
    dilations: np.ndarray,
    features_per_dilation: np.ndarray,
    biases: List[List[np.ndarray]],
    n_features_out: int,
) -> Optional[TransformPlan]:
    """Build a :class:`TransformPlan`; ``None`` when the kernel is absent.

    Triggers the on-demand compile if it has not happened yet, so this
    doubles as the warmup entry point for the compiled engine.
    """
    if _load() is None:
        return None
    return TransformPlan(
        dilations=np.ascontiguousarray(dilations, dtype=np.int64),
        features_per_dilation=np.ascontiguousarray(
            features_per_dilation, dtype=np.int64
        ),
        flat_biases=np.ascontiguousarray(
            np.concatenate([b.ravel() for channel in biases for b in channel])
        ),
        n_features_out=n_features_out,
    )


def transform_prepared(plan: TransformPlan, x: np.ndarray) -> Optional[np.ndarray]:
    """Run the compiled transform through a prepared plan.

    Args:
        plan: result of :func:`prepare`.
        x: C-contiguous float64 input, shape ``(n, channels, length)``.

    Returns the ``(n, plan.n_features_out)`` features, or ``None`` if
    the kernel is unavailable or reports failure.
    """
    lib = _load()
    if lib is None:
        return None
    n, channels, length = x.shape
    out = np.empty((n, plan.n_features_out))
    status = lib.mr_transform(
        x, n, channels, length, plan.dilations, plan.features_per_dilation,
        plan.n_dilations, plan.flat_biases, out, plan.n_features_out,
    )
    if status != 0:
        return None
    return out
