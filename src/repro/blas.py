"""Thread count of the OpenBLAS builds loaded in this process.

NumPy and SciPy wheels each bundle an OpenBLAS of their own (NumPy 2.x
``libscipy_openblas64_``, SciPy ``libscipy_openblas``), and each starts
a pool of helper threads. A BLAS call large enough to split, such as
the ridge fit's ``xc @ xc.T`` or ``np.linalg.eigh``, wakes the helpers,
and they busy-wait through the rest of the caller's work and for about
0.1 s after it. For one enrollment that spin costs more CPU than the
training itself, and it takes cores from concurrent requests.

:func:`set_blas_threads` sets every loaded build to a thread count, by
ctypes calls into the builds listed in ``/proc/self/maps``. Builds
export their thread controls under one of a few names (the
scipy-openblas builds prefix them, 64-bit-integer builds add a ``64_``
suffix); :data:`_SYMBOLS` lists those tried. Where ``/proc`` is absent
or no OpenBLAS is loaded, both functions do nothing. The thread count
changes how a BLAS call is split across threads, not what it
computes: training at one thread is bit-identical to the default.

Call :func:`set_blas_threads` before BLAS work starts or between calls,
never while another thread is inside one.
"""

from __future__ import annotations

import ctypes
from typing import Callable, List, Optional, Tuple

from .errors import ConfigurationError

#: (getter, setter) export pairs, tried in this order in each build.
_SYMBOLS: Tuple[Tuple[str, str], ...] = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)

#: One build's (get, set) thread-count calls.
_Controls = Tuple[Callable[[], int], Callable[[int], None]]


def _loaded_builds() -> List[_Controls]:
    """The thread controls of every OpenBLAS build mapped right now."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {
                fields[5].rstrip()
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6 and "openblas" in fields[5].lower()
            }
    except OSError:
        return []
    builds: List[_Controls] = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was replaced on disk
            continue
        for getter, setter in _SYMBOLS:
            if hasattr(lib, getter) and hasattr(lib, setter):
                get, put = getattr(lib, getter), getattr(lib, setter)
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                builds.append((get, put))
                break
    return builds


def _current(builds: List[_Controls]) -> Optional[int]:
    return max(get() for get, _ in builds) if builds else None


def blas_threads() -> Optional[int]:
    """The largest thread count among the loaded OpenBLAS builds.

    ``None`` when no OpenBLAS build is loaded (or ``/proc`` is absent).
    """
    return _current(_loaded_builds())


def set_blas_threads(n: int) -> Optional[int]:
    """Run every loaded OpenBLAS build on ``n`` threads.

    Builds loaded after the call keep their own default. Returns the
    :func:`blas_threads` value from before the call (``None`` when no
    build is loaded), so ``set_blas_threads(previous)`` restores it.

    Raises:
        ConfigurationError: when ``n`` is below 1.
    """
    if n < 1:
        raise ConfigurationError(f"BLAS thread count must be >= 1, got {n}")
    builds = _loaded_builds()
    previous = _current(builds)
    for _, put in builds:
        put(n)
    return previous


__all__ = ["blas_threads", "set_blas_threads"]
