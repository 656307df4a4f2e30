"""Process-pool fan-out for the evaluation protocol.

The experiment runners spend nearly all of their time in independent
``evaluate_user`` calls — one per (victim, grid point). ``parallel_map``
spreads such calls over a ``concurrent.futures`` process pool while
keeping three properties the runners rely on:

- **Determinism** — results come back in input order, and every task is
  a pure function of picklable arguments (:class:`repro.data.StudyData`
  regenerates trials from per-key seeds, so workers reproduce the exact
  trials of the parent process). A parallel run therefore produces the
  same rows as a serial one.
- **Serial fallback** — ``n_jobs=1`` never touches multiprocessing, and
  pickling-hostile tasks or broken/unsupported pool environments fall
  back to an in-process loop instead of failing.
- **Explicit opt-in** — the worker count comes from an explicit
  ``n_jobs`` argument (CLI ``--jobs``), then the ``REPRO_N_JOBS``
  environment variable, then defaults to 1.

Each worker process runs BLAS on one thread (:mod:`repro.blas`): the
workers already fill the cores, and a worker's OpenBLAS helpers would
only busy-wait beside them.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from ..blas import set_blas_threads
from ..errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
N_JOBS_ENV = "REPRO_N_JOBS"

#: Exceptions that demote a parallel run to the serial fallback rather
#: than failing: unpicklable tasks, a pool that died, or a platform
#: where multiprocessing primitives are unavailable.
_FALLBACK_ERRORS = (
    pickle.PicklingError,
    AttributeError,
    TypeError,
    BrokenProcessPool,
    NotImplementedError,
    PermissionError,
    OSError,
)


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit value, then env var, then 1.

    Args:
        n_jobs: requested worker count; ``None`` consults
            ``REPRO_N_JOBS``. ``0`` means "all cores" (matching the CLI
            ``--jobs`` contract).

    Returns:
        A worker count >= 1.

    Raises:
        ConfigurationError: on a negative count or a ``REPRO_N_JOBS``
            value that does not parse as an integer — both are operator
            mistakes that should fail loudly instead of silently
            changing the fan-out.
    """
    source = "n_jobs"
    if n_jobs is None:
        raw = os.environ.get(N_JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{N_JOBS_ENV} must be an integer, got {raw!r}"
            )
        source = N_JOBS_ENV
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        return os.cpu_count() or 1
    if n_jobs < 0:
        raise ConfigurationError(
            f"{source} must be >= 0 (0 = all cores), got {n_jobs}"
        )
    return n_jobs


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    n_jobs: Optional[int] = None,
    chunksize: int = 1,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Args:
        fn: a picklable callable (workers re-import it by reference).
        items: the inputs; consumed eagerly.
        n_jobs: worker processes (see :func:`resolve_n_jobs`);
            1 runs serially in-process.
        chunksize: tasks dispatched to a worker per round. Each worker
            process owns a :func:`repro.eval.featurecache.default_cache`
            of its own, so grouping the tasks that share a third-party
            store (e.g. all victims of one grid point) into one chunk
            keeps those tasks on one worker and turns the store-side
            work into cache hits. Purely a scheduling hint — results
            are identical for any value.

    Returns:
        ``[fn(item) for item in items]``, in input order.
    """
    items = list(items)
    n_jobs = resolve_n_jobs(n_jobs)
    if chunksize < 1:
        raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
    if n_jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(items)),
            initializer=set_blas_threads,
            initargs=(1,),
        ) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    except _FALLBACK_ERRORS:
        return [fn(item) for item in items]


def run_tasks(
    tasks: Sequence[Callable[[], R]],
    n_jobs: Optional[int] = None,
    chunksize: int = 1,
) -> List[R]:
    """Run a list of zero-argument callables, optionally in parallel.

    A convenience over :func:`parallel_map` for heterogeneous task
    lists (e.g. ``functools.partial`` objects binding different grid
    points): each task must itself be picklable. ``chunksize`` is
    forwarded to :func:`parallel_map`.
    """
    return parallel_map(_call, tasks, n_jobs=n_jobs, chunksize=chunksize)


def _call(task: Callable[[], R]) -> R:
    return task()
