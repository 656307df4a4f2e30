"""Bulk enrollment of simulated populations for registry benchmarks.

Materializing a 10k–1M-user registry by running the full enrollment
pipeline once per user would take days; it would also prove nothing new
about storage, because every enrollment under the same options produces
a template with the same byte footprint. This module splits the work
honestly:

- :func:`enroll_templates` runs the *real* pipeline — synthesis,
  preprocessing, MiniRocket fitting, ridge training — for a handful of
  distinct simulated users, fanned out over the process pool
  (:func:`repro.eval.parallel.parallel_map`), and packs each result.
- :func:`materialize_population` replicates those packed templates
  round-robin under distinct user ids through
  :meth:`~repro.core.backends.ShardedPackedBackend.store_packed`,
  skipping the (per-user identical) enrollment compute while
  exercising the exact storage path every record of a real population
  would take.

Benchmark numbers built on top measure storage and load behavior —
bytes per user, cold-load latency, index scale — which depend only on
the packed record layout, not on whose coefficients fill it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Optional

from ..core import EnrollmentOptions, P2Auth, ShardedPackedBackend
from ..core.packing import PackedAuthenticator, pack_authenticator
from ..data import StudyData, ThirdPartyStore
from ..errors import ConfigurationError
from .parallel import parallel_map


@dataclass(frozen=True)
class TemplateJob:
    """One picklable template-enrollment task.

    Attributes:
        index: template index; perturbs the simulation seed so each
            template belongs to a distinct simulated user.
        num_features: MiniRocket feature budget.
        seed: base simulation seed.
        pin: the PIN every simulated user enrolls with.
        dtype: packing dtype (see :mod:`repro.core.packing`).
        n_study_users: simulated cohort size per job (user 0 enrolls,
            the rest donate third-party negatives).
        n_enroll: enrollment trials for the legitimate user.
        n_negatives: third-party negative samples.
    """

    index: int
    num_features: int = 840
    seed: int = 0
    pin: str = "1628"
    dtype: str = "float32"
    n_study_users: int = 5
    n_enroll: int = 7
    n_negatives: int = 24


def build_template(job: TemplateJob) -> PackedAuthenticator:
    """Enroll one simulated user end-to-end and pack the result.

    Top-level and a pure function of the picklable ``job`` — trials
    regenerate from seeds and the PIN salt derives from the job — so it
    can run in a worker process and parallel runs are byte-identical to
    serial ones.
    """
    study = StudyData(
        n_users=job.n_study_users, seed=job.seed + 101 * job.index
    )
    enroll = study.trials(0, job.pin, "one_handed", job.n_enroll)
    store = ThirdPartyStore(
        study, list(range(1, job.n_study_users)), job.pin
    )
    salt = hashlib.blake2b(
        f"template:{job.seed}:{job.index}".encode("utf-8"), digest_size=16
    ).digest()
    auth = P2Auth(
        pin=job.pin,
        options=EnrollmentOptions(num_features=job.num_features),
        salt=salt,
    )
    auth.enroll(enroll, store.sample(job.n_negatives))
    return pack_authenticator(auth, dtype=job.dtype)


def enroll_templates(
    n_templates: int,
    *,
    num_features: int = 840,
    seed: int = 0,
    pin: str = "1628",
    dtype: str = "float32",
    n_jobs: Optional[int] = None,
) -> List[PackedAuthenticator]:
    """Enroll ``n_templates`` distinct simulated users in parallel.

    Each template runs the full enrollment pipeline for its own
    simulated user (seed-perturbed cohorts), fanned out over the
    process pool. Results come back in template order.
    """
    if n_templates < 1:
        raise ConfigurationError(
            f"n_templates must be >= 1, got {n_templates}"
        )
    base = TemplateJob(
        index=0, num_features=num_features, seed=seed, pin=pin, dtype=dtype
    )
    jobs = [replace(base, index=i) for i in range(n_templates)]
    return parallel_map(build_template, jobs, n_jobs=n_jobs)


def materialize_population(
    backend: ShardedPackedBackend,
    n_users: int,
    templates: List[PackedAuthenticator],
    *,
    prefix: str = "u",
) -> List[str]:
    """Store ``n_users`` packed records, cycling over ``templates``.

    Goes through the backend's ``store_packed`` fast path —
    replication through full re-packing would bottleneck on
    serialization instead of storage. User ids are ``{prefix}0000000``
    … zero-padded to seven digits so listings sort numerically.

    Returns:
        The stored user ids, in storage order.
    """
    if n_users < 1:
        raise ConfigurationError(f"n_users must be >= 1, got {n_users}")
    if not templates:
        raise ConfigurationError("templates must be non-empty")
    user_ids: List[str] = []
    for i in range(n_users):
        user_id = f"{prefix}{i:07d}"
        backend.store_packed(user_id, templates[i % len(templates)])
        user_ids.append(user_id)
    return user_ids


__all__ = [
    "TemplateJob",
    "build_template",
    "enroll_templates",
    "materialize_population",
]
