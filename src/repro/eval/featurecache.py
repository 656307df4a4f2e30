"""Content-keyed caching of store-side preprocessing and featurization.

The evaluation protocol enrolls every victim of a grid point against
the *same* third-party store, yet the store trials used to be
preprocessed — and their negative features extracted — once per victim.
This module memoizes both stages behind content keys, so the cost is
paid once per distinct ``(store trials, pipeline config, feature
options)`` combination and every later victim gets the cached result:

* :meth:`FeatureCache.preprocess` — a cached front-end for
  :func:`repro.core.pipeline.preprocess_trials`, keyed per trial on the
  raw samples, events, and pipeline config.
* :meth:`FeatureCache.negative_bank` — a cached front-end for
  :func:`repro.core.negatives.build_negative_bank`, keyed on the whole
  store's content plus the feature-relevant enrollment options.

Keys are BLAKE2b digests of the actual trial *content* (sample bytes,
keystroke events, metadata), not object identities — two trials
generated from the same seed hash identically even across processes,
which is what makes the cache valid inside the parallel experiment
fan-out: each worker owns a :func:`default_cache` instance of its own,
and regenerated trials hit it just as the originals would.

Both levels are bounded LRUs. Cached :class:`PreprocessedTrial` arrays
are frozen (``writeable=False``) because they are shared between every
consumer of a cache hit.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..concurrency import checked_rlock
from ..config import PipelineConfig
from ..core.models import EnrollmentOptions
from ..core.negatives import NegativeBank, build_negative_bank
from ..core.pipeline import PreprocessedTrial, preprocess_trials
from ..types import PinEntryTrial

#: Environment variable that disables negative-bank sharing (set to
#: "0"/"false"/"off") without touching call sites.
SHARE_NEGATIVES_ENV = "REPRO_SHARE_NEGATIVES"

#: Default LRU capacities. A SMOKE-scale grid point touches ~30 distinct
#: trials; the PAPER scale a few thousand. Banks are ~one per grid
#: point. Both bounds exist to cap worker memory, not to be hit often.
MAX_CACHED_TRIALS = 4096
MAX_CACHED_BANKS = 64


def sharing_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the negative-sharing switch.

    An explicit ``flag`` wins; otherwise sharing defaults to on unless
    ``REPRO_SHARE_NEGATIVES`` is set to a falsy string.
    """
    if flag is not None:
        return flag
    value = os.environ.get(SHARE_NEGATIVES_ENV, "1").strip().lower()
    return value not in ("0", "false", "no", "off")


def _hash_trial(h: "hashlib._Hash", trial: PinEntryTrial) -> None:
    """Feed one trial's content into a running digest."""
    recording = trial.recording
    h.update(np.ascontiguousarray(recording.samples).tobytes())
    h.update(
        repr(
            (
                recording.fs,
                recording.start_time,
                trial.pin,
                trial.user_id,
                trial.one_handed,
            )
        ).encode()
    )
    for event in trial.events:
        h.update(
            repr(
                (event.key, event.true_time, event.reported_time, event.hand)
            ).encode()
        )


def trial_content_key(trial: PinEntryTrial, config: PipelineConfig) -> str:
    """Digest of one trial's content plus the preprocessing config."""
    h = hashlib.blake2b(digest_size=16)
    _hash_trial(h, trial)
    h.update(repr(config).encode())
    return h.hexdigest()


def store_content_key(
    trials: Sequence[PinEntryTrial],
    config: PipelineConfig,
    options: EnrollmentOptions,
) -> str:
    """Digest of a whole store plus every bank-relevant option."""
    h = hashlib.blake2b(digest_size=16)
    for trial in trials:
        _hash_trial(h, trial)
    h.update(repr(config).encode())
    h.update(
        repr(
            (
                options.feature_method,
                options.num_features,
                options.seed,
                options.full_window,
                options.full_margin,
                options.privacy_boost,
            )
        ).encode()
    )
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`FeatureCache`."""

    trial_hits: int = 0
    trial_misses: int = 0
    bank_hits: int = 0
    bank_misses: int = 0

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum (for aggregating per-worker stats)."""
        return CacheStats(
            trial_hits=self.trial_hits + other.trial_hits,
            trial_misses=self.trial_misses + other.trial_misses,
            bank_hits=self.bank_hits + other.bank_hits,
            bank_misses=self.bank_misses + other.bank_misses,
        )

    def copy(self) -> "CacheStats":
        """An independent snapshot of the counters."""
        return CacheStats(
            trial_hits=self.trial_hits,
            trial_misses=self.trial_misses,
            bank_hits=self.bank_hits,
            bank_misses=self.bank_misses,
        )


def _freeze(preprocessed: PreprocessedTrial) -> PreprocessedTrial:
    """Make a cached trial's arrays read-only; hits share these objects."""
    preprocessed.filtered.setflags(write=False)
    preprocessed.detrended.setflags(write=False)
    preprocessed.reference.setflags(write=False)
    return preprocessed


class FeatureCache:
    """Two-level LRU over preprocessed trials and negative banks.

    Thread-safe: both LRUs, and the counters, live behind one internal
    reentrant lock. Lookups and publications are locked; the expensive
    preprocessing/bank-building itself runs *outside* the lock, so a
    slow miss never stalls concurrent hits. Two threads missing the
    same key may both compute it — the content-keyed results are
    identical, and the first publication wins.
    """

    def __init__(
        self,
        max_trials: int = MAX_CACHED_TRIALS,
        max_banks: int = MAX_CACHED_BANKS,
    ) -> None:
        self._max_trials = max_trials
        self._max_banks = max_banks
        self._lock = checked_rlock("FeatureCache._lock")
        self._trials: "OrderedDict[str, PreprocessedTrial]" = OrderedDict()  # guarded-by: _lock
        self._banks: "OrderedDict[str, NegativeBank]" = OrderedDict()  # guarded-by: _lock
        self._stats = CacheStats()  # guarded-by: _lock

    @property
    def stats(self) -> CacheStats:
        """A point-in-time snapshot of the hit/miss counters."""
        with self._lock:
            return self._stats.copy()

    def preprocess(
        self,
        trials: Sequence[PinEntryTrial],
        config: Optional[PipelineConfig] = None,
    ) -> List[PreprocessedTrial]:
        """Cached :func:`preprocess_trials`.

        Misses are preprocessed outside the lock, one trial at a time;
        hits are returned from the LRU untouched.
        """
        if config is None:
            config = PipelineConfig()
        keys = [trial_content_key(trial, config) for trial in trials]
        out: Dict[int, PreprocessedTrial] = {}
        missing: List[int] = []
        with self._lock:
            for idx, key in enumerate(keys):
                cached = self._trials.get(key)
                if cached is not None:
                    self._trials.move_to_end(key)
                    self._stats.trial_hits += 1
                    out[idx] = cached
                else:
                    self._stats.trial_misses += 1
                    missing.append(idx)
        if missing:
            # Preprocessing runs unlocked; only the publication is
            # locked, re-checking so a racing filler's entry stays
            # canonical (the content key guarantees equal values).
            fresh = preprocess_trials([trials[idx] for idx in missing], config)
            with self._lock:
                for idx, pre in zip(missing, fresh):
                    existing = self._trials.get(keys[idx])
                    if existing is not None:
                        out[idx] = existing
                        continue
                    frozen = _freeze(pre)
                    out[idx] = frozen
                    self._trials[keys[idx]] = frozen
                    while len(self._trials) > self._max_trials:
                        self._trials.popitem(last=False)
        return [out[idx] for idx in range(len(keys))]

    def negative_bank(
        self,
        trials: Sequence[PinEntryTrial],
        config: Optional[PipelineConfig] = None,
        options: Optional[EnrollmentOptions] = None,
    ) -> NegativeBank:
        """Cached :func:`build_negative_bank` over a third-party store."""
        if config is None:
            config = PipelineConfig()
        if options is None:
            options = EnrollmentOptions()
        key = store_content_key(trials, config, options)
        with self._lock:
            cached = self._banks.get(key)
            if cached is not None:
                self._banks.move_to_end(key)
                self._stats.bank_hits += 1
                return cached
            self._stats.bank_misses += 1
        preprocessed = self.preprocess(trials, config)
        bank = build_negative_bank(
            trials, config, options, preprocessed=preprocessed
        )
        with self._lock:
            existing = self._banks.get(key)
            if existing is not None:
                return existing
            self._banks[key] = bank
            while len(self._banks) > self._max_banks:
                self._banks.popitem(last=False)
        return bank

    def clear(self) -> None:
        """Drop every cached entry and reset the counters."""
        with self._lock:
            self._trials.clear()
            self._banks.clear()
            self._stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._trials) + len(self._banks)


_DEFAULT_CACHE_LOCK = threading.Lock()
_DEFAULT_CACHE: Optional[FeatureCache] = None  # guarded-by: _DEFAULT_CACHE_LOCK


def default_cache() -> FeatureCache:
    """The process-wide cache instance (one per evaluation worker).

    Locked lazy init: the old check-then-set let two racing threads
    build two caches and split every later hit between them.
    """
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = FeatureCache()
        return _DEFAULT_CACHE


def clear_default_cache() -> None:
    """Reset the process-wide cache (tests and benchmarks)."""
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        _DEFAULT_CACHE = None


def cache_stats() -> CacheStats:
    """Counters of the process-wide cache (zeros if never used)."""
    with _DEFAULT_CACHE_LOCK:
        cache = _DEFAULT_CACHE
    if cache is None:
        return CacheStats()
    return cache.stats
