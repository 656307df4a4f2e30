"""Near-miss patterns for every rule: reprolint must stay silent here."""

import random
import threading
from typing import List, Optional

import numpy as np


# RL001 near-misses: explicit None checks, non-parameter names, or a
# name (not a literal/call) on the right-hand side.
def explicit_none(config=None):
    if config is None:
        config = dict()
    return config


def conditional_expr(options=None):
    return options if options is not None else tuple()


def local_not_param():
    first = ""
    name = first or "anon"
    return name


def name_fallback(primary=None, backup=None):
    return primary or backup


# RL002 near-misses: seeded constructors and generator methods.
def seeded(n: int) -> np.ndarray:
    rng = np.random.default_rng(1234)
    return rng.normal(0.0, 1.0, size=n)


def seeded_stack(seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(size=3)


def seeded_stdlib(seed: int) -> float:
    return random.Random(seed).random()


def spawned(seed: int) -> list:
    return np.random.SeedSequence(seed).spawn(4)


# RL003 near-misses: size/None tests, and list truthiness is fine.
def explicit_tests(arr: Optional[np.ndarray], items: List[int]) -> bool:
    if arr is None:
        return False
    if arr.size == 0:
        return False
    if items:
        return True
    return bool(arr.any())


# RL004 near-misses: immutable defaults.
def immutable(pair=(1, 2), label="x", frozen=frozenset()):
    return pair, label, frozen


# RL005 near-misses: int equality and tolerance-based comparisons.
def int_equality(count: int) -> bool:
    return count == 1


def tolerant(x: float) -> bool:
    return abs(x - 1.5) < 1e-9


# RL006 near-misses: narrow handler, logged handler, re-raise.
def narrow(fn):
    try:
        return fn()
    except ValueError:
        return None


def reported(fn, log):
    try:
        return fn()
    except Exception as exc:
        log.warning("failed: %s", exc)
        return None


def reraised(fn):
    try:
        return fn()
    except Exception as exc:
        raise RuntimeError("wrapped") from exc


# RL009 near-misses: annotated bindings and immutable constants.
_LIMITS = {"max_retries": 3}  # concurrency: immutable-after-init
_EDGES = (1, 2, 3)
_STATE_LOCK = threading.Lock()
_STATE = None  # guarded-by: _STATE_LOCK


# RL010/RL012 near-misses: guarded access under its lock, the expensive
# build outside, publication under a re-check.
def get_state(build):
    built = build()
    global _STATE
    with _STATE_LOCK:
        if _STATE is None:
            _STATE = built
        return _STATE


# RL011 near-miss: a thread-hostile instance that stays confined.
class _PerStream:  # concurrency: thread-hostile
    def __init__(self):
        self.tail = []


def confined_use(chunks):
    stream = _PerStream()
    for chunk in chunks:
        stream.tail.append(chunk)
    return stream.tail


# RL012 near-miss: a with-block that is not a lock.
def read_config(path):
    with open(path) as fh:
        return fh.read()
