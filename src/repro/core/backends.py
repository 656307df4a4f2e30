"""The registry backend: packed templates under a sharded directory.

:class:`ShardedPackedBackend` stores :mod:`repro.core.packing` blobs:
one small ``.p2u`` record per user under an N-way hashed shard
directory (bounded directory fan-out), and extractor blobs
content-addressed and written once in a shared ``extractors/`` store.
It satisfies the :class:`~repro.core.registry.RegistryBackend` protocol
(store / load / delete / user_ids / exists) and tolerates concurrent
calls, including for the same user id: every write is an atomic
``os.replace``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Union

from ..concurrency import checked_rlock
from ..errors import ConfigurationError, PersistenceError
from ..features import MiniRocket
from .authenticator import P2Auth
from .packing import (
    QUANT_DTYPES,
    PackedAuthenticator,
    decode_extractor,
    pack_authenticator,
    unpack_record,
)
from .registry import _USER_ID_RE, _check_user_id


class _ExtractorPool:  # concurrency: thread-safe
    """Fingerprint → decoded shared extractor, memoized per backend.

    A packed backend resolves every record's extractor references
    through one pool, so an extractor shared by a million users is
    decoded once per process no matter which user loads first. Decoding
    runs outside the lock (double-checked publish): two racing threads
    may both decode, one result wins via ``setdefault``.
    """

    def __init__(self) -> None:
        self._lock = checked_rlock("_ExtractorPool._lock")
        self._cache: Dict[str, MiniRocket] = {}  # guarded-by: _lock

    def resolve(
        self, fingerprint: str, build: Callable[[], MiniRocket]
    ) -> MiniRocket:
        with self._lock:
            rocket = self._cache.get(fingerprint)
        if rocket is not None:
            return rocket
        rocket = build()
        with self._lock:
            return self._cache.setdefault(fingerprint, rocket)

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)


def _write_atomic(path: Path, data: bytes, tmp_dir: Path) -> None:
    """Publish ``data`` at ``path`` via a same-filesystem ``os.replace``.

    Concurrent writers of the same path each publish a complete file;
    readers never observe a partial write. The temp directory lives
    inside the backend root so stray temp files can never collide with
    the backend's own globs.
    """
    fd, tmp_name = tempfile.mkstemp(dir=tmp_dir)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


class ShardedPackedBackend:  # concurrency: thread-safe
    """Packed per-user records under an N-way hashed shard directory.

    Layout::

        root/backend.json          # n_shards + dtype manifest
        root/shards/0042/<user>.p2u
        root/extractors/<fp>.p2x   # content-addressed, write-once
        root/.tmp/                 # atomic-replace staging

    The shard of a user is a stable hash of the id, so ``n_shards`` is
    fixed at creation and adopted from the manifest on reopen —
    constructor arguments only apply to a fresh root. All operations
    are lock-free over atomic filesystem primitives; same-id races
    resolve to one complete winner via ``os.replace``.

    Args:
        root: backend directory (created if missing).
        n_shards: directory fan-out for a fresh root.
        dtype: packing dtype for a fresh root — see
            :data:`~repro.core.packing.QUANT_DTYPES`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        n_shards: int = 64,
        dtype: str = "float32",
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if dtype not in QUANT_DTYPES:
            raise ConfigurationError(
                f"unknown packing dtype {dtype!r}; expected one of "
                f"{sorted(QUANT_DTYPES)}"
            )
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._tmp = self._root / ".tmp"
        self._tmp.mkdir(exist_ok=True)
        self._ext_dir = self._root / "extractors"
        self._ext_dir.mkdir(exist_ok=True)
        manifest = self._root / "backend.json"
        if manifest.exists():
            stored = json.loads(manifest.read_text())
            if stored.get("format") != "p2auth-sharded":
                raise ConfigurationError(
                    f"{manifest} is not a sharded packed backend manifest"
                )
            self._n_shards = int(stored["n_shards"])
            self._dtype = str(stored["dtype"])
        else:
            self._n_shards = n_shards
            self._dtype = dtype
            _write_atomic(
                manifest,
                json.dumps(
                    {
                        "format": "p2auth-sharded",
                        "version": 1,
                        "n_shards": n_shards,
                        "dtype": dtype,
                    },
                    sort_keys=True,
                ).encode("utf-8"),
                self._tmp,
            )
        self._extractors = _ExtractorPool()

    @property
    def dtype(self) -> str:
        return self._dtype

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def _shard_dir(self, user_id: str) -> Path:
        digest = hashlib.blake2b(
            user_id.encode("utf-8"), digest_size=8
        ).digest()
        shard = int.from_bytes(digest, "big") % self._n_shards
        return self._root / "shards" / f"{shard:04d}"

    def _path(self, user_id: str) -> Path:
        return self._shard_dir(_check_user_id(user_id)) / f"{user_id}.p2u"

    def store(self, user_id: str, auth: P2Auth) -> None:
        """Pack and persist one enrolled authenticator."""
        self.store_packed(user_id, pack_authenticator(auth, self._dtype))

    def store_packed(self, user_id: str, packed: PackedAuthenticator) -> None:
        """Persist an already-packed template (bulk-enrollment path).

        Extractor blobs are content-addressed: a fingerprint already on
        disk is skipped, so materializing a population that shares one
        :class:`~repro.core.negatives.NegativeBank` writes the
        extractor exactly once.
        """
        path = self._path(user_id)
        for fingerprint, blob in packed.extractors.items():
            ext_path = self._ext_dir / f"{fingerprint}.p2x"
            if not ext_path.exists():
                _write_atomic(ext_path, blob, self._tmp)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, packed.record, self._tmp)

    def _resolve_extractor(self, fingerprint: str) -> MiniRocket:
        def build() -> MiniRocket:
            ext_path = self._ext_dir / f"{fingerprint}.p2x"
            try:
                return decode_extractor(ext_path.read_bytes())
            except FileNotFoundError:
                raise PersistenceError(
                    f"extractor blob {fingerprint} is missing from "
                    f"{self._ext_dir}"
                ) from None

        return self._extractors.resolve(fingerprint, build)

    def load(self, user_id: str) -> P2Auth:
        """Reload a stored authenticator (KeyError when absent)."""
        try:
            record = self._path(user_id).read_bytes()
        except FileNotFoundError:
            raise KeyError(user_id) from None
        return unpack_record(record, self._resolve_extractor)

    def delete(self, user_id: str) -> None:
        """Forget a stored user (no-op when absent)."""
        self._path(user_id).unlink(missing_ok=True)

    def exists(self, user_id: str) -> bool:
        """Whether ``user_id`` is stored, without loading any model."""
        if not _USER_ID_RE.match(user_id):
            return False
        return self._path(user_id).exists()

    def __contains__(self, user_id: str) -> bool:
        return self.exists(user_id)

    def user_ids(self) -> List[str]:
        """All stored user ids."""
        return sorted(
            p.stem
            for p in self._root.glob("shards/*/*.p2u")
            if _USER_ID_RE.match(p.stem)
        )

    def size_bytes(self) -> int:
        """Total bytes on disk: records + shared extractors + manifest."""
        return sum(
            p.stat().st_size for p in self._root.rglob("*") if p.is_file()
        )


__all__ = ["ShardedPackedBackend"]
