"""Packed binary templates: shared extractors, quantized per-user state.

The ``.npz`` format in :mod:`repro.core.persistence` re-stores the full
MiniRocket bias tables for every user at float64 — fine for one device,
ruinous for a million-user registry, where every user enrolled against
the same :class:`~repro.core.negatives.NegativeBank` carries an
identical copy of the shared extractor. This module splits a serialized
authenticator into:

- **extractor blobs** (magic ``P2EX``): the fitted MiniRocket state,
  always float64, content-addressed by a BLAKE2b fingerprint so each
  distinct extractor is stored *once per arena* no matter how many
  users reference it;
- **user records** (magic ``P2PK``): everything user-specific — ridge
  coefficient vector, scaler mean/scale, scalars, PIN digest, options —
  optionally quantized to float32 or float16.

Both blobs share one self-describing layout::

    magic(4) | version(u16) flags(u16) header_len(u32) | JSON header |
    pad-to-8 | 8-aligned C-contiguous array payloads

Array offsets in the header are relative to the payload base, so a
record can be decoded in place from any ``bytes``-like buffer — in
particular an ``mmap`` slice, where :func:`unpack_record` costs one
JSON parse plus zero-copy ``np.frombuffer`` views.

Quantization contract (verified by ``tests/core/test_packing.py`` and
the registry benchmark's parity section): float64 records reproduce
scores bit-identically; float32/float16 records must reproduce the
*decisions* of the standard probe battery exactly, with score drift
bounded by the documented tolerances in docs/performance.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, PersistenceError
from ..features import MiniRocket
from ..ml import RidgeClassifier, StandardScaler
from .authenticator import P2Auth
from .models import WaveformModel
from .persistence import (
    _require_rocket_ridge,
    authenticator_meta,
    restore_authenticator,
)

#: Format version written into every blob.
PACK_VERSION = 1

#: Magic prefix of a per-user record blob.
RECORD_MAGIC = b"P2PK"

#: Magic prefix of a shared-extractor blob.
EXTRACTOR_MAGIC = b"P2EX"

#: Supported quantization dtypes for per-user arrays.
QUANT_DTYPES: Dict[str, np.dtype] = {  # concurrency: immutable-after-init
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
    "float16": np.dtype(np.float16),
}

_PRELUDE = struct.Struct("<HHI")  # version, flags, header_len
_PRELUDE_LEN = 4 + _PRELUDE.size

Buffer = Union[bytes, bytearray, memoryview, mmap.mmap]


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _encode_blob(
    magic: bytes, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> bytes:
    """Serialize ``meta`` + named arrays into one self-describing blob."""
    payloads: List[np.ndarray] = []
    entries: List[Dict[str, Any]] = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _align8(offset)
        entries.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": array.nbytes,
            }
        )
        payloads.append(array)
        offset += array.nbytes
    header = json.dumps(
        {"meta": dict(meta), "arrays": entries}, sort_keys=True
    ).encode("utf-8")
    payload_base = _align8(_PRELUDE_LEN + len(header))
    blob = bytearray(payload_base + _align8(offset))
    blob[:4] = magic
    _PRELUDE.pack_into(blob, 4, PACK_VERSION, 0, len(header))
    blob[_PRELUDE_LEN:_PRELUDE_LEN + len(header)] = header
    for entry, array in zip(entries, payloads):
        start = payload_base + int(entry["offset"])
        blob[start:start + array.nbytes] = array.tobytes()
    return bytes(blob)


def _decode_blob(
    buf: Buffer, magic: bytes, base: int = 0
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Decode a blob at ``base`` into ``(meta, arrays)``.

    Arrays are zero-copy read-only views into ``buf`` whenever numpy
    allows it (always, for ``bytes`` and ``mmap`` buffers).
    """
    if bytes(buf[base:base + 4]) != magic:
        raise PersistenceError(
            f"bad blob magic {bytes(buf[base:base + 4])!r}; "
            f"expected {magic!r}"
        )
    version, _flags, header_len = _PRELUDE.unpack_from(buf, base + 4)
    if version != PACK_VERSION:
        raise PersistenceError(f"unsupported packed version: {version}")
    header_start = base + _PRELUDE_LEN
    header = json.loads(bytes(buf[header_start:header_start + header_len]))
    payload_base = base + _align8(_PRELUDE_LEN + header_len)
    arrays: Dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        count = math.prod(entry["shape"])
        arrays[entry["name"]] = np.frombuffer(
            buf,
            dtype=np.dtype(entry["dtype"]),
            count=count,
            offset=payload_base + int(entry["offset"]),
        ).reshape(entry["shape"])
    return header["meta"], arrays


def encode_extractor(rocket: MiniRocket) -> Tuple[str, bytes]:
    """Serialize a fitted extractor; returns ``(fingerprint, blob)``.

    The fingerprint is a BLAKE2b digest of the blob itself, so two
    extractors fingerprint equal exactly when their fitted state is
    byte-identical — the basis for content-addressed dedup in the
    packed backends.
    """
    header, arrays = rocket.get_state()
    blob = _encode_blob(EXTRACTOR_MAGIC, header, arrays)
    return hashlib.blake2b(blob, digest_size=16).hexdigest(), blob


def decode_extractor(blob: Buffer, base: int = 0) -> MiniRocket:
    """Rebuild a fitted :class:`MiniRocket` from an extractor blob."""
    meta, arrays = _decode_blob(blob, EXTRACTOR_MAGIC, base)
    return MiniRocket.from_state(meta, arrays)


def _quantize(array: np.ndarray, dtype: np.dtype, clamp_zero: bool) -> np.ndarray:
    """Cast a per-user vector down to the storage dtype.

    ``clamp_zero`` protects divisors (the scaler scale): values small
    enough to underflow to zero in the target dtype are clamped to its
    smallest normal so the reloaded transform never divides by zero.
    """
    quantized = np.asarray(array, dtype=np.float64).astype(dtype)
    if clamp_zero:
        # reprolint: disable-next=RL005 -- exact underflow sentinel, not a tolerance
        quantized[quantized == 0.0] = np.finfo(dtype).tiny
    return quantized


@dataclass(frozen=True)
class PackedAuthenticator:
    """One user's packed template plus the extractor blobs it references.

    Attributes:
        record: the ``P2PK`` user record.
        extractors: fingerprint → ``P2EX`` blob for every extractor the
            record's models reference. Backends store these
            content-addressed, so handing the same dict for many users
            writes each blob once.
    """

    record: bytes
    extractors: Dict[str, bytes]

    @property
    def record_nbytes(self) -> int:
        return len(self.record)


def pack_authenticator(auth: P2Auth, dtype: str = "float32") -> PackedAuthenticator:
    """Pack an enrolled authenticator into the shared-extractor format.

    Args:
        auth: the enrolled authenticator (rocket + ridge only, like
            :func:`~repro.core.persistence.save_authenticator`).
        dtype: storage dtype for the per-user vectors — one of
            ``"float64"`` (bit-exact), ``"float32"`` (default), or
            ``"float16"``.

    Raises:
        ConfigurationError: for an unknown ``dtype``.
        PersistenceError: for non-serializable model configurations.
    """
    if dtype not in QUANT_DTYPES:
        raise ConfigurationError(
            f"unknown packing dtype {dtype!r}; expected one of "
            f"{sorted(QUANT_DTYPES)}"
        )
    target = QUANT_DTYPES[dtype]
    models = auth.models  # raises EnrollmentError when not enrolled

    slots: List[Tuple[str, WaveformModel]] = []
    if models.full_model is not None:
        slots.append(("full", models.full_model))
    if models.fused_model is not None:
        slots.append(("fused", models.fused_model))
    for key, model in models.key_models.items():
        slots.append((f"key/{key}", model))

    extractors: Dict[str, bytes] = {}
    encoded: Dict[int, str] = {}  # id(rocket) -> fingerprint memo
    model_meta: Dict[str, Dict[str, Any]] = {}
    arrays: Dict[str, np.ndarray] = {}
    for slot, model in slots:
        _require_rocket_ridge(model, slot)
        rocket = model._rocket
        scaler: Optional[StandardScaler] = model._scaler
        clf: RidgeClassifier = model._classifier
        if rocket is None or scaler is None or clf.coef_ is None:
            raise PersistenceError(f"model {slot!r} is not fitted")
        fingerprint = encoded.get(id(rocket))
        if fingerprint is None:
            fingerprint, blob = encode_extractor(rocket)
            encoded[id(rocket)] = fingerprint
            extractors.setdefault(fingerprint, blob)
        arrays[f"{slot}/coef"] = _quantize(clf.coef_, target, clamp_zero=False)
        arrays[f"{slot}/scaler_mean"] = _quantize(
            scaler._mean, target, clamp_zero=False
        )
        arrays[f"{slot}/scaler_scale"] = _quantize(
            scaler._scale, target, clamp_zero=True
        )
        model_meta[slot] = {
            "extractor": fingerprint,
            "num_features": model.num_features,
            "seed": model.seed,
            "balanced": model.balanced,
            "intercept": float(clf.intercept_),
            "alpha": float(clf.alpha_),
            "alphas": list(clf.alphas),
        }

    meta = {
        "format": "p2auth-packed",
        "version": PACK_VERSION,
        "dtype": dtype,
        "auth": authenticator_meta(auth),
        "models": model_meta,
    }
    record = _encode_blob(RECORD_MAGIC, meta, arrays)
    return PackedAuthenticator(record=record, extractors=extractors)


def record_extractor_refs(buf: Buffer, base: int = 0) -> Tuple[str, ...]:
    """The extractor fingerprints a user record references.

    Lets a backend check blob availability (or garbage-collect
    extractors at compaction) without rebuilding any model.
    """
    meta, _arrays = _decode_blob(buf, RECORD_MAGIC, base)
    return tuple(
        sorted({m["extractor"] for m in meta["models"].values()})
    )


def unpack_record(
    buf: Buffer,
    resolve_extractor: Callable[[str], MiniRocket],
    base: int = 0,
) -> P2Auth:
    """Rebuild a ready-to-authenticate :class:`P2Auth` from a record.

    Args:
        buf: buffer holding a ``P2PK`` record at ``base`` — ``bytes``
            or an ``mmap``; arrays are served as zero-copy views in
            their stored dtype (NumPy widens float32/float16 exactly
            inside the scaler and ridge arithmetic, so scores equal a
            float64 copy's bit for bit).
        resolve_extractor: fingerprint → fitted shared extractor. The
            callable owns caching, so a warm pool makes unpacking a
            user O(per-user vectors) regardless of extractor size.
        base: byte offset of the record inside ``buf``.
    """
    meta, arrays = _decode_blob(buf, RECORD_MAGIC, base)
    if meta.get("format") != "p2auth-packed":
        raise PersistenceError("buffer is not a packed P2Auth record")

    unpacked: Dict[str, WaveformModel] = {}
    for slot, m in meta["models"].items():
        model = WaveformModel(
            feature_method="rocket",
            num_features=int(m["num_features"]),
            seed=int(m["seed"]),
            balanced=bool(m["balanced"]),
        )
        model._rocket = resolve_extractor(m["extractor"])
        scaler = StandardScaler()
        scaler._mean = arrays[f"{slot}/scaler_mean"]
        scaler._scale = arrays[f"{slot}/scaler_scale"]
        clf = RidgeClassifier(alphas=m["alphas"])
        clf.coef_ = arrays[f"{slot}/coef"]
        clf.intercept_ = float(m["intercept"])
        clf.alpha_ = float(m["alpha"])
        model._scaler = scaler
        model._classifier = clf
        model._fitted = True
        unpacked[slot] = model

    key_models = {
        slot[len("key/"):]: model
        for slot, model in unpacked.items()
        if slot.startswith("key/")
    }
    return restore_authenticator(
        meta["auth"],
        unpacked.get("full"),
        unpacked.get("fused"),
        key_models,
    )


def unpack_authenticator(packed: PackedAuthenticator) -> P2Auth:
    """Self-contained unpack of :func:`pack_authenticator` output."""
    cache: Dict[str, MiniRocket] = {}

    def resolve(fingerprint: str) -> MiniRocket:
        rocket = cache.get(fingerprint)
        if rocket is None:
            rocket = decode_extractor(packed.extractors[fingerprint])
            cache[fingerprint] = rocket
        return rocket

    return unpack_record(packed.record, resolve)
