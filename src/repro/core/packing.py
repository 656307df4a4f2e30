"""Packed binary templates: shared extractors, quantized per-user state.

The stored template of one user has two parts: a small per-user ridge
model (Eq. 7-9) and the MiniRocket extractors whose only fitted state
is their bias tables (Eq. 5-6). Users enrolled against the same
:class:`~repro.core.negatives.NegativeBank` carry identical extractors,
so this module stores the two parts apart:

- **extractor blobs** (magic ``P2EX``): the fitted MiniRocket state,
  always float64, content-addressed by a BLAKE2b fingerprint so each
  distinct extractor is stored *once per backend* no matter how many
  users reference it;
- **user records** (magic ``P2PK``): everything user-specific — ridge
  coefficient vector, scaler mean/scale, scalars, PIN digest, options —
  optionally quantized to float32 or float16.

Every blob shares one self-describing layout::

    magic(4) | version(u16) flags(u16) header_len(u32) | JSON header |
    pad-to-8 | 8-aligned C-contiguous array payloads

so :func:`unpack_record` costs one JSON parse plus zero-copy
``np.frombuffer`` views.

The one-file form of :func:`save_authenticator` is a third blob (magic
``P2AF``) holding a float64 record and its extractor blobs as uint8
arrays, with the optional session configuration in its header.

Quantization contract (verified by ``tests/core/test_packing.py`` and
the registry benchmark's parity section): float64 records reproduce
scores bit-identically; float32/float16 records must reproduce the
*decisions* of the standard probe battery exactly, with score drift
bounded by the documented tolerances in docs/performance.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..config import PipelineConfig
from ..errors import ConfigurationError, PersistenceError
from ..features import MiniRocket
from ..ml import RidgeClassifier, StandardScaler
from .authenticator import P2Auth
from .degradation import DegradationPolicy
from .models import EnrolledModels, EnrollmentOptions, WaveformModel
from .session import RetryPolicy, SessionManager

#: Format version written into every blob.
PACK_VERSION = 1

#: Magic prefix of a per-user record blob.
RECORD_MAGIC = b"P2PK"

#: Magic prefix of a shared-extractor blob.
EXTRACTOR_MAGIC = b"P2EX"

#: Magic prefix of a :func:`save_authenticator` file.
FILE_MAGIC = b"P2AF"

#: Supported quantization dtypes for per-user arrays.
QUANT_DTYPES: Dict[str, np.dtype] = {  # concurrency: immutable-after-init
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
    "float16": np.dtype(np.float16),
}

_PRELUDE = struct.Struct("<HHI")  # version, flags, header_len
_PRELUDE_LEN = 4 + _PRELUDE.size

Buffer = Union[bytes, bytearray, memoryview]


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
    buf: Buffer, magic: bytes
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Decode a blob into ``(meta, arrays)``.

    Arrays are zero-copy read-only views into ``buf`` whenever numpy
    allows it (always, for ``bytes`` buffers).

    Raises:
        PersistenceError: on a wrong magic or version, a buffer cut
            short of its prelude, header or any array, or a header that
            is not valid JSON.
    """
    if bytes(buf[:4]) != magic:
        raise PersistenceError(
            f"bad blob magic {bytes(buf[:4])!r}; expected {magic!r}"
        )
    size = len(buf)
    if size < _PRELUDE_LEN:
        raise PersistenceError(f"truncated blob: {size} bytes, no prelude")
    version, _flags, header_len = _PRELUDE.unpack_from(buf, 4)
    if version != PACK_VERSION:
        raise PersistenceError(f"unsupported packed version: {version}")
    if size < _PRELUDE_LEN + header_len:
        raise PersistenceError(
            f"truncated blob: {size} bytes, header needs {header_len}"
        )
    try:
        header = json.loads(bytes(buf[_PRELUDE_LEN:_PRELUDE_LEN + header_len]))
    except ValueError:
        raise PersistenceError("blob header is not valid JSON") from None
    payload_base = _align8(_PRELUDE_LEN + header_len)
    arrays: Dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = math.prod(entry["shape"])
        offset = payload_base + int(entry["offset"])
        if offset + count * dtype.itemsize > size:
            raise PersistenceError(
                f"truncated blob: {size} bytes, array {entry['name']!r} "
                f"ends at {offset + count * dtype.itemsize}"
            )
        arrays[entry["name"]] = np.frombuffer(
            buf, dtype=dtype, count=count, offset=offset
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


def decode_extractor(blob: Buffer) -> MiniRocket:
    """Rebuild a fitted :class:`MiniRocket` from an extractor blob."""
    meta, arrays = _decode_blob(blob, EXTRACTOR_MAGIC)
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


def _require_rocket_ridge(model: WaveformModel, name: str) -> None:
    classifier = type(model._classifier).__name__
    if model.feature_method != "rocket" or not isinstance(
        model._classifier, RidgeClassifier
    ):
        raise PersistenceError(
            f"model {name!r} uses the unsupported combination "
            f"(feature_method={model.feature_method!r}, "
            f"classifier={classifier!r}); only (feature_method='rocket', "
            "classifier='RidgeClassifier') is serializable"
        )


def authenticator_meta(auth: P2Auth) -> Dict[str, Any]:
    """JSON-able enrollment metadata of a packed record.

    Captures everything *besides* the model arrays that a reload needs
    to behave identically: pipeline constants, enrollment options, the
    salted PIN digest, and the degradation policy.
    """
    models = auth.models  # raises EnrollmentError when not enrolled
    options = models.options
    return {
        "no_pin_mode": auth.no_pin_mode,
        "pin_salt": auth._pin._salt.hex(),
        "pin_digest": auth._pin._digest.hex() if auth._pin._digest else None,
        "pipeline": {
            "fs": models.config.fs,
            "median_kernel": models.config.median_kernel,
            "sg_window": models.config.sg_window,
            "sg_polyorder": models.config.sg_polyorder,
            "calibration_window": models.config.calibration_window,
            "detrend_lambda": models.config.detrend_lambda,
            "energy_window": models.config.energy_window,
            "energy_threshold_ratio": models.config.energy_threshold_ratio,
            "segment_window": models.config.segment_window,
        },
        "options": {
            "privacy_boost": options.privacy_boost,
            "num_features": options.num_features,
            "full_window": options.full_window,
            "full_margin": options.full_margin,
            "feature_method": options.feature_method,
            "seed": options.seed,
            "min_positive_samples": options.min_positive_samples,
            "quality_gate": options.quality_gate,
            "min_quality_artifact_ratio": options.min_quality_artifact_ratio,
        },
        "policy": (
            dataclasses.asdict(auth.policy) if auth.policy is not None else None
        ),
    }


def restore_authenticator(
    meta: Mapping[str, Any],
    full_model: Optional[WaveformModel],
    fused_model: Optional[WaveformModel],
    key_models: Dict[str, WaveformModel],
) -> P2Auth:
    """Rebuild a ready-to-authenticate :class:`P2Auth` from
    :func:`authenticator_meta` output plus already-unpacked models."""
    config = PipelineConfig(**meta["pipeline"])
    options = EnrollmentOptions(**meta["options"])
    policy_meta = meta.get("policy")
    policy = (
        DegradationPolicy(**policy_meta) if policy_meta is not None else None
    )
    auth = P2Auth(
        pin=None, pipeline_config=config, options=options, policy=policy
    )
    # Restore the PIN digest without ever knowing the PIN.
    auth._pin._salt = bytes.fromhex(meta["pin_salt"])
    auth._pin._digest = (
        bytes.fromhex(meta["pin_digest"]) if meta["pin_digest"] else None
    )
    auth._models = EnrolledModels(
        full_model=full_model,
        fused_model=fused_model,
        key_models=key_models,
        options=options,
        config=config,
        keys_enrolled=tuple(sorted(key_models)),
    )
    return auth


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
        auth: the enrolled authenticator (rocket + ridge models only).
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


def unpack_record(
    buf: Buffer, resolve_extractor: Callable[[str], MiniRocket]
) -> P2Auth:
    """Rebuild a ready-to-authenticate :class:`P2Auth` from a record.

    Args:
        buf: buffer holding a ``P2PK`` record; arrays are served as
            zero-copy views in their stored dtype (NumPy widens
            float32/float16 exactly inside the scaler and ridge
            arithmetic, so scores equal a float64 copy's bit for bit).
        resolve_extractor: fingerprint → fitted shared extractor. The
            callable owns caching, so a warm pool makes unpacking a
            user O(per-user vectors) regardless of extractor size.
    """
    meta, arrays = _decode_blob(buf, RECORD_MAGIC)
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
            blob = packed.extractors.get(fingerprint)
            if blob is None:
                raise PersistenceError(f"extractor blob {fingerprint} is missing")
            rocket = cache[fingerprint] = decode_extractor(blob)
        return rocket

    return unpack_record(packed.record, resolve)


def save_authenticator(
    auth: P2Auth,
    path: Union[str, Path],
    session: Optional[SessionManager] = None,
) -> None:
    """Write an enrolled authenticator to one file at ``path``.

    The file is a ``P2AF`` blob holding the float64 record of
    :func:`pack_authenticator` and its extractor blobs, so a reload
    scores bit-identically. It carries everything a reload needs to
    behave identically: the models, the pipeline constants, the
    enrollment options (including the quality gate), the salted PIN
    digest, and the :class:`~repro.core.degradation.DegradationPolicy`
    — a reloaded authenticator keeps its recovery ladder instead of
    failing open to the no-policy path.

    Args:
        auth: the enrolled authenticator.
        path: destination file (``.p2a`` by convention).
        session: optionally, a :class:`~repro.core.session.
            SessionManager` whose configuration (wear threshold and
            :class:`~repro.core.session.RetryPolicy`) is stored
            alongside, for :func:`load_session`. Session *state* (the
            event log, failure counter) is deliberately not persisted —
            a reload starts a fresh session.

    Raises:
        EnrollmentError: if no user is enrolled.
        PersistenceError: if a model uses a non-serializable
            configuration.
    """
    packed = pack_authenticator(auth, dtype="float64")
    arrays = {"record": np.frombuffer(packed.record, dtype=np.uint8)}
    for fingerprint, blob in packed.extractors.items():
        arrays[f"extractor/{fingerprint}"] = np.frombuffer(blob, dtype=np.uint8)
    meta: Dict[str, Any] = {}
    if session is not None:
        meta["session"] = {
            "wear_threshold": session._wear_threshold,
            "retry": (
                dataclasses.asdict(session._retry)
                if session._retry is not None
                else None
            ),
        }
    Path(path).write_bytes(_encode_blob(FILE_MAGIC, meta, arrays))


def _read_file(
    path: Union[str, Path]
) -> Tuple[Dict[str, Any], PackedAuthenticator]:
    """The header meta and packed template of a saved file."""
    data = Path(path).read_bytes()
    if data[:4] != FILE_MAGIC:
        raise ConfigurationError(f"{path} is not a P2Auth template file")
    meta, arrays = _decode_blob(data, FILE_MAGIC)
    if "record" not in arrays:
        raise PersistenceError(f"{path} holds no template record")
    return meta, PackedAuthenticator(
        record=arrays.pop("record").tobytes(),
        extractors={
            name.removeprefix("extractor/"): blob.tobytes()
            for name, blob in arrays.items()
        },
    )


def load_authenticator(path: Union[str, Path]) -> P2Auth:
    """Load an authenticator previously stored by :func:`save_authenticator`.

    Returns:
        A ready-to-authenticate :class:`P2Auth` (enrollment restored).

    Raises:
        ConfigurationError: if ``path`` is not a saved template file.
        PersistenceError: if the file is truncated or corrupt.
    """
    _meta, packed = _read_file(path)
    return unpack_authenticator(packed)


def load_session(path: Union[str, Path]) -> SessionManager:
    """Rebuild a session manager from a file written with
    ``save_authenticator(auth, path, session=...)``.

    The authenticator is loaded exactly as :func:`load_authenticator`
    does (models, policy, PIN digest), then wrapped in a fresh
    :class:`~repro.core.session.SessionManager` with the stored wear
    threshold and retry policy. The session starts OFF_WRIST with an
    empty log — state is lifecycle, not configuration.

    Raises:
        ConfigurationError: if the file carries no session block.
    """
    meta, packed = _read_file(path)
    session_meta = meta.get("session")
    if session_meta is None:
        raise ConfigurationError(
            f"{path} was saved without a session (pass session= to "
            "save_authenticator)"
        )
    retry_meta = session_meta.get("retry")
    retry = RetryPolicy(**retry_meta) if retry_meta is not None else None
    return SessionManager(
        unpack_authenticator(packed),
        wear_threshold=float(session_meta["wear_threshold"]),
        retry=retry,
    )
