"""Dense tensors with deterministic randomness and file I/O.

The tensors made and stored here, random draws and artifacts, are plain
C-contiguous float64 numpy arrays; the forward engine casts what it reads to
its own dtype (``toy_model.DTYPE``). All randomness flows
through numpy's Philox bit generator (a named, splittable, 64-bit
counter-based PRNG), keyed by explicit seeds so that every pipeline stage
reproduces bit-identical values on re-run.

The on-disk format is a flat binary container (little-endian: u32 rank,
u64 extents, f64 payload) plus a JSON sidecar carrying the shape and a
SHA-256 checksum of the binary file. Both files, like every artifact of the
pipeline, are written through :func:`write_atomic`; :func:`load_tensor` opens no
file, but parses the bytes ``manifest.verify_artifacts`` read and checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterError, ShapeError, ValidationError

# Alias for annotations: a row-major numpy array. Random draws and stored
# artifacts are float64; the forward engine's arrays are ``toy_model.DTYPE``.
Tensor = np.ndarray


def stable_hash64(label: str) -> int:
    """Map a string label to a stable 64-bit integer (blake2b, not Python hash)."""
    return int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "little")


def make_rng(seed: int, label: str | None = None) -> np.random.Generator:
    """Philox generator keyed by ``seed`` and an optional stream label."""
    entropy = [int(seed)] if label is None else [int(seed), stable_hash64(label)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, label: str) -> int:
    """Deterministic child seed for a named substream."""
    return stable_hash64(f"{seed}:{label}")


def _check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ShapeError("shape must have at least one extent")
    if any(s < 1 for s in shape):
        raise ShapeError(f"all extents must be >= 1, got {shape}")
    return shape


def random_normal(shape: Sequence[int], mean: float, stddev: float, seed: int) -> Tensor:
    """Deterministic Gaussian samples; the same seed reproduces identical bits."""
    if stddev < 0:
        raise ParameterError(f"stddev must be >= 0, got {stddev}")
    rng = make_rng(seed)
    return rng.normal(loc=mean, scale=stddev, size=_check_shape(shape)).astype(np.float64)


def l2_norm_sq(t: Tensor) -> float:
    """Sum of squared elements."""
    t = np.asarray(t, dtype=np.float64)
    return float(np.dot(t.ravel(), t.ravel()))


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_atomic(path: Path | str, data: str | bytes) -> str:
    """Write ``data`` (text as UTF-8) to a temp file beside ``path``, then rename
    it over ``path``; returns the SHA-256 hex digest of the bytes written.

    A write that fails leaves ``path`` as it was and removes the temp file, so
    a run directory never holds a partial artifact.
    """
    path = Path(path)
    raw = data.encode("utf-8") if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return hashlib.sha256(raw).hexdigest()


def save_tensor(t: Tensor, base_path: Path | str) -> dict[Path, str]:
    """Write ``<base>.bin`` and its ``<base>.json`` sidecar; returns the SHA-256
    hex digest of each file's bytes by its path, the ``.bin`` first."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    base = Path(base_path)
    bin_path = base.parent / (base.name + ".bin")
    json_path = base.parent / (base.name + ".json")
    header = struct.pack("<I", t.ndim) + struct.pack(f"<{t.ndim}Q", *t.shape)
    bin_digest = write_atomic(bin_path, header + t.tobytes(order="C"))
    # The checksum of the bytes just written, without reading the file back
    sidecar = {"shape": list(t.shape), "dtype": "float64", "checksum": "sha256:" + bin_digest}
    json_digest = write_atomic(json_path, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return {bin_path: bin_digest, json_path: json_digest}


def load_tensor(base_path: Path | str, raw: bytes, sidecar_raw: bytes) -> Tensor:
    """The tensor :func:`save_tensor` wrote at ``base_path``, parsed from the bytes of its ``.bin`` and sidecar."""
    sidecar = json.loads(sidecar_raw.decode("utf-8"))
    if "sha256:" + hashlib.sha256(raw).hexdigest() != sidecar.get("checksum"):
        raise ValidationError(f"checksum mismatch for {base_path}.bin")
    (rank,) = struct.unpack_from("<I", raw)
    shape = struct.unpack_from(f"<{rank}Q", raw, 4)
    data = np.frombuffer(raw, dtype="<f8", offset=4 + 8 * rank)
    if list(shape) != list(sidecar.get("shape", [])):
        raise ValidationError(f"sidecar shape disagrees with header for {base_path}.bin")
    expected = int(np.prod(shape))
    if data.size != expected:
        raise ValidationError(f"payload holds {data.size} values, header implies {expected}")
    return data.reshape(shape).copy()
