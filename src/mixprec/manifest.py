"""Pipeline manifest: one JSON file tying together a run's seeds, params and checksums.

Every stage reads the manifest and each artifact it consumes once, parses the bytes
that matched their recorded checksum, writes its outputs to the fixed layout below,
and records their checksums. All paths are relative to the manifest's directory.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Callable
from pathlib import Path

from .errors import ValidationError
from .tensor_core import sha256_file, write_atomic

MANIFEST_VERSION = 2

# The run directory's layout: each stage reads and writes these paths and no others.
MODEL_JSON = "model.json"
WEIGHTS_DIR = "weights"
CONFIG = "config.json"
FRONTIER = "frontier.csv"
FRONTIER_CONFIGS_DIR = "frontier_configs"
REPORT = "report.json"


def table_path(kind: str) -> str:
    return f"sensitivity_{kind}.jsonl"


# Every layout path, each confined to the run directory (``check_layout``) before a stage reads or writes.
LAYOUT = (MODEL_JSON, WEIGHTS_DIR, CONFIG, FRONTIER, FRONTIER_CONFIGS_DIR, REPORT,
          table_path("weight"), table_path("activation"))

# The stage that writes each artifact a later stage may find missing.
_WRITERS = {CONFIG: "allocate", table_path("weight"): "sensitivity", table_path("activation"): "sensitivity"}

# Sections every stage reads or writes; each must be a JSON object.
MANIFEST_SECTIONS = ("checksums", "params", "seeds")


def load_manifest(path: Path | str) -> tuple[dict, Path]:
    """The manifest and its directory; a manifest of the wrong shape (including
    any section beyond version, params, seeds and checksums), or a layout path
    that resolves outside the directory, is a ValidationError."""
    path = Path(path)
    try:
        data = read_artifact(path, path.read_bytes(), "manifest", read_json)
    except ValueError as exc:  # a NUL byte in the path
        raise ValidationError(f"manifest {str(path)!r} is not a usable path: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"manifest {path} must be a JSON object, not {type(data).__name__}")
    if data.get("version") != MANIFEST_VERSION:
        raise ValidationError(f"manifest {path} has unsupported version {data.get('version')!r}")
    for section in MANIFEST_SECTIONS:
        if not isinstance(data.get(section), dict):
            raise ValidationError(f"manifest {path}: {section} must be a JSON object")
    # A path section (a version-1 leftover, or a hand edit) would be silently ignored: refuse it.
    unknown = sorted(set(data) - {"version", *MANIFEST_SECTIONS})
    if unknown:
        raise ValidationError(f"manifest {path} has unknown section(s) {', '.join(unknown)}; "
                              "the run directory's layout is fixed")
    root = path.parent.resolve()
    check_layout(root)
    return data, root


def check_layout(root: Path) -> None:
    """Every ``LAYOUT`` path of the run directory ``root`` (resolved) must resolve
    inside it; one symlinked out of it is a ValidationError."""
    for rel in LAYOUT:
        resolve_inside(root, rel, "run directory entry")


def resolve_inside(root: Path, rel: str, name: str) -> Path:
    """``root / rel`` resolved; a path that cannot be resolved, or that resolves
    anywhere but strictly inside ``root``, is a ValidationError naming ``name``."""
    try:
        full = (root / rel).resolve()
    except (OSError, ValueError, RuntimeError) as exc:  # a NUL byte, or a symlink loop
        raise ValidationError(f"{name} {rel!r} is not a usable path: {exc}") from exc
    if full == root or not full.is_relative_to(root):
        raise ValidationError(f"{name} {rel!r} lies outside the run directory {root}")
    return full


def read_artifact(path: Path, raw: bytes, kind: str, parse: Callable[[bytes], object]):
    """``parse(raw)``, on the bytes of ``path`` that :func:`verify_artifacts` returned (the manifest's as read).

    Whatever a file that cannot be read as its format raises (bytes that are
    not UTF-8 and malformed JSON are ValueErrors; JSON of the wrong shape, a
    KeyError, TypeError or AttributeError; a short binary header, a
    struct.error) becomes one ValidationError naming the file. A
    ValidationError raised by ``parse`` passes through unchanged.
    """
    try:
        return parse(raw)
    except ValidationError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, struct.error) as exc:
        raise ValidationError(f"{path} is not a valid {kind}: {type(exc).__name__}: {exc}") from exc


def read_json(raw: bytes) -> object:
    return json.loads(raw.decode("utf-8"))  # not json.loads(raw), which would take UTF-16 and UTF-32 too


def write_json(path: Path | str, data) -> str:
    """Sorted, indented JSON with a trailing newline, written atomically; returns
    the SHA-256 hex digest of the bytes written."""
    return write_atomic(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def record_checksums(data: dict, root: Path, rel_paths: list[str]) -> None:
    for rel in rel_paths:
        data["checksums"][rel] = sha256_file(root / rel)


def verify_artifacts(data: dict, root: Path, rel_paths: list[str]) -> list[bytes]:
    """The bytes of each file, read once: every stage reads a checksummed artifact here and nowhere
    else. A file that is missing, has no recorded checksum, or does not match it is a ValidationError."""
    found = []
    for rel in rel_paths:
        full = root / rel
        if not full.exists():
            hint = f" (run the {_WRITERS[rel]} stage first)" if rel in _WRITERS else ""
            raise ValidationError(f"required artifact missing: {rel}{hint}")
        if rel not in data["checksums"]:
            raise ValidationError(f"artifact has no recorded checksum: {rel}")
        raw = full.read_bytes()
        if hashlib.sha256(raw).hexdigest() != data["checksums"][rel]:
            raise ValidationError(f"artifact checksum mismatch: {rel}")
        found.append(raw)
    return found


def model_artifact_paths(layer_ids: list[str]) -> list[str]:
    return [MODEL_JSON] + [f"{WEIGHTS_DIR}/{lid}{ext}" for lid in layer_ids for ext in (".bin", ".json")]
