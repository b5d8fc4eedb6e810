"""Pipeline manifest: one JSON file tying together artifacts, seeds, and params.

Every stage reads the manifest, verifies the checksums of the artifacts it
consumes, writes its outputs to the paths the manifest names, and records
their checksums. All paths are relative to the manifest's directory.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Callable
from pathlib import Path

from .errors import ValidationError
from .tensor_core import sha256_file, write_atomic

MANIFEST_VERSION = 1


def default_manifest(params: dict, seeds: dict) -> dict:
    return {
        "version": MANIFEST_VERSION,
        "model": {"json": "model.json", "weights_dir": "weights"},
        "seeds": dict(seeds),
        "params": dict(params),
        "artifacts": {
            "sensitivity_weight": "sensitivity_weight.jsonl",
            "sensitivity_activation": "sensitivity_activation.jsonl",
            "config": "config.json",
            "frontier": "frontier.csv",
            "frontier_configs_dir": "frontier_configs",
            "report": "report.json",
        },
        "checksums": {},
    }


# Sections every stage reads or writes; each must be a JSON object.
MANIFEST_SECTIONS = ("artifacts", "checksums", "params", "seeds")
# Artifacts the stages write; each must be named in the manifest.
ARTIFACT_KEYS = tuple(default_manifest({}, {})["artifacts"])
# The model's paths, each confined to the run directory like an artifact's.
MODEL_KEYS = tuple(default_manifest({}, {})["model"])


def load_manifest(path: Path | str) -> tuple[dict, Path]:
    """The manifest and its directory; a manifest of the wrong shape is a ValidationError."""
    path = Path(path)
    data = read_artifact(path, "manifest", read_json)
    if not isinstance(data, dict):
        raise ValidationError(f"manifest {path} must be a JSON object, not {type(data).__name__}")
    if data.get("version") != MANIFEST_VERSION:
        raise ValidationError(f"manifest {path} has unsupported version {data.get('version')!r}")
    for section in MANIFEST_SECTIONS:
        if not isinstance(data.get(section), dict):
            raise ValidationError(f"manifest {path}: {section} must be a JSON object")
    root = path.parent.resolve()
    artifacts = data["artifacts"]
    for key in ARTIFACT_KEYS:
        if key not in artifacts:
            raise ValidationError(f"manifest {path}: artifacts lack {key!r}")
    for key, rel in artifacts.items():
        _check_artifact_path(path, root, f"artifacts.{key}", rel)
    model = data.get("model")
    if not isinstance(model, dict):
        raise ValidationError(f"manifest {path}: model must be a JSON object")
    for key in MODEL_KEYS:
        _check_artifact_path(path, root, f"model.{key}", model.get(key))
    return data, root


def _check_artifact_path(path: Path, root: Path, name: str, rel) -> None:
    """A manifest path is a string naming a relative path strictly inside ``root``."""
    if not isinstance(rel, str):
        raise ValidationError(f"manifest {path}: {name} must be a path string, not {type(rel).__name__}")
    if Path(rel).is_absolute():
        raise ValidationError(f"manifest {path}: {name} {rel!r} lies outside the run directory {root}")
    resolve_inside(root, rel, f"manifest {path}: {name}")


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


def read_artifact(path: Path, kind: str, parse: Callable[[Path], object]):
    """``parse(path)``, on a file whose recorded checksum (the manifest has none) the caller has checked.

    Whatever a file that cannot be read as its format raises (bytes that are
    not UTF-8 and malformed JSON are ValueErrors; JSON of the wrong shape, a
    KeyError, TypeError or AttributeError; a short binary header, a
    struct.error) becomes one ValidationError naming the file. A
    ValidationError raised by ``parse`` passes through unchanged.
    """
    try:
        return parse(path)
    except ValidationError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, struct.error) as exc:
        raise ValidationError(f"{path} is not a valid {kind}: {type(exc).__name__}: {exc}") from exc


def read_json(path: Path) -> object:
    return json.loads(Path(path).read_text("utf-8"))


def write_json(path: Path | str, data) -> None:
    """Sorted, indented JSON with a trailing newline, written atomically."""
    write_atomic(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def save_manifest(data: dict, path: Path | str) -> None:
    write_json(path, data)


def record_checksums(data: dict, root: Path, rel_paths: list[str]) -> None:
    for rel in rel_paths:
        data.setdefault("checksums", {})[rel] = sha256_file(root / rel)


def verify_artifacts(data: dict, root: Path, rel_paths: list[str]) -> None:
    """Each referenced file must exist and match its recorded checksum."""
    sums = data.get("checksums", {})
    for rel in rel_paths:
        full = root / rel
        if not full.exists():
            raise ValidationError(f"required artifact missing: {rel}")
        if rel not in sums:
            raise ValidationError(f"artifact has no recorded checksum: {rel}")
        if sha256_file(full) != sums[rel]:
            raise ValidationError(f"artifact checksum mismatch: {rel}")


def model_artifact_paths(data: dict, layer_ids: list[str]) -> list[str]:
    wdir = data["model"]["weights_dir"]
    paths = [data["model"]["json"]]
    for lid in layer_ids:
        paths.append(f"{wdir}/{lid}.bin")
        paths.append(f"{wdir}/{lid}.json")
    return paths
