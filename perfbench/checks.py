"""Output checks on a finished run tree. They read artifacts only.

Each check returns ``None`` when it passes and a one-line reason when it fails.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_of(parts: list[str]) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def tree_digest(root: Path, pattern: str = "*") -> str:
    """One digest over the relative path and bytes of every file matching ``pattern``."""
    files = sorted(p for p in root.rglob(pattern) if p.is_file())
    return digest_of([f"{p.relative_to(root).as_posix()}:{sha256_file(p)}" for p in files])


def checksums_verify(root: Path) -> str | None:
    sums = json.loads((root / "manifest.json").read_text()).get("checksums", {})
    if not sums:
        return "manifest records no checksums"
    for rel, want in sorted(sums.items()):
        path = root / rel
        if not path.is_file():
            return f"checksummed artifact missing: {rel}"
        if sha256_file(path) != want:
            return f"checksum mismatch: {rel}"
    return None


def bits_within_targets(root: Path, weight_target: float, act_target: float) -> str | None:
    summary = json.loads((root / "config.json").read_text())["summary"]
    for key, target in (("avg_weight_bits", weight_target), ("avg_act_bits", act_target)):
        value = summary.get(key)
        if not isinstance(value, (int, float)) or value > target + 1e-9:
            return f"{key} = {value!r} exceeds target {target}"
    return None


def _numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def report_finite(report_path: Path) -> str | None:
    report = json.loads(report_path.read_text())
    for key in ("metrics", "baseline", "deltas", "per_input"):
        if key not in report:
            return f"report lacks {key}"
        if not all(math.isfinite(v) for v in _numbers(report[key])):
            return f"report {key} holds a non-finite value"
    return None


def identical_tree(digest: str, first_digest: str) -> str | None:
    return None if digest == first_digest else "run tree differs from the first tree of this set"


def report_means(report_path: Path) -> tuple[float, float]:
    """(mean SQNR in dB, mean SSIM) of an evaluate report."""
    m = json.loads(report_path.read_text())["metrics"]
    return float(m["sqnr_db_mean"]), float(m["ssim_mean"])


def cost_table(model_json: Path) -> list[dict]:
    """Static per-layer costs from the model JSON."""
    rows = json.loads(model_json.read_text())["layers"]
    return [
        {k: row[k] for k in ("id", "param_count", "act_elem_count", "mac_count")}
        for row in rows
    ]
