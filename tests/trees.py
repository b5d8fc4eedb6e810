"""Held-out verdict matrix: allocated against uniform bits, per shape, seed and target.

For every (shape, seed, target) cell it builds one run tree through the CLI
stages (``gen-model``, ``sensitivity``, ``allocate``, ``evaluate``), then writes
the uniform config of the cell's targets into the tree and scores it with
``evaluate --config``. Both reports are held-out: they score the manifest's
eval inputs against the FP outputs. A cell records the allocated and the
uniform mean SQNR (dB) and SSIM, and whether the allocated config is at least
as good as the uniform one on each metric.

    python tests/trees.py --out QUALITY.json                   # the full matrix
    python tests/trees.py --out QUALITY.json --parent OLD.json # and each cell's move against OLD.json

With ``--parent`` the output also holds that file's cells, every cell's
allocated and uniform move in SQNR and SSIM, and the cells whose verdict
differs. The JSON holds no paths or timings, so two runs on one machine give the
same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from mixprec import cli  # noqa: E402

SHAPES = {"default": (), "depth2": ("--depth", "2"), "width16": ("--width", "16")}
SEEDS = (1, 2, 3, 4, 5, 7)
# The (weight, activation) bits of each target; None leaves that kind at full precision.
TARGETS = {"W4": (4, None), "A8": (None, 8), "W4A8": (4, 8)}
METRICS = ("sqnr_db", "ssim")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _stage(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")


def _means(root: Path) -> dict:
    report = json.loads((root / "report.json").read_text("utf-8"))["metrics"]
    return {name: report[f"{name}_mean"] for name in METRICS}


def _flag(bits) -> str:
    return "fp" if bits is None else str(bits)


def cell(root: Path, shape: str, seed: int, target: str, base_flags=()) -> dict:
    """Build one cell's tree in ``root`` and score its allocated and uniform configs;
    the shape's flags apply over ``base_flags``."""
    w_bits, a_bits = TARGETS[target]
    manifest = str(root / "manifest.json")
    _stage(["gen-model", "--out-dir", str(root), "--seed", str(seed), *base_flags, *SHAPES[shape],
            "--target-bits", _flag(w_bits), "--act-target-bits", _flag(a_bits)])
    for stage in ("sensitivity", "allocate", "evaluate"):
        _stage([stage, "--manifest", manifest])
    allocated = _means(root)
    layers = [row["id"] for row in json.loads((root / "model.json").read_text("utf-8"))["layers"]]
    uniform = {"layers": {lid: {"weight": w_bits, "activation": a_bits} for lid in layers}, "summary": {}}
    (root / "uniform.json").write_text(json.dumps(uniform, sort_keys=True, indent=2) + "\n", "utf-8")
    _stage(["evaluate", "--manifest", manifest, "--config", "uniform.json"])
    scored = _means(root)
    return {
        "shape": shape, "seed": seed, "target": target,
        "allocated": allocated, "uniform": scored,
        "allocated_at_least_uniform": {name: allocated[name] >= scored[name] for name in METRICS},
    }


def matrix(shapes=tuple(SHAPES), seeds=SEEDS, targets=tuple(TARGETS), base_flags=()) -> dict:
    """Every (shape, seed, target) cell, in that order, each built in a fresh directory."""
    cells = []
    with tempfile.TemporaryDirectory(prefix="trees-") as work:
        for i, (shape, seed, target) in enumerate(itertools.product(shapes, seeds, targets)):
            cells.append(cell(Path(work) / str(i), shape, seed, target, base_flags))
    wins = {name: sum(c["allocated_at_least_uniform"][name] for c in cells) for name in METRICS}
    return {"environment": environment(), "flags": list(base_flags), "cells": cells,
            "allocated_at_least_uniform": {name: f"{n}/{len(cells)}" for name, n in wins.items()}}


def _key(c: dict) -> tuple:
    return c["shape"], c["seed"], c["target"]


def compare(parent: dict, change: dict) -> dict:
    """Each cell's moves from ``parent`` to ``change``, and the cells whose verdict differs."""
    old = {_key(c): c for c in parent["cells"]}
    if set(old) != {_key(c) for c in change["cells"]}:
        raise ValueError("the two matrices hold different cells")
    moves, flips = [], []
    for c in change["cells"]:
        p = old[_key(c)]
        moves.append({
            "shape": c["shape"], "seed": c["seed"], "target": c["target"],
            **{f"{side}_{name}": c[side][name] - p[side][name] for side in ("allocated", "uniform") for name in METRICS},
        })
        if c["allocated_at_least_uniform"] != p["allocated_at_least_uniform"]:
            flips.append({"shape": c["shape"], "seed": c["seed"], "target": c["target"],
                          "parent": p["allocated_at_least_uniform"], "change": c["allocated_at_least_uniform"]})
    largest = {key: max(abs(m[key]) for m in moves) for key in moves[0] if key not in ("shape", "seed", "target")}
    return {"moves": moves, "largest_move": largest, "verdict_flips": flips}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", help="an earlier output of this script to compare against")
    args = parser.parse_args(argv)
    result = matrix()
    if args.parent:
        parent = json.loads(Path(args.parent).read_text("utf-8"))
        parent = parent.get("parent", parent)  # a compared output keeps its parent
        result = {"parent": parent, "change": result, **compare(parent, result)}
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
