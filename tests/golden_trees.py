"""Golden trees: the SHA-256 of every file of three seed-7 ``pipeline`` trees.

``tests/golden_trees.json`` holds, for the default flags, the flags of the
``sweep`` benchmark workload and W4A6 (the one tree whose activation table and
first-token path decide the config), each file's digest by its path in the
tree, ``manifest.json`` and the tables included, and the Python, numpy and BLAS
the trees were built with. ``tests/test_golden_trees.py`` rebuilds the trees
and checks every digest. Regenerate the file after a change that is meant to
move bytes:

    python tests/golden_trees.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from mixprec import cli  # noqa: E402

import trees  # noqa: E402

GOLDEN = HERE / "golden_trees.json"
FLAG_SETS = {
    "default": (),
    "sweep": ("--inputs", "4", "--n-budgets", "10", "--proxy-inputs", "16"),
    "w4a6": ("--act-target-bits", "6"),
}


def build(out: Path, flags) -> Path:
    """A seed-7 ``pipeline`` tree at ``flags``, written to ``out``."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["pipeline", "--out-dir", str(out), *flags])
    if rc != 0:
        raise RuntimeError(f"pipeline {' '.join(flags)} exited {rc}")
    return out


def digests(root: Path) -> dict[str, str]:
    """The SHA-256 hex digest of every file under ``root``, by its POSIX path there."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        golden = {
            "environment": trees.environment(),
            "trees": {
                name: {"flags": list(flags), "files": digests(build(Path(work) / name, flags))}
                for name, flags in FLAG_SETS.items()
            },
        }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
