import json
import os
import subprocess
import sys
from pathlib import Path

import golden_trees
import trees

SRC = Path(__file__).resolve().parent.parent / "src"


def test_seed7_trees_equal_their_golden_digests(seed7_tree):
    golden = json.loads(golden_trees.GOLDEN.read_text("utf-8"))
    assert sorted(golden["trees"]) == sorted(golden_trees.FLAG_SETS)
    moved = {}
    for name, entry in golden["trees"].items():
        assert tuple(entry["flags"]) == golden_trees.FLAG_SETS[name]
        got = golden_trees.digests(seed7_tree(golden_trees.FLAG_SETS[name]))
        changed = sorted(rel for rel in got.keys() | entry["files"].keys() if got.get(rel) != entry["files"].get(rel))
        if changed:
            moved[name] = changed
    assert not moved, (
        f"files that differ from tests/golden_trees.json: {moved}; "
        f"recorded on {golden['environment']}, run on {trees.environment()}"
    )


# A model whose full-resolution conv gemms, (16 x 144) by (144 x 272) per
# input, exceed the m * n * k = 262,144 up to which OpenBLAS keeps a gemm on one
# thread (65536 times its default GEMM_MULTITHREAD_THRESHOLD of 4), with both
# tables and the first-token path, on a few inputs.
THREADED = (
    "--width", "16", "--inputs", "4", "--proxy-inputs", "2", "--eval-inputs", "2", "--n-budgets", "2",
    "--act-target-bits", "6",
)


def test_trees_are_identical_at_one_and_two_blas_threads(tmp_path):
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "mixprec.cli", "pipeline", "--out-dir", str(out), *THREADED],
                       env=env, check=True, capture_output=True)
        runs.append(golden_trees.digests(out))
    assert len(runs[0]) > 10 and runs[0] == runs[1]
