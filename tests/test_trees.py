import itertools
import json

import trees

TINY = (
    "--width", "4", "--spatial", "8", "--tokens", "4", "--text-channels", "8", "--time-dim", "8",
    "--inputs", "4", "--proxy-inputs", "2", "--eval-inputs", "2", "--n-budgets", "2",
)


def test_verdict_matrix_driver_is_deterministic_and_complete():
    # the driver alone, on tiny models: the matrix is the full-size run of ``python tests/trees.py``
    first, second = (trees.matrix(seeds=(1,), base_flags=TINY) for _ in range(2))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    cells = [(c["shape"], c["seed"], c["target"]) for c in first["cells"]]
    assert cells == list(itertools.product(trees.SHAPES, (1,), trees.TARGETS))
    for c in first["cells"]:
        for side in ("allocated", "uniform"):
            assert set(c[side]) == set(trees.METRICS)
        assert c["allocated_at_least_uniform"] == {m: c["allocated"][m] >= c["uniform"][m] for m in trees.METRICS}
    # a matrix compared with itself moves no cell and flips no verdict
    same = trees.compare(first, second)
    assert same["verdict_flips"] == [] and set(same["largest_move"].values()) == {0.0}
