"""The traced benchmark reads per-function metrics by name; keep those names and calls.

``perfbench/run.py`` lists in ``FUNCTION_METRICS`` the ``module.function`` pairs
whose call statistics it reports. Its tracer wraps only public functions defined
in their own module, and replaces them in every module that holds a reference,
so a call counts only when it goes through the module attribute. A function
called fewer than 20 times has no tail figures, so a restructure that renames
one or stops calling it loses metrics. Sensitivity probes and sweep scorings
both reach ``toy_model.forward`` once per input chunk, through one
``toy_model.StateCache`` per analysis or allocation.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from mixprec import allocator as al, metrics, sensitivity as sv, toy_model as tm

import helpers

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"


def function_metric_names() -> list[str]:
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTION_METRICS" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py defines no FUNCTION_METRICS")


def test_every_traced_function_is_public_in_its_module():
    names = function_metric_names()
    assert "sensitivity.probe_layer" in names
    for name in names:
        module, function = name.split(".")
        mod = importlib.import_module(f"mixprec.{module}")
        value = getattr(mod, function, None)
        assert inspect.isfunction(value), name
        assert not function.startswith("_"), name
        assert value.__module__ == mod.__name__, name


# A pipeline under the benchmark's tracer, at the default targets on a tiny model;
# prints the calls of every traced function as the last line of its output.
TRACED_PIPELINE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
from mixprec import cli

t = tracer.Tracer()
t.install()
rc = cli.main(["pipeline", "--out-dir", sys.argv[3], "--width", "2", "--spatial", "4", "--tokens", "2",
               "--text-channels", "2", "--time-dim", "2", "--inputs", "2", "--proxy-inputs", "2",
               "--eval-inputs", "2", "--n-budgets", "1"])
print(json.dumps({"rc": rc, "calls": {name: row["calls"] for name, row in t.function_stats().items()}}))
"""


def test_every_traced_function_is_called_by_a_pipeline(tmp_path):
    argv = [sys.executable, "-c", TRACED_PIPELINE, str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp_path / "run")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, proc.stdout
    missing = [name for name in function_metric_names() if result["calls"].get(name, 0) < 1]
    assert not missing, f"benchmark metrics no pipeline call reaches: {missing}"


def test_analyze_calls_probe_layer_once_per_layer_and_bit(model, small_inputs, monkeypatch):
    calls = Counter()
    real = sv.probe_layer

    def counting(model, inputs, refs, layer_id, tensor_kind, bit_width, **kwargs):
        calls[layer_id, bit_width] += 1
        return real(model, inputs, refs, layer_id, tensor_kind, bit_width, **kwargs)

    monkeypatch.setattr(sv, "probe_layer", counting)
    for kind in sv.TENSOR_KINDS:
        calls.clear()
        sv.analyze(model, small_inputs[:2], bit_widths=(2, 4), tensor_kind=kind, bos_aware=True)
        assert calls == {(lid, b): 1 for lid in model.layer_order for b in (2, 4)}, kind


def test_analyze_calls_references_forward_and_ssim(model, small_inputs, monkeypatch):
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(sv, "fp_references")
    counted(tm, "forward")
    for name in ("ssim", "sqnr_db"):
        counted(metrics, name)
    inputs = small_inputs[:2]  # one chunk
    sv.analyze(model, inputs, bit_widths=(4,), tensor_kind=sv.WEIGHT)
    assert calls["fp_references"] == 1
    assert calls["forward"] == 1 + len(model.layer_order)  # the references, then one call per probe
    # each probe scores its chunk with its layer group's metric only
    content = sum(model.layers[lid].group == tm.CONTENT for lid in model.layer_order)
    assert calls["ssim"] == content
    assert calls["sqnr_db"] == len(model.layer_order) - content


def test_probe_layer_reaches_forward_once_per_chunk(model, small_inputs, monkeypatch):
    inputs = tm.make_input_set(5, tm.FORWARD_CHUNK + 2, model)  # two chunks: FORWARD_CHUNK inputs and 2
    calls = Counter()
    real_forward, real_probe = tm.forward, sv.probe_layer

    def forward(*args, **kwargs):
        calls["forward"] += 1
        return real_forward(*args, **kwargs)

    def probe_layer(*args, **kwargs):
        before = calls["forward"]
        score = real_probe(*args, **kwargs)
        calls["per_probe", calls["forward"] - before] += 1
        return score

    monkeypatch.setattr(tm, "forward", forward)
    monkeypatch.setattr(sv, "probe_layer", probe_layer)
    caches = helpers.record_state_caches(monkeypatch)
    sv.analyze(model, inputs, bit_widths=(2, 8), tensor_kind=sv.TENSOR_KINDS, bos_aware=True)
    probes = len(model.layer_order) * 2 * 2
    assert calls["per_probe", 2] == probes
    assert calls["forward"] == 2 * (probes + 1)  # and the FP references
    assert len(caches) == 1


def test_allocate_calls_proxy_score_and_solve_mckp_through_the_module(model, weight_table, monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(al, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(al, name, wrapper)

    counted("proxy_score")
    counted("solve_mckp")
    opts = al.AllocOptions(bos_aware=True, proxy_inputs=2, n_budgets=3)
    res = al.allocate(model, weight_table, 4.0, tensor_kind=sv.WEIGHT, options=opts)
    assert calls["proxy_score"] == len({json.dumps(c.to_json_dict(), sort_keys=True) for c in res.sweep_configs})
    # one solve per group per cell (a cell stops at an infeasible group): the
    # benchmark's solver tail figures need their 20+ calls
    cells = opts.n_budgets * len(al.DEFAULT_RATIO_GRID_WEIGHT)
    assert 2 * len(res.sweep) <= calls["solve_mckp"] <= 2 * cells


def test_proxy_score_reaches_forward_once_per_chunk(model, act_table, monkeypatch):
    # The cached sweep still makes one forward call per proxy chunk and config,
    # which keeps toy_model.forward's call count (and its tail figures) in the benchmark.
    calls = Counter()
    real_forward, real_score = tm.forward, al.proxy_score
    scored = []

    def forward(*args, **kwargs):
        calls["forward"] += 1
        return real_forward(*args, **kwargs)

    def proxy_score(model, config, *args, **kwargs):
        scored.append(json.dumps(config.to_json_dict(), sort_keys=True))
        before = calls["forward"]
        score = real_score(model, config, *args, **kwargs)
        calls["per_score", calls["forward"] - before] += 1
        return score

    monkeypatch.setattr(tm, "forward", forward)
    monkeypatch.setattr(al, "proxy_score", proxy_score)
    opts = al.AllocOptions(bos_aware=True, proxy_inputs=tm.FORWARD_CHUNK + 2, n_budgets=3)
    ranges = tm.calibrate_activations(model, tm.make_input_set(1, 4, model), bos_aware=True)
    res = al.allocate(model, act_table, 7.5, tensor_kind=sv.ACTIVATION, options=opts, act_ranges=ranges)
    distinct = {json.dumps(c.to_json_dict(), sort_keys=True) for c in res.sweep_configs}
    assert sorted(scored) == sorted(distinct) and len(distinct) > 1
    assert calls["per_score", 2] == len(distinct)  # two chunks: FORWARD_CHUNK inputs and 2
    assert calls["forward"] == 2 * (len(distinct) + 1)  # and the FP references
