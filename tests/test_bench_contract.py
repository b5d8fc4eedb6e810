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
from collections import Counter
from pathlib import Path

from mixprec import allocator as al, metrics, sensitivity as sv, toy_model as tm

import helpers

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
    for name in ("ssim", "sqnr_db", "ssim_batch", "sqnr_db_batch"):
        counted(metrics, name)
    inputs = small_inputs[:2]  # one chunk
    sv.analyze(model, inputs, bit_widths=(4,), tensor_kind=sv.WEIGHT)
    assert calls["fp_references"] == 1
    assert calls["forward"] == 1 + len(model.layer_order)  # the references, then one call per probe
    # each probe scores its chunk with its layer group's metric only
    content = sum(model.layers[lid].group == tm.CONTENT for lid in model.layer_order)
    assert calls["ssim_batch"] == content
    assert calls["sqnr_db_batch"] == len(model.layer_order) - content
    assert calls["ssim"] == calls["sqnr_db"] == 0


def test_probe_layer_reaches_forward_once_per_chunk(model, small_inputs, monkeypatch):
    inputs = tm.make_input_set(5, tm.FORWARD_CHUNK + 2, model)  # two chunks: 8 inputs and 2
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
    assert calls["per_score", 2] == len(distinct)  # two chunks: 8 inputs and 2
    assert calls["forward"] == 2 * (len(distinct) + 1)  # and the FP references
