"""Code only the tests use: allocation baselines and their long-tail ranking, a
reference sensitivity scorer, a state-cache recorder, reference kernels and
layers, a quant-params wire format, checksums, MSE."""

from __future__ import annotations

import hashlib

import numpy as np

from mixprec import metrics, quantizer, toy_model
from mixprec.errors import InfeasibleBudgetError, ShapeError
from mixprec.sensitivity import WEIGHT, SensitivityEntry, SensitivityTable, fp_references
from mixprec.tensor_core import Tensor, make_rng


def _kind_config(model, tensor_kind: str, bits: dict[str, int]) -> toy_model.QuantConfig:
    cfg = toy_model.QuantConfig.all_fp(model.layer_order)
    (cfg.weight_bits if tensor_kind == WEIGHT else cfg.act_bits).update(bits)
    return cfg


def _elems_and_budget(model, tensor_kind: str, target_avg_bits: float) -> tuple[dict[str, int], float]:
    elem_field = "param_count" if tensor_kind == WEIGHT else "act_elem_count"
    elems = {lid: getattr(model.layers[lid], elem_field) for lid in model.layer_order}
    return elems, target_avg_bits * sum(elems.values())


def rank_long_tail(table: SensitivityTable) -> list[tuple[str, float]]:
    """Layers ordered most-sensitive first: ascending score at the lowest bit-width."""
    low = min(table.bit_widths())
    scored = [(e.layer_id, e.score) for e in table.entries if e.bit_width == low]
    return sorted(scored, key=lambda pair: (pair[1], pair[0]))


def naive_sorting_config(
    model: toy_model.ToyModel,
    table: SensitivityTable,
    target_avg_bits: float,
    *,
    tensor_kind: str = WEIGHT,
    bit_widths: tuple[int, ...] = quantizer.BIT_WIDTHS,
) -> toy_model.QuantConfig:
    """Baseline: demote the least-sensitive layer step by step until the budget fits."""
    bits_grid = tuple(sorted(bit_widths))
    elems, budget = _elems_and_budget(model, tensor_kind, target_avg_bits)
    order = [lid for lid, _ in reversed(rank_long_tail(table))]  # least sensitive first
    bits = {lid: bits_grid[-1] for lid in model.layer_order}
    cost = sum(bits[lid] * elems[lid] for lid in bits)
    for lid in order:
        while cost > budget and bits[lid] > bits_grid[0]:
            lower = bits_grid[bits_grid.index(bits[lid]) - 1]
            cost -= (bits[lid] - lower) * elems[lid]
            bits[lid] = lower
        if cost <= budget:
            break
    if cost > budget:
        raise InfeasibleBudgetError(f"target {target_avg_bits:g} bits infeasible for naive sorting")
    return _kind_config(model, tensor_kind, bits)


def random_config(
    model: toy_model.ToyModel,
    seed: int,
    target_avg_bits: float,
    *,
    tensor_kind: str = WEIGHT,
    bit_widths: tuple[int, ...] = quantizer.BIT_WIDTHS,
) -> toy_model.QuantConfig:
    """Random feasible config near the budget: demote random layers until it fits."""
    rng = make_rng(seed, "random-config")
    bits_grid = tuple(sorted(bit_widths))
    elems, budget = _elems_and_budget(model, tensor_kind, target_avg_bits)
    bits = {lid: bits_grid[-1] for lid in model.layer_order}
    cost = sum(bits[lid] * elems[lid] for lid in bits)
    while cost > budget:
        demotable = [lid for lid in model.layer_order if bits[lid] > bits_grid[0]]
        if not demotable:
            raise InfeasibleBudgetError(f"target {target_avg_bits:g} bits infeasible")
        lid = demotable[int(rng.integers(len(demotable)))]
        lower = bits_grid[bits_grid.index(bits[lid]) - 1]
        cost -= (bits[lid] - lower) * elems[lid]
        bits[lid] = lower
    return _kind_config(model, tensor_kind, bits)


def per_input_sensitivity_table(
    model, inputs, bit_widths, tensor_kind: str, bos_aware: bool, *, single_input_forwards: bool = False
) -> SensitivityTable:
    """The table ``sensitivity.analyze`` must give, scored the plain way.

    Every probe runs from the input: ``forward_inputs`` in chunks with no state
    cache (or, with ``single_input_forwards``, one ``forward`` per input), so
    this oracle shares no resume code with the engine it checks. It scores every
    output with both metrics one input at a time (``ssim`` under the
    reference's data-range weights, and ``sqnr_db``), sums them in input order,
    and keeps its layer group's metric.
    """
    ranges = toy_model.calibrate_activations(model, inputs, bos_aware=bos_aware) if tensor_kind != WEIGHT else None
    options = dict(bos_aware=bos_aware, act_ranges=ranges)
    if single_input_forwards:
        refs = [toy_model.forward(model, *inp, bos_aware=bos_aware) for inp in inputs]
    else:
        refs = fp_references(model, inputs, bos_aware=bos_aware)
    scores = {}
    for lid in model.layer_order:
        for b in bit_widths:
            cfg = _kind_config(model, tensor_kind, {lid: b})
            if single_input_forwards:
                outs = [toy_model.forward(model, *inp, config=cfg, **options) for inp in inputs]
            else:
                outs = toy_model.forward_inputs(model, inputs, config=cfg, **options)
            ssim_sum = sqnr_sum = 0.0
            for ref, out in zip(refs, outs, strict=True):
                data_range = float(ref.max() - ref.min())
                weights = metrics.SsimWeights.for_data_range(data_range if data_range > 0 else 1.0)
                ssim_sum += metrics.ssim(ref, out, weights).value
                sqnr_sum += metrics.sqnr_db(ref, out).value
            scores[lid, b] = {metrics.SSIM: ssim_sum / len(refs), metrics.SQNR_DB: sqnr_sum / len(refs)}
    entries = []
    for lid in model.layer_order:
        kind = metrics.SSIM if model.layers[lid].group == toy_model.CONTENT else metrics.SQNR_DB
        for b in bit_widths:
            entries.append(SensitivityEntry(lid, tensor_kind, b, scores[lid, b][kind], kind, len(refs)))
    return SensitivityTable(entries)


def record_state_caches(monkeypatch) -> list:
    """Patch ``toy_model.StateCache`` to record every cache built from here on."""
    caches, real = [], toy_model.StateCache

    def recording(*args):
        caches.append(real(*args))
        return caches[-1]

    monkeypatch.setattr(toy_model, "StateCache", recording)
    return caches


def where_silu(x: np.ndarray) -> np.ndarray:
    """SiLU as where(x >= 0, x, x * e) / (1 + e) with e = exp(-|x|): the select
    form ``toy_model._silu`` must equal bit for bit."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, x, x * e)
    e += 1.0
    out /= e
    return out


def reduce_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with the row max taken by one reduce: the form
    ``toy_model._softmax_rows`` must equal bit for bit."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def upsample2(x: np.ndarray) -> np.ndarray:
    """2x nearest upsampling of a (B, C, H, W) batch: the input ``dec0.up_conv``
    convolves, which ``toy_model._upsample_conv`` never builds."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def quant_params_to_json_dict(layer_id: str, tensor_kind: str, params: quantizer.QuantParams) -> dict:
    """Wire format for calibrated params: one record per (layer, tensor kind)."""
    return {
        "layer_id": layer_id,
        "tensor_kind": tensor_kind,
        "bit_width": params.bit_width,
        "granularity": params.granularity,
        "scales": np.atleast_1d(params.scales).tolist(),
        "zero_points": np.atleast_1d(params.zero_points).tolist(),
        "channel_axis": params.channel_axis,
    }


def quant_params_from_json_dict(d: dict) -> tuple[str, str, quantizer.QuantParams]:
    scales = np.asarray(d["scales"], dtype=np.float64)
    zeros = np.asarray(d["zero_points"], dtype=np.int64)
    if d["granularity"] == quantizer.PER_TENSOR:
        scales = scales.reshape(())
        zeros = zeros.reshape(())
    params = quantizer.QuantParams(
        bit_width=d["bit_width"],
        granularity=d["granularity"],
        scales=scales,
        zero_points=zeros,
        channel_axis=d.get("channel_axis"),
    )
    return d["layer_id"], d["tensor_kind"], params


def output_checksum(t: Tensor) -> str:
    return hashlib.sha256(np.ascontiguousarray(t, dtype=np.float64).tobytes()).hexdigest()


def mse(a: Tensor, b: Tensor) -> float:
    """Mean squared elementwise difference; shapes must match."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = (a - b).ravel()
    return float(np.dot(d, d) / d.size)
