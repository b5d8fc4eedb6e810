"""Code only the tests use: allocation baselines and their long-tail ranking,
per-input metrics and a reference sensitivity scorer, probe inputs, a
state-cache recorder, the per-layer cost count and descriptor audit,
reference kernels and layers, an integer-code fake-quant oracle, checksums,
MSE, and a reader of a saved model."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from mixprec import metrics, quantizer, toy_model
from mixprec.errors import InfeasibleBudgetError, ShapeError, UndefinedMetricError
from mixprec.sensitivity import WEIGHT, SensitivityEntry, SensitivityTable, fp_references
from mixprec.tensor_core import Tensor, l2_norm_sq, make_rng


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
    low = min(e.bit_width for e in table.entries)
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


def forward_inputs(model, inputs, **options) -> list[Tensor]:
    """``toy_model.forward`` over a list of (latent, embedding, timestep) inputs in
    stacked ``toy_model.input_chunks``; one output per input, in input order."""
    return [out for chunk in toy_model.input_chunks(inputs) for out in toy_model.forward(model, *chunk, **options)]


# The per-input metrics: the oracle that ``metrics.ssim`` and ``metrics.sqnr_db``,
# which score a stacked batch against a ``metrics.ReferenceBatch``, must equal
# bit for bit, input by input.


def ssim_weights(reference: Tensor) -> metrics.SsimWeights:
    """Stabilizers for the reference's data range, taken in float64 like every
    metric statistic; a constant reference uses range 1."""
    reference = np.asarray(reference, dtype=np.float64)
    data_range = float(np.max(reference) - np.min(reference))
    return metrics.SsimWeights.for_data_range(1.0 if data_range == 0 else data_range)


def ssim_components(x: Tensor, y: Tensor, weights: metrics.SsimWeights | None = None):
    """Luminance, contrast, and structure terms over one full-image window."""
    w = weights or metrics.SsimWeights()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    mu_x = float(x.mean())
    mu_y = float(y.mean())
    var_x = float(((x - mu_x) ** 2).mean())
    var_y = float(((y - mu_y) ** 2).mean())
    cov = float(((x - mu_x) * (y - mu_y)).mean())
    if not all(map(math.isfinite, (mu_x, mu_y, var_x, var_y, cov))):
        raise UndefinedMetricError("similarity undefined: an input is not finite, or its moments overflow")
    sd_x, sd_y = math.sqrt(var_x), math.sqrt(var_y)
    lum_den = mu_x * mu_x + mu_y * mu_y + w.c1
    con_den = var_x + var_y + w.c2
    str_den = sd_x * sd_y + w.c2 / 2
    if lum_den == 0 or con_den == 0 or str_den == 0:
        raise UndefinedMetricError("similarity undefined: zero-mean or constant inputs with zero stabilizers")
    return (2 * mu_x * mu_y + w.c1) / lum_den, (2 * sd_x * sd_y + w.c2) / con_den, (cov + w.c2 / 2) / str_den


def ssim(x: Tensor, y: Tensor, weights: metrics.SsimWeights | None = None) -> float:
    """Structural similarity of one pair: luminance * contrast * structure."""
    lum, con, struct = ssim_components(x, y, weights)
    return float(lum * con * struct)


def sqnr_db(reference: Tensor, test: Tensor) -> float:
    """Signal-to-quantization-noise ratio in dB of one pair, capped at ``metrics.SQNR_CAP_DB``."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ShapeError(f"shape mismatch: {reference.shape} vs {test.shape}")
    signal, noise = l2_norm_sq(reference), l2_norm_sq(reference - test)
    if not (math.isfinite(signal) and math.isfinite(noise)):
        raise UndefinedMetricError("SQNR undefined: an input is not finite, or its energy overflows")
    if signal == 0.0:
        raise UndefinedMetricError("reference signal is identically zero")
    if noise == 0.0:
        return metrics.SQNR_CAP_DB
    ratio = signal / noise
    # a ratio that underflows to zero (a subnormal signal) still has a logarithm
    db = 10.0 * math.log10(ratio) if ratio > 0.0 else 10.0 * (math.log10(signal) - math.log10(noise))
    return float(min(metrics.SQNR_CAP_DB, db))


def per_input_scores(refs, outs) -> tuple[list[float], list[float]]:
    """The oracle SSIM (under each reference's data-range weights) and SQNR of
    each output against its reference, in input order."""
    pairs = list(zip(refs, outs, strict=True))
    return [ssim(r, o, ssim_weights(r)) for r, o in pairs], [sqnr_db(r, o) for r, o in pairs]


def mean_in_order(values) -> float:
    """The values summed in input order from 0.0, over their count: every mean the pipeline reports."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def per_input_sensitivity_table(
    model, inputs, bit_widths, tensor_kind: str, bos_aware: bool, *, single_input_forwards: bool = False
) -> SensitivityTable:
    """The table ``sensitivity.analyze`` must give, scored the plain way.

    Every probe runs from the input: ``forward_inputs`` in chunks with no state
    cache (or, with ``single_input_forwards``, one ``forward`` per input), so
    this oracle shares no resume code with the engine it checks. It scores every
    output with both per-input metrics, sums them in input order, and keeps its
    layer group's metric.
    """
    ranges = toy_model.calibrate_activations(model, inputs, bos_aware=bos_aware) if tensor_kind != WEIGHT else None
    options = dict(bos_aware=bos_aware, act_ranges=ranges)
    if single_input_forwards:
        refs = [toy_model.forward(model, *inp, bos_aware=bos_aware) for inp in inputs]
    else:
        refs = forward_inputs(model, inputs, bos_aware=bos_aware)
    scores = {}
    for lid in model.layer_order:
        for b in bit_widths:
            cfg = _kind_config(model, tensor_kind, {lid: b})
            if single_input_forwards:
                outs = [toy_model.forward(model, *inp, config=cfg, **options) for inp in inputs]
            else:
                outs = forward_inputs(model, inputs, config=cfg, **options)
            ssims, sqnrs = per_input_scores(refs, outs)
            scores[lid, b] = {metrics.SSIM: mean_in_order(ssims), metrics.SQNR_DB: mean_in_order(sqnrs)}
    entries = []
    for lid in model.layer_order:
        kind = metrics.SSIM if model.layers[lid].group == toy_model.CONTENT else metrics.SQNR_DB
        for b in bit_widths:
            entries.append(SensitivityEntry(lid, tensor_kind, b, scores[lid, b][kind], kind, len(refs)))
    return SensitivityTable(entries)


def probe_inputs(model, inputs, bos_aware: bool = False) -> tuple[list, list]:
    """The stacked input chunks and the reference batches of their FP outputs,
    the two forms ``sensitivity.probe_layer`` takes, as ``sensitivity.analyze`` builds them."""
    chunks = list(toy_model.input_chunks(inputs))
    return chunks, fp_references(model, chunks, bos_aware=bos_aware)


def record_state_caches(monkeypatch) -> list:
    """Patch ``toy_model.StateCache`` to record every cache built from here on."""
    caches, real = [], toy_model.StateCache

    def recording(*args):
        caches.append(real(*args))
        return caches[-1]

    monkeypatch.setattr(toy_model, "StateCache", recording)
    return caches


def layer_costs(monkeypatch, model, latent, embedding, timestep, *, bos_aware: bool = False) -> dict:
    """(input elements, MACs) per input of every weighted layer, counted from
    its operands during one ``toy_model.forward``, in the order the layers ran.

    A subclass of ``toy_model._Run``, swapped in for the call, counts after each
    layer method: the up conv as the logical 3x3 conv over the 2x upsampling of
    its input (four times its elements), the fuse conv over both halves, and a
    first-token-aware K/V projection over the whole embedding.
    """
    costs: dict[str, tuple[int, int]] = {}

    def conv_macs(out, in_channels):
        return int(out[0].size) * in_channels * 9

    class Counting(toy_model._Run):
        def linear(self, lid, x):
            out = super().linear(lid, x)
            costs[lid] = (int(x[0].size), int(x[0].size) * out.shape[-1])
            return out

        def _kv_project(self, lid, embedding):
            out = super()._kv_project(lid, embedding)
            costs[lid] = (int(embedding[0].size), int(embedding[0].size) * out.shape[-1])
            return out

        def conv(self, lid, x):
            out = super().conv(lid, x)
            costs[lid] = (int(x[0].size), conv_macs(out, x.shape[1]))
            return out

        def up_conv(self, lid, x):
            out = super().up_conv(lid, x)
            costs[lid] = (4 * int(x[0].size), conv_macs(out, x.shape[1]))
            return out

        def fuse_conv(self, lid, x, skip, skip_layers):
            out = super().fuse_conv(lid, x, skip, skip_layers)
            costs[lid] = (int(x[0].size + skip[0].size), conv_macs(out, x.shape[1] + skip.shape[1]))
            return out

    with monkeypatch.context() as patched:
        patched.setattr(toy_model, "_Run", Counting)
        toy_model.forward(model, latent, embedding, timestep, bos_aware=bos_aware)
    return costs


def descriptor_problems(monkeypatch, model, *, bos_aware: bool = False) -> list[str]:
    """Each layer whose descriptor's input-element or MAC count differs from
    ``layer_costs`` on one input, or that never ran; [] means clean."""
    costs = layer_costs(monkeypatch, model, *toy_model.make_input_set(0, 1, model)[0], bos_aware=bos_aware)
    problems = []
    for lid, layer in model.layers.items():
        if lid not in costs:
            problems.append(f"{lid}: never ran")
        elif costs[lid] != (layer.act_elem_count, layer.mac_count):
            problems.append(f"{lid}: counted {costs[lid]} != descriptor {(layer.act_elem_count, layer.mac_count)}")
    return problems


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU as x / (1 + exp(-x)), out of place: the form ``toy_model._silu``
    must equal bit for bit. Below about -88.72 in float32 exp(-x) overflows and
    the result is -0.0."""
    with np.errstate(over="ignore"):
        return x / (1.0 + np.exp(-x))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with the row max taken by one reduce, a
    weight of exp(-inf) = +0.0 for every entry more than
    ``toy_model._SOFTMAX_FLOOR`` below it, and the row sums taken by a product
    with a column of ones: the form ``toy_model._softmax_rows`` must equal bit
    for bit."""
    e = x - x.max(axis=-1, keepdims=True)
    e = np.exp(np.where(e < toy_model._SOFTMAX_FLOOR, -np.inf, e))
    return e / (e @ np.ones((x.shape[-1], 1), dtype=e.dtype))


def _conv_taps(size: int, out_size: int, stride: int) -> list[tuple[slice, slice]]:
    """Per kernel offset k = 0, 1, 2 along one axis: the output positions whose
    tap reads inside the input, and the input positions those taps read. Output
    o's tap at k reads input o * stride + k - 1; the rest read the zero border."""
    taps = []
    for k in range(3):
        first = 1 if k == 0 else 0
        stop = min(out_size, (size - k) // stride + 1)
        taps.append((slice(first, stop), slice(first * stride + k - 1, (stop - 1) * stride + k, stride)))
    return taps


def slice_conv3x3(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """Zero-padded 3x3 convolution of a (B, C, H, W) batch from a patch tensor
    without pad columns: the oracle ``toy_model._conv3x3`` must equal.

    For up to ``toy_model._CONV_INPUTS`` inputs at a time, nine strided slice
    copies straight from the unpadded input fill the transposed patch tensor
    (n, C, 3, 3, H_out, W_out), whose [i, c, ky, kx] plane is input i's channel c
    shifted by (ky - 1, kx - 1) and strided; a tap that falls on the padding
    reads the buffer's border, which no copy writes. One matmul of the
    (C_out, 9C) weights with the (n, 9C, H_out * W_out) patches writes the
    outputs in place. Every buffer has the dtype of ``x``.
    """
    b, c, h, wd = x.shape
    cout = w.shape[0]
    ho, wo = -(-h // stride), -(-wd // stride)
    rows, cols = _conv_taps(h, ho, stride), _conv_taps(wd, wo, stride)
    step = toy_model._CONV_INPUTS
    patches = np.zeros((min(b, step), c, 3, 3, ho, wo), dtype=x.dtype)
    wm = w.reshape(cout, 9 * c)
    out = np.empty((b, cout, ho, wo), dtype=x.dtype)
    for i in range(0, b, step):
        xs = x[i:i + step]
        n = xs.shape[0]
        for ky, (oy, iy) in enumerate(rows):
            for kx, (ox, ix) in enumerate(cols):
                patches[:n, :, ky, kx, oy, ox] = xs[:, :, iy, ix]
        np.matmul(wm, patches[:n].reshape(n, 9 * c, ho * wo), out=out[i:i + n].reshape(n, cout, ho * wo))
    return out


def upsample2(x: np.ndarray) -> np.ndarray:
    """2x nearest upsampling of a (B, C, H, W) batch: the input ``dec0.up_conv``
    convolves, which ``toy_model._upsample_conv`` never builds."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def quantize_codes(t: Tensor, params: quantizer.QuantParams) -> np.ndarray:
    """Oracle for ``quantizer.fake_quant``, first half: the integer codes
    clamp(round(t / s) + z, 0, 2^b - 1) as int64. Not defined for NaN."""
    t = np.asarray(t, dtype=np.float64)
    codes = np.clip(quantizer.round_half_away(t / params.scales) + params.zero_points, 0, params.qmax)
    return codes.astype(np.int64)


def dequantize_codes(codes: np.ndarray, params: quantizer.QuantParams) -> Tensor:
    """Oracle for ``quantizer.fake_quant``, second half: (q - z) * s, the
    difference taken in integers."""
    return ((codes - params.zero_points) * params.scales).astype(np.float64)


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


def tensor_files(base: Path) -> tuple[bytes, bytes]:
    """The bytes of the ``.bin`` and sidecar ``tensor_core.save_tensor`` wrote at ``base``."""
    return Path(f"{base}.bin").read_bytes(), Path(f"{base}.json").read_bytes()


def read_model(root: Path) -> toy_model.ToyModel:
    """The model ``toy_model.save_model`` wrote to ``root``'s ``model.json`` and ``weights/``,
    read from its files without checking them against a manifest."""
    meta = json.loads((root / "model.json").read_text("utf-8"))
    weights = {row["id"]: tensor_files(root / "weights" / row["id"]) for row in meta["layers"]}
    return toy_model.load_model(meta, root / "weights", weights)
