"""One-layer-at-a-time sensitivity analysis with per-group metrics.

Each probe quantizes exactly one layer's weight or input activation at one
bit-width, runs the network forward, and compares the output against the
full-precision reference. Content-group layers (cross-attention and
feed-forward) are scored with SSIM; quality-group layers (everything else)
with SQNR in dB. Scores are averaged over the input set. Full-precision
reference outputs are computed once and reused across all probes. Each probe
runs its inputs through the network in stacked chunks of
``toy_model.FORWARD_CHUNK``, starting from the FP state cached at the entry of
the segment that runs the probed layer, and scores them one by one, in input
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from . import metrics, toy_model
from .errors import ParameterError, ValidationError
from .quantizer import BIT_WIDTHS
from .tensor_core import Tensor

WEIGHT = "weight"
ACTIVATION = "activation"
TENSOR_KINDS = (WEIGHT, ACTIVATION)


@dataclass(frozen=True)
class SensitivityEntry:
    layer_id: str
    tensor_kind: str
    bit_width: int
    score: float
    metric_kind: str
    n_inputs: int


@dataclass(frozen=True)
class SensitivityTable:
    entries: tuple[SensitivityEntry, ...]
    # (layer, bits, kind) and (layer, bits, None) -> score of the first such entry
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        index: dict = {}
        for e in entries:
            index.setdefault((e.layer_id, e.bit_width, e.tensor_kind), e.score)
            index.setdefault((e.layer_id, e.bit_width, None), e.score)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_index", index)

    def layer_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.layer_id, None)
        return list(seen)

    def bit_widths(self) -> tuple[int, ...]:
        return tuple(sorted({e.bit_width for e in self.entries}))

    def score(self, layer_id: str, bit_width: int, tensor_kind: str | None = None) -> float:
        """Score of the first entry for the layer and bits (and kind, when given)."""
        try:
            return self._index[layer_id, bit_width, tensor_kind]
        except KeyError:
            raise KeyError((layer_id, bit_width, tensor_kind)) from None

    def validate_complete(self, layer_ids, bit_widths, tensor_kind: str) -> None:
        """Exactly one entry per (layer, tensor_kind, bit_width), each with a finite score."""
        for e in self.entries:
            if isinstance(e.score, bool) or not isinstance(e.score, (int, float)) or not math.isfinite(e.score):
                raise ValidationError(f"score {e.score!r} of {e.layer_id} at {e.bit_width} bits is not a finite number")
        want = {(lid, tensor_kind, b) for lid in layer_ids for b in bit_widths}
        got = [(e.layer_id, e.tensor_kind, e.bit_width) for e in self.entries]
        if len(got) != len(set(got)):
            raise ValidationError("table holds duplicate (layer, kind, bits) entries")
        if set(got) != want:
            raise ValidationError(
                f"table is incomplete: missing {sorted(want - set(got))[:5]}..."
                if want - set(got)
                else "table holds entries outside the expected grid"
            )

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(e), sort_keys=True) + "\n" for e in self.entries)

    @classmethod
    def from_jsonl(cls, text: str) -> "SensitivityTable":
        entries = [SensitivityEntry(**json.loads(line)) for line in text.splitlines() if line.strip()]
        return cls(entries)


def fp_references(
    model: toy_model.ToyModel, inputs, bos_aware: bool = False
) -> list[Tensor]:
    """Full-precision outputs for every input, computed once per analysis."""
    return toy_model.forward_inputs(model, inputs, bos_aware=bos_aware)


def probe_layer(
    model: toy_model.ToyModel,
    inputs,
    refs: list[Tensor],
    layer_id: str,
    tensor_kind: str,
    bit_width: int,
    *,
    bos_aware: bool = False,
    act_ranges=None,
    sqnr_cap_db: float = metrics.DEFAULT_SQNR_CAP_DB,
    states=None,
) -> tuple[float, float]:
    """Quantize one layer's tensor at one bit-width; mean (SSIM, SQNR) vs FP.

    ``states`` are the chunks' cached FP states (``toy_model.segment_states``,
    built with the same ``bos_aware``) at a segment no later than the one that
    runs ``layer_id``; the probe runs only from there on. Without them it runs
    the whole network on ``inputs``.
    """
    cfg = toy_model.QuantConfig.all_fp(model.layer_order)
    if tensor_kind == WEIGHT:
        cfg.weight_bits[layer_id] = bit_width
    elif tensor_kind == ACTIVATION:
        cfg.act_bits[layer_id] = bit_width
    else:
        raise ParameterError(f"tensor_kind must be one of {TENSOR_KINDS}")
    if states is None:
        _, states = next(toy_model.segment_states(model, inputs, bos_aware=bos_aware))
    outs = [
        out
        for state in states
        for out in toy_model.resume(model, state, cfg, bos_aware=bos_aware, act_ranges=act_ranges)
    ]
    if len(outs) != len(refs):
        raise ParameterError(f"{len(outs)} probe outputs for {len(refs)} references")
    ssim_sum = 0.0
    sqnr_sum = 0.0
    for ref, out in zip(refs, outs):
        data_range = float(ref.max() - ref.min())
        weights = metrics.SsimWeights.for_data_range(data_range if data_range > 0 else 1.0)
        ssim_sum += metrics.ssim(ref, out, weights).value
        sqnr_sum += metrics.sqnr_db(ref, out, cap_db=sqnr_cap_db).value
    n = len(refs)
    return ssim_sum / n, sqnr_sum / n


def analyze(
    model: toy_model.ToyModel,
    inputs,
    bit_widths=BIT_WIDTHS,
    tensor_kind: str = WEIGHT,
    bos_aware: bool = False,
    *,
    act_ranges=None,
) -> SensitivityTable:
    """Score every (layer, bit_width) pair for one tensor kind.

    The FP states of every input chunk advance one segment at a time, and each
    layer's probes resume from the states at the entry of the segment that runs
    it, so no probe recomputes the FP prefix before its layer.
    """
    if not inputs:
        raise ParameterError("sensitivity analysis needs a non-empty input set")
    bit_widths = tuple(sorted(set(int(b) for b in bit_widths)))
    if not bit_widths or any(b not in BIT_WIDTHS for b in bit_widths):
        raise ParameterError(f"bit widths must be a non-empty subset of {BIT_WIDTHS}")
    if tensor_kind not in TENSOR_KINDS:
        raise ParameterError(f"tensor_kind must be one of {TENSOR_KINDS}")

    refs = fp_references(model, inputs, bos_aware=bos_aware)
    if tensor_kind == ACTIVATION and act_ranges is None:
        act_ranges = toy_model.calibrate_activations(model, inputs, bos_aware=bos_aware)

    scores = {}
    for segment, states in toy_model.segment_states(model, inputs, bos_aware=bos_aware):
        for lid in segment.layers:
            for b in bit_widths:
                scores[lid, b] = probe_layer(
                    model, inputs, refs, lid, tensor_kind, b,
                    bos_aware=bos_aware, act_ranges=act_ranges, states=states,
                )

    entries = []
    for lid in model.layer_order:
        for b in bit_widths:
            ssim_score, sqnr_score = scores[lid, b]
            if model.layers[lid].group == toy_model.CONTENT:
                entries.append(SensitivityEntry(lid, tensor_kind, b, ssim_score, metrics.SSIM, len(refs)))
            else:
                entries.append(SensitivityEntry(lid, tensor_kind, b, sqnr_score, metrics.SQNR_DB, len(refs)))
    return SensitivityTable(entries)


def rank_long_tail(table: SensitivityTable) -> list[tuple[str, float]]:
    """Layers ordered most-sensitive first: ascending score at the lowest bit-width."""
    low = min(table.bit_widths())
    scored = [(e.layer_id, e.score) for e in table.entries if e.bit_width == low]
    return sorted(scored, key=lambda pair: (pair[1], pair[0]))
