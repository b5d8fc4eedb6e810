"""One-layer-at-a-time sensitivity analysis with per-group metrics.

Each probe quantizes exactly one layer's weight or input activation at one
bit-width, runs the network forward, and compares the output against the
full-precision reference. Content-group layers (cross-attention and
feed-forward) are scored with SSIM; quality-group layers (everything else)
with SQNR in dB. Scores are averaged over the input set.

A probe does only the work that differs between probes. Everything else is
built once per analysis, for every tensor kind it scores: the stacked input
chunks, the FP reference batch of each chunk (``fp_references``, which holds
the per-reference statistics every score reuses) and the activation ranges.
The probes run in layer order (layer, then kind, then bits) through one
``toy_model.StateCache`` made for that plan. Each probe resumes every chunk
from the FP state the probe before it left at the entry of that probe's
segment, so the FP prefix runs once per chunk, not once per probe. It reads
the FP terms the cache keeps per chunk: the text K/V projections, and the skip
half of ``dec0.fuse`` for every probe from ``enc1.down`` on but the fuse conv's
own. A probe makes one ``toy_model.forward`` call per chunk of
``toy_model.FORWARD_CHUNK`` inputs, scores the chunk with its layer group's
metric only, and sums the scores in input order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from . import metrics, toy_model
from .errors import ParameterError, ValidationError
from .quantizer import BIT_WIDTHS

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
    # (layer, bits, kind) -> score of the first such entry
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        index: dict = {}
        for e in entries:
            index.setdefault((e.layer_id, e.bit_width, e.tensor_kind), e.score)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_index", index)

    def of_kind(self, tensor_kind: str) -> "SensitivityTable":
        """The entries of one tensor kind, in table order."""
        return SensitivityTable(tuple(e for e in self.entries if e.tensor_kind == tensor_kind))

    def score(self, layer_id: str, bit_width: int, tensor_kind: str) -> float:
        """Score of the first entry for the layer, bits and kind."""
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


def fp_references(model: toy_model.ToyModel, chunks, bos_aware: bool = False) -> list[metrics.ReferenceBatch]:
    """The full-precision outputs of each stacked input chunk (``toy_model.input_chunks``),
    one forward per chunk, as the reference batch every score against them reads."""
    return [metrics.ReferenceBatch.of(toy_model.forward(model, *chunk, bos_aware=bos_aware)) for chunk in chunks]


def group_metric(group: str) -> str:
    """The metric that scores a layer group: SSIM for content, SQNR for quality."""
    return metrics.SSIM if group == toy_model.CONTENT else metrics.SQNR_DB


def _probe_config(model: toy_model.ToyModel, layer_id: str, tensor_kind: str, bit_width: int) -> toy_model.QuantConfig:
    """Full precision except one layer's weight or input activation at ``bit_width``."""
    cfg = toy_model.QuantConfig.all_fp(model.layer_order)
    if tensor_kind == WEIGHT:
        cfg.weight_bits[layer_id] = bit_width
    elif tensor_kind == ACTIVATION:
        cfg.act_bits[layer_id] = bit_width
    else:
        raise ParameterError(f"tensor_kind must be one of {TENSOR_KINDS}")
    return cfg


def probe_layer(
    model: toy_model.ToyModel,
    inputs,
    refs,
    layer_id: str,
    tensor_kind: str,
    bit_width: int,
    *,
    bos_aware: bool = False,
    act_ranges=None,
    cache: toy_model.StateCache | None = None,
    metric_kinds: tuple[str, ...] = (metrics.SSIM, metrics.SQNR_DB),
) -> tuple[float, ...]:
    """Quantize one layer's tensor at one bit-width; the mean of each metric of
    ``metric_kinds`` (by default SSIM, then SQNR) against the FP outputs.

    ``inputs`` are the stacked ``toy_model.input_chunks`` and ``refs`` their
    ``fp_references``, one batch per chunk; a caller that probes many layers
    builds both once. Each chunk runs as one
    ``toy_model.forward`` call, with ``cache`` (made for a plan of probe
    configs, with the same ``bos_aware`` and ``act_ranges``) when given, so the
    call resumes from the deepest state the cache holds for the chunk. Each
    chunk's outputs are scored as one batch, and each metric is summed over the
    inputs in input order.
    """
    cfg = _probe_config(model, layer_id, tensor_kind, bit_width)
    scorer_of = {metrics.SSIM: metrics.ssim, metrics.SQNR_DB: metrics.sqnr_db}
    if any(kind not in scorer_of for kind in metric_kinds):
        raise ParameterError(f"metric kinds must be among {tuple(scorer_of)}")
    scorers = [scorer_of[kind] for kind in metric_kinds]
    n_in = [len(chunk[2]) for chunk in inputs]
    if n_in != [batch.size for batch in refs]:
        raise ParameterError(f"{sum(n_in)} probe inputs for {sum(b.size for b in refs)} references")
    sums = [0.0] * len(scorers)
    for chunk, batch in zip(inputs, refs):
        out = toy_model.forward(model, *chunk, config=cfg, bos_aware=bos_aware, act_ranges=act_ranges, cache=cache)
        for k, score in enumerate(scorers):
            for value in score(batch, out):
                sums[k] += value
    n = sum(n_in)
    return tuple(total / n for total in sums)


def analyze(
    model: toy_model.ToyModel,
    inputs,
    bit_widths=BIT_WIDTHS,
    tensor_kind: str | tuple[str, ...] = WEIGHT,
    bos_aware: bool = False,
) -> SensitivityTable:
    """Score every (layer, bit_width) pair for one tensor kind, or for each of a
    tuple of kinds; the table lists the kinds in that order.

    The stacked inputs, the FP references with their statistics and the
    activation ranges are built once for all kinds. The probes run layer by
    layer (then kind, then bits) through one ``toy_model.StateCache`` made for
    that plan: each probe resumes from the FP state the probe before it left at
    the entry of that probe's segment, so the FP prefix and the FP terms (the
    text K/V projections and the fuse conv's skip half) are computed once per
    chunk. Each probe computes only its layer
    group's metric.
    """
    if not inputs:
        raise ParameterError("sensitivity analysis needs a non-empty input set")
    bit_widths = tuple(sorted(set(int(b) for b in bit_widths)))
    if not bit_widths or any(b not in BIT_WIDTHS for b in bit_widths):
        raise ParameterError(f"bit widths must be a non-empty subset of {BIT_WIDTHS}")
    kinds = (tensor_kind,) if isinstance(tensor_kind, str) else tuple(tensor_kind)
    if not kinds or len(set(kinds)) != len(kinds) or any(k not in TENSOR_KINDS for k in kinds):
        raise ParameterError(f"tensor_kind must be one of {TENSOR_KINDS}, or a tuple of distinct ones")

    chunks = list(toy_model.input_chunks(inputs))
    refs = fp_references(model, chunks, bos_aware=bos_aware)
    act_ranges = toy_model.calibrate_activations(model, inputs, bos_aware=bos_aware) if ACTIVATION in kinds else None
    plan = [(lid, kind, b) for lid in model.layer_order for kind in kinds for b in bit_widths]
    cache = toy_model.StateCache(model, [_probe_config(model, *probe) for probe in plan])

    scores = {}
    for lid, kind, b in plan:
        (scores[kind, lid, b],) = probe_layer(
            model, chunks, refs, lid, kind, b,
            bos_aware=bos_aware, act_ranges=act_ranges, cache=cache,
            metric_kinds=(group_metric(model.layers[lid].group),),
        )

    n = len(inputs)
    return SensitivityTable(
        SensitivityEntry(lid, kind, b, scores[kind, lid, b], group_metric(model.layers[lid].group), n)
        for kind in kinds
        for lid in model.layer_order
        for b in bit_widths
    )
