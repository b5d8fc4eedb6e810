"""A deterministic desk-scale diffusion-style network.

The graph is a two-stage UNet: conv stem, downsample, a transformer block
(self-attention, text cross-attention, feed-forward) at the bottleneck, an
upsample with a concatenated skip connection, a second cross-attention at
full resolution, and a conv head that emits a pseudo-image with the same
spatial shape as the latent. Time conditioning enters through a small MLP
over sinusoidal features plus per-stage channel projections.

The graph runs as one ordered list of segments, each keyed by the layers it
runs, and ``forward`` runs them in order. A ``StateCache`` made for a planned
sequence of configs lets each ``forward`` call resume from the deepest state an
earlier call left whose passed layers ran the same bits, so a sensitivity probe
or a sweep config skips the prefix it shares with the config before it. The
cache also keeps each chunk's FP terms: outputs that depend on the chunk alone
while the layers they pass through run at full precision (the text K/V
projections, and the skip half of the fuse conv).

Every weighted layer carries a descriptor (kind, metric group, parameter /
activation / MAC counts) and can be independently fake-quantized on its
weight and/or its input activation. Normalizations and nonlinearities are
never quantized. The concatenated skip tensor is always quantized as two
separately calibrated halves. Layers are bias-free, so a layer's parameter
count is exactly the product of its weight shape.

The forward engine runs in one dtype, ``DTYPE`` (float32): inputs are cast at
entry, weights at their first use, and every kernel computes and allocates in
the dtype of its operands. The float64 master weights, their per-channel grids,
the calibrated ranges and the files on disk stay float64.

Two convs never build their logical input. The upsampling conv runs as four
2x2 phase convs on the low-resolution input, and the fuse conv as the sum of
one conv over each half of the concatenation. Descriptors and calibration
still describe the logical 3x3 convs.

Layer-kind grouping: cross-attention projections and feed-forward layers
form the "content" group; self-attention, convolutions, and everything
else form the "quality" group.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import quantizer
from .errors import ConfigError, InputError, ParameterError, ShapeError, ValidationError
from .manifest import read_artifact, write_json
from .quantizer import params_from_minmax
from .tensor_core import Tensor, derive_seed, make_rng, load_tensor, random_normal, save_tensor


# The forward engine's one dtype: inputs, weights, segment states, FP terms and
# every kernel buffer. Half the bytes of float64 per element, and each input's
# output in a batch still equals its single-input forward bit for bit.
DTYPE = np.float32


class LayerKind(str, Enum):
    CONV_IN = "conv_in"
    CONV = "conv"
    CONV_OUT = "conv_out"
    SELF_ATTN = "self_attn"
    CROSS_ATTN_TO_Q = "cross_attn_to_q"
    CROSS_ATTN_TO_K = "cross_attn_to_k"
    CROSS_ATTN_TO_V = "cross_attn_to_v"
    CROSS_ATTN_TO_OUT = "cross_attn_to_out"
    FFN = "ffn"
    TIME_EMBED = "time_embed"


CONTENT = "content"
QUALITY = "quality"

_CONTENT_KINDS = {
    LayerKind.CROSS_ATTN_TO_Q,
    LayerKind.CROSS_ATTN_TO_K,
    LayerKind.CROSS_ATTN_TO_V,
    LayerKind.CROSS_ATTN_TO_OUT,
    LayerKind.FFN,
}


def group_for_kind(kind: LayerKind) -> str:
    """Metric group of a layer kind; a pure function of the kind."""
    return CONTENT if kind in _CONTENT_KINDS else QUALITY


@dataclass(frozen=True)
class LayerDescriptor:
    id: str
    kind: LayerKind
    group: str
    weight: Tensor  # float64 master; (out, in) for linear, (out, in, 3, 3) for conv
    param_count: int
    act_elem_count: int
    mac_count: int
    op: str  # "linear" | "conv"
    stride: int = 1


@dataclass
class QuantConfig:
    """Per-layer bit choices; ``None`` means the tensor stays full precision."""

    weight_bits: dict[str, int | None]
    act_bits: dict[str, int | None]

    @classmethod
    def all_fp(cls, layer_ids) -> "QuantConfig":
        ids = list(layer_ids)
        return cls({i: None for i in ids}, {i: None for i in ids})

    @classmethod
    def uniform(cls, layer_ids, weight_bits: int | None, act_bits: int | None) -> "QuantConfig":
        ids = list(layer_ids)
        return cls({i: weight_bits for i in ids}, {i: act_bits for i in ids})

    def validate(self, layer_ids) -> None:
        expected = set(layer_ids)
        for name, mapping in (("weight", self.weight_bits), ("activation", self.act_bits)):
            got = set(mapping)
            if got != expected:
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                raise ConfigError(f"{name} bits mismatch: missing={missing} extra={extra}")
            if any(b is not None and type(b) is not int for b in mapping.values()):
                raise ConfigError(f"{name} bits must be integers or null")

    def wants_act_quant(self) -> bool:
        return any(b is not None for b in self.act_bits.values())

    def to_json_dict(self) -> dict:
        return {
            lid: {"weight": self.weight_bits[lid], "activation": self.act_bits[lid]}
            for lid in sorted(self.weight_bits)
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuantConfig":
        return cls(
            {lid: entry["weight"] for lid, entry in d.items()},
            {lid: entry["activation"] for lid, entry in d.items()},
        )


@dataclass(frozen=True)
class ActRange:
    """Calibrated input range for one layer.

    ``kind`` is "tensor" (one range), "halves" (separately calibrated halves
    of a concatenated skip tensor, split along the channel axis), or
    "rest_rows" (range over the non-first token rows of a text embedding).
    """

    kind: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    _grids: dict = field(default_factory=dict, repr=False, compare=False)

    def grid(self, bits: int, slot: int = 0) -> quantizer.QuantParams:
        """The per-tensor grid of one slot's range at ``bits``, in ``DTYPE``;
        built on first use, then shared by every run that quantizes this input at
        those bits."""
        params = self._grids.get((bits, slot))
        if params is None:
            params = params_from_minmax(self.lo[slot], self.hi[slot], bits).astype(DTYPE)
            self._grids[bits, slot] = params
        return params


@dataclass
class ToyModel:
    seed: int
    width: int
    depth: int
    spatial: int
    latent_channels: int
    text_tokens: int
    text_channels: int
    time_dim: int
    layers: dict[str, LayerDescriptor]
    layer_order: list[str]
    _fq_weights: dict = field(default_factory=dict, repr=False)
    _phase_weights: dict = field(default_factory=dict, repr=False)

    def fq_weight(self, layer_id: str, bits: int | None) -> Tensor:
        """The layer's weight at ``bits`` (``None``: full precision) in ``DTYPE``,
        memoized. A quantized weight is fake-quantized in float64 on the
        per-output-channel grids of the master weight, then cast."""
        key = (layer_id, bits)
        cached = self._fq_weights.get(key)
        if cached is None:
            w = self.layers[layer_id].weight
            if bits is not None:
                w = quantizer.fake_quant(w, quantizer.calibrate_minmax(w, bits, channel_axis=0))
            cached = self._fq_weights[key] = w.astype(DTYPE)
        return cached

    def phase_weight(self, layer_id: str, bits: int | None) -> Tensor:
        """The layer's weight at ``bits`` (``None``: full precision) as the
        ``_phase_kernels`` of a conv over a 2x nearest upsampling; memoized."""
        key = (layer_id, bits)
        cached = self._phase_weights.get(key)
        if cached is None:
            cached = self._phase_weights[key] = _phase_kernels(self.fq_weight(layer_id, bits))
        return cached


def _silu(x: np.ndarray) -> np.ndarray:
    # x / (1 + exp(-x)) in four passes. Below about -88.72 in float32 (-709.78 in
    # float64), exp(-x) overflows to inf, which is harmless: the result is -0.0.
    e = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    np.divide(x, e, out=e)
    return e


# Row length up to which ``_softmax_rows`` takes the row max as a running
# ``np.maximum`` over the columns instead of one reduce per row. On one thread
# of a Xeon vCPU the running max made the softmax of (8, 256, 8) and (8, 64, 8)
# scores (the cross-attention rows over 8 text tokens) about 0.5x and 0.7x as
# long; at (8, 64, 16) the two were within 5%, and on the 64-wide self-attention
# rows the reduce took about 0.6x the running max's time.
_RUNNING_MAX_COLUMNS = 16


# Entries more than this below their row max get a softmax weight of +0.0: the
# exp of such an entry is below the smallest normal float32 (1.2e-38), and
# numpy's exp takes a slow path for a subnormal or zero result. Over 8 text
# tokens the first token's key dominates, so many cross-attention scores of the
# default model lie there.
_SOFTMAX_FLOOR = math.log(np.finfo(DTYPE).tiny)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    if x.shape[-1] <= _RUNNING_MAX_COLUMNS:
        # A max does not depend on the order its operands are taken in (bar the
        # sign of a zero max, which x - m and exp erase), so this is the reduce's.
        m = x[..., 0].copy()
        for j in range(1, x.shape[-1]):
            np.maximum(m, x[..., j], out=m)
        e = x - m[..., None]
    else:
        e = x - x.max(axis=-1, keepdims=True)
    floored = e < _SOFTMAX_FLOOR
    np.copyto(e, 0.0, where=floored)  # exp(0) takes the fast path
    np.exp(e, out=e)
    np.copyto(e, 0.0, where=floored)
    # Row sums as one product with a column of ones: a reduce over a last axis
    # of 8 to 64 entries pays its per-row overhead on every row.
    e /= e @ np.ones((x.shape[-1], 1), dtype=e.dtype)
    return e


def _norm_chw(x: np.ndarray) -> np.ndarray:
    """RMS-normalize each sample of a (B, C, H, W) batch over all its elements."""
    flat = x.reshape(x.shape[0], 1, -1)
    ms = (flat @ flat.transpose(0, 2, 1)) / flat.shape[2]
    return x / np.sqrt(ms[..., None] + 1e-8)


def _norm_rows(tok: np.ndarray) -> np.ndarray:
    ms = np.einsum("...i,...i->...", tok, tok)[..., None] / tok.shape[-1]
    return tok / np.sqrt(ms + 1e-8)


def _sinusoid(t: np.ndarray, dim: int) -> np.ndarray:
    """(B, dim) sinusoidal features of a (B,) vector of timesteps."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half).astype(t.dtype)
    ang = t[:, None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


# Inputs whose patches ``_conv3x3`` holds at once. Its patch buffer is then at
# most (4, C, 3, 3, H * (W + 1)) float32, about 0.31 MB at the full-resolution
# convs of the default model, beside a padded input buffer of 40 KB there;
# patches of a whole chunk of 8 raised a pipeline's peak RSS by 2-3 MB (in
# float64) and ran no faster.
_CONV_INPUTS = 4

# ``_conv3x3`` rounds its gemm's column count up to a multiple of this, with zero
# columns past the patches. OpenBLAS 0.3.31's sgemm runs 16 columns at a time
# and a remainder through narrower kernels that can sum in another order: at
# the 8x8 convs of the default model, the 72 = 8 * 9 columns of the padded
# patches put the last output row in a remainder of 8, and about three in four
# of its outputs then differed in the last bits from those of the 64 columns
# without pad columns. Rounded up, every output at every conv shape the tests
# try keeps the bits of the patch tensor without pad columns.
_GEMM_COLUMNS = 16


def _conv3x3(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """Zero-padded 3x3 convolution of a (B, C, H, W) batch.

    For up to ``_CONV_INPUTS`` inputs at a time it copies the inputs into a flat
    buffer with a zero border, (n, C, (H + 2) * P + slack) with row pitch
    P = W + 1: the one pad column between two rows is the right border of the
    first and the left border of the second. The tap of output (oy, ox) at
    kernel offset (ky, kx) then sits at ky * P + kx + stride * (oy * P + ox), so
    one copy from a strided view of the buffer fills the transposed patch tensor
    (n, C, 3, 3, H_out, Q). At stride 1, Q = P: each plane [i, c, ky, kx] is one
    contiguous run of the buffer, and the last column of each of its rows is a
    pad column. At stride 2, Q = W_out, as pad columns there would about double
    the product. One matmul of the (C_out, 9C) weights with the
    (n, 9C, H_out * Q) patches, zero-extended to a multiple of ``_GEMM_COLUMNS``
    columns, and one slice that drops the pad columns, give the outputs. Each
    output comes from the same operands, in the same order of the 9C products,
    as from a patch tensor without pad columns. numpy makes one
    gemm per input for the matmul, on the operands a single-input call gives,
    so each input's output keeps the bits it gets alone. Every buffer has the
    dtype of ``x``.
    """
    b, c, h, wd = x.shape
    cout = w.shape[0]
    ho, wo = -(-h // stride), -(-wd // stride)
    pitch = wd + 1
    cols = pitch if stride == 1 else wo
    n = min(b, _CONV_INPUTS)
    # one past the last element a tap reads: plane (2, 2) at output (ho - 1, cols - 1)
    size = max((h + 2) * pitch, 2 * pitch + 3 + stride * ((ho - 1) * pitch + cols - 1))
    flat = np.zeros((n, c, size), dtype=x.dtype)
    inner = flat[:, :, pitch:(h + 1) * pitch].reshape(n, c, h, pitch)[:, :, :, 1:]
    s_in, s_c, s = flat.strides
    taps = np.ndarray(
        (n, c, 3, 3, ho, cols), dtype=flat.dtype, buffer=flat,
        strides=(s_in, s_c, pitch * s, s, stride * pitch * s, stride * s),
    )
    used = ho * cols
    gemm = np.empty((n, 9 * c, -(-used // _GEMM_COLUMNS) * _GEMM_COLUMNS), dtype=x.dtype)
    gemm[:, :, used:] = 0
    patches = gemm[:, :, :used].reshape(n, c, 3, 3, ho, cols)  # a view: each (c, ky, kx) row starts a gemm row
    prod = np.empty((n, cout, gemm.shape[2]), dtype=x.dtype)
    wm = w.reshape(cout, 9 * c)
    out = np.empty((b, cout, ho, wo), dtype=x.dtype)
    for i in range(0, b, _CONV_INPUTS):
        m = min(n, b - i)
        inner[:m] = x[i:i + m]
        np.copyto(patches[:m], taps[:m])
        np.matmul(wm, gemm[:m], out=prod[:m])
        out[i:i + m] = prod[:m, :, :used].reshape(m, cout, ho, cols)[:, :, :, :wo]
    return out


# Per output parity p along one axis, the rows of the 3x3 taps that read the
# low-resolution offsets -1, 0, +1 of a 2x nearest upsampling: output 2i + p reads
# upsampled rows 2i + p - 1 .. 2i + p + 1, which repeat low-res rows i - 1, i, i
# (p = 0) or i, i, i + 1 (p = 1). The zero padding of the upsampled image is the
# zero padding of the low-res one.
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1], [0, 0, 0]], [[0, 0, 0], [1, 1, 0], [0, 0, 1]]], dtype=DTYPE)


def _phase_kernels(w: np.ndarray) -> np.ndarray:
    """(C_out, C, 3, 3) weights of a 3x3 conv over a 2x nearest upsampling, as
    (4 * C_out, C, 3, 3) weights of a 3x3 conv over the low-res input: block
    2 * py + px holds output parity (py, px)'s 2x2 kernel, the sums of the taps
    that read one replicated pixel, and is zero on the third row and column."""
    cout, c = w.shape[:2]
    return np.einsum("pak,qbl,ockl->pqocab", _PHASE_TAPS, _PHASE_TAPS, w).reshape(4 * cout, c, 3, 3)


def _upsample_conv(x: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """3x3 conv of the 2x nearest upsampling of a (B, C, H, W) batch, from its
    ``_phase_kernels``: one conv of the low-res input gives the four output
    parities, which interleave into (B, C_out, 2H, 2W)."""
    b, _, h, wd = x.shape
    cout = phases.shape[0] // 4
    y = _conv3x3(x, phases).reshape(b, 2, 2, cout, h, wd)
    return y.transpose(0, 3, 4, 1, 5, 2).reshape(b, cout, 2 * h, 2 * wd)


# Cap on ``model_elements``: the elements of the weights, of every layer's
# input and of the attention scores in one input's forward. A forward holds
# FORWARD_CHUNK inputs at once, so the cap keeps one chunk's float32 tensors
# near 16 * 2**21 * 4 B = 128 MiB (the float64 master weights add at most
# 2**21 * 8 B = 16 MiB). The default model has 51,520 elements. Checked before
# any array is built, so an oversized flag fails at once.
MAX_MODEL_ELEMENTS = 2**21

# Cap on the number of inputs of one input set (calibration, proxy or eval). At
# about 0.1 s per calibration input on the default model, it keeps a sensitivity
# stage under two minutes there instead of letting a typo run for days.
MAX_INPUTS = 1024


def _layer_specs(
    width: int,
    depth: int,
    *,
    spatial: int,
    latent_channels: int,
    text_tokens: int,
    text_channels: int,
    time_dim: int,
) -> list[tuple[str, LayerKind, str, tuple, int, int]]:
    """Every weighted layer in run order, as (id, kind, op, weight shape,
    input elements, MACs) of one input's forward; from the shape alone."""
    w1, w2 = width, 2 * width
    s1, s2 = spatial, spatial // 2
    tok_mid, tok_full = s2 * s2, s1 * s1

    specs: list[tuple[str, LayerKind, str, tuple, int, int]] = []

    def linear(lid, kind, out_f, in_f, rows):
        specs.append((lid, kind, "linear", (out_f, in_f), rows * in_f, rows * in_f * out_f))

    def conv(lid, kind, out_c, in_c, h_in, stride=1):
        h_out = h_in // stride
        specs.append(
            (lid, kind, "conv", (out_c, in_c, 3, 3), in_c * h_in * h_in, h_out * h_out * out_c * in_c * 9)
        )

    linear("time.fc1", LayerKind.TIME_EMBED, time_dim, time_dim, 1)
    linear("time.fc2", LayerKind.TIME_EMBED, time_dim, time_dim, 1)
    linear("enc0.time_proj", LayerKind.TIME_EMBED, w1, time_dim, 1)
    conv("enc0.conv_in", LayerKind.CONV_IN, w1, latent_channels, s1)
    for i in range(depth):
        conv(f"enc0.res{i}.conv", LayerKind.CONV, w1, w1, s1)
    conv("enc1.down", LayerKind.CONV, w2, w1, s1, stride=2)
    linear("enc1.time_proj", LayerKind.TIME_EMBED, w2, time_dim, 1)
    for i in range(depth):
        conv(f"enc1.res{i}.conv", LayerKind.CONV, w2, w2, s2)
    for name in ("to_q", "to_k", "to_v", "to_out"):
        linear(f"mid.self.{name}", LayerKind.SELF_ATTN, w2, w2, tok_mid)
    linear("mid.cross.to_q", LayerKind.CROSS_ATTN_TO_Q, w2, w2, tok_mid)
    linear("mid.cross.to_k", LayerKind.CROSS_ATTN_TO_K, w2, text_channels, text_tokens)
    linear("mid.cross.to_v", LayerKind.CROSS_ATTN_TO_V, w2, text_channels, text_tokens)
    linear("mid.cross.to_out", LayerKind.CROSS_ATTN_TO_OUT, w2, w2, tok_mid)
    linear("mid.ffn.fc1", LayerKind.FFN, 2 * w2, w2, tok_mid)
    linear("mid.ffn.fc2", LayerKind.FFN, w2, 2 * w2, tok_mid)
    for i in range(depth):
        conv(f"dec1.res{i}.conv", LayerKind.CONV, w2, w2, s2)
    conv("dec0.up_conv", LayerKind.CONV, w1, w2, s1)
    conv("dec0.fuse", LayerKind.CONV, w1, 2 * w1, s1)
    linear("dec0.cross.to_q", LayerKind.CROSS_ATTN_TO_Q, w1, w1, tok_full)
    linear("dec0.cross.to_k", LayerKind.CROSS_ATTN_TO_K, w1, text_channels, text_tokens)
    linear("dec0.cross.to_v", LayerKind.CROSS_ATTN_TO_V, w1, text_channels, text_tokens)
    linear("dec0.cross.to_out", LayerKind.CROSS_ATTN_TO_OUT, w1, w1, tok_full)
    conv("out.conv_out", LayerKind.CONV_OUT, latent_channels, w1, s1)
    return specs


def model_elements(width: int, depth: int, **shape) -> int:
    """Weights plus every layer's input elements plus the attention scores of one
    input's forward: the sum of ``param_count + act_elem_count`` over the layers
    of ``_layer_specs``, plus ``tok_mid**2 + (tok_mid + tok_full) * text_tokens``.
    Every residual level adds the same layers, so the sum is affine in ``depth``
    and is taken from depths 1 and 2: it costs no memory, and no time at any depth."""
    one, two = (
        sum(math.prod(w_shape) + act_elems for _, _, _, w_shape, act_elems, _ in _layer_specs(width, d, **shape))
        for d in (1, 2)
    )
    tok_mid, tok_full = (shape["spatial"] // 2) ** 2, shape["spatial"] ** 2
    return one + (depth - 1) * (two - one) + tok_mid * tok_mid + (tok_mid + tok_full) * shape["text_tokens"]


def check_model_size(width: int, depth: int, **shape) -> None:
    """``ParameterError`` when ``model_elements`` exceeds ``MAX_MODEL_ELEMENTS``."""
    elements = model_elements(width, depth, **shape)
    if elements > MAX_MODEL_ELEMENTS:
        raise ParameterError(
            f"the model would hold {elements} tensor elements per input, over the cap of {MAX_MODEL_ELEMENTS}"
        )


def check_input_count(n: int) -> None:
    """``ParameterError`` unless 1 <= n <= ``MAX_INPUTS``."""
    if not 1 <= n <= MAX_INPUTS:
        raise ParameterError(f"an input set holds 1 to {MAX_INPUTS} inputs, not {n}")


def _model(seed: int, width: int, depth: int, shape: dict, weight_of: Callable[[str, str, tuple], Tensor]) -> ToyModel:
    """The graph at one shape, after every check of it, with each layer's
    descriptor from ``_layer_specs`` and its weight from ``weight_of(id, op, weight shape)``."""
    spatial, text_tokens, time_dim = shape["spatial"], shape["text_tokens"], shape["time_dim"]
    if width < 2:
        raise ParameterError("width must be >= 2")
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    if spatial < 4 or spatial % 2:
        raise ParameterError("spatial must be even and >= 4")
    if text_tokens < 2:
        raise ParameterError("text_tokens must be >= 2")
    if time_dim < 2 or time_dim % 2:
        raise ParameterError("time_dim must be even and >= 2")
    check_model_size(width, depth, **shape)

    layers: dict[str, LayerDescriptor] = {}
    for lid, kind, op, w_shape, act_elems, macs in _layer_specs(width, depth, **shape):
        layers[lid] = LayerDescriptor(
            id=lid,
            kind=kind,
            group=group_for_kind(kind),
            weight=weight_of(lid, op, w_shape),
            param_count=math.prod(w_shape),
            act_elem_count=act_elems,
            mac_count=macs,
            op=op,
            stride=2 if lid == "enc1.down" else 1,
        )
    return ToyModel(seed=seed, width=width, depth=depth, **shape, layers=layers, layer_order=list(layers))


def build_toy_unet(
    seed: int,
    width: int = 8,
    depth: int = 1,
    *,
    spatial: int = 16,
    latent_channels: int = 4,
    text_tokens: int = 8,
    text_channels: int = 16,
    time_dim: int = 16,
) -> ToyModel:
    """Build the fixed two-stage graph with deterministic weights from ``seed``."""

    def weight(lid: str, op: str, w_shape: tuple) -> Tensor:
        fan_in = w_shape[1] if op == "linear" else w_shape[1] * 9
        return random_normal(w_shape, 0.0, 1.0 / math.sqrt(fan_in), derive_seed(seed, f"weight/{lid}"))

    shape = dict(
        spatial=spatial, latent_channels=latent_channels,
        text_tokens=text_tokens, text_channels=text_channels, time_dim=time_dim,
    )
    return _model(seed, width, depth, shape, weight)


_BOS_PATTERN_SEED = 0x0B05F00D  # fixed: the first-token row never varies with the caller's seed


def synth_text_embedding(
    seed: int,
    tokens: int = 8,
    channels: int = 16,
    bos_magnitude: float = 800.0,
    body_magnitude: float = 12.0,
) -> Tensor:
    """Synthetic text embedding with a constant extreme-magnitude first row.

    Row 0 is a fixed pattern (identical across seeds) scaled to
    ``bos_magnitude``; the remaining rows are seeded Gaussians scaled so
    their max magnitude equals ``body_magnitude``.
    """
    if tokens < 2:
        raise InputError("tokens must be >= 2")
    bos = make_rng(_BOS_PATTERN_SEED, f"bos/{channels}").normal(size=channels)
    bos *= bos_magnitude / np.abs(bos).max()
    body = random_normal((tokens - 1, channels), 0.0, 1.0, derive_seed(seed, "text-body"))
    body *= body_magnitude / np.abs(body).max()
    return np.vstack([bos[None, :], body])


def make_input_set(seed: int, n: int, model: ToyModel) -> list[tuple[Tensor, Tensor, float]]:
    """Deterministic (latent, embedding, timestep) triples keyed by ``seed``."""
    check_input_count(n)
    out = []
    shape = (model.latent_channels, model.spatial, model.spatial)
    for i in range(n):
        latent = random_normal(shape, 0.0, 1.0, derive_seed(seed, f"latent/{i}"))
        emb = synth_text_embedding(derive_seed(seed, f"text/{i}"), model.text_tokens, model.text_channels)
        timestep = float(make_rng(seed, f"time/{i}").random())
        out.append((latent, emb, timestep))
    return out


# Inputs per batched forward. On the default sensitivity stage (one thread of a
# Xeon vCPU), ``analyze`` of both kinds took a median 2.10, 1.76 and 1.71 s at
# chunks of 8, 16 and 32 (six alternating rounds in one process), and a fresh
# stage peaked at 42.8, 43.1 and 44.9 MB RSS: 16 takes most of the gain for a
# seventh of the memory 32 adds.
FORWARD_CHUNK = 16


def stack_inputs(inputs) -> tuple[Tensor, Tensor, np.ndarray]:
    """Stack (latent, embedding, timestep) triples into one batch for ``forward``."""
    if not inputs:
        raise ParameterError("cannot stack an empty input set")
    try:
        latents = np.stack([latent for latent, _, _ in inputs])
        embeddings = np.stack([emb for _, emb, _ in inputs])
    except ValueError as exc:
        raise ShapeError(f"inputs of one batch must share their shapes: {exc}") from exc
    return latents, embeddings, np.array([float(t) for _, _, t in inputs])


def input_chunks(inputs):
    """Consecutive stacked batches of at most ``FORWARD_CHUNK`` inputs, in input order."""
    for i in range(0, len(inputs), FORWARD_CHUNK):
        yield stack_inputs(inputs[i:i + FORWARD_CHUNK])


class _Run:
    """One batched forward pass: applies per-layer quantization hooks and calibration.

    Every activation carries a leading batch axis. Calibrated ranges are min/max
    over the whole batch, which equals the running min/max over its inputs one
    at a time.
    """

    def __init__(self, model, config, act_ranges, bos_aware, calib):
        self.model = model
        self.config = config
        self.act_ranges = act_ranges
        self.bos_aware = bos_aware
        self.calib = calib
        self.fp_terms = None  # a chunk's FP terms by the layer that reads them, set by ``StateCache.run_chunk``

    def _record(self, lid: str, kind: str, parts: list[np.ndarray]):
        if self.calib is not None:
            lo = tuple(float(p.min()) for p in parts)
            hi = tuple(float(p.max()) for p in parts)
            prev = self.calib.get(lid)
            if prev is not None:
                lo = tuple(min(a, b) for a, b in zip(prev.lo, lo))
                hi = tuple(max(a, b) for a, b in zip(prev.hi, hi))
            self.calib[lid] = ActRange(kind=kind, lo=lo, hi=hi)

    def _act_params(self, lid: str, bits: int, expect_kind: str, slot: int = 0):
        if self.act_ranges is None or lid not in self.act_ranges:
            raise ConfigError(f"activation quantization of {lid} requires calibrated ranges")
        rng = self.act_ranges[lid]
        if rng.kind != expect_kind:
            raise ConfigError(f"calibration for {lid} is {rng.kind!r}, expected {expect_kind!r}")
        return rng.grid(bits, slot)

    def _quant_in(self, lid: str, x: np.ndarray, kind: str = "tensor", slot: int = 0) -> np.ndarray:
        bits = self.config.act_bits[lid]
        if bits is None:
            return x
        return quantizer.fake_quant(x, self._act_params(lid, bits, kind, slot))

    def _weight(self, lid: str) -> np.ndarray:
        return self.model.fq_weight(lid, self.config.weight_bits[lid])

    def linear(self, lid: str, x: np.ndarray) -> np.ndarray:
        """(B, in) vectors or (B, rows, in) token matrices; one matmul per input."""
        rows = x[:, None, :] if x.ndim == 2 else x
        self._record(lid, "tensor", [rows])
        out = self._quant_in(lid, rows) @ self._weight(lid).T
        return out[:, 0] if x.ndim == 2 else out

    def _is_fp(self, lids) -> bool:
        return all(self.config.weight_bits[lid] is None and self.config.act_bits[lid] is None for lid in lids)

    def _fp_term(self, lid: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """``compute()``, an FP function of the chunk alone, read from the run's
        ``fp_terms`` when the run has them, or computed there once, read-only."""
        if self.fp_terms is None:
            return compute()
        out = self.fp_terms.get(lid)
        if out is None:
            out = self.fp_terms[lid] = compute()
            out.flags.writeable = False
        return out

    def kv_linear(self, lid: str, embedding: np.ndarray) -> np.ndarray:
        """Text-embedding consumer; first-token-aware when enabled. At full
        precision its output is an FP term of the chunk."""
        project = functools.partial(self._kv_project, lid, embedding)
        return self._fp_term(lid, project) if self._is_fp((lid,)) else project()

    def _kv_project(self, lid: str, embedding: np.ndarray) -> np.ndarray:
        if not self.bos_aware:
            return self.linear(lid, embedding)
        rest = embedding[:, 1:]
        self._record(lid, "rest_rows", [rest])
        bits = self.config.act_bits[lid]
        a_params = None if bits is None else self._act_params(lid, bits, "rest_rows")
        bos_output = embedding[:, :1] @ self.model.fq_weight(lid, None).T
        return quantizer.bos_aware_linear(embedding, self._weight(lid), a_params, bos_output)

    def conv(self, lid: str, x: np.ndarray) -> np.ndarray:
        self._record(lid, "tensor", [x])
        return _conv3x3(self._quant_in(lid, x), self._weight(lid), stride=self.model.layers[lid].stride)

    def up_conv(self, lid: str, x: np.ndarray) -> np.ndarray:
        """Conv over the 2x nearest upsampling of ``x``, run as the four 2x2 phase
        convs of ``_upsample_conv`` on ``x`` itself. Quantizing and calibrating
        act elementwise, so they act on ``x``."""
        self._record(lid, "tensor", [x])
        return _upsample_conv(self._quant_in(lid, x), self.model.phase_weight(lid, self.config.weight_bits[lid]))

    def fuse_conv(self, lid: str, x: np.ndarray, skip: np.ndarray, skip_layers) -> np.ndarray:
        """Conv over the channel concatenation of ``x`` and ``skip``, each half
        quantized on its own grid, run as the sum of a conv over each half. The
        skip half's conv is an FP term of the chunk when this layer and
        ``skip_layers``, the layers ``skip`` was computed by, are all at full
        precision."""
        split = x.shape[1]
        self._record(lid, "halves", [x, skip])
        w = self._weight(lid)
        out = _conv3x3(self._quant_in(lid, x, "halves", 0), w[:, :split])
        skip_term = functools.partial(_conv3x3, self._quant_in(lid, skip, "halves", 1), w[:, split:])
        out += self._fp_term(lid, skip_term) if self._is_fp((*skip_layers, lid)) else skip_term()
        return out

    def attention(self, prefix: str, tokens: np.ndarray, kv: np.ndarray | None) -> np.ndarray:
        """Residual branch of one attention block; ``kv=None`` means self-attention."""
        qin = _norm_rows(tokens)
        q = self.linear(f"{prefix}.to_q", qin)
        if kv is None:
            k = self.linear(f"{prefix}.to_k", qin)
            v = self.linear(f"{prefix}.to_v", qin)
        else:
            k = self.kv_linear(f"{prefix}.to_k", kv)
            v = self.kv_linear(f"{prefix}.to_v", kv)
        attn = _softmax_rows(q @ k.transpose(0, 2, 1) / math.sqrt(q.shape[-1]))
        return self.linear(f"{prefix}.to_out", attn @ v)


# The graph as an ordered list of segments. A segment's step maps the state at
# its entry to the state at the next segment's entry. A state is a dict of batch
# arrays: "x" is the running activation (an image batch, or tokens between
# mid.self and mid.ffn), "emb" the text embeddings, and while they are still
# needed "t" the timesteps, "temb" the time embedding and "skip" the enc0 output.

_ATTN_PROJECTIONS = ("to_q", "to_k", "to_v", "to_out")


@dataclass(frozen=True)
class Segment:
    """A stretch of the graph: the layers it runs and the step that runs them."""

    layers: tuple[str, ...]
    step: Callable[[_Run, dict], dict]


def _tokens(x: np.ndarray) -> np.ndarray:
    """(B, C, H, W) -> (B, H * W, C)."""
    return x.reshape(x.shape[0], x.shape[1], -1).transpose(0, 2, 1)


def _image(tok: np.ndarray, side: int) -> np.ndarray:
    """(B, side * side, C) -> (B, C, side, side)."""
    return tok.transpose(0, 2, 1).reshape(tok.shape[0], tok.shape[2], side, side)


def _time_mlp(run: _Run, s: dict) -> dict:
    t_feat = _sinusoid(s["t"], run.model.time_dim)
    temb = _silu(run.linear("time.fc2", _silu(run.linear("time.fc1", t_feat))))
    return {"x": s["x"], "emb": s["emb"], "temb": temb}


def _enc0_stem(run: _Run, s: dict) -> dict:
    x = run.conv("enc0.conv_in", s["x"])
    return {**s, "x": x + run.linear("enc0.time_proj", s["temb"])[:, :, None, None]}


def _residual(lid: str):
    def step(run: _Run, s: dict) -> dict:
        return {**s, "x": s["x"] + run.conv(lid, _silu(_norm_chw(s["x"])))}

    return step


def _enc1_down(run: _Run, s: dict) -> dict:
    x = run.conv("enc1.down", _silu(_norm_chw(s["x"])))
    x = x + run.linear("enc1.time_proj", s["temb"])[:, :, None, None]
    return {"x": x, "emb": s["emb"], "skip": s["x"]}


def _mid_self(run: _Run, s: dict) -> dict:
    tok = _tokens(s["x"])
    return {**s, "x": tok + run.attention("mid.self", tok, kv=None)}


def _mid_cross(run: _Run, s: dict) -> dict:
    return {**s, "x": s["x"] + run.attention("mid.cross", s["x"], kv=s["emb"])}


def _mid_ffn(run: _Run, s: dict) -> dict:
    tok = s["x"] + run.linear("mid.ffn.fc2", _silu(run.linear("mid.ffn.fc1", s["x"])))
    return {**s, "x": _norm_chw(_image(tok, run.model.spatial // 2))}


def _dec0_up(run: _Run, s: dict) -> dict:
    return {**s, "x": run.up_conv("dec0.up_conv", s["x"])}


def _dec0_fuse(run: _Run, s: dict) -> dict:
    order = run.model.layer_order
    skip_layers = order[:order.index("enc1.down")]  # the layers before the segment that takes "skip"
    return {"x": run.fuse_conv("dec0.fuse", s["x"], s["skip"], skip_layers), "emb": s["emb"]}


def _dec0_cross(run: _Run, s: dict) -> dict:
    tok = _tokens(s["x"])
    tok = tok + run.attention("dec0.cross", tok, kv=s["emb"])
    return {**s, "x": _norm_chw(_image(tok, run.model.spatial))}


def _head(run: _Run, s: dict) -> dict:
    return {"x": run.conv("out.conv_out", _silu(s["x"]))}


@functools.lru_cache(maxsize=None)
def _segment_list(depth: int) -> tuple[Segment, ...]:
    """The segments in run order; built once per depth, the only shape parameter
    that changes the list."""

    def blocks(stage: str) -> list[Segment]:
        return [Segment((f"{stage}.res{i}.conv",), _residual(f"{stage}.res{i}.conv")) for i in range(depth)]

    def attention(prefix: str) -> tuple[str, ...]:
        return tuple(f"{prefix}.{name}" for name in _ATTN_PROJECTIONS)

    return (
        Segment(("time.fc1", "time.fc2"), _time_mlp),
        Segment(("enc0.conv_in", "enc0.time_proj"), _enc0_stem),
        *blocks("enc0"),
        Segment(("enc1.down", "enc1.time_proj"), _enc1_down),
        *blocks("enc1"),
        Segment(attention("mid.self"), _mid_self),
        Segment(attention("mid.cross"), _mid_cross),
        Segment(("mid.ffn.fc1", "mid.ffn.fc2"), _mid_ffn),
        *blocks("dec1"),
        Segment(("dec0.up_conv",), _dec0_up),
        Segment(("dec0.fuse",), _dec0_fuse),
        Segment(attention("dec0.cross"), _dec0_cross),
        Segment(("out.conv_out",), _head),
    )


def _run_from(run: _Run, state: dict, start: int = 0) -> Tensor:
    """Run segments ``start`` .. end on a state; returns the output batch."""
    for segment in _segment_list(run.model.depth)[start:]:
        state = segment.step(run, state)
    return state["x"]


def _as_batch(model: ToyModel, latent, embedding, timestep) -> tuple[dict, bool]:
    """Validate one input or a stacked batch; returns the state at the first
    segment's entry, in ``DTYPE``, and whether a single input was given."""
    want = (model.latent_channels, model.spatial, model.spatial)
    want_emb = (model.text_tokens, model.text_channels)
    given = (latent.shape, embedding.shape)
    single = latent.ndim == 3
    if single:
        latent, embedding = latent[None], embedding[None]
    if latent.ndim != 4 or tuple(latent.shape[1:]) != want or latent.shape[0] < 1:
        raise ShapeError(f"latent shape {given[0]} != {want}, or a (B, ...) batch of it")
    b = latent.shape[0]
    if tuple(embedding.shape) != (b, *want_emb):
        raise ShapeError(f"embedding shape {given[1]} != {want_emb if single else (b, *want_emb)}")
    t = np.asarray(timestep, dtype=DTYPE)
    if t.ndim == 0:
        t = np.full(b, t, dtype=DTYPE)
    elif t.shape != (b,):
        raise ShapeError(f"timestep shape {t.shape} != () or ({b},)")
    return {"t": t, "x": np.asarray(latent, dtype=DTYPE), "emb": np.asarray(embedding, dtype=DTYPE)}, single


def _run_bits(config: QuantConfig, segments) -> tuple:
    """(weight, act) bits of every layer of ``segments``, in run order."""
    return tuple((config.weight_bits[lid], config.act_bits[lid]) for seg in segments for lid in seg.layers)


def forward(
    model: ToyModel,
    latent: Tensor,
    embedding: Tensor,
    timestep: float | np.ndarray,
    config: QuantConfig | None = None,
    bos_aware: bool = False,
    act_ranges: dict[str, ActRange] | None = None,
    cache: "StateCache | None" = None,
) -> Tensor:
    """One denoising-style step; returns a pseudo-image shaped like the latent.

    Takes one input (latent (C, H, W), embedding (T, D), scalar timestep) or a
    stacked batch (latent (B, C, H, W), embedding (B, T, D), timestep scalar or
    (B,)). Each input of a batch gives the same output as a forward of its own.
    With a ``cache`` the call resumes from the deepest state the cache holds for
    this batch whose passed layers ran the bits ``config`` gives them, and the
    output is the same, bit for bit.
    """
    state, single = _as_batch(model, latent, embedding, timestep)
    cfg = config if config is not None else QuantConfig.all_fp(model.layer_order)
    cfg.validate(model.layer_order)
    if cfg.wants_act_quant() and act_ranges is None:
        raise ConfigError("config quantizes activations but no calibrated ranges were given")
    run = _Run(model, cfg, act_ranges, bos_aware, calib=None)
    out = _run_from(run, state) if cache is None else cache.run_chunk(run, state)
    return out[0] if single else out


@dataclass(frozen=True)
class SegmentState:
    """One input chunk's state at the entry of segment ``index``.

    ``bits`` holds the (weight, act) bits of every layer the state has passed,
    in run order: a config resumes from it only if it gives those layers the
    same bits. Its arrays are read-only, so every resume from it starts from the
    same values.
    """

    index: int
    bits: tuple
    arrays: MappingProxyType

    @classmethod
    def frozen(cls, index: int, bits: tuple, arrays: dict) -> "SegmentState":
        for a in arrays.values():
            a.flags.writeable = False
        return cls(index, bits, MappingProxyType(arrays))


def _chunk_key(entry: dict) -> bytes:
    """SHA-256 digest of a chunk's ``x``, ``emb`` and ``t``: each array's name,
    shape and dtype, then its bytes, read in place through a memoryview."""
    digest = hashlib.sha256()
    for name in ("x", "emb", "t"):
        a = np.ascontiguousarray(entry[name])
        digest.update(f"{name}{a.shape}{a.dtype.str}".encode())
        digest.update(memoryview(a))
    return digest.digest()


class StateCache:
    """Segment states and FP terms of input chunks, shared by the ``forward``
    calls of a planned sequence of configs.

    It is made for the configs in the order they will run (the plan). Config
    ``j`` resumes at ``r[j]``, the number of leading segments whose layers it
    runs at the bits config ``j - 1`` gave them (capped at the head segment, so
    a repeat still runs one). Walking the plan backwards, the states config
    ``i`` must leave for the configs after it are
    ``needed[i] = ({r[i+1]} | {k in needed[i+1] if k <= r[i+1]}) - {0}``
    (segment 0's state is the input itself), kept in ``keep`` under config
    ``i``'s run bits. Each chunk holds one path: the states of the last config
    run on it, each tagged with the bits of the layers it has passed. A call
    resumes from the deepest state on the path whose passed layers carry the
    bits its config gives them, records a state at segment ``k`` only when
    ``k`` is in its config's ``needed`` set, and drops every other state. A
    config outside the plan keeps nothing, and a config run out of order only
    resumes less far; neither changes an output. A chunk's entry also holds its
    FP terms, read-only, keyed by the layer that reads them: the text K/V
    projections (first-token rows included, so nothing else caches those
    rows), and the skip half's conv of ``dec0.fuse``, which is an FP term
    whenever the layers before ``enc1.down`` and ``dec0.fuse`` run at full
    precision. A cache serves one ``bos_aware`` setting and one ``act_ranges``
    object.
    """

    def __init__(self, model: ToyModel, configs):
        self._segments = _segment_list(model.depth)
        plan = [_run_bits(config, self._segments) for config in configs]
        last = len(self._segments) - 1
        self.keep: dict[tuple, frozenset] = {}
        needed = frozenset()
        for i in range(len(plan) - 1, -1, -1):
            self.keep[plan[i]] = self.keep.get(plan[i], frozenset()) | needed
            if i:
                r = min(self._shared_segments(plan[i - 1], plan[i]), last)
                needed = frozenset({r, *(k for k in needed if k <= r)} - {0})
        self._setup = None
        self._chunks: dict[bytes, tuple[list[SegmentState], dict]] = {}  # by ``_chunk_key``

    def _shared_segments(self, a: tuple, b: tuple) -> int:
        """How many leading segments give every layer the same bits under ``a`` and ``b``."""
        passed = 0
        for index, segment in enumerate(self._segments):
            end = passed + len(segment.layers)
            if a[passed:end] != b[passed:end]:
                return index
            passed = end
        return len(self._segments)

    def run_chunk(self, run: _Run, entry: dict) -> Tensor:
        """The output batch of ``run`` on ``entry``, resumed from this chunk's path."""
        setup = (run.bos_aware, run.act_ranges)
        if self._setup is None:
            self._setup = setup
        elif setup[0] != self._setup[0] or setup[1] is not self._setup[1]:
            raise ConfigError("a state cache serves one bos_aware setting and one act_ranges object")
        path, run.fp_terms = self._chunks.setdefault(_chunk_key(entry), ([], {}))
        bits = _run_bits(run.config, self._segments)
        keep = self.keep.get(bits, frozenset())
        state, start, kept = entry, 0, 0
        for s in path:
            if bits[:len(s.bits)] != s.bits:
                break
            state, start, kept = s.arrays, s.index, kept + 1
        del path[kept:]
        if not path and keep:
            # Copies, so no state the cache freezes shares an array with the caller.
            state = {name: a.copy() for name, a in entry.items()}
        passed = len(path[-1].bits) if path else 0
        for index in range(start, len(self._segments)):
            if index > start and index in keep:
                path.append(SegmentState.frozen(index, bits[:passed], state))
                state = path[-1].arrays
            state = self._segments[index].step(run, state)
            passed += len(self._segments[index].layers)
        path[:] = [s for s in path if s.index in keep]
        return state["x"]


def calibrate_activations(
    model: ToyModel, inputs: list[tuple[Tensor, Tensor, float]], bos_aware: bool = False
) -> dict[str, ActRange]:
    """Batch min/max of every layer's input over the calibration inputs."""
    if not inputs:
        raise ParameterError("calibration needs at least one input")
    acc: dict[str, ActRange] = {}
    cfg = QuantConfig.all_fp(model.layer_order)
    for chunk in input_chunks(inputs):
        state, _ = _as_batch(model, *chunk)
        _run_from(_Run(model, cfg, None, bos_aware, calib=acc), state)
    return acc


def model_layer_summary(model: ToyModel) -> list[dict]:
    """Cost-model rows: id, kind, group, and the three per-layer counts."""
    return [
        {
            "id": lid,
            "kind": model.layers[lid].kind.value,
            "group": model.layers[lid].group,
            "param_count": model.layers[lid].param_count,
            "act_elem_count": model.layers[lid].act_elem_count,
            "mac_count": model.layers[lid].mac_count,
            "weight_shape": list(model.layers[lid].weight.shape),
        }
        for lid in model.layer_order
    ]


def model_to_json_dict(model: ToyModel) -> dict:
    return {
        "kind": "toy-unet",
        "seed": model.seed,
        "width": model.width,
        "depth": model.depth,
        "spatial": model.spatial,
        "latent_channels": model.latent_channels,
        "text_tokens": model.text_tokens,
        "text_channels": model.text_channels,
        "time_dim": model.time_dim,
        "layers": model_layer_summary(model),
    }


def save_model(model: ToyModel, json_path: Path | str, weights_dir: Path | str) -> dict[Path, str]:
    """Write the weight tensors, then the model JSON, each file atomically;
    returns the SHA-256 hex digest of every file written, by its path."""
    weights_dir = Path(weights_dir)
    weights_dir.mkdir(parents=True, exist_ok=True)
    written: dict[Path, str] = {}
    for lid in model.layer_order:
        written.update(save_tensor(model.layers[lid].weight, weights_dir / lid))
    written[Path(json_path)] = write_json(json_path, model_to_json_dict(model))
    return written


def load_model(meta: dict, weights_dir: Path, weights: dict[str, tuple[bytes, bytes]]) -> ToyModel:
    """Rebuild the architecture from the parsed model JSON, with each layer's weight
    from ``weights``: the bytes of its ``.bin`` and sidecar in ``weights_dir``, by layer id.
    It checks the shape as ``build_toy_unet`` does, and draws no weights."""
    stored = {row["id"]: row for row in meta["layers"]}

    def weight(lid: str, op: str, w_shape: tuple) -> Tensor:
        if lid not in stored:
            raise ValidationError("stored layer list does not match the architecture")
        base, (raw, sidecar_raw) = weights_dir / lid, weights[lid]
        w = read_artifact(base, raw, "weight tensor", lambda raw: load_tensor(base, raw, sidecar_raw))
        if w.shape != w_shape:
            raise ValidationError(f"layer {lid}: weight shape {w.shape} != {w_shape}")
        return w

    shape = {key: meta[key] for key in ("spatial", "latent_channels", "text_tokens", "text_channels", "time_dim")}
    model = _model(meta["seed"], meta["width"], meta["depth"], shape, weight)
    if set(stored) != set(model.layer_order):
        raise ValidationError("stored layer list does not match the architecture")
    for lid, layer in model.layers.items():
        for field_name in ("kind", "group", "param_count", "act_elem_count", "mac_count"):
            want = getattr(layer, field_name)
            want = want.value if isinstance(want, LayerKind) else want
            if stored[lid][field_name] != want:
                raise ValidationError(f"layer {lid}: stored {field_name} disagrees with architecture")
    return model
