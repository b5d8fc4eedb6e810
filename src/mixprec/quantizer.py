"""Asymmetric min-max integer quantization.

Codes live in the unsigned range [0, 2^b - 1] with a positive scale and an
integer zero point per slice. Granularity is either one (scale, zero_point)
pair for the whole tensor or one pair per output channel. Rounding is
half-away-from-zero so fixtures stay bit-exact across platforms.

Also hosts the first-token-aware path for text embeddings: the first token
row of a CLIP-style embedding is a constant, extreme-magnitude outlier, so
its layer output is computed at full precision by the caller while the
remaining rows are quantized on their own, much tighter, grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationMismatchWarning, InputError, ParameterError, ShapeError
from .tensor_core import Tensor, reduce_min_max

BIT_WIDTHS = (2, 4, 8)

PER_TENSOR = "per_tensor"
PER_CHANNEL = "per_channel"


@dataclass(frozen=True)
class QuantParams:
    """Scale/zero-point grid for one tensor at one bit-width."""

    bit_width: int
    granularity: str
    scales: np.ndarray       # () for per-tensor, (n_channels,) for per-channel
    zero_points: np.ndarray  # int64, same shape as scales
    channel_axis: int | None = None

    def __post_init__(self):
        if self.bit_width not in BIT_WIDTHS:
            raise ParameterError(f"bit_width must be one of {BIT_WIDTHS}, got {self.bit_width}")
        if self.granularity == PER_TENSOR and self.scales.ndim != 0:
            raise ParameterError("per-tensor params must hold exactly one (scale, zero_point) pair")
        if self.granularity == PER_CHANNEL and self.channel_axis is None:
            raise ParameterError("per-channel params require channel_axis")
        if not np.all(self.scales > 0):
            raise ParameterError("scales must be strictly positive")
        qmax = (1 << self.bit_width) - 1
        if np.any(self.zero_points < 0) or np.any(self.zero_points > qmax):
            raise ParameterError(f"zero points must lie in [0, {qmax}]")

    @property
    def qmax(self) -> int:
        return (1 << self.bit_width) - 1

    def broadcast(self, ndim: int):
        """Scales/zero-points shaped to broadcast against a rank-``ndim`` tensor."""
        if self.granularity == PER_TENSOR:
            return self.scales, self.zero_points
        shape = [1] * ndim
        shape[self.channel_axis] = self.scales.shape[0]
        return self.scales.reshape(shape), self.zero_points.reshape(shape)


@dataclass(frozen=True)
class IntTensor:
    """Integer codes plus the params needed to map them back to reals."""

    codes: np.ndarray
    params: QuantParams

    def __post_init__(self):
        if np.any(self.codes < 0) or np.any(self.codes > self.params.qmax):
            raise ParameterError(f"codes exceed the {self.params.bit_width}-bit range")


@dataclass(frozen=True)
class BosSplit:
    """First token row (kept full precision) and the remaining rows."""

    bos_feature: Tensor
    rest: Tensor


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (numpy's default is ties-to-even)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def params_from_minmax(
    lo, hi, bit_width: int, granularity: str = PER_TENSOR, channel_axis: int | None = None
) -> QuantParams:
    """Build params from (min, max) statistics.

    The range is first widened to include zero (an integer code must land on
    exact zero, and a one-sided grid would otherwise clamp the whole slice),
    then s = (hi - lo) / (2^b - 1) and z = round(-lo / s). A degenerate slice
    (max == min, or a range whose step s underflows to 0 or overflows to inf)
    maps to s=1, z=0 by convention.
    """
    if bit_width not in BIT_WIDTHS:
        raise ParameterError(f"bit_width must be one of {BIT_WIDTHS}, got {bit_width}")
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InputError("min/max statistics must be finite")
    qmax = (1 << bit_width) - 1
    degenerate = hi == lo
    lo = np.minimum(lo, 0.0)
    hi = np.maximum(hi, 0.0)
    with np.errstate(over="ignore"):
        scales = (hi - lo) / qmax
    # A step that underflows to 0 or overflows to inf cannot carry a grid either.
    degenerate = degenerate | ~(np.isfinite(scales) & (scales > 0))
    scales = np.where(degenerate, 1.0, scales)
    zeros = np.where(degenerate, 0.0, np.clip(round_half_away(-lo / scales), 0, qmax))
    return QuantParams(
        bit_width=bit_width,
        granularity=granularity,
        scales=scales,
        zero_points=zeros.astype(np.int64),
        channel_axis=channel_axis,
    )


def calibrate_minmax(
    t: Tensor, bit_width: int, granularity: str = PER_TENSOR, channel_axis: int | None = None
) -> QuantParams:
    """Min/max calibration over the tensor, per tensor or per output channel."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise InputError("cannot calibrate on non-finite values")
    if granularity == PER_TENSOR:
        lo, hi = reduce_min_max(t)
        return params_from_minmax(lo, hi, bit_width, PER_TENSOR)
    if granularity == PER_CHANNEL:
        if channel_axis is None:
            raise ParameterError("per-channel calibration requires channel_axis")
        lo, hi = reduce_min_max(t, axis=channel_axis)
        return params_from_minmax(lo, hi, bit_width, PER_CHANNEL, channel_axis % t.ndim)
    raise ParameterError(f"unknown granularity {granularity!r}")


def quantize(t: Tensor, params: QuantParams) -> IntTensor:
    """Map reals to integer codes: clamp(round(x/s) + z, 0, 2^b - 1)."""
    t = np.asarray(t, dtype=np.float64)
    s, z = params.broadcast(t.ndim)
    codes = np.clip(round_half_away(t / s) + z, 0, params.qmax)
    return IntTensor(codes=codes.astype(np.int64), params=params)


def dequantize(qt: IntTensor) -> Tensor:
    """Map codes back to reals: (q - z) * s."""
    s, z = qt.params.broadcast(qt.codes.ndim)
    return ((qt.codes - z) * s).astype(np.float64)


def fake_quant(t: Tensor, params: QuantParams) -> Tensor:
    """Quantize-then-dequantize in float, simulating integer inference error."""
    return dequantize(quantize(t, params))


def split_bos(embedding: Tensor) -> BosSplit:
    """Separate the first token row from a (tokens x channels) embedding, or from
    each embedding of a (B, tokens, channels) batch, losslessly."""
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim not in (2, 3):
        raise ShapeError(
            f"embedding must be (tokens x channels) or a batch of them, got shape {embedding.shape}"
        )
    if embedding.shape[-2] < 2:
        raise InputError("embedding must have at least 2 token rows")
    return BosSplit(bos_feature=embedding[..., :1, :].copy(), rest=embedding[..., 1:, :].copy())


def _warn_if_params_cover_outlier(split: BosSplit, a_params: QuantParams) -> None:
    # A grid calibrated on the non-outlier rows cannot reach the outlier; if it
    # does, the caller almost certainly calibrated with the first row included.
    # Checked per embedding of a batch.
    if a_params.granularity != PER_TENSOR:
        return
    s = float(a_params.scales)
    z = int(a_params.zero_points)
    repr_lo = (0 - z) * s - s / 2
    repr_hi = (a_params.qmax - z) * s + s / 2
    bos_lo = split.bos_feature.min(axis=(-2, -1))
    bos_hi = split.bos_feature.max(axis=(-2, -1))
    rest_abs = np.abs(split.rest).max(axis=(-2, -1))
    bos_abs = np.maximum(np.abs(bos_lo), np.abs(bos_hi))
    is_outlier = bos_abs > 2.0 * rest_abs
    covered = (repr_lo <= bos_lo) & (bos_hi <= repr_hi)
    if np.any(is_outlier & covered):
        warnings.warn(
            "activation params cover the first-token outlier; calibrate on the non-outlier rows only",
            CalibrationMismatchWarning,
            stacklevel=3,
        )


def bos_aware_linear(
    embedding: Tensor,
    weight: Tensor,
    a_params: QuantParams | None,
    bos_output: Tensor,
) -> Tensor:
    """Linear layer that keeps the first token row at full precision.

    Row 0 of the output is ``bos_output``, the full-precision product of the
    first token row, which the caller computes with the full-precision weight.
    The remaining rows are the product of their activation, fake-quantized on
    ``a_params`` (``None``: unquantized), and ``weight`` as given, already
    fake-quantized or not. A (B, tokens, channels) batch of embeddings takes a
    (B, 1, out) ``bos_output`` and gives (B, tokens, out).
    """
    split = split_bos(embedding)
    if a_params is not None:
        _warn_if_params_cover_outlier(split, a_params)
    rest = split.rest if a_params is None else fake_quant(split.rest, a_params)
    return np.concatenate([bos_output, rest @ np.asarray(weight, dtype=np.float64).T], axis=-2)
