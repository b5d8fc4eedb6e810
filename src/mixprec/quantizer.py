"""Asymmetric min-max quantization, simulated in float.

A grid is a positive scale ``s`` and an integer zero point ``z`` over the
unsigned codes [0, 2^b - 1]. Both are shaped to apply elementwise to the
tensor: shape () for one grid per tensor (activations), keepdims shape, such
as (C, 1, 1, 1), for one grid per output channel (weights). Fake quantization is
``(clip(round(t / s) + z, 0, 2^b - 1) - z) * s`` with round-half-away-from-zero
rounding, so fixtures stay bit-exact across platforms. Values beyond the range,
``inf`` included, clamp to its ends; NaN stays NaN. Grids are built in float64;
fake quantization computes in the dtype of the tensor and the grid, so a
float32 tensor on a grid cast to float32 (``QuantParams.astype``) stays float32.

Also hosts the first-token-aware path for text embeddings: the first token
row of a CLIP-style embedding is a constant, extreme-magnitude outlier, so
its layer output is computed at full precision by the caller while the
remaining rows are quantized on their own, much tighter, grid. That grid is
calibrated on the remaining rows only; ``toy_model`` enforces this by
accepting only a range of kind ``rest_rows`` for this path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError
from .tensor_core import Tensor

BIT_WIDTHS = (2, 4, 8)


@dataclass(frozen=True)
class QuantParams:
    """Scale/zero-point grid for one tensor at one bit-width."""

    bit_width: int
    scales: np.ndarray       # () per tensor, keepdims per channel
    zero_points: np.ndarray  # int64 (or the dtype of a cast grid), same shape as scales

    def __post_init__(self):
        if self.bit_width not in BIT_WIDTHS:
            raise ParameterError(f"bit_width must be one of {BIT_WIDTHS}, got {self.bit_width}")
        if not np.all(self.scales > 0):
            raise ParameterError("scales must be strictly positive")
        if np.any(self.zero_points < 0) or np.any(self.zero_points > self.qmax):
            raise ParameterError(f"zero points must lie in [0, {self.qmax}]")

    @property
    def qmax(self) -> int:
        return (1 << self.bit_width) - 1

    def astype(self, dtype) -> "QuantParams":
        """This grid with its scales and zero points cast to ``dtype``, so that
        fake quantization of a ``dtype`` tensor on it computes in ``dtype``. A
        scale the cast rounds to 0 or to inf takes the degenerate grid s=1, z=0,
        as a step that ``params_from_minmax`` cannot represent does."""
        with np.errstate(over="ignore"):
            scales = self.scales.astype(dtype)
        lost = ~(np.isfinite(scales) & (scales > 0))
        return QuantParams(
            bit_width=self.bit_width,
            scales=np.where(lost, 1, scales).astype(dtype),
            zero_points=np.where(lost, 0, self.zero_points).astype(dtype),
        )


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (numpy's default is ties-to-even)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def params_from_minmax(lo, hi, bit_width: int) -> QuantParams:
    """Build params from (min, max) statistics of any one shape.

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
    return QuantParams(bit_width=bit_width, scales=scales, zero_points=zeros.astype(np.int64))


def calibrate_minmax(t: Tensor, bit_width: int, channel_axis: int | None = None) -> QuantParams:
    """Min/max calibration over the whole tensor, or per slice along ``channel_axis``."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise InputError("cannot calibrate on non-finite values")
    if channel_axis is None:
        return params_from_minmax(t.min(), t.max(), bit_width)
    axes = tuple(i for i in range(t.ndim) if i != channel_axis % t.ndim)
    return params_from_minmax(t.min(axis=axes, keepdims=True), t.max(axis=axes, keepdims=True), bit_width)


def fake_quant(t: Tensor, params: QuantParams) -> Tensor:
    """Round ``t`` onto the grid and map it back to reals in float, simulating
    integer inference error; in the result dtype of ``t`` and the grid."""
    s, z = params.scales, params.zero_points
    return (np.clip(round_half_away(t / s) + z, 0, params.qmax) - z) * s


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
    (B, 1, out) ``bos_output`` and gives (B, tokens, out), in the dtype of its
    operands.
    """
    rest = embedding[..., 1:, :]
    if a_params is not None:
        rest = fake_quant(rest, a_params)
    return np.concatenate([bos_output, rest @ weight.T], axis=-2)
