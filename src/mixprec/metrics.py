"""Comparison metrics used as sensitivity scores: SSIM and SQNR.

Both score a stacked batch of outputs against a ``ReferenceBatch``, input by
input, and return one value per input. ``ReferenceBatch`` holds a stacked batch
of references with the statistics every comparison against them reuses (mean,
variance, data-range stabilizers, signal energy), so each set of references is
summarized once however many outputs are scored against it.

SSIM here uses a single window spanning each input and population (1/N)
statistics. The textbook formula has no stabilizing constants and divides by
zero on constant images, so stabilizers c1/c2 are added with the usual
(0.01*L)^2 / (0.03*L)^2 defaults, L being the reference's data range (1 for a
constant reference).

SQNR is reported in decibels, 10*log10(signal energy / error energy),
capped at ``SQNR_CAP_DB`` (100 dB) so the zero-noise case stays finite and
sortable.

Both metrics raise ``UndefinedMetricError`` when an input is not finite, or
when a statistic they need (a moment, an energy, a stabilizer) overflows, so a
non-finite output never scores as a number, let alone as a perfect one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, UndefinedMetricError
from .tensor_core import l2_norm_sq

SSIM = "SSIM"
SQNR_DB = "SQNR_dB"

SQNR_CAP_DB = 100.0


@dataclass(frozen=True)
class SsimWeights:
    """Stabilizers for the similarity index."""

    c1: float = 1e-4  # (0.01 * L)^2 at data range L = 1
    c2: float = 9e-4  # (0.03 * L)^2

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise ParameterError("stabilizers must be nonnegative")

    @classmethod
    def for_data_range(cls, data_range: float):
        l = max(float(data_range), 0.0)
        try:
            c1, c2 = (0.01 * l) ** 2, (0.03 * l) ** 2
        except OverflowError:
            c1 = c2 = math.inf
        if not math.isfinite(c2):
            raise UndefinedMetricError(f"similarity undefined: data range {data_range!r} has no finite stabilizers")
        return cls(c1=c1, c2=c2)


@dataclass(frozen=True, eq=False)
class ReferenceBatch:
    """A stacked batch of references and the per-reference statistics that every
    comparison against them reuses; built once, read by every score."""

    values: np.ndarray  # (B, ...) the references, read-only
    means: np.ndarray  # (B,)
    variances: tuple[float, ...]
    weights: tuple[SsimWeights, ...]  # the stabilizers of each reference's data range
    energies: tuple[float, ...]  # sum of squares of each

    @classmethod
    def of(cls, references) -> "ReferenceBatch":
        x = np.array(references, dtype=np.float64)
        if x.ndim < 2 or x.shape[0] < 1:
            raise ShapeError(f"references must be a non-empty (B, ...) batch, got shape {x.shape}")
        x.flags.writeable = False
        axes = _input_axes(x)
        # First: undefined for a non-finite reference. A constant reference uses range 1.
        ranges = (x.max(axis=axes) - x.min(axis=axes)).tolist()
        weights = tuple(SsimWeights.for_data_range(1.0 if r == 0 else r) for r in ranges)
        means = x.mean(axis=axes)
        means.flags.writeable = False
        return cls(
            values=x,
            means=means,
            variances=tuple((_centered(x, means) ** 2).mean(axis=axes).tolist()),
            weights=weights,
            energies=tuple(l2_norm_sq(r) for r in x),
        )

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _input_axes(batch: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, batch.ndim))


def _centered(batch: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Each input minus its mean."""
    return batch - means.reshape(-1, *[1] * (batch.ndim - 1))


def _batch_outputs(references: ReferenceBatch, outputs) -> np.ndarray:
    y = np.asarray(outputs, dtype=np.float64)
    if y.shape != references.values.shape:
        raise ShapeError(f"shape mismatch: {references.values.shape} vs {y.shape}")
    return y


def _ssim_value(mu_x: float, mu_y: float, var_x: float, var_y: float, cov: float, w: SsimWeights) -> float:
    """Luminance * contrast * structure from one input's moments."""
    if not all(map(math.isfinite, (mu_x, mu_y, var_x, var_y, cov))):
        raise UndefinedMetricError("similarity undefined: an input is not finite, or its moments overflow")
    sd_x, sd_y = math.sqrt(var_x), math.sqrt(var_y)

    lum_den = mu_x * mu_x + mu_y * mu_y + w.c1
    con_den = var_x + var_y + w.c2
    str_den = sd_x * sd_y + w.c2 / 2
    if lum_den == 0 or con_den == 0 or str_den == 0:
        raise UndefinedMetricError(
            "similarity undefined: zero-mean or constant inputs with zero stabilizers"
        )
    lum = (2 * mu_x * mu_y + w.c1) / lum_den
    con = (2 * sd_x * sd_y + w.c2) / con_den
    struct = (cov + w.c2 / 2) / str_den
    return float(lum * con * struct)


def ssim(references: ReferenceBatch, outputs) -> list[float]:
    """Structural similarity of each output against its reference, over the
    whole input, under the stabilizers of that reference's data range."""
    y = _batch_outputs(references, outputs)
    axes = _input_axes(y)
    means = y.mean(axis=axes)
    centered = _centered(y, means)
    variances = (centered ** 2).mean(axis=axes)
    covariances = (_centered(references.values, references.means) * centered).mean(axis=axes)
    return [
        _ssim_value(mu_x, mu_y, var_x, var_y, cov, w)
        for mu_x, mu_y, var_x, var_y, cov, w in zip(
            references.means.tolist(), means.tolist(), references.variances, variances.tolist(),
            covariances.tolist(), references.weights,
        )
    ]


def _sqnr_value(signal: float, noise: float) -> float:
    if not (math.isfinite(signal) and math.isfinite(noise)):
        raise UndefinedMetricError("SQNR undefined: an input is not finite, or its energy overflows")
    if signal == 0.0:
        raise UndefinedMetricError("reference signal is identically zero")
    if noise == 0.0:
        return SQNR_CAP_DB
    ratio = signal / noise
    # a ratio that underflows to zero (a subnormal signal) still has a logarithm
    db = 10.0 * math.log10(ratio) if ratio > 0.0 else 10.0 * (math.log10(signal) - math.log10(noise))
    return float(min(SQNR_CAP_DB, db))


def sqnr_db(references: ReferenceBatch, outputs) -> list[float]:
    """Signal-to-quantization-noise ratio in dB of each output against its
    reference, capped at ``SQNR_CAP_DB``."""
    noise = references.values - _batch_outputs(references, outputs)
    return [_sqnr_value(signal, l2_norm_sq(d)) for signal, d in zip(references.energies, noise)]
