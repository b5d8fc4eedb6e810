"""Comparison metrics used as sensitivity scores: SSIM and SQNR.

SSIM here uses a single window spanning the whole image and population
(1/N) statistics. The textbook formula has no stabilizing constants and
divides by zero on constant images, so stabilizers c1/c2 are added with
the usual (0.01*L)^2 / (0.03*L)^2 defaults; setting both to zero recovers
the unstabilized form.

SQNR is reported in decibels, 10*log10(signal energy / error energy),
capped so the zero-noise case stays finite and sortable.

Both metrics raise ``UndefinedMetricError`` when an input is not finite, or
when a statistic they need (a moment, an energy, a stabilizer) overflows, so a
non-finite output never scores as a number, let alone as a perfect one.

``ReferenceBatch`` holds a stacked batch of references with the statistics
every comparison against them reuses (mean, variance, data-range stabilizers,
signal energy). ``ssim_batch`` and ``sqnr_db_batch`` score a stacked batch of
outputs against it and give, input by input, the same bits as ``ssim`` with
``SsimWeights.for_reference`` and ``sqnr_db``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError, UndefinedMetricError
from .tensor_core import Tensor, l2_norm_sq

SSIM = "SSIM"
SQNR_DB = "SQNR_dB"

DEFAULT_SQNR_CAP_DB = 100.0


class MetricScore(NamedTuple):
    value: float
    kind: str


@dataclass(frozen=True)
class SsimWeights:
    """Component exponents and stabilizers for the similarity index."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    c1: float = 1e-4  # (0.01 * L)^2 at data range L = 1
    c2: float = 9e-4  # (0.03 * L)^2

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ParameterError("exponents must be nonnegative")
        if self.c1 < 0 or self.c2 < 0:
            raise ParameterError("stabilizers must be nonnegative")

    @classmethod
    def for_data_range(cls, data_range: float, alpha: float = 1.0, beta: float = 1.0, gamma: float = 1.0):
        l = max(float(data_range), 0.0)
        try:
            c1, c2 = (0.01 * l) ** 2, (0.03 * l) ** 2
        except OverflowError:
            c1 = c2 = math.inf
        if not math.isfinite(c2):
            raise UndefinedMetricError(f"similarity undefined: data range {data_range!r} has no finite stabilizers")
        return cls(alpha=alpha, beta=beta, gamma=gamma, c1=c1, c2=c2)

    @classmethod
    def for_reference(cls, reference: Tensor):
        """Stabilizers for the reference's data range; a constant reference uses range 1."""
        data_range = float(np.max(reference) - np.min(reference))
        return cls.for_data_range(1.0 if data_range == 0 else data_range)

    @classmethod
    def unstabilized(cls):
        return cls(c1=0.0, c2=0.0)


def _moments(x: np.ndarray, y: np.ndarray):
    mu_x = float(x.mean())
    mu_y = float(y.mean())
    var_x = float(((x - mu_x) ** 2).mean())
    var_y = float(((y - mu_y) ** 2).mean())
    cov = float(((x - mu_x) * (y - mu_y)).mean())
    return mu_x, mu_y, var_x, var_y, cov


def ssim_components(x: Tensor, y: Tensor, weights: SsimWeights | None = None):
    """Luminance, contrast, and structure terms over one full-image window."""
    w = weights or SsimWeights()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    return _components(*_moments(x, y), w)


def _components(mu_x: float, mu_y: float, var_x: float, var_y: float, cov: float, w: SsimWeights):
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
    return lum, con, struct


def ssim(x: Tensor, y: Tensor, weights: SsimWeights | None = None) -> MetricScore:
    """Structural similarity: l^alpha * c^beta * s^gamma over the full image."""
    w = weights or SsimWeights()
    return MetricScore(value=_combine(ssim_components(x, y, w), w), kind=SSIM)


def _combine(components, w: SsimWeights) -> float:
    lum, con, struct = components
    return float((lum ** w.alpha) * (con ** w.beta) * (struct ** w.gamma))


def sqnr_db(reference: Tensor, test: Tensor, cap_db: float = DEFAULT_SQNR_CAP_DB) -> MetricScore:
    """Signal-to-quantization-noise ratio in dB, capped at ``cap_db``."""
    if not math.isfinite(cap_db):
        raise ParameterError("cap_db must be finite")
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ShapeError(f"shape mismatch: {reference.shape} vs {test.shape}")
    return MetricScore(value=_sqnr_value(l2_norm_sq(reference), l2_norm_sq(reference - test), cap_db), kind=SQNR_DB)


def _sqnr_value(signal: float, noise: float, cap_db: float) -> float:
    if not (math.isfinite(signal) and math.isfinite(noise)):
        raise UndefinedMetricError("SQNR undefined: an input is not finite, or its energy overflows")
    if signal == 0.0:
        raise UndefinedMetricError("reference signal is identically zero")
    if noise == 0.0:
        return float(cap_db)
    return float(min(cap_db, 10.0 * math.log10(signal / noise)))


@dataclass(frozen=True, eq=False)
class ReferenceBatch:
    """A stacked batch of references and the per-reference statistics that every
    comparison against them reuses; built once, read by every score."""

    values: np.ndarray  # (B, ...) the references, read-only
    means: np.ndarray  # (B,)
    variances: tuple[float, ...]
    weights: tuple[SsimWeights, ...]  # SsimWeights.for_reference of each
    energies: tuple[float, ...]  # sum of squares of each

    @classmethod
    def of(cls, references) -> "ReferenceBatch":
        x = np.array(references, dtype=np.float64)
        if x.ndim < 2 or x.shape[0] < 1:
            raise ShapeError(f"references must be a non-empty (B, ...) batch, got shape {x.shape}")
        x.flags.writeable = False
        weights = tuple(SsimWeights.for_reference(r) for r in x)  # first: undefined for a non-finite reference
        means = x.mean(axis=_input_axes(x))
        means.flags.writeable = False
        return cls(
            values=x,
            means=means,
            variances=tuple((_centered(x, means) ** 2).mean(axis=_input_axes(x)).tolist()),
            weights=weights,
            energies=tuple(l2_norm_sq(r) for r in x),
        )

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _input_axes(batch: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, batch.ndim))


def _centered(batch: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Each input minus its mean: the ``x - mu_x`` of ``_moments``, input by input."""
    return batch - means.reshape(-1, *[1] * (batch.ndim - 1))


def _batch_outputs(references: ReferenceBatch, outputs) -> np.ndarray:
    y = np.asarray(outputs, dtype=np.float64)
    if y.shape != references.values.shape:
        raise ShapeError(f"shape mismatch: {references.values.shape} vs {y.shape}")
    return y


def ssim_batch(references: ReferenceBatch, outputs) -> list[float]:
    """SSIM of each output against its reference, under that reference's weights.

    The moments are reduced over each input's axes of the stacked batch, which
    sums them in the order ``ssim`` does, so every value has the same bits as
    ``ssim(ref, out, SsimWeights.for_reference(ref))``.
    """
    y = _batch_outputs(references, outputs)
    axes = _input_axes(y)
    means = y.mean(axis=axes)
    centered = _centered(y, means)
    variances = (centered ** 2).mean(axis=axes)
    covariances = (_centered(references.values, references.means) * centered).mean(axis=axes)
    return [
        _combine(_components(mu_x, mu_y, var_x, var_y, cov, w), w)
        for mu_x, mu_y, var_x, var_y, cov, w in zip(
            references.means.tolist(), means.tolist(), references.variances, variances.tolist(),
            covariances.tolist(), references.weights,
        )
    ]


def sqnr_db_batch(references: ReferenceBatch, outputs, cap_db: float = DEFAULT_SQNR_CAP_DB) -> list[float]:
    """SQNR in dB of each output against its reference; the same bits as ``sqnr_db``."""
    if not math.isfinite(cap_db):
        raise ParameterError("cap_db must be finite")
    noise = references.values - _batch_outputs(references, outputs)
    return [_sqnr_value(signal, l2_norm_sq(d), cap_db) for signal, d in zip(references.energies, noise)]
