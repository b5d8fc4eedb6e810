"""Exception types shared across the toolkit.

The CLI maps these onto distinct exit codes, so stages can be scripted
against failure categories instead of message text.
"""


class ShapeError(ValueError):
    """Tensor shape is invalid or two shapes are incompatible."""


class ParameterError(ValueError):
    """An argument value is outside its documented domain."""


class InputError(ValueError):
    """Input data violates a precondition (non-finite values, too few rows)."""


class UndefinedMetricError(ValueError):
    """The metric is mathematically undefined for these inputs."""


class ConfigError(ValueError):
    """A quantization config does not cover the model it is applied to."""


class ValidationError(ValueError):
    """A pipeline artifact is missing, incomplete, or fails its checksum."""


class InfeasibleBudgetError(ValueError):
    """No bit-width assignment fits the budget.

    ``min_achievable_bits`` reports the smallest average bit-width the
    instance admits, so callers can surface an actionable message.
    """

    def __init__(self, message: str, min_achievable_bits: float | None = None):
        super().__init__(message)
        self.min_achievable_bits = min_achievable_bits
