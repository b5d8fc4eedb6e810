"""Exception types shared across the toolkit.

``cli.main`` maps them onto two exit codes: ``InfeasibleBudgetError`` exits
4 and the other six classes exit 3, so a script can tell a budget that no
assignment fits from a bad artifact, config or value without reading message
text. A ``ParameterError`` exits 2 (usage) only where the CLI checks a flag
with it: in the flag's parser, or in ``gen-model``'s model-size check.
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
