"""Exception hierarchy shared across the estimator.

Domain failures raise :class:`EstimatorError` subclasses (CLI exit code 1),
malformed job input raises :class:`SchemaError` (exit code 2).
"""

from collections.abc import Iterable


class EstimatorError(Exception):
    """Base class for every domain error raised by this package."""


class ParameterError(EstimatorError):
    """A model parameter is outside its legal range."""


class UnknownPresetError(EstimatorError):
    """A named preset does not exist.

    Carries the offending name and the valid choices so callers can build
    actionable messages without string parsing.
    """

    def __init__(self, kind: str, name: str, known: Iterable[str]) -> None:
        self.kind = kind
        self.name = name
        self.known = tuple(known)
        choices = ", ".join(self.known)
        super().__init__(f"unknown preset {name!r}; valid {kind} presets: {choices}")


class AboveThresholdError(EstimatorError):
    """Physical error rate at or above the code threshold; no distance helps."""


class DistanceCapError(EstimatorError):
    """The required code distance exceeds the configured cap."""


class ValidityRangeError(EstimatorError):
    """Distillation formulas were evaluated outside their trusted input range."""


class FactoryOutputError(EstimatorError):
    """A factory configuration cannot deliver even one output reliably."""


class NoFactoryError(EstimatorError):
    """No factory in the search space reaches the target error rate.

    ``best_output_error`` records the lowest output error any candidate
    achieved, so callers can see how far off the target was.
    """

    def __init__(self, target: float, best_output_error: float | None) -> None:
        self.target = target
        self.best_output_error = best_output_error
        msg = f"no factory reaches target error rate {target:.3g}"
        if best_output_error is not None:
            msg += f" (best achieved: {best_output_error:.3g})"
        super().__init__(msg)


class SchemaError(EstimatorError):
    """A job description failed validation.

    ``pointer`` is a JSON pointer to the offending node ("/" for the root).
    """

    def __init__(self, message: str, pointer: str = "/") -> None:
        self.pointer = pointer
        super().__init__(message)

    def __str__(self) -> str:
        return f"{self.args[0]} (at {self.pointer})"
