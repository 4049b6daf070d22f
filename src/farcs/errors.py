"""Exception types shared across the package, and the number checks that raise them."""

import math
import numbers


class FarcsError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FarcsError, ValueError):
    """Invalid static parameters (pulse counts, bandwidths, solver knobs...)."""


class ShapeError(FarcsError, ValueError):
    """Array arguments with incompatible shapes or sizes."""


class DomainError(FarcsError, ValueError):
    """Value outside the mathematical domain of an operation (off-grid
    frequencies, probabilities outside (0, 1), non-integer code offsets)."""


class ResourceError(FarcsError, RuntimeError):
    """Combinatorial or memory budget exceeded before starting the work."""


class UnsupportedModeError(FarcsError, ValueError):
    """Operation is only defined for one of the bandwidth modes."""


class SolverError(FarcsError, RuntimeError):
    """Numerical failure inside an iterative solver.

    Carries the partial result (if any) in ``partial_result`` so callers can
    inspect how far the solver got before the failure.
    """

    def __init__(self, message, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result


def check_integer(name, value, least) -> int:
    """``value`` as an int if it is a non-bool integer >= ``least``, else ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_positive(name, value, zero_ok=False):
    """ConfigurationError unless ``value`` is a finite non-bool real > 0 (>= 0 with zero_ok)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value)
            or not (value >= 0 if zero_ok else value > 0)):
        raise ConfigurationError(f"{name} must be a finite number {'>=' if zero_ok else '>'} 0, "
                                 f"got {value!r}")
