"""Exception types shared across the package, and the number checks that raise them.

The checks here are the package's one definition of a valid number: an
integer is a non-bool ``numbers.Integral`` (numpy integers included), a
real a non-bool ``numbers.Real``, and an array of numbers whatever numpy
converts to the dtype asked for (``check_array``) or reads as numbers
(``check_numbers``), and an object (parameters, codes, an operator, a
scene) whatever has the attributes read from it (``check_attributes``).
Each check returns the value it accepted, or the attributes it read.
The scalar checks raise the error class they are given, ``ConfigurationError``
unless the caller passes another (``DomainError`` for data values);
the array checks read data, so they always raise ``DomainError``.
"""

import math
import numbers

import numpy as np


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


def check_integer(name, value, least, error=ConfigurationError) -> int:
    """``value`` as an int if it is a non-bool integer >= ``least``, else ``error``."""
    if type(value) is int and value >= least:  # the common case, without the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(name, value, error=ConfigurationError):
    """``value`` if it is a non-bool real (NaN and inf too: callers test range), else ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


def check_positive(name, value, zero_ok=False, error=ConfigurationError):
    """``value`` if it is a finite non-bool real > 0 (>= 0 with zero_ok), else ``error``.

    An integer beyond the float range is not finite here: the package computes in floats.
    """
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value) and (value >= 0 if zero_ok else value > 0))
    except OverflowError:  # math.isfinite of an integer too large for a float
        ok = False
    if not ok:
        raise error(f"{name} must be a finite number {'>=' if zero_ok else '>'} 0, got {value!r}")
    return value


def check_attributes(kind, value, *names) -> tuple:
    """``value``'s attributes ``names``; a value without one is no ``kind``: ConfigurationError."""
    try:
        return tuple([getattr(value, name) for name in names])
    except AttributeError:
        raise ConfigurationError(f"expected {kind}, got {type(value).__name__}") from None


def check_numbers(name, value):
    """``value`` itself if it is a number or an array numpy reads as numbers, else DomainError."""
    if isinstance(value, numbers.Number):
        return value
    try:
        kind = np.asarray(value).dtype.kind
    except (TypeError, ValueError):  # a ragged sequence
        kind = "O"
    if kind not in "biufc":
        raise DomainError(f"{name} must be a number or an array of numbers, got {value!r:.80}")
    return value


def check_array(name, value, dtype) -> np.ndarray:
    """``np.asarray(value, dtype)``, or ``DomainError`` where numpy cannot convert ``value``."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be an array of numbers, got {value!r:.80}") from None
