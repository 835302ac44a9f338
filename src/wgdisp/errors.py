"""Exception and warning types shared across the package."""

from __future__ import annotations

import math


class WgdispError(Exception):
    """Base class for all package errors."""


class InputError(WgdispError, ValueError):
    """Invalid argument, geometry, mode index or configuration."""


def _require_positive(name: str, value, shown: str = "") -> None:
    """Refuse ``value``, named ``name`` and shown after ``shown``, unless it
    is positive and finite: zero, negative values, NaN and +-inf are refused."""
    if not 0.0 < value < math.inf:
        raise InputError(f"{name} must be positive and finite, got {shown}{value!r}")


class SpeciesFileError(InputError):
    """Malformed dipole species file; carries the offending line number."""

    def __init__(self, message: str, path: str, line_number: int):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


class ModeCapError(WgdispError, RuntimeError):
    """A mode sum or mode listing would exceed the configured hard cap."""

    def __init__(self, needed: int | float, cap: int, remedy: str = "use a lower cutoff"):
        super().__init__(f"the cutoff needs ~{needed:.15g} modes, exceeding the hard cap "
                         f"of {cap}; {remedy}")
        self.needed = needed
        self.cap = cap


class QuadratureError(WgdispError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance.

    Carries the best available estimate and the achieved error bound so a
    caller can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, best_estimate: float, achieved_error: float):
        best_estimate, achieved_error = float(best_estimate), float(achieved_error)
        super().__init__(f"{message} (best estimate {best_estimate!r}, "
                         f"achieved error {achieved_error!r})")
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


class TightConfinementWarning(UserWarning):
    """Transition wavelength is not far above the transverse confinement."""


class ValidityDomainWarning(UserWarning):
    """Arguments are outside the validity domain of a closed-form result."""
