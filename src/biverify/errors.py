"""Exception types raised by the verification toolkit.

All errors derive from :class:`BiverifyError`, itself a ``ValueError``, so
callers can catch everything from this package with one handler while the
class name still identifies the violated precondition.  The module loads no
numpy, so the closed-form ``analysis`` layer can use it without the arrays.
"""
from __future__ import annotations

import numbers


class BiverifyError(ValueError):
    """Base class for all validation and construction errors."""


class NonHermitianError(BiverifyError):
    """A matrix expected to be Hermitian fails the symmetry check."""


class DimensionMismatchError(BiverifyError):
    """Operands live on incompatible Hilbert spaces."""


class ZeroVectorError(BiverifyError):
    """A coefficient vector is identically zero and cannot be normalized."""


class NegativeCoefficientError(BiverifyError):
    """Schmidt coefficients must be non-negative."""


class OutOfRangeError(BiverifyError):
    """A numeric parameter lies outside its allowed interval."""


class NotPrimeError(BiverifyError):
    """A complete set of mutually unbiased bases needs a prime dimension."""


class DimensionTooSmallError(BiverifyError):
    """The phase-basis design construction degenerates at this dimension."""


class TooFewBasesError(BiverifyError):
    """Fewer bases than the design-existence bound requires."""


class SeparableStateError(BiverifyError):
    """The target state is a product state; strategy builders need Schmidt rank >= 2."""


class DesignMismatchError(BiverifyError):
    """A numerically verified basis-set identity failed its tolerance."""


class TopEigenvalueError(BiverifyError):
    """The top eigenvalue of a verification operator is not 1 on the target."""


class NotHomogeneousError(BiverifyError):
    """Fidelity estimation needs a strategy with a two-valued spectrum."""


def _integer_arg(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` as a Python int in [``minimum``, ``maximum``]; bools and
    non-integers raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise OutOfRangeError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise OutOfRangeError(f"{name} must be <= {maximum}, got {value}")
    return int(value)
