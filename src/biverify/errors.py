"""Exception types raised by the verification toolkit.

All errors derive from :class:`BiverifyError`, itself a ``ValueError``, so
callers can catch everything from this package with one handler while the
class name still identifies the violated precondition.  A scalar argument
enters through ``_integer_arg`` or ``_real_arg``, which refuse a wrong type
as they refuse a value out of range.  The module loads no numpy, so the
closed-form ``analysis`` layer can use it without the arrays.
An object argument (a state, a strategy, a basis, a generator) enters
through ``_instance_arg``, which refuses any other type.

``Tolerance`` is the package's one table of tolerances: every check of an
exact identity on floating-point input, and every default ``tol``, reads
its bound there.
"""
from __future__ import annotations

import numbers


class Tolerance:
    """The three absolute tolerances of the package's floating-point checks."""

    # A scalar that an exact formula makes 1 (a norm, a sum of weights or
    # probabilities) is one short sum, whose rounding stays far below this.
    SCALAR = 1e-12
    # An entry of a matrix identity (orthonormality, Hermiticity, a trace,
    # the design's second moment, the homogeneous form) sums up to d^2
    # rounded products, so it gets a hundred times more room.
    MATRIX = 1e-10
    # An eigensolver's top eigenvalue and eigenvector carry its backward
    # error, amplified for the vector by the inverse spectral gap.
    EIGEN = 1e-8


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


def _real_arg(name: str, value, lo=None, hi=None, lo_open=False, hi_open=False) -> float:
    """``value`` as a Python float from ``lo`` to ``hi``, each end open if
    its flag says so; ``hi`` may be ``math.inf``.  A bool, a non-``Real``
    (str, complex, None), a value no double holds (``10**400``), NaN and a
    value outside the interval raise.  With no interval only the type is
    checked, for a caller whose range depends on more, which refuses NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OutOfRangeError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise OutOfRangeError(f"{name} is too large for a double") from None
    if lo is None or (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi):
        return x
    finite = "finite and " if hi == float("inf") else ""
    interval = f"{'(' if lo_open else '['}{lo:.17g}, {hi:.17g}{')' if hi_open else ']'}"
    raise OutOfRangeError(f"{name} must be {finite}in {interval}, got {x}")


def _instance_arg(name: str, value, cls: type):
    """``value`` if it is a ``cls``; any other object raises."""
    if not isinstance(value, cls):
        raise OutOfRangeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value
