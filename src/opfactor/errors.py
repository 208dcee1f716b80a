"""Exception types shared across the engine.

Everything raised on purpose derives from AlgebraError so callers can catch
the whole family at once.  The CLI maps a subset of these onto exit codes.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all deliberate failures in this package."""


class MixedAlgebras(AlgebraError):
    """Values from two different coefficient algebras were combined."""


class NotAUnit(AlgebraError):
    """Inversion was requested for an element with no two-sided inverse."""


class ShapeMismatch(AlgebraError):
    """Matrix dimensions are incompatible for the requested operation."""


class NotInvertible(AlgebraError):
    """A matrix inverse does not exist or could not be certified."""


class NotInKernel(AlgebraError):
    """An operator expected to annihilate the kernel elements does not.

    Carries the offending 1-based indices together with the nonzero values,
    so error messages can show exactly which element survives.
    """

    def __init__(self, offenders, algebra):
        self.offenders = tuple(offenders)
        self.algebra = algebra
        parts = ", ".join(
            "L(f_%d) = %s" % (i, algebra.format_element(v)) for i, v in self.offenders
        )
        super().__init__("operator does not annihilate the kernel: " + parts)


class NotIntertwinable(AlgebraError):
    """The candidate map does not send the kernel back into the kernel."""

    def __init__(self, offenders, algebra):
        self.offenders = tuple(offenders)
        self.algebra = algebra
        parts = ", ".join(
            "K(R(f_%d)) = %s" % (i, algebra.format_element(v)) for i, v in self.offenders
        )
        super().__init__("map does not preserve the kernel: " + parts)


class NotMonicizable(AlgebraError):
    """Right division needs a unit leading coefficient and there is none."""


class CorollaryViolated(AlgebraError):
    """A low-order operator annihilates the kernel yet is not zero.

    With an invertible structure matrix this cannot happen; seeing it means
    an internal inconsistency.
    """


class VerificationFailed(AlgebraError):
    """A result failed its defining identity when checked exactly."""


class ParseError(AlgebraError):
    """Bad expression text.  Reports a 1-based character position."""

    def __init__(self, message, position):
        self.message = message
        self.position = position
        super().__init__("at position %d: %s" % (position, message))
