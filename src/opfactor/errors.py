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


class _Offenders(AlgebraError):
    """Names each surviving kernel element by its 1-based index and its
    nonzero value; subclasses set the headline and the per-value label."""

    def __init__(self, offenders, algebra):
        self.offenders = tuple(offenders)
        self.algebra = algebra
        parts = ", ".join(
            self.label % (i, algebra.format_element(v)) for i, v in self.offenders
        )
        super().__init__(self.headline + parts)


class NotInKernel(_Offenders):
    """An operator expected to annihilate the kernel elements does not."""

    headline = "operator does not annihilate the kernel: "
    label = "L(f_%d) = %s"


class NotIntertwinable(_Offenders):
    """The candidate map does not send the kernel back into the kernel."""

    headline = "map does not preserve the kernel: "
    label = "K(R(f_%d)) = %s"


class NotMonicizable(AlgebraError):
    """Right division needs a monic divisor: leading coefficient one."""


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
