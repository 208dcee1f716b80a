"""Exception types shared across the engine.

Everything raised on purpose derives from AlgebraError so callers can catch
the whole family at once.  The CLI maps a subset of these onto exit codes.
"""

from __future__ import annotations

from functools import cached_property


class AlgebraError(Exception):
    """Base class for all deliberate failures in this package."""


class MixedAlgebras(AlgebraError):
    """Values from two different coefficient algebras were combined."""


class NotAUnit(AlgebraError):
    """Inversion was requested for an element with no two-sided inverse."""


class ShapeMismatch(AlgebraError):
    """Matrix dimensions are incompatible for the requested operation."""


class NotInvertible(AlgebraError):
    """An elimination proved the matrix has no inverse."""


class _Offenders(AlgebraError):
    """Names each surviving kernel element by its 1-based index and its
    nonzero value; subclasses set the headline and the per-value label.
    The message formats the values on the first str() and keeps the text,
    so a caller that reads only `offenders`, or re-raises the error as
    another, formats nothing."""

    def __init__(self, offenders, algebra):
        self.offenders = tuple(offenders)
        self.algebra = algebra
        super().__init__(self.offenders, algebra)

    @cached_property
    def _message(self) -> str:
        fmt = self.algebra.format_element
        return self.headline + ", ".join(self.label % (i, fmt(v)) for i, v in self.offenders)

    def __str__(self) -> str:
        return self._message


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


class VerificationFailed(AlgebraError):
    """An identity the engine re-checks before it returns did not hold,
    and the message names it: a left solve X*A = B, a right division
    Q*K + R = L, or the corollary that no nonzero operator of degree
    below k annihilates the kernel.  Each means an engine fault, never
    bad input."""


class ParseError(AlgebraError):
    """Bad expression text.  Reports a 1-based character position."""

    def __init__(self, message, position):
        self.message = message
        self.position = position
        super().__init__("at position %d: %s" % (position, message))
