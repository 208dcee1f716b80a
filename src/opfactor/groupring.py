"""The integral group ring of the cyclic group of order five.

An element is an integer combination a + b*r + c*r^2 + d*r^3 + e*r^4 where
r generates the group, r^5 = 1.  This is the whole group ring on the five
group elements, not a quotient polynomial ring, so it has zero divisors
and very few units.  Multiplication is cyclic convolution of exponents
mod 5.

Inversion takes the norm over the automorphisms r -> r^m: with
y = s2(x)*s3(x)*s4(x), where sm is r -> r^m, the product x*y is fixed by
all of them, so x*y = a + b*s with s = r + r^2 + r^3 + r^4.  Its values
at the nontrivial and the trivial characters are a - b, the norm of x at
a primitive fifth root of unity, and a + 4b, the fourth power of the
augmentation of x; both are nonnegative integers.  So x is a unit exactly
when both are 1, that is when x*y = 1 and y is the inverse; when their
product is 0, x is a zero divisor.  The ring is commutative, so a
one-sided inverse is automatically two-sided.

GroupRingC5Element is a value class in the package's one slotted idiom
(see the base module), immutable by convention.  The public constructor
takes five integers and raises TypeError on a Fraction, float or string
rather than truncate it; arithmetic builds its results through `_trusted`,
which checks nothing.
"""

from __future__ import annotations

import operator
from typing import Tuple

from .base import Value
from .errors import NotAUnit
from .formatting import int_text, join_terms


class GroupRingC5Element(Value):
    __slots__ = ("coeffs",)
    var = None  # no variable; the algebra's membership check reads it

    def __init__(self, coeffs: Tuple[int, int, int, int, int]):
        cs = tuple(operator.index(c) for c in coeffs)
        if len(cs) != 5:
            raise ValueError("exactly five coefficients required")
        self.coeffs = cs

    @classmethod
    def _trusted(cls, cs: Tuple[int, ...]) -> "GroupRingC5Element":
        """The trusted constructor: cs is already a tuple of five ints."""
        e = object.__new__(cls)
        e.coeffs = cs
        return e

    # structure

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return "GroupRingC5Element(coeffs=%r)" % (self.coeffs,)

    # arithmetic

    def __add__(self, other) -> "GroupRingC5Element":
        if not isinstance(other, GroupRingC5Element):
            return NotImplemented
        return self._trusted(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupRingC5Element":
        return self._trusted(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "GroupRingC5Element":
        return self + (-other)

    def __mul__(self, other) -> "GroupRingC5Element":
        if not isinstance(other, GroupRingC5Element):
            return NotImplemented
        out = [0] * 5
        for p, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for q, b in enumerate(other.coeffs):
                if b:
                    out[(p + q) % 5] += a * b
        return self._trusted(tuple(out))

    def scale_exponents(self, m: int) -> "GroupRingC5Element":
        """Apply the group automorphism r -> r^m (for m prime to 5)."""
        out = [0] * 5
        for e, c in enumerate(self.coeffs):
            out[(e * m) % 5] += c
        return self._trusted(tuple(out))

    def inverse(self) -> "GroupRingC5Element":
        y = self.scale_exponents(2) * self.scale_exponents(3) * self.scale_exponents(4)
        norm = self * y
        if norm.coeffs == (1, 0, 0, 0, 0):
            return y
        a, b = norm.coeffs[:2]
        if (a - b) * (a + 4 * b) == 0:
            raise NotAUnit("%s is not a unit (singular system)" % (self,))
        raise NotAUnit("%s is not a unit in the integral group ring" % (self,))

    # display

    def split_sign(self):
        nonzero = [c for c in self.coeffs if c]
        if nonzero and all(c < 0 for c in nonzero):
            return -1, -self
        return 1, self

    def __str__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = -1 if c < 0 else 1
            mag = abs(c)
            if e == 0:
                body = int_text(mag)
            else:
                rpart = "r" if e == 1 else "r^%d" % e
                body = rpart if mag == 1 else "%s*%s" % (int_text(mag), rpart)
            terms.append((sign, body))
        return join_terms(terms)
