"""The integral group ring of the cyclic group of order five.

An element is an integer combination a + b*r + c*r^2 + d*r^3 + e*r^4 where
r generates the group, r^5 = 1.  This is the whole group ring on the five
group elements, not a quotient polynomial ring, so it has zero divisors
and very few units.  The product is the fixed cyclic convolution: the
coefficient of r^e is the sum of the five a_p*b_q with p + q = e mod 5,
written out as straight-line code, since a loop over the 25 exponent pairs
costs more in the interpreter than the products themselves.  Sums,
differences and negatives map one operator over the five coefficients.

The automorphism r -> r^m for m prime to 5 permutes the five
coefficients: `scale_exponents` is one `operator.itemgetter` gather from a
table built at import for m = 1..4, so the endomorphism, its twist and
the inverse below run no loop.

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
from .formatting import int_poly


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
        return self._trusted(tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupRingC5Element":
        return self._trusted(tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other) -> "GroupRingC5Element":
        if not isinstance(other, GroupRingC5Element):
            return NotImplemented
        return self._trusted(tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "GroupRingC5Element":
        if not isinstance(other, GroupRingC5Element):
            return NotImplemented
        a0, a1, a2, a3, a4 = self.coeffs
        b0, b1, b2, b3, b4 = other.coeffs
        return self._trusted((
            a0 * b0 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1,
            a0 * b1 + a1 * b0 + a2 * b4 + a3 * b3 + a4 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 + a3 * b4 + a4 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * b4,
            a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0,
        ))

    def scale_exponents(self, m: int) -> "GroupRingC5Element":
        """Apply the group automorphism r -> r^m (for m prime to 5)."""
        return self._trusted(_SCALED[m % 5](self.coeffs))

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

    def __str__(self) -> str:
        return int_poly(enumerate(self.coeffs), "r")

    def _signed(self):
        """(sign, the text of sign*self, whether that text is a sum, False):
        the sign is -1 when every nonzero coefficient is negative, and the
        text is a sum with two or more nonzero coefficients."""
        cs = self.coeffs
        sign = -1 if max(cs) <= 0 and any(cs) else 1
        text = int_poly([(e, sign * c) for e, c in enumerate(cs)], "r")
        return sign, text, cs.count(0) < 4, False


# r -> r^m sends the coefficient of r^e to r^(e*m), so the coefficient of
# r^f comes from r^(f/m), f/m taken mod 5; one gather per m prime to 5
_SCALED = {
    m: operator.itemgetter(*[f * pow(m, -1, 5) % 5 for f in range(5)])
    for m in range(1, 5)
}
