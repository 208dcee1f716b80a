"""Quaternions whose components are exact rational functions of x.

A value is a + b*i + c*j + d*k with the Hamilton table
    i*i = j*j = k*k = -1,  i*j = k,  j*k = i,  k*i = j,
and the reversed products negated.  Quaternion is a value class in the
package's one slotted idiom (see the base module), immutable by convention.
Components are rational functions in one shared variable: the public
constructor raises TypeError on any other component and MixedAlgebras on
mixed variables.  Arithmetic between two quaternions refuses mixed
variables too, then builds its result through `_trusted` with no check.

A product checks the variables first, even when an operand is zero,
then sums l_u * r_v over the nonzero components only, with the unit
table e_u * e_v = +-e_w; a slot that no product reaches holds a zero
component of an operand.  Most products in a request are of one nonzero
component by one.

Every nonzero value is a unit: the squared norm a^2 + b^2 + c^2 + d^2 is
a rational function that only vanishes when all four components do, so
conj(q) / norm inverts q from both sides.  The inverse computes that norm
directly from the four components, which is the scalar part of
q * conj(q) without the rest of the product.  A scalar a, which the
parser makes for `/`, is inverted as 1/a in the scalar slot, the same
canonical value.
"""

from __future__ import annotations

from operator import add, sub

from .errors import MixedAlgebras, NotAUnit
from .formatting import is_sum, join_terms
from .ratfunc import RationalFunction

# e_u * e_v = sign * e_w as (w, sign), for the units e = 1, i, j, k
_UNIT_PRODUCTS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


class Quaternion:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        for name, comp in zip("abcd", (a, b, c, d)):
            if not isinstance(comp, RationalFunction):
                raise TypeError(
                    "quaternion component %s must be a RationalFunction, not %r"
                    % (name, comp)
                )
        vars_ = {comp.var for comp in (a, b, c, d)}
        if len(vars_) != 1:
            raise MixedAlgebras("quaternion components use different variables")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def _trusted(cls, a, b, c, d) -> "Quaternion":
        """The trusted constructor: the components share one variable."""
        q = object.__new__(cls)
        q.a, q.b, q.c, q.d = a, b, c, d
        return q

    @property
    def components(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def var(self) -> str:
        return self.a.var

    # structure

    def is_zero(self) -> bool:
        a, b, c, d = self.components
        return a.is_zero() and b.is_zero() and c.is_zero() and d.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "Quaternion(a=%r, b=%r, c=%r, d=%r)" % self.components

    # arithmetic

    def __add__(self, other) -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion._trusted(*map(add, self.components, other.components))

    def __neg__(self) -> "Quaternion":
        return Quaternion._trusted(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other) -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion._trusted(*map(sub, self.components, other.components))

    def __mul__(self, other) -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        left, right = self.components, other.components
        if left[0].var != right[0].var:
            raise MixedAlgebras(
                "cannot combine quaternions in %r and %r" % (left[0].var, right[0].var)
            )
        # a zero component of an operand fills the slots no product reaches;
        # with none, all 16 products are taken and every slot is reached
        zero = next((comp for comp in left + right if not comp.num.prim), None)
        out = [zero] * 4
        right_terms = [(v, y) for v, y in enumerate(right) if y.num.prim]
        for u, x in enumerate(left):
            if not x.num.prim:
                continue
            for v, y in right_terms:
                w, sign = _UNIT_PRODUCTS[u][v]
                t = x * y if sign > 0 else -(x * y)
                out[w] = t if out[w] is zero else out[w] + t
        return Quaternion._trusted(*out)

    def conjugate(self) -> "Quaternion":
        return Quaternion._trusted(self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Quaternion":
        """Two-sided inverse conj(q) / (a^2 + b^2 + c^2 + d^2), or 1/a of a scalar."""
        a, b, c, d = self.components
        if b.is_zero() and c.is_zero() and d.is_zero():
            if a.is_zero():
                raise NotAUnit("zero quaternion has no inverse")
            return Quaternion._trusted(a.inverse(), b, c, d)
        s = (a * a + b * b + c * c + d * d).inverse()
        return Quaternion._trusted(a * s, -b * s, -c * s, -d * s)

    def derivative(self) -> "Quaternion":
        return Quaternion._trusted(*(comp.derivative() for comp in self.components))

    # display

    def split_sign(self):
        nonzero = [comp for comp in self.components if not comp.is_zero()]
        if nonzero and all(comp.num.leading < 0 for comp in nonzero):
            return -1, -self
        return 1, self

    def __str__(self) -> str:
        terms = []
        for comp, unit in zip(self.components, ("", "i", "j", "k")):
            if comp.is_zero():
                continue
            sign, mag = comp.split_sign()
            if unit and mag.is_one():
                terms.append((sign, unit))
                continue
            text = str(mag)
            # a positive scalar sum reassociates fine when appended bare;
            # under a minus or before a unit it keeps its parentheses
            if is_sum(text) and (unit or sign < 0):
                text = "(%s)" % text
            terms.append((sign, "%s*%s" % (text, unit) if unit else text))
        return join_terms(terms)
