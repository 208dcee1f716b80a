"""Quaternions whose components are exact rational functions of x.

A value is a + b*i + c*j + d*k with the Hamilton table
    i*i = j*j = k*k = -1,  i*j = k,  j*k = i,  k*i = j,
and the reversed products negated.  Quaternion is a value class in the
package's one slotted idiom (see the base module), immutable by convention.
Components are rational functions in one shared variable: the public
constructor raises TypeError on any other component and MixedAlgebras on
mixed variables.  Arithmetic between two quaternions refuses mixed
variables too, then builds its result through `_trusted` with no check.
A product is the dense 16-term formula: most of its terms have a zero factor,
and the rational-function `*`, `+` and `-` return early on a zero operand.
Every nonzero value is a unit: the squared norm a^2 + b^2 + c^2 + d^2 is a
rational function that only vanishes when all four components do, so
conj(q) / norm inverts q from both sides.  The inverse computes that norm
directly from the four components, which is the scalar part of q * conj(q)
without the rest of the product.
"""

from __future__ import annotations

from operator import add, sub

from .errors import MixedAlgebras, NotAUnit
from .formatting import is_sum, join_terms
from .ratfunc import RationalFunction


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

    # constructors: `scalar` checks its argument; the others build their
    # components themselves and skip the check

    @classmethod
    def scalar(cls, r: RationalFunction) -> "Quaternion":
        z = RationalFunction.zero(r.var)
        return cls(r, z, z, z)

    @classmethod
    def from_fraction(cls, q, var: str = "x") -> "Quaternion":
        z = RationalFunction.zero(var)
        return cls._trusted(RationalFunction.constant(q, var), z, z, z)

    @classmethod
    def zero(cls, var: str = "x") -> "Quaternion":
        z = RationalFunction.zero(var)
        return cls._trusted(z, z, z, z)

    @classmethod
    def one(cls, var: str = "x") -> "Quaternion":
        z = RationalFunction.zero(var)
        return cls._trusted(RationalFunction.one(var), z, z, z)

    @classmethod
    def unit(cls, name: str, var: str = "x") -> "Quaternion":
        z = RationalFunction.zero(var)
        o = RationalFunction.one(var)
        table = {
            "i": (z, o, z, z),
            "j": (z, z, o, z),
            "k": (z, z, z, o),
        }
        return cls._trusted(*table[name])

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
        a1, b1, c1, d1 = self.components
        a2, b2, c2, d2 = other.components
        return Quaternion._trusted(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion._trusted(self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Quaternion":
        """Two-sided inverse conj(q) / (a^2 + b^2 + c^2 + d^2)."""
        norm = self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d
        if norm.is_zero():
            raise NotAUnit("zero quaternion has no inverse")
        s = norm.inverse()
        return Quaternion._trusted(*(comp * s for comp in self.conjugate().components))

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
