"""Quaternions whose components are exact rational functions of x.

A value is a + b*i + c*j + d*k with the Hamilton table
    i*i = j*j = k*k = -1,  i*j = k,  j*k = i,  k*i = j,
and the reversed products negated.  Quaternion is a value class in the
package's one slotted idiom (see the base module), immutable by convention.

A value stores only its nonzero components.  Most quaternions of a
factorization have one nonzero component, a few two, so a dense four-tuple
would send mostly zeros through rational function arithmetic.  The two
slots are:
  * `terms`, a tuple of (unit, component) pairs, unit 0, 1, 2, 3 for
    1, i, j, k: the nonzero components only, in increasing unit order, so
    equal values have equal slots;
  * `zero`, the zero rational function of the variable, which `var` reads;
    a value with no terms still knows its variable.
`components`, the four-tuple (a, b, c, d), is derived from the two.  The
public constructor takes the four components and raises TypeError on any
that is not a rational function and MixedAlgebras on mixed variables.
Arithmetic refuses mixed variables too, then builds its result through
`_trusted(terms, zero)` with no check, passing on its left operand's zero.

Every operation loops over the terms alone.  A sum merges the two term
tuples and drops a unit whose components cancel; a difference is the
same merge with the sign -1, which subtracts the components of a shared
unit and puts in 0 - y for a unit only the right operand has, so no
operand is negated first.  A product checks the variables first, even
when an operand is zero, then sums l_u * r_v over the pairs of terms
through the unit table e_u * e_v = +-e_w, dropping a unit whose sum
cancels.
Negation and conjugation cannot make a component zero; the derivative
drops each component that it makes zero.

Every nonzero value is a unit: the squared norm a^2 + b^2 + c^2 + d^2 is
a rational function that only vanishes when all four components do, so
conj(q) / norm inverts q from both sides.  The inverse computes that norm
directly from the terms, which is the scalar part of q * conj(q) without
the rest of the product.  A scalar a, which the parser makes for `/`, is
inverted as 1/a in the scalar slot, the same canonical value.

A value prints as its terms in unit order, each as a sign and the text of
its component's magnitude, both from the component's `_signed()`, which
folds the sign into the numerator, so no component is negated to print it.
Whether that text is a sum, and so is grouped before a unit or under a
minus, is the component's answer too (see the ratfunc module): a
numerator such as (8*x - 3)/3, with a rational content, prints as a
quotient and stays bare.  `_text(sign)` prints sign*q this way, and
`_signed()` gives the operator printer the same facts of a whole value.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .base import Value
from .errors import MixedAlgebras, NotAUnit
from .formatting import join_terms, term
from .poly import Poly
from .ratfunc import RationalFunction

# e_u * e_v = sign * e_w as (w, sign), for the units e = 1, i, j, k
_UNIT_PRODUCTS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)

_UNIT_NAMES = ("", "i", "j", "k")


class Quaternion(Value):
    __slots__ = ("terms", "zero")

    def __init__(self, a, b, c, d):
        comps = (a, b, c, d)
        for name, comp in zip("abcd", comps):
            if not isinstance(comp, RationalFunction):
                raise TypeError(
                    "quaternion component %s must be a RationalFunction, not %r"
                    % (name, comp)
                )
        vars_ = {comp.var for comp in comps}
        if len(vars_) != 1:
            raise MixedAlgebras("quaternion components use different variables")
        self.terms = tuple((u, comp) for u, comp in enumerate(comps) if not comp.is_zero())
        self.zero = RationalFunction._canonical(Poly.zero(), Poly.one(), a.var)

    @classmethod
    def _trusted(cls, terms, zero) -> "Quaternion":
        """The trusted constructor: the nonzero (unit, component) pairs in
        increasing unit order, and the zero of their variable."""
        q = object.__new__(cls)
        q.terms = terms
        q.zero = zero
        return q

    @property
    def var(self) -> str:
        return self.zero.var

    @property
    def components(self) -> tuple:
        """The four components (a, b, c, d), the zero where no term is."""
        out = [self.zero] * 4
        for u, comp in self.terms:
            out[u] = comp
        return tuple(out)

    # structure

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return "Quaternion(a=%r, b=%r, c=%r, d=%r)" % self.components

    def _refuse(self, other):
        """Raise for an operand in another variable."""
        raise MixedAlgebras(
            "cannot combine quaternions in %r and %r" % (self.var, other.var)
        )

    # arithmetic

    def _sum(self, other, sign: int = 1) -> "Quaternion":
        """self + sign*other, sign 1 or -1: `+` itself, and `-` with sign
        -1."""
        if not isinstance(other, Quaternion):
            return NotImplemented
        zero = self.zero
        if other.zero.var != zero.var:
            self._refuse(other)
        out = dict(self.terms)
        for v, y in other.terms:
            x = out.get(v)
            if x is None:
                out[v] = y if sign > 0 else zero - y
            else:
                s = x + y if sign > 0 else x - y
                if s.num.prim:
                    out[v] = s
                else:
                    del out[v]
        return Quaternion._trusted(tuple(sorted(out.items())), zero)

    __add__ = _sum

    def __sub__(self, other) -> "Quaternion":
        return self._sum(other, -1)

    def __neg__(self) -> "Quaternion":
        return Quaternion._trusted(tuple([(u, -x) for u, x in self.terms]), self.zero)

    def __mul__(self, other) -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        zero = self.zero
        if other.zero.var != zero.var:
            self._refuse(other)
        right = other.terms
        out = {}
        for u, x in self.terms:
            row = _UNIT_PRODUCTS[u]
            for v, y in right:
                w, sign = row[v]
                t = x * y if sign > 0 else -(x * y)
                s = out.get(w)
                out[w] = t if s is None else s + t
        return Quaternion._trusted(
            tuple(sorted([(w, c) for w, c in out.items() if c.num.prim])), zero
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion._trusted(
            tuple([(u, -x if u else x) for u, x in self.terms]), self.zero
        )

    def inverse(self) -> "Quaternion":
        """Two-sided inverse conj(q) / (a^2 + b^2 + c^2 + d^2), or 1/a of a scalar."""
        terms = self.terms
        if not terms:
            raise NotAUnit("zero quaternion has no inverse")
        if terms[-1][0] == 0:  # the scalar unit is the only one
            return Quaternion._trusted(((0, terms[0][1].inverse()),), self.zero)
        s = reduce(add, [x * x for _, x in terms]).inverse()
        return Quaternion._trusted(
            tuple([(u, -(x * s) if u else x * s) for u, x in terms]), self.zero
        )

    def derivative(self) -> "Quaternion":
        return Quaternion._trusted(
            tuple([(u, dx) for u, x in self.terms if (dx := x.derivative()).num.prim]),
            self.zero,
        )

    # display

    def _text(self, sign: int = 1) -> str:
        """The text of sign*self, sign 1 or -1, from the `_signed()` of
        each component, with no negated copy; str is sign 1."""
        out = []
        for u, comp in self.terms:
            s, text, a_sum, _ = comp._signed()
            # a sum is grouped before a unit and under a minus; a positive
            # scalar sum reassociates fine when appended bare
            if a_sum and (u or s != sign):
                text = "(%s)" % text
            out.append((s * sign, term(text, _UNIT_NAMES[u], 1)))
        return join_terms(out)

    __str__ = _text

    def _signed(self):
        """(sign, the text of sign*self, whether that text is a sum,
        whether it is a quotient).  One term is what its component is,
        except that a unit makes a sum a product; two or more are a sum,
        negative when every component is."""
        terms = self.terms
        if len(terms) == 1:
            u, comp = terms[0]
            sign, text, a_sum, quotient = comp._signed()
            if u:
                text, a_sum = term("(%s)" % text if a_sum else text, _UNIT_NAMES[u], 1), False
            return sign, text, a_sum, quotient
        sign = -1 if terms and all(x.num.cnum < 0 for _, x in terms) else 1
        return sign, self._text(sign), len(terms) > 1, False
