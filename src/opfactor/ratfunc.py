"""Exact rational functions in one variable over the rationals.

Canonical form invariants:
  * the denominator is nonzero and monic,
  * numerator and denominator share no polynomial factor (monic gcd is 1),
  * zero is stored as 0/1.
With those three, the representation of a value is unique, so equality is
componentwise and needs no cross multiplication.

The public constructor takes a numerator and a denominator, both `Poly`,
and the variable, and reaches that form with one gcd.  It makes the
denominator monic with ints alone (`_over_monic`, which the inverse
shares): for the leading coefficient cnum*prim[-1]/cden of the
denominator, the numerator's content is multiplied by
cden/(cnum*prim[-1]) and reduced by one integer gcd, and the
denominator becomes prim/prim[-1].  Arithmetic reaches the form
without recomputing it, the way Fraction does for integers (Henrici;
Knuth, TAOCP vol. 2, 4.5.1):

  * a sum and a difference are one body, `_sum` with a sign that
    `__sub__` passes as -1: the sign goes to the content of c, the
    numerator of the right operand, where c enters a Poly sum
    (`poly._combine`, or Poly's `-`), so no operand is negated first.
  * a zero operand is returned as it is by a sum or a product; 0 - c is
    c with its content negated.
  * a/b + c/d over one denominator: both are monic, so equal primitive
    parts mean b = d, and the sum is (a + c)/b, which can share a factor
    only with b.  Since the form is unique, a + c is zero exactly when a
    and -c have the same primitive part and content, and then the sum
    is 0/1, the shared Poly zero over the shared one, before any tuple
    arithmetic.  Otherwise, with b = 1 that is the sum, and h =
    gcd(a + c, b) gives ((a + c)/h)/(b/h).  A sum that cancels always
    takes this branch.
  * a/x^m + c/x^n with m < n: (a*x^(n-m) + c)/x^n, the numerator a
    shift of a's tuple plus c, is canonical as built, since c(0) != 0
    and x is the one prime of x^n.  Either order; m = 0 included.
  * a/b + c/d with b != d otherwise: g = gcd(b, d); when g = 1 the sum
    (a*d + c*b)/(b*d) is already canonical, since a prime factor of b
    divides neither a nor d.  Otherwise t = a*(d/g) + c*(b/g), which is
    not zero, can share a factor only with g, so with h = gcd(t, g) the
    sum is (t/h)/((b/g)*(d/h)).
  * a/b * c/d: cross-cancel gcd(a, d) and gcd(c, b); the remaining
    factors are pairwise coprime.  Each gcd is skipped when its
    denominator is constant, so a product of polynomials needs none.
  * no sum or product multiplies a polynomial by a factor equal to 1
    (`Poly.__mul__` returns the other factor): a cofactor, a denominator
    or a numerator 1 leaves the other factor as it is.
  * negation, the shift x -> x + 1 (a ring automorphism of Q[x]
    that keeps leading coefficients) and the inverse (which only has to
    make the new denominator monic) keep the form as it is.
  * the derivative of a polynomial is a'/1.  For a nonconstant b, with
    g = gcd(b, b'), (a/b)' = (a'*(b/g) - a*(b'/g))/(b*(b/g)).  Over the
    rationals each prime p of b divides b/g exactly once and divides
    neither b'/g nor a, so p does not divide the numerator: the form is
    canonical after that one gcd.

All of these, and the algebras' constants, build their result through
`_canonical`, which trusts its input.  `_cancelled` is the one pair
reduction, a division of both by their monic gcd when it is not 1: in the
public constructor, the equal-denominator sum, both cross-cancels of a
product and the derivative.  Against q = c*x^m, a constant included, the
gcd is x^min(m, v), v the index of p's first nonzero coefficient (x is
the one prime factor of q), so the reduction slices x^min(m, v) off both
tuples with no gcd and no division; any other q takes `Poly.gcd`.

Numerator and denominator are `Poly` values, a rational content times a
primitive integer polynomial, so every product, gcd and exact division
above runs on ints.  Emptiness and degree are read off `Poly.prim`.

Each value carries its variable name.  Mixing two variables in one
operation raises MixedAlgebras; this is what keeps elements of the x-world
and the n-world apart at the lowest level.  Sums, differences and
products test the operand's type and variable inline and leave a failure
to `_refuse`, which raises TypeError for anything but a rational function
and MixedAlgebras otherwise.  A rational number enters through an
algebra's `from_fraction`; this class has no constant constructors.

A value prints as u*num.prim/(v*den.prim) through `formatting.int_poly`,
with u/v = content(num)/content(den) in lowest terms (den.cnum is 1),
both tuples written from the top.  By term counts, a numerator of two or
more terms is wrapped before a slash, and a denominator stays bare only
as a constant or x^e, its one primitive tuple with a single nonzero
coefficient.  So the text is a quotient when the numerator's content has
a denominator other than 1 or the denominator is not constant, and
otherwise a sum exactly when the numerator has two or more terms.
`_signed()` returns these two facts with the sign of the numerator's
content and the text of the magnitude, with -u for u and no negated copy
for a negative value, computing each fact once; the quaternion and
operator printers place their parentheses from it, and `_text(sign)`,
also `str`, is its text.
"""

from __future__ import annotations

from math import gcd

from .base import Value
from .errors import MixedAlgebras, NotAUnit
from .formatting import int_poly
from .poly import Poly, _combine, _new


def _cancelled(p: Poly, q: Poly):
    """p and q divided by their monic gcd, when that gcd is not 1; p is
    not zero."""
    b = q.prim
    m = len(b) - 1
    if b.count(0) == m:  # q = c*x^m, so the gcd is x^min(m, v(p))
        a = p.prim
        v = 0
        while v < m and not a[v]:
            v += 1
        if v:
            return _new(a[v:], p.cnum, p.cden), _new(b[v:], q.cnum, q.cden)
        return p, q
    g = Poly.gcd(p, q)
    if len(g.prim) > 1:
        return p // g, q // g
    return p, q


def _over_monic(p: Poly, q: Poly):
    """p/q with q made monic by ints alone: for q's leading coefficient
    cnum*prim[-1]/cden, p's content is multiplied by cden/(cnum*prim[-1])
    and reduced by one integer gcd; p is not zero."""
    lead = q.cnum * q.prim[-1]
    if lead == q.cden:  # q's leading coefficient is 1
        return p, q
    n, d = p.cnum * q.cden, p.cden * lead
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return _new(p.prim, n // g, d // g), q.monic()


class RationalFunction(Value):
    __slots__ = ("num", "den", "var")

    def __init__(self, num: Poly, den: Poly, var: str):
        if not (isinstance(num, Poly) and isinstance(den, Poly)):
            raise TypeError("expected two Polys, got %r and %r" % (num, den))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            num, den = _over_monic(*_cancelled(num, den))
        self.num = num
        self.den = den
        self.var = var

    @classmethod
    def _canonical(cls, num: Poly, den: Poly, var: str) -> "RationalFunction":
        """The trusted constructor: num/den already meets the three
        invariants, so nothing is checked or reduced."""
        r = object.__new__(cls)
        r.num = num
        r.den = den
        r.var = var
        return r

    # structure

    def is_zero(self) -> bool:
        return not self.num.prim

    def __repr__(self) -> str:
        return "RationalFunction(%r, %r, %r)" % (self.num, self.den, self.var)

    def _refuse(self, other):
        """Raise for an operand that failed the inline type-and-variable test."""
        if not isinstance(other, RationalFunction):
            raise TypeError("expected a rational function, got %r" % (other,))
        raise MixedAlgebras(
            "cannot combine rational functions in %r and %r" % (self.var, other.var)
        )

    # arithmetic

    def _sum(self, other, sign: int = 1) -> "RationalFunction":
        """self + sign*other, sign 1 or -1: `+` itself, and `-` with sign
        -1.  The sign goes to the content of other's numerator where it
        enters a Poly sum, so a difference builds no negated copy."""
        if not (isinstance(other, RationalFunction) and other.var == self.var):
            self._refuse(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not c.prim:
            return self
        if not a.prim:
            if sign > 0:
                return other
            return RationalFunction._canonical(_new(c.prim, -c.cnum, c.cden), d, self.var)
        cn = c.cnum if sign > 0 else -c.cnum
        if b.prim == d.prim:  # both monic, so b == d
            if a.prim == c.prim and a.cden == c.cden and a.cnum == -cn:
                # a + sign*c is zero exactly when the canonical forms match
                return RationalFunction._canonical(Poly.zero(), Poly.one(), self.var)
            num = _combine(a, cn, c)
            if len(b.prim) == 1:  # both are 1
                return RationalFunction._canonical(num, b, self.var)
            num, b = _cancelled(num, b)
            return RationalFunction._canonical(num, b, self.var)
        m, n = len(b.prim) - 1, len(d.prim) - 1
        if b.prim.count(0) == m and d.prim.count(0) == n:
            # a/x^m + c/x^n with m < n is (a*x^(n-m) + c)/x^n, canonical
            # since c(0) != 0; with m > n the shift goes to c instead
            if m < n:
                num = _combine(_new((0,) * (n - m) + a.prim, a.cnum, a.cden), cn, c)
            else:
                num = _combine(a, cn, _new((0,) * (m - n) + c.prim, c.cnum, c.cden))
                d = b
            return RationalFunction._canonical(num, d, self.var)
        g = Poly.gcd(b, d)
        if len(g.prim) == 1:
            num = a * d + c * b if sign > 0 else a * d - c * b
            return RationalFunction._canonical(num, b * d, self.var)
        # b != d, so the sum is not zero: a sum that cancels has b == d
        b_g, d_g = b // g, d // g
        num = a * d_g + c * b_g if sign > 0 else a * d_g - c * b_g
        g = Poly.gcd(num, g)
        if len(g.prim) > 1:
            num, d = num // g, d // g
        return RationalFunction._canonical(num, b_g * d, self.var)

    __add__ = _sum

    def __sub__(self, other) -> "RationalFunction":
        return self._sum(other, -1)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._canonical(-self.num, self.den, self.var)

    def __mul__(self, other) -> "RationalFunction":
        if not (isinstance(other, RationalFunction) and other.var == self.var):
            self._refuse(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.prim:
            return self
        if not c.prim:
            return other
        if len(d.prim) > 1:
            a, d = _cancelled(a, d)
        if len(b.prim) > 1:
            c, b = _cancelled(c, b)
            d = b * d
        return RationalFunction._canonical(a * c, d, self.var)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise NotAUnit("zero has no inverse")
        return RationalFunction._canonical(*_over_monic(self.den, self.num), self.var)

    # the two endomorphism building blocks used by the built-in algebras

    def derivative(self) -> "RationalFunction":
        if len(self.den.prim) == 1:  # a polynomial: num'/1 is canonical
            return RationalFunction._canonical(
                self.num.derivative(), self.den, self.var
            )
        a, b = self.num, self.den
        b_g, db_g = _cancelled(b, b.derivative())
        return RationalFunction._canonical(
            a.derivative() * b_g - a * db_g, b * b_g, self.var
        )

    def shifted(self) -> "RationalFunction":
        """Substitute (variable + 1) for the variable."""
        return RationalFunction._canonical(
            self.num.shifted(), self.den.shifted(), self.var
        )

    # display

    def _signed(self, sign: int = 0):
        """(sign, the text of sign*self, whether that text is a sum,
        whether it is a quotient), each fact computed once off the fields;
        sign 0 takes the sign of the numerator's content, so that the text
        is the magnitude."""
        num, den, var = self.num.prim, self.den.prim, self.var
        if not sign:
            sign = -1 if self.num.cnum < 0 else 1
        u, v = sign * self.num.cnum * self.den.cden, self.num.cden
        g = gcd(u, v)
        u, v = u // g, v // g
        text = int_poly([(e, u * num[e]) for e in range(len(num) - 1, -1, -1)], var)
        a_sum = len(num) - num.count(0) > 1
        if v == 1 and len(den) == 1:
            return sign, text, a_sum, False
        if a_sum:
            text = "(%s)" % text
        dtext = int_poly([(e, v * den[e]) for e in range(len(den) - 1, -1, -1)], var)
        if len(den) > 1 and (v != 1 or den.count(0) < len(den) - 1):
            dtext = "(%s)" % dtext
        return sign, "%s/%s" % (text, dtext), False, True

    def _text(self, sign: int = 1) -> str:
        """The text of sign*self, sign 1 or -1; str is sign 1."""
        return self._signed(sign)[1]

    __str__ = _text
