"""Dense univariate polynomials with exact rational coefficients, stored
as a rational content times a primitive integer polynomial.

A Poly has three fields:
  * `prim`, a tuple of ints, low degree first: a primitive polynomial of
    Z[x] (its coefficients have gcd 1) with a positive leading
    coefficient;
  * `cnum` and `cden`, ints: the content cnum/cden in lowest terms, with
    cden > 0.
The value is (cnum/cden) * prim.  Zero is the empty tuple with content
0/1 and has degree -1.  A nonzero rational polynomial has exactly one
such form: the primitive part is fixed up to sign, and the sign goes to
the content.  So the representation is canonical and equality is field
equality.  `coeffs`, `leading` and `coeff` give the rational coefficients
as Fractions; `coeffs` is derived on demand.  `evaluate` gives the value at
a rational point as a Fraction, and `fmt(var)` the text in variable `var`.

Arithmetic runs on the integer tuples (Knuth, TAOCP vol. 2, 4.6.1):
  * Gauss's lemma: a product of primitive polynomials is primitive, and
    a product of positive leads is positive.  A product therefore
    multiplies the tuples over Z with no coefficient gcd and reduces the
    content with one integer gcd.  Negation, scaling and `monic` change
    the content alone.
  * A sum puts both contents over one denominator, adds the integer
    tuples and takes the content of the result out with one gcd.
  * Division is pseudo-division over Z, done lazily.  A step's quotient
    c/lc(b) is kept as an int; only when it is not integral are the
    running remainder and quotient multiplied by lc(b)/gcd(c, lc(b)),
    and that factor goes to the contents of the results.  When b divides
    a, Gauss's lemma makes the quotient of their primitive parts
    integral, so an exact division never rescales.
  * The gcd is the primitive PRS: Euclid on pseudo-remainders, each cut
    to its primitive part.  The result is returned monic.
  * The Taylor shift x -> x + 1 is an automorphism of Z[x], so it keeps
    the tuple primitive and the content as it is.  A derivative scales
    the tuple and takes the content out again.

Values are immutable.  The public constructor takes any rationals.
Arithmetic builds its results through `_reduced`, which takes the
content out of an integer list, or `_new`, which trusts its fields.
`Poly.zero()` and `Poly.one()` are shared instances.  Arithmetic builds
no zero of its own: a zero result is the shared zero or a zero operand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .formatting import int_text, join_terms

Scalar = Union[int, Fraction]


class Poly:
    """A univariate polynomial over the rationals."""

    __slots__ = ("prim", "cnum", "cden")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _reduced([c.numerator * (den // c.denominator) for c in cs], 1, den)
        self.prim, self.cnum, self.cden = p.prim, p.cnum, p.cden

    # constructors

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _new((1,), c.numerator, c.denominator) if c else _ZERO

    @classmethod
    def variable(cls) -> "Poly":
        return _new((0, 1), 1, 1)

    # structure

    @property
    def coeffs(self) -> tuple:
        n, d = self.cnum, self.cden
        return tuple(Fraction(n * c, d) for c in self.prim)

    @property
    def degree(self) -> int:
        return len(self.prim) - 1

    def is_zero(self) -> bool:
        return not self.prim

    @property
    def leading(self) -> Fraction:
        return self.coeff(len(self.prim) - 1)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.prim):
            return Fraction(self.cnum * self.prim[i], self.cden)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.cnum == other.cnum
            and self.cden == other.cden
            and self.prim == other.prim
        )

    def __hash__(self) -> int:
        return hash(("Poly", self.prim, self.cnum, self.cden))

    def __repr__(self) -> str:
        return "Poly(%r)" % (self.coeffs,)

    def __bool__(self) -> bool:
        return bool(self.prim)

    # arithmetic

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.prim:
            return self
        if not self.prim:
            return other
        return _combine(self, other.cnum, other)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        if not self.prim:
            return self
        return _new(self.prim, -self.cnum, self.cden)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.prim, other.prim
        if not a or not b:
            return _ZERO
        n, d = self.cnum * other.cnum, self.cden * other.cden
        if d != 1:
            g = gcd(n, d)
            if g != 1:
                n, d = n // g, d // g
        if len(b) == 1:
            return _new(a, n, d)
        if len(a) == 1:
            return _new(b, n, d)
        # primitive times primitive is primitive (Gauss's lemma)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _new(tuple(out), n, d)

    __rmul__ = __mul__

    def _scaled(self, c: Scalar) -> "Poly":
        """self * c for a nonzero int or Fraction c."""
        if not self.prim or c == 1:
            return self
        return _reduced(list(self.prim), self.cnum * c.numerator, self.cden * c.denominator)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly"):
        """Exact euclidean division; the divisor must be nonzero."""
        if not isinstance(other, Poly):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.prim, other.prim
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(a) < len(b):
            return _ZERO, self
        n, d = self.cnum * other.cden, self.cden * other.cnum
        if d < 0:
            n, d = -n, -d
        if len(b) == 1:
            return _reduced(list(a), n, d), _ZERO
        # scale * a == quot * b + rem over Z, so
        # self == (n / (d * scale)) * quot * other + (cnum / (cden * scale)) * rem
        quot, rem, scale = _pseudo_divide(a, b)
        return (
            _reduced(quot, n, d * scale),
            _reduced(rem, self.cnum, self.cden * scale),
        )

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # algebraic helpers

    def monic(self) -> "Poly":
        a = self.prim
        if not a or (self.cnum == self.cden == a[-1] == 1):
            return self
        return _new(a, 1, a[-1])

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic greatest common divisor; gcd(0, 0) is 0.  A nonzero
        constant, given or met as a remainder, ends the search at once."""
        a, b = a.prim, b.prim
        if len(a) == 1 or len(b) == 1:
            return _ONE
        if len(a) < len(b):
            a, b = b, a
        if not b or a == b:
            return _new(a, 1, a[-1]) if a else _ZERO
        while True:
            rem = _reduced(_pseudo_divide(a, b)[1], 1, 1).prim
            if len(rem) < 2:
                return _ONE if rem else _new(b, 1, b[-1])
            a, b = b, rem

    def derivative(self) -> "Poly":
        a = self.prim
        if len(a) < 2:
            return _ZERO
        return _reduced([i * c for i, c in enumerate(a) if i], self.cnum, self.cden)

    def compose(self, other: "Poly") -> "Poly":
        """Substitute `other` for the variable (Horner evaluation)."""
        out = _ZERO
        for c in reversed(self.coeffs):
            out = out * other + Poly.constant(c)
        return out

    def shifted(self) -> "Poly":
        """The polynomial with its variable replaced by (variable + 1),
        by the Taylor shift: repeated synthetic division by (x - 1), which
        needs additions only."""
        out = list(self.prim)
        top = len(out) - 1
        if top < 1:
            return self
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                out[j] += out[j + 1]
        return _new(tuple(out), self.cnum, self.cden)

    def evaluate(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.prim):
            acc = acc * x + c
        return acc * Fraction(self.cnum, self.cden)

    # display

    def fmt(self, var: str) -> str:
        n, d = self.cnum, self.cden
        terms = []
        for e in range(len(self.prim) - 1, -1, -1):
            c = n * self.prim[e]
            if not c:
                continue
            g = gcd(c, d)
            num, den = abs(c) // g, d // g
            mag = int_text(num) + ("" if den == 1 else "/" + int_text(den))
            if e == 0:
                body = mag
            else:
                vpart = var if e == 1 else "%s^%d" % (var, e)
                body = vpart if num == den == 1 else "%s*%s" % (mag, vpart)
            terms.append((-1 if c < 0 else 1, body))
        return join_terms(terms)


def _new(prim: tuple, n: int, d: int) -> Poly:
    """The trusted constructor: the fields already meet the invariants."""
    p = object.__new__(Poly)
    p.prim = prim
    p.cnum = n
    p.cden = d
    return p


def _reduced(cs: list, n: int, d: int) -> Poly:
    """(n/d) * cs for an integer list `cs`, which is consumed, and d > 0:
    trailing zeros are stripped and the content is taken out."""
    while cs and not cs[-1]:
        cs.pop()
    if not cs or not n:
        return _ZERO
    g = gcd(*cs)
    if cs[-1] < 0:
        g = -g
    if g != 1:
        cs = [c // g for c in cs]
        n *= g
    if d != 1:
        h = gcd(n, d)
        if h != 1:
            n, d = n // h, d // h
    return _new(tuple(cs), n, d)


def _combine(p: Poly, qn: int, q: Poly) -> Poly:
    """p + (qn/q.cden) * q.prim for nonzero p and q: both contents over
    one denominator, one integer tuple sum, one content gcd."""
    a, an, ad = p.prim, p.cnum, p.cden
    b, bd = q.prim, q.cden
    if ad != bd:
        g = gcd(ad, bd)
        an *= bd // g
        qn *= ad // g
        ad = ad // g * bd
    h = gcd(an, qn)
    if h != 1:
        an, qn = an // h, qn // h
    if len(a) < len(b):
        a, an, b, qn = b, qn, a, an
    out = [an * x for x in a] if an != 1 else list(a)
    for i, y in enumerate(b):
        out[i] += qn * y
    return _reduced(out, h, ad)


def _pseudo_divide(a: tuple, b: tuple):
    """Lazy pseudo-division of integer tuples with len(a) >= len(b) >= 2
    and b[-1] > 0: (quot, rem, scale) with scale * a == quot * b + rem
    and len(rem) == len(b) - 1.  `scale` grows only at the steps whose
    quotient is not integral, by lc(b) / gcd(c, lc(b))."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    below = b[:-1]
    quot = [0] * (len(a) - db)
    scale = 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        q, r = (c, 0) if lead == 1 else divmod(c, lead)
        if r:
            g = gcd(c, lead)
            m = lead // g
            q = c // g
            scale *= m
            # rem[i] itself cancels exactly and is cut off below
            for j in range(i):
                rem[j] *= m
            for j in range(i - db + 1, len(quot)):
                quot[j] *= m
        quot[i - db] = q
        for j, y in enumerate(below, i - db):
            if y:
                rem[j] -= q * y
    del rem[db:]
    return quot, rem, scale


def _coerce(other):
    if isinstance(other, (int, Fraction)):
        return Poly.constant(other)
    return NotImplemented


_ZERO = _new((), 0, 1)
_ONE = _new((1,), 1, 1)


def integer_cleared(num: Poly, den: Poly):
    """Rescale num/den by one positive rational so both have integer
    coefficients with no common integer content.  The value of the quotient
    is unchanged; this exists purely for display.  With both primitive
    parts fixed, the contents become the integers u, v with
    u/v == content(num)/content(den) and gcd(u, v) == 1."""
    u, v = num.cnum * den.cden, den.cnum * num.cden
    g = gcd(u, v)
    return _new(num.prim, u // g, 1), _new(den.prim, v // g, 1)
