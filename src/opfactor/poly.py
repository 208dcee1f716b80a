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
as Fractions; `coeffs` is derived on demand.  A Poly has no text of its
own: a rational function prints its integer form (see the ratfunc module).

Arithmetic runs on the integer tuples (Knuth, TAOCP vol. 2, 4.6.1):
  * Gauss's lemma: a product of primitive polynomials is primitive, and
    a product of positive leads is positive.  A product therefore
    multiplies the tuples over Z with no coefficient gcd and reduces the
    content with one integer gcd.  Negation, scaling and `monic` change
    the content alone.
  * A sum puts both contents over one denominator, adds the integer
    tuples and takes the content of the result out with one gcd.  A
    difference is the same sum with the subtrahend's content negated
    (`_combine` takes that content apart from its tuple), so it builds no
    negated copy.
  * Division is pseudo-division over Z, done lazily.  A step's quotient
    c/lc(b) is kept as an int; only when it is not integral are the
    running remainder and quotient multiplied by lc(b)/gcd(c, lc(b)),
    and that factor goes to the contents of the results.  When b divides
    a, Gauss's lemma makes the quotient of their primitive parts
    integral, so an exact division never rescales.
  * `//` by c * x^m, when the m low coefficients of the dividend are
    zero, divides nothing: the quotient's primitive part is the dividend's
    tuple from index m on (still primitive, with the same lead) and its
    content is the quotient of the two contents.  Any other `//` is the
    quotient of `divmod`.  A gcd with a power of x is a power of x
    (step 2 below), so rational functions whose denominators are powers
    of x divide only this way.
  * The gcd is returned monic and is found by the first of four steps
    that applies, each exact:
      1. a constant argument gives 1, a zero one the other's monic form,
         and equal arguments their own;
      2. when one primitive part is x^m, the gcd is x^min(m, v), with v
         the index of the other's first nonzero coefficient, since x is
         irreducible;
      3. GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989;
         Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
         ch. 7): evaluate both at xi = 2^t, the least power of two
         >= 2 * min(|a|, |b|) + 29 in the max norm, by `_packed`, and
         take h = igcd(a(xi), b(xi)).  A root of a common factor is a
         root of both, so its modulus is below 1 + min(|a|, |b|) <=
         xi / 2; a nonconstant common factor, whose value at xi divides
         h, therefore exceeds xi / 2 there, and 2h <= xi proves the pair
         coprime.  Otherwise the primitive part of h's symmetric base-xi
         digits, read by `_unpacked` (each of modulus at most xi / 2),
         is the gcd exactly when it divides both, which pseudo-division
         checks.  Both arguments need only xi >= 2 * min(|a|, |b|) + 2;
      4. when that check fails, the primitive PRS: Euclid on
         pseudo-remainders, each cut to its primitive part.
  * `_packed(cs, s)` is the integer cs(2^s) of integer coefficients, by
    Horner's rule with shifts, and `_unpacked(v, s)` reads back its
    symmetric base-2^s digits, each of modulus at most 2^(s-1).  When
    every coefficient of cs is below 2^(s-1) in modulus the digits are cs
    exactly, so a product or a dot product of polynomials can run as one
    product of packed integers (Kronecker substitution; Harvey, J.
    Symbolic Comput. 44, 2009).  The Q(v) solves of the ncmatrix module
    run this way, and GCDHEU (step 3 above) evaluates and reads its
    digits through the same pair at s = t.
  * The Taylor shift x -> x + 1 is an automorphism of Z[x], so it keeps
    the tuple primitive and the content as it is.  A derivative scales
    the tuple and takes the content out again.

Values are immutable.  Rationals become a Poly only through the public
constructor or `Poly.constant`; arithmetic takes Poly operands alone.
Arithmetic builds its results through `_reduced`, which takes the
content out of an integer list, or `_new`, which trusts its fields.
`Poly.zero()` and `Poly.one()` are shared instances.  Arithmetic builds
no zero of its own: a zero result is the shared zero or a zero operand.
Likewise a product with a factor equal to 1 returns the other factor as
it is, with no arithmetic: in rational-function sums and products a
cofactor, a numerator or a denominator is often 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .base import Value

Scalar = Union[int, Fraction]


class Poly(Value):
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

    def __repr__(self) -> str:
        return "Poly(%r)" % (self.coeffs,)

    def __bool__(self) -> bool:
        return bool(self.prim)

    # arithmetic

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not other.prim:
            return self
        if not self.prim:
            return other
        return _combine(self, other.cnum, other)

    def __neg__(self) -> "Poly":
        if not self.prim:
            return self
        return _new(self.prim, -self.cnum, self.cden)

    def __sub__(self, other) -> "Poly":
        """self + (-other) with other's content negated in place of a
        negated copy."""
        if not isinstance(other, Poly):
            return NotImplemented
        if not other.prim:
            return self
        if not self.prim:
            return _new(other.prim, -other.cnum, other.cden)
        return _combine(self, -other.cnum, other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.prim, other.prim
        if not a or not b:
            return _ZERO
        if len(a) == 1 and self.cnum == self.cden:  # self is 1
            return other
        if len(b) == 1 and other.cnum == other.cden:  # other is 1
            return self
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

    def __divmod__(self, other: "Poly"):
        """Exact euclidean division; the divisor must be nonzero."""
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.prim, other.prim
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(a) < len(b):
            return _ZERO, self
        n, d = self.cnum * other.cden, self.cden * other.cnum
        if d < 0:
            n, d = -n, -d
        # scale * a == quot * b + rem over Z, so
        # self == (n / (d * scale)) * quot * other + (cnum / (cden * scale)) * rem
        quot, rem, scale = _pseudo_divide(a, b)
        return (
            _reduced(quot, n, d * scale),
            _reduced(rem, self.cnum, self.cden * scale),
        )

    def __floordiv__(self, other):
        """The quotient of `divmod`; by c * x^m with x^m dividing self, a
        slice of the tuple with no division (see the module docstring)."""
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.prim, other.prim
        m = len(b) - 1
        if b.count(0) == m and not any(a[:m]):  # x^m divides self
            if not a:
                return _ZERO
            n, d = self.cnum * other.cden, self.cden * other.cnum
            if d < 0:
                n, d = -n, -d
            g = gcd(n, d)
            if g != 1:
                n, d = n // g, d // g
            return _new(a[m:], n, d)
        return divmod(self, other)[0]

    # algebraic helpers

    def monic(self) -> "Poly":
        a = self.prim
        if not a or (self.cnum == self.cden == a[-1] == 1):
            return self
        return _new(a, 1, a[-1])

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic greatest common divisor; gcd(0, 0) is 0.  The shortcuts,
        a power of x, GCDHEU and the primitive PRS are tried in that
        order; the module docstring says why each is exact."""
        a, b = a.prim, b.prim
        if len(a) == 1 or len(b) == 1:
            return _ONE
        if len(a) < len(b):
            a, b = b, a
        if not b or a == b:
            return _new(a, 1, a[-1]) if a else _ZERO
        for p, q in ((a, b), (b, a)):
            if p.count(0) == len(p) - 1:  # p is x^m
                v = 0
                while not q[v]:
                    v += 1
                k = min(len(p) - 1, v)
                return _new((0,) * k + (1,), 1, 1) if k else _ONE
        g = _heuristic_gcd(a, b)
        return g if g is not None else _prs_gcd(a, b)

    def derivative(self) -> "Poly":
        a = self.prim
        if len(a) < 2:
            return _ZERO
        return _reduced([i * c for i, c in enumerate(a) if i], self.cnum, self.cden)

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
    """Lazy pseudo-division of integer tuples with len(a) >= len(b) >= 1
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


def _packed(cs, s: int) -> int:
    """The integer cs(2^s) for integer coefficients cs, low degree first,
    by Horner's rule with shifts."""
    v = 0
    for c in reversed(cs):
        v = (v << s) + c
    return v


def _unpacked(v: int, s: int) -> list:
    """The symmetric base-2^s digits of v for s >= 2, low first, each of
    modulus at most 2^(s-1), with no trailing zero: _packed of them is v,
    and they are the one such list with every |c| < 2^(s-1) when that list
    exists.  Each step takes |v| down, so the loop ends."""
    mask, half, base = (1 << s) - 1, 1 << (s - 1), 1 << s
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= base
        out.append(d)
        v = (v - d) >> s
    return out


def _heuristic_gcd(a: tuple, b: tuple):
    """GCDHEU, step 3 of the gcd, on primitive tuples with len(a) >=
    len(b) >= 2: the monic gcd, or None when the reconstructed candidate
    does not divide both."""
    # xi = 2^t, the least power of two >= 2 * min(|a|, |b|) + 29
    t = (2 * min(max(map(abs, a)), max(map(abs, b))) + 28).bit_length()
    h = gcd(_packed(a, t), _packed(b, t))
    if h <= 1 << (t - 1):
        return _ONE
    g = _reduced(_unpacked(h, t), 1, 1).prim
    if (
        len(g) <= len(b)
        and not any(_pseudo_divide(a, g)[1])
        and (g == b or not any(_pseudo_divide(b, g)[1]))
    ):
        return _new(g, 1, g[-1])
    return None


def _prs_gcd(a: tuple, b: tuple) -> Poly:
    """The monic gcd of primitive tuples with len(a) >= len(b) >= 2 by the
    primitive PRS: Euclid on pseudo-remainders, each cut to its primitive
    part.  A constant remainder ends the search at once."""
    while True:
        rem = _reduced(_pseudo_divide(a, b)[1], 1, 1).prim
        if len(rem) < 2:
            return _ONE if rem else _new(b, 1, b[-1])
        a, b = b, rem


_ZERO = _new((), 0, 1)
_ONE = _new((1,), 1, 1)
