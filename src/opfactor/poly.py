"""Dense univariate polynomials with exact rational coefficients.

Coefficients are fractions.Fraction values stored low degree first with
trailing zeros stripped, so the representation is canonical and equality is
plain tuple equality.  The zero polynomial is the empty tuple and has
degree -1.

Values are immutable.  The public constructor coerces every coefficient to
a Fraction; arithmetic between polynomials already holds Fractions, so it
builds its results through `_from_fractions`, which only strips trailing
zeros.  `Poly.zero()` and `Poly.one()` are shared instances.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Union

from .formatting import Fmt, join_terms

Scalar = Union[int, Fraction]


def _as_fraction(c: Scalar) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class Poly:
    """A univariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # constructors

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    # structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __repr__(self) -> str:
        return "Poly(%r)" % (self.coeffs,)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # arithmetic

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _from_fractions(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _from_fractions([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) >= len(b):
            out = list(a)
            for i, c in enumerate(b):
                out[i] -= c
        else:
            out = [-c for c in b]
            for i, c in enumerate(a):
                out[i] += c
        return _from_fractions(out)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(b) == 1:
            return self._scaled(b[0])
        if len(a) == 1:
            return other._scaled(a[0])
        out = [_FRACTION_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        out[j] += x * y
        return _from_fractions(out)

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "Poly":
        """self * c for a nonzero Fraction c."""
        if c == 1:
            return self
        return _from_fractions([x * c for x in self.coeffs])

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

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return NotImplemented

    def __divmod__(self, other: "Poly"):
        """Exact euclidean division; the divisor must be nonzero."""
        if not isinstance(other, Poly):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dq = other.degree
        if self.degree < dq:
            return _ZERO, self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        below = other.coeffs[:-1]
        quot = [_FRACTION_ZERO] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c if lead == 1 else c / lead
            quot[i - dq] = q
            # rem[i] itself cancels exactly and is cut off below
            for j, b in enumerate(below, i - dq):
                if b:
                    rem[j] -= q * b
        del rem[dq:]
        return _from_fractions(quot), _from_fractions(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # algebraic helpers

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return _from_fractions([c / lead for c in self.coeffs])

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic greatest common divisor; gcd(0, 0) is 0.  A nonzero
        constant, given or met as a remainder, ends the search at once."""
        if len(a.coeffs) == 1 or len(b.coeffs) == 1:
            return _ONE
        while b.coeffs:
            a, b = b, a % b
            if len(b.coeffs) == 1:
                return _ONE
        return a.monic()

    def derivative(self) -> "Poly":
        return _from_fractions([c * i for i, c in enumerate(self.coeffs) if i])

    def compose(self, other: "Poly") -> "Poly":
        """Substitute `other` for the variable (Horner evaluation)."""
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * other + Poly((c,))
        return out

    def shifted(self) -> "Poly":
        """The polynomial with its variable replaced by (variable + 1),
        by the Taylor shift: repeated synthetic division by (x - 1), which
        needs additions only."""
        out = list(self.coeffs)
        top = len(out) - 1
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                out[j] += out[j + 1]
        return _from_fractions(out)

    def evaluate(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # display

    def fmt(self, var: str) -> Fmt:
        if self.is_zero():
            return Fmt("0")
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeff(d)
            if c == 0:
                continue
            sign = -1 if c < 0 else 1
            mag = -c if c < 0 else c
            frac = str(mag)
            if d == 0:
                body = frac
            else:
                vpart = var if d == 1 else "%s^%d" % (var, d)
                body = vpart if mag == 1 else "%s*%s" % (frac, vpart)
            terms.append((sign, body))
        text = join_terms(terms)
        only = self.coeffs[-1] if len(terms) == 1 else None
        return Fmt(
            text,
            is_sum=len(terms) > 1,
            is_quotient=(only is not None and only.denominator != 1),
            is_negative=terms[0][0] < 0,
        )


_FRACTION_ZERO = Fraction(0)


def _from_fractions(cs: list) -> Poly:
    """The trusted constructor: `cs` holds Fractions only and is consumed;
    nothing is coerced, trailing zeros are stripped."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(Poly)
    p.coeffs = tuple(cs)
    return p


_ZERO = Poly()
_ONE = Poly((1,))


def integer_cleared(num: Poly, den: Poly):
    """Rescale num/den by one positive rational so both have integer
    coefficients with no common integer content.  The value of the quotient
    is unchanged; this exists purely for display."""
    dens = [c.denominator for c in num.coeffs + den.coeffs]
    m = 1
    for d in dens:
        m = m * d // _int_gcd(m, d)
    ni = [c * m for c in num.coeffs]
    di = [c * m for c in den.coeffs]
    g = 0
    for c in ni + di:
        g = _int_gcd(g, int(c))
    if g > 1:
        ni = [c / g for c in ni]
        di = [c / g for c in di]
    return Poly(ni), Poly(di)
