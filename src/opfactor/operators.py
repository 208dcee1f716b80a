"""Operators over a coefficient algebra: sums of  a_i . endo^i .

An operator is stored in normal form as a dense tuple of coefficients,
lowest power first, with multiplication ALWAYS on the left of the power.
Trailing zero coefficients are stripped, so the zero operator is the empty
tuple; its degree is minus infinity so that degree arithmetic stays
truthful under composition.

Composition is where the twist earns its keep.  To normalize L1 . L2 the
right factor is pushed through the endomorphism one power at a time:

    endo . b  =  p_b . endo + q_b

so endo^i . L2 advances to endo^(i+1) . L2 by sending each c . endo^t to
p_c . endo^(t+1) + q_c . endo^t, and L1 . L2 = sum a_i . (endo^i . L2).
With n and m coefficients that is (n-1)m + (n-1)(n-2)/2 twists; a degree
zero left factor needs none.  A caller that keeps the shifted copies
[L2, endo . L2, ...] hands the list to compose, which grows it in place to
the length it needs: right division's certificate runs the same sum over
the shifted divisors it built, and the parser raises an operator to a
power as L^(m+1) = L^m . L with one list of the base's shifts (powers of
one operator commute), so only the base is twisted, deg(L) times per
power.
Each operation skips the zero coefficients it would multiply by or add,
which changes no result.  An accumulator slot takes its first term as it
is, rather than adding it to the algebra's zero, and both `scale_left`
and `compose` take a itself for a product a*c where the coefficient c is
the algebra's one.  A difference merges slot by slot, subtracting the
right operand's nonzero coefficients (from the algebra's zero where only
it has the slot), so it builds no negated copy of either operand.

Equality is equality of normal forms, except that an algebra declaring
endo_order = n first folds every exponent e >= n down to e mod n.  That is
the only representation quotient in play; no other identification between
powers is assumed.

Operator is a value class in the package's one slotted idiom (see the base
module), immutable by convention; it prints by `str` alone, as the sum of
a_i*D^i from the top power down, each coefficient written as its sign and
magnitude from its `_signed()`.  A coefficient of D^i, i > 0, is grouped
when it is a sum or a quotient; the constant term when it is a negative
sum, or when its magnitude starts with `-` after other terms.  One slot,
`_texts`, is a cache rather than a part of the value: None until the first
`parsing.operator_to_json` of the object renders the text of each
coefficient and keeps the tuple there, which every later call reads.
Since the coefficients never change, the texts never go stale; equality
and hashing read the coefficients alone and ignore the slot.  So an
operator that many requests share, such as a memoized kernel operator K,
is printed once.
"""

from __future__ import annotations

from typing import Tuple

from .base import Algebra
from .errors import MixedAlgebras
from .formatting import join_terms, term


class Operator:
    __slots__ = ("algebra", "coeffs", "_texts")

    def __init__(self, algebra: Algebra, coeffs=()):
        coeffs = tuple(coeffs)
        for c in coeffs:
            algebra.check(c)
        self.algebra = algebra
        self.coeffs = Operator._trusted(algebra, coeffs).coeffs
        self._texts = None

    @classmethod
    def _trusted(cls, algebra: Algebra, coeffs) -> "Operator":
        """The trusted constructor: every coefficient is already an
        element of algebra, so only trailing zeros are stripped."""
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        op = object.__new__(cls)
        op.algebra = algebra
        op.coeffs = tuple(cs)
        op._texts = None
        return op

    # constructors

    @classmethod
    def zero(cls, algebra: Algebra) -> "Operator":
        return cls(algebra, ())

    @classmethod
    def identity(cls, algebra: Algebra) -> "Operator":
        return cls(algebra, (algebra.one(),))

    @classmethod
    def scalar(cls, algebra: Algebra, e) -> "Operator":
        return cls(algebra, (e,))

    @classmethod
    def d(cls, algebra: Algebra, power: int = 1) -> "Operator":
        """The bare operator endo^power."""
        if power < 0:
            raise ValueError("negative power")
        return cls._trusted(algebra, (algebra.zero(),) * power + (algebra.one(),))

    # structure

    @property
    def degree(self):
        """Representation degree; minus infinity for the zero operator."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.algebra.zero()

    def _same_algebra(self, other: "Operator") -> Algebra:
        if self.algebra != other.algebra:
            raise MixedAlgebras(
                "operators over %r and %r cannot be combined"
                % (self.algebra.describe(), other.algebra.describe())
            )
        return self.algebra

    def _reduced_coeffs(self) -> Tuple:
        """Coefficients after the declared exponent folding, if any."""
        n = self.algebra.endo_order
        if n is None or len(self.coeffs) <= n:
            return self.coeffs
        acc = list(self.coeffs[:n])
        for e in range(n, len(self.coeffs)):
            c = self.coeffs[e]
            if not c.is_zero():
                t = e % n
                acc[t] = c if acc[t].is_zero() else acc[t] + c
        return Operator._trusted(self.algebra, acc).coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_algebra(other)
        return self._reduced_coeffs() == other._reduced_coeffs()

    def __hash__(self) -> int:
        return hash((self.algebra, self._reduced_coeffs()))

    # arithmetic

    def __add__(self, other) -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        alg = self._same_algebra(other)
        long, short = sorted((self.coeffs, other.coeffs), key=len, reverse=True)
        zero = alg.zero()
        out = list(long)
        for i, c in enumerate(short):
            if not c.is_zero():
                out[i] = c if out[i] is zero else out[i] + c
        return Operator._trusted(alg, out)

    def __neg__(self) -> "Operator":
        return Operator._trusted(self.algebra, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Operator":
        """self - other, merged slot by slot with no negated copy of other:
        a slot only other has is the algebra's zero minus its coefficient."""
        if not isinstance(other, Operator):
            return NotImplemented
        alg = self._same_algebra(other)
        out = list(self.coeffs)
        if len(out) < len(other.coeffs):
            out += [alg.zero()] * (len(other.coeffs) - len(out))
        for i, c in enumerate(other.coeffs):
            if not c.is_zero():
                out[i] = out[i] - c
        return Operator._trusted(alg, out)

    def scale_left(self, a) -> "Operator":
        """Left multiplication by a ring element: a . L."""
        self.algebra.check(a)
        one = self.algebra.one()
        cs = tuple(c if c.is_zero() else a if c is one else a * c for c in self.coeffs)
        return Operator._trusted(self.algebra, cs)

    def _advanced(self) -> "Operator":
        """endo . self: each c . endo^t becomes p_c . endo^(t+1) + q_c . endo^t."""
        alg = self.algebra
        zero = alg.zero()
        out = [zero] * (len(self.coeffs) + 1)
        for t, c in enumerate(self.coeffs):
            if not c.is_zero():
                # no earlier c writes slot t + 1
                tw = alg.twist(c)
                out[t + 1] = tw.p
                if not tw.q.is_zero():
                    out[t] = tw.q if out[t] is zero else out[t] + tw.q
        return Operator._trusted(alg, out)

    def compose(self, other: "Operator", *, shifted=None) -> "Operator":
        """Normal form of self . other (apply other first): the sum of
        a_i . (endo^i . other), advancing other once per power of self.
        A caller that holds shifted = [other, endo . other, ...] passes it
        to skip the advances it already made; the list is grown in place
        to one entry per coefficient of self, so the caller keeps them."""
        alg = self._same_algebra(other)
        shifted = _grown([other] if shifted is None else shifted, len(self.coeffs))
        zero, one = alg.zero(), alg.one()
        acc = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, s in zip(self.coeffs, shifted):
            if not a.is_zero():
                for t, c in enumerate(s.coeffs):
                    if not c.is_zero():
                        x = c if a is one else a if c is one else a * c
                        acc[t] = x if acc[t] is zero else acc[t] + x
        return Operator._trusted(alg, acc)

    def __mul__(self, other) -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        return self.compose(other)

    def apply(self, f):
        """Evaluate the operator on a ring element."""
        alg = self.algebra
        alg.check(f)
        zero = alg.zero()
        acc = zero
        cur = f
        for i, a in enumerate(self.coeffs):
            if i:
                cur = alg.endo(cur)
            if not a.is_zero():
                x = a * cur
                acc = x if acc is zero else acc + x
        return acc

    # display

    def __str__(self) -> str:
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c.is_zero():
                continue
            sign, text, a_sum, quotient = c._signed()
            if d:
                wrap = a_sum or quotient
            else:
                wrap = (sign < 0 and a_sum) or (terms and text.startswith("-"))
            terms.append((sign, term("(%s)" % text if wrap else text, "D", d)))
        return join_terms(terms)

    def __repr__(self) -> str:
        return "Operator(%s: %s)" % (self.algebra.describe(), str(self))


def _grown(shifted: list, n: int) -> list:
    """shifted = [op, endo . op, ...], extended in place to at least n
    entries by one twist advance each."""
    while len(shifted) < n:
        shifted.append(shifted[-1]._advanced())
    return shifted
