"""The four built-in coefficient algebras.

selector  ring                     endomorphism
--------  -----------------------  -------------------------------------
qx        rational functions of x  d/dx
quat      quaternions over Q(x)    componentwise d/dx
diff      rational functions of n  g(n) -> g(n+1) + c*g(n), rational c
c5        group ring Z[C5]         the automorphism r -> r^2

The first three are division rings (every nonzero element inverts), the
group ring is not.  In the group ring the endomorphism has order 4, and
that order is declared so the operator layer can fold exponents.  Each
algebra declares its element class, its atoms and the one builder of its
elements from (unit, exponent, coefficient) terms, `_from_terms`: qx and
diff a numerator over a power of the variable, quat one such function
per unit, c5 its five integers.  The parser, from_fraction, symbols(),
zero and one all build through it (see the base module).  quat builds
its components with the builder and the zero of one shared qx instance.

Twist pairs, satisfying endo(f*g) = p*endo(g) + q*g:

  qx, quat:  p = f,          q = f'
  diff:      p = f(n+1),     q = c*f(n) - c*f(n+1)
  c5:        p = endo(f),    q = 0      (endo is multiplicative here)
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .base import Algebra, TwistPair
from .formatting import fraction_text
from .groupring import GroupRingC5Element
from .poly import Poly, _new, _reduced
from .quaternion import Quaternion
from .ratfunc import RationalFunction

_ONE_POLY = Poly.one()


class RationalFunctionAlgebra(Algebra):
    """Shared base of the algebras whose elements are rational functions
    in one variable; subclasses name the variable and the endomorphism.
    Equality stays by type, so qx and diff never mix."""

    element = RationalFunction
    commutative = True

    def _from_terms(self, terms):
        """The sum of c*v^e over (unit, e, c) terms of distinct exponents,
        as a numerator over v^m, m the size of the least exponent when it is
        negative.  The numerator's constant coefficient is then nonzero, so
        the two are coprime and the form is canonical as built."""
        if not terms:
            return RationalFunction._canonical(Poly.zero(), _ONE_POLY, self.variable)
        if len(terms) == 1:
            _, e, c = terms[0]
            m = -e if e < 0 else 0
            num = _new((0,) * (e + m) + (1,), c.numerator, c.denominator)
        else:
            low = min([e for _, e, _ in terms])
            m = -low if low < 0 else 0
            den = lcm(*[c.denominator for _, _, c in terms])
            cs = [0] * (max([e for _, e, _ in terms]) + m + 1)
            for _, e, c in terms:
                cs[e + m] = c.numerator * (den // c.denominator)
            num = _reduced(cs, 1, den)
        den = _new((0,) * m + (1,), 1, 1) if m else _ONE_POLY
        return RationalFunction._canonical(num, den, self.variable)


class _Derivation:
    """endo is the element's derivative, so the twist pair is (f, f')."""

    def endo(self, f):
        self.check(f)
        return f.derivative()

    def twist(self, f):
        return TwistPair(f, self.endo(f))


class DifferentialRationalAlgebra(_Derivation, RationalFunctionAlgebra):
    """Q(x) with differentiation."""

    name = "qx"
    variable = "x"
    atoms = {"x": (0, 0, 1, 1)}


_QX = DifferentialRationalAlgebra()


class QuaternionDifferentialAlgebra(_Derivation, Algebra):
    """Quaternions with rational function components, differentiated
    componentwise.  A noncommutative division ring."""

    name = "quat"
    element = Quaternion
    variable = "x"
    atoms = {"x": (0, 0, 1, 1), "i": (0, 1, 0, 1), "j": (0, 2, 0, 1), "k": (0, 3, 0, 1)}

    def _from_terms(self, terms):
        units = {}
        for t in terms:
            units.setdefault(t[0], []).append(t)
        return Quaternion._trusted(
            tuple([(u, _QX._from_terms(units[u])) for u in sorted(units)]),
            _QX.zero(),
        )


class DifferenceAlgebra(RationalFunctionAlgebra):
    """Q(n) with the shifted difference map g -> g(n+1) + c*g(n).

    c is a fixed rational constant chosen at construction (default 1).
    It is kept as a Fraction for the name and the JSON tag, and once as
    an element, `_c`, for the products in endo and twist.
    Instances with different c are different algebras: their operators do
    not mix even though the underlying elements look alike.
    """

    name = "diff"
    variable = "n"
    atoms = {"n": (0, 0, 1, 1)}

    def __init__(self, c: Fraction = Fraction(1)):
        self.c = Fraction(c)
        self._c = self.from_fraction(self.c)

    def _key(self):
        return (self.c,)

    def describe(self):
        return "%s(c=%s)" % (self.name, fraction_text(self.c))

    def endo(self, f):
        self.check(f)
        return f.shifted() + f * self._c

    def twist(self, f):
        self.check(f)
        p = f.shifted()
        return TwistPair(p, (f - p) * self._c)


class GroupRingC5Algebra(Algebra):
    """Z[C5] with the automorphism r -> r^2, which has order 4."""

    name = "c5"
    element = GroupRingC5Element
    endo_order = 4
    commutative = True
    atoms = {"r": (0, 0, 1, 1)}
    period = 5  # r has order 5

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator != 1:
            raise ValueError(
                "%s is not integral, the group ring contains only integers" % q
            )
        return super().from_fraction(q)

    def _from_terms(self, terms):
        cs = [0] * 5
        for _, e, c in terms:
            cs[e] = c
        return GroupRingC5Element._trusted(tuple(cs))

    def endo(self, f):
        self.check(f)
        return f.scale_exponents(2)

    def twist(self, f):
        return TwistPair(self.endo(f), self.zero())


# in this order argparse lists the choices, as {qx,quat,diff,c5}
_ALGEBRAS = {cls.name: cls for cls in (DifferentialRationalAlgebra, QuaternionDifferentialAlgebra,
                                       DifferenceAlgebra, GroupRingC5Algebra)}
SELECTORS = tuple(_ALGEBRAS)


def get_algebra(selector: str, c: Fraction = Fraction(1)) -> Algebra:
    """Build the algebra named by a CLI selector.  c only matters for
    the difference algebra."""
    # tuple membership compares by ==, so an unhashable selector read
    # from JSON is refused here too
    if selector not in SELECTORS:
        raise ValueError("unknown algebra selector %r" % (selector,))
    if selector == "diff":
        return DifferenceAlgebra(c)
    return _ALGEBRAS[selector]()
