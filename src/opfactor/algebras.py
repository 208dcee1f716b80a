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
algebra declares its element class and builds its own constants (zero,
one, from_fraction and the parser's symbols) from that class.

Twist pairs, satisfying endo(f*g) = p*endo(g) + q*g:

  qx, quat:  p = f,          q = f'
  diff:      p = f(n+1),     q = c*f(n) - c*f(n+1)
  c5:        p = endo(f),    q = 0      (endo is multiplicative here)
"""

from __future__ import annotations

from fractions import Fraction

from .base import Algebra, TwistPair
from .formatting import fraction_text
from .groupring import GroupRingC5Element
from .quaternion import Quaternion
from .ratfunc import RationalFunction


class RationalFunctionAlgebra(Algebra):
    """Shared base of the algebras whose elements are rational functions
    in one variable; subclasses name the variable and the endomorphism.
    Equality stays by type, so qx and diff never mix."""

    element = RationalFunction
    commutative = True

    def zero(self):
        return RationalFunction.zero(self.variable)

    def one(self):
        return RationalFunction.one(self.variable)

    def from_fraction(self, q):
        return RationalFunction.constant(q, self.variable)

    def symbols(self):
        return {self.variable: RationalFunction.variable(self.variable)}


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


class QuaternionDifferentialAlgebra(_Derivation, Algebra):
    """Quaternions with rational function components, differentiated
    componentwise.  A noncommutative division ring."""

    name = "quat"
    element = Quaternion
    variable = "x"

    def _scalar(self, a):
        z = RationalFunction.zero(self.variable)
        return Quaternion._trusted(a, z, z, z)

    def zero(self):
        z = RationalFunction.zero(self.variable)
        return Quaternion._trusted(z, z, z, z)

    def one(self):
        return self._scalar(RationalFunction.one(self.variable))

    def from_fraction(self, q):
        return self._scalar(RationalFunction.constant(q, self.variable))

    def symbols(self):
        z, o = RationalFunction.zero(self.variable), RationalFunction.one(self.variable)
        return {
            self.variable: self._scalar(RationalFunction.variable(self.variable)),
            "i": Quaternion._trusted(z, o, z, z),
            "j": Quaternion._trusted(z, z, o, z),
            "k": Quaternion._trusted(z, z, z, o),
        }


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

    def zero(self):
        return GroupRingC5Element._trusted((0, 0, 0, 0, 0))

    def one(self):
        return GroupRingC5Element._trusted((1, 0, 0, 0, 0))

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator != 1:
            raise ValueError(
                "%s is not integral, the group ring contains only integers" % q
            )
        return GroupRingC5Element((int(q), 0, 0, 0, 0))

    def endo(self, f):
        self.check(f)
        return f.scale_exponents(2)

    def twist(self, f):
        return TwistPair(self.endo(f), self.zero())

    def symbols(self):
        return {"r": GroupRingC5Element._trusted((0, 1, 0, 0, 0))}


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
