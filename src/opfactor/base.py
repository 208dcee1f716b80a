"""The abstract coefficient algebra interface.

An algebra here is a unital associative ring A together with one additive
map on it, written endo().  The map need not respect products (on the
rational function algebras it is a derivative or a difference); what it
must have is a twist, defined below.  Operators are built over the pair
(A, endo), and everything the operator layer needs is expressed through
this interface:

  * the constants zero() and one() (the arithmetic is the elements' own),
  * the endomorphism itself,
  * a twist: for every f a pair (p, q) with

        endo(f * g) = p * endo(g) + q * g   for all g,

    which is exactly what lets `endo after multiplication-by-f` be
    rewritten as `multiplication * endo + multiplication`, the move that
    normalizes operator compositions,
  * partial inversion (try_invert), total on the division-ring algebras
    and honestly partial on the group ring.

An algebra declares `element`, the class of its values, and `variable`,
their `var`: None on the group ring, whose elements declare `var = None`.
`element` has no default, so an algebra that does not declare it fails
at its first check.  The one membership test, `check`, raises
MixedAlgebras unless a value is an `element` whose `var` is `variable`.

Values are checked where they enter:
the public constructors, the parser, KernelContext, the arguments of
scale_left, apply and interpolate, and the endo, try_invert and
format_element methods below.  Inside, the engine trusts its values.
A rational number enters one way, as a multiple of the unit through
`from_fraction`; no element's arithmetic takes an int or a Fraction.

Every value class of the package has one shape: `__slots__` and a public
`__init__` that checks its arguments.  All but NCMatrix also have a private
trusted constructor (`_new`, `_canonical`, `_trusted`) that assigns the
slots directly and checks nothing.  Values are immutable by convention: no
slot is assigned after construction, and every operation returns a new
value.  `TwistPair`, a plain pair, is a NamedTuple.

Every element prints, by `str`, as plain text in the grammar the parser
reads, and `split_sign` folds an overall minus out of it.  Where one text
is embedded in another, the formatting module's one rule places the
parentheses.

An algebra may declare `endo_order = n` when endo^n is the identity map
AND the corresponding operator identity holds, in which case operator
equality folds exponents above n - 1 (see the operator module).  The
built-in group ring declares order 4; the others declare nothing.

An algebra declares `commutative = True` when its products commute; its
matrices are then inverted through the determinant (see the ncmatrix
module).  The rational function algebras and the group ring declare it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Any, Dict, NamedTuple, Optional

from .errors import MixedAlgebras


class TwistPair(NamedTuple):
    """The rewrite data for one element: endo . f = p . endo + q ."""

    p: Any
    q: Any


class Algebra(ABC):
    """A coefficient ring with a distinguished endomorphism."""

    name: str = "?"
    element: type
    variable: Optional[str] = None
    endo_order: Optional[int] = None
    commutative: bool = False

    # identity and membership

    def _key(self) -> tuple:
        return ()

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def __repr__(self) -> str:
        return "<algebra %s>" % self.describe()

    def describe(self) -> str:
        return self.name

    def check(self, e) -> None:
        """Raise MixedAlgebras unless e is an element of this algebra."""
        if not (isinstance(e, self.element) and e.var == self.variable):
            raise MixedAlgebras(
                "%r is not an element of algebra %r" % (e, self.describe())
            )

    # constants

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def from_fraction(self, q: Fraction):
        """Embed a rational scalar, when the algebra contains it."""

    # the endomorphism and its twist

    @abstractmethod
    def endo(self, f): ...

    @abstractmethod
    def twist(self, f) -> TwistPair: ...

    def try_invert(self, f):
        """Return the two-sided inverse of f, or raise NotAUnit.  The
        default defers to the element's own inverse()."""
        self.check(f)
        return f.inverse()

    # parsing and printing hooks

    @abstractmethod
    def symbols(self) -> Dict[str, Any]:
        """Named atoms the expression grammar may use in this algebra."""

    def format_element(self, f) -> str:
        self.check(f)
        return str(f)
