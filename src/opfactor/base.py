"""The abstract coefficient algebra interface.

An algebra here is a unital associative ring A together with one additive
map on it, written endo().  The map need not respect products (on the
rational function algebras it is a derivative or a difference); what it
must have is a twist, defined below.  Operators are built over the pair
(A, endo), and everything the operator layer needs is expressed through
this interface:

  * the constants zero() and one(), built once per algebra, on first use,
    from from_fraction and then shared (the arithmetic is the elements'
    own); likewise, on first use, two empty memos: `_kernel_memo`, the
    solved kernels that KernelContext fills (see the factorization
    module), and `_element_memo`, the value of each element text that
    parse_element has read (see the parsing module).  Each keeps at most
    MEMO_SIZE entries, and `remember` stores every entry of both,
    evicting the oldest first,
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
value; the one exception is Operator's cache of its coefficient texts,
which is no part of the value.  All but Operator derive from `Value`,
which gives them equality and hashing from their slots: two values are
equal when they have the same type and equal slots, in the order
`__slots__` names them.  Operator keeps its own, which folds exponents by
`endo_order` and ignores the texts.  `TwistPair`, a plain
pair, is a NamedTuple.

Every element and every Operator prints by `str` alone, as plain text in
the grammar the parser reads.  Where one text is embedded in another, the
parentheses come from the embedded element's private `_signed()`: its
sign, the text of its magnitude, and whether that is a sum or a quotient
(see the formatting module).

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
from functools import cached_property
from operator import attrgetter
from typing import Any, Dict, NamedTuple, Optional

from .errors import MixedAlgebras

# the most entries one memo of an algebra instance keeps
MEMO_SIZE = 16


def remember(memo: dict, key, value) -> None:
    """Store value under key in one of an algebra's memos, first evicting
    the oldest entry when a new key would pass MEMO_SIZE."""
    if key not in memo and len(memo) >= MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value


class Value:
    """Equality and hashing from the slots of a value class."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._slot_values = attrgetter(*cls.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._slot_values(self) == self._slot_values(other)

    def __hash__(self) -> int:
        return hash(self._slot_values(self))


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

    @cached_property
    def _constants(self) -> tuple:
        return self.from_fraction(Fraction(0)), self.from_fraction(Fraction(1))

    def zero(self):
        return self._constants[0]

    def one(self):
        return self._constants[1]

    @cached_property
    def _kernel_memo(self) -> dict:
        """The solved kernels of this instance, built on first use and
        filled by KernelContext (see the factorization module)."""
        return {}

    @cached_property
    def _element_memo(self) -> dict:
        """The element of each text parse_element has read on this
        instance, built on first use (see the parsing module)."""
        return {}

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
