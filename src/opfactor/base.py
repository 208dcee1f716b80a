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
    one shared attribute dict of the KernelContexts of each solved
    kernel (see the factorization module), and `_element_memo`, the
    value of each element text that parse_element has read (see the
    parsing module).  Each keeps at most MEMO_SIZE entries, and
    `remember` stores every entry of both, evicting the oldest first,
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

An algebra builds its own elements.  It declares `atoms`, the monomial
(power of D, unit, exponent, coefficient) of each symbol of its texts;
`period`, the order of its variable (5 on the group ring, whose r^5 = 1),
0 for none; and `_from_terms(terms)`, the one builder of an element from
its (unit, exponent, coefficient) terms, zero for none.  The parser reads
all three (see the parsing module).  `from_fraction` (the one term
q*v^0) and `symbols()` (each atom's term) are defined here once, through
the builder; the group ring adds only the refusal of a q that is not
integral.  The atoms of an operator text, with `D`, are built once per
class.

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
    # the monomial (power of D, unit, exponent, coefficient) of each symbol
    atoms: Dict[str, tuple] = {}
    # the period of the exponents of the variable, 0 for none
    period: int = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the atoms of an operator text, `D` included, built once per class
        cls._operator_atoms = dict(cls.atoms, D=(1, 0, 0, 1))

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
        """The solved kernels of this instance, built on first use: the
        attribute dict that KernelContexts of equal elements share, keyed
        by the hash of the element tuple (see the factorization module)."""
        return {}

    @cached_property
    def _element_memo(self) -> dict:
        """The element of each text parse_element has read on this
        instance, built on first use (see the parsing module)."""
        return {}

    def from_fraction(self, q):
        """Embed a rational scalar, anything Fraction takes, as the one
        term q*v^0 of the builder (an int when q is integral)."""
        q = Fraction(q)
        c = q.numerator if q.denominator == 1 else q
        return self._from_terms(((0, 0, c),) if c else ())

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
    def _from_terms(self, terms):
        """The element sum of c*v^e*u over (u, e, c) terms, nonzero c of
        distinct (u, e); zero for no terms."""

    def symbols(self) -> Dict[str, Any]:
        """Named atoms the expression grammar may use in this algebra."""
        return {name: self._from_terms(((u, e, c),)) for name, (_, u, e, c) in self.atoms.items()}

    def format_element(self, f) -> str:
        self.check(f)
        return str(f)
