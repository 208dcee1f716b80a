"""Expression text for elements and operators, one grammar for both.

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-'* power
    power   :=  atom ('^' INTEGER)?
    atom    :=  INTEGER | SYMBOL | 'D' | '(' expr ')'

Whitespace is insignificant.  Juxtaposition is not multiplication: `2x`
is a syntax error, write `2*x`.  `^` binds tighter than unary minus,
which binds tighter than `*` and `/`, which bind tighter than binary
`+` and `-`.  An INTEGER, a number or an exponent, is a run of the ASCII
digits 0-9; a digit of another script is an unexpected character.
Parentheses nest at most MAX_NESTING deep.

The parser bounds the degree of what it builds before building it.  A
number counts 0, a symbol or `D` counts 1, `+` and `-` take the larger
bound, `*` and `/` add the bounds, and `a^n` counts n times the bound of
`a`, and at least n, so that powers of constants cannot grow without
limit either.  A bound above MAX_DEGREE is a ParseError at the exponent,
or at the `*` or `/` that crosses it.

SYMBOL is a single letter owned by the algebra: `x` (and `i j k` for the
quaternions), `n` for the difference algebra, `r` for the group ring.
`D` denotes the endomorphism and is only legal when parsing operators.
The parser keeps no table of its own: it reads each symbol's monomial
from the algebra's `atoms` (with `D`, its `_operator_atoms`), the period
of the exponents from its `period` and builds coefficients with its
`_from_terms` (see the base module), so a subclass parses as its base.

A value is a sum of monomials c * v^e * u * D^d: v is the algebra's
variable (`x`, `n` or `r`), u the quaternion unit 0-3 for 1, i, j, k (0
in the other algebras), e an exponent that may be negative (taken mod 5
on the group ring), and c an int, or a Fraction once a division by a
constant other than +-1 has made one.  Inside a term a value is one
monomial, the tuple (d, u, e, c), c = 0 for zero: a plain factor (an
INTEGER, a SYMBOL or `D`, its power and its signs) is read straight into
one, and `*` and `/` combine two in local variables.  A dict {(d, u, e):
c} of nonzero c starts only where `+` or `-` merges a term, where a
parenthesized sum is met, or where a monomial meets a dict.  An operator
is a sum of powers of `D`, each after left multiplication by an element,
so a dict is the normal form of what it denotes.  A constant, `i`, `j`
and `k` included, commutes with `D` in all four algebras, since its
twist has q = 0.  So the values stay monomials or dicts through
  * `+`, `-` and unary minus, which merge them;
  * `*` where one side is a single monomial and no `D` stands left of a
    non-constant, with the unit table for the quaternions; a zero factor
    makes the product zero;
  * `/` by a single monomial unit without `D`: c * v^e * u, or +-r^e on
    the group ring;
  * `^` of a single monomial with no `D` left of a non-constant.
Any other operation promotes its dicts to values of the algebra: an
element, or an Operator where a `D` is in the dict.  These are a product
of two sums, a division by a sum, by zero, by a non-unit or by `D`, a
`D` left of `x`, `n` or `r`, and a power of a sum.  From there on the
algebra computes: elements add, multiply and take powers (by squaring)
in the ring; an element times an operator scales each coefficient; only
an operator times an operator or an element composes; an element
becomes a degree zero operator where it meets an operator in `+` or
`-`.  `a / b` is `a` times the inverse of `b`, and is rejected when `b`
has positive degree or its coefficient is not a unit.  Promotion
changes no value, message or position: a dict only skips the element
arithmetic whose result it already holds.

At the end of a parse each coefficient of a dict is built once, in
canonical form, by the algebra's `_from_terms`: the terms of one unit
are a numerator over v^m, m the size of the most negative exponent,
whose constant term is then nonzero, so numerator and denominator are
coprime; a group ring coefficient is its five ints; a coefficient 1 is
the algebra's shared `one()` and a missing one its `zero()`.  Element
parsing runs the same evaluator with `D` disabled, so its value is never
an operator.

The text is read by one scan that refuses a stray character and one
that lists the tokens as plain strings.  A token's position is found
only when a ParseError is raised, by scanning the text again.  An
operator parse keeps nothing from one parse to the next.  An element
parse is kept: each algebra instance has a memo of element texts
(`Algebra._element_memo`), at most MEMO_SIZE of them, the oldest evicted
first by the helper the kernel memo shares (`base.remember`).  A text
read before on that instance returns the same immutable value with no
parse, so a repeated kernel text gives KernelContext the very elements
its memo holds; a text that raises stores nothing, and memos of two
instances share nothing.

Printing lives with the value types; this module adds the JSON form of
operators: {"algebra": <selector>, "coeffs": [<element text>, ...]},
coefficients listed from power zero upward, with "c": <rational text>
after the selector for the difference algebra.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import Optional

from .algebras import get_algebra
from .base import Algebra, remember
from .errors import NotAUnit, ParseError
from .formatting import fraction_text
from .operators import Operator
from .quaternion import _UNIT_PRODUCTS

_TOKEN = re.compile(r"[0-9]+|[A-Za-z]|[\^*/+()-]|\S")

# a character no token class but the catch-all \S matches
_STRAY = re.compile(r"[^\s0-9A-Za-z^*/+()-]")

# each nesting level costs the recursive descent a few stack frames, so
# parentheses nested deeper than this are a ParseError, not a RecursionError
MAX_NESTING = 100

# the largest degree bound an expression may reach (see above); the
# bound is syntactic, so exponents and products past it cost nothing
MAX_DEGREE = 300

# Fraction expands 1eN to N digits before it can refuse a text, so a larger
# exponent (the bound is the default int digit limit) is refused first
MAX_EXPONENT = 4300

# the one grammar of a rational text, the same on every Python: p/q, or a
# decimal (12, 1.5, .5, 5.) with an optional exponent, in ASCII digits,
# with no `_` and no whitespace but around the whole; `exp` is the
# exponent's digits without leading zeros
_RATIONAL = re.compile(r"\s*[-+]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)"
                       r"(?:[eE][-+]?0*(?P<exp>[0-9]+))?)\s*", re.ASCII)

class _Parser:
    def __init__(self, text: str, algebra: Algebra, allow_d: bool):
        # a character outside the token classes is refused at once, unless
        # it is a letter: that one is a SYMBOL, refused by the rule reading it
        if _STRAY.search(text):
            for m in _STRAY.finditer(text):
                if not m.group().isalpha():
                    raise ParseError("unexpected character %r" % m.group(), m.start() + 1)
        self.text = text
        self.algebra = algebra
        # an empty token ends the list; positions are found on error only
        self.tokens = _TOKEN.findall(text) + [""]
        self.pos = 0  # index of the current token
        self.depth = 0  # open parentheses around the current token
        self.keys = algebra._operator_atoms if allow_d else algebra.atoms
        self.period = algebra.period

    def _error(self, message: str, index: int) -> ParseError:
        """A ParseError at token `index`: the start of that token's match,
        scanned again, or the position past the text for the end token."""
        m = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return ParseError(message, m.start() + 1 if m else len(self.text) + 1)

    # values: a monomial tuple (d, u, e, c), a dict of monomials, or an
    # element or Operator once promoted

    def _lift(self, value) -> Operator:
        if isinstance(value, Operator):
            return value
        return Operator._trusted(self.algebra, (value,))

    def _coefficient(self, terms):
        """The element of a dict's (unit, exponent, coefficient) terms at
        one power of D; a 1 is the algebra's shared one()."""
        if len(terms) == 1 and terms[0] == (0, 0, 1):
            return self.algebra.one()
        return self.algebra._from_terms(terms)

    def _operator(self, value) -> Operator:
        """The Operator of a value, a dict built one coefficient per power."""
        if type(value) is tuple:
            value = _dict(value)
        if type(value) is not dict:
            return self._lift(value)
        # one list per power of D up to the highest, max(value)[0]
        powers = [[] for _ in range(max(value)[0] + 1)] if value else []
        for (d, u, e), c in value.items():
            powers[d].append((u, e, c))
        zero = self.algebra.zero()
        return Operator._trusted(self.algebra, [self._coefficient(terms) if terms else zero
                                                for terms in powers])

    def _promoted(self, value):
        """An element or Operator for a monomial or a dict: an Operator
        when D is in it."""
        if type(value) is tuple:
            value = _dict(value)
        if type(value) is not dict:
            return value
        if not value:
            return self.algebra.zero()
        terms = [(u, e, c) for (d, u, e), c in value.items() if not d]
        if len(terms) < len(value):
            return self._operator(value)
        return self._coefficient(terms)

    def _product(self, a, b):
        """a * b for a monomial tuple and a dict, in either order, when no D
        stands left of a non-constant; else None.  Each product of the
        monomial with a term of the dict has its own key (units multiply
        as a group), so nothing merges."""
        left = type(a) is tuple
        (d, u, e, c), terms = (a, b) if left else (b, a)
        out = {}
        if not c:
            return out
        period = self.period
        for (dt, ut, et), ct in terms.items():
            if left:
                if d and et:
                    return None
                w, sign = _UNIT_PRODUCTS[u][ut]
            else:
                if dt and e:
                    return None
                w, sign = _UNIT_PRODUCTS[ut][u]
            out[d + dt, w, (e + et) % period if period else e + et] = (
                c * ct if sign > 0 else -(c * ct))
        return out

    # grammar: each rule returns its value, a monomial or dict until
    # promoted, and the degree bound of its text

    def parse(self):
        if len(self.tokens) == 1:
            raise ParseError("empty expression", 1)
        value, _ = self._expr()
        text = self.tokens[self.pos]
        if text:
            raise self._error(
                "expected an operator or end of input, found %r" % text, self.pos
            )
        return value

    def _expr(self):
        value, bound = self._term()
        tokens = self.tokens
        while True:
            op = tokens[self.pos]
            if op != "+" and op != "-":
                return value, bound
            self.pos += 1
            rhs, rhs_bound = self._term()
            if type(value) is tuple:
                value = _dict(value)
            if type(value) is dict and (type(rhs) is tuple or type(rhs) is dict):
                # each dict belongs to one value, so the sum merges in place
                get = value.get
                for key, c in (rhs.items() if type(rhs) is dict else ((rhs[:3], rhs[3]),)):
                    s = get(key, 0) + c if op == "+" else get(key, 0) - c
                    if s:
                        value[key] = s
                    else:
                        value.pop(key, None)
            else:
                value, rhs = self._promoted(value), self._promoted(rhs)
                if isinstance(value, Operator) or isinstance(rhs, Operator):
                    value, rhs = self._lift(value), self._lift(rhs)
                value = value + rhs if op == "+" else value - rhs
            if rhs_bound > bound:
                bound = rhs_bound

    def _term(self):
        """factor (('*' | '/') factor)*, a product of two monomials and a
        division by a monomial unit without D (+-r^e on the group ring)
        taken in place; the units i, j, k are their own negative inverses."""
        value, bound = self._factor()
        tokens = self.tokens
        period = self.period
        while True:
            at = self.pos
            op = tokens[at]
            if op != "*" and op != "/":
                return value, bound
            self.pos = at + 1
            rhs, rhs_bound = self._factor()
            bound += rhs_bound
            if bound > MAX_DEGREE:
                raise self._over(bound, at)
            if type(rhs) is tuple:
                d, u, e, c = rhs
                if op == "/":
                    if d or not c or period and c != 1 and c != -1:
                        value = self._times(value, self._divisor(rhs, at))
                        continue
                    if c != 1 and c != -1:
                        c = Fraction(1) / c
                    if u:
                        c = -c
                    e = -e % period if period else -e
                    rhs = d, u, e, c
                if type(value) is tuple:
                    d1, u1, e1, c1 = value
                    if not (c and c1):
                        value = 0, 0, 0, 0
                        continue
                    if not (d1 and e):  # no D left of a non-constant
                        u, sign = _UNIT_PRODUCTS[u1][u]
                        value = (d1 + d, u, (e1 + e) % period if period else e1 + e,
                                 c1 * c if sign > 0 else -(c1 * c))
                        continue
            elif op == "/":
                rhs = self._divisor(rhs, at)
            value = self._times(value, rhs)

    def _times(self, value, rhs):
        if {type(value), type(rhs)} == _MIXED:
            product = self._product(value, rhs)
            if product is not None:
                return product
        value, rhs = self._promoted(value), self._promoted(rhs)
        if isinstance(value, Operator):
            return value.compose(self._lift(rhs))
        if isinstance(rhs, Operator):
            return rhs.scale_left(value)
        return value * rhs

    def _divisor(self, rhs, at: int):
        """The inverse of the divisor that follows the `/` at token `at`,
        through the algebra."""
        rhs = self._promoted(rhs)
        if isinstance(rhs, Operator):
            if len(rhs.coeffs) > 1:
                raise self._error("cannot divide by an operator of positive degree", at)
            rhs = rhs.coeff(0)
        try:
            return self.algebra.try_invert(rhs)
        except NotAUnit:
            raise self._error(
                "division by %s, which is not a unit here"
                % self.algebra.format_element(rhs),
                at,
            ) from None

    def _over(self, bound: int, index: int) -> ParseError:
        return self._error("degree bound %d exceeds %d" % (bound, MAX_DEGREE), index)

    def _factor(self):
        """'-'* power, with power := atom ('^' INTEGER)? read in this rule.
        A plain factor, an INTEGER, a SYMBOL or `D`, is read here as a
        monomial tuple, and so is its power where no D stands left of a
        non-constant."""
        tokens = self.tokens
        start = pos = self.pos
        while tokens[pos] == "-":  # a loop: one frame per sign overflows
            pos += 1
        atom = pos
        text = tokens[pos]
        value = self.keys.get(text)
        if value is not None:
            pos, bound = pos + 1, 1
        elif text.isdecimal():
            value, bound = (0, 0, 0, self._integer(text, pos)), 0
            pos += 1
        else:
            self.pos = pos
            value, bound = self._atom()
            pos = self.pos
        if tokens[pos] == "^":
            pos += 1
            text = tokens[pos]
            if not text.isdecimal():
                raise self._error("expected a nonnegative integer exponent", pos)
            n = self._integer(text, pos)
            bound = (bound or 1) * n
            if bound > MAX_DEGREE:
                raise self._over(bound, pos)
            if type(value) is not tuple or n > 1 and value[0] and value[2]:
                value = self._power(value, n)
            else:
                d, u, e, c = value
                period = self.period
                # u^n for a unit u of i, j, k: u, -1, -u, 1 as n % 4 is 1, 2, 3, 0
                value = (d * n, u if n % 2 else 0, e * n % period if period else e * n,
                         -c ** n if u and n % 4 > 1 else c ** n)
            pos += 1
        self.pos = pos
        if (atom - start) % 2:
            if type(value) is tuple:
                d, u, e, c = value
                value = d, u, e, -c
            elif type(value) is dict:
                value = {k: -c for k, c in value.items()}
            else:
                value = -value
        return value, bound

    def _power(self, value, n: int):
        """value^n through the algebra, for a value other than a monomial
        that _factor takes in place."""
        if type(value) is dict:
            if not n:
                return 0, 0, 0, 1
            if n == 1 or not value:
                return value
        value = self._promoted(value)
        if isinstance(value, Operator):
            if not n:
                return Operator.identity(self.algebra)
            out, shifted = value, [value]
            for _ in range(n - 1):
                # powers of one operator commute, so value^(m+1) = value^m .
                # value: only the base is twisted, and the shifted copies
                # [value, endo . value, ...] grow by deg(value) per power
                out = out.compose(value, shifted=shifted)
            return out
        out = None
        while n:  # square and multiply, from the base itself
            if n & 1:
                out = value if out is None else out * value
            n >>= 1
            if n:
                value = value * value
        return self.algebra.one() if out is None else out

    def _integer(self, text: str, index: int) -> int:
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            raise self._error("integer literal too long", index) from None

    def _atom(self):
        """'(' expr ')', or the error for a token no factor starts with;
        a plain factor is read by _factor."""
        index = self.pos
        text = self.tokens[index]
        self.pos = index + 1
        if text == "(":
            if self.depth == MAX_NESTING:
                raise self._error(
                    "parentheses nested deeper than %d" % MAX_NESTING, index
                )
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            if self.tokens[self.pos] != ")":
                raise self._error("expected ')'", self.pos)
            self.pos += 1
            return inner
        if text == ")":
            raise self._error("unmatched ')'", index)
        if text == "D":
            raise self._error("D is an operator, not an element of the algebra", index)
        if text.isalpha():
            raise self._error(
                "symbol %r is not defined in algebra %r"
                % (text, self.algebra.describe()),
                index,
            )
        if not text:
            raise self._error("unexpected end of input", index)
        raise self._error("unexpected token %r" % text, index)


_MIXED = {tuple, dict}


def _dict(term: tuple) -> dict:
    """The dict of a monomial tuple (d, u, e, c): {} for c = 0."""
    d, u, e, c = term
    return {(d, u, e): c} if c else {}


def parse_operator(text: str, algebra: Algebra) -> Operator:
    parser = _Parser(text, algebra, allow_d=True)
    return parser._operator(parser.parse())


def parse_element(text: str, algebra: Algebra):
    """The element a text names, read once per text on each algebra
    instance and kept in its element memo (see the module docstring)."""
    memo = algebra._element_memo
    value = memo.get(text)
    if value is None:
        # without D no value is ever an operator
        parser = _Parser(text, algebra, allow_d=False)
        value = parser._promoted(parser.parse())
        remember(memo, text, value)
    return value


def parse_fraction(text) -> Fraction:
    """The rational number a text in the grammar of _RATIONAL names; any
    other value goes to Fraction, which takes an int but not a bool.  Every
    refusal is a ValueError, which names the bound for an exponent past
    MAX_EXPONENT."""
    m = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    # five digits with no leading zero already pass the bound, so int() never
    # reads a longer exponent, which it refuses past 4300 digits from 3.11 on
    if m and int((m["exp"] or "0")[:5]) > MAX_EXPONENT:
        raise ValueError("%r has a decimal exponent beyond %d" % (text, MAX_EXPONENT))
    try:
        if isinstance(text, bool) or (isinstance(text, str) and not m):
            raise TypeError  # Fraction(True) would be 1
        return Fraction(text)
    except (ArithmeticError, TypeError, ValueError):
        raise ValueError("%r is not a rational number" % (text,)) from None


# JSON form

def algebra_tag(algebra: Algebra) -> dict:
    """The JSON tag of an algebra: its selector, then "c" for `diff`."""
    tag = {"algebra": algebra.name}
    if algebra.name == "diff":
        tag["c"] = fraction_text(algebra.c)
    return tag


def operator_to_json(op: Operator) -> dict:
    """The JSON form of op: its algebra's tag and "coeffs", the text of
    each coefficient, lowest power first.  The first call for an object
    renders the texts and keeps them on it (see the operators module), so
    later calls only copy them; each call returns a new dict and list."""
    data = algebra_tag(op.algebra)
    texts = op._texts
    if texts is None:
        fmt = op.algebra.format_element
        texts = op._texts = tuple([fmt(c) for c in op.coeffs])
    data["coeffs"] = list(texts)
    return data


def operator_from_json(data: dict, algebra: Optional[Algebra] = None) -> Operator:
    """The operator that operator_to_json wrote; malformed data is a
    ValueError that names the field."""
    if not isinstance(data, dict):
        raise ValueError("operator JSON must be an object, not %s" % type(data).__name__)
    for field in ("algebra", "coeffs"):
        if field not in data:
            raise ValueError("operator JSON has no %r" % field)
    texts = data["coeffs"]
    if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
        raise ValueError("operator JSON 'coeffs' must be a list of strings")
    tagged = get_algebra(data["algebra"], parse_fraction(data.get("c", 1)))
    if algebra is None:
        algebra = tagged
    elif algebra != tagged:
        raise ValueError(
            "operator tagged %r cannot load into algebra %r"
            % (tagged.describe(), algebra.describe())
        )
    coeffs = [parse_element(t, algebra) for t in texts]
    return Operator(algebra, tuple(coeffs))
