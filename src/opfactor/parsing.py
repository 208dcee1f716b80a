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

A value is an element of the algebra until a `D` appears.  An operator
is a sum of powers of `D`, each followed by left multiplication by an
element, so text without `D` denotes an element, and the twist rewrite
is needed only where a `D` stands left of a coefficient.  Elements add,
multiply and take powers (by squaring) in the ring; `D^n` is built
directly; an element times an operator scales each coefficient; only an
operator times an operator or an element composes.  An element becomes a
degree zero operator where it meets an operator in `+` or `-`, and when
operator parsing ends.  `a / b` is `a` times the inverse of `b`, and is
rejected when `b` has positive degree or its coefficient is not a unit.
Element parsing runs the same evaluator with `D` disabled, so its value
is never an operator.

The text is read by one scan that refuses a stray character and one
that lists the tokens as plain strings.  A token's position is found
only when a ParseError is raised, by scanning the text again.  Each
distinct literal text is built once per parse, and each distinct
divisor text inverted once; nothing is kept from one parse to the next.

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
from .base import Algebra
from .errors import NotAUnit, ParseError
from .formatting import fraction_text
from .operators import Operator

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
        for m in _STRAY.finditer(text):
            if not m.group().isalpha():
                raise ParseError("unexpected character %r" % m.group(), m.start() + 1)
        self.text = text
        self.algebra = algebra
        self.allow_d = allow_d
        # an empty token ends the list; positions are found on error only
        self.tokens = _TOKEN.findall(text) + [""]
        self.pos = 0  # index of the current token
        self.depth = 0  # open parentheses around the current token
        self.symbols = algebra.symbols()
        # each literal text and each divisor text is built once per parse
        self.literals = {}
        self.inverses = {}

    def _error(self, message: str, index: int) -> ParseError:
        """A ParseError at token `index`: the start of that token's match,
        scanned again, or the position past the text for the end token."""
        m = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return ParseError(message, m.start() + 1 if m else len(self.text) + 1)

    def _lift(self, value) -> Operator:
        if isinstance(value, Operator):
            return value
        return Operator._trusted(self.algebra, (value,))

    # grammar: each rule returns its value, an element until a D appears,
    # and the degree bound of its text

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
            if isinstance(value, Operator) or isinstance(rhs, Operator):
                value, rhs = self._lift(value), self._lift(rhs)
            value = value + rhs if op == "+" else value - rhs
            bound = max(bound, rhs_bound)

    def _term(self):
        value, bound = self._factor()
        tokens = self.tokens
        while True:
            at = self.pos
            op = tokens[at]
            if op != "*" and op != "/":
                return value, bound
            self.pos = at + 1
            rhs, rhs_bound = self._factor()
            bound = self._capped(bound + rhs_bound, at)
            if op == "/":
                rhs = self._inverse(rhs, at)
            value = self._times(value, rhs)

    def _times(self, value, rhs):
        if isinstance(value, Operator):
            return value.compose(self._lift(rhs))
        if isinstance(rhs, Operator):
            return rhs.scale_left(value)
        return value * rhs

    def _inverse(self, rhs, at: int):
        """The inverse of the divisor that follows the `/` at token `at`,
        taken once per divisor text."""
        key = tuple(self.tokens[at + 1:self.pos])
        inverse = self.inverses.get(key)
        if inverse is not None:
            return inverse
        if isinstance(rhs, Operator):
            if len(rhs.coeffs) > 1:
                raise self._error("cannot divide by an operator of positive degree", at)
            rhs = rhs.coeff(0)
        try:
            inverse = self.inverses[key] = self.algebra.try_invert(rhs)
        except NotAUnit:
            raise self._error(
                "division by %s, which is not a unit here"
                % self.algebra.format_element(rhs),
                at,
            ) from None
        return inverse

    def _capped(self, bound: int, index: int) -> int:
        if bound > MAX_DEGREE:
            raise self._error(
                "degree bound %d exceeds %d" % (bound, MAX_DEGREE), index
            )
        return bound

    def _factor(self):
        """'-'* power, with power := atom ('^' INTEGER)? read in this rule."""
        tokens = self.tokens
        start = self.pos
        while tokens[self.pos] == "-":  # a loop: one frame per sign overflows
            self.pos += 1
        atom = self.pos
        value, bound = self._atom()
        if tokens[self.pos] == "^":
            index = self.pos = self.pos + 1
            text = tokens[index]
            if not text.isdecimal():
                raise self._error("expected a nonnegative integer exponent", index)
            self.pos += 1
            n = self._integer(text, index)
            bound = self._capped(max(bound, 1) * n, index)
            if tokens[atom] == "D":
                value = Operator.d(self.algebra, n)
            elif isinstance(value, Operator):
                out = value if n else Operator.identity(self.algebra)
                for _ in range(n - 1):
                    # powers of one operator commute; with value on the left
                    # each step advances the power so far only deg(value) times
                    out = value.compose(out)
                value = out
            else:
                out = None
                while n:  # square and multiply, from the base itself
                    if n & 1:
                        out = value if out is None else out * value
                    n >>= 1
                    if n:
                        value = value * value
                value = self.algebra.one() if out is None else out
        return (-value if (atom - start) % 2 else value), bound

    def _integer(self, text: str, index: int) -> int:
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            raise self._error("integer literal too long", index) from None

    def _atom(self):
        index = self.pos
        text = self.tokens[index]
        self.pos = index + 1
        if text.isdecimal():
            value = self.literals.get(text)
            if value is None:
                value = self.literals[text] = self.algebra.from_fraction(
                    Fraction(self._integer(text, index))
                )
            return value, 0
        elem = self.symbols.get(text)
        if elem is not None:
            return elem, 1
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
            if not self.allow_d:
                raise self._error(
                    "D is an operator, not an element of the algebra", index
                )
            return Operator.d(self.algebra), 1
        if text.isalpha():
            raise self._error(
                "symbol %r is not defined in algebra %r"
                % (text, self.algebra.describe()),
                index,
            )
        if not text:
            raise self._error("unexpected end of input", index)
        raise self._error("unexpected token %r" % text, index)


def parse_operator(text: str, algebra: Algebra) -> Operator:
    parser = _Parser(text, algebra, allow_d=True)
    return parser._lift(parser.parse())


def parse_element(text: str, algebra: Algebra):
    # without D no value is ever lifted to an operator
    return _Parser(text, algebra, allow_d=False).parse()


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
    data = algebra_tag(op.algebra)
    data["coeffs"] = [op.algebra.format_element(c) for c in op.coeffs]
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
