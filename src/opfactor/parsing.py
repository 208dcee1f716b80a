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

Printing lives with the value types; this module adds the JSON form of
operators: {"algebra": <selector>, "coeffs": [<element text>, ...]},
coefficients listed from power zero upward, with "c": <rational text>
after the selector for the difference algebra.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .algebras import get_algebra
from .base import Algebra
from .errors import NotAUnit, ParseError
from .formatting import fraction_text
from .operators import Operator

_TOKEN = re.compile(r"[0-9]+|[A-Za-z]|[\^*/+()-]|\S")

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


def _tokenize(text: str) -> List[Tuple[str, int]]:
    """(token, 1-based position) pairs; whitespace matches no token."""
    out = []
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if not ((tok.isdecimal() and tok.isascii()) or tok.isalpha() or tok in "^*/+-()"):
            raise ParseError("unexpected character %r" % tok, m.start() + 1)
        out.append((tok, m.start() + 1))
    return out


class _Parser:
    def __init__(self, text: str, algebra: Algebra, allow_d: bool):
        self.algebra = algebra
        self.allow_d = allow_d
        # an empty token ends the list, at the position past the text
        self.tokens = _tokenize(text) + [("", len(text) + 1)]
        self.pos = 0
        self.depth = 0  # open parentheses around the current position
        self.symbols = algebra.symbols()

    # token plumbing

    def _peek(self) -> str:
        return self.tokens[self.pos][0]

    def _next(self) -> Tuple[str, int]:
        tok = self.tokens[self.pos]
        if not tok[0]:
            raise ParseError("unexpected end of input", tok[1])
        self.pos += 1
        return tok

    def _end_pos(self) -> int:
        return self.tokens[self.pos][1]

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
        text, pos = self.tokens[self.pos]
        if text:
            raise ParseError(
                "expected an operator or end of input, found %r" % text, pos
            )
        return value

    def _expr(self):
        value, bound = self._term()
        while True:
            op = self._peek()
            if op not in ("+", "-"):
                return value, bound
            self._next()
            rhs, rhs_bound = self._term()
            if isinstance(value, Operator) or isinstance(rhs, Operator):
                value, rhs = self._lift(value), self._lift(rhs)
            value = value + rhs if op == "+" else value - rhs
            bound = max(bound, rhs_bound)

    def _term(self):
        value, bound = self._factor()
        while True:
            op = self._peek()
            if op not in ("*", "/"):
                return value, bound
            _, pos = self._next()
            rhs, rhs_bound = self._factor()
            bound = self._capped(bound + rhs_bound, pos)
            if op == "*":
                value = self._times(value, rhs)
            else:
                value = self._times(value, self._inverse(rhs, pos))

    def _times(self, value, rhs):
        if isinstance(value, Operator):
            return value.compose(self._lift(rhs))
        if isinstance(rhs, Operator):
            return rhs.scale_left(value)
        return value * rhs

    def _inverse(self, rhs, pos: int):
        if isinstance(rhs, Operator):
            if len(rhs.coeffs) > 1:
                raise ParseError("cannot divide by an operator of positive degree", pos)
            rhs = rhs.coeff(0)
        try:
            return self.algebra.try_invert(rhs)
        except NotAUnit:
            raise ParseError(
                "division by %s, which is not a unit here"
                % self.algebra.format_element(rhs),
                pos,
            ) from None

    def _capped(self, bound: int, pos: int) -> int:
        if bound > MAX_DEGREE:
            raise ParseError(
                "degree bound %d exceeds %d" % (bound, MAX_DEGREE), pos
            )
        return bound

    def _factor(self):
        # a loop, since recursing once per sign overflows on long runs
        signs = 0
        while self._peek() == "-":
            self._next()
            signs += 1
        value, bound = self._power()
        return (-value if signs % 2 else value), bound

    def _power(self):
        start = self.pos
        value, bound = self._atom()
        if self._peek() != "^":
            return value, bound
        self._next()
        if not self._peek().isdecimal():
            raise ParseError(
                "expected a nonnegative integer exponent", self._end_pos()
            )
        text, pos = self._next()
        n = self._integer(text, pos)
        bound = self._capped(max(bound, 1) * n, pos)
        if self.tokens[start][0] == "D":
            return Operator.d(self.algebra, n), bound
        if isinstance(value, Operator):
            out = value if n else Operator.identity(self.algebra)
            for _ in range(n - 1):
                # powers of one operator commute; with value on the left each
                # step advances the power so far only deg(value) times
                out = value.compose(out)
            return out, bound
        out = None
        while n:  # square and multiply, from the base itself
            if n & 1:
                out = value if out is None else out * value
            n >>= 1
            if n:
                value = value * value
        return (self.algebra.one() if out is None else out), bound

    @staticmethod
    def _integer(text: str, pos: int) -> int:
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError("integer literal too long", pos) from None

    def _atom(self):
        text, pos = self._next()
        if text.isdecimal():
            return self.algebra.from_fraction(Fraction(self._integer(text, pos))), 0
        if text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    "parentheses nested deeper than %d" % MAX_NESTING, pos
                )
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            if self._peek() != ")":
                raise ParseError("expected ')'", self._end_pos())
            self._next()
            return inner
        if text == ")":
            raise ParseError("unmatched ')'", pos)
        if text == "D":
            if not self.allow_d:
                raise ParseError(
                    "D is an operator, not an element of the algebra", pos
                )
            return Operator.d(self.algebra), 1
        if text.isalpha():
            elem = self.symbols.get(text)
            if elem is None:
                raise ParseError(
                    "symbol %r is not defined in algebra %r"
                    % (text, self.algebra.describe()),
                    pos,
                )
            return elem, 1
        raise ParseError("unexpected token %r" % text, pos)


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
