"""Expression text for elements and operators, one grammar for both.

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-'* power
    power   :=  atom ('^' INTEGER)?
    atom    :=  INTEGER | SYMBOL | 'D' | '(' expr ')'

Whitespace is insignificant.  Juxtaposition is not multiplication: `2x`
is a syntax error, write `2*x`.  `^` binds tighter than unary minus,
which binds tighter than `*` and `/`, which bind tighter than binary
`+` and `-`.  Exponents are nonnegative integer literals.  Parentheses
nest at most MAX_NESTING deep.

The parser bounds the degree of what it builds before building it.  A
number counts 0, a symbol or `D` counts 1, `+` and `-` take the larger
bound, `*` and `/` add the bounds, and `a^n` counts n times the bound of
`a`, and at least n, so that powers of constants cannot grow without
limit either.  A bound above MAX_DEGREE is a ParseError at the exponent,
or at the `*` or `/` that crosses it.

SYMBOL is a single letter owned by the algebra: `x` (and `i j k` for the
quaternions), `n` for the difference algebra, `r` for the group ring.
`D` denotes the endomorphism and is only legal when parsing operators.

Everything evaluates in the operator domain.  A bare element is a degree
zero operator; `*` is composition, which on degree zero operators is
plain ring multiplication; `a / b` is `a` composed with the inverse of
the degree zero operator `b`, and is rejected when `b` has positive
degree or its coefficient is not a unit.  Element parsing runs the same
evaluator with `D` disabled and unwraps the constant coefficient.

Printing lives with the value types; this module adds the JSON form of
operators: {"algebra": <selector>, "coeffs": [<element text>, ...]},
coefficients listed from power zero upward, with "c": <rational text>
after the selector for the difference algebra.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .algebras import get_algebra
from .base import Algebra
from .errors import NotAUnit, ParseError
from .formatting import fraction_text
from .operators import Operator

_TOKEN = re.compile(r"\d+|[A-Za-z]|[\^*/+()-]|\S")

# each nesting level costs the recursive descent a few stack frames, so
# parentheses nested deeper than this are a ParseError, not a RecursionError
MAX_NESTING = 100

# the largest degree bound an expression may reach (see above); the
# bound is syntactic, so exponents and products past it cost nothing
MAX_DEGREE = 300


class Token(NamedTuple):
    text: str
    pos: int  # 1-based character position


def _tokenize(text: str) -> List[Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        tok = m.group(0)
        if not (tok.isdecimal() or tok.isalpha() or tok in "^*/+-()"):
            raise ParseError("unexpected character %r" % tok, i + 1)
        out.append(Token(tok, i + 1))
        i = m.end()
    return out


class _Parser:
    def __init__(self, text: str, algebra: Algebra, allow_d: bool):
        self.text = text
        self.algebra = algebra
        self.allow_d = allow_d
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current position
        self.symbols = algebra.symbols()

    # token plumbing

    def _peek(self) -> Optional[Token]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text) + 1)
        self.pos += 1
        return tok

    def _end_pos(self) -> int:
        tok = self._peek()
        return tok.pos if tok else len(self.text) + 1

    # grammar: each rule returns its value and the degree bound of its text

    def parse(self) -> Operator:
        if not self.tokens:
            raise ParseError("empty expression", 1)
        value, _ = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(
                "expected an operator or end of input, found %r" % tok.text,
                tok.pos,
            )
        return value

    def _expr(self) -> Tuple[Operator, int]:
        value, bound = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok.text not in "+-":
                return value, bound
            self._next()
            rhs, rhs_bound = self._term()
            value = value + rhs if tok.text == "+" else value - rhs
            bound = max(bound, rhs_bound)

    def _term(self) -> Tuple[Operator, int]:
        value, bound = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok.text not in "*/":
                return value, bound
            self._next()
            rhs, rhs_bound = self._factor()
            bound = self._capped(bound + rhs_bound, tok.pos)
            if tok.text == "*":
                value = value.compose(rhs)
            else:
                value = self._divide(value, rhs, tok.pos)

    def _divide(self, value: Operator, rhs: Operator, pos: int) -> Operator:
        if len(rhs.coeffs) > 1:
            raise ParseError("cannot divide by an operator of positive degree", pos)
        coeff = rhs.coeff(0)
        try:
            inv = self.algebra.try_invert(coeff)
        except NotAUnit:
            raise ParseError(
                "division by %s, which is not a unit here"
                % self.algebra.format_element(coeff),
                pos,
            ) from None
        return value.compose(Operator.scalar(self.algebra, inv))

    def _capped(self, bound: int, pos: int) -> int:
        if bound > MAX_DEGREE:
            raise ParseError(
                "degree bound %d exceeds %d" % (bound, MAX_DEGREE), pos
            )
        return bound

    def _factor(self) -> Tuple[Operator, int]:
        # a loop, since recursing once per sign overflows on long runs
        signs = 0
        while self._peek() is not None and self._peek().text == "-":
            self._next()
            signs += 1
        value, bound = self._power()
        return (-value if signs % 2 else value), bound

    def _power(self) -> Tuple[Operator, int]:
        value, bound = self._atom()
        tok = self._peek()
        if tok is None or tok.text != "^":
            return value, bound
        self._next()
        etok = self._peek()
        if etok is None or not etok.text.isdecimal():
            raise ParseError(
                "expected a nonnegative integer exponent", self._end_pos()
            )
        n = self._integer(self._next())
        bound = self._capped(max(bound, 1) * n, etok.pos)
        out = Operator.identity(self.algebra)
        for _ in range(n):
            # powers of one operator commute; with value on the left each
            # step advances the power so far only deg(value) times
            out = value.compose(out)
        return out, bound

    @staticmethod
    def _integer(tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError("integer literal too long", tok.pos) from None

    def _atom(self) -> Tuple[Operator, int]:
        tok = self._next()
        text = tok.text
        if text.isdecimal():
            value = self.algebra.from_fraction(Fraction(self._integer(tok)))
            return Operator.scalar(self.algebra, value), 0
        if text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    "parentheses nested deeper than %d" % MAX_NESTING, tok.pos
                )
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            closing = self._peek()
            if closing is None or closing.text != ")":
                raise ParseError("expected ')'", self._end_pos())
            self._next()
            return inner
        if text == ")":
            raise ParseError("unmatched ')'", tok.pos)
        if text == "D":
            if not self.allow_d:
                raise ParseError(
                    "D is an operator, not an element of the algebra", tok.pos
                )
            return Operator.d(self.algebra), 1
        if text.isalpha():
            elem = self.symbols.get(text)
            if elem is None:
                raise ParseError(
                    "symbol %r is not defined in algebra %r"
                    % (text, self.algebra.describe()),
                    tok.pos,
                )
            return Operator.scalar(self.algebra, elem), 1
        raise ParseError("unexpected token %r" % text, tok.pos)


def parse_operator(text: str, algebra: Algebra) -> Operator:
    return _Parser(text, algebra, allow_d=True).parse()


def parse_element(text: str, algebra: Algebra):
    op = _Parser(text, algebra, allow_d=False).parse()
    # without D every value stays at degree zero
    return op.coeff(0)


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
    tagged = get_algebra(data["algebra"], Fraction(data.get("c", 1)))
    if algebra is None:
        algebra = tagged
    elif algebra != tagged:
        raise ValueError(
            "operator tagged %r cannot load into algebra %r"
            % (tagged.describe(), algebra.describe())
        )
    coeffs = [parse_element(t, algebra) for t in data["coeffs"]]
    return Operator(algebra, tuple(coeffs))
