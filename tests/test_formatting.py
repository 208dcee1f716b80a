"""The exact printed text of every parenthesis rule, `term` and `int_poly`
themselves, and one digest that pins the printed text of random values.

Each case parses a text and prints the result, so the expected text is
also one the parser reads back.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from opfactor import (
    GroupRingC5Element,
    Operator,
    Quaternion,
    RationalFunction,
    formatting,
    get_algebra,
    parse_element,
    parse_operator,
)

from helpers import ALL_ALGEBRAS, C5, DIFF1, QUAT, QX, rand_element, rand_operator

OPERATOR_CASES = [
    # constant term: a negative sum keeps its group
    ("qx", "D - (x + 1)", "D - (x + 1)"),
    ("c5", "D^2 - 2*r*D - 1 - r", "D^2 - 2*r*D - (1 + r)"),
    ("quat", "D - x - 1 - i", "D - (x + 1 + i)"),
    ("c5", "-r*D - r - 1", "-r*D - (1 + r)"),
    # constant term: a magnitude starting with `-` is grouped after other terms
    ("quat", "D + (-x + i)", "D + (-x + i)"),
    ("quat", "-x + i", "-x + i"),
    ("c5", "D - 1 + r", "D + (-1 + r)"),
    # D-term coefficient: a sum, a quotient, a negative start, and one
    ("qx", "(x + 1)*D", "(x + 1)*D"),
    ("qx", "-(x+1)*D", "-(x + 1)*D"),
    ("qx", "(1/x)*D", "(1/x)*D"),
    ("qx", "(3/2)*D^2", "(3/2)*D^2"),
    ("quat", "(1/x*j)*D", "(1/x*j)*D"),
    ("quat", "(-x + i)*D", "(-x + i)*D"),
    ("c5", "(r - 1)*D", "(-1 + r)*D"),
    ("quat", "-(1 + i)*D", "-(1 + i)*D"),
    ("quat", "(x - 1)/x*D + 2*x*i", "((x - 1)/x)*D + 2*x*i"),
    # one unit times a sum is a product, so it stays bare before D
    ("quat", "(-x - 1)*i*D", "-(x + 1)*i*D"),
    ("qx", "D^2 - D + 1", "D^2 - D + 1"),
    ("quat", "x*D - i*D", "(x - i)*D"),
    # group ring: an all-negative coefficient folds its sign out before *D
    ("c5", "(-1 - r)*D", "-(1 + r)*D"),
    ("c5", "-r^2*D + r", "-r^2*D + r"),
    ("c5", "0*D", "0"),
]

ELEMENT_CASES = [
    # rational functions: a sum numerator, then each kind of denominator
    ("qx", "(x+1)/x", "(x + 1)/x"),
    ("qx", "-(x+1)/x", "(-x - 1)/x"),
    ("qx", "1/(x+1)", "1/(x + 1)"),
    ("qx", "1/(2*x)", "1/(2*x)"),
    ("qx", "x/2", "x/2"),
    ("qx", "(x+1)/2", "(x + 1)/2"),
    ("qx", "1/x^2", "1/x^2"),
    ("diff", "(n^2 - 1)/(3*n^2)", "(n^2 - 1)/(3*n^2)"),
    # quaternions: scalar sums, and sum or quotient coefficients of a unit
    ("quat", "-(x+1) + i", "-(x + 1) + i"),
    ("quat", "x + 1 + i", "x + 1 + i"),
    ("quat", "(x+1)*i", "(x + 1)*i"),
    ("quat", "-(x+1)*i", "-(x + 1)*i"),
    ("quat", "1/x*j", "1/x*j"),
    ("quat", "(x+1)/x*k", "(x + 1)/x*k"),
    ("quat", "0", "0"),
    # a numerator of two terms over 1 with a rational content prints as a
    # quotient, not a sum, so no group is added before the unit; a negative
    # component over a nonconstant denominator prints its magnitude
    ("quat", "2*i + (8*x - 3)/3*j", "2*i + (8*x - 3)/3*j"),
    ("quat", "-2 - (x - 4)/x*k", "-2 - (x - 4)/x*k"),
    ("quat", "(3 - 8*x)/3 + (4 - x)/3*i", "-(8*x - 3)/3 - (x - 4)/3*i"),
    ("quat", "-(2*x + 1) - (x^2 - 2)*j", "-(2*x + 1) - (x^2 - 2)*j"),
    # group ring
    ("c5", "-1 - r", "-1 - r"),
    ("c5", "2*r^4 - r", "-r + 2*r^4"),
]


@pytest.mark.parametrize("algebra, text, printed", OPERATOR_CASES)
def test_operator_text(algebra, text, printed):
    A = get_algebra(algebra)
    op = parse_operator(text, A)
    assert str(op) == printed
    assert parse_operator(printed, A) == op


@pytest.mark.parametrize("algebra, text, printed", ELEMENT_CASES)
def test_element_text(algebra, text, printed):
    A = get_algebra(algebra)
    f = parse_element(text, A)
    assert str(f) == printed == A.format_element(f)
    assert parse_element(printed, A) == f


def test_a_component_prints_its_magnitude_without_a_negated_copy(monkeypatch):
    rng = random.Random(32)
    values = [rand_element(rng, QUAT) for _ in range(200)]
    # each component with the text of its negation
    parts = [(comp, str(-comp)) for q in values for _, comp in q.terms]
    assert any(comp.num.cnum < 0 for comp, _ in parts)
    # operators of every algebra, and one whose -3/x prints as a sign and
    # a magnitude
    rng = random.Random(5)
    ops = [rand_operator(rng, alg) for alg in ALL_ALGEBRAS for _ in range(50)]
    readme_k = parse_operator("D^2 - (3/x)*D + 3/x^2", QUAT)
    ops.append(readme_k)
    negated = []
    for cls in (RationalFunction, Quaternion, GroupRingC5Element):
        monkeypatch.setattr(cls, "__neg__",
                            lambda self, neg=cls.__neg__: negated.append(self) or neg(self))
    for v in values + ops:
        str(v)
    assert negated == []
    assert str(readme_k) == "D^2 - (3/x)*D + 3/x^2"
    assert all(comp._text(-1) == text for comp, text in parts)


@pytest.mark.parametrize("coeff, base, e, text", [
    # power 0: the coefficient alone, whatever it is
    ("3/2", "x", 0, "3/2"),
    ("1", "D", 0, "1"),
    ("(x + 1)", "D", 0, "(x + 1)"),
    # power 1: the base without an exponent
    ("2", "r", 1, "2*r"),
    ("(1/x)", "D", 1, "(1/x)*D"),
    # above 1: base^e
    ("2", "x", 2, "2*x^2"),
    ("-x", "D", 12, "-x*D^12"),
    # the coefficient "1" is dropped, at any power above 0
    ("1", "x", 1, "x"),
    ("1", "D", 7, "D^7"),
    ("1", "i", 1, "i"),
    # "1/2" and "11" are not the one
    ("1/2", "x", 1, "1/2*x"),
    ("11", "n", 3, "11*n^3"),
    # an empty base (a quaternion's scalar part) leaves the coefficient
    ("x + 1", "", 1, "x + 1"),
    ("1", "", 1, "1"),
])
def test_term(coeff, base, e, text):
    assert formatting.term(coeff, base, e) == text


def test_int_poly():
    int_poly = formatting.int_poly
    # the pairs' order is the text's order, and zero coefficients are skipped
    assert int_poly([(2, 3), (1, 0), (0, -1)], "x") == "3*x^2 - 1"
    assert int_poly(enumerate((-1, 1, 0, 0, -12)), "r") == "-1 + r - 12*r^4"
    assert int_poly([(3, 0), (0, 0)], "n") == "0"


DIFF_HALF = get_algebra("diff", Fraction(-1, 2))
PRINTED_ALGEBRAS = (QX, QUAT, DIFF1, DIFF_HALF, C5)
BIG = 7**5200  # 4,395 digits: past the int-string limit, so int_text splits it

# sha1 of every text of `printed_texts()`, one per line, recorded before the
# four printers were routed through `formatting.term` and unchanged by it;
# the text may change only on purpose, with a new digest
PRINTED_DIGEST = "c09364ce1eec11ac82275d5c25c850de6019c5a4"


def _big_values():
    """Elements and operators with a coefficient of more than 4,300 digits."""
    big = Fraction(BIG, 3)
    for alg in (QX, DIFF_HALF):
        v = alg.symbols()[alg.variable]
        f = alg.from_fraction(big) * v * v - alg.from_fraction(-big) * alg.try_invert(v + alg.one())
        yield f
        yield Operator(alg, (f, -f, alg.one()))
    q = Quaternion(*(QX.from_fraction(big * s) for s in (1, -1, 0, 2)))
    yield q
    yield Operator(QUAT, (q, QUAT.one()))
    g = GroupRingC5Element((BIG, 0, -BIG, 1, -1))
    yield g
    yield Operator(C5, (-g, g, C5.one()))


def printed_texts(seed=31, rounds=120):
    """The printed text of random elements, their sums, products and
    quotients, and random operators and their compositions, over every
    algebra (with diff at c = 1 and c = -1/2), then of `_big_values`."""
    rng = random.Random(seed)
    for alg in PRINTED_ALGEBRAS:
        for _ in range(rounds):
            a, b = rand_element(rng, alg), rand_element(rng, alg)
            values = [a, -a, a + b, a * b - b]
            if alg is not C5 and not b.is_zero():
                values.append(a * alg.try_invert(b))
            s, t = rand_operator(rng, alg), rand_operator(rng, alg, monic=True)
            values += [s, -s, s * t, t - s]
            for v in values:
                yield str(v) if isinstance(v, Operator) else alg.format_element(v)
    for v in _big_values():
        yield str(v)


def test_printed_texts_match_recorded_digest():
    texts = list(printed_texts())
    assert len(texts) > 4000
    assert max(len(t) for t in texts) > 4300
    assert hashlib.sha1("\n".join(texts).encode()).hexdigest() == PRINTED_DIGEST
