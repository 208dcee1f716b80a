"""Contract tests every algebra backend has to satisfy."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from opfactor import (
    SELECTORS, Algebra, DifferenceAlgebra, DifferentialRationalAlgebra, GroupRingC5Algebra,
    KernelContext, MixedAlgebras, NotAUnit, Poly, RationalFunction, get_algebra,
)
from opfactor import algebras
from opfactor.parsing import parse_element, parse_operator

from helpers import (
    ALL_ALGEBRAS, C5, DIFF1, QUAT, QX, CountingQX, elements, rand_element, rand_unit,
)
import itertools
import operator
import random
import types


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_twist_law(algebra):
    rng = random.Random(2024)
    for _ in range(60):
        f = rand_element(rng, algebra)
        g = rand_element(rng, algebra)
        tw = algebra.twist(f)
        algebra.check(tw.p)
        algebra.check(tw.q)
        assert algebra.endo(f * g) == tw.p * algebra.endo(g) + tw.q * g


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_endo_is_additive(algebra):
    rng = random.Random(77)
    for _ in range(40):
        f = rand_element(rng, algebra)
        g = rand_element(rng, algebra)
        assert algebra.endo(f + g) == algebra.endo(f) + algebra.endo(g)


def test_derivation_not_multiplicative():
    x = QX.symbols()["x"]
    # (x*x)' = 2x but x' * x' = 1
    lhs = QX.endo(x * x)
    QX.check(lhs)
    assert lhs != QX.endo(x) * QX.endo(x)


def test_difference_endo_not_multiplicative():
    n = DIFF1.symbols()["n"]
    lhs = DIFF1.endo(n * n)
    DIFF1.check(lhs)
    assert lhs != DIFF1.endo(n) * DIFF1.endo(n)


def test_c5_endo_is_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        f = rand_element(rng, C5)
        g = rand_element(rng, C5)
        assert C5.endo(f * g) == C5.endo(f) * C5.endo(g)
    assert C5.endo_order == 4


def test_difference_endo_values():
    n = DIFF1.symbols()["n"]
    # c = 1: n maps to (n+1) + n = 2n + 1
    out = DIFF1.endo(n)
    assert out == n + n + DIFF1.one()

    d0 = get_algebra("diff", c=Fraction(0))
    assert d0.endo(d0.symbols()["n"]) == d0.symbols()["n"] + d0.one()


def test_difference_algebras_with_distinct_constants_are_distinct():
    assert get_algebra("diff", c=Fraction(1)) == DIFF1
    assert get_algebra("diff", c=Fraction(2)) != DIFF1
    assert DIFF1 != QX


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_try_invert_round_trip(algebra):
    rng = random.Random(99)
    for _ in range(60):
        f = rand_unit(rng, algebra)
        inv = algebra.try_invert(f)
        assert f * inv == algebra.one()
        assert inv * f == algebra.one()
    for _ in range(40):
        f = rand_element(rng, algebra, nonzero=True)
        try:
            inv = algebra.try_invert(f)
        except NotAUnit:
            continue
        assert f * inv == algebra.one()
    with pytest.raises(NotAUnit):
        algebra.try_invert(algebra.zero())


def test_membership_check_rejects_foreign_values():
    x = QX.symbols()["x"]
    with pytest.raises(MixedAlgebras):
        QUAT.check(x)
    with pytest.raises(MixedAlgebras):
        C5.check(x)
    with pytest.raises(MixedAlgebras):
        DIFF1.check(QX.one())  # wrong variable inside the payload


GENERATORS = ((QX, "x"), (QUAT, "x"), (DIFF1, "n"), (C5, "r"))

# (id, value): a generator of each algebra, and the polynomial x
OPERANDS = [(a.name, a.symbols()[name]) for a, name in GENERATORS]
POLY_X = ("poly", Poly.variable())
SCALARS = (("int", 1), ("fraction", Fraction(1, 2)))


@pytest.mark.parametrize(
    "left, right",
    list(itertools.permutations(OPERANDS, 2))
    + [
        pair
        for value in (OPERANDS[0], OPERANDS[2], POLY_X)
        for scalar in SCALARS
        for pair in ((value, scalar), (scalar, value))
    ],
    ids=lambda operand: operand[0],
)
def test_element_arithmetic_rejects_other_algebras(left, right):
    """The elements' own +, - and * refuse a value of another algebra:
    MixedAlgebras between the two rational function algebras, TypeError
    between different element types.  Poly and RationalFunction refuse an
    int or a Fraction on either side with TypeError, since a rational
    enters only through a constructor.  No element has /, and == is False
    for every pair."""
    a, b = left[1], right[1]
    error = MixedAlgebras if {left[0], right[0]} == {"qx", "diff"} else TypeError
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(error):
            op(a, b)
    with pytest.raises(TypeError):
        a / b
    assert not a == b

def test_c5_scalars_must_be_integral():
    assert C5.from_fraction(Fraction(3)) == C5.one() * C5.from_fraction(Fraction(3))
    with pytest.raises(ValueError, match="^1/2 is not integral, the group ring contains only integers$"):
        C5.from_fraction(Fraction(1, 2))


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_from_fraction_embeds_integers(algebra):
    two = algebra.from_fraction(Fraction(2))
    assert two == algebra.one() + algebra.one()


@given(st.data())
def test_format_parse_consistency_quat(data):
    q = data.draw(elements(QUAT))
    text = QUAT.format_element(q)
    assert isinstance(text, str) and text


def test_get_algebra_rejects_unknown():
    with pytest.raises(ValueError):
        get_algebra("octonion")


@pytest.mark.parametrize("selector", [["qx"], {"qx": 1}, None], ids=["list", "dict", "null"])
def test_get_algebra_rejects_selectors_that_are_not_strings(selector):
    # operator_from_json passes the JSON "algebra" value as it is
    with pytest.raises(ValueError, match="unknown algebra selector"):
        get_algebra(selector)


def test_selectors_name_their_algebras_in_cli_order():
    assert SELECTORS == ("qx", "quat", "diff", "c5")
    assert [get_algebra(s).name for s in SELECTORS] == list(SELECTORS)
    assert get_algebra("diff", Fraction(-1, 2)).c == Fraction(-1, 2)
    assert repr(get_algebra("diff", Fraction(-1, 2))) == "<algebra diff(c=-1/2)>"


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_the_one_check_accepts_the_algebras_own_constants(algebra):
    values = [algebra.zero(), algebra.one(), algebra.from_fraction(Fraction(-3))]
    for value in values + list(algebra.symbols().values()):
        algebra.check(value)
        assert type(value) is algebra.element and value.var == algebra.variable


@pytest.mark.parametrize(
    "algebra", ALL_ALGEBRAS + (DifferenceAlgebra(Fraction(-1, 2)), CountingQX()),
    ids=["qx", "quat", "diff", "c5", "diff-c=-1/2", "CountingQX"],
)
def test_constants_are_built_once_from_from_fraction(algebra):
    """zero() and one() are shared, also on a subclass whose __init__ does
    not call Algebra's, and are the embedded 0 and 1."""
    assert algebra.zero() is algebra.zero()
    assert algebra.one() is algebra.one()
    assert algebra.zero() == algebra.from_fraction(Fraction(0))
    assert algebra.one() == algebra.from_fraction(Fraction(1))


def test_constants_never_run_the_public_ratfunc_constructor(monkeypatch):
    """The rational function algebras build their constants and symbols
    through the trusted constructor, and quat takes its components from
    the one shared qx instance, so no constant reaches
    RationalFunction.__init__."""
    calls = []
    init = RationalFunction.__init__

    def spy(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(RationalFunction, "__init__", spy)
    for selector, c in [("qx", 1), ("diff", 1), ("diff", Fraction(-1, 2)), ("quat", 1)]:
        algebra = get_algebra(selector, Fraction(c))  # diff builds its c here
        algebra.from_fraction(Fraction(-3, 4)), algebra.zero(), algebra.one(), algebra.symbols()
    assert calls == []
    RationalFunction(Poly.one(), Poly.one(), "x")  # the spy sees the public constructor
    assert len(calls) == 1
    scalar, *imaginary = QUAT.zero().components
    assert scalar == algebras._QX.zero()
    assert all(comp is algebras._QX.zero() for comp in imaginary)


def test_check_needs_a_declared_element_class():
    """`element` has no default, so an algebra that does not declare it
    fails at its first check instead of accepting anything."""
    assert not hasattr(Algebra, "element")
    undeclared = types.SimpleNamespace(variable=None, describe=lambda: "undeclared")
    with pytest.raises(AttributeError, match="element"):
        Algebra.check(undeclared, C5.one())


@pytest.mark.parametrize(
    "algebra", ALL_ALGEBRAS + (DifferenceAlgebra(Fraction(-1, 2)),),
    ids=["qx", "quat", "diff", "c5", "diff-c=-1/2"],
)
def test_the_parser_from_fraction_and_symbols_share_one_table(algebra):
    """Each atom parses to its symbol, and each rational is the parse of
    its text: both go through the algebra's one builder."""
    symbols = algebra.symbols()
    assert symbols.keys() == algebra.atoms.keys()
    for name in algebra.atoms:
        assert parse_element(name, algebra) == symbols[name]
    for q in (Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(5)):
        if algebra is not C5 or q.denominator == 1:
            assert algebra.from_fraction(q) == parse_element(str(q), algebra)


def test_from_fraction_takes_what_fraction_takes():
    assert QX.from_fraction(0.5) == QX.from_fraction(Fraction(1, 2))


class _QX2(DifferentialRationalAlgebra):
    name = "qx2"


class _C52(GroupRingC5Algebra):
    name = "c52"


@pytest.mark.parametrize(
    "sub, base, kernel, text",
    [
        (_QX2(), QX, ["x", "x^2"], "x^2*D^2 - 2*x*D + 2"),
        (_C52(), C5, ["r^2"], "r*D^3 - 1"),
    ],
    ids=["qx", "c5"],
)
def test_a_subclass_with_its_own_name_parses_as_its_base(sub, base, kernel, text):
    """The parser reads the algebra's own atoms, period and builder, so a
    subclass that renames itself parses and builds kernels as its base."""
    assert parse_element(kernel[-1], sub) == parse_element(kernel[-1], base)
    assert parse_operator(text, sub).coeffs == parse_operator(text, base).coeffs
    ctx = KernelContext(sub, [parse_element(t, sub) for t in kernel])
    expected = KernelContext(base, [parse_element(t, base) for t in kernel])
    assert ctx.K.algebra is sub
    assert ctx.K.coeffs == expected.K.coeffs
