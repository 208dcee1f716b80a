"""Operator normal form, composition, and application."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import MixedAlgebras, Operator

from helpers import (
    ALL_ALGEBRAS,
    C5,
    DIFF1,
    QUAT,
    QX,
    CountingQX,
    assert_normal_form,
    dense_qx_operator,
    elements,
    operators,
    rand_element,
    rand_operator,
    ref_compose,
)


def test_normal_form_strips_trailing_zeros():
    op = Operator(QX, (QX.one(), QX.zero(), QX.zero()))
    assert op.coeffs == (QX.one(),)
    assert Operator(QX, (QX.zero(),)).is_zero()
    assert Operator.zero(QX).degree == float("-inf")
    assert Operator.identity(QX).degree == 0
    assert Operator.d(QX).degree == 1
    with pytest.raises(ValueError, match="^negative power$"):
        Operator.d(QX, -1)


def test_constructor_takes_an_iterator():
    x = QX.symbols()["x"]
    op = Operator(QX, (c for c in [x, QX.one()]))
    assert op == Operator(QX, (x, QX.one()))
    assert op.degree == 1


@pytest.mark.parametrize("operand", [1, QX.one()], ids=["int", "element"])
def test_foreign_operands_raise_type_error(operand):
    op = Operator.d(QX)
    with pytest.raises(TypeError):
        op + operand
    with pytest.raises(TypeError):
        op - operand
    with pytest.raises(TypeError):
        operand + op
    with pytest.raises(TypeError):
        operand - op


def test_leibniz_commutation():
    x = QX.symbols()["x"]
    d = Operator.d(QX)
    x_op = Operator.scalar(QX, x)
    # D after x equals x*D + 1
    left = d * x_op
    assert left == x_op * d + Operator.identity(QX)


def test_difference_commutation():
    n = DIFF1.symbols()["n"]
    d = Operator.d(DIFF1)
    n_op = Operator.scalar(DIFF1, n)
    shifted = Operator.scalar(DIFF1, n + DIFF1.one())
    # with c = 1 the twist remainder is n - (n+1) = -1, scaled by c
    expected = shifted * d + Operator.scalar(DIFF1, -DIFF1.one())
    assert d * n_op == expected


def test_c5_commutation():
    r = C5.symbols()["r"]
    d = Operator.d(C5)
    r_op = Operator.scalar(C5, r)
    r2_op = Operator.scalar(C5, r * r)
    assert d * r_op == r2_op * d


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_compose_matches_apply(algebra):
    rng = random.Random(800)
    for _ in range(30):
        a = rand_operator(rng, algebra, 2)
        b = rand_operator(rng, algebra, 3)
        f = rand_element(rng, algebra)
        lhs = (a * b).apply(f)
        algebra.check(lhs)
        assert lhs == a.apply(b.apply(f))


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_apply_is_additive(algebra):
    rng = random.Random(801)
    for _ in range(30):
        op = rand_operator(rng, algebra, 3)
        f = rand_element(rng, algebra)
        g = rand_element(rng, algebra)
        lhs = op.apply(f + g)
        algebra.check(lhs)
        assert lhs == op.apply(f) + op.apply(g)


@given(operators(QX, 3), operators(QX, 3), operators(QX, 3))
def test_ring_axioms_qx(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(operators(QUAT, 2), operators(QUAT, 2))
def test_degree_of_products(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).degree <= a.degree + b.degree


def test_quat_product_degree_is_exact():
    # leading coefficients are units here, so degrees add
    rng = random.Random(802)
    for _ in range(20):
        a = rand_operator(rng, QUAT, 2, monic=True)
        b = rand_operator(rng, QUAT, 2, monic=True)
        assert (a * b).degree == a.degree + b.degree


def test_c5_power_folding():
    d = Operator.d(C5)
    assert d * d * d * d == Operator.identity(C5)
    assert Operator.d(C5, 5) == d
    assert Operator.d(C5, 6) == d * d
    # representation is not folded, only equality is
    assert len(Operator.d(C5, 5).coeffs) == 6


def test_c5_folding_respects_coefficients():
    r = C5.symbols()["r"]
    lhs = Operator(C5, (C5.zero(),) * 5 + (r,))
    rhs = Operator(C5, (C5.zero(), r))
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


def test_cross_algebra_equality_raises():
    with pytest.raises(MixedAlgebras):
        Operator.d(QX) == Operator.d(DIFF1)
    with pytest.raises(MixedAlgebras):
        Operator.d(QX) * Operator.d(QUAT)


def test_scale_left():
    x = QX.symbols()["x"]
    op = Operator.d(QX) + Operator.identity(QX)
    scaled = op.scale_left(x)
    assert scaled == Operator.scalar(QX, x) * op


def test_apply_identity_and_d():
    x = QX.symbols()["x"]
    assert Operator.identity(QX).apply(x) == x
    assert Operator.d(QX).apply(x * x) == x + x


def test_format_round_examples():
    assert str(Operator.d(QX, 2)) == "D^2"
    assert str(Operator.zero(C5)) == "0"
    x = QX.symbols()["x"]
    op = Operator.d(QX, 2) - Operator.d(QX).scale_left(x)
    assert str(op) == "D^2 - x*D"


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@settings(max_examples=25)
@given(data=st.data())
def test_arithmetic_results_keep_the_normal_form(algebra, data):
    a = data.draw(operators(algebra, 2))
    b = data.draw(operators(algebra, 2))
    e = data.draw(elements(algebra))
    for result in (a + b, a - b, -a, a.compose(b), a.scale_left(e)):
        assert_normal_form(result)


def _stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@settings(max_examples=40)
@given(data=st.data())
def test_sums_and_scaling_match_the_per_coefficient_reference(algebra, data):
    # the operands mix zero and nonzero coefficients, including the zero
    # operator, so that each zero skipped is a zero the reference adds
    # or multiplies
    zero = algebra.zero()
    coeffs = st.one_of(st.just(zero), elements(algebra))
    sparse = st.lists(coeffs, max_size=4).map(lambda cs: Operator(algebra, cs))
    a, b = data.draw(sparse), data.draw(sparse)
    n = max(len(a.coeffs), len(b.coeffs))
    for e in (zero, data.draw(elements(algebra))):
        assert a.scale_left(e).coeffs == _stripped(e * c for c in a.coeffs)
    assert (a + b).coeffs == _stripped(a.coeff(i) + b.coeff(i) for i in range(n))
    assert (a - b).coeffs == _stripped(a.coeff(i) - b.coeff(i) for i in range(n))


# c5 goes past endo_order = 4, where == folds exponents but coeffs do not
_REF_DEGREES = {"qx": 3, "quat": 2, "diff": 3, "c5": 6}


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@settings(max_examples=40)
@given(data=st.data())
def test_compose_matches_the_per_coefficient_reference(algebra, data):
    a = data.draw(operators(algebra, _REF_DEGREES[algebra.name]))
    b = data.draw(operators(algebra, _REF_DEGREES[algebra.name]))
    zero = Operator.zero(algebra)
    for left, right in ((a, b), (b, a), (zero, b), (a, zero), (zero, zero)):
        assert left.compose(right).coeffs == ref_compose(left, right).coeffs


def test_compose_matches_the_reference_past_the_endo_order():
    r = C5.symbols()["r"]
    a = Operator(C5, (r, C5.zero(), r * r, C5.one(), -r, r, r * r * r))
    b = Operator(C5, (C5.one(), r) * 3)
    assert len(a.compose(b).coeffs) > C5.endo_order
    assert a.compose(b).coeffs == ref_compose(a, b).coeffs
    assert b.compose(a).coeffs == ref_compose(b, a).coeffs


def test_compose_advances_the_right_factor_once_per_power():
    algebra = CountingQX()
    a = dense_qx_operator(algebra, 4, "+")
    b = dense_qx_operator(algebra, 4, "-")
    n, m = len(a.coeffs), len(b.coeffs)
    algebra.twists = 0
    product = a.compose(b)
    # endo^i . b has m + i - 1 coefficients to twist for i = 1 .. n - 1:
    # 26 here, where pushing each coefficient of b on its own takes 50
    bound = (n - 1) * m + (n - 1) * (n - 2) // 2
    assert bound == 26
    assert algebra.twists <= bound
    assert product.coeffs == ref_compose(a, b).coeffs


def test_compose_takes_the_left_coefficient_where_the_right_one_is_one(monkeypatch):
    x, i = QUAT.symbols()["x"], QUAT.symbols()["i"]
    a = Operator(QUAT, (x, i))  # x + i*D
    d = Operator.d(QUAT)  # its coefficient of D is QUAT.one() itself
    expected = ref_compose(a, d)
    calls = []
    mul = type(x).__mul__

    def counted(p, q):
        calls.append((p, q))
        return mul(p, q)

    monkeypatch.setattr(type(x), "__mul__", counted)
    product = a.compose(d)
    assert calls == []
    monkeypatch.undo()
    assert product.coeffs == expected.coeffs
    assert product.coeffs[1] is x and product.coeffs[2] is i  # x*D + i*D^2
