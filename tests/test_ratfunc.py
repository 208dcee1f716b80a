from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import assume, example, given

from opfactor import MixedAlgebras, NotAUnit, Poly, RationalFunction
from opfactor.ratfunc import _cancelled

from helpers import (
    DIFF1,
    QX,
    factored_polys,
    factored_ratfuncs,
    polys,
    ratfuncs,
    ref_poly_compose,
    small_fractions,
)


def rf(num, den=(1,), var="x"):
    return RationalFunction(Poly(num), Poly(den), var)


def test_canonical_invariants():
    r = rf([0, 2], [0, 0, 4])  # 2x / 4x^2
    assert r.den.leading == 1
    assert Poly.gcd(r.num, r.den).degree <= 0
    assert r == rf([1], [0, 2])  # 1 / 2x
    z = rf([0], [0, 1])
    assert z.num == Poly() and z.den == Poly.one()


@given(polys(), polys(2))
def test_canonicalization_idempotent(n, d):
    assume(not d.is_zero())
    r = RationalFunction(n, d, "x")
    again = RationalFunction(r.num, r.den, "x")
    assert again.num == r.num and again.den == r.den


@given(polys(2), polys(2), polys(2), polys(2))
def test_equality_iff_cross_multiplication(a, b, c, d):
    assume(not b.is_zero() and not d.is_zero())
    left = RationalFunction(a, b, "x")
    right = RationalFunction(c, d, "x")
    assert (left == right) == (a * d == c * b)


@given(ratfuncs("x"), ratfuncs("x"), ratfuncs("x"))
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == QX.zero()


@given(ratfuncs("x"))
def test_inverse_roundtrip(r):
    if r.is_zero():
        with pytest.raises(NotAUnit):
            r.inverse()
        return
    assert r * r.inverse() == QX.one()
    assert r.inverse().inverse() == r


@given(ratfuncs("x"), ratfuncs("x"))
def test_derivative_product_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_derivative_quotient():
    r = rf([1], [0, 1])  # 1/x
    assert r.derivative() == rf([-1], [0, 0, 1])


@given(ratfuncs("n"), ratfuncs("n"))
def test_shift_is_multiplicative_and_additive(a, b):
    assert (a * b).shifted() == a.shifted() * b.shifted()
    assert (a + b).shifted() == a.shifted() + b.shifted()


def test_shift_moves_the_variable():
    n = DIFF1.symbols()["n"]
    one, two = DIFF1.one(), DIFF1.from_fraction(2)
    assert n.shifted() == n + one
    assert (n * n).shifted() == n * n + two * n + one


def test_mixed_variables_rejected():
    with pytest.raises(MixedAlgebras):
        QX.symbols()["x"] + DIFF1.symbols()["n"]


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rf([1], [0])


def test_constructor_takes_two_polys_and_a_variable():
    with pytest.raises(TypeError):
        RationalFunction(1)
    with pytest.raises(TypeError):
        RationalFunction(Poly([1]), Poly([1]))
    with pytest.raises(TypeError):
        RationalFunction(1, Poly([1]), "x")
    with pytest.raises(TypeError):
        RationalFunction(Poly([1]), Fraction(2), "x")


def test_display():
    assert str(rf([3], [0, 0, 1])) == "3/x^2"
    assert str(rf([Fraction(-3, 2)], [0, 1])) == "-3/(2*x)"
    assert str(rf([2, 2, 1], [0, 1, 1], "n")) == "(n^2 + 2*n + 2)/(n^2 + n)"
    assert str(rf([Fraction(3, 2)])) == "3/2"
    assert str(rf([0])) == "0"
    assert str(rf([1], [1, 1])) == "1/(x + 1)"
    # a constant denominator stays bare, a cleared non-monic one does not
    assert str(rf([0, Fraction(1, 2)])) == "x/2"
    assert str(rf([2], [1, 2])) == "2/(2*x + 1)"
    # a numerator of two terms is wrapped over a power, negative or not
    assert str(rf([1, 1], [0, 1])) == "(x + 1)/x"
    assert str(rf([-1, -1], [0, 1])) == "(-x - 1)/x"


# the arithmetic reaches the canonical form without the full constructor;
# each result must equal what the full constructor makes of the raw
# numerator and denominator, and meet the three invariants


def assert_canonical(r):
    assert r.den.leading == 1
    assert Poly.gcd(r.num, r.den) == Poly.one()
    if r.num.is_zero():
        assert r.den == Poly.one()


def assert_normalises(result, raw_num, raw_den, var="x"):
    full = RationalFunction(raw_num, raw_den, var)
    assert (result.num, result.den, result.var) == (full.num, full.den, full.var)
    assert_canonical(result)


@given(factored_ratfuncs("x"), factored_ratfuncs("x"))
def test_sum_difference_product_match_full_normalisation(p, q):
    a, b, c, d = p.num, p.den, q.num, q.den
    assert_normalises(p + q, a * d + c * b, b * d)
    assert_normalises(p - q, a * d - c * b, b * d)
    assert_normalises(p * q, a * c, b * d)


@given(factored_ratfuncs("n"))
def test_unary_operations_match_full_normalisation(p):
    a, b = p.num, p.den
    assert_normalises(-p, -a, b, "n")
    shift = Poly([1, 1])
    assert_normalises(p.shifted(), ref_poly_compose(a, shift), ref_poly_compose(b, shift), "n")
    if p.is_zero():
        return
    assert_normalises(p.inverse(), b, a, "n")


@example(QX.zero())
@example(QX.from_fraction(Fraction(-2, 3)))
@given(
    st.one_of(
        factored_ratfuncs("x"),
        factored_polys(allow_zero=True).map(lambda p: RationalFunction(p, Poly.one(), "x")),
        small_fractions.map(QX.from_fraction),
    )
)
def test_derivative_matches_full_normalisation(p):
    a, b = p.num, p.den
    assert_normalises(p.derivative(), a.derivative() * b - a * b.derivative(), b * b)


def test_derivative_of_a_polynomial_runs_no_gcd(monkeypatch):
    cubic, five, quotient = rf([1, 2, 3]), rf([5]), rf([1], [0, 1])
    zero = DIFF1.zero()
    calls = []
    gcd = Poly.gcd

    def counted(p, q):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counted))
    derivatives = [cubic.derivative(), five.derivative(), zero.derivative()]
    # 1/x: the gcd of x and its derivative 1 is read off the power of x
    assert quotient.derivative().den == Poly([0, 0, 1])  # -1/x^2
    assert calls == []
    monkeypatch.undo()
    assert derivatives == [rf([2, 6]), QX.zero(), zero]


def test_sum_with_constant_denominators():
    s = rf([1, 1]) + rf([0, 0, Fraction(1, 2)])
    assert (s.num, s.den) == (Poly([1, 1, Fraction(1, 2)]), Poly.one())
    assert_canonical(s)


def test_sum_with_coprime_denominators():
    s = rf([1], [0, 1]) + rf([1], [1, 1])  # 1/x + 1/(x + 1)
    assert (s.num, s.den) == (Poly([1, 2]), Poly([0, 1, 1]))
    assert_canonical(s)


def test_sum_with_a_shared_denominator_factor():
    # 1/(x(x+1)) + 1/(x(x-1)) = 2x / (x(x^2-1)): the shared x cancels
    s = rf([1], [0, 1, 1]) + rf([1], [0, -1, 1])
    assert (s.num, s.den) == (Poly([2]), Poly([-1, 0, 1]))
    assert_canonical(s)
    # 1/x + 1/x: a shared denominator, nothing left to cancel
    t = rf([1], [0, 1]) + rf([1], [0, 1])
    assert (t.num, t.den) == (Poly([2]), Poly([0, 1]))


def test_sum_that_cancels_to_zero():
    s = rf([1], [1, 1]) + rf([-1], [1, 1])
    assert (s.num, s.den) == (Poly(), Poly.one())
    # x/((x+1)(x+2)) = -1/(x+1) + 2/(x+2)
    t = rf([0, 1], [2, 3, 1]) + rf([1], [1, 1]) - rf([2], [2, 1])
    assert (t.num, t.den) == (Poly(), Poly.one())


def test_sum_that_cancels_runs_no_gcd(monkeypatch):
    # (x+2)/(x(x+1)) + (-x-2)/(x(x+1)): one denominator, and a + c is zero
    a, b = rf([2, 1], [0, 1, 1]), rf([-2, -1], [0, 1, 1])
    calls = []
    gcd = Poly.gcd

    def counted(p, q):
        calls.append((p, q))
        return gcd(p, q)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counted))
    s = a + b
    assert (s.num, s.den) == (Poly(), Poly.one()) and s.num is Poly.zero()
    assert calls == []


@example(rf([-12, 4], [0, 0, 0, 1]), Poly([12]))  # (4x - 12)/x^3 + 12/x^3 = 4/x^2
@example(rf([1], [0, 1, 2, 1]), Poly([-1]))  # over x(x + 1)^2, cancelling
@example(rf([1, 0, 1], [1, 2, 1]), Poly([0, 4, 2]))  # (3x + 1)(x + 1)/(x + 1)^2
@given(
    factored_ratfuncs("x"),
    st.builds(lambda f, p: f * p, factored_polys(allow_zero=True), polys(1).filter(bool)),
)
def test_sum_over_one_denominator_matches_full_normalisation(p, n):
    q = RationalFunction(n, p.den, "x")
    assume(q.den == p.den)
    a, b, c, d = p.num, p.den, q.num, q.den
    assert_normalises(p + q, a * d + c * b, b * d)
    assert_normalises(q + p, a * d + c * b, b * d)
    assert_normalises(p - q, a * d - c * b, b * d)


@example(Poly([0, 1]), 0, Poly([3, 1]), 2)  # x + (x + 3)/x^2
@example(Poly([1, 2]), 3, Poly([5]), 1)  # (2x + 1)/x^3 + 5/x
@given(polys(2).filter(bool), st.integers(0, 3), polys(2).filter(bool), st.integers(0, 3))
def test_sum_over_two_powers_of_x_matches_the_public_constructor(a, m, c, n):
    xm, xn = Poly([0] * m + [1]), Poly([0] * n + [1])
    p, q = RationalFunction(a, xm, "x"), RationalFunction(c, xn, "x")
    assert_normalises(p + q, a * xn + c * xm, xm * xn)


@pytest.mark.parametrize(
    "den",
    [[0, 0, 0, 1], [0, 1, 2, 1], [1, 0, 2, 0, 1]],
    ids=["x^3", "x(x+1)^2", "(x^2+1)^2"],
)
@pytest.mark.parametrize("num", [[1], [Fraction(-2, 3), 0, 5], [3, 1, 0, 0, 7]])
def test_derivative_over_a_repeated_factor_matches_full_normalisation(num, den):
    p = rf(num, den)
    a, b = p.num, p.den
    assert_normalises(p.derivative(), a.derivative() * b - a * b.derivative(), b * b)


def test_product_that_cross_cancels_on_both_sides():
    left = rf([0, -1, 1], [1, 1])  # x(x - 1) / (x + 1)
    right = rf([2, 3, 1], [0, 1])  # (x + 1)(x + 2) / x
    p = left * right
    assert (p.num, p.den) == (Poly([-2, 1, 1]), Poly.one())  # (x - 1)(x + 2)
    assert_canonical(p)


@pytest.mark.parametrize(
    "left, right, product",
    [
        (rf([-1, 0, 1]), rf([1], [2, 1]), rf([-1, 0, 1], [2, 1])),  # (x^2 - 1) * 1/(x + 2)
        (rf([0, 1]), rf([0, 1]), rf([0, 0, 1])),  # x * x
    ],
)
def test_product_with_a_left_denominator_of_one_reuses_the_right(left, right, product):
    result = left * right
    assert result.den is right.den
    # a numerator 1 makes no product: the result keeps the other numerator
    if right.num == Poly.one():
        assert result.num is left.num
    assert result == product


def test_factors_equal_to_one_make_no_poly_product():
    x, frac = rf([0, 1]), rf([1], [1, 1])  # x and 1/(x + 1)
    s = x + frac  # (x*(x + 1) + 1*1) / (1*(x + 1))
    p = rf([1]) * frac  # (1*1) / (x + 1)
    # a product with a factor 1 is the other factor itself
    assert s.den is frac.den
    assert p.num is frac.num and p.den is frac.den
    assert s == rf([1, 1, 1], [1, 1]) and p == frac
    assert_canonical(s)


def test_inverse_makes_the_new_denominator_monic():
    r = rf([1, 1], [0, 1]) * QX.from_fraction(Fraction(-2, 3))
    inv = r.inverse()
    assert (inv.num, inv.den) == (Poly([0, Fraction(-3, 2)]), Poly([1, 1]))
    assert_canonical(inv)


@given(ratfuncs("x"))
def test_subtracting_zero_returns_the_left_operand(a):
    assert a - QX.zero() is a
    with pytest.raises(MixedAlgebras):  # the variable is checked first
        a - DIFF1.zero()


# the one pair reduction against c*x^m: the gcd is x^min(m, v), v the
# index of p's first nonzero coefficient, so no gcd is taken

def test_a_product_by_a_power_of_x_over_p_with_p0_nonzero_runs_no_gcd(monkeypatch):
    p, c = rf([3, 1]), rf([2], [0, 0, 1])  # (x + 3)/1 and 2/x^2
    shared = rf([0, 1, 1])  # x(x + 1), zero at 0
    calls = []
    gcd = Poly.gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", staticmethod(counted))
    product = p * c
    cancelled = shared * c  # x(x + 1) against x^2: x is sliced off both
    assert calls == []
    monkeypatch.undo()
    assert product == rf([6, 2], [0, 0, 1])
    assert cancelled == rf([2, 2], [0, 1])
    assert_canonical(product)
    assert_canonical(cancelled)


x_powers = st.builds(
    lambda c, m: Poly([0] * m + [c]),
    small_fractions.filter(bool),
    st.integers(1, 3),
)


@example(Poly([0, 1, 1]), Poly([0, 0, 1]))  # x(x + 1) against x^2: p(0) = 0
@example(Poly([0, 0, 2]), Poly([0, 0, 0, 3]))  # 2x^2 against 3x^3
@example(Poly([1, 1]), Poly([0, 0, 1]))  # x + 1 against x^2: coprime
@given(
    st.builds(lambda f, m: f * Poly([0] * m + [1]), polys(2).filter(bool), st.integers(0, 2)),
    st.one_of(x_powers, polys(2).filter(bool)),
)
def test_cancelled_matches_the_full_gcd_reduction(p, q):
    g = Poly.gcd(p, q)
    assert _cancelled(p, q) == (p // g, q // g)
