from fractions import Fraction

import pytest
from hypothesis import given

from opfactor import Poly

from helpers import polys, small_fractions


def test_normal_form_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().is_zero()
    assert Poly([0]).degree == -1
    assert Poly([5]).degree == 0


def test_basic_arithmetic():
    p = Poly([1, 1])  # 1 + x
    assert p * p == Poly([1, 2, 1])
    assert p + p == Poly([2, 2])
    assert p - p == Poly()
    assert -p == Poly([-1, -1])
    assert p * 0 == Poly()
    assert p ** 3 == Poly([1, 3, 3, 1])
    assert 2 * p == Poly([2, 2])


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a + b == b + a


@given(polys(3), polys(2))
def test_divmod_is_exact(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys(2), polys(2), polys(1))
def test_gcd_divides_both(a, b, g):
    d = Poly.gcd(a * g, b * g)
    if d.is_zero():
        assert (a * g).is_zero() and (b * g).is_zero()
        return
    assert d.leading == 1
    assert ((a * g) % d).is_zero()
    assert ((b * g) % d).is_zero()
    if not g.is_zero():
        assert (d % g).is_zero()  # common factor survives


def test_monic():
    assert Poly([2, 4]).monic() == Poly([Fraction(1, 2), 1])
    assert Poly().monic() == Poly()


@given(polys(), polys())
def test_derivative_product_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_compose_and_shift():
    p = Poly([0, 0, 1])  # x^2
    assert p.shifted() == Poly([1, 2, 1])
    assert p.compose(Poly([0, 2])) == Poly([0, 0, 4])
    assert Poly([1, 1]).compose(Poly()) == Poly([1])


@given(polys(), small_fractions)
def test_evaluate_matches_compose(p, v):
    assert p.evaluate(v) == p.compose(Poly([v])).coeff(0)


def test_format():
    assert Poly([1, 2, 1]).fmt("n").text == "n^2 + 2*n + 1"
    assert Poly([0, -1]).fmt("x").text == "-x"
    assert Poly([Fraction(3, 2)]).fmt("x").text == "3/2"
    assert Poly().fmt("x").text == "0"
    f = Poly([0, 0, 2]).fmt("x")
    assert f.text == "2*x^2" and not f.is_sum


def assert_stored_canonically(p):
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


@given(polys(3), polys(2))
def test_arithmetic_results_are_stored_canonically(a, b):
    for result in (a + b, a - b, b - a, a * b, -a, a.monic(), a.derivative(), a.shifted()):
        assert_stored_canonically(result)
    if not b.is_zero():
        q, r = divmod(a, b)
        assert_stored_canonically(q)
        assert_stored_canonically(r)
        assert_stored_canonically(Poly.gcd(a, b))


@given(polys(2))
def test_arithmetic_leaves_the_shared_zero_and_one_alone(a):
    zero, one = Poly.zero(), Poly.one()
    assert zero is Poly.zero() and one is Poly.one()
    results = [a + zero, zero + a, a - zero, zero - a, a * one, one * a, a * zero]
    results += [*divmod(a, one), one.monic(), a ** 0, a + one, one - a, -zero]
    for r in results:
        assert_stored_canonically(r)
    assert zero.coeffs == () and one.coeffs == (1,)
    assert a + zero == a and a * one == a and a * zero == zero


def test_cancelling_sum_strips_to_zero():
    p = Poly([Fraction(1, 2), 3, Fraction(-2, 3)])
    assert_stored_canonically(p - p)
    assert (p - p).coeffs == () and (p + (-p)).degree == -1
    assert (Poly([1, 2, 3]) + Poly([0, 0, -3])).coeffs == (1, 2)


@given(polys(4))
def test_shift_matches_substitution(p):
    assert p.shifted() == p.compose(Poly([1, 1]))
