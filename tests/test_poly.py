import random
from fractions import Fraction
from math import gcd, isqrt

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given

import opfactor.poly as poly_module
from opfactor import Poly, RationalFunction
from opfactor.poly import _heuristic_gcd, _prs_gcd, _pseudo_divide

from helpers import RefPoly, factored_polys, polys, ref_poly_compose, small_fractions


def test_normal_form_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().is_zero()
    assert Poly([0]).degree == -1
    assert Poly([5]).degree == 0
    assert Poly([5]).coeff(1) == Poly([5]).coeff(-1) == 0


def test_basic_arithmetic():
    p = Poly([1, 1])  # 1 + x
    assert p * p == Poly([1, 2, 1])
    assert p + p == Poly([2, 2])
    assert p - p == Poly()
    assert -p == Poly([-1, -1])
    assert p * Poly.constant(0) == Poly()
    assert p * p * p == Poly([1, 3, 3, 1])
    assert Poly.constant(2) * p == Poly([2, 2])


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
    assert divmod(a * g, d)[1].is_zero()
    assert divmod(b * g, d)[1].is_zero()
    if not g.is_zero():
        assert divmod(d, g)[1].is_zero()  # common factor survives


def test_monic():
    assert Poly([2, 4]).monic() == Poly([Fraction(1, 2), 1])
    assert Poly().monic() == Poly()


@given(polys(), polys())
def test_derivative_product_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_compose_and_shift():
    p = Poly([0, 0, 1])  # x^2
    assert p.shifted() == Poly([1, 2, 1])
    assert ref_poly_compose(p, Poly([0, 2])) == Poly([0, 0, 4])
    assert ref_poly_compose(Poly([1, 1]), Poly()) == Poly([1])


def test_format():
    # a polynomial prints as a rational function over 1, which is not printed
    def fmt(p, var):
        return str(RationalFunction(p, Poly.one(), var))

    assert fmt(Poly([1, 2, 1]), "n") == "n^2 + 2*n + 1"
    assert fmt(Poly([0, -1]), "x") == "-x"
    assert fmt(Poly([Fraction(3, 2)]), "x") == "3/2"
    assert fmt(Poly(), "x") == "0"
    f = fmt(Poly([0, 0, 2]), "x")
    assert f == "2*x^2"


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
    results += [*divmod(a, one), one.monic(), a + one, one - a, -zero]
    for r in results:
        assert_stored_canonically(r)
    assert zero.coeffs == () and one.coeffs == (1,)
    assert a + zero == a and a * one == a and a * zero == zero
    if a and a != one:  # a product with 1 returns the other factor itself
        assert a * one is a and one * a is a


def test_cancelling_sum_strips_to_zero():
    p = Poly([Fraction(1, 2), 3, Fraction(-2, 3)])
    assert_stored_canonically(p - p)
    assert (p - p).coeffs == () and (p + (-p)).degree == -1
    assert (Poly([1, 2, 3]) + Poly([0, 0, -3])).coeffs == (1, 2)


@given(polys(4))
def test_shift_matches_substitution(p):
    assert p.shifted() == ref_poly_compose(p, Poly([1, 1]))


# the integer form: content cnum/cden times a primitive integer tuple


def assert_primitive_form(p):
    """The stored fields are the unique integer form of p's value."""
    assert type(p.cnum) is int and type(p.cden) is int
    assert all(type(c) is int for c in p.prim)
    if not p.prim:
        assert (p.cnum, p.cden) == (0, 1)
        return
    assert gcd(*p.prim) == 1 and p.prim[-1] > 0
    assert p.cnum != 0 and p.cden > 0 and gcd(p.cnum, p.cden) == 1
    assert p.coeffs == tuple(Fraction(p.cnum * c, p.cden) for c in p.prim)


def _results(a, b):
    out = [a + b, a - b, b - a, a * b, -a, a.monic(), a.derivative(), a.shifted()]
    if not b.is_zero():
        out += [*divmod(a, b), Poly.gcd(a, b)]
    return out


@given(polys(3), polys(2))
def test_arithmetic_results_keep_the_integer_form(a, b):
    for p in _results(a, b):
        assert_primitive_form(p)
        # arithmetic builds no zero of its own
        if p.is_zero():
            assert p is Poly.zero() or p is a or p is b


@given(polys(3))
def test_constructor_takes_the_content_out(a):
    assert_primitive_form(a)
    assert Poly(a.coeffs) == a
    assert Poly([c * 6 for c in a.coeffs]).prim == a.prim


def test_shared_zero_and_one_hold_the_integer_form():
    zero, one = Poly.zero(), Poly.one()
    assert (zero.prim, zero.cnum, zero.cden) == ((), 0, 1)
    assert (one.prim, one.cnum, one.cden) == ((1,), 1, 1)
    assert Poly([Fraction(-3, 4), Fraction(3, 2)]).prim == (-1, 2)
    assert Poly([Fraction(-3, 4), Fraction(3, 2)]).cnum == 3
    assert Poly([Fraction(-3, 4), Fraction(3, 2)]).cden == 4
    assert Poly([2, -4]).prim == (-1, 2) and Poly([2, -4]).cnum == -2
    x = Poly.variable()
    assert Poly.gcd(x + one, x - one) is one and Poly.gcd(x, Poly([3])) is one
    assert x - x is zero and divmod(x, x)[1] is zero and x * Poly.constant(0) is zero


@given(polys(3), polys(2))
def test_arithmetic_matches_the_fraction_reference(a, b):
    ra, rb = RefPoly(a.coeffs), RefPoly(b.coeffs)
    assert (a + b).coeffs == (ra + rb).coeffs
    assert (a - b).coeffs == (ra - rb).coeffs
    assert (a * b).coeffs == (ra * rb).coeffs
    assert a.monic().coeffs == ra.monic().coeffs
    assert a.shifted().coeffs == ra.shifted().coeffs
    assert a.derivative().coeffs == ra.derivative().coeffs
    if not b.is_zero():
        q, r = divmod(a, b)
        rq, rr = divmod(ra, rb)
        assert (q.coeffs, r.coeffs) == (rq.coeffs, rr.coeffs)
        assert Poly.gcd(a, b).coeffs == RefPoly.gcd(ra, rb).coeffs


@given(factored_polys(allow_zero=True), factored_polys(allow_zero=True), polys(1))
def test_gcd_matches_the_fraction_reference(a, b, c):
    a, b = a * c, b * (c + Poly.one())
    expected = RefPoly.gcd(RefPoly(a.coeffs), RefPoly(b.coeffs))
    assert Poly.gcd(a, b).coeffs == expected.coeffs
    assert Poly.gcd(b, a).coeffs == expected.coeffs


def test_gcd_of_degree_8_with_200_bit_coefficients():
    rng = random.Random(8)

    def big(degree):
        top = 2 ** 100
        return Poly([rng.randrange(-top, top) for _ in range(degree)] + [top - rng.randrange(100)])

    g, u, v = big(3), big(5), big(5)
    a, b = g * u, g * v
    assert a.degree == b.degree == 8
    assert 195 < max(abs(c) for c in a.prim).bit_length() <= 205
    expected = RefPoly.gcd(RefPoly(a.coeffs), RefPoly(b.coeffs))
    d = Poly.gcd(a, b)
    assert d.coeffs == expected.coeffs
    assert d == g.monic()  # u and v are coprime for this seed
    assert divmod(a, d)[1].is_zero() and divmod(b, d)[1].is_zero()


def test_pseudo_division_rescales_when_the_lead_does_not_divide():
    a = Poly([1, 1, 0, 1])  # x^3 + x + 1
    b = Poly([3, 0, 2])  # 2x^2 + 3
    quot, rem, scale = _pseudo_divide(a.prim, b.prim)
    assert scale == 2 and quot == [0, 1] and rem == [2, -1]  # 2a = x*b + (2 - x)
    q, r = divmod(a, b)
    assert q == Poly([0, Fraction(1, 2)]) and r == Poly([1, Fraction(-1, 2)])
    # several rescaled steps, and a lead that shares a factor with them
    a = Poly([7, -5, 3, 0, 11, 4])
    b = Poly([5, 2, 6])
    quot, rem, scale = _pseudo_divide(a.prim, b.prim)
    assert scale > 1 and Poly(quot) * Poly(b.prim) + Poly(rem) == Poly(a.prim) * Poly.constant(scale)
    q, r = divmod(a, b)
    rq, rr = divmod(RefPoly(a.coeffs), RefPoly(b.coeffs))
    assert (q.coeffs, r.coeffs) == (rq.coeffs, rr.coeffs)
    assert q * b + r == a and r.degree < b.degree


def test_exact_division_never_rescales():
    g, u = Poly([7, 2, 3]), Poly([2, -1, 0, 5])  # 3x^2 + 2x + 7, 5x^3 - x + 2
    quot, rem, scale = _pseudo_divide((g * u).prim, g.prim)
    assert scale == 1 and not any(rem)
    assert (g * u) // g == u


def x_power(m, c=1):
    """c * x^m."""
    return Poly([0] * m + [c])


@example(Poly([0, 0, 3, 1]), 0, Fraction(-2, 3), 2)  # exact, negative c
@example(Poly([1, 0, 3]), 0, Fraction(5), 1)  # a low coefficient 1: divmod runs
@example(Poly(), 0, Fraction(-1), 2)
@given(
    factored_polys(allow_zero=True),
    st.integers(0, 3),
    small_fractions.filter(bool),
    st.integers(0, 3),
)
def test_floor_division_by_a_power_of_x_matches_divmod(p, j, c, m):
    dividend, divisor = p * x_power(j), x_power(m, c)
    q = dividend // divisor
    assert q == divmod(dividend, divisor)[0]
    assert_primitive_form(q)
    if j >= m:
        assert q * divisor == dividend
    if q.is_zero():
        assert q is Poly.zero()


@pytest.fixture
def pseudo_divisions(monkeypatch):
    """The argument pairs handed to _pseudo_divide."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return _pseudo_divide(a, b)

    monkeypatch.setattr(poly_module, "_pseudo_divide", counted)
    return calls


def test_floor_division_by_a_power_of_x_divides_nothing(pseudo_divisions):
    p = Poly([0, 0, Fraction(-3, 2), 0, 4])  # 4x^4 - 3/2 x^2
    quotients = [p // x_power(m, c) for m in (0, 1, 2) for c in (1, Fraction(-2, 7))]
    assert pseudo_divisions == []
    assert quotients[4] == Poly([Fraction(-3, 2), 0, 4])  # p // x^2
    assert quotients[5] == Poly([Fraction(21, 4), 0, -14])  # p // (-2/7 x^2)
    # x^3 does not divide p: the quotient is divmod's, by pseudo-division
    assert p // x_power(3) == Poly([0, 4])
    assert pseudo_divisions == [(p.prim, x_power(3).prim)]


# the gcd's steps: power of x, GCDHEU, and the primitive PRS as fallback

int_coeffs = st.one_of(st.integers(-3, 3), st.integers(-10 ** 9, 10 ** 9))


def int_polys(max_deg):
    return st.lists(int_coeffs, min_size=1, max_size=max_deg + 1).map(Poly)


@pytest.fixture
def prs_calls(monkeypatch):
    """The argument pairs the gcd hands to its PRS fallback."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return _prs_gcd(a, b)

    monkeypatch.setattr(poly_module, "_prs_gcd", counted)
    return calls


@given(int_polys(3), int_polys(3), int_polys(2))
def test_gcd_with_a_planted_factor_matches_the_fraction_reference(u, v, g):
    a, b = u * g, v * g
    expected = RefPoly.gcd(RefPoly(a.coeffs), RefPoly(b.coeffs))
    assert Poly.gcd(a, b).coeffs == expected.coeffs
    assert Poly.gcd(b, a).coeffs == expected.coeffs


@given(int_polys(3), int_polys(3), int_polys(2))
def test_a_heuristic_gcd_equals_the_prs_gcd(u, v, g):
    a, b = (u * g).prim, (v * g).prim
    if len(a) < len(b):
        a, b = b, a
    assume(len(b) >= 2 and a != b)
    found = _heuristic_gcd(a, b)
    if found is not None:
        assert found == _prs_gcd(a, b)


def test_gcd_coefficients_may_exceed_both_norms(prs_calls):
    a = Poly([-1, -1, 1, 1])  # (x - 1)(x + 1)^2
    b = Poly([1, 1, 0, 1, 1])  # (x + 1)^2 (x^2 - x + 1)
    assert Poly.gcd(a, b) == Poly([1, 2, 1]) == Poly.gcd(b, a)
    assert prs_calls == []


def test_gcd_with_coefficients_above_2_to_the_200(prs_calls):
    rng = random.Random(200)

    def big(degree):
        top = 2 ** 100
        return Poly([rng.randrange(-top, top) for _ in range(degree)] + [top + rng.randrange(top)])

    g, u, v = big(2), big(3), big(3)
    a, b = g * u, g * v
    norms = [max(map(abs, p.prim)) for p in (a, b)]
    assert min(norms) >= 2 ** 200
    # the evaluation point of sympy's dup_zz_heu_gcd would be below 2 * min + 2
    low = 2 * min(norms) + 29
    low = max(min(low, 99 * isqrt(low)), 2 * min(n // p.prim[-1] for n, p in zip(norms, (a, b))) + 2)
    assert low < 2 * min(norms) + 2
    assert Poly.gcd(a, b) == g.monic()  # u and v are coprime for this seed
    one = Poly.one()
    for p, q in [(a, b), (a * (g + one), b * (g - one)), (a * v, v * (g + one)), (u, v)]:
        expected = RefPoly.gcd(RefPoly(p.coeffs), RefPoly(q.coeffs))
        assert Poly.gcd(p, q).coeffs == expected.coeffs
    assert prs_calls == []


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 1]),  # x^3, x^5 (x + 1)
        ([0, 1], [0, 1, 3], [0, 1]),  # x, 3x^2 + x
        ([0, 0, 1], [0, 0, 0, 0, 0, 1], [0, 0, 1]),  # x^2, x^5
        ([0, 0, 0, 1], [1, 0, 2], [1]),  # x^3, 2x^2 + 1
        ([0, 0, Fraction(1, 2)], [0, 0, 0, 5, -2], [0, 0, 1]),
    ],
)
def test_gcd_with_a_power_of_x(a, b, expected, prs_calls):
    a, b = Poly(a), Poly(b)
    assert Poly.gcd(a, b) == Poly(expected) == Poly.gcd(b, a)
    assert prs_calls == []


def test_gcd_falls_back_to_the_prs_when_the_candidate_does_not_divide(prs_calls):
    # xi = 2 * 7 + 29 = 43 and igcd(4 * 43 - 7, 10 * 43 - 1) = igcd(165, 429)
    # = 33 > 43 / 2, which reads in base 43 as x - 10, a divisor of neither
    a, b = Poly([-7, 4]), Poly([-1, 10])
    assert _heuristic_gcd(a.prim, b.prim) is None
    assert Poly.gcd(a, b) is Poly.one()
    assert prs_calls == [(a.prim, b.prim)]


# the packing pair: cs(2^s) and its symmetric base-2^s digits


@pytest.mark.parametrize("s", [2, 3, 31, 64, 65])
def test_packed_round_trip_at_the_edge_of_the_bound(s):
    h = 2 ** (s - 1) - 1  # the largest modulus the bound allows
    for cs in ([h], [-h], [h, -h, h], [-h, h, -h, h], [0, 0, h], [-h, 0, 0, -h], [h] * 7,
               [1, -h, 0, h - 1, -1]):
        v = poly_module._packed(cs, s)
        assert v == sum(c * 2 ** (s * i) for i, c in enumerate(cs))
        assert poly_module._unpacked(v, s) == cs
    assert poly_module._packed([], s) == 0 and poly_module._unpacked(0, s) == []


@given(st.integers(2, 80), st.data())
def test_packed_round_trip_inside_the_bound(s, data):
    h = 2 ** (s - 1) - 1
    cs = data.draw(st.lists(st.integers(-h, h), max_size=8))
    while cs and not cs[-1]:
        cs.pop()
    assert poly_module._unpacked(poly_module._packed(cs, s), s) == cs


@given(st.integers(2, 80), st.integers(-(2 ** 300), 2 ** 300))
def test_unpacked_digits_always_pack_back(s, v):
    # any integer, bound or not: the digits are symmetric and exact
    digits = poly_module._unpacked(v, s)
    assert poly_module._packed(digits, s) == v
    assert all(abs(d) <= 2 ** (s - 1) for d in digits)
    assert not digits or digits[-1]
