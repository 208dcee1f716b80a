"""Integer group ring of the cyclic group of order five."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opfactor import GroupRingC5Element, NotAUnit, get_algebra

from helpers import c5_elements, c5_power, ref_c5_mul


def elem(*coeffs):
    return GroupRingC5Element(tuple(coeffs) + (0,) * (5 - len(coeffs)))


ONE = elem(1)
RHO = elem(0, 1)


def test_multiplication_is_cyclic_convolution():
    assert RHO * RHO == elem(0, 0, 1)
    assert elem(0, 0, 0, 1) * elem(0, 0, 1) == ONE  # r^3 * r^2 = r^5 = 1
    assert elem(1, 1) * elem(1, -1) == elem(1, 0, -1)


@given(c5_elements(), c5_elements(), c5_elements())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


BIG = 2 ** 80


def c5_operands():
    """Elements with sparse coefficients of up to 80 bits, and the zero,
    the one and the group elements r^e among them."""
    coeff = st.one_of(st.just(0), st.integers(-BIG, BIG))
    return st.one_of(
        st.sampled_from([elem()] + [c5_power(e) for e in range(5)]),
        st.builds(GroupRingC5Element, st.tuples(*(coeff for _ in range(5)))),
    )


@given(c5_operands(), c5_operands())
def test_arithmetic_matches_the_dense_reference(a, b):
    pairs = list(zip(a.coeffs, b.coeffs))
    cases = [
        (a * b, ref_c5_mul(a, b).coeffs),
        (a + b, tuple(x + y for x, y in pairs)),
        (a - b, tuple(x - y for x, y in pairs)),
        (-a, tuple(-x for x in a.coeffs)),
    ]
    for got, want in cases:
        assert type(got) is GroupRingC5Element
        assert got.coeffs == want
        assert len(got.coeffs) == 5 and all(type(c) is int for c in got.coeffs)
        assert got == GroupRingC5Element(got.coeffs)


def test_exponent_squaring_permutes_coefficients():
    g = elem(10, 11, 12, 13, 14)
    # coefficient of r^e moves to r^(2e mod 5)
    assert g.scale_exponents(2) == elem(10, 13, 11, 14, 12)


def test_exponent_squaring_has_order_four():
    g = elem(3, -1, 4, 1, -5)
    h = g
    for _ in range(4):
        h = h.scale_exponents(2)
    assert h == g
    assert g.scale_exponents(2) != g


@given(c5_elements(), c5_elements())
def test_exponent_squaring_is_a_ring_map(a, b):
    assert (a * b).scale_exponents(2) == a.scale_exponents(2) * b.scale_exponents(2)
    assert (a + b).scale_exponents(2) == a.scale_exponents(2) + b.scale_exponents(2)


@given(c5_elements())
def test_exponent_scaling_matches_the_loop_definition(a):
    for m in range(1, 5):
        out = [0] * 5
        for e, c in enumerate(a.coeffs):
            out[e * m % 5] += c
        assert a.scale_exponents(m).coeffs == tuple(out)


def test_inverse_round_trips_on_units():
    u = elem(-1, -1, 0, 1)
    for k, e, sign in itertools.product(range(4), range(5), (1, -1)):
        g = c5_power(e) if sign > 0 else -c5_power(e)
        for _ in range(k):
            g = g * u
        assert g * g.inverse() == ONE
        assert g.inverse().inverse() == g


def test_trivial_units():
    for e in range(5):
        g = GroupRingC5Element(tuple(1 if i == e else 0 for i in range(5)))
        assert g * g.inverse() == ONE
        assert (-g) * (-g).inverse() == ONE


def test_nontrivial_unit():
    u = elem(-1, -1, 0, 1)
    v = elem(0, -1, 1, -1)
    assert u * v == ONE
    assert u.inverse() == v
    assert v.inverse() == u


def test_known_nonunits():
    with pytest.raises(NotAUnit):
        elem(1, 1).inverse()  # 1 + r has augmentation 2
    with pytest.raises(NotAUnit):
        elem(2).inverse()
    with pytest.raises(NotAUnit):
        elem(0).inverse()
    with pytest.raises(NotAUnit):
        elem(1, 1, 1, 1, 1).inverse()


def _inverse_by_elimination(g):
    """Reference inverse: solve (multiplication by g) * y = 1 exactly over
    the rationals; None when the system is singular or y is not integral."""
    # column j of the system matrix holds the coordinates of g * r^j
    m = [[Fraction(g.coeffs[(i - j) % 5]) for j in range(5)] for i in range(5)]
    rhs = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    for col in range(5):
        piv = next((r for r in range(col, 5) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [e * inv for e in m[col]]
        rhs[col] *= inv
        for r in range(5):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [e - factor * p for e, p in zip(m[r], m[col])]
                rhs[r] -= factor * rhs[col]
    if any(v.denominator != 1 for v in rhs):
        return None
    return GroupRingC5Element(tuple(int(v) for v in rhs))


def test_inverse_against_exhaustive_search():
    # every element with coefficients in {-2..2}: inverse() must agree
    # with the elimination reference on who is invertible and on the inverse
    box = range(-2, 3)
    units = 0
    for coeffs in itertools.product(box, repeat=5):
        g = GroupRingC5Element(coeffs)
        expected = _inverse_by_elimination(g)
        try:
            inv = g.inverse()
        except NotAUnit:
            assert expected is None, coeffs
            continue
        assert g * inv == ONE
        assert inv * g == ONE
        assert inv == expected, coeffs
        units += 1
    assert units > 10  # the trivial units +-r^e alone are ten


@given(c5_elements(), c5_elements())
def test_inverse_consistency(a, b):
    try:
        ia = a.inverse()
    except NotAUnit:
        return
    assert a * ia == ONE
    assert (a * a).inverse() == ia * ia


def test_display():
    assert str(elem(1, 2)) == "1 + 2*r"
    assert str(elem(0, 0, -1)) == "-r^2"
    assert str(elem(0)) == "0"
    assert str(elem(-1, 0, 0, 0, 2)) == "-1 + 2*r^4"


@pytest.mark.parametrize("bad", [Fraction(1, 2), 2.9, "3"], ids=repr)
def test_constructor_refuses_non_integers(bad):
    with pytest.raises(TypeError):
        GroupRingC5Element((bad, 0, 0, 0, 0))


def test_constructor_accepts_ints_and_bools():
    g = GroupRingC5Element((True, 2, False, -1, 0))
    assert g == elem(1, 2, 0, -1)
    assert all(type(c) is int for c in g.coeffs)
    with pytest.raises(ValueError):
        GroupRingC5Element((1, 2, 3, 4))
    with pytest.raises(ValueError, match="not integral"):
        get_algebra("c5").from_fraction(Fraction(1, 2))


def test_foreign_operands_raise_type_error():
    with pytest.raises(TypeError):
        ONE * 2
    with pytest.raises(TypeError):
        ONE + 1
    with pytest.raises(TypeError):
        ONE - Fraction(1)
    # subtraction refuses a foreign operand itself, not through + or unary -
    with pytest.raises(TypeError, match="for -:"):
        RHO - 1
    with pytest.raises(TypeError, match="for -:"):
        RHO - "x"
