"""Quaternion arithmetic over the rational function scalars."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from opfactor import MixedAlgebras, NotAUnit, Quaternion, RationalFunction

from helpers import quaternions, ratfuncs, ref_quat_inverse, ref_quat_mul


def scalar(value):
    return Quaternion.scalar(RationalFunction.constant(value, "x"))


def unit(which):
    if which == "1":
        return Quaternion.one("x")
    return Quaternion.unit(which, "x")


HAMILTON = {
    ("i", "i"): (-1, "1"),
    ("j", "j"): (-1, "1"),
    ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"),
    ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"),
    ("k", "j"): (-1, "i"),
    ("k", "i"): (1, "j"),
    ("i", "k"): (-1, "j"),
}


def test_hamilton_table():
    for (left, right), (sign, result) in HAMILTON.items():
        assert unit(left) * unit(right) == scalar(sign) * unit(result)
    for name in "1ijk":
        assert unit("1") * unit(name) == unit(name)
        assert unit(name) * unit("1") == unit(name)


@given(quaternions(), quaternions())
def test_multiplication_not_commutative_in_general(p, q):
    # only checks the ring laws that do hold
    assert (p + q).conjugate() == p.conjugate() + q.conjugate()
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()


@given(quaternions(), quaternions(), quaternions())
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@given(quaternions())
def test_norm_is_scalar(q):
    n = q * q.conjugate()
    zero = RationalFunction.zero("x")
    assert n.b == zero and n.c == zero and n.d == zero
    assert n == q.conjugate() * q


@given(quaternions())
def test_inverse_two_sided(q):
    if q.is_zero():
        with pytest.raises(NotAUnit):
            q.inverse()
        return
    one = Quaternion.one("x")
    assert q * q.inverse() == one
    assert q.inverse() * q == one


def test_inverse_of_x_times_k():
    x = RationalFunction.variable("x")
    zero = RationalFunction.zero("x")
    q = Quaternion(zero, zero, zero, x)
    inv = q.inverse()
    # (x k)^-1 = -(1/x) k
    assert inv == Quaternion(zero, zero, zero, -x.inverse())


@given(quaternions(), quaternions())
def test_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_display():
    x = RationalFunction.variable("x")
    zero = RationalFunction.zero("x")
    assert str(Quaternion(zero, x * x, zero, zero)) == "x^2*i"
    assert str(Quaternion(x, -x, zero, zero)) == "x - x*i"
    assert str(Quaternion(zero, zero, zero, zero)) == "0"
    assert str(unit("j")) == "j"
    assert str(scalar(-2)) == "-2"


def test_foreign_operands_raise_type_error():
    with pytest.raises(TypeError):
        Quaternion.one() + 1
    with pytest.raises(TypeError):
        Quaternion.one() - RationalFunction.one("x")
    with pytest.raises(TypeError):
        Quaternion.one() * 2


@pytest.mark.parametrize("combine", [operator.add, operator.sub, operator.mul])
def test_mixed_variables_raise(combine):
    with pytest.raises(MixedAlgebras):
        combine(Quaternion.unit("i", "x"), Quaternion.unit("j", "n"))


def test_public_constructor_refuses_mixed_variables():
    one, zero = RationalFunction.one("x"), RationalFunction.zero("n")
    with pytest.raises(MixedAlgebras):
        Quaternion(one, zero, zero, zero)


@pytest.mark.parametrize("bad", [0, 1, 2, 3], ids=["a", "b", "c", "d"])
def test_public_constructor_refuses_components_that_are_not_rational_functions(bad):
    comps = [RationalFunction.one("x")] * 4
    comps[bad] = 7
    with pytest.raises(TypeError) as info:
        Quaternion(*comps)
    assert "component %s" % "abcd"[bad] in str(info.value)
    with pytest.raises(TypeError):
        Quaternion(1, 2, 3, 4)


@pytest.mark.parametrize("combine", [operator.add, operator.sub, operator.mul])
def test_mixed_variables_raise_with_a_zero_operand(combine):
    with pytest.raises(MixedAlgebras):
        combine(Quaternion.zero("n"), Quaternion.unit("i", "x"))
    with pytest.raises(MixedAlgebras):
        combine(Quaternion.unit("i", "x"), Quaternion.zero("n"))


# the product and the trusted results

def quaternions_with_zeros(var="x"):
    """Quaternions whose components are each zero at random, all four at
    times."""
    comp = st.one_of(st.just(RationalFunction.zero(var)), ratfuncs(var, 1))
    return st.builds(Quaternion, comp, comp, comp, comp)


@pytest.mark.parametrize("var", ["x", "n"])
def test_sparse_products_keep_the_variable(var):
    zero, j, k = Quaternion.zero(var), Quaternion.unit("j", var), Quaternion.unit("k", var)
    for p, q in [(zero, zero), (zero, k), (j, zero), (j, k), (k, k)]:
        r = p * q
        assert r == ref_quat_mul(p, q)
        assert all(comp.var == var for comp in r.components)


@pytest.mark.parametrize("var", ["x", "n"])
@given(st.data())
def test_product_matches_unit_table(var, data):
    p = data.draw(quaternions_with_zeros(var))
    q = data.draw(quaternions_with_zeros(var))
    assert p * q == ref_quat_mul(p, q)


@pytest.mark.parametrize("var", ["x", "n"])
@given(st.data())
def test_results_pass_the_public_constructor(var, data):
    p = data.draw(quaternions_with_zeros(var))
    q = data.draw(quaternions_with_zeros(var))
    results = [p + q, p - q, p * q, -p, p.conjugate(), p.derivative()]
    if not p.is_zero():
        results.append(p.inverse())
    for r in results:
        assert type(r) is Quaternion
        assert Quaternion(*r.components) == r and r.var == var
        assert r.is_zero() == all(comp.is_zero() for comp in r.components)


@pytest.mark.parametrize(
    "left, right",
    [
        (Quaternion.zero("n"), Quaternion.zero("x")),
        (Quaternion.unit("i", "x"), Quaternion.unit("k", "n")),
        (Quaternion.from_fraction(3, "n"), Quaternion.unit("j", "x")),
    ],
    ids=["zero-by-zero", "unit-by-unit", "scalar-by-unit"],
)
def test_product_checks_the_variables_first(left, right, monkeypatch):
    def refuse(*args):
        raise AssertionError("a component product ran before the variable check")

    monkeypatch.setattr(RationalFunction, "__mul__", refuse)
    with pytest.raises(MixedAlgebras):
        left * right
    with pytest.raises(MixedAlgebras):
        right * left


@pytest.mark.parametrize("var", ["x", "n"])
@given(st.data())
def test_inverse_of_a_scalar_matches_conj_over_norm(var, data):
    a = data.draw(ratfuncs(var).filter(lambda r: not r.is_zero()))
    q = Quaternion.scalar(a)
    inv = q.inverse()
    assert inv == ref_quat_inverse(q) == Quaternion.scalar(a.inverse())
    one = Quaternion.one(var)
    assert q * inv == one and inv * q == one


@pytest.mark.parametrize("var", ["x", "n"])
def test_zero_scalar_has_no_inverse(var):
    with pytest.raises(NotAUnit, match="zero quaternion has no inverse"):
        Quaternion.zero(var).inverse()


@pytest.mark.parametrize("var", ["x", "n"])
def test_constants_equal_their_checked_construction(var):
    z, o = RationalFunction.zero(var), RationalFunction.one(var)
    c = RationalFunction.constant(Fraction(-3, 4), var)
    built = [
        (Quaternion.zero(var), Quaternion(z, z, z, z)),
        (Quaternion.one(var), Quaternion(o, z, z, z)),
        (Quaternion.from_fraction(Fraction(-3, 4), var), Quaternion(c, z, z, z)),
        (Quaternion.unit("i", var), Quaternion(z, o, z, z)),
        (Quaternion.unit("j", var), Quaternion(z, z, o, z)),
        (Quaternion.unit("k", var), Quaternion(z, z, z, o)),
    ]
    for got, checked in built:
        assert got == checked and got.var == var
        assert all(type(comp) is RationalFunction for comp in got.components)
