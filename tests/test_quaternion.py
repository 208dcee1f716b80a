"""Quaternion arithmetic over the rational function scalars."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from opfactor import MixedAlgebras, NotAUnit, Poly, Quaternion, RationalFunction

from helpers import (
    DIFF1,
    QUAT,
    QX,
    RATFUNC_ALGEBRA,
    quaternions,
    ratfuncs,
    ref_quat_inverse,
    ref_quat_mul,
)


def quat(var, a=0, b=0, c=0, d=0):
    """a + b*i + c*j + d*k with rational constant components, through the
    public constructor."""
    return Quaternion(*map(RATFUNC_ALGEBRA[var].from_fraction, (a, b, c, d)))


def scalar(value):
    return quat("x", value)


def unit(which):
    return QUAT.one() if which == "1" else QUAT.symbols()[which]


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
    zero = QX.zero()
    assert n.components[1:] == (zero, zero, zero)
    assert n == q.conjugate() * q


@given(quaternions())
def test_inverse_two_sided(q):
    if q.is_zero():
        with pytest.raises(NotAUnit):
            q.inverse()
        return
    one = QUAT.one()
    assert q * q.inverse() == one
    assert q.inverse() * q == one


def test_inverse_of_x_times_k():
    x = QX.symbols()["x"]
    zero = QX.zero()
    q = Quaternion(zero, zero, zero, x)
    inv = q.inverse()
    # (x k)^-1 = -(1/x) k
    assert inv == Quaternion(zero, zero, zero, -x.inverse())


@given(quaternions(), quaternions())
def test_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_display():
    x = QX.symbols()["x"]
    zero = QX.zero()
    assert str(Quaternion(zero, x * x, zero, zero)) == "x^2*i"
    assert str(Quaternion(x, -x, zero, zero)) == "x - x*i"
    assert str(Quaternion(zero, zero, zero, zero)) == "0"
    assert str(unit("j")) == "j"
    assert str(scalar(-2)) == "-2"


def test_foreign_operands_raise_type_error():
    with pytest.raises(TypeError):
        QUAT.one() + 1
    with pytest.raises(TypeError):
        QUAT.one() - QX.one()
    with pytest.raises(TypeError):
        QUAT.one() * 2


@pytest.mark.parametrize("combine", [operator.add, operator.sub, operator.mul])
def test_mixed_variables_raise(combine):
    with pytest.raises(MixedAlgebras):
        combine(quat("x", b=1), quat("n", c=1))


def test_public_constructor_refuses_mixed_variables():
    one, zero = QX.one(), DIFF1.zero()
    with pytest.raises(MixedAlgebras):
        Quaternion(one, zero, zero, zero)


@pytest.mark.parametrize("bad", [0, 1, 2, 3], ids=["a", "b", "c", "d"])
def test_public_constructor_refuses_components_that_are_not_rational_functions(bad):
    comps = [QX.one()] * 4
    comps[bad] = 7
    with pytest.raises(TypeError) as info:
        Quaternion(*comps)
    assert "component %s" % "abcd"[bad] in str(info.value)
    with pytest.raises(TypeError):
        Quaternion(1, 2, 3, 4)


@pytest.mark.parametrize("combine", [operator.add, operator.sub, operator.mul])
def test_mixed_variables_raise_with_a_zero_operand(combine):
    with pytest.raises(MixedAlgebras):
        combine(quat("n"), quat("x", b=1))
    with pytest.raises(MixedAlgebras):
        combine(quat("x", b=1), quat("n"))


# the product and the trusted results

def quaternions_with_zeros(var="x"):
    """Quaternions whose components are each zero at random, all four at
    times."""
    comp = st.one_of(st.just(RATFUNC_ALGEBRA[var].zero()), ratfuncs(var, 1))
    return st.builds(Quaternion, comp, comp, comp, comp)


@pytest.mark.parametrize("var", ["x", "n"])
def test_sparse_products_keep_the_variable(var):
    zero, j, k = quat(var), quat(var, c=1), quat(var, d=1)
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
        assert_sparse(r, var)


def assert_sparse(q, var):
    """The stored form: units strictly increase, no stored component is
    zero, and `zero` is the zero of the variable."""
    units = [u for u, _ in q.terms]
    assert units == sorted(set(units)) and set(units) <= {0, 1, 2, 3}
    assert all(type(comp) is RationalFunction and not comp.is_zero() for _, comp in q.terms)
    assert all(comp.var == var for _, comp in q.terms)
    assert q.zero.is_zero() and q.zero.var == var and q.zero == RATFUNC_ALGEBRA[var].zero()


def spy(monkeypatch, name):
    """The calls of RationalFunction.<name> from here on, as argument tuples."""
    calls = []
    method = getattr(RationalFunction, name)

    def counted(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(RationalFunction, name, counted)
    return calls


@pytest.mark.parametrize("var", ["x", "n"])
def test_a_sum_of_disjoint_units_adds_no_component(var, monkeypatch):
    x = RATFUNC_ALGEBRA[var].symbols()[var]
    z = RATFUNC_ALGEBRA[var].zero()
    left, right = Quaternion(x, z, x * x, z), Quaternion(z, -x, z, x)
    expected = Quaternion(x, -x, x * x, x)
    calls = spy(monkeypatch, "__add__")
    total = left + right
    assert calls == []
    monkeypatch.undo()
    assert total == expected == right + left
    assert [u for u, _ in total.terms] == [0, 1, 2, 3]


def test_derivative_differentiates_each_nonzero_component_once(monkeypatch):
    x = QX.symbols()["x"]
    z = QX.zero()
    q = Quaternion(z, x * x, z, QX.from_fraction(Fraction(5)))  # x^2*i + 5*k
    calls = spy(monkeypatch, "derivative")
    d = q.derivative()
    assert sorted(map(str, (c for (c,) in calls))) == ["5", "x^2"]
    monkeypatch.undo()
    # the constant's derivative is zero, so only i is left
    assert d == Quaternion(z, x * QX.from_fraction(Fraction(2)), z, z)
    assert [u for u, _ in d.terms] == [1]
    assert QUAT.from_fraction(Fraction(7)).derivative().terms == ()


@pytest.mark.parametrize("var", ["x", "n"])
def test_a_product_with_a_zero_operand_multiplies_no_component(var, monkeypatch):
    x = RATFUNC_ALGEBRA[var].symbols()[var]
    z = RATFUNC_ALGEBRA[var].zero()
    zero, q = quat(var), Quaternion(x, x, z, x * x)
    calls = spy(monkeypatch, "__mul__")
    products = [zero * q, q * zero, zero * zero]
    assert calls == []
    monkeypatch.undo()
    for p in products:
        assert p.is_zero() and p == zero and p.terms == ()
        assert_sparse(p, var)


def test_equal_values_from_the_constructor_and_from_arithmetic_are_one_value():
    x = QX.symbols()["x"]
    z = QX.zero()
    symbols = QUAT.symbols()
    i, j, k, qx = symbols["i"], symbols["j"], symbols["k"], symbols["x"]
    built = [
        Quaternion(z, x, z, x),  # x*i + x*k
        qx * i + qx * k,
        i * qx + k * qx + j - j,
        (qx * i + qx * j + qx * k) - qx * j,
        -(-(k * qx) - i * qx),
        (qx * (i + k)).conjugate().conjugate(),
        (qx * i + k * qx) * QUAT.one(),
    ]
    assert all(value == built[0] for value in built)
    assert len(set(built)) == 1
    assert len({QUAT.zero(), i - i, qx - qx, qx * QUAT.zero(), Quaternion(z, z, z, z)}) == 1


@pytest.mark.parametrize("u", range(4))
@pytest.mark.parametrize("v", range(4))
def test_one_component_by_one_makes_one_component_product(u, v, monkeypatch):
    x = QX.symbols()["x"]
    zero = QX.zero()
    f, g = x, x * x * x * QX.from_fraction(-2)  # x and -2x^3
    left = Quaternion(*(f if w == u else zero for w in range(4)))
    right = Quaternion(*(g if w == v else zero for w in range(4)))
    expected = ref_quat_mul(left, right)
    calls = []
    mul = RationalFunction.__mul__

    def counted(p, q):
        calls.append((p, q))
        return mul(p, q)

    monkeypatch.setattr(RationalFunction, "__mul__", counted)
    product = left * right
    assert calls == [(f, g)]
    monkeypatch.undo()
    assert product == expected
    assert sum(not comp.is_zero() for comp in product.components) == 1


@pytest.mark.parametrize(
    "left, right",
    [
        (quat("n"), quat("x")),
        (quat("x", b=1), quat("n", d=1)),
        (quat("n", 3), quat("x", c=1)),
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
    z = RATFUNC_ALGEBRA[var].zero()
    q = Quaternion(a, z, z, z)
    inv = q.inverse()
    assert inv == ref_quat_inverse(q) == Quaternion(a.inverse(), z, z, z)
    one = quat(var, 1)
    assert q * inv == one and inv * q == one


@pytest.mark.parametrize("var", ["x", "n"])
def test_zero_scalar_has_no_inverse(var):
    with pytest.raises(NotAUnit, match="zero quaternion has no inverse"):
        quat(var).inverse()


@pytest.mark.parametrize("var", [QUAT.variable])
def test_constants_equal_their_checked_construction(var):
    """The algebra builds its constants and symbols unchecked; each equals
    the public constructor's value."""

    def checked(num):
        return RationalFunction(num, Poly.one(), var)

    z, o, c = (checked(Poly.constant(q)) for q in (0, 1, Fraction(-3, 4)))
    symbols = QUAT.symbols()
    built = [
        (QUAT.zero(), Quaternion(z, z, z, z)),
        (QUAT.one(), Quaternion(o, z, z, z)),
        (QUAT.from_fraction(Fraction(-3, 4)), Quaternion(c, z, z, z)),
        (symbols[var], Quaternion(checked(Poly.variable()), z, z, z)),
        (symbols["i"], Quaternion(z, o, z, z)),
        (symbols["j"], Quaternion(z, z, o, z)),
        (symbols["k"], Quaternion(z, z, z, o)),
    ]
    assert sorted(symbols) == sorted([var, "i", "j", "k"])
    for got, checked in built:
        assert got == checked and got.var == var
        assert all(type(comp) is RationalFunction for comp in got.components)
