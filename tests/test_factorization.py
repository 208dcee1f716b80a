"""Kernel contexts, dual operators, hat expansion, and factorization.

The fixed expected values here were worked out by hand (dual matrices by
adjugate, compositions by the twisted product rule) and double checked
numerically before being frozen into the assertions.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import (
    KernelContext,
    MixedAlgebras,
    NotInKernel,
    NotIntertwinable,
    NotInvertible,
    NotMonicizable,
    Operator,
    RationalFunction,
    VerificationFailed,
    get_algebra,
    parse_element,
    parse_operator,
    right_divide_monic,
)

from helpers import (
    ALL_ALGEBRAS,
    C5,
    DIFF1,
    QUAT,
    QX,
    CountingQX,
    assert_normal_form,
    dense_qx_operator,
    operators,
    rand_element,
    rand_operator,
    units,
)


def ctx_qx():
    return KernelContext(QX, [parse_element("x", QX), parse_element("x^2", QX)])


def ctx_quat():
    return KernelContext(
        QUAT, [parse_element("x*k", QUAT), parse_element("x^3*i", QUAT)]
    )


def ctx_diff(algebra=DIFF1):
    return KernelContext(
        algebra, [parse_element("n", algebra), parse_element("n^2", algebra)]
    )


def ctx_c5():
    return KernelContext(C5, [parse_element("r^2", C5)])


def test_trivial_contexts():
    one_ctx = KernelContext(QX, [QX.one()])
    assert one_ctx.K == Operator.d(QX)
    assert one_ctx.P[0] == Operator.identity(QX)

    x_ctx = KernelContext(QX, [parse_element("x", QX)])
    assert x_ctx.K == parse_operator("D - 1/x", QX)


def test_empty_kernel_rejected():
    with pytest.raises(ValueError):
        KernelContext(QX, [])


def test_quaternion_showcase_matrix_inverse():
    ctx = ctx_quat()
    inv = ctx.phi_inv
    assert QUAT.format_element(inv.entry(0, 0)) == "-3/(2*x)*k"
    assert QUAT.format_element(inv.entry(0, 1)) == "1/2*k"
    assert QUAT.format_element(inv.entry(1, 0)) == "1/(2*x^3)*i"
    assert QUAT.format_element(inv.entry(1, 1)) == "-1/(2*x^2)*i"


def test_quaternion_showcase_kernel_operator():
    ctx = ctx_quat()
    assert ctx.K.format() == "D^2 - (3/x)*D + 3/x^2"
    assert ctx.P[0].format() == "(1/2*k)*D - 3/(2*x)*k"
    assert ctx.P[1].format() == "-(1/(2*x^2)*i)*D + 1/(2*x^3)*i"
    for f in ctx.f:
        assert QUAT.is_zero(ctx.K.apply(f))


CORRECTED_L = (
    "x^3*j*D^3 + (x^2*i - 3*x^2*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j"
)
MISPRINTED_L = (
    "x^3*j*D^3 + (x^2*i - 3*x^3*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j"
)


def test_quaternion_factorization():
    ctx = ctx_quat()
    big = parse_operator(CORRECTED_L, QUAT)
    q = ctx.factorize(big)
    assert q.format() == "x^3*j*D + x^2*i"
    assert q.compose(ctx.K) == big

    div_q, rem = right_divide_monic(big, ctx.K)
    assert div_q == q
    assert rem.is_zero()


def test_quaternion_misprint_is_not_in_kernel():
    ctx = ctx_quat()
    bad = parse_operator(MISPRINTED_L, QUAT)
    with pytest.raises(NotInKernel) as info:
        ctx.factorize(bad)
    offenders = info.value.offenders
    assert [i for i, _ in offenders] == [2]
    value = offenders[0][1]
    assert QUAT.format_element(value) == "(18*x^4 - 18*x^3)*k"
    assert "L(f_2)" in str(info.value)


def _diff_expected_k(algebra, c):
    n = RationalFunction.variable("n")
    mid = -(2 * (c * n + c + n + 2) / (n + 1))
    const_num = (c + 1) ** 2 * n * n + (c * c + 4 * c + 3) * n + 2
    const = const_num / (n * n + n)
    return Operator(algebra, (const, mid, algebra.one()))


def _diff_expected_inverse(c):
    n = RationalFunction.variable("n")
    det = n * n + n
    return (
        ((c + 1) * n * n + 2 * n + 1) / det,
        -(n * n) / det,
        -((c + 1) * n + 1) / det,
        n / det,
    )


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)])
def test_difference_showcase(c):
    algebra = get_algebra("diff", c=c)
    ctx = ctx_diff(algebra)

    n = RationalFunction.variable("n")
    assert ctx.phi.entry(0, 0) == n
    assert ctx.phi.entry(0, 1) == n * n
    assert ctx.phi.entry(1, 0) == (c + 1) * n + 1
    assert ctx.phi.entry(1, 1) == (c + 1) * n * n + 2 * n + 1

    expected = _diff_expected_inverse(c)
    for idx, (row, col) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert ctx.phi_inv.entry(row, col) == expected[idx]

    assert ctx.K == _diff_expected_k(algebra, c)
    for f in ctx.f:
        assert algebra.is_zero(ctx.K.apply(f))


def test_difference_display_at_c_one():
    ctx = ctx_diff()
    assert (
        ctx.K.format()
        == "D^2 - ((4*n + 6)/(n + 1))*D + (4*n^2 + 8*n + 2)/(n^2 + n)"
    )


def test_c5_showcase():
    ctx = ctx_c5()
    assert ctx.K.format() == "D - r^2"
    rho = C5.symbols()["r"]
    big = parse_operator("r*D^3 - 1", C5)
    hats = ctx.hat_coefficients(big)
    r2 = C5.mul(rho, rho)
    assert hats == [
        C5.zero(),
        C5.mul(r2, rho),
        C5.mul(r2, r2),
        rho,
    ]
    q = ctx.factorize(big)
    assert q.format() == "r*D^2 + r^4*D + r^3"
    assert q.compose(ctx.K) == big
    assert Operator.d(C5, 4) == Operator.identity(C5)


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_duality_relations(make):
    ctx = make()
    alg = ctx.algebra
    for i, p in enumerate(ctx.P):
        for j, f in enumerate(ctx.f):
            want = alg.one() if i == j else alg.zero()
            assert alg.equal(p.apply(f), want)


def test_duality_on_random_monomial_kernels():
    rng = random.Random(1234)
    x = parse_element("x", QX)
    for _ in range(20):
        exps = rng.sample(range(6), rng.choice([2, 3]))
        fs = []
        for e in exps:
            v = QX.one()
            for _ in range(e):
                v = QX.mul(v, x)
            fs.append(v)
        ctx = KernelContext(QX, fs)
        for i, p in enumerate(ctx.P):
            for j, f in enumerate(fs):
                want = QX.one() if i == j else QX.zero()
                assert QX.equal(p.apply(f), want)
            assert QX.is_zero(ctx.K.apply(fs[i]))


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_dhat_family_unit_expansion(make):
    ctx = make()
    alg = ctx.algebra
    for i in range(2 * ctx.k + 1):
        hats = ctx.hat_coefficients(ctx.dhat(i))
        for j, h in enumerate(hats):
            want = alg.one() if j == i else alg.zero()
            assert alg.equal(h, want)


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_hat_expansion_reconstructs_and_matches_apply(make):
    ctx = make()
    alg = ctx.algebra
    rng = random.Random(57)
    for _ in range(25):
        op = rand_operator(rng, alg, 4)
        hats = ctx.hat_coefficients(op)
        recon = Operator.zero(alg)
        for i, h in enumerate(hats):
            recon = recon + ctx.dhat(i).scale_left(h)
        assert recon == op
        low = ctx.leading_coefficients_by_apply(op)
        for a, b in zip(hats, low):
            assert alg.equal(a, b)


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_factorize_round_trip(make):
    ctx = make()
    alg = ctx.algebra
    rng = random.Random(58)
    for _ in range(25):
        q = rand_operator(rng, alg, 3)
        product = q.compose(ctx.K)
        assert ctx.factorize(product) == q


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_interpolation(make):
    ctx = make()
    alg = ctx.algebra
    rng = random.Random(59)
    for _ in range(10):
        targets = [rand_element(rng, alg) for _ in range(ctx.k)]
        op = ctx.interpolate(targets)
        assert op.is_zero() or len(op.coeffs) <= ctx.k
        for f, t in zip(ctx.f, targets):
            assert alg.equal(op.apply(f), t)
    with pytest.raises(ValueError):
        ctx.interpolate([alg.zero()] * (ctx.k + 1))


def _expected_offenders(ctx, op):
    values = ctx.leading_coefficients_by_apply(op)
    return [(i + 1, v) for i, v in enumerate(values) if not ctx.algebra.is_zero(v)]


def _assert_same_offenders(ctx, got, expected):
    assert [i for i, _ in got] == [i for i, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert ctx.algebra.equal(a, b)


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_rejection_offenders_are_the_values_on_the_kernel(make):
    # the offenders come from the division remainder; they must be the
    # values of the operator itself on the kernel elements
    ctx = make()
    alg = ctx.algebra
    rng = random.Random(60)
    rejected = 0
    for _ in range(8):
        op = rand_operator(rng, alg, 3)
        expected = _expected_offenders(ctx, op)
        if not expected:
            continue
        rejected += 1
        with pytest.raises(NotInKernel) as info:
            ctx.factorize(op)
        _assert_same_offenders(ctx, info.value.offenders, expected)
        assert str(info.value) == str(NotInKernel(expected, alg))

        r_op = rand_operator(rng, alg, 2)
        expected = _expected_offenders(ctx, ctx.K.compose(r_op))
        if not expected:
            assert ctx.intertwiner(r_op).compose(ctx.K) == ctx.K.compose(r_op)
            continue
        with pytest.raises(NotIntertwinable) as info:
            ctx.intertwiner(r_op)
        _assert_same_offenders(ctx, info.value.offenders, expected)
        assert str(info.value) == str(NotIntertwinable(expected, alg))
    assert rejected >= 6


def test_intertwiner_identity_and_k():
    ctx = ctx_quat()
    ident = Operator.identity(QUAT)
    assert ctx.intertwiner(ident) == ident
    assert ctx.intertwiner(ctx.K) == ctx.K


def test_intertwiner_swap():
    ctx = ctx_qx()
    swap = ctx.interpolate([ctx.f[1], ctx.f[0]])
    q = ctx.intertwiner(swap)
    assert q.compose(ctx.K) == ctx.K.compose(swap)


def test_intertwiner_rejects_shift_on_c5():
    ctx = ctx_c5()
    with pytest.raises(NotIntertwinable) as info:
        ctx.intertwiner(Operator.d(C5))
    (idx, value), = info.value.offenders
    assert idx == 1
    assert C5.format_element(value) == "-r + r^3"
    assert "K(R(f_1))" in str(info.value)


def test_zero_on_low_filtration():
    ctx = ctx_quat()
    assert ctx.zero_on_low_filtration(Operator.zero(QUAT)) is True
    assert ctx.zero_on_low_filtration(Operator.identity(QUAT)) is False
    assert ctx.zero_on_low_filtration(ctx.P[0]) is False
    with pytest.raises(ValueError):
        ctx.zero_on_low_filtration(ctx.K)


def test_context_rejects_foreign_operators():
    ctx = ctx_diff(DIFF1)
    other = get_algebra("diff", c=Fraction(2))
    with pytest.raises(MixedAlgebras):
        ctx.hat_coefficients(Operator.d(other))
    with pytest.raises(MixedAlgebras):
        ctx.factorize(Operator.d(other))
    with pytest.raises(MixedAlgebras):
        ctx.intertwiner(Operator.d(other))
    with pytest.raises(MixedAlgebras):
        ctx.leading_coefficients_by_apply(Operator.d(other))
    with pytest.raises(MixedAlgebras):
        ctx.zero_on_low_filtration(Operator.d(other))


def test_dependent_kernel_elements_rejected():
    from opfactor import NotInvertible

    x = parse_element("x", QX)
    two_x = QX.add(x, x)
    with pytest.raises(NotInvertible):
        KernelContext(QX, [x, two_x])


def test_right_division_generic():
    rng = random.Random(60)
    for _ in range(20):
        op = rand_operator(rng, QUAT, 4)
        divisor = rand_operator(rng, QUAT, 2, monic=True)
        if divisor.is_zero():
            continue
        q, r = right_divide_monic(op, divisor)
        assert q.compose(divisor) + r == op
        assert r.is_zero() or len(r.coeffs) < len(divisor.coeffs)


@pytest.mark.parametrize(
    "algebra, lead",
    [(QX, "x"), (QUAT, "2*x*i"), (DIFF1, "n + 1"), (C5, "-r^2")],
)
def test_right_division_by_non_monic_unit_lead(algebra, lead):
    rng = random.Random(61)
    top = Operator.d(algebra, 2).scale_left(parse_element(lead, algebra))
    for _ in range(10):
        divisor = top + rand_operator(rng, algebra, 1)
        op = rand_operator(rng, algebra, 4)
        q, r = right_divide_monic(op, divisor)
        assert q.compose(divisor) + r == op
        assert len(r.coeffs) < len(divisor.coeffs)


def test_right_division_catches_a_wrong_inverse():
    class WrongInverse(type(QX)):
        def try_invert(self, f):
            return f.inverse() * 2

    algebra = WrongInverse()
    divisor = parse_operator("x*D - 1", algebra)
    with pytest.raises(VerificationFailed):
        right_divide_monic(parse_operator("D^2", algebra), divisor)


def test_right_division_twists_each_shifted_divisor_once():
    algebra = CountingQX()
    op = dense_qx_operator(algebra, 9)
    divisor = parse_operator("x*D^3 + 1/(x-1)*D^2 + 1/(x-2)*D + 1/(x-3)", algebra)
    algebra.twists = 0
    quotient, rest = right_divide_monic(op, divisor)
    # endo^j . divisor for j = 1 .. 6 (4 + 5 + ... + 9 = 39 twists), the
    # six pushed inverses of its top coefficient (6) and the 7-by-4
    # certificate compose (39); composing a monomial per step took 284
    assert algebra.twists <= 84
    assert (quotient.degree, rest.degree) == (6, 2)


def test_kernel_context_catches_a_wrong_inverse():
    # P_i(f_j) = delta_ij is certified only as Phi^-1 * Phi = I inside
    # NCMatrix.inverse, so a wrong pivot inverse must fail there
    class WrongInverse(type(QX)):
        def try_invert(self, f):
            return f.inverse() * 2

    algebra = WrongInverse()
    elements = [parse_element(t, algebra) for t in ("1", "x")]
    with pytest.raises(
        NotInvertible, match="candidate inverse failed certification"
    ):
        KernelContext(algebra, elements)


def test_right_division_rejects_bad_divisors():
    with pytest.raises(NotMonicizable):
        right_divide_monic(Operator.d(QX), Operator.zero(QX))
    lead = parse_element("1 + r", C5)
    divisor = Operator.d(C5).scale_left(lead)
    with pytest.raises(NotMonicizable):
        right_divide_monic(Operator.d(C5, 2), divisor)


def test_right_division_exactness_detects_nonmultiples():
    ctx = ctx_quat()
    off = ctx.K + Operator.identity(QUAT)
    q, r = right_divide_monic(off, ctx.K)
    assert q == Operator.identity(QUAT)
    assert r == Operator.identity(QUAT)


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@settings(max_examples=25)
@given(data=st.data())
def test_division_results_keep_the_normal_form(algebra, data):
    op = data.draw(operators(algebra, 3))
    lead = data.draw(units(algebra))
    divisor = data.draw(operators(algebra, 1)) + Operator.d(algebra, 2).scale_left(lead)
    quotient, rest = right_divide_monic(op, divisor)
    assert_normal_form(quotient)
    assert_normal_form(rest)
