"""Kernel contexts, dual operators, hat expansion, and factorization.

The fixed expected values here were worked out by hand (dual matrices by
adjugate, compositions by the twisted product rule) and double checked
numerically before being frozen into the assertions.
"""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import (
    GroupRingC5Element,
    KernelContext,
    MixedAlgebras,
    NotAUnit,
    NotInKernel,
    NotIntertwinable,
    NotInvertible,
    NotMonicizable,
    NCMatrix,
    Operator,
    Quaternion,
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
    WrongInverseQuat,
    assert_normal_form,
    dense_qx_operator,
    operators,
    rand_element,
    rand_operator,
    rand_unit,
)


def ctx_qx(algebra=QX):
    return KernelContext(
        algebra, [parse_element("x", algebra), parse_element("x^2", algebra)]
    )


def ctx_quat(algebra=QUAT):
    return KernelContext(
        algebra, [parse_element("x*k", algebra), parse_element("x^3*i", algebra)]
    )


def ctx_diff(algebra=DIFF1):
    return KernelContext(
        algebra, [parse_element("n", algebra), parse_element("n^2", algebra)]
    )


def ctx_c5(algebra=C5):
    return KernelContext(algebra, [parse_element("r^2", algebra)])


# each context maker with the selector of its algebra, for fresh instances
MAKERS = pytest.mark.parametrize(
    "make, selector",
    [(ctx_qx, "qx"), (ctx_quat, "quat"), (ctx_diff, "diff"), (ctx_c5, "c5")],
    ids=["qx", "quat", "diff", "c5"],
)


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
    assert str(ctx.K) == "D^2 - (3/x)*D + 3/x^2"
    assert str(ctx.P[0]) == "(1/2*k)*D - 3/(2*x)*k"
    assert str(ctx.P[1]) == "-(1/(2*x^2)*i)*D + 1/(2*x^3)*i"
    for f in ctx.f:
        assert ctx.K.apply(f) == QUAT.zero()


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
    assert str(q) == "x^3*j*D + x^2*i"
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
    n, q = algebra.symbols()["n"], algebra.from_fraction
    mid = -(q(2) * (q(c) * n + q(c) + n + q(2)) * (n + q(1)).inverse())
    const_num = q((c + 1) ** 2) * n * n + q(c * c + 4 * c + 3) * n + q(2)
    const = const_num * (n * n + n).inverse()
    return Operator(algebra, (const, mid, algebra.one()))


def _diff_expected_inverse(algebra, c):
    n, q = algebra.symbols()["n"], algebra.from_fraction
    inv_det = (n * n + n).inverse()
    return (
        (q(c + 1) * n * n + q(2) * n + q(1)) * inv_det,
        -(n * n) * inv_det,
        -(q(c + 1) * n + q(1)) * inv_det,
        n * inv_det,
    )


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)])
def test_difference_showcase(c):
    algebra = get_algebra("diff", c=c)
    ctx = ctx_diff(algebra)

    n, q = algebra.symbols()["n"], algebra.from_fraction
    assert ctx.phi.entry(0, 0) == n
    assert ctx.phi.entry(0, 1) == n * n
    assert ctx.phi.entry(1, 0) == q(c + 1) * n + q(1)
    assert ctx.phi.entry(1, 1) == q(c + 1) * n * n + q(2) * n + q(1)

    expected = _diff_expected_inverse(algebra, c)
    for idx, (row, col) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert ctx.phi_inv.entry(row, col) == expected[idx]

    assert ctx.K == _diff_expected_k(algebra, c)
    for f in ctx.f:
        assert ctx.K.apply(f) == algebra.zero()


def test_difference_display_at_c_one():
    ctx = ctx_diff()
    assert (
        str(ctx.K)
        == "D^2 - ((4*n + 6)/(n + 1))*D + (4*n^2 + 8*n + 2)/(n^2 + n)"
    )


def test_c5_showcase():
    ctx = ctx_c5()
    assert str(ctx.K) == "D - r^2"
    rho = C5.symbols()["r"]
    big = parse_operator("r*D^3 - 1", C5)
    hats = ctx.hat_coefficients(big)
    r2 = rho * rho
    assert hats == [C5.zero(), r2 * rho, r2 * r2, rho]
    q = ctx.factorize(big)
    assert str(q) == "r*D^2 + r^4*D + r^3"
    assert q.compose(ctx.K) == big
    assert Operator.d(C5, 4) == Operator.identity(C5)


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_duality_relations(make):
    ctx = make()
    alg = ctx.algebra
    for i, p in enumerate(ctx.P):
        for j, f in enumerate(ctx.f):
            want = alg.one() if i == j else alg.zero()
            assert p.apply(f) == want


def test_duality_on_random_monomial_kernels():
    rng = random.Random(1234)
    x = parse_element("x", QX)
    for _ in range(20):
        exps = rng.sample(range(6), rng.choice([2, 3]))
        fs = []
        for e in exps:
            v = QX.one()
            for _ in range(e):
                v = v * x
            fs.append(v)
        ctx = KernelContext(QX, fs)
        for i, p in enumerate(ctx.P):
            for j, f in enumerate(fs):
                want = QX.one() if i == j else QX.zero()
                assert p.apply(f) == want
            assert ctx.K.apply(fs[i]) == QX.zero()


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_dhat_family_unit_expansion(make):
    ctx = make()
    alg = ctx.algebra
    for i in range(2 * ctx.k + 1):
        hats = ctx.hat_coefficients(ctx.dhat(i))
        for j, h in enumerate(hats):
            want = alg.one() if j == i else alg.zero()
            assert h == want
    with pytest.raises(ValueError, match="^negative index$"):
        ctx.dhat(-1)


@MAKERS
def test_dhat_reads_the_shifted_kernel_operator(make, selector):
    # dhat(i) for i >= k reads endo^(i-k) . K off the shifted divisors the
    # divisions share, in the normal form the composition gives
    ctx = make(get_algebra(selector))
    for i in (ctx.k + 3, ctx.k, ctx.k + 5, ctx.k + 1):
        old = Operator.d(ctx.algebra, i - ctx.k).compose(ctx.K)
        assert ctx.dhat(i).coeffs == old.coeffs


@pytest.mark.parametrize("make", [ctx_qx, ctx_quat, ctx_diff, ctx_c5])
def test_hat_expansion_reconstructs_and_matches_apply(make):
    ctx = make()
    alg = ctx.algebra
    rng = random.Random(57)
    for _ in range(25):
        op = rand_operator(rng, alg, 4)
        hats = ctx.hat_coefficients(op)
        assert len(hats) == max(len(op.coeffs), ctx.k)
        recon = Operator.zero(alg)
        for i, h in enumerate(hats):
            recon = recon + ctx.dhat(i).scale_left(h)
        assert recon == op
        low = ctx.leading_coefficients_by_apply(op)
        for a, b in zip(hats, low):
            alg.check(a)
            assert a == b


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
            assert op.apply(f) == t
    with pytest.raises(ValueError):
        ctx.interpolate([alg.zero()] * (ctx.k + 1))


def _expected_offenders(ctx, op):
    values = ctx.leading_coefficients_by_apply(op)
    return [(i + 1, v) for i, v in enumerate(values) if not v.is_zero()]


def _assert_same_offenders(ctx, got, expected):
    assert [i for i, _ in got] == [i for i, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        ctx.algebra.check(a)
        assert a == b


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


def test_corollary_check_catches_a_vanishing_low_operator(monkeypatch):
    # with Phi invertible no nonzero operator of degree below k kills the
    # kernel, so values forced to zero are an engine fault, not an answer
    ctx = ctx_quat()
    zeros = (QUAT.zero(),) * ctx.k
    monkeypatch.setattr(ctx, "leading_coefficients_by_apply", lambda op: zeros)
    low = Operator.identity(QUAT)
    message = r"^nonzero operator 1 of degree < 2 annihilates the kernel$"
    with pytest.raises(VerificationFailed, match=message):
        ctx.zero_on_low_filtration(low)
    with pytest.raises(VerificationFailed, match=message):
        ctx.factorize(low)  # the remainder is 1, with no offender
    assert ctx.zero_on_low_filtration(Operator.zero(QUAT)) is True


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
    two_x = x + x
    with pytest.raises(NotInvertible):
        KernelContext(QX, [x, two_x])


def test_c5_kernels_of_random_elements():
    # endo keeps the augmentation r -> 1, so for k >= 2 every row of Phi
    # augments alike and the determinant NotInvertible names augments to 0;
    # for k = 1, Phi = [f] inverts exactly when f does
    rng = random.Random(20)

    def draw():
        return rand_unit(rng, C5) if rng.random() < 0.5 else rand_element(rng, C5)

    for k in (2, 3, 4):
        for _ in range(12):
            with pytest.raises(NotInvertible) as info:
                KernelContext(C5, [draw() for _ in range(k)])
            found = re.fullmatch(r"determinant (.+) is not a unit", str(info.value))
            assert found, info.value
            assert sum(parse_element(found.group(1), C5).coeffs) == 0
    seen = {True: 0, False: 0}
    for _ in range(40):
        f = draw()
        try:
            inverse = f.inverse()
        except NotAUnit:
            with pytest.raises(NotInvertible, match="^determinant .* is not a unit$"):
                KernelContext(C5, [f])
            seen[False] += 1
        else:
            assert KernelContext(C5, [f]).phi_inv.entries == (inverse,)
            seen[True] += 1
    assert min(seen.values()) >= 10


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


def test_right_division_catches_a_wrong_inverse():
    # division takes 1 as the inverse of every shifted divisor's lead,
    # which holds because the twist of 1 is (1, 0); a twist that doubles
    # p leaves 2 there, so a D^2 term is never cleared, and R, read from
    # the low coefficients only, fails the recomposition
    class DoubledTwist(type(QX)):
        def twist(self, f):
            tw = super().twist(f)
            return tw._replace(p=tw.p * self.from_fraction(Fraction(2)))

    algebra = DoubledTwist()
    divisor = parse_operator("D - 1/x", algebra)
    with pytest.raises(VerificationFailed, match="does not recompose"):
        right_divide_monic(parse_operator("D^2", algebra), divisor)


def test_the_division_certificate_compares_coefficients_without_the_fold():
    from opfactor.factorization import _certify_division, _grown

    # c5 declares endo_order 4, so operator equality folds D^4 onto D^0:
    # a quotient whose constant coefficient moved up to D^4 recomposes to
    # an operator equal to L, yet it is another Q and prints as one
    ctx = ctx_c5()
    quotient = parse_operator("r*D^2 + r^4*D + r^3", C5)
    moved = parse_operator("r^3*D^4 + r*D^2 + r^4*D", C5)
    op, zero = quotient.compose(ctx.K), Operator.zero(C5)
    assert moved.compose(ctx.K) == op and str(moved) != str(quotient)
    shifted = _grown([ctx.K], 5)
    _certify_division(op, quotient, zero, shifted)
    with pytest.raises(VerificationFailed, match="^right division does not recompose$"):
        _certify_division(op, moved, zero, shifted)
    # with Q = 0 the remainder is the whole operator
    low = parse_operator("r^2 + 1", C5)
    _certify_division(low, zero, low, shifted)
    with pytest.raises(VerificationFailed, match="^right division does not recompose$"):
        _certify_division(low, zero, parse_operator("r^2", C5), shifted)


def test_right_division_twists_each_shifted_divisor_once():
    algebra = CountingQX()
    op = dense_qx_operator(algebra, 9)
    divisor = parse_operator("D^3 + 1/(x-1)*D^2 + 1/(x-2)*D + 1/(x-3)", algebra)
    algebra.twists = 0
    quotient, rest = right_divide_monic(op, divisor)
    # endo^j . divisor for j = 1 .. 6 (4 + 5 + ... + 9 = 39 twists); the
    # certificate sums Q_j . (endo^j . divisor) over those same shifted
    # divisors and twists nothing
    assert algebra.twists == 39
    assert (quotient.degree, rest.degree) == (6, 2)


def _zero_operands(monkeypatch, method):
    """Record every c5 or quaternion product or sum, as method is
    "__mul__" or "__add__", that has a zero operand."""
    seen = []
    for cls in (GroupRingC5Element, Quaternion):
        def spy(a, b, op=getattr(cls, method)):
            if a.is_zero() or b.is_zero():
                seen.append((a, b))
            return op(a, b)

        monkeypatch.setattr(cls, method, spy)
    return seen


def _factor_under_spy(monkeypatch, method, algebra, kernel, quotient):
    """Parse and factor quotient . K under the spy; the zero operands seen."""
    expected = parse_operator(quotient, algebra)
    ctx = KernelContext(algebra, [parse_element(t, algebra) for t in kernel])
    # a cold context: the division twists K under the spy
    assert ctx._shifted == [ctx.K]
    text = str(expected.compose(ctx.K))
    seen = _zero_operands(monkeypatch, method)
    assert ctx.factorize(parse_operator(text, algebra)) == expected
    return seen


FACTOR_CASES = pytest.mark.parametrize(
    "algebra, kernel, quotient",
    [
        # the README's c5 example: L = r*D^3 - 1, K = D - r^2
        (C5, ("r^2",), "r*D^2 + r^4*D + r^3"),
        # quat_factor's shape: the paper's kernel, Q of degree 1 with
        # two-part constant coefficients
        (QUAT, ("x*k", "x^3*i"), "(2*i - 3*k)*D + (j + 2)"),
    ],
    ids=["c5", "quat"],
)


@FACTOR_CASES
def test_factor_multiplies_by_no_zero(monkeypatch, algebra, kernel, quotient):
    # parsing and division skip every zero they would multiply by: in
    # sums, scaling, twists, powers and the division certificate
    assert _factor_under_spy(monkeypatch, "__mul__", algebra, kernel, quotient) == []


@FACTOR_CASES
def test_factor_adds_to_no_zero(monkeypatch, algebra, kernel, quotient):
    # an accumulator slot takes its first term as it is, in sums, twists,
    # compositions and the endo_order fold of the certificate's ==
    assert _factor_under_spy(monkeypatch, "__add__", algebra, kernel, quotient) == []


def test_offenders_and_the_c5_fold_add_to_no_zero(monkeypatch):
    # apply sums a_i . endo^i(f) from its first term, and the endo_order
    # fold of == (n = 4 on c5) skips zero coefficients and fills a zero
    # slot with the first coefficient folded onto it
    ctx = KernelContext(C5, [parse_element("r^2", C5)])
    outside = parse_operator("r*D^3 + D - 1", C5)
    folded = parse_operator("D^7 + r*D^2 + 1", C5)
    reduced = parse_operator("D^3 + r*D^2 + 1", C5)
    seen = _zero_operands(monkeypatch, "__add__")
    with pytest.raises(NotInKernel):
        ctx.factorize(outside)
    assert folded == reduced
    assert seen == []


def test_kernel_context_catches_a_wrong_inverse():
    # K is certified as X . Phi = f_image, that is K(f_j) = 0, and P as
    # Phi^-1 . Phi = I, each inside its own solve, so a wrong pivot
    # inverse must fail the solve that uses it; the quaternions run the
    # column elimination that calls try_invert once per right-hand side
    algebra = WrongInverseQuat()
    elements = [parse_element(t, algebra) for t in ("1", "x^2")]
    with pytest.raises(VerificationFailed, match=r"^left solve X\*A = B does not hold$"):
        KernelContext(algebra, elements)
    # 1 and x have f_image = 0, so K = D^2 solves X . Phi = 0 exactly;
    # the wrong inverse shows when the duals are first read
    ctx = KernelContext(algebra, [parse_element(t, algebra) for t in ("1", "x")])
    assert ctx.K == Operator.d(algebra, 2)
    with pytest.raises(VerificationFailed, match=r"^left solve X\*A = B does not hold$"):
        ctx.P


def test_quat_factor_builds_neither_the_inverse_nor_the_duals(monkeypatch):
    inverses = []
    invert = NCMatrix.inverse

    def spy(self):
        inverses.append(self)
        return invert(self)

    monkeypatch.setattr(NCMatrix, "inverse", spy)
    assert QUAT._kernel_memo == {}  # so the construction runs
    ctx = ctx_quat()
    quotient = parse_operator("D + x*j", QUAT)
    assert ctx.factorize(quotient.compose(ctx.K)) == quotient
    with pytest.raises(NotInKernel):
        ctx.factorize(Operator.d(QUAT))
    assert inverses == []
    assert "P" not in vars(ctx) and "phi_inv" not in vars(ctx)
    ctx.dhat(0)  # the duals, on first use
    assert "P" in vars(ctx) and "phi_inv" in vars(ctx) and inverses == []


@pytest.mark.parametrize("make, selector", [(ctx_qx, "qx"), (ctx_diff, "diff")],
                         ids=["qx", "diff"])
def test_one_fraction_free_elimination_per_context(monkeypatch, make, selector):
    from opfactor import ncmatrix

    runs = []
    adjugate = ncmatrix._adjugate

    def spy(a, *packed):
        runs.append(a)
        return adjugate(a, *packed)

    monkeypatch.setattr(ncmatrix, "_adjugate", spy)
    # a fresh algebra, whose kernel memo is empty
    ctx = make(get_algebra(selector))
    assert len(runs) == 1 and "P" not in vars(ctx)
    duals = ctx.P
    targets = [ctx.f[1], ctx.f[0]]
    swap = ctx.interpolate(targets)
    assert len(runs) == 1
    assert [p.apply(f) for p in duals for f in ctx.f] == [
        ctx.algebra.one(), ctx.algebra.zero(), ctx.algebra.zero(), ctx.algebra.one()]
    assert [swap.apply(f) for f in ctx.f] == targets
    assert ctx.phi_inv * ctx.phi == NCMatrix.identity(ctx.algebra, 2)


# the kernel memo


def _calls(monkeypatch, owner, name):
    """Spy on owner.name: the list of the first arguments of its calls."""
    seen = []
    real = getattr(owner, name)

    def spy(first, *args, **kwargs):
        seen.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


@MAKERS
def test_a_repeated_kernel_is_solved_once(monkeypatch, make, selector):
    from opfactor import ncmatrix

    algebra = get_algebra(selector)
    first = make(algebra)
    endos = _calls(monkeypatch, type(algebra), "endo")
    adjugates = _calls(monkeypatch, ncmatrix, "_adjugate")
    second = make(algebra)
    assert endos == [] and adjugates == []
    assert second.K is first.K and second.f == first.f
    quotient = Operator.d(algebra).scale_left(second.f[0]) + Operator.identity(algebra)
    assert second.factorize(quotient.compose(second.K)) == quotient


@MAKERS
def test_a_repeated_kernel_keeps_its_certified_inverse(make, selector):
    algebra = get_algebra(selector)
    first = make(algebra)
    duals = first.P
    second = make(algebra)

    def solve(b):
        raise AssertionError("solved again")

    second._solve = solve
    assert second.P is duals and second.phi_inv is first.phi_inv
    assert [p.apply(f) for p in second.P for f in second.f] == [
        algebra.one() if i == j else algebra.zero()
        for i in range(second.k) for j in range(second.k)]
    assert algebra._kernel_memo[hash(first.f)][6] == [first.phi_inv, duals]


def test_a_failed_inverse_is_never_stored():
    # 1 and x give K = D^2 exactly; the wrong pivot inverse fails the
    # certificate of Phi^-1, in every context that reads the duals
    algebra = WrongInverseQuat()
    elements = [parse_element(t, algebra) for t in ("1", "x")]
    for _ in range(2):
        ctx = KernelContext(algebra, elements)
        with pytest.raises(VerificationFailed, match=r"^left solve X\*A = B does not hold$"):
            ctx.P
        assert algebra._kernel_memo[hash(ctx.f)][6] == []


def test_kernel_memos_are_per_algebra_instance(monkeypatch):
    first = ctx_diff(get_algebra("diff"))
    endos = _calls(monkeypatch, type(first.algebra), "endo")
    fresh = ctx_diff(get_algebra("diff"))
    assert endos and fresh.K == first.K and fresh.K is not first.K
    endos.clear()
    half = ctx_diff(get_algebra("diff", Fraction(1, 2)))
    assert endos and str(half.K) != str(first.K)
    assert all(half.K.apply(f).is_zero() for f in half.f)
    memos = [ctx.algebra._kernel_memo for ctx in (first, fresh, half)]
    assert [[entry[4] for entry in memo.values()] for memo in memos] == [
        [first.K], [fresh.K], [half.K]]


def test_a_failed_kernel_is_never_stored():
    algebra = get_algebra("qx")
    x = parse_element("x", algebra)
    for _ in range(2):
        with pytest.raises(NotInvertible):
            KernelContext(algebra, [x, x + x])
    assert algebra._kernel_memo == {}
    wrong = WrongInverseQuat()
    elements = [parse_element(t, wrong) for t in ("1", "x^2")]
    for _ in range(2):
        with pytest.raises(VerificationFailed):
            KernelContext(wrong, elements)
    assert wrong._kernel_memo == {}


def test_a_foreign_kernel_element_is_refused_as_before():
    algebra = get_algebra("diff")
    n = parse_element("n", algebra)
    KernelContext(algebra, [n])
    x = parse_element("x", QX)
    x_text = ("RationalFunction(Poly((Fraction(0, 1), Fraction(1, 1))), "
              "Poly((Fraction(1, 1),)), 'x')")
    # an element of another algebra, and one that cannot be hashed
    for elements, shown in (([n, x], x_text), ([x], x_text), ([n, [1, 2]], "[1, 2]")):
        with pytest.raises(MixedAlgebras) as info:
            KernelContext(algebra, elements)
        assert str(info.value) == "%s is not an element of algebra 'diff(c=1)'" % shown
    assert len(algebra._kernel_memo) == 1


def test_the_kernel_memo_keeps_at_most_its_bound(monkeypatch):
    from opfactor.factorization import MEMO_SIZE

    algebra = get_algebra("qx")
    x = parse_element("x", algebra)
    powers = [x]
    while len(powers) < MEMO_SIZE + 4:
        powers.append(powers[-1] * x)
    memo = algebra._kernel_memo
    for count, f in enumerate(powers, 1):
        KernelContext(algebra, [f])
        assert len(memo) == min(count, MEMO_SIZE)
    assert [entry[0] for entry in memo.values()] == [(f,) for f in powers[-MEMO_SIZE:]]
    # the oldest went first, so it is solved again
    endos = _calls(monkeypatch, type(algebra), "endo")
    KernelContext(algebra, [powers[0]])
    assert endos and len(memo) == MEMO_SIZE


def test_a_colliding_memo_entry_is_recomputed_and_replaced():
    algebra = get_algebra("qx")
    planted = KernelContext(algebra, [parse_element("x^3", algebra)])
    elements = (parse_element("x", algebra), parse_element("x^2", algebra))
    memo = algebra._kernel_memo
    memo[hash(elements)] = memo.pop(hash(planted.f))
    ctx = KernelContext(algebra, elements)
    assert ctx.K == ctx_qx(get_algebra("qx")).K
    assert list(memo) == [hash(elements)]
    assert memo[hash(elements)][0] == elements and memo[hash(elements)][4] is ctx.K


def test_divisions_through_one_context_twist_k_once_per_power(monkeypatch):
    algebra = get_algebra("qx")
    ctx = ctx_qx(algebra)
    quotients = [dense_qx_operator(algebra, d) for d in (2, 4, 3)]
    products = [q.compose(ctx.K) for q in quotients]
    advanced = _calls(monkeypatch, Operator, "_advanced")
    # a quotient of degree d needs endo^j . K for j <= d
    for quotient, product, twists in zip(quotients, products, (2, 4, 4)):
        assert ctx.factorize(product) == quotient
        assert len(advanced) == twists
    again = ctx_qx(algebra)
    assert again.hat_coefficients(products[1])[ctx.k:] == list(quotients[1].coeffs)
    assert len(advanced) == 4
    assert again._shifted is ctx._shifted
    assert all(a is b for a, b in zip(advanced, ctx._shifted))
    # dhat reads the shifted divisors the divisions made
    assert ctx.dhat(ctx.k + 4) is again.dhat(ctx.k + 4) is ctx._shifted[4]
    assert len(advanced) == 4


def test_the_memo_keeps_one_shifted_divisor_per_power_divided():
    algebra = get_algebra("qx")
    ctx = ctx_qx(algebra)
    assert len(ctx._shifted) == 1
    for degree in (3, 1, 5, 2):
        ctx.factorize(dense_qx_operator(algebra, degree).compose(ctx.K))
    # up to endo^5 . K, for the largest quotient's degree 5
    assert len(ctx._shifted) == 6
    # a higher dhat is twisted on a copy and leaves the entry as it was
    high = ctx.dhat(ctx.k + 9)
    assert high.coeffs == Operator.d(algebra, 9).compose(ctx.K).coeffs
    assert len(ctx._shifted) == 6
    assert algebra._kernel_memo[hash(ctx.f)][5] is ctx._shifted


def test_a_rejection_formats_each_offender_once(monkeypatch):
    algebra = get_algebra("quat")
    ctx = KernelContext(algebra, [parse_element(t, algebra) for t in ("x*k", "x^3*i")])
    formatted = _calls(monkeypatch, type(algebra), "format_element")
    with pytest.raises(NotInKernel) as info:
        ctx.factorize(parse_operator("D + j", algebra))
    with pytest.raises(NotIntertwinable) as twisted:
        ctx.intertwiner(parse_operator("D", algebra))
    assert formatted == []
    # a rejection served as perfbench/worker.py serves it formats the
    # offenders itself, once each
    served = [[i, algebra.format_element(v)] for i, v in info.value.offenders]
    assert len(formatted) == len(served) == 2
    # the message formats them on the first str() and keeps the text
    message = str(info.value)
    assert message == "operator does not annihilate the kernel: " + ", ".join(
        "L(f_%d) = %s" % (i, text) for i, text in served)
    assert str(info.value) is message and len(formatted) == 4
    assert str(twisted.value).startswith("map does not preserve the kernel: K(R(f_1)) = ")


def test_right_division_rejects_bad_divisors():
    with pytest.raises(NotMonicizable):
        right_divide_monic(Operator.d(QX), Operator.zero(QX))
    # a leading coefficient other than one, a unit or not
    for algebra, lead in ((QX, "x"), (C5, "-r^2"), (C5, "1 + r")):
        divisor = Operator.d(algebra).scale_left(parse_element(lead, algebra))
        with pytest.raises(NotMonicizable):
            right_divide_monic(Operator.d(algebra, 2), divisor)


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
    divisor = data.draw(operators(algebra, 1)) + Operator.d(algebra, 2)
    quotient, rest = right_divide_monic(op, divisor)
    assert_normal_form(quotient)
    assert_normal_form(rest)


# sha1 of the kernel-op text (the K line, then one line per P_i) for
# quotient kernels, whose columns of Phi carry denominators; recorded while
# Phi was still inverted by Gauss-Jordan over Q(v)
QUOTIENT_KERNEL_DIGESTS = [
    ("qx", 1, "(-5*x - 9)/(4*x^2 + 5*x + 8),(4*x^3 - 7*x^2 - 1*x - 2)/(8*x + 3)",
     "f3a7f2ed3a78acd1e011cb2ab778df1f133c148c"),
    ("qx", 1, "(x - 5)/(4*x^2 + 7*x + 2),(-6*x^2 - 9*x + 7)/(4*x^2 + 9*x + 6),"
     "(-4*x^2 - 1*x - 1)/(5*x + 4)",
     "f5758c82f89d923d1057a05fcf73f0773f0e8721"),
    ("qx", 1, "(2*x^3 + 9*x^2 + 3)/(3*x^2 + 6*x + 8),(-4*x^2 - 4*x + 2)/(2*x + 4),"
     "(3*x + 2)/(4*x + 6),(2*x^2 + 5*x + 7)/(8*x + 6)",
     "81138e1a3449921e56d39d53ff9abd3bcea7ada5"),
    ("qx", 1, "(-9*x^2)/(8*x^2 + 5*x + 4),(-9*x^3 + 4*x^2 - 6*x - 7)/(5*x^2 + 6*x + 3),"
     "(3*x^3 + 8*x^2 + 7*x + 6)/(7*x^2 + 9*x + 6),(4*x - 1)/(8*x + 4),"
     "(8*x^3 + 7*x^2 - 4*x + 6)/(x + 8)",
     "02f610e6ddc5ce151c267023c428e999fa635117"),
    ("diff", 1, "(-5*n - 9)/(4*n^2 + 5*n + 8),(4*n^3 - 7*n^2 - 1*n - 2)/(8*n + 3)",
     "57d35b340d9c671bc7bcc675273a4bcb2c0a663d"),
    ("diff", 1, "(n - 5)/(4*n^2 + 7*n + 2),(-6*n^2 - 9*n + 7)/(4*n^2 + 9*n + 6),"
     "(-4*n^2 - 1*n - 1)/(5*n + 4)",
     "dadbe27b0a5ebe5c25e57379ca502d004b8cc904"),
    ("diff", 1, "(2*n^3 + 9*n^2 + 3)/(3*n^2 + 6*n + 8),(-4*n^2 - 4*n + 2)/(2*n + 4),"
     "(3*n + 2)/(4*n + 6),(2*n^2 + 5*n + 7)/(8*n + 6)",
     "412e53d0028eac87cddb1a080ac7569ed1078baa"),
    ("diff", 1, "(-9*n^2)/(8*n^2 + 5*n + 4),(-9*n^3 + 4*n^2 - 6*n - 7)/(5*n^2 + 6*n + 3),"
     "(3*n^3 + 8*n^2 + 7*n + 6)/(7*n^2 + 9*n + 6),(4*n - 1)/(8*n + 4),"
     "(8*n^3 + 7*n^2 - 4*n + 6)/(n + 8)",
     "a339a32a8a7800595bfda270acaa14b63b7e94c0"),
    ("diff", Fraction(-1, 2), "(n - 5)/(4*n^2 + 7*n + 2),(-6*n^2 - 9*n + 7)/(4*n^2 + 9*n + 6),"
     "(-4*n^2 - 1*n - 1)/(5*n + 4)",
     "9ae9206879a7193db6aff356231ed5e56ee2a806"),
]


@pytest.mark.parametrize("selector, c, kernel, digest", QUOTIENT_KERNEL_DIGESTS)
def test_quotient_kernels_match_recorded_digests(selector, c, kernel, digest):
    algebra = get_algebra(selector, c)
    ctx = KernelContext(algebra, [parse_element(t, algebra) for t in kernel.split(",")])
    lines = ["K = %s" % ctx.K] + ["P_%d = %s" % (i + 1, p) for i, p in enumerate(ctx.P)]
    assert hashlib.sha1("\n".join(lines).encode()).hexdigest() == digest
