"""Differential tests of the qx, diff, c5 and quat layers against sympy.

Every expected value is computed by sympy alone (cancel, diff, subs, and
an operator action written here), so a fault shared by opfactor's own
arithmetic and its own checks cannot hide.  Each opfactor result must
also be in canonical form: it must equal sympy's cancelled quotient
rescaled to a monic denominator, coefficient for coefficient.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import (
    GroupRingC5Element,
    KernelContext,
    NCMatrix,
    NotInvertible,
    Operator,
    Poly,
    RationalFunction,
    parse_element,
)

from helpers import (
    C5,
    DIFF1,
    QUAT,
    QX,
    factored_polys,
    factored_ratfuncs,
    rand_fraction,
    rand_poly,
    rand_quaternion,
    rand_ratfunc,
    rand_unit,
    ratfuncs,
    ref_quat_mul,
)

sympy = pytest.importorskip("sympy")

DIFF_HALF = type(DIFF1)(Fraction(-1, 2))


def poly_to_sympy(p, v):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * v**i for i, c in enumerate(p.coeffs)),
        sympy.Integer(0),
    )


def to_sympy(r):
    v = sympy.Symbol(r.var)
    return poly_to_sympy(r.num, v) / poly_to_sympy(r.den, v)


def _fractions(expr, v):
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, v).all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def assert_matches(r, expr):
    """r is the canonical form of the sympy expression expr."""
    v = sympy.Symbol(r.var)
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    lead = sympy.Poly(den, v).LC()
    num, den = sympy.expand(num / lead), sympy.expand(den / lead)
    if num == 0:
        den = sympy.Integer(1)
    assert r.num.coeffs == _fractions(num, v)
    assert r.den.coeffs == _fractions(den, v)
    # the stored form is the canonical one: cden > 0, lowest terms
    assert (r.num, r.den) == (Poly(list(r.num.coeffs)), Poly(list(r.den.coeffs)))


# rational function arithmetic


@settings(max_examples=40)
@given(factored_ratfuncs("x"), factored_ratfuncs("x"))
def test_field_operations_match_sympy(p, q):
    a, b = to_sympy(p), to_sympy(q)
    assert_matches(p + q, a + b)
    assert_matches(p - q, a - b)
    assert_matches(p * q, a * b)
    assert_matches(-p, -a)
    if not q.is_zero():
        assert_matches(p * q.inverse(), a / b)
        assert_matches(q.inverse(), 1 / b)
        assert_matches(q.inverse() * q.inverse(), b**-2)
    assert_matches(p * p * p, a**3)


@settings(max_examples=40)
@given(factored_ratfuncs("x"), factored_ratfuncs("n"))
def test_derivative_and_shift_match_sympy(p, q):
    x, n = sympy.symbols("x n")
    assert_matches(p.derivative(), sympy.diff(to_sympy(p), x))
    assert_matches(q.shifted(), to_sympy(q).subs(n, n + 1))


# denominator leads: negative, or positive and not 1, with rational contents
LEADS = st.sampled_from([Fraction(-1), Fraction(-3), Fraction(-2, 3), Fraction(2),
                         Fraction(5, 7), Fraction(1, 4)])


@settings(max_examples=60)
@given(factored_polys(allow_zero=True), factored_polys(), LEADS)
def test_constructor_normalizes_a_non_monic_denominator_with_ints(num, den, lead):
    den = den * Poly([lead / den.leading])
    assert den.leading == lead
    calls = []
    constant = Poly.constant

    def counted(c):
        calls.append(c)
        return constant(c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Poly, "constant", staticmethod(counted))
        r = RationalFunction(num, den, "x")
        # the inverse makes the numerator, whose lead is arbitrary, monic
        inverse = None if r.is_zero() else r.inverse()
    assert calls == []
    x = sympy.Symbol("x")
    assert_matches(r, poly_to_sympy(num, x) / poly_to_sympy(den, x))
    if inverse is not None:
        assert_matches(inverse, poly_to_sympy(den, x) / poly_to_sympy(num, x))


# operators


def endo_sympy(algebra, expr):
    v = sympy.Symbol(algebra.variable)
    if algebra.name == "qx":
        return sympy.diff(expr, v)
    c = sympy.Rational(algebra.c.numerator, algebra.c.denominator)
    return expr.subs(v, v + 1) + c * expr


def apply_sympy(op, expr):
    """sum_i a_i * endo^i(expr), every step in sympy."""
    total, cur = sympy.Integer(0), expr
    for i, a in enumerate(op.coeffs):
        if i:
            cur = endo_sympy(op.algebra, cur)
        total += to_sympy(a) * cur
    return sympy.cancel(total)


def rand_op(rng, algebra, deg):
    cs = [rand_ratfunc(rng, algebra.variable) for _ in range(deg + 1)]
    return Operator(algebra, tuple(cs))


ALGEBRAS = [QX, DIFF1, DIFF_HALF]


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.describe())
def test_apply_matches_sympy(algebra):
    rng = random.Random(11)
    for _ in range(8):
        op = rand_op(rng, algebra, rng.randint(0, 3))
        f = rand_ratfunc(rng, algebra.variable, max_deg=3)
        assert_matches(op.apply(f), apply_sympy(op, to_sympy(f)))


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.describe())
def test_compose_acts_as_composition_in_sympy(algebra):
    rng = random.Random(12)
    for _ in range(6):
        left = rand_op(rng, algebra, rng.randint(0, 2))
        right = rand_op(rng, algebra, rng.randint(0, 2))
        product = left.compose(right)
        for _ in range(2):
            f = to_sympy(rand_ratfunc(rng, algebra.variable, max_deg=3))
            expected = apply_sympy(left, apply_sympy(right, f))
            assert sympy.cancel(apply_sympy(product, f) - expected) == 0


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.describe())
def test_factorize_matches_sympy(algebra):
    rng = random.Random(13)
    done = 0
    while done < 4:
        kernel = [rand_ratfunc(rng, algebra.variable, nonzero=True) for _ in range(rng.randint(1, 2))]
        try:
            ctx = KernelContext(algebra, kernel)
        except NotInvertible:  # dependent kernel elements; drawn again
            continue
        # K is monic of order k and kills each kernel element, in sympy
        assert len(ctx.K.coeffs) == len(kernel) + 1 and ctx.K.coeffs[-1] == algebra.one()
        for f in kernel:
            assert apply_sympy(ctx.K, to_sympy(f)) == 0
        op = rand_op(rng, algebra, rng.randint(0, 2)).compose(ctx.K)
        quotient = ctx.factorize(op)
        # op = Q . K as actions on a few functions, in sympy
        for _ in range(2):
            g = to_sympy(rand_ratfunc(rng, algebra.variable, max_deg=3))
            expected = apply_sympy(quotient, apply_sympy(ctx.K, g))
            assert sympy.cancel(apply_sympy(op, g) - expected) == 0
        done += 1


# matrices over Q(x) and Q(n): the inverse is sympy's, and "cannot invert"
# is raised exactly when sympy's determinant cancels to zero, naming the
# first column that lies in the span of the columns before it


def rand_quotient(rng, var):
    """A rational function whose denominator is not constant."""
    while True:
        den = Poly([rand_fraction(rng) for _ in range(rng.randint(1, 2))] + [1])
        r = RationalFunction(rand_poly(rng, 1), den, var)
        if r.den.degree > 0:
            return r


def field_matrix(m):
    """m over sympy's field of rational functions, where every entry is
    kept cancelled; Matrix.det on raw quotients takes seconds at size 4."""
    return sympy.polys.matrices.DomainMatrix.from_Matrix(m)


def sympy_rank(m):
    return field_matrix(m).rank() if m.cols else 0


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.describe())
def test_matrix_inverse_matches_sympy(algebra):
    rng = random.Random("matrix inverse " + algebra.describe())
    var = algebra.variable
    for size in (2, 3, 4):
        for kind in ("random", "row combination", "column combination", "zero column"):
            rows = [[rand_quotient(rng, var) for _ in range(size)] for _ in range(size)]
            if kind == "column combination":
                col = rng.randrange(1, size)
                weights = [rand_quotient(rng, var) for _ in range(col)]
                for row in rows:
                    row[col] = sum((w * e for w, e in zip(weights, row)), algebra.zero())
            elif kind == "row combination":
                weights = [rand_quotient(rng, var) for _ in range(size - 1)]
                rows[-1] = [
                    sum((w * row[j] for w, row in zip(weights, rows)), algebra.zero())
                    for j in range(size)
                ]
                rng.shuffle(rows)
            elif kind == "zero column":
                col = rng.randrange(size)
                for row in rows:
                    row[col] = algebra.zero()
            mat = NCMatrix.from_rows(algebra, rows)
            expr = sympy.Matrix([[to_sympy(e) for e in row] for row in rows])
            if field_matrix(expr).det():
                assert kind == "random"
                inv, expected = mat.inverse(), expr.inv()
                for i in range(size):
                    for j in range(size):
                        assert_matches(inv.entry(i, j), expected[i, j])
                continue
            with pytest.raises(NotInvertible) as info:
                mat.inverse()
            found = re.fullmatch(r"no unit pivot available in column (\d+)", str(info.value))
            assert found, info.value
            col = int(found.group(1))
            assert sympy_rank(expr[:, : col - 1]) == col - 1 == sympy_rank(expr[:, :col])


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.describe())
def test_left_solve_matches_sympy(algebra):
    # X * A = B for B of 1-3 rows against sympy's B * A^-1; a singular A
    # refuses the solve with the inverse's own message
    rng = random.Random("left solve " + algebra.describe())
    var = algebra.variable
    for size in (2, 3, 4):
        for kind in ("random", "column combination"):
            rows = [[rand_quotient(rng, var) for _ in range(size)] for _ in range(size)]
            if kind == "column combination":
                col = rng.randrange(1, size)
                weights = [rand_quotient(rng, var) for _ in range(col)]
                for row in rows:
                    row[col] = sum((w * e for w, e in zip(weights, row)), algebra.zero())
            rhs_rows = [[rand_ratfunc(rng, var) for _ in range(size)]
                        for _ in range(rng.randint(1, 3))]
            mat = NCMatrix.from_rows(algebra, rows)
            rhs = NCMatrix.from_rows(algebra, rhs_rows)
            expr = sympy.Matrix([[to_sympy(e) for e in row] for row in rows])
            if field_matrix(expr).det():
                assert kind == "random"
                x = mat.left_solver()(rhs)
                assert x * mat == rhs
                b = sympy.Matrix([[to_sympy(e) for e in row] for row in rhs_rows])
                expected = b * expr.inv()
                for i in range(rhs.rows):
                    for j in range(size):
                        assert_matches(x.entry(i, j), expected[i, j])
                continue
            with pytest.raises(NotInvertible) as solved:
                mat.left_solver()(rhs)
            with pytest.raises(NotInvertible) as inverted:
                mat.inverse()
            assert re.fullmatch(r"no unit pivot available in column \d+", str(solved.value))
            assert str(solved.value) == str(inverted.value)


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.describe())
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_packed_left_solves_match_domain_matrix(algebra, data):
    # the solve on packed integers against sympy's B * A^-1 over QQ(v),
    # n = 1-4; entries with rational contents and denominators, so the
    # columns are cleared both ways, and the Phi of a kernel over diff
    # with c = -1/2 has rational contents of its own
    size = data.draw(st.integers(1, 4), label="n")
    entries = ratfuncs(algebra.variable)
    rows = [[data.draw(entries) for _ in range(size)] for _ in range(size)]
    rhs_rows = [[data.draw(entries) for _ in range(size)]
                for _ in range(data.draw(st.integers(1, 2)))]
    mat = NCMatrix.from_rows(algebra, rows)
    expr = sympy.Matrix([[to_sympy(e) for e in row] for row in rows])
    domain = field_matrix(expr)
    if not domain.det():
        with pytest.raises(NotInvertible):
            mat.left_solver()
        return
    x = mat.left_solver()(NCMatrix.from_rows(algebra, rhs_rows))
    b = sympy.Matrix([[to_sympy(e) for e in row] for row in rhs_rows])
    expected = b * domain.to_field().inv().to_Matrix()
    for i in range(len(rhs_rows)):
        for j in range(size):
            assert_matches(x.entry(i, j), expected[i, j])


# matrices over Z[C5] with integer entries: invertible exactly when the
# integer determinant is +-1, and then the inverse is sympy's


def test_integer_c5_matrices_invert_exactly_when_unimodular():
    # no entry is a unit of Z[C5], so every inverse found here comes from
    # the determinant, not from the pivot search
    rng = random.Random(14)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 8:
        size = rng.randint(2, 3)
        rows = [[rng.choice((-3, -2, 0, 2, 3, 5)) for _ in range(size)] for _ in range(size)]
        det = sympy.Matrix(rows).det()
        unimodular = abs(det) == 1
        if seen[unimodular] >= 8:
            continue
        seen[unimodular] += 1
        m = NCMatrix.from_rows(C5, [[C5.from_fraction(v) for v in row] for row in rows])
        if not unimodular:
            with pytest.raises(NotInvertible):
                m.inverse()
            continue
        expected = sympy.Matrix(rows).inv()
        inv = m.inverse()
        for i in range(size):
            for j in range(size):
                assert inv.entry(i, j) == C5.from_fraction(int(expected[i, j]))


# matrices over Z[C5] with entries in r, computed in sympy over
# Z[x]/(x^5 - 1): an element is a unit exactly when its images in Z
# (x -> 1) and in Z[zeta_5] are, that is when its augmentation and its
# resultant with x^4 + x^3 + x^2 + x + 1 are both +-1; then the inverse is
# adj * det^-1 mod x^5 - 1, and otherwise NotInvertible names det


def c5_to_sympy(e, x):
    return sum((c * x**i for i, c in enumerate(e.coeffs)), sympy.Integer(0))


def c5_coeffs(expr, x):
    """The five integer coefficients of expr mod x^5 - 1."""
    reduced = sympy.Poly(sympy.rem(sympy.expand(expr), x**5 - 1, x), x)
    cs = list(reversed(reduced.all_coeffs()))
    assert all(c.is_integer for c in cs), expr
    return tuple([int(c) for c in cs] + [0] * (5 - len(cs)))


def test_c5_matrices_in_r_invert_exactly_when_the_determinant_is_a_unit():
    # each matrix also solves a right side B of 1-3 rows, drawn from a
    # second generator so that the matrices stay those of seed 15
    rng, rhs_rng = random.Random(15), random.Random("c5 right sides")
    x = sympy.Symbol("x")
    cyclotomic = x**4 + x**3 + x**2 + x + 1

    def entry(source=rng):
        return GroupRingC5Element(tuple(source.choice((-1, 0, 0, 1, 2)) for _ in range(5)))

    seen = {True: 0, False: 0}
    while min(seen.values()) < 8:
        size = rng.randint(2, 3)
        if rng.random() < 0.5:
            m = NCMatrix.from_rows(C5, [[entry() for _ in range(size)] for _ in range(size)])
        else:  # elementary matrices times trivial units: det is a unit
            m = NCMatrix.from_rows(C5, [
                [rand_unit(rng, C5) if i == j else C5.zero() for j in range(size)]
                for i in range(size)
            ])
            for _ in range(size):
                i, j = rng.sample(range(size), 2)
                elementary = list(NCMatrix.identity(C5, size).entries)
                elementary[i * size + j] = entry()
                m = m * NCMatrix(C5, size, size, tuple(elementary))
        expr = sympy.Matrix(size, size, [c5_to_sympy(e, x) for e in m.entries])
        det = sympy.rem(sympy.expand(expr.det()), x**5 - 1, x)
        unit = abs(det.subs(x, 1)) == 1 and abs(sympy.resultant(det, cyclotomic, x)) == 1
        if seen[unit] >= 8:
            continue
        seen[unit] += 1
        rhs_rows = rhs_rng.randint(1, 3)
        rhs = NCMatrix(C5, rhs_rows, size, tuple(entry(rhs_rng) for _ in range(rhs_rows * size)))
        if not unit:
            with pytest.raises(NotInvertible) as info:
                m.inverse()
            found = re.fullmatch(r"determinant (.+) is not a unit", str(info.value))
            assert found, info.value
            assert parse_element(found.group(1), C5).coeffs == c5_coeffs(det, x)
            with pytest.raises(NotInvertible) as solved:
                m.left_solver()(rhs)
            assert str(solved.value) == str(info.value)
            continue
        inv, det_inv = m.inverse(), sympy.invert(det, x**5 - 1, x)
        adj = expr.adjugate()
        for i in range(size):
            for j in range(size):
                assert inv.entry(i, j).coeffs == c5_coeffs(adj[i, j] * det_inv, x)
        b_adj = sympy.Matrix(rhs_rows, size, [c5_to_sympy(e, x) for e in rhs.entries]) * adj
        solved = m.left_solver()(rhs)
        for i in range(rhs_rows):
            for j in range(size):
                assert solved.entry(i, j).coeffs == c5_coeffs(b_adj[i, j] * det_inv, x)


# quaternions over Q(x): X*Phi = B is the real 4k x 4k system over Q(x)
# whose block (j, l) is R(endo^l(f_j)), R(q) the matrix of X -> X*q on the
# components (a, b, c, d) of X; endo is d/dx on each component, which
# commutes with R.  The system is singular exactly when Phi has no inverse.


def right_mul_matrix(q):
    """R(q) for q = a + b*i + c*j + d*k: vec(X*q) = R(q)*vec(X)."""
    a, b, c, d = q
    return [[a, -b, -c, -d], [b, a, d, -c], [c, -d, a, b], [d, c, -b, a]]


def quat_to_sympy(q):
    return [to_sympy(comp) for comp in q.components]


def test_right_mul_matrix_is_the_hamilton_product():
    rng = random.Random(16)
    for _ in range(6):
        p, q = rand_quaternion(rng), rand_quaternion(rng)
        rq = right_mul_matrix(quat_to_sympy(q))
        vec = [sum(r * y for r, y in zip(row, quat_to_sympy(p))) for row in rq]
        for got, want in zip(vec, quat_to_sympy(ref_quat_mul(p, q))):
            assert sympy.cancel(got - want) == 0


def quat_derivatives(kernel):
    """derivs[j][l], the components of the l-th derivative of f_j, for
    l = 0 .. k."""
    x = sympy.Symbol("x")
    derivs = []
    for f in kernel:
        rows = [quat_to_sympy(f)]
        for _ in range(len(kernel)):
            rows.append([sympy.diff(e, x) for e in rows[-1]])
        derivs.append(rows)
    return derivs


def quat_oracle_solve(derivs, sides):
    """For each side (t_1 .. t_k), each t_j four sympy components, the
    coefficients x_0 .. x_(k-1) with sum_l x_l . f_j^(l) = t_j, each as
    four components in sympy's QQ(x), from one LU of the real system;
    None when the system is singular."""
    field = sympy.QQ.frac_field(sympy.Symbol("x"))
    k = len(derivs)
    system = []
    for j in range(k):
        blocks = [right_mul_matrix(derivs[j][l]) for l in range(k)]
        for r in range(4):
            system.append([field.from_sympy(e) for l in range(k) for e in blocks[l][r]])
    rhs = [[field.from_sympy(side[j][r]) for side in sides] for j in range(k) for r in range(4)]
    dm = sympy.polys.matrices.DomainMatrix
    m = dm(system, (4 * k, 4 * k), field)
    if m.rank() < 4 * k:
        return None
    sol = m.lu_solve(dm(rhs, (4 * k, len(sides)), field)).to_Matrix()
    return [[[field.from_sympy(sol[4 * l + r, s]) for r in range(4)] for l in range(k)]
            for s in range(len(sides))]


def quat_oracle_k(kernel):
    """The coefficients x_0 .. x_(k-1) of K = D^k - sum x_l . D^l from
    X*Phi = (f_1^(k), ..., f_k^(k)); None when the system is singular."""
    derivs = quat_derivatives(kernel)
    solved = quat_oracle_solve(derivs, [[rows[-1] for rows in derivs]])
    return solved and solved[0]


QUAT_ORACLE_KERNELS = [
    "x*k, x^3*i",  # the paper's example
    "x, x*i",  # right-dependent: f_2 = f_1*i
    "x^2*j + 1, (x^2*j + 1)*(1 + i)",  # right-dependent by 1 + i
    "x + x^2*j, i*(x + x^2*j)",  # left-dependent only
    "1/(x + 1) + x*j, x^2*k - i",  # a denominator
    "x*i + j",
    "1 + x*j - 2*x^2*k",
    "1/x*i + k, x*j",
]


@pytest.mark.parametrize("text", QUAT_ORACLE_KERNELS)
def test_quat_kernel_operator_matches_the_real_system(text):
    kernel = [parse_element(t, QUAT) for t in text.split(",")]
    expected = quat_oracle_k(kernel)
    if expected is None:
        with pytest.raises(NotInvertible):
            KernelContext(QUAT, kernel)
        return
    ctx = KernelContext(QUAT, kernel)
    field = sympy.QQ.frac_field(sympy.Symbol("x"))
    assert len(ctx.K.coeffs) == len(kernel) + 1 and ctx.K.coeffs[-1] == QUAT.one()
    for coeff, want in zip(ctx.K.coeffs, expected):
        assert [field.from_sympy(e) for e in quat_to_sympy(-coeff)] == want


@pytest.mark.parametrize("text", QUAT_ORACLE_KERNELS)
def test_quat_duals_match_the_real_system(text):
    # row i of Phi^-1 solves X*Phi = e_i; all k sides go through one LU
    kernel = [parse_element(t, QUAT) for t in text.split(",")]
    k = len(kernel)
    one = [1, 0, 0, 0]
    sides = [[one if j == i else [0] * 4 for j in range(k)] for i in range(k)]
    expected = quat_oracle_solve(quat_derivatives(kernel), sides)
    if expected is None:
        return  # refused by test_quat_kernel_operator_matches_the_real_system
    phi_inv = KernelContext(QUAT, kernel).phi_inv
    field = sympy.QQ.frac_field(sympy.Symbol("x"))
    for i, row in enumerate(expected):
        for l, want in enumerate(row):
            assert [field.from_sympy(e) for e in quat_to_sympy(phi_inv.entry(i, l))] == want


# QUAT_ORACLE_KERNELS whose Phi the real system finds singular
QUAT_DEPENDENT = {"x, x*i", "x^2*j + 1, (x^2*j + 1)*(1 + i)"}


def quat_apply_sympy(op, g):
    """sum_l a_l . g^(l) for g four elements of sympy's QQ(x), each
    product vec(a_l * g^(l)) = R(g^(l)) * vec(a_l) through the real
    matrix."""
    field = sympy.QQ.frac_field(sympy.Symbol("x"))
    total = [field.zero] * 4
    for l, a in enumerate(op.coeffs):
        if l:
            g = [e.diff(field.gens[0]) for e in g]
        rg, av = right_mul_matrix(g), [field.from_sympy(e) for e in quat_to_sympy(a)]
        for r in range(4):
            total[r] += sum((rg[r][s] * av[s] for s in range(4)), field.zero)
    return total


@pytest.mark.parametrize("text", [t for t in QUAT_ORACLE_KERNELS if t not in QUAT_DEPENDENT])
def test_quat_factorize_acts_as_q_times_k_on_the_real_system(text):
    rng = random.Random(17)
    field = sympy.QQ.frac_field(sympy.Symbol("x"))
    ctx = KernelContext(QUAT, [parse_element(t, QUAT) for t in text.split(",")])
    for _ in range(2):
        factor = Operator(QUAT, [rand_quaternion(rng) for _ in range(rng.randint(1, 3))])
        op = factor.compose(ctx.K)
        quotient = ctx.factorize(op)
        # op = Q . K as actions on random quaternion functions, in sympy
        for _ in range(2):
            g = [field.from_sympy(e) for e in quat_to_sympy(rand_quaternion(rng))]
            want = quat_apply_sympy(quotient, quat_apply_sympy(ctx.K, g))
            assert quat_apply_sympy(op, g) == want, text
