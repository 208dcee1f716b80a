"""Matrix layer: order-sensitive products and certified inversion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import ncmatrix
from opfactor.ncmatrix import _dot
from opfactor.poly import Poly
from opfactor import (
    MixedAlgebras,
    NCMatrix,
    NotInvertible,
    ShapeMismatch,
    VerificationFailed,
    parse_element,
)

from helpers import (
    ALL_ALGEBRAS,
    C5,
    DIFF1,
    QUAT,
    QX,
    WrongInverseQuat,
    assert_members,
    elements,
    rand_c5,
    rand_quaternion,
    rand_ratfunc,
)


def quat_unit(name):
    return QUAT.symbols()[name]


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        NCMatrix(QX, 2, 2, (QX.one(),) * 3)
    with pytest.raises(ShapeMismatch, match="^negative dimensions$"):
        NCMatrix(QX, -1, 0, ())
    with pytest.raises(ShapeMismatch, match="^ragged rows$"):
        NCMatrix.from_rows(QX, [[QX.one()], [QX.one(), QX.zero()]])
    with pytest.raises(MixedAlgebras):
        NCMatrix(QX, 1, 1, (QUAT.one(),))
    assert repr(NCMatrix(QX, 0, 0, ())) == "NCMatrix()"


def test_product_preserves_factor_order():
    i, j, k = (quat_unit(s) for s in "ijk")
    mi = NCMatrix(QUAT, 1, 1, (i,))
    mj = NCMatrix(QUAT, 1, 1, (j,))
    assert (mi * mj).entry(0, 0) == k
    assert (mj * mi).entry(0, 0) == -k


def test_product_shape_rules():
    a = NCMatrix.from_rows(QX, [[QX.one(), QX.zero()]])  # 1x2
    b = NCMatrix.from_rows(QX, [[QX.one()], [QX.one()]])  # 2x1
    assert (a * b).rows == 1 and (a * b).cols == 1
    with pytest.raises(ShapeMismatch):
        b * NCMatrix.from_rows(QX, [[QX.one()], [QX.one()]])
    with pytest.raises(MixedAlgebras):
        a * NCMatrix.identity(DIFF1, 2)


def test_identity_and_associativity():
    rng = random.Random(31)
    mats = [
        NCMatrix(C5, 2, 2, tuple(rand_c5(rng) for _ in range(4)))
        for _ in range(3)
    ]
    ident = NCMatrix.identity(C5, 2)
    a, b, c = mats
    assert a * ident == a and ident * a == a
    assert (a * b) * c == a * (b * c)


def _certify(mat, inv):
    ident = NCMatrix.identity(mat.algebra, mat.rows)
    assert mat * inv == ident
    assert inv * mat == ident


def test_inverse_quaternion_sample():
    i, j, k = (quat_unit(s) for s in "ijk")
    one = QUAT.one()
    m = NCMatrix.from_rows(QUAT, [[i, j], [QUAT.zero(), k]])
    _certify(m, m.inverse())


def test_inverse_requires_square():
    m = NCMatrix.from_rows(QX, [[QX.one(), QX.zero()]])
    with pytest.raises(ShapeMismatch):
        m.inverse()


def test_singular_matrices_rejected():
    x = QX.symbols()["x"]
    two_x = x + x
    m = NCMatrix.from_rows(QX, [[x, two_x], [x, two_x]])
    with pytest.raises(NotInvertible):
        m.inverse()
    zero = NCMatrix(QX, 2, 2, (QX.zero(),) * 4)
    with pytest.raises(NotInvertible):
        zero.inverse()


def test_c5_matrix_with_nonunit_pivot_chain():
    # 1 + r is not a unit and no row operation can fix a 1x1
    from opfactor import GroupRingC5Element

    g = GroupRingC5Element((1, 1, 0, 0, 0))
    m = NCMatrix(C5, 1, 1, (g,))
    with pytest.raises(NotInvertible):
        m.inverse()


def test_pivot_search_below_diagonal():
    x = QX.symbols()["x"]
    m = NCMatrix.from_rows(QX, [[QX.zero(), QX.one()], [x, QX.zero()]])
    _certify(m, m.inverse())


def _adjugate_inverse(entries, n, algebra):
    """Classical adjugate formula, valid over the commutative field Q(n)."""

    def det(rows):
        size = len(rows)
        if size == 1:
            return rows[0][0]
        total = None
        for col in range(size):
            minor = [r[:col] + r[col + 1 :] for r in rows[1:]]
            term = rows[0][col] * det(minor)
            if col % 2:
                term = -term
            total = term if total is None else total + term
        return total

    rows = [entries[r * n : (r + 1) * n] for r in range(n)]
    d = det(rows)
    if d.is_zero():
        return None
    cof = []
    for r in range(n):
        for c in range(n):
            minor = [
                row[:c] + row[c + 1 :] for idx, row in enumerate(rows) if idx != r
            ]
            cofactor = det(minor) if minor else algebra.one()
            cof.append(-cofactor if (r + c) % 2 else cofactor)
    # adjugate is the transposed cofactor matrix
    inv = [cof[c * n + r] * d.inverse() for r in range(n) for c in range(n)]
    return inv


@pytest.mark.parametrize("size", [2, 3, 4])
def test_inverse_matches_adjugate_oracle(size):
    rng = random.Random(400 + size)
    for algebra in (DIFF1, QX):
        done = 0
        while done < 25:
            entries = [rand_ratfunc(rng, algebra.variable) for _ in range(size * size)]
            expected = _adjugate_inverse(entries, size, algebra)
            mat = NCMatrix(algebra, size, size, tuple(entries))
            if expected is None:
                with pytest.raises(NotInvertible):
                    mat.inverse()
                continue
            inv = mat.inverse()
            for r in range(size):
                for c in range(size):
                    assert inv.entry(r, c) == expected[r * size + c]
            _certify(mat, inv)
            done += 1


def _c5_integers(rows):
    return NCMatrix.from_rows(C5, [[C5.from_fraction(v) for v in row] for row in rows])


def test_c5_unimodular_matrix_without_a_unit_entry():
    # no entry of [[2, 3], [3, 5]] is a unit, so the pivot search fails,
    # but the determinant is 1 and the adjugate is the inverse
    m = _c5_integers([[2, 3], [3, 5]])
    inv = m.inverse()
    assert inv == _c5_integers([[5, -3], [-3, 2]])
    _certify(m, inv)


def test_c5_nonunit_determinant_is_named():
    # [[2, 3], [4, 5]] has determinant -2, which is not a unit
    m = _c5_integers([[2, 3], [4, 5]])
    with pytest.raises(NotInvertible, match="^determinant -2 is not a unit$"):
        m.inverse()
    g = C5.symbols()["r"]
    one = C5.one()
    rank_one = NCMatrix.from_rows(C5, [[one, g], [one, g]])
    with pytest.raises(NotInvertible, match="^determinant 0 is not a unit$"):
        rank_one.inverse()


def _c5_elementary_product(rng, size):
    """A product of elementary matrices with group-ring entries: its
    determinant is 1."""
    m = NCMatrix.identity(C5, size)
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2)
        entries = list(NCMatrix.identity(C5, size).entries)
        entries[i * size + j] = rand_c5(rng)
        m = m * NCMatrix(C5, size, size, tuple(entries))
    return m


@pytest.mark.parametrize("size", [2, 3, 4])
def test_c5_products_of_elementary_matrices_invert(size):
    # determinant 1, so each must invert, whether or not a unit pivot exists
    rng = random.Random(900 + size)
    for _ in range(6):
        m = _c5_elementary_product(rng, size)
        _certify(m, m.inverse())


def test_c5_thin_solve_forms_no_square_product(monkeypatch):
    # Horner runs on B, so a one-row B makes only one-row products: two
    # Horner steps for a 3x3 A and the certificate X*A
    rng = random.Random(910)
    m = _c5_elementary_product(rng, 3)
    rhs = NCMatrix(C5, 1, 3, tuple(rand_c5(rng) for _ in range(3)))
    left_rows, multiply = [], NCMatrix.__mul__

    def spy(left, right):
        left_rows.append(left.rows)
        return multiply(left, right)

    monkeypatch.setattr(NCMatrix, "__mul__", spy)
    x = m.left_solver()(rhs)
    monkeypatch.undo()
    assert left_rows == [1, 1, 1]
    assert x * m == rhs


def _quat_elementary_product(rng, size):
    """A product of row swaps, left scalings by nonzero quaternions and
    row additions with quaternion multipliers: invertible by construction."""
    m = NCMatrix.identity(QUAT, size)
    for _ in range(2 * size):
        entries = list(NCMatrix.identity(QUAT, size).entries)
        i, j = rng.sample(range(size), 2)
        kind = rng.randrange(3)
        if kind == 0:
            entries[i * size + i] = entries[j * size + j] = QUAT.zero()
            entries[i * size + j] = entries[j * size + i] = QUAT.one()
        elif kind == 1:
            entries[i * size + i] = rand_quaternion(rng, nonzero=True)
        else:
            entries[i * size + j] = rand_quaternion(rng)
        m = m * NCMatrix(QUAT, size, size, tuple(entries))
    return m


@pytest.mark.parametrize("size", [3, 4])
def test_quat_products_of_elementary_matrices_invert(size):
    # the engine multiplies out only C*A; _certify checks A*C as well
    rng = random.Random(1100 + size)
    for _ in range(4):
        m = _quat_elementary_product(rng, size)
        _certify(m, m.inverse())


def _quat_third_column(rng, combine):
    """A 3x3 quaternion matrix whose third column is combine(a_i, b_i,
    c1, c2) of its first two columns a and b."""
    c1, c2 = rand_quaternion(rng, nonzero=True), rand_quaternion(rng, nonzero=True)
    rows = []
    for _ in range(3):
        a, b = rand_quaternion(rng, nonzero=True), rand_quaternion(rng, nonzero=True)
        rows.append([a, b, combine(a, b, c1, c2)])
    return NCMatrix.from_rows(QUAT, rows)


def test_quat_right_combination_of_columns_is_singular():
    # column 3 = a*c1 + b*c2, so A (c1, c2, -1)^T = 0: column operations
    # keep that relation, and column 3 reduces to zero with no pivot,
    # whatever the right-hand side
    rng = random.Random(1200)
    for _ in range(5):
        m = _quat_third_column(rng, lambda a, b, c1, c2: a * c1 + b * c2)
        rhs = NCMatrix(QUAT, 2, 3, tuple(rand_quaternion(rng) for _ in range(6)))
        for solve in (m.inverse, lambda: m.left_solver()(rhs)):
            with pytest.raises(NotInvertible, match="^no unit pivot available in column 3$"):
                solve()


def test_quat_left_combination_of_columns_inverts():
    # column 3 = c1*a + c2*b is no relation among the columns over the
    # quaternions, and the one certificate C*A = I makes C two-sided
    rng = random.Random(1300)
    for _ in range(5):
        m = _quat_third_column(rng, lambda a, b, c1, c2: c1 * a + c2 * b)
        _certify(m, m.inverse())


@pytest.mark.parametrize("size", [2, 3, 4])
def test_quat_solve_is_b_times_the_inverse(size):
    rng = random.Random(1400 + size)
    for _ in range(4):
        m = _quat_elementary_product(rng, size)
        rows = rng.randint(1, 3)
        rhs = NCMatrix(QUAT, rows, size, tuple(rand_quaternion(rng) for _ in range(rows * size)))
        x = m.left_solver()(rhs)
        assert x == rhs * m.inverse()
        assert x * m == rhs


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_solve_checks_the_right_side(algebra):
    solve = _upper_unitriangular(algebra).left_solver()
    with pytest.raises(ShapeMismatch, match=r"cannot solve X\*A = B"):
        solve(NCMatrix.identity(algebra, 3))
    other = QUAT if algebra is not QUAT else QX
    with pytest.raises(MixedAlgebras):
        solve(NCMatrix.identity(other, 2))


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
def test_empty_matrix_inverts_to_itself(algebra):
    empty = NCMatrix(algebra, 0, 0, ())
    assert empty.inverse() == empty


@pytest.mark.parametrize(
    "algebra, routine",
    [(QX, "_fraction_free_solver"), (DIFF1, "_fraction_free_solver"),
     (QUAT, "_column_solve"), (C5, "_cayley_hamilton_solve")],
    ids=lambda v: getattr(v, "name", v),
)
def test_each_algebra_runs_one_inversion_routine(monkeypatch, algebra, routine):
    # one algorithm per algebra, for invertible and singular matrices alike
    routines = ("_fraction_free_solver", "_column_solve", "_cayley_hamilton_solve")
    calls = []
    for name in routines:
        def spy(self, *args, _name=name, _run=getattr(NCMatrix, name)):
            calls.append(_name)
            return _run(self, *args)

        monkeypatch.setattr(NCMatrix, name, spy)
    one, zero = algebra.one(), algebra.zero()
    _upper_unitriangular(algebra).inverse()
    with pytest.raises(NotInvertible):
        NCMatrix.from_rows(algebra, [[one, one], [zero, zero]]).inverse()
    assert calls == [routine, routine]


@pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
@settings(max_examples=25)
@given(data=st.data())
def test_inverse_entries_are_members(algebra, data):
    """A product of elementary matrices is invertible over any ring; over
    the group ring its top left entry 1 + a*b is often not a unit, so no
    unit pivot need exist."""
    a, b, c = (data.draw(elements(algebra)) for _ in range(3))
    one, zero = algebra.one(), algebra.zero()
    m = (
        NCMatrix.from_rows(algebra, [[one, a], [zero, one]])
        * NCMatrix.from_rows(algebra, [[one, zero], [b, one]])
        * NCMatrix.from_rows(algebra, [[one, c], [zero, one]])
    )
    assert_members(algebra, m.inverse().entries)


# certificate strength

def _identity_with_corner(algebra, size, corner):
    """The size x size identity with `corner` in row 1, column 2."""
    one, zero = algebra.one(), algebra.zero()
    return NCMatrix.from_rows(algebra, [
        [corner if (i, j) == (0, 1) else one if i == j else zero for j in range(size)]
        for i in range(size)])


def _upper_unitriangular(algebra):
    """[[1, s], [0, 1]] for a symbol s: Gauss-Jordan pivots on the ones."""
    return _identity_with_corner(algebra, 2, list(algebra.symbols().values())[-1])


@pytest.mark.parametrize(
    "algebra, solve_rows, products, left_certificates, integer_checks",
    [(QX, 0, 0, 0, 2), (DIFF1, 0, 0, 0, 2), (C5, 0, 2, 1, 0), (QUAT, 0, 1, 1, 0),
     (QX, 1, 0, 0, 1), (DIFF1, 1, 0, 0, 1), (C5, 1, 2, 1, 0), (QUAT, 1, 1, 1, 0)],
    ids=["qx", "diff", "c5", "quat", "qx-solve", "diff-solve", "c5-solve", "quat-solve"],
)
def test_certificate_products(monkeypatch, algebra, solve_rows, products,
                              left_certificates, integer_checks):
    # over Q(v) the one certificate of each row b of B is x*A' == det*n,
    # one integer identity per column at 2^s; the other algebras certify
    # with the one NCMatrix product X*A == B, after c5's one Horner
    # product B*A for a 2x2 A; A*X is never multiplied out.  solve_rows 0
    # is the inverse, B = I.
    m = _upper_unitriangular(algebra)
    one, s = algebra.one(), list(algebra.symbols().values())[-1]
    rhs = NCMatrix.from_rows(algebra, [[s, one]]) if solve_rows else None
    calls, checks = [], []
    multiply, holds = NCMatrix.__mul__, ncmatrix._holds

    def spy(left, right):
        calls.append((left, right))
        return multiply(left, right)

    def integer_spy(*args):
        checks.append(args)
        return holds(*args)

    monkeypatch.setattr(NCMatrix, "__mul__", spy)
    monkeypatch.setattr(ncmatrix, "_holds", integer_spy)
    x = m.left_solver()(rhs) if solve_rows else m.inverse()
    assert len(calls) == products
    assert len(checks) == integer_checks
    assert calls.count((x, m)) == left_certificates  # X*A = B
    assert calls.count((m, x)) == 0  # A*X
    monkeypatch.undo()
    if solve_rows:
        assert x * m == rhs
    else:
        _certify(m, x)


@pytest.mark.parametrize(
    "algebra, fraction, size",
    [(QX, "1/x", 2), (DIFF1, "1/(n + 1)", 2), (QX, "1/x", 4), (DIFF1, "1/(n + 1)", 4)],
    ids=["qx", "diff", "qx-4x4", "diff-4x4"])
def test_fraction_free_certificate_catches_a_wrong_adjugate(monkeypatch, algebra, fraction,
                                                            size):
    # a 2x2 adjugate comes from cofactors, a 4x4 one from Bareiss
    adjugate, eliminate = ncmatrix._adjugate, ncmatrix._fraction_free_gauss_jordan
    eliminations = []

    def corrupted(a, s, at):
        # the adjugate and det at 2^s, as _adjugate returns them
        adj, det = adjugate(a, s, at)
        adj[0][1] = adj[0][1] + det
        return adj, det

    def counted(a):
        eliminations.append(len(a))
        return eliminate(a)

    monkeypatch.setattr(ncmatrix, "_adjugate", corrupted)
    monkeypatch.setattr(ncmatrix, "_fraction_free_gauss_jordan", counted)
    one, zero = algebra.one(), algebra.zero()
    # with a symbol in the corner A has no denominator, so its solve leaves
    # B as it is; with a fraction there the solve first scales B by diag(L)
    s = list(algebra.symbols().values())[-1]
    for corner in (s, parse_element(fraction, algebra)):
        m = _identity_with_corner(algebra, size, corner)
        with pytest.raises(VerificationFailed, match=r"^left solve X\*A = B does not hold$"):
            m.inverse()
        # the corrupted row of adj reaches a solve through a nonzero first entry
        rhs = NCMatrix.from_rows(algebra, [[one] + [zero] * (size - 1)])
        with pytest.raises(VerificationFailed, match=r"^left solve X\*A = B does not hold$"):
            m.left_solver()(rhs)
    assert eliminations == ([] if size <= 3 else [size] * 4)


@pytest.mark.parametrize("algebra", [QX, DIFF1], ids=lambda a: a.name)
def test_integer_certificate_refuses_a_doctored_solution_row(monkeypatch, algebra):
    # a wrong digit, and a carry moved between two digits, which packs to
    # the same integer at 2^s but is not the solution: the certificate
    # takes the row as unpacked and refuses both
    one, zero = algebra.one(), algebra.zero()
    s = list(algebra.symbols().values())[-1]
    m = NCMatrix.from_rows(algebra, [[s, one, zero], [one, s * s, s], [zero, s, one + s]])
    solve = m.left_solver()
    rhs = NCMatrix.from_rows(algebra, [[s, one, s * s]])
    assert solve(rhs) * m == rhs
    unpacked = ncmatrix._unpacked
    for doctor in (lambda d, s: [d[0] + 1] + d[1:],
                   lambda d, s: [d[0] + 2 ** s, d[1] - 1] + d[2:]):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncmatrix, "_unpacked",
                          lambda v, s, doctor=doctor: doctor(unpacked(v, s), s))
            with pytest.raises(VerificationFailed,
                               match=r"^left solve X\*A = B does not hold$"):
                solve(rhs)


def test_adjugate_eliminates_for_empty_large_and_singular_matrices(monkeypatch):
    eliminate = ncmatrix._fraction_free_gauss_jordan
    eliminations = []

    def counted(a):
        eliminations.append(len(a))
        return eliminate(a)

    monkeypatch.setattr(ncmatrix, "_fraction_free_gauss_jordan", counted)
    x, one, zero = Poly.variable(), Poly.one(), Poly.zero()
    for n in range(5):
        a = [[x + one if i == j else x if j == i + 1 else zero for j in range(n)]
             for i in range(n)]
        adj, det = _unpacked_adjugate(a)
        assert [[_dot(zero, row, col) for col in zip(*a)] for row in adj] == [
            [det if i == j else zero for j in range(n)] for i in range(n)]
    assert eliminations == [0, 1, 4]
    with pytest.raises(NotInvertible, match="^no unit pivot available in column 2$"):
        _unpacked_adjugate([[x, x * x], [one, x]])
    assert eliminations == [0, 1, 4, 2]


def _unpacked_adjugate(a, s=64):
    """`_adjugate` of a small matrix over Z[v] at 2^s, unpacked to Polys;
    2^(s-1) exceeds every coefficient of its cofactors and det."""
    adj, det = ncmatrix._adjugate(a, s, [[ncmatrix._value(p, s) for p in row] for row in a])
    def unpacked(v):
        return ncmatrix._reduced(ncmatrix._unpacked(v, s), 1, 1)

    return [[unpacked(e) for e in row] for row in adj], unpacked(det)


def _eliminated(a, s, at):
    """`_adjugate` by fraction-free Gauss-Jordan alone, packed at 2^s."""
    adj, det = ncmatrix._fraction_free_gauss_jordan(a)
    return [[ncmatrix._value(p, s) for p in row] for row in adj], ncmatrix._value(det, s)


@pytest.mark.parametrize("algebra", [QX, DIFF1], ids=lambda a: a.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cofactor_solves_match_the_bareiss_reference(algebra, data):
    # singular draws: a zero first column, or a column that is a
    # combination of the earlier ones (of none, a zero column)
    size = data.draw(st.integers(1, 3))
    kind = data.draw(st.sampled_from(["any", "zero first column", "dependent column"]))

    def draw():
        return data.draw(elements(algebra))

    columns = [[draw() for _ in range(size)] for _ in range(size)]
    if kind == "zero first column":
        columns[0] = [algebra.zero()] * size
    elif kind == "dependent column":
        j = data.draw(st.integers(0, size - 1))
        scales = [draw() for _ in range(j)]
        columns[j] = [_dot(algebra.zero(), scales, [c[i] for c in columns[:j]])
                      for i in range(size)]
    m = NCMatrix(algebra, size, size, (c[i] for i in range(size) for c in columns))
    rhs = NCMatrix.from_rows(algebra, [[draw() for _ in range(size)]])

    def solves():
        try:
            solve = m.left_solver()
        except NotInvertible as e:
            return str(e)
        return solve(NCMatrix.identity(algebra, size)), solve(rhs)

    got = solves()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncmatrix, "_adjugate", _eliminated)
        assert solves() == got
    if kind != "any":
        assert got.startswith("no unit pivot available in column ")


def test_column_solve_certificate_catches_a_wrong_pivot_inverse():
    algebra = WrongInverseQuat()
    m = NCMatrix(algebra, 2, 2, _upper_unitriangular(QUAT).entries)
    rhs = NCMatrix(algebra, 1, 2, (algebra.one(), algebra.zero()))
    for solve in (m.inverse, lambda: m.left_solver()(rhs)):
        with pytest.raises(VerificationFailed, match=r"^left solve X\*A = B does not hold$"):
            solve()


def test_certificate_declarations():
    assert [a.name for a in ALL_ALGEBRAS if a.commutative] == ["qx", "diff", "c5"]
