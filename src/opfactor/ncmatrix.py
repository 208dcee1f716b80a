"""Matrices over a (possibly noncommutative) coefficient algebra.

Multiplication keeps operand order, entry (i,j) of A*B is
sum_l A[i][l] * B[l][j], never the reverse.

A square matrix A has one certified left solve.  `A.left_solver()`
returns a function taking each B with as many columns as A to the X with
X*A = B, and `A.inverse()` is that solve with B = I.  Each algebra runs
one elimination (over Q(v), at 2x2 and 3x3, a cofactor expansion
first), which fails only where A has no inverse and which proves A
invertible when it succeeds: a nonzero determinant over Q(v), a unit
determinant over a commutative ring, a unit pivot in every column
otherwise.  Each X then carries one certificate, X*A = B, and with A
invertible that gives X = B*A^-1; for B = I a two-sided inverse.  A*X
is never multiplied out.  So NotInvertible comes only from an
elimination, and only when A is singular; a certificate that fails is an
engine fault and raises VerificationFailed.

Over the fraction fields Q(v) (qx, diff, the RationalFunctionAlgebra
type) the adjugate is built once per solver, and every product runs on
packed integers: a polynomial p over Z with every coefficient below
2^(s-1) in modulus is recovered exactly from the integer p(2^s) by its
symmetric base-2^s digits (`poly._packed` and `poly._unpacked`, the
argument the poly module gives for GCDHEU).  Column j is scaled by the
lcm L_j of its denominators times the lcm of the denominators of the
contents of its numerators, so A' = A*diag(L) is integral, over Z[v].
The coefficients of A' are at most alpha in modulus and an entry has at
most l terms; by Leibniz a cofactor is a sum of (n-1)! products of n - 1
entries and det one of n! products of n entries, which bounds both.  The
solver packs A' at the least width s, a multiple of 64, above that
bound, and `_adjugate` returns adj and det at 2^s with adj*A' = det*I and
det nonzero.  For n = 2 and 3 adj is the transposed matrix of cofactors,
taken on the integers: [[d, -b], [-c, a]] for A' = [[a, b], [c, d]], so
only det is a product, and the nine 2x2 minors for n = 3, with det
expanded along the first row from three of them.  For n <= 1, for n >= 4
and for every singular A' (det = 0 at 2^s, so det = 0) it comes from
fraction-free Gauss-Jordan on [A' | I] over Z[v], packed
(Bareiss, Math. Comp. 22, 1968), which pivots on the first nonzero entry
at or below the diagonal, divides each update exactly by the previous
pivot and ends at [det*I | adj] with det nonzero.  By Sylvester's identity
each entry scanned for a pivot is a nonzero multiple (column scales times
the previous pivot) of the one Gauss-Jordan over Q(v) scans, so both stop
at the same column, where A is singular, and the elimination names that
column.  The two adjugates differ at most by a sign, which det shares.
Since A^-1 = diag(L)*adj/det, a row b of B, written as integral
numerators n = m*b*diag(L) over one denominator m, has the row
x/(m*det), x = n*adj, of X.  The solve packs n at a width that a bound on
the coefficients of x and of x*A' - det*n allows (from alpha, l and the
coefficients of n), takes each x_i as one integer dot product of n and a
column of adj, and unpacks it.  Its certificate is the polynomial identity
x*A' = det*n, which is X*A = b times m*det*diag(L): from the unpacked x
the solver bounds every coefficient of x*A'_j - det*n_j, picks the width s
above that bound, and checks the integer identity sum_i x_i(2^s)*A'_ij(2^s)
= det(2^s)*n_j(2^s) for each column j, which holds exactly when the
polynomial identity does.  A wrong bound or a bad unpacking can only fail
the certificate.  Each width's packed A', adj and det are kept for the
rows that use it.

Over any other algebra that declares itself commutative (c5) a matrix is
invertible exactly when its determinant is a unit.  Each solve reads the
characteristic polynomial det(tI - A) = t^n + c_1 t^(n-1) + ... + c_n
(Berkowitz's division-free recursion), and when det A = (-1)^n c_n is
not a unit, NotInvertible names it.  Unit pivots would not do: the group
ring has zero divisors, and [[2, 3], [3, 5]] is invertible with no unit
entry to pivot on.  Otherwise Cayley-Hamilton gives
X = B*A^-1 = -c_n^-1 (B*A^(n-1) + c_1 B*A^(n-2) + ... + c_(n-1) B),
summed by Horner from B, so each product has as many rows as B and
A^-1 is formed only as the X of B = I; X is certified by the product
X*A = B.

The remaining algebras (quat) run Gauss-Jordan elimination with column
operations only, right multiplications by elementary matrices, on the
stacked [A; B], once per B.  Column c pivots on the first row, from the
top, not yet a pivot whose entry try_invert accepts; the column is scaled
on the right by that inverse, and the pivot row is cleared in every other
column.  A*E ends as a permutation matrix, so X is B*E with its columns
put back in pivot-row order, certified by the product X*A = B.  Over a
division ring a column has no pivot exactly when it lies in the right
span of the columns before it, so the elimination fails at the first
such column and finds X whenever A is invertible.

_dot computes every sum of products of entries, starting from its first
product.

NCMatrix is a value class in the package's one slotted idiom (see the base
module), immutable by convention.
"""

from __future__ import annotations

import operator
from itertools import chain
from math import factorial, lcm
from typing import Callable, Sequence, Tuple

from .algebras import RationalFunctionAlgebra
from .base import Algebra, Value
from .errors import MixedAlgebras, NotAUnit, NotInvertible, ShapeMismatch, VerificationFailed
from .poly import Poly, _new, _packed, _reduced, _unpacked
from .ratfunc import RationalFunction


def _dot(zero, xs, ys):
    """sum(x * y) over the pairs in order, x on the left of each product,
    starting from the first product; zero when there are no pairs."""
    products = map(operator.mul, xs, ys)
    acc = next(products, zero)
    for p in products:
        acc = acc + p
    return acc


class NCMatrix(Value):
    __slots__ = ("algebra", "rows", "cols", "entries")  # entries row-major

    def __init__(self, algebra: Algebra, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ShapeMismatch("negative dimensions")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                "expected %d entries, got %d"
                % (rows * cols, len(entries))
            )
        for e in entries:
            algebra.check(e)
        self.algebra = algebra
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, algebra: Algebra, rows: Sequence[Sequence]) -> "NCMatrix":
        rows = [tuple(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ShapeMismatch("ragged rows")
        flat = tuple(e for r in rows for e in r)
        return cls(algebra, n, m, flat)

    @classmethod
    def identity(cls, algebra: Algebra, n: int) -> "NCMatrix":
        one, zero = algebra.one(), algebra.zero()
        return cls(
            algebra,
            n,
            n,
            tuple(one if i == j else zero for i in range(n) for j in range(n)),
        )

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __mul__(self, other: "NCMatrix") -> "NCMatrix":
        if not isinstance(other, NCMatrix):
            return NotImplemented
        if self.algebra != other.algebra:
            raise MixedAlgebras("matrices over different algebras")
        if self.cols != other.rows:
            raise ShapeMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        alg, zero = self.algebra, self.algebra.zero()
        cols = [other.entries[j :: other.cols] for j in range(other.cols)]
        out = [_dot(zero, self.row(i), col) for i in range(self.rows) for col in cols]
        return NCMatrix(alg, self.rows, other.cols, out)

    def inverse(self) -> "NCMatrix":
        """Certified two-sided inverse, or NotInvertible: the left solve
        with B = I."""
        return self.left_solver()(NCMatrix.identity(self.algebra, self.rows))

    def left_solver(self) -> Callable[["NCMatrix"], "NCMatrix"]:
        """The function taking B to the certified X with X*self == B, as
        the module docstring says.  Over Q(v) the adjugate is built here,
        once, from cofactors for n = 2 and 3 and by Bareiss elimination
        otherwise and for every singular matrix, and NotInvertible is
        raised when left_solver() is called; over the other algebras the
        elimination runs, and raises, in each solve."""
        if self.rows != self.cols:
            raise ShapeMismatch("only square matrices can be inverted")
        if isinstance(self.algebra, RationalFunctionAlgebra):
            return self._fraction_free_solver()
        if self.algebra.commutative:
            return self._cayley_hamilton_solve
        return self._column_solve

    def _check_right_side(self, b: "NCMatrix") -> None:
        if b.algebra != self.algebra:
            raise MixedAlgebras("matrices over different algebras")
        if b.cols != self.cols:
            raise ShapeMismatch(
                "cannot solve X*A = B for a %dx%d A and a %dx%d B"
                % (self.rows, self.cols, b.rows, b.cols)
            )

    def _fraction_free_solver(self) -> Callable[["NCMatrix"], "NCMatrix"]:
        """The adjugate over Q(v), once, and the certified solve that
        reuses it, both on packed integers, as the module docstring
        says."""
        n = self.rows
        var = self.algebra.variable
        columns = [_integral(self.entries[j::n]) for j in range(n)]
        scales, cleared = [c[0] for c in columns], [c[1] for c in columns]
        a = list(zip(*cleared))
        # Leibniz bounds from the largest coefficient and length of A': an
        # entry of adj is a sum of (n-1)! products of n - 1 entries, det
        # one of n! products of n entries
        alpha, size = _height([p for row in a for p in row])
        r = max(n - 1, 0)
        adj_len = r * (size - 1) + 1
        adj_norm = factorial(r) * size ** max(n - 2, 0) * alpha ** r
        a_norm = n * alpha  # bounds the norms of a column of A', summed
        x_factor = n * adj_len * adj_norm * a_norm
        s = _width(adj_norm * size * a_norm)
        a_at = [[_value(p, s) for p in row] for row in a]
        adj_at, det_at = _adjugate(a, s, a_at)
        det = _reduced(_unpacked(det_at, s), 1, 1)
        det_norm, det_len = _height([det])
        det_norm *= det_len
        a_packs = {s: (list(zip(*a_at)), det_at)}
        adj_packs = {s: list(zip(*adj_at))}
        first = s

        def packed_a(s):
            """A' by columns and det at 2^s, packed once per width."""
            if s not in a_packs:
                a_packs[s] = [[_value(p, s) for p in col] for col in cleared], _value(det, s)
            return a_packs[s]

        def packed_adj(s):
            """adj by columns at 2^s, packed once per width, through adj over
            Z[v] unpacked from the first width."""
            if s not in adj_packs:
                adj_packs[s] = [[_value(_reduced(_unpacked(e, first), 1, 1), s) for e in col]
                                for col in adj_packs[first]]
            return adj_packs[s]

        def solve(b: "NCMatrix") -> "NCMatrix":
            self._check_right_side(b)
            out = []
            for i in range(b.rows):
                lcd, nums = _cleared(b.row(i))
                nums = [y * c for y, c in zip(nums, scales)]
                # n = m*nums over Z[v]
                m = lcm(*[y.cden for y in nums])
                n_norm, n_len = _height(nums)
                n_norm *= m
                tail = det_norm * n_norm
                s = _width(n_norm * (n_len + adj_len) * x_factor + tail)
                ns = [y.cnum * (m // y.cden) * _packed(y.prim, s) for y in nums]
                xs = [_unpacked(sum(map(operator.mul, ns, col)), s) for col in packed_adj(s)]
                # the certificate at the width that the unpacked x needs
                x_norm = max([len(x) * max(max(x), -min(x)) for x in xs if x], default=0)
                c = _width(x_norm * a_norm + tail)
                if c != s:
                    ns = [y.cnum * (m // y.cden) * _packed(y.prim, c) for y in nums]
                if not _holds(xs, *packed_a(c), ns, c):
                    raise VerificationFailed("left solve X*A = B does not hold")
                den = lcd * det
                out += (RationalFunction(_reduced(x, 1, m), den, var) for x in xs)
            return NCMatrix(self.algebra, b.rows, n, out)

        return solve

    def _column_solve(self, b: "NCMatrix") -> "NCMatrix":
        """The certified X with X*self == b by one Gauss-Jordan
        elimination with column operations on [self; b]; NotInvertible
        when a column has no unit pivot."""
        self._check_right_side(b)
        alg = self.algebra
        n = self.rows
        zero = alg.zero()
        cols = [list(self.entries[j::n] + b.entries[j::n]) for j in range(n)]
        free = list(range(n))  # rows of self not yet a pivot
        pivots = []
        for c, col in enumerate(cols):
            for r in free:
                try:
                    inv = alg.try_invert(col[r])
                except NotAUnit:
                    continue
                break
            else:
                raise NotInvertible("no unit pivot available in column %d" % (c + 1))
            free.remove(r)
            pivots.append(r)
            # row r of self*E is now e_c and is never read again, so it is
            # stored as zeros, which keep it out of the products
            col[r] = zero
            col[:] = [e if e.is_zero() else e * inv for e in col]
            for other in cols:
                factor = other[r]
                if other is not col and not factor.is_zero():
                    other[r] = zero
                    other[:] = [e if p.is_zero() else e - p * factor
                                for e, p in zip(other, col)]
        # self*E has its one in column c at row pivots[c], so X*self = B
        # puts column c of B*E at column pivots[c] of X
        x_cols = dict(zip(pivots, cols))
        x = NCMatrix(alg, b.rows, n, (x_cols[j][n + i] for i in range(b.rows) for j in range(n)))
        return _certified(x, self, b)

    def _cayley_hamilton_solve(self, b: "NCMatrix") -> "NCMatrix":
        """The certified X with X*self == b over a commutative algebra, by
        Horner on b over the characteristic polynomial; NotInvertible
        names det A when it is not a unit."""
        self._check_right_side(b)
        alg = self.algebra
        n = self.rows
        coeffs = self._charpoly()
        try:
            scale = -alg.try_invert(coeffs[n])
        except NotAUnit:
            det = -coeffs[n] if n % 2 else coeffs[n]
            raise NotInvertible("determinant %s is not a unit" % alg.format_element(det)) from None
        acc = b  # B*A^i + c_1 B*A^(i-1) + ... + c_i B after step i
        for c in coeffs[1:n]:
            acc = NCMatrix(alg, b.rows, n,
                           (p + c * e for p, e in zip((acc * self).entries, b.entries)))
        return _certified(NCMatrix(alg, b.rows, n, (scale * e for e in acc.entries)), self, b)

    def _charpoly(self) -> list:
        """[1, c_1, ..., c_n], the coefficients of det(tI - A) from the top,
        by Berkowitz's recursion: for a block [[a, R], [C, B]] the
        polynomial of the block is the lower triangular Toeplitz matrix
        with first column 1, -a, -R C, -R B C, -R B^2 C, ... times the
        polynomial of B; the 0 x 0 matrix has polynomial 1.  It needs no
        division; entries must commute."""
        alg = self.algebra
        n = self.rows
        entry, zero = self.entry, alg.zero()
        poly = [alg.one(), -entry(n - 1, n - 1)] if n else [alg.one()]
        for m in range(n - 2, -1, -1):
            rest = range(m + 1, n)
            row_r = [entry(m, j) for j in rest]
            block = [[entry(i, j) for j in rest] for i in rest]
            col = [alg.one(), -entry(m, m)]
            vec = [entry(i, m) for i in rest]
            for _ in rest:
                col.append(-_dot(zero, row_r, vec))
                vec = [_dot(zero, b_row, vec) for b_row in block]
            # entry i is sum_j col[i - j] * poly[j]; zip stops at poly's end
            poly = [_dot(zero, col[i::-1], poly) for i in range(len(poly) + 1)]
        return poly

    def __repr__(self) -> str:
        rows = [
            "[" + ", ".join(self.algebra.format_element(e) for e in self.row(i)) + "]"
            for i in range(self.rows)
        ]
        return "NCMatrix(%s)" % "; ".join(rows)


def _adjugate(a: list, s: int, at: list):
    """(adj, det) at 2^s, with adj*a == det*I and det nonzero, for a over
    Z[v] given also by its values `at` at 2^s, where 2^(s-1) exceeds every
    coefficient of a cofactor and of det: for n = 2 and 3 the cofactors,
    with det expanded along the first row ([[d, -b], [-c, a]] for n = 2);
    for n <= 1, for n >= 4 and for every singular a, fraction-free
    Gauss-Jordan's, packed, so that NotInvertible comes only from the
    elimination."""
    n = len(a)
    if n == 2:
        (p, q), (r, t) = at
        det = p * t - q * r
        if det:
            return [[t, -q], [-r, p]], det
    elif n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = at
        adj = [[b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, a1 * b2 - a2 * b1],
               [b2 * c0 - b0 * c2, a0 * c2 - a2 * c0, a2 * b0 - a0 * b2],
               [b0 * c1 - b1 * c0, a1 * c0 - a0 * c1, a0 * b1 - a1 * b0]]
        det = a0 * adj[0][0] + a1 * adj[1][0] + a2 * adj[2][0]
        if det:
            return adj, det
    adj, det = _fraction_free_gauss_jordan(a)
    return [[_value(p, s) for p in row] for row in adj], _value(det, s)


def _fraction_free_gauss_jordan(a: list):
    """(adj, det) with adj*a == det*I by fraction-free Gauss-Jordan on
    [a | I]; columns left of the pivot are never read again, or updated."""
    n = len(a)
    one, zero = Poly.one(), Poly.zero()
    a = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    prev = one
    for j in range(n):
        i = next((r for r in range(j, n) if a[r][j]), None)
        if i is None:
            raise NotInvertible("no unit pivot available in column %d" % (j + 1))
        a[j], a[i] = a[i], a[j]
        pivot_row, pivot = a[j], a[j][j]
        for r, row in enumerate(a):
            if r != j:
                new = [pivot * x - row[j] * y for x, y in zip(row[j + 1:], pivot_row[j + 1:])]
                row[j + 1:] = new if prev is one else [e // prev for e in new]
        prev = pivot
    return [row[n:] for row in a], prev


def _certified(x: NCMatrix, a: NCMatrix, b: NCMatrix) -> NCMatrix:
    """x, after the one product x*a == b."""
    if x * a != b:
        raise VerificationFailed("left solve X*A = B does not hold")
    return x


def _cleared(entries) -> tuple:
    """(lcd, [lcd*e for e in entries]): the monic lcm of the denominators
    of rational functions and their numerators over it."""
    lcd = Poly.one()
    for e in entries:
        if len(e.den.prim) > 1:
            lcd = lcd * (e.den // Poly.gcd(lcd, e.den))
    if len(lcd.prim) == 1:
        return lcd, [e.num for e in entries]
    return lcd, [e.num * (lcd // e.den) for e in entries]


def _integral(entries) -> tuple:
    """(L, [L*e for e in entries]) with every L*e in Z[v]: L is the monic
    lcm of the denominators of rational functions times the lcm of the
    denominators of the contents of the numerators over it."""
    lcd, nums = _cleared(entries)
    den = lcm(*[y.cden for y in nums])
    if den == 1:
        return lcd, nums
    return (lcd * Poly.constant(den),
            [_new(y.prim, y.cnum * (den // y.cden), 1) if y.prim else y for y in nums])


def _height(polys: list) -> tuple:
    """A bound on the moduli of the coefficients of Polys over Z[v], the
    largest content numerator times the largest coefficient of a primitive
    part, and their largest length; 0 and 0 for no nonzero Poly."""
    prims = [p.prim for p in polys]
    cs = list(chain.from_iterable(prims))
    if not cs:
        return 0, 0
    return max([abs(p.cnum) for p in polys]) * max(max(cs), -min(cs)), max(map(len, prims))


def _width(bound: int) -> int:
    """The least multiple s of 64 with bound < 2^(s-1)."""
    return bound.bit_length() // 64 * 64 + 64


def _value(p: Poly, s: int) -> int:
    """p(2^s) for p over Z[v]."""
    return p.cnum * _packed(p.prim, s)


def _holds(xs: list, a_cols: list, det: int, ns: list, s: int) -> bool:
    """x*A' == det*n over Z[v], for a row x given by its digit lists and
    A' (by columns), det and n given at 2^s, by one integer identity per
    column; the caller has chosen s so that 2^(s-1) exceeds every
    coefficient of x*A' - det*n, and then that polynomial is zero exactly
    when its value at 2^s is."""
    vs = [_packed(x, s) for x in xs]
    for col, y in zip(a_cols, ns):
        if sum(map(operator.mul, vs, col)) != det * y:
            return False
    return True
