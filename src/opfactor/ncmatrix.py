"""Matrices over a (possibly noncommutative) coefficient algebra.

Multiplication keeps operand order, entry (i,j) of A*B is
sum_l A[i][l] * B[l][j], never the reverse.

Inversion runs one algorithm per algebra, and on each built-in algebra that
algorithm fails only where no inverse exists.  Over the fraction fields
Q(v) (qx, diff, the RationalFunctionAlgebra type) it runs on polynomials.
Column j is scaled by the lcm L_j of its denominators, A' = A*diag(L) over
Q[v], and fraction-free Gauss-Jordan on [A' | I] (Bareiss, Math. Comp. 22,
1968) pivots on the first nonzero entry at or below the diagonal, divides
each update exactly by the previous pivot and ends at [det*I | adj].  The
one certificate adj*A' = det*I, by Poly products, makes C = diag(L)*adj/det
a left inverse, C*A = diag(L)*adj*A'*diag(L)^-1/det = I, so a two-sided
one over a commutative ring.  By Sylvester's identity each entry scanned
for a pivot is a nonzero multiple (column scales times the previous
pivot) of the one Gauss-Jordan over Q(v) scans, so both stop at the same
column, where A is singular.

Over any other algebra that declares itself commutative (c5) a matrix is
invertible exactly when its determinant is a unit, and the inverse is read
off the characteristic polynomial (Cayley-Hamilton, with Berkowitz's
division-free recursion for the polynomial); when det A is not a unit,
NotInvertible names it.  Unit pivots would not do: the group ring has
zero divisors, and [[2, 3], [3, 5]] is invertible with no unit entry to
pivot on.  The remaining algebras (quat) run Gauss-Jordan elimination
with row operations only, which are left multiplications by elementary
matrices: each column is scanned top to bottom among the remaining rows
and the first entry whose try_invert succeeds is the pivot, so over a
division ring it finds an inverse whenever one exists.

A candidate C from Cayley-Hamilton or Gauss-Jordan is certified by the
one product C*A = I, and that proves C two-sided on any algebra.  Over a commutative
ring, det C * det A = 1, so A is invertible and its inverse is C.
Gauss-Jordan's C is a product of elementary matrices (row swaps, left
scalings by the two-sided units try_invert returns, and additions of a
multiple of one row to another), so C is invertible, and C*A = I gives
A = C^-1, hence A*C = I.  A*C is never multiplied out.

NCMatrix is a value class in the package's one slotted idiom (see the base
module), immutable by convention.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .algebras import RationalFunctionAlgebra
from .base import Algebra
from .errors import MixedAlgebras, NotAUnit, NotInvertible, ShapeMismatch
from .poly import Poly
from .ratfunc import RationalFunction


def _dot(alg: Algebra, xs, ys):
    """sum(x * y) over the pairs in order, each product keeping x on the left."""
    acc = alg.zero()
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


class NCMatrix:
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCMatrix):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.rows, self.cols, self.entries))

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
        alg = self.algebra
        cols = [other.entries[j :: other.cols] for j in range(other.cols)]
        out = [_dot(alg, self.row(i), col) for i in range(self.rows) for col in cols]
        return NCMatrix(alg, self.rows, other.cols, out)

    def inverse(self) -> "NCMatrix":
        """Certified two-sided inverse, or NotInvertible."""
        if self.rows != self.cols:
            raise ShapeMismatch("only square matrices can be inverted")
        alg = self.algebra
        if isinstance(alg, RationalFunctionAlgebra):
            return self._fraction_free_inverse()
        candidate = self._cayley_hamilton() if alg.commutative else self._gauss_jordan()
        if candidate * self != NCMatrix.identity(alg, self.rows):
            raise NotInvertible("candidate inverse failed certification")
        return candidate

    def _fraction_free_inverse(self) -> "NCMatrix":
        """The certified inverse over Q(v), as the module docstring says."""
        n = self.rows
        scales = []
        for j in range(n):
            lcd = Poly.one()
            for e in self.entries[j::n]:
                if e.den.degree > 0:
                    lcd = lcd * (e.den // Poly.gcd(lcd, e.den))
            scales.append(lcd)
        cleared = [[e.num if s.degree < 1 else e.num * (s // e.den)
                    for e, s in zip(self.row(i), scales)] for i in range(n)]
        adj, det = _fraction_free_gauss_jordan(cleared)
        if not _is_adjugate(adj, cleared, det):
            raise NotInvertible("candidate inverse failed certification")
        var = self.algebra.variable
        return NCMatrix(self.algebra, n, n, (RationalFunction(s * a, det, var)
                                             for s, row in zip(scales, adj) for a in row))

    def _gauss_jordan(self) -> "NCMatrix":
        """The uncertified inverse by one elimination on the augmented
        rows [self | I]; NotInvertible when a column has no unit pivot."""
        alg = self.algebra
        n = self.rows
        ident = NCMatrix.identity(alg, n)
        rows = [list(self.row(i)) + list(ident.row(i)) for i in range(n)]
        for col in range(n):
            pivot_row = None
            pivot_inv = None
            for r in range(col, n):
                try:
                    pivot_inv = alg.try_invert(rows[r][col])
                except NotAUnit:
                    continue
                pivot_row = r
                break
            if pivot_row is None:
                raise NotInvertible(
                    "no unit pivot available in column %d" % (col + 1)
                )
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            rows[col] = [pivot_inv * e for e in rows[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = rows[r][col]
                if factor.is_zero():
                    continue
                rows[r] = [e - factor * p for e, p in zip(rows[r], rows[col])]
        return NCMatrix.from_rows(alg, [row[n:] for row in rows])

    def _cayley_hamilton(self) -> "NCMatrix":
        """The uncertified inverse over a commutative algebra.  With
        det(tI - A) = t^n + c_1 t^(n-1) + ... + c_n, Cayley-Hamilton gives
        A^-1 = -c_n^-1 (A^(n-1) + c_1 A^(n-2) + ... + c_(n-1) I); when
        det A = (-1)^n c_n is not a unit, NotInvertible names it."""
        alg = self.algebra
        n = self.rows
        coeffs = self._charpoly()
        try:
            scale = -alg.try_invert(coeffs[n])
        except NotAUnit:
            det = -coeffs[n] if n % 2 else coeffs[n]
            raise NotInvertible("determinant %s is not a unit" % alg.format_element(det)) from None
        acc = NCMatrix.identity(alg, n)
        for c in coeffs[1:n]:  # Horner, adding c_i on the diagonal
            acc = NCMatrix(alg, n, n, tuple(
                e + c if idx % (n + 1) == 0 else e
                for idx, e in enumerate((acc * self).entries)
            ))
        return NCMatrix(alg, n, n, tuple(scale * e for e in acc.entries))

    def _charpoly(self) -> list:
        """[1, c_1, ..., c_n], the coefficients of det(tI - A) from the top,
        by Berkowitz's recursion: for a block [[a, R], [C, B]] the
        polynomial of the block is the lower triangular Toeplitz matrix
        with first column 1, -a, -R C, -R B C, -R B^2 C, ... times the
        polynomial of B; the 0 x 0 matrix has polynomial 1.  It needs no
        division; entries must commute."""
        alg = self.algebra
        n = self.rows
        entry = self.entry
        poly = [alg.one(), -entry(n - 1, n - 1)] if n else [alg.one()]
        for m in range(n - 2, -1, -1):
            rest = range(m + 1, n)
            row_r = [entry(m, j) for j in rest]
            block = [[entry(i, j) for j in rest] for i in rest]
            col = [alg.one(), -entry(m, m)]
            vec = [entry(i, m) for i in rest]
            for _ in rest:
                col.append(-_dot(alg, row_r, vec))
                vec = [_dot(alg, b_row, vec) for b_row in block]
            # entry i is sum_j col[i - j] * poly[j]; zip stops at poly's end
            poly = [_dot(alg, col[i::-1], poly) for i in range(len(poly) + 1)]
        return poly

    def __repr__(self) -> str:
        rows = [
            "[" + ", ".join(self.algebra.format_element(e) for e in self.row(i)) + "]"
            for i in range(self.rows)
        ]
        return "NCMatrix(%s)" % "; ".join(rows)


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


def _is_adjugate(adj: list, a: list, det: Poly) -> bool:
    """adj*a == det*I, entry by entry, by Poly products."""
    zero = Poly.zero()
    return all(
        sum((x * y for x, y in zip(row, col)), zero) == (det if i == j else zero)
        for i, row in enumerate(adj) for j, col in enumerate(zip(*a))
    )
