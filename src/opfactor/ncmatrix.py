"""Matrices over a (possibly noncommutative) coefficient algebra.

Multiplication keeps operand order, entry (i,j) of A*B is
sum_l A[i][l] * B[l][j], never the reverse.

Inversion runs Gauss-Jordan elimination with row operations only, which
are left multiplications by elementary matrices.  A pivot must be a unit
of the algebra: each column is scanned top to bottom among the remaining
rows, and the first entry whose try_invert succeeds is used.  Over a
division ring this finds an inverse whenever one exists.  Over the group
ring it can miss: [[2, 3], [3, 5]] is invertible with no unit entry to
pivot on.  So when the search fails over a commutative algebra, the
inverse is read off the characteristic polynomial instead (Cayley-
Hamilton, with Berkowitz's division-free recursion for the polynomial),
which succeeds exactly when the determinant is a unit; otherwise the
pivot search's NotInvertible stands.  A candidate C must pass C*A = I, which
suffices over a commutative algebra (det C * det A = 1) and over a division
ring, whose matrix rings are Dedekind-finite (Lam, A First Course in
Noncommutative Rings, section 1); any other algebra must also pass A*C = I.

NCMatrix is a value class in the package's one slotted idiom (see the base
module), immutable by convention.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .base import Algebra
from .errors import MixedAlgebras, NotAUnit, NotInvertible, ShapeMismatch


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
        try:
            candidate = self._gauss_jordan()
        except NotInvertible:
            if not self.algebra.commutative:
                raise
            candidate = self._cayley_hamilton()
            if candidate is None:
                raise
        alg, ident = self.algebra, NCMatrix.identity(self.algebra, self.rows)
        two_sided = not (alg.commutative or alg.division_ring)
        if candidate * self != ident or (two_sided and self * candidate != ident):
            raise NotInvertible("candidate inverse failed certification")
        return candidate

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

    def _cayley_hamilton(self):
        """The uncertified inverse over a commutative algebra, or None when
        the determinant is not a unit.  With det(tI - A) = t^n + c_1
        t^(n-1) + ... + c_n, Cayley-Hamilton gives
        A^-1 = -c_n^-1 (A^(n-1) + c_1 A^(n-2) + ... + c_(n-1) I)."""
        alg = self.algebra
        n = self.rows
        coeffs = self._charpoly()
        try:
            scale = -alg.try_invert(coeffs[n])
        except NotAUnit:
            return None
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
        polynomial of B.  It needs no division; entries must commute."""
        alg = self.algebra
        n = self.rows
        entry = self.entry
        poly = [alg.one(), -entry(n - 1, n - 1)]
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
