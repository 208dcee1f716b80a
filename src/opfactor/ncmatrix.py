"""Matrices over a (possibly noncommutative) coefficient algebra.

Multiplication keeps operand order, entry (i,j) of A*B is
sum_l A[i][l] * B[l][j], never the reverse.

Inversion runs Gauss-Jordan elimination with row operations only, which
are left multiplications by elementary matrices.  A pivot must be a unit
of the algebra: each column is scanned top to bottom among the remaining
rows, and the first entry whose try_invert succeeds is used.  Over a
division ring this finds an inverse whenever one exists.  Over the group
ring it can miss (a matrix can be invertible with no unit entry to pivot
on), so the computed candidate is always certified by checking both
products against the identity; anything short of that raises
NotInvertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .base import Algebra
from .errors import MixedAlgebras, NotAUnit, NotInvertible, ShapeMismatch


@dataclass(frozen=True, eq=False)
class NCMatrix:
    algebra: Algebra
    rows: int
    cols: int
    entries: Tuple  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch("negative dimensions")
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise ShapeMismatch(
                "expected %d entries, got %d"
                % (self.rows * self.cols, len(entries))
            )
        for e in entries:
            self.algebra.check(e)
        object.__setattr__(self, "entries", entries)

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
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = alg.zero()
                for l in range(self.cols):
                    acc = alg.add(acc, alg.mul(self.entry(i, l), other.entry(l, j)))
                out.append(acc)
        return NCMatrix(alg, self.rows, other.cols, tuple(out))

    def inverse(self) -> "NCMatrix":
        """Certified two-sided inverse, or NotInvertible."""
        if self.rows != self.cols:
            raise ShapeMismatch("only square matrices can be inverted")
        alg = self.algebra
        n = self.rows
        ident = NCMatrix.identity(alg, n)
        # one elimination on the augmented rows [self | I]
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
            rows[col] = [alg.mul(pivot_inv, e) for e in rows[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = rows[r][col]
                if alg.is_zero(factor):
                    continue
                rows[r] = [
                    alg.sub(e, alg.mul(factor, p))
                    for e, p in zip(rows[r], rows[col])
                ]
        candidate = NCMatrix.from_rows(alg, [row[n:] for row in rows])
        if self * candidate != ident or candidate * self != ident:
            raise NotInvertible("candidate inverse failed certification")
        return candidate

    def __repr__(self) -> str:
        rows = [
            "[" + ", ".join(self.algebra.format_element(e) for e in self.row(i)) + "]"
            for i in range(self.rows)
        ]
        return "NCMatrix(%s)" % "; ".join(rows)
