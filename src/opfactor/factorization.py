"""Kernel-driven factorization of operators.

Given elements f_1 .. f_k of a coefficient algebra, form the k x k
structure matrix

    Phi[l][i] = endo^l(f_i),   l = 0 .. k-1,

a generalized Wronskian (Casoratian in the difference case).  When Phi has
a two-sided inverse, three families of operators fall out of it:

  * dual operators P_i, rows of the inverse read as operators, which
    satisfy P_i(f_j) = delta_ij,
  * the interpolating operator sum(t_i . P_i) for any targets t_i, the
    unique operator of degree < k sending each f_i to t_i,
  * the kernel operator K = endo^k - sum(endo^k(f_i) . P_i), the monic
    degree-k operator annihilating every f_i.

Together with shifted copies endo^(i-k) . K for high powers, the P_i and K
form a second spanning family for operators: every L of degree <= m has
unique "hat" coefficients h_0 .. h_m with L = sum(h_i . Dhat_i) where

    Dhat_i = P_(i+1)         for i < k,
    Dhat_i = endo^(i-k) . K  for i >= k.

Because K is monic this expansion is right division by K: with
L = Q . K + R and deg R < k, the high hat coefficients are the
coefficients of Q and the low ones are the values h_(i-1) = R(f_i) =
L(f_i).  So an operator annihilates all the f_i exactly when the
remainder vanishes, and then L = Q . K.  One division routine,
right_divide_monic, computes all of this.

Each result carries one exact certificate: Phi^-1 . Phi = I for the
duals and for K, and Q . K + R == L for each division.  A failed
identity raises rather than returning a wrong answer.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .base import Algebra
from .errors import (
    CorollaryViolated,
    NotInKernel,
    NotIntertwinable,
    NotMonicizable,
    VerificationFailed,
)
from .ncmatrix import NCMatrix
from .operators import Operator


class KernelContext:
    """Everything derived from one tuple of kernel elements.

    Construction computes Phi, its certified two-sided inverse, the dual
    operators P, the images endo^k(f_i), and the kernel operator K as
    endo^k minus the interpolation of the images.  Neither needs a check
    of its own: P_i(f_j) is entry (i, j) of Phi^-1 . Phi, and
    K(f_j) = endo^k(f_j) - sum_i endo^k(f_i) . (Phi^-1 . Phi)_ij = 0,
    so both are the certificate of the inverse.  NotInvertible
    propagates from the matrix inverse when the elements are not
    independent enough.

    Everything above the construction (hat expansion, factorize,
    intertwiner) is right division by the monic K, certified once per
    division; whether an operator kills the kernel is read off the
    remainder.
    """

    def __init__(self, algebra: Algebra, elements: Sequence):
        elements = tuple(elements)
        if not elements:
            raise ValueError("at least one kernel element is required")
        self.algebra = algebra
        self.f = elements
        k = len(elements)
        self.k = k

        # iterated images rows[l][i] = endo^l(f_i), l = 0 .. k; endo checks f_i
        rows = [list(elements)]
        for _ in range(k):
            rows.append([algebra.endo(v) for v in rows[-1]])
        self.phi = NCMatrix.from_rows(algebra, rows[:k])
        self.phi_inv = self.phi.inverse()
        self.f_image = tuple(rows[k])

        self.P = tuple(
            Operator._trusted(algebra, self.phi_inv.row(i)) for i in range(k)
        )
        self.K = Operator.d(algebra, k) - self.interpolate(self.f_image)

    # the second spanning family

    def dhat(self, i: int) -> Operator:
        if i < 0:
            raise ValueError("negative index")
        if i < self.k:
            return self.P[i]
        return Operator.d(self.algebra, i - self.k).compose(self.K)

    def interpolate(self, targets: Sequence) -> Operator:
        """The degree < k operator sum(t_i . P_i), which sends f_i to t_i:
        the row vector of targets times Phi^-1, whose rows are the P_i."""
        if len(targets) != self.k:
            raise ValueError(
                "expected %d targets, got %d" % (self.k, len(targets))
            )
        row = NCMatrix(self.algebra, 1, self.k, targets) * self.phi_inv
        return Operator._trusted(self.algebra, row.entries)

    def hat_coefficients(self, op: Operator) -> List:
        """Expand an operator over the Dhat family.

        Divides op = Q . K + R: the first k hat coefficients are the
        values R(f_i), the rest are the coefficients of Q, padded with
        zeros up to index max(deg op, k - 1).
        """
        quotient, rest = right_divide_monic(op, self.K)
        hats = [rest.apply(f) for f in self.f] + list(quotient.coeffs)
        size = max(len(op.coeffs), self.k)
        return hats + [self.algebra.zero()] * (size - len(hats))

    def leading_coefficients_by_apply(self, op: Operator) -> Tuple:
        """The first k hat coefficients, computed independently: the hat
        coefficient at index i-1 equals op applied to f_i."""
        self.K._same_algebra(op)
        return tuple(op.apply(f) for f in self.f)

    def factorize(self, op: Operator) -> Operator:
        """Write op = Q . K, which is possible exactly when op kills
        every kernel element, that is when the certified division by K
        leaves no remainder R.  Returns Q; otherwise the nonzero values
        R(f_i) = op(f_i) are the offenders."""
        quotient, rest = right_divide_monic(op, self.K)
        if rest.is_zero():
            return quotient
        raise NotInKernel(self._offenders(rest), self.algebra)

    def intertwiner(self, r_op: Operator) -> Operator:
        """Find Q with Q . K = K . R, which exists exactly when R maps
        each kernel element back into the kernel of K: that is factoring
        K . R, whose values (K . R)(f_i) = K(R(f_i)) are the offenders."""
        try:
            return self.factorize(self.K.compose(r_op))
        except NotInKernel as exc:
            raise NotIntertwinable(exc.offenders, self.algebra) from None

    def zero_on_low_filtration(self, op: Operator) -> bool:
        """For operators of degree below k: does op annihilate the whole
        kernel tuple?  True is only possible for the zero operator; a
        nonzero witness raises CorollaryViolated."""
        self.K._same_algebra(op)
        if not op.is_zero() and len(op.coeffs) > self.k:
            raise ValueError(
                "operator of degree %d is outside filtration level %d"
                % (len(op.coeffs) - 1, self.k - 1)
            )
        return not self._offenders(op)

    def _offenders(self, op: Operator) -> List:
        """The nonzero values op(f_i) with 1-based indices, for op of
        degree below k.  A nonzero op with none would contradict the
        invertibility of Phi, so it raises CorollaryViolated."""
        values = self.leading_coefficients_by_apply(op)
        offenders = [
            (i + 1, v) for i, v in enumerate(values) if not v.is_zero()
        ]
        if not offenders and not op.is_zero():
            raise CorollaryViolated(
                "nonzero operator %s of degree < %d annihilates the kernel"
                % (op, self.k)
            )
        return offenders


def right_divide_monic(op: Operator, divisor: Operator) -> Tuple[Operator, Operator]:
    """Long division from the right by a monic divisor of degree d:
    op = Q . divisor + R with R of degree below d; any other divisor
    raises NotMonicizable.  The twist of 1 is (1, 0), so each shifted
    divisor endo^j . divisor, built once by one twist advance, is monic
    of degree j + d.  From the top, step j takes the remainder's
    coefficient of endo^(j+d) as Q_j and subtracts Q_j . (endo^j . divisor)
    below it.  Recomposing Q . divisor + R == op certifies the result.
    """
    alg = op._same_algebra(divisor)
    if divisor.is_zero() or divisor.coeffs[-1] != alg.one():
        raise NotMonicizable("divisor %s is not monic" % divisor)
    d = len(divisor.coeffs) - 1
    shifted = [divisor]
    while len(shifted) < len(op.coeffs) - d:
        shifted.append(shifted[-1]._advanced())
    rest = list(op.coeffs)
    quotient = [alg.zero()] * max(len(op.coeffs) - d, 0)
    for j in reversed(range(len(quotient))):
        top = rest[j + d]
        quotient[j] = top
        if not top.is_zero():
            for t, c in enumerate(shifted[j].coeffs[: j + d]):
                rest[t] = rest[t] - top * c
    q_op = Operator._trusted(alg, quotient)
    r_op = Operator._trusted(alg, rest[:d])
    if q_op.compose(divisor) + r_op != op:
        raise VerificationFailed("right division does not recompose")
    return q_op, r_op
