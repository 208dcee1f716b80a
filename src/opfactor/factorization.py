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
right_divide_monic, computes all of this; a context calls its body,
`_divide`, with K's shifted divisors, which it keeps.

Neither K nor an interpolation needs Phi^-1.  The row X of coefficients
with X . Phi = (t_1 .. t_k) is the operator sending each f_i to t_i, so
one left solve gives it, and K = endo^k - X for the targets endo^k(f_i).
Phi^-1 is that solve with the identity for targets, and the P_i are
built from it only when first asked for.

Each result carries one exact certificate: X . Phi = B for each solve
(K(f_j) = 0 for K, P_i(f_j) = delta_ij for the duals), and L = Q . K + R
for each division, with Q . K composed afresh and R added in, compared
with L coefficient by coefficient and without the endo_order fold of
operator equality, so a quotient whose coefficient sits a multiple of
endo_order powers too high fails it.  A failed identity raises
VerificationFailed, naming it, rather than returning a wrong answer; only
an elimination that finds Phi singular raises NotInvertible.

K depends on the algebra and the f_i alone, so each algebra instance
keeps a memo of solved kernels (`Algebra._kernel_memo`), at most
MEMO_SIZE of them, the oldest evicted first by the helper the element
memo shares (`base.remember`).  An entry holds Phi, its
left solve, the images endo^k(f_i), K, the shifted divisors
[K, endo . K, ...], which every division through a context of those
elements reads and grows, and Phi^-1 with the duals P once a context has
solved them: an entry keeps one shifted divisor per power its divisions
have used, up to the degree of the largest quotient.  It is stored only
once K's solve certificate has passed, so a kernel that raises is never
stored, and Phi^-1 joins it only once its own certificate has passed.  A
second context for equal elements on the same algebra object takes the
entry and solves nothing; every division it makes is still certified.
Since the operators K and P_i are the entry's own objects, the texts
`parsing.operator_to_json` keeps on them are rendered once per entry.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Sequence, Tuple

from .base import MEMO_SIZE, Algebra, remember
from .errors import NotInKernel, NotIntertwinable, NotMonicizable, VerificationFailed
from .ncmatrix import NCMatrix
from .operators import Operator, _grown


class KernelContext:
    """Everything derived from one tuple of kernel elements.

    Construction computes Phi, prepares its certified left solve (see
    the ncmatrix module), takes the images endo^k(f_i), and gets K as
    endo^k minus the interpolation of the images.  K needs no check of
    its own: the solve's certificate X . Phi = f_image says
    K(f_j) = endo^k(f_j) - X(f_j) = 0.  Phi^-1 and the duals P, its
    rows, are solved on first use and kept, so factoring never computes
    them; their certificate Phi^-1 . Phi = I is P_i(f_j) = delta_ij.
    Over qx and diff the one elimination of Phi serves K, P and every
    interpolation; over quat and c5 each solve eliminates afresh.
    NotInvertible propagates from the construction when the elements
    are not independent enough, and VerificationFailed when a solve
    fails its certificate.

    Everything above the construction (hat expansion, factorize,
    intertwiner) is right division by the monic K, certified once per
    division; whether an operator kills the kernel is read off the
    remainder.  That reading rests on Phi being invertible, which the
    elimination proves.

    The construction first checks each element, then looks the tuple up
    in the algebra's memo (see the module docstring).  On a hit it takes
    Phi, the solve, the images, K and the shifted divisors of the first
    context built for equal elements, whose solve certificate has
    passed; on a miss it builds them as above and stores them.  The
    divisions share the shifted divisors [K, endo . K, ...] and grow
    them, so K is twisted once per power per kernel; dhat reads them and
    twists any higher power on a copy.  Phi^-1 and P are solved by the
    first context that reads them and kept with the entry for the rest.
    """

    def __init__(self, algebra: Algebra, elements: Sequence):
        elements = tuple(elements)
        if not elements:
            raise ValueError("at least one kernel element is required")
        for f in elements:
            algebra.check(f)
        self.algebra = algebra
        self.f = elements
        k = len(elements)
        self.k = k

        memo = algebra._kernel_memo
        key = hash(elements)
        entry = memo.get(key)
        if entry is not None and entry[0] == elements:
            (_, self.phi, self._solve, self.f_image, self.K, self._shifted,
             self._inverse) = entry
            return
        # iterated images rows[l][i] = endo^l(f_i), l = 0 .. k
        rows = [list(elements)]
        for _ in range(k):
            rows.append([algebra.endo(v) for v in rows[-1]])
        self.phi = NCMatrix.from_rows(algebra, rows[:k])
        self._solve = self.phi.left_solver()
        self.f_image = tuple(rows[k])
        self.K = Operator.d(algebra, k) - self.interpolate(self.f_image)
        self._shifted = [self.K]
        self._inverse = []
        remember(memo, key, (elements, self.phi, self._solve, self.f_image, self.K,
                             self._shifted, self._inverse))

    @cached_property
    def phi_inv(self) -> NCMatrix:
        """The certified two-sided inverse of Phi, solved on first use.
        The memo entry keeps it for every context of these elements once
        its certificate has passed; a solve that raises stores nothing."""
        inverse = self._inverse
        if not inverse:
            inverse.append(self._solve(NCMatrix.identity(self.algebra, self.k)))
        return inverse[0]

    @cached_property
    def P(self) -> Tuple[Operator, ...]:
        """The dual operators, the rows of Phi^-1, built on first use and
        kept with it in the memo entry."""
        inverse = self._inverse
        if len(inverse) < 2:
            inv = self.phi_inv
            inverse.append(tuple(Operator._trusted(self.algebra, row)
                                 for row in map(inv.row, range(self.k))))
        return inverse[1]

    # the second spanning family

    def dhat(self, i: int) -> Operator:
        if i < 0:
            raise ValueError("negative index")
        if i < self.k:
            return self.P[i]
        j, shifted = i - self.k, self._shifted
        if j >= len(shifted):
            # powers beyond those the divisions used are twisted on a copy,
            # so only divisions grow the memoized list
            shifted = _grown(list(shifted), j + 1)
        return shifted[j]

    def interpolate(self, targets: Sequence) -> Operator:
        """The degree < k operator sum(t_i . P_i), which sends f_i to t_i:
        the row X of coefficients with X . Phi = targets, solved and
        certified without Phi^-1."""
        if len(targets) != self.k:
            raise ValueError(
                "expected %d targets, got %d" % (self.k, len(targets))
            )
        row = self._solve(NCMatrix(self.algebra, 1, self.k, targets))
        return Operator._trusted(self.algebra, row.entries)

    def hat_coefficients(self, op: Operator) -> List:
        """Expand an operator over the Dhat family.

        Divides op = Q . K + R: the first k hat coefficients are the
        values R(f_i), the rest are the coefficients of Q.  Q's top
        coefficient is op's nonzero leading one, so the list ends at
        index max(deg op, k - 1) with no padding.
        """
        quotient, rest = _divide(op, self._shifted)
        return [rest.apply(f) for f in self.f] + list(quotient.coeffs)

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
        quotient, rest = _divide(op, self._shifted)
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
        kernel tuple?  True is only possible for the zero operator, since
        Phi is invertible; a nonzero operator that annihilates the kernel
        would be an engine fault and raises VerificationFailed."""
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
        invertibility of Phi, which the elimination proved, so it raises
        VerificationFailed."""
        values = self.leading_coefficients_by_apply(op)
        offenders = [
            (i + 1, v) for i, v in enumerate(values) if not v.is_zero()
        ]
        if not offenders and not op.is_zero():
            raise VerificationFailed(
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
    below it, skipping zeros.  The certificate composes Q . divisor with
    Operator.compose handed those shifted divisors, so it twists nothing,
    adds R into the low slots and compares the coefficients with op's.
    """
    alg = op._same_algebra(divisor)
    if divisor.is_zero() or divisor.coeffs[-1] != alg.one():
        raise NotMonicizable("divisor %s is not monic" % divisor)
    return _divide(op, [divisor])


def _divide(op: Operator, shifted: List[Operator]) -> Tuple[Operator, Operator]:
    """right_divide_monic for a divisor known to be monic, shifted[0],
    whose shifted copies `shifted` holds; the list is grown in place, so
    a caller that keeps it twists each power once."""
    divisor = shifted[0]
    alg = op._same_algebra(divisor)
    d = len(divisor.coeffs) - 1
    _grown(shifted, len(op.coeffs) - d)
    rest = list(op.coeffs)
    quotient = [alg.zero()] * max(len(op.coeffs) - d, 0)
    for j in reversed(range(len(quotient))):
        top = rest[j + d]
        quotient[j] = top
        if not top.is_zero():
            for t, c in enumerate(shifted[j].coeffs[: j + d]):
                if not c.is_zero():
                    rest[t] = rest[t] - top * c
    q_op = Operator._trusted(alg, quotient)
    r_op = Operator._trusted(alg, rest[:d])
    _certify_division(op, q_op, r_op, shifted)
    return q_op, r_op


def _certify_division(op: Operator, q_op: Operator, r_op: Operator,
                      shifted: List[Operator]) -> None:
    """Raise VerificationFailed unless Q . divisor + R has op's
    coefficients, compared one by one with no exponent folding.  The
    product is composed afresh over the shifted divisors; R's nonzero
    coefficients go into its low slots, or make the whole list when Q is
    zero (deg op below the divisor's degree)."""
    cs = list(q_op.compose(shifted[0], shifted=shifted).coeffs)
    for t, r in enumerate(r_op.coeffs):
        if t == len(cs):
            cs.append(r)
        elif not r.is_zero():
            cs[t] = r if cs[t].is_zero() else cs[t] + r
    if tuple(cs) != op.coeffs:
        raise VerificationFailed("right division does not recompose")
