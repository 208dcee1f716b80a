"""Independent exact reference arithmetic for the benchmark.

Nothing here imports opfactor.  Rational functions are sympy field
elements (`sympy.polys.fields`), quaternions are 4-tuples of them, and
elements of the group ring Z[C5] are 5-tuples of ints.  Operators are
coefficient lists, lowest power of D first, normalised with the Ore rule

    D . b  =  p_b . D + q_b

where (p_b, q_b) is each algebra's twist pair.  The generator uses this
module to plant answers and to write request text; the checker uses it to
read the program's answers back and to test them.
"""

from __future__ import annotations

from functools import lru_cache

import sympy
from sympy import QQ
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)
from sympy.polys.fields import field

_TRANSFORMS = standard_transformations + (convert_xor,)


def _parse(text, names):
    """Expression-grammar text -> sympy expression over the given symbols."""
    local = {s: sympy.Symbol(s) for s in names}
    return parse_expr(text, local_dict=local, transformations=_TRANSFORMS)


def _signed_sum(terms):
    """Join (coefficient, magnitude text) pairs as `a - b + c`."""
    out = []
    for c, body in terms:
        if out:
            out.append(("+ " if c > 0 else "- ") + body)
        else:
            out.append(body if c > 0 else "-" + body)
    return " ".join(out)


def _poly_text(p, var):
    """An integer-coefficient sympy PolyElement in the expression grammar."""
    terms = []
    for (e,), c in sorted(p.terms(), reverse=True):
        c = int(c)
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            vpart = var if e == 1 else "%s^%d" % (var, e)
            body = vpart if mag == 1 else "%d*%s" % (mag, vpart)
        terms.append((c, body))
    return _signed_sum(terms) if terms else "0"


class RatFuncAlgebra:
    """Q(var) as a sympy field; subclasses fix the endomorphism."""

    def __init__(self, var):
        self.var = var
        self.field, self.gen = field(var, QQ)
        self.zero = self.field(0)
        self.one = self.field(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return a == b

    def from_expr(self, expr):
        num, den = expr.as_numer_denom()
        ring = self.field.ring
        return self.field.new(ring.from_expr(num), ring.from_expr(den))

    @lru_cache(maxsize=4096)
    def parse(self, text):
        return self.from_expr(_parse(text, (self.var,)))

    def fmt(self, a):
        """Text with integer coefficients, `num/den` or `num`; a factor
        that is a sum or a product is parenthesised."""
        num, den = a.numer, a.denom
        m = 1
        for c in num.coeffs() + den.coeffs():
            m = sympy.ilcm(m, int(c.denominator))
        num, den = num * m, den * m
        g = 0
        for c in num.coeffs() + den.coeffs():
            g = sympy.igcd(g, int(c))
        num, den = num.quo_ground(g), den.quo_ground(g)
        ntext = _poly_text(num, self.var)
        ntext = "(%s)" % ntext if " " in ntext else ntext
        if den == 1:
            return ntext
        dtext = _poly_text(den, self.var)
        return "%s/%s" % (ntext, "(%s)" % dtext if " " in dtext or "*" in dtext else dtext)


class DifferentialAlgebra(RatFuncAlgebra):
    """Q(x) with d/dx, the twist (f, f')."""

    def endo(self, a):
        return a.diff(self.gen)

    def twist(self, a):
        return a, a.diff(self.gen)


class DifferenceAlgebra(RatFuncAlgebra):
    """Q(n) with g(n) -> g(n+1) + c*g(n), the twist (g(n+1), c*g - c*g(n+1))."""

    def __init__(self, var="n", c=1):
        super().__init__(var)
        self.c = self.field(c)
        g = self.field.ring.gens[0]
        self._step = (g, g + 1)

    def shift(self, a):
        return self.field(a.numer.compose(*self._step)) / self.field(
            a.denom.compose(*self._step)
        )

    def endo(self, a):
        return self.shift(a) + self.c * a

    def twist(self, a):
        s = self.shift(a)
        return s, self.c * (a - s)


class QuaternionAlgebra:
    """Quaternions a + b*i + c*j + d*k over Q(x), D componentwise d/dx."""

    def __init__(self):
        self.base = DifferentialAlgebra("x")
        z, o = self.base.zero, self.base.one
        self.zero = (z, z, z, z)
        self.one = (o, z, z, z)

    def add(self, p, q):
        return tuple(a + b for a, b in zip(p, q))

    def neg(self, p):
        return tuple(-a for a in p)

    def mul(self, p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def is_zero(self, p):
        return not any(p)

    def eq(self, p, q):
        return p == q

    def inverse(self, p):
        norm = sum(a * a for a in p)
        a, b, c, d = p
        return (a / norm, -b / norm, -c / norm, -d / norm)

    def endo(self, p):
        return tuple(self.base.endo(a) for a in p)

    def twist(self, p):
        return p, self.endo(p)

    @lru_cache(maxsize=4096)
    def parse(self, text):
        """Printed quaternions are linear in i, j, k; any other shape
        leaves a unit symbol in a component and fails to convert."""
        expr = _parse(text, ("x", "i", "j", "k"))
        i, j, k = (sympy.Symbol(s) for s in "ijk")
        parts = (
            expr.subs({i: 0, j: 0, k: 0}),
            sympy.diff(expr, i),
            sympy.diff(expr, j),
            sympy.diff(expr, k),
        )
        return tuple(self.base.from_expr(p) for p in parts)

    def fmt(self, p):
        terms = []
        for comp, unit in zip(p, ("", "i", "j", "k")):
            if comp:
                text = self.base.fmt(comp)
                terms.append(text + ("*" + unit if unit else ""))
        return " + ".join(terms) if terms else "0"


class GroupRingC5:
    """Z[C5] with D: r -> r^2, an automorphism of order 4."""

    endo_order = 4
    zero = (0, 0, 0, 0, 0)
    one = (1, 0, 0, 0, 0)

    def add(self, p, q):
        return tuple(a + b for a, b in zip(p, q))

    def neg(self, p):
        return tuple(-a for a in p)

    def mul(self, p, q):
        out = [0] * 5
        for e1, a in enumerate(p):
            for e2, b in enumerate(q):
                out[(e1 + e2) % 5] += a * b
        return tuple(out)

    def is_zero(self, p):
        return not any(p)

    def eq(self, p, q):
        return p == q

    def endo(self, p):
        out = [0] * 5
        for e, a in enumerate(p):
            out[(2 * e) % 5] += a
        return tuple(out)

    def twist(self, p):
        return self.endo(p), self.zero

    @staticmethod
    def power(e, sign=1):
        out = [0] * 5
        out[e % 5] = sign
        return tuple(out)

    @lru_cache(maxsize=4096)
    def parse(self, text):
        r = sympy.Symbol("r")
        poly = sympy.Poly(_parse(text, ("r",)), r)
        out = [0] * 5
        for (e,), c in poly.terms():
            if not c.is_integer:
                raise ValueError("non-integral group ring coefficient %s" % c)
            out[e % 5] += int(c)
        return tuple(out)

    def fmt(self, p):
        terms = []
        for e, c in enumerate(p):
            if c:
                mag = abs(c)
                if e == 0:
                    body = str(mag)
                else:
                    rpart = "r" if e == 1 else "r^%d" % e
                    body = rpart if mag == 1 else "%d*%s" % (mag, rpart)
                terms.append((c, body))
        return _signed_sum(terms) if terms else "0"


ALGEBRAS = {
    "quat": QuaternionAlgebra(),
    "diff": DifferenceAlgebra("n", 1),
    "c5": GroupRingC5(),
}


# operators: coefficient lists, lowest power first, no trailing zeros


def strip(alg, coeffs):
    out = list(coeffs)
    while out and alg.is_zero(out[-1]):
        out.pop()
    return out


def op_add(alg, a, b):
    n = max(len(a), len(b))
    pad = lambda c, i: c[i] if i < len(c) else alg.zero
    return strip(alg, [alg.add(pad(a, i), pad(b, i)) for i in range(n)])


def compose(alg, a, b):
    """Normal form of a . b (apply b first)."""
    if not a or not b:
        return []
    acc = [alg.zero] * (len(a) + len(b) - 1)
    for j, bj in enumerate(b):
        vec = [bj]  # D^i . bj as a coefficient list, starting at i = 0
        for i, ai in enumerate(a):
            for t, c in enumerate(vec):
                acc[t + j] = alg.add(acc[t + j], alg.mul(ai, c))
            if i == len(a) - 1:
                break
            nxt = [alg.zero] * (len(vec) + 1)
            for t, c in enumerate(vec):
                p, q = alg.twist(c)
                nxt[t + 1] = alg.add(nxt[t + 1], p)
                nxt[t] = alg.add(nxt[t], q)
            vec = nxt
    return strip(alg, acc)


def apply(alg, op, f):
    acc = alg.zero
    cur = f
    for i, a in enumerate(op):
        if i:
            cur = alg.endo(cur)
        acc = alg.add(acc, alg.mul(a, cur))
    return acc


def folded(alg, op):
    """Coefficients with exponents reduced modulo a finite endo order."""
    n = getattr(alg, "endo_order", None)
    if n is None or len(op) <= n:
        return list(op)
    acc = [alg.zero] * n
    for e, c in enumerate(op):
        acc[e % n] = alg.add(acc[e % n], c)
    return strip(alg, acc)


def op_equal(alg, a, b):
    fa, fb = folded(alg, a), folded(alg, b)
    return len(fa) == len(fb) and all(alg.eq(x, y) for x, y in zip(fa, fb))


def op_text(alg, op):
    """Operator text, highest power first, every coefficient parenthesised."""
    terms = []
    for d in range(len(op) - 1, -1, -1):
        c = op[d]
        if alg.is_zero(c):
            continue
        dpart = "" if d == 0 else ("*D" if d == 1 else "*D^%d" % d)
        terms.append("(%s)%s" % (alg.fmt(c), dpart))
    return " + ".join(terms) if terms else "0"


def parse_op(alg, coeff_texts):
    return strip(alg, [alg.parse(t) for t in coeff_texts])
