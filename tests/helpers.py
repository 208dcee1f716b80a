"""Shared random samplers and hypothesis strategies for the test suite.

Two flavors on purpose: plain random.Random samplers for the seeded bulk
loops in the acceptance tests, hypothesis strategies for the per-module
property tests.  Magnitudes stay small so exact arithmetic stays quick.
"""

from fractions import Fraction

import hypothesis.strategies as st

from opfactor import (
    GroupRingC5Element,
    Operator,
    Poly,
    Quaternion,
    RationalFunction,
    get_algebra,
    parse_operator,
)

QX = get_algebra("qx")
QUAT = get_algebra("quat")
DIFF1 = get_algebra("diff", Fraction(1))
C5 = get_algebra("c5")

ALL_ALGEBRAS = (QX, QUAT, DIFF1, C5)

_DENOMS = ((1,), (0, 1), (1, 1))  # 1, x, x + 1


# random.Random samplers

def rand_fraction(rng, lo=-4, hi=4, maxden=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, maxden))


def rand_poly(rng, max_deg=2):
    return Poly([rand_fraction(rng) for _ in range(rng.randint(1, max_deg + 1))])


def rand_ratfunc(rng, var, max_deg=2, nonzero=False):
    num = rand_poly(rng, max_deg)
    if nonzero:
        while num.is_zero():
            num = rand_poly(rng, max_deg)
    den = Poly(rng.choice(_DENOMS))
    return RationalFunction(num, den, var)


def rand_quaternion(rng, nonzero=False):
    comps = [rand_ratfunc(rng, "x", max_deg=1) for _ in range(4)]
    if nonzero and all(c.is_zero() for c in comps):
        comps[rng.randrange(4)] = RationalFunction.one("x")
    return Quaternion(*comps)


def rand_c5(rng):
    return GroupRingC5Element(tuple(rng.randint(-3, 3) for _ in range(5)))


def c5_power(p):
    """The group element r^p, for 0 <= p < 5."""
    return GroupRingC5Element(tuple(int(e == p) for e in range(5)))


def rand_element(rng, algebra, nonzero=False):
    name = algebra.name
    if name == "qx":
        return rand_ratfunc(rng, "x", nonzero=nonzero)
    if name == "diff":
        return rand_ratfunc(rng, "n", nonzero=nonzero)
    if name == "quat":
        return rand_quaternion(rng, nonzero=nonzero)
    if name == "c5":
        e = rand_c5(rng)
        if nonzero and e.is_zero():
            e = c5_power(rng.randrange(5))
        return e
    raise ValueError(name)


def rand_unit(rng, algebra):
    """An invertible element.  For the group ring only the trivial units
    are sampled; anything nonzero works in the division rings."""
    if algebra.name == "c5":
        e = c5_power(rng.randrange(5))
        return -e if rng.random() < 0.5 else e
    return rand_element(rng, algebra, nonzero=True)


def rand_operator(rng, algebra, max_deg=2, monic=False):
    coeffs = [rand_element(rng, algebra) for _ in range(rng.randint(1, max_deg + 1))]
    if monic:
        coeffs.append(algebra.one())
    return Operator(algebra, tuple(coeffs))


# hypothesis strategies

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def polys(max_deg=2):
    return st.lists(small_fractions, min_size=0, max_size=max_deg + 1).map(Poly)


def ratfuncs(var, max_deg=2):
    dens = st.sampled_from([Poly(d) for d in _DENOMS])
    return st.builds(
        lambda n, d: RationalFunction(n, d, var), polys(max_deg), dens
    )


_FACTORS = tuple(
    Poly(f) for f in ((0, 1), (1, 1), (-1, 1), (1, 0, 1), (1, 2))
)  # x, x + 1, x - 1, x^2 + 1, 2x + 1


def _product(scale, factors):
    out = Poly([scale])
    for f in factors:
        out = out * f
    return out


def factored_polys(allow_zero=False):
    """A rational scalar times up to three of a few small factors, so
    that two samples often share a factor."""
    scales = small_fractions if allow_zero else small_fractions.filter(bool)
    return st.builds(
        _product, scales, st.lists(st.sampled_from(_FACTORS), max_size=3)
    )


def factored_ratfuncs(var):
    """Rational functions whose numerator (a factored polynomial times a
    random one) and denominator share factors with other samples, so that
    sums and products often cancel."""
    return st.builds(
        lambda f, p, d: RationalFunction(f * p, d, var),
        factored_polys(allow_zero=True),
        polys(1).filter(bool),
        factored_polys(),
    )


def quaternions(max_deg=1):
    comp = ratfuncs("x", max_deg)
    return st.builds(Quaternion, comp, comp, comp, comp)


def c5_elements():
    return st.builds(
        GroupRingC5Element,
        st.tuples(*(st.integers(-3, 3) for _ in range(5))),
    )


def elements(algebra):
    name = algebra.name
    if name == "qx":
        return ratfuncs("x")
    if name == "diff":
        return ratfuncs("n")
    if name == "quat":
        return quaternions()
    if name == "c5":
        return c5_elements()
    raise ValueError(name)


def operators(algebra, max_deg=2):
    return st.lists(elements(algebra), min_size=0, max_size=max_deg + 1).map(
        lambda cs: Operator(algebra, tuple(cs))
    )


# invariants of values built on the engine's trusted paths

def assert_members(algebra, values):
    """Every value passes algebra.check, and group ring coefficients are
    plain ints."""
    for v in values:
        algebra.check(v)
        if algebra.name == "c5":
            assert all(type(c) is int for c in v.coeffs), v.coeffs


def assert_normal_form(op):
    """Member coefficients and no trailing zero coefficient."""
    assert_members(op.algebra, op.coeffs)
    assert not op.coeffs or not op.coeffs[-1].is_zero()


# an independent reference for Operator.compose

def ref_compose(left, right):
    """left . right with each coefficient b of right pushed through the
    powers of endo on its own (endo^i . b as a coefficient vector), the
    way Operator.compose computed before it advanced right as a whole."""
    alg = left.algebra
    if left.is_zero() or right.is_zero():
        return Operator.zero(alg)
    top = len(left.coeffs) - 1
    acc = [alg.zero()] * (len(left.coeffs) + len(right.coeffs) - 1)
    for j, b in enumerate(right.coeffs):
        if b.is_zero():
            continue
        vec = [b]  # coefficients of endo^i . b, starting at i = 0
        for i, a in enumerate(left.coeffs):
            if not a.is_zero():
                for t, c in enumerate(vec):
                    if not c.is_zero():
                        acc[t + j] = acc[t + j] + a * c
            if i < top:
                nxt = [alg.zero()] * (len(vec) + 1)
                for t, c in enumerate(vec):
                    if c.is_zero():
                        continue
                    tw = alg.twist(c)
                    nxt[t + 1] = nxt[t + 1] + tw.p
                    nxt[t] = nxt[t] + tw.q
                vec = nxt
    return Operator(alg, tuple(acc))


# an independent reference for the parser's evaluation

# expression trees: ("int", k), ("sym", name), ("D",), ("neg", signs, t),
# ("^", t, n), and (op, left, right) for op in "+-*/"

def expr_trees(algebra):
    leaves = st.one_of(
        st.tuples(st.just("int"), st.integers(0, 3)),
        st.tuples(st.just("sym"), st.sampled_from(sorted(algebra.symbols()))),
        st.just(("D",)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children),
            st.tuples(st.just("^"), children, st.integers(0, 6)),
            st.tuples(st.just("neg"), st.integers(1, 4), children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def degree_bound(tree):
    """The parser's syntactic degree bound of the rendered tree."""
    kind = tree[0]
    if kind in ("int", "sym", "D"):
        return 0 if kind == "int" else 1
    if kind == "neg":
        return degree_bound(tree[2])
    if kind == "^":
        return max(degree_bound(tree[1]), 1) * tree[2]
    a, b = degree_bound(tree[1]), degree_bound(tree[2])
    return max(a, b) if kind in "+-" else a + b


def render(tree):
    """Expression text for a tree; every compound operand in parentheses."""
    kind = tree[0]
    if kind in ("int", "sym", "D"):
        return str(tree[-1])

    def operand(t):
        return render(t) if t[0] in ("int", "sym", "D") else "(%s)" % render(t)

    if kind == "neg":
        return "-" * tree[1] + operand(tree[2])
    if kind == "^":
        return "%s^%d" % (operand(tree[1]), tree[2])
    return "%s %s %s" % (operand(tree[1]), kind, operand(tree[2]))


def ref_evaluate(tree, algebra):
    """The value of a tree computed in the operator domain throughout: an
    atom is Operator.scalar (D is Operator.d), * composes, / composes with
    the scalar inverse of a degree-zero divisor, and ^ composes in a loop.
    A divisor of positive degree raises ValueError, a nonunit NotAUnit."""
    kind = tree[0]
    if kind == "int":
        return Operator.scalar(algebra, algebra.from_fraction(Fraction(tree[1])))
    if kind == "sym":
        return Operator.scalar(algebra, algebra.symbols()[tree[1]])
    if kind == "D":
        return Operator.d(algebra)
    if kind == "neg":
        value = ref_evaluate(tree[2], algebra)
        return -value if tree[1] % 2 else value
    left = ref_evaluate(tree[1], algebra)
    if kind == "^":
        out = Operator.identity(algebra)
        for _ in range(tree[2]):
            out = left.compose(out)
        return out
    right = ref_evaluate(tree[2], algebra)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left.compose(right)
    if right.degree > 0:
        raise ValueError("divisor of positive degree")
    inv = algebra.try_invert(right.coeff(0))
    return left.compose(Operator.scalar(algebra, inv))


# an independent reference for Quaternion.__mul__

# e_m * e_n = sign * e_unit as (unit, sign), for the units e = 1, i, j, k
UNIT_PRODUCTS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


def ref_quat_mul(p, q):
    """p * q as the dense sum over all 16 products of units, zero
    components included, independent of the sparse Quaternion.__mul__."""
    out = [RationalFunction.zero(p.var)] * 4
    for m, x in enumerate(p.components):
        for n, y in enumerate(q.components):
            unit, sign = UNIT_PRODUCTS[m][n]
            out[unit] = out[unit] + (x * y if sign > 0 else -(x * y))
    return Quaternion(*out)


def ref_quat_inverse(q):
    """conj(q) / (a^2 + b^2 + c^2 + d^2) for every q, scalars included,
    with the norm taken through ref_quat_mul."""
    conj = Quaternion(q.a, -q.b, -q.c, -q.d)
    s = ref_quat_mul(q, conj).a.inverse()
    return Quaternion(*(comp * s for comp in conj.components))


def ref_poly_compose(p, q):
    """p with q substituted for its variable, by Horner's rule over the
    rational coefficients, independent of the Taylor shift in
    Poly.shifted."""
    out = Poly()
    for c in reversed(p.coeffs):
        out = out * q + Poly.constant(c)
    return out


class CountingQX(type(QX)):
    """Q(x) with d/dx that counts its calls of twist."""

    def __init__(self):
        self.twists = 0

    def twist(self, f):
        self.twists += 1
        return super().twist(f)


class WrongInverseQuat(type(QUAT)):
    """The quaternion algebra whose try_invert returns twice the inverse,
    so a solve whose answer depends on a pivot fails its certificate."""

    def try_invert(self, f):
        return f.inverse() * self.from_fraction(2)


def dense_qx_operator(algebra, degree, sign="+"):
    """sum_i 1/(x + i + 1) . D^i, or with x - i - 1, for i = 0 .. degree:
    every coefficient and every twist of one is nonzero."""
    terms = ("1/(x%s%d)*D^%d" % (sign, i + 1, i) for i in range(degree + 1))
    return parse_operator(" + ".join(terms), algebra)


# an independent reference for Poly

class RefPoly:
    """Schoolbook polynomial arithmetic on Fraction tuples, low degree
    first with no trailing zero, and Euclid's algorithm over Q.  This is
    how Poly computed before it stored a content times a primitive
    integer polynomial; tests compare Poly against it."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __repr__(self):
        return "RefPoly(%r)" % (self.coeffs,)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RefPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return RefPoly(out)

    def __divmod__(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        dq = len(other.coeffs) - 1
        if len(self.coeffs) - 1 < dq:
            return RefPoly(), self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            q = rem[i] / lead
            quot[i - dq] = q
            for j, b in enumerate(other.coeffs, i - dq):
                rem[j] -= q * b
        return RefPoly(quot), RefPoly(rem[:dq])

    def monic(self):
        if not self.coeffs:
            return self
        return RefPoly([c / self.coeffs[-1] for c in self.coeffs])

    @staticmethod
    def gcd(a, b):
        while b.coeffs:
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def derivative(self):
        return RefPoly([c * i for i, c in enumerate(self.coeffs) if i])

    def shifted(self):
        out = list(self.coeffs)
        top = len(out) - 1
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                out[j] += out[j + 1]
        return RefPoly(out)
