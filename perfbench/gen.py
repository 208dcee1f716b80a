"""Seeded request streams for the benchmark workloads, with planted answers.

Each request has a `wire` part, the only thing the program sees (text in
the expression grammar), and an `expect` part that only the checker reads.
The same (workload, seed, count, variants) always gives the same stream.
Mixes are stratified in small blocks (every kernel of a pool once per
block, one planted rejection per block of five) so that two seeds give
the same mix and differ only in the random coefficients.

A stream is `count` base requests, each given as `variants` equivalent
requests: the base request moved by a symmetry of the problem (an
automorphism of the algebra that commutes with D, a sign, the order of
the kernel).  Variants do the same arithmetic on different text, so
each base request can be timed more than once without ever sending the
program the same request twice.

Nothing here imports opfactor; answers come from `oracle`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

import oracle as O

WORKLOADS = ("quat_factor", "c5_factor", "diff_kernel")


@dataclass
class Request:
    wire: dict  # what the program receives
    expect: dict  # the planted answer, for the checker only


def stream_bytes(stream):
    """The exact bytes the program is sent for a stream of base requests."""
    return json.dumps(
        [[r.wire for r in variants] for variants in stream], sort_keys=True
    ).encode()


def _blocks(rng, items, count):
    """`count` picks from `items`, each block a fresh permutation."""
    out = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _rejections(rng, count, every=5):
    """One planted rejection at a random position in each block of `every`."""
    return [slot == 0 for slot in _blocks(rng, range(every), count)]


# quat_factor

# Kernels of similar cost, so that latency_p50_ms and latency_p90_ms lie
# inside one broad cost band rather than on the gap between two.
QUAT_POOL = (
    ("x*k", "x^3*i"),  # the paper's worked example
    ("x", "x^2*j"),
    ("x", "x^2*i"),
    ("x*i", "x^2*j"),
)


# automorphisms of the quaternions: cyclic permutations of the units,
# applied to the vector part (b, c, d) of a + b*i + c*j + d*k; the second
# maps i -> j -> k -> i
QUAT_ROTATIONS = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def _rotate(perm, q):
    return (q[0],) + tuple(q[1 + p] for p in perm)


def quat_kernel_operator(f1, f2):
    """The unique monic annihilator of f1, f2 over the quaternions:
    K = (D - g' g^-1)(D - f1' f1^-1) with g = f2' - f1' f1^-1 f2."""
    A = O.ALGEBRAS["quat"]
    r1 = A.mul(A.endo(f1), A.inverse(f1))
    g = A.add(A.endo(f2), A.neg(A.mul(r1, f2)))
    r2 = A.mul(A.endo(g), A.inverse(g))
    return O.compose(A, [A.neg(r2), A.one], [A.neg(r1), A.one])


def _quat_coeff(rng, components, scale):
    """A constant quaternion with the given number of nonzero components."""
    A = O.ALGEBRAS["quat"]
    comps = [A.base.zero] * 4
    for slot in rng.sample(range(4), components):
        comps[slot] = A.base.field(rng.choice(scale))
    return tuple(comps)


def quat_factor(seed, count, variants=1):
    """L = Q.K for a kernel from the pool and Q of degree 1 whose two
    coefficients each have two nonzero parts in +-{1, 2, 3}; one request
    in five adds R of degree 1 and must be rejected.  Variant v moves f,
    Q and R by the v-th quaternion automorphism."""
    rng = random.Random("quat_factor:%d" % seed)
    A = O.ALGEBRAS["quat"]
    kernels = {}  # (pool index, rotation) -> (texts, f, K)

    def kernel(index, rotation):
        key = index, rotation
        if key not in kernels:
            f = [_rotate(rotation, A.parse(t)) for t in QUAT_POOL[index]]
            kernels[key] = [A.fmt(g) for g in f], f, quat_kernel_operator(*f)
        return kernels[key]

    out = []
    for index, reject in zip(
        _blocks(rng, range(len(QUAT_POOL)), count), _rejections(rng, count)
    ):
        Q = [_quat_coeff(rng, 2, (-3, -2, -1, 1, 2, 3)) for _ in "01"]
        R = [_quat_coeff(rng, 1, (-2, -1, 1, 2)) for _ in "01"] if reject else None
        group = []
        for rotation in QUAT_ROTATIONS[:variants]:
            texts, f, K = kernel(index, rotation)
            Qv = [_rotate(rotation, c) for c in Q]
            L = O.compose(A, Qv, K)
            if reject:
                Rv = [_rotate(rotation, c) for c in R]
                L = O.op_add(A, L, Rv)
                offenders = [(i + 1, O.apply(A, Rv, fi)) for i, fi in enumerate(f)]
                expect = {"offenders": [(i, v) for i, v in offenders if not A.is_zero(v)]}
            else:
                expect = {"K": K, "Q": Qv}
            wire = {"op": "factor", "kernel": texts, "operator": O.op_text(A, L)}
            group.append(Request(wire, expect))
        out.append(group)
    return out


# c5_factor

# (a, s): the automorphism r -> r^a of C5, which commutes with D: r -> r^2,
# and the sign s of the whole operator
C5_SYMMETRIES = ((1, 1), (2, -1), (3, 1), (4, -1), (1, -1), (2, 1), (3, -1), (4, 1))


def _c5_auto(a, p):
    out = [0] * 5
    for e, c in enumerate(p):
        out[(a * e) % 5] += c
    return tuple(out)


def _c5_element(rng):
    """One to three nonzero coefficients in [-3, 3]."""
    cs = [0] * 5
    for e in rng.sample(range(5), rng.choice((1, 2, 3))):
        cs[e] = rng.choice((-3, -2, -1, 1, 2, 3))
    return tuple(cs)


def c5_factor(seed, count, variants=1):
    """k = 1 kernels f = +-r^e, for which K = D - r^e.  Q has degree 1..5,
    so L reaches degree 6 and exponent folding modulo 4 runs.  Variant v
    applies the v-th (automorphism, sign) pair to f, Q and R."""
    rng = random.Random("c5_factor:%d" % seed)
    A = O.ALGEBRAS["c5"]
    out = []
    for degree, reject in zip(
        _blocks(rng, range(1, 6), count), _rejections(rng, count)
    ):
        e, sign = rng.randrange(5), rng.choice((1, -1))
        Q = [_c5_element(rng) for _ in range(degree + 1)]
        R = _c5_element(rng) if reject else None
        group = []
        for a, s in C5_SYMMETRIES[:variants]:
            f = _c5_auto(a, A.power(e, sign))
            K = [A.neg(_c5_auto(a, A.power(e))), A.one]
            Qv = [_c5_auto(a, c) if s == 1 else A.neg(_c5_auto(a, c)) for c in Q]
            L = O.compose(A, Qv, K)
            if reject:
                Rv = _c5_auto(a, R) if s == 1 else A.neg(_c5_auto(a, R))
                L = O.op_add(A, L, [Rv])
                expect = {"offenders": [(1, A.mul(Rv, f))]}
            else:
                expect = {"K": K, "Q": Qv, "L": L}
            wire = {"op": "factor", "kernel": [A.fmt(f)], "operator": O.op_text(A, L)}
            group.append(Request(wire, expect))
        out.append(group)
    return out


# diff_kernel


def _diff_poly(rng, degree):
    n = O.ALGEBRAS["diff"].gen
    p = rng.choice((-3, -2, -1, 1, 2, 3)) * n ** degree
    for e in range(degree):
        p += rng.randint(-3, 3) * n ** e
    return p


def _diff_symmetries(k):
    """Orders and signs of a kernel of k elements, identity first: they
    leave K unchanged and permute and negate the P_i."""
    return [
        (perm, signs)
        for signs in itertools.product((1, -1), repeat=k)
        for perm in itertools.permutations(range(k))
    ]


def diff_kernel(seed, count, variants=1):
    """Distinct random polynomial kernels over diff (c = 1).  Per block of
    ten: six with k = 2, three with k = 3, and one dependent kernel (its
    last element a rational combination of the others) that must be
    answered NotInvertible.  Polynomials of distinct degrees are
    independent, so every other kernel is invertible.  Variant v reorders
    and negates the kernel's elements."""
    rng = random.Random("diff_kernel:%d" % seed)
    A = O.ALGEBRAS["diff"]
    kinds = (2,) * 6 + (3,) * 3 + ("dependent",)
    seen = set()
    out = []
    for kind in _blocks(rng, kinds, count):
        while True:
            k = kind if kind != "dependent" else rng.choice((2, 3))
            degrees = rng.sample(range(1, 4), k)
            f = [_diff_poly(rng, d) for d in degrees]
            if kind == "dependent":
                f[-1] = sum(
                    (A.field(rng.choice((-2, -1, 1, 2))) * g for g in f[:-1]),
                    A.zero,
                )
            texts = tuple(A.fmt(g) for g in f)
            if texts not in seen:
                break
        seen.add(texts)
        group = []
        for perm, signs in _diff_symmetries(k)[:variants]:
            fv = [s * f[p] for p, s in zip(perm, signs)]
            wire = {"op": "kernel-op", "kernel": [A.fmt(g) for g in fv]}
            group.append(Request(wire, {"f": fv, "dependent": kind == "dependent"}))
        out.append(group)
    return out


# the command-line examples of README.md, expected results copied from it
# by hand; run as subprocesses in the traced run, for the cli layer

_QUAT_L = "x^3*j*D^3 + (x^2*i - 3*x^2*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j"
_QUAT_MISPRINT = _QUAT_L.replace("3*x^2*j", "3*x^3*j")

README_EXAMPLES = (
    (
        ["kernel-op", "--algebra", "quat", "--kernel", "x*k,x^3*i"],
        0,
        "K = D^2 - (3/x)*D + 3/x^2\n"
        "P_1 = (1/2*k)*D - 3/(2*x)*k\n"
        "P_2 = -(1/(2*x^2)*i)*D + 1/(2*x^3)*i\n",
        None,
    ),
    (
        ["kernel-op", "--algebra", "diff", "--c", "1", "--kernel", "n,n^2"],
        0,
        "K = D^2 - ((4*n + 6)/(n + 1))*D + (4*n^2 + 8*n + 2)/(n^2 + n)\n"
        "P_1 = -(n/(n + 1))*D + (2*n^2 + 2*n + 1)/(n^2 + n)\n"
        "P_2 = (1/(n + 1))*D - (2*n + 1)/(n^2 + n)\n",
        None,
    ),
    (
        ["kernel-op", "--algebra", "c5", "--kernel", "r^2"],
        0,
        "K = D - r^2\nP_1 = r^3\n",
        None,
    ),
    (
        ["factor", "--algebra", "c5", "--kernel", "r^2", "--operator", "r*D^3 - 1"],
        0,
        "K = D - r^2\nQ = r*D^2 + r^4*D + r^3\nverified: L = Q * K\n",
        None,
    ),
    (
        ["dual", "--algebra", "c5", "--kernel", "r^2", "--targets", "r"],
        0,
        "Phat = r^4\n",
        None,
    ),
    (
        ["intertwine", "--algebra", "qx", "--kernel", "x", "--r", "x*D"],
        0,
        "K = D - 1/x\nQ = x*D + 1\nverified: K * R = Q * K\n",
        None,
    ),
    (
        ["verify", "--algebra", "c5", "--operator", "D - r^2", "--on", "r^2"],
        0,
        "L(f) = 0\n",
        None,
    ),
    (
        ["kernel-op", "--algebra", "diff", "--c", "1", "--kernel", "n,n^2", "--json"],
        0,
        {
            "algebra": "diff",
            "c": "1",
            "kernel": ["n", "n^2"],
            "K": {"coeffs": ["(4*n^2 + 8*n + 2)/(n^2 + n)", "(-4*n - 6)/(n + 1)", "1"]},
            "verified": True,
        },
        None,
    ),
    (
        ["factor", "--algebra", "quat", "--kernel", "x*k,x^3*i", "--operator", _QUAT_MISPRINT],
        3,
        "",
        "(18*x^4 - 18*x^3)*k",
    ),
)


def cli_examples(algebra):
    """The README examples on one algebra, as requests for the checker."""
    return [
        Request({"op": "cli", "argv": argv}, {"code": code, "stdout": out, "stderr_part": err})
        for argv, code, out, err in README_EXAMPLES
        if argv[argv.index("--algebra") + 1] == algebra
    ]


GENERATORS = {
    "quat_factor": quat_factor,
    "c5_factor": c5_factor,
    "diff_kernel": diff_kernel,
}


def generate(workload, seed, count, variants=1):
    """`count` base requests, each a list of `variants` equivalent ones."""
    return GENERATORS[workload](seed, count, variants)
