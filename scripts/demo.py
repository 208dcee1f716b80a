#!/usr/bin/env python3
"""Walk the three worked showcases end to end and print every artifact.

Builds each kernel context through the library API (no CLI involved),
shows the structure matrix and its inverse, the dual operators, the
kernel operator, and then runs one factorization or intertwining on top.

Usage: python3 scripts/demo.py [--only quat|diff|c5]
"""

import argparse
from fractions import Fraction

from opfactor import (
    KernelContext,
    Operator,
    get_algebra,
    parse_element,
    parse_operator,
    right_divide_monic,
)


def show_context(title, ctx):
    print("== %s ==" % title)
    alg = ctx.algebra
    print("kernel elements:")
    for i, f in enumerate(ctx.f):
        print("  f_%d = %s" % (i + 1, alg.format_element(f)))
    print("structure matrix Phi:")
    for r in range(ctx.k):
        row = ", ".join(
            alg.format_element(ctx.phi.entry(r, c)) for c in range(ctx.k)
        )
        print("  [%s]" % row)
    print("inverse:")
    for r in range(ctx.k):
        row = ", ".join(
            alg.format_element(ctx.phi_inv.entry(r, c)) for c in range(ctx.k)
        )
        print("  [%s]" % row)
    for i, p in enumerate(ctx.P):
        print("P_%d = %s" % (i + 1, p))
    print("K = %s" % ctx.K)


def demo_quat():
    algebra = get_algebra("quat")
    ctx = KernelContext(
        algebra,
        [parse_element("x*k", algebra), parse_element("x^3*i", algebra)],
    )
    show_context("quaternions over Q(x), kernel (x*k, x^3*i)", ctx)

    big = parse_operator(
        "x^3*j*D^3 + (x^2*i - 3*x^2*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j",
        algebra,
    )
    print("L = %s" % big)
    q = ctx.factorize(big)
    print("factorize: Q = %s" % q)
    div_q, rem = right_divide_monic(big, ctx.K)
    print("right division agrees: %s, remainder %s" % (div_q == q, rem))
    print()


def demo_diff():
    for c in (Fraction(0), Fraction(1), Fraction(-2)):
        algebra = get_algebra("diff", c=c)
        ctx = KernelContext(
            algebra,
            [parse_element("n", algebra), parse_element("n^2", algebra)],
        )
        show_context("shift-plus-scaling on Q(n), c = %s, kernel (n, n^2)" % c, ctx)
        for f in ctx.f:
            assert ctx.K.apply(f) == algebra.zero()
        print("checked: K annihilates both kernel elements")
        print()


def demo_c5():
    algebra = get_algebra("c5")
    ctx = KernelContext(algebra, [parse_element("r^2", algebra)])
    show_context("group ring Z[C5], kernel (r^2,)", ctx)

    big = parse_operator("r*D^3 - 1", algebra)
    print("L = %s" % big)
    hats = ctx.hat_coefficients(big)
    print(
        "hat coefficients: [%s]"
        % ", ".join(algebra.format_element(h) for h in hats)
    )
    q = ctx.factorize(big)
    print("factorize: Q = %s" % q)
    print("Q * K = %s" % q.compose(ctx.K))
    print("D^4 equals the identity: %s" % (Operator.d(algebra, 4) == Operator.identity(algebra)))
    print()


DEMOS = {"quat": demo_quat, "diff": demo_diff, "c5": demo_c5}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(DEMOS), default=None)
    args = parser.parse_args()
    picks = [args.only] if args.only else ["quat", "diff", "c5"]
    for name in picks:
        DEMOS[name]()


if __name__ == "__main__":
    main()
