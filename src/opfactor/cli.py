"""Command line front end.

Subcommands:

  kernel-op   build the kernel operator K and the dual operators P_i
  factor      write an annihilating operator L as Q . K
  dual        build the interpolating operator sending f_i to target_i
  intertwine  find Q with Q . K = K . R for a given operator R
  verify      apply an operator to an element and print the value

Each subcommand is a function of the algebra and the parsed arguments
that returns its report twice: as text lines and as a JSON payload.
`main` prints one of the two.

Common flags: --algebra {qx,quat,diff,c5} picks the coefficient algebra,
--c sets the rational constant of the difference algebra (default 1, the
others ignore it), --json switches the report to one JSON object on
stdout.

Exit codes: 0 success, 1 syntax error in an expression, 2 the structure
matrix is not invertible, 3 the operator does not annihilate the kernel,
4 the map does not preserve the kernel, 64 usage error.  A failed
certificate (VerificationFailed) or any other AlgebraError exits 70.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .algebras import SELECTORS, get_algebra
from .base import Algebra
from .errors import (
    AlgebraError,
    NotInKernel,
    NotIntertwinable,
    NotInvertible,
    ParseError,
)
from .factorization import KernelContext
from .operators import Operator
from .parsing import (
    algebra_tag,
    operator_to_json,
    parse_element,
    parse_fraction,
    parse_operator,
)

EX_OK = 0
EX_USAGE = 64

# the exit code of each outcome; the first class that matches wins
_EXIT_CODES = (
    (ParseError, 1),
    (NotInvertible, 2),
    (NotInKernel, 3),
    (NotIntertwinable, 4),
    (AlgebraError, 70),
)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, but usage problems exit 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, "%s: error: %s\n" % (self.prog, message))


def _fraction(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="opfactor",
        description="Exact kernel-driven factorization in twisted operator algebras.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_ArgumentParser)
    for command, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--algebra", required=True, choices=SELECTORS)
        p.add_argument(
            "--c",
            type=_fraction,
            default=Fraction(1),
            help="difference algebra constant (default 1)",
        )
        p.add_argument("--json", action="store_true")
        for flag, text in flags:
            p.add_argument(flag, required=True, help=text)
    return parser


def _split_elements(text: str, algebra: Algebra):
    """Parse a comma separated list; error positions count from the
    start of the whole list, not of the element."""
    out = []
    offset = 0
    for part in text.split(","):
        try:
            out.append(parse_element(part, algebra))
        except ParseError as exc:
            raise ParseError(exc.message, exc.position + offset) from None
        offset += len(part) + 1
    return tuple(out)


def _op_json(op: Operator) -> dict:
    return {"coeffs": operator_to_json(op)["coeffs"]}


def _kernel_context(algebra: Algebra, args):
    """Parse --kernel and build its context and the payload up to K."""
    kernel = _split_elements(args.kernel, algebra)
    ctx = KernelContext(algebra, kernel)
    payload = algebra_tag(algebra)
    payload["kernel"] = [algebra.format_element(f) for f in kernel]
    payload["K"] = _op_json(ctx.K)
    return ctx, payload


def _cmd_kernel_op(algebra: Algebra, args):
    ctx, payload = _kernel_context(algebra, args)
    lines = ["K = %s" % ctx.K]
    lines += ["P_%d = %s" % (i + 1, p_op) for i, p_op in enumerate(ctx.P)]
    payload["verified"] = True
    return lines, payload


def _cmd_factor(algebra: Algebra, args):
    ctx, payload = _kernel_context(algebra, args)
    quotient = ctx.factorize(parse_operator(args.operator, algebra))
    payload.update(Q=_op_json(quotient), verified=True)
    return ["K = %s" % ctx.K, "Q = %s" % quotient, "verified: L = Q * K"], payload


def _cmd_dual(algebra: Algebra, args):
    ctx, payload = _kernel_context(algebra, args)
    targets = _split_elements(args.targets, algebra)
    if len(targets) != ctx.k:
        raise ParseError(
            "expected %d targets, got %d" % (ctx.k, len(targets)), 1
        )
    dual = ctx.interpolate(targets)
    payload.update(Q=_op_json(dual), verified=True)
    return ["Phat = %s" % dual], payload


def _cmd_intertwine(algebra: Algebra, args):
    ctx, payload = _kernel_context(algebra, args)
    quotient = ctx.intertwiner(parse_operator(args.r, algebra))
    payload.update(Q=_op_json(quotient), verified=True)
    return ["K = %s" % ctx.K, "Q = %s" % quotient, "verified: K * R = Q * K"], payload


def _cmd_verify(algebra: Algebra, args):
    op = parse_operator(args.operator, algebra)
    value = algebra.format_element(op.apply(parse_element(args.on, algebra)))
    payload = algebra_tag(algebra)
    payload["result"] = value
    return ["L(f) = %s" % value], payload


_KERNEL = ("--kernel", "comma separated kernel elements")

# each subcommand's function and its own required flags, in order, with their help
_COMMANDS = {
    "kernel-op": (_cmd_kernel_op, [_KERNEL]),
    "factor": (_cmd_factor, [_KERNEL, ("--operator", None)]),
    "dual": (_cmd_dual, [
        _KERNEL,
        ("--targets", "comma separated target elements, one per kernel element"),
    ]),
    "intertwine": (_cmd_intertwine, [_KERNEL, ("--r", "the operator R")]),
    "verify": (_cmd_verify, [("--operator", None), ("--on", "element to apply to")]),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("%s: error: a subcommand is required" % parser.prog, file=sys.stderr)
        return EX_USAGE
    algebra = get_algebra(args.algebra, args.c)
    try:
        lines, payload = _COMMANDS[args.command][0](algebra, args)
    except AlgebraError as exc:
        code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
        what = "structure matrix is not invertible: " if code == 2 else ""
        print("error: %s%s" % (what, exc), file=sys.stderr)
        return code
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return EX_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
