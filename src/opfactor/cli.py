"""Command line front end.

Subcommands:

  kernel-op   build the kernel operator K and the dual operators P_i
  factor      write an annihilating operator L as Q . K
  dual        build the interpolating operator sending f_i to target_i
  intertwine  find Q with Q . K = K . R for a given operator R
  verify      apply an operator to an element and print the value

Common flags: --algebra {qx,quat,diff,c5} picks the coefficient algebra,
--c sets the rational constant of the difference algebra (default 1, the
others ignore it), --json switches the report to one JSON object on
stdout.

Exit codes: 0 success, 1 syntax error in an expression, 2 the structure
matrix is not invertible, 3 the operator does not annihilate the kernel,
4 the map does not preserve the kernel, 64 usage error.  Anything else
unexpected exits 70.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
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
from .parsing import parse_element, parse_operator

EX_OK = 0
EX_SYNTAX = 1
EX_NOT_INVERTIBLE = 2
EX_NOT_IN_KERNEL = 3
EX_NOT_INTERTWINABLE = 4
EX_USAGE = 64
EX_INTERNAL = 70


@dataclass
class Session:
    """One CLI invocation: the chosen algebra and how to report."""

    algebra: Algebra
    json_output: bool = False
    lines: List[str] = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def say(self, line: str) -> None:
        self.lines.append(line)

    def finish(self) -> int:
        if self.json_output:
            print(json.dumps(self.payload))
        else:
            for line in self.lines:
                print(line)
        return EX_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, but usage problems exit 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, "%s: error: %s\n" % (self.prog, message))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("%r is not a rational number" % text)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="opfactor",
        description="Exact kernel-driven factorization in twisted operator algebras.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_ArgumentParser)

    def common(p, kernel=False, operator=False, targets=False, rmap=False, on=False):
        p.add_argument("--algebra", required=True, choices=SELECTORS)
        p.add_argument(
            "--c",
            type=_fraction,
            default=Fraction(1),
            help="difference algebra constant (default 1)",
        )
        p.add_argument("--json", action="store_true")
        if kernel:
            p.add_argument(
                "--kernel",
                required=True,
                help="comma separated kernel elements",
            )
        if operator:
            p.add_argument("--operator", required=True)
        if targets:
            p.add_argument(
                "--targets",
                required=True,
                help="comma separated target elements, one per kernel element",
            )
        if rmap:
            p.add_argument("--r", required=True, help="the operator R")
        if on:
            p.add_argument("--on", required=True, help="element to apply to")

    common(sub.add_parser("kernel-op"), kernel=True)
    common(sub.add_parser("factor"), kernel=True, operator=True)
    common(sub.add_parser("dual"), kernel=True, targets=True)
    common(sub.add_parser("intertwine"), kernel=True, rmap=True)
    common(sub.add_parser("verify"), operator=True, on=True)
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
    return {"coeffs": [op.algebra.format_element(c) for c in op.coeffs]}


def _base_payload(session: Session, kernel=None) -> dict:
    payload = {"algebra": session.algebra.name}
    if session.algebra.name == "diff":
        payload["c"] = str(session.algebra.c)
    if kernel is not None:
        payload["kernel"] = [
            session.algebra.format_element(f) for f in kernel
        ]
    return payload


def _kernel_context(session: Session, args) -> KernelContext:
    """Parse --kernel, build its context and start the payload with K."""
    kernel = _split_elements(args.kernel, session.algebra)
    ctx = KernelContext(session.algebra, kernel)
    session.payload = _base_payload(session, kernel)
    session.payload["K"] = _op_json(ctx.K)
    return ctx


def _finish_verified(
    session: Session, quotient: Optional[Operator] = None
) -> int:
    if quotient is not None:
        session.payload["Q"] = _op_json(quotient)
    session.payload["verified"] = True
    return session.finish()


def _cmd_kernel_op(session: Session, args) -> int:
    ctx = _kernel_context(session, args)
    session.say("K = %s" % ctx.K)
    for i, p_op in enumerate(ctx.P):
        session.say("P_%d = %s" % (i + 1, p_op))
    return _finish_verified(session)


def _cmd_factor(session: Session, args) -> int:
    ctx = _kernel_context(session, args)
    quotient = ctx.factorize(parse_operator(args.operator, session.algebra))
    session.say("K = %s" % ctx.K)
    session.say("Q = %s" % quotient)
    session.say("verified: L = Q * K")
    return _finish_verified(session, quotient)


def _cmd_dual(session: Session, args) -> int:
    ctx = _kernel_context(session, args)
    targets = _split_elements(args.targets, session.algebra)
    if len(targets) != ctx.k:
        raise ParseError(
            "expected %d targets, got %d" % (ctx.k, len(targets)), 1
        )
    dual = ctx.interpolate(targets)
    session.say("Phat = %s" % dual)
    return _finish_verified(session, dual)


def _cmd_intertwine(session: Session, args) -> int:
    ctx = _kernel_context(session, args)
    quotient = ctx.intertwiner(parse_operator(args.r, session.algebra))
    session.say("K = %s" % ctx.K)
    session.say("Q = %s" % quotient)
    session.say("verified: K * R = Q * K")
    return _finish_verified(session, quotient)


def _cmd_verify(session: Session, args) -> int:
    op = parse_operator(args.operator, session.algebra)
    elem = parse_element(args.on, session.algebra)
    value = op.apply(elem)
    session.say("L(f) = %s" % session.algebra.format_element(value))
    session.payload = _base_payload(session)
    session.payload["result"] = session.algebra.format_element(value)
    return session.finish()


_COMMANDS = {
    "kernel-op": _cmd_kernel_op,
    "factor": _cmd_factor,
    "dual": _cmd_dual,
    "intertwine": _cmd_intertwine,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("%s: error: a subcommand is required" % parser.prog, file=sys.stderr)
        return EX_USAGE
    algebra = get_algebra(args.algebra, args.c)
    session = Session(algebra, args.json)
    try:
        return _COMMANDS[args.command](session, args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_SYNTAX
    except NotInvertible as exc:
        print("error: structure matrix is not invertible: %s" % exc, file=sys.stderr)
        return EX_NOT_INVERTIBLE
    except NotInKernel as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_NOT_IN_KERNEL
    except NotIntertwinable as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_NOT_INTERTWINABLE
    except AlgebraError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
