"""End-to-end tests for the command line front end."""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opfactor

from opfactor import Operator, VerificationFailed, get_algebra, parse_operator
from opfactor.cli import build_parser, main

from helpers import QUAT, WrongInverseQuat


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv):
    """Run `python -m opfactor` in a fresh process, so that an escaping
    exception shows as a traceback."""
    src = str(Path(opfactor.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "opfactor"] + argv,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


def int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_contract_kernel_op_c5(capsys):
    code, out, err = run(capsys, "kernel-op", "--algebra", "c5", "--kernel", "r^2")
    assert code == 0
    assert out.splitlines()[0] == "K = D - r^2"


def test_contract_factor_c5(capsys):
    code, out, err = run(
        capsys,
        "factor",
        "--algebra",
        "c5",
        "--kernel",
        "r^2",
        "--operator",
        "r*D^3 - 1",
    )
    assert code == 0
    lines = out.splitlines()
    assert "Q = r*D^2 + r^4*D + r^3" in lines
    assert "verified: L = Q * K" in lines


def test_contract_kernel_op_diff(capsys):
    code, out, err = run(
        capsys, "kernel-op", "--algebra", "diff", "--c", "1", "--kernel", "n,n^2"
    )
    assert code == 0
    assert (
        out.splitlines()[0]
        == "K = D^2 - ((4*n + 6)/(n + 1))*D + (4*n^2 + 8*n + 2)/(n^2 + n)"
    )


def test_kernel_op_quat(capsys):
    code, out, err = run(
        capsys, "kernel-op", "--algebra", "quat", "--kernel", "x*k,x^3*i"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K = D^2 - (3/x)*D + 3/x^2"
    assert lines[1] == "P_1 = (1/2*k)*D - 3/(2*x)*k"
    assert lines[2] == "P_2 = -(1/(2*x^2)*i)*D + 1/(2*x^3)*i"


def test_constant_changes_the_difference_algebra(capsys):
    code, out, _ = run(
        capsys, "kernel-op", "--algebra", "diff", "--c", "0", "--kernel", "n,n^2"
    )
    assert code == 0
    assert out.splitlines()[0] == "K = D^2 - ((2*n + 4)/(n + 1))*D + (n + 2)/n"

    code, out, _ = run(
        capsys, "kernel-op", "--algebra", "diff", "--c", "-2", "--kernel", "n,n^2"
    )
    assert code == 0
    assert (
        out.splitlines()[0]
        == "K = D^2 + (2*n/(n + 1))*D + (n^2 - n + 2)/(n^2 + n)"
    )


def test_json_kernel_op(capsys):
    code, out, _ = run(
        capsys,
        "kernel-op",
        "--algebra",
        "diff",
        "--c",
        "1",
        "--kernel",
        "n,n^2",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["algebra"] == "diff"
    assert data["c"] == "1"
    assert data["kernel"] == ["n", "n^2"]
    assert data["verified"] is True
    algebra = get_algebra("diff")
    rebuilt = Operator(
        algebra, tuple(parse_operator(t, algebra).coeff(0) for t in data["K"]["coeffs"])
    )
    expected = (
        "D^2 - ((4*n + 6)/(n + 1))*D + (4*n^2 + 8*n + 2)/(n^2 + n)"
    )
    assert rebuilt == parse_operator(expected, algebra)


def test_json_factor_has_quotient(capsys):
    code, out, _ = run(
        capsys,
        "factor",
        "--algebra",
        "quat",
        "--kernel",
        "x*k,x^3*i",
        "--operator",
        "x^3*j*D^3 + (x^2*i - 3*x^2*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert "c" not in data
    assert data["verified"] is True
    q = Operator(
        QUAT, tuple(parse_operator(t, QUAT).coeff(0) for t in data["Q"]["coeffs"])
    )
    assert q == parse_operator("x^3*j*D + x^2*i", QUAT)


def test_dual_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "dual",
        "--algebra",
        "c5",
        "--kernel",
        "r^2",
        "--targets",
        "r",
    )
    assert code == 0
    # the interpolating operator sends r^2 to r, so it is r^4 at D^0
    assert out.splitlines()[0] == "Phat = r^4"


def test_dual_target_count_mismatch(capsys):
    code, out, err = run(
        capsys,
        "dual",
        "--algebra",
        "qx",
        "--kernel",
        "x,x^2",
        "--targets",
        "x",
    )
    assert code == 1
    assert "error" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--algebra",
        "c5",
        "--operator",
        "D - r^2",
        "--on",
        "r^2",
    )
    assert code == 0
    assert out.splitlines()[0] == "L(f) = 0"

    code, out, _ = run(
        capsys,
        "verify",
        "--algebra",
        "c5",
        "--operator",
        "D - r^2",
        "--on",
        "r",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "r^2 - r^3"


def test_intertwine_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "intertwine",
        "--algebra",
        "qx",
        "--kernel",
        "x",
        "--r",
        "x*D",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("K = ")
    assert "verified: K * R = Q * K" in lines
    ctx_k = parse_operator("D - 1/x", get_algebra("qx"))
    q = parse_operator(lines[1][len("Q = "):], get_algebra("qx"))
    r = parse_operator("x*D", get_algebra("qx"))
    assert q.compose(ctx_k) == ctx_k.compose(r)


def test_exit_syntax_error(capsys):
    code, out, err = run(
        capsys, "kernel-op", "--algebra", "qx", "--kernel", "(x"
    )
    assert code == 1
    assert "error" in err and "position" in err


def test_exit_not_invertible(capsys):
    code, out, err = run(
        capsys, "kernel-op", "--algebra", "qx", "--kernel", "x,2*x"
    )
    assert code == 2
    assert "not invertible" in err


def test_exit_not_in_kernel(capsys):
    code, out, err = run(
        capsys,
        "factor",
        "--algebra",
        "c5",
        "--kernel",
        "r^2",
        "--operator",
        "D",
    )
    assert code == 3
    assert "L(f_1) = r^4" in err


def test_exit_not_intertwinable(capsys):
    code, out, err = run(
        capsys,
        "intertwine",
        "--algebra",
        "c5",
        "--kernel",
        "r^2",
        "--r",
        "D",
    )
    assert code == 4
    assert "K(R(f_1)) = -r + r^3" in err


def test_exit_usage(capsys):
    code, _, err = run(capsys)
    assert code == 64
    code, _, err = run(capsys, "kernel-op")
    assert code == 64
    code, _, err = run(capsys, "kernel-op", "--algebra", "heisenberg", "--kernel", "x")
    assert code == 64
    code, _, err = run(capsys, "kernel-op", "--algebra", "diff", "--c", "pi", "--kernel", "n")
    assert code == 64
    assert err.endswith("error: argument --c: 'pi' is not a rational number\n")
    # an exponent past the bound is refused before Fraction expands it
    for c in ("1e1000000", "1e10000000", "1e4301", "-1e-4301", "1E+4301"):
        code, out, err = run(capsys, "kernel-op", "--algebra", "diff", "--c=" + c, "--kernel", "n")
        assert (code, out) == (64, "")
        assert err.endswith("argument --c: %r has a decimal exponent beyond 4300\n" % c)


@pytest.mark.parametrize("c", ["2.5e-3", "1e4300", "1e-4300"])
def test_c_up_to_the_exponent_bound_is_accepted(capsys, c):
    code, out, err = run(
        capsys, "kernel-op", "--algebra", "diff", "--c", c, "--kernel", "n,n^2,1/n"
    )
    assert (code, err) == (0, "")
    assert out.startswith("K = D^3")


def test_exit_internal_on_unmapped_algebra_errors(capsys, monkeypatch):
    from opfactor import cli

    def boom(session, args):
        raise VerificationFailed("synthetic")

    flags = cli._COMMANDS["kernel-op"][1]
    monkeypatch.setitem(cli._COMMANDS, "kernel-op", (boom, flags))
    code, _, err = run(capsys, "kernel-op", "--algebra", "qx", "--kernel", "x")
    assert code == 70
    assert "synthetic" in err


def test_failed_certificate_exits_internal_not_invertible(capsys, monkeypatch):
    # the elimination proves Phi invertible, so a solve that fails its
    # certificate is an engine fault (70), never "not invertible" (2)
    from opfactor import cli

    monkeypatch.setattr(cli, "get_algebra", lambda name, c: WrongInverseQuat())
    code, out, err = run(capsys, "kernel-op", "--algebra", "quat", "--kernel", "1,x^2")
    assert (code, out) == (70, "")
    assert err == "error: left solve X*A = B does not hold\n"


def test_misprinted_showcase_operator_is_reported(capsys):
    code, out, err = run(
        capsys,
        "factor",
        "--algebra",
        "quat",
        "--kernel",
        "x*k,x^3*i",
        "--operator",
        "x^3*j*D^3 + (x^2*i - 3*x^3*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j",
    )
    assert code == 3
    assert "L(f_2) = (18*x^4 - 18*x^3)*k" in err


def test_kernel_list_error_position_counts_from_list_start(capsys):
    code, out, err = run(
        capsys, "kernel-op", "--algebra", "qx", "--kernel", "x,x^"
    )
    assert code == 1
    assert "at position 5:" in err


def test_targets_list_error_position_counts_from_list_start(capsys):
    code, out, err = run(
        capsys,
        "dual",
        "--algebra",
        "qx",
        "--kernel",
        "x,x^2",
        "--targets",
        "1,2^",
    )
    assert code == 1
    assert "at position 5:" in err


def test_deep_nesting_is_a_syntax_error(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "--algebra",
        "qx",
        "--operator",
        "(" * 3000 + "x" + ")" * 3000,
        "--on",
        "x",
    )
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: at position 101: ")


def test_long_minus_chain_parses(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--algebra",
        "qx",
        "--operator=" + "-" * 1000 + "x",
        "--on",
        "x",
    )
    assert code == 0
    assert out.splitlines()[0] == "L(f) = x^2"


def test_degree_cap_is_a_syntax_error(capsys):
    code, out, err = run(
        capsys, "verify", "--algebra", "qx", "--operator", "x^100000", "--on", "x"
    )
    assert code == 1
    assert out == ""
    assert err == "error: at position 3: degree bound 100000 exceeds 300\n"


@pytest.mark.parametrize(
    "operator, on, position", [("D", "N", 1), ("x^N", "x", 3)],
    ids=["number", "exponent"],
)
def test_too_long_integer_literal_is_a_syntax_error(operator, on, position):
    limit = int_str_limit()
    if not limit:
        pytest.skip("the interpreter converts integer strings of any length")
    literal = "9" * (limit + 1)
    argv = ["verify", "--algebra", "qx", "--operator", operator, "--on", on]
    done = run_module([a.replace("N", literal) for a in argv])
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr == (
        "error: at position %d: integer literal too long\n" % position
    )


def test_superscript_exponent_is_an_unexpected_character(capsys):
    code, out, err = run(
        capsys, "verify", "--algebra", "qx", "--operator", "x^\u00b2", "--on", "x"
    )
    assert code == 1
    assert out == ""
    assert err == "error: at position 3: unexpected character '\u00b2'\n"


def test_verify_json_for_diff_has_c_and_no_verified_key(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "--algebra",
        "diff",
        "--c=-1/2",
        "--operator",
        "D - n",
        "--on",
        "n^2",
        "--json",
    )
    assert (code, err) == (0, "")
    assert out == (
        '{"algebra": "diff", "c": "-1/2", '
        '"result": "(-2*n^3 + n^2 + 4*n + 2)/2"}\n'
    )


_COMMON_OPTIONS = [
    (["--algebra"], True, None, ("qx", "quat", "diff", "c5"), None),
    (["--c"], False, Fraction(1), None, "difference algebra constant (default 1)"),
    (["--json"], False, False, None, None),
]
_KERNEL_OPTION = (["--kernel"], True, None, None, "comma separated kernel elements")


def test_subcommand_options_are_pinned():
    # the option data, not the help text, which argparse renders
    # differently from one Python version to the next
    expected = {
        "kernel-op": [_KERNEL_OPTION],
        "factor": [_KERNEL_OPTION, (["--operator"], True, None, None, None)],
        "dual": [
            _KERNEL_OPTION,
            (
                ["--targets"],
                True,
                None,
                None,
                "comma separated target elements, one per kernel element",
            ),
        ],
        "intertwine": [_KERNEL_OPTION, (["--r"], True, None, None, "the operator R")],
        "verify": [
            (["--operator"], True, None, None, None),
            (["--on"], True, None, None, "element to apply to"),
        ],
    }
    parser = build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(commands.choices) == list(expected)
    for name, subparser in commands.choices.items():
        options = [
            (a.option_strings, a.required, a.default, a.choices, a.help)
            for a in subparser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert options == _COMMON_OPTIONS + expected[name], name


# coefficients past the interpreter's int-string limit

def _nines_squared():
    """Literal digits N such that N*N has more digits than the limit allows,
    and the exact text of N*N."""
    m = int_str_limit() * 7 // 10
    # (10^m - 1)^2 = 10^(2m) - 2*10^m + 1
    return "9" * m, "9" * (m - 1) + "8" + "0" * (m - 1) + "1"


@pytest.mark.parametrize(
    "argv, shown",
    [
        ("verify --algebra qx --operator x --on N*N", "L(f) = {}*x\n"),
        ("verify --algebra c5 --operator D --on N*N*r", "L(f) = {}*r^2\n"),
        ("kernel-op --algebra qx --kernel N*N*x", "K = D - 1/x\nP_1 = 1/({}*x)\n"),
    ],
    ids=["qx", "c5", "kernel"],
)
def test_huge_coefficients_print(argv, shown):
    if not int_str_limit():
        pytest.skip("the interpreter converts integer strings of any length")
    nines, product = _nines_squared()
    done = run_module(argv.replace("N", nines).split())
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == shown.format(product)


def test_int_text_matches_str_past_the_limit():
    from opfactor.formatting import int_text

    limit = int_str_limit()
    if not limit:
        pytest.skip("the interpreter converts integer strings of any length")
    rng = random.Random(5)
    numbers = [0, 7, -7, 10**limit - 1, 10**limit, -(10**limit)]
    for digits in (limit + 1, 2 * limit, 5 * limit + 3, 20000):
        numbers.append(10**digits + rng.randrange(10**(digits // 3)))  # zero runs
        numbers.append(-rng.randrange(10**(digits - 1), 10**digits))
    texts = [int_text(n) for n in numbers]
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(n) for n in numbers]
    finally:
        sys.set_int_max_str_digits(limit)
    assert texts == expected


# a constant c past the interpreter's int-string limit

def _huge_constants():
    """(--c, its exact text, the text of D(1) = 1 + c) for c = 10^d and
    c = -1/10^d, where 10^d has more digits than the limit allows."""
    d = int_str_limit() + 700
    h = d // 2  # the exponent stays within parsing.MAX_EXPONENT
    ten_d = "1" + "0" * d
    return [
        ("1%se%d" % ("0" * h, d - h), ten_d, "1" + "0" * (d - 1) + "1"),
        ("-0.%s1e-%d" % ("0" * (h - 1), d - h), "-1/" + ten_d, "9" * d + "/" + ten_d),
    ]


@pytest.mark.parametrize("case", [0, 1], ids=["integer", "fraction"])
def test_huge_diff_constant_prints(case):
    if not int_str_limit():
        pytest.skip("the interpreter converts integer strings of any length")
    c, c_text, result = _huge_constants()[case]
    argv = ["verify", "--algebra", "diff", "--c=" + c, "--operator", "D", "--on"]
    done = run_module(argv + ["1"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "L(f) = %s\n" % result
    done = run_module(argv + ["1", "--json"])
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {"algebra": "diff", "c": c_text, "result": result}
    done = run_module(argv + ["y"])  # the message names the algebra with its c
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        "error: at position 1: symbol 'y' is not defined in algebra 'diff(c=%s)'\n"
        % c_text
    )
