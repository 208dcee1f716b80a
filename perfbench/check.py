"""Checks every answer against the planted one, outside the timed loop.

`check(workload, request, output)` returns None for a correct answer and
a one-line reason otherwise.  A request fails on a wrong answer, a missing
or extra rejection, or an unexpected exception.  Answers are read back
with `oracle`, never with opfactor.
"""

from __future__ import annotations

import json

import oracle as O

ALGEBRA = {"quat_factor": "quat", "c5_factor": "c5", "diff_kernel": "diff"}


def _offenders(alg, got, want):
    try:
        got = [(i, alg.parse(text)) for i, text in got]
    except Exception as exc:  # unreadable answer text
        return "unreadable offender: %s" % exc
    if [i for i, _ in got] != [i for i, _ in want]:
        return "offender indices %s, expected %s" % (
            [i for i, _ in got], [i for i, _ in want])
    if not all(alg.eq(g, w) for (_, g), (_, w) in zip(got, want)):
        return "wrong offender value"
    return None


def _factor(workload, alg, answer, expect):
    if "offenders" in expect:
        if answer.get("error") != "NotInKernel":
            return "missing rejection"
        return _offenders(alg, answer["offenders"], expect["offenders"])
    if "error" in answer:
        return "unexpected %s" % answer["error"]
    K = O.parse_op(alg, answer["K"])
    Q = O.parse_op(alg, answer["Q"])
    if workload == "quat_factor":
        # K is the unique monic annihilator, so Q is unique too
        if not O.op_equal(alg, K, expect["K"]):
            return "wrong K"
        if not O.op_equal(alg, Q, expect["Q"]):
            return "wrong Q"
        return None
    # over c5, D^4 = 1 makes Q unique only up to the fold: test L = Q.K
    if not O.op_equal(alg, K, expect["K"]):
        return "wrong K"
    if not O.op_equal(alg, O.compose(alg, Q, K), expect["L"]):
        return "Q * K != L"
    return None


def _determinant(alg, rows):
    """Laplace expansion; the matrices here are at most 3 x 3."""
    if len(rows) == 1:
        return rows[0][0]
    total = alg.zero
    for col, a in enumerate(rows[0]):
        minor = [r[:col] + r[col + 1:] for r in rows[1:]]
        term = a * _determinant(alg, minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def _kernel_op(alg, answer, expect):
    f = expect["f"]
    k = len(f)
    # images[j][l] = D^l(f_j) for l = 0 .. k, shared by every check below
    images = [[fj] for fj in f]
    for row in images:
        for _ in range(k):
            row.append(alg.endo(row[-1]))
    if answer.get("error") == "NotInvertible":
        phi = [[images[j][l] for j in range(k)] for l in range(k)]
        if _determinant(alg, phi):
            return "false NotInvertible: det Phi != 0"
        return None
    if "error" in answer:
        return "unexpected %s" % answer["error"]
    if expect["dependent"]:
        return "missing rejection"

    def value(op, j):
        return sum((c * images[j][l] for l, c in enumerate(op)), alg.zero)

    K = O.parse_op(alg, answer["K"])
    if len(K) != k + 1 or K[-1] != alg.one:
        return "K is not monic of degree %d" % k
    if any(value(K, j) for j in range(k)):
        return "K(f_i) != 0"
    P = [O.parse_op(alg, p) for p in answer["P"]]
    if len(P) != k or any(len(p) > k for p in P):
        return "expected %d dual operators of degree < %d" % (k, k)
    for i, p in enumerate(P):
        for j in range(k):
            if value(p, j) != (alg.one if i == j else alg.zero):
                return "P_%d(f_%d) != delta" % (i + 1, j + 1)
    return None


def _cli(output, expect):
    code, stdout, stderr = json.loads(output)
    if code != expect["code"]:
        return "exit code %d, expected %d" % (code, expect["code"])
    want = expect["stdout"]
    if isinstance(want, dict):
        try:
            if json.loads(stdout) != want:
                return "wrong JSON output"
        except ValueError:
            return "output is not JSON"
    elif stdout != want:
        return "wrong output %r" % stdout
    if expect["stderr_part"] and expect["stderr_part"] not in stderr:
        return "stderr lacks %r" % expect["stderr_part"]
    return None


def check(workload, request, output):
    if workload == "cli":
        return _cli(output, request.expect)
    answer = json.loads(output)
    if answer.get("error") == "exception":
        return "exception %s: %s" % (answer["type"], answer["message"])
    alg = O.ALGEBRAS[ALGEBRA[workload]]
    try:
        if workload == "diff_kernel":
            return _kernel_op(alg, answer, request.expect)
        return _factor(workload, alg, answer, request.expect)
    except Exception as exc:  # the answer text could not be read back
        return "unreadable answer: %s: %s" % (type(exc).__name__, exc)
