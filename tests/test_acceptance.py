"""Acceptance gate: seven end-to-end criteria, one reported line each.

Every check is exact; nothing here tolerates approximation.  The expected
strings and matrices are the worked showcase results that the library must
reproduce verbatim.  Each criterion prints a single PASS or FAIL line on
the real stdout so the gate is visible in any test runner.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from opfactor import (
    KernelContext,
    NCMatrix,
    NotInKernel,
    Operator,
    get_algebra,
    parse_element,
    parse_operator,
    right_divide_monic,
)
from opfactor.cli import main as cli_main

from helpers import (
    ALL_ALGEBRAS,
    C5,
    DIFF1,
    QUAT,
    QX,
    rand_element,
    rand_operator,
    rand_ratfunc,
)


def _report(criterion: int, passed: bool, capsys) -> None:
    line = "[acceptance] criterion %d: %s" % (criterion, "PASS" if passed else "FAIL")
    with capsys.disabled():
        print(line, flush=True)


@contextmanager
def reporting(criterion: int, capsys):
    try:
        yield
    except BaseException:
        _report(criterion, False, capsys)
        raise
    _report(criterion, True, capsys)


def quat_context():
    return KernelContext(
        QUAT, [parse_element("x*k", QUAT), parse_element("x^3*i", QUAT)]
    )


def test_criterion_1_quaternion_reproduction(capsys):
    with reporting(1, capsys):
        ctx = quat_context()
        expected_inverse = [
            ["-3/(2*x)*k", "1/2*k"],
            ["1/(2*x^3)*i", "-1/(2*x^2)*i"],
        ]
        for r in range(2):
            for c in range(2):
                want = parse_element(expected_inverse[r][c], QUAT)
                assert ctx.phi_inv.entry(r, c) == want
        assert ctx.K == parse_operator("D^2 - (3/x)*D + 3/x^2", QUAT)
        assert ctx.P[0] == parse_operator("(1/2*k)*D - 3/(2*x)*k", QUAT)
        assert ctx.P[1] == parse_operator("-(1/(2*x^2)*i)*D + 1/(2*x^3)*i", QUAT)
        for f in ctx.f:
            assert ctx.K.apply(f) == QUAT.zero()


def test_criterion_2_quaternion_factorization(capsys):
    with reporting(2, capsys):
        ctx = quat_context()
        big = parse_operator(
            "x^3*j*D^3 + (x^2*i - 3*x^2*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j",
            QUAT,
        )
        q = ctx.factorize(big)
        assert q == parse_operator("x^3*j*D + x^2*i", QUAT)
        assert q.compose(ctx.K) == big
        div_q, rem = right_divide_monic(big, ctx.K)
        assert div_q == q and rem.is_zero()

        # the historically printed D^2 coefficient has x^3 where x^2
        # belongs and does not annihilate the second kernel element
        misprint = parse_operator(
            "x^3*j*D^3 + (x^2*i - 3*x^3*j)*D^2 + (-3*x*i + 6*x*j)*D + 3*i - 6*j",
            QUAT,
        )
        value = misprint.apply(ctx.f[1])
        assert not value.is_zero()
        assert value == parse_element("(18*x^4 - 18*x^3)*k", QUAT)
        with pytest.raises(NotInKernel):
            ctx.factorize(misprint)


def test_criterion_3_difference_reproduction(capsys):
    with reporting(3, capsys):
        n = DIFF1.symbols()["n"]
        for c in (Fraction(0), Fraction(1), Fraction(-2)):
            algebra = get_algebra("diff", c=c)
            ctx = KernelContext(
                algebra, [parse_element("n", algebra), parse_element("n^2", algebra)]
            )
            q = algebra.from_fraction
            assert ctx.phi.entry(0, 0) == n
            assert ctx.phi.entry(0, 1) == n * n
            assert ctx.phi.entry(1, 0) == q(c + 1) * n + q(1)
            assert ctx.phi.entry(1, 1) == q(c + 1) * n * n + q(2) * n + q(1)

            inv_det = (n * n + n).inverse()
            assert ctx.phi_inv.entry(0, 0) == (q(c + 1) * n * n + q(2) * n + q(1)) * inv_det
            assert ctx.phi_inv.entry(0, 1) == -(n * n) * inv_det
            assert ctx.phi_inv.entry(1, 0) == -(q(c + 1) * n + q(1)) * inv_det
            assert ctx.phi_inv.entry(1, 1) == n * inv_det

            mid = -(q(2) * (q(c) * n + q(c) + n + q(2)) * (n + q(1)).inverse())
            const = (q((c + 1) ** 2) * n * n + q(c * c + 4 * c + 3) * n + q(2)) * inv_det
            assert ctx.K == Operator(algebra, (const, mid, algebra.one()))
            for f in ctx.f:
                assert ctx.K.apply(f) == algebra.zero()


def test_criterion_4_group_ring_reproduction(capsys):
    with reporting(4, capsys):
        ctx = KernelContext(C5, [parse_element("r^2", C5)])
        assert ctx.K == parse_operator("D - r^2", C5)
        big = parse_operator("r*D^3 - 1", C5)
        q = ctx.factorize(big)
        expected_q = parse_operator("r*D^2 + r^4*D + r^3", C5)
        assert q.compose(ctx.K) == expected_q.compose(ctx.K)
        assert q == expected_q
        assert q.compose(ctx.K) == big
        assert Operator.d(C5, 4) == Operator.identity(C5)


def _random_qx_contexts(rng, count):
    x = parse_element("x", QX)
    fixed = [
        [QX.one(), x],
        [x, x * x],
    ]
    out = [KernelContext(QX, fs) for fs in fixed]
    while len(out) < count:
        exps = rng.sample(range(7), 2)
        fs = []
        for e in exps:
            v = QX.one()
            for _ in range(e):
                v = v * x
            fs.append(v)
        out.append(KernelContext(QX, fs))
    return out


def test_criterion_5_property_suite(capsys):
    with reporting(5, capsys):
        cases = 100
        for algebra in ALL_ALGEBRAS:
            rng = random.Random(20260821)
            for _ in range(cases):
                f = rand_element(rng, algebra)
                g = rand_element(rng, algebra)
                tw = algebra.twist(f)
                algebra.check(tw.p)
                algebra.check(tw.q)
                assert algebra.endo(f * g) == tw.p * algebra.endo(g) + tw.q * g
                a = rand_operator(rng, algebra, 2)
                b = rand_operator(rng, algebra, 2)
                lhs = (a * b).apply(f)
                algebra.check(lhs)
                assert lhs == a.apply(b.apply(f))

        rng = random.Random(424242)
        contexts = {
            "qx": _random_qx_contexts(rng, 12),
            "quat": [quat_context()],
            "diff": [
                KernelContext(
                    DIFF1,
                    [parse_element("n", DIFF1), parse_element("n^2", DIFF1)],
                )
            ],
            "c5": [KernelContext(C5, [parse_element("r^2", C5)])],
        }
        for algebra in ALL_ALGEBRAS:
            ctx_pool = contexts[algebra.name]
            for case in range(cases):
                ctx = ctx_pool[case % len(ctx_pool)]
                alg = ctx.algebra
                for i, p_op in enumerate(ctx.P):
                    for j, f in enumerate(ctx.f):
                        want = alg.one() if i == j else alg.zero()
                        assert p_op.apply(f) == want
                for f in ctx.f:
                    assert ctx.K.apply(f) == alg.zero()

                op = rand_operator(rng, alg, 3)
                hats = ctx.hat_coefficients(op)
                recon = Operator.zero(alg)
                for i, h in enumerate(hats):
                    recon = recon + ctx.dhat(i).scale_left(h)
                assert recon == op
                for i, f in enumerate(ctx.f):
                    alg.check(hats[i])
                    assert hats[i] == op.apply(f)

                quot = rand_operator(rng, alg, 3)
                product = quot.compose(ctx.K)
                back = ctx.factorize(product)
                # equality of the quotients is the stronger statement;
                # back . K = product follows from it coefficient by
                # coefficient, no need to recompose here
                assert back == quot

                assert ctx.zero_on_low_filtration(Operator.zero(alg)) is True
                low = rand_operator(rng, alg, ctx.k - 1)
                if not low.is_zero():
                    assert ctx.zero_on_low_filtration(low) is False


def _adjugate_inverse(rows):
    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = None
        for col in range(len(m)):
            minor = [r[:col] + r[col + 1 :] for r in m[1:]]
            term = m[0][col] * det(minor)
            if col % 2:
                term = -term
            total = term if total is None else total + term
        return total

    n = len(rows)
    d = det(rows)
    if d.is_zero():
        return None
    inv = []
    for r in range(n):
        entry_row = []
        for c in range(n):
            minor = [
                row[:r] + row[r + 1 :] for idx, row in enumerate(rows) if idx != c
            ]
            cof = det(minor) if minor else DIFF1.one()
            if (r + c) % 2:
                cof = -cof
            entry_row.append(cof * d.inverse())
        inv.append(entry_row)
    return inv


def test_criterion_6_matrix_layer(capsys):
    with reporting(6, capsys):
        showcase = [
            quat_context(),
            KernelContext(C5, [parse_element("r^2", C5)]),
        ]
        for c in (Fraction(0), Fraction(1), Fraction(-2)):
            algebra = get_algebra("diff", c=c)
            showcase.append(
                KernelContext(
                    algebra,
                    [parse_element("n", algebra), parse_element("n^2", algebra)],
                )
            )
        for ctx in showcase:
            ident = NCMatrix.identity(ctx.algebra, ctx.k)
            assert ctx.phi * ctx.phi_inv == ident
            assert ctx.phi_inv * ctx.phi == ident

        rng = random.Random(606060)
        done = 0
        while done < 50:
            size = rng.choice([2, 3])
            rows = [
                [rand_ratfunc(rng, "n") for _ in range(size)] for _ in range(size)
            ]
            expected = _adjugate_inverse(rows)
            if expected is None:
                continue
            mat = NCMatrix.from_rows(DIFF1, rows)
            inv = mat.inverse()
            for r in range(size):
                for c in range(size):
                    assert inv.entry(r, c) == expected[r][c]
            done += 1


def _run_cli(capsys, *argv):
    try:
        code = cli_main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_7_cli_contract(capsys):
    with reporting(7, capsys):
        code, out = _run_cli(capsys, "kernel-op", "--algebra", "c5", "--kernel", "r^2")
        assert code == 0
        assert out.splitlines()[0] == "K = D - r^2"

        code, out = _run_cli(
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
        assert "Q = r*D^2 + r^4*D + r^3" in out.splitlines()

        code, out = _run_cli(
            capsys,
            "kernel-op",
            "--algebra",
            "diff",
            "--c",
            "1",
            "--kernel",
            "n,n^2",
        )
        assert code == 0
        assert (
            out.splitlines()[0]
            == "K = D^2 - ((4*n + 6)/(n + 1))*D + (4*n^2 + 8*n + 2)/(n^2 + n)"
        )

        rng = random.Random(777777)
        per_algebra = 50  # 50 x 4 algebras = 200 round trips
        for algebra in ALL_ALGEBRAS:
            for _ in range(per_algebra):
                op = rand_operator(rng, algebra, 4)
                back = parse_operator(str(op), algebra)
                assert back.coeffs == op.coeffs
