"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They cover the request streams and their variants, the checker (it must
catch wrong answers, not only pass right ones), the traced run's exact
counts and the smoke mode of the command.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen
import oracle as O
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# request streams


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_stream(workload):
    a = gen.stream_bytes(gen.generate(workload, 7, 40, 3))
    b = gen.stream_bytes(gen.generate(workload, 7, 40, 3))
    c = gen.stream_bytes(gen.generate(workload, 8, 40, 3))
    assert a == b
    assert a != c


def test_generator_and_checker_do_not_import_the_program():
    code = (
        "import sys; sys.path.insert(0, %r); import gen, check; "
        "[gen.generate(w, 1, 12) for w in gen.WORKLOADS]; "
        "sys.exit(any(m.split('.')[0] == 'opfactor' for m in sys.modules))"
        % str(HERE)
    )
    assert subprocess.run([sys.executable, "-c", code], cwd=ROOT).returncode == 0


def test_streams_plant_the_documented_mix():
    quat = [group[0] for group in gen.generate("quat_factor", 3, 100)]
    assert sum("offenders" in r.expect for r in quat) == 20
    assert {tuple(r.wire["kernel"]) for r in quat} == set(gen.QUAT_POOL)
    diff = [group[0] for group in gen.generate("diff_kernel", 3, 100)]
    assert sum(r.expect["dependent"] for r in diff) == 10
    assert len({tuple(r.wire["kernel"]) for r in diff}) == 100


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_variants_are_distinct_requests_with_the_same_outcome(workload):
    stream = gen.generate(workload, 2, 40, 3)
    wires = [json.dumps(r.wire, sort_keys=True) for group in stream for r in group]
    assert len(set(wires)) > 0.95 * len(wires)
    for group in stream:
        assert len({json.dumps(r.wire, sort_keys=True) for r in group}) > 1
        outcomes = {("offenders" in r.expect, r.expect.get("dependent")) for r in group}
        assert len(outcomes) == 1


# the checker


def answer(alg, **ops):
    return json.dumps({key: [alg.fmt(c) for c in op] for key, op in ops.items()})


def first(workload, predicate):
    """The first request whose planted answer satisfies `predicate`, in a
    moved variant, so the checker is tested on moved answers too."""
    stream = gen.generate(workload, 5, 40, 2)
    return next(group[1] for group in stream if predicate(group[1].expect))


def test_checker_flags_a_corrupted_quotient():
    alg = O.ALGEBRAS["quat"]
    req = first("quat_factor", lambda e: "Q" in e)
    K, Q = req.expect["K"], req.expect["Q"]
    assert check.check("quat_factor", req, answer(alg, K=K, Q=Q)) is None
    bad = [alg.add(Q[0], alg.one)] + Q[1:]
    assert check.check("quat_factor", req, answer(alg, K=K, Q=bad)) == "wrong Q"


def test_checker_flags_a_corrupted_quotient_over_c5():
    alg = O.ALGEBRAS["c5"]
    req = first("c5_factor", lambda e: "L" in e)
    K, Q = req.expect["K"], req.expect["Q"]
    assert check.check("c5_factor", req, answer(alg, K=K, Q=Q)) is None
    bad = Q[:-1] + [alg.add(Q[-1], alg.one)]
    assert check.check("c5_factor", req, answer(alg, K=K, Q=bad)) == "Q * K != L"


@pytest.mark.parametrize("workload", ["quat_factor", "c5_factor"])
def test_checker_flags_dropped_or_missing_offenders(workload):
    alg = O.ALGEBRAS[check.ALGEBRA[workload]]
    req = first(workload, lambda e: "offenders" in e)
    offenders = [[i, alg.fmt(v)] for i, v in req.expect["offenders"]]
    good = json.dumps({"error": "NotInKernel", "offenders": offenders})
    assert check.check(workload, req, good) is None
    dropped = json.dumps({"error": "NotInKernel", "offenders": offenders[1:]})
    assert check.check(workload, req, dropped).startswith("offender indices")
    accepted = json.dumps({"K": ["1"], "Q": ["1"]})
    assert check.check(workload, req, accepted) == "missing rejection"


def test_checker_flags_a_false_not_invertible():
    req = first("diff_kernel", lambda e: not e["dependent"])
    reason = check.check("diff_kernel", req, json.dumps({"error": "NotInvertible"}))
    assert reason.startswith("false NotInvertible")
    dep = first("diff_kernel", lambda e: e["dependent"])
    assert check.check("diff_kernel", dep, json.dumps({"error": "NotInvertible"})) is None


def test_checker_flags_an_exception_and_a_wrong_cli_answer():
    req = first("c5_factor", lambda e: True)
    out = json.dumps({"error": "exception", "type": "KeyError", "message": "x"})
    assert check.check("c5_factor", req, out).startswith("exception")
    cli = gen.cli_examples("c5")[0]
    assert check.check("cli", cli, json.dumps([0, "", ""])) is not None


# the command


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]


def test_smoke_run_reports_every_end_to_end_metric():
    result = result_line(bench("--workload", "all", "--seed", "3", "--smoke", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    names = {"%s.%s" % (w, m) for w in gen.WORKLOADS for m, _ in run.END_TO_END}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly_and_c5_bypasses_the_rational_layers():
    runs = [
        result_line(bench("--workload", "c5_factor", "--seed", "4", "--smoke", "--trace", "1"))
        for _ in range(2)
    ]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith("_calls")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["operators.compose_calls"] > 0
    for name in ("poly.gcd_calls", "poly.divmod_calls", "poly.mul_calls", "ratfunc.new_calls"):
        assert counts[0][name] == 0


def test_a_checkout_without_the_program_fails_without_a_result():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "c5_factor", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
