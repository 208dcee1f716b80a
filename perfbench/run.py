"""opfactor benchmark: seeded text requests, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload quat_factor --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is the checkout's src/.
With --trace 0 one worker process serves the workload's requests in a
closed loop and the end-to-end metrics are printed.  The requests are
base requests, each sent once per round in an equivalent form (see
gen.py), and each base request's latency is its best over the rounds.
--seconds sizes the work: there are enough base requests for the program
of the first baseline to take about that long.  With --trace 1 a fixed,
seed-determined batch is served twice, untraced and then traced, the
README examples of the workload's algebra run as subprocesses, and the
per-layer metrics are printed; spans go to .perfbench_out/.  Every answer
is checked against the planted one after the timed loop.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --workload all runs every workload in turn.  --smoke runs a
few requests per workload.

Exit status: 0 after a result line, 2 when the checkout has no program
or a run cannot complete (then no result line is printed).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
import time

import check
import gen
import probe

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

ALGEBRA = {"quat_factor": "quat", "c5_factor": "c5", "diff_kernel": "diff"}

# base requests per second of --seconds: with ROUNDS rounds, about what the
# program of the first baseline completes at reference speed, so a run
# takes about --seconds unless MIN_REQUESTS asks for more
RATE = {"quat_factor": 3, "c5_factor": 90, "diff_kernel": 6}
ROUNDS = 2  # equivalent forms of each base request, one per round
WARMUP = 3  # base requests served once, untimed, before the rounds
# fixed traced batches of whole generator blocks, so call counts repeat
# exactly for one seed
TRACE_COUNT = {"quat_factor": 20, "c5_factor": 100, "diff_kernel": 20}
MIN_REQUESTS = 100  # base requests: >= 10 samples beyond latency_p90_ms
MAX_SECONDS = 120
SETUP_SAMPLES = 15
PROBE_WINDOW = 0.2  # seconds each side of a request whose probes calibrate it
# about a bare interpreter's start on the machine of the first baseline;
# it only sets the scale of setup_s
BARE_START_S = 0.075

END_TO_END = (
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# name, unit, (kind, span names); per request unless the unit says otherwise
PER_LAYER = (
    ("parsing.parse_ms", "ms/req", ("self", "parse_element", "parse_operator")),
    ("parsing.calls", "calls/req", ("calls", "parse_element", "parse_operator")),
    ("parsing.format_ms", "ms/req", ("self", "operator_to_json")),
    ("factorization.context_ms", "ms/req", ("self", "KernelContext.__init__")),
    ("factorization.context_calls", "calls/req", ("calls", "KernelContext.__init__")),
    ("factorization.factorize_ms", "ms/req", ("self", "KernelContext.factorize")),
    ("factorization.hat_ms", "ms/req", ("self", "KernelContext.hat_coefficients")),
    ("ncmatrix.inverse_ms", "ms/req", ("self", "NCMatrix.inverse")),
    ("ncmatrix.mul_calls", "calls/req", ("calls", "NCMatrix.__mul__")),
    ("operators.compose_ms", "ms/req", ("self", "Operator.compose")),
    ("operators.compose_calls", "calls/req", ("calls", "Operator.compose")),
    ("operators.apply_calls", "calls/req", ("calls", "Operator.apply")),
    ("operators.eq_calls", "calls/req", ("calls", "Operator.__eq__")),
    ("quaternion.mul_ms", "ms/req", ("self", "Quaternion.__mul__")),
    ("quaternion.mul_calls", "calls/req", ("calls", "Quaternion.__mul__")),
    ("quaternion.inverse_calls", "calls/req", ("calls", "Quaternion.inverse")),
    ("ratfunc.new_ms", "ms/req", ("self", "RationalFunction.__init__")),
    ("ratfunc.new_calls", "calls/req", ("calls", "RationalFunction.__init__")),
    ("poly.gcd_ms", "ms/req", ("self", "Poly.gcd")),
    ("poly.gcd_calls", "calls/req", ("calls", "Poly.gcd")),
    ("poly.gcd_useful_ratio", "ratio", ("useful",)),
    ("poly.divmod_calls", "calls/req", ("calls", "Poly.__divmod__")),
    ("poly.mul_calls", "calls/req", ("calls", "Poly.__mul__")),
    ("groupring.mul_calls", "calls/req", ("calls", "GroupRingC5Element.__mul__")),
    ("groupring.inverse_ms", "ms/req", ("self", "GroupRingC5Element.inverse")),
    ("cli.invocation_ms", "ms", ("cli",)),
    ("cli.interpreter_ms", "ms", ("cli",)),
    ("cli.import_ms", "ms", ("cli",)),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
)


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _ready_s(code):
    """Seconds from spawning `python -c code` until the child prints the
    system-wide monotonic clock."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=ROOT, env=program_env(), timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError("set-up failed: %s" % proc.stderr)
    return (int(proc.stdout) - t0) / 1e9


def measure_setup(workload, samples):
    """Reference seconds from spawning a fresh interpreter until it has
    imported opfactor and built the workload's algebra.  Each spawn is
    paired with the spawn of a bare interpreter just after it, and
    setup_s is the median ratio of the two times in units of
    BARE_START_S: interpreter start is kernel and file-system work that
    the reference probe does not follow.  The first pair warms caches
    and is not timed."""
    clock = "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
    ready = "import time, opfactor; opfactor.get_algebra(%r); %s" % (ALGEBRA[workload], clock)
    bare = "import time; " + clock
    ratios = []
    for i in range(samples + 1):
        ratio = _ready_s(ready) / _ready_s(bare)
        if i:
            ratios.append(ratio)
    return statistics.median(ratios) * BARE_START_S, len(ratios)


def calibrated(latencies, starts, probes):
    """Each latency in reference seconds, calibrated by the mean probe time
    within PROBE_WINDOW seconds of the request (the three nearest probes
    when fewer lie that close)."""
    times = [t for t, _ in probes]
    out = []
    for t0, lat in zip(starts, latencies):
        mid = t0 + lat / 2
        near = probes[bisect.bisect_left(times, mid - PROBE_WINDOW):
                      bisect.bisect_right(times, mid + PROBE_WINDOW)]
        if len(near) < 3:
            near = sorted(probes, key=lambda p: abs(p[0] - mid))[:3]
        out.append(lat * probe.REFERENCE_S / statistics.fmean(s for _, s in near))
    return out


def run_worker(job):
    job = dict(job, root=str(ROOT))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        cwd=ROOT, env=program_env(), timeout=MAX_SECONDS + 50,
    )
    if proc.returncode != 0:
        raise BenchError("worker failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout)


def check_answers(workload, requests, answers):
    """(request index, reason) for every failed answer."""
    failures = []
    for index, (request, output) in enumerate(zip(requests, answers)):
        reason = check.check(workload, request, output)
        if reason is not None:
            failures.append((index, reason))
    return failures


def report_failures(workload, failures):
    for index, reason in failures[:5]:
        print("FAILED %s request %d: %s" % (workload, index, reason), file=sys.stderr)


def end_to_end(workload, seed, seconds, smoke):
    count = 4 if smoke else max(MIN_REQUESTS, math.ceil(RATE[workload] * seconds))
    stream = gen.generate(workload, seed, count + WARMUP, ROUNDS)
    measured, warmup = stream[:count], stream[count:]
    setup = measure_setup(workload, 2 if smoke else SETUP_SAMPLES)
    report = run_worker(dict(
        algebra=ALGEBRA[workload],
        warmup=[group[0].wire for group in warmup],
        rounds=[[group[r].wire for group in measured] for r in range(ROUNDS)],
        max_seconds=MAX_SECONDS,
    ))
    # each base request's best calibrated time over the rounds that reached it
    rounds = [
        calibrated(lat, start, report["probes"])
        for lat, start in zip(report["latencies"], report["starts"])
    ]
    best_ms = [
        1000 * min(lat[i] for lat in rounds if i < len(lat))
        for i in range(len(rounds[0]))
    ]
    n = len(best_ms)
    failures, served = [], 0
    for r, answers in enumerate(report["answers"]):
        served += len(answers)
        failures += check_answers(workload, [group[r] for group in measured], answers)
    values = {
        "throughput_rps": (1000 * n / sum(best_ms), n),
        "latency_p50_ms": (statistics.median(best_ms), n),
        "latency_p90_ms": (statistics.quantiles(best_ms, n=10)[8], n),
        "error_rate": (len(failures) / served, served),
        "setup_s": setup,
        "peak_rss_mb": (report["peak_rss_kib"] / 1024, 1),
    }
    probe_ms = 1000 * statistics.median(s for _, s in report["probes"])
    print("%s seed=%d seconds=%g: %d base requests, %d served in %.1f s "
          "(%.3f req/s of wall time), %d failed; probe median %.2f ms "
          "(reference %.2f ms)"
          % (workload, seed, seconds, n, served, report["elapsed"],
             served / report["elapsed"], len(failures), probe_ms,
             1000 * probe.REFERENCE_S))
    units = dict(END_TO_END, error_rate="ratio")
    for name, (value, samples) in values.items():
        print("  %-16s %14.6f %-6s n=%d" % (name, value, units[name], samples))
    report_failures(workload, failures)
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    return served, len(failures), metrics


def per_layer(workload, seed, smoke):
    count = 3 if smoke else TRACE_COUNT[workload]
    requests = [group[0] for group in gen.generate(workload, seed, count)]
    examples = gen.cli_examples(ALGEBRA[workload])
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / ("spans-%s-seed%d.jsonl" % (workload, seed))
    report = run_worker(dict(
        algebra=ALGEBRA[workload],
        requests=[r.wire for r in requests],
        span_file=str(span_file),
        cli=[r.wire["argv"] for r in examples],
    ))
    n = report["requests"]
    failures = check_answers(workload, requests, report["answers"])
    rounds = len(report["cli_answers"]) // len(examples)
    failures += check_answers("cli", examples * rounds, report["cli_answers"])
    calls, self_s = report["calls"], report["self_s"]
    untraced_rps, traced_rps = n / report["untraced_s"], n / report["traced_s"]
    gcds = calls["Poly.gcd"]
    metrics = {}
    for name, unit, (kind, *spans) in PER_LAYER:
        if kind == "self":
            value = 1000 * sum(self_s[s] for s in spans) / n
        elif kind == "calls":
            value = sum(calls[s] for s in spans) / n
        elif kind == "useful":
            value = report["gcd_useful"] / gcds if gcds else 0.0
        elif kind == "cli":
            value = report["cli"][name]
        else:
            value = 1 - traced_rps / untraced_rps
        metrics[name] = {"value": value, "unit": unit}
    print("%s seed=%d traced: %d requests and %d README examples, %d failed, "
          "%d spans in %s"
          % (workload, seed, n, len(report["cli_answers"]), len(failures),
             report["spans"], span_file.relative_to(ROOT)))
    for name, m in metrics.items():
        print("  %-28s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  tracing overhead: %.3f req/s untraced, %.3f req/s traced"
          % (untraced_rps, traced_rps))
    report_failures(workload, failures)
    return n + len(report["cli_answers"]), len(failures), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few requests per workload, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opfactor" / "__init__.py").is_file():
        print("error: no program at %s" % (ROOT / "src" / "opfactor"), file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            if args.trace:
                n, bad, m = per_layer(workload, args.seed, args.smoke)
            else:
                n, bad, m = end_to_end(workload, args.seed, args.seconds, args.smoke)
            attempted += n
            failed += bad
            prefix = workload + "." if args.workload == "all" else ""
            metrics.update((prefix + k, v) for k, v in m.items())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
