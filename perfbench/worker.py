"""The measured process: one client serving text requests in a closed loop.

Run by run.py as `python3 perfbench/worker.py` with the checkout's src/
on PYTHONPATH, which the subprocesses it starts inherit; reads one JSON job from stdin and writes one JSON report
to stdout.  The job's requests carry only text.  Each request goes from
text in (kernel elements, an operator) to result text out (JSON with the
coefficients of K and Q or P, or the rejection and its offenders) through
opfactor's public API; the next request starts only when the previous one
has returned.

Job keys: algebra, root, and either warmup, rounds and max_seconds (a
timed run: round r holds form r of every base request) or requests,
span_file and cli (a traced run).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import probe

PROBE_EVERY = 0.05  # seconds of serving between two reference probes


def serve(api, algebra, wire):
    """One request, text in and text out."""
    try:
        kernel = [api.parse_element(t, algebra) for t in wire["kernel"]]
        ctx = api.KernelContext(algebra, kernel)
        out = {"K": api.operator_to_json(ctx.K)["coeffs"]}
        if wire["op"] == "kernel-op":
            out["P"] = [api.operator_to_json(p)["coeffs"] for p in ctx.P]
        else:
            op = api.parse_operator(wire["operator"], algebra)
            out["Q"] = api.operator_to_json(ctx.factorize(op))["coeffs"]
    except api.NotInvertible:
        out = {"error": "NotInvertible"}
    except api.NotInKernel as exc:
        out = {
            "error": "NotInKernel",
            "offenders": [[i, algebra.format_element(v)] for i, v in exc.offenders],
        }
    except Exception as exc:  # reported as a failed request, never fatal
        out = {"error": "exception", "type": type(exc).__name__, "message": str(exc)}
    return json.dumps(out)


def run_cli(root, argv):
    """One README example as a fresh process: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "opfactor", *argv],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=60,
    )
    return json.dumps([proc.returncode, proc.stdout, proc.stderr])


def timed_rounds(handle, rounds, max_seconds):
    """Serve the rounds in order, one request at a time, each request timed
    on its own, with a reference probe between requests every
    PROBE_EVERY seconds; stop early only past `max_seconds`.  Returns per
    round the start times, latencies and answers of the requests served,
    the probes as (time, seconds), and the time taken.  Times are seconds
    from the start of the first round."""
    starts, latencies, answers = ([[] for _ in rounds] for _ in range(3))
    probes = []
    t_start = next_probe = perf_counter()
    for r, wire in [(r, wire) for r, wires in enumerate(rounds) for wire in wires]:
        t0 = perf_counter()
        if t0 >= next_probe:
            probes.append((t0 - t_start, probe.probe()))
            next_probe = t0 + PROBE_EVERY
            t0 = perf_counter()
        text = handle(wire)
        t1 = perf_counter()
        starts[r].append(t0 - t_start)
        latencies[r].append(t1 - t0)
        answers[r].append(text)
        if t1 - t_start >= max_seconds:
            break
    probes.append((perf_counter() - t_start, probe.probe()))
    return starts, latencies, answers, probes, perf_counter() - t_start


def timed_pass(handle, requests):
    t0 = perf_counter()
    answers = [handle(w) for w in requests]
    return perf_counter() - t0, answers


def _spawn(root, argv):
    """Wall time and stdout of `python <argv>` in a fresh process."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        cwd=root, timeout=60,
    )
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("%s failed: %s" % (argv, proc.stderr))
    return wall, proc.stdout


_TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import opfactor.cli; "
    "print(time.perf_counter() - t)"
)


def cli_layer(root, argvs, rounds=3, repeats=9):
    """Medians of: a README example as a subprocess (every example, in
    `rounds` rounds), a bare interpreter (`python -c pass`), and `import
    opfactor.cli` timed inside a child; with the examples' answers."""
    invocations, answers = [], []
    for _ in range(rounds):
        for argv in argvs:
            t0 = perf_counter()
            answers.append(run_cli(root, argv))
            invocations.append(perf_counter() - t0)
    bare = [_spawn(root, ["-c", "pass"])[0] for _ in range(repeats)]
    imports = [float(_spawn(root, ["-c", _TIMED_IMPORT])[1]) for _ in range(repeats)]
    return answers, {
        "cli.invocation_ms": 1000 * statistics.median(invocations),
        "cli.interpreter_ms": 1000 * statistics.median(bare),
        "cli.import_ms": 1000 * statistics.median(imports),
    }


def main():
    job = json.load(sys.stdin)
    root = job["root"]
    src = os.path.realpath(os.path.join(root, "src"))
    import opfactor as api

    if not os.path.realpath(api.__file__).startswith(src + os.sep):
        raise SystemExit("opfactor was not imported from %s" % src)
    algebra = api.get_algebra(job["algebra"])
    handle = lambda wire: serve(api, algebra, wire)
    if "rounds" in job:
        for wire in job["warmup"]:  # first-call costs, on requests not timed
            handle(wire)
        starts, latencies, answers, probes, elapsed = timed_rounds(
            handle, job["rounds"], job["max_seconds"]
        )
        report = dict(
            starts=starts,
            latencies=latencies,
            probes=probes,
            answers=answers,
            elapsed=elapsed,
            peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
    else:
        import tracing

        batch = job["requests"]
        handle(batch[0])  # warm-up, so neither pass pays first-call costs
        untraced_s, _ = timed_pass(handle, batch)
        tracer = tracing.Tracer()
        tracer.install()
        traced_request = tracer.wrap_request(handle)

        def handle_traced(wire):
            tracer.request_id += 1
            return traced_request(wire)

        traced_s, answers = timed_pass(handle_traced, batch)
        calls, self_s = tracer.totals()
        tracer.write(job["span_file"])
        cli_answers, cli = cli_layer(root, job["cli"])
        report = dict(
            requests=len(batch),
            untraced_s=untraced_s,
            traced_s=traced_s,
            answers=answers,
            calls=calls,
            self_s=self_s,
            gcd_useful=tracer.gcd_useful,
            spans=len(tracer.name),
            cli=cli,
            cli_answers=cli_answers,
        )
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
