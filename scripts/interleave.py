"""In-process CPU of a parent commit against the working tree, interleaved,
with a digest of each side's answers.

    python3 scripts/interleave.py PARENT_REF [--rounds 24]

Run from the repository root.  PARENT_REF is exported with `git archive` into
a temporary directory.  Its `opfactor` and the one under src/ are imported into
this one process, `opfactor*` cleared from sys.modules between the two imports.
Each side serves both forms of 60 seed-11 and 60 seed-12 base requests per
workload, in `gen.WORKLOADS` order, through `perfbench/worker.serve`, which
this script imports and does not change.  A pass serves them in the order of
`perfbench/worker.timed_rounds`: the first form of every base request, then
the second form of every one, on a fresh algebra, so the algebra's memos see
the repeats a benchmark run sees and no more.

A first, untimed pass gives each side's answers; their sha1 over the
concatenated answer texts, taken in base-request order (both forms of a base
request together), is printed per side.  The same pass counts the
opcodes each side runs per request of each workload, by a `sys.settrace`
hook that turns on `f_trace_opcodes` in every frame, and prints them next
to the sha1: unlike a time, the count is the same from run to run.  Under
them it prints each workload's count split by stage: kernel parse,
`KernelContext`, operator parse, `factorize` or `P`, printing K (a
request's first `operator_to_json`, since `worker.serve` prints K first),
printing Q or P (every later one), and other, each opcode counted toward
the outermost opfactor API call on the stack (`entry_points`), with its
share of the request.  The
tracing makes this pass about 6.5 s per side slower than an untraced one
(6.9 s against 0.6 s under Python 3.11 on a 2-core Intel Xeon).  Then
each round times one pass per workload on both sides, in alternating
order, by `process_time`.  Per workload the script prints the
change/parent ratio of the median times, the first and third quartile of
the per-round change/parent ratios (their spread), and the number of
rounds in which the change took less time, and under it the base of that
ratio: each side's median and quartiles in ms per request.  Each
workload's requests are split by kernel length k: every k band is timed
as its own pass on a fresh algebra (a repeated kernel has one k, so the
memos see the same repeats), a workload's time is the sum of its bands,
and a workload with more than one k gets the same lines per band; the
counting pass also prints each band's opcodes per request, counted once
more on the band alone.  Exits 1 when the two digests differ.
"""

import argparse
import hashlib
import importlib
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import worker  # noqa: E402
from run import ALGEBRA  # noqa: E402

SEEDS = (11, 12)
BASE_REQUESTS = 60
FORMS = 2


def load(src):
    """The opfactor package under src, imported afresh."""
    for name in [m for m in sys.modules if m == "opfactor" or m.startswith("opfactor.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        api = importlib.import_module("opfactor")
    finally:
        sys.path.remove(src)
    if Path(src).resolve() not in Path(api.__file__).resolve().parents:
        sys.exit("opfactor was imported from %s, not from %s" % (api.__file__, src))
    return api


def requests(workload):
    """The wire parts of every base request, seed by seed, in serving order:
    all first forms, then all second forms."""
    bases = [forms for seed in SEEDS
             for forms in gen.generate(workload, seed, BASE_REQUESTS, FORMS)]
    return [forms[f].wire for f in range(FORMS) for forms in bases]


def base_order(answers):
    """Answers in serving order, put back in base-request order: the forms
    of each base request together."""
    n = len(answers) // FORMS
    return [answers[f * n + b] for b in range(n) for f in range(FORMS)]


STAGES = ("kernel parse", "KernelContext", "operator parse", "factorize or P", "printing K",
          "printing Q or P", "other")


def entry_points(api):
    """The stage that each opfactor API function `worker.serve` calls
    starts, by its code object; "printing" is K's or Q's and P's, as
    `counted` tells them apart."""
    ctx = api.KernelContext
    return {api.parse_element.__code__: "kernel parse",
            ctx.__init__.__code__: "KernelContext",
            api.parse_operator.__code__: "operator parse",
            ctx.factorize.__code__: "factorize or P",
            ctx.P.func.__code__: "factorize or P",
            api.operator_to_json.__code__: "printing"}


def counted(api, algebra, wires):
    """The answers to `wires` in base-request order, the opcodes run per
    request to give them,
    and those opcodes per request by stage: each opcode counts toward the
    outermost API entry point on the stack, or toward "other" (the
    worker's own code and `json`) when there is none.  A request's first
    printing is K's, every later one Q's or P's."""
    entries, serve = entry_points(api), worker.serve.__code__
    split = dict.fromkeys(STAGES, 0)
    outer, stage, printed_k = None, "other", False

    def trace(frame, event, arg):
        nonlocal outer, stage, printed_k
        if event == "opcode":
            split[stage] += 1
        elif event == "call":
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            if frame.f_code is serve:  # a new request
                printed_k = False
            elif outer is None and frame.f_code in entries:
                outer, stage = frame, entries[frame.f_code]
                if stage == "printing":
                    stage = "printing Q or P" if printed_k else "printing K"
                    printed_k = True
        elif event == "return" and frame is outer:
            outer, stage = None, "other"
        return trace

    sys.settrace(trace)
    try:
        answers = [worker.serve(api, algebra, wire) for wire in wires]
    finally:
        sys.settrace(None)
    n = len(wires)
    return base_order(answers), sum(split.values()) / n, {s: c / n for s, c in split.items()}


def by_k(wires):
    """The wires grouped by kernel length k, each group in serving order."""
    groups = {}
    for wire in wires:
        groups.setdefault(len(wire["kernel"]), []).append(wire)
    return dict(sorted(groups.items()))


def timed(api, selector, wires):
    """CPU seconds to serve wires on a fresh algebra, built before the clock
    starts."""
    algebra = api.get_algebra(selector)
    t0 = process_time()
    for wire in wires:
        worker.serve(api, algebra, wire)
    return process_time() - t0


def quartiles(values):
    """Median, first and third quartile of values; a single value is all
    three."""
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q2, q1, q3]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("--rounds", type=int, default=24)
    args = ap.parse_args()
    wires = {wl: requests(wl) for wl in gen.WORKLOADS}
    with tempfile.TemporaryDirectory() as tree:
        subprocess.run("git archive %s | tar -x -C %s" % (args.parent, tree),
                       shell=True, check=True, cwd=ROOT)
        apis = {"parent": load(str(Path(tree) / "src")), "change": load(str(ROOT / "src"))}
    digests = {}
    for side, api in apis.items():
        answers, opcodes, splits = [], [], []
        for wl in gen.WORKLOADS:
            texts, per_request, split = counted(api, api.get_algebra(ALGEBRA[wl]), wires[wl])
            answers += texts
            opcodes.append("%s %.1f" % (wl, per_request))
            splits.append("  %-12s " % wl + ", ".join(
                "%s %.1f (%.1f%%)" % (s, c, 100 * c / per_request) for s, c in split.items()))
            splits.append("  %-12s by k: " % wl + ", ".join(
                "k = %d %.1f (%d requests)" % (k, counted(api, api.get_algebra(ALGEBRA[wl]), ws)[1],
                                               len(ws)) for k, ws in by_k(wires[wl]).items()))
        digests[side] = hashlib.sha1("".join(answers).encode()).hexdigest()
        print("%-6s sha1 %s; opcodes/request %s" % (side, digests[side], ", ".join(opcodes)))
        print("\n".join(splits))
    groups = {(wl, k): ws for wl in gen.WORKLOADS for k, ws in by_k(wires[wl]).items()}
    times = {key: {"parent": [], "change": []} for key in groups}
    for r in range(args.rounds):
        for side in ("parent", "change")[::1 if r % 2 == 0 else -1]:
            for key, ws in groups.items():
                times[key][side].append(timed(apis[side], ALGEBRA[key[0]], ws))
    for wl in gen.WORKLOADS:  # a workload's pass is the sum of its k bands
        keys = [key for key in groups if key[0] == wl]
        report(wl, {side: [sum(ts) for ts in zip(*(times[key][side] for key in keys))]
                    for side in ("parent", "change")}, len(wires[wl]), args.rounds)
        for key in keys if len(keys) > 1 else ():
            report(key, times[key], len(groups[key]), args.rounds)
    return 0 if digests["parent"] == digests["change"] else 1


def report(key, t, n, rounds):
    """Print the change/parent line of a workload, or of one of its k
    bands, and under it the base of that ratio, for n requests."""
    name = key if isinstance(key, str) else "%s k=%d" % key
    ratio = statistics.median(t["change"]) / statistics.median(t["parent"])
    _, low, high = quartiles([c / p for p, c in zip(t["parent"], t["change"])])
    wins = sum(c < p for p, c in zip(t["parent"], t["change"]))
    print("%-12s change/parent %.3f (per-round quartiles %.3f, %.3f), "
          "change won %d of %d rounds" % (name, ratio, low, high, wins, rounds))
    print(" " * 13 + "; ".join(
        "%s %.4f ms/request (quartiles %.4f, %.4f)"
        % (side, *quartiles([1000 * s / n for s in t[side]])) for side in ("parent", "change")))


if __name__ == "__main__":
    sys.exit(main())
