"""Interleaved perfbench pairs of a parent commit and HEAD, as one BENCH json.

    python3 scripts/bench_pairs.py PARENT_REF --pairs 10 --first-seed 2201 --out BENCH_10.json

Run from the repository root.  Each run gets a fresh `git archive` export, so
no run sees another's bytecode.  Seed S = first-seed + i runs `perfbench/run.py
--workload all --seed S --seconds 25` on both commits, the parent first when S
is odd.  Three seed-11 `--trace 1` rounds, one run per commit in each, give the
per-layer metrics: each call count (unit calls/req), which must repeat exactly
across the runs, and the median, min and max of every other metric.  The parent
goes first in the first and third round and HEAD in the second, as the timed
pairs alternate, so a drift over the rounds does not read as a change of one
side.  A run that exits nonzero stops the script with its ref, its arguments and its stderr.
`opcodes` holds `<workload>.opcodes_per_request` of both sides, counted on
one more export per commit as `scripts/interleave.py` counts them (its `load`,
`requests` and `counted`: both forms of 60 seed-11 and 60 seed-12 requests,
in process, on a fresh algebra per workload, served in the order of
`perfbench/worker.timed_rounds`: all first forms, then all second forms); a
count moves by up to 0.1 per request with the order in which
the two sides are loaded, so two counts within 0.1 read as equal.
`src_lines` sums `git diff --numstat PARENT_REF HEAD -- src` as `added` and
`removed`, and as `code_added` and `code_removed` the same diff of code alone:
each changed Python file of both commits with its docstrings, comments and
blank lines dropped by `tokenize`, then compared line by line.  The `change`
field is `--note`, or HEAD's subject line when no note is given.  An end-to-end
entry `meets_pair_rule` when the change wins at least nine tenths of the pairs
and its median beats the parent's by more than the parent's interquartile range.
"""

import argparse
import difflib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

import interleave

TRACED_RUNS = 3


def run(ref, *args):
    """The final JSON line of one perfbench run on a fresh export of ref."""
    with tempfile.TemporaryDirectory() as tree:
        subprocess.run("git archive %s | tar -x -C %s" % (ref, tree), shell=True, check=True)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                               *map(str, args)], cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit("perfbench/run.py failed on %s with %s, exit status %d:\n%s"
                 % (ref, " ".join(map(str, args)), done.returncode, done.stderr))
    print(ref, *args, file=sys.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def opcodes(ref, workloads):
    """Opcodes per request of each workload on a fresh export of ref."""
    with tempfile.TemporaryDirectory() as tree:
        subprocess.run("git archive %s | tar -x -C %s" % (ref, tree), shell=True, check=True)
        api = interleave.load(str(Path(tree) / "src"))
        counts = {}
        for wl in workloads:
            algebra = api.get_algebra(interleave.ALGEBRA[wl])
            counts[wl] = round(interleave.counted(api, algebra, interleave.requests(wl))[1], 1)
    return counts


def code_lines(source):
    """The lines of a Python source that hold code, each cut before its
    comment: blank lines, comments and docstrings (a statement of string
    literals alone) are dropped, as tokenize reads them."""
    lines = source.splitlines()
    kept, comments, statement = set(), {}, []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments[tok.start[0]] = tok.start[1]
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                kept.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in (tokenize.NL, tokenize.INDENT, tokenize.DEDENT):
            statement.append(tok)
    return [lines[n - 1][:comments.get(n)].rstrip() for n in sorted(kept)]


def code_diff(old, new):
    """Code lines added and removed from source old to source new, by a
    line diff of their `code_lines`."""
    matcher = difflib.SequenceMatcher(None, code_lines(old), code_lines(new), autojunk=False)
    added = removed = 0
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            removed += i2 - i1
            added += j2 - j1
    return added, removed


def src_lines(ref):
    """Lines added and removed under src/ from ref to HEAD: raw, as
    `git diff --numstat` counts them, and of code alone, by `code_diff`
    of each changed file (a file absent on one side is empty there)."""
    def git(*args, check=True):
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              check=check).stdout

    numstat = git("diff", "--numstat", ref, "HEAD", "--", "src")
    counts = [line.split("\t")[:2] for line in numstat.splitlines()]
    paths = git("diff", "--name-only", "--no-renames", ref, "HEAD", "--", "src").split()
    code = [code_diff(git("show", "%s:%s" % (ref, path), check=False),
                      git("show", "HEAD:" + path, check=False))
            for path in paths if path.endswith(".py")]
    return {"added": sum(int(a) for a, _ in counts),
            "removed": sum(int(r) for _, r in counts),
            "code_added": sum(a for a, _ in code),
            "code_removed": sum(r for _, r in code)}


def summary(runs):
    q1, q2, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def spread(values):
    return {"median": round(statistics.median(values), 4),
            "min": round(min(values), 4), "max": round(max(values), 4)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--note", help="what the change is (default: HEAD's subject line)")
    args = ap.parse_args()
    note = args.note
    if note is None:
        note = subprocess.run(["git", "log", "-1", "--format=%s"],
                              capture_output=True, text=True, check=True).stdout.strip()
    bench = json.load(open("BENCHMARK.json"))
    refs = {"parent": args.parent, "change": "HEAD"}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    workloads = [w["name"] for w in bench["workloads"]]
    # traced runs first: a call count that does not repeat fails the script early
    traced = {"parent": [], "change": []}
    for i in range(TRACED_RUNS):
        for side in ("parent", "change")[::-1 if i % 2 else 1]:
            traced[side].append(run(refs[side], "--seed", 11, "--trace", 1)["metrics"])
    layers = {}
    for m in bench["per_layer"]:
        for wl in workloads:
            key = wl + "." + m["name"]
            got = {s: [r[key]["value"] for r in traced[s] if key in r] for s in refs}
            if not got["change"]:
                continue
            entry = {"unit": m["unit"]}
            for side, values in got.items():
                if not values:
                    entry[side] = None
                elif m["unit"] == "calls/req":
                    if len(set(values)) > 1:
                        sys.exit("%s %s differs between traced runs: %s" % (side, key, values))
                    entry[side] = values[0]
                else:
                    entry[side] = spread(values)
            layers.setdefault(wl, {})[m["name"]] = entry
    counts = {side: opcodes(ref, workloads) for side, ref in refs.items()}
    results = {"parent": [], "change": []}
    for seed in seeds:
        for side in ("parent", "change")[::1 if seed % 2 else -1]:
            results[side].append(run(refs[side], "--seed", seed, "--seconds", 25))
    end_to_end = {}
    for wl in workloads:
        for m in bench["end_to_end"]:
            key, sign = wl + "." + m["name"], (1 if m["better"] == "higher" else -1)
            p, c = ([r["metrics"][key]["value"] for r in results[s]] for s in results)
            ps, cs = summary(p), summary(c)
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            iqr = round(ps["q3"] - ps["q1"], 4)
            end_to_end.setdefault(wl, {})[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "parent": ps, "change": cs,
                "change_wins_pairs": wins,
                "median_change": round(cs["median"] / ps["median"] - 1, 4),
                "parent_iqr": iqr,
                "meets_pair_rule": wins >= 0.9 * len(seeds)
                                   and sign * (cs["median"] - ps["median"]) > iqr,
                "worse_than_bound": -sign * (cs["median"] / ps["median"] - 1) > m["bound"]}
    cpu = [l.split(":")[1].strip() for l in open("/proc/cpuinfo") if "model name" in l][0]
    doc = {"change": note,
           "machine": {"cpu": cpu, "cores": os.cpu_count(),
                       "os": platform.system() + " " + platform.release().split("-")[0]},
           "python": platform.python_version(),
           "command": "python3 perfbench/run.py --workload all --seed SEED --seconds 25",
           "src_lines": src_lines(args.parent),
           "seeds": seeds,
           "pairs": "fresh git archive export per run; parent first on odd seeds, else HEAD",
           "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
           "attempted": {s: sum(r["attempted"] for r in results[s]) for s in refs},
           "failed": {s: sum(r["failed"] for r in results[s]) for s in refs},
           "end_to_end": end_to_end,
           "opcodes": {"command": "scripts/interleave.py's counted() over its requests(), "
                                  "one export per side, parent loaded first",
                       "equal_within": 0.1,
                       "metrics": {wl + ".opcodes_per_request": {s: counts[s][wl] for s in refs}
                                   for wl in workloads}},
           "traced": {"command": "python3 perfbench/run.py --workload all --seed 11 --trace 1",
                      "runs_per_side": TRACED_RUNS,
                      "order": "one run per side in each round; parent first in even "
                               "rounds (from 0), else HEAD",
                      "summary": "calls: the one repeated value; others: median, min, max",
                      "metrics": layers}}
    with open(args.out, "w") as f:
        f.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
