"""Interleaved perfbench pairs of a parent commit and HEAD, as one BENCH json.

    python3 scripts/bench_pairs.py PARENT_REF --pairs 10 --first-seed 2201 --out BENCH_10.json

Run from the repository root.  Each run gets a fresh `git archive` export, so
no run sees another's bytecode.  Seed S = first-seed + i runs `perfbench/run.py
--workload all --seed S --seconds 25` on both commits, the parent first when S
is odd.  Three seed-11 `--trace 1` runs per commit, interleaved, give the
per-layer metrics: each call count (unit calls/req), which must repeat exactly
across the runs, and the median, min and max of every other metric.  A run that
exits nonzero stops the script with its ref, its arguments and its stderr.
`src_lines` sums `git diff --numstat PARENT_REF HEAD -- src`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

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


def src_lines(ref):
    """Lines added and removed under src/ from ref to HEAD."""
    numstat = subprocess.run(["git", "diff", "--numstat", ref, "HEAD", "--", "src"],
                             capture_output=True, text=True, check=True).stdout
    counts = [line.split("\t")[:2] for line in numstat.splitlines()]
    return {"added": sum(int(a) for a, _ in counts),
            "removed": sum(int(r) for _, r in counts)}


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
    ap.add_argument("--note", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    refs = {"parent": args.parent, "change": "HEAD"}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    workloads = [w["name"] for w in bench["workloads"]]
    # traced runs first: a call count that does not repeat fails the script early
    traced = {"parent": [], "change": []}
    for _ in range(TRACED_RUNS):
        for side in refs:
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
            end_to_end.setdefault(wl, {})[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "parent": ps, "change": cs,
                "change_wins_pairs": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                "median_change": round(cs["median"] / ps["median"] - 1, 4),
                "parent_iqr": round(ps["q3"] - ps["q1"], 4),
                "worse_than_bound": -sign * (cs["median"] / ps["median"] - 1) > m["bound"]}
    cpu = [l.split(":")[1].strip() for l in open("/proc/cpuinfo") if "model name" in l][0]
    doc = {"change": args.note,
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
           "traced": {"command": "python3 perfbench/run.py --workload all --seed 11 --trace 1",
                      "runs_per_side": TRACED_RUNS,
                      "summary": "calls: the one repeated value; others: median, min, max",
                      "metrics": layers}}
    with open(args.out, "w") as f:
        f.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
