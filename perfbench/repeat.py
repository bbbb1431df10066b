"""Run each workload repeatedly and summarize the spread of every metric.

    python3 perfbench/repeat.py [--workloads pn_sweep,fn_sweep,pn_points]
        [--runs 10] [--sets 2] [--seed-base 1] [--seconds 30] [--trace 0]

Run from the repository root.  Every set runs seeds seed-base ..
seed-base+runs-1 once each, so each run of a later set repeats a run of the
first with the same inputs.  For each workload and set it prints the
median and longest wall time of run.py, and every metric's median,
quartiles and quartile spread as a share of the median, next to the
bound in BENCHMARK.json; then each later set's median change
against the first; then the SHA-256 of every CSV written, grouped by CLI
arguments, with the number of files that had it.  One set of arguments
with two different digests breaks the CLI's byte-identical promise and
makes the command exit 1, as does any run that is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}, {}
    with open(path) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["bound"] for m in spec["end_to_end"]},
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py %s seed %d exited with %d"
                         % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    manifest = os.path.join(HERE, "_out", "%s-seed%d-trace%d"
                            % (workload, seed, trace), "manifest.json")
    with open(manifest) as fh:
        return result, json.load(fh)["csv"], wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="pn_sweep,fn_sweep,pn_points")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds, better = load_bounds()
    status = 0
    for workload in args.workloads.split(","):
        sets = []
        digests = defaultdict(lambda: defaultdict(int))
        for s in range(args.sets):
            values = defaultdict(list)
            shares = set()
            walls = []
            for i in range(args.runs):
                seed = args.seed_base + i
                result, csvs, wall = run_once(workload, seed, args.seconds,
                                              args.trace)
                walls.append(wall)
                if not result["correct"]:
                    status = 1
                    print("%s seed %d: NOT CORRECT" % (workload, seed))
                shares.add((result["failed"], result["attempted"]))
                for name, m in result["metrics"].items():
                    values[(name, m["unit"])].append(m["value"])
                for c in csvs:
                    digests[c["args"]][c["sha256"]] += 1
            sets.append(values)
            print("\n%s, set %d of %d, %d runs: failed/attempted %s"
                  % (workload, s + 1, args.sets, args.runs,
                     sorted("%d/%d = %.6f" % (f, a, f / a) for f, a in shares)))
            print("  run.py wall time: median %.1f s, max %.1f s"
                  % (statistics.median(walls), max(walls)))
            print("  %-42s %12s %12s %12s %8s %6s" % (
                "metric", "q1", "median", "q3", "spread", "bound"))
            for (name, unit), vals in values.items():
                q1, med, q3 = (statistics.quantiles(vals, n=4)
                               if len(vals) > 1 else (vals[0],) * 3)
                spread = (q3 - q1) / med if med else 0.0
                print("  %-42s %12.6g %12.6g %12.6g %8.4f %6s"
                      % ("%s [%s]" % (name, unit), q1, med, q3, spread,
                         bounds.get(name, "")))
        for s in range(1, len(sets)):
            print("  set %d against set 1 (median change, worse is positive):"
                  % (s + 1))
            for (name, unit), vals in sets[s].items():
                first = statistics.median(sets[0][(name, unit)])
                change = (statistics.median(vals) - first) / first if first else 0.0
                if better.get(name) == "higher":
                    change = -change
                print("    %-40s %+8.4f" % (name, change))
        if digests:
            print("  CSV digests (arguments, sha256, files with it):")
        for key in sorted(digests):
            for digest, count in sorted(digests[key].items()):
                print("    %-24s %s %d" % (key, digest, count))
            if len(digests[key]) > 1:
                status = 1
                print("    ^ DIFFERENT BYTES FOR THE SAME ARGUMENTS")
    return status


if __name__ == "__main__":
    sys.exit(main())
