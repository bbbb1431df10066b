"""osctun benchmark: one workload, measured from outside, outputs checked.

    python3 perfbench/run.py --workload pn_sweep|fn_sweep|pn_points
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.  The
seed fixes one round of operations.  With ``--trace 0`` SETUP_PROCESSES
fresh processes (``worker.py``) time the set-up alone, then the round runs
again and again, each time in a fresh process, while another round still
fits in S seconds.  With ``--trace 1`` one process runs the round a fixed
number of times untraced, as often traced, and again untraced.  A
worker still running WORKER_BUDGET_S after the start is stopped; its
round counts as failed and the run as incorrect.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Diagnostics go to standard error;
CSVs, the workers' records, the spans of a traced run and a manifest with
every CSV's SHA-256 stay in perfbench/_out/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import mpmath as mp

import references
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
# Seconds from the start of a run by which every worker must have ended,
# which leaves the checks time to finish within 180 s.
WORKER_BUDGET_S = 150
# Set-up-only processes per untraced run; setup_s is the median over these
# and the round processes.
SETUP_PROCESSES = 5


class Checks:
    """Collects failed correctness conditions; `ok` is False after any."""

    def __init__(self):
        self.problems = []

    def expect(self, cond, message):
        if not cond:
            self.problems.append(message)

    @property
    def ok(self):
        return not self.problems


def half_ulp12(v):
    """Half a unit in the 12th significant digit: the CLI's print rounding."""
    if v == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 11)


def tolerance(ref):
    return max(worker.ABS_TOL, worker.REL_TOL * abs(ref))


def run_worker(mode, args, out_dir, deadline, index=0):
    """The worker's record, or None if it ran past the deadline."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", out_dir,
           "--index", str(index)]
    try:
        # On timeout, subprocess.run kills the worker and waits for it.
        proc = subprocess.run(cmd, env=env, timeout=max(
            1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise SystemExit("worker %s exited with %d" % (mode, proc.returncode))
    with open(os.path.join(out_dir, "result-%s-%d.json" % (mode, index))) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode("ascii").split("\n")
    return data, lines[0].split(","), [ln for ln in lines[1:] if ln]


def check_sweep(ops, out_dir, checks, pn_ref, consts):
    """Check every CSV of a sweep; returns (values, failed values, digests)."""
    c1, c2, f_inf = (float(c) for c in consts)
    rows_by_n = {}
    digests = []
    by_args = defaultdict(set)
    values = failed = 0
    for op in ops:
        want = list(range(op["lo"], op["hi"] + 1))
        values += len(want)
        path = os.path.join(out_dir, op["csv"])
        if op["rc"] != 0 or not os.path.exists(path):
            failed += len(want)
            continue
        data, header, lines = read_csv(path)
        key = "%s %d:%d" % (op["cmd"], op["lo"], op["hi"])
        digests.append({"args": key, "sha256": hashlib.sha256(data).hexdigest()})
        by_args[key].add(digests[-1]["sha256"])
        got = [int(ln.split(",")[0]) for ln in lines]
        checks.expect(got == want, "%s: rows for n=%s, asked %s"
                      % (op["csv"], got, want))
        for ln in lines:
            n = int(ln.split(",")[0])
            checks.expect(rows_by_n.setdefault(n, ln) == ln,
                          "n=%d printed differently in two calls" % n)
        if op["cmd"] == "compare":
            checks.expect(header == ["n", "p_exact", "p_leading", "p_second",
                                     "err_leading", "err_second",
                                     "scaled_err_second"], "compare header")
        else:
            checks.expect(header == ["n", "ratio"], "fn header")
    for key, shas in by_args.items():
        checks.expect(len(shas) == 1, "%s wrote %d different files" % (key, len(shas)))
    if ops and ops[0]["cmd"] == "compare":
        for n, ln in rows_by_n.items():
            check_compare_row(n, [float(v) for v in ln.split(",")[1:4]],
                              checks, pn_ref, c1, c2)
    elif rows_by_n:
        check_ratios(rows_by_n, checks, f_inf)
    return values, failed, digests


def check_compare_row(n, row, checks, pn_ref, c1, c2):
    p_exact, p_lead, p_sec = row
    ref = float(pn_ref(n))
    checks.expect(abs(p_exact - ref) <= tolerance(ref) + half_ulp12(p_exact),
                  "n=%d: p_exact %r vs reference %r" % (n, p_exact, ref))
    lead = c1 * n ** (-1.0 / 3.0)
    sec = lead - c2 / n
    for got, want, name in ((p_lead, lead, "p_leading"),
                            (p_sec, sec, "p_second")):
        checks.expect(abs(got - want) <= half_ulp12(got) + 1e-15 * abs(want),
                      "n=%d: %s %r vs %r" % (n, name, got, want))
    if n >= 64:
        checks.expect(abs(p_lead - ref) <= 0.02 * ref,
                      "n=%d: leading term off by more than 2%%" % n)
    if 513 <= n <= 612:
        checks.expect(abs(p_sec - ref) < abs(p_lead - ref),
                      "n=%d: second order does not beat the leading term" % n)


def check_ratios(rows_by_n, checks, f_inf):
    ns = sorted(rows_by_n)
    ratio = {n: float(rows_by_n[n].split(",")[1]) for n in ns}
    for n in ns:
        checks.expect(1.0 < ratio[n] < 1.2, "n=%d: ratio %r outside (1, 1.2)"
                      % (n, ratio[n]))
    for a, b in zip(ns, ns[1:]):
        checks.expect(ratio[b] < ratio[a], "ratio does not decrease from "
                      "n=%d to n=%d" % (a, b))
    for n in (ns[0], ns[-1]):
        want = f_inf / float(references.big_f_n(n))
        checks.expect(abs(ratio[n] - want) <= half_ulp12(ratio[n])
                      + worker.REL_TOL * want,
                      "n=%d: ratio %r vs mpmath %r" % (n, ratio[n], want))


def check_points(ops, checks, pn_ref):
    """Checks every value against the tolerance; returns the number of calls
    that failed because |value - reference| exceeds their err_estimate."""
    failed = 0
    for op in ops:
        ref = float(pn_ref(op["n"]))
        err = abs(op["value"] - ref)
        checks.expect(err <= tolerance(ref), "n=%d: |P - ref| = %.3g misses "
                      "the tolerance" % (op["n"], err))
        failed += err > op["err_estimate"]
    return failed


# The calibration loop's time on the reference machine (2 CPUs, Python
# 3.11, numpy 2.4) while that machine runs at its full speed: the first
# percentile of 3000 samples.
CALIBRATION_REF_S = 0.47e-3


def calibrated(op):
    """The call's wall time times the machine's mean speed over the call,
    relative to full speed: what the call would take on the reference
    machine at full speed.  A calibration sample of c seconds reads speed
    CALIBRATION_REF_S / c."""
    return op["s"] * statistics.fmean(CALIBRATION_REF_S / c for c in op["cal"])


def values_in(op):
    """P_n or F_n values one operation computes."""
    return 1 if "n" in op else op["hi"] - op["lo"] + 1


def speed(ops, time_of):
    """(values_per_s, call_p50_ms) under the call timing `time_of`.

    values_per_s takes, for each operation of the round, the median of its
    repeats; call_p50_ms is the median over every call made.
    """
    per_op = defaultdict(list)
    count = {}
    for op in ops:
        per_op[op["op"]].append(time_of(op))
        count[op["op"]] = values_in(op)
    total_s = sum(statistics.median(v) for v in per_op.values())
    return (sum(count.values()) / total_s,
            1e3 * statistics.median(time_of(op) for op in ops))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=worker.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "osctun", "__init__.py")):
        print("src/osctun not found: run from the root of an osctun checkout",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "_out", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    deadline = time.perf_counter() + WORKER_BUDGET_S
    rounds, setups = [], []
    timed_out = False
    if args.trace:
        record = run_worker("trace", args, out_dir, deadline)
        timed_out = record is None
        rounds = [] if timed_out else [record]
    else:
        for i in range(SETUP_PROCESSES):
            record = run_worker("setup", args, out_dir, deadline, i)
            if record is None:
                timed_out = True
                break
            setups.append(record)
        start = time.perf_counter()
        last = 0.0
        while not timed_out and (
                not rounds or time.perf_counter() - start + last <= args.seconds):
            t0 = time.perf_counter()
            record = run_worker("round", args, out_dir, deadline, len(rounds))
            timed_out = record is None
            if record is not None:
                rounds.append(record)
                setups.append(record)
            last = time.perf_counter() - t0
    ops = [op for r in rounds for op in r["ops"]]

    checks = Checks()
    pn_ref = references.PnReference(max(worker.PN_HI, worker.POINTS_HI))
    gap0, gap = references.cross_check(pn_ref)
    checks.expect(gap0 < mp.mpf(10) ** -45 and gap < mp.mpf(10) ** -40,
                  "P_n reference disagrees with erfc(1) or with quadrature")
    digests = []
    raw = {}
    if args.workload == "pn_points":
        attempted = len(ops)
        failed = check_points(ops, checks, pn_ref)
    else:
        attempted, failed, digests = check_sweep(
            ops, out_dir, checks, pn_ref, references.constants())
    if timed_out:
        # The unfinished round's values count as attempted and failed.
        lost = sum(1 if len(op) == 1 else op[2] - op[1] + 1
                   for op in worker.make_round(args.workload, args.seed))
        if args.trace:
            lost *= 3 * worker.trace_rounds(args.workload, args.seconds)
        attempted += lost
        failed += lost
        checks.expect(False, "a worker was still running %d s after the start"
                      % WORKER_BUDGET_S)

    metrics = {}
    if args.trace and rounds:
        layers = rounds[0]["layers"]
        share = layers["trace.self_sum_s"] / layers["trace.wall_s"]
        checks.expect(abs(share - 1.0) <= 0.1, "layer self times cover %.3f "
                      "of the traced wall time" % share)
        metrics = {name: {"value": v, "unit": unit_of(name)}
                   for name, v in layers.items()}
    elif not args.trace:
        if setups:
            metrics["setup_s"] = {"value": statistics.median(
                r["setup_s"] for r in setups), "unit": "s"}
        if rounds:
            vps, p50 = speed(ops, calibrated)
            raw.update(zip(("values_per_s", "call_p50_ms"),
                           speed(ops, lambda op: op["s"])))
            metrics["values_per_s"] = {"value": vps, "unit": "values/s"}
            metrics["call_p50_ms"] = {"value": p50, "unit": "ms"}
            metrics["peak_rss_mb"] = {"value": statistics.median(
                r["peak_rss_mb"] for r in rounds), "unit": "MB"}
        print("uncalibrated: %s" % raw, file=sys.stderr)

    for problem in checks.problems[:20]:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    print("%s seed %d: %d processes, %d operations attempted, %d failed"
          % (args.workload, args.seed, len(rounds), attempted, failed),
          file=sys.stderr)

    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "rounds": len(rounds),
                   "setup_s": [r["setup_s"] for r in setups], "csv": digests,
                   "uncalibrated": raw,
                   "problems": checks.problems},
                  fh, indent=1)
    print(json.dumps({"correct": checks.ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("out_bytes"):
        return "bytes"
    if name.endswith("points_per_value"):
        return "points/value"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
