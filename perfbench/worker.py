"""One benchmark process: drives osctun through one round of a workload.

    python3 perfbench/worker.py --mode setup|round|trace --workload W
        --seed N --seconds S --out-dir DIR --index I

Run with ``src`` on PYTHONPATH.  ``run.py`` starts a fresh process for every
round, so each round pays its own import and first call (the set-up time),
no state carries from one round to the next, and the peak RSS belongs to
one round of one workload.  A ``setup`` process makes only the import and
first call, so a run can time its set-up more often than it runs rounds.
The worker only records: values, CSV file names, call times and counters
go to DIR/result-<mode>-<I>.json, and ``run.py`` checks them.
"""

import argparse
import json
import os
import random
import resource
import signal
import sys
import time

WORKLOADS = ("pn_sweep", "fn_sweep", "pn_points")

# The quadrature target every call is given, and the bar for correctness.
REL_TOL = 1e-11
ABS_TOL = 1e-15

# pn_sweep: the figure 5 job, one CLI `compare` call over 513..612.  P_n
# costs about linearly in n, so a seeded range would change a round's work
# with the seed; every seed sweeps the same levels.
PN_LO, PN_HI = 513, 612
# fn_sweep: one CLI `fn` call over one of the FN_BLOCKS equal blocks (99
# levels) of the figure 4 range 6..500, drawn by seed.  F_n costs about the
# same at every n, so the blocks cost the same.
FN_LO, FN_HI, FN_BLOCKS = 6, 500, 5
# pn_points: one tunneling_exact call at every POINTS_STEP-th level of
# 0..POINTS_HI.  The levels are fixed, so the err_estimate under-claims
# among them, each counted as failed, are the same for every seed.
POINTS_HI, POINTS_STEP = 1000, 10

# A traced run replays the round a fixed number of times, so its counters
# repeat exactly for one seed and its times compare across commits.  The
# round length is the untraced time of a round on a 2-CPU reference machine.
NOMINAL_ROUND_S = {"pn_sweep": 3.7, "fn_sweep": 5.5, "pn_points": 3.5}

# Steps of the calibration loop (about 0.5 ms), and seconds between its
# samples during a call.
CALIBRATION_STEPS = 100
SAMPLE_INTERVAL_S = 0.02


def trace_rounds(workload, seconds):
    """Rounds in each third of a traced run, which lasts about `seconds`."""
    return max(1, round(seconds / (3.0 * NOMINAL_ROUND_S[workload])))


def make_round(workload, seed):
    """The seeded operations of one round, in the order they run.

    A sweep operation is (command, first n, last n); a point operation is
    (n,).  The seed draws the F_n block and the order of the point calls.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "pn_points":
        ops = [(n,) for n in range(0, POINTS_HI + 1, POINTS_STEP)]
        rng.shuffle(ops)
        return ops
    if workload == "pn_sweep":
        return [("compare", PN_LO, PN_HI)]
    width = (FN_HI - FN_LO + 1) // FN_BLOCKS
    lo = FN_LO + width * rng.randrange(FN_BLOCKS)
    return [("fn", lo, lo + width - 1)]


def calibration_s():
    """Wall time of one run of a fixed numpy recurrence, in seconds.

    The loop does the kind of work osctun does, a Python loop over
    small-array numpy operations, but none of osctun's code.  Run next to
    and during a call, it measures how fast the machine runs this process
    at that moment (see README.md, "Why calibrated time").
    """
    import numpy as np
    x = np.linspace(4.0, 9.0, 150)
    t0 = time.perf_counter()
    m0 = np.ones_like(x)
    m1 = x.copy()
    for _ in range(CALIBRATION_STEPS):
        m0, m1 = m1, 0.7 * x * m1 - 0.3 * m0
        if (np.abs(m1) > 1e300).any():
            m1 = m1 * 1e-300
    return time.perf_counter() - t0


def calibration_samples():
    return [calibration_s() for _ in range(3)]


def first_call(workload, out_dir):
    """The smallest call of the workload's own entry point, seed-independent."""
    import osctun
    import osctun.cli
    if workload == "pn_points":
        osctun.tunneling_exact(0, osctun.QuadratureConfig(REL_TOL, ABS_TOL))
        return
    cmd = "compare" if workload == "pn_sweep" else "fn"
    argv = [cmd, "--n-range", "1:1", "--out", os.path.join(out_dir, "setup.csv")]
    if osctun.cli.main(argv):
        raise RuntimeError("set-up call %s failed" % argv)


class SpeedSampler:
    """Times the calibration loop every SAMPLE_INTERVAL_S while a call runs.

    A SIGALRM handler runs the loop between the call's own Python
    bytecodes, so the samples follow the machine's speed through a long
    call, not only at its two ends.  The handler's own time is taken out
    of the call's time.
    """

    def __init__(self):
        self.samples = []                 # (start, end, calibration seconds)
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        cal = calibration_s()
        self.samples.append((t0, time.perf_counter(), cal))

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self, t_end):
        """Stops sampling; returns (seconds spent sampling before t_end,
        the calibration times of those samples)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        kept = [(a, min(b, t_end), c) for a, b, c in self.samples if a < t_end]
        return sum(b - a for a, b, _ in kept), [c for _, _, c in kept]


class Runner:
    """Executes operations against osctun and records what each returned."""

    def __init__(self, workload, out_dir, prefix):
        import osctun
        import osctun.cli
        self.osctun = osctun
        self.cli = osctun.cli
        self.config = osctun.QuadratureConfig(rel_tol=REL_TOL, abs_tol=ABS_TOL)
        self.workload = workload
        self.out_dir = out_dir
        self.prefix = prefix
        self.ops = []
        self.out_bytes = 0
        self.sampler = None
        self.during = []

    def run(self, ops, calibrate=False):
        """Executes ops in order; returns the elapsed wall time.

        With calibrate, the record of each call carries ``cal``: the
        calibration times of three samples just before it, of the samples
        during it and of three just after it.
        """
        start = time.perf_counter()
        if calibrate and self.sampler is None:
            self.sampler = SpeedSampler()
        cal = calibration_samples() if calibrate else None
        for i, op in enumerate(ops):
            rec = dict(self._do(op, calibrate), op=i)
            if calibrate:
                after = calibration_samples()
                rec["cal"] = cal + self.during + after
                cal = after
            self.ops.append(rec)
        return time.perf_counter() - start

    def _time(self, call, sample):
        """(result, wall seconds) of call(), less any time spent sampling."""
        clock = time.perf_counter
        if sample:
            self.sampler.start()
        t0 = clock()
        try:
            result = call()
        finally:
            t1 = clock()
            spent = 0.0
            if sample:
                spent, self.during = self.sampler.stop(t1)
        return result, t1 - t0 - spent

    def _do(self, op, sample):
        if self.workload == "pn_points":
            (n,) = op
            r, dt = self._time(
                lambda: self.osctun.tunneling_exact(n, self.config), sample)
            return {"n": n, "value": r.value, "err_estimate": r.err_estimate,
                    "s": dt}
        cmd, lo, hi = op
        name = "%s-%05d.csv" % (self.prefix, len(self.ops))
        path = os.path.join(self.out_dir, name)
        argv = [cmd, "--n-range", "%d:%d" % (lo, hi),
                "--rel-tol", repr(REL_TOL), "--abs-tol", repr(ABS_TOL),
                "--out", path]
        rc, dt = self._time(lambda: self.cli.main(argv), sample)
        if os.path.exists(path):
            self.out_bytes += os.path.getsize(path)
        return {"cmd": cmd, "lo": lo, "hi": hi, "csv": name, "rc": rc, "s": dt}


def layer_metrics(tracer, runner, wall_s, untraced_wall_s):
    """The per-layer figures of one traced replay, by metric name."""
    total, self_s = tracer.times()
    c = tracer.counts
    values = c["quadrature.tunneling_exact.calls"] + c["asymptotics.big_f_n.calls"]
    m = {
        "cli.main.calls": c["cli.main.calls"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.out_bytes": runner.out_bytes,
    }
    for key in ("analysis.compare_sweep", "analysis.ratio_sweep",
                "asymptotics.big_f_n", "quadrature.tunneling_exact",
                "quadrature.integrate_semi_infinite",
                "quadrature.integrate_finite"):
        m[key + ".total_s"] = total[key]
        m[key + ".self_s"] = self_s[key]
    for key in ("asymptotics.big_f_n", "quadrature.tunneling_exact",
                "quadrature.integrate_semi_infinite",
                "quadrature.integrate_finite", "specfun.hermite_psi_squared",
                "specfun.airy_ai_values", "_kernels.hermite_values",
                "_kernels.airy_values", "_kernels.invert_zeta_values",
                "_kernels.f_from_e"):
        m[key + ".calls"] = c[key + ".calls"]
    for key in ("leading_term", "second_order"):
        m["asymptotics.%s.total_s" % key] = total["asymptotics." + key]
    m["quadrature.integrand.calls"] = c["quadrature.integrand.calls"]
    m["quadrature.integrand.points"] = c["quadrature.integrand.points"]
    m["quadrature.integrand.points_per_value"] = (
        c["quadrature.integrand.points"] / values if values else 0.0)
    for key in ("specfun.hermite_psi_squared", "specfun.airy_ai_values"):
        m[key + ".points"] = c[key + ".points"]
        m[key + ".self_s"] = self_s[key]
    for key in ("_kernels.hermite_values", "_kernels.airy_values",
                "_kernels.invert_zeta_values", "_kernels.f_from_e"):
        m[key + ".points"] = c[key + ".points"]
        m[key + ".total_s"] = total[key]
    m["_kernels.hermite_values.steps"] = c["_kernels.hermite_values.steps"]
    m["_kernels.airy_values.series_points"] = c["_kernels.airy_values.series_points"]
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    m["trace.wall_s"] = wall_s
    m["trace.self_sum_s"] = sum(self_s.values())
    # Metric names start with a letter: the _kernels module reports as kernels.
    return {(k[1:] if k.startswith("_") else k): float(v) for k, v in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "round", "trace"), required=True)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--index", type=int, default=0)
    args = ap.parse_args()
    tag = "%s-%d" % (args.mode, args.index)

    t0 = time.perf_counter()
    first_call(args.workload, args.out_dir)
    result = {"setup_s": time.perf_counter() - t0}

    runner = Runner(args.workload, args.out_dir, tag)
    ops = make_round(args.workload, args.seed)
    if args.mode == "round":
        runner.run(ops, calibrate=True)
    elif args.mode == "trace":
        from spans import Tracer
        # Untraced, traced, untraced again: a drift in the machine's speed
        # cancels out of trace.overhead_s to first order.
        ops = ops * trace_rounds(args.workload, args.seconds)
        untraced = runner.run(ops)
        tracer = Tracer()
        runner.out_bytes = 0
        tracer.install()
        try:
            traced = runner.run(ops)
        finally:
            tracer.uninstall()
        out_bytes = runner.out_bytes
        untraced += runner.run(ops)
        runner.out_bytes = out_bytes
        tracer.write_spans(os.path.join(args.out_dir, "spans.jsonl"))
        result["layers"] = layer_metrics(tracer, runner, traced, untraced / 2)
    result["ops"] = runner.ops
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.out_dir, "result-%s.json" % tag), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
