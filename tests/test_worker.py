"""The benchmark's calls into osctun still run and give finite numbers.

perfbench/worker.py drives each workload through osctun's public names
(tunneling_exact with a QuadratureConfig, the CLI with --rel-tol and
--abs-tol), so a change that drops one of them would only show as a
refused benchmark run.  These tests load the file as it is, without
changing it, and run one round of each workload, so it fails here first.
"""

import csv
import importlib.util
import math
import os

import pytest

_WORKER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "worker.py")


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("_perfbench_worker",
                                                  _WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_are_the_ones_tested(worker):
    assert worker.WORKLOADS == ("pn_sweep", "fn_sweep", "pn_points")


@pytest.mark.parametrize("workload", ["pn_sweep", "fn_sweep", "pn_points"])
def test_one_round(worker, tmp_path, workload):
    out_dir = str(tmp_path)
    worker.first_call(workload, out_dir)
    runner = worker.Runner(workload, out_dir, "round")
    ops = worker.make_round(workload, 1)
    runner.run(ops)
    assert len(runner.ops) == len(ops)
    for rec in runner.ops:
        if workload == "pn_points":
            assert math.isfinite(rec["value"]) and rec["value"] > 0.0
            assert math.isfinite(rec["err_estimate"])
            continue
        assert rec["rc"] == 0
        path = os.path.join(out_dir, rec["csv"])
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[0] == "n"
        assert len(rows) == rec["hi"] - rec["lo"] + 1
        assert all(math.isfinite(float(cell))
                   for row in rows for cell in row)
