"""benchmarks/bench_kernels.py still runs against the package.

The script names `_kernels` internals and nothing else runs it, so a
renamed kernel would break it silently.  These tests load the file as it
is and run its in-process tables at their smallest sizes.
"""

import importlib.util
import os

import pytest

_BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "benchmarks", "bench_kernels.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("_bench_kernels", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_in_process_tables_run(bench, capsys):
    bench.kernel_table(64, 1)
    bench.cli_table(1)
    bench.writer_table(1)
    out = capsys.readouterr().out
    assert "zeta, f forward" in out and "compare 513:612" in out
