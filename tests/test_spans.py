"""The benchmark's tracer still finds every name it wraps in osctun.

perfbench/spans.py looks up each (layer, name) of LAYERS, and
_kernels.T_SWITCH, with getattr when a traced run starts, so a name that
osctun drops would crash every traced benchmark run.  These tests load the
file as it is, without changing it, so such a name fails here first.
"""

import importlib
import importlib.util
import os
import sys

import pytest

import osctun.cli  # puts every layer module in sys.modules

_SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(spans):
    return [(layer, name) for layer, names in spans.LAYERS.items()
            for name in names]


def test_every_traced_name_resolves(spans):
    missing = [(layer, name) for layer, name in _traced(spans)
               if not callable(getattr(importlib.import_module(
                   "osctun." + layer), name, None))]
    assert missing == []
    assert isinstance(sys.modules["osctun._kernels"].T_SWITCH, float)


def test_install_and_uninstall_round_trip(spans, tmp_path):
    originals = {(layer, name): getattr(sys.modules["osctun." + layer], name)
                 for layer, name in _traced(spans)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (layer, name), orig in originals.items():
            wrapper = getattr(sys.modules["osctun." + layer], name)
            assert wrapper is not orig
            assert wrapper.__wrapped__ is orig
        assert osctun.cli.main(["compare", "--n-range", "5:6", "--out",
                                str(tmp_path / "compare.csv")]) == 0
    finally:
        tracer.uninstall()
    for (layer, name), orig in originals.items():
        assert getattr(sys.modules["osctun." + layer], name) is orig
    assert tracer.counts["cli.main.calls"] == 1
    assert tracer.spans[0][0] == "cli.main"
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_fn_sweep_records_one_big_f_n_span(spans, tmp_path):
    # fn takes its F_n from one big_f_n call on the block of levels, so the
    # benchmark's asymptotics.big_f_n layer sees that pass.
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert osctun.cli.main(["fn", "--n-range", "6:10", "--out",
                                str(tmp_path / "fn.csv")]) == 0
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.main") == 1
    assert names.count("asymptotics.big_f_n") == 1
    span = tracer.spans[names.index("asymptotics.big_f_n")]
    assert span[3] == names.index("cli.main")
