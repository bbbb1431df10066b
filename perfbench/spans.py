"""Spans and counters around the public functions of each osctun layer.

The tracer wraps functions from outside the package: every module binding
of a wrapped function is replaced, because ``cli`` and ``analysis`` import
``tunneling_exact`` and ``big_f_n`` by name.  A span records its name,
start, end and parent; spans stay in memory until ``write_spans``.  A
span's self time is its duration minus the durations of its children, so
the self times of all spans add up to the durations of the root spans.
"""

import json
import sys
import time
from collections import defaultdict

import numpy as np

# Layer -> public functions whose calls become spans.
LAYERS = {
    "cli": ("main",),
    "analysis": ("compare_sweep", "ratio_sweep"),
    "asymptotics": ("big_f_n", "leading_term", "second_order"),
    "quadrature": ("tunneling_exact", "integrate_semi_infinite",
                   "integrate_finite"),
    "specfun": ("hermite_psi_squared", "airy_ai_values"),
    "_kernels": ("hermite_values", "airy_values", "invert_zeta_values",
                 "f_from_e"),
}

# Functions whose point counts are kept: position of the points argument.
_POINTS_ARG = {
    "specfun.hermite_psi_squared": 1, "specfun.airy_ai_values": 0,
    "_kernels.hermite_values": 1, "_kernels.airy_values": 0,
    "_kernels.invert_zeta_values": 0, "_kernels.f_from_e": 0,
}

# Functions whose f argument (the integrand) is counted.
_INTEGRAND_TAKERS = ("quadrature.integrate_finite",
                     "quadrature.integrate_semi_infinite")


class Tracer:
    """Installs span wrappers into the osctun modules and collects counts."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent_index]
        self.counts = defaultdict(float)
        self._stack = []
        self._in_integrand = False
        self._restore = []
        self._t_switch = None

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if (name == "osctun" or name.startswith("osctun."))
                   and m is not None]
        kernels = sys.modules["osctun._kernels"]
        self._t_switch = kernels.T_SWITCH
        for layer, names in LAYERS.items():
            home = sys.modules["osctun." + layer]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(layer + "." + name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key, fn):
        count = self._counter(key)
        takes_integrand = key in _INTEGRAND_TAKERS
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if takes_integrand:
                args = (self._wrap_integrand(args[0]),) + args[1:]
            count(args)
            parent = stack[-1] if stack else -1
            span = [key, clock(), 0.0, parent]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_integrand(self, f):
        # Count only the outermost integrand, so the substitution route's
        # inner closure and nested integrals are not counted twice.
        counts = self.counts

        def integrand(x):
            if self._in_integrand:
                return f(x)
            counts["quadrature.integrand.calls"] += 1
            counts["quadrature.integrand.points"] += np.size(x)
            self._in_integrand = True
            try:
                return f(x)
            finally:
                self._in_integrand = False

        return integrand

    def _counter(self, key):
        counts = self.counts
        arg = _POINTS_ARG.get(key)

        def count(args):
            counts[key + ".calls"] += 1
            if arg is None:
                return
            size = np.size(args[arg])
            counts[key + ".points"] += size
            if key == "_kernels.hermite_values":
                counts[key + ".steps"] += int(args[0]) * size
            elif key == "_kernels.airy_values":
                counts[key + ".series_points"] += int(
                    np.count_nonzero(np.asarray(args[0]) <= self._t_switch))

        return count

    # -- results ------------------------------------------------------------

    def times(self):
        """Per-function total and self seconds from the recorded spans."""
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        return total, self_s

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
