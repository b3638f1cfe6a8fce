"""Per-layer tracing from outside the program.

``install`` wraps the public functions and methods of every mesoweyl module
(layer = module) in spans, rebinding each name in every module that holds
it, so ``interference.weyl`` and ``squid.weyl`` both reach the wrapped
``states.weyl``.  ``Installed.restore`` puts the originals back.

Spans nest strictly (the program is single-threaded), so a span's self time
is its duration minus the durations of its direct children.  Spans are
folded into per-(name, parent) totals as they close; only spans shallower
than ``KEEP_DEPTH`` are also kept one by one, which bounds span memory while
the hot leaf functions are called hundreds of thousands of times.
"""

import functools
import importlib
import os
import statistics
import sys
import time
import types

import numpy as np

import workloads

LAYERS = [
    "specfun", "states", "harmonics", "interference", "twomode", "squid",
    "fockbench", "verify", "experiments", "cli",
]
# Dunder methods that do the work of series arithmetic; other dunders are
# dataclass plumbing.
OPERATORS = {"__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__call__"}
FIGURES = workloads.FIGS_CLOSED + workloads.FIGS_TWORING
BESSEL = ["specfun.bessel_i", "specfun.bessel_i_all", "specfun.bessel_j", "specfun.bessel_j_all"]
COMPLEX_BYTES = 16


KEEP_DEPTH = 3
MAX_SPANS = 20000


class Tracer:
    """Span stack with folded totals and a few counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals = {}  # (name, parent) -> [calls, total_s, self_s]
        self.spans = []  # (name, start, end, parent) for shallow spans
        self.counters = {}
        self._stack = []  # [name, start, child_s]

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        """Close the innermost span and return its duration."""
        name, start, child_s = self._stack.pop()
        end = self.clock()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        agg = self.totals.setdefault((name, parent), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if len(self._stack) < KEEP_DEPTH and len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, parent))
        return duration

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def by_name(self):
        """Totals folded over parents: name -> (calls, total_s, self_s)."""
        out = {}
        for (name, _), (calls, total, self_s) in self.totals.items():
            c, t, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + calls, t + total, s + self_s)
        return out


def _traced(fn, name, tracer, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
        if observe is not None:
            observe(tracer, args, result, duration)
        return result

    traced.span_name = name
    return traced


def _observe_matrix(tracer, args, result, duration):
    if isinstance(result, np.ndarray) and result.ndim in (1, 2):
        tracer.counters["fockbench.max_dim"] = max(
            tracer.counters.get("fockbench.max_dim", 0), max(result.shape)
        )
        if result.ndim == 2:
            tracer.count("fockbench.matrix_bytes", result.shape[0] * result.shape[1] * COMPLEX_BYTES)


def _observe_suite(tracer, args, result, duration):
    tracer.count("verify.checks", len(result["checks"]))


def _observe_write(tracer, args, result, duration):
    tracer.count("cli.bytes_written", os.path.getsize(args[0]))


def _observe_experiment(tracer, args, result, duration):
    tracer.count(f"experiments.{args[0]}_s", duration)


def _observer(layer, attr):
    if layer == "fockbench":
        return _observe_matrix
    if (layer, attr) == ("verify", "run_suite"):
        return _observe_suite
    if (layer, attr) in (("cli", "write_csv"), ("cli", "write_manifest")):
        return _observe_write
    if (layer, attr) == ("experiments", "run_experiment"):
        return _observe_experiment
    return None


def _is_public(attr):
    return not attr.startswith("_") or attr in OPERATORS


class Installed:
    """Handle on installed wrappers; ``restore`` undoes every rebinding."""

    def __init__(self):
        self._undo = []  # (owner, attr, original)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer):
    """Wrap the public functions and methods of each layer module."""
    handle = Installed()
    wrapped = {}  # id(original function) -> wrapper
    for layer in LAYERS:
        module = importlib.import_module(f"mesoweyl.{layer}")
        for attr, value in list(vars(module).items()):
            if (isinstance(value, types.FunctionType) and attr[0] != "_"
                    and value.__module__ == module.__name__):
                wrapped[id(value)] = _traced(value, f"{layer}.{attr}", tracer, _observer(layer, attr))
            elif isinstance(value, type) and value.__module__ == module.__name__:
                _wrap_class(handle, value, layer, tracer)
    # rebind every module-level name that holds a wrapped function
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mesoweyl" or name.startswith("mesoweyl.")):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and id(value) in wrapped:
                handle._undo.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])
    return handle


def _wrap_class(handle, cls, layer, tracer):
    for attr, raw in list(vars(cls).items()):
        if not _is_public(attr):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, types.FunctionType):
            new = _traced(raw, name, tracer, None)
        elif isinstance(raw, (staticmethod, classmethod)) and isinstance(raw.__func__, types.FunctionType):
            new = type(raw)(_traced(raw.__func__, name, tracer, None))
        else:
            continue
        handle._undo.append((cls, attr, raw))
        setattr(cls, attr, new)


def is_wrapped(fn):
    """True when ``fn`` is a tracing wrapper."""
    return hasattr(fn, "span_name")


def layer_metrics(tracer):
    """The benchmark's per-layer metrics for one traced pass."""
    names = tracer.by_name()

    def calls(*full):
        return sum(names.get(n, (0, 0.0, 0.0))[0] for n in full)

    def self_s(pred):
        return sum(v[2] for n, v in names.items() if pred(n))

    def layer_of(n):
        return n.split(".", 1)[0]

    results = calls("fockbench.converged_two_mode_expectation")
    m = {
        "specfun.laguerre.calls": calls("specfun.laguerre"),
        "specfun.laguerre.self_s": self_s(lambda n: n == "specfun.laguerre"),
        "specfun.bessel.calls": calls(*BESSEL),
        "specfun.bessel.self_s": self_s(lambda n: n in BESSEL),
        "states.weyl.calls": calls("states.weyl"),
        "states.weyl_time_average.calls": calls("states.weyl_time_average"),
        "states.weyl_drive_coeffs.calls": calls("states.weyl_drive_coeffs"),
        "twomode.ratio_closed.calls": calls("twomode.ratio_sep_closed", "twomode.ratio_ent_closed"),
        "twomode.two_mode_weyl.calls": calls("twomode.two_mode_weyl"),
        "squid.two_squid.calls": calls("squid.two_squid_currents_coherent", "squid.two_squid_currents_number"),
        "fockbench.displacement_matrix.calls": calls("fockbench.displacement_matrix"),
        "fockbench.displacement_matrix.self_s": self_s(lambda n: n == "fockbench.displacement_matrix"),
        "fockbench.state_vector.calls": calls("fockbench.state_vector"),
        "fockbench.state_vector.self_s": self_s(lambda n: n == "fockbench.state_vector"),
        "fockbench.evals_per_result": (
            calls("fockbench.two_mode_expectation") / results if results else 0.0
        ),
        "fockbench.max_dim": tracer.counters.get("fockbench.max_dim", 0),
        "fockbench.matrix_mb": tracer.counters.get("fockbench.matrix_bytes", 0) / 1e6,
        "verify.checks": tracer.counters.get("verify.checks", 0),
        "cli.write_s": sum(names.get(n, (0, 0.0, 0.0))[1] for n in ("cli.write_csv", "cli.write_manifest")),
        "cli.bytes_written": tracer.counters.get("cli.bytes_written", 0),
    }
    for layer in ("harmonics", "interference"):
        m[f"{layer}.calls"] = sum(v[0] for n, v in names.items() if layer_of(n) == layer)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(lambda n, layer=layer: layer_of(n) == layer)
    for fig in FIGURES:
        m[f"experiments.{fig}_s"] = tracer.counters.get(f"experiments.{fig}_s", 0.0)
    return m


def median_metrics(per_pass):
    """Per-metric median over traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
