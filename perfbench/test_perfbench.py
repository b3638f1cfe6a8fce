"""Tests of the benchmark's own machinery: output checks, seeded inputs,
layer tracing and the tracing overhead.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks
import run
import tracing
import worker
import workloads
from mesoweyl import cli, experiments, interference, squid, states, twomode, verify
from mesoweyl.harmonics import HarmonicSeries

ALL_FIGS = workloads.FIGS_CLOSED + workloads.FIGS_TWORING
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _surface():
    xs = np.linspace(-1.0, 1.0, 7)
    vals = np.cos(xs)[:, None] * np.array([1.0, 2.0, 3.0])
    vals[2, 1] = math.nan
    return vals


# ---------------------------------------------------------------------------
# output checks

def test_comparator_accepts_agreement_within_tolerance():
    ref = _surface()
    assert checks.compare_values(ref.copy(), ref) == []
    near = ref.copy()
    near[3, 2] += 5e-13
    assert checks.compare_values(near, ref) == []


def test_comparator_catches_a_2e_12_perturbation():
    ref = _surface()
    moved = ref.copy()
    moved[4, 0] += 2e-12
    assert checks.compare_values(moved, ref)


def test_comparator_catches_a_moved_nan():
    ref = _surface()
    moved = ref.copy()
    moved[2, 1] = ref[3, 1]
    moved[3, 1] = math.nan
    problems = checks.compare_values(moved, ref)
    assert any("NaN" in p for p in problems)


def test_reference_encoding_round_trips_bit_for_bit():
    vals = _surface()
    back = checks.decode(checks.encode(vals), vals.shape)
    assert back.tobytes() == vals.tobytes()


def _write_figure(tmp_path, name, values, manifest):
    rows = "\n".join(",".join(repr(float(v)) if not math.isnan(v) else "nan" for v in r) for r in values)
    (tmp_path / f"{name}.csv").write_text("a,b,c\n" + rows + "\n")
    (tmp_path / f"{name}.manifest.json").write_text(json.dumps({"n_rows": len(values), **manifest}))


def test_non_finite_values_fail_unless_the_row_is_singular(tmp_path):
    vals = _surface()
    _write_figure(tmp_path, "bad", vals, {})
    assert checks.check_figure("bad", tmp_path)
    _write_figure(tmp_path, "ok", vals, {"singular_phases": [float(vals[2, 0])]})
    assert checks.check_figure("ok", tmp_path) == []
    assert checks.check_figure("bad", tmp_path, known_nan_columns=("b",)) == []


def test_references_hold_every_figure():
    refs = checks.load_references()
    assert sorted(refs) == sorted(ALL_FIGS)
    for name in ("fig1", "fig14"):
        columns, values, manifest = refs[name]
        assert values.shape == (manifest["n_rows"], len(columns))


# ---------------------------------------------------------------------------
# seeded inputs

def _configs(tmp_path, seed, workload):
    d = tmp_path / f"{workload}-{seed}"
    workloads.write_configs(workload, seed, CONFIGS, d)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", ["figs-closed", "figs-tworing"])
def test_same_seed_gives_identical_configs_and_other_seeds_differ(tmp_path, workload):
    a = _configs(tmp_path / "a", 3, workload)
    b = _configs(tmp_path / "b", 3, workload)
    c = _configs(tmp_path / "c", 4, workload)
    assert a == b
    assert all(a[name] != c[name] for name in a)


def test_default_seed_is_the_shipped_config_and_sizes_never_change():
    for name in ALL_FIGS:
        shipped = json.loads((CONFIGS / f"{name}.json").read_text())
        default = workloads.figure_config(shipped, workloads.DEFAULT_SEED)
        jittered = workloads.figure_config(shipped, 11)
        expected = dict(shipped["params"])
        if name in workloads.FIGS_TWORING:
            expected["samples"] = workloads.TWORING_SAMPLES
        assert default["params"] == expected
        for key, value in jittered["params"].items():
            if key in workloads.JITTERED or key in workloads.FREQUENCIES:
                assert abs(value / expected[key] - 1.0) <= workloads.JITTER
            else:
                assert value == expected[key]


def test_every_generated_config_is_accepted_by_run_experiment(tmp_path):
    for workload in ("figs-closed", "figs-tworing"):
        items = workloads.write_configs(workload, 5, CONFIGS, tmp_path / workload)
        for item in items:
            config = json.loads(open(item["config"]).read())
            result = experiments.run_experiment(config["experiment"], config["params"])
            assert len(result.rows) > result.n_singular


# ---------------------------------------------------------------------------
# layer wrappers

def _bindings():
    """Every module-level name and class attribute of the package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "mesoweyl" or name.startswith("mesoweyl."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    out.update({(name, attr, k): v for k, v in vars(value).items()})
    return out


def test_wrappers_reach_every_binding_and_restore_the_originals():
    assert cli.main and verify.run_suite  # every layer is imported before the snapshot
    before = _bindings()
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        assert tracing.is_wrapped(states.weyl)
        assert interference.weyl is states.weyl
        assert twomode.weyl is states.weyl
        assert squid.weyl is states.weyl
        interference.weyl(states.CoherentState(0.5), 0.3)
        twomode.weyl(states.NumberState(2), 0.3)
        squid.weyl(states.ThermalState(1.0), 0.3)
        assert tracer.by_name()["states.weyl"][0] == 3
        HarmonicSeries(1.0, {0: 1.0}) + HarmonicSeries(1.0, {1: 1.0})
        assert tracer.by_name()["harmonics.HarmonicSeries.__add__"][0] == 1
    finally:
        handle.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not tracing.is_wrapped(states.weyl)


def test_self_time_subtracts_the_time_children_cover():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def at(t, action, name=None):
        now[0] = t
        tracer.enter(name) if action == "enter" else tracer.exit()

    # a [0, 10] with children b [1, 3] and c [4, 8]; c has child d [5, 6]
    at(0, "enter", "a")
    at(1, "enter", "b")
    at(3, "exit")
    at(4, "enter", "c")
    at(5, "enter", "d")
    at(6, "exit")
    at(8, "exit")
    at(10, "exit")
    totals = tracer.by_name()
    assert {n: totals[n][2] for n in "abcd"} == {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0}
    assert {n: totals[n][1] for n in "abcd"} == {"a": 10.0, "b": 2.0, "c": 4.0, "d": 1.0}
    assert ("d", 5.0, 6.0, "c") in tracer.spans
    assert tracer.totals[("d", "c")][0] == 1


def test_trace_overhead_is_taken_against_the_untraced_passes_on_either_side():
    def done(seconds):
        return {"pass_s": seconds}

    # the machine slows by 1 s per pass; tracing itself costs 0.5 s
    passes = [(0, done(4.0)), (1, done(5.5)), (0, done(6.0)), (1, done(7.5)), (0, None)]
    assert run.bracketed_overheads(passes) == [0.5]
    with pytest.raises(run.BenchError):
        run.bracketed_overheads(passes[:2])


# ---------------------------------------------------------------------------
# calibration

def test_scaled_time_cancels_a_uniform_slowdown_of_the_machine():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(3.0, [ref, ref]) == pytest.approx(3.0)
    # the same work on a core twice as slow: both the work and the kernel double
    assert calibrate.scaled(6.0, [2 * ref, 2 * ref, 2 * ref]) == pytest.approx(3.0)
    # the speed over the span is the mean of its calibration points
    assert calibrate.scaled(4.5, [1.0 * ref, 2.0 * ref]) == pytest.approx(3.0)


def test_calibration_kernel_runs_no_mesoweyl_code():
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        assert calibrate.kernel_seconds() > 0.0
    finally:
        handle.restore()
    assert tracer.by_name() == {}


def test_probe_samples_while_entered_and_its_time_is_taken_out():
    previous = signal.getsignal(signal.SIGALRM)
    probe = calibrate.Probe(interval=0.01)
    with probe:
        wall0, _ = worker.program_clocks(probe)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        wall1, _ = worker.program_clocks(probe)
    assert len(probe.samples) > 5
    assert probe.spent_s == pytest.approx(sum(probe.samples), rel=0.5)
    assert wall1 - wall0 == pytest.approx(0.3 - probe.spent_s + probe.samples[0], abs=0.02)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
