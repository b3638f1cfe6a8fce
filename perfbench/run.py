"""mesoweyl benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload figs-closed --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (``src/mesoweyl`` and ``configs``).
Load shape: a single closed-loop client, pinned to one CPU.  Each timed
pass runs the workload's items one after another in a fresh worker process
that has already imported mesoweyl, with BLAS pinned to one thread.  Passes repeat
until the next one would overrun ``--seconds`` (at least one pass runs).
Times are reported in seconds on a reference core: each is scaled by the
speed of a calibration kernel (calibrate.py) sampled while the pass runs,
or just before and after a timed start; the times as measured are in the
readable lines and in result.json.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics plus the tracing
overhead.  The last stdout line is the JSON result; the lines before it are
a readable table and the environment record.  Details, including the kept
spans of the last traced pass, go to ``perfbench/_work/<workload>/``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORKER = HERE / "worker.py"
# Timed starts are spread over the run, so that setup_s samples the same
# period as the passes: half of SETUP_MIN before the first pass, one before
# every later pass, and the rest after the last pass when few passes fit.
SETUP_MIN = 10
BLAS_THREADS = 1
RUN_TIMEOUT_S = 160.0
SETUP_CODE = "import sys, mesoweyl.cli; sys.exit(mesoweyl.cli.main(['list-experiments']))"
UNITS = {
    "pass_s": "s", "pass_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
    "measured_pass_s": "s", "measured_pass_cpu_s": "s", "measured_setup_s": "s",
    "kernel_s": "s", "probe_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "MESOWEYL_OUT"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def time_start(env):
    """Seconds for a fresh interpreter to import the CLI and list experiments.

    Returns the wall seconds as measured and the same scaled to the
    reference core by kernel samples taken just before and after.
    """
    kernel_before = calibrate.bracket()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"setup failed: {proc.stderr.decode(errors='replace').strip()}")
    return elapsed, calibrate.scaled(elapsed, kernel_before + calibrate.bracket())


def run_pass(items_path, work, trace, env, timeout):
    """One worker pass; returns its result dict, or None if the worker failed."""
    result_path = work / "pass.json"
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(items_path), str(result_path), str(out_dir), str(trace)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"# worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"# worker failed: {proc.stderr.decode(errors='replace')[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def failed_items(result, items, out_dir, references, known_nan):
    """Names of the items of one pass that failed, with the reasons."""
    if result is None:
        return {item["name"]: ["worker failed"] for item in items}
    failures = {}
    for item, outcome in zip(items, result["outcomes"]):
        name = item["name"]
        if outcome["exit"] != 0:
            failures[name] = [f"exit {outcome['exit']} {outcome.get('error', '')}".strip()]
        elif outcome.get("failed_checks"):
            failures[name] = [f"failed checks {outcome['failed_checks']}"]
        elif item["kind"] == "run":
            problems = checks.check_figure(
                name, out_dir, references.get(name) if references else None, known_nan.get(name, ())
            )
            if problems:
                failures[name] = problems
    return failures


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "mesoweyl").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, float(np.percentile(values, p))


def describe(name, values):
    line = f"{name:12s} median {statistics.median(values):.4f} {UNITS[name]}  n={len(values)}"
    t = tail(values)
    return line + (f"  p{t[0]} {t[1]:.4f}" if t else "  (no tail percentile below 20 samples)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mesoweyl" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise BenchError(f"no mesoweyl source checkout at {ROOT} (need src/mesoweyl and configs/)")
    started = time.perf_counter()
    # One CPU for this process and every process it starts: a timed start
    # then runs on the core its calibration samples were taken on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = worker_env()
    time_start(env)  # the first start writes bytecode caches; it is not timed

    items = workloads.write_configs(args.workload, args.seed, CONFIGS, work / "configs")
    items_path = work / "items.json"
    items_path.write_text(json.dumps(items), encoding="utf-8")
    all_references = checks.load_references()
    references = all_references if args.seed == workloads.DEFAULT_SEED else None
    known_nan = {name: checks.nan_columns(ref) for name, ref in all_references.items()}

    setup_times = []
    passes = []  # (trace, result or None), in the order run
    attempted = failed = 0
    failures = {}

    def one_pass(trace):
        nonlocal attempted, failed
        for _ in range(SETUP_MIN // 2 if not passes else 1):
            setup_times.append(time_start(env))
        timeout = RUN_TIMEOUT_S - (time.perf_counter() - started)
        if timeout < 5:
            raise BenchError("run time limit reached before a pass could finish")
        result = run_pass(items_path, work, trace, env, timeout)
        bad = failed_items(result, items, work / "out", references, known_nan)
        attempted += len(items)
        failed += len(bad)
        failures.update(bad)
        passes.append((trace, result))

    # --trace 0 runs untraced passes; --trace 1 runs 0, 1, 0, 1, 0, ... so that
    # every traced pass sits between two untraced ones (at least one such
    # triple, even when a pass takes most of --seconds).
    cycle = (1, 0) if args.trace else (0,)
    loop_start = time.perf_counter()
    one_pass(0)
    last = time.perf_counter() - loop_start
    cycles = 0
    while passes[0][1] is not None:
        elapsed = time.perf_counter() - loop_start
        if (cycles or not args.trace) and elapsed + last > args.seconds:
            break
        t0 = time.perf_counter()
        for trace in cycle:
            one_pass(trace)
        last = time.perf_counter() - t0
        cycles += 1
    while len(setup_times) < SETUP_MIN:
        setup_times.append(time_start(env))

    samples = {t: [r for trace, r in passes if trace == t and r is not None] for t in (0, 1)}
    if not samples[0] or (args.trace and not samples[1]):
        raise BenchError(f"no pass completed: {failures}")
    untraced = samples[0]
    series = {
        "pass_s": [r["pass_s"] for r in untraced],
        "pass_cpu_s": [r["pass_cpu_s"] for r in untraced],
        "setup_s": [scaled for _, scaled in setup_times],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    measured = {
        "measured_pass_s": [r["wall_s"] for r in untraced],
        "measured_pass_cpu_s": [r["cpu_s"] for r in untraced],
        "measured_setup_s": [wall for wall, _ in setup_times],
        "kernel_s": [r["kernel_s"] for r in untraced],
        "probe_s": [r["probe_s"] for r in untraced],
    }
    ok_frac = 1.0 - failed / attempted
    env_record = environment(args.seed)
    print(f"# workload {args.workload}  seed {args.seed}  passes {len(untraced)}  items/pass {len(items)}")
    for name, values in series.items():
        print("# " + describe(name, values))
    print(f"# as measured (the calibration kernel takes {calibrate.REFERENCE_S} s on the reference core):")
    for name, values in measured.items():
        print("# " + describe(name, values))
    print(f"# fail_frac    {failed / attempted:.4f}  ({failed} of {attempted} items failed)")
    for name, problems in sorted(failures.items()):
        # full tracebacks stay in result.json; one line each here
        print(f"# FAILED {name}: {'; '.join(p.strip().splitlines()[-1] for p in problems)}")
    nan_note = {k: v for k, v in known_nan.items() if v and k in {i["name"] for i in items}}
    if nan_note:
        print(f"# known defect, tolerated only in these columns: NaN outside singular rows in {nan_note}")
    if args.workload == "verify":
        print("# verify inputs are fixed acceptance anchors; the seed does not change them")
    print("# env " + json.dumps(env_record, sort_keys=True))

    if args.trace:
        layers = tracing.median_metrics([r["layers"] for r in samples[1]])
        traced_s = statistics.median(r["pass_s"] for r in samples[1])
        layers["trace.pass_s"] = traced_s
        layers["trace.overhead_s"] = statistics.median(bracketed_overheads(passes))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        (work / "spans.json").write_text(json.dumps(samples[1][-1]["spans"]), encoding="utf-8")
    else:
        metrics = {k: {"value": statistics.median(v), "unit": UNITS[k]} for k, v in series.items()}
        metrics["ok_frac"] = {"value": ok_frac, "unit": UNITS["ok_frac"]}
    details = {"env": env_record, "series": series, "measured": measured, "failures": failures, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def bracketed_overheads(passes):
    """Traced pass_s minus the mean of the untraced passes on either side.

    Averaging the two neighbours cancels a machine speed that drifts
    linearly across the three passes.
    """
    overheads = []
    for before, traced, after in zip(passes, passes[1:], passes[2:]):
        if (before[0], traced[0], after[0]) == (0, 1, 0) and all(p[1] for p in (before, traced, after)):
            mean = (before[1]["pass_s"] + after[1]["pass_s"]) / 2.0
            overheads.append(traced[1]["pass_s"] - mean)
    if not overheads:
        raise BenchError("no traced pass completed between two untraced ones")
    return overheads


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("max_dim"):
        return "dim"
    if name.endswith("evals_per_result"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # running worker or setup start instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
