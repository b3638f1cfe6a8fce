"""One timed pass over a workload's items, in a fresh interpreter.

Usage: python3 perfbench/worker.py ITEMS_JSON RESULT_JSON OUT_DIR TRACE

mesoweyl is imported before the clock starts, so the pass starts with the
package's lru_caches cold, as every ``mesoweyl run`` does.  While the items
run, a calibration probe (calibrate.py) samples the machine's speed; its
own time is taken out of every time measured.  The result file holds the
wall and CPU seconds of the pass as measured (``wall_s``, ``cpu_s``) and
scaled to the reference core (``pass_s``, ``pass_cpu_s``), the probe's
mean kernel time, the worker's peak RSS, each item's outcome and, when
TRACE is 1, the per-layer metrics.
"""

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

# imported before any clock starts: import cost belongs to setup_s
from mesoweyl import cli, verify


def run_item(item, out_dir):
    """Run one item; return its outcome."""
    try:
        if item["kind"] == "run":
            code = cli.main(["run", "--config", item["config"], "--out", out_dir])
            return {"name": item["name"], "exit": code}
        report = verify.run_suite(item["name"])
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return {"name": item["name"], "exit": 0, "failed_checks": failed}
    except Exception:  # an item that raises counts as failed; the pass goes on
        return {"name": item["name"], "exit": None, "error": traceback.format_exc()}


def run_items(items, out_dir, probe, tracer=None):
    """Run the items one after another while ``probe`` samples the machine.

    Returns the outcomes and the (wall, cpu) seconds of each item, with the
    time spent in the probe's samples taken out.
    """
    outcomes, times = [], []
    for item in items:
        wall0, cpu0 = program_clocks(probe)
        if tracer is not None:
            tracer.enter(f"item.{item['name']}")
        try:
            outcomes.append(run_item(item, out_dir))
        finally:
            if tracer is not None:
                tracer.exit()
            wall1, cpu1 = program_clocks(probe)
            times.append((wall1 - wall0, cpu1 - cpu0))
    return outcomes, times


def peak_rss_mb():
    """Peak resident memory of this process image, in MB.

    Linux's VmHWM starts afresh at exec.  ru_maxrss does not: it carries over
    the peak of the process that started the worker.
    """
    try:
        for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def program_clocks(probe):
    """Wall and CPU seconds so far, less those spent in the probe's samples."""
    return time.perf_counter() - probe.spent_s, cpu_seconds() - probe.spent_cpu_s


def main(argv):
    items_path, result_path, out_dir, trace = argv
    items = json.loads(Path(items_path).read_text(encoding="utf-8"))
    probe = calibrate.Probe()
    tracer = handle = None
    if trace == "1":
        import tracing

        # span times leave the probe's samples out, as the pass times do
        tracer = tracing.Tracer(clock=lambda: time.perf_counter() - probe.spent_s)
        handle = tracing.install(tracer)
    calibrate.bracket()  # warm-up: first calls into numpy, page faults
    try:
        with probe:
            outcomes, times = run_items(items, out_dir, probe, tracer)
    finally:
        if handle is not None:
            handle.restore()
    wall = sum(w for w, _ in times)
    cpu = sum(c for _, c in times)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "pass_s": calibrate.scaled(wall, probe.samples),
        "pass_cpu_s": calibrate.scaled(cpu, probe.samples),
        "kernel_s": statistics.fmean(probe.samples),
        "probe_s": probe.spent_s,
        "peak_rss_mb": peak_rss_mb(),
        "outcomes": outcomes,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
