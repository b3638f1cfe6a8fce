"""The benchmark's own output check, run on the benchmark's own configs.

``perfbench/run.py`` judges every figure item of a pass with
``checks.check_figure``: on the default seed against the recorded reference
(CSV values within 1e-12, the same NaN positions, equal manifests), on every
seed for finite values outside the manifest's singular rows.  This runs the
same check on the seeded configs of both figure workloads, in process, so
output drift shows in the test suite; the verify workload's suites must pass
every check, as ``perfbench/worker.py`` counts them.  ``perfbench/`` is read,
never written.
"""

import importlib.util
from pathlib import Path

import pytest

from mesoweyl import cli, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = PERFBENCH.parent / "configs"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


@pytest.fixture(scope="module")
def references():
    return checks.load_references()


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1])
@pytest.mark.parametrize("workload", ["figs-closed", "figs-tworing"])
def test_benchmark_figures_pass_the_benchmark_output_check(tmp_path, references, workload, seed):
    items = workloads.write_configs(workload, seed, CONFIGS, tmp_path / "configs")
    out = tmp_path / "out"
    problems = {}
    for item in items:
        name = item["name"]
        assert cli.main(["run", "--config", item["config"], "--out", str(out)]) == 0, name
        # as perfbench/run.py's failed_items: the reference only on the default
        # seed, the reference's own NaN columns exempt on every seed
        ref = references.get(name) if seed == workloads.DEFAULT_SEED else None
        found = checks.check_figure(name, out, ref, checks.nan_columns(references[name]))
        if found:
            problems[name] = found
    assert problems == {}


def test_benchmark_verify_suites_pass_every_check():
    kind, suites = workloads.WORKLOADS["verify"]
    assert kind == "verify"
    failed = {}
    for name in suites:
        report = verify.run_suite(name)
        failed[name] = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == {name: [] for name in suites}
