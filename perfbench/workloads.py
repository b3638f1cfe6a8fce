"""Workload definitions and seeded input generation.

A workload is a list of items run one after another by a single worker.
Figure items are configs written to disk and run through ``cli.main``;
verify items are suite names run through ``verify.run_suite``.
"""

import json
import random
from pathlib import Path

# The closed-form stack: specfun, states, harmonics, interference and the
# twomode closed forms, with no oracle call.
FIGS_CLOSED = ["fig1", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11"]
# Two-ring moments: dominated by many small fockbench.displacement_matrix
# oracles at dims 32 and 64.
FIGS_TWORING = ["fig14", "fig15", "fig16", "fig17", "fig18"]
# A few large oracle objects instead of many small ones (squeezed
# expm_multiply state vectors up to dim 1920).  flux-stats is left out: its
# 35 s of dense dim-2048 matmuls alone exceed one run's time budget.
VERIFY_SUITES = ["weyl-oracle", "autocorr", "twomode", "squid"]

WORKLOADS = {
    "figs-closed": ("run", FIGS_CLOSED),
    "figs-tworing": ("run", FIGS_TWORING),
    "verify": ("verify", VERIFY_SUITES),
}

# figs-tworing keeps every 16th point of the shipped 257-point phase grid
# (17 points), so that a pass fits several times into one run.
# linspace(0, L, 17) equals linspace(0, L, 257)[::16] exactly, because the
# step ratio is a power of two.
TWORING_SAMPLES = 17

DEFAULT_SEED = 0
JITTER = 0.02
# Continuous physical parameters jittered independently by up to JITTER.
JITTERED = {
    "a1", "a2", "amplitude", "classical_e_phi1", "q", "qprime",
    "squeezing_r", "thermal_beta_omega", "x_a", "x_b", "xi",
}
# Frequencies share one factor per config, so commensurate frequency ratios
# (and the two-ring beat phases) are kept.
FREQUENCIES = {"omega", "omega_1", "omega_2", "omega_a", "omega_b"}
# Everything else (samples, grid_points, kmax, spectral_samples, periods,
# n1, n2, mean_photons, which fixes the number-state occupation) is kept, so
# the cost of a pass stays comparable across seeds.


def figure_config(shipped: dict, seed: int) -> dict:
    """The config a seed gives for one figure; the default seed changes nothing."""
    config = json.loads(json.dumps(shipped))
    name = config["experiment"]
    params = config["params"]
    if name in FIGS_TWORING:
        params["samples"] = TWORING_SAMPLES
    if seed == DEFAULT_SEED:
        return config
    rng = random.Random(f"{seed}/{name}")
    freq_factor = 1.0 + rng.uniform(-JITTER, JITTER)
    for key in sorted(params):
        if key in JITTERED:
            u = rng.uniform(-JITTER, JITTER)
            if key == "squeezing_r":
                # only shrink r: the squeezed vacuum's sinh^2(r/2) photons may
                # not exceed mean_photons, and fig5-7's r = 4.2 is 1% below
                # that limit for their 17 photons
                u = -abs(u)
            params[key] = params[key] * (1.0 + u)
        elif key in FREQUENCIES:
            params[key] = params[key] * freq_factor
    return config


def write_configs(workload: str, seed: int, configs_dir: Path, out_dir: Path) -> list:
    """Write the seeded configs of a figure workload; return the worker items."""
    kind, names = WORKLOADS[workload]
    if kind == "verify":
        return [{"kind": "verify", "name": name} for name in names]
    out_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for name in names:
        shipped = json.loads((configs_dir / f"{name}.json").read_text(encoding="utf-8"))
        path = out_dir / f"{name}.json"
        text = json.dumps(figure_config(shipped, seed), indent=2, sort_keys=True) + "\n"
        path.write_text(text, encoding="utf-8")
        items.append({"kind": "run", "name": name, "config": str(path)})
    return items

