import csv
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mesoweyl
from mesoweyl import cli, experiments, verify
from mesoweyl.experiments import EXPERIMENTS

ALL_FIGS = ["fig1", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11",
            "fig14", "fig15", "fig16", "fig17", "fig18"]


def test_every_published_figure_has_an_experiment_and_config():
    assert sorted(EXPERIMENTS) == sorted(ALL_FIGS)
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ALL_FIGS:
        path = os.path.join(root, f"{name}.json")
        assert os.path.exists(path)
        config = json.load(open(path))
        assert config["experiment"] == name
        assert set(config["params"]) == set(EXPERIMENTS[name].defaults)


def test_list_experiments(capsys):
    assert cli.main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in ALL_FIGS:
        assert name in out


def test_run_writes_csv_and_manifest(tmp_path):
    rc = cli.main(["run", "fig4", "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "fig4.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "omega_t,absW_num,absW_coh,absW_sq,absW_th,argW_num,argW_coh,argW_sq,argW_th"
    assert len(lines) == 1 + 513
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    manifest = json.loads((tmp_path / "fig4.manifest.json").read_text())
    assert manifest["experiment"] == "fig4"
    assert manifest["n_rows"] == 513
    assert "version" in manifest and "params" in manifest and "convergence" in manifest


def write_csv_per_row(path, columns, rows):
    """The reference writer: one repr per cell, one write per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, map(float, row))) + "\n")


def _bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


# values that must meet in one column: zeros of both signs; NaNs of both
# signs and with a payload; infinities; subnormals; and values on both sides
# of repr's switch to exponent notation
SPECIAL_GROUPS = [
    [0.0, -0.0],
    [math.nan, -math.nan, _bits(0x7FF0000000000001), _bits(0xFFF8000000000123)],
    [math.inf, -math.inf, 0.0],
    [5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308],
    [1e16, -1e16, 9999999999999998.0, 1e-5, 1e-4, 0.0001234, 123456789.0],
]
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def float_tables(draw):
    """A float64 table; each column draws its cells from one special group
    and a few arbitrary floats, so values repeat heavily within a column."""
    n_rows, n_cols = draw(st.integers(0, 30)), draw(st.integers(1, 5))
    columns = []
    for _ in range(n_cols):
        pool = draw(st.sampled_from(SPECIAL_GROUPS)) + draw(st.lists(ANY_FLOAT, max_size=4))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_rows, max_size=n_rows))
        columns.append([pool[i] for i in picks])
    return np.array(columns, dtype=float).T.reshape(n_rows, n_cols)


def _assert_same_bytes_as_per_row(directory, table):
    columns = [f"c{j}" for j in range(table.shape[1])]
    cli.write_csv(directory / "table.csv", columns, table)
    write_csv_per_row(directory / "reference.csv", columns, table)
    assert (directory / "table.csv").read_bytes() == (directory / "reference.csv").read_bytes()


@given(table=float_tables())
def test_write_csv_matches_the_per_row_writer(tmp_path_factory, table):
    _assert_same_bytes_as_per_row(tmp_path_factory.mktemp("csv"), table)


def test_write_csv_edge_shapes(tmp_path):
    rng = np.random.default_rng(7)
    pool = np.array([v for group in SPECIAL_GROUPS for v in group] + list(rng.standard_normal(50)))
    many = 2 * cli.CSV_BLOCK_ROWS + 3
    for shape in [(0, 3), (1, 3), (5, 1), (0, 1), (1, 1), (many, 3), (cli.CSV_BLOCK_ROWS, 2)]:
        table = rng.choice(pool, size=shape)
        _assert_same_bytes_as_per_row(tmp_path, table)
        lines = (tmp_path / "table.csv").read_text().split("\n")
        assert len(lines) == shape[0] + 2 and lines[-1] == ""
    cli.write_csv(tmp_path / "empty.csv", ["a", "b"], np.empty((0, 2)))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


@pytest.mark.parametrize("fig", ALL_FIGS)
def test_rows_are_a_float_table_and_each_is_written(tmp_path, monkeypatch, fig):
    results, run = [], experiments.run_experiment

    def run_and_keep(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, "run_experiment", run_and_keep)
    config = os.path.join(os.path.dirname(__file__), "..", "configs", f"{fig}.json")
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    (result,) = results
    manifest = json.loads((tmp_path / f"{fig}.manifest.json").read_text())
    assert isinstance(result.rows, np.ndarray) and result.rows.dtype == np.float64
    assert result.rows.shape == (manifest["n_rows"], len(result.columns))
    lines = (tmp_path / f"{fig}.csv").read_text().splitlines()
    assert len(lines) == 1 + manifest["n_rows"]


def test_run_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["run", "fig11", "--out", str(out)]) == 0
    assert (a / "fig11.csv").read_bytes() == (b / "fig11.csv").read_bytes()
    assert (a / "fig11.manifest.json").read_bytes() == (b / "fig11.manifest.json").read_bytes()


def test_run_with_config_overrides(tmp_path):
    config = {"experiment": "fig5", "params": {"samples": 17}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "fig5.csv").read_text().splitlines()
    assert len(lines) == 18


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MESOWEYL_OUT", str(tmp_path / "env"))
    assert cli.main(["run", "fig4", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "env" / "fig4.csv").exists()
    assert not (tmp_path / "flag").exists()


def test_invalid_configs_exit_2(tmp_path, capsys):
    assert cli.main(["run", "nosuchfig", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text(json.dumps({"params": {}}))
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text(json.dumps({"experiment": "fig4", "params": {"bogus": 1}}))
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert cli.main(["run", "--out", str(tmp_path)]) == 2
    # every size parameter must be an integer with its own lower bound; the
    # error names the parameter
    sizes = [(fig, "grid_points", bad_value) for fig in ("fig9", "fig10")
             for bad_value in ("x", 2.5, 0, -3, True, None)]
    sizes += [(fig, "samples", bad_value) for fig in ("fig1", "fig6", "fig11", "fig15")
              for bad_value in ("x", 2.5, 0, -1, True, None)]
    sizes += [("fig7", "kmax", bad_value) for bad_value in ("x", 2.5, -1, None)]
    sizes += [("fig7", "spectral_samples", bad_value) for bad_value in ("x", 2.5, 1, 0, None)]
    capsys.readouterr()
    for fig, name, bad_value in sizes:
        bad.write_text(json.dumps({"experiment": fig, "params": {name: bad_value}}))
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert f"error: {name} must be an integer >= " in capsys.readouterr().err
    # so must every float be finite: json reads NaN and Infinity
    for fig, name, bad_value in [("fig4", "squeezing_r", math.nan), ("fig9", "q", math.nan),
                                 ("fig6", "omega", math.inf), ("fig14", "a1", -math.inf)]:
        bad.write_text(json.dumps({"experiment": fig, "params": {name: bad_value}}))
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert f"error: {name} must be finite, got " in capsys.readouterr().err


def test_fig6_runs_at_large_photon_numbers(tmp_path):
    # the number-state column takes e^{-x/2} L_1000(x) at every lag, which
    # the exact-rational Laguerre series could not deliver in a minute
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "fig6", "params": {"mean_photons": 1000, "samples": 33}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fig6.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 33
    for row in rows:
        assert math.isfinite(float(row["re_gamma_num"])) and math.isfinite(float(row["im_gamma_num"]))
    # gamma(0) = Gamma(0)/Gamma(0) is exactly one in every column
    assert all(float(v) == 1.0 for k, v in rows[0].items() if k.startswith("re_gamma_"))


@pytest.mark.parametrize("fig, size", [("fig6", "samples"), ("fig9", "grid_points"), ("fig10", "grid_points"),
                                       ("fig11", "samples")])
def test_huge_coupling_exits_cleanly(tmp_path, capsys, fig, size):
    # q ** 2 overflows a float; W and the marginals take their limits
    # (W -> 0, so R -> 1) instead of raising, and fig6 refuses such a q
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": fig, "params": {"q": 1e300, size: 5}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    if (tmp_path / f"{fig}.csv").exists():
        json.loads((tmp_path / f"{fig}.manifest.json").read_text(), parse_constant=pytest.fail)
        assert "nan" not in (tmp_path / f"{fig}.csv").read_text()


@pytest.mark.filterwarnings("error")
def test_fig6_runs_at_a_huge_coupling_without_squeezing(tmp_path):
    # |w| ~ 1e31 puts the Bessel J order cutoff past the int64 range, where it
    # saturates; with r = 0 the Bessel I argument is 0 and the config is valid
    path = tmp_path / "cfg.json"
    params = {"q": 1e30, "squeezing_r": 0.0, "samples": 9}
    path.write_text(json.dumps({"experiment": "fig6", "params": params}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fig6.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())


@pytest.mark.parametrize("fig", ["fig6", "fig7"])
def test_strong_coupling_autocorrelation_is_a_bad_config(tmp_path, capsys, fig):
    # at q = 100 the squeezed time average needs e^{-v} I_m(v) up to about
    # 6.7e5 orders at every lag: refused up front, before any table is built
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": fig, "params": {"q": 100.0}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "error: q = 100.0 is too large" in capsys.readouterr().err


def test_dim_cap_exhaustion_exits_3(tmp_path):
    assert cli.main(["run", "fig16", "--out", str(tmp_path), "--dim-cap", "8"]) == 3


def test_all_singular_exits_4(tmp_path):
    # one sample at phase zero: the odd-difference number ratio sits on its
    # tan-pole there, and these coherent amplitudes are phase-opposed so the
    # ring currents cancel too - every column of the only row is singular
    config = {
        "experiment": "fig15",
        "params": {"samples": 1, "periods": 0.0, "n1": 1, "n2": 2, "a2": math.pi + 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 4
    # uncoupled device (q = 0) watched at its fringe zero: R is 0/0 at every phase
    config = {"experiment": "fig11", "params": {"q": 0.0, "x_a": math.pi}}
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4
    # at q = 1e-10 alpha rounds to 1 but sep_bounds still accepts q: at this
    # x_b about half the rows on the x_a = pi marginal zero are c/0 (+-inf)
    # rather than 0/0
    config = {"experiment": "fig11", "params": {"q": 1e-10, "x_a": math.pi, "x_b": 2.0}}
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4


def test_fig14_number_pole_is_a_nan_column(tmp_path):
    # L_1(q'^2) = 0 at q' = 1/2 (config qprime 1.0): the separable number
    # ratio is 0/0, reported as nan in every row, not as a bad config
    params = {"n1": 1, "n2": 1, "qprime": 1.0, "samples": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "fig14", "params": params}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fig14.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["rc_sep_num"] for r in rows] == ["nan"] * 5
    assert all(math.isfinite(float(r["rc_sep_coh"])) for r in rows)
    manifest = json.loads((tmp_path / "fig14.manifest.json").read_text(), parse_constant=pytest.fail)
    assert manifest["n_singular"] == 0
    assert manifest["singular_phases"] == [float(r["omega_diff_t"]) for r in rows]
    # real, opposite amplitudes cancel ring A's current at every sampled
    # phase, so the coherent column is a pole too and no point is left
    params.update(a1=1.0, a2=-1.0)
    path.write_text(json.dumps({"experiment": "fig14", "params": params}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "all")]) == 4


@pytest.mark.parametrize("fig", ["fig9", "fig10"])
def test_surface_poles_are_counted_and_reported_as_nan(tmp_path, fig):
    # alpha rounds to 1 at q = 1e-10, so the screen lines x = +-pi are poles
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": fig, "params": {"q": 1e-10, "grid_points": 5}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    # the manifest is standard JSON: its range covers the finite points only
    manifest = json.loads(
        (tmp_path / f"{fig}.manifest.json").read_text(), parse_constant=pytest.fail
    )
    with open(tmp_path / f"{fig}.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    poles = [r for r in rows if abs(abs(float(r[0])) - math.pi) < 1e-12
             or abs(abs(float(r[1])) - math.pi) < 1e-12]
    assert manifest["n_singular"] == len(poles) == 16
    assert all(r[2] == "nan" for r in poles)
    assert all(math.isfinite(float(r[2])) for r in rows if r not in poles)


@pytest.mark.parametrize("suite", ["twomode", "flux-stats"])
def test_verify_cli_reports(capsys, suite):
    assert cli.main(["verify", suite]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == suite
    assert report["passed"] is True
    assert all("max_error" in c and "tolerance" in c for c in report["checks"])


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_dim_cap_exhaustion_exits_3(suite):
    assert cli.main(["verify", suite, "--dim-cap", "8"]) == 3


def test_console_entry_point_runs():
    # the child imports the same mesoweyl as this process, installed or not
    src = os.path.dirname(os.path.dirname(mesoweyl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "mesoweyl", "list-experiments"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "fig9" in proc.stdout


def test_importing_the_cli_leaves_scipy_sparse_linalg_unloaded():
    # the oracle's matrix exponentials are its own Chebyshev propagator
    src = os.path.dirname(os.path.dirname(mesoweyl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mesoweyl.cli; print('scipy.sparse.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
