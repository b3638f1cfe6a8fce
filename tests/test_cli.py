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
from mesoweyl import cli, experiments, fockbench, specfun, squid, twomode, verify
from mesoweyl.experiments import EXPERIMENTS
from mesoweyl.states import TwoModeProductSuperposition, matched_states

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


def test_unusable_output_location_exits_2(tmp_path, monkeypatch, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert cli.main(["run", "fig4", "--out", str(a_file)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot use output directory ")
    # a directory where the CSV should go fails the write, not the directory
    (tmp_path / "out" / "fig4.csv").mkdir(parents=True)
    assert cli.main(["run", "fig4", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the output: ")
    monkeypatch.setenv("MESOWEYL_OUT", str(a_file / "below"))
    assert cli.main(["run", "fig4"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot use output directory ")


@pytest.mark.parametrize("name", ALL_FIGS)
def test_non_number_parameters_exit_2_naming_them(name, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    numeric = [k for k, v in EXPERIMENTS[name].defaults.items() if isinstance(v, (int, float))]
    assert numeric == list(EXPERIMENTS[name].defaults)
    for key in numeric:
        for value in ("abc", None, True, False, [1.0], {"x": 1.0}):
            bad.write_text(json.dumps({"experiment": name, "params": {key: value}}))
            assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key} must be "), err
            assert "Traceback" not in err
    # the complex-string form of an amplitude is not a number either
    if "a1" in EXPERIMENTS[name].defaults:
        for key in ("a1", "a2"):
            bad.write_text(json.dumps({"experiment": name, "params": {key: "1+1j"}}))
            assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"error: {key} must be a number, got '1+1j'\n"


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
    # so must the occupations: a float is not rounded, even 2.0
    sizes += [(fig, name, bad_value)
              for fig in ("fig9", "fig10", "fig11", "fig14", "fig15", "fig16", "fig17", "fig18")
              for name in ("n1", "n2") for bad_value in (1.5, 2.0, -1, True)]
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


def test_fig15_equal_occupations_write_a_zero_number_difference(tmp_path):
    # N(|2 2> + |2 2>) is the product |2 2>: entangled and separable ratios agree
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "fig15", "params": {"n1": 2, "n2": 2, "samples": 17}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fig15.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["d_rc_num"]) for r in rows] == [0.0] * 17


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


def test_an_underflowing_coherent_amplitude_exits_3(tmp_path, capsys):
    # e^{-|a1|^2/2} underflows at a1 = 40: the oracle refuses the empty
    # vector that its cross-check would otherwise converge on at once
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "fig16", "params": {"a1": 40, "samples": 5}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "error: CoherentState(amplitude=(40+0j)): its n = 0 amplitude is below" in capsys.readouterr().err


# figs 10 and 11 plot phases of omega_1 + omega_2 and figs 14-18 phases of
# omega_1 - omega_2, so each refuses the frequencies that make its one zero
@pytest.mark.parametrize("fig", ["fig10", "fig11", "fig14", "fig15", "fig16", "fig17", "fig18"])
def test_a_zero_abscissa_frequency_exits_2_naming_it(tmp_path, capsys, fig):
    op, w2 = ("+", -1e-4) if fig in ("fig10", "fig11") else ("-", 1e-4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": fig, "params": {"omega_1": 1e-4, "omega_2": w2}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: omega_1 {op} omega_2 must be nonzero, got omega_1 = 0.0001, omega_2 = {w2!r}\n"
    )
    assert not (tmp_path / f"{fig}.csv").exists()


# figs 9-11 read q through ChargeCoupling, as figs 4-7 and 14-18 do
@pytest.mark.parametrize("fig", ["fig9", "fig10", "fig11"])
@pytest.mark.parametrize("q", [0.0, -0.2])
def test_a_nonpositive_coupling_exits_2_naming_it(tmp_path, capsys, fig, q):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": fig, "params": {"q": q}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: coupling q must be positive\n"
    assert not (tmp_path / f"{fig}.csv").exists()


# the figures whose rows are their phase or time grid; fig7 has a samples
# default too, but its rows are its kmax harmonics
ONE_SAMPLE_FIGS = [name for name in ALL_FIGS if "samples" in EXPERIMENTS[name].defaults and name != "fig7"]


@pytest.mark.parametrize("fig", ONE_SAMPLE_FIGS)
def test_one_sample_is_a_one_row_figure(tmp_path, fig):
    # samples: 1 is valid (README): the grid's start point alone, exit 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": fig, "params": {"samples": 1}}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / f"{fig}.csv").read_text().splitlines()
    assert len(lines) == 2
    assert all(math.isfinite(float(v)) for v in lines[1].split(","))
    manifest = json.loads((tmp_path / f"{fig}.manifest.json").read_text())
    assert manifest["n_rows"] == 1 and manifest["n_singular"] == 0


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
    # a device so weakly coupled that alpha rounds to 1 (q = 1e-10; q = 0
    # exits 2), watched at its fringe zero: R is 0/0 at every phase
    config = {"experiment": "fig11", "params": {"q": 1e-10, "x_a": math.pi}}
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4
    # at q = 1e-10 alpha rounds to 1 but sep_bounds still accepts q: at this
    # x_b about half the rows on the x_a = pi marginal zero are c/0 (+-inf)
    # rather than 0/0
    config = {"experiment": "fig11", "params": {"q": 1e-10, "x_a": math.pi, "x_b": 2.0}}
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("q", [3e-8, 1e-6])
def test_a_weakly_coupled_fringe_zero_exits_4(tmp_path, q):
    # at x_a = pi and the default x_b = 1.025 pi both marginals are about
    # q^2: the product is below 1e-12 but not zero, and the closed forms,
    # dividing through, wrote R = 0.0 (q = 3e-8) or 1.0443 (q = 1e-6) where
    # R is 1.0000000000000728
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "fig11", "params": {"q": q, "x_a": math.pi}}))
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


# each patch turns a closed form (or the oracle) NaN at some of the inputs a
# suite reads, after finite ones, which the builtin max would let through
@pytest.mark.parametrize("suite, module, name, hit", [
    ("weyl-oracle", verify, "weyl", lambda state, z, *rest: np.asarray(z) == 0.5),
    ("weyl-oracle", fockbench, "weyl_numeric", lambda state, z, *rest: np.asarray(z) == 0.5),
    ("flux-stats", verify, "flux_stats", lambda state, mode, t: t > 0.0),
    ("twomode", twomode, "joint_intensity", lambda state2, coupling, xa, xb, t: xa == 2.0),
    # the entangled number pair's marginals, which only the
    # sep-ent-marginals-identical check reads
    ("twomode", twomode, "marginal_intensity",
     lambda state2, which, coupling, x, t: isinstance(state2, TwoModeProductSuperposition) & (x > 0.0)),
    ("squid", squid, "quantum_shapiro", lambda state, drive, n, coupling: n == 3),
    # one harmonic of the one time-average call a state's steps make
    ("squid", squid, "weyl_time_average", lambda state, c, k: np.asarray(k) == 2),
    # the entangled coherent pair's moments, after the separable pair's
    ("squid", squid, "two_squid_currents_coherent", lambda a1, a2, entangled, *rest: entangled),
    # the entangled number ratio's last two times
    ("squid", squid, "ratio_c_ent_number", lambda n1, n2, coupling, t, *rest: t > 1e5),
    # the same, on the odd-difference pair alone, which only the
    # number-ratio-odd-vs-moments check reads
    ("squid", squid, "ratio_c_ent_number", lambda n1, n2, coupling, t, *rest: (n1 - n2) % 2 == 1 and t > 1e5),
], ids=["closed-form", "oracle", "flux-stats", "twomode", "twomode-marginal", "squid", "squid-harmonic",
        "squid-coherent", "squid-number-ratio", "squid-number-ratio-odd"])
def test_verify_fails_a_nan_error(monkeypatch, suite, module, name, hit):
    real = getattr(module, name)

    def nan_where_hit(*args):
        return np.where(hit(*args), math.nan, real(*args))
    monkeypatch.setattr(module, name, nan_where_hit)
    report = verify.run_suite(suite)
    assert report["passed"] is False
    assert any(math.isnan(c["max_error"]) and not c["passed"] for c in report["checks"])


def test_one_pass_of_the_verify_workload_suites_makes_at_most_6_bessel_i_tables(monkeypatch):
    # one per squeezed state's Shapiro steps (3 squeezed vacua and the
    # displaced squeezed state), one for the squeezed autocorrelation, whose
    # series holds the -lags its property reads, and one for its half period
    # with radii by lag index; the first two kinds made 6 when the property
    # took a second call, 22 when every harmonic and each lag sign made its
    # own
    calls, real = [], specfun.bessel_ive_all
    monkeypatch.setattr(specfun, "bessel_ive_all", lambda *args: calls.append(1) or real(*args))
    for suite in ("weyl-oracle", "autocorr", "twomode", "squid"):
        assert verify.run_suite(suite)["passed"]
    assert len(calls) <= 6


# the squeezed r = 4.2 Weyl oracle converges at dim 1920; a cap of 1024
# starts it at 960, and its first doubling passes the cap
@pytest.mark.parametrize("suite, cap", [pytest.param(suite, 8, id=suite) for suite in sorted(verify.SUITES)]
                         + [pytest.param("weyl-oracle", 1024, id="weyl-oracle-1024")])
def test_verify_dim_cap_exhaustion_exits_3(suite, cap):
    assert cli.main(["verify", suite, "--dim-cap", str(cap)]) == 3


@pytest.mark.parametrize("cap", [100, 500, 1024])
def test_a_capped_weyl_oracle_evaluates_no_dim_above_the_cap(monkeypatch, cap):
    dims, real = [], fockbench._weyl_value
    monkeypatch.setattr(fockbench, "_weyl_value", lambda state, z, dim: dims.append(dim) or real(state, z, dim))
    assert cli.main(["verify", "weyl-oracle", "--dim-cap", str(cap)]) == 3
    assert dims and max(dims) <= cap


def test_a_weyl_oracle_capped_below_every_start_builds_no_state(monkeypatch):
    # every start is at least 32, so a cap of 8 exits 3 before the first
    # state vector or Weyl value (the first state was built and evaluated
    # at dim 60 when converge took its start before testing the cap)
    calls = []
    for name in ("state_vector", "_weyl_value"):
        monkeypatch.setattr(fockbench, name, lambda *args, name=name: calls.append(name))
    assert cli.main(["verify", "weyl-oracle", "--dim-cap", "8"]) == 3
    assert calls == []


def test_verify_weyl_oracle_converges_under_dim_cap_1920():
    assert cli.main(["verify", "weyl-oracle", "--dim-cap", "1920"]) == 0


def test_flux_stats_and_weyl_oracle_stop_by_the_same_trace_rule(monkeypatch):
    # both loops stop once less than TOL of the state's trace is left out
    # (flux-stats took its square root, so its squeezed state ran on to
    # 3840); the coherent Weyl values at |z| = 3 move by more than TOL
    # between dims 60 and 120, so weyl-oracle confirms them at 240, one
    # doubling past the state
    dims, real = {}, fockbench.converge

    def recorded(evaluate, dim, dim_cap, what, *args):
        out = real(evaluate, dim, dim_cap, what, *args)
        dims.setdefault(what, []).append(out[1])
        return out

    monkeypatch.setattr(fockbench, "converge", recorded)
    for suite in ("flux-stats", "weyl-oracle"):
        assert verify.run_suite(suite)["passed"]
    # number, coherent, squeezed, thermal and the phased squeezed state
    flux = [dims.pop(f"{fam} state") for fam in (*matched_states(), "squeezed-phased")]
    assert flux == [[120], [120], [1920], [960], [128]]
    assert dims == {"weyl_numeric": [120, 2 * 120, 1920, 960, 128]}


@pytest.mark.parametrize("cap", [8, 100, 500, 1024, 1920, 4096])
def test_flux_stats_and_weyl_oracle_exit_alike_under_a_dim_cap(capsys, cap):
    codes = [cli.main(["verify", suite, "--dim-cap", str(cap)]) for suite in ("flux-stats", "weyl-oracle")]
    assert codes[0] == codes[1] == (0 if cap >= 1920 else 3)


# a cap below one used to reach the oracle (fig16 exited 3 with "dim cap -3")
# or pass unread (figs 1-11)
@pytest.mark.parametrize("command", [["run", "fig16"], ["run", "fig4"], ["verify", "weyl-oracle"]],
                         ids=["run-fig16", "run-fig4", "verify"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_a_dim_cap_below_one_exits_2(tmp_path, monkeypatch, capsys, command, cap):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--dim-cap", cap])
    assert exc.value.code == 2
    assert f"argument --dim-cap: must be at least 1, not {cap}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_prints_the_report_of_run_suite(capsys, suite):
    # the benchmark calls run_suite(name) with no cap: it must run what the
    # command line runs
    assert cli.main(["verify", suite]) == 0
    printed = capsys.readouterr().out
    assert printed == json.dumps(verify.run_suite(suite), indent=2, sort_keys=True) + "\n"


def _child(*args):
    """Run a fresh interpreter on args; it imports the same mesoweyl as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(mesoweyl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("MESOWEYL_OUT", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter has loaded after running code."""
    proc = _child("-c", code + "\nimport json, sys\n"
                  "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_console_entry_point_runs():
    proc = _child("-m", "mesoweyl", "list-experiments")
    assert proc.returncode == 0
    assert "fig9" in proc.stdout


def test_importing_the_cli_leaves_scipy_sparse_linalg_unloaded():
    # the oracle takes no matrix exponential, and scipy's would load this
    assert "scipy.sparse.linalg" not in _scipy_modules_after("import mesoweyl.cli")


# Only the oracle (fockbench, hence verify and the figs 14-18 cross-check)
# needs scipy.sparse, and only Bessel J (specfun.jv) needs scipy.special;
# every other start loads no scipy at all.
@pytest.mark.parametrize("code", [
    "import mesoweyl",
    "import mesoweyl.cli",
    "import mesoweyl.cli; mesoweyl.cli.main(['list-experiments'])",
])
def test_starting_the_package_and_listing_experiments_load_no_scipy(code):
    assert _scipy_modules_after(code) == set()


def test_closed_form_figures_load_no_oracle(tmp_path):
    def run(fig):
        return f"import mesoweyl.cli; assert mesoweyl.cli.main(['run', {fig!r}, '--out', {str(tmp_path)!r}]) == 0"

    assert _scipy_modules_after(run("fig9")) == set()
    assert "scipy.sparse" not in _scipy_modules_after(run("fig1"))


def test_importing_verify_loads_the_oracle_scipy_eagerly():
    # the benchmark worker imports verify before its clock starts, so the
    # oracle's import cost stays out of the timed pass
    loaded = _scipy_modules_after("import mesoweyl.verify")
    assert {"scipy.special", "scipy.sparse"} <= loaded


def test_the_oracle_loads_no_scipy_linalg(tmp_path):
    # the oracle indexes its Toeplitz matrices out of one vector
    fig16 = f"import mesoweyl.cli; assert mesoweyl.cli.main(['run', 'fig16', '--out', {str(tmp_path)!r}]) == 0"
    for code in ("import mesoweyl.verify", fig16):
        loaded = _scipy_modules_after(code)
        assert "scipy.sparse" in loaded
        assert not [m for m in loaded if m.startswith("scipy.linalg")], code


def test_cli_verify_suite_names_match_the_suites():
    assert list(cli.VERIFY_SUITES) == sorted(verify.SUITES)


def test_unknown_verify_suite_exits_2():
    proc = _child("-m", "mesoweyl", "verify", "no-such-suite")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
