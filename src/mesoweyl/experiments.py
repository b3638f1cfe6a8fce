"""Named experiments that regenerate every published figure's data.

Each experiment resolves its parameters (defaults overridable from a config),
computes plot-ready rows and returns a manifest with anchors and convergence
diagnostics.  All computations are deterministic, so re-running a config
reproduces the CSV byte for byte.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import fockbench, interference, squid, twomode, verify
from .states import (
    ChargeCoupling,
    CoherentState,
    ModeParams,
    NumberState,
    SqueezedState,
    ThermalState,
    emf_stats,
    match_mean_photons,
    weyl,
)

__all__ = ["EXPERIMENTS", "ExperimentResult", "run_experiment"]

Q_DEFAULT = twomode.DEFAULT_COUPLING_Q
QPRIME_DEFAULT = 0.5
OMEGA_MICRO = 1.0e-4
W1, W2 = twomode.FIG_OMEGA_1, twomode.FIG_OMEGA_2
NBAR = 17.0
R_LARGE = 4.2


@dataclass
class ExperimentResult:
    """A figure's table: ``rows`` is a float64 array of shape
    (n_rows, len(columns)); a list of row tuples is converted on construction.
    ``n_singular`` counts the rows that are poles."""
    columns: list
    rows: np.ndarray
    manifest: dict = field(default_factory=dict)
    n_singular: int = 0

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, len(self.columns))


def _states_nbar(params):
    nbar = params["mean_photons"]
    r = params["squeezing_r"]
    return {
        "num": NumberState(int(round(nbar))),
        "coh": match_mean_photons("coherent", nbar),
        "sq": match_mean_photons("squeezed", nbar, r=r),
        "th": match_mean_photons("thermal", nbar),
    }


# ---------------------------------------------------------------------------

def _size(params, name, least=1):
    """params[name], which must be an integer >= least."""
    n = params[name]
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return n


def _finite(params):
    """Reject a NaN or infinite number among the params, naming it."""
    for name, v in params.items():
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _phase_grid(params):
    """The plotted phases: samples points over periods * 2 pi."""
    return np.linspace(0.0, params["periods"] * 2.0 * math.pi, _size(params, "samples"))


def _fig1(params, policy):
    mode = ModeParams(params["omega"], params["xi"])
    r = params["squeezing_r"]
    amp_coh = params["amplitude"]
    # same mean field in both states: the squeezed amplitude is inflated by
    # e^{r/2} so that <a> matches the coherent one
    coh = CoherentState(complex(amp_coh))
    sq = SqueezedState(complex(amp_coh * math.exp(r / 2.0)), r)
    wt = _phase_grid(params)
    rows = []
    for w in wt:
        t = w / mode.omega
        mc, sc = emf_stats(coh, mode, t)
        ms, ss = emf_stats(sq, mode, t)
        rows.append((w, mc, sc, ms, ss))
    return ExperimentResult(
        ["omega_t", "e_mean_coh", "e_std_coh", "e_mean_sq", "e_std_sq"], rows
    )


def _fig4(params, policy):
    mode = ModeParams(params["omega"])
    coupling = ChargeCoupling(params["q"])
    states = {
        "num": NumberState(0),
        "coh": CoherentState(0j),
        "sq": SqueezedState(0j, params["squeezing_r"]),
        # mean photon number ~1e-22: the zero-photon thermal limit
        "th": ThermalState(params["thermal_beta_omega"]),
    }
    rows = []
    for w in _phase_grid(params):
        t = w / mode.omega
        ws = [weyl(s, 1j * coupling.q * cmath.exp(1j * mode.omega * t)) for s in states.values()]
        rows.append((w, *map(abs, ws), *map(cmath.phase, ws)))
    cols = ["omega_t", "absW_num", "absW_coh", "absW_sq", "absW_th",
            "argW_num", "argW_coh", "argW_sq", "argW_th"]
    return ExperimentResult(cols, rows)


def _fig5(params, policy):
    mode = ModeParams(params["omega"])
    coupling = ChargeCoupling(params["q"])
    states = _states_nbar(params)
    e_phi1 = params["classical_e_phi1"]
    rows = []
    for w in _phase_grid(params):
        t = w / mode.omega
        quantum = [interference.intensity_quantum(s, coupling, mode, 0.0, t) for s in states.values()]
        rows.append((w, *quantum, interference.classical_intensity(e_phi1, mode.omega, t)))
    return ExperimentResult(
        ["omega_t", "i_num", "i_coh", "i_sq", "i_th", "i_cl"], rows
    )


def _autocorrelations(params, mode, taus):
    """{family: operator autocorrelation over taus} for figs 6-7.  The
    squeezed one runs a Miller pass over about 2 q^2 sinh(r) Bessel orders at
    every lag (|c| <= 2q); fig7 takes 10 s at 1e4, growing as their square."""
    q = params["q"]
    if not 2.0 * q * q * math.sinh(params["squeezing_r"]) <= 1e4:
        raise ValueError(f"q = {q!r} is too large for the squeezed time average: "
                         "2 q^2 sinh(squeezing_r) must be at most 1e4")
    return {k: interference.autocorrelation_quantum(s, ChargeCoupling(q), mode, taus)
            for k, s in _states_nbar(params).items()}


def _fig6(params, policy):
    mode = ModeParams(params["omega"])
    e_phi1 = params["classical_e_phi1"]
    wtau = _phase_grid(params)
    taus = wtau / mode.omega
    series = {k: interference.normalized_gamma(g)
              for k, g in _autocorrelations(params, mode, taus).items()}
    series["cl"] = interference.normalized_gamma(
        interference.autocorrelation_classical(e_phi1, mode.omega, taus)
    )
    rows = []
    for i, w in enumerate(wtau):
        row = [w]
        for k in ("num", "coh", "sq", "th", "cl"):
            v = series[k].values[i]
            row.extend((v.real, v.imag))
        rows.append(tuple(row))
    cols = ["omega_tau"]
    for k in ("num", "coh", "sq", "th", "cl"):
        cols += [f"re_gamma_{k}", f"im_gamma_{k}"]
    return ExperimentResult(cols, rows)


def _fig7(params, policy):
    mode = ModeParams(params["omega"])
    e_phi1 = params["classical_e_phi1"]
    kmax = _size(params, "kmax", least=0)
    nsamp = _size(params, "spectral_samples", least=2)
    period = 2.0 * math.pi / mode.omega
    taus = np.arange(nsamp) / nsamp * period
    spectra = {k: interference.spectral_density(g, mode.omega, kmax)
               for k, g in _autocorrelations(params, mode, taus).items()}
    spectra["cl"] = interference.spectral_density(
        interference.classical_gamma_series(e_phi1, mode.omega), mode.omega, kmax
    )
    rows = [(float(kk), *(spectra[k].values[i] for k in ("cl", "num", "coh", "sq", "th")))
            for i, kk in enumerate(range(-kmax, kmax + 1))]
    return ExperimentResult(["k", "s_cl", "s_num", "s_coh", "s_sq", "s_th"], rows)


# ---------------------------------------------------------------------------

def _ratio_surface_rows(params, entangled, t):
    """The table of rows (x_a, x_b, R) over the square screen grid, x_a
    outermost, the R surface and its number of poles."""
    q = params["q"]
    n1, n2 = params["n1"], params["n2"]
    n = _size(params, "grid_points")
    xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, n)
    with np.errstate(divide="ignore", invalid="ignore"):  # poles are counted below
        if entangled:
            vals = twomode.ratio_ent_closed(
                q, xs[:, None], xs[None, :], t, params["omega_1"], params["omega_2"], n1, n2
            )
        else:
            vals = twomode.ratio_sep_closed(q, xs[:, None], xs[None, :], n1, n2)
    n_sing = _poles_as_nan(vals)
    rows = np.column_stack([np.repeat(xs, n), np.tile(xs, n), vals.ravel()])
    return rows, vals, n_sing


def _poles_as_nan(vals):
    """Report the poles of R in place as nan and return their count.  A pole
    is a marginal zero (1 + alpha cos x = 0, as alpha -> 1 at x = pi), where
    the closed form gives 0/0 or c/0."""
    pole = ~np.isfinite(vals)
    vals[pole] = math.nan
    return int(np.count_nonzero(pole))


def _fig9(params, policy):
    q = params["q"]
    lower, upper = twomode.sep_bounds(q, params["n1"], params["n2"])
    rows, vals, n_sing = _ratio_surface_rows(params, entangled=False, t=0.0)
    manifest = {
        "anchors": {
            "corner_min_reported": lower,
            "corner_max_reported": upper,
            "bounds_lower": lower,
            "bounds_upper": upper,
            "grid_min": float(np.nanmin(vals)),
            "grid_max": float(np.nanmax(vals)),
        }
    }
    return ExperimentResult(["x_a", "x_b", "r_sep"], rows, manifest, n_singular=n_sing)


def _fig10(params, policy):
    t = math.pi / (params["omega_1"] + params["omega_2"])
    lower, upper = twomode.sep_bounds(params["q"], params["n1"], params["n2"])
    rows, vals, n_sing = _ratio_surface_rows(params, entangled=True, t=t)
    manifest = {
        "anchors": {
            "sep_bounds": [lower, upper],
            "grid_min": float(np.nanmin(vals)),
            "grid_max": float(np.nanmax(vals)),
            "phase_sum_t": math.pi,
        }
    }
    return ExperimentResult(["x_a", "x_b", "r_ent"], rows, manifest, n_singular=n_sing)


def _fig11(params, policy):
    q = params["q"]
    n1, n2 = params["n1"], params["n2"]
    xa, xb = params["x_a"], params["x_b"]
    w1, w2 = params["omega_1"], params["omega_2"]
    phases = _phase_grid(params)
    with np.errstate(divide="ignore", invalid="ignore"):  # poles are counted below
        r_sep = twomode.ratio_sep_closed(q, xa, xb, n1, n2)
        r_ent = twomode.ratio_ent_closed(q, xa, xb, phases / (w1 + w2), w1, w2, n1, n2)
    # a screen point on a marginal zero puts every row on the pole
    r_sep = r_sep if math.isfinite(r_sep) else math.nan
    n_sing = _poles_as_nan(r_ent)
    rows = [(ph, r_sep, v) for ph, v in zip(phases.tolist(), r_ent.tolist())]
    return ExperimentResult(["omega_sum_t", "r_sep", "r_ent"], rows, n_singular=n_sing)


# ---------------------------------------------------------------------------

def _squid_params(params):
    coupling = ChargeCoupling(params["qprime"] / 2.0)
    return (
        coupling,
        params["omega_a"], params["omega_b"],
        params["omega_1"], params["omega_2"],
        params["n1"], params["n2"],
        complex(params["a1"]), complex(params["a2"]),
    )


def _coherent_convergence(params, policy):
    """One-point oracle cross-check for the manifest: the converged two-mode
    truncation of <sin^2 sin^2> for the entangled coherent pair at a
    representative time inside the plotted window.  The figure data come from
    the two-mode Weyl function, not from this truncation."""
    coupling, wa, wb, w1, w2, _, _, a1, a2 = _squid_params(params)
    t = (0.5 * params["periods"] * 2.0 * math.pi) / (w1 - w2)

    def sin2(omega_mw, omega_ramp):
        def build(dim):
            s = verify.sin_phase_operator(dim, coupling.qprime, omega_mw, omega_ramp, t)
            return s @ s
        return build

    _, info = fockbench.converged_two_mode_expectation(
        twomode.coherent_pair_entangled(a1, a2).state, sin2(w1, wa), sin2(w2, wb), policy
    )
    return {
        "two_mode_dim": int(info.dim),
        "last_delta": float(info.delta),
        "trace_deficit": float(info.trace_deficit),
    }


def _fig14(params, policy):
    # a row counts as singular (for exit purposes) only when every value
    # column is a pole; any-column poles are still reported in the manifest
    coupling, wa, wb, w1, w2, n1, n2, a1, a2 = _squid_params(params)
    rows = []
    rc_num = _or_nan(squid.ratio_c_sep_number, n1, n2, coupling)
    singular = []
    n_sing = 0
    for ph in _phase_grid(params):
        t = ph / (w1 - w2)
        mom = squid.two_squid_currents_coherent(a1, a2, False, coupling, wa, wb, w1, w2, t)
        rc_coh = _or_nan(squid.ratio_c, mom)
        if math.isnan(rc_num) or math.isnan(rc_coh):
            singular.append(ph)
        n_sing += math.isnan(rc_num) and math.isnan(rc_coh)
        rows.append((ph, rc_num, rc_coh))
    manifest = {"singular_phases": singular, "convergence": _coherent_convergence(params, policy)}
    return ExperimentResult(
        ["omega_diff_t", "rc_sep_num", "rc_sep_coh"], rows, manifest, n_singular=n_sing
    )


def _fig15(params, policy):
    coupling, wa, wb, w1, w2, n1, n2, a1, a2 = _squid_params(params)

    def d_num(t):
        return (squid.ratio_c_sep_number(n1, n2, coupling)
                - squid.ratio_c_ent_number(n1, n2, coupling, t, w1, w2, wa, wb))

    def d_coh(t):
        mom_sep = squid.two_squid_currents_coherent(a1, a2, False, coupling, wa, wb, w1, w2, t)
        mom_ent = squid.two_squid_currents_coherent(a1, a2, True, coupling, wa, wb, w1, w2, t)
        return squid.ratio_c(mom_sep) - squid.ratio_c(mom_ent)

    return _ratio_differences(params, policy, ["d_rc_num", "d_rc_coh"], d_num, d_coh)


def _ratio_differences(params, policy, columns, d_num, d_coh):
    """Rows (phase, d_num(t), d_coh(t)) over the phase grid, a pole as nan;
    a row counts as singular when both of its values are poles."""
    rows, singular = [], []
    for ph in _phase_grid(params):
        t = ph / (params["omega_1"] - params["omega_2"])
        row = (ph, _or_nan(d_num, t), _or_nan(d_coh, t))
        if math.isnan(row[1]) and math.isnan(row[2]):
            singular.append(ph)
        rows.append(row)
    manifest = {"singular_phases": singular, "convergence": _coherent_convergence(params, policy)}
    return ExperimentResult(["omega_diff_t", *columns], rows, manifest, n_singular=len(singular))


def _or_nan(ratio, *args):
    """ratio(*args), or nan at a singular point."""
    try:
        return ratio(*args)
    except squid.SingularPointError:
        return math.nan


def _fig16(params, policy):
    coupling, wa, wb, w1, w2, n1, n2, a1, a2 = _squid_params(params)
    rows = []
    for ph in _phase_grid(params):
        t = ph / (w1 - w2)
        mom_sep = squid.two_squid_currents_coherent(a1, a2, False, coupling, wa, wb, w1, w2, t)
        mom_ent = squid.two_squid_currents_coherent(a1, a2, True, coupling, wa, wb, w1, w2, t)
        rows.append((ph, mom_sep.ia - mom_ent.ia, mom_sep.ia2 - mom_ent.ia2))
    manifest = {"convergence": _coherent_convergence(params, policy)}
    return ExperimentResult(["omega_diff_t", "d_ia_coh", "d_ia2_coh"], rows, manifest)


def _fig17(params, policy):
    coupling, wa, wb, w1, w2, n1, n2, a1, a2 = _squid_params(params)
    rows = []
    for ph in _phase_grid(params):
        t = ph / (w1 - w2)
        num_sep = squid.two_squid_currents_number(n1, n2, False, coupling, wa, wb, w1, w2, t)
        num_ent = squid.two_squid_currents_number(n1, n2, True, coupling, wa, wb, w1, w2, t)
        mom_sep = squid.two_squid_currents_coherent(a1, a2, False, coupling, wa, wb, w1, w2, t)
        mom_ent = squid.two_squid_currents_coherent(a1, a2, True, coupling, wa, wb, w1, w2, t)
        rows.append(
            (ph, num_sep.ia_ib - num_ent.ia_ib, mom_sep.ia_ib - mom_ent.ia_ib)
        )
    manifest = {"convergence": _coherent_convergence(params, policy)}
    return ExperimentResult(["omega_diff_t", "d_iaib_num", "d_iaib_coh"], rows, manifest)


def _fig18(params, policy):
    coupling, wa, wb, w1, w2, n1, n2, a1, a2 = _squid_params(params)

    def d_num(t):
        num_sep = squid.two_squid_currents_number(n1, n2, False, coupling, wa, wb, w1, w2, t)
        num_ent = squid.two_squid_currents_number(n1, n2, True, coupling, wa, wb, w1, w2, t)
        return squid.ratio_c2(num_sep) - squid.ratio_c2(num_ent)

    def d_coh(t):
        mom_sep = squid.two_squid_currents_coherent(a1, a2, False, coupling, wa, wb, w1, w2, t)
        mom_ent = squid.two_squid_currents_coherent(a1, a2, True, coupling, wa, wb, w1, w2, t)
        return squid.ratio_c2(mom_sep) - squid.ratio_c2(mom_ent)

    return _ratio_differences(params, policy, ["d_rc2_num", "d_rc2_coh"], d_num, d_coh)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    defaults: dict
    build: object


_NBAR_DEFAULTS = {
    "omega": OMEGA_MICRO,
    "q": Q_DEFAULT,
    "mean_photons": NBAR,
    "squeezing_r": R_LARGE,
    # classical flux amplitude sqrt(2 <N>) enters only through the charge,
    # matched to the coherent drive's modulation depth 2 q sqrt(<N>)
    "classical_e_phi1": 2.0 * Q_DEFAULT * math.sqrt(NBAR),
    "periods": 2.0,
    "samples": 513,
}

_SQUID_DEFAULTS = {
    "qprime": QPRIME_DEFAULT,
    "omega_1": W1,
    "omega_2": W2,
    "omega_a": W1,
    "omega_b": W2,
    "n1": 1,
    "n2": 3,
    "a1": 1.0,
    "a2": math.sqrt(3.0),
    "periods": 2.0,
    "samples": 257,
}

EXPERIMENTS = {
    "fig1": Experiment(
        "fig1",
        "electric field mean and noise for coherent vs squeezed drive",
        {"omega": 1.0, "xi": 1.0, "squeezing_r": 1.0, "amplitude": 2.0,
         "periods": 2.0, "samples": 513},
        _fig1,
    ),
    "fig4": Experiment(
        "fig4",
        "vacuum-level phase factor |W| and arg W for the four families",
        {"omega": OMEGA_MICRO, "q": Q_DEFAULT, "squeezing_r": 0.5,
         "thermal_beta_omega": 50.0, "periods": 2.0, "samples": 513},
        _fig4,
    ),
    "fig5": Experiment(
        "fig5", "central-fringe intensity vs time for all drives", dict(_NBAR_DEFAULTS), _fig5
    ),
    "fig6": Experiment(
        "fig6", "normalized intensity autocorrelation, real and imaginary parts",
        dict(_NBAR_DEFAULTS), _fig6,
    ),
    "fig7": Experiment(
        "fig7", "spectral density coefficients S_K per drive",
        {**_NBAR_DEFAULTS, "kmax": 24, "spectral_samples": 4096}, _fig7,
    ),
    "fig9": Experiment(
        "fig9", "separable number-pair ratio surface",
        {"q": Q_DEFAULT, "n1": 0, "n2": 1, "grid_points": 201,
         "omega_1": W1, "omega_2": W2},
        _fig9,
    ),
    "fig10": Experiment(
        "fig10", "entangled number-pair ratio surface at phase-sum pi",
        {"q": Q_DEFAULT, "n1": 0, "n2": 1, "grid_points": 201,
         "omega_1": W1, "omega_2": W2},
        _fig10,
    ),
    "fig11": Experiment(
        "fig11", "separable vs entangled ratio at fixed screen points",
        {"q": Q_DEFAULT, "n1": 0, "n2": 1, "x_a": 0.9 * math.pi, "x_b": 1.025 * math.pi,
         "omega_1": W1, "omega_2": W2, "periods": 2.0, "samples": 513},
        _fig11,
    ),
    "fig14": Experiment(
        "fig14", "separable current ratio, number vs coherent pair", dict(_SQUID_DEFAULTS), _fig14
    ),
    "fig15": Experiment(
        "fig15", "separable minus entangled current ratio", dict(_SQUID_DEFAULTS), _fig15
    ),
    "fig16": Experiment(
        "fig16", "separable minus entangled ring-A current and its square",
        dict(_SQUID_DEFAULTS), _fig16,
    ),
    "fig17": Experiment(
        "fig17", "separable minus entangled current product", dict(_SQUID_DEFAULTS), _fig17
    ),
    "fig18": Experiment(
        "fig18", "separable minus entangled squared-current ratio", dict(_SQUID_DEFAULTS), _fig18
    ),
}


def run_experiment(name: str, overrides: dict = None, policy=None) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    exp = EXPERIMENTS[name]
    params = dict(exp.defaults)
    unknown = set(overrides or ()) - set(params)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    params.update(overrides or {})
    _finite(params)
    policy = policy or fockbench.TruncationPolicy(tol=1e-11)
    result = exp.build(params, policy)
    result.manifest = {
        "experiment": name,
        "params": params,
        "convergence": {},
        **result.manifest,
    }
    return result
