"""Named experiments that regenerate every published figure's data.

Each experiment resolves its parameters (defaults overridable from a config),
computes plot-ready rows and returns a manifest with anchors and convergence
diagnostics.  All computations are deterministic, so re-running a config
reproduces the CSV byte for byte.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import interference, squid, twomode
from .exceptions import DIM_CAP
from .states import (
    MEAN_PHOTONS,
    SQUEEZING_R,
    ChargeCoupling,
    CoherentState,
    ModeParams,
    NumberState,
    SqueezedState,
    ThermalState,
    emf_stats,
    matched_states,
    weyl,
)

__all__ = ["EXPERIMENTS", "ExperimentResult", "run_experiment"]

Q_DEFAULT = twomode.DEFAULT_COUPLING_Q
QPRIME_DEFAULT = 0.5
OMEGA_MICRO = 1.0e-4
W1, W2 = twomode.FIG_OMEGA_1, twomode.FIG_OMEGA_2


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


# ---------------------------------------------------------------------------

# the integer parameters (sizes and occupations) and the least value each takes
_SIZES = {"samples": 1, "grid_points": 1, "kmax": 0, "spectral_samples": 2, "n1": 0, "n2": 0}


def _is_number(v):
    """True for a JSON number: an int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_params(params, defaults):
    """Reject, naming it, a size or an occupation that is not an integer of
    at least its least value, a parameter whose default is a number but
    whose value is not a JSON number (a string, null, a boolean, a list or
    an object), and a NaN or infinite number."""
    for name, v in params.items():
        if name in _SIZES:
            if isinstance(v, bool) or not isinstance(v, int) or v < _SIZES[name]:
                raise ValueError(f"{name} must be an integer >= {_SIZES[name]}, got {v!r}")
        elif _is_number(defaults[name]) and not _is_number(v):
            raise ValueError(f"{name} must be a number, got {v!r}")
        elif isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _beat(params, sign):
    """omega_1 + sign * omega_2 (sign 1 or -1), whose phase is the abscissa of
    figs 10-11 (sum) and 14-18 (difference); refused where it is zero."""
    w1, w2 = params["omega_1"], params["omega_2"]
    if w1 + sign * w2 == 0:
        raise ValueError(f"omega_1 {'+-'[sign < 0]} omega_2 must be nonzero, "
                         f"got omega_1 = {w1!r}, omega_2 = {w2!r}")
    return w1 + sign * w2


def _phase_grid(params):
    """The plotted phases: samples points over periods * 2 pi."""
    return np.linspace(0.0, params["periods"] * 2.0 * math.pi, params["samples"])


def _fig1(params, dim_cap):
    mode = ModeParams(params["omega"], params["xi"])
    r = params["squeezing_r"]
    amp_coh = params["amplitude"]
    # same mean field in both states: the squeezed amplitude is inflated by
    # e^{r/2} so that <a> matches the coherent one
    coh = CoherentState(complex(amp_coh))
    sq = SqueezedState(complex(amp_coh * math.exp(r / 2.0)), r)
    wt = _phase_grid(params)
    t = wt / mode.omega
    rows = np.column_stack([wt, *emf_stats(coh, mode, t), *emf_stats(sq, mode, t)])
    return ExperimentResult(
        ["omega_t", "e_mean_coh", "e_std_coh", "e_mean_sq", "e_std_sq"], rows
    )


def _fig4(params, dim_cap):
    mode = ModeParams(params["omega"])
    coupling = ChargeCoupling(params["q"])
    states = {
        "num": NumberState(0),
        "coh": CoherentState(0j),
        "sq": SqueezedState(0j, params["squeezing_r"]),
        # mean photon number ~1e-22: the zero-photon thermal limit
        "th": ThermalState(params["thermal_beta_omega"]),
    }
    wt = _phase_grid(params)
    t = wt / mode.omega
    ws = [weyl(s, 1j * coupling.q * np.exp(1j * mode.omega * t)) for s in states.values()]
    rows = np.column_stack([wt, *map(np.abs, ws), *map(np.angle, ws)])
    cols = ["omega_t", "absW_num", "absW_coh", "absW_sq", "absW_th",
            "argW_num", "argW_coh", "argW_sq", "argW_th"]
    return ExperimentResult(cols, rows)


def _fig5(params, dim_cap):
    mode = ModeParams(params["omega"])
    coupling = ChargeCoupling(params["q"])
    wt = _phase_grid(params)
    t = wt / mode.omega
    quantum = [interference.intensity_quantum(s, coupling, mode, 0.0, t)
               for s in matched_states(params["mean_photons"], params["squeezing_r"]).values()]
    classical = interference.classical_intensity(params["classical_e_phi1"], mode.omega, t)
    rows = np.column_stack([wt, *quantum, classical])
    return ExperimentResult(["omega_t", "i_num", "i_coh", "i_sq", "i_th", "i_cl"], rows)


def _autocorrelations(params, mode, taus):
    """The operator autocorrelations over taus of figs 6-7, one per matched
    state in column order num, coh, sq, th.  The squeezed one runs a Miller
    pass over about 2 q^2 sinh(r) Bessel orders at every distinct radius
    (|c| <= 2q); fig7, which evaluates half its period, takes 1.8-2.1 s at
    1e4 as one process on a 2-core x86-64 VM, growing as their square."""
    q = params["q"]
    if not 2.0 * q * q * math.sinh(params["squeezing_r"]) <= 1e4:
        raise ValueError(f"q = {q!r} is too large for the squeezed time average: "
                         "2 q^2 sinh(squeezing_r) must be at most 1e4")
    return [interference.autocorrelation_quantum(s, ChargeCoupling(q), mode, taus)
            for s in matched_states(params["mean_photons"], params["squeezing_r"]).values()]


def _fig6(params, dim_cap):
    # not folded by Gamma(T - tau) = Gamma(tau)* as fig7 is: the squeezed
    # column's tiny-argument NaN rows at omega tau = pi, 2 pi and 4 pi (128,
    # 256 and 512 at the defaults) are not mirrored at 3 pi (384, finite), so
    # any fold of this grid would move the NaN cells the references pin
    mode = ModeParams(params["omega"])
    wtau = _phase_grid(params)
    taus = wtau / mode.omega
    gammas = [*_autocorrelations(params, mode, taus),
              interference.autocorrelation_classical(params["classical_e_phi1"], mode.omega, taus)]
    cols, parts = ["omega_tau"], [wtau]
    for k, g in zip(("num", "coh", "sq", "th", "cl"), gammas):
        v = interference.normalized_gamma(g).values
        cols += [f"re_gamma_{k}", f"im_gamma_{k}"]
        parts += [v.real, v.imag]
    return ExperimentResult(cols, np.column_stack(parts))


def _unfold(half, taus):
    """The series over one period ``taus`` (m lags) from its lags 0 .. m // 2:
    a stationary Gamma of period T has Gamma(T - tau) = Gamma(tau)*, so lag
    k > m // 2 is the conjugate of lag m - k, which lies in 1 .. m // 2."""
    tail = np.conj(half.values[(len(taus) - 1) // 2:0:-1])
    return interference.CorrelationSeries(taus, np.concatenate((half.values, tail)), half.gamma0)


def _fig7(params, dim_cap):
    mode = ModeParams(params["omega"])
    kmax = params["kmax"]
    nsamp = params["spectral_samples"]
    taus = np.arange(nsamp) / nsamp * (2.0 * math.pi / mode.omega)
    # each Gamma is evaluated on half the period and unfolded
    half = taus[:nsamp // 2 + 1]
    gammas = [interference.autocorrelation_classical(params["classical_e_phi1"], mode.omega, half),
              *_autocorrelations(params, mode, half)]
    spectra = [interference.spectral_density(_unfold(g, taus), mode.omega, kmax).values for g in gammas]
    rows = np.column_stack([np.arange(-kmax, kmax + 1, dtype=float), *spectra])
    return ExperimentResult(["k", "s_cl", "s_num", "s_coh", "s_sq", "s_th"], rows)


# ---------------------------------------------------------------------------

def _ratio_surface_rows(params, q, entangled, t):
    """The table of rows (x_a, x_b, R) over the square screen grid, x_a
    outermost, the R surface and its number of poles (NaN cells)."""
    n1, n2 = params["n1"], params["n2"]
    n = params["grid_points"]
    xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, n)
    if entangled:
        vals = twomode.ratio_ent_closed(
            q, xs[:, None], xs[None, :], t, params["omega_1"], params["omega_2"], n1, n2
        )
    else:
        vals = twomode.ratio_sep_closed(q, xs[:, None], xs[None, :], n1, n2)
    rows = np.column_stack([np.repeat(xs, n), np.tile(xs, n), vals.ravel()])
    return rows, vals, int(np.count_nonzero(np.isnan(vals)))


def _fig9(params, dim_cap):
    q = ChargeCoupling(params["q"]).q
    lower, upper = twomode.sep_bounds(q, params["n1"], params["n2"])
    rows, vals, n_sing = _ratio_surface_rows(params, q, entangled=False, t=0.0)
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


def _fig10(params, dim_cap):
    q = ChargeCoupling(params["q"]).q
    t = math.pi / _beat(params, 1)
    lower, upper = twomode.sep_bounds(q, params["n1"], params["n2"])
    rows, vals, n_sing = _ratio_surface_rows(params, q, entangled=True, t=t)
    manifest = {
        "anchors": {
            "sep_bounds": [lower, upper],
            "grid_min": float(np.nanmin(vals)),
            "grid_max": float(np.nanmax(vals)),
            "phase_sum_t": math.pi,
        }
    }
    return ExperimentResult(["x_a", "x_b", "r_ent"], rows, manifest, n_singular=n_sing)


def _fig11(params, dim_cap):
    q = ChargeCoupling(params["q"]).q
    n1, n2 = params["n1"], params["n2"]
    xa, xb = params["x_a"], params["x_b"]
    w1, w2 = params["omega_1"], params["omega_2"]
    phases = _phase_grid(params)
    # a screen point on a marginal zero makes r_sep, and so every r_ent, NaN
    r_sep = twomode.ratio_sep_closed(q, xa, xb, n1, n2)
    r_ent = twomode.ratio_ent_closed(q, xa, xb, phases / _beat(params, 1), w1, w2, n1, n2)
    n_sing = int(np.count_nonzero(np.isnan(r_ent)))
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


def _coherent_convergence(params, dim_cap):
    """One-point oracle cross-check for the manifest: the converged two-mode
    truncation of <sin^2 sin^2> for the entangled coherent pair at a
    representative time inside the plotted window.  The figure data come from
    the two-mode Weyl function, not from this truncation, so only these
    figures import the oracle, and with it scipy."""
    from . import fockbench

    coupling, wa, wb, w1, w2, _, _, a1, a2 = _squid_params(params)
    t = (0.5 * params["periods"] * 2.0 * math.pi) / _beat(params, -1)

    def build(dim):
        return [(fockbench.sin_phase_powers(dim, coupling.qprime, w1, wa, t)[1],
                 fockbench.sin_phase_powers(dim, coupling.qprime, w2, wb, t)[1])]

    _, info = fockbench.converged_two_mode_expectation(
        twomode.coherent_pair_entangled(a1, a2), build, dim_cap
    )
    return {
        "two_mode_dim": int(info.dim),
        "last_delta": float(info.delta),
        "trace_deficit": float(info.trace_deficit),
    }


def _beat_times(params):
    """The phase grid of figs 14-18 and its times t = phase / (omega_1 - omega_2)."""
    phases = _phase_grid(params)
    return phases, phases / _beat(params, -1)


def _pair_moments(params, t, moments, x1, x2, fields):
    """[separable, entangled] two-ring current moments over the times t of
    the pair (x1, x2) through ``moments`` (``squid.two_squid_currents_number``
    or ``_coherent``), only the named fields filled."""
    coupling, wa, wb, w1, w2, *_ = _squid_params(params)
    return [moments(x1, x2, e, coupling, wa, wb, w1, w2, t, fields) for e in (False, True)]


def _two_ring_figure(params, dim_cap, phases, series, singular=None):
    """The table of figs 14-18: a row (phase, *values) per phase point, from
    ``series`` = {column: values over the phases or one value}, a pole as
    NaN.  A row counts as singular (for exit purposes) only when every value
    column is a pole; ``singular`` (np.any or np.all over a row's poles)
    picks the phases the manifest lists as singular_phases."""
    rows = np.column_stack(np.broadcast_arrays(phases, *series.values()))
    pole = np.isnan(rows[:, 1:])
    manifest = {}
    if singular is not None:
        manifest["singular_phases"] = phases[singular(pole, axis=1)].tolist()
    manifest["convergence"] = _coherent_convergence(params, dim_cap)
    return ExperimentResult(["omega_diff_t", *series], rows, manifest,
                            n_singular=int(np.count_nonzero(pole.all(axis=1))))


# the moments that squid.ratio_c and ratio_c2 read
_RATIO_C_MOMENTS = ("ia", "ib", "ia_ib")
_RATIO_C2_MOMENTS = ("ia2", "ib2", "ia2_ib2")


def _fig14(params, dim_cap):
    coupling, wa, wb, w1, w2, n1, n2, a1, a2 = _squid_params(params)
    phases, t = _beat_times(params)
    mom = squid.two_squid_currents_coherent(a1, a2, False, coupling, wa, wb, w1, w2, t, _RATIO_C_MOMENTS)
    series = {"rc_sep_num": squid.ratio_c_sep_number(n1, n2, coupling),
              "rc_sep_coh": squid.ratio_c(mom)}
    return _two_ring_figure(params, dim_cap, phases, series, np.any)


def _fig15(params, dim_cap):
    coupling, wa, wb, w1, w2, n1, n2, a1, a2 = _squid_params(params)
    phases, t = _beat_times(params)
    sep, ent = _pair_moments(params, t, squid.two_squid_currents_coherent, a1, a2, _RATIO_C_MOMENTS)
    series = {
        "d_rc_num": squid.ratio_c_sep_number(n1, n2, coupling)
        - squid.ratio_c_ent_number(n1, n2, coupling, t, w1, w2, wa, wb),
        "d_rc_coh": squid.ratio_c(sep) - squid.ratio_c(ent),
    }
    return _two_ring_figure(params, dim_cap, phases, series, np.all)


def _fig16(params, dim_cap):
    *_, a1, a2 = _squid_params(params)
    phases, t = _beat_times(params)
    sep, ent = _pair_moments(params, t, squid.two_squid_currents_coherent, a1, a2, ("ia", "ia2"))
    series = {"d_ia_coh": sep.ia - ent.ia, "d_ia2_coh": sep.ia2 - ent.ia2}
    return _two_ring_figure(params, dim_cap, phases, series)


def _fig17(params, dim_cap):
    *_, n1, n2, a1, a2 = _squid_params(params)
    phases, t = _beat_times(params)
    num_sep, num_ent = _pair_moments(params, t, squid.two_squid_currents_number, n1, n2, ("ia_ib",))
    coh_sep, coh_ent = _pair_moments(params, t, squid.two_squid_currents_coherent, a1, a2, ("ia_ib",))
    series = {"d_iaib_num": num_sep.ia_ib - num_ent.ia_ib,
              "d_iaib_coh": coh_sep.ia_ib - coh_ent.ia_ib}
    return _two_ring_figure(params, dim_cap, phases, series)


def _fig18(params, dim_cap):
    *_, n1, n2, a1, a2 = _squid_params(params)
    phases, t = _beat_times(params)
    num_sep, num_ent = _pair_moments(params, t, squid.two_squid_currents_number, n1, n2, _RATIO_C2_MOMENTS)
    coh_sep, coh_ent = _pair_moments(params, t, squid.two_squid_currents_coherent, a1, a2, _RATIO_C2_MOMENTS)
    series = {"d_rc2_num": squid.ratio_c2(num_sep) - squid.ratio_c2(num_ent),
              "d_rc2_coh": squid.ratio_c2(coh_sep) - squid.ratio_c2(coh_ent)}
    return _two_ring_figure(params, dim_cap, phases, series, np.all)


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
    "mean_photons": MEAN_PHOTONS,
    "squeezing_r": SQUEEZING_R,
    # classical flux amplitude sqrt(2 <N>) enters only through the charge,
    # matched to the coherent drive's modulation depth 2 q sqrt(<N>)
    "classical_e_phi1": 2.0 * Q_DEFAULT * math.sqrt(MEAN_PHOTONS),
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


def run_experiment(name: str, overrides: dict = None, dim_cap: int = DIM_CAP) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    exp = EXPERIMENTS[name]
    params = dict(exp.defaults)
    unknown = set(overrides or ()) - set(params)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    params.update(overrides or {})
    _check_params(params, exp.defaults)
    result = exp.build(params, dim_cap)
    result.manifest = {
        "experiment": name,
        "params": params,
        "convergence": {},
        **result.manifest,
    }
    return result
