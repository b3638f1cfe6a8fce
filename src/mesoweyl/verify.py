"""Oracle-equivalence and property suites.

Each suite returns a machine-readable report: a list of named checks with a
measured maximum error, its tolerance and a pass flag.  The CLI ``verify``
subcommand prints these as JSON; the test suite asserts on them.  A suite's
one setting is the oracle's dimension cap, DIM_CAP unless the caller gives one.
Every oracle value goes through ``fockbench.converge``, one loop per state and
array: a Weyl z grid, window lags, a field's screen points, six ring moments.
"""

import cmath
import math
from functools import partial

import numpy as np

from . import fockbench, interference, squid, twomode
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
    TwoModeFactorizable,
    _scalar_or_array,
    emf_stats,
    flux_stats,
    matched_states,
    weyl,
)

__all__ = [
    "SUITES",
    "run_suite",
    "weyl_z_grid",
    "gamma_window_oracle",
    "intensity_operator",
]

def weyl_z_grid() -> list:
    """25 points with |z| <= 3 covering radii and phases."""
    radii = (0.2, 0.5, 1.0, 2.0, 3.0)
    angles = (0.0, 0.7, math.pi / 2.0, 2.2, 3.0)
    return [r * cmath.exp(1j * a) for r in radii for a in angles]


# Suites fold their errors with np.max and np.min, not the builtin max and
# min, which drop a NaN, so that a NaN error fails its check.  autocorr still
# folds with the builtin max: its squeezed property error reads NaN until
# specfun's Bessel I is right at tiny arguments.
def _check(name, max_error, tolerance):
    return {
        "name": name,
        "max_error": float(max_error),
        "tolerance": float(tolerance),
        "passed": bool(max_error <= tolerance),
    }


def _report(suite, checks):
    return {"suite": suite, "checks": checks, "passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# oracle operator builders (shared with the tests)

def intensity_operator(dim, q, omega, x, t):
    """Matrix of 1 + cos(x - e flux(t)) on the truncated basis."""
    d = fockbench.displacement_matrix(1j * q * cmath.exp(1j * omega * t), dim)
    return np.eye(dim, dtype=complex) + 0.5 * (cmath.exp(1j * x) * d.conj().T + cmath.exp(-1j * x) * d)


# time points of the window oracle's trapezoid over one drive period
WINDOW_POINTS = 96


def gamma_window_oracle(state, coupling, mode, tau, dim):
    """Finite-window intensity autocorrelation: the average of
    Tr[rho I(t) I(t+tau)] over one full drive period, by a trapezoid on
    WINDOW_POINTS nodes (a periodic integrand, so the window is exact up to
    truncation).

    tau is a float, which gives a complex, or an array of lags, which gives a
    complex array of its shape.  Every intensity operator is a rotation
    I(t) = U_t I(0) U_t^dag with U_t = e^{i omega t n}, so the integrand is
    Tr[(U_t^dag rho U_t) I(0) I(tau)] and the trapezoid acts on rho alone: it
    weights rho_mn by the node mean of e^{-i omega t (m-n)}.  That mean is
    taken on the nodes, not assumed to be delta_mn, so a dim above
    WINDOW_POINTS aliases at |m - n| = WINDOW_POINTS exactly as the node sum
    does.  Each lag then costs one product I(0) I(tau).
    """
    q, w = coupling.q, mode.omega
    ts = np.arange(WINDOW_POINTS) / WINDOW_POINTS * (2.0 * math.pi / w)
    node_mean = np.exp(-1j * w * np.outer(np.arange(dim), ts)).mean(axis=1)
    rho = fockbench.density_matrix(state, dim) * fockbench.hermitian_toeplitz(node_mean)
    op0 = intensity_operator(dim, q, w, 0.0, 0.0)
    lags = np.asarray(tau, dtype=float)
    vals = [fockbench.expectation(rho, op0 @ intensity_operator(dim, q, w, 0.0, t)) for t in lags.ravel()]
    return _scalar_or_array(np.array(vals, dtype=complex).reshape(lags.shape))


# ---------------------------------------------------------------------------
# suites

def weyl_oracle_suite(dim_cap: int = DIM_CAP) -> dict:
    grid = np.array(weyl_z_grid())
    states = matched_states()
    checks = []
    for fam, state in states.items():
        diff = np.abs(weyl(state, grid) - fockbench.weyl_numeric(state, grid, dim_cap))
        checks.append(_check(f"weyl-closed-vs-oracle-{fam}", np.max(diff, initial=0.0), 1e-8))
    bound = np.max([np.abs(weyl(state, grid)) - 1.0 for state in states.values()], initial=0.0)
    checks.append(_check("weyl-magnitude-bound", bound, 1e-12))
    sym = np.max([np.abs(weyl(state, -grid) - np.conj(weyl(state, grid))) for state in states.values()])
    checks.append(_check("weyl-conjugate-symmetry", sym, 1e-12))
    return _report("weyl-oracle", checks)


def _content_change(new, old) -> float:
    """Distance between successive truncations of a vector: the change of the
    shared entries plus the weight of the new ones.

    It assumes nothing of the builder: a truncation that moves the entries
    it keeps while keeping its norm, which a norm or deficit test would
    pass, is caught too.
    """
    dim = old.shape[0]
    return float(np.linalg.norm(new[:dim] - old)) + float(np.linalg.norm(new[dim:]))


def flux_stats_suite(dim_cap: int = DIM_CAP) -> dict:
    mode = ModeParams(omega=1.0e-4, xi=1.0)
    times = np.arange(8) * 2.0 * math.pi / (8.0 * mode.omega)
    # at xi = 1 a product and a quotient by xi agree; xi = 0.7 tells them apart
    modes = {"": mode, "-xi0.7": ModeParams(omega=mode.omega, xi=0.7)}
    checks = []
    # the matched states all have arg A = varphi = 0; the phased squeezed
    # state reads the terms that carry those phases
    states = {**matched_states(), "squeezed-phased": SqueezedState(0.5 * cmath.exp(0.3j), 1.0, 0.7)}
    for fam, state in states.items():
        # the state itself is converged (thermal weights or the pure vector),
        # and the sparse operators act on it: no dense matrix is formed
        thermal = isinstance(state, ThermalState)
        build = fockbench.thermal_weights if thermal else fockbench.state_vector
        psi, dim, _ = fockbench.converge(
            partial(build, state), fockbench.default_dim(state, dim_cap), dim_cap,
            f"{fam} state", _content_change,
        )

        def mean_var(op):
            if thermal:  # p . diag(op) and p . diag(op op)
                m = float(psi @ op.diagonal().real)
                v = float(psi @ (op @ op).diagonal().real) - m * m
            else:
                w1 = op @ psi
                m = float(np.vdot(psi, w1).real)
                v = float(np.vdot(w1, w1).real) - m * m
            return m, math.sqrt(v)
        # (mean, sd) rows over the times, closed form against oracle
        for tag, m in modes.items():
            flux = np.array([mean_var(fockbench.flux_matrix(m, t, dim)) for t in times.tolist()]).T
            emf = np.array([mean_var(fockbench.emf_matrix(m, t, dim)) for t in times.tolist()]).T
            err_f = np.abs(np.array(flux_stats(state, m, times)) - flux)
            # emf carries the omega scale; compare relative to it
            err_e = np.abs(np.array(emf_stats(state, m, times)) - emf) / m.omega
            checks.append(_check(f"flux-stats-vs-oracle-{fam}{tag}", np.max(err_f), 1e-8))
            checks.append(_check(f"emf-stats-vs-oracle-{fam}{tag}", np.max(err_e), 1e-8))
    # uncertainty product for the squeezed family
    sq = matched_states()["squeezed"]
    slack = np.min(flux_stats(sq, mode, times)[1] * emf_stats(sq, mode, times)[1]
                   - mode.omega * mode.xi ** 2 / 2.0, initial=0.0)
    checks.append(_check("squeezed-uncertainty-product", -slack, 1e-10))
    return _report("flux-stats", checks)


def autocorr_suite(dim_cap: int = DIM_CAP) -> dict:
    coupling = ChargeCoupling(twomode.DEFAULT_COUPLING_Q)
    mode = ModeParams(omega=1.0e-4)
    period = 2.0 * math.pi / mode.omega
    taus = np.arange(64) / 64.0 * 2.0 * period
    checks = []
    states = matched_states()
    e_phi1 = math.sqrt(2.0 * MEAN_PHOTONS)

    # each series is one call over the lags and the negatives of the first
    # 16, which the Gamma(-tau) = Gamma(tau)* property reads
    n = len(taus)
    lags = np.concatenate((taus, -taus[:16]))
    gcl = interference.autocorrelation_classical(e_phi1, mode.omega, lags)
    checks.append(_check("classical-gamma-properties", _gamma_property_error(gcl, n), 1e-10))
    checks.append(
        _check("classical-im-gamma", float(np.max(np.abs(gcl.values[:n].imag))) / gcl.gamma0, 1e-12)
    )

    series = {}
    for fam, state in states.items():
        series[fam] = interference.autocorrelation_quantum(state, coupling, mode, lags)
        checks.append(_check(f"quantum-gamma-properties-{fam}", _gamma_property_error(series[fam], n), 1e-10))
    num = interference.normalized_gamma(series["number"])
    im_max = float(np.max(np.abs(num.values[:n].imag)))
    checks.append(_check("number-17-im-gamma-present", 1e-4 - im_max, 0.0))

    # displacement-algebra path against the finite-window matrix oracle
    small = {
        "vacuum": NumberState(0),
        "number-2": NumberState(2),
        "coherent-1": CoherentState(1.0 + 0j),
        "thermal-bw1": ThermalState(1.0),
    }
    lags = np.array([0.0, 0.31 * period, 0.62 * period])
    for fam, state in small.items():
        exact = interference.autocorrelation_quantum(state, coupling, mode, lags).values
        window, _, _ = fockbench.converge(
            partial(gamma_window_oracle, state, coupling, mode, lags),
            fockbench.default_dim(state, dim_cap), dim_cap, f"{fam} window oracle",
        )
        err = float(np.max(np.abs(exact - window)))
        checks.append(_check(f"quantum-gamma-vs-window-oracle-{fam}", err, 1e-6))
    return _report("autocorr", checks)


def _gamma_property_error(series, n: int) -> float:
    """Property error of a series over the lags (taus, -taus[:16]) with
    n = len(taus): Gamma(0) >= 0 and |Gamma| <= Gamma(0) on the first n
    lags, Gamma(-tau) = Gamma(tau)* on the rest."""
    g0 = series.gamma0
    err = max(0.0, -g0)
    vals, neg = series.values[:n], series.values[n:]
    err = max(err, float(np.max(np.abs(vals) - g0)) / max(g0, 1e-300))
    return max(err, *(np.abs(neg - np.conj(vals[:len(neg)])) / max(g0, 1e-300)))


def twomode_suite(dim_cap: int = DIM_CAP) -> dict:
    q = twomode.DEFAULT_COUPLING_Q
    coupling = ChargeCoupling(q)
    checks = []
    t = 0.37 / (twomode.FIG_OMEGA_1 + twomode.FIG_OMEGA_2)
    xs = np.linspace(-2 * math.pi, 2 * math.pi, 9)

    fact = TwoModeFactorizable(ThermalState(1.0), CoherentState(1.3 + 0.2j))
    err = np.max(np.abs(twomode.ratio_R(fact, coupling, xs[:, None], xs[None, :], t) - 1.0))
    checks.append(_check("factorizable-ratio-unity", err, 1e-12))

    fields = {
        "number-pair-sep": twomode.number_pair_separable(0, 1),
        "number-pair-ent": twomode.number_pair_entangled(0, 1),
        "coherent-pair-ent": twomode.coherent_pair_entangled(1.0, math.sqrt(3.0)),
        "factorizable-thermal-coherent": fact,
    }
    pts = [(0.4, -1.1), (2.0, 2.9), (-0.7, 0.3)]
    pts_a, pts_b = np.array(pts).T

    def screen_pairs(dim):  # (I_A, I_B) at every screen point
        return [(intensity_operator(dim, q, twomode.FIG_OMEGA_1, xa, t),
                 intensity_operator(dim, q, twomode.FIG_OMEGA_2, xb, t)) for xa, xb in pts]
    for name, state2 in fields.items():
        closed = twomode.joint_intensity(state2, coupling, pts_a, pts_b, t)
        oracle, _ = fockbench.converged_two_mode_expectation(state2, screen_pairs, dim_cap)
        checks.append(_check(f"joint-intensity-vs-oracle-{name}", np.max(np.abs(closed - oracle)), 1e-8))

    sep = twomode.number_pair_separable(0, 1)
    ent = twomode.number_pair_entangled(0, 1)
    err = np.max([np.abs(twomode.marginal_intensity(sep, w, coupling, xs, t)
                         - twomode.marginal_intensity(ent, w, coupling, xs, t)) for w in ("A", "B")])
    checks.append(_check("sep-ent-marginals-identical", err, 1e-12))

    corners = np.array([0.0, math.pi])
    corner_err = np.max(np.abs(twomode.ratio_R(sep, coupling, corners, corners, t)
                               - twomode.sep_bounds(q)))
    checks.append(_check("corner-values-vs-bounds", corner_err, 1e-10))

    # the closed forms that figs 9-11 ship against ratio_R, the route checked
    # against the oracle above; (1, 3) is an even-difference pair, whose
    # cross term is cos x_a cos x_b rather than sin x_a sin x_b
    grid_a, grid_b = pts_a[:, None], pts_b[None, :]
    errs = []
    for n1, n2 in ((0, 1), (1, 3)):
        for closed, pair in (
            (twomode.ratio_sep_closed(q, grid_a, grid_b, n1, n2), twomode.number_pair_separable(n1, n2)),
            (twomode.ratio_ent_closed(q, grid_a, grid_b, t, n1=n1, n2=n2), twomode.number_pair_entangled(n1, n2)),
        ):
            errs.append(np.abs(closed - twomode.ratio_R(pair, coupling, grid_a, grid_b, t)))
    checks.append(_check("ratio-closed-vs-weyl-route", np.max(errs), 1e-12))
    return _report("twomode", checks)


def squid_suite(dim_cap: int = DIM_CAP) -> dict:
    coupling = ChargeCoupling(0.25)  # qprime = 0.5
    checks = []

    drive = squid.SquidDrive(phase0=0.7, omega_a=3.0e-4, u_phase=3.0, omega1=1.0e-4)
    period = np.linspace(0.0, 2.0 * math.pi / drive.omega1, 64, endpoint=False)
    err = np.max(np.abs(squid.classical_current(drive, period)
                        - squid.classical_current_expansion(drive, period)))
    checks.append(_check("classical-direct-vs-expansion", err, 1e-10))

    # coherent drive rescales every step by exp(-q'^2/2) (phase-matched state)
    u = 2.0
    base = squid.SquidDrive(phase0=0.7, u_phase=0.0, omega1=1.0e-4)
    ref = squid.SquidDrive(phase0=0.7, u_phase=u, omega1=1.0e-4)
    amp = u / (2.0 * coupling.qprime)
    coh = CoherentState(amp * cmath.exp(1j * math.pi / 2.0))
    scale = math.exp(-coupling.qprime ** 2 / 2.0)
    steps = np.arange(-3, 4)
    classical = np.array([squid.classical_shapiro(ref, n) for n in steps.tolist()])
    err = np.max(np.abs(squid.quantum_shapiro(coh, base, steps, coupling) - scale * classical))
    checks.append(_check("coherent-step-rescaling", err, 1e-10))

    # squeezed vacuum: odd steps vanish, an even step survives for every r;
    # each state's six steps are one call
    odd, even = [], []
    stepdrive = squid.SquidDrive(phase0=math.pi / 2.0, u_phase=0.0, omega1=1.0e-4)
    for r in (0.5, 2.0, SQUEEZING_R):
        sq = SqueezedState(0j, r)
        current = np.abs(squid.quantum_shapiro(sq, stepdrive, np.array([1, 3, 5, -1, 2, 4]), coupling))
        odd.append(current[:4])
        even.append(np.max(current[4:]))
    checks.append(_check("squeezed-vacuum-odd-steps", np.max(odd), 1e-10))
    checks.append(_check("squeezed-vacuum-even-step-present", 1e-4 - np.min(even), 0.0))

    # a displaced squeezed state (arg A and varphi nonzero) under the
    # classical drive, against the 64-node period average of
    # Im[e^{i(phase0 + n w t + u sin w t)} W(sigma(t))], W from the oracle
    phased = SqueezedState(0.5 * cmath.exp(0.3j), 1.0, 0.7)
    theta = 2.0 * math.pi * np.arange(64) / 64.0  # w t at the nodes
    w = fockbench.weyl_numeric(phased, 1j * coupling.qprime * np.exp(1j * theta), dim_cap)
    phase = drive.phase0 + steps[:, None] * theta + drive.u_phase * np.sin(theta)
    oracle = np.mean(np.imag(np.exp(1j * phase) * w), axis=1)
    err = np.max(np.abs(squid.quantum_shapiro(phased, drive, steps, coupling) - oracle))
    checks.append(_check("squeezed-phased-steps-vs-oracle", err, 1e-10))

    # number-pair moments against the two-mode oracle; each ring ramps at
    # its mode's frequency
    w1, w2 = 1.2e-4, 1.0e-4
    ts = (np.arange(16) + 0.5) / 16.0 * 2.0 * math.pi / abs(w1 - w2)
    errs, ratio_errs = [], []
    for entangled in (False, True):
        state2 = twomode.number_pair_crossed(1, 3, entangled)
        moments = squid.two_squid_currents_number(1, 3, entangled, coupling, w1, w2, w1, w2, ts[::4])
        # the closed-form ratio of the same pair (an even occupation difference)
        closed = (squid.ratio_c_ent_number(1, 3, coupling, ts[::4], w1, w2, w1, w2) if entangled
                  else squid.ratio_c_sep_number(1, 3, coupling))
        ratio_errs.append(np.max(np.abs(squid.ratio_c(moments) - closed)))
        # one row of the six moments per time
        for mom, t in zip(np.array(moments).T, ts[::4].tolist()):
            oracle = np.array(fockbench.two_squid_moments(state2, coupling.qprime, w1, w2, w1, w2, t, dim_cap))
            errs.append(np.max(np.abs(mom - oracle)) / np.max(np.abs(oracle)))
    checks.append(_check("two-squid-number-moments-vs-oracle", np.max(errs), 1e-8))
    # the closed-form ratios against ratio_c of those moments: 3.3e-16 here,
    # 6.7e-16 when the moments had Laguerre closed forms too
    checks.append(_check("number-ratios-vs-moments", np.max(ratio_errs), 1e-14))
    # the odd-difference (tan-pole) branch of the entangled ratio, on the
    # (1, 2) pair at the same times, where every ramp sine is at least 0.55;
    # 4.4e-16 here
    odd = squid.two_squid_currents_number(1, 2, True, coupling, w1, w2, w1, w2, ts[::4], ("ia", "ib", "ia_ib"))
    err = np.max(np.abs(squid.ratio_c(odd) - squid.ratio_c_ent_number(1, 2, coupling, ts[::4], w1, w2, w1, w2)))
    checks.append(_check("number-ratio-odd-vs-moments", err, 1e-14))

    # coherent-pair moments against the same oracle at one time; 1.0e-15
    # was the worst relative error over the 16 times of ts
    a1, a2, errs = 1.0, math.sqrt(3.0), []
    for entangled in (False, True):
        pair = twomode.coherent_pair_entangled if entangled else twomode.coherent_pair_separable
        mom = np.array(squid.two_squid_currents_coherent(a1, a2, entangled, coupling, w1, w2, w1, w2, ts[4]))
        oracle = np.array(fockbench.two_squid_moments(pair(a1, a2), coupling.qprime, w1, w2, w1, w2, ts[4], dim_cap))
        errs.append(np.max(np.abs(mom - oracle)) / np.max(np.abs(oracle)))
    checks.append(_check("two-squid-coherent-moments-vs-oracle", np.max(errs), 1e-14))

    # factorizable baseline
    fact = TwoModeFactorizable(CoherentState(1.0), CoherentState(0.8 + 0.4j))
    t0 = 0.3 / w1
    mom = fockbench.two_squid_moments(fact, coupling.qprime, w1, w2, w1, w2, t0, dim_cap)
    err = np.max([abs(squid.ratio_c(mom) - 1.0), abs(squid.ratio_c2(mom) - 1.0)])
    checks.append(_check("factorizable-current-ratios-unity", err, 1e-12))
    return _report("squid", checks)


SUITES = {
    "weyl-oracle": weyl_oracle_suite,
    "flux-stats": flux_stats_suite,
    "autocorr": autocorr_suite,
    "twomode": twomode_suite,
    "squid": squid_suite,
}


def run_suite(name: str, dim_cap: int = DIM_CAP) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](dim_cap)
