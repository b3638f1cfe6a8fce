import cmath
import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from mesoweyl import experiments, fockbench, interference, specfun, verify
from mesoweyl.harmonics import HarmonicSeries
from mesoweyl.states import (
    ChargeCoupling,
    CoherentState,
    ModeParams,
    NumberState,
    SqueezedState,
    ThermalState,
    match_mean_photons,
    matched_states,
    weyl,
    weyl_time_average,
)

Q = 0.2143
COUPLING = ChargeCoupling(Q)
MODE = ModeParams(1.0e-4)
PERIOD = 2.0 * math.pi / MODE.omega


def test_intensity_quantum_examples():
    # vacuum at x = 0
    got = interference.intensity_quantum(NumberState(0), COUPLING, MODE, 0.0, 0.0)
    assert got == pytest.approx(1.0 + math.exp(-Q * Q / 2.0), rel=1e-14)
    # thermal drive: no time dependence
    th = ThermalState(1.0)
    vals = [interference.intensity_quantum(th, COUPLING, MODE, 0.4, t) for t in np.linspace(0, PERIOD, 7)]
    assert max(vals) - min(vals) <= 1e-14
    # number drive at x = 0: 1 + e^{-q^2/2} L_n(q^2), time-independent
    for n in (0, 3, 17):
        ref = 1.0 + math.exp(-Q * Q / 2.0) * specfun.laguerre(n, 0, Q * Q)
        for t in (0.0, 0.31 * PERIOD):
            got = interference.intensity_quantum(NumberState(n), COUPLING, MODE, 0.0, t)
            assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "state",
    [NumberState(2), CoherentState(1.1 + 0.2j), SqueezedState(0.4, 1.2, 0.5), ThermalState(0.9)],
)
def test_intensity_two_formula_paths_agree(state):
    for x in (-2.0, 0.0, 1.3):
        for t in (0.0, 0.27 * PERIOD, 0.8 * PERIOD):
            a = interference.intensity_quantum(state, COUPLING, MODE, x, t)
            # the displacement half-sum Tr[rho cos(x - e flux)]
            lam = 1j * Q * cmath.exp(1j * MODE.omega * t)
            b = 1.0 + 0.5 * (
                cmath.exp(1j * x) * weyl(state, -lam) + cmath.exp(-1j * x) * weyl(state, lam)
            ).real
            assert abs(a - b) <= 1e-12
            w = abs(weyl(state, lam))
            assert 1.0 - w - 1e-12 <= a <= 1.0 + w + 1e-12


def test_intensity_screen_periodicity():
    st = CoherentState(0.9)
    for x in (0.0, 1.1, -2.7):
        a = interference.intensity_quantum(st, COUPLING, MODE, x, 0.2 * PERIOD)
        b = interference.intensity_quantum(st, COUPLING, MODE, x + 2.0 * math.pi, 0.2 * PERIOD)
        assert abs(a - b) <= 1e-12


def test_visibility_examples():
    for t in (0.0, 0.13 * PERIOD):
        assert interference.visibility(CoherentState(2.0), COUPLING, MODE, t) == pytest.approx(
            math.exp(-Q * Q / 2.0), rel=1e-14
        )
    assert interference.visibility(NumberState(0), COUPLING, MODE, 0.0) == pytest.approx(
        math.exp(-Q * Q / 2.0), rel=1e-14
    )
    got = interference.visibility(ThermalState(1.0), ChargeCoupling(0.25), MODE, 0.5 * PERIOD)
    ref = math.exp(-0.25 ** 2 / 2.0 / math.tanh(0.5))
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(0.9346, abs=5e-5)


# ---------------------------------------------------------------------------
# classical drive

def test_classical_intensity_basics():
    assert interference.classical_intensity(3.0, MODE.omega, 0.0) == pytest.approx(2.0)
    for t in np.linspace(0.0, PERIOD, 9):
        assert interference.classical_intensity(0.0, MODE.omega, t) == pytest.approx(2.0)


def test_classical_intensity_even_harmonics_only():
    e_phi1 = 3.7
    n = 256
    ts = np.arange(n) / n * PERIOD
    vals = np.array([interference.classical_intensity(e_phi1, MODE.omega, t) for t in ts])
    spec = np.fft.fft(vals) / n
    odd = np.abs(spec[1::2]).max()
    assert odd <= 1e-12 * np.abs(spec).max()


def test_classical_autocorrelation_against_numeric_time_average():
    e_phi1 = math.sqrt(34.0)
    taus = np.array([0.0, 0.11, 0.37, 0.5]) * PERIOD
    series = interference.autocorrelation_classical(e_phi1, MODE.omega, taus)
    n = 4096
    ts = np.arange(n) / n * PERIOD  # whole-period average of a periodic signal
    i_t = np.array([interference.classical_intensity(e_phi1, MODE.omega, t) for t in ts])
    for tau, got in zip(taus, series.values):
        i_tau = np.array([interference.classical_intensity(e_phi1, MODE.omega, t + tau) for t in ts])
        ref = np.mean(i_t * i_tau)
        assert abs(got - ref) <= 1e-8
    assert np.max(np.abs(series.values.imag)) == 0.0


def test_classical_autocorrelation_flat_without_drive():
    taus = np.linspace(0.0, PERIOD, 17)
    series = interference.autocorrelation_classical(0.0, MODE.omega, taus)
    assert np.allclose(series.values, 4.0, atol=1e-14)


def test_classical_gamma_at_zero_lag():
    e_phi1 = 2.0
    j0 = sp.jv(0, e_phi1)
    ref = (1.0 + j0) ** 2 + 2.0 * sum(
        sp.jv(2 * k, e_phi1) ** 2 for k in range(1, 40)
    )
    series = interference.autocorrelation_classical(e_phi1, MODE.omega, [0.0])
    assert series.gamma0 == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# quantum drive

def test_quantum_gamma_zero_lag_vacuum_expansion():
    got = interference.autocorrelation_quantum(NumberState(0), COUPLING, MODE, [0.0]).gamma0
    q = Q
    ref = 1.0 + 2.0 * math.exp(-q * q / 2.0) + 0.5 + 0.5 * math.exp(-2.0 * q * q)
    assert got == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize(
    "state",
    [
        NumberState(0),
        NumberState(2),
        CoherentState(1.0 + 0j),
        ThermalState(1.0),
        SqueezedState(0.4, 1.1, 0.3),
    ],
)
def test_quantum_gamma_against_window_oracle(state):
    dim = max(64, fockbench.default_dim(state, fockbench.DIM_CAP))
    for tau in (0.0, 0.23 * PERIOD, 0.61 * PERIOD):
        exact = interference.autocorrelation_quantum(state, COUPLING, MODE, [tau]).values[0]
        window = verify.gamma_window_oracle(state, COUPLING, MODE, tau, dim)
        assert abs(exact - window) <= 1e-6


def _window_node_loop(state, coupling, tau, dim):
    """Reference for verify.gamma_window_oracle: the trapezoid as a loop over
    its nodes, two dense intensity operators and their product per node."""
    q, w = coupling.q, MODE.omega
    rho = fockbench.density_matrix(state, dim)
    ts = np.arange(verify.WINDOW_POINTS) / verify.WINDOW_POINTS * (2.0 * math.pi / w)
    total = 0j
    for t in ts:
        op1 = verify.intensity_operator(dim, q, w, 0.0, t)
        op2 = verify.intensity_operator(dim, q, w, 0.0, t + tau)
        total += fockbench.expectation(rho, op1 @ op2)
    return total / verify.WINDOW_POINTS


@pytest.mark.parametrize("dim", [48, 100])  # 100 is above WINDOW_POINTS
@pytest.mark.parametrize(
    "state",
    [CoherentState(0.7 + 0.4j), SqueezedState(0.4, 1.1, 0.3), ThermalState(0.5), NumberState(3)],
)
def test_window_oracle_equals_the_node_loop(state, dim):
    lags = np.array([-0.37, 0.123, 1.7]) * PERIOD
    got = verify.gamma_window_oracle(state, COUPLING, MODE, lags, dim)
    ref = np.array([_window_node_loop(state, COUPLING, tau, dim) for tau in lags])
    scale = abs(_window_node_loop(state, COUPLING, 0.0, dim))
    assert got.shape == lags.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    assert isinstance(verify.gamma_window_oracle(state, COUPLING, MODE, lags[1], dim), complex)


def test_window_oracle_keeps_the_node_aliasing():
    # At dim 120 the node mean of e^{-i omega t (m-n)} is 1 at |m - n| = 96;
    # a wide squeezed state under a strong coupling reaches those entries, so
    # weighting rho by delta_mn instead misses the node loop by about 3e-5.
    coupling, state, dim, tau = ChargeCoupling(4.0), SqueezedState(0j, 3.0), 120, 0.2 * PERIOD
    ref = _window_node_loop(state, coupling, tau, dim)
    assert abs(verify.gamma_window_oracle(state, coupling, MODE, tau, dim) - ref) <= 1e-13 * abs(ref)
    rho_diag = np.diag(np.diag(fockbench.density_matrix(state, dim)))
    ops = [verify.intensity_operator(dim, coupling.q, MODE.omega, 0.0, t) for t in (0.0, tau)]
    assert abs(fockbench.expectation(rho_diag, ops[0] @ ops[1]) - ref) >= 1e-6


def test_window_oracle_builds_one_displacement_per_lag(monkeypatch):
    builds = []
    build = fockbench.displacement_matrix

    def counted(z, dim):
        builds.append(z)
        return build(z, dim)

    monkeypatch.setattr(fockbench, "displacement_matrix", counted)
    verify.gamma_window_oracle(NumberState(2), COUPLING, MODE, np.array([0.0, 0.31, 0.62]) * PERIOD, 48)
    assert 0 < len(builds) <= 1 + 3


def test_quantum_gamma_properties_and_number_im():
    taus = np.arange(64) / 64.0 * 2.0 * PERIOD
    st = NumberState(17)
    series = interference.autocorrelation_quantum(st, COUPLING, MODE, taus)
    neg = interference.autocorrelation_quantum(st, COUPLING, MODE, -taus)
    assert np.max(np.abs(neg.values - series.values.conj())) <= 1e-12
    assert series.gamma0 >= 0.0
    assert np.max(np.abs(series.values)) <= series.gamma0 * (1.0 + 1e-12)
    gamma = interference.normalized_gamma(series)
    assert np.max(np.abs(gamma.values)) <= 1.0 + 1e-12
    assert abs(gamma.values[0] - 1.0) <= 1e-14
    assert np.max(np.abs(gamma.values.imag)) >= 1e-4


def _four_quadrant_gamma(state, coupling, mode, taus):
    """(Gamma at taus, Gamma(0)) summed as the operator expansion writes it:
    both single displacements and all four sign quadrants (sa, sb), each its
    own time average."""
    q = coupling.q
    lags = np.append(np.asarray(taus, dtype=float), 0.0)
    e, s = np.exp(1j * mode.omega * lags), np.sin(mode.omega * lags)
    singles = (weyl_time_average(state, q) + weyl_time_average(state, -q)).real
    quad = 0j
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            quad += np.exp(-1j * sa * sb * q * q * s) * weyl_time_average(state, q * (sa + sb * e))
    vals = 1.0 + singles + 0.25 * quad
    return vals[:-1], vals[-1].real


_AMP = st.builds(cmath.rect, st.floats(0.01, 4.0), st.floats(-math.pi, math.pi))
_MATCHED = matched_states()
_GAMMA_STATES = {
    "number": st.builds(NumberState, st.integers(0, 30)),
    "coherent": st.builds(CoherentState, _AMP),
    "squeezed": st.builds(SqueezedState, _AMP, st.floats(0.01, 4.2), st.floats(-math.pi, math.pi)),
    "thermal": st.builds(ThermalState, st.floats(0.05, 5.0)),
}
# whole 64ths of a period hit omega tau = 0 and pi, where an argument
# q (1 +- e^{i omega tau}) is 1e-16 q rather than 0
_LAGS = st.lists(st.integers(-128, 128).map(lambda j: j / 64.0 * PERIOD)
                 | st.floats(-2.0 * PERIOD, 2.0 * PERIOD), min_size=1, max_size=8)


@pytest.mark.parametrize("family", sorted(_GAMMA_STATES))
@given(data=st.data(), q=st.floats(0.01, 1.0), taus=_LAGS)
def test_quantum_gamma_equals_the_four_quadrant_expansion(family, data, q, taus):
    # Wbar(-c) = Wbar(c) folds the quadrant (sa, sb) onto (-sa, -sb); worst
    # seen 5.8e-16 Gamma(0) in 1,000 examples per family.  The squeezed
    # reference is NaN where a 1e-16 q argument puts the Bessel I argument
    # below the Miller recurrence's floor (the known defect); such lags are
    # skipped, but their NaN must stay where it is
    state = data.draw(st.just(_MATCHED[family]) | _GAMMA_STATES[family])
    coupling = ChargeCoupling(q)
    series = interference.autocorrelation_quantum(state, coupling, MODE, taus)
    ref, ref0 = _four_quadrant_gamma(state, coupling, MODE, taus)
    assert np.array_equal(np.isnan(series.values), np.isnan(ref))
    live = ~np.isnan(ref)
    assert abs(series.gamma0 - ref0) <= 1e-14 * ref0
    assert np.max(np.abs(series.values[live] - ref[live]), initial=0.0) <= 1e-14 * ref0


def test_quantum_gamma_takes_one_time_average_over_distinct_radii(monkeypatch):
    calls = []

    def counted(state, c, k=0):
        calls.append(np.array(c))
        return weyl_time_average(state, c, k)

    monkeypatch.setattr(interference, "weyl_time_average", counted)
    taus = np.arange(8) / 8.0 * PERIOD
    interference.autocorrelation_quantum(_MATCHED["squeezed"], COUPLING, MODE, taus)
    assert len(calls) == 1
    (radii,) = calls
    assert radii.dtype == float and radii.ndim == 1
    assert radii[0] >= 0.0 and np.all(np.diff(radii) > 0.0)
    # q and q (1 +- e^{i omega tau}) over the 8 lags and lag 0, which
    # repeats tau = 0: at most 2 * 8 + 1 distinct radii of 19 arguments
    assert len(radii) <= 17


def _fig7_series(monkeypatch, overrides=None):
    """The five Gamma series fig7 hands to spectral_density, in column order."""
    seen = []
    density = interference.spectral_density

    def captured(series, *args):
        seen.append(series)
        return density(series, *args)

    monkeypatch.setattr(interference, "spectral_density", captured)
    experiments.run_experiment("fig7", overrides)
    return seen


@pytest.mark.parametrize("n", [2, 3, 4095, 4096])
def test_fig7_folded_gamma_equals_the_full_period_evaluation(monkeypatch, n):
    # fig7 evaluates lags 0 .. n // 2 and takes the rest from
    # Gamma(T - tau) = Gamma(tau)*; against every lag evaluated directly the
    # worst move is 7.1e-15 absolute, 3.6e-15 Gamma(0) (number state, n = 4096)
    p = experiments.EXPERIMENTS["fig7"].defaults
    mode = ModeParams(p["omega"])
    taus = np.arange(n) / n * (2.0 * math.pi / mode.omega)
    direct = [
        interference.autocorrelation_classical(p["classical_e_phi1"], mode.omega, taus),
        *(interference.autocorrelation_quantum(s, ChargeCoupling(p["q"]), mode, taus)
          for s in matched_states(p["mean_photons"], p["squeezing_r"]).values()),
    ]
    folded = _fig7_series(monkeypatch, {"spectral_samples": n})
    assert len(folded) == len(direct) == 5
    for f, d in zip(folded, direct):
        assert np.array_equal(f.taus, d.taus) and f.gamma0 == d.gamma0
        # the squeezed tiny-argument NaN at omega tau = pi stays where it was
        assert np.array_equal(np.isnan(f.values), np.isnan(d.values))
        finite = ~np.isnan(d.values)
        assert np.max(np.abs(f.values[finite] - d.values[finite])) <= 1e-14 * d.gamma0


def test_fig7_takes_one_time_average_per_state_over_the_half_period(monkeypatch):
    calls = []

    def counted(state, c, k=0):
        calls.append(len(c))
        return weyl_time_average(state, c, k)

    monkeypatch.setattr(interference, "weyl_time_average", counted)
    experiments.run_experiment("fig7")
    n = experiments.EXPERIMENTS["fig7"].defaults["spectral_samples"]
    # q and q (1 +- e^{i omega tau}) over lags 0 .. n // 2: at most
    # 2 (n // 2 + 1) + 1 radii (3,328 for the squeezed state; every lag of
    # the period gave it 5,834)
    assert len(calls) == 4
    assert max(calls) <= 2 * (n // 2 + 1) + 1


def test_normalized_gamma_rejects_degenerate():
    series = interference.CorrelationSeries(np.array([0.0]), np.array([0j]), 0.0)
    with pytest.raises(ValueError):
        interference.normalized_gamma(series)


# ---------------------------------------------------------------------------
# spectral density

def test_classical_spectral_density_exact_and_quadrature():
    # the FFT of Gamma_cl sampled over one period of Omega = 2 omega against
    # its exact coefficients, (1 + J_0)^2 at K = 0 and J_{2K}^2 at +-K
    e_phi1 = math.sqrt(34.0)
    kmax = 24
    n = 4096
    taus = np.arange(n) / n * (2.0 * math.pi / (2.0 * MODE.omega))
    sampled = interference.autocorrelation_classical(e_phi1, MODE.omega, taus)
    spec = interference.spectral_density(sampled, 2.0 * MODE.omega, kmax)
    j0 = sp.jv(0, e_phi1)
    assert spec.values[kmax] == pytest.approx((1.0 + j0) ** 2, rel=1e-12)
    for k in range(1, kmax + 1):
        ref = sp.jv(2 * k, e_phi1) ** 2
        assert spec.values[kmax + k] == pytest.approx(ref, abs=1e-14)
        assert abs(spec.values[kmax - k] - spec.values[kmax + k]) <= 1e-15


_SPECTRUM = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=21, max_size=21)


@given(m=st.integers(32, 256), kmax=st.integers(0, 21), coeffs=_SPECTRUM)
def test_spectral_density_returns_the_coefficients_of_a_sampled_series(m, kmax, coeffs):
    # A nonnegative spectrum on |K| <= 10, as an autocorrelation has, each
    # coefficient 0 or in [1e-3, 1], sampled on m uniform lags over one
    # period: the FFT returns its coefficients, and 0 outside the band
    # (kmax <= m - 11 keeps the band from aliasing into the returned K).
    # Worst seen 2.6e-15 of max |c_K| over 5,000 random draws, bound 1e-14.
    series = HarmonicSeries(MODE.omega, {k: complex(c) for k, c in zip(range(-10, 11), coeffs)})
    taus = np.arange(m) / m * PERIOD
    sampled = interference.CorrelationSeries(taus, series.evaluate(taus), series.evaluate(0.0).real)
    spec = interference.spectral_density(sampled, MODE.omega, kmax)
    want = [series.coeffs.get(k, 0j).real for k in range(-kmax, kmax + 1)]
    assert spec.k.tolist() == list(range(-kmax, kmax + 1))
    assert np.max(np.abs(spec.values - want)) <= 1e-14 * max(coeffs)


def test_quantum_spectral_asymmetry_and_reconstruction():
    st = NumberState(17)
    kmax = 40
    n = 4096
    taus = np.arange(n) / n * PERIOD
    series = interference.autocorrelation_quantum(st, COUPLING, MODE, taus)
    spec = interference.spectral_density(series, MODE.omega, kmax)
    asym = max(
        abs(spec.values[kmax + k] - spec.values[kmax - k]) for k in range(1, kmax + 1)
    )
    assert asym >= 1e-4  # a complex Gamma shows up as spectral asymmetry
    recon = _reconstruct_gamma(spec, taus)
    assert np.max(np.abs(recon - series.values)) <= 1e-8 * series.gamma0


def _reconstruct_gamma(spec, taus):
    """Gamma(tau) = sum_K S_K e^{iK Omega tau}, rebuilt from its spectral
    coefficients."""
    out = np.zeros(taus.shape, dtype=complex)
    for k, s in zip(spec.k, spec.values):
        out += s * np.exp(1j * k * spec.omega * taus)
    return out


def test_spectral_quadrature_validation():
    taus = np.array([0.0, 0.3, 0.9])
    series = interference.CorrelationSeries(taus, np.ones(3, dtype=complex), 1.0)
    with pytest.raises(ValueError):
        interference.spectral_density(series, 1.0, 4)
    # one period of uniform lags, but shifted off tau = 0
    taus = (np.arange(8) + 0.5) / 8 * 2.0 * math.pi
    series = interference.CorrelationSeries(taus, np.ones(8, dtype=complex), 1.0)
    with pytest.raises(ValueError, match="start at 0"):
        interference.spectral_density(series, 1.0, 4)


def test_squeezed_vacuum_intensity_even_harmonics():
    for r in (0.5, 4.2):
        st = SqueezedState(0j, r)
        n = 512
        ts = np.arange(n) / n * PERIOD
        vals = np.array(
            [interference.intensity_quantum(st, COUPLING, MODE, 0.0, t) for t in ts]
        )
        spec = np.fft.fft(vals) / n
        odd = np.abs(spec[1::2]).max()
        assert odd <= 1e-10 * np.abs(spec).max()


def test_coherent_intensity_has_odd_harmonics_too():
    # at x = pi/2 the fringe picks up sin(2q|A| cos wt), which carries the
    # odd multiples of omega a squeezed vacuum can never produce
    st = match_mean_photons("coherent", 17.0)
    n = 512
    ts = np.arange(n) / n * PERIOD
    vals = np.array(
        [interference.intensity_quantum(st, COUPLING, MODE, math.pi / 2.0, t) for t in ts]
    )
    spec = np.fft.fft(vals) / n
    assert np.abs(spec[1::2]).max() >= 1e-3 * np.abs(spec).max()

    sq = SqueezedState(0j, 1.5)
    vals = np.array(
        [interference.intensity_quantum(sq, COUPLING, MODE, math.pi / 2.0, t) for t in ts]
    )
    spec = np.fft.fft(vals) / n
    assert np.abs(spec[1::2]).max() <= 1e-10 * np.abs(spec).max()
