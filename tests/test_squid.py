import cmath
import math

import numpy as np
import pytest
import scipy.special as sp
from scipy.optimize import brentq
from hypothesis import given
from hypothesis import strategies as st

from mesoweyl import experiments, fockbench, specfun, squid, twomode, verify
from mesoweyl.states import (
    ChargeCoupling,
    CoherentState,
    NumberState,
    SqueezedState,
    ThermalState,
    TwoModeFactorizable,
    matched_states,
)

COUPLING = ChargeCoupling(0.25)  # qprime = 0.5, the reproduction default
W1, W2 = 1.2e-4, 1.0e-4


def test_classical_current_basics():
    d = squid.SquidDrive(phase0=0.9, omega_a=2e-4, u_phase=0.0, omega1=1e-4)
    assert squid.classical_current(d, 0.0) == pytest.approx(math.sin(0.9))


def test_classical_expansion_matches_direct():
    d = squid.SquidDrive(phase0=0.7, omega_a=3e-4, u_phase=3.0, omega1=1e-4)
    for t in np.linspace(0.0, 2.0 * math.pi / d.omega1, 64, endpoint=False):
        assert squid.classical_current_expansion(d, t) == pytest.approx(
            squid.classical_current(d, t), abs=1e-10
        )


@given(
    u=st.floats(-40.0, 40.0),
    phase0=st.floats(-math.pi, math.pi),
    ratio=st.floats(-3.0, 3.0),
    ts=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8),
)
def test_classical_currents_of_a_time_array_equal_the_scalar_calls(u, phase0, ratio, ts):
    d = squid.SquidDrive(phase0=phase0, omega_a=ratio, u_phase=u, omega1=1.0)
    times = np.array(ts).reshape(-1, 1)
    for current in (squid.classical_current, squid.classical_current_expansion):
        got = current(d, times)
        assert got.shape == times.shape
        scalar = [current(d, t) for t in ts]
        assert all(type(v) is float for v in scalar)
        assert np.all(np.abs(got.ravel() - scalar) <= np.spacing(np.abs(scalar)))


def test_the_classical_check_takes_one_table_of_harmonics(monkeypatch):
    # the squid suite's classical drive, which the displaced squeezed
    # state's steps take too, so one more table; its other steps use u = 0
    drive_u = 3.0
    calls, harmonics = [], specfun.bessel_j_harmonics
    monkeypatch.setattr(specfun, "bessel_j_harmonics", lambda x: calls.append(x) or harmonics(x))
    assert verify.run_suite("squid")["passed"]
    assert calls.count(drive_u) == 2 and set(calls) == {0.0, drive_u}


@given(
    u=st.floats(-40.0, 40.0),
    phase0=st.floats(-math.pi, math.pi),
    ratio=st.floats(-3.0, 3.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_classical_expansion_matches_direct_any_sign(u, phase0, ratio, theta):
    # J_n(-u) = (-1)^n J_n(u) carries the sign of the drive amplitude
    d = squid.SquidDrive(phase0=phase0, omega_a=ratio, u_phase=u, omega1=1.0)
    assert squid.classical_current_expansion(d, theta) == pytest.approx(
        squid.classical_current(d, theta), abs=1e-10
    )


def test_classical_dc_vanishes_off_resonance():
    # omega_a = 2.5 omega1: no zero-frequency term in the expansion
    d = squid.SquidDrive(phase0=0.8, omega_a=2.5e-4, u_phase=2.0, omega1=1e-4)
    n = 4096
    ts = np.arange(n) / n * (4.0 * math.pi / (0.5 * d.omega1))  # commensurate window
    avg = np.mean([squid.classical_current(d, t) for t in ts])
    assert abs(avg) <= 1e-10


def test_classical_shapiro_examples():
    d0 = squid.SquidDrive(phase0=0.6, u_phase=0.0, omega1=1e-4)
    assert squid.classical_shapiro(d0, 0) == pytest.approx(math.sin(0.6))
    assert squid.classical_shapiro(d0, 2) == 0.0
    d1 = squid.SquidDrive(phase0=math.pi / 2.0, u_phase=2.0, omega1=1e-4)
    assert squid.classical_shapiro(d1, 1) == pytest.approx(sp.jv(-1, 2.0), rel=1e-14)


def test_classical_shapiro_matches_window_average():
    d = squid.SquidDrive(phase0=0.8, u_phase=2.0, omega1=1e-4)
    for n_step in (0, 1, 2, -1):
        res = squid.SquidDrive(
            phase0=d.phase0, omega_a=n_step * d.omega1, u_phase=d.u_phase, omega1=d.omega1
        )
        m = 4096
        ts = np.arange(m) / m * (2.0 * math.pi / d.omega1)
        avg = np.mean([squid.classical_current(res, t) for t in ts])
        assert squid.classical_shapiro(d, n_step) == pytest.approx(avg, abs=1e-10)


def test_quantum_current_number_state_closed_form():
    qp = COUPLING.qprime
    omega_a = 3.3e-4
    for n in (0, 1, 4):
        ref_amp = math.exp(-qp * qp / 2.0) * specfun.laguerre(n, 0, qp * qp)
        for t in (0.0, 1234.5, 7e3):
            got = squid.quantum_current(NumberState(n), COUPLING, omega_a, W1, t)
            assert got == pytest.approx(ref_amp * math.sin(omega_a * t), abs=1e-14)


@pytest.mark.parametrize("state", [
    NumberState(3), CoherentState(1.2 * cmath.exp(0.3j)), SqueezedState(0.5 * cmath.exp(0.2j), 1.5, 0.8),
    ThermalState(0.7),
], ids=["number", "coherent", "squeezed", "thermal"])
def test_quantum_current_of_a_time_array_equals_the_float_calls(state):
    t = np.linspace(-3.0e4, 1.0e5, 96).reshape(8, 12)
    got = squid.quantum_current(state, COUPLING, 3.3e-4, W1, t)
    assert got.shape == t.shape
    singles = [squid.quantum_current(state, COUPLING, 3.3e-4, W1, ti) for ti in t.ravel().tolist()]
    assert all(type(v) is float for v in singles)
    # the current's own arithmetic is the same per element, so a coherent,
    # squeezed or thermal state's are within 1 ulp (bit-equal on x86-64,
    # numpy 2.4, here and at 2 x 4,000 random times); the number state's
    # Weyl function rounds its 0-d and array arguments apart
    # (specfun.scaled_laguerre takes math.exp for one and np.exp for the
    # other), by up to 2.8e-16 over 4,000 random times, and |I / I_c| <= 1
    bound = 2 * np.finfo(float).eps if isinstance(state, NumberState) else 0.0
    assert np.all(np.abs(got.ravel() - singles) <= np.maximum(np.spacing(np.abs(singles)), bound))


def test_quantum_current_thermal_scaling():
    qp = COUPLING.qprime
    st = ThermalState(1.0)
    scale = math.exp(-qp * qp / 2.0 / math.tanh(0.5))
    for t in (0.0, 3e3):
        got = squid.quantum_current(st, COUPLING, 2e-4, W1, t)
        assert got == pytest.approx(scale * math.sin(2e-4 * t), abs=1e-14)


def test_quantum_current_vacuum_and_matrix_oracle():
    qp = COUPLING.qprime
    st = NumberState(0)
    dim = 48
    for t in (0.0, 2.0e3, 1.1e4):
        got = squid.quantum_current(st, COUPLING, 2e-4, W1, t)
        ref = math.exp(-qp * qp / 2.0) * math.sin(2e-4 * t)
        assert got == pytest.approx(ref, abs=1e-14)
        rho = fockbench.density_matrix(st, dim)
        op = fockbench.sin_phase_operator(dim, qp, W1, 2e-4, t)
        assert got == pytest.approx(fockbench.expectation(rho, op).real, abs=1e-12)


def test_quantum_current_classical_limit():
    # coherent drive at vanishing coupling approaches the classical current
    qp_small = ChargeCoupling(0.5e-4)  # qprime = 1e-4
    amp = 3.0
    st = CoherentState(amp * cmath.exp(1j * math.pi / 2.0))
    d = squid.SquidDrive(
        phase0=0.0, omega_a=2e-4, u_phase=2.0 * qp_small.qprime * amp, omega1=W1
    )
    worst = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi / W1, 64):
        quantum = squid.quantum_current(st, qp_small, d.omega_a, W1, t)
        classical = squid.classical_current(d, t)
        worst = max(worst, abs(quantum - classical))
    assert worst <= 1e-6


def test_quantum_shapiro_coherent_rescales_every_step():
    u = 2.0
    base = squid.SquidDrive(phase0=0.7, u_phase=0.0, omega1=1e-4)
    ref = squid.SquidDrive(phase0=0.7, u_phase=u, omega1=1e-4)
    st = CoherentState(u / (2.0 * COUPLING.qprime) * cmath.exp(1j * math.pi / 2.0))
    scale = math.exp(-COUPLING.qprime ** 2 / 2.0)
    for n in range(-3, 4):
        got = squid.quantum_shapiro(st, base, n, COUPLING)
        assert got == pytest.approx(scale * squid.classical_shapiro(ref, n), abs=1e-10)


@given(u=st.integers(0, 400).map(lambda i: i * 0.01), n=st.integers(-4, 4),
       phase0=st.floats(-math.pi, math.pi))
def test_quantum_shapiro_phase_matched_coherent_state_is_the_classical_step(u, n, phase0):
    # amplitude u / (2 q') at arg A = pi/2 makes the Weyl harmonics
    # e^{-q'^2/2} J_k(u), the classical drive's own
    base = squid.SquidDrive(phase0=phase0, u_phase=0.0, omega1=1e-4)
    ref = squid.SquidDrive(phase0=phase0, u_phase=u, omega1=1e-4)
    state = CoherentState(u / (2.0 * COUPLING.qprime) * cmath.exp(1j * math.pi / 2.0))
    scale = math.exp(-COUPLING.qprime ** 2 / 2.0)
    got = squid.quantum_shapiro(state, base, n, COUPLING)
    assert got == pytest.approx(scale * squid.classical_shapiro(ref, n), abs=1e-14)


def test_quantum_shapiro_vacuum_rescales_classical_drive():
    d = squid.SquidDrive(phase0=0.5, u_phase=1.7, omega1=1e-4)
    scale = math.exp(-COUPLING.qprime ** 2 / 2.0)
    for n in (-2, 0, 1, 3):
        got = squid.quantum_shapiro(NumberState(0), d, n, COUPLING)
        assert got == pytest.approx(scale * squid.classical_shapiro(d, n), abs=1e-12)


@pytest.mark.parametrize("r", [0.5, 2.0, 4.2])
def test_quantum_shapiro_squeezed_vacuum_parity(r):
    st = SqueezedState(0j, r)
    d = squid.SquidDrive(phase0=math.pi / 2.0, u_phase=0.0, omega1=1e-4)
    for n in (1, 3, 5, -1, -3):
        assert abs(squid.quantum_shapiro(st, d, n, COUPLING)) <= 1e-10
    assert max(abs(squid.quantum_shapiro(st, d, n, COUPLING)) for n in (2, 4)) >= 1e-4


@pytest.mark.parametrize("state, u", [
    (CoherentState(1.3 * cmath.exp(0.4j)), 1.7),
    (matched_states()["squeezed"], 3.0),
], ids=["coherent", "squeezed-4.2"])
def test_quantum_shapiro_over_an_array_of_steps_equals_the_int_calls(state, u):
    # one time-average call over every (step, j) pair; both were bit-equal
    # to the int calls on x86-64
    d = squid.SquidDrive(phase0=0.7, u_phase=u, omega1=1e-4)
    steps = np.array([-4, -1, 0, 0, 2, 3, 7])
    one = [squid.quantum_shapiro(state, d, n, COUPLING) for n in steps.tolist()]
    assert all(type(v) is float for v in one)
    got = squid.quantum_shapiro(state, d, steps, COUPLING)
    assert got.shape == steps.shape and got.dtype == float
    assert np.max(np.abs(got - one)) <= 1e-15
    column = squid.quantum_shapiro(state, d, steps[:, None], COUPLING)
    assert np.array_equal(column[:, 0], got)
    assert squid.quantum_shapiro(state, d, steps[:0], COUPLING).shape == (0,)


@pytest.mark.parametrize("state", [NumberState(2), CoherentState(0.5j), SqueezedState(0j, 1.0),
                                   ThermalState(0.7)], ids=lambda s: type(s).__name__)
def test_quantum_shapiro_refuses_a_non_integral_step(state):
    # a TypeError from the harmonic sum, before the step was checked
    d = squid.SquidDrive(phase0=0.7, u_phase=1.0, omega1=1e-4)
    for n in (1.5, np.array([2, 0.5])):
        with pytest.raises(ValueError, match="Shapiro step n_step must be an integer"):
            squid.quantum_shapiro(state, d, n, COUPLING)


def test_a_squeezed_step_under_a_classical_drive_makes_one_bessel_i_table(monkeypatch):
    # every harmonic of the step shares one Miller pass: 45 when each of the
    # drive's Bessel harmonics at u = 3 made its own
    calls, real = [], specfun.bessel_ive_all
    monkeypatch.setattr(specfun, "bessel_ive_all", lambda *args: calls.append(1) or real(*args))
    d = squid.SquidDrive(phase0=0.7, u_phase=3.0, omega1=1e-4)
    squid.quantum_shapiro(matched_states()["squeezed"], d, 2, COUPLING)
    assert len(calls) == 1


def test_quantum_shapiro_squeezed_matches_matrix_average():
    st = SqueezedState(0j, 1.5)
    d = squid.SquidDrive(phase0=math.pi / 2.0, u_phase=0.0, omega1=1e-4)
    dim = 64
    rho = fockbench.density_matrix(st, dim)
    for n_step in (0, 2, 3):
        m = 512
        ts = np.arange(m) / m * (2.0 * math.pi / d.omega1)
        vals = [
            fockbench.expectation(
                rho, fockbench.sin_phase_operator(dim, COUPLING.qprime, d.omega1, n_step * d.omega1, t)
            ).real
            * math.cos(d.phase0)
            + fockbench.expectation(
                rho,
                _cos_phase_operator(dim, COUPLING.qprime, d.omega1, n_step * d.omega1, t),
            ).real
            * math.sin(d.phase0)
            for t in ts
        ]
        assert squid.quantum_shapiro(st, d, n_step, COUPLING) == pytest.approx(
            float(np.mean(vals)), abs=1e-10
        )


def _cos_phase_operator(dim, qp, omega_mw, omega_ramp, t):
    d = fockbench.displacement_matrix(1j * qp * cmath.exp(1j * omega_mw * t), dim)
    ph = cmath.exp(1j * omega_ramp * t)
    return (ph * d + np.conj(ph) * d.conj().T) / 2.0


# ---------------------------------------------------------------------------
# two distant rings

def test_two_squid_number_moments_against_oracle():
    ts = (np.arange(16) + 0.5) / 16.0 * 2.0 * math.pi / abs(W1 - W2)
    for entangled in (False, True):
        state2 = twomode.number_pair_crossed(1, 3, entangled)
        for t in ts:
            mom = squid.two_squid_currents_number(1, 3, entangled, COUPLING, W1, W2, W1, W2, float(t))
            oracle = fockbench.two_squid_moments(
                state2, COUPLING.qprime, W1, W2, W1, W2, float(t)
            )
            scale = max(abs(v) for v in oracle)
            worst = max(abs(a - b) for a, b in zip(mom, oracle))
            assert worst <= 1e-8 * scale


def test_two_squid_first_moments_independent_of_microwave_frequency():
    t = 1.7e4
    a = squid.two_squid_currents_number(1, 3, False, COUPLING, 2e-4, 3e-4, W1, W2, t)
    b = squid.two_squid_currents_number(1, 3, False, COUPLING, 2e-4, 3e-4, 9e-4, 5e-4, t)
    assert a.ia == b.ia and a.ib == b.ib and a.ia2 == b.ia2


def test_cross_term_frequency_set():
    freqs = squid.cross_term_frequencies(1, 3, W1, W2, W1, W2)
    omega_big = (1 - 3) * (W1 - W2)
    assert abs(omega_big) == pytest.approx(4e-5)
    expected = sorted(
        {
            abs(W1 + W2 + omega_big), abs(W1 + W2 - omega_big),
            abs(W1 - W2 + omega_big), abs(W1 - W2 - omega_big),
        }
    )
    assert freqs == expected


def test_cross_term_spectrum_is_exactly_on_predicted_lines():
    # sample the entangled-minus-separable product difference over a
    # commensurate window; power must sit only on |wa +- wb +- Omega|
    base = 2.0e-5  # gcd of all frequencies involved
    n = 1024
    ts = np.arange(n) / n * (2.0 * math.pi / base)
    diff = np.array(
        [
            squid.two_squid_currents_number(1, 3, True, COUPLING, W1, W2, W1, W2, t).ia_ib
            - squid.two_squid_currents_number(1, 3, False, COUPLING, W1, W2, W1, W2, t).ia_ib
            for t in ts
        ]
    )
    spec = np.abs(np.fft.fft(diff) / n)
    live = {k for k in range(n // 2 + 1) if spec[k] > 1e-12 * spec.max()}
    predicted = {
        int(round(f / base)) for f in squid.cross_term_frequencies(1, 3, W1, W2, W1, W2)
    }
    assert live == predicted


SIXTEEN_TIMES = (np.arange(16) + 0.5) / 16.0 * 2.0 * math.pi / abs(W1 - W2)


def test_coherent_first_moment_closed_forms_sixteen_times():
    a1, a2 = 1.0, math.sqrt(3.0)
    dim = 64
    eye = np.eye(dim, dtype=complex)
    for entangled in (False, True):
        pair = twomode.coherent_pair_entangled if entangled else twomode.coherent_pair_separable
        state2 = pair(a1, a2)
        for t in SIXTEEN_TIMES:
            t = float(t)
            mom = squid.two_squid_currents_coherent(a1, a2, entangled, COUPLING, W1, W2, W1, W2, t)
            op_a = fockbench.sin_phase_operator(dim, COUPLING.qprime, W1, W1, t)
            op_b = fockbench.sin_phase_operator(dim, COUPLING.qprime, W2, W2, t)
            oracle_a = fockbench.two_mode_expectation(state2, op_a, eye).real
            oracle_b = fockbench.two_mode_expectation(state2, eye, op_b).real
            assert abs(mom.ia - oracle_a) <= 1e-8 * max(1.0, abs(oracle_a))
            assert abs(mom.ib - oracle_b) <= 1e-8 * max(1.0, abs(oracle_b))


def test_two_squid_coherent_against_oracle_and_degeneracy():
    for a1, a2 in ((1.0, math.sqrt(3.0)), (0.7 + 0.4j, -1.1 + 0.2j)):
        for entangled in (False, True):
            pair = twomode.coherent_pair_entangled if entangled else twomode.coherent_pair_separable
            state2 = pair(a1, a2)
            for t in SIXTEEN_TIMES:
                mom = squid.two_squid_currents_coherent(
                    a1, a2, entangled, COUPLING, W1, W2, W1, W2, float(t)
                )
                oracle = fockbench.two_squid_moments(
                    state2, COUPLING.qprime, W1, W2, W1, W2, float(t)
                )
                for name in squid.TwoSquidMoments._fields:
                    assert getattr(mom, name) == pytest.approx(getattr(oracle, name), abs=1e-12)
    # equal amplitudes: the superposition collapses to a product state
    a1, t = 1.0, float(SIXTEEN_TIMES[4])
    ent = squid.two_squid_currents_coherent(a1, a1, True, COUPLING, W1, W2, W1, W2, t)
    sep = squid.two_squid_currents_coherent(a1, a1, False, COUPLING, W1, W2, W1, W2, t)
    assert ent.ia == pytest.approx(sep.ia, abs=1e-12)
    assert squid.ratio_c(ent) == pytest.approx(1.0, abs=1e-10)
    assert squid.ratio_c2(ent) == pytest.approx(1.0, abs=1e-10)


def _coherent_moments_mp(mpmath, a1, a2, entangled, qp, wa, wb, w1, w2, t):
    """The six moments of the swapped coherent pair at one float time t, as
    Re sum_jk a_j b_k W2(j sigma_A, k sigma_B) in 50-digit mpmath, from the
    coherent matrix elements <b|D(z)|a> = e^{(z a* - z* a)/2} <b|a + z>."""
    with mpmath.workdps(50):
        a1, a2 = mpmath.mpc(a1), mpmath.mpc(a2)
        qp, wa, wb, w1, w2, t = (mpmath.mpf(v) for v in (qp, wa, wb, w1, w2, t))
        conj = mpmath.conj

        def element(b, z, a):
            c = a + z
            return mpmath.exp((z * conj(a) - conj(z) * a) / 2
                              - abs(b) ** 2 / 2 - abs(c) ** 2 / 2 + conj(b) * c)

        if entangled:
            norm = (2 + 2 * mpmath.exp(-abs(a1 - a2) ** 2)) ** -0.5
            kets = ((norm, a1, a2), (norm, a2, a1))

            def pair_weyl(z1, z2):
                return sum(ck * conj(cl) * element(va, z1, ua) * element(vb, z2, ub)
                           for ck, ua, ub in kets for cl, va, vb in kets)
        else:
            def pair_weyl(z1, z2):
                return sum(element(sa, z1, sa) * element(sb, z2, sb)
                           for sa, sb in ((a1, a2), (a2, a1))) / 2

        def sin_terms(omega, power):
            e = mpmath.expj(omega * t)
            if power == 1:
                return {1: e / 2j, -1: -conj(e) / 2j}
            return {0: mpmath.mpf(1) / 2, 2: -e * e / 4, -2: -conj(e * e) / 4}

        sig_a = 1j * qp * mpmath.expj(w1 * t)
        sig_b = 1j * qp * mpmath.expj(w2 * t)
        one = {0: mpmath.mpf(1)}
        sin_a, sin2_a = sin_terms(wa, 1), sin_terms(wa, 2)
        sin_b, sin2_b = sin_terms(wb, 1), sin_terms(wb, 2)
        return [
            float(mpmath.re(sum(ca * cb * pair_weyl(j * sig_a, k * sig_b)
                                for j, ca in terms_a.items() for k, cb in terms_b.items())))
            for terms_a, terms_b in ((sin_a, one), (one, sin_b), (sin2_a, one), (one, sin2_b),
                                     (sin_a, sin_b), (sin2_a, sin2_b))
        ]


def test_two_squid_coherent_matches_an_mpmath_reference():
    # fig14's shipped times: 17 spread over the window plus rows 99, 227 and
    # 253, which sit next to the ratio poles.  The worst error measured was
    # 1.1e-14, set by the rounding of omega t in double precision.
    mpmath = pytest.importorskip("mpmath")
    p = experiments.EXPERIMENTS["fig14"].defaults
    coupling = ChargeCoupling(p["qprime"] / 2.0)
    omegas = (p["omega_a"], p["omega_b"], p["omega_1"], p["omega_2"])
    times = np.linspace(0.0, p["periods"] * 2.0 * math.pi, p["samples"]) / (
        p["omega_1"] - p["omega_2"])
    rows = sorted({*range(0, p["samples"], 16), 99, 227, 253})
    for entangled in (False, True):
        got = squid.two_squid_currents_coherent(
            p["a1"], p["a2"], entangled, coupling, *omegas, times[rows])
        for i, row in enumerate(rows):
            ref = _coherent_moments_mp(mpmath, p["a1"], p["a2"], entangled, coupling.qprime,
                                       *omegas, float(times[row]))
            assert np.max(np.abs(np.array(got)[:, i] - ref)) <= 5e-14


def _number_pair_closed_forms(n1, n2, entangled, coupling, omega_a, omega_b, omega1, omega2, t):
    """The swapped number pair's six moments in Laguerre closed form: the
    separable moments depend only on the occupations, and entanglement adds
    a cross term oscillating at Omega = (n1 - n2)(omega1 - omega2)."""
    qp2 = coupling.qprime ** 2
    l1 = specfun.laguerre(n1, 0, qp2)
    l2 = specfun.laguerre(n2, 0, qp2)
    l1_4 = specfun.laguerre(n1, 0, 4.0 * qp2)
    l2_4 = specfun.laguerre(n2, 0, 4.0 * qp2)
    c0 = 0.5 * math.exp(-qp2 / 2.0) * (l1 + l2)
    c1 = 0.5 * math.exp(-2.0 * qp2) * (l1_4 + l2_4)
    c2 = math.exp(-qp2) * l1 * l2
    d2 = math.exp(-4.0 * qp2) * l1_4 * l2_4

    ia = c0 * np.sin(omega_a * t)
    ib = c0 * np.sin(omega_b * t)
    ia2 = 0.5 * (1.0 - c1 * np.cos(2.0 * omega_a * t))
    ib2 = 0.5 * (1.0 - c1 * np.cos(2.0 * omega_b * t))
    ia_ib = c2 * np.sin(omega_a * t) * np.sin(omega_b * t)
    ia2_ib2 = 0.25 * (
        1.0
        - c1 * np.cos(2.0 * omega_a * t)
        - c1 * np.cos(2.0 * omega_b * t)
        + d2 * np.cos(2.0 * omega_a * t) * np.cos(2.0 * omega_b * t)
    )

    if entangled and n1 != n2:
        d = n1 - n2
        omega_big = d * (omega1 - omega2)
        c3 = 0.5 * math.exp(-qp2) * specfun.laguerre(n1, n2 - n1, qp2) * specfun.laguerre(n2, n1 - n2, qp2)
        parity = -1.0 if d & 1 else 1.0
        ia_ib = ia_ib - c3 * (
            np.cos((omega_a + omega_b) * t) - parity * np.cos((omega_a - omega_b) * t)
        ) * np.cos(omega_big * t)
        g3 = 0.5 * math.exp(-4.0 * qp2) * specfun.laguerre(n1, n2 - n1, 4.0 * qp2) * specfun.laguerre(n2, n1 - n2, 4.0 * qp2)
        ia2_ib2 = ia2_ib2 + 0.25 * g3 * (
            np.cos(2.0 * (omega_a + omega_b) * t) + parity * np.cos(2.0 * (omega_a - omega_b) * t)
        ) * np.cos(omega_big * t)

    return squid.TwoSquidMoments(ia, ib, ia2, ib2, ia_ib, ia2_ib2)


@pytest.mark.parametrize("entangled", [False, True])
@given(
    n1=st.integers(0, 4),
    n2=st.integers(0, 4),
    qprime=st.floats(0.1, 1.5),
    t=st.lists(st.floats(0.0, 2.0 * math.pi / (W1 - W2)), min_size=1, max_size=4),
)
def test_number_pair_closed_forms_equal_the_displacement_route(entangled, n1, n2, qprime, t):
    # the production route, shared with the coherent pair, against the
    # Laguerre closed forms; unlike the shipped (1, 3) at q' = 0.5, most
    # draws have every Laguerre factor nonzero.  2.5e-15 (entangled, (1, 4)
    # at q' = 1.31) was the worst over 4,000 random examples
    coupling, t = ChargeCoupling(qprime / 2.0), np.array(t)
    closed = _number_pair_closed_forms(n1, n2, entangled, coupling, W1, W2, W1, W2, t)
    route = squid.two_squid_currents_number(n1, n2, entangled, coupling, W1, W2, W1, W2, t)
    assert np.max(np.abs(np.array(closed) - np.array(route))) <= 1e-14


def test_a_two_ring_pass_builds_one_element_table_per_mode_and_pair(monkeypatch):
    # figs 14-18 at 17 phase points make 9 coherent-pair and 4 number-pair
    # moment calls, each table holding only the orders its figure reads:
    # order 1 for fig14/15/17, 2 for fig18, 1 and 2 on mode A for fig16.  Each
    # of the 7 separable calls takes 4 Weyl values (28), and each of the 4
    # entangled coherent and 2 entangled number calls 16 elements (4 pairs of
    # components x 4 values: a scalar order-0 overlap per mode and one order
    # per mode, or two on mode A), so 64 coherent and 32 number elements.
    # 96 coherent elements and 40 Weyl values when every table held orders 0,
    # 1 and 2 and the number pair had closed forms; 320, 200 and 90 when every
    # (j, k) term was its own two_mode_weyl call
    counts = {"coherent_displacement_element": 0, "number_displacement_element": 0, "weyl": 0,
              "two_mode_weyl": 0}
    for name in counts:
        def counted(*args, name=name, real=getattr(twomode, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(twomode, name, counted)
    for fig in ("fig14", "fig15", "fig16", "fig17", "fig18"):
        experiments.run_experiment(fig, {"samples": 17})
    assert counts["coherent_displacement_element"] <= 64
    assert counts["number_displacement_element"] <= 32
    assert counts["weyl"] <= 28
    assert counts["two_mode_weyl"] == 0


def test_ratio_factorizable_unity():
    state2 = TwoModeFactorizable(CoherentState(1.0), CoherentState(0.8 + 0.4j))
    t = 0.3 / W1
    mom = fockbench.two_squid_moments(state2, COUPLING.qprime, W1, W2, W1, W2, t)
    assert squid.ratio_c(mom) == pytest.approx(1.0, abs=1e-12)
    assert squid.ratio_c2(mom) == pytest.approx(1.0, abs=1e-12)


# Array times give each moment element by element.  Both pairs' moments may
# differ from one call per time by a few ulp (4.4e-16 measured over these
# times for the coherent pair, 2.2e-16 for the number pair), because numpy's
# vectorized exp and sin round differently from its one-element loops.
ARRAY_T = np.linspace(-3.0e5, 3.0e5, 61)


@pytest.mark.parametrize("entangled", [False, True])
@pytest.mark.parametrize("pair", [
    (squid.two_squid_currents_number, 1, 3, 1e-15),
    (squid.two_squid_currents_number, 1, 2, 1e-15),
    (squid.two_squid_currents_coherent, 1.0, math.sqrt(3.0), 1e-15),
    (squid.two_squid_currents_coherent, 0.7 + 0.2j, -0.4j, 1e-15),
])
def test_two_squid_moments_take_time_arrays(pair, entangled):
    moments, x1, x2, bound = pair
    got = moments(x1, x2, entangled, COUPLING, W1, W2, W1, W2, ARRAY_T)
    one = [moments(x1, x2, entangled, COUPLING, W1, W2, W1, W2, float(t)) for t in ARRAY_T]
    for k, field in enumerate(got):
        assert field.shape == ARRAY_T.shape
        assert np.max(np.abs(field - [m[k] for m in one])) <= bound


@pytest.mark.parametrize("entangled", [False, True])
@pytest.mark.parametrize("fields", [("ia", "ib", "ia_ib"), ("ia", "ia2"), ("ia_ib",), ("ia2", "ib2", "ia2_ib2")])
def test_two_ring_moments_fill_only_the_fields_asked_for(fields, entangled):
    # the figures' requests: each asked-for moment is the same float as in
    # the full call, and the rest are None
    for moments, x1, x2 in ((squid.two_squid_currents_number, 1, 3),
                            (squid.two_squid_currents_coherent, 1.0, math.sqrt(3.0))):
        full = moments(x1, x2, entangled, COUPLING, W1, W2, W1, W2, ARRAY_T)
        part = moments(x1, x2, entangled, COUPLING, W1, W2, W1, W2, ARRAY_T, fields)
        for name in squid.TwoSquidMoments._fields:
            if name in fields:
                assert np.array_equal(getattr(part, name), getattr(full, name))
            else:
                assert getattr(part, name) is None


@pytest.mark.parametrize("n1, n2", [(1, 3), (1, 2), (0, 5)])
def test_ratio_c_ent_number_takes_time_arrays(n1, n2):
    got = squid.ratio_c_ent_number(n1, n2, COUPLING, ARRAY_T, W1, W2, W1, W2)
    one = [squid.ratio_c_ent_number(n1, n2, COUPLING, float(t), W1, W2, W1, W2) for t in ARRAY_T]
    assert np.array_equal(got, one, equal_nan=True)


def test_ratio_c_sep_number_closed_form():
    qp2 = COUPLING.qprime ** 2
    l1 = specfun.laguerre(1, 0, qp2)
    l3 = specfun.laguerre(3, 0, qp2)
    ref = 4.0 * l1 * l3 / (l1 + l3) ** 2
    assert squid.ratio_c_sep_number(1, 3, COUPLING) == pytest.approx(ref, rel=1e-14)
    assert squid.ratio_c_sep_number(2, 2, COUPLING) == pytest.approx(1.0, rel=1e-14)
    # time independence through the generic moments
    for t in (2.0e3, 3.7e4):
        mom = squid.two_squid_currents_number(1, 3, False, COUPLING, W1, W2, W1, W2, t)
        assert squid.ratio_c(mom) == pytest.approx(ref, rel=1e-12)


def test_ratio_c_ent_number_even_difference():
    t = 2.31e4
    mom = squid.two_squid_currents_number(1, 3, True, COUPLING, W1, W2, W1, W2, t)
    got = squid.ratio_c(mom)
    ref = squid.ratio_c_ent_number(1, 3, COUPLING, t, W1, W2, W1, W2)
    assert got == pytest.approx(ref, rel=1e-12)
    # no detuning: constant in time but different from the separable value
    vals = [squid.ratio_c_ent_number(1, 3, COUPLING, t, W1, W1, W1, W2) for t in (0.0, 1e3, 5e4)]
    assert max(vals) - min(vals) <= 1e-14
    assert abs(vals[0] - squid.ratio_c_sep_number(1, 3, COUPLING)) > 1e-3


def test_ratio_c_ent_number_time_average_is_separable():
    omega_big = abs((1 - 3) * (W1 - W2))
    n = 16
    vals = [
        squid.ratio_c_ent_number(1, 3, COUPLING, k * 2.0 * math.pi / omega_big / n, W1, W2, W1, W2)
        for k in range(n)
    ]
    assert np.mean(vals) == pytest.approx(squid.ratio_c_sep_number(1, 3, COUPLING), abs=1e-10)


def test_ratio_c_ent_number_odd_difference_and_poles():
    got = squid.ratio_c_ent_number(1, 2, COUPLING, 1.9e4, W1, W2, W1, W2)
    mom = squid.two_squid_currents_number(1, 2, True, COUPLING, W1, W2, W1, W2, 1.9e4)
    assert got == pytest.approx(squid.ratio_c(mom), rel=1e-12)
    # the tan-pole at the ramp zero t = 0 reads NaN, alone or inside an array
    assert math.isnan(squid.ratio_c_ent_number(1, 2, COUPLING, 0.0, W1, W2, W1, W2))
    vals = squid.ratio_c_ent_number(1, 2, COUPLING, np.array([0.0, 1.9e4]), W1, W2, W1, W2)
    assert math.isnan(vals[0]) and vals[1] == got


@pytest.mark.parametrize("n", [0, 1, 2])
def test_ratio_c_ent_number_at_equal_occupations(n):
    # N(|n n> + |n n>) is the product |n n>: no cross term, the ratio is 1
    ts = SIXTEEN_TIMES[::4]
    got = squid.ratio_c_ent_number(n, n, COUPLING, ts, W1, W2, W1, W2)
    mom = squid.two_squid_currents_number(n, n, True, COUPLING, W1, W2, W1, W2, ts)
    assert got == pytest.approx(squid.ratio_c(mom), rel=1e-12)
    assert got == pytest.approx(np.ones_like(ts), rel=1e-12)
    state2 = twomode.number_pair_crossed(n, n, True)
    for t, value in zip(ts, got):
        oracle = fockbench.two_squid_moments(
            state2, COUPLING.qprime, W1, W2, W1, W2, float(t)
        )
        assert squid.ratio_c(oracle) == pytest.approx(value, abs=1e-8)


def test_ratio_c_singular_guard():
    mom = squid.TwoSquidMoments(0.0, 1.0, 1.0, 1.0, 0.5, 0.5)
    assert math.isnan(squid.ratio_c(mom))
    assert squid.ratio_c2(mom) == 0.5
    # a vanishing (squared) current is a pole; arrays keep the finite points
    mom = squid.TwoSquidMoments(np.array([1.0, 0.0]), 1.0, np.array([1.0, 0.0]), 1.0, 0.5, 0.5)
    assert np.array_equal(squid.ratio_c(mom), [0.5, math.nan], equal_nan=True)
    assert np.array_equal(squid.ratio_c2(mom), [0.5, math.nan], equal_nan=True)
    # L_1 + L_3 vanishes at q'^2 = 0.6447: the number ratios' pole at every t
    qp = brentq(lambda x: sp.eval_laguerre(1, x * x) + sp.eval_laguerre(3, x * x), 0.5, 1.5)
    at_pole = ChargeCoupling(qp / 2.0)
    assert math.isnan(squid.ratio_c_sep_number(1, 3, at_pole))
    assert np.isnan(squid.ratio_c_ent_number(1, 3, at_pole, np.array([0.0, 1e4]), W1, W2, W1, W2)).all()


def test_second_moments_bounded_by_critical_current():
    # currents are in units of the critical current, so <I^2> <= 1
    for t in np.linspace(0.0, 2.0 * math.pi / abs(W1 - W2), 17):
        mom = squid.two_squid_currents_number(1, 3, True, COUPLING, W1, W2, W1, W2, t)
        assert 0.0 <= mom.ia2 <= 1.0 + 1e-12
        assert 0.0 <= mom.ib2 <= 1.0 + 1e-12
