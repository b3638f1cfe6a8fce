import cmath
import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from mesoweyl import fockbench, interference, specfun
from mesoweyl.exceptions import TruncationError
from mesoweyl.states import (
    ChargeCoupling,
    CoherentState,
    ModeParams,
    NumberState,
    SqueezedState,
    ThermalState,
    emf_stats,
    flux_stats,
    fock_amplitudes,
    match_mean_photons,
    matched_states,
    mean_annihilation,
    mean_photons,
    number_displacement_element,
    photon_counting,
    weyl,
    weyl_time_average,
)

SMALL_STATES = [
    NumberState(2),
    CoherentState(1.2 * cmath.exp(0.3j)),
    SqueezedState(0.5 * cmath.exp(0.2j), 1.5, 0.8),
    ThermalState(0.7),
]

Z_GRID = [r * cmath.exp(1j * a) for r in (0.3, 1.0, 2.5) for a in (0.0, 1.1, 2.7)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        NumberState(-1)
    with pytest.raises(ValueError):
        SqueezedState(0j, -0.1)
    with pytest.raises(ValueError):
        ThermalState(0.0)
    with pytest.raises(ValueError):
        ModeParams(0.0)
    with pytest.raises(ValueError):
        ChargeCoupling(-1.0)


def test_charge_coupling_doubles_exactly():
    c = ChargeCoupling(0.2143)
    assert c.qprime == 2.0 * c.q


@pytest.mark.parametrize("state", SMALL_STATES)
def test_weyl_at_origin_is_one(state):
    assert weyl(state, 0j) == pytest.approx(1.0, abs=1e-15)


def test_weyl_number_one_zero_at_unit_radius():
    # e^{-1/2} L_1(1) = 0
    assert abs(weyl(NumberState(1), cmath.exp(0.4j))) <= 1e-15


def test_weyl_thermal_example():
    # zeta = 1, beta omega = 1 -> exp(-coth(1/2)/2)
    val = weyl(ThermalState(1.0), 1j)
    assert val.real == pytest.approx(math.exp(-0.5 / math.tanh(0.5)), rel=1e-14)
    assert val.imag == 0.0


@pytest.mark.parametrize("state", SMALL_STATES)
def test_weyl_vanishes_where_abs_z_squared_overflows(state):
    for z in (1e160, 1e200j * cmath.exp(0.4j), complex(1e308, -1e308)):
        assert weyl(state, z) == 0
    assert number_displacement_element(3, 1e300j, 1) == 0
    assert number_displacement_element(1, 1e300j, 3) == 0


_DISK = st.builds(cmath.rect, st.floats(0.0, 5.0), st.floats(-math.pi, math.pi))
# past |z| = 1e154, where |z|^2 overflows and the element is its limit 0
_FAR = st.builds(cmath.rect, st.floats(1e155, 1e300), st.floats(-math.pi, math.pi))


@pytest.mark.parametrize("order", ["m < n", "m = n", "m > n"])
@given(low=st.integers(0, 8), gap=st.integers(1, 5), zs=st.lists(_DISK, min_size=1, max_size=8),
       far=st.lists(_FAR, max_size=2))
def test_number_displacement_element_of_an_array_equals_the_scalar_calls(order, low, gap, zs, far):
    m, n = {"m < n": (low, low + gap), "m = n": (low, low), "m > n": (low + gap, low)}[order]
    z = np.array(zs + far).reshape(-1, 1)
    got = number_displacement_element(m, z, n)
    assert got.shape == z.shape
    scalar = [number_displacement_element(m, v, n) for v in zs + far]
    assert all(type(v) is complex for v in scalar)
    assert np.all(got[len(zs):] == 0) and scalar[len(zs):] == [0] * len(far)
    # |z|^2 of a 0-d array and of an array may round apart (an np.float64
    # power against a squared array); 2.2e-16 was the worst over 3,000
    # examples per order, and every element is at most 1 in modulus
    assert np.max(np.abs(got.ravel() - scalar)) <= 1e-15


@pytest.mark.parametrize("state", SMALL_STATES + [NumberState(17)])
def test_weyl_time_average_vanishes_where_abs_c_squared_overflows(state):
    far = [1e160, 1e200j * cmath.exp(0.4j), complex(1e308, -1e308), 1e300]
    near = [0.3, 0.2j * cmath.exp(0.4j)]
    for c in far:
        assert weyl_time_average(state, c) == 0
    got = weyl_time_average(state, np.array(far + near))
    assert np.all(got[:len(far)] == 0)
    assert got[len(far):] == pytest.approx([weyl_time_average(state, c) for c in near], abs=1e-15)


@pytest.mark.parametrize("state", SMALL_STATES)
def test_weyl_conjugate_symmetry_and_bound(state):
    for z in Z_GRID:
        w = weyl(state, z)
        assert abs(w) <= 1.0 + 1e-12
        assert abs(weyl(state, -z) - w.conjugate()) <= 1e-12


@pytest.mark.parametrize("state", SMALL_STATES)
def test_weyl_closed_form_matches_matrix_oracle(state):
    for z in Z_GRID:
        oracle = fockbench.weyl_numeric(state, z)
        assert abs(weyl(state, z) - oracle) <= 1e-8


def test_vacuum_number_and_coherent_agree():
    vac_n, vac_c = NumberState(0), CoherentState(0j)
    mode = ModeParams(1.0e-4)
    for z in Z_GRID:
        assert abs(weyl(vac_n, z) - weyl(vac_c, z)) <= 1e-14
    for t in (0.0, 1234.5):
        assert flux_stats(vac_n, mode, t) == pytest.approx(flux_stats(vac_c, mode, t))
        assert emf_stats(vac_n, mode, t) == pytest.approx(emf_stats(vac_c, mode, t))


# ---------------------------------------------------------------------------
# photon statistics

def test_photon_counting_number():
    st = NumberState(3)
    assert photon_counting(st, 3) == 1.0
    assert photon_counting(st, 2) == 0.0


def test_photon_counting_coherent_is_poisson():
    amp = 1.3
    st = CoherentState(amp)
    mean = amp ** 2
    for n in range(8):
        ref = math.exp(-mean) * mean ** n / math.factorial(n)
        assert photon_counting(st, n) == pytest.approx(ref, rel=1e-12)


def test_photon_counting_squeezed_vacuum_even_only():
    st = SqueezedState(0j, 1.8, 0.4)
    for n in (1, 3, 5, 7):
        assert photon_counting(st, n) <= 1e-30
    assert photon_counting(st, 2) > 0.0


@pytest.mark.parametrize(
    "state", [SqueezedState(0.7 + 0.4j, 1.2, 0.5), SqueezedState(0j, 2.0, 0.0)]
)
def test_photon_counting_squeezed_matches_fock_diagonal(state):
    dim = 96
    rho = fockbench.density_matrix(state, dim)
    for n in range(16):
        assert photon_counting(state, n) == pytest.approx(rho[n, n].real, abs=1e-12)
    total = sum(photon_counting(state, n) for n in range(dim))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_photon_counting_at_the_papers_squeezed_state(hermite_amplitudes):
    # r = 4.2 at 17 mean photons; worst seen 1.8e-13 relative, at n = 168
    state = matched_states()["squeezed"]
    ref = np.abs(hermite_amplitudes(state, 201)) ** 2
    got = np.array([photon_counting(state, n) for n in range(201)])
    assert np.max(np.abs(got - ref) / ref) <= 1e-12


def test_photon_counting_coherent_stays_finite_where_its_amplitudes_underflow():
    # at |A| = 40 the vacuum amplitude e^{-800} underflows, so every Fock
    # amplitude reads 0; the Poisson law, taken in log space, keeps P(n)
    mpmath = pytest.importorskip("mpmath")
    state = CoherentState(40)
    assert fock_amplitudes(state, 1601)[1600] == 0.0
    with mpmath.workdps(40):
        ref = float(mpmath.exp(1600 * mpmath.log(1600) - 1600 - mpmath.loggamma(1601)))
    p = photon_counting(state, 1600)
    assert p > 0.0
    assert p == pytest.approx(ref, rel=1e-12)  # worst seen 7.6e-14


def test_photon_counting_coherent_is_the_poisson_value_at_a_mean_of_2000():
    # e^{-1000} underflows too, and the squeezed route, which a coherent
    # state takes everywhere else, would raise
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(mpmath.exp(2000 * mpmath.log(2000) - 2000 - mpmath.loggamma(2001)))
    assert photon_counting(CoherentState(math.sqrt(2000.0)), 2000) == pytest.approx(ref, rel=1e-12)


def test_photon_counting_squeezed_raises_where_its_vacuum_amplitude_underflows():
    # c_0 underflows at |A| = 60, so every amplitude, and P(n) with it, would
    # read 0 even at the mean photon number, 3257.4; the oracle refuses the
    # same state with the same error
    state = SqueezedState(60, 0.1)
    assert mean_photons(state) == pytest.approx(3257.4, abs=0.05)
    with pytest.raises(TruncationError, match="n = 0 amplitude is below the smallest normal double"):
        photon_counting(state, 3257)


def test_mean_photons_examples():
    assert mean_photons(CoherentState(math.sqrt(3.0))) == pytest.approx(3.0)
    assert mean_photons(SqueezedState(0j, 4.2)) == pytest.approx(math.sinh(2.1) ** 2, rel=1e-12)
    assert mean_photons(ThermalState(math.log(2.0))) == pytest.approx(1.0, rel=1e-12)
    assert mean_photons(ThermalState(1000.0)) == pytest.approx(0.0, abs=1e-300)


@pytest.mark.parametrize("state", SMALL_STATES)
def test_mean_photons_matches_matrix_oracle(state):
    dim = 128
    rho = fockbench.density_matrix(state, dim)
    a = fockbench.ladder(dim)
    nbar = fockbench.expectation(rho, a.conj().T @ a).real
    assert mean_photons(state) == pytest.approx(nbar, abs=1e-8)


def test_match_mean_photons():
    assert match_mean_photons("coherent", 17.0).amplitude == pytest.approx(math.sqrt(17.0))
    assert match_mean_photons("thermal", 17.0).beta_omega == pytest.approx(math.log(18.0 / 17.0))
    sq = match_mean_photons("squeezed", 17.0, r=4.2)
    assert mean_photons(sq) == pytest.approx(17.0, abs=1e-10)
    expected = (17.0 - math.sinh(2.1) ** 2) / (math.cosh(2.1) - math.sinh(2.1)) ** 2
    assert abs(sq.amplitude) ** 2 == pytest.approx(expected, rel=1e-12)
    assert match_mean_photons("number", 17.0).n == 17
    with pytest.raises(ValueError):
        match_mean_photons("squeezed", 1.0, r=4.2)  # below the squeezed-vacuum floor
    with pytest.raises(ValueError):
        match_mean_photons("number", 17.5)


# ---------------------------------------------------------------------------
# flux / EMF statistics

def test_flux_stats_examples():
    mode = ModeParams(1.0, xi=1.0)
    assert flux_stats(NumberState(0), mode, 0.3) == pytest.approx((0.0, 1.0 / math.sqrt(2.0)))
    for t in (0.0, 0.4, 2.0):
        _, sd = flux_stats(CoherentState(0.8j), mode, t)
        assert sd == pytest.approx(2.0 ** -0.5, rel=1e-14)
    _, sd = flux_stats(ThermalState(1.0), mode, 0.0)
    assert sd == pytest.approx(math.sqrt(0.5 / math.tanh(0.5)), rel=1e-14)


@pytest.mark.parametrize("state", SMALL_STATES)
def test_flux_and_emf_stats_match_matrix_oracle(state):
    mode = ModeParams(0.7, xi=1.3)
    dim = 160
    rho = fockbench.density_matrix(state, dim)
    for k in range(8):
        t = k * 2.0 * math.pi / (8.0 * mode.omega)
        for closed, op in (
            (flux_stats(state, mode, t), fockbench.flux_matrix(mode, t, dim)),
            (emf_stats(state, mode, t), fockbench.emf_matrix(mode, t, dim)),
        ):
            mean = fockbench.expectation(rho, op).real
            var = fockbench.expectation(rho, op @ op).real - mean ** 2
            assert closed[0] == pytest.approx(mean, abs=1e-8)
            assert closed[1] == pytest.approx(math.sqrt(var), abs=1e-8)


@pytest.mark.parametrize("state", SMALL_STATES)
@pytest.mark.parametrize("stats", [flux_stats, emf_stats])
def test_flux_and_emf_stats_take_arrays(state, stats):
    # an array of times gives two arrays of its shape, each element within
    # 1 ulp of the float call at that time
    mode = ModeParams(0.7, xi=1.3)
    t = np.linspace(-3.0, 40.0, 96).reshape(8, 12)
    mean, sd = stats(state, mode, t)
    assert mean.shape == sd.shape == t.shape
    singles = np.array([stats(state, mode, ti) for ti in t.ravel().tolist()])
    for one in singles.ravel().tolist():
        assert isinstance(one, float)
    np.testing.assert_array_max_ulp(mean.ravel(), singles[:, 0], maxulp=1)
    np.testing.assert_array_max_ulp(sd.ravel(), singles[:, 1], maxulp=1)
    assert [a.shape for a in stats(state, mode, t[:0])] == [(0, 12), (0, 12)]


_EMF_AMPS = st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(-math.pi, math.pi))


@given(
    state=st.one_of(
        st.builds(CoherentState, _EMF_AMPS),
        st.builds(SqueezedState, _EMF_AMPS, st.floats(0.0, 1.5), st.floats(-math.pi, math.pi)),
    ),
    omega=st.floats(0.2, 3.0),
    xi=st.floats(0.5, 2.0),
    t=st.floats(0.0, 20.0),
)
def test_emf_stats_match_the_emf_operator(state, omega, xi, t):
    # emf_stats is the flux a quarter period ahead, scaled by omega; the
    # oracle takes mean and spread of the EMF operator itself on the Fock
    # vector (at most about 18 photons here, so dim 256 truncates nothing).
    # Errors in units of omega xi (or of the value, if larger): 1.2e-14
    # measured over 400 random draws, bound 1e-12.
    mode = ModeParams(omega, xi)
    v = fockbench.state_vector(state, 256)
    ev = fockbench.emf_matrix(mode, t, 256) @ v
    mean = np.vdot(v, ev).real
    sd = math.sqrt(np.vdot(ev, ev).real - mean ** 2)
    got_mean, got_sd = emf_stats(state, mode, t)
    scale = omega * xi
    assert abs(got_mean - mean) <= 1e-12 * scale * max(1.0, abs(mean) / scale)
    assert abs(got_sd - sd) <= 1e-12 * scale * max(1.0, sd / scale)


def test_squeezed_emf_noise_oscillates_through_vacuum_level():
    mode = ModeParams(1.0)
    st = SqueezedState(0j, 1.0)
    sds = [emf_stats(st, mode, t)[1] for t in np.linspace(0.0, math.pi, 64)]
    vac = mode.omega * mode.xi / math.sqrt(2.0)
    assert min(sds) < vac < max(sds)
    # modulation period pi/omega (frequency 2 omega)
    assert emf_stats(st, mode, 0.1)[1] == pytest.approx(
        emf_stats(st, mode, 0.1 + math.pi / mode.omega)[1], rel=1e-12
    )


def test_squeezed_uncertainty_product_bound():
    mode = ModeParams(2.0, xi=0.9)
    st = SqueezedState(0.4 + 0.2j, 2.5, 1.1)
    for t in np.linspace(0.0, math.pi, 23):
        _, sf = flux_stats(st, mode, t)
        _, se = emf_stats(st, mode, t)
        assert sf * se >= mode.omega * mode.xi ** 2 / 2.0 - 1e-10


# ---------------------------------------------------------------------------
# harmonic expansion of the Weyl function under a circular drive: the drive
# coefficients a_k of W(i c e^{i theta}) = sum_k a_k e^{i k theta} are
# weyl_time_average(state, c, k)

@pytest.mark.parametrize("state", SMALL_STATES + [match_mean_photons("squeezed", 17.0, r=4.2)])
@pytest.mark.parametrize("c", [0.25, 0.25 * (1 + cmath.exp(0.9j)), -0.4 + 0.1j])
def test_weyl_drive_coeffs_reconstruct(state, c):
    _check_drive_coeffs(state, c)


def _grid(step, top):
    """Multiples of step in [0, top]; Hypothesis draws these far more evenly
    over the range than bounded floats, which crowd at the ends."""
    return st.integers(0, round(top / step)).map(lambda i: i * step)


_PHASES = st.floats(-math.pi, math.pi)

# Nonzero |c| >= 1e-3 and r >= 1e-2 keep the Bessel I argument
# |c|^2 sinh(r) / 2 at zero or above 5e-9.  Below about 1e-27 the Miller
# recurrence overflows into NaN, the known defect that
# test_weyl_time_average_tiny_bessel_i_argument pins.
_DRIVES = st.builds(cmath.rect, _grid(0.001, 0.5), _PHASES)

# Amplitudes up to 2 keep |w| = 2|A||c| e^{r/2} <= 17, where the 64-point
# trapezoid of test_weyl_time_average_takes_arrays resolves every harmonic of
# the drive to 1e-12; the drive-coefficient tests, which sum the expansion
# itself, take amplitudes up to 8.
_AMPS = st.builds(cmath.rect, _grid(0.01, 2.0), _PHASES)
FAMILY_STATES = {
    "number": st.builds(NumberState, st.integers(0, 30)),
    "coherent": st.builds(CoherentState, _AMPS),
    "squeezed": st.builds(SqueezedState, _AMPS, _grid(0.01, 4.2), _PHASES),
    "thermal": st.builds(ThermalState, st.floats(0.05, 5.0)),
}
_DRIVE_AMPS = st.builds(cmath.rect, _grid(0.01, 8.0), _PHASES)
DRIVE_STATES = {
    **FAMILY_STATES,
    "coherent": st.builds(CoherentState, _DRIVE_AMPS),
    "squeezed": st.builds(SqueezedState, _DRIVE_AMPS, _grid(0.01, 4.2), _PHASES),
}


@pytest.mark.parametrize("family", sorted(DRIVE_STATES))
@given(data=st.data(), c=_DRIVES)
def test_weyl_drive_coeffs_reconstruct_random_states(family, data, c):
    _check_drive_coeffs(data.draw(DRIVE_STATES[family]), c)


def _drive_reach(state, c):
    """K with |a_k| below about 1e-18 for |k| > K: the order cutoff of each
    Bessel argument of the expansion (2 |c| |A| for a coherent state;
    |w| <= 2 |A| |c| e^{r/2} and twice that of v = |c|^2 sinh(r) / 2 for a
    squeezed one), and 0 for the phase-invariant families."""
    rho = abs(c)
    if isinstance(state, CoherentState):
        return int(specfun.order_cutoff(2.0 * rho * abs(state.amplitude)))
    if isinstance(state, SqueezedState):
        w = 2.0 * abs(state.amplitude) * rho * math.exp(state.r / 2.0)
        v = 0.5 * rho * rho * math.sinh(state.r)
        return int(specfun.order_cutoff(w) + 2 * specfun.order_cutoff(v))
    return 0


def _drive_coeffs(state, c):
    """{k: a_k} over |k| <= _drive_reach(state, c) + 1, from one call."""
    reach = _drive_reach(state, c) + 1
    ks = np.arange(-reach, reach + 1)
    return dict(zip(ks.tolist(), weyl_time_average(state, c, ks).tolist()))


def _check_drive_coeffs(state, c):
    """The coefficients rebuild W on the drive circle, and the ones just past
    the reach are negligible."""
    coeffs = _drive_coeffs(state, c)
    reach = max(coeffs)
    assert max(abs(coeffs[reach]), abs(coeffs[-reach])) <= 1e-15
    for theta in np.linspace(0.0, 2.0 * math.pi, 17)[:-1]:
        direct = weyl(state, 1j * complex(c) * cmath.exp(1j * theta))
        series = sum(a * cmath.exp(1j * k * theta) for k, a in coeffs.items())
        assert abs(direct - series) <= 1e-12


@pytest.mark.parametrize("family", sorted(DRIVE_STATES))
@given(data=st.data(), c=_DRIVES)
def test_weyl_drive_coeffs_flip_sign_with_c(family, data, c):
    # W(i (-c) e^{i theta}) = W(i c e^{i (theta + pi)}), so a_k(-c) = (-1)^k a_k(c)
    state = data.draw(DRIVE_STATES[family])
    pair = np.array([c, -c])
    for k in range(-4, 5):
        a, a_neg = weyl_time_average(state, pair, k)
        assert abs(a_neg - (-1) ** k * a) <= 1e-14


@pytest.mark.parametrize("family", sorted(DRIVE_STATES))
@given(data=st.data(), c=_DRIVES)
def test_weyl_drive_coeffs_parseval(family, data, c):
    # sum_k |a_k|^2 is the circle mean of |W|^2, at most 1 as |W| <= 1; a
    # trapezoid on more than 4 reach points is exact for the degree 2 reach
    # trigonometric polynomial |W|^2
    state = data.draw(DRIVE_STATES[family])
    coeffs = _drive_coeffs(state, c)
    power = sum(abs(a) ** 2 for a in coeffs.values())
    thetas = np.arange(4 * max(coeffs) + 8) * (2.0 * math.pi / (4 * max(coeffs) + 8))
    mean = np.mean(np.abs(weyl(state, 1j * c * np.exp(1j * thetas))) ** 2)
    assert power == pytest.approx(mean, abs=1e-13)
    assert power <= 1.0 + 1e-13


@pytest.mark.parametrize("family", sorted(FAMILY_STATES))
@given(data=st.data(), cs=st.lists(_DRIVES, min_size=1, max_size=6), k=st.integers(-6, 6))
def test_weyl_time_average_takes_arrays(family, data, cs, k):
    state = data.draw(FAMILY_STATES[family])
    c = np.array(cs)
    avg = weyl_time_average(state, c, k)
    assert avg.shape == c.shape and avg.dtype == complex
    column = weyl_time_average(state, c[:, None], k)
    assert column.shape == (len(cs), 1)
    assert np.array_equal(column[:, 0], avg)
    assert weyl_time_average(state, c[:0], k).shape == (0,)
    thetas = np.arange(64) * (2.0 * math.pi / 64)
    for ci, ai in zip(cs, avg.tolist()):
        assert isinstance(weyl_time_average(state, ci, k), complex)
        # harmonic k of W on the drive circle
        trapezoid = np.mean(np.exp(-1j * k * thetas) * weyl(state, 1j * ci * np.exp(1j * thetas)))
        assert abs(ai - trapezoid) <= 1e-12
    # -c e^{i theta} is c e^{i (theta + pi)}, so a_k(-c) = (-1)^k a_k(c); worst
    # seen 6.7e-16 in 1,000 examples per family
    assert np.max(np.abs(weyl_time_average(state, -c, k) - (-1) ** k * avg)) <= 1e-14


_KS = st.lists(st.integers(-12, 12), max_size=8)


@pytest.mark.parametrize("family", sorted(DRIVE_STATES))
@given(data=st.data(), cs=st.lists(_DRIVES, min_size=1, max_size=4), ks=_KS)
def test_weyl_time_average_over_an_array_of_k_equals_the_int_calls(family, data, cs, ks):
    # a squeezed state's harmonics share the Bessel tables of the largest
    # |k|, so a smaller |k| sums a few more terms below 1e-18 than its own
    # call.  Worst seen 7.9e-17 for squeezed states in 1,000 examples per
    # family; the other families were bit-equal
    state = data.draw(DRIVE_STATES[family])
    ks = ks + ks[:1]  # a repeated order
    c, k = np.array(cs), np.array(ks, dtype=int)
    one = np.array([weyl_time_average(state, cs[0], ki) for ki in ks], dtype=complex)
    got = weyl_time_average(state, cs[0], k)
    assert got.shape == k.shape and got.dtype == complex
    assert np.max(np.abs(got - one), initial=0.0) <= 1e-15
    # a 0-d k with a complex c gives a complex
    for ki in ks[:2]:
        single = weyl_time_average(state, cs[0], np.array(ki))
        assert isinstance(single, complex)
        assert abs(single - weyl_time_average(state, cs[0], ki)) <= 1e-15
    # ks down a column broadcast against the drives along a row
    grid = weyl_time_average(state, c, k[:, None])
    assert grid.shape == (len(ks), len(cs))
    for row, ki in zip(grid, ks):
        assert np.max(np.abs(row - weyl_time_average(state, c, ki))) <= 1e-15


@pytest.mark.parametrize("state", SMALL_STATES, ids=lambda s: type(s).__name__)
def test_weyl_time_average_refuses_a_non_integral_harmonic(state):
    # J_1.5 for coherent states, 0 for number and thermal ones and a
    # TypeError for squeezed ones, before k was checked
    for k in (1.5, np.array([1, 2.5]), math.nan, "1"):
        with pytest.raises(ValueError, match="harmonic k must be an integer"):
            weyl_time_average(state, 0.4, k)
    # an integral float is the integer it equals
    assert weyl_time_average(state, 0.4, 2.0) == weyl_time_average(state, 0.4, 2)


@pytest.mark.parametrize("family", sorted(DRIVE_STATES))
@given(data=st.data(), rho=st.floats(-8.0, 1.0).map(lambda e: 10.0 ** e), phase=_PHASES)
def test_weyl_time_average_rotates_with_arg_c(family, data, rho, phase):
    # a rotation c -> c e^{i delta} shifts the drive circle by delta, so
    # a_k(c) = e^{i k arg c} a_k(|c|): the time average (k = 0) depends on
    # |c| alone, which lets the autocorrelation take it over radii.  Worst
    # seen 2.1e-15 in 1,000 examples per family, for number states, where
    # |rect(rho, phase)| misses rho by an ulp
    state = data.draw(DRIVE_STATES[family])
    c = cmath.rect(rho, phase)
    for k in range(-3, 4):
        rotated = cmath.exp(1j * k * phase) * weyl_time_average(state, rho, k)
        assert abs(weyl_time_average(state, c, k) - rotated) <= 1e-14


_ZS = st.lists(st.builds(cmath.rect, _grid(0.01, 6.0), _PHASES), min_size=1, max_size=8)


@pytest.mark.parametrize("family", sorted(FAMILY_STATES))
@given(data=st.data(), zs=_ZS)
def test_weyl_array_bound_and_conjugate_symmetry(family, data, zs):
    state = data.draw(FAMILY_STATES[family])
    z = np.array(zs)
    w = weyl(state, z)
    assert w.shape == z.shape and w.dtype == complex
    assert np.all(np.abs(w) <= 1.0 + 1e-12)
    assert np.max(np.abs(weyl(state, -z) - np.conj(w))) <= 1e-12
    assert np.max(np.abs(w - [weyl(state, zi) for zi in zs])) <= 1e-15


# The coherent state's own closed forms.  The package takes a coherent state
# as the squeezed state at r = 0, so these are the reference it is held to.
def _coherent_weyl(a, z):
    """W(z) = exp(-|z|^2 / 2 + z A* - z* A)."""
    return np.exp(-np.abs(z) ** 2 / 2.0 + z * a.conjugate() - np.conj(z) * a)


def _coherent_harmonic(a, c, k):
    """Jacobi-Anger: W(i c e^{i theta}) = e^{-|c|^2/2} exp(2 i |c| |A|
    cos(theta + arg c - arg A)), so a_k = e^{-|c|^2/2} J_k(2 |c| |A|) i^k
    e^{i k (arg c - arg A)}."""
    rho = abs(c)
    return (math.exp(-rho * rho / 2.0) * float(sp.jv(k, 2.0 * rho * abs(a)))
            * (1, 1j, -1, -1j)[k % 4] * cmath.exp(1j * k * (cmath.phase(c) - cmath.phase(a))))


def _coherent_flux(a, mode, t):
    """(mean, sd) of the flux: sqrt2 xi |A| cos(omega t - arg A) and xi / sqrt2."""
    return (math.sqrt(2.0) * mode.xi * abs(a) * math.cos(mode.omega * t - cmath.phase(a)),
            mode.xi / math.sqrt(2.0))


@given(a=st.builds(cmath.rect, _grid(0.01, 8.0), _PHASES),
       zs=st.lists(st.builds(cmath.rect, _grid(0.01, 6.0), _PHASES), min_size=1, max_size=4),
       c=st.builds(cmath.rect, _grid(0.001, 3.0), _PHASES),
       omega=st.floats(0.2, 3.0), xi=st.floats(0.5, 2.0), t=st.floats(0.0, 20.0))
def test_a_coherent_state_is_the_squeezed_state_at_r_0(a, zs, c, omega, xi, t):
    # every single-mode closed form against the coherent state's own; next
    # to each bound is the worst error seen over 3,000 examples
    state = CoherentState(a)
    z = np.array(zs)
    assert np.max(np.abs(weyl(state, z) - _coherent_weyl(a, z))) <= 5e-15  # 1.4e-15
    ks = np.arange(-4, 5)
    ref = np.array([_coherent_harmonic(a, c, k) for k in ks.tolist()])
    assert np.max(np.abs(weyl_time_average(state, c, ks) - ref)) <= 4e-15  # 8.9e-16
    # <a> = A and <n> = |A|^2 exactly
    assert mean_annihilation(state) == a
    assert mean_photons(state) == abs(a) ** 2
    mode = ModeParams(omega, xi)
    # emf(t) = omega flux(t + pi / (2 omega)); a mean's error scales with
    # the phase omega t and with its size, so it is bounded relative to
    # xi max(|A|, 1), times omega for the emf
    for stats, ref, scale in ((flux_stats, _coherent_flux(a, mode, t), xi),
                              (emf_stats, [omega * v for v in _coherent_flux(a, mode, t + math.pi / (2.0 * omega))],
                               omega * xi)):
        mean, sd = stats(state, mode, t)
        assert abs(mean - ref[0]) <= 2e-14 * scale * max(abs(a), 1.0)  # 4.8e-15 * scale max(|A|, 1)
        assert abs(sd - ref[1]) <= 4e-15  # 8.9e-16


def test_a_coherent_state_takes_no_squeezing():
    with pytest.raises(TypeError):
        CoherentState(1.0, 0.5)


def test_a_coherent_state_repr_names_its_amplitude_alone():
    assert repr(CoherentState(0.5 + 1j)) == "CoherentState(amplitude=(0.5+1j))"


def test_a_coherent_state_is_a_squeezed_state():
    assert isinstance(CoherentState(0.5), SqueezedState)


def test_a_coherent_time_average_builds_no_bessel_i_table(monkeypatch):
    # v = |c|^2 sinh(r) / 2 is 0 at r = 0, where e^{-v} I_m(v) is delta_m0
    calls, real = [], specfun.bessel_ive_all
    monkeypatch.setattr(specfun, "bessel_ive_all", lambda *args: calls.append(1) or real(*args))
    weyl_time_average(CoherentState(1.3 + 0.4j), np.linspace(0.1, 3.0, 50), np.arange(-4, 5)[:, None])
    assert calls == []


@given(state=st.builds(SqueezedState, st.builds(cmath.rect, _grid(0.01, 3.0), _PHASES), _grid(0.01, 4.2), _PHASES),
       zs=st.lists(st.builds(cmath.rect, _grid(0.01, 3.0), _PHASES), min_size=1, max_size=4))
def test_squeezed_weyl_equals_the_matrix_oracle(state, zs):
    # the oracle's vector comes from the state's eigen-equation, not from
    # the Gaussian closed form; worst seen 4.2e-15
    z = np.array(zs)
    assert np.max(np.abs(weyl(state, z) - fockbench.weyl_numeric(state, z))) <= 1e-12


@pytest.mark.parametrize("family", sorted(FAMILY_STATES))
@given(data=st.data(), q=st.integers(1, 500), lags=st.lists(st.integers(-6000, 6000), min_size=1, max_size=5))
def test_autocorrelation_array_lags_equal_one_lag_calls(family, data, q, lags):
    # omega tau on a 1e-3 grid is 0 or at least 1.8e-4 from any multiple of pi
    # (|tau| <= 6), so the time-average arguments q (+-1 +- e^{i omega tau})
    # are 0 or at least 1.8e-7 in modulus
    state = data.draw(FAMILY_STATES[family])
    coupling, mode = ChargeCoupling(q * 1e-3), ModeParams(1.0)
    taus = np.array(lags) * 1e-3
    series = interference.autocorrelation_quantum(state, coupling, mode, taus)
    for tau, val in zip(taus.tolist(), series.values.tolist()):
        one = interference.autocorrelation_quantum(state, coupling, mode, [tau])
        assert abs(one.values[0] - val) <= 1e-14
        assert abs(one.gamma0 - series.gamma0) <= 1e-14


def test_weyl_time_average_is_zero_where_the_squeezed_prefactor_underflows():
    # exp(-|c|^2 e^{-r} / 2) is 0 at |c| = 1e150, where the Bessel I table
    # sized from v = |c|^2 sinh(r) / 2 would be far too big to allocate
    state = SqueezedState(0.5j, 1.0)
    assert weyl_time_average(state, 1e150) == 0
    got = weyl_time_average(state, np.array([1e150, 0.3, 1e80j]))
    assert got[0] == got[2] == 0
    assert got[1] == weyl_time_average(state, 0.3)


def test_weyl_time_average_strong_squeezing_is_finite():
    # exp(-|c|^2 cosh r / 2) I_m(|c|^2 sinh r / 2) overflows in both factors
    # at r = 8; the scaled form exp(-|c|^2 e^{-r} / 2) e^{-v} I_m(v) does not
    state = SqueezedState(0j, 8.0)
    ref = math.exp(-math.exp(-8.0) / 2.0) * float(sp.ive(0, math.sinh(8.0) / 2.0))
    got = weyl_time_average(state, 1.0)
    assert got == pytest.approx(ref, rel=1e-13)
    assert got.real == pytest.approx(0.014614, abs=1e-6)
    # the vacuum has w = 0, so harmonic 2 is the m = 1 term alone,
    # pref (-1) e^{-v} I_1(v) e^{i chi} with chi = pi at c = 1
    ref_2 = math.exp(-math.exp(-8.0) / 2.0) * float(sp.ive(1, math.sinh(8.0) / 2.0))
    assert weyl_time_average(state, 1.0, 2) == pytest.approx(ref_2, rel=1e-13)


def test_weyl_drive_coeffs_keep_what_the_time_average_sees():
    # at a Bessel I argument below about 1e-27 the time average is NaN; no
    # other harmonic may then read as a finite value, which would rebuild W
    # from a partial series
    state, c = SqueezedState(0.5 + 0j, 1.0), 1e-17
    avg = weyl_time_average(state, c)
    for k in (-2, -1, 1, 2):
        coeff = weyl_time_average(state, c, k)
        if cmath.isnan(avg):
            assert cmath.isnan(coeff)
        else:
            assert abs(coeff) <= 1e-15


@pytest.mark.xfail(strict=True, reason=(
    "Miller's recurrence for I_n overflows into NaN at arguments below about "
    "1e-27; a correct I also turns the NaN cells pinned in the fig6/fig7 "
    "benchmark reference finite, so the fix waits for that reference"
))
def test_weyl_time_average_tiny_bessel_i_argument():
    got = weyl_time_average(SqueezedState(0.5 + 0j, 1.0), 1e-17)
    assert cmath.isfinite(got)
    assert got == pytest.approx(1.0, abs=1e-15)


def test_visibility_reduction_expansion_small_coupling():
    """1 - |W(lam(t))|^2 = q^2 dX(t)^2 + O(q^4), with the flux quadrature
    normalized to unit vacuum variance.

    dX(t)^2 splits as [(dX)^2+(dP)^2]/2 + [(dX)^2-(dP)^2]/2 cos(2wt) in terms
    of the static quadratures when the squeezing axes are phase-aligned
    (both split checks below): the visibility loss is pure quantum noise.
    """
    mode = ModeParams(1.0, xi=1.0)
    states = [
        NumberState(2),
        CoherentState(1.0 + 0j),
        SqueezedState(0.3 + 0j, 0.8, 0.0),
        ThermalState(1.0),
    ]
    for state in states:
        dx0 = 2.0 * flux_stats(state, mode, 0.0)[1] ** 2 / mode.xi ** 2
        dp0 = 2.0 * emf_stats(state, mode, 0.0)[1] ** 2 / (mode.omega * mode.xi) ** 2
        for q in (0.01, 0.02, 0.05):
            for t in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                _, sf = flux_stats(state, mode, t)
                dx2_t = 2.0 * sf ** 2 / mode.xi ** 2
                # static split reproduces the time-dependent variance
                split = 0.5 * (dx0 + dp0) + 0.5 * (dx0 - dp0) * math.cos(2.0 * mode.omega * t)
                assert dx2_t == pytest.approx(split, rel=1e-10)
                lam = 1j * q * cmath.exp(1j * mode.omega * t)
                lhs = 1.0 - abs(weyl(state, lam)) ** 2
                rhs = q * q * dx2_t
                bound = 2.0 * (dx0 + dp0) ** 2 * q ** 4
                assert abs(lhs - rhs) <= bound
