import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mesoweyl import fockbench, specfun, squid, twomode, verify
from mesoweyl.states import (
    ChargeCoupling,
    CoherentState,
    NumberState,
    ThermalState,
    TwoModeFactorizable,
    weyl,
)

Q = twomode.DEFAULT_COUPLING_Q
COUPLING = ChargeCoupling(Q)
W1, W2 = twomode.FIG_OMEGA_1, twomode.FIG_OMEGA_2
T0 = 0.37 / (W1 + W2)
EPS = np.finfo(float).eps


def test_marginals_of_sep_and_ent_pairs_identical():
    sep = twomode.number_pair_separable(0, 1)
    ent = twomode.number_pair_entangled(0, 1)
    for which in ("A", "B"):
        for x in np.linspace(-2 * math.pi, 2 * math.pi, 41):
            a = twomode.marginal_intensity(sep, which, COUPLING, x, T0)
            b = twomode.marginal_intensity(ent, which, COUPLING, x, T0)
            assert abs(a - b) <= 1e-12


def test_marginal_vacuum_factorizable():
    field = TwoModeFactorizable(NumberState(0), ThermalState(1.0))
    for x in (-1.0, 0.0, 2.2):
        ref = 1.0 + math.exp(-Q * Q / 2.0) * math.cos(x)
        assert twomode.marginal_intensity(field, "A", COUPLING, x, T0) == pytest.approx(ref, rel=1e-13)


def test_marginal_number_pair_is_fringe_average():
    field = twomode.number_pair_separable(0, 1)
    w0 = weyl(NumberState(0), 1j * Q).real
    w1 = weyl(NumberState(1), 1j * Q).real
    for x in (0.0, 1.3, -2.0):
        ref = 1.0 + 0.5 * (w0 + w1) * math.cos(x)
        assert twomode.marginal_intensity(field, "A", COUPLING, x, T0) == pytest.approx(ref, rel=1e-13)


def test_marginal_matches_partial_trace_oracle():
    field = twomode.number_pair_entangled(0, 1)
    dim = 24
    rho = fockbench.two_mode_density(field, dim, dim)
    red = fockbench.partial_trace(rho, (dim, dim), "A")
    for x in (0.4, 2.0):
        op = verify.intensity_operator(dim, Q, W1, x, T0)
        ref = fockbench.expectation(red, op).real
        got = twomode.marginal_intensity(field, "A", COUPLING, x, T0)
        assert got == pytest.approx(ref, abs=1e-10)


def test_joint_factorizable_is_product_of_marginals():
    field = TwoModeFactorizable(CoherentState(0.9 + 0.3j), ThermalState(0.8))
    for xa in (-2.0, 0.3):
        for xb in (1.1, 2.9):
            joint = twomode.joint_intensity(field, COUPLING, xa, xb, T0)
            prod = twomode.marginal_intensity(field, "A", COUPLING, xa, T0) * twomode.marginal_intensity(
                field, "B", COUPLING, xb, T0
            )
            assert joint == pytest.approx(prod, abs=1e-12)


def test_joint_number_pair_closed_form_numerator():
    alpha, gamma = twomode.number_pair_alpha_gamma(Q)
    field = twomode.number_pair_separable(0, 1)
    for xa in (0.0, 1.7):
        for xb in (-0.4, 2.2):
            ref = 1.0 + alpha * (math.cos(xa) + math.cos(xb)) + gamma * math.cos(xa) * math.cos(xb)
            got = twomode.joint_intensity(field, COUPLING, xa, xb, T0)
            assert got == pytest.approx(ref, abs=1e-13)


def test_joint_averaged_over_one_screen_gives_marginal():
    field = twomode.number_pair_entangled(0, 1)
    xs = np.arange(64) / 64.0 * 2.0 * math.pi
    for xb in (0.7, 2.4):
        avg = np.mean([twomode.joint_intensity(field, COUPLING, xa, xb, T0) for xa in xs])
        assert avg == pytest.approx(
            twomode.marginal_intensity(field, "B", COUPLING, xb, T0), abs=1e-10
        )


def test_ratio_factorizable_is_unity():
    field = TwoModeFactorizable(CoherentState(1.2), ThermalState(1.0))
    for xa in np.linspace(-2 * math.pi, 2 * math.pi, 9):
        for xb in np.linspace(-2 * math.pi, 2 * math.pi, 9):
            for t in (0.0, T0):
                assert abs(twomode.ratio_R(field, COUPLING, xa, xb, t) - 1.0) <= 1e-12


_AMPLITUDE = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _displacement_terms(draw, phase):
    """{j: c_j} at orders up to +-2: squid's sin / sin^2 expansion at the
    time array's ring phase, random Hermitian coefficients (c_{-j} = c_j^*)
    or random coefficients at any orders."""
    kind = draw(st.sampled_from(["hermitian", "any", "sin", "sin2"]))
    if kind in ("sin", "sin2"):
        return squid._sin_power_terms(phase, 1 if kind == "sin" else 2)
    if kind == "any":
        return {j: draw(_AMPLITUDE) for j in draw(st.sets(st.integers(-2, 2), min_size=1))}
    terms = {}
    if draw(st.booleans()):
        terms[0] = draw(st.floats(-2.0, 2.0))
    for j in draw(st.sets(st.sampled_from([1, 2]), min_size=1)):
        terms[j] = draw(_AMPLITUDE)
        terms[-j] = terms[j].conjugate()
    return terms


_EXPECTATION_STATES = {
    "coherent-separable": lambda n1, n2, a1, a2, b: twomode.coherent_pair_separable(a1, a2),
    "coherent-entangled": lambda n1, n2, a1, a2, b: twomode.coherent_pair_entangled(a1, a2),
    "factorizable": lambda n1, n2, a1, a2, b: TwoModeFactorizable(ThermalState(b), CoherentState(a2)),
    "number-crossed-separable": lambda n1, n2, a1, a2, b: twomode.number_pair_crossed(n1, n2, False),
    "number-crossed-entangled": lambda n1, n2, a1, a2, b: twomode.number_pair_crossed(n1, n2, True),
    "number-entangled": lambda n1, n2, a1, a2, b: twomode.number_pair_entangled(n1, n2),
}


@given(
    pair=st.sampled_from(sorted(_EXPECTATION_STATES)),
    n1=st.integers(0, 4),
    n2=st.integers(0, 4),
    a1=_AMPLITUDE,
    a2=_AMPLITUDE,
    beta_omega=st.floats(0.1, 5.0),
    q=st.floats(0.05, 2.0),
    t=st.lists(st.floats(0.0, 2.0 * math.pi / (W1 - W2)), min_size=1, max_size=5),
    n_obs=st.integers(1, 4),
    data=st.data(),
)
def test_displacement_expectation_is_the_full_double_sum(pair, n1, n2, a1, a2, beta_omega, q, t, n_obs, data):
    state2 = _EXPECTATION_STATES[pair](n1, n2, a1, a2, beta_omega)
    t = np.array(t)
    z_a = 1j * q * np.exp(1j * W1 * t)
    z_b = 1j * q * np.exp(1j * W2 * t)
    observables = [(data.draw(_displacement_terms(W1 * t)), data.draw(_displacement_terms(W2 * t)))
                   for _ in range(n_obs)]
    got = twomode.displacement_expectation(state2, observables, z_a, z_b)
    assert len(got) == n_obs
    for value, (terms_a, terms_b) in zip(got, observables):
        # every (j, k), (0, 0) included, as its own two-mode Weyl value
        full = sum(a * b * twomode.two_mode_weyl(state2, j * z_a, k * z_b)
                   for j, a in terms_a.items() for k, b in terms_b.items())
        scale = sum(np.max(np.abs(a)) for a in terms_a.values()) * sum(
            np.max(np.abs(b)) for b in terms_b.values())
        # 4.0e-16 * max(1, scale) (the entangled coherent pair) was the
        # worst over 3,000 random draws
        assert np.max(np.abs(value - np.real(full))) <= 1e-14 * max(1.0, scale)


_SCREEN = st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=3)


@given(
    q=st.floats(0.05, 4.0),
    n1=st.integers(0, 4),
    n2=st.integers(0, 4),
    x_a=_SCREEN,
    x_b=_SCREEN,
    t=st.lists(st.floats(0.0, 2.0 * math.pi / (W1 + W2)), min_size=1, max_size=2),
)
# the shipped pair and a non-adjacent one (even-difference cross term)
@example(q=Q, n1=0, n2=1, x_a=[0.4, 2.0, -0.7], x_b=[-1.1, 2.9, 0.3], t=[T0])
@example(q=Q, n1=1, n2=3, x_a=[0.4, 2.0], x_b=[-1.1, 2.9], t=[T0])
def test_ratio_closed_forms_match_generic_path(q, n1, n2, x_a, x_b, t):
    xa, xb, tt = np.array(x_a), np.array(x_b), np.array(t)
    sep = twomode.ratio_sep_closed(q, xa[:, None], xb[None, :], n1, n2)
    ent = twomode.ratio_ent_closed(q, xa[:, None, None], xb[None, :, None], tt, W1, W2, n1, n2)
    assert sep.shape == (len(xa), len(xb))
    assert ent.shape == (len(xa), len(xb), len(tt))
    coupling = ChargeCoupling(q)
    sep_field = twomode.number_pair_separable(n1, n2)
    ent_field = twomode.number_pair_entangled(n1, n2)
    alpha, _ = twomode.number_pair_alpha_gamma(q, n1, n2)
    for i, a in enumerate(x_a):
        for j, b in enumerate(x_b):
            # R is I / (I_A I_B), so rounding of a few eps in I grows as the
            # marginal product shrinks (small q, x near pi); over 72,000
            # random points in this domain, |error| * I_A I_B stayed below
            # 10 eps against ratio_R and below 5 eps against R = 1.  The
            # bounds are flat where I_A I_B > 3.6e-3 (generic path) and
            # > 0.18 (R = 1); the two @example cases have I_A I_B > 0.04.
            prod = (1.0 + alpha * math.cos(a)) * (1.0 + alpha * math.cos(b))
            tol = max(1e-12, 16 * EPS / prod)
            assert sep[i, j] == twomode.ratio_sep_closed(q, a, b, n1, n2)
            assert abs(sep[i, j] - twomode.ratio_R(sep_field, coupling, a, b, 0.0)) <= tol
            for k, tk in enumerate(t):
                assert ent[i, j, k] == twomode.ratio_ent_closed(q, a, b, tk, W1, W2, n1, n2)
                assert abs(ent[i, j, k] - twomode.ratio_R(ent_field, coupling, a, b, tk)) <= tol
            if n1 == n2:
                # a product of equal number states is a factorizable field
                tol_one = max(1e-14, 8 * EPS / prod)
                assert abs(sep[i, j] - 1.0) <= tol_one
                assert np.all(np.abs(ent[i, j] - 1.0) <= tol_one)


def test_ratio_ent_reduces_to_sep_on_nodal_lines():
    for xa in (0.0, math.pi):
        got = twomode.ratio_ent_closed(Q, xa, 1.3, T0)
        assert got == pytest.approx(twomode.ratio_sep_closed(Q, xa, 1.3), rel=1e-13)


def test_ratio_ent_time_average_is_sep_pointwise():
    n = 16
    period = 2.0 * math.pi / (W1 + W2)
    for xa, xb in ((0.9 * math.pi, 1.025 * math.pi), (0.3, -1.7), (2.6, 2.6)):
        vals = [twomode.ratio_ent_closed(Q, xa, xb, k * period / n) for k in range(n)]
        assert np.mean(vals) == pytest.approx(twomode.ratio_sep_closed(Q, xa, xb), abs=1e-10)


def test_ratio_ent_exceeds_separable_bounds():
    # spec'd at q = 0.25 and also true at the shipped default
    for q in (0.25, Q):
        _, upper = twomode.sep_bounds(q)
        period = 2.0 * math.pi / (W1 + W2)
        best = max(
            twomode.ratio_ent_closed(q, xa, xb, t)
            for xa in np.linspace(2.5, 3.8, 7)
            for xb in np.linspace(2.5, 3.8, 7)
            for t in (0.0, 0.25 * period, 0.5 * period)
        )
        assert best > upper + 1e-4


def test_sep_bounds_and_corner_identities():
    lower, upper = twomode.sep_bounds(Q)
    assert twomode.ratio_sep_closed(Q, 0.0, 0.0) == pytest.approx(lower, abs=1e-12)
    assert twomode.ratio_sep_closed(Q, math.pi, math.pi) == pytest.approx(upper, abs=1e-12)
    # the upper bound is the true grid maximum
    xs = np.linspace(-2 * math.pi, 2 * math.pi, 81)
    vals = np.array([[twomode.ratio_sep_closed(Q, xa, xb) for xb in xs] for xa in xs])
    assert vals.max() <= upper + 1e-12
    # the surface dips below one at mixed corners; the published "min" is the
    # equal-phase corner value, not the global minimum
    alpha, gamma = twomode.number_pair_alpha_gamma(Q)
    assert vals.min() == pytest.approx((1.0 - gamma) / (1.0 - alpha * alpha), abs=1e-12)
    assert vals.min() < lower


def test_sep_bounds_weak_coupling_limits():
    # lower -> 1, but the upper corner stays finite: the cross excess
    # (W0 - W1)^2/4 and the fringe deficit (1 - alpha)^2 both vanish like
    # q^4, leaving 1/4 in the ratio
    lower, upper = twomode.sep_bounds(1e-3)
    assert lower == pytest.approx(1.0, abs=1e-9)
    assert upper == pytest.approx(1.25, abs=1e-5)


def _sep_bounds_reference(q, n1, n2):
    """The corner values (1 +- 2 alpha + gamma)/(1 +- alpha)^2 from their
    definition, in mpmath.  At q = 1e-10 the upper corner cancels 40 digits
    (1 - alpha ~ q^2, its numerator ~ q^4), so 90 working digits leave 50."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(90):
        x = mpmath.mpf(q) ** 2
        w1, w2 = (
            mpmath.exp(-x / 2) * mpmath.fsum(
                mpmath.binomial(n, m) * (-x) ** m / mpmath.factorial(m) for m in range(n + 1)
            )
            for n in (n1, n2)
        )
        alpha, gamma = (w1 + w2) / 2, (w1 * w1 + w2 * w2) / 2
        lower = (1 + 2 * alpha + gamma) / (1 + alpha) ** 2
        upper = (1 - 2 * alpha + gamma) / (1 - alpha) ** 2
        return float(lower), float(upper)


@pytest.mark.parametrize("n1, n2", [(0, 1), (1, 4), (3, 2)])
def test_sep_bounds_match_an_mpmath_reference(n1, n2):
    # both corners to a few ulps from q = 1e-10, where W_n1 and W_n2 both
    # round to 1, up to q = 1e2, where they have underflowed to 0
    qs = np.logspace(-10, 2, 49)
    lower, upper = twomode.sep_bounds(qs, n1, n2)
    for k, q in enumerate(qs.tolist()):
        ref_lo, ref_up = _sep_bounds_reference(q, n1, n2)
        assert lower[k] == pytest.approx(ref_lo, rel=8 * EPS, abs=0.0)
        assert upper[k] == pytest.approx(ref_up, rel=8 * EPS, abs=0.0)
        if k % 8 == 0:
            assert twomode.sep_bounds(q, n1, n2) == pytest.approx((ref_lo, ref_up), rel=8 * EPS, abs=0.0)


def test_sep_bounds_takes_an_array_of_couplings():
    # array and float weyl and 1 - W_n may round a few ulps apart, and no
    # term of either bound cancels
    qs = np.linspace(1e-3, 0.9, 41)
    lower, upper = twomode.sep_bounds(qs, 1, 4)
    for q, lo, up in zip(qs.tolist(), lower.tolist(), upper.tolist()):
        assert (lo, up) == pytest.approx(twomode.sep_bounds(q, 1, 4), rel=4 * EPS)


@pytest.mark.parametrize("n", [2001, 20001])
def test_fit_coupling_array_scan_matches_a_pointwise_scan(n):
    # the first minimum over the grid of pointwise sep_bounds calls
    best_q, best_dev = None, math.inf
    for q in np.linspace(0.05, 0.6, n).tolist():
        lo, up = twomode.sep_bounds(q)
        dev = max(abs(lo - 1.0001), abs(up - 1.2471))
        if dev < best_dev:
            best_q, best_dev = q, dev
    q_fit, dev = twomode.fit_coupling_to_anchors(n=n)
    assert q_fit == best_q
    # pinned to its grid point, so a change in how the bounds round cannot
    # move the fit unnoticed
    assert q_fit == np.linspace(0.05, 0.6, n)[{2001: 598, 20001: 5976}[n]]
    assert dev == pytest.approx(best_dev, rel=1e-9)


def test_fit_coupling_reproduces_anchors():
    q_fit, dev = twomode.fit_coupling_to_anchors(n=2001)
    assert abs(q_fit - twomode.DEFAULT_COUPLING_Q) <= 5e-4
    assert dev <= 1e-4
    # the round 0.25 misses the published maximum by just over 1e-3,
    # which is why the shipped default is the actual fit result
    lo, up = twomode.sep_bounds(0.25)
    assert abs(up - 1.2471) > 1e-3
    assert abs(up - 1.2471) < 1.1e-3


# screen points (a column of x_a, a row of x_b) and times for the pole rule
_XA = np.array([0.0, 0.9, 1.7, 2.5, math.pi])[:, None, None]
_XB = np.array([0.0, 1.2, 2.2, math.pi])[:, None]
_TS = T0 * np.array([0.5, 1.0, 7.0])
_RING_COUPLING = ChargeCoupling(0.25)
_RING_TS = (np.arange(8) + 0.5) / 8.0 * 2.0 * math.pi / (W1 - W2)
_PAIR = twomode.coherent_pair_entangled(1.0, math.sqrt(3.0))
_COUPLINGS = [ChargeCoupling(q) for q in np.linspace(0.1, 1.0, 7)]


def _fringe_product(n1=0, n2=1):
    """(1 + alpha cos x_a)(1 + alpha cos x_b), the closed forms' denominator."""
    alpha, _ = twomode.number_pair_alpha_gamma(Q, n1, n2)
    return (1.0 + alpha * np.cos(_XA)) * (1.0 + alpha * np.cos(_XB))


def _ring_moments(entangled):
    return squid.two_squid_currents_number(1, 3, entangled, _RING_COUPLING, W1, W2, W1, W2, _RING_TS)


def _laguerre_sums():
    """(L_1 + L_2)^2 at q'^2 of each coupling, ratio_c_sep_number's denominator."""
    return np.array([(specfun.laguerre(1, 0, c.qprime ** 2) + specfun.laguerre(2, 0, c.qprime ** 2)) ** 2
                     for c in _COUPLINGS])

# name -> (the ratio over its grid, its denominator)
_RATIOS = {
    "ratio_R": (lambda: twomode.ratio_R(_PAIR, COUPLING, _XA, _XB, _TS),
                lambda: twomode.marginal_intensity(_PAIR, "A", COUPLING, _XA, _TS)
                * twomode.marginal_intensity(_PAIR, "B", COUPLING, _XB, _TS)),
    "ratio_sep_closed": (lambda: twomode.ratio_sep_closed(Q, _XA, _XB), _fringe_product),
    "ratio_ent_closed": (lambda: twomode.ratio_ent_closed(Q, _XA, _XB, _TS), _fringe_product),
    "ratio_ent_closed-1-3": (lambda: twomode.ratio_ent_closed(Q, _XA, _XB, _TS, n1=1, n2=3),
                             lambda: _fringe_product(1, 3)),
    "ratio_c": (lambda: squid.ratio_c(_ring_moments(True)),
                lambda: (lambda m: m.ia * m.ib)(_ring_moments(True))),
    "ratio_c2": (lambda: squid.ratio_c2(_ring_moments(False)),
                 lambda: (lambda m: m.ia2 * m.ib2)(_ring_moments(False))),
    "ratio_c_sep_number": (lambda: np.array([squid.ratio_c_sep_number(1, 2, c) for c in _COUPLINGS]),
                           _laguerre_sums),
}


@pytest.mark.parametrize("name", sorted(_RATIOS))
def test_every_ratio_is_nan_exactly_where_its_denominator_is_below_the_one_eps(monkeypatch, name):
    # denominators only reach 1e-12 in the zero-visibility limit, which no
    # physical q > 0 reaches; so the one threshold, which squid reads from
    # twomode too, is widened to the middle of the widest gap between the
    # middle half of the |den| values: points fall on both sides of it, and
    # none on its edge
    ratio, den = _RATIOS[name]
    den = np.abs(den())
    values = np.unique(den)
    lo = len(values) // 4
    k = lo + int(np.argmax(np.diff(values[lo:len(values) - lo])))
    monkeypatch.setattr(twomode, "_RATIO_EPS", 0.5 * (values[k] + values[k + 1]))
    r = np.asarray(ratio())
    pole = np.broadcast_to(den < twomode._RATIO_EPS, r.shape)
    assert pole.any() and not pole.all()
    assert np.array_equal(np.isnan(r), pole)
    assert np.all(np.isfinite(r[~pole]))


def test_two_mode_weyl_unsupported_component():
    from mesoweyl.states import TwoModeProductSuperposition, SqueezedState

    bad = TwoModeProductSuperposition(((1.0, SqueezedState(0j, 1.0), NumberState(0)),))
    with pytest.raises(TypeError):
        twomode.two_mode_weyl(bad, 0.1j, 0.2j)


_PAIRS = {
    "number-separable": lambda n1, n2, a1, a2: twomode.number_pair_separable(n1, n2),
    "number-entangled": lambda n1, n2, a1, a2: twomode.number_pair_entangled(n1, n2),
    "number-crossed-separable": lambda n1, n2, a1, a2: twomode.number_pair_crossed(n1, n2, False),
    "number-crossed-entangled": lambda n1, n2, a1, a2: twomode.number_pair_crossed(n1, n2, True),
    "coherent-separable": lambda n1, n2, a1, a2: twomode.coherent_pair_separable(a1, a2),
    "coherent-entangled": lambda n1, n2, a1, a2: twomode.coherent_pair_entangled(a1, a2),
}
_Z = st.lists(st.builds(cmath.rect, st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)),
              min_size=1, max_size=4)


@pytest.mark.parametrize("pair", sorted(_PAIRS))
@given(n1=st.integers(0, 4), n2=st.integers(0, 4), a1=_AMPLITUDE, a2=_AMPLITUDE, z1=_Z, z2=_Z)
def test_two_mode_weyl_of_arrays_equals_the_scalar_calls(pair, n1, n2, a1, a2, z1, z2):
    state2 = _PAIRS[pair](n1, n2, a1, a2)
    got = twomode.two_mode_weyl(state2, np.array(z1)[:, None], np.array(z2)[None, :])
    assert got.shape == (len(z1), len(z2))
    scalar = [[twomode.two_mode_weyl(state2, u, v) for v in z2] for u in z1]
    assert all(type(w) is complex for row in scalar for w in row)
    # |W2| <= 1; 9.0e-16 (the entangled coherent pair) was the worst over
    # 1,000 examples per pair
    assert np.max(np.abs(got - np.array(scalar))) <= 2e-15


_FIELDS = {
    "number-separable": lambda n1, n2, a1, a2: twomode.number_pair_separable(n1, n2),
    "number-entangled": lambda n1, n2, a1, a2: twomode.number_pair_entangled(n1, n2),
    "coherent-entangled": lambda n1, n2, a1, a2: twomode.coherent_pair_entangled(a1, a2),
    "factorizable": lambda n1, n2, a1, a2: TwoModeFactorizable(NumberState(n1), CoherentState(a2)),
}


@pytest.mark.parametrize("field", sorted(_FIELDS))
@given(
    n1=st.integers(0, 4),
    n2=st.integers(0, 4),
    a1=_AMPLITUDE,
    a2=_AMPLITUDE,
    q=st.floats(0.05, 2.0),
    x_a=_SCREEN,
    x_b=_SCREEN,
    t=st.lists(st.floats(0.0, 2.0 * math.pi / (W1 - W2)), min_size=1, max_size=2),
)
def test_intensities_and_ratio_of_arrays_equal_the_scalar_calls(field, n1, n2, a1, a2, q, x_a, x_b, t):
    state2, coupling = _FIELDS[field](n1, n2, a1, a2), ChargeCoupling(q)
    xa, xb, tt = np.array(x_a)[:, None, None], np.array(x_b)[None, :, None], np.array(t)
    shape = (len(x_a), len(x_b), len(t))
    ia = twomode.marginal_intensity(state2, "A", coupling, xa, tt)
    ib = twomode.marginal_intensity(state2, "B", coupling, xb, tt)
    joint = twomode.joint_intensity(state2, coupling, xa, xb, tt)
    ratio = twomode.ratio_R(state2, coupling, xa, xb, tt)
    assert ia.shape == (len(x_a), 1, len(t)) and ib.shape == (1, len(x_b), len(t))
    assert joint.shape == ratio.shape == shape
    for i, j, k in np.ndindex(shape):
        a, b, tk = x_a[i], x_b[j], t[k]
        one_a = twomode.marginal_intensity(state2, "A", coupling, a, tk)
        one_b = twomode.marginal_intensity(state2, "B", coupling, b, tk)
        one = [one_a, one_b, twomode.joint_intensity(state2, coupling, a, b, tk),
               twomode.ratio_R(state2, coupling, a, b, tk)]
        assert all(type(v) is float for v in one)
        # intensities lie in [0, 4], and R = I / (I_A I_B) scales their
        # rounding by 1 / (I_A I_B).  Over 1,000 examples per field the worst
        # was 1.0e-15 for a marginal, 1.8e-15 for the joint intensity and
        # 1.3e-15 for the ratio times I_A I_B
        assert abs(ia[i, 0, k] - one_a) <= 4e-15
        assert abs(ib[0, j, k] - one_b) <= 4e-15
        assert abs(joint[i, j, k] - one[2]) <= 4e-15
        assert abs(ratio[i, j, k] - one[3]) * one_a * one_b <= 4e-15


def test_a_twomode_suite_run_makes_at_most_34_weyl_74_number_16_coherent_elements(monkeypatch):
    # every fringe and ratio reaches its single-mode values through
    # displacement_expectation's element tables, one call per check's points:
    # 34 Weyl values, 74 number and 16 coherent elements, no two_mode_weyl.
    # Of these, the closed forms' check takes 16 Weyl values (4 per
    # separable pair's ratio_R, 2 per closed form's alpha and gamma) and 34
    # number elements (16 per entangled pair's ratio_R, 1 per entangled
    # closed form); 582 two_mode_weyl calls when ratio_R and the intensities
    # took one point at a time
    counts = {"weyl": 0, "number_displacement_element": 0, "coherent_displacement_element": 0,
              "two_mode_weyl": 0}
    for name in counts:
        def counted(*args, name=name, real=getattr(twomode, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(twomode, name, counted)
    assert verify.run_suite("twomode")["passed"]
    assert counts["weyl"] <= 34
    assert counts["number_displacement_element"] <= 74
    assert counts["coherent_displacement_element"] <= 16
    assert counts["two_mode_weyl"] == 0
