"""Mesoscopic SQUID rings under classical and nonclassical microwaves.

The junction phase is driven by a charge-scaled flux, so every drive
parameter enters pre-multiplied by the Cooper-pair charge: ``phase0`` is the
static phase offset, ``omega_a`` the linear-ramp (Josephson) frequency and
``u_phase`` the classical sinusoid's phase amplitude.  Quantum drives couple
through qprime = 2q and reduce, exactly as in the interference case, to Weyl
function evaluations at sigma = i qprime e^{i w1 t}.  Every ring current is
in units of the critical current I_c.  A ``SquidDrive`` carries its ring's
static offset; ``quantum_current`` and the two-ring moments take none.

dc currents are exact zero-frequency coefficients: a Shapiro step sums the
classical drive's Bessel harmonics J_j(u) against the Weyl function's
harmonics on the drive circle, ``states.weyl_time_average(state, q', k)``,
all of a state's steps and harmonics from one call; finite-window numeric
averages exist only as test oracles.

Two distant rings couple to the swapped two-mode families
(|n1 n2>, |n2 n1>) and (|a1 a2>, |a2 a1>).  ``two_ring_moments`` writes
sin(phi + X) and sin^2(phi + X) as sums of D(j sigma), j in
{0, +-1, +-2}, and takes the moments a caller asks for, of either pair or
any other two-mode state with closed-form elements, from one
``twomode.displacement_expectation`` call, the route of ``twomode.ratio_R``
too: one table of single-mode values per mode, holding only the orders
those moments use.  The two-ring moments and ratios take t as a float or
an array of times, so a whole phase grid is one call, and a ratio's pole
reads NaN.
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from .states import ChargeCoupling, _integer_orders, _scalar_or_array, weyl, weyl_time_average
from .twomode import (
    _nan_at,
    _ratio,
    coherent_pair_entangled,
    coherent_pair_separable,
    displacement_expectation,
    number_pair_crossed,
)

__all__ = [
    "SquidDrive",
    "TwoSquidMoments",
    "classical_current",
    "classical_current_expansion",
    "classical_shapiro",
    "quantum_current",
    "quantum_shapiro",
    "two_ring_moments",
    "two_squid_currents_number",
    "two_squid_currents_coherent",
    "cross_term_frequencies",
    "ratio_c",
    "ratio_c2",
    "ratio_c_sep_number",
    "ratio_c_ent_number",
]


@dataclass(frozen=True)
class SquidDrive:
    """Charge-scaled drive of one ring: static offset, ramp frequency,
    sinusoid amplitude, microwave frequency."""

    phase0: float = 0.0     # 2e * phi_0
    omega_a: float = 0.0    # 2e * V, the Josephson frequency
    u_phase: float = 0.0    # 2e * u
    omega1: float = 1.0     # microwave drive frequency

    def __post_init__(self):
        if self.omega1 <= 0:
            raise ValueError("microwave frequency must be positive")


class TwoSquidMoments(NamedTuple):
    """<I_A>, <I_B>, <I_A^2>, <I_B^2>, <I_A I_B> and <I_A^2 I_B^2>; a moment
    the caller did not ask for is None."""

    ia: float = None
    ib: float = None
    ia2: float = None
    ib2: float = None
    ia_ib: float = None
    ia2_ib2: float = None


# ---------------------------------------------------------------------------
# single ring, classical drive

def classical_current(drive: SquidDrive, t):
    """I / I_c = sin(phase0 + omega_a t + u_phase sin(omega1 t)) at a time t
    (a float) or an array of times (an array of its shape)."""
    return _scalar_or_array(np.sin(
        drive.phase0 + drive.omega_a * t + drive.u_phase * np.sin(drive.omega1 * t)
    ))


def classical_current_expansion(drive: SquidDrive, t):
    """Bessel-expanded current I / I_c = sum_n J_n(u) sin[(omega_a + n omega1)t
    + phase0] at a time t (a float) or an array of times (an array of its
    shape), from one table of harmonics."""
    total = 0.0
    for n, jn in specfun.bessel_j_harmonics(drive.u_phase).items():
        total += jn * np.sin((drive.omega_a + n * drive.omega1) * t + drive.phase0)
    return _scalar_or_array(total)


def classical_shapiro(drive: SquidDrive, n_step: int) -> float:
    """dc current on step n (resonance omega_a = n omega1 imposed):
    I / I_c = J_{-n}(u_phase) sin(phase0)."""
    return float(specfun.jv(-n_step, drive.u_phase)) * math.sin(drive.phase0)


# ---------------------------------------------------------------------------
# single ring, quantum drive

def quantum_current(state, coupling: ChargeCoupling, omega_a: float, omega1: float, t):
    """<I> / I_c = Im[e^{i omega_a t} W(sigma)], sigma = i q' e^{i w1 t}, at
    a time t (a float) or an array of times (an array of its shape)."""
    t = np.asarray(t, dtype=float)
    w = weyl(state, 1j * coupling.qprime * np.exp(1j * omega1 * t))
    # the imaginary part in real arithmetic: numpy's complex product rounds
    # differently over an array than on one element
    return _scalar_or_array(np.sin(omega_a * t) * np.real(w) + np.cos(omega_a * t) * np.imag(w))


def quantum_shapiro(state, drive: SquidDrive, n_step, coupling: ChargeCoupling):
    """dc current on step n for a classical sinusoid plus a quantum mode.

    The ramp e^{i n w1 t}, the sinusoid sum_j J_j(u) e^{i j w1 t} and the
    Weyl function sum_k a_k e^{i k w1 t} meet at zero frequency where
    n + j + k = 0, so the step is Im[e^{i phase0} sum_j J_j(u) a_{-n-j}]
    with a_k = ``weyl_time_average(state, q', k)``.  A phase-matched coherent
    state (amplitude u/(2 q') at arg A = pi/2) has a_k = e^{-q'^2/2} J_k(u),
    so it reproduces every classical step scaled by e^{-q'^2/2}; squeezed
    vacuum leaves even steps only.

    n_step is an int, which gives a float, or an integer array of steps,
    which gives a float array of its shape; a step that is not an integer
    raises ValueError.  All (step, j) pairs share one time-average call.
    """
    n = _integer_orders(n_step, "Shapiro step n_step")
    harmonics = specfun.bessel_j_harmonics(drive.u_phase)
    avgs = weyl_time_average(state, coupling.qprime, -n[..., None] - np.array(list(harmonics)))
    # summed in j order, one column at a time, as a sum of scalar steps runs
    total = 0.0
    for col, jj in enumerate(harmonics.values()):
        total = total + jj * avgs[..., col]
    # the imaginary part in real arithmetic, as in quantum_current
    turn = cmath.exp(1j * drive.phase0)
    return _scalar_or_array(turn.real * np.imag(total) + turn.imag * np.real(total))


# ---------------------------------------------------------------------------
# two distant rings

def cross_term_frequencies(n1: int, n2: int, omega_a: float, omega_b: float,
                           omega1: float, omega2: float):
    """|omega_a +- omega_b +- Omega| carried by the entangled-minus-separable
    product difference, Omega = (n1 - n2)(omega1 - omega2)."""
    omega_big = (n1 - n2) * (omega1 - omega2)
    freqs = {
        abs(omega_a + omega_b + omega_big),
        abs(omega_a + omega_b - omega_big),
        abs(omega_a - omega_b + omega_big),
        abs(omega_a - omega_b - omega_big),
    }
    return sorted(freqs)


def _sin_power_terms(phase, power: int) -> dict:
    """sin(phase + X) (power 1) or sin^2(phase + X) (power 2) as {j: c_j},
    meaning sum_j c_j D(j sigma), where D(sigma) = e^{iX} and D(sigma)^2 = D(2 sigma)."""
    e = np.exp(1j * phase)
    if power == 1:
        return {1: e / 2j, -1: -np.conj(e) / 2j}
    e2 = e * e
    return {0: 0.5, 2: -0.25 * e2, -2: -0.25 * np.conj(e2)}


def two_ring_moments(state2, coupling: ChargeCoupling, omega_a: float, omega_b: float,
                     omega1: float, omega2: float, t, fields=TwoSquidMoments._fields) -> TwoSquidMoments:
    """Current moments of two rings driven by any two-mode state with
    closed-form elements (a mixture or product superposition of number or
    coherent kets).

    Each ring expands sin(omega t + X) = (e^{i omega t} D(sigma) -
    e^{-i omega t} D(-sigma))/2i and sin^2 = (2 - e^{2i omega t} D(2 sigma) -
    e^{-2i omega t} D(-2 sigma))/4, sigma = i q' e^{i w t}, and the moments
    named in ``fields`` are one ``twomode.displacement_expectation`` call,
    whose element tables hold only the orders those moments use; the other
    fields are None.  t is a float or an array of times, and each moment has
    its shape.
    """
    sigma_a = 1j * coupling.qprime * np.exp(1j * omega1 * t)
    sigma_b = 1j * coupling.qprime * np.exp(1j * omega2 * t)
    one = {0: 1.0}
    sin_a, sin2_a = _sin_power_terms(omega_a * t, 1), _sin_power_terms(omega_a * t, 2)
    sin_b, sin2_b = _sin_power_terms(omega_b * t, 1), _sin_power_terms(omega_b * t, 2)
    terms = {"ia": (sin_a, one), "ib": (one, sin_b), "ia2": (sin2_a, one), "ib2": (one, sin2_b),
             "ia_ib": (sin_a, sin_b), "ia2_ib2": (sin2_a, sin2_b)}
    values = displacement_expectation(state2, [terms[f] for f in fields], sigma_a, sigma_b)
    return TwoSquidMoments(**dict(zip(fields, values)))


def two_squid_currents_number(n1: int, n2: int, entangled: bool, coupling: ChargeCoupling,
                              omega_a: float, omega_b: float, omega1: float, omega2: float,
                              t, fields=TwoSquidMoments._fields) -> TwoSquidMoments:
    """``two_ring_moments`` of the swapped number pair
    (``twomode.number_pair_crossed``).  Separable moments depend only on the
    occupations; entanglement adds a cross term oscillating at
    Omega = (n1 - n2)(omega1 - omega2)."""
    return two_ring_moments(number_pair_crossed(n1, n2, entangled), coupling, omega_a, omega_b, omega1, omega2, t, fields)


def two_squid_currents_coherent(a1, a2, entangled: bool, coupling: ChargeCoupling,
                                omega_a: float, omega_b: float, omega1: float, omega2: float,
                                t, fields=TwoSquidMoments._fields) -> TwoSquidMoments:
    """``two_ring_moments`` of the swapped coherent pair."""
    pair = coherent_pair_entangled if entangled else coherent_pair_separable
    return two_ring_moments(pair(a1, a2), coupling, omega_a, omega_b, omega1, omega2, t, fields)


# ---------------------------------------------------------------------------
# correlation ratios; a pole gives NaN by twomode's one rule (|denominator|
# < twomode._RATIO_EPS), so a whole time axis is one call

# a ramp sine below this marks a tan-pole of the odd-difference entangled ratio
_POLE_MARGIN = 1e-6


def ratio_c(moments: TwoSquidMoments):
    """R^(c) = <I_A I_B> / (<I_A><I_B>); unity for factorizable drives, NaN
    where a ring current vanishes."""
    return _ratio(moments.ia_ib, moments.ia * moments.ib)


def ratio_c2(moments: TwoSquidMoments):
    """R^(c2) = <I_A^2 I_B^2> / (<I_A^2><I_B^2>), NaN where a squared ring
    current vanishes."""
    return _ratio(moments.ia2_ib2, moments.ia2 * moments.ib2)


def ratio_c_sep_number(n1: int, n2: int, coupling: ChargeCoupling) -> float:
    """Time-independent separable ratio 4 L_{n1} L_{n2} / (L_{n1} + L_{n2})^2,
    NaN where the Laguerre sum vanishes."""
    qp2 = coupling.qprime ** 2
    l1 = specfun.laguerre(n1, 0, qp2)
    l2 = specfun.laguerre(n2, 0, qp2)
    return _ratio(4.0 * l1 * l2, (l1 + l2) ** 2)


def ratio_c_ent_number(n1: int, n2: int, coupling: ChargeCoupling, t,
                       omega1: float, omega2: float, omega_a: float, omega_b: float):
    """Entangled ratio; equal occupations give the separable value, even
    occupation differences oscillate around it at Omega, odd differences
    carry tan-poles at the ramp zeros (points where a ramp sine is under
    _POLE_MARGIN give NaN, as does a vanishing Laguerre sum).  t is a float
    or an array of times."""
    qp2 = coupling.qprime ** 2
    l1 = specfun.laguerre(n1, 0, qp2)
    l2 = specfun.laguerre(n2, 0, qp2)
    lc1 = specfun.laguerre(n1, n2 - n1, qp2)
    lc2 = specfun.laguerre(n2, n1 - n2, qp2)
    base = ratio_c_sep_number(n1, n2, coupling)
    # |n n> has no cross term
    amp = _ratio(4.0 * lc1 * lc2, (l1 + l2) ** 2) if n1 != n2 else 0.0
    d = n1 - n2
    osc = np.cos(d * (omega1 - omega2) * t)
    if d % 2 == 0:
        return base + amp * osc
    sa, sb = np.sin(omega_a * t), np.sin(omega_b * t)
    pole = (np.abs(sa) < _POLE_MARGIN) | (np.abs(sb) < _POLE_MARGIN)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _nan_at(pole, base - amp * osc / (np.tan(omega_a * t) * np.tan(omega_b * t)))
