"""Field-state descriptors and their closed-form single-mode observables.

Conventions used throughout the package:

* displacement  D(z) = exp(z a^dag - z* a), Weyl function W(z) = Tr[rho D(z)];
* squeezing     S = exp(-(r/4) e^{-i varphi} a^dag^2 + (r/4) e^{i varphi} a^2)
  applied to the displaced vacuum, |A; r varphi> = S D(A)|0>, so quadrature
  scalings carry half-angle arguments cosh(r/2), sinh(r/2);
* the loop flux operator is flux(t) = (xi/sqrt2)(e^{iwt} a^dag + e^{-iwt} a)
  and the electromotive force is its dual quadrature, fixed by the single
  normative convention a = (flux + i emf/omega) / (sqrt2 xi).

Thermal states are parameterized by the product beta*omega, which is the only
combination their observables depend on.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun

__all__ = [
    "NumberState",
    "CoherentState",
    "SqueezedState",
    "ThermalState",
    "ModeParams",
    "ChargeCoupling",
    "TwoModeFactorizable",
    "TwoModeSeparableMixture",
    "TwoModeProductSuperposition",
    "weyl",
    "weyl_drive_coeffs",
    "weyl_time_average",
    "photon_counting",
    "mean_photons",
    "match_mean_photons",
    "flux_stats",
    "emf_stats",
    "number_displacement_element",
    "coherent_overlap",
    "coherent_displacement_element",
]


@dataclass(frozen=True)
class NumberState:
    n: int

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("photon number must be a nonnegative integer")


@dataclass(frozen=True)
class CoherentState:
    amplitude: complex


@dataclass(frozen=True)
class SqueezedState:
    amplitude: complex
    r: float
    varphi: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeezing parameter r must be >= 0")


@dataclass(frozen=True)
class ThermalState:
    beta_omega: float  # inverse temperature times mode frequency

    def __post_init__(self):
        if self.beta_omega <= 0:
            raise ValueError("beta*omega must be positive")


@dataclass(frozen=True)
class ModeParams:
    """Mode frequency and loop coupling (area) constant, k_B = hbar = c = 1."""

    omega: float
    xi: float = 1.0

    def __post_init__(self):
        if self.omega <= 0 or self.xi <= 0:
            raise ValueError("omega and xi must be positive")


@dataclass(frozen=True)
class ChargeCoupling:
    """Scaled charges: q for single electrons, qprime = 2q for Cooper pairs."""

    q: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("coupling q must be positive")

    @property
    def qprime(self) -> float:
        return 2.0 * self.q


# ---------------------------------------------------------------------------
# two-mode descriptors (built-in correlated families live in twomode/squid)

@dataclass(frozen=True)
class TwoModeFactorizable:
    state_a: object
    state_b: object


@dataclass(frozen=True)
class TwoModeSeparableMixture:
    """Probabilistic mixture sum_k P_k rho_{A,k} x rho_{B,k}."""

    terms: tuple  # of (weight, state_a, state_b)

    def __post_init__(self):
        total = 0.0
        for w, _, _ in self.terms:
            if w < 0:
                raise ValueError("mixture weights must be nonnegative")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to one")


@dataclass(frozen=True)
class TwoModeProductSuperposition:
    """Pure state sum_k c_k |u_k> x |v_k| with pure single-mode kets u, v."""

    terms: tuple  # of (coeff, ket_a, ket_b)


# ---------------------------------------------------------------------------
# Weyl functions

def weyl(state, z):
    """Closed-form Weyl function W(z) = Tr[rho D(z)] of a single-mode state.

    z is a complex number, which gives a complex, or an array of them, which
    gives a complex array of its shape: a whole drive or phase grid is one
    call.
    """
    z = np.asarray(z, dtype=complex)
    # |z| ** 2 overflows past 1e154, where W has its limit 0, so those
    # entries are computed at z = 0 and zeroed at the end
    far = np.abs(z) > 1e154
    z = np.where(far, 0j, z)
    rho = np.abs(z)
    x = rho ** 2
    if isinstance(state, NumberState):
        w = specfun.scaled_laguerre(state.n, x)
    elif isinstance(state, CoherentState):
        a = complex(state.amplitude)
        w = np.exp(-x / 2.0 + z * a.conjugate() - np.conj(z) * a)
    elif isinstance(state, SqueezedState):
        a = complex(state.amplitude)
        th = np.angle(z)
        yy = 0.5 * x * (math.cosh(state.r) + math.sinh(state.r) * np.cos(2 * th + state.varphi))
        xx = 2.0 * abs(a) * rho * (
            math.cosh(state.r / 2.0) * np.sin(th - cmath.phase(a))
            - math.sinh(state.r / 2.0) * np.sin(th + cmath.phase(a) + state.varphi)
        )
        w = np.exp(-yy + 1j * xx)
    elif isinstance(state, ThermalState):
        # phase-invariant; reduces to exp(-(zeta^2/2) coth(bw/2)) on z real*e^{iwt}
        w = np.exp(-0.5 * x / math.tanh(state.beta_omega / 2.0))
    else:
        raise TypeError(f"unsupported state {state!r}")
    return _scalar_or_array(np.where(far, 0j, w))


def _scalar_or_array(w):
    """A complex for a 0-d array, else the array itself."""
    return complex(w) if w.ndim == 0 else w


def _ipow(k: int) -> complex:
    return (1, 1j, -1, -1j)[k % 4]


def weyl_drive_coeffs(state, c, tol: float = 1e-18) -> dict:
    """Fourier coefficients a_k of theta -> W(i c e^{i theta}).

    The circular drive z(theta) = i c e^{i theta} (theta = omega t) turns the
    Weyl function of every supported family into a rapidly decaying harmonic
    series; the k = 0 entry is the exact infinite-time average.
    """
    c = complex(c)
    rho = abs(c)
    if isinstance(state, (NumberState, ThermalState)):
        return {0: weyl(state, 1j * rho)}
    if isinstance(state, CoherentState):
        a = complex(state.amplitude)
        delta = cmath.phase(c) - cmath.phase(a)
        base = math.exp(-rho * rho / 2.0)
        out = {}
        for k, jk in specfun.bessel_j_harmonics(2.0 * rho * abs(a)).items():
            val = base * _ipow(k) * jk * cmath.exp(1j * k * delta)
            if abs(val) > tol:
                out[k] = val
        return out
    if isinstance(state, SqueezedState):
        pref, v, chi, w = _squeezed_drive(state, c)
        js = specfun.bessel_j_harmonics(abs(w))
        psi = cmath.phase(w)
        mmax = int(specfun.order_cutoff(v))
        ims = specfun.bessel_ive_all(v, mmax + 1)
        out = {}
        for m in range(-mmax, mmax + 1):
            fm = pref * (-1 if m & 1 else 1) * ims[abs(m)]
            if abs(fm) <= tol:
                continue
            fm = fm * cmath.exp(1j * m * chi)
            for n, jn in js.items():
                if abs(fm) * abs(jn) <= tol:
                    continue
                k = n + 2 * m
                out[k] = out.get(k, 0j) + fm * jn * cmath.exp(1j * n * psi)
        # "not <=" keeps NaN coefficients, so a NaN never reconstructs as W = 0
        return {k: val for k, val in out.items() if not abs(val) <= tol}
    raise TypeError(f"unsupported state {state!r}")


def _squeezed_drive(state, c):
    """(pref, v, chi, w) with W(i c e^{i theta}) =
    pref exp(-v (1 + cos(2 theta + chi))) exp(i Im[w e^{i theta}]), for a
    complex c or an array of them.

    pref = exp(-|c|^2 e^{-r} / 2) multiplies e^{-v} I_m(v), so no factor
    overflows at strong squeezing.
    """
    a = complex(state.amplitude)
    rho = np.abs(c)
    r, ph = state.r, state.varphi
    u = math.pi / 2.0 + np.angle(c)
    pref = np.exp(-0.5 * rho * rho * math.exp(-r))
    v = 0.5 * rho * rho * math.sinh(r)
    chi = 2.0 * u + ph
    w = 2.0 * abs(a) * rho * (
        math.cosh(r / 2.0) * np.exp(1j * (u - cmath.phase(a)))
        - math.sinh(r / 2.0) * np.exp(1j * (u + cmath.phase(a) + ph))
    )
    return pref, v, chi, w


def weyl_time_average(state, c):
    """Exact average over theta of W(i c e^{i theta}).

    c is a complex number, which gives a complex, or an array of them, which
    gives a complex array of its shape: one call covers a whole lag grid of
    the autocorrelation.  The harmonic expansion collapses to its
    zero-frequency entry without building the full coefficient map.
    """
    c = np.asarray(c, dtype=complex)
    # as in weyl: |c| ** 2 overflows past 1e154, where the average has its
    # limit 0, so those entries are computed at c = 0 and zeroed at the end
    far = np.abs(c) > 1e154
    c = np.where(far, 0j, c)
    rho = np.abs(c)
    x = rho * rho
    if isinstance(state, NumberState):
        avg = specfun.scaled_laguerre(state.n, x)
    elif isinstance(state, ThermalState):
        avg = np.exp(-0.5 * x / math.tanh(state.beta_omega / 2.0))
    elif isinstance(state, CoherentState):
        avg = np.exp(-x / 2.0) * specfun.jv(0, 2.0 * rho * abs(state.amplitude))
    elif isinstance(state, SqueezedState):
        pref, v, chi, w = _squeezed_drive(state, c)
        # where pref underflows the average is 0, as |total| <= 1: such
        # entries run at v = w = 0, so they size no table, and give 0 * 1
        live = pref > 0.0
        v, w = np.where(live, v, 0.0), np.where(live, w, 0j)
        absw = np.abs(w)
        # zero frequency needs the theta index n = -2m; J_{-2m} = J_{2m}, so
        # the +-m terms pair into 2 cos(m (chi - 2 psi)), and J_{2m} is below
        # 1e-18 beyond the order cutoff of |w|, as is e^{-v} I_m(v) beyond v's
        mmax = min(specfun.order_cutoff(v.max(initial=0.0)),
                   specfun.order_cutoff(absw.max(initial=0.0)) // 2)
        ims = specfun.bessel_ive_all(v, mmax + 1)
        phi = chi - 2.0 * np.angle(w)
        total = ims[0] * specfun.jv(0, absw)
        for m in range(1, mmax + 1):
            total += (-2.0 if m & 1 else 2.0) * ims[m] * specfun.jv(2 * m, absw) * np.cos(m * phi)
        avg = pref * total
    else:
        raise TypeError(f"unsupported state {state!r}")
    return _scalar_or_array(np.where(far, 0j, avg))


# ---------------------------------------------------------------------------
# displacement matrix elements (closed forms; the matrix oracle has its own)

def number_displacement_element(m: int, z, n: int) -> complex:
    """<m| D(z) |n> = sqrt(n!/m!) z^{m-n} e^{-|z|^2/2} L_n^{m-n}(|z|^2)."""
    z = complex(z)
    if m < n:
        # fixed by D(z)^dag = D(-z)
        return number_displacement_element(n, -z, m).conjugate()
    if abs(z) > 1e154:  # as in weyl: the element -> 0 as |z| -> inf
        return 0j
    x = abs(z) ** 2
    pref = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)) - x / 2.0)
    return pref * z ** (m - n) * specfun.laguerre(n, m - n, x)


def coherent_overlap(a, b):
    """<a|b> for coherent states; a and b broadcast."""
    return np.exp(-np.abs(a) ** 2 / 2.0 - np.abs(b) ** 2 / 2.0 + np.conj(a) * b)


def coherent_displacement_element(b, z, a):
    """<b| D(z) |a> via D(z)|a> = e^{(z a* - z* a)/2} |a+z>; b, z and a
    broadcast."""
    return np.exp((z * np.conj(a) - np.conj(z) * a) / 2.0) * coherent_overlap(b, a + z)


# ---------------------------------------------------------------------------
# photon statistics

def _poisson(mean: float, n: int) -> float:
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


@lru_cache(maxsize=256)
def _squeezed_amplitudes(amplitude: complex, r: float, varphi: float, nmax: int) -> tuple:
    """Fock amplitudes of S D(A)|0> = D(A') S|0> by the annihilator recurrence.

    With s = r/2 and squeeze phase theta = -varphi, the state is annihilated
    by cosh(s)(a - beta) + e^{i theta} sinh(s)(a^dag - beta*), beta = A' =
    A cosh(s) - A* e^{i theta} sinh(s).
    """
    s = r / 2.0
    theta = -varphi
    a = complex(amplitude)
    beta = a * math.cosh(s) - a.conjugate() * cmath.exp(1j * theta) * math.sinh(s)
    th = math.tanh(s)
    e_th = cmath.exp(1j * theta) * th
    c0 = (1.0 / math.cosh(s)) ** 0.5 * cmath.exp(
        -0.5 * (abs(beta) ** 2 + e_th * beta.conjugate() ** 2)
    )
    amps = [c0, (beta + e_th * beta.conjugate()) * c0]
    for n in range(1, nmax):
        nxt = ((beta + e_th * beta.conjugate()) * amps[n] - e_th * math.sqrt(n) * amps[n - 1]) / math.sqrt(n + 1)
        amps.append(nxt)
    return tuple(amps[: nmax + 1])


def photon_counting(state, n: int) -> float:
    """P(n) = <n| rho |n>."""
    if n < 0:
        raise ValueError("photon count must be nonnegative")
    if isinstance(state, NumberState):
        return 1.0 if n == state.n else 0.0
    if isinstance(state, CoherentState):
        return _poisson(abs(state.amplitude) ** 2, n)
    if isinstance(state, ThermalState):
        bw = state.beta_omega
        return (1.0 - math.exp(-bw)) * math.exp(-bw * n)
    if isinstance(state, SqueezedState):
        amps = _squeezed_amplitudes(complex(state.amplitude), state.r, state.varphi, n)
        return abs(amps[n]) ** 2
    raise TypeError(f"unsupported state {state!r}")


def mean_annihilation(state) -> complex:
    """<a> of the state."""
    if isinstance(state, (NumberState, ThermalState)):
        return 0j
    if isinstance(state, CoherentState):
        return complex(state.amplitude)
    if isinstance(state, SqueezedState):
        a = complex(state.amplitude)
        return a * math.cosh(state.r / 2.0) - a.conjugate() * cmath.exp(-1j * state.varphi) * math.sinh(state.r / 2.0)
    raise TypeError(f"unsupported state {state!r}")


def mean_photons(state) -> float:
    """Average photon number <a^dag a>."""
    if isinstance(state, NumberState):
        return float(state.n)
    if isinstance(state, CoherentState):
        return abs(state.amplitude) ** 2
    if isinstance(state, ThermalState):
        bw = state.beta_omega
        return math.exp(-bw) / -math.expm1(-bw)
    if isinstance(state, SqueezedState):
        # sinh^2(r/2) + |<a>|^2; collapses to the familiar
        # sinh^2(r/2) + [cosh(r/2)-sinh(r/2)]^2 |A|^2 when cos(2 arg A + varphi) = 1
        return math.sinh(state.r / 2.0) ** 2 + abs(mean_annihilation(state)) ** 2
    raise TypeError(f"unsupported state {state!r}")


def match_mean_photons(family: str, target: float, r: float = None, varphi: float = 0.0):
    """State of the given family with mean photon number ``target``.

    Solved in closed form; squeezed states keep r, varphi fixed and carry the
    required amplitude along the real axis (arg A = 0).
    """
    if target < 0:
        raise ValueError("target mean photon number must be nonnegative")
    if family == "number":
        n = round(target)
        if abs(target - n) > 1e-9:
            raise ValueError("number family can only match integer targets")
        return NumberState(int(n))
    if family == "coherent":
        return CoherentState(complex(math.sqrt(target)))
    if family == "thermal":
        if target == 0:
            raise ValueError("thermal target must be positive (beta*omega finite)")
        return ThermalState(math.log((target + 1.0) / target))
    if family == "squeezed":
        if r is None:
            raise ValueError("squeezed family needs the fixed squeezing parameter r")
        floor = math.sinh(r / 2.0) ** 2
        if target < floor - 1e-12:
            raise ValueError(f"target {target} below the squeezed-vacuum floor {floor}")
        amp2 = max(target - floor, 0.0) / (math.cosh(r / 2.0) - math.sinh(r / 2.0)) ** 2
        return SqueezedState(complex(math.sqrt(amp2)), r, varphi)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# flux and electromotive-force statistics

def flux_stats(state, mode: ModeParams, t: float):
    """(mean, standard deviation) of the loop flux operator at time t."""
    xi, w = mode.xi, mode.omega
    if isinstance(state, NumberState):
        return 0.0, xi * math.sqrt(state.n + 0.5)
    if isinstance(state, CoherentState):
        a = complex(state.amplitude)
        mean = math.sqrt(2.0) * xi * abs(a) * math.cos(w * t - cmath.phase(a))
        return mean, xi / math.sqrt(2.0)
    if isinstance(state, ThermalState):
        return 0.0, xi * math.sqrt(0.5 / math.tanh(state.beta_omega / 2.0))
    if isinstance(state, SqueezedState):
        am = mean_annihilation(state)
        mean = math.sqrt(2.0) * xi * (cmath.exp(-1j * w * t) * am).real
        var = 0.5 * xi * xi * (math.cosh(state.r) - math.sinh(state.r) * math.cos(2 * w * t + state.varphi))
        return mean, math.sqrt(var)
    raise TypeError(f"unsupported state {state!r}")


def emf_stats(state, mode: ModeParams, t: float):
    """(mean, standard deviation) of the electromotive force at time t.

    The EMF is the flux quadrature a quarter period ahead, scaled by omega.
    """
    xi, w = mode.xi, mode.omega
    if isinstance(state, NumberState):
        return 0.0, w * xi * math.sqrt(state.n + 0.5)
    if isinstance(state, CoherentState):
        a = complex(state.amplitude)
        mean = -math.sqrt(2.0) * w * xi * abs(a) * math.sin(w * t - cmath.phase(a))
        return mean, w * xi / math.sqrt(2.0)
    if isinstance(state, ThermalState):
        return 0.0, w * xi * math.sqrt(0.5 / math.tanh(state.beta_omega / 2.0))
    if isinstance(state, SqueezedState):
        # the EMF is the time derivative of the mean flux
        am = mean_annihilation(state)
        mean = math.sqrt(2.0) * w * xi * (cmath.exp(-1j * w * t) * am).imag
        var = 0.5 * (w * xi) ** 2 * (math.cosh(state.r) + math.sinh(state.r) * math.cos(2 * w * t + state.varphi))
        return mean, math.sqrt(var)
    raise TypeError(f"unsupported state {state!r}")
