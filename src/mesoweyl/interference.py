"""Single-device electron interference under classical and quantum driving.

The screen coordinate x is the phase difference between the two paths, with
equal splitting assumed, so the static fringe is 1 + cos(x - e*flux).  With a
quantized drive the fringe becomes 1 + |W(lam)| cos(x - arg W(lam)) with
lam = i q e^{iwt}; intensity autocorrelations reduce, via the displacement
composition law D(z1)D(z2) = e^{i Im(z1 z2*)} D(z1+z2), to Weyl-function
evaluations whose infinite-time averages are taken exactly (harmonic
bookkeeping), never by long numeric windows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .exceptions import IncommensurateError
from .harmonics import HarmonicSeries
from .states import ChargeCoupling, ModeParams, weyl, weyl_time_average

__all__ = [
    "CorrelationSeries",
    "SpectrumCoeffs",
    "intensity_quantum",
    "visibility",
    "classical_intensity",
    "classical_gamma_series",
    "autocorrelation_classical",
    "autocorrelation_quantum",
    "normalized_gamma",
    "spectral_density",
]


@dataclass(frozen=True)
class CorrelationSeries:
    """Sampled intensity autocorrelation Gamma(tau)."""

    taus: np.ndarray
    values: np.ndarray  # complex Gamma(tau)
    gamma0: float       # Gamma(0)


@dataclass(frozen=True)
class SpectrumCoeffs:
    """Real spectral-density coefficients S_K on base frequency Omega."""

    omega: float
    k: np.ndarray
    values: np.ndarray


def _lam(coupling: ChargeCoupling, mode: ModeParams, t):
    return 1j * coupling.q * np.exp(1j * mode.omega * t)


def intensity_quantum(state, coupling: ChargeCoupling, mode: ModeParams, x, t):
    """1 + |W(lam)| cos(x - arg W(lam)), lam = i q e^{iwt}; x and t are
    floats or arrays that broadcast."""
    w = weyl(state, _lam(coupling, mode, t))
    return 1.0 + np.abs(w) * np.cos(x - np.angle(w))


def visibility(state, coupling: ChargeCoupling, mode: ModeParams, t):
    """(I_max - I_min)/(I_max + I_min) over x, equal to |W(lam)|; t is a
    float or an array."""
    return np.abs(weyl(state, _lam(coupling, mode, t)))


# ---------------------------------------------------------------------------
# classical drive

def classical_intensity(e_phi1: float, omega: float, t):
    """1 + cos[e phi_1 sin(wt)] at the central fringe x = 0; t is a float or
    an array."""
    return 1.0 + np.cos(e_phi1 * np.sin(omega * t))


def classical_gamma_series(e_phi1: float, omega: float) -> HarmonicSeries:
    """Exact harmonic form of the classical intensity autocorrelation:
    [1+J_0]^2 at zero frequency plus J_{2K}^2 at +-2K omega."""
    js = specfun.bessel_j_harmonics(e_phi1)
    coeffs = {0: complex((1.0 + js.get(0, 0.0)) ** 2)}
    for n, jn in js.items():
        if n > 0 and n % 2 == 0:
            coeffs[n // 2] = coeffs[-(n // 2)] = complex(jn * jn)
    return HarmonicSeries(2.0 * omega, coeffs)


def autocorrelation_classical(e_phi1: float, omega: float, taus) -> CorrelationSeries:
    """Gamma_cl(tau) sampled on the given lags."""
    series = classical_gamma_series(e_phi1, omega)
    taus = np.asarray(taus, dtype=float)
    vals = series.evaluate(taus)
    g0 = complex(series.evaluate(0.0))
    return CorrelationSeries(taus=taus, values=np.asarray(vals, dtype=complex), gamma0=g0.real)


# ---------------------------------------------------------------------------
# quantum drive

def autocorrelation_quantum(state, coupling: ChargeCoupling, mode: ModeParams, taus) -> CorrelationSeries:
    """Operator autocorrelation of I(t) = 1 + cos[e flux(t)] at x = 0.

    cos is expanded into displacements D(+-lam); products collapse through the
    composition law, and the t-average keeps only zero-frequency harmonics.
    Each of the four sign quadrants is one time-average call over all lags,
    with lag 0 appended for Gamma(0).
    """
    q, omega = coupling.q, mode.omega
    singles = (weyl_time_average(state, q) + weyl_time_average(state, -q)).real
    taus = np.asarray(taus, dtype=float)
    lags = np.append(taus, 0.0)
    e = np.exp(1j * omega * lags)
    s = np.sin(omega * lags)
    quad = 0j
    for sa in (1.0, -1.0):
        for sb in (1.0, -1.0):
            phase = np.exp(-1j * sa * sb * q * q * s)
            quad += phase * weyl_time_average(state, q * (sa + sb * e))
    vals = 1.0 + singles + 0.25 * quad
    return CorrelationSeries(taus=taus, values=vals[:-1], gamma0=vals[-1].real)


def normalized_gamma(series: CorrelationSeries) -> CorrelationSeries:
    """gamma(tau) = Gamma(tau)/Gamma(0), with the real and imaginary parts
    divided separately: numpy's complex-by-real division can round
    Gamma(0)/Gamma(0) to 1 - 2^-53, so gamma(0) would miss 1."""
    if series.gamma0 <= 0.0:
        raise ValueError("Gamma(0) must be positive to normalize")
    values = np.empty_like(series.values)
    values.real = series.values.real / series.gamma0
    values.imag = series.values.imag / series.gamma0
    return CorrelationSeries(taus=series.taus, values=values, gamma0=1.0)


# ---------------------------------------------------------------------------
# spectral density

def spectral_density(source, omega_base: float, kmax: int) -> SpectrumCoeffs:
    """Coefficients S_K of Gamma(tau) = sum_K S_K e^{iK Omega tau}.

    Exact path: ``source`` is a HarmonicSeries whose frequencies must be
    integer multiples of Omega.  Quadrature path: ``source`` is a
    CorrelationSeries sampled uniformly over exactly one period 2 pi / Omega
    (periodic trapezoid; spectrally accurate).
    """
    ks = np.arange(-kmax, kmax + 1)
    if isinstance(source, HarmonicSeries):
        vals = np.zeros(len(ks), dtype=complex)
        for idx, amp in source.coeffs.items():
            freq = idx * source.base
            kk = freq / omega_base
            k = int(round(kk))
            if abs(freq - k * omega_base) > 1e-9 * max(abs(freq), omega_base):
                raise IncommensurateError(
                    f"series frequency {freq!r} incommensurate with Omega = {omega_base!r}"
                )
            if abs(k) <= kmax:
                vals[k + kmax] += amp
        return _as_spectrum(omega_base, ks, vals, scale=max(abs(vals).max(), 1.0))
    if isinstance(source, CorrelationSeries):
        taus = source.taus
        m = len(taus)
        if m < 2:
            raise ValueError("need at least two samples for the quadrature path")
        dt = taus[1] - taus[0]
        if not np.allclose(np.diff(taus), dt, rtol=1e-9, atol=0.0):
            raise ValueError("quadrature path needs uniformly spaced lags")
        period = 2.0 * math.pi / omega_base
        if abs(m * dt - period) > 1e-9 * period:
            raise ValueError("lags must cover exactly one period 2 pi / Omega")
        vals = np.array(
            [np.sum(source.values * np.exp(-1j * k * omega_base * taus)) / m for k in ks]
        )
        return _as_spectrum(omega_base, ks, vals, scale=abs(source.gamma0))
    raise TypeError("source must be a HarmonicSeries or a CorrelationSeries")


def _as_spectrum(omega_base, ks, vals, scale) -> SpectrumCoeffs:
    resid = float(np.max(np.abs(vals.imag)))
    if resid > 1e-10 * max(scale, 1e-300):
        raise ValueError(f"spectral coefficients not real (residue {resid:g})")
    return SpectrumCoeffs(omega=omega_base, k=ks, values=vals.real.copy())
