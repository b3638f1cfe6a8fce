"""Single-device electron interference under classical and quantum driving.

The screen coordinate x is the phase difference between the two paths, with
equal splitting assumed, so the static fringe is 1 + cos(x - e*flux).  With a
quantized drive the fringe becomes 1 + |W(lam)| cos(x - arg W(lam)) with
lam = i q e^{iwt}; intensity autocorrelations reduce, via the displacement
composition law D(z1)D(z2) = e^{i Im(z1 z2*)} D(z1+z2), to Weyl-function
evaluations whose infinite-time averages are taken exactly (harmonic
bookkeeping), never by long numeric windows.  An average over the drive
circle depends only on its radius, so one quantum Gamma(tau) takes one
time-average call, over the distinct radii of all its lags.  Every spectral
density, the classical one included, is numpy's FFT of Gamma(tau) sampled
over one period.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .harmonics import HarmonicSeries
from .states import ChargeCoupling, ModeParams, weyl, weyl_time_average

__all__ = [
    "CorrelationSeries",
    "SpectrumCoeffs",
    "intensity_quantum",
    "visibility",
    "classical_intensity",
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


def _classical_gamma_series(e_phi1: float, omega: float) -> HarmonicSeries:
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
    series = _classical_gamma_series(e_phi1, omega)
    taus = np.asarray(taus, dtype=float)
    vals = series.evaluate(taus)
    g0 = complex(series.evaluate(0.0))
    return CorrelationSeries(taus=taus, values=np.asarray(vals, dtype=complex), gamma0=g0.real)


# ---------------------------------------------------------------------------
# quantum drive

def autocorrelation_quantum(state, coupling: ChargeCoupling, mode: ModeParams, taus) -> CorrelationSeries:
    """Operator autocorrelation of I(t) = 1 + cos[e flux(t)] at x = 0.

    cos is expanded into displacements D(+-lam); products collapse through the
    composition law, and the t-average Wbar keeps only zero-frequency
    harmonics.  The drive circle -c e^{i theta} is c e^{i (theta + pi)}, so
    Wbar(-c) = Wbar(c): the sign quadrant (sa, sb) repeats (-sa, -sb), and
    the six time averages are three, at q and at q (1 +- e^{i omega tau})
    over all lags with lag 0 appended for Gamma(0).  Wbar depends on |c|
    alone, so all three are one time-average call over the distinct moduli
    of those arguments.
    """
    q, omega = coupling.q, mode.omega
    taus = np.asarray(taus, dtype=float)
    lags = np.append(taus, 0.0)
    e = np.exp(1j * omega * lags)
    # the moduli as formed from e, for lags of any spacing; at omega tau = pi
    # (mod 2 pi) rounding leaves |1 + e| at 1.2e-16, not 0, where the squeezed
    # average is the tiny-argument NaN of specfun.bessel_ive_all
    return _gamma(state, q, taus, np.sin(omega * lags), np.abs(q * (1.0 + e)), np.abs(q * (1.0 - e)))


def _half_period_autocorrelation(state, coupling: ChargeCoupling, mode: ModeParams, taus) -> CorrelationSeries:
    """autocorrelation_quantum over the first n // 2 + 1 of the n lags
    taus = 2 pi k / (n omega), k = 0 .. n - 1, which span one period, with
    its radii formed by index.

    At theta_k = 2 pi k / n the moduli are |1 + e^{i theta_k}| = 2 cos(pi k / n)
    and |1 - e^{i theta_k}| = 2 sin(pi k / n) = 2 cos(pi (n - 2k) / (2n)), so
    both come from the one table c_j = 2 q cos(pi j / (2n)), j = 0 .. n, at
    j = 2k and n - 2k: for an even n the two share its n / 2 + 1 even
    entries, where their rounded moduli as formed would not repeat.  The
    table keeps the NaN of the lag at pi: c_n is the rounding 2 q cos(pi / 2),
    as |1 + e^{i pi}| is as formed.  The minus modulus at lag 0 is the exact
    0 that it is as formed, not c_n.
    """
    q, n = coupling.q, len(taus)
    half = taus[:n // 2 + 1]
    j = 2 * np.append(np.arange(n // 2 + 1), 0)
    c = 2.0 * q * np.cos(np.pi * np.arange(n + 1) / (2 * n))
    minus = np.where(j == 0, 0.0, c[n - j])
    return _gamma(state, q, half, np.sin(mode.omega * np.append(half, 0.0)), c[j], minus)


def _gamma(state, q, taus, s, plus, minus) -> CorrelationSeries:
    """Gamma over taus from the moduli plus = |q (1 + e^{i omega tau})| and
    minus = |q (1 - e^{i omega tau})| and from s = sin(omega tau), each over
    taus with lag 0 appended: one time-average call over the distinct moduli."""
    radii, where = np.unique(np.concatenate(([q], plus, minus)), return_inverse=True)
    avg = weyl_time_average(state, radii)[where]
    plus, minus = np.split(avg[1:], 2)
    quad = np.exp(-1j * q * q * s) * plus + np.exp(1j * q * q * s) * minus
    vals = 1.0 + 2.0 * avg[0].real + 0.5 * quad
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

def spectral_density(series: CorrelationSeries, omega_base: float, kmax: int) -> SpectrumCoeffs:
    """Coefficients S_K, K = -kmax..kmax, of Gamma(tau) = sum_K S_K e^{iK Omega tau}.

    ``series`` is sampled uniformly over exactly one period 2 pi / Omega,
    starting at tau = 0, so S_K is the m-point DFT of its values over m (the
    periodic trapezoid; spectrally accurate).  Harmonics of Gamma at
    |K| >= m / 2 alias onto lower ones, as does a requested |K| >= m / 2.
    The coefficients of a Gamma with Gamma(-tau) = Gamma(tau)* are real; an
    imaginary residue above 1e-10 Gamma(0) is refused.
    """
    taus = series.taus
    m = len(taus)
    if m < 2:
        raise ValueError("need at least two samples for the spectral density")
    dt = taus[1] - taus[0]
    if not np.allclose(np.diff(taus), dt, rtol=1e-9, atol=0.0):
        raise ValueError("spectral density needs uniformly spaced lags")
    period = 2.0 * math.pi / omega_base
    if taus[0] != 0.0 or abs(m * dt - period) > 1e-9 * period:
        raise ValueError("lags must start at 0 and cover exactly one period 2 pi / Omega")
    ks = np.arange(-kmax, kmax + 1)
    vals = np.fft.fft(series.values)[ks % m] / m
    resid = float(np.max(np.abs(vals.imag)))
    if resid > 1e-10 * max(abs(series.gamma0), 1e-300):
        raise ValueError(f"spectral coefficients not real (residue {resid:g})")
    return SpectrumCoeffs(omega=omega_base, k=ks, values=vals.real.copy())
