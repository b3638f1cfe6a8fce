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
combination their observables depend on.  A coherent state is the two-photon
coherent state |A; r varphi> at r = 0 (``CoherentState`` subclasses
``SqueezedState``), so every single-mode closed form takes it as that squeezed
state; only ``photon_counting`` keeps the Poisson law for it, which stays
finite where its Fock amplitudes underflow.

Under the circular drive z = i c e^{i theta} the Weyl function is a harmonic
series in theta; ``weyl_time_average(state, c, k)`` is its k-th coefficient
(by the Jacobi-Anger and modified-Bessel generating functions, DLMF 10.12 and
10.35), and k = 0 is the exact infinite-time average.  The interference
autocorrelations read k = 0, the SQUID Shapiro steps every k they need, all
from one call: c and k are both array-first.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .exceptions import TruncationError

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
    "two_mode_components",
    "weyl",
    "weyl_time_average",
    "fock_amplitudes",
    "checked_amplitudes",
    "photon_counting",
    "mean_photons",
    "match_mean_photons",
    "matched_states",
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
class SqueezedState:
    amplitude: complex
    r: float
    varphi: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeezing parameter r must be >= 0")


@dataclass(frozen=True)
class CoherentState(SqueezedState):
    """|A> = D(A)|0>, the squeezed state at r = 0, which every single-mode
    closed form takes it as.  Only the amplitude is given: r and varphi are
    fixed at 0 and left out of the repr."""

    r: float = field(default=0.0, init=False, repr=False)
    varphi: float = field(default=0.0, init=False, repr=False)


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


def two_mode_components(state2):
    """('mixed', [(p, rho_a, rho_b)]) for a factorizable state (one term of
    weight 1) or a mixture, ('pure', [(c, ket_a, ket_b)]) for a product
    superposition."""
    if isinstance(state2, TwoModeFactorizable):
        return "mixed", [(1.0, state2.state_a, state2.state_b)]
    if isinstance(state2, TwoModeSeparableMixture):
        return "mixed", list(state2.terms)
    if isinstance(state2, TwoModeProductSuperposition):
        return "pure", list(state2.terms)
    raise TypeError(f"unsupported two-mode state {state2!r}")


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
    x = np.abs(z) ** 2
    if isinstance(state, NumberState):
        w = specfun.scaled_laguerre(state.n, x)
    elif isinstance(state, SqueezedState):
        # Gaussian: W(z) = exp(-yy + z <a>* - z* <a>), yy half the variance
        # of the quadrature i(z* a - z a^dag); the exponent's imaginary part
        # 2 Im(z <a>*) is taken in real arithmetic, which rounds alike over
        # an array and on one element
        g = mean_annihilation(state)
        yy = 0.5 * x * (math.cosh(state.r) + math.sinh(state.r) * np.cos(2 * np.angle(z) + state.varphi))
        w = np.exp(-yy + 2j * (z.imag * g.real - z.real * g.imag))
    elif isinstance(state, ThermalState):
        # phase-invariant; reduces to exp(-(zeta^2/2) coth(bw/2)) on z real*e^{iwt}
        w = np.exp(-0.5 * x / math.tanh(state.beta_omega / 2.0))
    else:
        raise TypeError(f"unsupported state {state!r}")
    return _scalar_or_array(np.where(far, 0j, w))


def _scalar_or_array(w):
    """The Python scalar of a scalar or 0-d array (a float stays a float, a
    complex a complex), else the array itself."""
    w = np.asarray(w)
    return w.item() if w.ndim == 0 else w


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


def _integer_orders(k, name: str = "harmonic k") -> np.ndarray:
    """k, an integer or an array of them, as an int64 array of its shape.

    An integral float passes; anything else that is not an integer raises a
    ValueError that names k.
    """
    kk = np.asarray(k)
    with np.errstate(invalid="ignore"):
        ki = kk.astype(np.int64) if kk.dtype.kind in "biuf" else None
    if ki is None or not np.array_equal(ki, kk):
        raise ValueError(f"{name} must be an integer, not {k!r}")
    return ki


def weyl_time_average(state, c, k=0):
    """Harmonic k of the driven Weyl function: the average over theta of
    e^{-i k theta} W(i c e^{i theta}), for an integer k.

    k = 0 is the exact infinite-time average; the a_k over all k rebuild W on
    the drive circle, W(i c e^{i theta}) = sum_k a_k e^{i k theta}.  A
    rotation of c shifts the circle, c e^{i theta} = |c| e^{i (theta + arg c)},
    so a_k(c) = e^{i k arg c} a_k(|c|): the average a_0 depends on |c| alone,
    and a_k(-c) = (-1)^k a_k(c).  c and k are each a scalar or an array, and
    broadcast: a complex c and an int k give a complex, anything else a
    complex array of the broadcast shape.  One call covers a whole lag grid
    of the autocorrelation, or every harmonic a Shapiro step reads, from one
    Bessel table per state.  A k that is not an integer raises ValueError.
    """
    k = _integer_orders(k)
    c = np.asarray(c, dtype=complex)
    # as in weyl: |c| ** 2 overflows past 1e154, where every coefficient has
    # its limit 0, so those entries are computed at c = 0 and zeroed at the end
    far = np.abs(c) > 1e154
    c = np.where(far, 0j, c)
    if isinstance(state, (NumberState, ThermalState)):
        # W is constant on the drive circle: it is a_0, and every other a_k is 0
        avg = np.where(k == 0, weyl(state, np.abs(c)), 0.0)
    elif isinstance(state, SqueezedState):
        pref, v, chi, w = _squeezed_drive(state, c)
        # where pref underflows every coefficient is 0, as |W| <= 1: such
        # entries run at v = w = 0, so they size no table, and give 0 * 1
        live = pref > 0.0
        v, w = np.where(live, v, 0.0), np.where(live, w, 0j)
        absw = np.abs(w)
        # W = pref sum_{m,n} (-1)^m e^{-v} I_m(v) e^{i m chi} J_n(|w|)
        # e^{i n psi} e^{i (2m + n) theta} with psi = arg w, so harmonic k takes
        # n = k - 2m: a_k = pref e^{i k psi} sum_m (-1)^m e^{-v} I_m J_{k-2m}
        # e^{i m phi}, phi = chi - 2 psi.  The +-m terms pair into the even
        # and odd halves of J_{k-2m} and J_{k+2m}, which at k = 0 are J_{2m}
        # and 0.  J_n(|w|) is below 1e-18 past j_order_cutoff(|w|), and
        # e^{-v} I_m(v) past order_cutoff(v); every harmonic shares the table
        # of the largest |k|
        if v.any():
            mmax = min(specfun.order_cutoff(v.max(initial=0.0)),
                       (specfun.j_order_cutoff(absw.max(initial=0.0)) + int(np.abs(k).max(initial=0))) // 2)
            ims = specfun.bessel_ive_all(v, mmax + 1)
        else:
            # e^{-v} I_m(v) at v = 0 is delta_m0 (every r = 0 state): no table
            mmax, ims = 0, [1.0]
        # one J row per |order| that a harmonic reaches, then J_{k+2m} of
        # every harmonic as row mmax + m of one table of the broadcast shape,
        # signed by J_{-n} = (-1)^n J_n
        ndim = max(k.ndim, c.ndim)
        signed = k + 2 * np.arange(-mmax, mmax + 1).reshape((-1,) + (1,) * k.ndim)
        orders, where = np.unique(np.abs(signed), return_inverse=True)
        where = where.reshape(signed.shape[:1] + (1,) * (ndim - k.ndim) + k.shape)
        rows = specfun.jv(orders.reshape((-1,) + (1,) * ndim), absw)
        # (one harmonic's rows are a plain gather, several need the broadcast one)
        jk = rows[where.ravel()] if k.size == 1 else np.take_along_axis(rows, where, axis=0)
        np.negative(jk, out=jk, where=((signed < 0) & (signed % 2 == 1)).reshape(where.shape))

        phi = chi - 2.0 * np.angle(w)
        turning = k.any()  # k = 0 alone has no odd half and no phase
        even, odd = ims[0] * jk[mmax], 0.0
        for m in range(1, mmax + 1):
            lo, hi = jk[mmax - m], jk[mmax + m]
            sign = -2.0 if m & 1 else 2.0
            even += sign * ims[m] * (0.5 * (lo + hi)) * np.cos(m * phi)
            if turning:
                odd += sign * ims[m] * (0.5 * (lo - hi)) * np.sin(m * phi)
        if not turning:
            avg = pref * even
        else:
            avg = pref * (even + 1j * odd) * np.exp(1j * k * np.angle(w))
    else:
        raise TypeError(f"unsupported state {state!r}")
    return _scalar_or_array(np.where(far, 0j, avg))


# ---------------------------------------------------------------------------
# displacement matrix elements (closed forms; the matrix oracle has its own)

def number_displacement_element(m: int, z, n: int):
    """<m| D(z) |n> = sqrt(n!/m!) z^{m-n} e^{-|z|^2/2} L_n^{m-n}(|z|^2) at a
    complex z (a complex) or an array of them (an array of its shape), with
    one Laguerre value per distinct |z|^2 (on a drive circle |z| repeats at
    every time)."""
    if m < n:
        # fixed by D(z)^dag = D(-z)
        return _scalar_or_array(np.conj(number_displacement_element(n, -np.asarray(z, dtype=complex), m)))
    z = np.asarray(z, dtype=complex)
    far = np.abs(z) > 1e154  # as in weyl: the element -> 0 as |z| -> inf
    z = np.where(far, 0j, z)
    x = np.abs(z) ** 2
    radii, where = np.unique(x, return_inverse=True)
    lag = np.array([specfun.laguerre(n, m - n, r) for r in radii.tolist()])[where].reshape(x.shape)
    pref = np.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)) - x / 2.0)
    return _scalar_or_array(np.where(far, 0j, pref * z ** (m - n) * lag))


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


def fock_amplitudes(state, dim: int) -> np.ndarray:
    """<n|psi> for n < dim, of a number, coherent or squeezed state.

    S(zeta) D(alpha)|0>, zeta = s e^{-i varphi}, s = r/2, solves
    (a + t a^dag) psi = (alpha / cosh s) psi, t = e^{-i varphi} tanh s
    (Yuen, Phys. Rev. A 13, 2226, 1976); c_0 = <0|S(zeta)|alpha> is taken from
    the normal-ordered S(zeta), whose exponent cancels least.  A coherent
    state is the same recurrence at r = 0, where t = 0.
    """
    if isinstance(state, NumberState):
        if state.n >= dim:
            raise ValueError("dim too small for the requested number state")
        v = np.zeros(dim, dtype=complex)
        v[state.n] = 1.0
        return v
    if not isinstance(state, SqueezedState):
        raise TypeError(f"{state!r} is not a pure state with a vector form")
    s = state.r / 2.0
    t = cmath.exp(-1j * state.varphi) * math.tanh(s)
    a = complex(state.amplitude)
    beta = a / math.cosh(s)
    roots = np.sqrt(np.arange(dim + 1.0)).tolist()
    amps, prev, c = [], 0j, cmath.exp((t.conjugate() * a * a - abs(a) ** 2) / 2.0) / math.sqrt(math.cosh(s))
    for n in range(dim):
        amps.append(c)
        prev, c = c, (beta * c - t * roots[n] * prev) / roots[n + 1]
    return np.array(amps, dtype=complex)


def checked_amplitudes(state, dim: int) -> np.ndarray:
    """fock_amplitudes, refused where a coherent or squeezed state's c_0 is
    below the smallest normal double: every amplitude is a multiple of c_0,
    so there it has lost its digits, or underflowed to an empty vector."""
    v = fock_amplitudes(state, dim)
    if not isinstance(state, NumberState) and abs(v[0]) < np.finfo(float).tiny:
        raise TruncationError(f"{state!r}: its n = 0 amplitude is below the smallest normal double")
    return v


def photon_counting(state, n: int) -> float:
    """P(n) = <n| rho |n>; a squeezed state's raises where its c_0 underflows."""
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
        return abs(checked_amplitudes(state, n + 1)[n]) ** 2
    raise TypeError(f"unsupported state {state!r}")


def mean_annihilation(state) -> complex:
    """<a> of the state."""
    if isinstance(state, (NumberState, ThermalState)):
        return 0j
    if isinstance(state, SqueezedState):
        a = complex(state.amplitude)
        return a * math.cosh(state.r / 2.0) - a.conjugate() * cmath.exp(-1j * state.varphi) * math.sinh(state.r / 2.0)
    raise TypeError(f"unsupported state {state!r}")


def mean_photons(state) -> float:
    """Average photon number <a^dag a>."""
    if isinstance(state, NumberState):
        return float(state.n)
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


# the paper's matched comparison: 17 mean photons, the squeezed state at r = 4.2
MEAN_PHOTONS = 17.0
SQUEEZING_R = 4.2


def matched_states(nbar: float = MEAN_PHOTONS, r: float = SQUEEZING_R) -> dict:
    """{family: state} for the four families at mean photon number nbar: the
    number state at the nearest integer, the squeezed one at squeezing r."""
    return {
        "number": NumberState(int(round(nbar))),
        "coherent": match_mean_photons("coherent", nbar),
        "squeezed": match_mean_photons("squeezed", nbar, r=r),
        "thermal": match_mean_photons("thermal", nbar),
    }


# ---------------------------------------------------------------------------
# flux and electromotive-force statistics

def flux_stats(state, mode: ModeParams, t):
    """(mean, standard deviation) of the loop flux operator at time t: two
    floats for a float t, two arrays of its shape for an array of times."""
    t = np.asarray(t, dtype=float)
    xi, w = mode.xi, mode.omega
    if isinstance(state, NumberState):
        mean, sd = 0.0, xi * math.sqrt(state.n + 0.5)
    elif isinstance(state, ThermalState):
        mean, sd = 0.0, xi * math.sqrt(0.5 / math.tanh(state.beta_omega / 2.0))
    elif isinstance(state, SqueezedState):
        am = mean_annihilation(state)
        # Re(e^{-iwt} <a>) in real arithmetic: numpy's complex product rounds
        # differently over an array than on one element
        mean = math.sqrt(2.0) * xi * (np.cos(w * t) * am.real + np.sin(w * t) * am.imag)
        var = 0.5 * xi * xi * (math.cosh(state.r) - math.sinh(state.r) * np.cos(2 * w * t + state.varphi))
        sd = np.sqrt(var)
    else:
        raise TypeError(f"unsupported state {state!r}")
    return _scalar_or_array(np.full(t.shape, mean)), _scalar_or_array(np.full(t.shape, sd))


def emf_stats(state, mode: ModeParams, t):
    """(mean, standard deviation) of the electromotive force at time t, a
    float or an array of times as for flux_stats.

    The EMF is the flux quadrature a quarter period ahead, scaled by omega:
    emf(t) = omega flux(t + pi/(2 omega)).
    """
    mean, sd = flux_stats(state, mode, np.asarray(t, dtype=float) + math.pi / (2.0 * mode.omega))
    return mode.omega * mean, mode.omega * sd
