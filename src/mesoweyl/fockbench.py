"""Truncated Fock-space matrix oracle.

Everything here is built from the ladder operator, the Fock amplitudes of the
pure states (``states.checked_amplitudes``, which no closed-form Weyl
function reads) and brute force traces, independently of the closed forms
elsewhere, so that every closed-form result can be verified numerically, on
the number basis |0>..|dim-1>.  The one ``ladder`` and the operators built
from it (flux, EMF and displacement generators) are scipy.sparse arrays;
displacement and density matrices are dense complex numpy arrays.
Truncation is explicit: one loop, ``converge``, doubles the dimension until
the evaluated quantity moves by less than TOL, under a dimension cap (the
only setting, DIM_CAP by default).  It starts at ``default_dim``: the state's
mean-photon width, doubled while the truncated state still loses at least
TOL of its trace (squeezed and thermal tails fall only geometrically).
Truncated density matrices are never renormalized; the trace deficit is
reported instead of being hidden.  An array (a z grid, a list of two-mode
observable pairs) converges as one, by its largest change.

Pure state vectors are built once per (state, dim) and cached, so the
doubling loops and every z share them; so are displacement bands, per
(|z|, dim), so every arg z at one |z| shares one, and the Bessel coefficient
tables of the Weyl oracle, per (set of |z|, dim), so every state shares one.
The cached arrays are read-only.
Nothing here estimates a norm or draws random numbers, so the oracle gives
the same bits on every run.  The oracle Weyl function ``weyl_numeric`` takes a
complex z or an array of them; for a pure state it gets every value from one
set of Chebyshev moments per (state, dim), by the kernel polynomial method
(Weisse, Wellein, Alvermann & Fehske, Rev. Mod. Phys. 78, 275, 2006): one
block recurrence over the distinct arg z, which gives two moments per step
and runs in real arithmetic (in the gauge diag((-i)^n) the generator is the
real symmetric a + a^dag, and every moment is real), and one row of Bessel
coefficients per distinct |z|, each evaluated up to
``specfun.order_cutoff``.

Two-mode matrices use mode-A-major ordering: index = i_A * dim_B + i_B.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.special import gammaln, jv

from .exceptions import DIM_CAP, TruncationError
from .specfun import order_cutoff
from .squid import TwoSquidMoments
from .states import (
    ModeParams,
    ThermalState,
    _scalar_or_array,
    checked_amplitudes,
    mean_photons,
    two_mode_components,
)

__all__ = [
    "DIM_CAP",
    "TOL",
    "ConvergenceInfo",
    "ladder",
    "state_vector",
    "thermal_weights",
    "density_matrix",
    "hermitian_toeplitz",
    "displacement_matrix",
    "displacement_diagonal",
    "flux_matrix",
    "emf_matrix",
    "sin_phase_operator",
    "sin_phase_powers",
    "expectation",
    "converge",
    "weyl_numeric",
    "weyl_numeric_report",
    "two_mode_density",
    "partial_trace",
    "two_mode_expectation",
    "converged_two_mode_expectation",
    "two_squid_moments",
    "default_dim",
]


@dataclass(frozen=True)
class ConvergenceInfo:
    dim: int
    delta: float
    trace_deficit: float


# the change below which converge stops doubling
TOL = 1e-11


def default_dim(state, dim_cap: int) -> int:
    """Starting truncation dimension for a single-mode state under dim_cap.

    The base d0 = max(32, ceil(nbar + 10 sqrt(nbar + 1))) suits a Poisson-like
    state, but squeezed and thermal tails fall only geometrically.  So d0 is
    doubled while the next doubling stays within dim_cap and the truncated
    state still loses at least TOL of its trace (``_lost_trace``).  The start
    stays on converge's ladder d0 2^k and is never below d0, so the loop
    converges at the same dimension, with the same values, as one started at
    d0 whenever the start is at most half that dimension, and never below it.
    """
    nbar = mean_photons(state)
    dim = max(32, int(math.ceil(nbar + 10.0 * math.sqrt(nbar + 1.0))))
    while 2 * dim <= dim_cap and _lost_trace(state, dim) >= TOL:
        dim *= 2
    return dim


def _lost_trace(state, dim: int) -> float:
    """1 - Tr rho of the state truncated to dim: the thermal weights' or the
    cached pure vector's deficit, the one ``_weyl_value`` reports."""
    if isinstance(state, ThermalState):
        return 1.0 - float(np.sum(thermal_weights(state, dim)))
    vec = state_vector(state, dim)
    return 1.0 - float(np.vdot(vec, vec).real)


def ladder(dim: int) -> sparse.csr_array:
    """Annihilation operator a on the truncated basis, as a sparse array."""
    ns = np.arange(1, dim)
    return sparse.csr_array((np.sqrt(ns), (ns - 1, ns)), shape=(dim, dim), dtype=complex)


def state_vector(state, dim: int) -> np.ndarray:
    """Fock-basis vector of a pure state, truncated to dim.

    Built once per (state, dim); the returned array is shared and read-only.
    """
    return _pure_vector(state, dim)


# A pass over figs 14-18 asks 60 times for four coherent vectors, so each
# (state, dim) is built once.  The cache sits behind a plain function so that
# tools which wrap module functions (span tracers, profilers) still see every
# call.
@lru_cache(maxsize=32)
def _pure_vector(state, dim: int) -> np.ndarray:
    # an underflowed c_0 would give an empty vector that converges at once
    v = checked_amplitudes(state, dim)
    v.setflags(write=False)
    return v


# Every state at one dim and one set of |z| asks for the same table, so each
# is built once.
@lru_cache(maxsize=16)
def _jacobi_anger(args: tuple) -> np.ndarray:
    """Read-only Chebyshev coefficients of exp(i s x) = sum_k eps_k i^k
    J_k(s) T_k(x), |x| <= 1, eps_0 = 1, eps_k = 2: one row per s >= 0 of the
    tuple args.

    Each |T_k(x)| <= 1, and |J_k(s)| falls under ~1e-18 past
    ``specfun.order_cutoff(s)``, so each row is evaluated up to its own
    cutoff and holds exact zeros above it; the table stops after the last
    coefficient above 1e-18 in any row.
    """
    s = np.array(args, dtype=float)
    cut = order_cutoff(s)
    row, k = np.nonzero(np.arange(cut.max(initial=0) + 1) <= cut[:, None])
    coeff = np.zeros((s.size, cut.max(initial=0) + 1), dtype=complex)
    coeff[row, k] = np.where(k, 2.0, 1.0) * 1j ** (k % 4) * jv(k, s[row])
    last = np.flatnonzero(np.any(np.abs(coeff) > 1e-18, axis=0)).max(initial=0)
    out = coeff[:, : last + 1]
    out.setflags(write=False)
    return out


def thermal_weights(state: ThermalState, dim: int) -> np.ndarray:
    """Occupation probabilities (1 - e^{-bw}) e^{-bw n} for n < dim."""
    bw = state.beta_omega
    return (1.0 - math.exp(-bw)) * np.exp(-bw * np.arange(dim))


def density_matrix(state, dim: int) -> np.ndarray:
    """Density matrix truncated to dim (no renormalization)."""
    if isinstance(state, ThermalState):
        return np.diag(thermal_weights(state, dim).astype(complex))
    v = state_vector(state, dim)
    return np.outer(v, v.conj())


def trace_deficit(rho: np.ndarray) -> float:
    return 1.0 - float(np.trace(rho).real)


def hermitian_toeplitz(c: np.ndarray) -> np.ndarray:
    """The matrix of entries c[m - n] at m >= n and conj(c[n - m]) above."""
    n = c.size
    return np.concatenate((c.conj()[:0:-1], c))[n - 1 + np.subtract.outer(np.arange(n), np.arange(n))]


def displacement_matrix(z, dim: int) -> np.ndarray:
    """Matrix of D(z) = exp(z a^dag - z* a) on the truncated basis.

    Entries for m >= n are sqrt(n!/m!) z^{m-n} e^{-|z|^2/2} L_n^{m-n}(|z|^2),
    evaluated by a scaled degree recurrence along each diagonal (independent
    of the package's own polynomial code); m < n entries are fixed by
    D(z)^dag = D(-z).  Each is the entry of the real D(|z|), built once per
    (|z|, dim), times the phase e^{i(m-n) arg z}.
    """
    z = complex(z)
    if z == 0:
        return np.eye(dim, dtype=complex)
    arg = cmath.phase(z)
    ph = np.array([cmath.exp(1j * d * arg) for d in range(dim)])
    return _signed_band(abs(z), dim) * hermitian_toeplitz(ph)


# Behind displacement_matrix for the same reason as _pure_vector.
@lru_cache(maxsize=8)
def _signed_band(absz: float, dim: int) -> np.ndarray:
    """Read-only matrix of D(|z|), |z| > 0.

    Its d-th diagonal below the main one holds band[n, d] = sqrt(n!/(n+d)!)
    |z|^d e^{-|z|^2/2} L_n^d(|z|^2), n < dim - d; the degree recurrence runs
    on these scaled values, so nothing overflows (entries of a unitary are
    bounded by one).  The d-th diagonal above holds (-1)^d band[n, d], since
    <n|D(z)|n+d> = conj(<n+d|D(-z)|n>).
    """
    x = absz * absz
    ds = np.arange(dim, dtype=float)
    band = np.zeros((dim, dim))
    # T_0^d = e^{-x/2} |z|^d / sqrt(d!)
    with np.errstate(under="ignore"):
        band[0, :] = np.exp(-x / 2.0 + ds * math.log(absz) - 0.5 * gammaln(ds + 1.0))
    if dim > 1:
        # T_1^d = T_0^d (1 + d - x) sqrt(1/(1+d))
        band[1, :] = band[0, :] * (1.0 + ds - x) / np.sqrt(1.0 + ds)
    # x-independent coefficients of rows k = 1 .. dim-2; the products keep the
    # grouping of the scalar recurrence, so every entry is bit-for-bit the same
    ks = np.arange(1.0, dim - 1.0)[:, None]
    r1 = np.sqrt((ks + 1.0) / (ks + 1.0 + ds))
    r2 = np.sqrt((ks + 1.0) * ks / ((ks + 1.0 + ds) * (ks + ds)))
    c1 = 2.0 * ks + 1.0 + ds
    c2 = (ks + ds) * r2
    for k, c1k, r1k, c2k in zip(range(1, dim - 1), c1, r1, c2):
        band[k + 1, :] = ((c1k - x) * r1k * band[k, :] - c2k * band[k - 1, :]) / (k + 1.0)
    sign = np.where(np.arange(dim) & 1, -1.0, 1.0)
    out = np.empty((dim, dim))
    for n in range(dim):
        out[n:, n] = band[n, : dim - n]
        out[n, n:] = band[n, : dim - n] * sign[: dim - n]
    out.setflags(write=False)
    return out


def displacement_diagonal(z, dim: int) -> np.ndarray:
    """<n|D(z)|n> = e^{-|z|^2/2} L_n(|z|^2) for n < dim, along the last axis
    for a complex z or an array of them, by the stable upward degree
    recurrence on the pre-scaled values."""
    x = np.abs(np.asarray(z, dtype=complex)) ** 2
    out = np.empty(x.shape + (dim,), dtype=complex)
    prev = np.exp(-x / 2.0)
    out[..., 0] = prev
    if dim == 1:
        return out
    cur = prev * (1.0 - x)
    out[..., 1] = cur
    for n in range(1, dim - 1):
        prev, cur = cur, ((2.0 * n + 1.0 - x) * cur - n * prev) / (n + 1.0)
        out[..., n + 1] = cur
    return out


def flux_matrix(mode: ModeParams, t: float, dim: int) -> sparse.csc_array:
    """(xi/sqrt2)(e^{iwt} a^dag + e^{-iwt} a)."""
    a = ladder(dim)
    ph = cmath.exp(1j * mode.omega * t)
    return mode.xi / math.sqrt(2.0) * (ph * a.conj().T + np.conj(ph) * a)


def emf_matrix(mode: ModeParams, t: float, dim: int) -> sparse.csc_array:
    """(omega xi/sqrt2) i (e^{iwt} a^dag - e^{-iwt} a), the dual quadrature."""
    a = ladder(dim)
    ph = cmath.exp(1j * mode.omega * t)
    return mode.omega * mode.xi / math.sqrt(2.0) * 1j * (ph * a.conj().T - np.conj(ph) * a)


def sin_phase_operator(dim, qp, omega_mw, omega_ramp, t) -> np.ndarray:
    """Matrix of sin(omega_ramp t + 2e flux(t)) for a ring."""
    d = displacement_matrix(1j * qp * cmath.exp(1j * omega_mw * t), dim)
    ph = cmath.exp(1j * omega_ramp * t)
    return (ph * d - np.conj(ph) * d.conj().T) / 2j


def sin_phase_powers(dim, qp, omega_mw, omega_ramp, t):
    """(S, S @ S), the ring current and its square, for S = sin_phase_operator(...)."""
    s = sin_phase_operator(dim, qp, omega_mw, omega_ramp, t)
    return s, s @ s


def expectation(rho: np.ndarray, obs) -> complex:
    """Tr(rho obs) for a dense or scipy.sparse observable."""
    if rho.shape != obs.shape:
        raise ValueError("dimension mismatch between rho and observable")
    if sparse.issparse(obs):  # elementwise: ``*`` is a sparse matrix's matrix product
        return complex(obs.T.multiply(rho).sum())
    return complex(np.sum(rho * obs.T))


def _max_change(new, old) -> float:
    """The largest modulus of the change over an array, or of a scalar's."""
    return float(np.max(np.abs(np.subtract(new, old)), initial=0.0))


def converge(evaluate, dim: int, dim_cap: int, what: str, distance=_max_change):
    """The oracle's one dimension-doubling loop.

    evaluate(dim) is taken at dim, 2 dim, 4 dim, ... until distance(new,
    previous) < TOL; distance defaults to the largest modulus of the change,
    so an array converges as a whole, at the largest dimension that any of
    its entries would need on its own.  Returns (value, dim, delta) at the
    first converged dimension, and raises TruncationError naming ``what``
    once the next dimension would pass dim_cap, so a start above the cap
    raises before any evaluation.
    """
    prev = None
    while dim <= dim_cap:
        val = evaluate(dim)
        if prev is not None and (delta := distance(val, prev)) < TOL:
            return val, dim, delta
        prev, dim = val, 2 * dim
    raise TruncationError(f"{what} did not converge below dim cap {dim_cap}")


def _weyl_value(state, z, dim: int):
    """One truncated evaluation of Tr[rho D(z)] at a complex z or an array of
    them; returns (values of z's shape, deficit)."""
    z = np.asarray(z, dtype=complex)
    if isinstance(state, ThermalState):
        val = displacement_diagonal(z, dim) @ thermal_weights(state, dim)
    else:
        val = _pure_weyl(state_vector(state, dim), z)
    return val, _lost_trace(state, dim)


def _pure_weyl(vec: np.ndarray, z: np.ndarray) -> np.ndarray:
    """<vec|D(z)|vec> for every z of an array, from one set of Chebyshev
    moments (the kernel polynomial method: Weisse, Wellein, Alvermann &
    Fehske, Rev. Mod. Phys. 78, 275, 2006).

    D(r e^{it}) = U D(r) U^dag with U = e^{itn}, and D(r) = exp(r G), G =
    a^dag - a, expands in the same T_k(H/b), H = -iG, for every r, with the
    coefficients eps_k i^k J_k(r b) of ``_jacobi_anger``.  So W(z) is the dot
    product of its radius' coefficients with its angle's moments
    mu_k(t) = <w_t|T_k(H/b)|w_t>, w_t = U^dag vec: one block recurrence over
    the distinct angles, as long as the largest radius needs, and one cached
    table of Bessel values for the distinct radii.

    The recurrence is real: in the gauge P = diag((-i)^n), P^dag H P = a +
    a^dag is real and symmetric, and P^dag w_t = e^{-in(t - pi/2)} vec, whose
    real and imaginary parts are the block's columns.  A real symmetric T_k
    gives <x + iy|T_k|x + iy> = <x|T_k|x> + <y|T_k|y>, so each moment is the
    sum of two real dot products.  T_m T_n = (T_{m+n} + T_{|m-n|}) / 2, so
    each step r_k = T_k w gives two moments, mu_{2k} = 2 <r_k|r_k> - mu_0 and
    mu_{2k+1} = 2 <r_{k+1}|r_k> - mu_1, and the recurrence takes half as many
    steps as there are moments.
    """
    dim = vec.shape[0]
    radii, at_r = np.unique(np.abs(z.ravel()), return_inverse=True)
    angles, at_t = np.unique(np.angle(z.ravel()), return_inverse=True)
    b = 2.0 * math.sqrt(dim)  # > 2 |a| >= |H|
    coeff = _jacobi_anger(tuple(radii * b))
    n = coeff.shape[1]
    w = vec[:, None] * np.exp(-1j * np.outer(np.arange(dim), angles - math.pi / 2.0))
    w = np.hstack((w.real, w.imag))
    a = ladder(dim)
    step = (2.0 / b) * (a + a.T).real  # 2 P^dag H P / b
    mu = np.empty((w.shape[1], n + 1))  # moments come in pairs
    prev, cur = w, 0.5 * (step @ w)
    mu[:, 0] = np.einsum("ij,ij->j", w, w)
    mu[:, 1] = np.einsum("ij,ij->j", w, cur)
    for k in range(1, (n + 1) // 2):
        mu[:, 2 * k] = 2.0 * np.einsum("ij,ij->j", cur, cur) - mu[:, 0]
        prev, cur = cur, step @ cur - prev
        mu[:, 2 * k + 1] = 2.0 * np.einsum("ij,ij->j", cur, prev) - mu[:, 1]
    mu = mu[: angles.size] + mu[angles.size:]
    return np.einsum("ij,ij->i", coeff[at_r], mu[at_t, :n]).reshape(z.shape)


def weyl_numeric_report(state, z, dim_cap: int = DIM_CAP):
    """Oracle Weyl value with its convergence diagnostics.

    z is a complex number, which gives a complex, or an array of them, which
    gives a complex array of its shape and converges as a whole.
    """
    (val, deficit), dim, delta = converge(
        lambda dim: _weyl_value(state, z, dim), default_dim(state, dim_cap), dim_cap,
        "weyl_numeric", lambda new, old: _max_change(new[0], old[0]),
    )
    return _scalar_or_array(val), ConvergenceInfo(dim=dim, delta=delta, trace_deficit=deficit)


def weyl_numeric(state, z, dim_cap: int = DIM_CAP):
    """Tr[density_matrix x displacement_matrix], converged under dim_cap, at
    a complex z (a complex) or an array of them (an array of its shape)."""
    val, _ = weyl_numeric_report(state, z, dim_cap)
    return val


# ---------------------------------------------------------------------------
# two-mode machinery

def two_mode_density(state2, dim_a: int, dim_b: int) -> np.ndarray:
    """Two-mode density matrix, mode-A-major tensor ordering."""
    kind, comps = two_mode_components(state2)
    if kind == "mixed":
        out = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
        for p, sa, sb in comps:
            out += p * np.kron(density_matrix(sa, dim_a), density_matrix(sb, dim_b))
        return out
    vec = np.zeros(dim_a * dim_b, dtype=complex)
    for c, ka, kb in comps:
        vec += c * np.kron(state_vector(ka, dim_a), state_vector(kb, dim_b))
    return np.outer(vec, vec.conj())


def partial_trace(rho: np.ndarray, dims, keep: str) -> np.ndarray:
    """Reduced density matrix of mode 'A' or 'B'."""
    dim_a, dim_b = dims
    if rho.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError("rho shape does not match the stated mode dimensions")
    r = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(r, axis1=0, axis2=2)
    raise ValueError("keep must be 'A' or 'B'")


def _product_traces(state2, pairs, dim_a: int, dim_b: int):
    """(Tr[rho (op_a x op_b)] for each (op_a, op_b) of the list pairs, Tr rho)
    from the product structure of the components, never forming the
    tensor-product matrix: a mixture builds each component's two densities
    once for every pair, a superposition its kets."""
    kind, comps = two_mode_components(state2)
    vals = np.zeros(len(pairs), dtype=complex)
    norm = 0j
    if kind == "mixed":
        for p, sa, sb in comps:
            rho_a, rho_b = density_matrix(sa, dim_a), density_matrix(sb, dim_b)
            vals += [p * expectation(rho_a, op_a) * expectation(rho_b, op_b) for op_a, op_b in pairs]
            norm += p * np.trace(rho_a) * np.trace(rho_b)
        return vals, norm
    kets = [(c, state_vector(ka, dim_a), state_vector(kb, dim_b)) for c, ka, kb in comps]
    for ck, ua, ub in kets:
        for cl, va, vb in kets:
            c = ck * np.conj(cl)
            vals += [c * np.vdot(va, op_a @ ua) * np.vdot(vb, op_b @ ub) for op_a, op_b in pairs]
            norm += c * np.vdot(va, ua) * np.vdot(vb, ub)
    return vals, norm


def two_mode_expectation(state2, op_a: np.ndarray, op_b: np.ndarray) -> complex:
    """Tr[rho (op_a x op_b)] using the product structure of the components.

    Identical to the dense-kron trace, but never forms the tensor-product
    matrix, so it stays cheap at the converged dimensions.
    """
    vals, _ = _product_traces(state2, [(op_a, op_b)], op_a.shape[0], op_b.shape[0])
    return complex(vals[0])


def converged_two_mode_expectation(state2, build, dim_cap: int = DIM_CAP):
    """Tr[rho (op_a x op_b)] for each single-mode pair (op_a, op_b) of the
    list build(dim), converged as one array by doubling both mode dimensions.
    Returns (complex array, ConvergenceInfo) with the joint trace deficit.
    """
    (val, norm), dim, delta = converge(
        lambda dim: _product_traces(state2, build(dim), dim, dim),
        _default_two_mode_dim(state2, dim_cap), dim_cap, "two-mode expectation",
        lambda new, old: _max_change(new[0], old[0]),
    )
    return val, ConvergenceInfo(dim=dim, delta=delta, trace_deficit=1.0 - float(norm.real))


def two_squid_moments(state2, qp, wa, wb, w1, w2, t, dim_cap: int = DIM_CAP) -> TwoSquidMoments:
    """The six two-ring current moments of state2 at time t: ring A's current
    sin_phase_operator(dim, qp, w1, wa, t) on mode A, ring B's (w2, wb) on
    mode B, each squared once per dimension, all six in one loop."""
    def build(dim):
        sa, sa2 = sin_phase_powers(dim, qp, w1, wa, t)
        sb, sb2 = sin_phase_powers(dim, qp, w2, wb, t)
        eye = np.eye(dim, dtype=complex)
        return [(sa, eye), (eye, sb), (sa2, eye), (eye, sb2), (sa, sb), (sa2, sb2)]

    val, _ = converged_two_mode_expectation(state2, build, dim_cap)
    return TwoSquidMoments(*val.real.tolist())


def _default_two_mode_dim(state2, dim_cap: int) -> int:
    _, comps = two_mode_components(state2)
    return max((default_dim(s, dim_cap) for _, sa, sb in comps for s in (sa, sb)), default=32)

