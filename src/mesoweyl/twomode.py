"""Two distant interference devices driven by a correlated two-mode field.

Mode A couples to device A, mode B to device B, at the fixed figure
frequencies FIG_OMEGA_1 and FIG_OMEGA_2.  Joint fringes follow from the
two-mode Weyl function W2(z1, z2) = Tr[rho D(z1) x D(z2)], evaluated in
closed form for mixtures and product superpositions of number / coherent
kets; the pair builders return those states themselves, and the intensities
and ratio take them.  ``displacement_expectation`` is the one route from
observables of the two devices, each written as a sum of displacements, to
their two-mode expectations, all from one table of single-mode values per
mode; the fringes here and the two-ring moments of ``squid`` (the number
pair ``number_pair_crossed`` and the coherent pair alike) all take it, and
``two_mode_weyl`` is its reference in the tests.  The built-in number
pair uses the equal-occupation convention N(|n1 n1> + |n2 n2>) whose ratio
surface has the alpha/gamma closed form; the coherent pair is the
swapped-amplitude family N(|a1 a2> + |a2 a1>).

Every correlation ratio of the package, R and its closed forms here and
the ring ratios of ``squid``, divides through ``_ratio``: NaN where the
denominator's modulus is below ``_RATIO_EPS``, so a figure counts its poles
as its NaN cells.
"""

import math

import numpy as np

from . import specfun
from .states import (
    CoherentState,
    ChargeCoupling,
    NumberState,
    TwoModeProductSuperposition,
    TwoModeSeparableMixture,
    _scalar_or_array,
    coherent_displacement_element,
    number_displacement_element,
    two_mode_components,
    weyl,
)

__all__ = [
    "DEFAULT_COUPLING_Q",
    "number_pair_separable",
    "number_pair_entangled",
    "number_pair_crossed",
    "coherent_pair_separable",
    "coherent_pair_entangled",
    "two_mode_weyl",
    "displacement_expectation",
    "marginal_intensity",
    "joint_intensity",
    "ratio_R",
    "number_pair_alpha_gamma",
    "ratio_sep_closed",
    "ratio_ent_closed",
    "sep_bounds",
    "fit_coupling_to_anchors",
]

# Fit of the closed-form ratio bounds to the published surface anchors
# (1.0001, 1.2471); both anchors reproduce to ~3e-5 here (see
# fit_coupling_to_anchors), which is what "q is a fit, not a stated
# constant" means operationally.
DEFAULT_COUPLING_Q = 0.2143

# the mode frequencies of devices A and B in every figure
FIG_OMEGA_1 = 1.2e-4
FIG_OMEGA_2 = 1.0e-4


def number_pair_separable(n1: int, n2: int) -> TwoModeSeparableMixture:
    """Classically correlated equal-occupation pair (|n1 n1> and |n2 n2>)."""
    return TwoModeSeparableMixture(
        ((0.5, NumberState(n1), NumberState(n1)), (0.5, NumberState(n2), NumberState(n2)))
    )


def number_pair_entangled(n1: int, n2: int) -> TwoModeProductSuperposition:
    """Pure superposition N(|n1 n1> + |n2 n2>)."""
    norm = 0.5 if n1 == n2 else 1.0 / math.sqrt(2.0)
    return TwoModeProductSuperposition(
        ((norm, NumberState(n1), NumberState(n1)), (norm, NumberState(n2), NumberState(n2)))
    )


def number_pair_crossed(n1: int, n2: int, entangled: bool):
    """The swapped number pair of the two-ring moments: N(|n1 n2> + |n2 n1>)
    when entangled, else the even mixture of |n1 n2> and |n2 n1>."""
    kets = ((NumberState(n1), NumberState(n2)), (NumberState(n2), NumberState(n1)))
    if entangled:
        norm = 0.5 if n1 == n2 else 1.0 / math.sqrt(2.0)
        return TwoModeProductSuperposition(tuple((norm, *k) for k in kets))
    return TwoModeSeparableMixture(tuple((0.5, *k) for k in kets))


def coherent_pair_separable(a1, a2) -> TwoModeSeparableMixture:
    """Classically correlated swapped pair of coherent amplitudes."""
    return TwoModeSeparableMixture(
        ((0.5, CoherentState(a1), CoherentState(a2)), (0.5, CoherentState(a2), CoherentState(a1)))
    )


def coherent_pair_entangled(a1, a2) -> TwoModeProductSuperposition:
    """N(|a1 a2> + |a2 a1>), N = [2 + 2 exp(-|a1-a2|^2)]^{-1/2}."""
    norm = (2.0 + 2.0 * math.exp(-abs(complex(a1) - complex(a2)) ** 2)) ** -0.5
    return TwoModeProductSuperposition(
        ((norm, CoherentState(a1), CoherentState(a2)), (norm, CoherentState(a2), CoherentState(a1)))
    )


# ---------------------------------------------------------------------------
# two-mode Weyl function

def _ket_displacement_element(bra, z, ket):
    if isinstance(bra, NumberState) and isinstance(ket, NumberState):
        return number_displacement_element(bra.n, z, ket.n)
    if isinstance(bra, CoherentState) and isinstance(ket, CoherentState):
        return coherent_displacement_element(bra.amplitude, z, ket.amplitude)
    raise TypeError(f"no closed-form matrix element between {bra!r} and {ket!r}")


def two_mode_weyl(state2, z1, z2):
    """W2(z1, z2) = Tr[rho D(z1) x D(z2)] in closed form.

    z1 and z2 are complex numbers or arrays of them, broadcast against each
    other, for every built-in two-mode state.
    """
    kind, comps = two_mode_components(state2)
    if kind == "mixed":
        return sum(p * weyl(sa, z1) * weyl(sb, z2) for p, sa, sb in comps)
    total = 0j
    for ck, ua, ub in comps:
        for cl, va, vb in comps:
            total += (
                ck
                * complex(cl).conjugate()
                * _ket_displacement_element(va, z1, ua)
                * _ket_displacement_element(vb, z2, ub)
            )
    return _scalar_or_array(total)


def _element_table(kind: str, states: list, orders: set, z) -> list:
    """One mode's single-mode values, one row {j: value} per slot, at order
    0 and at +-j for every j in orders.

    For a mixture a slot is a component and its value at order j is
    W(j z), with W(0) = 1 and W(-z) = W(z)^*.  For a superposition a slot is
    a pair (l, k) of components, in the order l + n k, and its value is
    <v_l|D(j z)|u_k>, with <v|D(-z)|u> = <u|D(z)|v>^*; at order 0 that is
    the overlap <v_l|u_k>, one scalar for every z.
    """
    if kind == "mixed":
        rows = [{0: 1.0, **{j: weyl(s, j * z) for j in orders}} for s in states]
        return [{**row, **{-j: np.conj(row[j]) for j in orders}} for row in rows]
    n = len(states)
    up = {(l, k): {0: _ket_displacement_element(states[l], 0j, states[k]),
                   **{j: _ket_displacement_element(states[l], j * z, states[k]) for j in orders}}
          for k in range(n) for l in range(n)}
    return [{**up[l, k], **{-j: np.conj(up[k, l][j]) for j in orders}}
            for k in range(n) for l in range(n)]


def displacement_expectation(state2, observables, z_a, z_b) -> list:
    """Re Tr[rho f_A g_B] for each (terms_a, terms_b) of observables, where
    f_A = sum_j a_j D(j z_a) on mode A and g_B = sum_k b_k D(k z_b) on mode
    B are given as {j: a_j} and {k: b_k}.

    Each mode's single-mode values are taken once for all observables (see
    ``_element_table``), so f_A and g_B are sums over one table per mode.
    A mixture gives sum_i p_i F_A[i] G_B[i], a superposition sum c_k c_l^*
    F_A[l, k] G_B[l, k]; every (j, k) is summed, so the terms need not be
    Hermitian.  Each value broadcasts its observable's coefficients against
    the table values it reads.
    """
    kind, comps = two_mode_components(state2)
    if kind == "mixed":
        weights = [p for p, _, _ in comps]
    else:
        weights = [ck * complex(cl).conjugate() for ck, _, _ in comps for cl, _, _ in comps]
    table_a, table_b = [
        _element_table(kind, [comp[1 + side] for comp in comps],
                       {abs(j) for obs in observables for j in obs[side]} - {0}, z)
        for side, z in ((0, z_a), (1, z_b))
    ]
    values = []
    for terms_a, terms_b in observables:
        total = 0.0
        for w, row_a, row_b in zip(weights, table_a, table_b):
            f_a = sum(a * row_a[j] for j, a in terms_a.items())
            g_b = sum(b * row_b[k] for k, b in terms_b.items())
            total = total + w * f_a * g_b
        values.append(np.real(total))
    return values


# ---------------------------------------------------------------------------
# intensities, ratio and bounds; the intensities and the ratio take x, x_a,
# x_b and t as floats (giving a float) or as arrays that broadcast

def _lams(coupling: ChargeCoupling, t):
    t = np.asarray(t, dtype=float)
    return (1j * coupling.q * np.exp(1j * FIG_OMEGA_1 * t),
            1j * coupling.q * np.exp(1j * FIG_OMEGA_2 * t))


def _fringe_terms(x) -> dict:
    """1 + cos(x - e flux) = 1 + (e^{-ix} D(lam) + e^{ix} D(-lam))/2 as {j: c_j}."""
    half = 0.5 * np.exp(-1j * np.asarray(x, dtype=float))
    return {0: 1.0, 1: half, -1: np.conj(half)}


# the identity on the other mode
_ONE = {0: 1.0}


def marginal_intensity(state2, which: str, coupling: ChargeCoupling, x, t):
    """Single-screen fringe of the chosen device (reduced state of its mode)."""
    if which == "A":
        observable = (_fringe_terms(x), _ONE)
    elif which == "B":
        observable = (_ONE, _fringe_terms(x))
    else:
        raise ValueError("which must be 'A' or 'B'")
    return _scalar_or_array(displacement_expectation(state2, [observable], *_lams(coupling, t))[0])


def joint_intensity(state2, coupling: ChargeCoupling, x_a, x_b, t):
    """Tr{rho [1 + cos(x_a - e flux_A)][1 + cos(x_b - e flux_B)]}: each
    fringe is three displacement terms, summed over one element table per
    mode."""
    observable = (_fringe_terms(x_a), _fringe_terms(x_b))
    return _scalar_or_array(displacement_expectation(state2, [observable], *_lams(coupling, t))[0])


_RATIO_EPS = 1e-12


def _nan_at(pole, value):
    """value with NaN where pole; a float when both are scalars."""
    return _scalar_or_array(np.where(pole, np.nan, value))


def _ratio(num, den):
    """num / den, NaN where |den| < _RATIO_EPS."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _nan_at(np.abs(den) < _RATIO_EPS, np.divide(num, den))


def ratio_R(state2, coupling: ChargeCoupling, x_a, x_b, t):
    """R = I(x_a, x_b) / [I_A(x_a) I_B(x_b)]; unity iff the devices are
    independent, NaN where |I_A I_B| < _RATIO_EPS.  The two marginals and
    the joint fringe share one element table per mode."""
    fringe_a, fringe_b = _fringe_terms(x_a), _fringe_terms(x_b)
    ia, ib, joint = displacement_expectation(
        state2, [(fringe_a, _ONE), (_ONE, fringe_b), (fringe_a, fringe_b)], *_lams(coupling, t))
    return _ratio(joint, ia * ib)


def number_pair_alpha_gamma(q: float, n1: int = 0, n2: int = 1):
    """Fringe and cross coefficients of the equal-occupation number pair:
    alpha = (W_n1 + W_n2)/2, gamma = (W_n1^2 + W_n2^2)/2 at |z| = q."""
    w1 = weyl(NumberState(n1), 1j * q).real
    w2 = weyl(NumberState(n2), 1j * q).real
    return 0.5 * (w1 + w2), 0.5 * (w1 * w1 + w2 * w2)


def _ratio_sep(alpha, gamma, ca, cb):
    return _ratio(1.0 + alpha * (ca + cb) + gamma * ca * cb, (1.0 + alpha * ca) * (1.0 + alpha * cb))


def ratio_sep_closed(q: float, x_a, x_b, n1: int = 0, n2: int = 1):
    """Closed form of R for the separable number pair.

    x_a and x_b broadcast against each other (a column of x_a and a row of
    x_b give the whole screen surface); each element is the same float as
    the scalar call, and NaN where the marginal product
    (1 + alpha cos x_a)(1 + alpha cos x_b) is below _RATIO_EPS.
    """
    alpha, gamma = number_pair_alpha_gamma(q, n1, n2)
    return _ratio_sep(alpha, gamma, np.cos(x_a), np.cos(x_b))


def ratio_ent_closed(q: float, x_a, x_b, t,
                     omega_1: float = FIG_OMEGA_1, omega_2: float = FIG_OMEGA_2,
                     n1: int = 0, n2: int = 1):
    """Closed form of R for the entangled number pair.

    The off-diagonal |n1 n1><n2 n2| elements add, with d = |n2 - n1| and
    g = |<n2|D(iq)|n1>|^2,

        + g cos[d (w1+w2) t] * sin(x_a) sin(x_b)   (d odd)
        + g cos[d (w1+w2) t] * cos(x_a) cos(x_b)   (d even)

    over the marginal product.  The sign of the d = 1 term follows the
    first-principles trace (matrix-oracle checked); the published (0,1) form
    carries the opposite sign, equivalent to a half-period shift in t.

    x_a, x_b and t broadcast against each other, and the poles are NaN, as
    in ratio_sep_closed.
    """
    alpha, gamma = number_pair_alpha_gamma(q, n1, n2)
    ca, cb = np.cos(x_a), np.cos(x_b)
    base = _ratio_sep(alpha, gamma, ca, cb)
    d = abs(n2 - n1)
    # for n1 == n2 there are no off-diagonal elements, and adding the zero
    # term leaves base unchanged while keeping the broadcast shape
    g = abs(number_displacement_element(max(n1, n2), 1j * q, min(n1, n2))) ** 2 if d else 0.0
    osc = np.cos(d * (omega_1 + omega_2) * t)
    if d % 2:
        angular = np.sin(x_a) * np.sin(x_b)
    else:
        angular = ca * cb
    corr = g * osc * angular
    return base + _ratio(corr, (1.0 + alpha * ca) * (1.0 + alpha * cb))


def sep_bounds(q: float, n1: int = 0, n2: int = 1):
    """Corner values (x_a = x_b = 0 and pi) of the separable ratio:
    [(1+2a+g)/(1+a)^2, (1-2a+g)/(1-a)^2].

    Evaluated through the exact identity g - a^2 = (W_n1 - W_n2)^2/4, with
    W_n1 - W_n2 and 1 - a formed from 1 - W_n, which stays well conditioned
    down to q -> 0, where lower -> 1 but upper -> 5/4 (numerator and
    denominator vanish at the same q^4 rate).

    These are the published anchor extremes; the upper one is the true grid
    maximum, while the surface dips slightly below one at mixed corners like
    (0, pi), where R = (1-g)/(1-a^2) < 1.

    q is a float, which gives floats, or an array of them, which gives two
    arrays of its shape.
    """
    x = q * q
    alpha, _ = number_pair_alpha_gamma(q, n1, n2)
    # 1 - W_n does not round to 0 where W_n rounds to 1
    om1 = specfun.one_minus_scaled_laguerre(n1, x)
    om2 = specfun.one_minus_scaled_laguerre(n2, x)
    excess = 0.25 * (om2 - om1) ** 2  # = gamma - alpha^2 exactly
    one_minus = 0.5 * (om1 + om2)
    if np.any(one_minus == 0.0) or np.any(alpha <= -1.0):
        raise ValueError("degenerate fringe coefficient alpha = +-1")
    lower = 1.0 + excess / (1.0 + alpha) ** 2
    upper = 1.0 + excess / one_minus ** 2
    return lower, upper


def fit_coupling_to_anchors(target_min: float = 1.0001, target_max: float = 1.2471,
                            q_lo: float = 0.05, q_hi: float = 0.6, n: int = 20001):
    """1-D scan of the closed-form bounds against the published anchors.

    Returns (q_fit, max_abs_deviation).  The scan backs DEFAULT_COUPLING_Q;
    with these anchors it lands near 0.2143 with both deviations ~3e-5.
    """
    qs = np.linspace(q_lo, q_hi, n)
    lo, up = sep_bounds(qs)
    dev = np.maximum(np.abs(lo - target_min), np.abs(up - target_max))
    best = int(np.argmin(dev))
    return float(qs[best]), float(dev[best])
