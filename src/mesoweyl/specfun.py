"""Special functions behind the closed-form results.

Generalized Laguerre polynomials with an integer upper index of either sign
(displacement matrix elements need L_n^{m-n} for both orderings of m and n),
the scaled Laguerre function e^{-x/2} L_n(x) of the number-state Weyl
function, and the integer-order Bessel harmonics of the drive expansions:
J_n from ``scipy.special.jv`` (Amos, ACM TOMS 644) through ``jv``, which
imports scipy on its first call, and exponentially scaled I_n by Miller's
downward recurrence with normalization.  ``scaled_laguerre`` and
``bessel_ive_all`` take arrays, so a whole lag grid of time averages is one
call.  This module owns the order cutoff and the sign conventions of both
Bessel series.  Everything is double precision; only integer orders and
moderate arguments occur in this package.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "jv",
    "laguerre",
    "scaled_laguerre",
    "one_minus_scaled_laguerre",
    "order_cutoff",
    "bessel_j_harmonics",
    "bessel_ive_all",
]


@lru_cache(maxsize=4096)
def _laguerre_coeffs(n: int, alpha: int) -> tuple:
    """Exact rational coefficients c_m of L_n^alpha(x) = sum_m c_m x^m.

    c_m = (-1)^m binom(n+alpha, n-m) / m!, with the binomial read as a
    falling factorial so a negative integer upper index is the polynomial
    continuation: L_n^{-k}(x) = (-x)^k (n-k)!/n! L_{n-k}^k(x).
    """
    coeffs = []
    for m in range(n + 1):
        k = n - m
        num = 1
        for i in range(k):
            num *= (n + alpha - i)
        c = Fraction(num, math.factorial(k) * math.factorial(m))
        coeffs.append(-c if m % 2 else c)
    return tuple(coeffs)


@lru_cache(maxsize=4096)
def _laguerre_float_coeffs(n: int, alpha: int) -> tuple:
    """The coefficients of ``_laguerre_coeffs``, each rounded to a float."""
    return tuple(float(c) for c in _laguerre_coeffs(n, alpha))


def laguerre(n: int, alpha: int, x: float) -> float:
    """L_n^alpha(x) for integer degree n >= 0, integer alpha of any sign.

    Evaluated as a float series; near zero crossings, where the alternating
    series cancels catastrophically, the sum is redone in exact rational
    arithmetic (the float argument is exactly representable), so the result
    is correct to roundoff everywhere.  Both halves stay: the float
    three-term recurrence alone misses roundoff near a zero (4.8e-12
    relative at L_19^2(4)), and exact sums alone are 6-60 times slower per
    call.
    """
    if n < 0:
        raise ValueError("Laguerre degree must be nonnegative")
    n, alpha = int(n), int(alpha)
    xp = 1.0
    terms = []
    for c in _laguerre_float_coeffs(n, alpha):
        terms.append(c * xp)
        xp *= x
    val = math.fsum(terms)
    err_bound = (n + 2) * 2.3e-16 * math.fsum(abs(t) for t in terms)
    if err_bound > 1e-13 * abs(val):
        xf = Fraction(x)
        total = Fraction(0)
        xp = Fraction(1)
        for c in _laguerre_coeffs(n, alpha):
            total += c * xp
            xp *= xf
        return float(total)
    return val


def scaled_laguerre(n: int, x):
    """e^{-x/2} L_n(x) for x >= 0, a float or an array of them.

    The upward three-term recurrence (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}
    runs on the pre-scaled values, which are bounded by one, so nothing
    overflows at large n or x.  The accuracy is absolute, not relative near a
    zero of L_n; ``laguerre`` keeps that.  x is capped at 1e300, where the
    scaled value has long underflowed to 0 and x = inf would give 0 * inf.
    """
    exp, cap = (np.exp, np.minimum) if isinstance(x, np.ndarray) else (math.exp, min)
    prev, cur, x = 0.0, exp(-0.5 * x), cap(x, 1e300)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def one_minus_scaled_laguerre(n: int, x):
    """1 - e^{-x/2} L_n(x) without cancellation at small x, for x >= 0, a
    float (giving a float) or an array of them.

    At or below x = 0.5 the difference s_k = 1 - e^{-x/2} L_k(x) runs its own
    upward recurrence (k+1) s_{k+1} = (2k+1-x) s_k - k s_{k-1} + x from
    s_0 = -expm1(-x/2), which never forms the cancelling 1 - (1 - s).  Above
    it, |e^{-x/2} L_n(x)| < 0.8, so the plain difference is accurate.
    """
    xs = np.minimum(x, 0.5)
    prev, cur = 0.0, -np.expm1(-0.5 * xs)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - xs) * cur - k * prev + xs) / (k + 1)
    out = np.where(x <= 0.5, cur, 1.0 - scaled_laguerre(n, x))
    return out if isinstance(x, np.ndarray) else float(out)


def order_cutoff(x):
    """Order beyond which J_n(x) and e^{-x} I_n(x) fall under ~1e-18 (x >= 0,
    a float or an array of them).

    Past x ~ 4.6e18 (and at x = inf) the order saturates at 2**62 + 2, more
    orders than any table could hold, instead of leaving the int64 range.
    """
    return np.int_(np.minimum(x + 16.0 + 10.0 * x ** 0.4, 2.0 ** 62)) + 2


def jv(n, x):
    """J_n(x) by ``scipy.special.jv``, broadcast like it.

    This is the package's one route to scipy outside the oracle: scipy is
    imported at the first call, so a run that needs no Bessel J never loads
    it.
    """
    from scipy.special import jv

    return jv(n, x)


def bessel_j_harmonics(x: float) -> dict:
    """{n: J_n(x)} over signed orders n, the coefficients of the
    Jacobi-Anger expansion exp(i x sin theta) = sum_n J_n(x) e^{i n theta}.

    x may have either sign.  Orders run in increasing n; terms with
    |J_n(x)| <= 1e-18 are dropped.
    """
    nmax = order_cutoff(abs(x))
    orders = np.arange(-nmax, nmax + 1)
    values = jv(orders, float(x)).tolist()
    return {n: v for n, v in zip(orders.tolist(), values) if abs(v) > 1e-18}


def bessel_ive_all(x, rows: int) -> np.ndarray:
    """Table of e^{-x} I_n(x), n = 0 .. rows - 1, of shape (rows, *x.shape),
    for x >= 0 and rows <= N + 1, N = order_cutoff(max x).

    Each element runs its own Miller pass from its own start order over
    orders 0 .. N, normalized by e^{-x}(I_0 + 2 sum_k I_k) = 1, so no
    exponential is formed and large arguments neither overflow nor lose
    range.  I_{-n} = I_n.  Entries above an element's own order_cutoff are
    zero; x = 0 gives [1, 0, ..., 0].  Below x ~ 1e-27 the recurrence
    overflows and the element's entries come out NaN.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    height = order_cutoff(x.max(initial=0.0)) + 1
    # no column's pass reads another's, so blocks of about 2^22 entries give
    # the same bits as one table, and only the rows asked for are kept
    step = max(1, 2 ** 22 // height)
    out = np.empty((rows, x.size))
    for i in range(0, x.size, step):
        out[:, i:i + step] = _miller_ive(x[i:i + step], height)[:rows]
    return out.reshape((rows,) + shape)


def _miller_ive(x: np.ndarray, height: int) -> np.ndarray:
    """bessel_ive_all's normalized table, orders 0 .. height - 1, for 1-d x."""
    nmax = order_cutoff(x)
    start = (np.maximum(nmax, x.astype(int)) + 18
             + (2.5 * np.sqrt(np.maximum(nmax, np.maximum(x, 1.0)))).astype(int))
    top = start.max(initial=0)
    out = np.zeros((height, x.size))
    # the orders above the table are only summed into the norm; the recurrence
    # keeps two of them, f_k and f_{k+1}
    f_k = np.where(start == top, 1e-300, 0.0)
    f_k1 = np.zeros(x.size)
    above = f_k.copy()
    # x = 0 has no pass; its column is set to [1, 0, ...] below
    xs = np.where(x == 0.0, 1.0, x)
    with np.errstate(over="ignore", invalid="ignore"):  # the tiny-x NaN of bessel_ive_all
        for k in range(top, 0, -1):
            f = (2.0 * k / xs) * f_k + f_k1
            f[start == k - 1] = 1e-300
            big = np.abs(f) > 1e280
            if big.any():
                for row in (f, f_k, above):
                    row[big] *= 1e-280
                out[k:, big] *= 1e-280
            if k - 1 < len(out):
                out[k - 1] = f
            else:
                above += f
            f_k, f_k1 = f, f_k
        out /= out[0] + 2.0 * (out[1:].sum(axis=0) + above)
    for n, row in enumerate(out):
        row[nmax < n] = 0.0
    out[:, x == 0.0] = 0.0
    out[0, x == 0.0] = 1.0
    return out
