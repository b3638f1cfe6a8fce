"""Special functions behind the closed-form results.

Generalized Laguerre polynomials with an integer upper index of either sign
(displacement matrix elements need L_n^{m-n} for both orderings of m and n),
and the integer-order Bessel harmonics of the drive expansions: J_n from
``scipy.special.jv`` (Amos, ACM TOMS 644), exponentially scaled I_n by
Miller's downward recurrence with normalization.  This module owns the order
cutoff and the sign conventions of both Bessel series.  Everything is double
precision; only integer orders and moderate arguments occur in this package.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import jv

__all__ = [
    "laguerre",
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
    is correct to roundoff everywhere.
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


def one_minus_scaled_laguerre(n: int, x: float) -> float:
    """1 - e^{-x/2} L_n(x) without cancellation at small x."""
    lag = laguerre(n, 0, x)
    tail = lag - 1.0 if x > 0.5 else math.fsum(
        c * x ** m for m, c in enumerate(_laguerre_float_coeffs(n, 0)) if m > 0
    )
    return -lag * math.expm1(-x / 2.0) - tail


def order_cutoff(x: float) -> int:
    """Order beyond which J_n(x) and e^{-x} I_n(x) fall under ~1e-18 (x >= 0)."""
    return int(x + 16.0 + 10.0 * x ** 0.4) + 2


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


def bessel_ive_all(x: float) -> list:
    """[e^{-x} I_0(x), ..., e^{-x} I_N(x)] for x >= 0, N = order_cutoff(x).

    One Miller pass normalized by e^{-x}(I_0 + 2 sum_k I_k) = 1, so no
    exponential is formed and large arguments neither overflow nor lose
    range.  I_{-n} = I_n.  Below x ~ 1e-27 the recurrence overflows and
    the entries come out NaN; x = 0 gives [1, 0, ..., 0].
    """
    nmax = order_cutoff(x)
    if x == 0.0:
        return [1.0] + [0.0] * nmax
    m = max(nmax, int(x)) + 18 + int(2.5 * math.sqrt(max(nmax, x, 1.0)))
    f = [0.0] * (m + 2)
    f[m] = 1e-300
    for k in range(m, 0, -1):
        f[k - 1] = (2.0 * k / x) * f[k] + f[k + 1]
        if abs(f[k - 1]) > 1e280:
            for i in range(k - 1, m + 2):
                f[i] *= 1e-280
    norm = f[0] + 2.0 * math.fsum(f[1 : m + 1])
    return [v / norm for v in f[: nmax + 1]]
