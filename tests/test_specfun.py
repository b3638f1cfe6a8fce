import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp

from mesoweyl import specfun


def laguerre_rational(n, alpha, x):
    """Independent exact-rational series summation (the oracle)."""
    total = Fraction(0)
    for m in range(n + 1):
        k = n - m
        num = 1
        for i in range(k):
            num *= (n + alpha - i)
        c = Fraction(num, math.factorial(k) * math.factorial(m))
        total += (-1) ** m * c * x ** m
    return total


def test_laguerre_degree_zero_is_one():
    for alpha in (-4, 0, 7):
        for x in (0.0, 0.3, 5.0):
            assert specfun.laguerre(0, alpha, x) == 1.0


def test_laguerre_linear():
    assert specfun.laguerre(1, 0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_laguerre_negative_index_example():
    # L_3^{-2}(x) = x^2 (3-x)/6
    assert specfun.laguerre(3, -2, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("n,k", [(3, 2), (5, 1), (7, 4), (10, 10)])
@pytest.mark.parametrize("x", [0.3, 1.7, 4.0])
def test_laguerre_negative_index_identity(n, k, x):
    # L_n^{-k}(x) = (-x)^k (n-k)!/n! L_{n-k}^{k}(x)
    lhs = specfun.laguerre(n, -k, x)
    rhs = (-x) ** k * math.factorial(n - k) / math.factorial(n) * specfun.laguerre(n - k, k, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_laguerre_rejects_negative_degree():
    with pytest.raises(ValueError):
        specfun.laguerre(-1, 0, 1.0)


def test_laguerre_matches_rational_oracle():
    worst = 0.0
    for n in range(21):
        for alpha in range(-5, 6):
            for x in (Fraction(1, 100), Fraction(1, 4), Fraction(1), Fraction(4)):
                exact = laguerre_rational(n, alpha, x)
                got = specfun.laguerre(n, alpha, float(x))
                if exact == 0:
                    worst = max(worst, abs(got))
                else:
                    worst = max(worst, abs((Fraction(got) - exact) / exact))
    assert worst <= 1e-12


def test_laguerre_three_term_recurrence():
    worst = 0.0
    for n in range(1, 20):
        for alpha in range(-5, 6):
            for x in (0.01, 0.25, 1.0, 4.0):
                t1 = (n + 1) * specfun.laguerre(n + 1, alpha, x)
                t2 = (2 * n + 1 + alpha - x) * specfun.laguerre(n, alpha, x)
                t3 = (n + alpha) * specfun.laguerre(n - 1, alpha, x)
                scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
                worst = max(worst, abs(t1 - (t2 - t3)) / scale)
    assert worst <= 1e-10


def test_scaled_laguerre_matches_laguerre():
    xs = np.linspace(0.0, 50.0, 101)
    for n in range(41):
        ref = np.array([math.exp(-x / 2.0) * specfun.laguerre(n, 0, x) for x in xs.tolist()])
        assert np.max(np.abs(specfun.scaled_laguerre(n, xs) - ref)) <= 1e-13
        scalars = [specfun.scaled_laguerre(n, x) for x in xs.tolist()]
        assert all(isinstance(v, float) for v in scalars)
        assert np.max(np.abs(np.array(scalars) - ref)) <= 1e-13


def test_scaled_laguerre_is_finite_at_large_degree():
    # e^{-x/2} L_n(x) is bounded by one for x >= 0; e^{350} L_1000(700) alone
    # would be far outside double range
    vals = specfun.scaled_laguerre(1000, np.linspace(0.0, 700.0, 701))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_one_minus_scaled_laguerre_is_accurate_at_large_x():
    # e^{-x/2} L_n(x) is computed from the exact-rational-checked laguerre;
    # 1 - it is far from zero above x = 0.5, so the reference is relative
    for n in range(31):
        for x in (0.6, 2.0, 10.0, 40.0, 200.0, 700.0):
            ref = 1.0 - math.exp(-x / 2.0) * specfun.laguerre(n, 0, x)
            assert specfun.one_minus_scaled_laguerre(n, x) == pytest.approx(ref, rel=1e-13)
        for x in (1e20, 1e300, math.inf):
            assert specfun.one_minus_scaled_laguerre(n, x) == 1.0


def test_order_cutoff_saturates_past_the_int64_range():
    xs = [0.0, 1.0, 1e18, 9.2e18, 1e19, 1e31, 1e300, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cuts = specfun.order_cutoff(np.array(xs))
        assert [specfun.order_cutoff(x) for x in xs] == cuts.tolist()
    assert cuts[0] == 18 and np.all(np.diff(cuts) >= 0)
    assert cuts[-4:].tolist() == [2 ** 62 + 2] * 4


def test_bessel_j_basics():
    assert specfun.bessel_j_harmonics(0.0) == {0: 1.0}
    assert specfun.bessel_j_harmonics(1e-300) == {0: 1.0}
    js = specfun.bessel_j_harmonics(1.5)
    assert list(js) == sorted(js)
    assert js[-2] == js[2]
    assert js[-3] == -js[3]
    # J_n(-x) = (-1)^n J_n(x)
    flipped = specfun.bessel_j_harmonics(-2.0)
    for n, jn in specfun.bessel_j_harmonics(2.0).items():
        assert flipped[n] == (-jn if n % 2 else jn)


@pytest.mark.parametrize("x", [1e-4, 0.3, 2.0, 10.0, math.sqrt(34.0), 50.0])
def test_bessel_j_against_scipy(x):
    js = specfun.bessel_j_harmonics(x)
    for n in range(-44, 45):
        assert js.get(n, 0.0) == pytest.approx(float(sp.jv(n, x)), abs=5e-15)
    # every dropped order is below the cutoff, every kept one above it
    assert all(abs(jn) > 1e-18 for jn in js.values())
    assert abs(sp.jv(max(js) + 1, x)) <= 1e-18


def test_bessel_jacobi_anger_identity():
    # sum_n J_n(x) e^{i n theta} = e^{i x sin theta}, for either sign of x
    for x in (2.0, -2.0, 7.5):
        for theta in (0.0, math.pi / 3.0, 2.0):
            lhs = sum(
                jn * cmath.exp(1j * n * theta)
                for n, jn in specfun.bessel_j_harmonics(x).items()
            )
            assert abs(lhs - cmath.exp(1j * x * math.sin(theta))) <= 1e-12


@pytest.mark.parametrize("x", [0.5, 2.0, 5.0, 10.0])
def test_bessel_sum_of_squares(x):
    total = sum(jn ** 2 for jn in specfun.bessel_j_harmonics(x).values())
    assert abs(total - 1.0) <= 1e-12


def test_bessel_i_against_scipy():
    assert specfun.bessel_ive_all(0.0, specfun.order_cutoff(0.0) + 1).tolist() == [1.0] + [0.0] * specfun.order_cutoff(0.0)
    for x in (0.2, 1.0, 4.2, 16.7):
        ives = specfun.bessel_ive_all(x, specfun.order_cutoff(x) + 1)
        assert ives.shape == (specfun.order_cutoff(x) + 1,)
        for n, got in enumerate(ives[:30]):
            assert got == pytest.approx(float(sp.ive(n, x)), rel=1e-13, abs=1e-300)


def test_bessel_i_array_against_scipy():
    # one table for a 2-d array of arguments: each element keeps its own
    # order cutoff, with zeros above it
    xs = np.array([[0.0, 1e-20, 1e-10, 1e-3, 0.2], [1.0, 4.2, 16.7, 600.0, 720.0]])
    table = specfun.bessel_ive_all(xs, specfun.order_cutoff(720.0) + 1)
    assert table.shape == (specfun.order_cutoff(720.0) + 1,) + xs.shape
    for x, ives in zip(xs.ravel(), table.reshape(len(table), -1).T):
        cut = specfun.order_cutoff(x)
        assert not ives[cut + 1:].any()
        for n, got in enumerate(ives[: cut + 1]):
            ref = float(sp.ive(n, x))
            # the orders that can survive the 1e-18 cutoff of the expansions
            if n < 30 or ref > 1e-18:
                assert got == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_bessel_array_variants_match_scalars():
    # the scaled pass neither overflows (e^{720} does) nor loses range; checked
    # on every order that can survive the 1e-18 cutoff of the expansions
    for x in (3.3, 600.0, 720.0):
        for n, got in enumerate(specfun.bessel_ive_all(x, specfun.order_cutoff(x) + 1)):
            ref = float(sp.ive(n, x))
            if ref > 1e-18:
                assert got == pytest.approx(ref, rel=1e-13)


def test_bessel_ive_column_blocks_equal_one_table():
    # 2,000 arguments up to 3,000 need orders to 3,263: the pass runs in two
    # column blocks, and every kept row is the same bits as one full table
    xs = np.linspace(0.0, 3000.0, 2000)
    height = specfun.order_cutoff(3000.0) + 1
    assert height * xs.size > 2 ** 22
    whole = specfun._miller_ive(xs, height)
    assert np.array_equal(specfun.bessel_ive_all(xs, height), whole)
    assert np.array_equal(specfun.bessel_ive_all(xs.reshape(40, 50), 12), whole[:12].reshape(12, 40, 50))
