"""Hypothesis settings and shared references for the whole suite.

Examples are derived from each test's source, not drawn at random, so every
run tests the same cases; no example database is written.  The per-example
deadline is off because first calls fill caches (Laguerre tables, squeezed
amplitudes) and would time out spuriously.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile(
    "mesoweyl", derandomize=True, database=None, deadline=None, max_examples=50
)
settings.load_profile("mesoweyl")


def _squeezed_amplitudes_mp(state, dim):
    """<n|S(zeta)D(alpha)|0>, zeta = (r/2) e^{-i varphi}, in 60-digit mpmath,
    from the Hermite form c_n = c_0 p^n H_n(alpha / sqrt(e^{-i varphi} sinh r))
    / sqrt(n!), p = sqrt(e^{-i varphi} tanh(r/2) / 2), with c_0 =
    exp(-|g|^2/2 - g*^2 t/2) / sqrt(cosh s), g = alpha cosh s -
    alpha* e^{-i varphi} sinh s, t = e^{-i varphi} tanh s, s = r/2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a = mpmath.mpc(state.amplitude)
        s = mpmath.mpf(state.r) / 2
        rot = mpmath.expj(-mpmath.mpf(state.varphi))
        t = rot * mpmath.tanh(s)
        g = a * mpmath.cosh(s) - mpmath.conj(a) * rot * mpmath.sinh(s)
        c0 = mpmath.exp(-abs(g) ** 2 / 2 - mpmath.conj(g) ** 2 * t / 2) / mpmath.sqrt(mpmath.cosh(s))
        p = mpmath.sqrt(t / 2)
        y = a / mpmath.sqrt(rot * mpmath.sinh(2 * s))
        return np.array([complex(c0 * p ** n * mpmath.hermite(n, y) / mpmath.sqrt(mpmath.factorial(n)))
                         for n in range(dim)])


@pytest.fixture
def hermite_amplitudes():
    """The 60-digit reference Fock amplitudes of a squeezed state, as a
    function of (state, dim)."""
    return _squeezed_amplitudes_mp
