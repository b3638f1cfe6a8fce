"""Finite harmonic series f(t) = sum_k c_k exp(i k w0 t).

The classical intensity autocorrelation is such a series, with integer
multiples of one base frequency; ``interference.autocorrelation_classical``
evaluates it on its lags.  Keeping integer indices (not float frequencies)
makes incommensurate content impossible to represent silently: series with
different bases do not add.  The Weyl function's harmonics on a drive circle
come from ``states.weyl_time_average``, not from this class.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import IncommensurateError

__all__ = ["HarmonicSeries"]


@dataclass(frozen=True)
class HarmonicSeries:
    """Coefficients c_k of exp(i k base t), keyed by integer index k."""

    base: float
    coeffs: dict

    def __add__(self, other):
        if isinstance(other, HarmonicSeries):
            self._check_base(other)
            out = dict(self.coeffs)
            for k, v in other.coeffs.items():
                out[k] = out.get(k, 0j) + v
            return HarmonicSeries(self.base, out)
        out = dict(self.coeffs)
        out[0] = out.get(0, 0j) + complex(other)
        return HarmonicSeries(self.base, out)

    __radd__ = __add__

    def _check_base(self, other):
        if not math.isclose(self.base, other.base, rel_tol=1e-12):
            raise IncommensurateError(
                f"cannot combine series with bases {self.base!r} and {other.base!r}"
            )

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for k, v in self.coeffs.items():
            out += v * np.exp(1j * k * self.base * t)
        return out if out.shape else complex(out)
