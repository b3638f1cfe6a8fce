import math

import numpy as np
import pytest

from mesoweyl.exceptions import IncommensurateError
from mesoweyl.harmonics import HarmonicSeries


def test_time_average_is_zero_index():
    # the mean of evaluate over one period of the base is the index-0 coefficient
    s = HarmonicSeries(2.0, {0: 1.5 + 0j, 3: 2j, -3: -2j, 1: 0.25 - 1j})
    ts = np.arange(64) * (math.pi / 64)
    assert abs(np.mean(s.evaluate(ts)) - 1.5) < 1e-14
    assert isinstance(s.evaluate(0.3), complex)


def test_mixed_base_sum_rejected():
    a = HarmonicSeries(1.0, {0: 1.0 + 0j, 1: 2j})
    assert (a + HarmonicSeries(1.0, {-1: 1.0 + 0j, 1: 1j})).coeffs == {0: 1.0, 1: 3j, -1: 1.0}
    assert (2.5 + a).coeffs == {0: 3.5, 1: 2j}
    with pytest.raises(IncommensurateError):
        a + HarmonicSeries(2.0, {0: 1.0 + 0j})
