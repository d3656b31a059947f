import numpy as np
import pytest
from scipy.stats import qmc

from wigentropy.verification import _sobol_2d, _triangle_samples


@pytest.mark.parametrize("power", range(1, 17))
def test_sobol_points_match_scipy(power):
    # scipy's generator is the independent reference for the region2 and
    # conjecture-scan points
    expected = qmc.Sobol(d=2, scramble=False).random_base2(power)
    assert np.array_equal(_sobol_2d(power), expected)


@pytest.mark.parametrize("count", [1, 256, 10_000])
def test_triangle_samples_fill_the_triangle(count):
    points = _triangle_samples(count)
    assert points.shape == (count, 2)
    assert (points >= 0.0).all()
    assert (points.sum(axis=1) <= 1.0).all()
