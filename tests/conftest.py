import numpy as np
import pytest

from so3filter import SphericalCoeffs
from sphere_reference import SphereGrid


@pytest.fixture(scope="session")
def grid16():
    return SphereGrid.for_bandlimit(16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def random_signal8(rng):
    data = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    return SphericalCoeffs(8, data)
