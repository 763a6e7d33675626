import numpy as np
import pytest

from semihartree.grids import gaussian_profile, make_grid


@pytest.fixture(scope="session")
def mu_grid():
    return make_grid(512, -16.0, 16.0)


@pytest.fixture(scope="session")
def gauss(mu_grid):
    return gaussian_profile(mu_grid)


def array_norm(samples, dx):
    """Direct L^2 norm of raw samples, independent of the library helpers."""
    return float(np.sqrt(np.sum(np.abs(np.asarray(samples)) ** 2) * dx))


try:  # property tests run derandomized, so tier-1 stays reproducible
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              max_examples=150, database=None)
    settings.load_profile("tier1")
