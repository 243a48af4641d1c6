import numpy as np
import pytest

from optomech import states


@pytest.fixture(scope="session")
def grid():
    return states.default_grid()


@pytest.fixture(scope="session")
def ground(grid):
    return states.make_gaussian(grid, states.GaussianSpec("ground"))


@pytest.fixture(scope="session")
def thermal2(grid):
    return states.make_gaussian(grid, states.GaussianSpec("thermal", nbar=2.0))


@pytest.fixture(scope="session")
def squeezed(grid):
    return states.make_gaussian(
        grid, states.GaussianSpec("momentum_squeezed", r=0.5))


@pytest.fixture()
def rng():
    return np.random.default_rng(71)


try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # fixed examples and no example database: tier-1 runs are reproducible
    settings.register_profile("deterministic", derandomize=True,
                              database=None, deadline=None)
    settings.load_profile("deterministic")
