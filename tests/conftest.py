from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from fplogistic.domain import DomainSpec, build_grid, validate_params
from fplogistic.eigen import principal_eigenpair
from fplogistic.kernel import assemble
from fplogistic.solve import SolveOptions

# property tests draw the same examples on every run, so that two checkouts
# are compared on the same inputs; each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def unit_interval():
    return DomainSpec.interval(0.0, 1.0)


@pytest.fixture(scope="session")
def grid64(unit_interval):
    return build_grid(unit_interval, 64)


@pytest.fixture(scope="session")
def grid32(unit_interval):
    return build_grid(unit_interval, 32)


@pytest.fixture(scope="session")
def sub_params():
    return validate_params(1, 0.4, 2.0, 1.5, 3.0)


@pytest.fixture(scope="session")
def equi_params():
    return validate_params(1, 0.4, 2.0, 2.0, 3.0)


@pytest.fixture(scope="session")
def super_params():
    return validate_params(1, 0.4, 2.0, 3.0, 4.0)


@pytest.fixture(scope="session")
def p3_params():
    return validate_params(1, 0.3, 3.0, 2.0, 4.0)


@pytest.fixture(scope="session")
def kw64(grid64, sub_params):
    return assemble(grid64, sub_params)


@pytest.fixture(scope="session")
def kw32(grid32, sub_params):
    return assemble(grid32, sub_params)


@pytest.fixture(scope="session")
def kw64_p3(grid64, p3_params):
    return assemble(grid64, p3_params)


@pytest.fixture(scope="session")
def kw32_p3(grid32, p3_params):
    return assemble(grid32, p3_params)


@pytest.fixture(scope="session")
def eig64(kw64):
    return principal_eigenpair(kw64, SolveOptions(seed=0))


@pytest.fixture(scope="session")
def unit_square():
    return DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def grid2d(unit_square):
    return build_grid(unit_square, 8)


@pytest.fixture(scope="session")
def params2d():
    return validate_params(2, 0.4, 2.0, 1.5, 3.0)


@pytest.fixture(scope="session")
def kw2d(grid2d, params2d):
    return assemble(grid2d, params2d)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
