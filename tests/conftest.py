import pytest

from centropoly import fixtures


@pytest.fixture(scope="session")
def fx():
    return fixtures()


@pytest.fixture(scope="session")
def square(fx):
    return fx["lifted_square"]


@pytest.fixture(scope="session")
def half_square(fx):
    return fx["half_square_pair"]


@pytest.fixture(scope="session")
def hexagon(fx):
    return fx["perturbed_hexagon"]
