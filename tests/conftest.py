import pytest

from toricfib import models


@pytest.fixture(scope="session")
def ctx():
    """The model geometry, built once from the bundled fixtures as the
    acceptance suite builds it."""
    return models.ModelGeometry(models.Fixtures())
