import pytest

from toricfib import acceptance


@pytest.fixture(scope="session")
def ctx():
    """The model geometry, built once from the bundled fixtures as the
    acceptance suite builds it."""
    return acceptance._Ctx(acceptance.Fixtures())
