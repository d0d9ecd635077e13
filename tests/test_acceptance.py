import pytest

from toricfib import acceptance


@pytest.fixture(scope="module")
def results():
    """One acceptance run shared by every case, so the model geometry is
    built once; ``run`` still applies ``TIME_BUDGETS`` to each criterion."""
    return acceptance.run()


@pytest.mark.parametrize("name", [name for name, _ in acceptance.CRITERIA])
def test_criterion(results, name):
    mine = [r for r in results if r.name == name]
    assert len(mine) == 1
    assert mine[0].passed, mine[0].detail
