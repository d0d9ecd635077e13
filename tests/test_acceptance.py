import pytest

from toricfib import acceptance


@pytest.mark.parametrize("name", [name for name, _ in acceptance.CRITERIA])
def test_criterion(name):
    results = acceptance.run(only=name)
    assert len(results) == 1
    assert results[0].passed, results[0].detail
