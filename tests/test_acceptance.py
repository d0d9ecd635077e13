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


def test_run_only_matches_the_exact_name():
    assert [r.name for r in acceptance.run(only="fan-counts")] == ["fan-counts"]
    # "fan" is part of two names, but the name of none
    with pytest.raises(ValueError, match="'fan'"):
        acceptance.run(only="fan")


def test_run_only_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="no acceptance criterion named 'no-such-criterion'"):
        acceptance.run(only="no-such-criterion")
