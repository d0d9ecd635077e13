import json

import pytest

from toricfib.cli import main


def test_verify_json(capsys):
    assert main(["verify", "--only", "kodaira-tables", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert [(r["name"], r["passed"], r["detail"]) for r in results] == [
        ("kodaira-tables", True, "ok")
    ]
    assert results[0]["seconds"] >= 0


def test_verify_text(capsys):
    assert main(["verify", "--only", "kodaira-tables"]) == 0
    assert capsys.readouterr().out.startswith("PASS kodaira-tables")


def test_verify_unknown_criterion():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "no-such-criterion"])
    assert exc.value.code == 2
