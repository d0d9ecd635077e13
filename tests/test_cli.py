import json
from importlib import resources

import pytest

from toricfib.cli import main
from toricfib.jsonio import ParseError, matrix_from_json


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


def test_fibrations_hyp_simplex(capsys):
    path = resources.files("toricfib").joinpath("fixtures", "hyp_simplex.json")
    assert main(["fibrations", str(path), "--dim", "1", "--json"]) == 0
    cands = json.loads(capsys.readouterr().out)
    assert len(cands) == 3
    for c in cands:
        assert len(c["basis"]) == 1 and c["balanced"]
        assert c["slice"] == c["projection"] == {"rank": 1, "vertices": [[-1], [1]]}
    assert main(["fibrations", str(path), "--dim", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" balanced")[0] for line in lines] == [
        f"basis {c['basis']}" for c in cands
    ]


def test_fibrations_ci_polar_dim3(capsys):
    # the CI model's polar at k = 3: two balanced K3 slices, both with the
    # P(1,1,4,6) fibre polytope and its polar as projection
    path = resources.files("toricfib").joinpath("fixtures", "ci_polar.json")
    assert main(["fibrations", str(path), "--dim", "3", "--json"]) == 0
    cands = json.loads(capsys.readouterr().out)
    fibre = {
        "slice": {
            "rank": 3,
            "vertices": [[-1, -4, -6], [0, 0, 1], [0, 1, 0], [1, 0, 0]],
        },
        "projection": {
            "rank": 3,
            "vertices": [[-1, -1, -1], [-1, -1, 1], [-1, 2, -1], [11, -1, -1]],
        },
    }
    assert cands == [
        {"basis": [first, [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], "balanced": True, **fibre}
        for first in ([0, 1, 1, 0, 0], [1, 0, 1, 0, 0])
    ]


def test_fibrations_not_reflexive(tmp_path, capsys):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps({"vertices": [[2, 0], [0, 2], [-2, 0], [0, -2]]}))
    assert main(["fibrations", str(path), "--dim", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["code"] == "not-reflexive"


@pytest.mark.parametrize("bad", [1.7, "1", True, None], ids=["float", "string", "bool", "null"])
def test_fibrations_non_integer_vertex(tmp_path, capsys, bad):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"vertices": [[bad, 0], [0, 1], [-1, -1]]}))
    assert main(["fibrations", str(path), "--dim", "1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "code": "parse-error",
        "message": "'vertices' must be a non-empty list of integer lists",
        "context": {},
    }


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vertices": [[]]}, "'vertices' must be a non-empty list of integer lists"),
        ({"vertices": [[1], []]}, "'vertices' must be a non-empty list of integer lists"),
        ({"rank": True, "vertices": [[1], [-1]]}, "'rank' must be an integer"),
        ({"rank": 1.0, "vertices": [[1], [-1]]}, "'rank' must be an integer"),
    ],
    ids=["empty-vertex", "one-empty-vertex", "bool-rank", "float-rank"],
)
def test_fibrations_malformed_polytope(tmp_path, capsys, data, message):
    # rejected as input, before the hull sees a zero-length or mistyped point
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["fibrations", str(path), "--dim", "1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "code": "parse-error", "message": message, "context": {}
    }


def test_matrix_from_json_rejects_non_integers():
    assert matrix_from_json([[1, -2], [0, 3]]) == ((1, -2), (0, 3))
    for bad in ([[1.9, 2], [1, 0]], [[1, "2"], [1, 0]], [[True, 0]], [], [1, 2], [[]]):
        with pytest.raises(ParseError):
            matrix_from_json(bad)
