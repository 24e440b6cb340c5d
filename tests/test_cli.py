import json

import jsonschema
import pytest

from hopfgrow.catalog import taft_presentation
from hopfgrow.cli import main
from hopfgrow.fileformat import presentation_to_jsonable

from conftest import CHECK_IDS, CHECK_SETTINGS

with open("src/hopfgrow/schemas/report.schema.json") as fh:
    SCHEMA = json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_list_examples(capsys):
    code, payload = run_json(capsys, "list-examples")
    assert code == 0
    names = {e["name"] for e in payload["report"]["examples"]}
    assert names == {"skew_free", "skew_trunc", "taft", "qplane", "exterior"}


def test_normalize_command(capsys):
    code, payload = run_json(capsys, "normalize", "--example", "qplane",
                             "--element", "y2 y1")
    assert code == 0
    assert payload["report"]["normal_form"] == "q1 * y1 y2"


def test_delta_command(capsys):
    code, payload = run_json(capsys, "delta", "--example", "taft",
                             "--param", "p=2", "--element", "y")
    assert code == 0
    terms = payload["report"]["terms"]
    assert {"left": "y", "right": "1", "coeff": "1"} in terms
    assert {"left": "g1", "right": "y", "coeff": "1"} in terms


def test_delta_text_brackets_coefficients(capsys):
    code, out, err = run(capsys, "delta", "--example", "taft", "--param", "p=5",
                         "--element", "y y y + g1 y")
    assert code == 0
    assert out == (
        "delta(y y y + g1 y) = y y y (x) 1 + g1 y (x) g1"
        " + (1 + z + z^2) * [g1 y y (x) y] + g1^2 (x) g1 y"
        " + (1 + z + z^2) * [g1^2 y (x) y y] + g1^3 (x) y y y\n")


def test_primitives_command(capsys):
    code, payload = run_json(capsys, "primitives", "--example", "exterior",
                             "--param", "s=2", "--weight", "g1",
                             "--degree", "2", "--group-bound", "2")
    assert code == 0
    space = payload["report"]["spaces"][0]
    assert space["dim"] == 3
    assert space["has_coradical_line"]
    assert set(space["witnesses"]) == {"y1", "y2"}


def test_primitives_command_skew_free_tau(capsys):
    # with tau the grading is trivial, so every block is large; at these
    # bounds each weight past g1 has only its coradical line
    code, payload = run_json(capsys, "primitives", "--example", "skew_free",
                             "--param", "v=2", "--param", "tau=1",
                             "--degree", "4", "--group-bound", "3")
    assert code == 0
    spaces = payload["report"]["spaces"]
    assert [(s["weight"], s["dim"]) for s in spaces] == [
        ("g1^-3", 1), ("g1^-2", 1), ("g1^-1", 1), ("g1", 3), ("g1^2", 1), ("g1^3", 1)]
    assert all(s["has_coradical_line"] for s in spaces)
    assert [s["witnesses"] for s in spaces if s["witnesses"]] == [["y2", "y1"]]


def test_primitives_command_skew_trunc(capsys):
    code, payload = run_json(capsys, "primitives", "--example", "skew_trunc",
                             "--param", "p=4", "--degree", "4",
                             "--group-bound", "3")
    assert code == 0
    assert payload["presentation"]["params"] == {
        "bad_gen": False, "beta": 1, "p": 4, "v": 2}
    assert payload["report"] == {
        "bounds_used": {"degree_bound": 4, "group_word_bound": 3},
        "spaces": [
            {"basis": ["-1 * g1^-3 + 1"], "dim": 1, "has_coradical_line": True,
             "weight": "g1^-3", "witnesses": []},
            {"basis": ["-1 * g1^-2 + 1"], "dim": 1, "has_coradical_line": True,
             "weight": "g1^-2", "witnesses": []},
            {"basis": ["-1 * g1^-1 + 1"], "dim": 1, "has_coradical_line": True,
             "weight": "g1^-1", "witnesses": []},
            {"basis": ["-1 + g1", "y2", "y1"], "dim": 3,
             "has_coradical_line": True, "weight": "g1",
             "witnesses": ["y2", "y1"]},
            {"basis": ["-1 + g1^2"], "dim": 1, "has_coradical_line": True,
             "weight": "g1^2", "witnesses": []},
            {"basis": ["-1 + g1^3"], "dim": 1, "has_coradical_line": True,
             "weight": "g1^3", "witnesses": []},
        ]}


def test_invariants_command_skew_trunc(capsys):
    code, out, err = run(capsys, "invariants", "--example", "skew_trunc",
                         "--degree", "5", "--group-bound", "5",
                         "--power-bound", "5")
    assert code == 0
    assert err == ""
    assert out == (
        "invariants of skew_trunc (bounds {'degree_bound': 5, 'group_word_bound': 5,"
        " 'power_bound': 5, 'level_bound': 12})\n"
        "  weights: {g1}\n"
        "  with primitive power: {g1}\n"
        "  with free commutator: {g1}\n"
        "  pair (g1, q1): level 1, free\n"
        "  pair (g1, zeta^1): level 1, torsion\n"
        "  dim torsion span = 1, dim free quotient = 1\n"
        "    witness y2: gamma q1, level 1 (free)\n"
        "    witness y1: gamma zeta^1, level 1 (torsion), power 3 primitive\n"
        "  note: group-like elements are searched within the declared group only,"
        " and all memberships are relative to the stated bounds\n")


def test_invariants_command(capsys):
    code, payload = run_json(capsys, "invariants", "--example", "exterior",
                             "--param", "s=3", "--degree", "4",
                             "--group-bound", "2", "--power-bound", "3")
    assert code == 0
    counts = payload["report"]["counts"]
    assert counts["dim_torsion_span"] == 3
    assert counts["dim_free_quotient"] == 0
    pair = payload["report"]["weight_commutators"][0]
    assert pair["weight"] == "g1" and pair["gamma"] == "-1"


def test_bounds_command_exterior(capsys):
    code, payload = run_json(capsys, "bounds", "--example", "exterior",
                             "--param", "s=3", "--degree", "4",
                             "--group-bound", "2", "--power-bound", "3")
    assert code == 0
    values = {b["rule"]: b["value"] for b in payload["report"]["bounds"]}
    assert values["weight-count"] == 0
    assert values["weight-commutator-count"] == 0
    assert values["primitive-quotient"] == 0
    assert values["independent-family"] is None
    assert payload["report"]["detector"]["classification"] == "inconclusive"


def test_bounds_command_qplane(capsys):
    code, payload = run_json(capsys, "bounds", "--example", "qplane",
                             "--param", "v=2", "--degree", "3",
                             "--group-bound", "3", "--power-bound", "3")
    assert code == 0
    values = {b["rule"]: b["value"] for b in payload["report"]["bounds"]}
    assert set(values.values()) == {3}


def test_growth_command_exponential(capsys):
    code, payload = run_json(capsys, "growth", "--example", "skew_free",
                             "--param", "v=2", "--nmax", "10",
                             "--degree", "3", "--group-bound", "2",
                             "--power-bound", "3")
    assert code == 0
    assert payload["report"]["estimate"]["kind"] == "exponential"
    assert payload["report"]["detector"]["classification"] == "exponential"


def test_growth_command_tau(capsys):
    code, payload = run_json(capsys, "growth", "--example", "skew_free",
                             "--param", "tau=1", "--nmax", "13",
                             "--degree", "2", "--group-bound", "2",
                             "--power-bound", "2")
    assert code == 0
    dims = payload["report"]["dims"]
    assert dims[13] == 49121
    assert dims == [3 * 2 ** (n + 1) - 2 * n - 5 for n in range(14)]


def test_growth_command_qplane(capsys):
    code, payload = run_json(capsys, "growth", "--example", "qplane",
                             "--param", "v=3", "--nmax", "24")
    assert code == 0
    report = payload["report"]
    assert report["dims"][24] == 38025
    assert report["estimate"]["kind"] == "polynomial"
    assert report["estimate"]["degree"] == 4
    assert report["detector"]["classification"] == "inconclusive"


def test_growth_resource_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("HOPFGROW_MAX_WORDS", "40")
    code, out, err = run(capsys, "growth", "--example", "skew_free",
                         "--nmax", "12", "--degree", "2",
                         "--group-bound", "2", "--power-bound", "2")
    assert code == 3


def test_growth_horizon_capped(capsys):
    # n_max + 1 dims are built, so a horizon past the parser's size cap is
    # refused before any growth is measured
    code, out, err = run(capsys, "growth", "--example", "taft", "--nmax", "1000000000000")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "--nmax" in err and err.count("\n") == 1, err
    code, out, err = run(capsys, "growth", "--example", "taft", "--nmax", "1000")
    assert code == 0 and out.splitlines()[1001] == "1000\t9", err


@pytest.mark.parametrize("name, params", CHECK_SETTINGS, ids=CHECK_IDS)
def test_check_example_all_builtins(capsys, name, params):
    argv = [arg for prm in params for arg in ("--param", prm)]
    code, payload = run_json(capsys, "check-example", name, *argv)
    assert code == 0, payload
    assert payload["report"]["passed"], payload["report"]["checks"]


def test_check_example_taft(capsys):
    code, payload = run_json(capsys, "check-example", "taft", "--param", "p=5")
    assert code == 0
    assert payload["report"]["passed"]
    names = {c["check"] for c in payload["report"]["checks"]}
    assert "pbw-dependence-degree" in names
    assert "bounds-below-growth" in names


def test_exit_code_usage(capsys, tmp_path, monkeypatch):
    code, out, err = run(capsys, "normalize", "--element", "y1")
    assert code == 1
    code, out, err = run(capsys, "normalize", "--example", "nope",
                         "--element", "y1")
    assert code == 1
    # negative bound flags are usage errors
    for flag in (["--nmax", "-3"], ["--degree", "-2"]):
        code, out, err = run(capsys, "growth", "--example", "taft", *flag)
        assert code == 1, flag
        assert err.startswith("usage error:") and err.count("\n") == 1, err
    # malformed presentation files end in one error line, not a traceback
    path = tmp_path / "bad.json"
    for doc in ([], {"scalars": {"cyclotomic_order": 0}},
                {"group": {"free_rank": -1}}, {"scalars": 3}, {"meta": 3},
                {"generators": [3]}, {"relations": [3]},
                {"scalars": {"cyclotomic_order": "x"}},
                {"group": {"torsion": 5}},
                {"generators": [{"name": "y", "weight": 1}]},
                {"generators": [{"name": "y", "weight": [],
                                 "character": [{"root": ["x", 3]}]}]},
                {"relations": [{"lhs": 3}]}):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 1, doc
        assert err.startswith("presentation error:") and err.count("\n") == 1, err
    # so is an integer past Python's limit on converting digit strings
    big = "9" * 5000
    for argv in (["normalize", "--element", "g1^" + big],
                 ["normalize", "--element", "zeta^" + big + " y"],
                 ["normalize", "--element", big + " y"],
                 ["primitives", "--weight", "g1^" + big]):
        code, out, err = run(capsys, argv[0], "--example", "taft", *argv[1:])
        assert (code, out, err.count("\n")) == (1, "", 1), err[:200]
        assert err.startswith("presentation error:") and big not in err
    # so is a --param value that is not a number, or not one the builder takes
    for argv in (["invariants", "--example", "taft", "--param", "p=1,x"],
                 ["invariants", "--example", "taft", "--param", "p=1/x"],
                 ["invariants", "--example", "taft", "--param", "p=x"],
                 ["check-example", "taft", "--param", "p=x"],
                 ["invariants", "--example", "taft", "--param", "p=" + big]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (1, "", 1), err[-300:]
        assert err.startswith(("usage error:", "presentation error:")), err
        assert ("parameter p" in err or "--param p" in err) and big not in err, err
    # so is a word ceiling that is not a nonnegative integer
    for raw in ("abc", "-5"):
        monkeypatch.setenv("HOPFGROW_MAX_WORDS", raw)
        code, out, err = run(capsys, "growth", "--example", "taft", "--nmax", "3")
        assert code == 1, raw
        assert err.startswith("usage error:") and err.count("\n") == 1, err


def test_exit_code_non_confluent(capsys):
    code, out, err = run(capsys, "delta", "--example", "skew_trunc",
                         "--param", "bad_gen=true", "--element", "y1")
    assert code == 2
    assert "overlap" in err


def test_check_example_reports_non_confluent_instance(capsys):
    code, payload = run_json(capsys, "check-example", "skew_trunc",
                             "--param", "bad_gen=true")
    assert code == 0
    assert payload["report"]["passed"]


def test_file_input(capsys, tmp_path):
    doc = {
        "scalars": {"cyclotomic_order": 1, "transcendentals": ["q1"]},
        "group": {"free_rank": 1, "torsion": []},
        "generators": [{"name": "y", "weight": [1], "character": ["q1"]}],
    }
    path = tmp_path / "ore.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "normalize", str(path),
                             "--element", "y g1")
    assert code == 0
    assert payload["report"]["normal_form"] == "q1 * g1 y"
    assert payload["presentation"]["name"] == str(path)
    # a meta name names the presentation in the text header and in JSON
    doc["meta"] = {"name": "ore-from-file"}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 0
    assert out.startswith("invariants of ore-from-file (bounds ")
    code, payload = run_json(capsys, "growth", str(path), "--nmax", "2")
    assert payload["presentation"]["name"] == "ore-from-file"


def test_parse_error_exit(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 1
    assert "line" in err
    # one malformed taft-3 document per kind of error the parser once let
    # escape as a traceback
    taft = presentation_to_jsonable(taft_presentation(3))
    gen = taft["generators"][0]
    for change in [
            {"generators": [dict(gen, weight=[1, 0])]},
            {"generators": [dict(gen, weight=[1.5])]},
            {"generators": [dict(gen, name={})]},
            {"relations": [{"lhs": "y y y", "rhs": "1/0"}]},
            {"scalars": {"cyclotomic_order": 10 ** 30}},
            {"group": {"free_rank": 1.5}, "generators": [], "relations": []},
            {"relations": [{"lhs": "y^1000000000"}]},
            # integers past Python's limit on converting digit strings
            {"relations": [{"lhs": "y y y", "rhs": "g1^" + "9" * 5000}]},
            {"relations": [{"lhs": "y y y", "rhs": "zeta^" + "9" * 5000}]},
            {"relations": [{"lhs": "y y y", "rhs": "9" * 5000 + " g1"}]}]:
        path.write_text(json.dumps(dict(taft, **change)))
        code, out, err = run(capsys, "invariants", str(path))
        assert (code, out, err.count("\n")) == (1, "", 1), (change, err)
        assert err.startswith("presentation error: ")
        assert "9" * 100 not in err
    # a JSON number past that limit fails in the JSON decoder itself
    path.write_text('{"group": {"free_rank": %s}}' % ("9" * 5000))
    code, out, err = run(capsys, "invariants", str(path))
    assert (code, out, err.count("\n")) == (1, "", 1), err[:200]
    assert err.startswith("presentation error: ") and "9" * 100 not in err

