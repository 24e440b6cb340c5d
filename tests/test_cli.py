import json

import jsonschema
import pytest

from hopfgrow.cli import main

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
    assert names == {"skew_free", "skew_trunc", "taft", "qplane", "exterior",
                     "b_series_stub"}


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


def test_primitives_command(capsys):
    code, payload = run_json(capsys, "primitives", "--example", "exterior",
                             "--param", "s=2", "--weight", "g1",
                             "--degree", "2", "--group-bound", "2")
    assert code == 0
    space = payload["report"]["spaces"][0]
    assert space["dim"] == 3
    assert space["has_coradical_line"]
    assert set(space["witnesses"]) == {"y1", "y2"}


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


def test_growth_resource_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("HOPFGROW_MAX_WORDS", "40")
    code, out, err = run(capsys, "growth", "--example", "skew_free",
                         "--nmax", "12", "--degree", "2",
                         "--group-bound", "2", "--power-bound", "2")
    assert code == 3


@pytest.mark.parametrize("name, params", [
    ("skew_free", []), ("skew_trunc", []), ("taft", []), ("qplane", []),
    ("exterior", []), ("b_series_stub", []), ("skew_free", ["v=1"]),
], ids=["skew_free", "skew_trunc", "taft", "qplane", "exterior",
        "b_series_stub", "skew_free-v=1"])
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


def test_check_example_stub(capsys):
    code, payload = run_json(capsys, "check-example", "b_series_stub",
                             "--param", "ps=2,3,5")
    assert code == 0
    assert payload["report"]["passed"]


def test_stub_refuses_computation(capsys):
    code, out, err = run(capsys, "invariants", "--example", "b_series_stub")
    assert code == 1
    assert "b_series_stub" in err or "B(1,1" in err


def test_exit_code_usage(capsys, tmp_path):
    code, out, err = run(capsys, "normalize", "--element", "y1")
    assert code == 1
    code, out, err = run(capsys, "normalize", "--example", "nope",
                         "--element", "y1")
    assert code == 1
    # malformed presentation files end in one error line, not a traceback
    path = tmp_path / "bad.json"
    for doc in ([], {"scalars": {"cyclotomic_order": 0}},
                {"group": {"free_rank": -1}}):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "invariants", str(path))
        assert code == 1, doc
        assert err.startswith("presentation error:") and err.count("\n") == 1, err


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


def test_parse_error_exit(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 1
    assert "line" in err

