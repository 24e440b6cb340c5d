import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hopfgrow import cli
from hopfgrow.bounds import BoundReport
from hopfgrow.catalog import (EXAMPLES, build_example, skew_free_presentation,
                              taft_presentation)
from hopfgrow.cli import UsageError, _parse_param, build_parser, main
from hopfgrow.growth import dp_word_counts
from hopfgrow.fileformat import presentation_to_jsonable

from conftest import CHECK_IDS, CHECK_SETTINGS, run_guarded, wide_free_document

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


def test_normalize_zeroth_power(capsys, tmp_path):
    # y^0 is 1, in an element and in a rule
    for element, normal in [("y^0", "1"), ("3 - y^0", "2")]:
        code, out, err = run(capsys, "normalize", "--example", "taft", "--element", element)
        assert (code, out) == (0, "%s  ->  %s\n" % (element, normal))
    doc = presentation_to_jsonable(taft_presentation(2))
    doc["relations"] = [{"lhs": "y y", "rhs": "y^0"}]
    path = tmp_path / "square-one.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "normalize", str(path), "--element", "y y")
    assert (code, out) == (0, "y y  ->  1\n")


def test_normalize_refuses_a_trailing_sign(capsys):
    # a sign that no term follows was dropped: "y -" read as y, "-" as 0
    for element in ("y -", "1 +", "-"):
        code, out, err = run(capsys, "normalize", "--example", "taft", "--element", element)
        assert (code, out, err.count("\n")) == (1, "", 1), err
        assert err == "presentation error: no term follows the last sign in %r\n" % element


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


def test_delta_prints_an_exact_fraction_as_a_polynomial(capsys, tmp_path):
    # y1 of character 1 + q1: moving g1^-1 left past y1 divides by 1 + q1,
    # and where the coproduct multiplies that back the term has coefficient 1
    doc = {"scalars": {"cyclotomic_order": 1, "transcendentals": ["q1"]},
           "group": {"free_rank": 1},
           "generators": [{"name": "y1", "weight": [1], "character": ["1 + q1"]},
                          {"name": "y2", "weight": [1], "character": ["q1"]}]}
    path = tmp_path / "one-plus-q.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "delta", str(path), "--element", "y1 g1^-1 y2")
    assert code == 0
    assert out == (
        "delta(y1 g1^-1 y2) = ((1)/(1 + q1)) * [g1^-1 y1 y2 (x) g1^-1]"
        " + y1 (x) g1^-1 y2 + ((1)/(1 + q1)) * [y2 (x) g1^-1 y1]"
        " + ((1)/(1 + q1)) * [g1 (x) g1^-1 y1 y2]\n")


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


def test_primitives_command_has_no_line_outside_the_ball_or_at_1(capsys):
    # g1^5 lies outside the ball of radius 2, and the line g - 1 vanishes at
    # g = 1: neither space holds the coradical line, and qplane has no
    # primitive of either weight within degree 5
    for weight in ("g1^5", "1"):
        argv = ["primitives", "--example", "qplane", "--param", "v=2", "--weight", weight,
                "--group-bound", "2", "--degree", "5"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "weight %s: dim 0\n" % weight, "")
        code, payload = run_json(capsys, *argv)
        assert code == 0
        assert payload["report"]["spaces"] == [
            {"basis": [], "dim": 0, "has_coradical_line": False, "weight": weight,
             "witnesses": []}]


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
        " 'power_bound': 5})\n"
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


COUNT_KEYS = ("weights", "weights_with_primitive_power", "weights_with_free_commutator",
              "weight_commutators", "torsion_weight_commutators", "dim_torsion_span",
              "dim_free_quotient")


def _catalog_expected(name, params):
    _, merged = build_example(name, dict(_parse_param(prm) for prm in params))
    return EXAMPLES[name].expected(merged)


@pytest.mark.parametrize("command, name, params", [
    ("invariants", "skew_trunc", []), ("invariants", "skew_free", []),
    ("bounds", "skew_free", []), ("invariants", "skew_free", ["v=3"]),
    ("invariants", "skew_free", ["v=2", "tau=1"])],
    ids=["invariants-skew_trunc", "invariants-skew_free", "bounds-skew_free",
         "invariants-skew_free-v=3", "invariants-skew_free-v=2-tau=1"])
def test_default_bounds_finish(capsys, command, name, params):
    # the default degree, group bound and power bound (6/6/6) give the
    # catalog's counts, bounds and verdict
    argv = [arg for prm in params for arg in ("--param", prm)]
    code, payload = run_json(capsys, command, "--example", name, *argv)
    assert code == 0
    expected = _catalog_expected(name, params)
    report = payload["report"]
    invariants = report["invariants"] if command == "bounds" else report
    assert {k: invariants["counts"][k] for k in COUNT_KEYS} == {
        k: expected[k] for k in COUNT_KEYS}
    if command == "bounds":
        assert {b["rule"]: b["value"] for b in report["bounds"]} == expected["bounds"]
        assert report["detector"]["classification"] == expected["detector"]


@pytest.mark.parametrize("name, params, nmax", [
    ("skew_free", [], 10), ("skew_trunc", [], 13), ("skew_free", ["v=2", "tau=1"], 10)],
    ids=["skew_free-10", "skew_trunc-13", "skew_free-v=2-tau=1-10"])
def test_growth_default_bounds_finish(capsys, name, params, nmax):
    argv = [arg for prm in params for arg in ("--param", prm)]
    code, payload = run_json(capsys, "growth", "--example", name, *argv, "--nmax", str(nmax))
    assert code == 0
    expected = _catalog_expected(name, params)
    report = payload["report"]
    p, _ = build_example(name, dict(_parse_param(prm) for prm in params))
    assert report["dims"] == dp_word_counts(p, nmax)
    assert report["estimate"]["kind"] == expected["growth_kind"]
    assert report["detector"]["classification"] == expected["detector"]


def test_growth_letter_weight(capsys, tmp_path):
    # a tau-generator of weight g1^2 weighs 2 letters: growth counts F^2,
    # 1, 3, 6, 10, ..., below the closure 1, 4, 10, 19, ... of the words of
    # n letters and of the same degree, and reports the weight; skew_free
    # weighs 1
    doc = {"scalars": {"cyclotomic_order": 1, "transcendentals": []},
           "group": {"free_rank": 1},
           "generators": [{"name": "y", "weight": [2], "character": ["1"], "tau": ["1"]}]}
    path = tmp_path / "tau-g1^2.json"
    path.write_text(json.dumps(doc))
    bounds = ["--nmax", "12", "--degree", "2", "--group-bound", "2", "--power-bound", "2"]
    code, payload = run_json(capsys, "growth", str(path), *bounds)
    assert code == 0
    report = payload["report"]
    assert report["letter_weight"] == 2 and "truncated" not in report
    assert report["dims"] == [(n + 1) * (n + 2) // 2 for n in range(13)]
    assert report["estimate"] == {"kind": "polynomial", "degree": 2}
    code, out, err = run(capsys, "growth", str(path), *bounds)
    assert code == 0 and out.splitlines()[-1] == "letter weight: 2 (n counts a y-letter 2 times)"
    code, payload = run_json(capsys, "growth", "--example", "skew_free", *bounds)
    assert code == 0 and payload["report"]["letter_weight"] == 1
    assert len(payload["report"]["dims"]) == 13
    code, out, err = run(capsys, "growth", "--example", "skew_free", *bounds)
    assert code == 0 and "letter weight" not in out


def test_growth_and_bounds_refuse_a_presentation_without_letter_weight(
        capsys, monkeypatch, tmp_path):
    # y2 y1 = y1 y2 + g1 y1 y2 is confluent, but its rule term g1 y1 y2 is
    # as long as y2 y1 and carries a group part: no letter weight exists,
    # and both commands that read the growth end in one line with exit 1,
    # before any invariant search
    doc = {"scalars": {"cyclotomic_order": 1, "transcendentals": ["q1", "q2"]},
           "group": {"free_rank": 1},
           "generators": [{"name": "y1", "weight": [1], "character": ["q1"]},
                          {"name": "y2", "weight": [1], "character": ["q2"]}],
           "relations": [{"lhs": "y2 y1", "rhs": "y1 y2 + g1 y1 y2"}]}
    path = tmp_path / "full-length-group-part.json"
    path.write_text(json.dumps(doc))
    search = ["--degree", "4", "--group-bound", "2", "--power-bound", "3"]
    with monkeypatch.context() as m:
        m.setattr(cli, "_invariants", lambda *args: pytest.fail("searched"))
        for command in ("growth", "bounds"):
            for fmt in ("text", "json"):
                code, out, err = run(capsys, command, str(path), *search, "--format", fmt)
                assert (code, out, err.count("\n")) == (1, "", 1), (command, err)
                assert err.startswith("presentation error: no letter weight:"), err
    code, out, err = run(capsys, "normalize", str(path), "--element", "y2 y1")
    assert (code, err) == (0, "")
    # y1 y1 = g1 y2 y2 with y2 y2 = 0 and both characters -1: the
    # full-length group part vanishes in normal form, so the letter weight
    # is 1 and neither command refuses
    doc = {"scalars": {"cyclotomic_order": 2, "transcendentals": []},
           "group": {"free_rank": 1},
           "generators": [{"name": "y1", "weight": [1], "character": ["-1"]},
                          {"name": "y2", "weight": [1], "character": ["-1"]}],
           "relations": [{"lhs": "y2 y2", "rhs": "0"}, {"lhs": "y1 y1", "rhs": "g1 y2 y2"}]}
    path.write_text(json.dumps(doc))
    for command in ("bounds", "growth"):
        code, payload = run_json(capsys, command, str(path), *search)
        assert code == 0, command
    assert payload["report"]["letter_weight"] == 1
    assert payload["report"]["estimate"] == {"kind": "polynomial", "degree": 2}


# y1 and y2 of weight g1 over Z with the characters q1 and q2, and the
# rule y2 y1 = y1 y2: no Hopf ideal, so the detector's criteria fire on an
# algebra of polynomial growth of degree 3
COMMUTING_PAIR = {"scalars": {"cyclotomic_order": 1, "transcendentals": ["q1", "q2"]},
                  "group": {"free_rank": 1},
                  "generators": [{"name": "y1", "weight": [1], "character": ["q1"]},
                                 {"name": "y2", "weight": [1], "character": ["q2"]}],
                  "relations": [{"lhs": "y2 y1", "rhs": "y1 y2"}]}


def test_exact_verdict_refutes_detector_and_bounds(capsys, monkeypatch, tmp_path):
    # bounds and growth both hold the detector and the bounds to the exact
    # growth verdict, and exit 2 where it refutes them
    path = tmp_path / "commuting-pair.json"
    path.write_text(json.dumps(COMMUTING_PAIR))
    search = ["--degree", "4", "--group-bound", "2", "--power-bound", "3"]
    for command in ("bounds", "growth"):
        code, out, err = run(capsys, command, str(path), *search)
        assert (code, out) == (2, "")
        assert err == ("consistency failure: detector says exponential but the "
                       "measured growth is polynomial\n")
    real = cli.all_bounds

    def inflated(p, report):
        return real(p, report) + [BoundReport("inflated", [], 3, {})]

    monkeypatch.setattr(cli, "all_bounds", inflated)
    code, out, err = run(capsys, "bounds", "--example", "qplane", "--param", "v=1",
                         *search)
    assert (code, out) == (2, "")
    assert err == "consistency failure: inflated above the growth degree 2\n"


def test_conjugation_closure_ceiling(capsys):
    # the conjugation closure has no ceiling of its own: on exterior
    # free=true at degree 6 it keeps 148 vectors at the weight 1, as the
    # free Lie superalgebra on three odd generators has 59 dimensions in
    # odd and 148 in even degrees up to 6
    code, out, err = run(capsys, "invariants", "--example", "exterior",
                         "--param", "free=true", "--param", "s=3", "--degree", "6",
                         "--group-bound", "1", "--power-bound", "1")
    assert (code, err) == (0, "")
    assert "dim torsion span = 59, dim free quotient = 148" in out


def test_builtin_cyclotomic_order_capped(capsys):
    # p is the cyclotomic order of taft and skew_trunc, so a p past the
    # size ceiling is refused before the cyclotomic polynomial is built
    for name, element in (("taft", "y"), ("skew_trunc", "y1")):
        code, out, err = run(capsys, "normalize", "--example", name,
                             "--param", "p=100000", "--element", element)
        assert (code, out) == (1, "")
        assert err == "presentation error: parameter p 100000 is above the size ceiling 1000\n"
    code, out, err = run(capsys, "normalize", "--example", "taft",
                         "--param", "p=1000", "--element", "y")
    assert (code, err) == (0, "")


def test_builtin_generator_counts_capped(capsys):
    # v transcendentals and v or s generators are built, so a count past
    # the size ceiling is refused first
    for name, param in (("skew_free", "v"), ("skew_trunc", "v"), ("exterior", "s")):
        code, out, err = run(capsys, "normalize", "--example", name,
                             "--param", "%s=1001" % param, "--element", "y1")
        assert (code, out) == (1, "")
        assert err == ("presentation error: parameter %s 1001 is above the size "
                       "ceiling 1000\n" % param)
    code, out, err = run(capsys, "normalize", "--example", "skew_free",
                         "--param", "v=1000", "--element", "y1")
    assert (code, out, err) == (0, "y1  ->  y1\n", "")


def test_growth_horizon_capped(capsys):
    # n_max + 1 dims are built, so a horizon past the parser's size cap is
    # refused before any growth is measured
    code, out, err = run(capsys, "growth", "--example", "taft", "--nmax", "1000000000000")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "--nmax" in err and err.count("\n") == 1, err
    code, out, err = run(capsys, "growth", "--example", "taft", "--nmax", "1000")
    assert code == 0 and out.splitlines()[1001] == "1000\t9", err


def test_bound_flags_capped(capsys):
    # every bound flag sizes a search space or a list, so a value past the
    # parser's size cap is refused.  The parser is asked first, so that a
    # missing cap fails here rather than start the uncapped work below.
    parser = build_parser()
    for flag in BOUND_FLAGS:
        # the first command that reads the flag: growth, or bounds for --mmax
        command = next(c for c in ("growth", "bounds") if flag in BOUND_FLAGS_READ[c])
        with pytest.raises(UsageError, match="%s: 1001 exceeds the cap 1000" % flag):
            parser.parse_args([command, "--example", "qplane", flag, "1001"])
        args = parser.parse_args([command, "--example", "qplane", flag, "1000"])
        assert getattr(args, flag[2:].replace("-", "_")) == 1000
    code, out, err = run(capsys, "primitives", "--example", "qplane", "--degree", "0",
                         "--group-bound", "1000000000")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "--group-bound" in err, err
    assert err.count("\n") == 1, err


BOUND_FLAGS = ("--degree", "--group-bound", "--power-bound", "--nmax", "--mmax")

# the bound flags each presentation command reads
BOUND_FLAGS_READ = {
    "normalize": (), "delta": (), "primitives": ("--degree", "--group-bound"),
    "invariants": ("--degree", "--group-bound", "--power-bound"),
    "bounds": ("--degree", "--group-bound", "--power-bound", "--mmax"),
    "growth": ("--degree", "--group-bound", "--power-bound", "--nmax"),
}


def test_commands_take_only_the_bound_flags_they_read(capsys):
    # a bound flag the command would ignore is refused as an unrecognized
    # argument, before any work; one it reads parses and is capped
    parser = build_parser()
    refused = 0
    for command, read in BOUND_FLAGS_READ.items():
        argv = [command, "--example", "qplane"]
        if command in ("normalize", "delta"):
            argv += ["--element", "y1"]
        for flag in BOUND_FLAGS:
            if flag in read:
                args = parser.parse_args(argv + [flag, "1000"])
                assert getattr(args, flag[2:].replace("-", "_")) == 1000
                with pytest.raises(UsageError, match="%s: 1001 exceeds the cap" % flag):
                    parser.parse_args(argv + [flag, "1001"])
                continue
            code, out, err = run(capsys, *argv, flag, "2")
            assert (code, out, err.count("\n")) == (1, "", 1), (command, flag, err)
            assert err.startswith("usage error: unrecognized arguments: ") and flag in err
            refused += 1
    assert refused == 17


def test_unread_bound_flag_is_refused_with_its_value(capsys, tmp_path):
    # the value of a refused flag is named with it, not taken for the
    # optional file positional
    path = tmp_path / "taft.json"
    path.write_text(json.dumps(presentation_to_jsonable(taft_presentation(3))))
    for argv in (["normalize", "--example", "qplane", "--element", "y2 y1", "--nmax", "5"],
                 ["delta", "--example", "taft", "--element", "y y", "--degree", "3"],
                 ["delta", str(path), "--element", "y", "--mmax", "4"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == "usage error: unrecognized arguments: %s %s\n" % tuple(argv[-2:])


# beside CHECK_SETTINGS, settings whose expectations must count every
# generator: bad_gen adds a second free group generator to the coradical,
# and with same_q the tau generator adds the commutator 1 beside q1
EVERY_GENERATOR = [
    ("skew_trunc", ["bad_gen=true", "beta=0"]),
    ("skew_trunc", ["bad_gen=true", "beta=0", "v=1"]),
    ("skew_trunc", ["bad_gen=true", "beta=0", "p=2"]),
    ("skew_free", ["same_q=true", "tau=1", "v=2"]),
    ("skew_free", ["same_q=true", "tau=1", "v=3"]),
]


@pytest.mark.parametrize("name, params", CHECK_SETTINGS + EVERY_GENERATOR,
                         ids=CHECK_IDS + ["-".join([n] + prm) for n, prm in EVERY_GENERATOR])
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


def test_exit_code_usage(capsys, tmp_path):
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


def test_exit_code_non_confluent(capsys):
    code, out, err = run(capsys, "delta", "--example", "skew_trunc",
                         "--param", "bad_gen=true", "--element", "y1")
    assert code == 2
    assert "overlap" in err


def test_normalize_refuses_non_confluent_file(capsys, tmp_path):
    # y1 y1 = 0 for a tau-generator y1 of weight g1: the group overlap of
    # the rule does not resolve, so no reduction of y1 g1 is the normal form
    doc = {"scalars": {"cyclotomic_order": 1, "transcendentals": []},
           "group": {"free_rank": 1},
           "generators": [{"name": "y1", "weight": [1], "character": ["1"],
                           "tau": ["2"]}],
           "relations": [{"lhs": "y1^2", "rhs": ""}]}
    path = tmp_path / "tau-square.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "normalize", str(path), "--element", "y1 g1")
    assert (code, out, err.count("\n")) == (2, "", 1), err
    assert err.startswith("non-confluent: ") and "ygroup overlap on rule y1 y1" in err, err
    assert run(capsys, "delta", str(path), "--element", "y1 g1") == (2, "", err)


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




@pytest.mark.parametrize("entry", [
    {"root": [0, 1], "exps": ["q1", 0]}, {"root": [0, 1], "exps": [1.5, 0]},
    {"root": [0, 1], "exps": [True, 0]}, {"root": [True, 1], "exps": [1, 0]},
    {"root": [0, True], "exps": [1, 0]}, {"num": [[[1.5, 0], ["1"]]]},
    {"num": [[[1, 0], ["1"]]], "den": [[[0, "0"], ["1"]]]},
    {"num": [[[1, 0], [True]]]}, True],
    ids=["exps-str", "exps-float", "exps-bool", "root-bool", "root-order-bool",
         "num-float", "den-str", "coefficient-bool", "bool"])
def test_file_scalar_types_end_in_one_error_line(capsys, tmp_path, entry):
    # generator 0's character is q1, {"root": [0, 1], "exps": [1, 0]}; each
    # entry puts a string, a float or a boolean where an integer belongs,
    # which delta and invariants would read as a number or fail on
    doc = presentation_to_jsonable(skew_free_presentation(v=2))
    doc["generators"][0]["character"] = [entry]
    path = tmp_path / "character.json"
    path.write_text(json.dumps(doc))
    for argv in (["normalize", str(path), "--element", "y1"],
                 ["delta", str(path), "--element", "y1 y2"],
                 ["invariants", str(path), "--degree", "2", "--group-bound", "1",
                  "--power-bound", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (1, "", 1), (argv, err)
        assert err.startswith("presentation error: generators[0]: bad scalar "), err


@pytest.mark.parametrize("names", [[None], [3], ["1"], ["zeta"], ["g1"], ["q 1"],
                                   ["q1", "q1"]],
                         ids=["null", "int", "digit", "zeta", "g1", "space", "repeat"])
def test_file_transcendental_names_end_in_one_error_line(capsys, tmp_path, names):
    # none of these is a name the expression syntax reads back as that
    # transcendental: a non-string, a number, zeta, a group generator, two
    # tokens, or a name already taken
    doc = presentation_to_jsonable(skew_free_presentation(v=1))
    doc["scalars"]["transcendentals"] = names
    path = tmp_path / "transcendentals.json"
    path.write_text(json.dumps(doc))
    for argv in (["normalize", str(path), "--element", "y1 g1"],
                 ["invariants", str(path), "--degree", "2", "--group-bound", "1",
                  "--power-bound", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (1, "", 1), (argv, err)
        assert err.startswith("presentation error: scalars.transcendentals[%d] "
                              % (len(names) - 1)), err
        assert "Traceback" not in err


def test_long_file_scalar_is_not_echoed(capsys, tmp_path):
    doc = presentation_to_jsonable(skew_free_presentation(v=1))
    doc["generators"][0]["character"] = ["9" * 5000]
    path = tmp_path / "long-scalar.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "normalize", str(path), "--element", "y1")
    assert (code, out, err.count("\n")) == (1, "", 1), err[:200]
    assert err.startswith("presentation error: generators[0]: bad scalar ")
    assert len(err) < 200 and "Traceback" not in err


def test_huge_torsion_order_needs_no_cap(tmp_path):
    # the ball over Z/10^9 holds 3 elements within radius 1: listing the
    # whole cyclic group fails the timeout or the address-space cap
    doc = {"scalars": {"cyclotomic_order": 1, "transcendentals": []},
           "group": {"free_rank": 0, "torsion": [10 ** 9]},
           "generators": [{"name": "y", "weight": [1], "character": ["1"]}]}
    path = tmp_path / "huge-torsion.json"
    path.write_text(json.dumps(doc))
    result = run_guarded(["-m", "hopfgrow", "primitives", str(path),
                          "--degree", "1", "--group-bound", "1"], timeout=20)
    assert result.returncode == 0, result.stderr
    assert "weight g1: dim 2" in result.stdout
    assert "weight g1^999999999: dim 1" in result.stdout


def test_generator_named_like_a_group_generator_refused(capsys, tmp_path):
    # a generator g1 would turn the element "g1 g1" into the group element
    # g1^2, while the rule reads it as its own square
    doc = wide_free_document(1)
    doc["generators"][0]["name"] = "g1"
    doc["relations"] = [{"lhs": "g1 g1", "rhs": ""}]
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "normalize", str(path), "--element", "g1 g1")
    assert (code, out, err.count("\n")) == (1, "", 1), err
    assert err.startswith("presentation error: generators[0].name 'g1' "), err


def test_primitive_search_builds_one_ball_per_run(tmp_path):
    # |B_4| = 19,361 weights over Z^10: a search that lists and classes the
    # ball once per weight fails the timeout
    path = tmp_path / "z10.json"
    path.write_text(json.dumps(wide_free_document(10)))
    result = run_guarded(["-m", "hopfgrow", "invariants", str(path), "--degree", "2",
                          "--group-bound", "4", "--power-bound", "2"], timeout=20)
    assert result.returncode == 0, result.stderr
    assert "  weights: {g1}" in result.stdout.splitlines()


@pytest.mark.parametrize("command, code", [("invariants", 0), ("bounds", 0),
                                           ("growth", 0)])
def test_wide_group_commands_finish_at_the_defaults(tmp_path, command, code):
    # over Z^10, B_6 holds 134,245 weights and a y-word reaches 6 of them:
    # a search of every weight takes 30-40 s; the growth count lists no
    # word and takes no ceiling
    path = tmp_path / "z10.json"
    path.write_text(json.dumps(wide_free_document(10)))
    result = run_guarded(["-m", "hopfgrow", command, str(path)], timeout=20)
    assert result.returncode == code, result.stderr
    if command != "growth":
        assert "  weights: {g1}" in result.stdout.splitlines()


# the check-example settings whose growth the log-log fit misread
FIT_MISREAD_SETTINGS = (
    [["taft", "--param", "p=%d" % p] for p in (8, 9, 10, 11, 12, 13, 23, 50)]
    + [["exterior", "--param", "s=11"], ["skew_trunc", "--param", "v=1", "--param", "p=11"],
       ["skew_trunc", "--param", "bad_gen=true", "--param", "beta=0", "--param", "v=3"]])


def test_exact_growth_verdicts_at_the_defaults(tmp_path):
    # each setting passes check-example; qplane v=3 reads degree 4 at the
    # default horizon, and growth on the Z^10 file prints all 13 levels
    # with degree 11 = 10 + 1
    path = tmp_path / "z10.json"
    path.write_text(json.dumps(wide_free_document(10)))
    commands = [["check-example"] + argv for argv in FIT_MISREAD_SETTINGS]
    commands += [["growth", "--example", "qplane", "--param", "v=3", "--format", "json"],
                 ["growth", str(path), "--format", "json"]]
    code = """if True:
        import contextlib, io, json, sys
        from hopfgrow.cli import main
        for argv in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            report = json.loads(out.getvalue())["report"] if argv[0] == "growth" else {}
            estimate = report.get("estimate", {})
            print(code, estimate.get("degree"), len(report.get("dims", ())))
    """
    result = run_guarded(["-c", code, json.dumps(commands)], timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0 None 0"] * len(FIT_MISREAD_SETTINGS) + [
        "0 4 13", "0 11 13"]


@pytest.mark.parametrize("argv", [
    ["--example", "skew_trunc", "--param", "p=50", "--param", "v=2", "--nmax", "60"],
    ["--example", "taft", "--param", "p=1000", "--nmax", "40"]],
    ids=["skew_trunc-p=50", "taft-p=1000"])
def test_growth_of_long_rules_finishes(argv):
    # the rule automaton has one state per proper suffix of a left-hand
    # side, 50 and 1000 here: a state per word's first K - 1 letters would
    # be 2^49 states for p=50, and a recursive component search overflows
    # on the chain of 1000 states
    result = run_guarded(["-m", "hopfgrow", "growth", *argv, "--degree", "2",
                          "--group-bound", "1", "--power-bound", "2", "--format", "json"],
                         timeout=20)
    assert result.returncode == 0, result.stderr
    estimate = json.loads(result.stdout)["report"]["estimate"]
    assert estimate == ({"kind": "exponential"} if "p=50" in argv
                        else {"kind": "polynomial", "degree": 0, "dimension": 1000 ** 2})


def test_closed_stdout_exits_without_traceback():
    # the reader of the pipe is gone before the report is written, as when
    # `head -1` has stopped reading
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    try:
        result = subprocess.run([sys.executable, "-m", "hopfgrow", "list-examples"],
                                stdout=write, stderr=subprocess.PIPE, env=env,
                                timeout=60)
    finally:
        os.close(write)
    assert result.returncode == 1
    assert b"Traceback" not in result.stderr and result.stderr.count(b"\n") <= 1
