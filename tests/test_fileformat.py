import copy
import json
import os
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfgrow.catalog import (exterior_presentation, qplane_presentation,
                              skew_free_presentation, skew_trunc_presentation,
                              taft_presentation)
from hopfgrow.coalgebra import delta
from hopfgrow.errors import PresentationError
from hopfgrow.fileformat import (load_presentation, parse_element_expr,
                                 parse_group_element, parse_presentation_data,
                                 parse_scalar_expr, presentation_to_jsonable)
from hopfgrow.scalars import ScalarDomain
from hopfgrow.serialize import (element_to_str, scalar_from_jsonable,
                                scalar_to_expr, scalar_to_jsonable)

from conftest import (cyclic_g3_truncation, g3_truncation, random_presentation,
                      random_truncation, rank2_truncation)

BUILTINS = [
    skew_free_presentation(v=2),
    skew_free_presentation(v=1, tau=1),
    skew_trunc_presentation(3, beta=1, v=2),
    taft_presentation(5),
    qplane_presentation(3),
    exterior_presentation(2),
]


def equivalent(p1, p2):
    if p1.domain != p2.domain or p1.group != p2.group:
        return False
    if len(p1.gens) != len(p2.gens) or len(p1.rules) != len(p2.rules):
        return False
    for g1, g2 in zip(p1.gens, p2.gens):
        if g1.name != g2.name or g1.weight != g2.weight:
            return False
        if any(a != b for a, b in zip(g1.character, g2.character)):
            return False
        if any(a != b for a, b in zip(g1.tau, g2.tau)):
            return False
    for r1, r2 in zip(p1.rules, p2.rules):
        if r1.lhs != r2.lhs or r1.rhs != r2.rhs:
            return False
    return True


def _document(p):
    return json.loads(json.dumps(presentation_to_jsonable(p)))  # plain JSON types


# the truncations bring torsion groups, rank 2 and rule terms far from 1
@pytest.mark.parametrize("p", BUILTINS + [
    g3_truncation(1), g3_truncation(2), rank2_truncation(), cyclic_g3_truncation()],
    ids=lambda p: p.name)
def test_round_trip(p):
    assert equivalent(p, parse_presentation_data(_document(p), name=p.name))


def test_round_trip_random():
    # random draws bring tau, torsion characters and truncations
    rng = random.Random(1111)
    for p in [random_presentation(rng) for _ in range(200)] + [
            random_truncation(rng) for _ in range(40)]:
        assert equivalent(p, parse_presentation_data(_document(p))), p


_MUTANT_VALUES = [
    0, 1, -1, 2, 10 ** 30, -10 ** 30, 1.5, 3.0, True, None, "", "x", "3", "1/0",
    "y1", "g1", "zeta^-3", "1 + ", [], {}, [1, 0], [0], [-1], ["a"], [None],
    [1.5], [[1]], ["1/0"], [10 ** 30], {"root": [1, 3]}, {"root": None},
    {"num": []}, {"num": [[[0], ["1/0"]]]}, {"x": 1}]
_MUTANT_TOKENS = ["1/0", "*", "+", "-", "^", "1", "0", "g0", "g1^-1", "y1^0",
                  "y1^-2", "y2", "zeta", "q1", "q2", "x^"]


def _paths(tree, path=()):
    yield path
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutant(doc, rng):
    """doc with one or two nodes replaced by a value from _MUTANT_VALUES,
    deleted, wrapped in a list, given one more list item or, for a
    string, one more token."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        path = rng.choice(list(_paths(doc))[1:])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        old, op = parent[key], rng.random()
        if op < 0.5:
            parent[key] = copy.deepcopy(rng.choice(_MUTANT_VALUES))
        elif op < 0.65:
            del parent[key]
        elif op < 0.8 and isinstance(old, str):
            tokens = old.split()
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(_MUTANT_TOKENS))
            parent[key] = " ".join(tokens)
        elif isinstance(old, list) and old:
            old.append(copy.deepcopy(rng.choice(old)))
        else:
            parent[key] = [old]
    return doc


def test_mutated_documents_parse_or_raise_presentation_error():
    rng = random.Random(1212)
    docs = [_document(p) for p in BUILTINS]
    outcomes = set()
    for _ in range(5000):
        try:
            parse_presentation_data(_mutant(rng.choice(docs), rng))
            outcomes.add("parsed")
        except PresentationError:
            outcomes.add("rejected")
    assert outcomes == {"parsed", "rejected"}


def test_scalar_expr_parsing():
    dom = ScalarDomain(6, ("q1", "q2"))
    assert parse_scalar_expr(dom, "2/3") == dom.rational("2/3")
    assert parse_scalar_expr(dom, "zeta^2") == dom.zeta(2)
    assert parse_scalar_expr(dom, "-1 * q1^2 * q2^-1") == \
        dom.rational(-1) * dom.q(0) ** 2 * dom.q(1) ** -1
    assert parse_scalar_expr(dom, "1 + zeta") == dom.one() + dom.zeta()
    # a scalar may start with a sign, as an element may
    assert parse_scalar_expr(dom, "- 1 + zeta") == dom.zeta() - dom.one()
    for text in ("nope", "1/0", "", "+", "y1", "g1"):
        with pytest.raises(PresentationError):
            parse_scalar_expr(dom, text)


def test_a_sign_may_not_follow_a_sign():
    # two signs in a row have no one reading, so each is refused; a sign
    # glued to a literal is part of the literal
    p = taft_presentation(3)
    for parse, text in ((parse_element_expr, "1 - - 2"), (parse_element_expr, "1 - + 2"),
                        (parse_scalar_expr, "- - 1")):
        with pytest.raises(PresentationError) as err:
            parse(p if parse is parse_element_expr else p.domain, text)
        assert str(err.value) == "a sign follows a sign in %r" % text
    assert parse_scalar_expr(p.domain, "- 1") == p.domain.rational(-1)
    assert parse_element_expr(p, "1 - -2") == p.one().scale(p.domain.rational(3))


def _root_multiples():
    """r * zeta^a * q1^e for odd and even conductors, -zeta^a included."""
    for conductor in (3, 4, 6, 9):
        dom = ScalarDomain(conductor, ("q1",))
        for a in range(conductor):
            for r in (1, -1, Fraction(2, 3)):
                for e in (0, -2):
                    yield dom.rational(r) * dom.zeta(a) * dom.q(0, e)


def test_scalar_expr_round_trip():
    dom = ScalarDomain(6, ("q1",))
    for s in [dom.one(), dom.rational(-2), dom.zeta(2), dom.q(0) ** -3,
              dom.rational("3/5") * dom.zeta() * dom.q(0)]:
        assert parse_scalar_expr(dom, scalar_to_expr(s)) == s
    for s in _root_multiples():
        assert parse_scalar_expr(s.domain, scalar_to_expr(s)) == s


def test_scalar_jsonable_round_trip():
    dom = ScalarDomain(6, ("q1",))
    for s in [dom.one(), dom.zeta(5) * dom.q(0) ** 2, dom.rational("-7/3"),
              dom.one() + dom.q(0), (dom.one() + dom.zeta()) / dom.q(0)]:
        data = json.loads(json.dumps(scalar_to_jsonable(s)))
        assert scalar_from_jsonable(dom, data) == s
    for s in _root_multiples():
        data = json.loads(json.dumps(scalar_to_jsonable(s)))
        assert scalar_from_jsonable(s.domain, data) == s


@pytest.mark.parametrize("conductor, make, expr, data", [
    # -zeta_3 is no power of zeta_3, so it keeps the fraction form
    (3, lambda d: -d.zeta(), "-1 * zeta^1",
     {"num": [[[0], ["0", "-1"]]], "den": [[[0], ["1", "0"]]]}),
    (3, lambda d: d.zeta(5), "zeta^2", {"root": [2, 3], "exps": [0]}),
    (3, lambda d: d.rational(Fraction(2, 3)) * d.zeta(2) * d.q(0, -2),
     "2/3 * zeta^2 * q1^-2",
     {"num": [[[-2], ["-2/3", "-2/3"]]], "den": [[[0], ["1", "0"]]]}),
    (4, lambda d: -d.zeta(), "-1 * zeta^1", {"root": [3, 4], "exps": [0]}),
    (4, lambda d: d.rational(Fraction(2, 3)) * d.zeta(2) * d.q(0, -2),
     "-2/3 * q1^-2",
     {"num": [[[-2], ["-2/3", "0"]]], "den": [[[0], ["1", "0"]]]}),
    (6, lambda d: d.zeta(5), "-1 * zeta^2", {"root": [5, 6], "exps": [0]}),
    (6, lambda d: -d.zeta(), "-1 * zeta^1", {"root": [4, 3], "exps": [0]}),
])
def test_scalar_serialization_pins(conductor, make, expr, data):
    """Exponent choice and JSON form of roots of unity, as released."""
    s = make(ScalarDomain(conductor, ("q1",)))
    assert scalar_to_expr(s) == expr
    assert scalar_to_jsonable(s) == data


def test_element_expr():
    p = qplane_presentation(2)
    elt = parse_element_expr(p, "2 * g1 y1 + y2 y1 - g1^-1")
    manual = (p.multiply(p.group_element(p.group.generator(0)), p.y(0))
              .scale(p.domain.rational(2))
              + p.multiply(p.y(1), p.y(0))
              - p.group_element(p.group.inv(p.group.generator(0))))
    assert elt == manual
    # powers expand
    y1 = p.y(0)
    assert parse_element_expr(p, "y1^3") == p.multiply(y1, p.multiply(y1, y1))
    with pytest.raises(PresentationError):
        parse_element_expr(p, "y9")


def test_zeroth_power_is_one():
    # y^0 reads no letter, yet it is a term: 1
    p = taft_presentation(3)
    one = p.one()
    assert parse_element_expr(p, "y^0") == one
    assert parse_element_expr(p, "3 - y^0") == one.scale(p.domain.rational(2))
    assert parse_element_expr(p, "- y^0 + y") == p.y(0) - one
    assert parse_element_expr(p, "2 y^0 y") == p.y(0).scale(p.domain.rational(2))
    doc = dict(_document(p), relations=[{"lhs": "y y y", "rhs": "y^0 - g1"}])
    rule = parse_presentation_data(doc).rules[0]
    assert rule.rhs == one - p.group_element(p.group.generator(0))


def test_element_string_round_trip():
    p = skew_trunc_presentation(3, beta=1, v=2)
    elt = parse_element_expr(p, "zeta * g1 y1 y2 + 1/2 * y1 - g1^3")
    assert parse_element_expr(p, element_to_str(p, elt)) == elt


def test_group_word_parsing():
    p = exterior_presentation(2)
    assert parse_group_element(p, "g1") == (1,)
    assert parse_group_element(p, "g1^2") == (0,)
    assert parse_group_element(p, "1") == (0,)
    # one term with coefficient 1, and group letters only
    for text in ("2 g1", "- g1", "g1 + g1", "", "y1", "g2"):
        with pytest.raises(PresentationError):
            parse_group_element(p, text)


@pytest.mark.parametrize("lhs, message", [
    ("y1 + y2", "relations[0].lhs: 'y1 + y2' is not one word with coefficient 1"),
    ("2 y1", "relations[0].lhs: '2 y1' is not one word with coefficient 1"),
    ("y1 g1", "relations[0].lhs: unknown token 'g1' in 'y1 g1'"),
    ("y1^-1", "relations[0].lhs: negative power of a skew generator 'y1^-1'"),
])
def test_relation_lhs_is_one_word(lhs, message):
    doc = dict(_document(skew_free_presentation(v=2)),
               relations=[{"lhs": lhs, "rhs": ""}])
    with pytest.raises(PresentationError) as err:
        parse_presentation_data(doc)
    assert str(err.value) == message


def test_file_loading(tmp_path):
    doc = {
        "scalars": {"cyclotomic_order": 3, "transcendentals": []},
        "group": {"free_rank": 0, "torsion": [3]},
        "generators": [
            {"name": "y", "weight": [1],
             "character": [{"root": [1, 3], "exps": []}]}
        ],
        "relations": [{"lhs": "y y y", "rhs": ""}],
        "meta": {"name": "taft3-from-file"},
    }
    path = tmp_path / "taft3.json"
    path.write_text(json.dumps(doc))
    p, meta = load_presentation(str(path))
    assert equivalent(p, taft_presentation(3))
    assert meta["name"] == "taft3-from-file"
    assert p.name == "taft3-from-file"


def test_file_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"scalars\": [,]\n}")
    with pytest.raises(PresentationError) as err:
        load_presentation(str(path))
    assert "line 2" in str(err.value)


def test_semantic_error_names_generator():
    doc = {
        "scalars": {"cyclotomic_order": 4, "transcendentals": []},
        "group": {"free_rank": 0, "torsion": [3]},
        "generators": [
            {"name": "y", "weight": [1],
             "character": [{"root": [1, 4], "exps": []}]}
        ],
    }
    with pytest.raises(PresentationError) as err:
        parse_presentation_data(doc)
    assert "y" in str(err.value)


def test_bad_sanity_order_rejected():
    dom = ScalarDomain(4)
    with pytest.raises(PresentationError):
        parse_presentation_data({
            "scalars": {"cyclotomic_order": 4, "transcendentals": []},
            "group": {"free_rank": 1, "torsion": []},
            "generators": [{"name": "y", "weight": [1],
                            "character": [{"root": [1, 3], "exps": []}]}],
        })


@pytest.mark.parametrize("name", [
    "g1", "g12", "zeta", "q1", "y 1", "", "y^2", "1y", "y-1", "y\n"])
def test_generator_names_the_syntax_reads_otherwise_refused(name):
    # g<k>, zeta and a transcendental read as group elements and scalars,
    # and a non-identifier cannot be read back at all
    doc = _document(skew_free_presentation(v=1))
    doc["generators"][0]["name"] = name
    with pytest.raises(PresentationError) as err:
        parse_presentation_data(doc)
    assert str(err.value).startswith("generators[0].name %r " % name)


@pytest.mark.parametrize("name", ["y", "g", "gamma", "g1a", "Zeta", "_q1", "x_2"])
def test_generator_names_that_read_back_load(name):
    doc = _document(skew_free_presentation(v=1))
    doc["generators"][0]["name"] = name
    p = parse_presentation_data(doc)
    square = parse_element_expr(p, name + "^2")
    assert element_to_str(p, square) == "%s %s" % (name, name)
    assert parse_element_expr(p, element_to_str(p, square)) == square


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at its size plus 256 MB while a
    test runs: a parse that expands a size it should refuse then ends in
    MemoryError instead of taking gigabytes."""
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        pytest.skip("no /proc/self/statm")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (256 << 20)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("change, field", [
    ({"relations": [{"lhs": "y^1000000000", "rhs": ""}]}, "relations[0].lhs"),
    ({"relations": [{"lhs": "y^" + "9" * 5000, "rhs": ""}]},
     "relations[0].lhs"),
    ({"relations": [{"lhs": "y y y", "rhs": "y^1000000000 - 1"}]}, "relations[0].rhs"),
    ({"group": {"free_rank": 10 ** 9}, "generators": [], "relations": []},
     "group.free_rank"),
    ({"scalars": {"cyclotomic_order": 10 ** 9}}, "scalars.cyclotomic_order"),
], ids=["lhs-power", "lhs-digits", "rhs-power", "free-rank", "cyclotomic-order"])
def test_sizes_bounded_before_expansion(change, field, address_space_cap):
    doc = dict(_document(taft_presentation(3)), **change)
    tracemalloc.start()
    try:
        with pytest.raises(PresentationError) as err:
            parse_presentation_data(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value).startswith(field) and "size ceiling 1000" in str(err.value)
    assert peak < 1 << 20


def test_size_ceiling_is_inclusive():
    p = taft_presentation(3)
    assert parse_element_expr(p, "y^1000").is_zero()  # y^3 = 0
    with pytest.raises(PresentationError, match="size ceiling"):
        parse_element_expr(p, "y^1001")


# the reader's alphabet on a presentation with zeta_6, q1, Z x Z/3 and two
# skew generators: g0, g3 and x name nothing, 1/0 is no rational
_READER_DOC = {
    "scalars": {"cyclotomic_order": 6, "transcendentals": ["q1"]},
    "group": {"free_rank": 1, "torsion": [3]},
    "generators": [
        {"name": "y1", "weight": [1, 0], "character": ["q1", "zeta^2"]},
        {"name": "y2", "weight": [0, 1], "character": ["-1", 1]}],
}
_READER_P = parse_presentation_data(_READER_DOC)
_LETTER_FREE = ("zeta", "q1", "x", "2", "-1/3", "0", "1/0")
_TOKENS = st.one_of(
    st.tuples(st.sampled_from(("y1", "y2", "g0", "g1", "g2", "g3") + _LETTER_FREE),
              st.sampled_from(("", "^-1", "^0", "^2", "^" + "9" * 25))).map("".join),
    st.sampled_from(("+", "-", "*")))


def _reads(parse, *args):
    """parse(*args), or None when it raises a PresentationError."""
    try:
        return parse(*args)
    except PresentationError:
        return None


@settings(derandomize=True, max_examples=300)
@given(tokens=st.lists(_TOKENS, max_size=8))
@example(tokens=["1", "-", "-", "2"])
@example(tokens=["1", "-", "+", "2"])
@example(tokens=["-", "-", "1"])
@example(tokens=["-", "*", "-", "g1"])
@example(tokens=["y1", "-"])
@example(tokens=["1", "+"])
@example(tokens=["-"])
def test_reader_agrees_across_entry_points(tokens):
    p, text = _READER_P, " ".join(tokens)
    scalar = _reads(parse_scalar_expr, p.domain, text)
    element = _reads(parse_element_expr, p, text)
    word = _reads(parse_group_element, p, text)
    doc = dict(_READER_DOC, relations=[{"lhs": text, "rhs": ""}])
    lhs = _reads(parse_presentation_data, doc)
    identity = p.group.identity()
    # a sign that follows a sign, or that no term follows, is refused by
    # every entry point
    split = text.replace("*", " ").split()
    if any({a, b} <= {"+", "-"} for a, b in zip(split, split[1:] + ["+"])):
        assert scalar is element is word is lhs is None
    if scalar is not None:
        assert element is not None
        assert set(element.terms) <= {(identity, ())}
        assert element.terms.get((identity, ()), p.domain.zero()) == scalar
    if word is not None:
        assert element == p.group_element(word)


# characters of y1 on skew_free v=2 (conductor 1, q1 and q2): q1, 1,
# q1 + 2 q2 and 1/2; a draw puts wrong types at up to two of their nodes
_CHARACTERS = [{"root": [0, 1], "exps": [1, 0]}, {"root": [3, 1]},
               {"num": [[[1, 0], ["1"]], [[0, 1], [2]]], "den": [[[0, 0], ["1"]]]},
               {"num": [[[0, 0], ["1/2"]]]}]
_NODES = st.sampled_from([True, False, None, 1.5, "q1", "1", "1/0", "x", [], {}, [1],
                          [[1]], 10 ** 30, -1, 0, 1, 2])


@settings(derandomize=True, max_examples=300)
@given(data=st.data())
def test_scalar_dicts_load_or_raise_presentation_error(data):
    scalar = copy.deepcopy(data.draw(st.sampled_from(_CHARACTERS)))
    for _ in range(data.draw(st.integers(0, 2))):
        path = data.draw(st.sampled_from(list(_paths(scalar))[1:]))
        parent = scalar
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(data.draw(_NODES))
    doc = _document(skew_free_presentation(v=2))
    doc["generators"][0]["character"] = [scalar]
    p = _reads(parse_presentation_data, doc)
    if p is not None:
        delta(p, parse_element_expr(p, "y1 y2"))
