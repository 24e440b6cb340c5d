"""Presentation files and the expression syntax.

A presentation file is a JSON document:

    {
      "scalars": {"cyclotomic_order": 3, "transcendentals": ["q1"]},
      "group": {"free_rank": 1, "torsion": [2]},
      "generators": [
        {"name": "y1", "weight": [1, 0],
         "character": [{"root": [1, 3], "exps": [0]}, {"root": [0, 1], "exps": [0]}],
         "tau": ["0", "0"]}
      ],
      "relations": [{"lhs": "y1 y1 y1", "rhs": "1 * g1^3 - 1"}],
      "meta": {"expected": {...}}
    }

A scalar in "character" or "tau" is a JSON integer, an expression string,
{"root": [a, d], "exps": [e1, ...]} for zeta^a q1^e1 ... with d the order
of zeta^a, or {"num": ..., "den": ...}, lists of [exponents, coefficients]
pairs.  Exponents, a and d are integers and coefficients integers or
strings; a JSON boolean is no number.

One grammar reads every expression.  Tokens are whitespace-separated, and
* is a space.  A standalone + or - ends a term and gives the next one its
sign, so a scalar may start with a sign as an element may; a sign may not
follow a sign.  In a term, rationals (2, -1/3), zeta^a and a
transcendental q^e multiply into the coefficient; g<k>^e is the k-th group
generator; and a skew generator name^e is e >= 0 letters, with e at most
the size ceiling 1000 (y^0 is 1).
Each entry point reads some of these letters:

    scalar (character, tau)     no letters: a sum of coefficients
    element (rhs, --element)    group and skew generators
    --weight                    group generators, one term, coefficient 1
    relation lhs                skew generators, one term, coefficient 1

A transcendental is an identifier other than g<k>, zeta and the
transcendentals before it, and a generator name one other than g<k>, zeta
and the transcendentals, which these tokens read as something else.
"""

import json
import re
import reprlib
from fractions import Fraction

from .errors import PresentationError
from .groups import GroupData
from .presentation import _SIZE_CEILING, Presentation, SkewGenerator
from .scalars import ScalarDomain
from .serialize import element_to_str, scalar_from_jsonable, scalar_to_jsonable

_RATIONAL = re.compile(r"^[+-]?\d+(/\d*[1-9]\d*)?$")  # no zero denominator
_POWERED = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_GROUP_NAME = re.compile(r"g[0-9]+")


def _bounded(size, what):
    """size, or a PresentationError when it is an int above the ceiling."""
    if type(size) is int and size > _SIZE_CEILING:
        raise PresentationError("%s %d is above the size ceiling %d"
                                % (what, size, _SIZE_CEILING))
    return size


def _number(convert, text, what):
    """convert(text) for int or Fraction, or a PresentationError when the
    text has more digits than Python converts."""
    try:
        return convert(text)
    except ValueError:
        raise PresentationError("%s has %d digits, more than Python converts"
                                % (what, sum(ch.isdigit() for ch in text))) from None


def _terms(text, domain, group=None, names=()):
    """The terms of an expression as [coefficient, letters] pairs, split at
    standalone + and -.  A letter is ("g", element) for g<k>^e when a
    group is given, or ("y", i) for names[i]^e; every other token is a
    scalar literal of domain.  A sign may not follow a sign, nor end the
    text."""
    terms, sign, term = [], 1, None
    tokens = text.replace("*", " ").split()
    if tokens and tokens[-1] in ("+", "-"):
        raise PresentationError("no term follows the last sign in %s" % reprlib.repr(text))
    for prev, tok in zip([None] + tokens, tokens):
        if tok in ("+", "-"):
            if prev in ("+", "-"):
                raise PresentationError("a sign follows a sign in %s" % reprlib.repr(text))
            sign, term = (1 if tok == "+" else -1), None
            continue
        if term is None:
            term = [domain.rational(sign), []]
            terms.append(term)
        m = _POWERED.match(tok)
        name, power = m.groups("1") if m else ("", None)  # "" names nothing
        if _RATIONAL.match(tok):
            term[0] = term[0] * domain.rational(_number(Fraction, tok, "a rational"))
        elif group is not None and _GROUP_NAME.fullmatch(name):
            idx = _number(int, name[1:], "a group generator index") - 1
            if not 0 <= idx < group.ngens:
                raise PresentationError("unknown group generator %s" % reprlib.repr(tok))
            power = _number(int, power, "power of %s" % name)
            term[1].append(("g", group.power(group.generator(idx), power)))
        elif name in names:
            if len(power) > 20:  # above the ceiling, and too long to echo or convert
                raise PresentationError("power of %s has %d digits, above the size "
                                        "ceiling %d" % (name, len(power), _SIZE_CEILING))
            power = _bounded(int(power), "power of %s" % name)
            if power < 0:
                raise PresentationError("negative power of a skew generator %r" % tok)
            term[1].extend([("y", names.index(name))] * power)
        elif name == "zeta":
            term[0] = term[0] * domain.zeta(_number(int, power, "power of zeta"))
        elif name in domain.transcendentals:
            term[0] = term[0] * domain.q(name, _number(int, power, "power of %s" % name))
        else:
            raise PresentationError("unknown token %s in %s"
                                    % (reprlib.repr(tok), reprlib.repr(text)))
    return terms


def _word(text, *args):
    """The letters of text read by _terms(text, *args), which must be one
    term with coefficient 1."""
    terms = _terms(text, *args)
    if len(terms) != 1 or not terms[0][0].is_one():
        raise PresentationError("%s is not one word with coefficient 1" % reprlib.repr(text))
    return terms[0][1]


def parse_scalar_expr(domain, text):
    """A scalar from the expression syntax: a sum of products of
    rationals, zeta^a and transcendentals."""
    terms = _terms(text, domain)
    if not terms:
        raise PresentationError("empty scalar expression %s" % reprlib.repr(text))
    return sum((c for c, _ in terms[1:]), terms[0][0])


def parse_element_expr(p, text):
    """An algebra element from the expression syntax, already normalized."""
    return p.normalize(_terms(text, p.domain, p.group, tuple(g.name for g in p.gens)))


def parse_group_element(p, text):
    """A group element of p from a word like 'g1^2 g2^-1' (or '1')."""
    elt = p.group.identity()
    for _, h in _word(text, p.domain, p.group):
        elt = p.group.mul(elt, h)
    return elt


def _parse_scalar_entry(domain, data, where):
    try:
        if isinstance(data, dict):
            return scalar_from_jsonable(domain, data)
        if isinstance(data, str):
            return parse_scalar_expr(domain, data)
        if type(data) is int:  # a bool is no number
            return domain.rational(data)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise PresentationError("%s: bad scalar %s (%s)" % (where, reprlib.repr(data), exc))
    raise PresentationError("%s: bad scalar %s" % (where, reprlib.repr(data)))


_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def _typed(value, kind, where):
    """value, or a PresentationError when it is not of the JSON type kind."""
    if not isinstance(value, kind):
        raise PresentationError("%s must be a JSON %s" % (where, _JSON_TYPES[kind]))
    return value


def _identifier(name, where, taken, what):
    """name, or a PresentationError unless it is an identifier other than
    g<k>, zeta and the names taken, which the expression syntax reads
    first; what describes taken."""
    if (not _NAME.fullmatch(name) or _GROUP_NAME.fullmatch(name)
            or name == "zeta" or name in taken):
        raise PresentationError("%s %s must be an identifier other than g<k>, zeta and %s"
                                % (where, reprlib.repr(name), what))
    return name


def parse_presentation_data(data, name=None):
    """Build a Presentation from a decoded JSON document."""
    _typed(data, dict, "presentation file")
    scal = _typed(data.get("scalars", {}), dict, "scalars")
    grp = _typed(data.get("group", {}), dict, "group")
    order = _bounded(scal.get("cyclotomic_order", 1), "scalars.cyclotomic_order")
    free_rank = _bounded(grp.get("free_rank", 0), "group.free_rank")
    qnames = _typed(scal.get("transcendentals", []), list, "scalars.transcendentals")
    for k, qname in enumerate(qnames):
        where = "scalars.transcendentals[%d]" % k
        _identifier(_typed(qname, str, where), where, qnames[:k],
                    "the transcendentals before it")
    try:
        domain = ScalarDomain(order, tuple(qnames))
        group = GroupData(free_rank, tuple(grp.get("torsion", ())))
    except (ValueError, TypeError, OverflowError) as exc:
        raise PresentationError("bad scalars or group: %s" % exc)
    gens = []
    for k, gdata in enumerate(_typed(data.get("generators", []), list,
                                     "generators")):
        where = "generators[%d]" % k
        if "name" not in _typed(gdata, dict, where) or "weight" not in gdata:
            raise PresentationError("%s: needs name and weight" % where)
        character = [_parse_scalar_entry(domain, c, where) for c in _typed(
            gdata.get("character", []), list, where + ".character")]
        tau = None
        if "tau" in gdata:
            tau = [_parse_scalar_entry(domain, c, where)
                   for c in _typed(gdata["tau"], list, where + ".tau")]
        gname = _identifier(_typed(gdata["name"], str, where + ".name"), where + ".name",
                            domain.transcendentals, "the transcendentals")
        weight = _typed(gdata["weight"], list, where + ".weight")
        if len(weight) != group.ngens or any(type(x) is not int for x in weight):
            raise PresentationError("%s.weight needs %d integer exponents"
                                    % (where, group.ngens))
        gens.append(SkewGenerator(gname, tuple(weight), tuple(character), tau))
    pre = Presentation(domain, group, gens, (), name=name)
    names = tuple(g.name for g in gens)
    rules = []
    for k, rdata in enumerate(_typed(data.get("relations", []), list,
                                     "relations")):
        where = "relations[%d]" % k
        lhs_txt = _typed(rdata, dict, where).get("lhs")
        rhs_txt = _typed(rdata.get("rhs", ""), str, where + ".rhs")
        if not lhs_txt:
            raise PresentationError("%s: missing lhs" % where)
        _typed(lhs_txt, str, where + ".lhs")
        try:
            lhs = tuple(i for _, i in _word(lhs_txt, domain, None, names))
        except PresentationError as exc:
            raise PresentationError("%s.lhs: %s" % (where, exc))
        try:
            rhs = parse_element_expr(pre, rhs_txt).terms
        except PresentationError as exc:
            raise PresentationError("%s.rhs: %s" % (where, exc))
        rules.append((lhs, rhs))
    return Presentation(domain, group, gens, rules, name=name)


def load_presentation(path):
    """Parse a presentation file; returns (presentation, meta dict)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PresentationError(
                "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg))
        except ValueError:  # a number past Python's limit on digit strings
            raise PresentationError(
                "%s: a number has more digits than Python converts" % path) from None
    _typed(data, dict, "%s: presentation file" % path)
    meta = _typed(data.get("meta", {}), dict, "meta")
    p = parse_presentation_data(data, name=meta.get("name") or path)
    return p, meta


def presentation_to_jsonable(p, meta=None):
    out = {
        "scalars": {"cyclotomic_order": p.domain.conductor,
                    "transcendentals": list(p.domain.transcendentals)},
        "group": {"free_rank": p.group.free_rank,
                  "torsion": list(p.group.torsion)},
        "generators": [
            {"name": g.name, "weight": list(g.weight),
             "character": [scalar_to_jsonable(c) for c in g.character],
             "tau": [scalar_to_jsonable(t) for t in g.tau]}
            for g in p.gens],
        "relations": [],
    }
    for rule in p.rules:
        lhs = " ".join(p.gens[i].name for i in rule.lhs)
        rhs = element_to_str(p, rule.rhs)
        out["relations"].append({"lhs": lhs, "rhs": rhs if rhs != "0" else ""})
    if meta:
        out["meta"] = meta
    return out
