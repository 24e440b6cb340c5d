"""Presentation files and the element/scalar expression syntax.

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

Element expressions are whitespace-separated tokens: group generators as
g1, g1^-1, skew generators by name (y1^2 allowed), scalar literals zeta^a,
q1^e and rationals, optional * separators, with standalone + and - between
terms.
"""

import json
import re
from fractions import Fraction

from .errors import PresentationError
from .groups import GroupData
from .presentation import Presentation, SkewGenerator
from .scalars import ScalarDomain
from .serialize import element_to_str, scalar_from_jsonable, scalar_to_jsonable

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_POWERED = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def _tokens(text):
    out = []
    for raw in text.replace("*", " ").split():
        out.append(raw)
    return out


def parse_scalar_expr(domain, text):
    """A scalar from literal syntax: rationals, zeta^a, q-names, products."""
    total = None
    sign = 1
    current = None
    for tok in _tokens(text):
        if tok == "+" or tok == "-":
            if current is None:
                raise PresentationError("misplaced %r in scalar %r" % (tok, text))
            total = current if total is None else total + current
            current = None
            sign = 1 if tok == "+" else -1
            continue
        factor = _scalar_factor(domain, tok)
        if factor is None:
            raise PresentationError("bad scalar token %r in %r" % (tok, text))
        if current is None:
            current = domain.rational(sign)
        current = current * factor
    if current is not None:
        total = current if total is None else total + current
    if total is None:
        raise PresentationError("empty scalar expression %r" % (text,))
    return total


def _scalar_factor(domain, tok):
    if _RATIONAL.match(tok):
        return domain.rational(Fraction(tok))
    m = _POWERED.match(tok)
    if not m:
        return None
    name, power = m.group(1), int(m.group(2) or 1)
    if name == "zeta":
        return domain.zeta(power)
    if name in domain.transcendentals:
        return domain.q(name, power) if power != 1 else domain.q(name)
    return None


def parse_element_expr(p, text):
    """An algebra element from the word syntax, already normalized."""
    terms = []
    sign = 1
    coeff = None
    letters = []

    def flush():
        nonlocal coeff, letters, sign
        if coeff is None and not letters:
            return
        c = coeff if coeff is not None else p.domain.rational(sign)
        terms.append((c, tuple(letters)))
        coeff = None
        letters = []
        sign = 1

    for tok in _tokens(text):
        if tok in ("+", "-"):
            flush()
            sign = 1 if tok == "+" else -1
            continue
        m = _POWERED.match(tok)
        name = m.group(1) if m else None
        power = int(m.group(2) or 1) if m else 1
        if name and len(name) > 1 and name.startswith("g") and name[1:].isdigit():
            idx = int(name[1:]) - 1
            if not 0 <= idx < p.group.ngens:
                raise PresentationError("unknown group generator %r" % tok)
            letters.append(("g", p.group.power(p.group.generator(idx), power)))
            continue
        if name and any(g.name == name for g in p.gens):
            if power < 0:
                raise PresentationError("negative power of a skew generator %r" % tok)
            yi = p.gen_index(name)
            letters.extend([("y", yi)] * power)
            continue
        factor = _scalar_factor(p.domain, tok)
        if factor is None:
            raise PresentationError("unknown token %r in element %r" % (tok, text))
        if coeff is None:
            coeff = p.domain.rational(sign)
        coeff = coeff * factor
    flush()
    return p.normalize(terms)


def parse_group_element(group, text):
    """A group element from a word like 'g1^2 g2^-1' (or '1')."""
    elt = group.identity()
    for tok in _tokens(text):
        if tok == "1":
            continue
        m = _POWERED.match(tok)
        if not m or not m.group(1).startswith("g") or not m.group(1)[1:].isdigit():
            raise PresentationError("bad group token %r" % tok)
        idx = int(m.group(1)[1:]) - 1
        if not 0 <= idx < group.ngens:
            raise PresentationError("unknown group generator %r" % tok)
        power = int(m.group(2) or 1)
        elt = group.mul(elt, group.power(group.generator(idx), power))
    return elt


def _parse_scalar_entry(domain, data, where):
    try:
        if isinstance(data, dict):
            return scalar_from_jsonable(domain, data)
        if isinstance(data, (int, str)):
            if isinstance(data, str) and not _RATIONAL.match(data):
                return parse_scalar_expr(domain, data)
            return domain.rational(Fraction(data))
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise PresentationError("%s: bad scalar %r (%s)" % (where, data, exc))
    raise PresentationError("%s: bad scalar %r" % (where, data))


def parse_presentation_data(data, name=None):
    """Build a Presentation from a decoded JSON document."""
    if not isinstance(data, dict):
        raise PresentationError("presentation file must be a JSON object")
    scal = data.get("scalars", {})
    grp = data.get("group", {})
    try:
        domain = ScalarDomain(scal.get("cyclotomic_order", 1),
                              tuple(scal.get("transcendentals", ())))
        group = GroupData(grp.get("free_rank", 0), tuple(grp.get("torsion", ())))
    except ValueError as exc:
        raise PresentationError("bad scalars or group: %s" % exc)
    gens = []
    for k, gdata in enumerate(data.get("generators", ())):
        where = "generators[%d]" % k
        if "name" not in gdata or "weight" not in gdata:
            raise PresentationError("%s: needs name and weight" % where)
        character = [_parse_scalar_entry(domain, c, where)
                     for c in gdata.get("character", ())]
        tau = None
        if "tau" in gdata:
            tau = [_parse_scalar_entry(domain, c, where) for c in gdata["tau"]]
        gens.append(SkewGenerator(gdata["name"], tuple(gdata["weight"]),
                                  tuple(character), tau))
    pre = Presentation(domain, group, gens, (), name=name)
    rules = []
    for k, rdata in enumerate(data.get("relations", ())):
        where = "relations[%d]" % k
        lhs_txt = rdata.get("lhs")
        rhs_txt = rdata.get("rhs", "")
        if not lhs_txt:
            raise PresentationError("%s: missing lhs" % where)
        lhs = []
        for tok in _tokens(lhs_txt):
            m = _POWERED.match(tok)
            if not m or not any(g.name == m.group(1) for g in pre.gens):
                raise PresentationError("%s: lhs token %r is not a skew generator"
                                        % (where, tok))
            lhs.extend([pre.gen_index(m.group(1))] * int(m.group(2) or 1))
        if rhs_txt in ("", "0"):
            rhs = {}
        else:
            elt = parse_element_expr(pre, rhs_txt)
            rhs = {w: c for w, c in elt.terms.items()}
        rules.append((tuple(lhs), rhs))
    return Presentation(domain, group, gens, rules, name=name)


def load_presentation(path):
    """Parse a presentation file; returns (presentation, meta dict)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PresentationError(
                "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(data, dict):
        raise PresentationError("%s: presentation file must be a JSON object" % path)
    name = data.get("meta", {}).get("name") or path
    p = parse_presentation_data(data, name=name)
    return p, data.get("meta", {})


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
