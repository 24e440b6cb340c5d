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

# the largest y-power, free rank or cyclotomic order a file may ask for;
# each is checked before anything of that size is built
_SIZE_CEILING = 1000


def _bounded(size, what):
    """size, or a PresentationError when it is an int above the ceiling."""
    if type(size) is int and size > _SIZE_CEILING:
        raise PresentationError("%s %d is above the size ceiling %d"
                                % (what, size, _SIZE_CEILING))
    return size


def _power(m, what):
    """The ^power of a _POWERED match, checked against the ceiling."""
    digits = m.group(2) or "1"
    if len(digits) > 20:  # above the ceiling, and too long to echo or convert
        raise PresentationError("%s has %d digits, above the size ceiling %d"
                                % (what, len(digits), _SIZE_CEILING))
    return _bounded(int(digits), what)


def _number(convert, text, what):
    """convert(text) for int or Fraction, or a PresentationError when the
    text has more digits than Python converts."""
    try:
        return convert(text)
    except ValueError:
        raise PresentationError("%s has %d digits, more than Python converts"
                                % (what, sum(ch.isdigit() for ch in text))) from None


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
        try:
            return domain.rational(_number(Fraction, tok, "a rational"))
        except ZeroDivisionError:
            return None
    m = _POWERED.match(tok)
    if not m:
        return None
    name = m.group(1)
    power = _number(int, m.group(2) or "1", "power of %s" % name)
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
        if name and len(name) > 1 and name.startswith("g") and name[1:].isdigit():
            idx = _number(int, name[1:], "a group generator index") - 1
            if not 0 <= idx < p.group.ngens:
                raise PresentationError("unknown group generator %r" % tok)
            power = _number(int, m.group(2) or "1", "power of %s" % name)
            letters.append(("g", p.group.power(p.group.generator(idx), power)))
            continue
        if name and any(g.name == name for g in p.gens):
            power = _power(m, "power of %s" % name)
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
        idx = _number(int, m.group(1)[1:], "a group generator index") - 1
        if not 0 <= idx < group.ngens:
            raise PresentationError("unknown group generator %r" % tok)
        power = _number(int, m.group(2) or "1", "power of %s" % m.group(1))
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
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise PresentationError("%s: bad scalar %r (%s)" % (where, data, exc))
    raise PresentationError("%s: bad scalar %r" % (where, data))


_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def _typed(value, kind, where):
    """value, or a PresentationError when it is not of the JSON type kind."""
    if not isinstance(value, kind):
        raise PresentationError("%s must be a JSON %s" % (where, _JSON_TYPES[kind]))
    return value


def parse_presentation_data(data, name=None):
    """Build a Presentation from a decoded JSON document."""
    _typed(data, dict, "presentation file")
    scal = _typed(data.get("scalars", {}), dict, "scalars")
    grp = _typed(data.get("group", {}), dict, "group")
    order = _bounded(scal.get("cyclotomic_order", 1), "scalars.cyclotomic_order")
    free_rank = _bounded(grp.get("free_rank", 0), "group.free_rank")
    try:
        domain = ScalarDomain(order, tuple(scal.get("transcendentals", ())))
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
        gname = _typed(gdata["name"], str, where + ".name")
        weight = _typed(gdata["weight"], list, where + ".weight")
        if len(weight) != group.ngens or any(type(x) is not int for x in weight):
            raise PresentationError("%s.weight needs %d integer exponents"
                                    % (where, group.ngens))
        gens.append(SkewGenerator(gname, tuple(weight), tuple(character), tau))
    pre = Presentation(domain, group, gens, (), name=name)
    rules = []
    for k, rdata in enumerate(_typed(data.get("relations", []), list,
                                     "relations")):
        where = "relations[%d]" % k
        lhs_txt = _typed(rdata, dict, where).get("lhs")
        rhs_txt = _typed(rdata.get("rhs", ""), str, where + ".rhs")
        if not lhs_txt:
            raise PresentationError("%s: missing lhs" % where)
        _typed(lhs_txt, str, where + ".lhs")
        lhs = []
        for tok in _tokens(lhs_txt):
            m = _POWERED.match(tok)
            if not m or not any(g.name == m.group(1) for g in pre.gens):
                raise PresentationError("%s: lhs token %r is not a skew generator"
                                        % (where, tok))
            power = _power(m, "%s.lhs: power of %s" % (where, m.group(1)))
            lhs.extend([pre.gen_index(m.group(1))] * power)
        if rhs_txt in ("", "0"):
            rhs = {}
        else:
            try:
                elt = parse_element_expr(pre, rhs_txt)
            except PresentationError as exc:
                raise PresentationError("%s.rhs: %s" % (where, exc))
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
