"""JSON-friendly encodings of scalars, group elements, and algebra elements.

Unit monomials whose root is an exact power of zeta_N serialize as
{"root": [a, d], "exps": [...]}, meaning zeta_N^a * prod q_i^{e_i} with d
the order of the root recorded as a sanity check.  Everything else falls
back to an explicit fraction of coefficient lists.
"""

from fractions import Fraction
from math import gcd


def scalar_to_jsonable(s):
    um = s.as_unit_monomial()
    field = s.domain.field
    # rho^k is a power of zeta exactly when k is a multiple of the index
    # of <zeta> among the roots of unity (1 for even N, 2 for odd N)
    if um is not None and um.k % (field.unity_order // field.conductor) == 0:
        return {"root": [um.k % field.conductor, field.root_order(um.k)],
                "exps": list(um.exps)}
    def lp(side):
        return [[list(e), [str(c) for c in coeff.coeffs]]
                for e, coeff in sorted(side.items())]
    return {"num": lp(s.num), "den": lp(s.den)}


def _list_of(values, kinds, what):
    """values, or a ValueError unless it is a list of kinds (a bool is no int)."""
    if type(values) is not list or any(type(v) not in kinds for v in values):
        raise ValueError("%s must be a list of %s"
                         % (what, " or ".join(k.__name__ for k in kinds)))
    return values


def scalar_from_jsonable(domain, data):
    if "root" in data:
        a, claimed = _list_of(data["root"], (int,), "root")
        order = domain.conductor // gcd(a, domain.conductor)
        if order != claimed:
            raise ValueError(
                "scalar sanity check failed: zeta^%d has order %s, file says %s"
                % (a, order, claimed))
        exps = _list_of(data.get("exps", [0] * domain.nvars), (int,), "exps")
        return domain.monomial(domain.field.zeta(a), exps)
    def lp(side):
        out = domain.zero()
        for e, coeffs in side:
            coeffs = _list_of(coeffs, (int, str), "coefficients")
            c = domain.field.from_coeffs([Fraction(x) for x in coeffs])
            out = out + domain.monomial(c, _list_of(e, (int,), "exponents"))
        return out
    num = lp(data["num"])
    den = lp(data.get("den", [[[0] * domain.nvars, ["1"]]]))
    return num / den


def scalar_to_expr(s):
    """Expression syntax for a scalar when one exists, else the plain repr.

    Single monomials with a coefficient of the form rational * zeta^a
    become literal products like '2/3 * zeta^2 * q1^-1'; anything else
    falls back to repr and will not re-parse.
    """
    if s.is_zero():
        return "0"
    if len(s.num) == 1 and len(s.den) == 1:
        (exps, coeff), = s.num.items()
        hit = s.domain.field.zeta_multiple(coeff)
        if hit is not None:
            a, r = hit
            parts = []
            if r != 1 or (a == 0 and not any(exps)):
                parts.append(str(r))
            if a:
                parts.append("zeta^%d" % a)
            for i, e in enumerate(exps):
                if e:
                    name = s.domain.transcendentals[i]
                    parts.append(name if e == 1 else "%s^%d" % (name, e))
            return " * ".join(parts) if parts else "1"
    return repr(s)


def _bracket(cs):
    """A printed coefficient, parenthesised when it has several terms."""
    return "(%s)" % cs if "+" in cs or " - " in cs else cs


def word_to_str(p, word):
    h, yw = word
    bits = []
    if not p.group.is_identity(h):
        bits.append(p.group.format_element(h))
    bits.extend(p.gens[i].name for i in yw)
    return " ".join(bits) if bits else "1"


def element_to_str(p, elt):
    if elt.is_zero():
        return "0"
    bits = []
    for word in elt.sorted_words(p.ny):
        c = elt.terms[word]
        cs = scalar_to_expr(c)
        ws = word_to_str(p, word)
        if cs == "1":
            bits.append(ws)
        elif ws == "1":
            bits.append(cs)
        else:
            bits.append("%s * %s" % (_bracket(cs), ws))
    return " + ".join(bits)


def tensor_to_str(p, t):
    if t.is_zero():
        return "0"
    bits = []
    for (l, r) in sorted(t.terms.keys()):
        c = t.terms[(l, r)]
        cs = repr(c)
        pair = "%s (x) %s" % (word_to_str(p, l), word_to_str(p, r))
        bits.append(pair if cs == "1" else "%s * [%s]" % (_bracket(cs), pair))
    return " + ".join(bits)
