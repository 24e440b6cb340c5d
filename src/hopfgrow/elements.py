"""Elements of a presented algebra and of its tensor square.

A normal word is a pair (group element, tuple of y-indices); an
AlgebraElement is a finite linear combination of normal words with
nonzero Scalar coefficients; a TensorElement is the same combination
over pairs of normal words.  The deg-lex order on y-words compares total
degree, then the multidegree vector, then the letter sequence; group
letters weigh nothing.
"""


def y_counts(yword, nygens):
    counts = [0] * nygens
    for i in yword:
        counts[i] += 1
    return tuple(counts)


def yword_key(yword, nygens):
    """Sort key realizing the deg-lex order on y-words."""
    return (len(yword), y_counts(yword, nygens), yword)


def word_key(word, nygens):
    g, yw = word
    return (len(yw), y_counts(yw, nygens), yw, g)


def add_term(terms, word, coeff):
    """terms[word] += coeff in place, keeping only nonzero entries: the
    accumulate step of every sparse sum, scalar and linear alike."""
    if coeff.is_zero():
        return
    cur = terms.get(word)
    if cur is None:
        terms[word] = coeff
    else:
        s = cur + coeff
        if s.is_zero():
            del terms[word]
        else:
            terms[word] = s


class AlgebraElement:
    """Finite map from normal words to nonzero scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        return type(self)(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, -c)
        return type(self)(out)

    def __neg__(self):
        return type(self)({w: -c for w, c in self.terms.items()})

    def scale(self, scalar):
        if scalar.is_zero():
            return type(self)({})
        out = {}
        for w, c in self.terms.items():
            p = scalar * c
            if not p.is_zero():
                out[w] = p
        return type(self)(out)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def group_support_only(self):
        """True when every word has an empty y-part (element of the coradical)."""
        return all(not w[1] for w in self.terms)

    def sorted_words(self, nygens):
        return sorted(self.terms.keys(), key=lambda w: word_key(w, nygens))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms.keys()):
            bits.append("(%r)*%r" % (self.terms[w], w))
        return " + ".join(bits)


class TensorElement(AlgebraElement):
    """Finite map from pairs of normal words to nonzero scalars."""

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (l, r) in sorted(self.terms.keys()):
            bits.append("(%r)*%r(x)%r" % (self.terms[(l, r)], l, r))
        return " + ".join(bits)
