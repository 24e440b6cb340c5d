"""Small exact integer matrix utilities: one echelon form, which builds no
transform, and the rank and kernel lattices read off it."""

from math import gcd


def primitive_vector(v):
    """(v / g, g) for a nonzero integer tuple v: g is its gcd, signed so
    that the first nonzero entry of v / g is positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return (v if g == 1 else tuple(x // g for x in v)), g


def row_echelon(rows):
    """The nonzero rows of the integer row echelon form, by unimodular row
    operations: gcd pivots, a basis of the lattice the rows span."""
    h = [list(map(int, r)) for r in rows]
    n = len(h)
    top = 0
    for col in range(len(h[0]) if h else 0):
        # Euclidean elimination within this column below `top`
        while True:
            nonzero = [r for r in range(top, n) if h[r][col]]
            if not nonzero:
                break
            pivot = min(nonzero, key=lambda r: abs(h[r][col]))
            h[top], h[pivot] = h[pivot], h[top]
            done = True
            for r in range(top + 1, n):
                if h[r][col]:
                    q = h[r][col] // h[top][col]
                    h[r] = [a - q * b for a, b in zip(h[r], h[top])]
                    if h[r][col]:
                        done = False
            if done:
                break
        if h[top][col]:
            top += 1
            if top == n:
                break
    return h[:top]


def integer_rank(rows):
    """Rank of a matrix given as a list of integer row vectors: the nonzero
    rows of its echelon form."""
    return len(row_echelon(rows))


def integer_kernel(rows):
    """Basis of the lattice {x in Z^n : x * rows == 0} (x as row combinations).

    The echelon form of [rows | I] is [U * rows | U] with U unimodular, so
    the rows whose left part is zero carry in their right part a basis of
    the kernel, and a saturated one: rows of a unimodular matrix.  [rows |
    I] has rank n, so no row is dropped as zero.
    """
    width = len(rows[0]) if rows else 0
    augmented = [list(row) + [int(i == j) for j in range(len(rows))]
                 for i, row in enumerate(rows)]
    return [row[width:] for row in row_echelon(augmented) if not any(row[:width])]
