"""Small exact integer matrix utilities: rank, HNF-style reduction, kernels."""


def row_reduce_with_transform(rows):
    """Integer row echelon form by unimodular operations.

    Returns (H, U) with U * rows == H, U unimodular, and H in row echelon
    form (gcd pivots, zero rows at the bottom).
    """
    h = [list(map(int, r)) for r in rows]
    n = len(h)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ncols = len(h[0]) if h else 0
    top = 0
    for col in range(ncols):
        # Euclidean elimination within this column below `top`
        while True:
            nonzero = [r for r in range(top, n) if h[r][col]]
            if not nonzero:
                break
            pivot = min(nonzero, key=lambda r: abs(h[r][col]))
            h[top], h[pivot] = h[pivot], h[top]
            u[top], u[pivot] = u[pivot], u[top]
            done = True
            for r in range(top + 1, n):
                if h[r][col]:
                    q = h[r][col] // h[top][col]
                    h[r] = [a - q * b for a, b in zip(h[r], h[top])]
                    u[r] = [a - q * b for a, b in zip(u[r], u[top])]
                    if h[r][col]:
                        done = False
            if done:
                break
        if top < n and h[top][col]:
            top += 1
        if top == n:
            break
    return h, u


def integer_rank(rows):
    """Rank of a matrix given as a list of integer row vectors: the nonzero
    rows of its echelon form."""
    h, _ = row_reduce_with_transform(rows)
    return sum(1 for row in h if any(row))


def integer_kernel(rows):
    """Basis of the lattice {x in Z^n : x * rows == 0} (x as row combinations)."""
    h, u = row_reduce_with_transform(rows)
    return [u[i] for i in range(len(h)) if not any(h[i])]
