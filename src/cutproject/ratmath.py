"""Rational linear algebra and integer lattice helpers.

``rref`` is the one Gauss-Jordan elimination of the package: it reduces
int, ``Fraction`` and ``Scalar`` rows alike, exactly on exact entries (a
float ``Scalar`` row reduces in floats); the rest works over Fractions or
ints, exactly.  One integer column reduction, ``column_reduce`` (H = A U
with U unimodular), answers every Z-basis question: U's columns past the
rank span the integer kernel of A, and the transposed inverse of U for one
primitive row completes that row to a unimodular matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def rref(rows: list[list], ncols: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivots are sought in the first ``ncols`` columns (all by default); the
    columns after them are carried along.  Entries are ints, Fractions or
    ``Scalar``s; a pivot, an entry ``!= 0``, is inverted as ``Fraction(1) / pivot``.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0]) if ncols is None else ncols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """One particular solution of A x = b, or None if inconsistent."""
    return solve_many(a, [b])[0]


def solve_many(a: list[list[Fraction]], bs: list[list[Fraction]]) -> list[list[Fraction] | None]:
    """``solve(a, b)`` for each b in ``bs``.

    One row reduction carries every b as an extra column.  Pivots lie in A's
    columns only, and the solution with zero free unknowns is unique, so each
    solution equals that of a single-column call.
    """
    if not a:
        return [[] if all(v == 0 for v in b) else None for b in bs]
    n = len(a[0])
    aug = [list(row) + [b[i] for b in bs] for i, row in enumerate(a)]
    red, pivots = rref(aug, n)
    out: list[list[Fraction] | None] = []
    for k in range(n, n + len(bs)):
        # the rows below the pivots are zero in A's columns
        if any(row[k] != 0 for row in red[len(pivots):]):
            out.append(None)
            continue
        x = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            x[c] = red[r][k]
        out.append(x)
    return out


def kernel(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of A."""
    if not a:
        return []
    n = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def clear_denominators(v: list[Fraction]) -> list[int]:
    """Scale a rational vector to a primitive integer vector."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, computed exactly."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are small)."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def lll_reduce(basis: list[list[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """LLL reduction with exact rational Gram-Schmidt.

    Rows of ``basis`` are the lattice vectors; small dimensions only.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n <= 1:
        return b

    def gram_schmidt():
        star: list[list[Fraction]] = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms: list[Fraction] = []
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = Fraction(sum(Fraction(x) * y for x, y in zip(b[i], star[j]))) / norms[j]
                v = [a - mu[i][j] * c for a, c in zip(v, star[j])]
            star.append(v)
            norms.append(sum(x * x for x in v))
        return star, mu, norms

    star, mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                star, mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b


def column_reduce(a: list[list[int]]) -> tuple[list, list, list, int]:
    """Integer column echelon form: (H, U, W, rank) with H = A U, U unimodular
    and W = (U^-1)^T, the dual basis of U's columns.

    Row by row, 2x2 Bezout column steps (``_xgcd``) fold each later column's
    entry into the pivot column, which ends as the positive gcd; W takes the
    inverse-transposed steps.  The columns of H past the rank are zero, so
    those of U are a Z-basis of the integer kernel of A (Cohen 1993, 2.4).
    """
    h = [list(map(int, row)) for row in a]
    n = len(h[0]) if h else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    w = [row[:] for row in u]
    r = 0
    for row in h:
        for j in range(r + 1, n):
            if row[j] == 0:
                continue
            g, x, y = _xgcd(row[r], row[j])
            p, q = row[j] // g, row[r] // g
            # columns (r, j) <- (x r + y j, q j - p r), a step of determinant 1
            for v in h + u:
                v[r], v[j] = x * v[r] + y * v[j], q * v[j] - p * v[r]
            for v in w:
                v[r], v[j] = q * v[r] + p * v[j], x * v[j] - y * v[r]
        if r < n and row[r] < 0:
            for v in h + u + w:
                v[r] = -v[r]
        if r < n and row[r]:
            r += 1
    return h, u, w, r


def complete_unimodular(v: list[int]) -> list[list[int]]:
    """Complete a primitive integer vector to a unimodular matrix.

    Returns the square matrix W of ``column_reduce([v])``: v U = (1, 0, ...,
    0) makes v its first column, and its determinant is +-1.
    """
    if gcd(*v) != 1:
        raise ValueError("vector is not primitive")
    return column_reduce([v])[2]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0
