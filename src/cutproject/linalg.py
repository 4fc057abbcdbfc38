"""Small dense linear algebra over Scalar entries.

Exact Gaussian elimination is used where the entries are algebraic (division
is available); rigorous Fraction-interval elimination provides enclosures for
integer-coordinate bounding boxes regardless of the entry type.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar

Interval = tuple[Fraction, Fraction]


def det(mat: list[list[Scalar]]) -> Scalar:
    """Determinant by cofactor expansion; fine for the small ranks used here."""
    n = len(mat)
    if n == 0:
        return Scalar(1)
    if n == 1:
        return mat[0][0]
    total = Scalar(0)
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def solve_exact(mat: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar]:
    """Solve a nonsingular square system by Gaussian elimination."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inverse()
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _iv_sub(x: Interval, y: Interval) -> Interval:
    return (x[0] - y[1], x[1] - y[0])


def _iv_mul(x: Interval, y: Interval) -> Interval:
    vals = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return (min(vals), max(vals))


def _iv_div(x: Interval, y: Interval) -> Interval:
    if y[0] <= 0 <= y[1]:
        raise ZeroDivisionError("interval pivot contains zero")
    vals = (x[0] / y[0], x[0] / y[1], x[1] / y[0], x[1] / y[1])
    return (min(vals), max(vals))


def interval_solve(
    mat: list[list[Scalar]], rhs: list[Interval], digits: int
) -> list[Interval]:
    """Enclosure of all solutions of ``mat x = y`` for y in the rhs box.

    Retries at doubled precision if an interval pivot straddles zero; the
    matrix must be nonsingular.
    """
    n = len(mat)
    for attempt in range(5):
        d = digits * (2 ** attempt)
        a = [[m.bounds(d) for m in row] + [rhs[i]] for i, row in enumerate(mat)]
        try:
            for col in range(n):
                piv = max(
                    range(col, n),
                    key=lambda r: min(abs(a[r][col][0]), abs(a[r][col][1]))
                    if not (a[r][col][0] <= 0 <= a[r][col][1])
                    else Fraction(-1),
                )
                a[col], a[piv] = a[piv], a[col]
                for r in range(col + 1, n):
                    if a[r][col] == (0, 0):
                        continue
                    f = _iv_div(a[r][col], a[col][col])
                    a[r] = [
                        _iv_sub(x, _iv_mul(f, y)) for x, y in zip(a[r], a[col])
                    ]
                    a[r][col] = (Fraction(0), Fraction(0))
            out: list[Interval] = [None] * n  # type: ignore[list-item]
            for row in range(n - 1, -1, -1):
                acc = a[row][n]
                for col in range(row + 1, n):
                    acc = _iv_sub(acc, _iv_mul(a[row][col], out[col]))
                out[row] = _iv_div(acc, a[row][row])
            return out
        except ZeroDivisionError:
            continue
    raise ZeroDivisionError("interval elimination failed; matrix near-singular")
