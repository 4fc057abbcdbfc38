"""Small dense linear algebra over Scalar entries.

Exact Gaussian elimination is used where the entries are algebraic (division
is available); rigorous Fraction-interval elimination provides enclosures for
integer-coordinate bounding boxes regardless of the entry type.  Both take
several right-hand sides per elimination.

A system with exact entries and rational unknowns is decided by expanding it
into one rational equation per monomial (the order-basis form of Cohen 1993,
section 4.2) and row-reducing that with ``ratmath``; it too takes several
right-hand sides per row reduction.
"""

from __future__ import annotations

from fractions import Fraction

from . import ratmath
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


def solve_exact(
    mat: list[list[Scalar]], rhs: list[list[Scalar]]
) -> list[list[Scalar]]:
    """Solve a nonsingular square system for each right-hand side in ``rhs``.

    One Gauss-Jordan elimination carries every right-hand side along as an
    extra column, so each solution equals that of a single-column call.
    """
    n = len(mat)
    a = [row[:] + [b[i] for b in rhs] for i, row in enumerate(mat)]
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
    return [[a[i][n + k] for i in range(n)] for k in range(len(rhs))]


def rational_system(rows, rhs=()) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Rational systems equivalent to the exact Scalar systems ``rows . x = b``.

    There is one system per right-hand side b in ``rhs``, all with one
    matrix: each scalar equation splits into one rational equation per
    monomial appearing anywhere in ``rows`` or ``rhs``; unknowns are
    rational.  Where no monomial appears, each scalar equation is one zero
    equation, so the system keeps its unknowns: its kernel is the whole
    space.
    """
    row_terms = [[v.terms() for v in row] for row in rows]
    rhs_terms = [[v.terms() for v in b] for b in rhs]
    monos = sorted(
        set().union(*(t for b in rhs_terms for t in b), *(t for row in row_terms for t in row))
    ) or [None]
    mat = [[t.get(mono, Fraction(0)) for t in row] for row in row_terms for mono in monos]
    vecs = [[t.get(mono, Fraction(0)) for t in b for mono in monos] for b in rhs_terms]
    return mat, vecs


def integer_kernel(rows) -> list[list[int]]:
    """Primitive integer vectors spanning the rational kernel of ``rows``."""
    mat, _ = rational_system(rows)
    return [ratmath.clear_denominators(v) for v in ratmath.kernel(mat)]


def rational_solve(rows, rhs) -> list[list[Fraction] | None]:
    """One rational solution of ``rows . x = b`` for each b in ``rhs``, None
    where there is none.  One row reduction serves every right-hand side."""
    return ratmath.solve_many(*rational_system(rows, rhs))


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
    mat: list[list[Scalar]], rhs: list[list[Interval]], digits: int
) -> list[list[Interval]]:
    """Enclosures of all solutions of ``mat x = y``, for y in each rhs box.

    One elimination serves every right-hand side in ``rhs``.  Retries at
    doubled precision if an interval pivot straddles zero; the matrix must be
    nonsingular.
    """
    n = len(mat)
    for attempt in range(5):
        d = digits * (2 ** attempt)
        a = [[x.bounds(d) for x in row] + [b[i] for b in rhs] for i, row in enumerate(mat)]
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
            outs = []
            for k in range(n, n + len(rhs)):
                out: list[Interval] = [None] * n  # type: ignore[list-item]
                for row in range(n - 1, -1, -1):
                    acc = a[row][k]
                    for col in range(row + 1, n):
                        acc = _iv_sub(acc, _iv_mul(a[row][col], out[col]))
                    out[row] = _iv_div(acc, a[row][row])
                outs.append(out)
            return outs
        except ZeroDivisionError:
            continue
    raise ZeroDivisionError("interval elimination failed; matrix near-singular")
