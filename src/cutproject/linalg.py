"""Small dense linear algebra over Scalar entries.

``det`` expands cofactors, so it needs only ring operations: it also serves
entries that ``Scalar`` cannot divide by, such as values with pi.  The
enumeration encloses every inverse entry as a cofactor over the determinant,
both from ``det``.  Exact Gauss-Jordan elimination (``solve_exact``) is used
where the entries are algebraic (division is available); it takes several
right-hand sides per elimination.

A system with exact entries and rational unknowns is decided by expanding it
into one rational equation per monomial (the order-basis form of Cohen 1993,
section 4.2) and row-reducing that with ``ratmath``; it too takes several
right-hand sides per row reduction.
"""

from __future__ import annotations

from fractions import Fraction

from . import ratmath
from .scalars import Scalar


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
