"""Small dense linear algebra over Scalar entries.

``det`` expands cofactors, so it needs only ring operations: it also serves
entries that ``Scalar`` cannot divide by, such as values with pi.  The
enumeration encloses every inverse entry as a cofactor over the determinant,
both from ``det``.  ``solve_exact`` reduces a square system with invertible
pivots (algebraic or float entries) through ``ratmath.rref``, the one
Gauss-Jordan elimination, with several right-hand sides per elimination.

A system with exact entries and rational unknowns is decided by expanding it
into one rational equation per monomial (the order-basis form of Cohen 1993,
section 4.2) and row-reducing that with ``ratmath``; it too takes several
right-hand sides per row reduction.  Its integer kernel, a Z-basis of all
integer solutions, comes from the one integer column reduction of ``ratmath``.
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


def solve_exact(mat: list[list[Scalar]], rhs: list[list[Scalar]]) -> list[list[Scalar]]:
    """Solve a nonsingular square system for each right-hand side in ``rhs``.

    ``ratmath.rref`` carries every right-hand side along as an extra column,
    so each solution equals that of a single-column call.  A pivot with no
    exact inverse raises ``ExactnessError``; a singular matrix otherwise
    raises ``ZeroDivisionError``.
    """
    n = len(mat)
    red, pivots = ratmath.rref([row + [b[i] for b in rhs] for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return [[red[i][n + k] for i in range(n)] for k in range(len(rhs))]


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
    """A Z-basis of the integer kernel of ``rows``: the columns of
    ``ratmath.column_reduce``'s U past the rank, last nonzero entry positive."""
    mat, _ = rational_system(rows)
    _, u, _, rank = ratmath.column_reduce([ratmath.clear_denominators(row) for row in mat])
    basis = [list(col) for col in zip(*u)][rank:]
    return [v if next(x for x in reversed(v) if x) > 0 else [-x for x in v] for v in basis]


def rational_solve(rows, rhs) -> list[list[Fraction] | None]:
    """One rational solution of ``rows . x = b`` for each b in ``rhs``, None
    where there is none.  One row reduction serves every right-hand side."""
    return ratmath.solve_many(*rational_system(rows, rhs))
