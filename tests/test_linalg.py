"""The exact linear-system layer: several right-hand sides per elimination.

A call with many right-hand sides must give, for each, exactly the solution
of a call with that right-hand side alone, and the callers that need a whole
inverse make one elimination for it.
"""

import random
from fractions import Fraction

import pytest
from test_scheme import float_scheme

from cutproject import analysis, linalg
from cutproject.fibonacci import fibonacci_scheme
from cutproject.scalars import GOLDEN, ExactnessError, Scalar, parse_scalar
from cutproject.scheme import _inverse_rows
from cutproject.transforms import extend_injective, translate_cps


def lifted_matrix(name):
    fib = fibonacci_scheme()
    if name == "fibonacci":
        return fib.matrix
    if name == "golden/3":
        return translate_cps(fib, (GOLDEN / 3,), 100).scheme.matrix
    if name == "sqrt(2)+root(2,3)":
        base = translate_cps(fib, (Scalar.sqrt(2),), 100).scheme
        return extend_injective(base, (parse_scalar("root(2,3)"),)).scheme.matrix
    return float_scheme().matrix


MATRICES = ("fibonacci", "golden/3", "sqrt(2)+root(2,3)", "float")


def right_hand_sides(size, rng):
    units = [[Scalar(int(i == k)) for i in range(size)] for k in range(size)]
    mixed = [
        [Scalar(rng.randint(-9, 9)) + GOLDEN * rng.randint(-9, 9) for _ in range(size)]
        for _ in range(3)
    ]
    return units + mixed


@pytest.mark.parametrize("name", MATRICES)
def test_solve_exact_many_right_hand_sides(name):
    mat = lifted_matrix(name)
    rhs = right_hand_sides(len(mat), random.Random(20))
    together = linalg.solve_exact(mat, rhs)
    alone = [linalg.solve_exact(mat, [b])[0] for b in rhs]
    assert len(together) == len(rhs)
    assert [[v.to_obj() for v in sol] for sol in together] == [
        [v.to_obj() for v in sol] for sol in alone
    ]


@pytest.mark.parametrize("name", MATRICES)
def test_interval_solve_many_right_hand_sides(name):
    mat = lifted_matrix(name)
    rng = random.Random(21)
    rhs = [
        [(Fraction(v.to_float()), Fraction(v.to_float())) for v in b]
        for b in right_hand_sides(len(mat), rng)
    ]
    for b in rhs[len(mat):]:
        b[0] = (b[0][0], b[0][1] + Fraction(rng.randint(1, 9), 7))
    together = linalg.interval_solve(mat, rhs, 25)
    assert together == [linalg.interval_solve(mat, [b], 25)[0] for b in rhs]


def counting(monkeypatch, name):
    """Record the number of right-hand sides of each ``linalg.<name>`` call."""
    calls = []
    original = getattr(linalg, name)

    def counted(mat, rhs, *args):
        calls.append(len(rhs))
        return original(mat, rhs, *args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def test_inverse_and_annihilator_make_one_elimination(monkeypatch):
    third = lifted_matrix("golden/3")
    exact = counting(monkeypatch, "solve_exact")
    inverse = _inverse_rows(third, 25)
    assert exact == [3]
    exact.clear()
    analysis.annihilator_projection(fibonacci_scheme(), 4)
    assert exact == [2]

    def inexact(*args):
        raise ExactnessError("forced onto interval elimination")

    monkeypatch.setattr(linalg, "solve_exact", inexact)
    interval = counting(monkeypatch, "interval_solve")
    enclosure = _inverse_rows(third, 25)
    assert interval == [3]
    # both enclose the same inverse entries
    for row, enc in zip(inverse, enclosure):
        for (lo, hi), (elo, ehi) in zip(row, enc):
            assert elo <= hi and lo <= ehi


def test_integer_kernel_and_rational_solve():
    assert linalg.integer_kernel([[Scalar(2), Scalar(1) + Scalar.sqrt(2), Scalar.sqrt(2)]]) == [
        [1, -2, 2]
    ]
    assert linalg.integer_kernel([[Scalar(1), GOLDEN]]) == []
    assert linalg.rational_solve([[Scalar(1), GOLDEN]], [[GOLDEN / 3]]) == [[0, Fraction(1, 3)]]
    assert linalg.rational_solve([[Scalar(1), GOLDEN]], [[Scalar.sqrt(2)]]) == [None]


def test_all_zero_system_keeps_its_unknowns():
    # no monomial appears, yet the system still has one unknown per column
    assert linalg.rational_solve([[Scalar(0)]], [[Scalar(0)]]) == [[0]]
    assert linalg.rational_solve([[Scalar(0)]], [[Scalar(1)]]) == [None]
    assert linalg.integer_kernel([[Scalar(0), Scalar(0)]]) == [[1, 0], [0, 1]]


def images(mat, rng):
    """Right-hand sides ``mat . x`` for rational x, the unit vectors (mostly
    without a rational solution), and one with a monomial no entry has."""
    size = len(mat[0])
    xs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)] for _ in range(3)]
    consistent = [[sum((v * x for v, x in zip(row, xv)), Scalar(0)) for row in mat] for xv in xs]
    return consistent + right_hand_sides(len(mat), rng) + [[Scalar.sqrt(7)] * len(mat)]


@pytest.mark.parametrize(
    "rows, rhs",
    [
        pytest.param(mat, images(mat, random.Random(22)), id=name)
        for name in MATRICES[:3]
        for mat in [lifted_matrix(name)]
    ]
    + [
        pytest.param(
            [[Scalar(1), GOLDEN]],
            [[GOLDEN / 3], [Scalar.sqrt(2)], [Scalar(0)], [Scalar(3) + GOLDEN * 4], [Scalar.sqrt(2)]],
            id="golden ring",
        ),
        pytest.param(
            [[Scalar(0)], [Scalar(0)]],
            [[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)], [Scalar(0), Scalar(0)]],
            id="all zero",
        ),
    ],
)
def test_rational_solve_many_right_hand_sides(rows, rhs):
    together = linalg.rational_solve(rows, rhs)
    alone = [linalg.rational_solve(rows, [b])[0] for b in rhs]
    assert together == alone
    assert len(together) == len(rhs)
    assert None in together and any(sol is not None for sol in together)
