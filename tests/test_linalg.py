"""The exact linear-system layer: several right-hand sides per elimination.

A call with many right-hand sides must give, for each, exactly the solution
of a call with that right-hand side alone, and the callers that need a whole
solution set make one elimination for it.  The enumeration's inverse
enclosure must hold the exact inverse of every kind of matrix.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from test_scheme import float_scheme, golden_square_scheme

from cutproject import analysis, cli, linalg, ratmath
from cutproject.fibonacci import fibonacci_scheme
from cutproject.scalars import GOLDEN, Scalar, parse_scalar
from cutproject.scheme import CutProjectScheme, _inverse_rows
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
    if name == "sqrt(2)":
        return translate_cps(fib, (Scalar.sqrt(2),), 10 ** 6).scheme.matrix
    if name == "golden square":
        return golden_square_scheme()[0].matrix
    if name == "float golden/3":
        third = translate_cps(fib, (GOLDEN / 3,), 100).scheme
        return CutProjectScheme.from_obj(cli._floatify(third.to_obj())).matrix
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
    # the inverse enclosure is cofactors over the determinant, no elimination;
    # the annihilator solves all its right-hand sides in one
    third = lifted_matrix("golden/3")
    exact = counting(monkeypatch, "solve_exact")
    _inverse_rows(third, range(3))
    assert exact == []
    analysis.annihilator_projection(fibonacci_scheme(), 4)
    assert exact == [2]


def fraction_inverse(mat):
    """The inverse of a matrix of Fractions, by Gauss-Jordan elimination."""
    n = len(mat)
    a = [row[:] + [Fraction(int(i == k)) for k in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


@pytest.mark.parametrize("name", MATRICES + ("sqrt(2)", "golden square", "float golden/3"))
def test_inverse_enclosure_holds_the_exact_inverse(name):
    # a float matrix's enclosure holds the exact inverse of its entries'
    # binary values; an exact one's holds solve_exact's inverse, enclosed at
    # 60 digits
    mat = lifted_matrix(name)
    size = len(mat)
    got = _inverse_rows(mat, range(size))
    if all(v.is_exact for row in mat for v in row):
        units = [[Scalar(int(i == k)) for i in range(size)] for k in range(size)]
        cols = linalg.solve_exact(mat, units)
        want = [[cols[j][i].bounds(60) for j in range(size)] for i in range(size)]
    else:
        inv = fraction_inverse([[Fraction(v.to_float()) for v in row] for row in mat])
        want = [[(v, v) for v in row] for row in inv]
    scale = 10 ** 25
    for row, want_row in zip(got, want):
        for (lo, hi), (wlo, whi) in zip(row, want_row):
            assert Fraction(lo, scale) <= wlo <= whi <= Fraction(hi, scale)
            assert hi - lo <= 2


def test_integer_kernel_and_rational_solve():
    assert linalg.integer_kernel([[Scalar(2), Scalar(1) + Scalar.sqrt(2), Scalar.sqrt(2)]]) == [
        [1, -2, 2]
    ]
    assert linalg.integer_kernel([[Scalar(1), GOLDEN]]) == []
    assert linalg.rational_solve([[Scalar(1), GOLDEN]], [[GOLDEN / 3]]) == [[0, Fraction(1, 3)]]
    assert linalg.rational_solve([[Scalar(1), GOLDEN]], [[Scalar.sqrt(2)]]) == [None]


def test_integer_kernel_is_saturated():
    # 2x + y + z = 0: the rational kernel's vectors (-1, 2, 0), (-1, 0, 2)
    # span an index-2 sublattice, which misses (0, 1, -1)
    basis = linalg.integer_kernel([[Scalar(2), Scalar(1), Scalar(1)]])
    assert len(basis) == 2
    assert integer_coefficients(basis, [0, 1, -1]) is not None


def integer_coefficients(basis, v):
    """Integer c with sum c_k basis_k = v, or None."""
    cols = [[Fraction(b[i]) for b in basis] for i in range(len(v))]
    c = ratmath.solve(cols, [Fraction(x) for x in v])
    return None if c is None or any(x.denominator != 1 for x in c) else c


def det_int(mat):
    if not mat:
        return 1
    return sum(
        (-1) ** j * x * det_int([row[:j] + row[j + 1:] for row in mat[1:]])
        for j, x in enumerate(mat[0]) if x
    )


def test_integer_kernel_has_index_one_on_random_matrices():
    # the rational kernel's primitive vectors lie in the Z-span of the basis,
    # whose maximal minors are coprime (index 1 in the integer kernel); a
    # kernel of rank 1 is the rational kernel's primitive vector, signed so
    # its last nonzero entry is positive
    rng = random.Random(32)
    rank_one = 0
    for _ in range(400):
        rows, cols = rng.randint(1, 3), rng.randint(2, 5)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        basis = linalg.integer_kernel([[Scalar(x) for x in row] for row in a])
        rational = [ratmath.clear_denominators(v) for v in ratmath.kernel(a)]
        assert len(basis) == len(rational)
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
            assert next(x for x in reversed(v) if x) > 0
        for v in rational:
            assert integer_coefficients(basis, v) is not None
        if basis:
            minors = [det_int([[v[i] for i in idx] for v in basis])
                      for idx in itertools.combinations(range(cols), len(basis))]
            assert gcd(*minors) == 1
        if len(basis) == 1:
            assert basis == rational
            rank_one += 1
    assert rank_one > 50


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
