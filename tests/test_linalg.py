"""The exact linear-system layer: several right-hand sides per elimination.

A call with many right-hand sides must give, for each, exactly the solution
of a call with that right-hand side alone, and the callers that need a whole
solution set make one elimination for it.  ``solve_exact`` reduces through
``ratmath.rref`` and must give the bits of the elimination loop it replaced.
The enumeration's inverse enclosure must hold the exact inverse of every
kind of matrix.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from test_scheme import float_scheme, golden_square_scheme

from cutproject import analysis, cli, linalg, ratmath
from cutproject.fibonacci import fibonacci_scheme
from cutproject.scalars import GOLDEN, ExactnessError, Scalar, parse_scalar
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


def loop_solve_exact(mat, rhs):
    """The Gauss-Jordan loop of ``solve_exact`` before it reduced through
    ``ratmath.rref``: the oracle of its bits and its exceptions."""
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


PI = Scalar.const("pi")
ALGEBRAIC = (Scalar(1), GOLDEN, Scalar.sqrt(2))


def random_entry(rng, kind):
    """An entry of a random system: a float, a sum of up to two algebraic
    numbers, or (kind "pi") of up to two numbers one of which may be pi."""
    if rng.random() < 0.3:
        return Scalar(0.0) if kind == "float" else Scalar(0)
    if kind == "float":
        return Scalar(rng.choice((rng.uniform(-5, 5), float(rng.randint(-3, 3)))))
    atoms = ALGEBRAIC + (PI,) if kind == "pi" else ALGEBRAIC
    terms = (a * rng.randint(-3, 3) for a in rng.sample(atoms, rng.randint(1, 2)))
    return sum(terms, Scalar(0)) / rng.randint(1, 4)


def outcome(solve, mat, rhs):
    """The exception class ``solve`` raises, or its solutions as exact reprs
    and float bits."""
    try:
        sols = solve(mat, rhs)
    except (ZeroDivisionError, ExactnessError) as exc:
        return type(exc)
    return [[repr(v) if v.is_exact else v.to_float().hex() for v in sol] for sol in sols]


def test_solve_exact_matches_the_loop_it_replaced():
    # 1 to 4 unknowns, 1 to 3 right-hand sides; a quarter of the matrices
    # repeat a multiple of a row, and zero entries make more of them singular
    rng = random.Random(33)
    seen = Counter()
    for _ in range(3000):
        n, kind = rng.randint(1, 4), rng.choice(("exact", "float", "pi"))
        mat = [[random_entry(rng, kind) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            mat[-1] = [x * 2 for x in mat[0]]
        rhs = [[random_entry(rng, kind) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        want, got = outcome(loop_solve_exact, mat, rhs), outcome(linalg.solve_exact, mat, rhs)
        if (want, got) == (ZeroDivisionError, ExactnessError):
            # the loop stopped at the first column without a pivot; rref
            # runs on and meets a pivot with pi that it cannot invert
            assert kind == "pi" and linalg.det(mat).is_zero()
            seen["singular, then no exact inverse"] += 1
            continue
        assert got == want, (mat, rhs)
        seen[kind, want if isinstance(want, type) else "solved"] += 1
    for case in [("exact", "solved"), ("float", "solved"), ("pi", "solved"),
                 ("exact", ZeroDivisionError), ("float", ZeroDivisionError),
                 ("pi", ZeroDivisionError), ("pi", ExactnessError)]:
        assert seen[case] >= 100, (case, seen)


def test_solve_exact_refusals():
    with pytest.raises(ZeroDivisionError, match="singular"):
        linalg.solve_exact([[Scalar(1), GOLDEN], [Scalar(2), GOLDEN * 2]], [[Scalar(1), Scalar(0)]])
    with pytest.raises(ExactnessError):
        linalg.solve_exact([[1 + PI, Scalar(0)], [Scalar(0), Scalar(1)]], [[Scalar(1), Scalar(0)]])


def test_rref_keeps_int_rows_exact():
    red, pivots = ratmath.rref([[2, 4, 6], [1, 3, 5], [1, 1, 1]])
    assert pivots == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
    assert all(type(v) in (int, Fraction) for row in red for v in row)
    assert all(type(v) is Fraction for row in red[:2] for v in row)


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
