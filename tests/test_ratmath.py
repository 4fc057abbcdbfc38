import random
from fractions import Fraction
from math import gcd

import pytest

from cutproject.ratmath import (
    clear_denominators,
    column_reduce,
    complete_unimodular,
    factorize,
    iroot,
    kernel,
    lll_reduce,
    solve,
)


def det_int(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det_int(minor)
    return total


def test_iroot():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(10 ** 24, 2) == 10 ** 12
    big = 7 ** 41
    assert iroot(big, 41) == 7
    assert iroot(big - 1, 41) == 6
    with pytest.raises(ValueError):
        iroot(-1, 2)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2 * 3 * 5 * 7 * 11) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}


def test_solve_and_kernel():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    x = solve(a, [Fraction(5), Fraction(11)])
    assert x == [Fraction(1), Fraction(2)]
    assert solve([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]], [Fraction(1), Fraction(3)]) is None
    k = kernel([[Fraction(1), Fraction(2), Fraction(3)]])
    assert len(k) == 2
    for vec in k:
        assert sum(c * v for c, v in zip([1, 2, 3], vec)) == 0


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert clear_denominators([Fraction(2), Fraction(4)]) == [1, 2]


def test_lll_finds_short_vector():
    # the rows span a lattice containing (1, 0, 0) hidden by big coefficients
    basis = [[1, 0, 100003], [0, 1, 141427], [0, 0, 1000000]]
    reduced = lll_reduce(basis)
    shortest = min(sum(x * x for x in row) for row in reduced)
    assert shortest <= 10 ** 6  # vastly shorter than the inputs


def test_complete_unimodular():
    rng = random.Random(3)
    vectors = [[1], [-1], [0, 1, -3], [2, 3], [5, -7, 11, 3]]
    for _ in range(10):
        v = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
        if gcd(*v) != 1:
            continue
        vectors.append(v)
    for v in vectors:
        u = complete_unimodular(list(v))
        assert [u[i][0] for i in range(len(v))] == list(v)
        assert det_int(u) in (1, -1)
    with pytest.raises(ValueError):
        complete_unimodular([2, 4])


def unimodular_by_row_steps(v):
    """The completion by its own extended-gcd row steps, undone on the
    identity: the oracle that the column reduction must reproduce."""

    def xgcd(a, b):
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        return a, x0, y0

    n = len(v)
    work = list(v)
    ops = []  # (i, j, a, b, c, d): rows (i, j) <- (a i + b j, c i + d j)
    for j in range(1, n):
        a, b = work[0], work[j]
        if b == 0:
            continue
        g, x, y = xgcd(a, b)
        work[0], work[j] = g, 0
        ops.append((0, j, x, y, -(b // g), a // g))
    if work[0] < 0:
        ops.append((0, 0, -1, 0, 0, -1))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, a, b, c, d in reversed(ops):
        if i == j:
            m[i] = [-x for x in m[i]]
            continue
        det = a * d - b * c
        m[i], m[j] = (
            [(d * x - b * y) * det for x, y in zip(m[i], m[j])],
            [(-c * x + a * y) * det for x, y in zip(m[i], m[j])],
        )
    return m


def test_complete_unimodular_matches_the_row_step_oracle():
    rng = random.Random(32)
    count = 0
    while count < 10000:
        v = [rng.randint(-30, 30) for _ in range(rng.randint(1, 6))]
        if gcd(*v) != 1:
            continue
        assert complete_unimodular(v) == unimodular_by_row_steps(v), v
        count += 1


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_column_reduce_is_an_echelon_form_by_a_unimodular_transform():
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        h, u, w, rank = column_reduce(a)
        assert mat_mul(a, u) == h
        # W is the transposed inverse of U
        assert mat_mul([list(c) for c in zip(*w)], u) == [
            [int(i == j) for j in range(cols)] for i in range(cols)
        ]
        assert all(row[k] == 0 for row in h for k in range(rank, cols))
        # each pivot is positive and sits below the one before it
        pivots = [next(i for i, row in enumerate(h) if row[k]) for k in range(rank)]
        assert pivots == sorted(set(pivots))
        assert all(h[i][k] > 0 for k, i in enumerate(pivots))
