"""The compiled walk kernels against the generic walk they replace.

``enumeration_oracle._enumerate_piece`` runs the scheme's own set-up and
then the generic generator walk; the compiled kernel must give every piece
the same ``found`` dict, keys, values and insertion order, and reach the
exact path at the same leaves in the same order.
"""

import functools
import random
from fractions import Fraction

import enumeration_oracle
import pytest
from test_scheme import differential_cases, filter_cases, golden_square_scheme

from cutproject import walk
from cutproject.internal_space import FiniteCyclicFactor, InternalSpace
from cutproject.scalars import Scalar
from cutproject.scheme import (
    DEFAULT_MAX_CANDIDATES,
    Box,
    CutProjectScheme,
    EnumerationOverflowError,
    _walk_targets,
)
from cutproject.windows import ProductWindow, ResidueRegion

BOXES = 20


@functools.cache
def walk_cases():
    cases = [case[:3] for case in differential_cases()]
    cases += [case[:3] for case in filter_cases()]
    return cases


def seeded_boxes(scheme, box, seed):
    """Sub-boxes of ``box`` with rational ends, float ends for half of a
    float scheme's boxes."""
    rng = random.Random(seed)
    floats = scheme._leaf_data[2] is not None
    out = []
    for _ in range(BOXES):
        lo, hi = [], []
        for a, b in zip(box.lo, box.hi):
            a, b = Fraction(a.to_float()), Fraction(b.to_float())
            width = b - a
            centre = a + width * Fraction(rng.randint(0, 1000), 1000)
            half = width * Fraction(rng.randint(5, 300), 1000)
            ends = [round((centre + s * half) * 10) / Fraction(10) for s in (-1, 1)]
            if floats and rng.random() < 0.5:
                ends = [Scalar.from_float(float(e)) for e in ends]
            lo.append(ends[0])
            hi.append(ends[1])
        out.append(Box(lo, hi))
    return out


def assert_walks_agree(scheme, box, window, monkeypatch, pieces=None,
                       max_candidates=DEFAULT_MAX_CANDIDATES):
    """Every piece's kernel dict equals the oracle's, item for item, and the
    exact path sums the same leaves' direct vectors and stars in the same
    order: every leaf's, when no leaf is decided on enclosures."""
    calls = []
    for name in ("direct", "_star"):
        monkeypatch.setattr(CutProjectScheme, name, recorder(calls, name, getattr(CutProjectScheme, name)))
    for rows, decides in window.enum_pieces() if pieces is None else pieces:
        args = (box, window, rows, decides, max_candidates)
        del calls[:]
        kernel = scheme._enumerate_piece(*args)
        kernel_calls = list(calls)
        del calls[:]
        oracle = enumeration_oracle._enumerate_piece(scheme, *args)
        assert list(kernel.items()) == list(oracle.items())
        assert kernel_calls == calls


def recorder(calls, name, method):
    def recorded(self, n):
        calls.append((name, n))
        return method(self, n)

    return recorded


@pytest.mark.parametrize("decided", [True, False], ids=["decided", "exact"])
@pytest.mark.parametrize("case", range(28))
def test_kernel_matches_generic_walk(case, decided, monkeypatch):
    scheme, box, window = walk_cases()[case]
    if not decided:
        monkeypatch.setattr(CutProjectScheme, "_inner_bounds", lambda self, *args: None)
    for sub in seeded_boxes(scheme, box, case):
        assert_walks_agree(scheme, sub, window, monkeypatch)


def test_kernel_matches_generic_walk_on_the_golden_square(monkeypatch):
    scheme, window = golden_square_scheme()
    for sub in seeded_boxes(scheme, Box.symmetric(25, 2), 28):
        assert_walks_agree(scheme, sub, window, monkeypatch)


def test_kernel_of_a_rank_zero_scheme(monkeypatch):
    # no lifted column: one leaf, the empty coordinate vector, with row 0 zero
    space = InternalSpace([FiniteCyclicFactor(3)])
    scheme = CutProjectScheme(0, space, [])
    assert scheme.lift_size == 0
    for residues, size in (({0}, 1), ({1}, 0), ({0, 1, 2}, 1)):
        window = ProductWindow(space, (ResidueRegion(3, residues),))
        assert_walks_agree(scheme, Box([], []), window, monkeypatch)
        assert len(scheme.project_points(Box([], []), window)) == size


def test_kernel_overflow_matches_generic_walk():
    scheme, box, window = walk_cases()[0]
    ((rows, decides),) = window.enum_pieces()
    args = (box, window, rows, decides, 100)
    with pytest.raises(EnumerationOverflowError) as kernel:
        scheme._enumerate_piece(*args)
    with pytest.raises(EnumerationOverflowError) as oracle:
        enumeration_oracle._enumerate_piece(scheme, *args)
    assert str(kernel.value) == str(oracle.value)


def test_one_kernel_per_plan_shape():
    # the exact and the float Fibonacci scheme differ in every generator
    # value but share the shape of their plan
    cases = differential_cases()
    exact, inexact = cases[0][0], cases[1][0]
    assert exact._enumeration_plan != inexact._enumeration_plan
    for bounded in (True, False):
        kernel, flat = exact._walk_kernel(bounded)
        other, other_flat = inexact._walk_kernel(bounded)
        assert kernel is other and flat != other_flat
    assert exact._walk_kernel(True)[0] is not exact._walk_kernel(False)[0]
    maxsize = walk.walk_kernel.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 64


def test_kernel_skips_a_second_lift_of_one_point(monkeypatch):
    # the golden/3 extension lifts n by a carry column; a residue row of
    # width 5 > 3 admits two carries for most n, and only the first leaf
    # of each n may reach found or the exact path
    scheme, box, window = walk_cases()[4]
    assert scheme.lift_size == scheme.rank + 1
    ((rows, _),) = window.enum_pieces()
    wide = rows[:-1] + [(Scalar(0), Scalar(5), True)]
    rhs = scheme._piece_rhs(box, wide)
    zero = [0] * scheme.lift_size
    walk = enumeration_oracle._triangular_walk(
        scheme._enumeration_plan, scheme._candidate_ranges(rhs), _walk_targets(rhs), (), zero, zero
    )
    leaves = [lifted[: scheme.rank] for lifted, _, _ in walk]
    assert len(leaves) > len(set(leaves)) > 10
    pieces = [(wide, False), (wide, True)]
    for sub in seeded_boxes(scheme, box, 29):
        assert_walks_agree(scheme, sub, window, monkeypatch, pieces)
