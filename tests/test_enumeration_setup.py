"""The enumeration's per-call set-up in integers against the rational formulas.

``CutProjectScheme`` computes a call's candidate box, walk targets, inner and
outer bounds and float rounding bounds in scaled integers.  The oracle below
is the same set-up in rationals: ``Scalar.bounds``, ``as_fraction`` and
``magnitude``, ``Fraction`` products and ``math.ceil``/``math.floor``.  Every
number must be the same integer, so the walk, the leaf decisions and the
budget's trip point do not move.
"""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from test_hull import witness_full, witness_lower, witness_mixed
from test_scheme import LINE, filter_cases, float_scheme

from cutproject import transforms
from cutproject.fibonacci import fibonacci_scheme, fibonacci_window
from cutproject.scalars import GOLDEN, GOLDEN_CONJ, Scalar
from cutproject.scheme import (
    Box,
    CutProjectScheme,
    _inverse_rows,
    _walk_targets,
)
from cutproject.windows import interval_window

SCALE = 10 ** 25
MARGIN = Fraction(1, 10 ** 9)
EPS = math.ceil(Fraction(1e-9) * SCALE)  # FLOAT_EPS at scale


def oracle_rhs(box, rows):
    rows = [(lo, hi, False) for lo, hi in zip(box.lo, box.hi)] + rows
    return [
        (lo.as_fraction(), hi.as_fraction()) if integral else
        (lo.bounds(25)[0] - MARGIN, hi.bounds(25)[1] + MARGIN)
        for lo, hi, integral in rows
    ]


def oracle_ranges(scheme, rhs, inverse=None):
    if scheme.lift_size == 0:
        return []
    if inverse is None:
        inverse = _inverse_rows(scheme.matrix, range(scheme.lift_size))
    out = []
    for row in inverse:
        lo = hi = Fraction(0)
        for (alo, ahi), (ylo, yhi) in zip(row, rhs):
            alo, ahi = Fraction(alo, SCALE), Fraction(ahi, SCALE)
            products = (alo * ylo, alo * yhi, ahi * ylo, ahi * yhi)
            lo += min(products)
            hi += max(products)
        out.append((math.ceil(lo), math.floor(hi)))
    return out


def oracle_targets(rhs):
    slack = 10 ** 16
    return [(math.floor(lo * SCALE) - slack, math.ceil(hi * SCALE) + slack) for lo, hi in rhs]


def oracle_float_errors(scheme, ranges):
    reach = [max(-lo, hi) for lo, hi in ranges]
    rounds = 2 * (2 * len(reach) + 3)
    return [
        math.ceil(rounds * sum(k * v.magnitude() for k, v in zip(reach, row)) * SCALE / 2 ** 53)
        + 10 ** 13
        for row in scheme.matrix
    ]


def oracle_inner_bounds(scheme, box, rows, targets, errors):
    forms, names, _ = scheme._leaf_data
    rows = [(lo, hi, False) for lo, hi in zip(box.lo, box.hi)] + rows
    ends = [v for lo, hi, _ in rows for v in (lo, hi)]
    if len(names | {v.constant for v in ends} - {None}) > 1:
        return None
    if errors is None:
        if forms is None or not all(v.is_exact for v in ends):
            return None
        in_lo, in_hi = [], []
        for lo, hi, integral in rows:
            pad = 0 if integral else 10 ** 16
            in_lo.append(math.ceil(lo.bounds(25)[1] * SCALE) + pad)
            in_hi.append(math.floor(hi.bounds(25)[0] * SCALE) - pad)
        return in_lo, in_hi, [lo for lo, _ in targets], [hi for _, hi in targets]
    if any(integral for _, _, integral in rows):
        return None
    in_lo, in_hi, out_lo, out_hi = [], [], [], []
    for (lo, hi, _), error in zip(rows, errors):
        size = max(lo.magnitude(), hi.magnitude())
        band = EPS + error + math.ceil(4 * size * SCALE / 2 ** 53)
        lo = Fraction(lo.to_float()) * SCALE
        hi = Fraction(hi.to_float()) * SCALE
        in_lo.append(math.ceil(lo + band))
        in_hi.append(math.floor(hi - band))
        out_lo.append(math.floor(lo - band))
        out_hi.append(math.ceil(hi + band))
    return in_lo, in_hi, out_lo, out_hi


def check_piece(scheme, box, rows, decides):
    """Assert every set-up number of one piece equals the oracle's; return
    whether the piece's leaves may be decided on their enclosures."""
    rhs = scheme._piece_rhs(box, rows)
    want = oracle_rhs(box, rows)
    shift, bounds = rhs
    assert [(Fraction(lo, SCALE << shift), Fraction(hi, SCALE << shift))
            for lo, _, _, hi in bounds] == want
    ranges = scheme._candidate_ranges(rhs)
    assert ranges == oracle_ranges(scheme, want)
    targets = _walk_targets(rhs)
    assert targets == oracle_targets(want)
    sizes = scheme._leaf_data[2]
    errors = None
    if sizes is not None:
        errors = scheme._float_errors(sizes, ranges)
        assert errors == oracle_float_errors(scheme, ranges)
    if not decides:
        return False
    inner = scheme._inner_bounds(box, rows, rhs, targets, errors)
    assert inner == oracle_inner_bounds(scheme, box, rows, targets, errors)
    return inner is not None


def check_window(scheme, box, window):
    return [check_piece(scheme, box, rows, decides) for rows, decides in window.enum_pieces()]


@pytest.mark.parametrize("case", range(21))
def test_filter_cases_set_up_matches_rationals(case):
    scheme, box, window, decided, _ = filter_cases()[case]
    inner = check_window(scheme, box, window)
    if decided:
        assert all(inner)
    elif decided is None:
        assert any(inner)
    else:
        assert not any(inner)


def test_probe_shapes_set_up_matches_rationals():
    # probe-small's shape: width-20 boxes, centre in +-5000, window shifts in +-0.2
    scheme = fibonacci_scheme()
    window = fibonacci_window()
    rng = random.Random(16)
    for _ in range(300):
        centre = rng.randint(-5000, 5000)
        t = Scalar(rng.randint(-20, 20)) / 100
        box = Box.interval(centre - 10, centre + 10)
        assert all(check_window(scheme, box, window.translate(LINE.point((t,)))))


def test_float_windows_set_up_matches_rationals():
    # float endpoints of a box and a window put the set-up on a dyadic scale
    scheme = float_scheme()
    window = interval_window(LINE, -1.0, float(GOLDEN - 1))
    rng = random.Random(17)
    boxes = [Box.interval(-300, 250), Box.interval(-300.5, 250.25), Box.interval(0.1, 0.7)]
    for _ in range(40):
        centre = rng.uniform(-5000, 5000)
        boxes.append(Box.interval(centre - 10, centre + 10))
    for box in boxes:
        t = Scalar.from_float(rng.uniform(-0.2, 0.2))
        for w in (window, window.translate(LINE.point((t,)))):
            assert all(check_window(scheme, box, w))
    shifts = {scheme._piece_rhs(box, rows)[0] for box in boxes for rows, _ in window.enum_pieces()}
    assert 0 not in shifts


def test_interval_inverse_set_up_matches_rationals():
    # the set-up on the inverse enclosure's integer rows, over boxes of
    # widths 11 to 410 where the probe shapes are all of width 20
    scheme = CutProjectScheme(
        1, LINE, [((Scalar(1),), LINE.point((1,))), ((GOLDEN,), LINE.point((GOLDEN_CONJ,)))]
    )
    window = interval_window(LINE, -1, GOLDEN - 1)
    rng = random.Random(18)
    for _ in range(40):
        centre = rng.randint(-5000, 5000)
        t = Scalar(rng.randint(-20, 20)) / 100
        box = Box.interval(centre - rng.randint(1, 400), centre + 10)
        assert all(check_window(scheme, box, window.translate(LINE.point((t,)))))
    patch = scheme.project_points(Box.interval(-300, 250), window)
    assert patch == fibonacci_scheme().project_points(Box.interval(-300, 250), window)


def test_candidate_ranges_match_the_four_product_rule():
    # the candidate box picks each product by the signs of the enclosure
    # ends; on inverse entries and rhs ends of every sign, and at a dyadic
    # rhs scale, the ranges are those of the four products' min and max
    rng = random.Random(20)

    def enclosure(kind):
        a, b = rng.randint(1, 10 ** 26), rng.randint(0, 10 ** 26)
        return {
            "positive": (a, a + b), "negative": (-a - b, -a), "zero": (0, 0),
            "zero-lo": (0, a), "zero-hi": (-a, 0), "straddling": (-a, b + 1),
        }[kind]

    kinds = ["positive", "negative", "zero", "zero-lo", "zero-hi", "straddling"]
    cases = [([[enclosure(a)]], [enclosure(y)]) for a in kinds for y in kinds]
    for _ in range(300):
        size = rng.randint(1, 4)
        cases.append((
            [[enclosure(rng.choice(kinds)) for _ in range(size)] for _ in range(size)],
            [enclosure(rng.choice(kinds)) for _ in range(size)],
        ))
    for shift in (0, 3):
        for inverse, ends in cases:
            stub = SimpleNamespace(lift_size=len(inverse), _inverse_enclosure=inverse)
            bounds = [(lo, lo, hi, hi) for lo, hi in ends]
            want = oracle_ranges(
                stub, [(Fraction(lo, SCALE << shift), Fraction(hi, SCALE << shift)) for lo, hi in ends],
                inverse,
            )
            assert CutProjectScheme._candidate_ranges(stub, (shift, bounds)) == want


def test_straddling_inverse_set_up_matches_rationals():
    # a star coordinate within 10**-50 of 0 gives an inverse entry whose
    # enclosure straddles 0, which the candidate box bounds by all four
    # products; the set-up still matches the rationals, and the walk finds
    # every point a brute-force filter does
    tiny = Scalar.sqrt(2) - Fraction(math.isqrt(2 * 10 ** 100), 10 ** 50)
    scheme = CutProjectScheme(
        1, LINE, [((Scalar(1),), LINE.point((1,))), ((GOLDEN,), LINE.point((tiny,)))]
    )
    (alo, ahi), _ = scheme._inverse_enclosure[0]
    assert alo < 0 < ahi
    window = interval_window(LINE, -1, GOLDEN - 1)
    rng = random.Random(19)
    for _ in range(20):
        centre = rng.randint(-5000, 5000)
        t = Scalar(rng.randint(-20, 20)) / 100
        box = Box.interval(centre - rng.randint(1, 40), centre + 10)
        shifted = window.translate(LINE.point((t,)))
        assert all(check_window(scheme, box, shifted))
        reach = range(math.floor((box.lo[0] - 3) / GOLDEN), math.ceil((box.hi[0] + 3) / GOLDEN) + 1)
        want = {
            scheme.direct(n) for n in itertools.product(range(-3, 4), reach)
            if box.contains(scheme.direct(n)) and shifted.contains(scheme.star(n))
        }
        patch = scheme.project_points(box, shifted)
        assert len(patch) == len(want) > 0 and set(patch.points) == want


def test_certified_box_radius_matches_rationals(monkeypatch):
    # the witness windows of the hull tests, at their truncation and past the
    # default budget: the rational set-up finds the same radius
    cases = [(w.scheme, w.upper.closure(), w.truncation)
             for w in (witness_full(), witness_lower(), witness_mixed())]
    scheme = cases[0][0]
    cases += [(scheme, cases[0][1], 1500), (scheme, cases[0][1], 3)]
    got = [transforms.certified_box(s, w, t) for s, w, t in cases]
    monkeypatch.setattr(
        CutProjectScheme, "_piece_rhs", lambda self, box, rows: oracle_rhs(box, rows)
    )
    monkeypatch.setattr(CutProjectScheme, "_candidate_ranges", oracle_ranges)
    want = [transforms.certified_box(s, w, t) for s, w, t in cases]
    assert got == want
    assert len({b.hi for b in got}) > 1
