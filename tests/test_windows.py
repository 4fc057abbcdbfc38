import itertools
import json
import random
from fractions import Fraction

import pytest

from cutproject import windows
from cutproject.internal_space import (
    FiniteCyclicFactor,
    IntegerRankFactor,
    InternalSpace,
    RealFactor,
    SpaceMismatchError,
    TorusFactor,
    TwistedExtensionFactor,
)
from cutproject.scalars import GOLDEN, GOLDEN_CONJ, Scalar
from cutproject.windows import (
    AugmentedWindow,
    Interval,
    IntervalSet,
    IntSetRegion,
    OutOfCertifiedRangeError,
    ProductWindow,
    RealRegion,
    ResidueRegion,
    TorusRegion,
    TwistedRegion,
    UnionWindow,
    empty_window,
    eq11_chain,
    interval_window,
    point_window,
    window_from_obj,
    window_subset,
)

LINE = InternalSpace([RealFactor(1)])


def iv(lo, hi, lc=True, hc=False):
    return IntervalSet.single(lo, hi, lc, hc)


def test_interval_set_normalization():
    s = IntervalSet(
        [Interval(0, 1, True, False), Interval(1, 2, True, False), Interval(5, 6)]
    )
    assert len(s.pieces) == 2
    assert s.pieces[0].lo == Scalar(0) and s.pieces[0].hi == Scalar(2)
    # open-open touching pieces keep the gap point out
    t = IntervalSet([Interval(0, 1, False, False), Interval(1, 2, False, False)])
    assert len(t.pieces) == 2
    assert not t.contains(Scalar(1))
    assert t.fills_gap(Scalar(1))


@pytest.mark.parametrize("form", [list, lambda pieces: (p for p in pieces)])
def test_interval_set_refuses_a_piece_that_is_no_interval(form):
    # a generator is read once, so its pieces are checked as a list's are
    with pytest.raises(TypeError, match="Interval pieces"):
        IntervalSet(form([Interval(0, 1), 3]))


def test_fibonacci_interval_window_ops():
    w = interval_window(LINE, -1, GOLDEN - 1)  # [-1, golden-1)
    assert w.measure() == GOLDEN
    assert w.interior() == interval_window(LINE, -1, GOLDEN - 1, False, False)
    assert w.closure() == interval_window(LINE, -1, GOLDEN - 1, True, True)
    assert w.boundary_measure().is_zero()
    props = w.properties()
    assert props.has_interior
    assert props.topologically_regular and props.measure_regular


def test_discrete_window_properties():
    space = InternalSpace([IntegerRankFactor(1)])
    w = ProductWindow(space, (IntSetRegion(1, {(3,)}),))
    assert w.interior() == w and w.closure() == w
    assert w.measure() == Scalar(1)
    p = w.properties()
    assert p.has_interior and p.topologically_regular and p.measure_regular


def test_finite_point_set_in_real_factor():
    w = ProductWindow(
        LINE, (RealRegion((IntervalSet([Interval(1, 1, True, True), Interval(2, 2, True, True)]),)),)
    )
    assert w.measure().is_zero()
    props = w.properties()
    assert not props.has_interior
    # boundary is the set itself, which has measure zero
    assert props.measure_regular
    assert not props.topologically_regular


def test_augmented_isolated_point_breaks_regularity():
    w = AugmentedWindow(interval_window(LINE, 0, 1, False, False), [LINE.point((2,))])
    closure = w.closure()
    assert closure.contains(LINE.point((2,)))
    assert closure.contains(LINE.point((0,)))
    assert not w.properties().topologically_regular
    # stars inside the closure keep regularity
    w2 = AugmentedWindow(interval_window(LINE, 0, 1, False, False), [LINE.point((1,))])
    assert w2.properties().topologically_regular
    assert w2.closure() == interval_window(LINE, 0, 1, True, True)


def test_augmented_gap_fill_interior():
    core = ProductWindow(
        LINE,
        (RealRegion((IntervalSet([Interval(0, 1, False, False), Interval(1, 2, False, False)]),)),),
    )
    w = AugmentedWindow(core, [LINE.point((1,))])
    assert w.interior() == interval_window(LINE, 0, 2, False, False)
    assert w.properties().topologically_regular
    # only a one-axis region has gaps to fill
    square = RealRegion((iv(0, 1, False, False), iv(0, 1, False, False)))
    assert square.fill_gap((Fraction(1, 2), Fraction(1, 2))) is square
    assert square.fill_gap((1, Fraction(1, 2))) is None


def _gap_case(kind):
    """(open core, adjoined star, expected interior) on a circle or a twist."""
    tenth, half = Fraction(1, 10), Fraction(1, 2)
    if kind == "twisted":
        f = TwistedExtensionFactor(LINE, 2, LINE.point((GOLDEN_CONJ,)))
        space = InternalSpace([f])
        split = RealRegion((IntervalSet([Interval(0, half, False, False), Interval(half, 1, False, False)]),))
        core = ProductWindow(space, (TwistedRegion(f, {1: ProductWindow(LINE, (split,))}),))
        star = space.point((LINE.point((half,)), 1))
        region = TwistedRegion(f, {1: interval_window(LINE, 0, 1, False, False)})
        return core, star, ProductWindow(space, (region,))
    factor = TorusFactor(1, ((Scalar(1),),))
    space = InternalSpace([factor])
    if kind == "circle":
        pieces = [Interval(tenth, half, False, False), Interval(half, 1 - tenth, False, False)]
        star, filled = half, [Interval(tenth, 1 - tenth, False, False)]
    else:  # the gap is the seam point 0
        pieces = [Interval(1 - tenth, 1, False, False), Interval(0, tenth, False, False)]
        star, filled = 0, [Interval(0, tenth, True, False), Interval(1 - tenth, 1, False, False)]
    core = ProductWindow(space, (TorusRegion(factor, (IntervalSet(pieces),)),))
    expected = ProductWindow(space, (TorusRegion(factor, (IntervalSet(filled),)),))
    return core, space.point((star,)), expected


@pytest.mark.parametrize("kind", ["circle", "seam", "twisted"])
def test_augmented_gap_fill_on_circle_and_twist(kind):
    core, star, expected = _gap_case(kind)
    assert not core.contains(star)
    assert AugmentedWindow(core, [star]).interior() == expected


def test_translate_preserves_flags_and_measure():
    rng = random.Random(4)
    w = ProductWindow(
        LINE,
        (RealRegion((IntervalSet([Interval(0, 1, True, False), Interval(3, GOLDEN + 3, False, True)]),)),),
    )
    t = LINE.point((GOLDEN_CONJ,))
    wt = w.translate(t)
    assert wt.measure() == w.measure()
    assert wt.boundary_measure() == w.boundary_measure()
    assert wt.properties() == w.properties()
    back = wt.translate(LINE.negate(t))
    assert back == w


def test_fibonacci_window_translate_endpoints():
    w = interval_window(LINE, -1, GOLDEN - 1)
    t = LINE.point((GOLDEN_CONJ,))
    wt = w.translate(t)
    piece = wt.regions[0].axes[0].pieces[0]
    assert piece.lo == GOLDEN_CONJ - 1
    assert piece.hi == GOLDEN_CONJ + GOLDEN - 1


def test_union_window_separated_members():
    a = interval_window(LINE, 0, 1)
    b = interval_window(LINE, 2, 3)
    u = UnionWindow(LINE, [a, b])
    assert u.measure() == Scalar(2)
    assert u.contains(LINE.point((Fraction(5, 2),)))
    assert not u.contains(LINE.point((Fraction(3, 2),)))
    with pytest.raises(ValueError):
        UnionWindow(LINE, [interval_window(LINE, 0, 2), interval_window(LINE, 1, 3)])


def test_union_separated_on_discrete_factor():
    space = InternalSpace([RealFactor(1), IntegerRankFactor(1)])
    a = ProductWindow(space, (RealRegion((iv(0, 1),)), IntSetRegion(1, {(0,)})))
    b = ProductWindow(space, (RealRegion((iv(0, 1),)), IntSetRegion(1, {(1,)})))
    u = UnionWindow(space, [a, b])
    assert u.measure() == Scalar(2)
    assert u.properties().topologically_regular


def test_torus_region_full_and_half():
    c = Scalar.root(2, 3)
    factor = TorusFactor(1, ((c,),))
    space = InternalSpace([factor])
    full = ProductWindow(space, (TorusRegion.full(factor),))
    assert full.measure() == c
    assert full.boundary_measure().is_zero()
    assert full.properties().topologically_regular
    half = ProductWindow(space, (TorusRegion(factor, (iv(0, Fraction(1, 2)),)),))
    assert half.measure() == c / 2
    assert half.properties().measure_regular


def test_torus_wraparound_interior_closure():
    factor = TorusFactor(1, ((Scalar(1),),))
    space = InternalSpace([factor])
    # piece through the seam: [0, 0.3) plus [0.7, 1) is one arc on the circle
    region = TorusRegion(factor, (IntervalSet([Interval(0, Fraction(3, 10)), Interval(Fraction(7, 10), 1)]),))
    w = ProductWindow(space, (region,))
    # 0 is an interior point of the glued arc
    inner = w.interior()
    assert inner.contains(space.point((Scalar(0),)))
    assert not inner.contains(space.point((Fraction(3, 10),)))
    cl = w.closure()
    assert cl.contains(space.point((Fraction(3, 10),)))
    assert cl.contains(space.point((Fraction(7, 10),)))
    assert w.measure() == Scalar(Fraction(3, 5))


def test_twisted_region_translate():
    twist = LINE.point((GOLDEN_CONJ,))
    f = TwistedExtensionFactor(LINE, 3, twist)
    space = InternalSpace([f])
    w = ProductWindow(space, (TwistedRegion(f, {1: interval_window(LINE, 0, 1)}),))
    # translating by residue 2 wraps 1+2 = 3 -> 0 and adds the twist
    t = space.point((LINE.zero(), 2))
    wt = w.translate(t)
    region = wt.regions[0]
    assert set(region.per_residue) == {0}
    base = region.per_residue[0]
    piece = base.regions[0].axes[0].pieces[0]
    assert piece.lo == GOLDEN_CONJ
    assert w.measure() == wt.measure()
    assert w.properties() == wt.properties()


def _checked_translate(iset, t):
    """``IntervalSet.translate`` through the checked constructors."""
    t = Scalar.of(t)
    return IntervalSet(Interval(p.lo + t, p.hi + t, p.lo_closed, p.hi_closed) for p in iset.pieces)


def _translate_cases():
    """(window, shifts) of every window kind, each shift exact: rational,
    quadratic, and the twist of the twisted factor."""
    c = Scalar.root(2, 3)
    twist = LINE.point((GOLDEN_CONJ,))
    tw = TwistedExtensionFactor(LINE, 3, twist)
    torus = InternalSpace([RealFactor(1), TorusFactor(1, ((c,),))])
    twisted = InternalSpace([tw])
    values = [Scalar(Fraction(3, 7)), Scalar.sqrt(2) - 1, GOLDEN_CONJ]
    gap = IntervalSet([Interval(2, 3, False, False), Interval(3, GOLDEN + 3, False, True)])
    arcs = IntervalSet([Interval(0, Fraction(3, 10)), Interval(Fraction(7, 10), 1)])
    lines = [
        interval_window(LINE, -1, GOLDEN - 1, False, True),
        UnionWindow(LINE, [interval_window(LINE, 0, 1), ProductWindow(LINE, (RealRegion((gap,)),))]),
        AugmentedWindow(interval_window(LINE, 0, 1, False, False),
                        [LINE.point((5,)), LINE.point((GOLDEN,))]),
    ]
    cases = [(w, [LINE.point((v,)) for v in values]) for w in lines]
    cases.append((
        ProductWindow(torus, (RealRegion((iv(0, GOLDEN),)), TorusRegion(torus.factors[1], (arcs,)))),
        [torus.point((v,), (v,)) for v in values],
    ))
    cases.append((
        ProductWindow(twisted, (TwistedRegion(tw, {
            1: interval_window(LINE, 0, 1),
            2: interval_window(LINE, GOLDEN_CONJ, 1, False, True),
        }),)),
        [twisted.point((LINE.point((v,)), r)) for v in values for r in range(3)],
    ))
    return cases


def test_exact_translate_equals_the_checked_construction(monkeypatch):
    # an exact shift of exact endpoints keeps the normal form, so the pieces
    # built unchecked equal those the checked constructors build
    rng = random.Random(37)
    for _ in range(200):
        iset = _random_real_set(rng)
        t = rng.choice([Scalar(Fraction(rng.randint(-40, 40), 16)), GOLDEN_CONJ * rng.randint(-3, 3)])
        moved = iset.translate(t)
        assert moved == _checked_translate(iset, t)
        assert moved.to_obj() == _checked_translate(iset, t).to_obj()
    cases = _translate_cases()
    trusted = [[w.translate(t) for t in shifts] for w, shifts in cases]
    monkeypatch.setattr(IntervalSet, "translate", _checked_translate)
    for (w, shifts), moved in zip(cases, trusted):
        checked = [w.translate(t) for t in shifts]
        assert moved == checked
        assert [m.to_obj() for m in moved] == [m.to_obj() for m in checked]
        assert [window_from_obj(m.space, m.to_obj()) for m in moved] == checked


def test_float_translate_takes_the_checked_path(monkeypatch):
    calls = []

    def counted(pieces):
        calls.append(1)
        return normalize(pieces)

    normalize = windows._normalize_pieces
    monkeypatch.setattr(windows, "_normalize_pieces", counted)
    apart = IntervalSet([Interval(0, 1), Interval(1 + Fraction(1, 10 ** 12), 2)])
    calls.clear()
    assert len(apart.translate(Fraction(1, 2)).pieces) == 2
    assert calls == []
    # a float shift rounds the two pieces FLOAT_EPS together, and the
    # checked path merges them, as it does for float endpoints
    merged = apart.translate(0.5)
    assert calls == [1]
    assert merged == IntervalSet.single(0.5, 2.5)
    floats = IntervalSet.single(0.25, 0.5)
    calls.clear()
    moved = floats.translate(Fraction(1, 3))
    assert calls == [1]
    assert moved == _checked_translate(floats, Fraction(1, 3))
    # an interval narrower than FLOAT_EPS is refused after a float shift
    narrow = IntervalSet.single(0, Fraction(1, 10 ** 12))
    assert narrow.translate(Fraction(1, 2)).measure() == Scalar(Fraction(1, 10 ** 12))
    with pytest.raises(ValueError, match="degenerate interval"):
        narrow.translate(0.5)
    with pytest.raises(ValueError, match="degenerate interval"):
        interval_window(LINE, 0, Fraction(1, 10 ** 12)).translate(LINE.point((Scalar.from_float(0.5),)))


def test_check_properties_examples():
    w = interval_window(LINE, -1, GOLDEN - 1)
    assert w.properties() == w.translate(LINE.point((Fraction(3, 7),))).properties()
    aug = AugmentedWindow(interval_window(LINE, 0, 1, False, False), [LINE.point((2,))])
    p = aug.properties()
    assert p.measure_regular and not p.topologically_regular


def test_eq11_chain_for_augmented():
    w = interval_window(LINE, -1, GOLDEN - 1, True, True)
    u = w.interior()
    aug = AugmentedWindow(u, [LINE.point((GOLDEN - 1,))])
    assert eq11_chain(w, aug)
    bad = AugmentedWindow(u, [LINE.point((5,))])
    assert not eq11_chain(w, bad)


def test_window_subset():
    a = interval_window(LINE, 0, 1, False, False)
    b = interval_window(LINE, 0, 1, True, True)
    c = interval_window(LINE, 0, 2)
    assert window_subset(a, b)
    assert not window_subset(b, a)
    assert window_subset(a, c)
    assert window_subset(empty_window(LINE), a)


def test_measure_monotone_under_interior_closure():
    rng = random.Random(11)
    for _ in range(25):
        lo = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        width = Fraction(rng.randint(0, 9), rng.randint(1, 4))
        w = interval_window(LINE, lo, lo + width, rng.random() < 0.5, rng.random() < 0.5) if width else ProductWindow(LINE, (RealRegion((IntervalSet.point(Scalar(lo)),)),))
        assert w.interior().measure() <= w.measure() <= w.closure().measure()


def test_augmented_certifier():
    flagged = []

    def certifier(p):
        flagged.append(p)
        return False

    aug = AugmentedWindow(
        interval_window(LINE, 0, 1, False, False), [LINE.point((2,))], certifier
    )
    assert aug.contains(LINE.point((Fraction(1, 2),)))
    assert aug.contains(LINE.point((2,)))
    with pytest.raises(OutOfCertifiedRangeError):
        aug.contains(LINE.point((3,)))


def test_window_serialization_roundtrip():
    c = Scalar.root(2, 3)
    torus = TorusFactor(1, ((c,),))
    twist = LINE.point((GOLDEN_CONJ,))
    tw = TwistedExtensionFactor(LINE, 3, twist)
    spaces_windows = []
    spaces_windows.append((LINE, interval_window(LINE, -1, GOLDEN - 1)))
    s2 = InternalSpace([RealFactor(1), IntegerRankFactor(1), FiniteCyclicFactor(4)])
    spaces_windows.append(
        (
            s2,
            ProductWindow(
                s2,
                (RealRegion((iv(0, 1),)), IntSetRegion(1, {(2,), (-1,)}), ResidueRegion(4, {0, 3})),
            ),
        )
    )
    s3 = InternalSpace([RealFactor(1), TorusFactor(1, ((c,),))])
    spaces_windows.append(
        (s3, ProductWindow(s3, (RealRegion((iv(0, GOLDEN),)), TorusRegion.full(s3.factors[1]))))
    )
    s4 = InternalSpace([tw])
    spaces_windows.append(
        (s4, ProductWindow(s4, (TwistedRegion(tw, {2: interval_window(LINE, 0, 1)}),)))
    )
    spaces_windows.append(
        (LINE, AugmentedWindow(interval_window(LINE, 0, 1, False, False), [LINE.point((5,))]))
    )
    spaces_windows.append((LINE, UnionWindow(LINE, [interval_window(LINE, 0, 1), interval_window(LINE, 4, 5)])))
    for space, w in spaces_windows:
        assert window_from_obj(space, w.to_obj()) == w


def test_point_window():
    p = LINE.point((GOLDEN,))
    w = point_window(LINE, p)
    assert w.contains(p)
    assert not w.contains(LINE.point((1,)))
    assert w.measure().is_zero()


def test_enum_rows_decide_per_piece():
    # every region kind gives its exact rows with whether they alone decide
    # membership: a twisted region residue by residue, a product when every
    # region does, an augmented window never
    torus = TorusFactor(1, ((Scalar(1),),))
    twisted = TwistedExtensionFactor(LINE, 2, LINE.point((GOLDEN_CONJ,)))
    two = iv(0, 1).union(iv(2, 3))
    S = Scalar
    cases = [
        (RealRegion((iv(0, 1),)), [([(S(0), S(1), False)], True)]),
        (RealRegion((iv(0, 1), two)), [([(S(0), S(1), False), (S(0), S(3), False)], False)]),
        (IntSetRegion(2, {(0, 5), (0, 6), (1, 5), (1, 6)}),
         [([(S(0), S(1), True), (S(5), S(6), True)], True)]),
        (IntSetRegion(2, {(0, 5), (1, 6)}), [([(S(0), S(1), True), (S(5), S(6), True)], False)]),
        (ResidueRegion(3, {0, 1, 2}), [([], True)]),
        (ResidueRegion(3, {0, 2}), [([], False)]),
        (TorusRegion.full(torus), [([], True)]),
        (TorusRegion(torus, (iv(0, Fraction(1, 2)),)), [([], False)]),
        (
            TwistedRegion(
                twisted, {1: ProductWindow(LINE, (RealRegion((two,)),)), 0: interval_window(LINE, 0, 1)}
            ),
            [([(S(0), S(1), False), (S(0), S(0), True)], True),
             ([(S(0), S(3), False), (S(1), S(1), True)], False)],
        ),
    ]
    for region, pieces in cases:
        assert region.enum_rows() == pieces, region.to_obj()
    mixed = InternalSpace([RealFactor(1), FiniteCyclicFactor(3)])
    product = ProductWindow(mixed, (RealRegion((iv(0, 1),)), ResidueRegion(3, {0})))
    assert product.enum_pieces() == [([(S(0), S(1), False)], False)]
    core = interval_window(LINE, 0, 1, False, False)
    assert [decides for _, decides in core.enum_pieces()] == [True]
    augmented = AugmentedWindow(core, [LINE.point((2,))])
    assert augmented.enum_pieces() == [
        ([(S(0), S(1), False)], False), ([(S(2), S(2), False)], False)
    ]


def test_torus_point_at_one_is_zero():
    # a point moved onto 1 of the circle lies at 0, the same point
    c = Scalar.root(2, 3)
    f = TorusFactor(1, ((c,),))
    space = InternalSpace([f])
    p = space.point((c / 2,))
    moved = point_window(space, p).translate(p)
    assert moved == point_window(space, space.zero())
    assert moved.contains(space.zero()) and not moved.contains(p)
    at_one = TorusRegion(f, (IntervalSet.point(1),))
    assert at_one == TorusRegion(f, (IntervalSet.point(0),))
    assert at_one.contains((Scalar(0),))


def test_product_and_union_equality_and_hash():
    w = interval_window(LINE, 0, 1)
    one = UnionWindow(LINE, [w])
    assert one == w and w == one
    assert hash(one) == hash(w)
    assert one in {w} and w in {one}
    empties = (empty_window(LINE), interval_window(LINE, 0, 0, False, False))
    assert empties[0] == empties[1] and hash(empties[0]) == hash(empties[1])
    both = UnionWindow(LINE, [w, interval_window(LINE, 2, 3)])
    assert both != w and w != both
    assert both != interval_window(LINE, 2, 3)
    assert both not in {w, interval_window(LINE, 2, 3)}


ROOT_TORUS = TorusFactor(1, ((Scalar.root(2, 3),),))


def test_torus_open_piece_of_length_one_leaves_its_end_out():
    # (1/4, 5/4) runs once round the circle and misses the point 1/4
    region = TorusRegion(ROOT_TORUS, (iv(Fraction(1, 4), Fraction(5, 4), False, False),))
    assert not region.contains((Fraction(1, 4),))
    assert region.contains((Fraction(1, 8),)) and region.contains((0,))
    assert region != TorusRegion.full(ROOT_TORUS)
    assert region.is_open()


def test_torus_circle_minus_a_point_is_open():
    quarter = Fraction(1, 4)
    axis = IntervalSet([Interval(0, quarter, True, False), Interval(quarter, 1, False, False)])
    region = TorusRegion(ROOT_TORUS, (axis,))
    assert region.interior() == region
    assert region.closure() == TorusRegion.full(ROOT_TORUS)
    assert region.fill_gap((quarter,)) == TorusRegion.full(ROOT_TORUS)


def test_torus_open_arc_across_zero_is_open():
    quarter = Fraction(1, 4)
    region = TorusRegion(ROOT_TORUS, (iv(-quarter, quarter, False, False),))
    assert region.is_open()
    space = InternalSpace([ROOT_TORUS])
    core = ProductWindow(space, (region,))
    star = space.point((Fraction(1, 2),))
    assert AugmentedWindow(core, [star]).contains(star)


def _circle_oracle(iset):
    """Membership of a real set read modulo 1, by its copies."""
    return lambda x: any(iset.contains(Scalar(x + k)) for k in range(-4, 5))


def _random_real_set(rng):
    pieces = []
    for _ in range(rng.randint(0, 3)):
        lo = Fraction(rng.randint(-12, 20), 8)
        hi = min(lo + Fraction(rng.randint(0, 10), 8), Fraction(5, 2))
        lc, hc = rng.random() < 0.5, rng.random() < 0.5
        if lo < hi or (lc and hc):
            pieces.append(Interval(lo, hi, lc, hc))
    return IntervalSet(pieces)


def test_torus_region_ops_match_brute_force_on_the_circle():
    # endpoints lie on the 1/8 grid, so around each point of the 1/16 grid a
    # set is constant on either side within 1/64, and a closed set meets
    # another on the grid if at all
    rng = random.Random(28)
    grid = [Fraction(i, 16) for i in range(16)]
    eps = Fraction(1, 64)
    previous = None
    for _ in range(300):
        iset = _random_real_set(rng)
        inside = _circle_oracle(iset)
        region = TorusRegion(ROOT_TORUS, (iset,))
        interior, closure = region.interior(), region.closure()
        is_open = True
        closed_at = set()
        for x in grid:
            near = (inside(x - eps), inside(x), inside(x + eps))
            assert region.contains((x,)) == near[1], (iset, x)
            assert interior.contains((x,)) == all(near), (iset, x)
            assert closure.contains((x,)) == any(near), (iset, x)
            gap = near == (True, False, True)
            filled = region.fill_gap((x,))
            assert (filled is not None) == (near[1] or gap), (iset, x)
            if gap:
                assert filled.contains((x,)) and region.subset(filled)
            is_open = is_open and (all(near) or not near[1])
            if any(near):
                closed_at.add(x)
        assert region.is_open() == is_open, iset
        if previous is not None:
            other, other_closed_at = previous
            assert region.separated_from(other) == (not closed_at & other_closed_at), iset
        previous = (region, closed_at)


def _random_points(rng, factor):
    """A random finite set of canonical coordinates of a discrete factor:
    integer vectors in a small cube, or residues."""
    if factor.kind == "integer":
        return {
            tuple(rng.randint(-3, 3) for _ in range(factor.rank)) for _ in range(rng.randint(0, 6))
        }
    return {rng.randrange(factor.modulus) for _ in range(rng.randint(0, factor.modulus))}


def _finite_region(factor, points):
    if factor.kind == "integer":
        return IntSetRegion(factor.rank, points)
    return ResidueRegion(factor.modulus, points)


@pytest.mark.parametrize(
    "factors",
    [
        [IntegerRankFactor(1), IntegerRankFactor(2)],
        [FiniteCyclicFactor(m) for m in range(2, 7)],
    ],
    ids=["integer", "cyclic"],
)
def test_finite_region_ops_match_python_sets(factors):
    rng = random.Random(31)
    for _ in range(200):
        f = rng.choice(factors)
        pa, pb = _random_points(rng, f), _random_points(rng, f)
        a, b = _finite_region(f, pa), _finite_region(f, pb)
        probe = next(iter(_random_points(rng, f) or {f.zero()}))
        if f.kind == "integer":
            shift = tuple(rng.randint(-4, 4) for _ in range(f.rank))
            moved = {tuple(x + t for x, t in zip(p, shift)) for p in pa}
        else:
            shift = rng.randrange(f.modulus)
            moved = {(r + shift) % f.modulus for r in pa}
        assert a.factor == f and a.points == frozenset(pa)
        assert a.is_empty() == (not pa)
        assert a.contains(probe) == (probe in pa)
        assert a.measure() == Scalar(len(pa))
        assert a.translate(shift) == _finite_region(f, moved)
        assert a.subset(b) == (pa <= pb)
        assert a.separated_from(b) == (not pa & pb)
        assert a.corner_coords() == sorted(pa)
        assert a.interior() == a == a.closure() and a.is_open() and a.is_top_regular()
        if f.kind == "cyclic":
            assert a.enum_rows() == [([], len(pa) == f.modulus)]
        elif pa:
            axes = list(zip(*pa))
            full = set(itertools.product(*(range(min(x), max(x) + 1) for x in axes)))
            rows = [(Scalar(min(x)), Scalar(max(x)), True) for x in axes]
            assert a.enum_rows() == [(rows, pa == full)]


def test_finite_region_json_spelling():
    # the JSON of both discrete kinds, byte for byte, and back
    ints = IntSetRegion(2, {(1, -2), (0, 5), (1, -3)})
    residues = ResidueRegion(5, {7, 0, -1})
    assert json.dumps(ints.to_obj()) == (
        '{"region": "integer", "rank": 2, "points": [[0, 5], [1, -3], [1, -2]]}'
    )
    assert json.dumps(residues.to_obj()) == '{"region": "cyclic", "modulus": 5, "residues": [0, 2, 4]}'
    space = InternalSpace([IntegerRankFactor(2), FiniteCyclicFactor(5)])
    w = ProductWindow(space, (ints, residues))
    assert json.dumps(w.to_obj()) == (
        '{"kind": "product", "regions": ['
        '{"region": "integer", "rank": 2, "points": [[0, 5], [1, -3], [1, -2]]}, '
        '{"region": "cyclic", "modulus": 5, "residues": [0, 2, 4]}]}'
    )
    assert window_from_obj(space, json.loads(json.dumps(w.to_obj()))) == w


def test_equal_regions_of_every_kind_hash_alike():
    torus = TorusFactor(1, ((Scalar.root(2, 3),),))
    twisted = TwistedExtensionFactor(LINE, 2, LINE.point((GOLDEN_CONJ,)))
    pairs = [
        (RealRegion((iv(0, 1),)), RealRegion((IntervalSet([Interval(0, Fraction(1, 2)),
                                                           Interval(Fraction(1, 2), 1)]),))),
        (IntSetRegion(1, [(2,), (3,)]), IntSetRegion(1, ([3], [2], (2,)))),
        (ResidueRegion(4, {1, 3}), ResidueRegion(4, {-1, 5})),
        (TorusRegion(torus, (iv(0, Fraction(1, 2)),)), TorusRegion(torus, (iv(1, Fraction(3, 2)),))),
        (TwistedRegion(twisted, {1: interval_window(LINE, 0, 1)}),
         TwistedRegion(twisted, {1: interval_window(LINE, 0, 1), 0: empty_window(LINE)})),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    regions = [a for a, _ in pairs]
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            assert a != b
    # one coordinate set, two kinds: never equal
    assert IntSetRegion(1, {(0,), (1,)}) != ResidueRegion(2, {0, 1})
    assert ResidueRegion(2, {0}) != IntSetRegion(1, {(0,)})
    assert IntSetRegion(1, ()) != ResidueRegion(2, ())
    assert IntSetRegion(1, {(1,)}) != IntSetRegion(2, {(1, 0)})
    assert ResidueRegion(2, {1}) != ResidueRegion(3, {1})


def test_finite_region_refuses_a_point_of_the_wrong_arity():
    with pytest.raises(SpaceMismatchError, match="arity"):
        IntSetRegion(2, {(1,)})
    with pytest.raises(SpaceMismatchError, match="arity"):
        IntSetRegion(1, {(1, 2)})
    with pytest.raises(SpaceMismatchError, match="arity"):
        window_from_obj(
            InternalSpace([IntegerRankFactor(2)]),
            {"kind": "product", "regions": [{"region": "integer", "rank": 2, "points": [[1, 2, 3]]}]},
        )
