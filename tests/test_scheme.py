import itertools
import random
from fractions import Fraction

import pytest

from cutproject import linalg
from cutproject.fibonacci import fibonacci_scheme
from cutproject.internal_space import (
    FiniteCyclicFactor,
    IntegerRankFactor,
    InternalSpace,
    RealFactor,
    TorusFactor,
    TwistedExtensionFactor,
)
from cutproject.scalars import GOLDEN, GOLDEN_CONJ, SQRT5, ExactnessError, Scalar
from cutproject.scheme import (
    AveragingSequence,
    Box,
    CutProjectScheme,
    EnumerationOverflowError,
    Patch,
    SchemeError,
)
from cutproject.transforms import lift_window, star_injectivity_exhaustive, translate_cps
from cutproject.windows import (
    IntervalSet,
    ProductWindow,
    RealRegion,
    ResidueRegion,
    TorusRegion,
    TwistedRegion,
    UnionWindow,
    empty_window,
    interval_window,
)

LINE = InternalSpace([RealFactor(1)])


# Independent sign arithmetic for a + b*sqrt5 over plain ints, used to give
# the enumeration tests an oracle that shares no code with the package.


def sign_quad(a: Fraction, b: Fraction) -> int:
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    lhs = a * a
    rhs = 5 * b * b
    if a > 0:  # b < 0
        return 1 if lhs > rhs else (0 if lhs == rhs else -1)
    return -1 if lhs > rhs else (0 if lhs == rhs else 1)


def golden_value_cmp(p, q, target_a, target_b):
    """sign((p + q*golden) - (target_a + target_b*sqrt5))."""
    a = Fraction(p) + Fraction(q, 2) - target_a
    b = Fraction(q, 2) - target_b
    return sign_quad(a, b)


def brute_force_fibonacci(box_lo, box_hi, star_lo, star_hi, lo_closed, hi_closed, bound=60):
    """All p + q*golden in [box_lo, box_hi] with conjugate in the window."""
    out = set()
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if golden_value_cmp(p, q, Fraction(box_lo), Fraction(0)) < 0:
                continue
            if golden_value_cmp(p, q, Fraction(box_hi), Fraction(0)) > 0:
                continue
            # conjugate: p + q*(1-sqrt5)/2
            a = Fraction(p) + Fraction(q, 2)
            b = Fraction(-q, 2)
            s_lo = sign_quad(a - star_lo[0], b - star_lo[1])
            s_hi = sign_quad(a - star_hi[0], b - star_hi[1])
            if s_lo < 0 or (s_lo == 0 and not lo_closed):
                continue
            if s_hi > 0 or (s_hi == 0 and not hi_closed):
                continue
            out.add((p, q))
    return out


def test_fibonacci_density_and_star():
    scheme = fibonacci_scheme()
    assert scheme.lattice_density() == SQRT5 / 5  # 1/sqrt5
    assert scheme.covolume() == SQRT5
    assert scheme.star((0, 1)) == LINE.point((GOLDEN_CONJ,))
    assert scheme.star((0, 0)) == LINE.zero()
    # 1 + golden = golden^2 maps to 1 + conj = conj^2
    assert scheme.star((1, 1)) == LINE.point((GOLDEN_CONJ ** 2,))


def test_project_points_against_brute_force():
    scheme = fibonacci_scheme()
    w = interval_window(LINE, 0, Fraction(1, 2))  # [0, 1/2)
    patch = scheme.project_points(Box.interval(0, 20), w)
    expected = brute_force_fibonacci(
        0, 20, (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), True, False
    )
    assert set(patch.coords) == expected
    for (x,), n in zip(patch.points, patch.coords):
        assert x == Scalar(n[0]) + GOLDEN * n[1]


def test_project_points_random_windows_brute_force():
    scheme = fibonacci_scheme()
    rng = random.Random(101)
    for _ in range(6):
        alo = Fraction(rng.randint(-8, 0), 4)
        width = Fraction(rng.randint(1, 8), 4)
        lo_closed = rng.random() < 0.5
        w = interval_window(LINE, alo, alo + width, lo_closed, not lo_closed)
        blo, bhi = sorted(rng.sample(range(-25, 25), 2))
        patch = scheme.project_points(Box.interval(blo, bhi), w)
        expected = brute_force_fibonacci(
            blo, bhi, (alo, Fraction(0)), (alo + width, Fraction(0)),
            lo_closed, not lo_closed,
        )
        assert set(patch.coords) == expected


def test_exhaustiveness_on_random_small_schemes():
    # enumeration must agree with a direct scan over a coordinate cube
    rng = random.Random(77)
    for trial in range(4):
        g2 = Scalar(Fraction(rng.randint(2, 9), rng.randint(1, 3))) + SQRT5 * Fraction(1, rng.randint(2, 5))
        h2 = Scalar(Fraction(rng.randint(-5, 5), 3)) - SQRT5 * Fraction(1, rng.randint(2, 4))
        try:
            scheme = CutProjectScheme(
                1,
                LINE,
                [((Scalar(1),), LINE.point((1,))), ((g2,), LINE.point((h2,)))],
            )
        except SchemeError:
            continue
        lo = Fraction(rng.randint(-4, 0), 2)
        w = interval_window(LINE, lo, lo + Fraction(rng.randint(1, 6), 2))
        box = Box.interval(-9, 9)
        patch = scheme.project_points(box, w)
        brute = set()
        for n1 in range(-30, 31):
            for n2 in range(-30, 31):
                d, s = scheme.point_of((n1, n2))
                if box.contains(d) and w.contains(s):
                    brute.add((n1, n2))
        assert set(patch.coords) == brute


def test_empty_and_zero_window_cases():
    scheme = fibonacci_scheme()
    assert len(scheme.project_points(Box.interval(0, 10), empty_window(LINE))) == 0
    w = interval_window(LINE, -1, GOLDEN - 1)
    patch = scheme.project_points(Box.interval(0, 0), w)
    assert patch.points == ((Scalar(0),),)


def test_monotone_in_window():
    scheme = fibonacci_scheme()
    w1 = interval_window(LINE, 0, Fraction(1, 4))
    w2 = interval_window(LINE, -1, GOLDEN - 1)
    box = Box.interval(-15, 15)
    p1 = scheme.project_points(box, w1)
    p2 = scheme.project_points(box, w2)
    assert p1.point_set() <= p2.point_set()


def test_translation_covariance():
    scheme = fibonacci_scheme()
    w = interval_window(LINE, 0, Fraction(1, 2))
    n0 = (2, -1)
    shift, internal = scheme.point_of(n0)
    box = Box.interval(-10, 10)
    lhs = scheme.project_points(box.translate(shift), w.translate(internal))
    rhs = scheme.project_points(box, w).translate(shift)
    assert lhs == rhs


def test_commensurability_exact():
    scheme = fibonacci_scheme()
    res = scheme.is_commensurate((GOLDEN / 3,), bound=100)
    assert res.status == "commensurate" and res.m == 3 and res.n == (0, 1)
    res = scheme.is_commensurate((Scalar(5),), bound=100)
    assert res.status == "commensurate" and res.m == 1 and res.n == (5, 0)
    res = scheme.is_commensurate((Scalar.sqrt(2),), bound=10 ** 6)
    assert res.status == "incommensurate"
    # minimal multiple exceeds the bound: reported as not commensurate within it
    res = scheme.is_commensurate((GOLDEN / 1000,), bound=10)
    assert res.status == "incommensurate"
    with pytest.raises(SchemeError):
        scheme.is_commensurate((Scalar(0),), bound=10)


def test_commensurability_float_heuristic():
    space = InternalSpace([RealFactor(1)])
    scheme = CutProjectScheme(
        1,
        space,
        [
            ((Scalar.from_float(1.0),), space.point((Scalar.from_float(1.0),))),
            ((Scalar.from_float(1.618033988749895),), space.point((Scalar.from_float(-0.618033988749895),))),
        ],
    )
    res = scheme.is_commensurate((Scalar.from_float(1.618033988749895 / 3),), bound=100)
    assert res.status == "commensurate" and res.heuristic
    assert res.m == 3
    res = scheme.is_commensurate((Scalar.from_float(2 ** 0.5),), bound=50)
    assert res.status == "unknown"


def test_integer_lattice_schemes():
    # the square lattice in R x R projects non-injectively; the density
    # formula is still exercised with the strict check relaxed
    plane = InternalSpace([RealFactor(1)])
    sq = CutProjectScheme(
        1,
        plane,
        [((Scalar(1),), plane.point((0,))), ((Scalar(0),), plane.point((1,)))],
        require_injective=False,
    )
    assert not sq.direct_injective
    assert sq.lattice_density() == Scalar(1)
    scaled = CutProjectScheme(
        1,
        plane,
        [((Scalar(2),), plane.point((0,))), ((Scalar(0),), plane.point((1,)))],
        require_injective=False,
    )
    assert scaled.lattice_density() == Scalar(Fraction(1, 2))


def test_cyclic_factor_scheme():
    space = InternalSpace([FiniteCyclicFactor(2)])
    scheme = CutProjectScheme(1, space, [((Scalar(Fraction(1, 2)),), space.point(1))])
    assert scheme.covolume() == Scalar(1)
    w_even = ProductWindow(space, (ResidueRegion(2, {0}),))
    patch = scheme.project_points(Box.interval(0, 10), w_even)
    assert [float(x) for (x,) in patch.points] == [float(k) for k in range(11)]
    w_full = ProductWindow(space, (ResidueRegion(2, {0, 1}),))
    patch = scheme.project_points(Box.interval(0, 3), w_full)
    assert [float(x) for (x,) in patch.points] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def test_trivial_internal_space():
    trivial = InternalSpace([])
    scheme = CutProjectScheme(1, trivial, [((Scalar(1),), trivial.zero())])
    w = ProductWindow(trivial, ())
    patch = scheme.project_points(Box.interval(-3, 3), w)
    assert len(patch) == 7
    assert scheme.lattice_density() == Scalar(1)


def test_twisted_scheme_enumeration():
    # hand-built quotient extension of the golden-ring embedding by a = golden/3
    twist = LINE.point((GOLDEN_CONJ,))
    f = TwistedExtensionFactor(LINE, 3, twist)
    space = InternalSpace([f])
    scheme = CutProjectScheme(
        1,
        space,
        [
            ((Scalar(1),), space.point((LINE.point((1,)), 0))),
            ((GOLDEN / 3,), space.point((LINE.zero(), 1))),
        ],
    )
    assert scheme.covolume() == SQRT5
    base_w = interval_window(LINE, -1, GOLDEN - 1)
    w = ProductWindow(space, (TwistedRegion(f, {0: base_w}),))
    patch = scheme.project_points(Box.interval(-10, 10), w)
    # residue 0 selects exactly the original golden-ring model set
    fib = fibonacci_scheme().project_points(Box.interval(-10, 10), base_w)
    assert patch.point_set() == fib.point_set()
    brute = set()
    for n1 in range(-40, 41):
        for n2 in range(-40, 41):
            d, s = scheme.point_of((n1, n2))
            if Box.interval(-10, 10).contains(d) and w.contains(s):
                brute.add(d)
    assert {p[0] for p in patch.points} == {b[0] for b in brute}


def test_torus_factor_scheme_full_window_matches_plain():
    c = Scalar.root(2, 3)
    torus = TorusFactor(1, ((c,),))
    space = InternalSpace([RealFactor(1), torus])
    scheme = CutProjectScheme(
        1,
        space,
        [
            ((Scalar(1),), space.point((Scalar(1),), (Scalar(1),))),
            ((GOLDEN,), space.point((GOLDEN_CONJ,), (GOLDEN,))),
        ],
    )
    assert scheme.covolume() == SQRT5 * c
    w = ProductWindow(
        space,
        (RealRegion((IntervalSet.single(-1, GOLDEN - 1),)), TorusRegion.full(torus)),
    )
    patch = scheme.project_points(Box.interval(-20, 20), w)
    plain = fibonacci_scheme().project_points(
        Box.interval(-20, 20), interval_window(LINE, -1, GOLDEN - 1)
    )
    assert patch.point_set() == plain.point_set()


def test_lattice_coords_roundtrip():
    scheme = fibonacci_scheme()
    rng = random.Random(5)
    for _ in range(20):
        n = (rng.randint(-30, 30), rng.randint(-30, 30))
        g, h = scheme.point_of(n)
        assert scheme.lattice_coords_of(g, h) == n
    # a point off the lattice
    assert scheme.lattice_coords_of((Scalar.sqrt(2),), LINE.zero()) is None


def test_star_kernel_witness():
    assert fibonacci_scheme().star_kernel_witness() is None
    space = InternalSpace([RealFactor(1)])
    degenerate = CutProjectScheme(
        1, space, [((Scalar(1),), space.point((0,))), ((GOLDEN,), space.point((1,)))]
    )
    witness = degenerate.star_kernel_witness()
    assert witness is not None and witness[1] == 0 and witness[0] != 0


def test_twisted_kernel_keeps_base_congruences():
    # the base's cyclic congruence must enter the twisted kernel system:
    # 2 * (1, 1) - 2 * (1, 0) is zero in R x C2 only modulo 2
    base = InternalSpace([RealFactor(1), FiniteCyclicFactor(2)])
    plain_gens = [(1, base.point(1, 1)), (GOLDEN, base.point(1, 0))]
    assert CutProjectScheme(1, base, plain_gens).star_kernel_witness() == (2, -2)
    space = InternalSpace([TwistedExtensionFactor(base, 1, base.zero())])
    twisted = CutProjectScheme(1, space, [(g, space.point((h, 0))) for g, h in plain_gens])
    assert twisted.star((2, -2)) == space.zero()
    assert twisted.star_kernel_witness() == (2, -2)


def torus_kernel_scheme():
    """R x T with torus basis root(2,3), where star((1, 1)) is zero."""
    c = Scalar.root(2, 3)
    space = InternalSpace([RealFactor(1), TorusFactor(1, ((c,),))])
    return CutProjectScheme(1, space, [
        ((Scalar(1),), space.point((1,), (c / 2,))),
        ((GOLDEN,), space.point((-1,), (c / 2,))),
    ])


def test_torus_kernel_uses_basis_coefficients():
    # torus coordinates are basis coefficients: the two halves of the basis
    # vector add up to zero on the torus
    scheme = torus_kernel_scheme()
    assert scheme.star((1, 1)) == scheme.space.zero()
    witness = scheme.star_kernel_witness()
    assert witness is not None and any(witness)
    assert scheme.star(witness) == scheme.space.zero()


def _small_value(rng):
    # rational values are Q-dependent, golden ones mostly not
    return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) + GOLDEN * rng.choice((0, 0, 1, -1))


def random_kernel_scheme(rng, family):
    """A small exact scheme over R times one factor of the given family."""
    x = [(_small_value(rng),) for _ in range(3)]
    if family == "real":
        space = InternalSpace([RealFactor(1)])
        internal = [space.point(x[i]) for i in range(2)]
    elif family == "integer":
        space = InternalSpace([RealFactor(1), IntegerRankFactor(1)])
        internal = [space.point(x[i], (rng.randint(-2, 2),)) for i in range(3)]
    elif family == "cyclic":
        m = rng.choice((2, 3))
        space = InternalSpace([RealFactor(1), FiniteCyclicFactor(m)])
        internal = [space.point(x[i], rng.randrange(m)) for i in range(2)]
    elif family == "torus":
        c = Scalar.root(2, 3)
        space = InternalSpace([RealFactor(1), TorusFactor(1, ((c,),))])
        internal = [space.point(x[i], (c * Fraction(rng.randint(0, 3), 4),)) for i in range(2)]
    else:
        base = InternalSpace([RealFactor(1), FiniteCyclicFactor(2)])
        twist = base.point((_small_value(rng),), rng.randrange(2))
        f = TwistedExtensionFactor(base, rng.choice((1, 2, 3)), twist)
        space = InternalSpace([f])
        internal = [
            space.point((base.point(x[i], rng.randrange(2)), rng.randrange(3))) for i in range(2)
        ]
    directs = (Scalar(1), GOLDEN, Scalar.sqrt(2))
    return CutProjectScheme(1, space, [((g,), h) for g, h in zip(directs, internal)])


def test_kernel_proof_agrees_with_the_cube_walk():
    # the exact kernel proof must find a kernel whenever the walk over
    # |n_i| <= 4 finds two equal stars, and what it finds must be a kernel
    rng = random.Random(2024)
    outcomes = set()
    for family in ("real", "integer", "cyclic", "torus", "twisted"):
        for _ in range(12):
            scheme = random_kernel_scheme(rng, family)
            injective_on_cube, _ = star_injectivity_exhaustive(scheme, 4)
            witness = scheme.star_kernel_witness()
            if witness is not None:
                assert any(witness) and scheme.star(witness) == scheme.space.zero()
            assert injective_on_cube or witness is not None
            outcomes.add((family, injective_on_cube))
    assert len(outcomes) == 10, sorted(outcomes)


def test_rank_law_enforced():
    with pytest.raises(SchemeError):
        CutProjectScheme(1, LINE, [((Scalar(1),), LINE.point((1,)))])


def test_direct_injectivity_enforced():
    space = InternalSpace([RealFactor(1)])
    with pytest.raises(SchemeError):
        CutProjectScheme(
            1,
            space,
            [((Scalar(1),), space.point((1,))), ((Scalar(2),), space.point((GOLDEN,)))],
        )


def test_enumeration_overflow_budget():
    scheme = fibonacci_scheme()
    w = interval_window(LINE, -1, GOLDEN - 1)
    with pytest.raises(EnumerationOverflowError):
        scheme.project_points(Box.interval(-10000, 10000), w, max_candidates=100)


def test_patch_serialization_and_csv():
    scheme = fibonacci_scheme()
    w = interval_window(LINE, -1, GOLDEN - 1)
    patch = scheme.project_points(Box.interval(-5, 5), w)
    again = Patch.from_obj(patch.to_obj())
    assert again == patch and again.coords == patch.coords
    text = patch.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "x1,n1,n2"
    assert len(lines) == len(patch) + 1


def test_scheme_serialization_roundtrip():
    schemes = [fibonacci_scheme()]
    c = Scalar.root(2, 3)
    torus = TorusFactor(1, ((c,),))
    space = InternalSpace([RealFactor(1), torus])
    schemes.append(
        CutProjectScheme(
            1,
            space,
            [
                ((Scalar(1),), space.point((Scalar(1),), (Scalar(1),))),
                ((GOLDEN,), space.point((GOLDEN_CONJ,), (GOLDEN,))),
            ],
        )
    )
    for s in schemes:
        t = CutProjectScheme.from_obj(s.to_obj())
        assert t == s
        assert t.scheme_id == s.scheme_id


def test_internal_density_heuristic():
    assert fibonacci_scheme().internal_density_heuristic(bound=15) is True
    space = InternalSpace([RealFactor(1)])
    sparse = CutProjectScheme(
        1, space, [((Scalar(1),), space.point((0,))), ((GOLDEN,), space.point((1,)))]
    )
    # star image is the integers: nowhere near dense
    assert sparse.internal_density_heuristic(bound=6) is False


def test_internal_density_heuristic_answers_each_bound():
    # fibonacci_scheme() is shared, so an answer kept from one call would
    # decide every later call in the process
    scheme = fibonacci_scheme()
    assert scheme.internal_density_heuristic(bound=1) is False
    assert scheme.internal_density_heuristic(bound=15) is True
    assert fibonacci_scheme().internal_density_heuristic(bound=1) is False


def golden_square_scheme():
    """Product of two golden-ring embeddings: d = 2, H = R^2, rank 4."""
    space = InternalSpace([RealFactor(2)])
    z = Scalar(0)
    gens = [
        ((Scalar(1), z), space.point((Scalar(1), z))),
        ((GOLDEN, z), space.point((GOLDEN_CONJ, z))),
        ((z, Scalar(1)), space.point((z, Scalar(1)))),
        ((z, GOLDEN), space.point((z, GOLDEN_CONJ))),
    ]
    scheme = CutProjectScheme(2, space, gens)
    w = ProductWindow(
        space,
        (RealRegion((IntervalSet.single(-1, GOLDEN - 1, False, True),) * 2),),
    )
    return scheme, w


def test_two_dimensional_direct_space():
    scheme, w = golden_square_scheme()
    assert scheme.covolume() == SQRT5 * SQRT5
    box = Box([-8, -8], [8, 8])
    patch = scheme.project_points(box, w)
    # the patch is the cartesian product of the one-dimensional patches
    line = fibonacci_scheme().project_points(
        Box.interval(-8, 8), interval_window(LINE, -1, GOLDEN - 1, False, True)
    )
    expected = {(a[0], b[0]) for a in line.points for b in line.points}
    assert patch.point_set() == expected


def test_union_window_enumeration():
    scheme = fibonacci_scheme()
    from cutproject.windows import UnionWindow

    w1 = interval_window(LINE, Fraction(-1, 2), Fraction(-1, 4))
    w2 = interval_window(LINE, Fraction(1, 4), Fraction(1, 2))
    union = UnionWindow(LINE, [w1, w2])
    box = Box.interval(-25, 25)
    patch = scheme.project_points(box, union)
    p1 = scheme.project_points(box, w1)
    p2 = scheme.project_points(box, w2)
    assert patch.point_set() == p1.point_set() | p2.point_set()


def cube_scan(scheme, box, window, bound):
    """Every lattice point with coordinates in [-bound, bound]^rank, filtered."""
    out = set()
    for n in itertools.product(range(-bound, bound + 1), repeat=scheme.rank):
        d, s = scheme.point_of(n)
        if box.contains(d) and window.contains(s):
            out.add(n)
    return out


def test_exhaustiveness_at_rank_three_and_four():
    # inner levels with two or more free columns, against a coordinate cube;
    # points in these boxes have every coordinate within +-4
    fib = fibonacci_scheme()
    base = interval_window(LINE, -1, GOLDEN - 1)
    ext = translate_cps(fib, (Scalar.sqrt(2),), 10 ** 6).scheme
    box = Box.interval(-5, 6)
    for k in (-1, 0, 1):
        w = lift_window(base, k, ext)
        patch = ext.project_points(box, w)
        assert len(patch) > 0
        assert set(patch.coords) == cube_scan(ext, box, w, 6)
    union = UnionWindow(
        LINE,
        [
            interval_window(LINE, -1, Fraction(-1, 3)),
            interval_window(LINE, Fraction(1, 5), GOLDEN - 1, False, True),
        ],
    )
    w = lift_window(union, 1, ext)
    patch = ext.project_points(box, w)
    assert len(patch) > 0
    assert set(patch.coords) == cube_scan(ext, box, w, 6)
    square, w = golden_square_scheme()
    box = Box([-2, -3], [3, 2])
    patch = square.project_points(box, w)
    assert len(patch) > 0
    assert set(patch.coords) == cube_scan(square, box, w, 4)


def test_enumeration_work_bound(monkeypatch):
    # at most two candidates reach the exact box check per accepted point
    calls = 0
    contains = Box.contains

    def counted(self, point):
        nonlocal calls
        calls += 1
        return contains(self, point)

    monkeypatch.setattr(Box, "contains", counted)
    fib = fibonacci_scheme()
    base = interval_window(LINE, -1, GOLDEN - 1)
    cases = [(fib, Box.symmetric(800), base)]
    twisted = translate_cps(fib, (GOLDEN / 3,), 100).scheme
    assert isinstance(twisted.space.factors[0], TwistedExtensionFactor)
    cases += [(twisted, Box.symmetric(100), lift_window(base, k, twisted)) for k in (-1, 0, 1)]
    for scheme, box, w in cases:
        calls = 0
        patch = scheme.project_points(box, w)
        assert len(patch) > 100
        assert calls <= 2 * len(patch)


def differential_cases():
    """Schemes of every enumeration shape, each with a box and a window."""
    fib = fibonacci_scheme()
    base = interval_window(LINE, -1, GOLDEN - 1)
    float_fib = CutProjectScheme(
        1,
        LINE,
        [
            ((Scalar(1),), LINE.point((1,))),
            ((Scalar.from_float(float(GOLDEN)),), LINE.point((Scalar.from_float(float(GOLDEN_CONJ)),))),
        ],
    )
    union = UnionWindow(
        LINE,
        [
            interval_window(LINE, -1, Fraction(-1, 5)),
            interval_window(LINE, Fraction(1, 10), GOLDEN - 1, True, False),
        ],
    )
    sqrt2 = translate_cps(fib, (Scalar.sqrt(2),), 10 ** 6).scheme
    twisted = translate_cps(fib, (GOLDEN / 3,), 100).scheme
    assert twisted.lift_size > twisted.rank  # a relation column in the walk
    torus = torus_kernel_scheme()
    torus_w = ProductWindow(
        torus.space,
        (
            RealRegion((IntervalSet.single(-2, 2),)),
            TorusRegion.ball(torus.space.factors[1], (Fraction(1, 2),), Fraction(1, 10)),
        ),
    )
    cyclic_space = InternalSpace([RealFactor(1), FiniteCyclicFactor(2)])
    cyclic = CutProjectScheme(
        1, cyclic_space, [(1, cyclic_space.point(1, 1)), (GOLDEN, cyclic_space.point(1, 0))]
    )
    cyclic_w = ProductWindow(
        cyclic_space, (RealRegion((IntervalSet.single(-3, 3),)), ResidueRegion(2, {1}))
    )
    return [
        (fib, Box.interval(-300, 250), base),
        (float_fib, Box.interval(-300, 250), base),
        (fib, Box.interval(-200, 200), union),
        (sqrt2, Box.interval(-80, 60), lift_window(base, 2, sqrt2)),
        (twisted, Box.interval(-40, 40), lift_window(base, -1, twisted)),
        (torus, Box.interval(-30, 30), torus_w),
        (cyclic, Box.interval(-30, 30), cyclic_w),
    ]


@pytest.mark.parametrize("case", range(7))
def test_enumeration_matches_direct_and_star(case):
    # the enumerator re-sums only changed coordinates and skips the patch's
    # per-point re-check; neither may change a bit of its output
    scheme, box, window = differential_cases()[case]
    patch = scheme.project_points(box, window)
    assert len(patch) > 10
    for n, point in zip(patch.coords, patch.points):
        assert repr(point) == repr(scheme.direct(n))
        assert window.contains(scheme.star(n))
    assert all(a < b for a, b in zip(patch.points, patch.points[1:]))
    checked = Patch(patch.points[::-1], box, patch.scheme_id, patch.coords[::-1])
    assert checked.points == patch.points
    assert [repr(p) for p in checked.points] == [repr(p) for p in patch.points]
    assert checked.coords == patch.coords


def test_enumeration_falls_back_to_interval_elimination(monkeypatch):
    # det = sqrt(2) - 1 - pi has no exact inverse, so the candidate ranges come
    # from interval elimination; |n2| <= 15 and |n1| <= 23 hold every point
    calls = 0
    solve = linalg.interval_solve

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(linalg, "interval_solve", counted)
    det = Scalar.sqrt(2) - 1 - Scalar.const("pi")
    with pytest.raises(ExactnessError):
        det.inverse()
    scheme = CutProjectScheme(
        1,
        LINE,
        [
            ((Scalar(1),), LINE.point((1,))),
            ((1 + Scalar.const("pi"),), LINE.point((Scalar.sqrt(2),))),
        ],
    )
    box = Box.interval(-40, 40)
    w = interval_window(LINE, -1, 1)
    patch = scheme.project_points(box, w)
    assert calls > 0
    brute = set()
    for n1 in range(-200, 201):
        for n2 in range(-20, 21):
            d, s = scheme.point_of((n1, n2))
            if box.contains(d) and w.contains(s):
                brute.add((n1, n2))
    assert len(brute) == 58
    assert set(patch.coords) == brute


def test_lattice_coords_float_mode():
    space = InternalSpace([RealFactor(1)])
    scheme = CutProjectScheme(
        1,
        space,
        [
            ((Scalar.from_float(1.0),), space.point((Scalar.from_float(1.0),))),
            ((Scalar.from_float(1.618033988749895),), space.point((Scalar.from_float(-0.618033988749895),))),
        ],
    )
    g, h = scheme.point_of((3, -2))
    assert scheme.lattice_coords_of(g, h) == (3, -2)


def test_averaging_sequence():
    seq = AveragingSequence(1)
    b = seq.box(3)
    assert b.lo == (Scalar(-3),) and b.hi == (Scalar(3),)
