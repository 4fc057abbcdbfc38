import collections
import fractions
import itertools
import random
import sys
from fractions import Fraction

import pytest

from cutproject import cli, ratmath
from cutproject.fibonacci import fibonacci_scheme, fibonacci_window
from cutproject.internal_space import (
    FiniteCyclicFactor,
    HPoint,
    IntegerRankFactor,
    InternalSpace,
    RealFactor,
    TorusFactor,
    TwistedExtensionFactor,
)
from cutproject.scalars import (
    GOLDEN,
    GOLDEN_CONJ,
    SQRT5,
    ExactnessError,
    FloatForm,
    LinearForm,
    Scalar,
)
from cutproject.scheme import (
    AveragingSequence,
    Box,
    CutProjectScheme,
    EnumerationOverflowError,
    Patch,
    SchemeError,
    _scaled_enclosure,
)
from cutproject.transforms import (
    extend_injective,
    iter_lattice_stars,
    lift_window,
    lift_window_torus,
    star_injectivity_exhaustive,
    translate_cps,
)
from cutproject.windows import (
    AugmentedWindow,
    IntervalSet,
    OutOfCertifiedRangeError,
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


def test_star_preimage_inverts_the_star_map():
    # every star of the cube |n_i| <= 3 has its own coordinates as its one
    # preimage, on every factor family and on the golden/3 twisted extension;
    # a scheme with a star kernel has no unique preimage
    rng = random.Random(2024)
    injective, kernels = [], []
    for family in ("real", "integer", "cyclic", "torus", "twisted"):
        for _ in range(12):
            scheme = random_kernel_scheme(rng, family)
            (kernels if scheme.star_kernel_witness() else injective).append(scheme)
    assert injective and kernels
    injective.append(translate_cps(fibonacci_scheme(), (GOLDEN / 3,), 100).scheme)
    for scheme in injective:
        for n, h in iter_lattice_stars(scheme, 3):
            assert scheme.star_preimage(h) == n
    for scheme in kernels:
        with pytest.raises(SchemeError, match="not injective"):
            scheme.star_preimage(scheme.space.zero())


def test_star_preimage_decides_injectivity_once(monkeypatch):
    # injectivity depends on the scheme alone: a fresh scheme row-reduces the
    # star system's kernel once, however many preimages it is asked for
    scheme = CutProjectScheme(
        1, LINE, [((Scalar(1),), LINE.point((1,))), ((GOLDEN,), LINE.point((GOLDEN_CONJ,)))]
    )
    calls = 0
    kernel = ratmath.kernel

    def counted(a):
        nonlocal calls
        calls += 1
        return kernel(a)

    monkeypatch.setattr(ratmath, "kernel", counted)
    for n in itertools.product(range(-3, 4), repeat=2):
        assert scheme.star_preimage(scheme.star(n)) == n
    assert calls == 1


def test_star_preimage_on_a_twisted_scheme():
    # the twisted factor carries the whole internal space: its coordinates
    # take part in the system like any other factor's
    tw = translate_cps(fibonacci_scheme(), (GOLDEN / 3,), 100).scheme
    assert isinstance(tw.space.factors[0], TwistedExtensionFactor)
    assert tw.star_preimage(tw.star((0, 0))) == (0, 0)
    assert tw.star_preimage(tw.star((1, 2))) == (1, 2)
    base = tw.space.factors[0].base
    off = tw.space.add(tw.star((1, 2)), tw.space.point((base.point((Fraction(1, 7),)), 0)))
    assert tw.star_preimage(off) is None


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


def per_point_csv(patch):
    """``Patch.to_csv_text`` written out value by value: an exact value's float
    is the midpoint of ``bounds(18)``, a float value's its own."""
    def text(v):
        return repr(float(sum(v.bounds(18)) / 2)) if v.is_exact else repr(v.to_float())

    dim = len(patch.box.lo)
    rank = len(patch.coords[0]) if patch.coords else 0
    lines = [",".join([f"x{i + 1}" for i in range(dim)] + [f"n{j + 1}" for j in range(rank)])]
    for k, p in enumerate(patch.points):
        row = [text(v) for v in p]
        if patch.coords is not None:
            row += [str(x) for x in patch.coords[k]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _fib_patch(lo, hi):
    return fibonacci_scheme().project_points(Box.interval(lo, hi), fibonacci_window())


def _sqrt2_patch():
    # the translation extension by sqrt(2): values in 1, sqrt(5) and sqrt(2)
    ext = translate_cps(fibonacci_scheme(), (Scalar.sqrt(2),), 10 ** 6).scheme
    return ext.project_points(Box.interval(-40, 40), lift_window(fibonacci_window(), 1, ext))


def _pi_patch():
    scheme = CutProjectScheme(
        1,
        LINE,
        [
            ((Scalar(1),), LINE.point((1,))),
            ((1 + Scalar.const("pi"),), LINE.point((Scalar.sqrt(2),))),
        ],
    )
    return scheme.project_points(Box.interval(-20, 20), interval_window(LINE, -1, 1))


def _cached_patch():
    patch = _fib_patch(-40, 40)
    for p in patch.points[::2]:
        p[0].to_float()
    return patch


CSV_CASES = {
    "fibonacci-left": lambda: _fib_patch(-90, -10),
    "fibonacci-right": lambda: _fib_patch(10, 90),
    "fibonacci-straddling": lambda: _fib_patch(-45, 45),
    "float-mode": lambda: float_scheme().project_points(Box.interval(-45, 45), fibonacci_window()),
    "sqrt2-extension": _sqrt2_patch,
    "pi": _pi_patch,
    "two-dimensional": lambda: golden_square_scheme()[0].project_points(
        Box([-5, -5], [5, 5]), golden_square_scheme()[1]
    ),
    "no-coords": lambda: Patch(_fib_patch(-20, 20).points, Box.interval(-20, 20)),
    "zero-dimensional": lambda: Patch([()], Box([], [])),
    "zero-dimensional-coords": lambda: Patch([()], Box([], []), coords=[(3, -1)]),
    "empty": lambda: fibonacci_scheme().project_points(Box.interval(0, 10), empty_window(LINE)),
    "empty-no-coords": lambda: Patch([], Box.interval(0, 5)),
    "mixed-column": lambda: Patch(
        [(Scalar(-1) / 3,), (Scalar.from_float(0.25),), (GOLDEN,), (-GOLDEN_CONJ / 7,)],
        Box.interval(-5, 5),
    ),
    # near 0 a float keeps digits below 10**-18, so these show the rounding
    "near-zero": lambda: Patch(
        [(GOLDEN_CONJ ** k / (1 + k % 3),) for k in range(25, 33)], Box.interval(-1, 1)
    ),
    "cached-floats": _cached_patch,
}


# project_points patches whose order is fixed without comparing points
LAZY_CSV_CASES = {
    "fibonacci-left", "fibonacci-right", "fibonacci-straddling", "float-mode",
    "sqrt2-extension", "pi", "empty",
}


@pytest.mark.parametrize("case", list(CSV_CASES))
def test_csv_matches_per_point_floats(case):
    # the CSV of a fresh patch, whose points have not been read, so that a
    # project_points patch takes its floats from its lattice coordinates,
    # against the floats of a second, separately built patch's points
    fresh = CSV_CASES[case]()
    text = fresh.to_csv_text()
    assert (fresh._points is None) == (case in LAZY_CSV_CASES)
    patch = CSV_CASES[case]()
    if case.startswith("empty"):
        assert not patch.points
    expected = per_point_csv(patch)
    assert text == expected
    assert fresh.to_csv_text() == expected
    assert patch.to_csv_text() == expected
    # every exact value of a patch built from points now keeps its float,
    # and a second pass reads it back
    assert all(v._float is not None for p in patch.points for v in p)
    assert patch.to_csv_text() == expected


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


def float_scheme(scale=1):
    """Fibonacci with float generators times a power of two, as ``--mode
    float`` gives it."""
    return CutProjectScheme(
        1,
        LINE,
        [
            ((Scalar.from_float(scale * 1.0),), LINE.point((Scalar.from_float(scale * 1.0),))),
            ((Scalar.from_float(scale * float(GOLDEN)),),
             LINE.point((Scalar.from_float(scale * float(GOLDEN_CONJ)),))),
        ],
    )


def rounding_case():
    """A float window endpoint on the computed star of a lattice point.

    At scale 2**33 the float rounding of a star outgrows the walk's 10**-9
    padding of float entries, so only the rounding bound keeps the leaf off
    the enclosures: its exact star lies off the endpoint by more than
    FLOAT_EPS and the enclosure's width, its float star on it.
    """
    scale = 2 ** 33
    scheme = float_scheme(scale)
    box = Box.interval(-60 * scale, 60 * scale)
    lo, hi = -scale * 1.0, scale * float(GOLDEN - 1)
    patch = scheme.project_points(box, interval_window(LINE, lo, hi))
    heights = [Fraction(h.coords[0][0].to_float()) for _, h in scheme.generators]
    best = None
    for n in patch.coords:
        star = scheme.star(n).coords[0][0].to_float()
        error = sum(k * h for k, h in zip(n, heights)) - Fraction(star)
        lower = star < (lo + hi) / 2  # keep most of the window
        if (error > 0) == lower and (best is None or abs(error) > best[0]):
            best = (abs(error), n, star)
    error, n, star = best
    assert error > 1e-9 + 2e-9 * sum(map(abs, n))
    if star < (lo + hi) / 2:
        window = interval_window(LINE, Scalar.from_float(star), hi, False, False)
    else:
        window = interval_window(LINE, lo, Scalar.from_float(star), True, False)
    return scheme, box, window, True, {n: False}


def filter_cases():
    """Boundary-heavy cases: window endpoints that are stars of lattice points.

    Each case is (scheme, box, window, decided, memberships), ``decided``
    telling whether the enumeration may decide leaves on enclosures (True
    for every piece, False for none, None for some) and ``memberships`` the
    expected patch membership of endpoint coordinates.
    """
    fib = fibonacci_scheme()
    # the ends -1 and golden - 1 are star(-1, 0) and star(0, -1)
    half_open = interval_window(LINE, -1, GOLDEN - 1)
    ends = [(-1, 0), (0, -1)]
    box = Box.interval(-300, 250)
    # the gap (star(1, 2), star(2, 3)) is open at both lattice stars
    gap = UnionWindow(
        LINE,
        [
            interval_window(LINE, -1, 1 + 2 * GOLDEN_CONJ),
            interval_window(LINE, 2 + 3 * GOLDEN_CONJ, GOLDEN - 1, False, True),
        ],
    )
    sqrt2 = translate_cps(fib, (Scalar.sqrt(2),), 10 ** 6).scheme
    torus = extend_injective(fib, (Scalar.root(2, 3),), injectivity_bound=25).scheme
    # the torus interval [-1/4, 1/4) wraps to [0, 1/4) and [3/4, 1)
    seam = ProductWindow(
        torus.space,
        (
            half_open.regions[0],
            TorusRegion(torus.space.factors[1], (IntervalSet.single(Fraction(-1, 4), Fraction(1, 4)),)),
        ),
    )
    # float_fib has an exact generator 1: star(-1, 0) = -1 is exact, star(0, -1) a float
    float_fib = differential_cases()[1][0]
    # both ends 5e-10 off a star, inside the FLOAT_EPS band, so both stars are out
    nudged = interval_window(
        LINE, Scalar.from_float(-1 - 5e-10), GOLDEN - 1 + Fraction(1, 2 * 10 ** 9), False, False
    )
    float_window = interval_window(LINE, -1.0, float(GOLDEN - 1))
    # golden/3: the ends of the k-th translate's lifted window are the stars
    # of (1, -k) and (0, 3 - k)
    twisted = translate_cps(fib, (GOLDEN / 3,), 100).scheme
    # residue 1's ends lie off every star, so only residue 0's reach contains
    residues = TwistedRegion(
        twisted.space.factors[0],
        {0: half_open, 1: interval_window(LINE, Fraction(-6, 7), GOLDEN - Fraction(8, 7), True, True)},
    )
    # a two-piece base window has no single interval to decide on
    split = ProductWindow(
        LINE,
        (RealRegion((IntervalSet.single(-1, Fraction(-1, 5)).union(
            IntervalSet.single(Fraction(1, 10), GOLDEN - 1)),)),),
    )
    # one member decides, the other has two pieces on its real axis
    mixed = UnionWindow(
        LINE,
        [
            interval_window(LINE, Fraction(-1, 2), GOLDEN - 2),
            ProductWindow(LINE, (RealRegion((IntervalSet.single(Fraction(1, 5), Fraction(3, 10)).union(
                IntervalSet.single(Fraction(7, 20), Fraction(1, 2), False, True)),)),)),
        ],
    )
    small = Box.interval(-60, 60)
    return [
        (fib, box, half_open, True, dict(zip(ends, (True, False)))),
        (fib, box, half_open.closure(), True, dict(zip(ends, (True, True)))),
        (fib, box, half_open.interior(), True, dict(zip(ends, (False, False)))),
        (fib, box, gap, True, {(1, 2): False, (2, 3): False, (-1, 0): True, (0, -1): True}),
        # the lifted window's integer row is the singleton {2}
        (sqrt2, Box.interval(-150, 150), lift_window(half_open, 2, sqrt2), True, {}),
        (torus, Box.interval(-150, 150), lift_window_torus(half_open, torus.space, 1), True, {}),
        (float_fib, box, half_open, True, {}),
        (fib, box, AugmentedWindow(half_open.interior(), [fib.star((0, -1))]), False,
         dict(zip(ends, (False, True)))),
        (float_fib, box, half_open.closure(), True, dict(zip(ends, (True, True)))),
        (float_fib, box, half_open.interior(), True, dict(zip(ends, (False, False)))),
        (float_fib, box, gap, True,
         {(1, 2): False, (2, 3): False, (-1, 0): True, (0, -1): True}),
        (float_fib, box, nudged, True, dict(zip(ends, (False, False)))),
        (float_scheme(), box, float_window, True, dict(zip(ends, (True, False)))),
        rounding_case(),
        (torus, Box.interval(-150, 150), seam, False, {}),
        (twisted, small, lift_window(half_open, -3, twisted), True,
         {(1, 3): True, (0, 6): False}),
        (twisted, small, lift_window(half_open.interior(), 0, twisted), True,
         {(1, 0): False, (0, 3): False}),
        (twisted, small, lift_window(half_open.closure(), 2, twisted), True,
         {(1, -2): True, (0, 1): True}),
        (twisted, small, ProductWindow(twisted.space, (residues,)), True,
         {(1, 0): True, (0, 3): False}),
        (twisted, small, lift_window(split, 1, twisted), False, {}),
        (fib, Box.interval(-400, 400), mixed, None, {}),
    ]


@pytest.mark.parametrize("case", range(21))
def test_leaf_filter_matches_exact_path(case, monkeypatch):
    # deciding leaves on their row enclosures must give the patch the exact
    # path gives for every leaf, bit for bit, and leave only the leaves whose
    # stars sit on the window's boundary to the exact path
    scheme, box, window, decided, memberships = filter_cases()[case]
    calls = 0
    contains = type(window).contains

    def counted(self, p):
        nonlocal calls
        calls += 1
        return contains(self, p)

    monkeypatch.setattr(type(window), "contains", counted)
    filtered = scheme.project_points(box, window)
    filtered_calls, calls = calls, 0
    monkeypatch.setattr(CutProjectScheme, "_inner_bounds", lambda self, *args: None)
    exact = scheme.project_points(box, window)
    assert len(exact) > 10 and calls >= len(exact)
    assert [repr(p) for p in filtered.points] == [repr(p) for p in exact.points]
    assert filtered.coords == exact.coords
    assert filtered == exact
    for n, member in memberships.items():
        assert (n in filtered.coords) == member, n
    if decided:
        assert filtered_calls <= 4
    elif decided is None:
        assert filtered_calls < calls
    else:
        assert filtered_calls == calls


def test_augmented_window_certifier_still_raises():
    # an augmented window's leaves take the exact path, so a membership
    # query outside the certified range still raises
    fib = fibonacci_scheme()
    window = AugmentedWindow(
        interval_window(LINE, -1, GOLDEN - 1, False, False), [], certifier=lambda p: False
    )
    with pytest.raises(OutOfCertifiedRangeError):
        fib.project_points(Box.interval(-50, 50), window)


def test_leaf_filter_work_count(monkeypatch):
    # on Fibonacci, exact or float, and on a lifted window of the golden/3
    # extension, only the two leaves whose stars are the window's endpoints
    # reach Window.contains (twice each on the extension: its window and
    # the residue's base window)
    window_calls = 0
    contains = ProductWindow.contains

    def counted(self, p):
        nonlocal window_calls
        window_calls += 1
        return contains(self, p)

    monkeypatch.setattr(ProductWindow, "contains", counted)
    window = interval_window(LINE, -1, GOLDEN - 1)
    float_window = interval_window(LINE, -1.0, float(GOLDEN - 1))
    twisted = translate_cps(fibonacci_scheme(), (GOLDEN / 3,), 100).scheme
    cases = [
        (fibonacci_scheme(), window, 800, 1000, 2),
        (differential_cases()[1][0], window, 800, 1000, 2),
        (float_scheme(), float_window, 800, 1000, 2),
        (twisted, lift_window(window, 1, twisted), 60, 80, 4),
    ]
    for scheme, window, radius, points, calls in cases:
        window_calls = 0
        patch = scheme.project_points(Box.symmetric(radius), window)
        assert len(patch) > points
        assert window_calls <= calls


def set_up_counts(call):
    """Run ``call`` under a profile hook; count calls of ``Scalar.bounds``,
    ``Scalar.as_fraction`` and ``Scalar.magnitude`` from anywhere, and
    calls into ``fractions`` made straight from ``scheme.py``.

    The hook sees every Python-level ``Fraction`` method: the constructor,
    arithmetic and comparison operators, ``__floor__`` and ``__ceil__``,
    also on CPython 3.12+, whose operators build results without
    ``Fraction.__new__``.
    """
    from cutproject import scheme as scheme_module

    watched = {
        Scalar.bounds.__code__: "bounds",
        Scalar.as_fraction.__code__: "as_fraction",
        Scalar.magnitude.__code__: "magnitude",
    }
    fractions_file = fractions.__file__
    scheme_file = scheme_module.__file__
    counts = collections.Counter()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in watched:
            counts[watched[code]] += 1
        elif code.co_filename == fractions_file and frame.f_back.f_code.co_filename == scheme_file:
            counts["Fraction"] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        out = call()
    finally:
        sys.setprofile(previous)
    return counts, out


def test_project_points_set_up_work_count():
    # after one warm-up call, the set-up of a project_points call is integer
    # arithmetic on one enclosure per row endpoint: no Scalar.bounds,
    # as_fraction or magnitude call and no Fraction operation in scheme.py

    # the hook sees a bounds call, and the Fraction a float scheme's
    # inverse enclosure reads its binary entries as
    counts, _ = set_up_counts(lambda: GOLDEN.bounds(25))
    assert counts["bounds"] == 1
    counts, _ = set_up_counts(float_scheme()._inverse_enclosure)
    assert counts["Fraction"] > 0
    counts, _ = set_up_counts(lambda: (Scalar(3).as_fraction(), GOLDEN.magnitude()))
    assert counts["as_fraction"] == counts["magnitude"] == 1
    fib = fibonacci_scheme()
    window = interval_window(LINE, -1, GOLDEN - 1)
    float_window = interval_window(LINE, -1.0, float(GOLDEN - 1))
    cases = [
        (fib, window.translate(LINE.point((Fraction(-3, 20),))), Box.interval(4182, 4202),
         window.translate(LINE.point((Fraction(7, 100),))), Box.interval(-1311, -1291)),
        (float_scheme(), float_window, Box.interval(-300, 250),
         float_window.translate(LINE.point((Scalar.from_float(0.15),))), Box.interval(-60, 80)),
    ]
    for scheme, warm_window, warm_box, probe_window, probe_box in cases:
        assert len(scheme.project_points(warm_box, warm_window)) > 0
        counts, patch = set_up_counts(lambda: scheme.project_points(probe_box, probe_window))
        assert len(patch) > 0
        assert counts == {}, counts


def profile_counts(call, watched):
    """Run ``call`` under a profile hook counting calls of the code objects
    ``watched`` maps to names."""
    counts = collections.Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            counts[watched[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return counts


def test_patch_checks_work_count():
    # the certificate checks compare the patches they were given: no patch is
    # rebuilt through the checked constructor, and two equal exact patches
    # are compared on their order without hashing a point
    from cutproject.analysis import verify_equality

    watched = {Patch.__init__.__code__: "Patch.__init__", Scalar.__hash__.__code__: "hash"}
    fib, window = fibonacci_scheme(), fibonacci_window()
    # the hook sees what it counts
    counts = profile_counts(lambda: hash(Patch([(Scalar(1) / 3,)], Box.interval(0, 1))), watched)
    assert counts["Patch.__init__"] == 1 and counts["hash"] >= 1
    calls = [
        lambda: translate_cps(fib, (Scalar.sqrt(2),), 10 ** 6, window=window),
        lambda: extend_injective(fib, (Scalar.root(2, 3),), window=window),
    ]
    for call in calls:
        assert profile_counts(call, watched)["Patch.__init__"] == 0
    a = fib.project_points(Box.symmetric(40), window)
    b = fib.project_points(Box.symmetric(40), window)
    assert profile_counts(lambda: verify_equality(a, b), watched) == {}
    assert verify_equality(a, b) == (True, None)
    # a point outside its box is still refused from outside
    obj = a.to_obj()
    obj["box"] = Box.symmetric(10).to_obj()
    with pytest.raises(ValueError, match="outside its box"):
        Patch.from_obj(obj)


def derived_patch_cases():
    """(name, patch, exact vector, float vector or None, sub-box) for each kind
    of patch: the ordered patch of a separated enumeration, the sorted patches
    of a non-injective scheme and of d = 2, a float scheme's, d = 0, empty."""
    coincident = CutProjectScheme(
        1,
        LINE,
        [((Scalar(1),), LINE.point((1,))), ((Scalar(1),), LINE.point((Scalar.sqrt(2),)))],
        require_injective=False,
    )
    square, square_w = golden_square_scheme()
    zero_space = InternalSpace([FiniteCyclicFactor(3)])
    zero = CutProjectScheme(0, zero_space, [])
    half = Scalar.from_float(0.25)
    fib_w = interval_window(LINE, -1, GOLDEN - 1)
    return [
        ("ordered", fibonacci_scheme().project_points(Box.interval(-300, 250), fib_w),
         (Scalar.sqrt(2),), (half,), Box.interval(-40, GOLDEN * 20)),
        ("coincident", coincident.project_points(Box.interval(-5, 5), interval_window(LINE, -3, 3)),
         (Fraction(1, 3),), (half,), Box.interval(-2, 4)),
        ("square", square.project_points(Box([-8, -8], [8, 8]), square_w),
         (GOLDEN, Fraction(-1, 2)), (half, half), Box([-3, -8], [GOLDEN, 5])),
        ("float", float_scheme().project_points(
            Box.interval(-300, 250), interval_window(LINE, -1.0, float(GOLDEN - 1))),
         (GOLDEN,), (half,), Box.interval(Scalar.from_float(-40.5), 70)),
        ("d = 0", zero.project_points(Box([], []), ProductWindow(zero_space, (ResidueRegion(3, {0}),))),
         (), None, Box([], [])),
        ("empty", fibonacci_scheme().project_points(Box.interval(Fraction(1, 10), Fraction(1, 5)), fib_w),
         (Fraction(1, 3),), (half,), Box.interval(0, 1)),
    ]


def test_derived_patches_match_checked_constructor():
    # translate and restrict keep their parent's order; the checked
    # constructor, given the same points shuffled, must agree on every field
    rng = random.Random(18)

    def checked(points, box, patch, coords):
        pairs = list(zip(points, coords)) if coords is not None else [(p, None) for p in points]
        rng.shuffle(pairs)
        return Patch(
            [p for p, _ in pairs], box, patch.scheme_id,
            [c for _, c in pairs] if coords is not None else None,
        )

    def same(derived, oracle):
        assert [repr(p) for p in derived.points] == [repr(p) for p in oracle.points]
        assert derived.coords == oracle.coords
        assert derived.box == oracle.box and derived.scheme_id == oracle.scheme_id
        assert len(derived) == len(oracle)

    for name, patch, exact_v, float_v, sub_box in derived_patch_cases():
        assert (len(patch) == 0) == (name == "empty"), name
        for vec in (exact_v, float_v):
            if vec is None:
                continue
            moved = [tuple(x + v for x, v in zip(p, vec)) for p in patch.points]
            oracle = checked(moved, patch.box.translate(vec), patch, patch.coords)
            same(patch.translate(vec), oracle)
        keep = [i for i, p in enumerate(patch.points) if sub_box.contains(p)]
        assert name in ("d = 0", "empty") or 0 < len(keep) < len(patch), name
        coords = [patch.coords[i] for i in keep]
        same(patch.restrict(sub_box), checked([patch.points[i] for i in keep], sub_box, patch, coords))


def test_patch_csv_from_coords_work_count():
    # project_points and the CSV of the fresh patch build no point of a
    # decided leaf: on exact Fibonacci only the leaves that take the exact
    # path (see test_leaf_filter_work_count), at most two, reach
    # Window.contains, and each evaluates exactly two LinearForms, its direct
    # form and its star form; on float Fibonacci the only float Scalar
    # additions are those leaves' star sums, at most one per nonzero
    # coordinate (rank 2)
    window = interval_window(LINE, -1, GOLDEN - 1)
    float_window = interval_window(LINE, -1.0, float(GOLDEN - 1))
    watched = {
        LinearForm.__call__.__code__: "LinearForm",
        Scalar.__add__.__code__: "add",
        type(window).contains.__code__: "contains",
    }
    counts = collections.Counter()

    def hook(frame, event, arg):
        name = watched.get(frame.f_code) if event == "call" else None
        if name in ("LinearForm", "contains"):
            counts[name] += 1
        elif name == "add":
            other = frame.f_locals["other"]
            if frame.f_locals["self"]._num is None or getattr(other, "_num", 0) is None:
                counts["float add"] += 1

    # the hook sees what it counts, and an exact addition is not counted
    fib, half = fibonacci_scheme(), Scalar.from_float(0.5)
    fib.direct((0, 0))
    sys.setprofile(hook)
    try:
        fib.direct((1, 1))
        (half + Scalar(1), Scalar(1) + half, GOLDEN + GOLDEN)
        window.contains(fib.star((1, 1)))
    finally:
        sys.setprofile(None)
    assert counts == {"LinearForm": 2, "float add": 2, "contains": 1}
    for scheme, window in [(fibonacci_scheme(), window), (float_scheme(), float_window)]:
        assert len(scheme.project_points(Box.interval(-20, 20), window)) > 0
        counts.clear()
        sys.setprofile(hook)
        try:
            text = scheme.project_points(Box.symmetric(800), window).to_csv_text()
        finally:
            sys.setprofile(None)
        assert text.count("\n") > 1000
        if scheme.generators[0][0][0].is_exact:
            assert counts["contains"] <= 2, counts
            assert counts["LinearForm"] == 2 * counts["contains"], counts
            assert set(counts) <= {"LinearForm", "contains"}, counts
        else:
            assert counts["float add"] <= 4, counts
            assert set(counts) <= {"float add", "contains"}, counts


def scalar_loop_direct(scheme, n):
    """``direct`` as ``Scalar`` arithmetic, one generator after another."""
    out = [Scalar(0)] * scheme.d
    for k, (g, _) in zip(n, scheme.generators):
        if k:
            for i in range(scheme.d):
                out[i] = out[i] + g[i] * k
    return tuple(out)


def direct_map_cases():
    """Schemes of each direct map, with the map ``_leaf_data`` must choose."""
    sqrt2 = translate_cps(fibonacci_scheme(), (Scalar.sqrt(2),), 10 ** 6).scheme
    mixed2 = CutProjectScheme(
        2,
        InternalSpace([RealFactor(2)]),
        [
            ((Scalar(1), Scalar.from_float(0.5)), InternalSpace([RealFactor(2)]).point((1, 0))),
            ((Scalar.from_float(float(GOLDEN)), Scalar(0)),
             InternalSpace([RealFactor(2)]).point((GOLDEN_CONJ, 0))),
            ((Scalar(0), GOLDEN), InternalSpace([RealFactor(2)]).point((0, GOLDEN_CONJ))),
            ((Scalar.from_float(-0.0), Scalar(1)), InternalSpace([RealFactor(2)]).point((0, 1))),
        ],
    )
    # the direct row involves pi, the internal row e
    constants = CutProjectScheme(
        1,
        LINE,
        [((Scalar(1),), LINE.point((0,))), ((Scalar.const("pi"),), LINE.point((Scalar.const("e"),)))],
    )
    return [
        (fibonacci_scheme(), "forms"),
        (golden_square_scheme()[0], "forms"),
        (float_scheme(), "float"),
        (float_scheme(2 ** -3), "float"),
        (CutProjectScheme.from_obj(cli._floatify(sqrt2.to_obj())), "float"),
        # its 0.0 entries make -0.0 terms, which the loop adds to 0.0
        (CutProjectScheme.from_obj(cli._floatify(golden_square_scheme()[0].to_obj())), "float"),
        (differential_cases()[1][0], "loop"),
        (mixed2, "loop"),
        (constants, "loop"),
    ]


@pytest.mark.parametrize("case", range(9))
def test_direct_map_matches_scalar_loop(case):
    # the one direct map of each scheme gives the Scalar loop's values: the
    # same exact values, the same float bits, the same exact or float kind
    from cutproject import scheme as scheme_module

    scheme, kind = direct_map_cases()[case]
    scheme._leaf_data()
    direct, points_of, floats_of = scheme._maps
    forms = direct.args[0]
    assert kind == (
        "forms" if all(isinstance(f, LinearForm) for f in forms)
        else "float" if all(isinstance(f, FloatForm) for f in forms)
        else "loop" if all(f.func is scheme_module._scalar_sum for f in forms) else None
    )
    assert (floats_of is None) == (kind == "loop")
    rng = random.Random(1700 + case)
    vectors = [(0,) * scheme.rank] + [
        tuple(rng.randint(-10 ** 4, 10 ** 4) for _ in range(scheme.rank)) for _ in range(300)
    ]
    vectors += [tuple(rng.choice((0, 0, 1, -1)) * x for x in v) for v in vectors[1:40]]
    for n in vectors:
        got, want = scheme.direct(n), scalar_loop_direct(scheme, n)
        assert [repr(v) for v in got] == [repr(v) for v in want], n
        assert [v.is_exact for v in got] == [v.is_exact for v in want], n
    # the points of a patch are built one coordinate at a time
    want = [scalar_loop_direct(scheme, n) for n in vectors]
    assert [repr(p) for p in points_of(vectors)] == [repr(p) for p in want]
    assert scheme.direct((0,) * scheme.rank) == (Scalar(0),) * scheme.d
    assert all(v.is_exact for v in scheme.direct((0,) * scheme.rank))
    if floats_of is not None:
        want = [v.to_float() for n in vectors for v in scalar_loop_direct(scheme, n)]
        assert [repr(x) for x in floats_of(vectors)] == [repr(x) for x in want]


def test_zero_dimensional_scheme_patch():
    # d = 0: every lattice point projects to (), so the patch has one point
    space = InternalSpace([FiniteCyclicFactor(3)])
    scheme = CutProjectScheme(0, space, [])
    patch = scheme.project_points(Box([], []), ProductWindow(space, (ResidueRegion(3, {0}),)))
    assert patch.points == ((),) and patch.coords == ((),)
    assert patch.to_csv_text() == "\n\n"
    assert scheme.direct(()) == ()


def test_patch_order_falls_back_to_scalar_sort(monkeypatch):
    # points whose first-coordinate enclosures are not separated (coincident
    # direct values of a non-injective scheme, equal first coordinates in
    # d = 2) are sorted and deduplicated by Scalar comparison, as every
    # patch is with the enclosure order switched off
    from cutproject import scheme as scheme_module

    fills = 0
    fill = scheme_module._sorted_distinct

    def counted(*args):
        nonlocal fills
        fills += 1
        return fill(*args)

    monkeypatch.setattr(scheme_module, "_sorted_distinct", counted)
    coincident = CutProjectScheme(
        1,
        LINE,
        [((Scalar(1),), LINE.point((1,))), ((Scalar(1),), LINE.point((Scalar.sqrt(2),)))],
        require_injective=False,
    )
    box = Box.interval(-5, 5)
    square, square_w = golden_square_scheme()
    cases = [
        (coincident, box, interval_window(LINE, -3, 3), False),
        (square, Box([-8, -8], [8, 8]), square_w, False),
        (fibonacci_scheme(), Box.interval(-300, 250), interval_window(LINE, -1, GOLDEN - 1), True),
        (float_scheme(), Box.interval(-300, 250), interval_window(LINE, -1.0, float(GOLDEN - 1)), True),
    ]
    patches = []
    for scheme, box, window, separated in cases:
        fills = 0
        patches.append(scheme.project_points(box, window))
        assert fills == (0 if separated else 1)
    # |star - direct| = |n2| (sqrt(2) - 1) < 8 bounds n2 by 19, so the scan is exhaustive
    hits = [
        n for n in itertools.product(range(-30, 31), repeat=2)
        if box.contains(coincident.direct(n)) and -3 <= n[0] + n[1] * 2 ** 0.5 < 3
    ]
    assert len(patches[0]) == 11 < len(hits)  # coincident points were merged
    monkeypatch.setattr(scheme_module, "_separated", lambda leaves: False)
    for (scheme, box, window, _), patch in zip(cases, patches):
        fills = 0
        plain = scheme.project_points(box, window)
        assert fills == 1
        assert [repr(p) for p in plain.points] == [repr(p) for p in patch.points]
        assert plain.coords == patch.coords


def test_float_entry_enclosure_holds_its_value():
    # a float entry is enclosed from its exact dyadic value: a rounded
    # product at scale 10**25 misses 5e8 + 0.1 by more than the 10**-9 pad
    v = Scalar.from_float(5e8 + 0.1)
    lo, hi = _scaled_enclosure(v, 25)
    assert lo <= Fraction(5e8 + 0.1) * 10 ** 25 <= hi
    assert hi - lo < 3 * 10 ** 16  # the value padded by about 10**-9 each way


def test_enumeration_falls_back_to_interval_elimination():
    # det = sqrt(2) - 1 - pi has no exact inverse, so the candidate ranges come
    # from cofactors over the determinant's enclosure; |n2| <= 15 and
    # |n1| <= 23 hold every point
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


def folded_star(scheme, n):
    """``star`` as the group law computes it: ``add`` and ``scale`` folded
    over the generators."""
    acc = scheme.space.zero()
    for k, (_, h) in zip(n, scheme.generators):
        if k:
            acc = scheme.space.add(acc, scheme.space.scale(h, k))
    return acc


def star_bits(value):
    """A star coordinate, every exact Scalar as its encoding, every float as
    its ``hex()``, every HPoint as its coordinates."""
    if isinstance(value, HPoint):
        return ("point", star_bits(value.coords))
    if isinstance(value, tuple):
        return tuple(star_bits(v) for v in value)
    if isinstance(value, Scalar):
        return repr(value.to_obj()) if value.is_exact else value.to_float().hex()
    return (type(value).__name__, value)


def star_map_cases():
    """A scheme of each factor kind, exact and float: {name: scheme}."""
    fib = fibonacci_scheme()
    torus = extend_injective(fib, (Scalar.root(2, 3),), injectivity_bound=20).scheme
    twisted = translate_cps(fib, (GOLDEN / 3,), 10 ** 6).scheme
    cyclic_space = InternalSpace([RealFactor(1), FiniteCyclicFactor(3)])
    cases = {
        "real": fib,
        "real float": float_scheme(),
        "integer": translate_cps(fib, (Scalar.sqrt(2),), 10 ** 6).scheme,
        "cyclic": CutProjectScheme(1, cyclic_space, [
            (1, cyclic_space.point(GOLDEN, 2)), (GOLDEN, cyclic_space.point(-1, 1))]),
        "torus": torus,
        "torus float": CutProjectScheme.from_obj(cli._floatify(torus.to_obj())),
        "torus halves": torus_kernel_scheme(),
        "twisted": twisted,
        "twisted float": CutProjectScheme.from_obj(cli._floatify(twisted.to_obj())),
    }
    rng = random.Random(24)
    for family in ("real", "integer", "cyclic", "torus", "twisted"):
        for k in range(3):
            cases[f"random {family} {k}"] = random_kernel_scheme(rng, family)
    return cases


def test_star_map_cases_cover_every_factor_kind():
    cases = star_map_cases()
    kinds = {f.kind for s in cases.values() for f in s.space.factors}
    assert kinds == {"real", "integer", "cyclic", "torus", "twisted"}
    assert cases["torus"].space.factors[1].kind == "torus"
    assert cases["twisted"].space.factors[0].kind == "twisted"
    for name in ("real float", "torus float", "twisted float"):
        assert not all(v.is_exact for _, h in cases[name].generators
                       for v in cases[name].space.kernel_values(h)), name


@pytest.mark.parametrize("name", sorted(star_map_cases()))
def test_star_maps_equal_the_group_law_fold(name):
    # one closed form per factor kind, or the fold where the values rule one
    # out: the same points, hashes and float bits over a coordinate cube
    # (float sums in another order than the fold's part at |n_j| of about 40)
    scheme = star_map_cases()[name]
    reach = {2: 40 if "float" in name else 8, 3: 4}[scheme.rank]
    for n in itertools.product(range(-reach, reach + 1), repeat=scheme.rank):
        got, want = scheme.star(n), folded_star(scheme, n)
        assert got == want, (n, got, want)
        assert hash(got) == hash(want), n
        assert star_bits(got) == star_bits(want), n


def test_exact_star_makes_no_group_law_call(monkeypatch):
    cases = {name: s for name, s in star_map_cases().items() if "float" not in name}

    def refused(*args):
        raise AssertionError("InternalSpace group law called")

    monkeypatch.setattr(InternalSpace, "add", refused)
    monkeypatch.setattr(InternalSpace, "scale", refused)
    for name, scheme in cases.items():
        for n in itertools.product(range(-2, 3), repeat=scheme.rank):
            scheme.star(n)
