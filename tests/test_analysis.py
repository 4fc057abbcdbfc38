import cmath
import math
import random
from fractions import Fraction

import pytest
from test_scheme import float_scheme, golden_square_scheme

from cutproject.analysis import (
    CharacterRd,
    RepetitivityReport,
    annihilator_projection,
    character_average,
    empirical_density,
    equidistribution_check,
    fourier_bohr,
    repetitivity_check,
    verify_equality,
)
from cutproject.fibonacci import fibonacci_scheme, fibonacci_window
from cutproject.internal_space import FiniteCyclicFactor, InternalSpace, RealFactor, TorusFactor
from cutproject.scalars import FLOAT_EPS, GOLDEN, GOLDEN_CONJ, SQRT5, Scalar
from cutproject.scheme import Box, CutProjectScheme, Patch
from cutproject.transforms import extend_injective, lift_window, lift_window_torus, translate_cps
from cutproject.windows import ProductWindow, UnionWindow, empty_window, interval_window

LINE = InternalSpace([RealFactor(1)])


def test_annihilator_fibonacci_exact():
    scheme = fibonacci_scheme()
    gens = annihilator_projection(scheme, 4)
    # transpose inverse computed by hand: columns project to -conj/sqrt5, 1/sqrt5
    inv_sqrt5 = SQRT5 / 5
    expected = {(-GOLDEN_CONJ * inv_sqrt5,), (inv_sqrt5,)}
    assert set(gens) == expected
    # both expected values lie in (1/sqrt5) * (Z + Z*golden)
    for (chi,) in gens:
        scaled = chi * SQRT5  # now in Z + Z*golden
        from cutproject.fibonacci import ring_coordinates_of

        ((p, q),) = ring_coordinates_of([scaled])
        assert isinstance(p, int) and isinstance(q, int)
    # golden/sqrt5 is an integer combination of the two generators
    combo = gens[0][0] + gens[1][0]
    assert combo == GOLDEN * inv_sqrt5


def test_annihilator_identity_lattice():
    plane = InternalSpace([RealFactor(1)])
    sq = CutProjectScheme(
        1,
        plane,
        [((Scalar(1),), plane.point((0,))), ((Scalar(0),), plane.point((1,)))],
        require_injective=False,
    )
    gens = annihilator_projection(sq, 2)
    values = {g[0] for g in gens}
    assert values == {Scalar(1), Scalar(0)}
    # the zero character projection always belongs to the generated group
    zero_combo = gens[0][0] * 0
    assert zero_combo == Scalar(0)


def test_annihilator_cyclic_shift():
    space = InternalSpace([FiniteCyclicFactor(2)])
    scheme = CutProjectScheme(1, space, [((Scalar(Fraction(1, 2)),), space.point(1))])
    gens = annihilator_projection(scheme, 3)
    values = [g[0] for g in gens]
    assert values[0] == Scalar(2)  # dual of the coordinate matrix [1/2]
    assert values[1] == Scalar(-1)  # fractional shift for the residue factor
    # congruence check: chi_G * g + j/2 * residue lies in Z for the generator
    assert (values[1] * Fraction(1, 2) + Fraction(1, 2) * 1) == Scalar(0)


def test_annihilator_rejects_torus():
    scheme = fibonacci_scheme()
    ext = extend_injective(scheme, (Scalar.root(2, 3),), injectivity_bound=10)
    with pytest.raises(ValueError):
        annihilator_projection(ext.scheme, 2)


def test_empirical_density_fibonacci():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    report = empirical_density(scheme, w, [50, 100, 200])
    closed_form = float(GOLDEN / SQRT5)
    assert abs(report.empirical[-1] - closed_form) < 5e-3
    assert report.sandwich_ok
    assert report.counts == sorted(report.counts)
    # measure-regular window: both theoretical bounds coincide
    assert report.lower == pytest.approx(report.upper)
    csv = report.to_csv_text()
    assert csv.startswith("n,count,empirical,lower,upper")


def test_empirical_density_empty_window():
    scheme = fibonacci_scheme()
    report = empirical_density(scheme, empty_window(LINE), [50, 100])
    assert report.counts == [0, 0]
    assert report.empirical == [0.0, 0.0]
    assert report.sandwich_ok


def density_case(name):
    fib = fibonacci_scheme()
    base = fibonacci_window()
    if name == "fibonacci":
        return fib, base
    if name == "union":
        return fib, UnionWindow(
            LINE,
            [
                interval_window(LINE, -1, Fraction(-1, 5)),
                interval_window(LINE, Fraction(1, 10), GOLDEN - 1, True, False),
            ],
        )
    sqrt2 = translate_cps(fib, (Scalar.sqrt(2),), 10 ** 6).scheme  # rank 3
    return sqrt2, lift_window(base, 1, sqrt2)


@pytest.mark.parametrize("name", ["fibonacci", "union", "sqrt2-lift"])
@pytest.mark.parametrize("n_values", [[90, 15, 40, 15], [60, 60, 7, 120, 33]])
def test_empirical_density_counts_equal_their_own_patches(name, n_values):
    # one enumeration at the largest n, restricted to the smaller boxes,
    # must count what a separate enumeration of each box finds
    scheme, window = density_case(name)
    report = empirical_density(scheme, window, n_values)
    ns = sorted(n_values)
    expected = [len(scheme.project_points(Box.symmetric(n), window)) for n in ns]
    assert report.n_values == ns
    assert report.counts == expected
    assert report.empirical == [c / (2 * n) for n, c in zip(ns, expected)]


def test_empirical_density_invalid_and_empty_n():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    with pytest.raises(ValueError, match="out of order"):
        empirical_density(scheme, w, [10, -5])
    report = empirical_density(scheme, w, [])
    assert report.counts == report.empirical == report.n_values == []


def test_character_average_is_the_fourier_bohr_sum():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    patch = scheme.project_points(Box.symmetric(80), w)
    chi = CharacterRd((0.5,))
    total = 0j
    for p in patch.points:
        total += chi.value(p).conjugate()
    assert character_average(patch.points, chi, 160) == total / 160
    assert fourier_bohr(scheme, w, [(0.5,)], 80) == (len(patch) / 160, [total / 160])
    with pytest.raises(ValueError, match="components"):
        fourier_bohr(scheme, w, [(0.5,), (0.5, 7.0)], 80)


def reference_character_average(points, chi, volume):
    """The character sum in complex arithmetic, as ``CharacterRd.value``
    writes each term."""
    total = 0j
    for p in points:
        phase = sum(c * float(x) for c, x in zip(chi.chi, p))
        total += cmath.exp(2j * math.pi * phase).conjugate()
    return total / volume


def complex_bits(z):
    return z.real.hex(), z.imag.hex()


def character_cases():
    """(points, chis, volume) in d = 1 and d = 2: patch floats and Scalar
    points, signed zeros among the coordinates and the characters."""
    rng = random.Random(24)
    signed = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1 / 5 ** 0.5]
    fib = fibonacci_scheme().project_points(Box.symmetric(120), fibonacci_window())
    square, w = golden_square_scheme()
    plane = square.project_points(Box.symmetric(6, 2), w)
    line_points = [(x,) for x in signed] + [(rng.uniform(-120, 120),) for _ in range(40)]
    plane_points = [(x, y) for x in signed for y in signed] + [
        (rng.uniform(-9, 9), rng.choice(signed)) for _ in range(40)
    ]
    scalar_line = [(Scalar.from_float(x),) for x in signed] + [(GOLDEN * k,) for k in range(-9, 9)]
    line_chis = [(c,) for c in signed + [rng.uniform(-3, 3) for _ in range(4)]]
    plane_chis = [(a, b) for a in signed for b in signed[:3]] + [(1.3, -0.7)]
    return [
        (fib.points, line_chis, 240),
        (fib.float_points(), line_chis, 240),
        (line_points, line_chis, 3),
        (scalar_line, line_chis, 7),
        (plane.points, plane_chis, 144),
        (plane.float_points(), plane_chis, 144),
        (plane_points, plane_chis, 1),
        ([], plane_chis, 5),
    ]


def test_character_average_matches_complex_arithmetic_bit_for_bit():
    # the sum is two float loops, cos and -sin of each phase; it must give
    # the bits of the complex sum, signed zeros included
    checked = 0
    for points, chis, volume in character_cases():
        for chi in map(CharacterRd, chis):
            got = character_average(points, chi, volume)
            want = reference_character_average(points, chi, volume)
            assert complex_bits(got) == complex_bits(want), (chi, points[:3])
            checked += 1
    assert checked == 4 * (11 + 22)


def test_character_sums_run_left_to_right():
    # on a long column a compensated sum (math.fsum, and sum() of floats on
    # CPython 3.12+) already moves the last bits of the cosines' sum; the
    # average must keep the left-to-right bits of the complex sum
    scheme = fibonacci_scheme()
    points = scheme.project_points(Box.symmetric(2000), fibonacci_window()).float_points()
    assert len(points) == 2895
    chi = CharacterRd((1.3,))
    got = character_average(points, chi, 4000)
    want = reference_character_average(points, chi, 4000)
    assert complex_bits(got) == complex_bits(want)
    cosines = [math.cos(2 * math.pi * (1.3 * x)) for (x,) in points]
    assert math.fsum(cosines) / 4000 != got.real


def test_fourier_bohr_trivial_character_is_density():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    n = 150
    density, (a0,) = fourier_bohr(scheme, w, [(0.0,)], n)
    patch = scheme.project_points(Box.symmetric(n), w)
    assert density == len(patch) / (2 * n)
    assert a0 == pytest.approx(len(patch) / (2 * n))
    assert a0.imag == 0


def test_fourier_bohr_periodic_comb():
    trivial = InternalSpace([])
    comb = CutProjectScheme(1, trivial, [((Scalar(1),), trivial.zero())])
    w = ProductWindow(trivial, ())
    _, (a1, a_half) = fourier_bohr(comb, w, [(1.0,), (0.5,)], 400)
    assert abs(a1 - 1.0) < 2e-3  # resonance at the lattice frequency
    assert abs(a_half) < 2e-3


def test_fourier_bohr_small_at_generic_frequencies():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    c = float(Scalar.root(2, 3))
    _, coefficients = fourier_bohr(scheme, w, [(k / c,) for k in (1, 2)], 300)
    for a in coefficients:
        assert abs(a) < 0.06


def test_equidistribution_fibonacci_extension():
    scheme = fibonacci_scheme()
    ext = extend_injective(scheme, (Scalar.root(2, 3),), injectivity_bound=25)
    u = fibonacci_window().interior()
    report = equidistribution_check(ext.scheme, u, chi_bound=3.0, n=300)
    assert report.status == "pass"
    assert report.cells_hit == report.cells_total == 8
    assert report.max_fb < 0.1
    # tiny sample with an empty cell is inconclusive, not a failure
    small = equidistribution_check(ext.scheme, u, chi_bound=3.0, n=4)
    assert small.status in ("inconclusive", "pass")
    if small.status == "inconclusive":
        assert small.point_count < 16
    # the empty window fails structurally, reported rather than raised
    empty_report = equidistribution_check(
        ext.scheme, empty_window(LINE), chi_bound=3.0, n=50
    )
    assert empty_report.status == "fail"
    assert empty_report.cells_hit == 0


def test_equidistribution_reads_torus_coordinate_only(monkeypatch):
    # the torus coordinate is the torus factor's own part of the star map,
    # the fractional part of sum(n_j * c_j), so no star point is built
    ext = extend_injective(fibonacci_scheme(), (Scalar.root(2, 3),), injectivity_bound=25)
    u = fibonacci_window().interior()
    before, oracle = {}, {}
    # n = 200 covers all 8 cells; n = 10 leaves one empty
    for n in (200, 10):
        before[n] = equidistribution_check(ext.scheme, u, chi_bound=3.0, n=n)
        patch = ext.scheme.project_points(
            Box.symmetric(n), lift_window_torus(u, ext.scheme.space, 1)
        )
        cells = {
            min(int(ext.scheme.star(c).coords[1][0].to_float() * 8), 7) for c in patch.coords
        }
        oracle[n] = (len(patch), len(cells))

    def refused(self, n):
        raise AssertionError("star called")

    evaluations = []
    star_map = TorusFactor.star_map

    def counted(self, coords):
        form = star_map(self, coords)

        def count(n):
            evaluations.append(n)
            return form(n)

        return count

    monkeypatch.setattr(CutProjectScheme, "star", refused)
    monkeypatch.setattr(TorusFactor, "star_map", counted)
    walked = {}
    for n in (200, 10):
        evaluations.clear()
        report = equidistribution_check(ext.scheme, u, chi_bound=3.0, n=n)
        assert report.to_obj() == before[n].to_obj()
        assert (report.point_count, report.cells_hit) == oracle[n]
        walked[n] = len(evaluations)  # one torus axis: one evaluation per point
    assert before[200].cells_hit == 8 and walked[200] < before[200].point_count
    # a run that leaves a cell empty reads every point
    assert before[10].cells_hit < 8 and walked[10] == before[10].point_count


@pytest.mark.parametrize("chi_bound", [0.0, -3.0, 0.5])
def test_equidistribution_refuses_a_bound_without_characters(chi_bound):
    # the smallest nontrivial character of the root(2,3) torus has norm
    # 1/root(2,3) > 0.5: a check of no character must not pass
    ext = extend_injective(fibonacci_scheme(), (Scalar.root(2, 3),), injectivity_bound=25)
    with pytest.raises(ValueError, match="no nontrivial torus character"):
        equidistribution_check(ext.scheme, fibonacci_window(), chi_bound=chi_bound, n=50)


def test_equidistribution_needs_torus():
    with pytest.raises(ValueError):
        equidistribution_check(fibonacci_scheme(), fibonacci_window(), 3.0, 50)


def test_verify_inclusion_and_equality_exact():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    box = Box.interval(0, 50)
    inner = scheme.project_points(box, w.interior())
    outer = scheme.project_points(box, w.closure())
    assert inner.point_set() <= outer.point_set()
    ok, witness = verify_equality(outer, outer)
    assert ok and witness is None
    perturbed = Patch(
        [p for p in outer.points if p != outer.points[3]]
        + [(outer.points[3][0] + Fraction(1, 100),)],
        box,
    )
    ok, witness = verify_equality(outer, perturbed)
    assert not ok and witness is not None
    with pytest.raises(ValueError):
        verify_equality(outer, scheme.project_points(Box.interval(0, 49), w))


def test_verify_equality_float_matching():
    box = Box.interval(0, 10)
    a = Patch([(Scalar.from_float(1.0),), (Scalar.from_float(2.0),)], box)
    b = Patch([(Scalar.from_float(1.0 + 1e-12),), (Scalar.from_float(2.0),)], box)
    ok, _ = verify_equality(a, b)
    assert ok
    c = Patch([(Scalar.from_float(1.0),), (Scalar.from_float(2.5),)], box)
    ok, witness = verify_equality(a, c)
    assert not ok


def test_verify_relations_properties():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    box = Box.interval(-20, 20)
    p = scheme.project_points(box, w)
    q = scheme.project_points(box, w.interior())
    r = scheme.project_points(box, interval_window(LINE, 0, Fraction(1, 4)))
    # partial order: reflexive, antisymmetric on these, transitive
    assert p.point_set() <= p.point_set()
    assert r.point_set() <= q.point_set() <= p.point_set()
    assert r.point_set() <= p.point_set()


def test_repetitivity_periodic():
    trivial = InternalSpace([])
    comb = CutProjectScheme(1, trivial, [((Scalar(1),), trivial.zero())])
    w = ProductWindow(trivial, ())
    source = lambda box: comb.project_points(box, w)  # noqa: E731
    report = repetitivity_check(source, Box.interval(0, 2), 2, Box.symmetric(30))
    assert report.ok


def test_repetitivity_fibonacci_small():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    source = lambda box: scheme.project_points(box, w)  # noqa: E731
    report = repetitivity_check(source, Box.interval(0, 5), 20, Box.symmetric(60))
    assert report.ok
    assert report.returns_found > 3


def test_repetitivity_corruption_fails_with_witness():
    scheme = fibonacci_scheme()
    w = fibonacci_window()

    def corrupted(box):
        patch = scheme.project_points(box, w)
        victim = next(p for p in patch.points if Scalar(1) <= p[0] <= Scalar(4))
        return Patch([p for p in patch.points if p != victim], box)

    report = repetitivity_check(corrupted, Box.interval(0, 5), 20, Box.symmetric(100))
    assert not report.ok
    assert report.witness_center is not None


def test_repetitivity_unique_pattern_fails():
    # a random-ish finite set with a unique local pattern has no returns
    rng = random.Random(9)
    points = sorted({Fraction(rng.randint(-200, 200), 2) for _ in range(80)})

    def source(box):
        return Patch([(Scalar(p),) for p in points if box.contains((Scalar(p),))], box)

    report = repetitivity_check(source, Box.interval(0, 5), 10, Box.symmetric(90))
    assert not report.ok
    assert report.witness_center is not None


def repetitivity_linear_scan(patch_source, K, radius, probe):
    """The check as it was first written: a Box.contains scan per candidate."""
    radius = Scalar.of(radius)
    patch = patch_source(probe)
    reference = frozenset(p for p in patch.points if K.contains(p))
    valid_lo = probe.lo[0] - K.lo[0]
    valid_hi = probe.hi[0] - K.hi[0]
    if reference:
        anchor = min(reference)[0]
        candidates = {p[0] - anchor for p in patch.points}
    else:
        candidates = {Scalar(0)}
    returns = []
    patch_set = patch.point_set()
    for t in candidates:
        if t < valid_lo or t > valid_hi:
            continue
        shifted_K = Box.interval(K.lo[0] + t, K.hi[0] + t)
        expected = frozenset((p[0] + t,) for p in reference)
        actual = frozenset(p for p in patch_set if shifted_K.contains(p))
        if expected == actual:
            returns.append(t)
    returns.sort()
    if not returns:
        return RepetitivityReport(False, (probe.lo[0],), 0)
    if returns[0] - probe.lo[0] > radius:
        return RepetitivityReport(False, (probe.lo[0],), len(returns))
    for t_prev, t_next in zip(returns, returns[1:]):
        if t_next - t_prev > 2 * radius:
            return RepetitivityReport(False, ((t_prev + t_next) / 2,), len(returns))
    if probe.hi[0] - returns[-1] > radius:
        return RepetitivityReport(False, (probe.hi[0],), len(returns))
    return RepetitivityReport(True, None, len(returns))


def repetitivity_trials(count):
    """Seeded repetitivity trials: the sources by name, and ``count`` tuples
    ``(name, K, probe, radius)`` cycling through them."""
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    rng = random.Random(41)
    scattered = sorted({Fraction(rng.randint(-240, 240), 4) for _ in range(60)})
    sources = {
        "fibonacci": lambda box: scheme.project_points(box, w),
        "narrow": lambda box: scheme.project_points(box, interval_window(LINE, -1, Fraction(1, 2))),
        "scattered": lambda box: Patch(
            [(Scalar(x),) for x in scattered if box.contains((Scalar(x),))], box
        ),
    }
    trials = []
    for trial in range(count):
        name = sorted(sources)[trial % 3]
        centre = rng.randint(-30, 30)
        probe = Box.interval(centre - rng.randint(5, 30), centre + rng.randint(5, 30))
        lo = centre + Fraction(rng.randint(-80, 40), rng.choice((2, 4)))
        K = Box.interval(lo, lo + Fraction(rng.randint(0, 24), rng.choice((1, 4))))
        radius = Fraction(rng.randint(1, 40), 2)
        trials.append((name, K, probe, radius))
    return sources, trials


def test_repetitivity_agrees_with_the_linear_scan():
    sources, trials = repetitivity_trials(36)
    outcomes = set()
    for name, K, probe, radius in trials:
        fast = repetitivity_check(sources[name], K, radius, probe)
        slow = repetitivity_linear_scan(sources[name], K, radius, probe)
        assert fast.to_obj() == slow.to_obj(), (name, K, probe, radius)
        assert (fast.ok, fast.witness_center, fast.returns_found) == (
            slow.ok, slow.witness_center, slow.returns_found
        )
        empty = not any(K.contains(p) for p in sources[name](probe).points)
        outcomes.add((fast.ok, empty))
    # passing and failing checks, with and without a reference pattern
    assert {(True, False), (False, False), (False, True)} <= outcomes


def test_float_repetitivity_agrees_with_exact():
    # a float point hashes by its bits but compares within FLOAT_EPS, so a
    # return whose translated points differ only by rounding must still match
    sources, trials = repetitivity_trials(60)
    scheme = float_scheme()
    w = fibonacci_window()
    outcomes = set()
    for _, K, probe, radius in trials:
        exact = repetitivity_check(sources["fibonacci"], K, radius, probe)
        floating = repetitivity_check(lambda box: scheme.project_points(box, w), K, radius, probe)
        assert (floating.ok, floating.returns_found) == (exact.ok, exact.returns_found), (K, probe)
        if exact.witness_center is None:
            assert floating.witness_center is None
        else:
            (c,) = floating.witness_center
            assert abs(c.to_float() - exact.witness_center[0].to_float()) <= FLOAT_EPS
        outcomes.add(exact.ok)
    assert outcomes == {True, False}


def float_view_cases():
    """(name, make) with ``make()`` a fresh patch of each kind the analysis
    suites read: lazy exact and float patches, a two-piece union, a lifted
    rank-3 scheme, and built points in d = 2."""
    fib, w = fibonacci_scheme(), fibonacci_window()
    union = UnionWindow(LINE, [
        interval_window(LINE, -1, Fraction(-1, 5), True, False),
        interval_window(LINE, Fraction(1, 20), GOLDEN - 1),
    ])
    sqrt2 = translate_cps(fib, (Scalar.sqrt(2),), 10 ** 6).scheme
    lifted = lift_window(w, 2, sqrt2)
    flt = float_scheme()
    flt_w = interval_window(LINE, -1.0, float(GOLDEN - 1))
    square, square_w = golden_square_scheme()
    return [
        ("fibonacci", lambda: fib.project_points(Box.symmetric(300), w)),
        ("union", lambda: fib.project_points(Box.interval(-250, 200), union)),
        ("sqrt(2) lift", lambda: sqrt2.project_points(Box.symmetric(120), lifted)),
        ("float", lambda: flt.project_points(Box.symmetric(300), flt_w)),
        ("golden square", lambda: square.project_points(Box([-9, -9], [9, 9]), square_w)),
    ]


@pytest.mark.parametrize("case", range(5))
def test_float_points_are_the_points_floats(case):
    # the one float view, read from lattice coordinates while the patch is
    # lazy and from the points once built, gives each point's to_float bits
    name, make = float_view_cases()[case]
    patch = make()
    assert (patch._points is None) == (name != "golden square")
    fresh = patch.float_points()
    want = [tuple(x.to_float() for x in p) for p in patch.points]
    assert len(want) > 20, name
    assert [tuple(map(float.hex, p)) for p in fresh] == [tuple(map(float.hex, p)) for p in want]
    assert patch.float_points() == want
    dim = len(want[0])
    for chi in ((0.5,) * dim, (-1.3,) + (0.25,) * (dim - 1)):
        chi = CharacterRd(chi)
        total = 0j
        for p in patch.points:
            total += chi.value(p).conjugate()
        assert character_average(fresh, chi, 7) == total / 7


@pytest.mark.parametrize("case", range(5))
def test_restrict_counts_equal_the_exact_filter(case):
    # bisected counts equal Box.contains over every point, on boxes whose
    # first ends are patch points, lie between them or miss the patch, from
    # a lazy patch (which stays lazy unless its values are floats) and from
    # built points
    name, make = float_view_cases()[case]
    points, coords = make().points, make().coords
    dim = len(points[0])
    rng = random.Random(2100 + case)
    boxes = [Box([-1000] * dim, [-900] * dim), make().box]
    for _ in range(10):
        a, b = sorted(rng.sample(range(len(points)), 2))
        lo, hi = points[a][0], points[b][0]
        boxes.append(Box([lo] + [-4] * (dim - 1), [hi] + [rng.choice((3, 9))] * (dim - 1)))
        boxes.append(Box([lo + Fraction(1, 7)] * dim, [hi + Fraction(1, 7)] * dim))
    for box in boxes:
        keep = [i for i, p in enumerate(points) if box.contains(p)]
        lazy, built = make(), make()
        built.points
        was_lazy = lazy._points is None
        for patch in (lazy, built):
            got = patch.restrict(box)
            assert (got._points is None) == (patch is lazy and was_lazy and name != "float")
            assert len(got) == len(keep), (name, box)
            assert got.points == tuple(points[i] for i in keep)
            assert got.coords == tuple(coords[i] for i in keep)
            assert got.box == box


def test_empirical_density_builds_no_point_of_a_lazy_patch(monkeypatch):
    patches = []
    project = CutProjectScheme.project_points

    def kept(self, box, window, **kw):
        patches.append(project(self, box, window, **kw))
        return patches[-1]

    monkeypatch.setattr(CutProjectScheme, "project_points", kept)
    report = empirical_density(fibonacci_scheme(), fibonacci_window(), [34, 55, 89, 300])
    (patch,) = patches
    assert patch._points is None
    xs = [p[0] for p in patch.points]
    assert report.counts == [sum(-n <= x <= n for x in xs) for n in (34, 55, 89, 300)]
