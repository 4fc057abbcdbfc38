"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; exact assertions use the scalar
normal forms, so equality is equality.
"""

import random
import time
from fractions import Fraction

import pytest

from cutproject import transforms
from cutproject.analysis import (
    empirical_density,
    equidistribution_check,
    repetitivity_check,
    verify_equality,
)
from cutproject.fibonacci import fibonacci_scheme, fibonacci_substitution, fibonacci_window
from cutproject.hull import (
    AlmostModelSetWitness,
    GammaRule,
    check_shift_avoidance,
    generic_shift,
    limit_patch_check,
    window_difference_points,
)
from cutproject.internal_space import InternalSpace, RealFactor, TwistedExtensionFactor
from cutproject.scalars import GOLDEN, GOLDEN_CONJ, SQRT5, Scalar
from cutproject.scheme import Box, Patch
from cutproject.substitution import fixed_point_patch
from cutproject.transforms import (
    check_lattice_restriction,
    extend_injective,
    lift_window,
    lift_window_torus,
    star_injectivity_exhaustive,
    translate_cps,
)
from cutproject.windows import eq11_chain, interval_window

LINE = InternalSpace([RealFactor(1)])


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"acceptance {num:2d}: {tag}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_fibonacci_oracle_equivalence():
    start = time.perf_counter()
    scheme = fibonacci_scheme()
    window = fibonacci_window()
    box = Box.symmetric(200)
    oracle = fixed_point_patch(fibonacci_substitution(), 8, box)
    projected = scheme.project_points(box, window)
    equal, witness = verify_equality(
        Patch(oracle.points, box), Patch(projected.points, box)
    )
    elapsed = time.perf_counter() - start
    ok = equal and 250 <= len(oracle) <= 350 and elapsed < 10.0
    report(
        1,
        ok,
        f"{len(oracle)} points, exact equality={equal}, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_translation_incommensurate():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    a = Scalar.sqrt(2)
    ext = translate_cps(scheme, (a,), 10 ** 6, window=w)
    box = Box.symmetric(20)
    all_ok = ext.certificate.passed and ext.m == 0
    for n in range(-3, 4):
        shift = a * n
        lhs = scheme.project_points(box.translate((-shift,)), w).translate((shift,))
        rhs = ext.scheme.project_points(box, lift_window(w, n, ext.scheme))
        equal, _ = verify_equality(Patch(lhs.points, box), Patch(rhs.points, box))
        all_ok = all_ok and equal
    report(2, all_ok, "sqrt(2)-translation patches equal exactly for n in -3..3")


def test_criterion_03_translation_commensurate_and_group_axioms():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    a = GOLDEN / 3
    ext = translate_cps(scheme, (a,), 100, window=w)
    box = Box.symmetric(20)
    shift = a
    lhs = scheme.project_points(box.translate((-shift,)), w).translate((shift,))
    rhs = ext.scheme.project_points(box, lift_window(w, 1, ext.scheme))
    equal, _ = verify_equality(Patch(lhs.points, box), Patch(rhs.points, box))
    ok = equal and ext.m == 3
    # 10^4 randomized group-axiom instances over the twisted addition
    rng = random.Random(12345)
    cases = 0
    for m in (1, 2, 3, 5):
        twist = LINE.point((GOLDEN_CONJ,))
        space = InternalSpace([TwistedExtensionFactor(LINE, m, twist)])
        zero = space.zero()

        def rand_point():
            val = Scalar(Fraction(rng.randint(-60, 60), rng.randint(1, 9)))
            val = val + GOLDEN_CONJ * rng.randint(-4, 4)
            return space.point((LINE.point((val,)), rng.randint(0, m - 1)))

        for _ in range(2500):
            x, y, z = rand_point(), rand_point(), rand_point()
            assert space.add(x, y) == space.add(y, x)
            assert space.add(space.add(x, y), z) == space.add(x, space.add(y, z))
            assert space.add(x, zero) == x
            assert space.add(x, space.negate(x)) == zero
            cases += 1
    ok = ok and cases == 10 ** 4
    report(3, ok, f"twisted patch equality exact; {4 * cases} axiom checks green")


def test_criterion_04_structural_checks():
    scheme = fibonacci_scheme()
    rng = random.Random(2024)
    ok = True
    for a in ((Scalar.sqrt(2),), (GOLDEN / 3,)):
        ext = translate_cps(scheme, a, 10 ** 6)
        ok = ok and check_lattice_restriction(scheme, ext.scheme).passed
        ok = ok and ext.scheme.lattice_coords_of(a, ext.b) is not None
        for _ in range(25):
            lo = Fraction(rng.randint(-9, 9), 4)
            width = Fraction(rng.randint(0, 8), 4)
            lc, hc = rng.random() < 0.5, rng.random() < 0.5
            if width == 0 and not (lc and hc):
                width = Fraction(1, 4)
            w = interval_window(LINE, lo, lo + width, lc, hc)
            lifted = lift_window(w, rng.randint(-5, 5), ext.scheme)
            ok = ok and lifted.properties() == w.properties()
    report(4, ok, "lattice restriction decided both ways, pair membership, 50 window flags")


def test_criterion_05_injective_extension():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    ext = extend_injective(
        scheme, (Scalar.root(2, 3),), injectivity_bound=200, window=w,
        box=Box.symmetric(20),
    )
    ok = ext.certificate.passed
    inj, _ = star_injectivity_exhaustive(ext.scheme, 200)
    ok = ok and inj
    box = Box.symmetric(20)
    lhs = scheme.project_points(box, w)
    rhs = ext.scheme.project_points(box, lift_window_torus(w, ext.scheme.space, 1))
    equal, _ = verify_equality(Patch(lhs.points, box), Patch(rhs.points, box))
    ok = ok and equal
    report(5, ok, "images distinct for all |n_i| <= 200; full-torus patch equal")


def test_criterion_06_equidistribution():
    scheme = fibonacci_scheme()
    ext = extend_injective(scheme, (Scalar.root(2, 3),), injectivity_bound=50)
    u = fibonacci_window().interior()
    rep = equidistribution_check(ext.scheme, u, chi_bound=3.0, n=2000)
    ok = rep.status == "pass" and rep.cells_hit == 8 and rep.max_fb < 0.05
    report(
        6,
        ok,
        f"all 8 cells hit with {rep.point_count} points; max |a_chi| = {rep.max_fb:.4f} < 0.05",
    )


def test_criterion_07_density_formula():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    n_values = list(range(50, 1001, 50))
    rep = empirical_density(scheme, w, n_values)
    closed_form = float(GOLDEN / SQRT5)
    err = abs(rep.empirical[-1] - closed_form)
    ok = err < 1e-3 and rep.sandwich_ok
    report(7, ok, f"|density(1000) - golden/sqrt5| = {err:.2e} < 1e-3; sandwich holds")


def test_criterion_08_almost_to_model_roundtrip():
    scheme = fibonacci_scheme()
    upper = fibonacci_window()
    lower = upper.interior()
    box = Box.symmetric(50)
    truncation = 30
    witnesses = {
        "lower": GammaRule(lower),
        "upper": GammaRule(upper.closure()),
        "mixed": GammaRule(lower, add=[(0, -1)]),
    }
    ok = True
    for name, rule in witnesses.items():
        witness = AlmostModelSetWitness(scheme, lower, upper, rule, truncation)
        aug = transforms.almost_to_model(witness, box=box)
        reproduced = scheme.project_points(box, aug.window)
        expected = witness.gamma_patch(box)
        equal, _ = verify_equality(
            Patch(reproduced.points, box), Patch(expected.points, box)
        )
        chain = eq11_chain(upper, aug.window)
        ok = ok and equal and chain and aug.certificate.passed
    report(8, ok, "three membership rules reproduced exactly on [-50, 50]; chain holds")


def test_criterion_09_hull_lemma():
    scheme = fibonacci_scheme()
    upper = fibonacci_window()
    lower = upper.interior()
    witness = AlmostModelSetWitness(
        scheme, lower, upper, GammaRule(upper.closure()), 250
    )
    K = Box.symmetric(10)
    rng = random.Random(987)
    ok = True
    for i in range(10):
        t = LINE.point((Fraction(rng.randint(-500, 500), 1000),))
        rep = limit_patch_check(scheme, witness, t, K, rungs=9)
        ok = ok and rep.stabilized and not rep.stalled
        ok = ok and rep.lower_ok and rep.upper_ok
    # generic shift: truncated avoidance then window collapse
    t = generic_shift(scheme, lower, upper, truncation=500)
    diff = window_difference_points(lower, upper)
    avoided, _ = check_shift_avoidance(scheme, t, diff, 500)
    low = scheme.project_points(K, lower.translate(t))
    up = scheme.project_points(K, upper.closure().translate(t))
    ok = ok and avoided and low.point_set() == up.point_set()
    report(9, ok, "10 limit patches stabilized within bounds; generic shift collapses")


def test_criterion_10_repetitivity():
    scheme = fibonacci_scheme()
    w = fibonacci_window()
    K = Box.interval(0, 5)
    probe = Box.symmetric(100)
    source = lambda box: scheme.project_points(box, w)  # noqa: E731
    rep = repetitivity_check(source, K, 20, probe)
    ok = rep.ok

    def corrupted(box):
        patch = scheme.project_points(box, w)
        victim = next(p for p in patch.points if Scalar(1) <= p[0] <= Scalar(4))
        return Patch([p for p in patch.points if p != victim], box)

    bad = repetitivity_check(corrupted, K, 20, probe)
    ok = ok and not bad.ok and bad.witness_center is not None
    report(10, ok, f"pattern returns dense at R=20; corrupted patch fails with witness")
