import random
from fractions import Fraction

import pytest

from cutproject import hull, transforms
from cutproject.fibonacci import fibonacci_scheme, fibonacci_window
from cutproject.hull import (
    AlmostModelSetWitness,
    GammaRule,
    ShiftParameter,
    check_shift_avoidance,
    generic_shift,
    hull_classification_check,
    limit_patch_check,
    window_difference_points,
)
from cutproject.internal_space import InternalSpace, RealFactor
from cutproject.scalars import GOLDEN, Scalar
from cutproject.scheme import Box, CutProjectScheme, Patch, SchemeError
from cutproject.windows import interval_window

LINE = InternalSpace([RealFactor(1)])
TRUNCATION = 30


def units():
    scheme = fibonacci_scheme()
    upper = fibonacci_window()  # (-1, golden-1]
    lower = upper.interior()
    return scheme, lower, upper


def witness_full():
    scheme, lower, upper = units()
    rule = GammaRule(upper.closure())
    return AlmostModelSetWitness(scheme, lower, upper, rule, TRUNCATION)


def witness_lower():
    scheme, lower, upper = units()
    return AlmostModelSetWitness(scheme, lower, upper, GammaRule(lower), TRUNCATION)


def witness_mixed():
    # the lower model set plus the single point whose star is golden-1
    scheme, lower, upper = units()
    rule = GammaRule(lower, add=[(0, -1)])
    return AlmostModelSetWitness(scheme, lower, upper, rule, TRUNCATION)


def shifted_projection(scheme, window, x, box):
    """Projection set of the shifted lattice: s plus the -t-translated window."""
    neg_s = tuple(-v for v in x.s)
    inner = scheme.project_points(box.translate(neg_s), window.translate(scheme.space.negate(x.t)))
    return inner.translate(x.s)


def test_shifted_projection_identity_and_lattice_covariance():
    scheme, lower, upper = units()
    box = Box.symmetric(12)
    base = scheme.project_points(box, upper)
    zero = ShiftParameter.of((0,), LINE.zero())
    assert shifted_projection(scheme, upper, zero, box) == base
    # shifting by a lattice pair leaves the projection set unchanged
    g, h = scheme.point_of((2, -1))
    x = ShiftParameter.of(g, h)
    assert shifted_projection(scheme, upper, x, box).point_set() == base.point_set()


def test_witness_validation_rejects_bad_rules():
    scheme, lower, upper = units()
    with pytest.raises(transforms.WitnessInclusionError):
        # rejecting a lower-window point
        AlmostModelSetWitness(
            scheme, lower, upper, GammaRule(lower, remove=[(0, 0)]), 10
        )
    with pytest.raises(transforms.WitnessInclusionError):
        # admitting a point far outside the upper window
        AlmostModelSetWitness(
            scheme, lower, upper, GammaRule(lower, add=[(7, 0)]), 10
        )


def reference_walk(scheme, lower, upper, rule, truncation):
    """Every n of the truncation cube in lexicographic order, checked one by one."""
    rule = rule.bind(scheme)
    upper_cl = upper.closure()
    admitted = []
    for n, h in transforms.iter_lattice_stars(scheme, truncation):
        selected = rule(n)
        in_lower = lower.contains(h)
        if in_lower and not selected:
            raise transforms.WitnessInclusionError(f"rule rejects a lower-window point at {n}")
        if selected:
            if not upper_cl.contains(h):
                raise transforms.WitnessInclusionError(
                    f"rule admits a point outside the upper window at {n}"
                )
            admitted.append((n, h, in_lower))
    return admitted


def outcome(build):
    try:
        return "admitted", build()
    except transforms.WitnessInclusionError as exc:
        return "error", str(exc)


def assert_matches_reference(scheme, lower, upper, rule, truncation):
    got = outcome(lambda: AlmostModelSetWitness(scheme, lower, upper, rule, truncation).admitted)
    want = outcome(lambda: reference_walk(scheme, lower, upper, rule, truncation))
    assert got == want, (rule.to_obj(), truncation)
    return got[0]


def fibonacci_rule_cases():
    """(rule, lower, upper, truncation) on Fibonacci: two fixed rules and 24
    seeded ones on translated windows."""
    scheme, lower, upper = units()
    cases = [
        (GammaRule(lower, remove=[(0, 0)]), lower, upper, 10),
        (GammaRule(lower, add=[(7, 0)]), lower, upper, 10),
    ]
    rng = random.Random(11)
    for _ in range(24):
        t = LINE.point((Fraction(rng.randint(-40, 40), 80),))
        lo, up = lower.translate(t), upper.translate(t)
        truncation = rng.randint(3, 9)
        window = rng.choice([lo, up, up.closure(), None])
        reach = truncation + 3
        # coordinates inside the cube and past it, where the rule must be ignored
        pick = lambda: tuple(rng.randint(-reach, reach) for _ in range(2))  # noqa: E731
        inside = scheme.project_points(Box.symmetric(4), up.closure()).coords
        add = [pick() for _ in range(rng.randint(0, 2))] + rng.sample(inside, 2)
        remove = [pick() for _ in range(rng.randint(0, 2))]
        cases.append((GammaRule(window, add=add, remove=remove), lo, up, truncation))
    return cases


def test_witness_matches_reference_walk_fibonacci():
    scheme = fibonacci_scheme()
    kinds = {
        assert_matches_reference(scheme, lo, up, rule, tr)
        for rule, lo, up, tr in fibonacci_rule_cases()
    }
    assert kinds == {"admitted", "error"}


@pytest.mark.parametrize("a, bound", [((Scalar.sqrt(2),), 10 ** 6), ((GOLDEN / 3,), 100)])
def test_witness_matches_reference_walk_extensions(a, bound):
    # the sqrt(2) translation extension has rank 3, the golden/3 one a twist
    scheme, lower, upper = units()
    scheme2 = transforms.translate_cps(scheme, a, bound).scheme
    for k in (-1, 0, 1):
        lo = transforms.lift_window(lower, k, scheme2)
        up = transforms.lift_window(upper.closure(), k, scheme2)
        inner = scheme2.project_points(Box.symmetric(3), lo).coords[0]
        far = (3,) + (0,) * (scheme2.rank - 1)
        rules = (
            GammaRule(lo),
            GammaRule(up, remove=[(9,) * scheme2.rank]),
            GammaRule(up, remove=[inner]),
            GammaRule(lo, add=[far]),
        )
        kinds = [assert_matches_reference(scheme2, lo, up, rule, 4) for rule in rules]
        assert kinds == ["admitted", "admitted", "error", "error"]


def test_witness_builds_past_the_default_budget():
    # the truncation box of T = 1500 holds more candidates than the default budget
    scheme, lower, upper = units()
    witness = AlmostModelSetWitness(scheme, lower, upper, GammaRule(lower, add=[(0, -1)]), 1500)
    coords = [n for n, _, _ in witness.admitted]
    assert coords == sorted(coords) and (0, -1) in coords
    assert all(abs(x) <= 1500 for n in coords for x in n)


def test_window_difference_points():
    scheme, lower, upper = units()
    diff = window_difference_points(lower, upper)
    values = {p.coords[0][0] for p in diff}
    assert values == {Scalar(-1), GOLDEN - 1}
    with pytest.raises(ValueError):
        window_difference_points(interval_window(LINE, 0, Fraction(1, 2)), upper)


def test_generic_shift_refuses_windows_differing_by_more_than_a_finite_set():
    scheme, _, upper = units()
    lower = interval_window(LINE, Fraction(-1, 2), GOLDEN - 1, False, False)
    with pytest.raises(SchemeError, match="not a finite point set"):
        generic_shift(scheme, lower, upper, truncation=20)


def test_almost_to_model_three_witnesses():
    scheme, lower, upper = units()
    box = Box.symmetric(50)
    for witness in (witness_lower(), witness_full(), witness_mixed()):
        aug = transforms.almost_to_model(witness, box=box)
        assert aug.certificate.passed
        reproduced = scheme.project_points(box, aug.window)
        expected = witness.gamma_patch(box)
        assert reproduced.point_set() == expected.point_set()


def test_almost_to_model_certifier_out_of_range():
    scheme, _, _ = units()
    witness = witness_mixed()
    aug = transforms.almost_to_model(witness)
    # a star of a lattice point far outside the truncation
    far = scheme.star((200, -100))
    from cutproject.windows import OutOfCertifiedRangeError

    if not aug.window.open_part.contains(far):
        with pytest.raises(OutOfCertifiedRangeError):
            aug.window.contains(far)
    # off-image points answer honestly
    assert not aug.window.contains(LINE.point((Scalar(10),)))


def test_limit_patch_trivial_target():
    scheme, lower, upper = units()
    report = limit_patch_check(scheme, witness_full(), LINE.zero(), Box.symmetric(10))
    assert report.stabilized and not report.stalled
    assert report.lower_ok and report.upper_ok
    base = scheme.project_points(Box.symmetric(10), upper.closure())
    assert report.patch.point_set() == base.point_set()


def test_limit_patch_generic_target_pins_both_bounds():
    scheme, lower, upper = units()
    witness = AlmostModelSetWitness(
        scheme, lower, upper, GammaRule(upper.closure()), 120
    )
    t = LINE.point(((GOLDEN - 1) / 2,))
    report = limit_patch_check(scheme, witness, t, Box.symmetric(10))
    assert report.ok, report.to_obj()
    low = scheme.project_points(Box.symmetric(10), lower.translate(t))
    up = scheme.project_points(Box.symmetric(10), upper.closure().translate(t))
    assert low.point_set() == up.point_set() == report.patch.point_set()
    assert not report.boundary_hits


def test_limit_patch_boundary_hit_flagged():
    scheme, lower, upper = units()
    # t with t + (golden - 1) exactly the star of lattice coordinates (1, 2)
    hit_star = scheme.star((1, 2)).coords[0][0]
    t = LINE.point((hit_star - (GOLDEN - 1),))
    report = limit_patch_check(scheme, witness_full(), t, Box.symmetric(8))
    assert (1, 2) in report.boundary_hits
    assert report.note


def test_generic_shift_ladder():
    scheme, lower, upper = units()
    t = generic_shift(scheme, lower, upper, truncation=500)
    # the first ladder entry 1/pi already avoids the difference set
    assert t.coords[0][0] == Scalar(1) / Scalar.const("pi")
    K = Box.symmetric(10)
    low = scheme.project_points(K, lower.translate(t))
    up = scheme.project_points(K, upper.closure().translate(t))
    assert low.point_set() == up.point_set()
    # doubling the truncation keeps the shift valid
    diff = window_difference_points(lower, upper)
    ok, _ = check_shift_avoidance(scheme, t, diff, 1000)
    assert ok


@pytest.mark.parametrize("truncation", [0, -5])
def test_generic_shift_refuses_a_truncation_below_one(truncation, monkeypatch):
    # refused before any lattice point is checked
    scheme, lower, upper = units()
    monkeypatch.setattr(hull, "check_shift_avoidance", lambda *a: pytest.fail("checked"))
    with pytest.raises(ValueError, match=f"truncation must be at least 1, got {truncation}"):
        generic_shift(scheme, lower, upper, truncation=truncation)


def test_generic_shift_trivial_when_no_difference():
    # a clopen window in a discrete factor has empty closure difference
    from cutproject.internal_space import FiniteCyclicFactor
    from cutproject.scheme import CutProjectScheme
    from cutproject.windows import ProductWindow, ResidueRegion

    space = InternalSpace([FiniteCyclicFactor(2)])
    scheme = CutProjectScheme(1, space, [((Scalar(Fraction(1, 2)),), space.point(1))])
    w = ProductWindow(space, (ResidueRegion(2, {0}),))
    t = generic_shift(scheme, w, w, truncation=100)
    assert t == space.zero()


def test_adversarial_shift_rejected_with_witness():
    scheme, lower, upper = units()
    diff = window_difference_points(lower, upper)
    n0 = (3, 1)
    adified = scheme.star(n0).coords[0][0] - (GOLDEN - 1)
    t = LINE.point((adified,))
    ok, witness = check_shift_avoidance(scheme, t, diff, truncation=500)
    assert not ok
    assert witness == n0


def test_hull_classification_trivial_shift():
    scheme, lower, upper = units()
    witness = witness_full()
    report = hull_classification_check(
        scheme, witness, ShiftParameter.of((0,), LINE.zero()), Box.symmetric(10)
    )
    assert report.lower_ok and report.upper_ok
    assert report.roundtrip_ok


def test_hull_classification_sqrt2_pipeline():
    scheme, lower, upper = units()
    witness = AlmostModelSetWitness(
        scheme, lower, upper, GammaRule(upper.closure()), 15
    )
    report = hull_classification_check(
        scheme, witness, ShiftParameter.of((Scalar.sqrt(2),), LINE.zero()), Box.symmetric(10)
    )
    assert report.ok, report.to_obj()
    assert report.certificate is not None


def test_hull_classification_corrupted_fails():
    scheme, lower, upper = units()
    witness = AlmostModelSetWitness(
        scheme, lower, upper, GammaRule(upper.closure()), 15
    )

    def corrupt(patch):
        extra = (Scalar(Fraction(1, 3)),)
        return Patch(list(patch.points) + [extra], patch.box)

    report = hull_classification_check(
        scheme,
        witness,
        ShiftParameter.of((0,), LINE.zero()),
        Box.symmetric(10),
        corrupt=corrupt,
    )
    assert not report.ok
    assert report.witness_point is not None


def test_witness_serialization():
    scheme, lower, upper = units()
    witness = witness_mixed()
    obj = witness.to_obj()
    again = AlmostModelSetWitness.from_obj(scheme, obj)
    box = Box.symmetric(20)
    assert again.gamma_patch(box) == witness.gamma_patch(box)


def golden_third_extension():
    """The golden/3 translation extension: its one factor is twisted."""
    return transforms.translate_cps(fibonacci_scheme(), (GOLDEN / 3,), 100).scheme


def test_shift_avoidance_sees_twisted_stars():
    # a shift onto a star of the twisted extension is not avoiding
    tw = golden_third_extension()
    assert check_shift_avoidance(tw, tw.star((1, 2)), [tw.space.zero()], 10) == (False, (1, 2))


def test_twisted_augmented_window_refuses_far_stars():
    # the certifier recognises stars of lattice points beyond the truncation
    # in the twisted extension and refuses to answer for them
    from cutproject.windows import OutOfCertifiedRangeError

    tw = golden_third_extension()
    upper = transforms.lift_window(fibonacci_window().closure(), 1, tw)
    lower = transforms.lift_window(fibonacci_window().interior(), 1, tw)
    aug = transforms.almost_to_model(AlmostModelSetWitness(tw, lower, upper, GammaRule(upper), 30))
    assert aug.certificate.passed
    for n in ((200, -100), (-150, 90), (300, 7), (-80, -250)):
        far = tw.star(n)
        assert not aug.window.open_part.contains(far)
        with pytest.raises(OutOfCertifiedRangeError):
            aug.window.contains(far)


def test_certified_box_is_computed_once_per_witness(monkeypatch):
    # every limit target and the augmentation read one certified box
    calls = []
    certified_box = transforms.certified_box

    def counted(*args):
        calls.append(args)
        return certified_box(*args)

    monkeypatch.setattr(transforms, "certified_box", counted)
    scheme, lower, upper = units()
    witness = witness_full()
    for value in (Scalar(0), Scalar(Fraction(1, 10)), Scalar(Fraction(-1, 5))):
        limit_patch_check(scheme, witness, LINE.point((value,)), Box.symmetric(8))
    aug = transforms.almost_to_model(witness)
    assert len(calls) == 1
    assert calls[0] == (scheme, upper.closure(), TRUNCATION)
    assert aug.certificate.checks[0].detail["box"] == certified_box(*calls[0]).to_obj()


def test_generic_shift_builds_each_candidate_when_tried(monkeypatch):
    # the ladder is built rung by rung, and the seeded multiples are drawn
    # in order after it, only once every rung failed
    from cutproject import hull

    scheme, lower, upper = units()
    built = []
    ladder = tuple(
        (lambda k=k, make=make: built.append(k) or make()) for k, make in enumerate(hull.LADDER)
    )
    monkeypatch.setattr(hull, "LADDER", ladder)
    t = generic_shift(scheme, lower, upper, truncation=500)
    assert built == [0] and t.coords[0][0] == Scalar(1) / Scalar.const("pi")
    tried = []

    def refuse(scheme, t, diff, truncation):
        tried.append(t)
        return False, None

    monkeypatch.setattr(hull, "check_shift_avoidance", refuse)
    rng = random.Random(3)
    built.clear()
    with pytest.raises(transforms.CertificationError, match="16 attempts"):
        generic_shift(scheme, lower, upper, truncation=500, rng=rng)
    assert built == [0, 1, 2, 3, 4] + [0] * 11
    replay = random.Random(3)
    fractions = [Fraction(replay.randint(1, 60), replay.randint(1, 60)) for _ in range(11)]
    first = Scalar(1) / Scalar.const("pi")
    assert [t.coords[0][0] for t in tried[5:]] == [first * q for q in fractions]


def extension_rule_cases():
    """(scheme, rule, lower, upper) on the sqrt(2) and golden/3 translation
    extensions, the lifts k = -1, 0, 1 of the Fibonacci windows."""
    _, lower, upper = units()
    for a, bound in (((Scalar.sqrt(2),), 10 ** 6), ((GOLDEN / 3,), 100)):
        scheme2 = transforms.translate_cps(fibonacci_scheme(), a, bound).scheme
        for k in (-1, 0, 1):
            lo = transforms.lift_window(lower, k, scheme2)
            up = transforms.lift_window(upper.closure(), k, scheme2)
            yield scheme2, GammaRule(lo), lo, up
            yield scheme2, GammaRule(up, remove=[(9,) * scheme2.rank]), lo, up


def built_witnesses():
    """Every witness of the rule cases above that builds, and the three
    fixed ones."""
    cases = [(fibonacci_scheme(), rule, lo, up, tr) for rule, lo, up, tr in fibonacci_rule_cases()]
    cases += [(s, rule, lo, up, tr) for s, rule, lo, up in extension_rule_cases() for tr in (4, 12)]
    for scheme, rule, lo, up, tr in cases:
        try:
            yield AlmostModelSetWitness(scheme, lo, up, rule, tr)
        except transforms.WitnessInclusionError:
            continue
    yield from (witness_full(), witness_lower(), witness_mixed())


def rule_filtered_patch(witness, box):
    """The points and coordinates ``gamma_patch`` keeps, by the rule itself."""
    candidates = witness.scheme.project_points(box, witness.upper.closure())
    kept = []
    for p, n in zip(candidates.points, candidates.coords):
        if any(abs(x) > witness.truncation for x in n):
            return "out of range"
        if witness.rule(n):
            kept.append((p, n))
    return kept


def test_gamma_patch_equals_the_rule_filtered_patch():
    # gamma_patch keeps the candidates the witness admitted at construction,
    # without asking the rule again; they are the ones the rule selects, and
    # a box past the cube is refused
    built = refused = 0
    asked = []
    for witness in built_witnesses():
        rule = witness.rule
        for radius in (2, 5, 9, 40):
            box = Box.symmetric(radius, witness.scheme.d)
            want = rule_filtered_patch(witness, box)
            witness.rule = asked.append
            try:
                patch = witness.gamma_patch(box)
            except hull.OutOfCertifiedRangeError:
                assert want == "out of range"
                refused += 1
                continue
            finally:
                witness.rule = rule
            assert list(zip(patch.points, patch.coords)) == want
            built += 1
    assert asked == []
    assert built > 50 and refused > 20


def doubling_certified_box(scheme, window, truncation):
    """``transforms.certified_box`` as it tested the last doubled radius
    once more after its doubling loop."""
    pieces = window.enum_pieces()
    if not pieces:
        return Box.symmetric(truncation, scheme.d)

    def fits(radius):
        for rows, _ in pieces:
            rhs = scheme._piece_rhs(Box.symmetric(radius, scheme.d), rows)
            for lo, hi in scheme._candidate_ranges(rhs):
                if lo < -truncation or hi > truncation:
                    return False
        return True

    if not fits(1):
        raise SchemeError("truncation too small to certify any box")
    lo, hi = 1, 1
    while fits(hi * 2):
        hi *= 2
        if hi > 10 ** 9:
            break
    lo = hi if fits(hi) else hi // 2
    hi = hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return Box.symmetric(lo, scheme.d)


def test_certified_box_tests_each_radius_once(monkeypatch):
    # the box of every witness here, of the CLI tests' (truncation 25) and of
    # the benchmark's (25 and 40) is the doubling search's, with one test of
    # the last doubled radius fewer: one _piece_rhs call per window piece
    calls = []
    piece_rhs = CutProjectScheme._piece_rhs
    monkeypatch.setattr(
        CutProjectScheme, "_piece_rhs", lambda self, *a: calls.append(a) or piece_rhs(self, *a)
    )
    scheme, _, upper = units()
    cases = [(w.scheme, w.upper.closure(), w.truncation) for w in built_witnesses()]
    cases += [(scheme, upper.closure(), t) for t in (25, 40)]
    boxes = set()
    for case in cases:
        calls.clear()
        try:
            want = doubling_certified_box(*case)
        except SchemeError:
            with pytest.raises(SchemeError, match="truncation too small"):
                transforms.certified_box(*case)
            continue
        doubling = len(calls)
        calls.clear()
        assert transforms.certified_box(*case) == want
        assert doubling - len(calls) == len(case[1].enum_pieces())
        boxes.add(want)
    assert len(boxes) > 5
