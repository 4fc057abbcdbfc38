import json
import random
from fractions import Fraction

import pytest

from cutproject.fibonacci import fibonacci_scheme, fibonacci_window
from cutproject.internal_space import (
    IntegerRankFactor,
    InternalSpace,
    RealFactor,
    TorusFactor,
    TwistedExtensionFactor,
)
from cutproject.scalars import GOLDEN, GOLDEN_CONJ, SQRT5, Scalar, parse_scalar
from cutproject.scheme import Box, CutProjectScheme, SchemeError
from cutproject import transforms
from cutproject.transforms import (
    CertificationError,
    TransformCertificate,
    check_lattice_restriction,
    certify_generic_diagonal,
    choose_generic_lattice,
    embed_internal,
    extend_injective,
    lift_window,
    lift_window_torus,
    reverify_certificate,
    star_injectivity_exhaustive,
    strip_embedded,
    translate_cps,
)
from cutproject.hull import AlmostModelSetWitness, GammaRule
from cutproject.internal_space import HPoint
from cutproject.windows import OutOfCertifiedRangeError, interval_window

LINE = InternalSpace([RealFactor(1)])


def fib_window():
    return fibonacci_window()


def test_translate_incommensurate_sqrt2():
    scheme = fibonacci_scheme()
    w = fib_window()
    ext = translate_cps(scheme, (Scalar.sqrt(2),), 10 ** 6, window=w)
    assert ext.m == 0
    assert isinstance(ext.scheme.space.factors[-1], IntegerRankFactor)
    assert ext.certificate.passed
    # dual enumeration for several multiples
    a = Scalar.sqrt(2)
    for n in (-2, 0, 1, 3):
        box = Box.symmetric(15)
        shift = a * n
        lhs = scheme.project_points(
            box.translate((-shift,)), w
        ).translate((shift,))
        rhs = ext.scheme.project_points(box, lift_window(w, n, ext.scheme))
        assert set(lhs.points) == set(rhs.points)


def test_translate_commensurate_golden_third():
    scheme = fibonacci_scheme()
    w = fib_window()
    a = GOLDEN / 3
    ext = translate_cps(scheme, (a,), 100, window=w)
    assert ext.m == 3
    f = ext.scheme.space.factors[0]
    assert isinstance(f, TwistedExtensionFactor)
    assert f.modulus == 3
    # carry element is the conjugate of the minimal multiple golden
    assert f.twist == LINE.point((GOLDEN_CONJ,))
    assert ext.certificate.passed
    assert ext.scheme.covolume() == SQRT5
    for n in (-1, 1, 2, 4):
        box = Box.symmetric(12)
        shift = a * n
        lhs = scheme.project_points(box.translate((-shift,)), w).translate((shift,))
        rhs = ext.scheme.project_points(box, lift_window(w, n, ext.scheme))
        assert set(lhs.points) == set(rhs.points)


def test_translate_lattice_vector_m1():
    scheme = fibonacci_scheme()
    w = fib_window()
    ext = translate_cps(scheme, (Scalar(5),), 100, window=w)
    assert ext.m == 1
    # consistent with translating the window by the star of 5
    box = Box.symmetric(18)
    lhs = scheme.project_points(box, w.translate(LINE.point((5,))))
    rhs = ext.scheme.project_points(box, lift_window(w, 1, ext.scheme))
    assert set(lhs.points) == set(rhs.points)


def test_translate_unknown_raises():
    space = InternalSpace([RealFactor(1)])
    scheme = CutProjectScheme(
        1,
        space,
        [
            ((Scalar.from_float(1.0),), space.point((Scalar.from_float(1.0),))),
            (
                (Scalar.from_float(1.618033988749895),),
                space.point((Scalar.from_float(-0.618033988749895),)),
            ),
        ],
    )
    with pytest.raises(transforms.CommensurabilityUndecidedError):
        translate_cps(scheme, (Scalar.from_float(2 ** 0.5),), 50)


def test_translate_refuses_a_multiple_above_the_bound():
    # golden/3 lies in the projected lattice at m = 3 only; a free integer
    # factor would pair it with a lattice direction and break injectivity
    with pytest.raises(SchemeError, match=r"minimal multiple m = 3, above the bound 2"):
        translate_cps(fibonacci_scheme(), (GOLDEN / 3,), 2)
    assert translate_cps(fibonacci_scheme(), (GOLDEN / 3,), 3).certificate.data["m"] == 3


def test_lift_window_examples():
    scheme = fibonacci_scheme()
    w = interval_window(LINE, 0, 1)
    ext = translate_cps(scheme, (Scalar.sqrt(2),), 10 ** 6)
    lifted = lift_window(w, 2, ext.scheme)
    assert lifted.regions[-1].points == frozenset({(2,)})
    # twisted case: n = 4 = 1 + 1*3 lands at residue 1 with one carry
    ext3 = translate_cps(scheme, (GOLDEN / 3,), 100)
    lifted = lift_window(w, 4, ext3.scheme)
    region = lifted.regions[0]
    assert set(region.per_residue) == {1}
    piece = region.per_residue[1].regions[0].axes[0].pieces[0]
    assert piece.lo == GOLDEN_CONJ
    assert piece.hi == GOLDEN_CONJ + 1
    # n = 0 keeps the window and the patch
    box = Box.symmetric(10)
    lhs = scheme.project_points(box, w)
    rhs = ext3.scheme.project_points(box, lift_window(w, 0, ext3.scheme))
    assert set(lhs.points) == set(rhs.points)


def test_theorem_structural_checks():
    scheme = fibonacci_scheme()
    for a in ((Scalar.sqrt(2),), (GOLDEN / 3,)):
        ext = translate_cps(scheme, a, 10 ** 6)
        check = check_lattice_restriction(scheme, ext.scheme)
        assert check.passed, check.detail
        # (a, b) pairs into the extended lattice
        assert ext.scheme.lattice_coords_of(a, ext.b) is not None


@pytest.mark.parametrize("a", ["sqrt(2)", "golden/3", "golden/5", "1/7"])
def test_lattice_restriction_holds_for_translation_extensions(a):
    scheme = fibonacci_scheme()
    ext = translate_cps(scheme, (parse_scalar(a),), 10 ** 6)
    assert check_lattice_restriction(scheme, ext.scheme) == transforms.CertCheck(
        "lattice-restriction", True, {"method": "exact-kernel"}
    )


def halved_base():
    """The Fibonacci lattice with (1/2, 1/2) in place of the generator (1, 1)."""
    half = Scalar(Fraction(1, 2))
    return CutProjectScheme(
        1, LINE, [((half,), LINE.point((half,))), ((GOLDEN,), LINE.point((GOLDEN_CONJ,)))]
    )


def sampled_lattice_restriction(scheme, scheme2, rng, combinations=100, bound=50):
    """The lattice restriction checked on the generators and on random
    combinations with |n_i| <= bound, both ways."""
    combos = [tuple(int(j == i) for j in range(scheme.rank)) for i in range(scheme.rank)]
    combos += [tuple(rng.randint(-bound, bound) for _ in range(scheme.rank))
               for _ in range(combinations)]
    for n in combos:
        g, h = scheme.point_of(n)
        if scheme2.lattice_coords_of(g, embed_internal(scheme2.space, h)) is None:
            return False
    for _ in range(combinations):
        g2, h2 = scheme2.point_of(tuple(rng.randint(-bound, bound) for _ in range(scheme2.rank)))
        stripped = strip_embedded(scheme2.space, scheme.space, h2)
        if stripped is not None and scheme.lattice_coords_of(g2, stripped) is None:
            return False
    return True


def test_lattice_restriction_fails_an_extension_of_a_finer_lattice():
    # R x Z with generators (1/2, (1/2, 0)), (golden, (conj, 0)), (sqrt 2, (0, 1))
    # holds the old lattice, but also (1/2, (1/2, 0)) on the embedded copy
    scheme = fibonacci_scheme()
    space2 = InternalSpace([RealFactor(1), IntegerRankFactor(1)])
    halved = CutProjectScheme(1, space2, [
        ((Scalar(Fraction(1, 2)),), space2.point((Fraction(1, 2),), (0,))),
        ((GOLDEN,), space2.point((GOLDEN_CONJ,), (0,))),
        ((Scalar.sqrt(2),), space2.point((0,), (1,))),
    ])
    assert halved == translate_cps(halved_base(), (Scalar.sqrt(2),), 10 ** 6).scheme
    check = check_lattice_restriction(scheme, halved)
    assert check == transforms.CertCheck(
        "lattice-restriction", False, {"direction": "new-into-old", "n": [1, 0, 0]}
    )
    # the sampler reaches the embedded copy too rarely to see it at seed 0
    assert sampled_lattice_restriction(scheme, halved, random.Random(0))
    # the twisted case: a residue-0 point of the golden/3 extension of the
    # finer lattice is again (1/2, 1/2)
    twisted = translate_cps(halved_base(), (GOLDEN / 3,), 100).scheme
    check = check_lattice_restriction(scheme, twisted)
    assert not check.passed and check.detail["direction"] == "new-into-old"


def test_lattice_restriction_fails_when_the_old_lattice_is_missing():
    # the extensions of the Fibonacci lattice do not hold the finer one
    finer = halved_base()
    for a in (Scalar.sqrt(2), GOLDEN / 3):
        ext = translate_cps(fibonacci_scheme(), (a,), 10 ** 6)
        check = check_lattice_restriction(finer, ext.scheme)
        assert check == transforms.CertCheck(
            "lattice-restriction", False, {"direction": "old-into-new", "n": [1, 0]}
        )


def test_window_flags_preserved_under_lift():
    scheme = fibonacci_scheme()
    rng = random.Random(7)
    ext2 = translate_cps(scheme, (Scalar.sqrt(2),), 10 ** 6)
    ext3 = translate_cps(scheme, (GOLDEN / 3,), 100)
    for _ in range(25):
        lo = Fraction(rng.randint(-6, 6), 3)
        width = Fraction(rng.randint(0, 7), 3)
        lc, hc = rng.random() < 0.5, rng.random() < 0.5
        if width == 0 and not (lc and hc):
            width = Fraction(1, 3)
        w = interval_window(LINE, lo, lo + width, lc, hc)
        n = rng.randint(-4, 4)
        for ext in (ext2, ext3):
            lifted = lift_window(w, n, ext.scheme)
            assert lifted.properties() == w.properties()


def test_certify_generic_diagonal():
    points = [(Scalar(1),), (GOLDEN,), (GOLDEN_CONJ,)]
    cert = certify_generic_diagonal(points, (Scalar.root(2, 3),), 10 ** 6)
    assert cert.passed and cert.method == "exact-kernel"
    # sqrt2 fails: 2 * (1/sqrt2) - sqrt2 = 0
    cert = certify_generic_diagonal(points, (Scalar.sqrt(2),), 10 ** 6)
    assert not cert.passed
    assert cert.witness is not None
    # rational entries always fail
    cert = certify_generic_diagonal(points, (Scalar(Fraction(3, 2)),), 10 ** 6)
    assert not cert.passed


def test_choose_generic_lattice():
    points = [(Scalar(1),), (GOLDEN,)]
    diag, cert = choose_generic_lattice(points, 1)
    assert cert.passed
    assert diag[0] == Scalar.root(2, 3)
    # one attempt per named constant, however many entries are asked for
    with pytest.raises(CertificationError, match="exhausted after 8 attempts"):
        choose_generic_lattice([(Scalar(1),), (Scalar(2),)], 9)


def test_extend_injective_fibonacci():
    scheme = fibonacci_scheme()
    w = fib_window()
    ext = extend_injective(
        scheme, (Scalar.root(2, 3),), injectivity_bound=40, window=w
    )
    assert ext.certificate.passed
    assert isinstance(ext.scheme.space.factors[-1], TorusFactor)
    box = Box.symmetric(20)
    lhs = scheme.project_points(box, w)
    rhs = ext.scheme.project_points(
        box, lift_window_torus(w, ext.scheme.space, 1)
    )
    assert set(lhs.points) == set(rhs.points)
    # random smaller windows keep the patch identity
    rng = random.Random(3)
    for _ in range(5):
        lo = Fraction(rng.randint(-4, 1), 4)
        w2 = interval_window(LINE, lo, lo + Fraction(rng.randint(1, 5), 4))
        lhs = scheme.project_points(box, w2)
        rhs = ext.scheme.project_points(box, lift_window_torus(w2, ext.scheme.space, 1))
        assert set(lhs.points) == set(rhs.points)


def test_extend_injective_rejects_bad_diagonal():
    scheme = fibonacci_scheme()
    with pytest.raises(CertificationError):
        extend_injective(scheme, (Scalar.sqrt(2),))
    with pytest.raises(CertificationError):
        extend_injective(scheme, (Scalar(1),))


def test_extend_injective_refuses_float_generators():
    # float coordinates hide the rational span the relation search needs
    f = Scalar.from_float
    float_fib = CutProjectScheme(
        1, LINE, [((f(1.0),), LINE.point((f(1.0),))), ((f(1.618033988749895),), LINE.point((f(-0.618033988749895),)))]
    )
    with pytest.raises(ValueError, match="exact generators") as info:
        extend_injective(float_fib, (Scalar.root(2, 3),))
    assert not isinstance(info.value, CertificationError)


def test_exhaustive_injectivity_collision_detection():
    space = InternalSpace([RealFactor(1)])
    degenerate = CutProjectScheme(
        1, space, [((Scalar(1),), space.point((0,))), ((GOLDEN,), space.point((1,)))]
    )
    ok, witness = star_injectivity_exhaustive(degenerate, 3)
    assert not ok and witness is not None
    assert degenerate.star(witness) == space.zero()


def test_star_kernel_walks_only_float_generators():
    # no cube walk is left: a float scheme is refused wherever injectivity
    # is decided, since only exact generators have a kernel proof
    from cutproject.hull import AlmostModelSetWitness, GammaRule
    from cutproject.scheme import SchemeError

    f = Scalar.from_float
    assert fibonacci_scheme().star_kernel_witness() is None
    float_fib = CutProjectScheme(1, LINE, [
        ((f(1.0),), LINE.point((f(1.0),))),
        ((f(1.618033988749895),), LINE.point((f(-0.618033988749895),))),
    ])
    upper = fib_window()
    witness = AlmostModelSetWitness(
        float_fib, upper.interior(), upper, GammaRule(upper.closure()), 10
    )
    with pytest.raises(SchemeError, match="exact generators"):
        transforms.almost_to_model(witness)
    cert = TransformCertificate(
        "InjectiveExtension", fibonacci_scheme().scheme_id, float_fib.scheme_id,
        {"injectivity_bound": 3},
        [transforms.CertCheck("star-injective", True, {"method": "exhaustive", "bound": 3})],
    )
    with pytest.raises(SchemeError, match="exact generators"):
        reverify_certificate(cert, fibonacci_scheme(), float_fib)


def test_embed_internal_routes():
    scheme = fibonacci_scheme()
    h = LINE.point((GOLDEN_CONJ,))
    ext2 = translate_cps(scheme, (Scalar.sqrt(2),), 10 ** 6)
    e = embed_internal(ext2.scheme.space, h)
    assert e.coords[-1] == (0,)
    ext3 = translate_cps(scheme, (GOLDEN / 3,), 100)
    e = embed_internal(ext3.scheme.space, h)
    assert e.coords[0][1] == 0


def test_translation_extension_shape_is_checked():
    # H x Z is an extension, H x Z^2 is not: all three maps refuse it
    h = LINE.point((1,))
    wide = InternalSpace([RealFactor(1), IntegerRankFactor(2)])
    wide_scheme = CutProjectScheme(1, wide, [
        (Scalar(1), wide.point((0,), (1, 0))),
        (Scalar.sqrt(2), wide.point((0,), (0, 1))),
        (GOLDEN, wide.point((1,), (0, 0))),
        (Scalar.sqrt(3), wide.point((0,), (0, 0))),
    ])
    with pytest.raises(ValueError):
        embed_internal(wide, h)
    with pytest.raises(ValueError):
        strip_embedded(wide, LINE, wide.point((1,), (0, 0)))
    with pytest.raises(ValueError):
        lift_window(interval_window(LINE, 0, 1), 1, wide_scheme)
    narrow = InternalSpace([RealFactor(1), IntegerRankFactor(1)])
    e = embed_internal(narrow, h)
    assert e == narrow.point((1,), (0,))
    assert strip_embedded(narrow, LINE, e) == h
    assert strip_embedded(narrow, LINE, narrow.point((1,), (1,))) is None


def test_translate_commensurate_discrete_base():
    # half-integer lattice with a parity residue; a = 1/4 has minimal multiple 2
    from cutproject.internal_space import FiniteCyclicFactor
    from cutproject.windows import ProductWindow, ResidueRegion

    space = InternalSpace([FiniteCyclicFactor(2)])
    scheme = CutProjectScheme(1, space, [((Scalar(Fraction(1, 2)),), space.point(1))])
    w = ProductWindow(space, (ResidueRegion(2, {0}),))
    a = Scalar(Fraction(1, 4))
    ext = translate_cps(scheme, (a,), 100, window=w, box=Box.interval(-6, 6))
    assert ext.m == 2
    assert ext.certificate.passed
    f = ext.scheme.space.factors[0]
    assert isinstance(f, TwistedExtensionFactor) and f.modulus == 2
    for n in (-2, 1, 3):
        box = Box.interval(-6, 6)
        shift = a * n
        lhs = scheme.project_points(box.translate((-shift,)), w).translate((shift,))
        rhs = ext.scheme.project_points(box, lift_window(w, n, ext.scheme))
        assert set(lhs.points) == set(rhs.points)


def test_translate_torus_extended_scheme():
    # translating after the torus extension: internal space R x T x Z
    scheme = fibonacci_scheme()
    ext1 = extend_injective(scheme, (Scalar.root(2, 3),), injectivity_bound=15)
    w = lift_window_torus(fib_window(), ext1.scheme.space, 1)
    ext2 = translate_cps(ext1.scheme, (Scalar.sqrt(3),), 10 ** 6, window=w, box=Box.symmetric(10))
    assert ext2.m == 0
    assert ext2.certificate.passed
    assert len(ext2.scheme.space.factors) == 3


def test_extend_injective_cyclic_factor_scheme():
    from cutproject.internal_space import FiniteCyclicFactor
    from cutproject.windows import ProductWindow as PW, ResidueRegion, TorusRegion

    space = InternalSpace([FiniteCyclicFactor(2)])
    scheme = CutProjectScheme(1, space, [((Scalar(Fraction(1, 2)),), space.point(1))])
    w = PW(space, (ResidueRegion(2, {0, 1}),))
    ext = extend_injective(
        scheme, (Scalar.root(2, 3),), injectivity_bound=25, window=w,
        box=Box.interval(-5, 5),
    )
    assert ext.certificate.passed
    assert ext.scheme.star_kernel_witness() is None


def test_reverify_certificate_roundtrip():
    scheme = fibonacci_scheme()
    w = fib_window()
    ext = translate_cps(scheme, (Scalar.sqrt(2),), 10 ** 6, window=w)
    obj = ext.certificate.to_obj()
    cert = TransformCertificate.from_obj(obj)
    rechecks = reverify_certificate(cert, scheme, ext.scheme)
    assert all(c.passed for c in rechecks)


def test_exact_schemes_need_no_cube_walk(monkeypatch, tmp_path):
    # the exact kernel proof decides injectivity; the walk is only the
    # float-generator fallback
    from cutproject import cli

    def refuse(scheme, bound):
        raise AssertionError("exact generators must not be walked")

    monkeypatch.setattr(transforms, "star_injectivity_exhaustive", refuse)
    ext = extend_injective(fibonacci_scheme(), (Scalar.root(2, 3),), window=fib_window())
    assert ext.certificate.passed
    assert ext.certificate.checks[0].to_obj() == {
        "name": "star-injective", "passed": True, "detail": {"method": "exact-kernel"},
    }
    code = cli.main([
        "transform", "extend", "--scheme", "builtin:fibonacci", "--c", "root(2,3)",
        "--window", "builtin:fibonacci", "--box=-10:10",
        "--out-scheme", str(tmp_path / "s.json"), "--out-cert", str(tmp_path / "c.json"),
    ])
    assert code == 0


def test_theorem_suite_redecides_injectivity(tmp_path):
    # a certificate claiming injectivity for a scheme with a star kernel
    from cutproject import cli

    c = Scalar.root(2, 3)
    space = InternalSpace([RealFactor(1), TorusFactor(1, ((c,),))])
    scheme2 = CutProjectScheme(1, space, [
        ((Scalar(1),), space.point((1,), (c / 2,))),
        ((GOLDEN,), space.point((-1,), (c / 2,))),
    ])
    cert = TransformCertificate(
        "InjectiveExtension", fibonacci_scheme().scheme_id, scheme2.scheme_id,
        {"injectivity_bound": 20},
        [transforms.CertCheck("star-injective", True, {"method": "exact-kernel"})],
    )
    files = {}
    for name, obj in (("base", fibonacci_scheme()), ("ext", scheme2), ("cert", cert)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj.to_obj()))
    out = tmp_path / "report.json"
    code = cli.main([
        "verify", "--suite", "theorem", "--scheme", str(files["base"]),
        "--scheme2", str(files["ext"]), "--cert", str(files["cert"]), "--out", str(out),
    ])
    assert code == 1
    assert json.loads(out.read_text())["checks"][0]["passed"] is False


def test_theorem_suite_fails_a_tampered_translation(tmp_path):
    # the certificate of sqrt(2), re-verified as if it were sqrt(3): the
    # re-run patch comparison must find the patches differ
    from cutproject import cli

    files = {name: tmp_path / f"{name}.json" for name in ("base", "ext", "cert", "report")}
    files["base"].write_text(json.dumps(fibonacci_scheme().to_obj()))
    code = cli.main([
        "transform", "translate", "--scheme", "builtin:fibonacci", "--a", "sqrt(2)",
        "--window", "builtin:fibonacci", "--box=-40:40",
        "--out-scheme", str(files["ext"]), "--out-cert", str(files["cert"]),
    ])
    assert code == 0
    cert = json.loads(files["cert"].read_text())
    assert cert["data"]["a"] == [Scalar.sqrt(2).to_obj()]
    cert["data"]["a"] = [Scalar.sqrt(3).to_obj()]
    files["cert"].write_text(json.dumps(cert))
    code = cli.main([
        "verify", "--suite", "theorem", "--scheme", str(files["base"]),
        "--scheme2", str(files["ext"]), "--cert", str(files["cert"]),
        "--out", str(files["report"]),
    ])
    assert code == 1
    checks = {c["name"]: c["passed"] for c in json.loads(files["report"].read_text())["checks"]}
    assert checks["patch-translation"] is False


def test_full_torus_patch_check_fails_on_another_base():
    # the extension of Fibonacci against a base whose direct generators are
    # doubled: every patch point moves, so the comparison must fail
    scheme, w = fibonacci_scheme(), fib_window()
    ext = extend_injective(scheme, (Scalar.root(2, 3),), window=w)
    check = transforms._CHECKS["patch-full-torus"]
    detail = {"box": Box.symmetric(20).to_obj(), "window": w.to_obj()}
    assert check({}, detail, scheme, ext.scheme)()
    doubled = CutProjectScheme(
        1, scheme.space, [(tuple(2 * v for v in g), h) for g, h in scheme.generators]
    )
    assert not check({}, detail, doubled, ext.scheme)()


def test_almost_to_model_fails_a_tampered_witness():
    # a point the rule admits outside the lower window, marked as a lower
    # point, loses its star from the augmented window but stays in the rule's
    # set: the membership patch check must see the difference
    from cutproject.hull import AlmostModelSetWitness, GammaRule

    scheme, upper = fibonacci_scheme(), fib_window()
    lower = upper.interior()
    witness = AlmostModelSetWitness(scheme, lower, upper, GammaRule(upper.closure()), 30)
    assert transforms.almost_to_model(witness).certificate.passed
    dropped = next(n for n, _, in_lower in witness.admitted if not in_lower)
    witness.admitted = [(n, h, in_lower or n == dropped) for n, h, in_lower in witness.admitted]
    with pytest.raises(CertificationError) as info:
        transforms.almost_to_model(witness)
    checks = {c.name: c for c in info.value.witness.checks}
    assert not checks["membership-patch"].passed
    assert checks["membership-patch"].detail["witness_point"] == [float(scheme.direct(dropped)[0])]


def test_membership_patch_checks_the_rule_not_the_admitted_list():
    # dropping a point the rule admits outside the lower window from
    # ``admitted`` drops its star from the augmented window too; the rule's
    # own patch still holds the point, so the check must see the difference
    from cutproject.hull import AlmostModelSetWitness, GammaRule

    scheme, upper = fibonacci_scheme(), fib_window()
    witness = AlmostModelSetWitness(scheme, upper.interior(), upper, GammaRule(upper.closure()), 30)
    assert (0, -1) in [n for n, _, in_lower in witness.admitted if not in_lower]
    witness.admitted = [entry for entry in witness.admitted if entry[0] != (0, -1)]
    with pytest.raises(CertificationError) as info:
        transforms.almost_to_model(witness)
    checks = {c.name: c for c in info.value.witness.checks}
    assert checks["membership-patch"].detail["witness_point"] == [float(scheme.direct((0, -1))[0])]


def test_lift_augmented_window():
    # the augmented window of the add-hi witness (one star, a certifier at
    # truncation 40), lifted into the sqrt(2) translation extension
    scheme = fibonacci_scheme()
    upper = fib_window()
    rule = GammaRule(upper.interior(), add=[(0, -1)])
    witness = AlmostModelSetWitness(scheme, upper.interior(), upper, rule, 40)
    aug = transforms.almost_to_model(witness).window
    assert len(aug.stars) == 1 and aug.certifier is not None
    a = Scalar.sqrt(2)
    ext = translate_cps(scheme, (a,), 10 ** 6)
    box = Box.symmetric(20)
    for n in (-3, 0, 2):
        lifted = lift_window(aug, n, ext.scheme)
        shift = a * n
        lhs = scheme.project_points(box.translate((-shift,)), aug).translate((shift,))
        rhs = ext.scheme.project_points(box, lifted)
        assert scheme.direct((0, -1))[0] + shift in {p[0] for p in rhs.points}
        assert set(lhs.points) == set(rhs.points)
        assert [p.coords[-1] for p in lifted.stars] == [(n,)]
        assert [p.coords[:-1] for p in lifted.stars] == [p.coords for p in aug.stars]
        # a star of lattice coordinates inside the truncation is decided,
        # one past it is refused
        assert not lifted.contains(HPoint(ext.scheme.space, scheme.star((5, 0)).coords + ((n,),)))
        with pytest.raises(OutOfCertifiedRangeError):
            lifted.contains(HPoint(ext.scheme.space, scheme.star((41, 0)).coords + ((n,),)))
    torus = extend_injective(scheme, (Scalar.root(2, 3),), injectivity_bound=25)
    with pytest.raises(TypeError):
        lift_window_torus(aug, torus.scheme.space, 1)


@pytest.fixture(scope="module")
def theorem_certificates():
    """(base, extension, certificate) by label, for every certificate kind
    the theorem suite reads, and an extension certificate that also holds a
    hand-made legacy ``star-injective-exhaustive`` entry."""
    scheme, w = fibonacci_scheme(), fib_window()
    sqrt2 = translate_cps(scheme, (Scalar.sqrt(2),), 10 ** 6, window=w)
    third = translate_cps(scheme, (GOLDEN / 3,), 100, window=w)
    torus = extend_injective(scheme, (Scalar.root(2, 3),), window=w)
    rule = GammaRule(w.interior(), add=[(0, -1)])
    augment = transforms.almost_to_model(AlmostModelSetWitness(scheme, w.interior(), w, rule, 25))
    legacy = TransformCertificate.from_obj(torus.certificate.to_obj())
    legacy.checks.append(transforms.CertCheck("star-injective-exhaustive", True, {"bound": 20}))
    return {
        "translate sqrt(2)": (scheme, sqrt2.scheme, sqrt2.certificate),
        "translate golden/3": (scheme, third.scheme, third.certificate),
        "extend root(2,3)": (scheme, torus.scheme, torus.certificate),
        "augment add-hi": (scheme, scheme, augment.certificate),
        "legacy extend root(2,3)": (scheme, torus.scheme, legacy),
    }


# the certificates holding each check; a check the table gains needs a case
CHECK_CASES = {
    "pair-in-lattice": ("translate sqrt(2)", "translate golden/3"),
    "patch-translation": ("translate sqrt(2)", "translate golden/3"),
    "star-injective": ("extend root(2,3)",),
    "patch-full-torus": ("extend root(2,3)",),
    "membership-patch": ("augment add-hi",),
    "interior-closure-chain": ("augment add-hi",),
    "star-injective-exhaustive": ("legacy extend root(2,3)",),
}


@pytest.mark.parametrize("name", sorted(transforms._CHECK_NAMES))
def test_reverification_never_trusts_a_verdict_it_can_rerun(tmp_path, theorem_certificates, name):
    # a check of the table is decided again, so its recorded verdict does
    # not reach the report; a recorded-only check is its recorded verdict
    from cutproject import cli

    assert name in CHECK_CASES, f"check {name!r} has no re-verification case"
    for label in CHECK_CASES[name]:
        base, ext, cert = theorem_certificates[label]
        assert cert.passed and name in [c.name for c in cert.checks]
        reports = []
        for flip in (False, True):
            obj = cert.to_obj()
            for check in obj["checks"]:
                if flip and check["name"] == name:
                    check["passed"] = False
            files = {}
            for key, value in (("base", base.to_obj()), ("ext", ext.to_obj()), ("cert", obj)):
                files[key] = tmp_path / f"{key}.json"
                files[key].write_text(json.dumps(value))
            out = tmp_path / "report.json"
            code = cli.main(["verify", "--suite", "theorem", "--scheme", str(files["base"]),
                             "--scheme2", str(files["ext"]), "--cert", str(files["cert"]),
                             "--out", str(out)])
            reports.append((code, out.read_text()))
        assert reports[0][0] == 0, label
        if name in transforms._CHECKS:
            assert reports[1] == reports[0], label
        else:
            assert reports[1][0] == 1, label
            checks = {c["name"]: c["passed"] for c in json.loads(reports[1][1])["checks"]}
            assert checks[name] is False, label
