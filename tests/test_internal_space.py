import json
import random
from fractions import Fraction

import pytest

from cutproject.internal_space import (
    FiniteCyclicFactor,
    HPoint,
    IntegerRankFactor,
    InternalSpace,
    RealFactor,
    SpaceMismatchError,
    TorusFactor,
    TwistedExtensionFactor,
)
from cutproject.scalars import GOLDEN, GOLDEN_CONJ, Scalar

REAL_LINE = InternalSpace([RealFactor(1)])


def twisted_space(m, twist_value=GOLDEN_CONJ):
    twist = REAL_LINE.point((twist_value,))
    return InternalSpace([TwistedExtensionFactor(REAL_LINE, m, twist)])


def test_real_and_integer_addition():
    space = InternalSpace([RealFactor(1), IntegerRankFactor(2)])
    x = space.point((Fraction(1, 2),), (1, -3))
    y = space.point((Fraction(1, 3),), (2, 4))
    z = space.add(x, y)
    assert z.coords[0][0] == Scalar(Fraction(5, 6))
    assert z.coords[1] == (3, 1)
    assert space.add(z, space.negate(z)) == space.zero()


def test_cyclic_reduction():
    space = InternalSpace([FiniteCyclicFactor(5)])
    assert space.point(7).coords[0] == 2
    assert space.negate(space.point(2)).coords[0] == 3
    assert space.add(space.point(3), space.point(4)).coords[0] == 2


def test_twisted_add_carry_rule():
    # modulus 3 with carry element GOLDEN_CONJ: residues 2+2 wrap and pull
    # the carry into the base coordinate
    space = twisted_space(3)
    h1 = REAL_LINE.point((Fraction(1, 4),))
    h2 = REAL_LINE.point((Fraction(1, 8),))
    x = space.point((h1, 2))
    y = space.point((h2, 2))
    z = space.add(x, y)
    base, r = z.coords[0]
    assert r == 1
    assert base.coords[0][0] == Scalar(Fraction(3, 8)) + GOLDEN_CONJ


def test_twisted_no_carry_below_modulus():
    space = twisted_space(3)
    x = space.point((REAL_LINE.point((1,)), 1))
    y = space.point((REAL_LINE.point((2,)), 1))
    z = space.add(x, y)
    base, r = z.coords[0]
    assert r == 2
    assert base.coords[0][0] == Scalar(3)


def test_twisted_modulus_one_is_base_with_relabelling():
    # m = 1 keeps residue 0 and never carries on 0+0
    space = twisted_space(1)
    x = space.point((REAL_LINE.point((1,)), 0))
    y = space.point((REAL_LINE.point((2,)), 0))
    z = space.add(x, y)
    base, r = z.coords[0]
    assert r == 0
    assert base.coords[0][0] == Scalar(3)
    # but a residue fed in as 1 normalizes through the twist
    w = space.point((REAL_LINE.point((0,)), 1))
    assert w.coords[0][1] == 0
    assert w.coords[0][0].coords[0][0] == GOLDEN_CONJ


def test_twisted_negate_case_analysis():
    # solve (h,2) + (x,r) = 0 for m=3: x = -h - twist, r = 1
    space = twisted_space(3)
    h = REAL_LINE.point((Fraction(5, 2),))
    x = space.point((h, 2))
    n = space.negate(x)
    base, r = n.coords[0]
    assert r == 1
    assert base.coords[0][0] == Scalar(Fraction(-5, 2)) - GOLDEN_CONJ
    assert space.add(x, n) == space.zero()


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_twisted_group_axioms(m):
    space = twisted_space(m)
    rng = random.Random(20_000 + m)

    def rand_point():
        val = Scalar(Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
        extra = GOLDEN_CONJ * rng.randint(-3, 3)
        return space.point((REAL_LINE.point((val + extra,)), rng.randint(0, m - 1)))

    zero = space.zero()
    for _ in range(120):
        x, y, z = rand_point(), rand_point(), rand_point()
        assert space.add(x, y) == space.add(y, x)
        assert space.add(space.add(x, y), z) == space.add(x, space.add(y, z))
        assert space.add(x, zero) == x
        assert space.add(x, space.negate(x)) == zero


def test_base_embedding_is_homomorphism():
    space = twisted_space(3)
    rng = random.Random(7)
    for _ in range(50):
        a = Scalar(Fraction(rng.randint(-9, 9), 4))
        b = Scalar(Fraction(rng.randint(-9, 9), 4))
        xa = space.point((REAL_LINE.point((a,)), 0))
        xb = space.point((REAL_LINE.point((b,)), 0))
        sum_embed = space.add(xa, xb)
        embed_sum = space.point((REAL_LINE.point((a + b,)), 0))
        assert sum_embed == embed_sum  # image closed under + with residue 0


def test_torus_reduction_diagonal():
    c = Scalar.root(2, 3)
    factor = TorusFactor(1, ((c,),))
    space = InternalSpace([factor])
    p = space.point((Scalar(5),))
    (frac,) = p.coords[0]
    assert Scalar(0) <= frac < Scalar(1)
    (rep,) = factor.ambient(p.coords[0])
    assert Scalar(0) <= rep < c
    assert rep == Scalar(5) - c * (Scalar(5) / c).floor()
    # already-reduced representatives are fixed by reduction
    assert space.point((rep,)) == p


def test_torus_reduction_general_basis():
    basis = ((Scalar(2), Scalar(1)), (Scalar(0), Scalar(3)))
    space = InternalSpace([TorusFactor(2, basis)])
    p = space.point((Scalar(7), Scalar(11)))
    q = space.add(p, space.negate(p))
    assert q == space.zero()
    # translation by a lattice vector is the identity on the torus
    shifted = space.point((Scalar(7) + 2, Scalar(11) + 1))
    assert shifted == p


def test_scale_matches_repeated_add():
    space = twisted_space(3)
    x = space.point((REAL_LINE.point((Fraction(1, 3),)), 2))
    acc = space.zero()
    for _ in range(7):
        acc = space.add(acc, x)
    assert acc == space.scale(x, 7)
    acc_neg = space.zero()
    for _ in range(4):
        acc_neg = space.add(acc_neg, space.negate(x))
    assert acc_neg == space.scale(x, -4)


def test_space_mismatch_errors():
    s1 = InternalSpace([RealFactor(1)])
    s2 = InternalSpace([RealFactor(2)])
    x = s1.point((1,))
    y = s2.point((1, 2))
    with pytest.raises(SpaceMismatchError):
        s1.add(x, y)


def test_serialization_roundtrip():
    c = Scalar.root(2, 3)
    spaces = [
        InternalSpace([RealFactor(1)]),
        InternalSpace([RealFactor(2), IntegerRankFactor(1), FiniteCyclicFactor(4)]),
        InternalSpace([RealFactor(1), TorusFactor(1, ((c,),))]),
        twisted_space(3),
        InternalSpace([]),
    ]
    for sp in spaces:
        assert InternalSpace.from_obj(sp.to_obj()) == sp

    sp = twisted_space(3)
    p = sp.point((REAL_LINE.point((GOLDEN,)), 2))
    assert HPoint.from_obj(sp, p.to_obj()) == p


def test_haar_measure_conventions():
    from cutproject.internal_space import haar_measure
    from cutproject.scalars import GOLDEN
    from cutproject.windows import (
        IntervalSet,
        IntSetRegion,
        ProductWindow,
        RealRegion,
        TorusRegion,
        interval_window,
    )

    # interval length on the line
    w = interval_window(REAL_LINE, -1, GOLDEN - 1)
    assert haar_measure(REAL_LINE, w) == GOLDEN
    # product convention: Lebesgue times counting
    space = InternalSpace([RealFactor(1), IntegerRankFactor(1)])
    w2 = ProductWindow(
        space, (RealRegion((IntervalSet.single(0, 2, True, True),)), IntSetRegion(1, {(5,)}))
    )
    assert haar_measure(space, w2) == Scalar(2)
    # fundamental-domain mass on a torus
    c = Scalar.root(2, 3)
    torus = TorusFactor(1, ((c,),))
    ts = InternalSpace([torus])
    assert haar_measure(ts, ProductWindow(ts, (TorusRegion.full(torus),))) == c
    with pytest.raises(SpaceMismatchError):
        haar_measure(space, w)


def test_continuous_dim_and_point_mass():
    assert InternalSpace([]).continuous_dim == 0
    assert InternalSpace([]).point_mass() == Scalar(1)
    assert REAL_LINE.point_mass() == Scalar(0)
    assert twisted_space(2).continuous_dim == 1
    disc = InternalSpace([IntegerRankFactor(2), FiniteCyclicFactor(3)])
    assert disc.continuous_dim == 0
    assert disc.point_mass() == Scalar(1)


# -- one conformance check over every factor kind ------------------------------

ROOT2_3 = Scalar.root(2, 3)
MIXED = InternalSpace(
    [RealFactor(2), IntegerRankFactor(1), FiniteCyclicFactor(4), TorusFactor(1, ((ROOT2_3,),))]
)
TWIST_BASE = InternalSpace([RealFactor(1), IntegerRankFactor(1)])
TWISTED = InternalSpace(
    [TwistedExtensionFactor(TWIST_BASE, 3, TWIST_BASE.point(GOLDEN_CONJ, 1))]
)


def _mixed_point(rng):
    return MIXED.point(
        (Scalar(Fraction(rng.randint(-9, 9), 4)) + GOLDEN * rng.randint(-2, 2),
         Scalar(Fraction(rng.randint(-9, 9), 3))),
        rng.randint(-5, 5),
        rng.randint(0, 7),
        Scalar(Fraction(rng.randint(-9, 9), 5)) + ROOT2_3 * rng.randint(-2, 2),
    )


def _twisted_point(rng):
    base = TWIST_BASE.point(
        Scalar(Fraction(rng.randint(-9, 9), 4)) + GOLDEN_CONJ * rng.randint(-2, 2),
        rng.randint(-5, 5),
    )
    return TWISTED.point((base, rng.randint(-4, 7)))


def _foreign_regions(space):
    """Regions of the right kind for another factor of the same kind."""
    from cutproject.windows import (
        IntervalSet,
        IntSetRegion,
        RealRegion,
        ResidueRegion,
        TorusRegion,
        TwistedRegion,
    )

    if space is TWISTED:
        other = TwistedExtensionFactor(TWIST_BASE, 2, TWIST_BASE.zero())
        return [TwistedRegion(other, {})]
    unit = IntervalSet.single(0, 1)
    return [
        RealRegion((unit,)),
        IntSetRegion(2, {(0, 0)}),
        ResidueRegion(5, {0}),
        TorusRegion(TorusFactor(1, ((Scalar(1),),)), (unit,)),
    ]


@pytest.mark.parametrize("space, make", [(MIXED, _mixed_point), (TWISTED, _twisted_point)])
def test_factor_protocol_conformance(space, make):
    from cutproject.windows import ProductWindow, point_window, window_from_obj

    rng = random.Random(4)
    zero = space.zero()
    assert InternalSpace.from_obj(space.to_obj()) == space
    for _ in range(8):
        x = make(rng)
        assert space.add(x, zero) == x == space.add(zero, x)
        assert space.add(x, space.negate(x)) == zero
        assert space.negate(x) == space.scale(x, -1)
        for k in range(-3, 4):
            acc = zero
            for _ in range(abs(k)):
                acc = space.add(acc, x if k > 0 else space.negate(x))
            assert space.scale(x, k) == acc
        assert HPoint.from_obj(space, x.to_obj()) == x
        w = point_window(space, x)
        assert window_from_obj(space, w.to_obj()) == w
        assert w.contains(x)
        y = space.add(x, make(rng))
        assert w.contains(y) == (y == x)
        # the point window's one enumeration piece pins every lifted row of x exactly
        ((rows, _),) = w.enum_pieces()
        values = space.lift_values(x)
        assert len(rows) == len(values)
        assert all(lo == v == hi for v, (lo, hi, _) in zip(values, rows))
    # a region built for another factor is refused
    regions = point_window(space, zero).regions
    candidates = list(regions) + _foreign_regions(space)
    for idx, fitting in enumerate(regions):
        for region in candidates:
            if region is fitting or region == fitting:
                continue
            with pytest.raises(SpaceMismatchError):
                ProductWindow(space, regions[:idx] + (region,) + regions[idx + 1:])


def test_encodings_are_pinned():
    from cutproject.fibonacci import fibonacci_scheme

    point = MIXED.point((GOLDEN, Fraction(-1, 3)), 5, 7, Scalar(2))
    assert json.dumps(MIXED.to_obj(), sort_keys=True) == (
        '{"factors": [{"dim": 2, "factor": "real"}, {"factor": "integer", "rank": 1}, '
        '{"factor": "cyclic", "modulus": 4}, {"basis": [[{"terms": [{"c": "1", '
        '"rad": [[2, "1/3"]], "sym": []}], "type": "alg"}]], "dim": 1, "factor": "torus"}]}'
    )
    assert json.dumps(point.to_obj(), sort_keys=True) == (
        '{"coords": [[{"a": "1/2", "b": "1/2", "d": 5, "type": "quad"}, '
        '{"type": "rat", "v": "-1/3"}], [5], 3, [{"terms": [{"c": "2", "rad": [], '
        '"sym": []}, {"c": "-1", "rad": [[2, "1/3"]], "sym": []}], "type": "alg"}]]}'
    )
    twisted_point = TWISTED.point((TWIST_BASE.point(Fraction(1, 2), -2), 5))
    assert json.dumps(TWISTED.to_obj(), sort_keys=True) == (
        '{"factors": [{"base": {"factors": [{"dim": 1, "factor": "real"}, '
        '{"factor": "integer", "rank": 1}]}, "factor": "twisted", "modulus": 3, '
        '"twist": {"coords": [[{"a": "1/2", "b": "-1/2", "d": 5, "type": "quad"}], [1]]}}]}'
    )
    assert json.dumps(twisted_point.to_obj(), sort_keys=True) == (
        '{"coords": [{"base": {"coords": [[{"a": "1", "b": "-1/2", "d": 5, '
        '"type": "quad"}], [-1]]}, "r": 2}]}'
    )
    assert fibonacci_scheme().scheme_id == "f74f3d365ddb2a4a"
