import json
import math
from fractions import Fraction

import pytest

from cutproject import scalars
from cutproject.scalars import (
    GOLDEN,
    GOLDEN_CONJ,
    SQRT5,
    ExactnessError,
    Scalar,
    parse_scalar,
)


def test_rational_arithmetic():
    a = Scalar(Fraction(3, 4))
    b = Scalar(Fraction(1, 4))
    assert (a + b).as_fraction() == 1
    assert (a - b).as_fraction() == Fraction(1, 2)
    assert (a * b).as_fraction() == Fraction(3, 16)
    assert (a / b).as_fraction() == 3


def test_sqrt5_identities():
    assert SQRT5 * SQRT5 == Scalar(5)
    # golden ratio satisfies x^2 = x + 1
    assert GOLDEN * GOLDEN == GOLDEN + 1
    assert GOLDEN * GOLDEN_CONJ == Scalar(-1)
    assert GOLDEN + GOLDEN_CONJ == Scalar(1)


def test_mixed_radicals_multiply():
    r2 = Scalar.sqrt(2)
    r5 = Scalar.sqrt(5)
    r10 = Scalar.sqrt(10)
    assert r2 * r5 == r10
    assert r2 * r2 == Scalar(2)
    c = Scalar.root(2, 3)
    assert c * c * c == Scalar(2)
    assert c ** 3 == Scalar(2)


def test_sign_and_order():
    # decimal expansions checked against 60-digit references
    assert SQRT5.sign() == 1
    assert (SQRT5 - Scalar(Fraction(9, 4))).sign() < 0  # sqrt5 = 2.2360...
    assert (SQRT5 - Scalar(Fraction(2236, 1000))).sign() > 0
    assert GOLDEN > 1
    assert GOLDEN < 2
    assert GOLDEN_CONJ < 0
    vals = [Scalar(1), GOLDEN, SQRT5, Scalar(3), Scalar.root(2, 3)]
    assert sorted(vals) == [Scalar(1), Scalar.root(2, 3), GOLDEN, SQRT5, Scalar(3)]


def test_equality_is_exact():
    # (1+sqrt5)/2 assembled two different ways
    x = (Scalar(1) + SQRT5) / 2
    y = Scalar(Fraction(1, 2)) + SQRT5 * Fraction(1, 2)
    assert x == y
    assert hash(x) == hash(y)
    assert x != y + Scalar(Fraction(1, 10 ** 30))


def test_inverse_single_term():
    assert Scalar.sqrt(2).inverse() == Scalar.sqrt(2) / 2
    c = Scalar.root(2, 3)
    assert c.inverse() * c == Scalar(1)
    assert c.inverse() == c * c / 2


def test_inverse_sum():
    x = GOLDEN  # 1/golden = golden - 1
    assert x.inverse() == GOLDEN - 1
    y = Scalar(1) + Scalar.sqrt(2) + Scalar.sqrt(3)
    assert y.inverse() * y == Scalar(1)
    z = Scalar(1) + Scalar.root(2, 3)
    assert z.inverse() * z == Scalar(1)


def test_floor():
    assert Scalar(Fraction(7, 2)).floor() == 3
    assert Scalar(Fraction(-7, 2)).floor() == -4
    assert SQRT5.floor() == 2
    assert (-SQRT5).floor() == -3
    assert (GOLDEN * 10).floor() == 16  # 16.18...
    assert Scalar.root(2, 3).floor() == 1


def test_pi_and_e():
    pi = Scalar.const("pi")
    e = Scalar.const("e")
    lo, hi = pi.bounds(30)
    # pi = 3.14159265358979323846264338327950...
    assert Fraction(314159265358979323846, 10 ** 20) < lo < hi
    assert hi < Fraction(314159265358979323847, 10 ** 20)
    assert float(hi - lo) < 1e-29
    assert (pi - 3).sign() == 1
    assert (pi - Fraction(22, 7)).sign() == -1
    assert (e - Fraction(27182, 10000)).sign() > 0
    inv = Scalar(1) / pi
    assert (inv * pi) == Scalar(1)
    with pytest.raises(ExactnessError):
        _ = pi + e  # mixing named constants is unsupported


def test_pi_is_not_algebraic_here():
    x = Scalar(1) / Scalar.const("pi") + GOLDEN
    assert x != GOLDEN
    assert (x - GOLDEN).sign() == 1


def test_float_mode_contagion():
    f = Scalar.from_float(1.25)
    x = f + Scalar(1)
    assert not x.is_exact
    assert x.to_float() == 2.25
    assert Scalar.from_float(1.0) == Scalar.from_float(1.0 + 1e-12)
    assert Scalar.from_float(1.0) != Scalar.from_float(1.1)


# -- float operands ------------------------------------------------------------


def _ref_float(x):
    """The float of a Scalar, from a fresh 18-digit enclosure, never a cache."""
    if not x.is_exact:
        return x._float
    lo, hi = x.bounds(18)
    return float((lo + hi) / 2)


def _ref_neg(x):
    return -x._float if not x.is_exact else _ref_float(-x)


def _ref_float_sign(v):
    if abs(v) <= scalars.FLOAT_EPS:
        return 0
    return 1 if v > 0 else -1


def _ref_ops(x, y):
    """Every binary result with a float operand, by definition: ``x <= y`` is
    ``x == y or sign(x + (-y)) < 0``, the float of an exact ``-y`` is taken
    from ``-y`` itself, and ``x - y`` is ``x + (-y)``."""
    x, y = Scalar.of(x), Scalar.of(y)
    fx, fy = _ref_float(x), _ref_float(y)
    eq = abs(fx - fy) <= scalars.FLOAT_EPS
    x_minus_y, y_minus_x = fx + _ref_neg(y), fy + _ref_neg(x)
    lt = not eq and _ref_float_sign(x_minus_y) < 0
    le = eq or _ref_float_sign(x_minus_y) < 0
    gt = not eq and _ref_float_sign(y_minus_x) < 0
    ge = eq or _ref_float_sign(y_minus_x) < 0
    add = Scalar.from_float(fx + fy)
    sub = Scalar.from_float(x_minus_y)
    mul = Scalar.from_float(fx * fy)
    return [repr(v) for v in (eq, lt, le, gt, ge, add, sub, mul)]


def _ops(x, y):
    return [repr(v) for v in (x == y, x < y, x <= y, x > y, x >= y, x + y, x - y, x * y)]


def test_float_operands_match_reference():
    import random

    rng = random.Random(20261018)
    eps = scalars.FLOAT_EPS
    exacts = [
        Scalar(0),
        Scalar(1),
        Scalar(-3),
        Scalar(10 ** 20),
        Scalar(Fraction(1, 3)),
        Scalar(Fraction(1, 10 ** 30)),
        # a nonzero value whose float is 0.0
        Scalar(Fraction(1, 10 ** 30)) * (1 - Scalar.sqrt(2)),
        Scalar.sqrt(2),
        -GOLDEN,
        Scalar.const("pi"),
    ]
    exacts += [
        Scalar(Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
        + Scalar.sqrt(5) * rng.randint(-3, 3)
        for _ in range(10)
    ]
    values = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -1.0, 0.5]
    values += [sign * k * eps for sign in (1, -1) for k in (0.5, 1, 2)]
    values += [rng.uniform(-10, 10) for _ in range(20)]
    for x in exacts[:10]:
        f = _ref_float(x)
        # ties at exactly FLOAT_EPS and just inside and outside it
        values += [f, f + eps, f - eps, f + eps * (1 - 2 ** -20), f - eps * (1 + 2 ** -20)]
    floats = [Scalar.from_float(v) for v in values]
    ints = [0, 1, -1, 7, 2 ** 70, -(2 ** 53) - 1]
    fractions = [Fraction(0), Fraction(1, 3), Fraction(-7, 2)]
    checked = 0
    for f in floats:
        assert repr(-f) == repr(Scalar.from_float(-f._float))
        for other in floats + exacts + ints + fractions:
            assert _ops(f, other) == _ref_ops(f, other), (f, other)
            assert _ops(other, f) == _ref_ops(other, f), (other, f)
            checked += 2
    assert checked > 10_000


def test_float_of_exact_is_cached_without_changing_the_value():
    for make in (
        lambda: Scalar(Fraction(-22, 7)),
        lambda: GOLDEN * 3 - Fraction(1, 4),
        lambda: Scalar.root(2, 3) * 5 - Fraction(1, 2),
        lambda: Scalar(1) / Scalar.const("pi"),
    ):
        x, fresh = make(), make()
        before = (x.is_exact, repr(x), x.to_obj(), hash(x), x.terms())
        assert float(x) == float(x) == _ref_float(fresh)
        assert (x.is_exact, repr(x), x.to_obj(), hash(x), x.terms()) == before
        assert x == fresh and hash(x) == hash(fresh)
        assert not (x - fresh).sign()


def test_float_tolerance_applies_after_the_float_is_cached():
    x = Scalar.sqrt(2)
    f = Scalar.from_float(float(x) + 1e-6)
    assert f != x and x < f and not f <= x
    g = Scalar.from_float(float(x) + scalars.FLOAT_EPS / 10)
    assert g == x and not x < g and g <= x and x >= g
    assert f != x and x < f


def test_floats_and_floor():
    assert Scalar.from_float(2.7).floor() == 2
    assert float(GOLDEN) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)


def test_serialization_roundtrip():
    values = [
        Scalar(Fraction(-3, 7)),
        GOLDEN,
        Scalar.root(2, 3) * 5 - Scalar(Fraction(1, 2)),
        Scalar(1) / Scalar.const("pi"),
        Scalar.from_float(0.5),
        Scalar.sqrt(10) + 2,
    ]
    for v in values:
        assert Scalar.from_obj(v.to_obj()) == v


def test_quad_tag_used_for_quadratic_values():
    obj = GOLDEN.to_obj()
    assert obj["type"] == "quad"
    assert obj["d"] == 5
    obj = Scalar(Fraction(2, 3)).to_obj()
    assert obj["type"] == "rat"
    obj = Scalar.root(2, 3).to_obj()
    assert obj["type"] == "alg"


def test_parse_scalar():
    assert parse_scalar("3/4") == Scalar(Fraction(3, 4))
    assert parse_scalar("sqrt(5)") == SQRT5
    assert parse_scalar("(1+sqrt(5))/2") == GOLDEN
    assert parse_scalar("golden") == GOLDEN
    assert parse_scalar("root(2,3)") == Scalar.root(2, 3)
    assert parse_scalar("-2*golden + 1") == Scalar(1) - GOLDEN * 2
    assert parse_scalar("1/pi") == Scalar(1) / Scalar.const("pi")
    assert parse_scalar("golden^2") == GOLDEN + 1
    with pytest.raises(ValueError):
        parse_scalar("sqrt(5")
    with pytest.raises(ValueError):
        parse_scalar("2 $ 3")


def test_zero_handling():
    z = GOLDEN - GOLDEN
    assert z.is_zero()
    assert z == Scalar(0)
    assert z.sign() == 0
    with pytest.raises(ZeroDivisionError):
        z.inverse()


# -- differential test against a {monomial: Fraction} reference ----------------

_REF_UNIT = ((), ())


def _ref_mono_mul(a, b):
    exps = dict(a[0])
    for p, e in b[0]:
        exps[p] = exps.get(p, Fraction(0)) + e
    carry = 1
    rad = []
    for p in sorted(exps):
        whole, e = divmod(exps[p], 1)
        carry *= p ** int(whole)
        if e:
            rad.append((p, e))
    return (tuple(rad), ()), carry


def _ref_add(a, b, k=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + k * c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, carry = _ref_mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2 * carry
    return {m: c for m, c in out.items() if c}


def _ref_decimal(ref):
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 90
        total = Decimal(0)
        for (rad, _), c in ref.items():
            v = Decimal(c.numerator) / Decimal(c.denominator)
            for p, e in rad:
                v *= Decimal(p) ** (Decimal(e.numerator) / Decimal(e.denominator))
            total += v
        return total


def _ref_sign(ref):
    if not ref:
        return 0
    return 1 if _ref_decimal(ref) > 0 else -1


def _ref_floor(ref):
    if set(ref) <= {_REF_UNIT}:
        return math.floor(ref.get(_REF_UNIT, Fraction(0)))
    return math.floor(_ref_decimal(ref))


_ATOMS = (
    (Scalar(1), {_REF_UNIT: Fraction(1)}),
    (GOLDEN, {_REF_UNIT: Fraction(1, 2), (((5, Fraction(1, 2)),), ()): Fraction(1, 2)}),
    (Scalar.sqrt(2), {(((2, Fraction(1, 2)),), ()): Fraction(1)}),
    (Scalar.root(2, 3), {(((2, Fraction(1, 3)),), ()): Fraction(1)}),
)


def _random_pair(rng, depth):
    """A random expression as (Scalar, reference) built from the atoms."""
    if depth == 0:
        x, ref = _ATOMS[rng.randrange(len(_ATOMS))]
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        return x * c, _ref_mul(ref, {_REF_UNIT: c}) if c else {}
    a, ra = _random_pair(rng, depth - 1)
    b, rb = _random_pair(rng, rng.randrange(depth))
    op = rng.randrange(4)
    if op == 0:
        return a + b, _ref_add(ra, rb)
    if op == 1:
        return a - b, _ref_add(ra, rb, -1)
    if op == 2:
        return a * b, _ref_mul(ra, rb)
    k = rng.randint(-7, 7)
    return a * k, _ref_mul(ra, {_REF_UNIT: Fraction(k)}) if k else {}


def _check_against_reference(x, rx, y, ry):
    assert x.terms() == rx
    assert x.sign() == _ref_sign(rx)
    assert x.floor() == _ref_floor(rx)
    assert (x == y) == (rx == ry)
    diff = 0 if rx == ry else _ref_sign(_ref_add(rx, ry, -1))
    assert (x < y) == (diff < 0)
    assert (x <= y) == (diff <= 0)
    assert (x > y) == (diff > 0)
    assert (x >= y) == (diff >= 0)


def test_differential_against_fraction_reference():
    import random

    rng = random.Random(20240611)
    pairs = [_random_pair(rng, rng.randrange(4)) for _ in range(300)]
    for (x, rx), (y, ry) in zip(pairs, pairs[1:] + pairs[:1]):
        _check_against_reference(x, rx, y, ry)
        _check_against_reference(x, rx, x + 1 - 1, dict(rx))


def test_near_ties_fall_back_to_the_sign_ladder():
    fib = [0, 1]
    while len(fib) < 32:
        fib.append(fib[-1] + fib[-2])
    golden_ref = _ATOMS[1][1]
    ratio = Fraction(fib[31], fib[30])  # above golden by about 6.5e-13
    x = Scalar(1) + Scalar.sqrt(2) * 3 - Scalar.root(2, 3)
    rx = _ref_add(_ref_add({_REF_UNIT: Fraction(1)}, _ATOMS[2][1], 3), _ATOMS[3][1], -1)
    tiny = Fraction(1, 10 ** 20)
    ties = [
        (Scalar(ratio), {_REF_UNIT: ratio}, GOLDEN, golden_ref),
        (x, rx, x + tiny, _ref_add(rx, {_REF_UNIT: tiny})),
    ]
    for a, ra, b, rb in ties:
        # the 12-digit enclosures overlap, so only the ladder can decide
        alo, ahi = a._enclosure()
        blo, bhi = b._enclosure()
        assert alo <= bhi and blo <= ahi
        _check_against_reference(a, ra, b, rb)
        _check_against_reference(b, rb, a, ra)
    assert Scalar(ratio) > GOLDEN
    assert x < x + tiny


# -- fixed encodings ---------------------------------------------------------------


def test_encodings_are_pinned():
    pi = Scalar.const("pi")
    cases = [
        (
            Scalar(Fraction(-22, 7)),
            '{"type": "rat", "v": "-22/7"}',
            "-22/7",
            -3.142857142857143,
        ),
        (
            GOLDEN * 3 - Fraction(1, 4),
            '{"type": "quad", "d": 5, "a": "5/4", "b": "3/2"}',
            "5/4 + 3/2*5^(1/2)",
            4.604101966249685,
        ),
        (
            Scalar.root(2, 3) * 5 - Fraction(1, 2),
            '{"type": "alg", "terms": [{"c": "-1/2", "rad": [], "sym": []}, '
            '{"c": "5", "rad": [[2, "1/3"]], "sym": []}]}',
            "-1/2 + 5*2^(1/3)",
            5.799605249474366,
        ),
        (
            Scalar.sqrt(2) + Scalar.sqrt(3),
            '{"type": "alg", "terms": [{"c": "1", "rad": [[2, "1/2"]], "sym": []}, '
            '{"c": "1", "rad": [[3, "1/2"]], "sym": []}]}',
            "2^(1/2) + 3^(1/2)",
            3.1462643699419726,
        ),
        (
            Scalar(1) / pi + pi * Fraction(2, 3),
            '{"type": "alg", "terms": [{"c": "1", "rad": [], "sym": [["pi", -1]]}, '
            '{"c": "2/3", "rad": [], "sym": [["pi", 1]]}]}',
            "pi^-1 + 2/3*pi",
            2.4127049885769862,
        ),
    ]
    for x, encoded, text, value in cases:
        assert json.dumps(x.to_obj()) == encoded
        assert repr(x) == text
        assert float(x) == value
        assert Scalar.from_obj(json.loads(encoded)) == x


def test_hashes_are_pinned():
    assert hash(Scalar(3)) == hash(3)
    assert hash(Scalar(Fraction(1, 3))) == hash(Fraction(1, 3))
    x = Scalar.sqrt(2) * Fraction(-5, 6) + Scalar.root(2, 3) + 7
    assert hash(x) == hash(frozenset(x.terms().items()))


def test_mixing_pi_and_e_is_refused():
    pi, e = Scalar.const("pi"), Scalar.const("e")
    with pytest.raises(ExactnessError):
        _ = pi + e
    with pytest.raises(ExactnessError):
        _ = pi * e


def test_linear_form_matches_scalar_sums():
    # one integer dot product per monomial gives the value, and the reduced
    # representation, that the Scalar additions give for the same sum
    import random

    rng = random.Random(7)
    pi = Scalar.const("pi")
    pools = [
        [Scalar(1), GOLDEN, GOLDEN_CONJ / 3, Scalar(Fraction(-5, 6))],
        [Scalar.root(2, 3) / 2, Scalar.root(2, 3) ** 2 * SQRT5 / 4, Scalar(Fraction(1, 9))],
        [pi, 1 + pi / 7, Scalar.sqrt(2), Scalar(0)],
    ]
    for values in pools:
        form = scalars.LinearForm(values)
        for _ in range(60):
            n = [rng.randint(-40, 40) * rng.randint(0, 1) for _ in values]
            expected = Scalar(0)
            for v, k in zip(values, n):
                if k:
                    expected = expected + v * k
            got = form(n)
            assert got == expected and repr(got) == repr(expected)
            assert got.to_obj() == expected.to_obj() and got.constant == expected.constant
    assert scalars.LinearForm([GOLDEN, GOLDEN_CONJ])([1, 1]).to_obj() == Scalar(1).to_obj()
    with pytest.raises(ExactnessError):
        scalars.LinearForm([Scalar(1), Scalar.from_float(0.5)])
    with pytest.raises(ExactnessError):
        scalars.LinearForm([Scalar.const("pi"), Scalar.const("e")])


def test_magnitude_bounds_the_value_and_every_term():
    # 1000*sqrt(5) - 2236 is about 0.068, but its float carries the error of
    # its terms, so the magnitude is the terms' sum, each monomial at least 1
    v = 1000 * SQRT5 - 2236
    assert 4472 < v.magnitude() < Fraction(44721, 10)
    assert Scalar(Fraction(-7, 3)).magnitude() == Fraction(7, 3)
    assert Scalar.from_float(-2.5).magnitude() == Fraction(5, 2)
    assert (Scalar(3) / Scalar.const("pi")).magnitude() == 3
    for x in (GOLDEN, GOLDEN_CONJ * 40, Scalar.root(2, 3) - 1):
        assert x.magnitude() >= abs(Fraction(x.to_float()))
