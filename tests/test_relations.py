import pytest

from cutproject.relations import certify_independent, exact_relation, lll_relation
from cutproject.scalars import GOLDEN, SQRT5, Scalar


def test_exact_relation_found():
    # golden^2 = golden + 1
    vals = [Scalar(1), GOLDEN, GOLDEN * GOLDEN]
    rel = exact_relation(vals)
    assert rel is not None
    acc = Scalar(0)
    for c, v in zip(rel, vals):
        acc = acc + v * c
    assert acc.is_zero()


def test_exact_relation_independent():
    c = Scalar.root(2, 3)
    vals = [Scalar(1), SQRT5, c, c * c]
    assert exact_relation(vals) is None
    # the direct parts around an incommensurate translation: no relation
    assert exact_relation([Scalar.sqrt(2), Scalar(1), GOLDEN]) is None


def test_lll_relation_heuristic():
    import math

    # 2 * (1/sqrt2) - sqrt2 = 0, visible already at float precision
    rel = lll_relation([1 / math.sqrt(2), math.sqrt(2)], bound=100)
    assert rel is not None
    assert abs(rel[0] / math.sqrt(2) + rel[1] * math.sqrt(2)) < 1e-6
    # exact inputs support the large coefficient bound without false hits
    rel = lll_relation([Scalar.sqrt(2), Scalar(1), GOLDEN], bound=10 ** 6)
    assert rel is None
    rel = lll_relation([Scalar.sqrt(2), Scalar.sqrt(2).inverse()], bound=10 ** 6)
    assert rel == [1, -2] or rel == [-1, 2]


def test_certify_independent_exact_and_float():
    c = Scalar.root(2, 3)
    cert = certify_independent([Scalar(1), SQRT5, c, c.inverse()], 10 ** 6)
    assert cert.passed and cert.method == "exact-kernel"
    s = Scalar.sqrt(2)
    cert = certify_independent([Scalar(1), s, s.inverse()], 10 ** 6)
    assert not cert.passed and cert.witness is not None
    cert = certify_independent(
        [Scalar.from_float(2 ** 0.5), Scalar.from_float(1.0)], 10 ** 4
    )
    assert cert.method == "lll-heuristic"
    assert cert.passed


def test_zero_is_a_relation():
    # 1 * 0 = 0: an all-zero system keeps its unknown, so its kernel is whole
    assert exact_relation([Scalar(0)]) == [1]
    cert = certify_independent([Scalar(0)], 10)
    assert cert.method == "exact-kernel"
    assert not cert.passed and cert.witness == [1]


@pytest.mark.parametrize("name", ["pi", "e"])
def test_one_constant_is_decided_by_the_kernel(name):
    # algebraic multiples of powers of one transcendental constant are
    # rationally independent, so the monomial kernel decides exactly
    c = Scalar.const(name)
    cert = certify_independent([Scalar(1), GOLDEN, c, c.inverse(), c * Scalar.sqrt(2)], 10 ** 6)
    assert cert.method == "exact-kernel" and cert.passed
    cert = certify_independent([Scalar(1), c, c * c, c * GOLDEN], 10 ** 6)
    assert cert.method == "exact-kernel" and cert.passed
    # golden = (1 + sqrt(5)) / 2, times c
    cert = certify_independent([c * GOLDEN, c, c * SQRT5], 10 ** 6)
    assert cert.method == "exact-kernel" and cert.witness in ([2, -1, -1], [-2, 1, 1])


def test_pi_and_e_together_stay_heuristic():
    cert = certify_independent([Scalar(1), Scalar.const("pi"), Scalar.const("e")], 10 ** 6)
    assert cert.method == "lll-heuristic"
    assert cert.passed and cert.note == "bounded search, not a proof"
