import pytest

from cutproject import fibonacci
from cutproject.fibonacci import (
    derive_fibonacci_window,
    fibonacci_scheme,
    fibonacci_substitution,
    fibonacci_window,
    ring_coordinates_of,
)
from cutproject.scalars import GOLDEN, Scalar
from cutproject.scheme import Box
from cutproject.substitution import CoverageError, SubstitutionSystem, fixed_point_patch
from cutproject.windows import interval_window


def test_first_endpoints_by_hand():
    # two substitution steps by hand: a|a -> ab|ab -> aba|ab a..., so the
    # right side starts with tiles a, b, a giving endpoints 0, golden, golden+1
    system = fibonacci_substitution()
    patch = fixed_point_patch(system, 2, Box.interval(0, GOLDEN + 1))
    assert patch.points == ((Scalar(0),), (GOLDEN,), (GOLDEN + 1,))
    # golden + 1 is golden squared
    assert patch.points[2][0] == GOLDEN ** 2


def test_origin_is_endpoint():
    system = fibonacci_substitution()
    patch = fixed_point_patch(system, 1, Box.interval(0, 0))
    assert patch.points == ((Scalar(0),),)


def test_coverage_error():
    system = fibonacci_substitution()
    with pytest.raises(CoverageError):
        fixed_point_patch(system, 2, Box.interval(0, 1000))
    with pytest.raises(CoverageError):
        fixed_point_patch(system, 2, Box.interval(-1000, 0))


def test_stability_under_extra_iterations():
    system = fibonacci_substitution()
    box = Box.interval(-30, 30)
    p5 = fixed_point_patch(system, 5, box)
    p6 = fixed_point_patch(system, 6, box)
    p7 = fixed_point_patch(system, 7, box)
    assert p5 == p6 == p7


def test_gaps_are_tile_lengths():
    system = fibonacci_substitution()
    patch = fixed_point_patch(system, 7, Box.interval(-80, 80))
    gaps = {
        (b[0] - a[0])
        for a, b in zip(patch.points, patch.points[1:])
    }
    assert gaps == {Scalar(1), GOLDEN}


def test_seed_validation():
    # right seed must reproduce itself: sigma^2(b) = "ab" does not start with b
    with pytest.raises(ValueError):
        SubstitutionSystem({"a": "ab", "b": "a"}, {"a": GOLDEN, "b": 1}, ("a", "b"))
    with pytest.raises(ValueError):
        # decoupled letters: incidence matrix never becomes positive
        SubstitutionSystem({"a": "aa", "b": "bb"}, {"a": 1, "b": 1}, ("a", "a"))
    with pytest.raises(ValueError):
        SubstitutionSystem({"a": "ab", "b": "a"}, {"a": 0, "b": 1}, ("a", "a"))


def ring_coordinates(x):
    (pq,) = ring_coordinates_of([x])
    return pq


def test_ring_coordinates():
    x = Scalar(3) + GOLDEN * 4
    assert ring_coordinates(x) == (3, 4)
    assert ring_coordinates(Scalar(0)) == (0, 0)
    for p in range(-20, 21):
        for q in range(-20, 21):
            assert ring_coordinates(Scalar(p) + GOLDEN * q) == (p, q)
    for outside in (Scalar.sqrt(2), GOLDEN / 2, Scalar.const("pi")):
        with pytest.raises(ValueError, match="is not in the golden ring"):
            ring_coordinates(outside)
    with pytest.raises(ValueError, match="need an exact value"):
        ring_coordinates(Scalar.from_float(1.0))


def test_ring_coordinates_of_equals_one_call_per_value():
    oracle = fixed_point_patch(fibonacci_substitution(), 8, Box.symmetric(55))
    values = [x for (x,) in oracle.points]
    assert len(values) == 79
    grid = [Scalar(p) + GOLDEN * q for p in range(-20, 21) for q in range(-20, 21)]
    for batch in (values, grid):
        assert ring_coordinates_of(batch) == [ring_coordinates(x) for x in batch]
    assert ring_coordinates_of([]) == []
    with pytest.raises(ValueError, match="is not in the golden ring"):
        ring_coordinates_of(values[:3] + [GOLDEN / 2] + values[3:])
    with pytest.raises(ValueError, match="need an exact value"):
        ring_coordinates_of(values[:3] + [Scalar.from_float(1.0)])


def test_derived_window_matches_oracle_two_sided():
    window = fibonacci_window()
    scheme = fibonacci_scheme()
    system = fibonacci_substitution()
    box = Box.symmetric(34)
    oracle = fixed_point_patch(system, 7, box)
    patch = scheme.project_points(box, window)
    assert patch.point_set() == oracle.point_set()


def test_derived_window_shape():
    # derivation settles the half-open convention: the left seed tile makes
    # -golden an endpoint whose star is golden-1, so the window closes right
    window = fibonacci_window()
    piece = window.regions[0].axes[0].pieces[0]
    assert piece.lo == Scalar(-1)
    assert piece.hi == GOLDEN - 1
    assert piece.hi_closed and not piece.lo_closed
    assert window.measure() == GOLDEN
    props = window.properties()
    assert props.topologically_regular and props.measure_regular


def test_window_derivation_is_cached_and_deterministic():
    first = derive_fibonacci_window.__wrapped__()
    second = derive_fibonacci_window.__wrapped__()
    assert first is not second
    assert first == second == derive_fibonacci_window()
    assert first.to_obj() == second.to_obj() == derive_fibonacci_window().to_obj()
    assert derive_fibonacci_window() is derive_fibonacci_window()


def test_builtin_window_is_the_closed_form_of_the_derivation(monkeypatch):
    # fibonacci_window() is (-1, golden - 1] as written, not a derivation
    derived = derive_fibonacci_window()
    monkeypatch.setattr(fibonacci, "derive_fibonacci_window", lambda *a: pytest.fail("derived"))
    window = fibonacci_window.__wrapped__()
    closed_form = interval_window(fibonacci_scheme().space, -1, GOLDEN - 1, False, True)
    assert window.to_obj() == closed_form.to_obj() == derived.to_obj()
    assert window == derived


@pytest.mark.parametrize(
    "radius, height", [(13, 3), (21, 3), (34, 2), (55, 1), (55, 3), (89, 3)]
)
def test_window_derivation_outcome_grid(radius, height):
    window = derive_fibonacci_window.__wrapped__(radius, height)
    (piece,) = window.regions[0].axes[0].pieces
    assert (piece.lo, piece.hi) == (Scalar(-1), GOLDEN - 1)
    assert not piece.lo_closed and piece.hi_closed
    assert window.to_obj() == fibonacci_window().to_obj()


@pytest.mark.parametrize(
    "radius, height, message",
    [
        (3, 3, "window derivation ambiguous; enlarge the radius"),
        (5, 3, "window derivation ambiguous; enlarge the radius"),
        (8, 3, "window derivation ambiguous; enlarge the radius"),
        # height 0 leaves no candidate low end at all
        (55, 0, "no half-open window matches the substitution oracle"),
    ],
)
def test_window_derivation_failures(radius, height, message):
    with pytest.raises(RuntimeError, match=message):
        derive_fibonacci_window.__wrapped__(radius, height)


def test_window_derivation_makes_one_enumeration_and_one_elimination(monkeypatch):
    from cutproject import linalg
    from cutproject.scheme import CutProjectScheme

    calls = {"project_points": 0, "rational_solve": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return original(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counted(CutProjectScheme, "project_points")
    counted(linalg, "rational_solve")
    derive_fibonacci_window.__wrapped__()
    assert calls == {"project_points": 1, "rational_solve": 1}


def test_oracle_patch_is_repetitive_at_desk_scale():
    from cutproject.analysis import repetitivity_check

    system = fibonacci_substitution()
    source = lambda box: fixed_point_patch(system, 7, box)  # noqa: E731
    report = repetitivity_check(source, Box.interval(0, 4), 15, Box.symmetric(70))
    assert report.ok
