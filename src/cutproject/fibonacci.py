"""The Fibonacci chain: canned scheme, substitution system, window.

The scheme embeds the golden-ratio ring into the plane by pairing each
element with its algebraic conjugate; the substitution system generates the
same point set independently, which pins down the half-open acceptance
window among low-height candidate endpoints: one enumeration over a cover
window, sorted by star, decides every candidate by bisection.  The window
the library uses is that derivation's closed form, (-1, golden - 1].
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter

from . import linalg
from .internal_space import InternalSpace, RealFactor
from .scalars import GOLDEN, GOLDEN_CONJ, Scalar
from .scheme import Box, CutProjectScheme
from .substitution import SubstitutionSystem, fixed_point_patch
from .windows import Window, interval_window


@lru_cache(maxsize=1)
def fibonacci_scheme() -> CutProjectScheme:
    space = InternalSpace([RealFactor(1)])
    return CutProjectScheme(
        1,
        space,
        [
            ((Scalar(1),), space.point((Scalar(1),))),
            ((GOLDEN,), space.point((GOLDEN_CONJ,))),
        ],
    )


@lru_cache(maxsize=1)
def fibonacci_substitution() -> SubstitutionSystem:
    return SubstitutionSystem(
        rules={"a": "ab", "b": "a"},
        lengths={"a": GOLDEN, "b": Scalar(1)},
        seed=("a", "a"),
    )


def ring_coordinates_of(values) -> list[tuple[int, int]]:
    """The integers (p, q) with x = p + q*golden of each x of ``values``, in
    the golden ring, from one row reduction.

    1 and golden are rationally independent, so each (p, q) is unique.
    Raises ``ValueError`` for a float value, or else for the first value
    outside the golden ring.
    """
    if not all(x.is_exact for x in values):
        raise ValueError("ring coordinates need an exact value")
    sols = linalg.rational_solve([[Scalar(1), GOLDEN]], [[x] for x in values])
    out = []
    for x, sol in zip(values, sols):
        if sol is None or any(v.denominator != 1 for v in sol):
            raise ValueError(f"{x!r} is not in the golden ring")
        out.append((int(sol[0]), int(sol[1])))
    return out


def _star(p: int, q: int) -> Scalar:
    """The star of lattice coordinates (p, q): p + q*conj(golden)."""
    return Scalar(p) + GOLDEN_CONJ * q


@lru_cache(maxsize=4)
def derive_fibonacci_window(radius: int = 55, height: int = 3) -> Window:
    """Recover the half-open window by matching the substitution fixed point.

    Candidate endpoints are conjugate-ring elements e + f*conj(golden) of
    height at most ``height``; the unique half-open interval whose projection
    patch reproduces the oracle patch on [-radius, radius] is returned.

    One enumeration serves every candidate.  Each candidate window lies in
    the closed cover window from the lowest low end to the highest high end,
    so its patch is the cover's points with a star inside it.  The oracle's
    ring coordinates are its points' lattice coordinates; in the cover sorted
    by star they must be one block, and a candidate matches exactly when
    bisecting the star list at its two ends cuts out that block.
    """
    scheme = fibonacci_scheme()
    box = Box.symmetric(radius)
    oracle = fixed_point_patch(fibonacci_substitution(), 8, box)
    coords = ring_coordinates_of([x for (x,) in oracle.points])
    stars = [_star(p, q) for p, q in coords]
    lo_star = min(stars)
    hi_star = max(stars)
    candidates = [
        Scalar(e) + GOLDEN_CONJ * f
        for e in range(-height, height + 1)
        for f in range(-height, height + 1)
    ]
    half = Scalar.of(1) / 2
    lows = [c for c in candidates if lo_star - half <= c <= lo_star]
    highs = [c for c in candidates if hi_star <= c <= hi_star + half]
    matches = []
    if lows and highs:
        cover_window = interval_window(scheme.space, min(lows), max(highs), True, True)
        cover = sorted(
            ((_star(*n), n) for n in scheme.project_points(box, cover_window).coords),
            key=itemgetter(0),
        )
        place = {n: k for k, (_, n) in enumerate(cover)}
        spots = sorted(place[n] for n in coords if n in place)
        if len(spots) == len(coords) and spots[-1] - spots[0] + 1 == len(spots):
            block = (spots[0], spots[-1] + 1)
            cover_stars = [star for star, _ in cover]
            # [alpha, beta) keeps the stars from bisect_left(alpha) up to
            # bisect_left(beta), (alpha, beta] those between the bisect_rights
            for lo_closed, cut in ((True, bisect_left), (False, bisect_right)):
                starts = [cut(cover_stars, alpha) for alpha in lows]
                stops = [cut(cover_stars, beta) for beta in highs]
                matches += [
                    (alpha, beta, lo_closed)
                    for alpha, start in zip(lows, starts)
                    for beta, stop in zip(highs, stops)
                    if (start, stop) == block
                ]
    if not matches:
        raise RuntimeError("no half-open window matches the substitution oracle")
    if len(matches) > 1:
        raise RuntimeError("window derivation ambiguous; enlarge the radius")
    alpha, beta, lo_closed = matches[0]
    return interval_window(scheme.space, alpha, beta, lo_closed, not lo_closed)


@lru_cache(maxsize=1)
def fibonacci_window() -> Window:
    """The half-open window (-1, golden - 1], the closed form of
    ``derive_fibonacci_window()``."""
    return interval_window(fibonacci_scheme().space, -1, GOLDEN - 1, False, True)
