"""The Fibonacci chain: canned scheme, substitution system, derived window.

The scheme embeds the golden-ratio ring into the plane by pairing each
element with its algebraic conjugate; the substitution system generates the
same point set independently, which pins down the half-open acceptance
window by exhaustive matching over low-height candidate endpoints.
"""

from __future__ import annotations

from functools import lru_cache

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


def ring_coordinates(x: Scalar) -> tuple[int, int]:
    """Integer (p, q) with x = p + q*golden, for x in the golden ring."""
    if not x.is_exact:
        raise ValueError("ring coordinates need an exact value")
    sol = linalg.rational_solve([[Scalar(1), GOLDEN]], [x])
    if sol is None or any(v.denominator != 1 for v in sol):
        raise ValueError(f"{x!r} is not in the golden ring")
    p, q = sol
    return int(p), int(q)


@lru_cache(maxsize=4)
def derive_fibonacci_window(radius: int = 55, height: int = 3) -> Window:
    """Recover the half-open window by matching the substitution fixed point.

    Candidate endpoints are conjugate-ring elements e + f*conj(golden) of
    height at most ``height``; the unique half-open interval whose projection
    patch reproduces the oracle patch on [-radius, radius] is returned.
    """
    scheme = fibonacci_scheme()
    system = fibonacci_substitution()
    box = Box.symmetric(radius)
    oracle = fixed_point_patch(system, 8, box)
    stars = []
    for (x,) in oracle.points:
        p, q = ring_coordinates(x)
        stars.append(Scalar(p) + GOLDEN_CONJ * q)
    lo_star = min(stars)
    hi_star = max(stars)
    candidates = []
    for e in range(-height, height + 1):
        for f in range(-height, height + 1):
            candidates.append(Scalar(e) + GOLDEN_CONJ * f)
    half = Scalar.of(1) / 2
    lows = [c for c in candidates if lo_star - half <= c <= lo_star]
    highs = [c for c in candidates if hi_star <= c <= hi_star + half]
    matches = []
    for alpha in lows:
        for beta in highs:
            for lo_closed in (True, False):
                window = interval_window(
                    scheme.space, alpha, beta, lo_closed, not lo_closed
                )
                if scheme.project_points(box, window) == oracle:
                    matches.append(window)
    if not matches:
        raise RuntimeError("no half-open window matches the substitution oracle")
    if len(matches) > 1:
        raise RuntimeError("window derivation ambiguous; enlarge the radius")
    return matches[0]


def fibonacci_window() -> Window:
    return derive_fibonacci_window()
