"""Quantitative checks: densities, character sums, equidistribution, repetitivity.

Counting runs over the centred cube sequence A_n = [-n, n]^d.  Finite-n
estimates carry declared boundary-correction constants instead of limits;
tolerances are the caller's business and live in the reports.

The suites read a patch's lattice coordinates: counts bisect its sorted
first coordinate (``Patch.restrict``), character sums run over its one float
view (``Patch.float_points``, the floats its CSV writes), and a torus
coordinate is the torus factor's part of the star map
(``TorusFactor.star_map``).  An exact point is built only where an exact
comparison needs one.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul, sub

from . import linalg
from .internal_space import SpaceMismatchError
from .scalars import FLOAT_EPS, ExactnessError, Scalar
from .scheme import (
    DEFAULT_MAX_CANDIDATES,
    Box,
    CutProjectScheme,
    EnumerationOverflowError,
    Patch,
    SchemeError,
)
from .windows import TorusRegion, Window

_EQUIDIST_CELLS = 8  # torus cells per fundamental coordinate in the coverage test


@dataclass
class DensityReport:
    n_values: list[int]
    counts: list[int]
    empirical: list[float]
    lower: float
    upper: float
    boundary_constant: float
    sandwich_ok: bool = field(init=False)

    def __post_init__(self):
        for a, b in zip(self.counts, self.counts[1:]):
            if b < a:
                raise ValueError("counts must be nondecreasing in n")
        self.sandwich_ok = all(
            self.lower - self.boundary_constant / n
            <= e
            <= self.upper + self.boundary_constant / n
            for n, e in zip(self.n_values, self.empirical)
        )

    def to_obj(self):
        return {
            "n": self.n_values,
            "counts": self.counts,
            "empirical": self.empirical,
            "lower": self.lower,
            "upper": self.upper,
            "boundary_constant": self.boundary_constant,
            "sandwich_ok": self.sandwich_ok,
        }

    def to_csv_text(self) -> str:
        lines = ["n,count,empirical,lower,upper"]
        for n, c, e in zip(self.n_values, self.counts, self.empirical):
            lines.append(f"{n},{c},{e!r},{self.lower!r},{self.upper!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CharacterRd:
    """The character x -> exp(2 pi i <chi, x>) on direct space."""

    chi: tuple[float, ...]

    def value(self, point) -> complex:
        phase = sum(c * float(x) for c, x in zip(self.chi, point))
        return cmath.exp(2j * math.pi * phase)

    @property
    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.chi))


def annihilator_projection(scheme: CutProjectScheme, count: int) -> list[tuple[Scalar, ...]]:
    """Direct-space components of a generating set of the dual-lattice projection.

    Solves the defining integrality conditions exactly by inverting the
    transposed coordinate matrix; finite cyclic factors contribute one
    fractional shift generator each.  Only the base factor family (real,
    integer, finite cyclic) is supported; any other factor, and a
    coordinate matrix with no exact inverse, such as one with an entry
    1 + pi, is a ``SchemeError``.
    """
    try:
        shifts = [
            target
            for idx, f in enumerate(scheme.space.factors)
            for target in f.annihilator_shifts([h.coords[idx] for _, h in scheme.generators])
        ]
    except ValueError as exc:  # a factor outside the base family
        raise SchemeError(str(exc)) from exc
    size = scheme.lift_size
    transpose = [[scheme.matrix[j][i] for j in range(size)] for i in range(size)]
    units = [[Scalar(1 if i == k else 0) for i in range(size)] for k in range(size)]
    try:
        sols = linalg.solve_exact(transpose, (units + shifts)[:count])
    except ExactnessError as exc:
        raise SchemeError(f"the dual lattice has no exact generators: {exc}") from exc
    return [tuple(sol[: scheme.d]) for sol in sols]


def empirical_density(scheme: CutProjectScheme, window: Window, n_values) -> DensityReport:
    """Counts on A_n for each n, from one enumeration of the largest box.

    Each box restricts that patch (``Patch.restrict``) with the exact box
    test the enumeration itself applies, so each count equals a patch of its
    own box.  On an exact patch a count is two bisections of the first
    coordinate, and the patch's points are not built.
    """
    dens = scheme.lattice_density()
    lower = float(dens * window.interior().measure())
    upper = float(dens * window.closure().measure())
    gen_norm = max(
        (abs(float(v)) for g, _ in scheme.generators for v in g), default=1.0
    )
    constant = 2 * scheme.d * (1.0 + upper) * (1.0 + gen_norm)
    n_values = sorted(n_values)
    counts = []
    if n_values:
        patch = scheme.project_points(Box.symmetric(n_values[-1], scheme.d), window)
        counts = [len(patch.restrict(Box.symmetric(n, scheme.d))) for n in n_values]
    empirical = [c / (2 * n) ** scheme.d for n, c in zip(n_values, counts)]
    return DensityReport(list(n_values), counts, empirical, lower, upper, constant)


def character_average(points, chi: CharacterRd, volume) -> complex:
    """The conjugate character summed over ``points`` in order, over ``volume``.

    ``points`` are ``Scalar`` points or, cheaper, a patch's ``float_points``;
    each phase is ``CharacterRd.value``'s argument over the same floats, so
    either gives the same bits.  One list holds the character's phases, and
    the cosines and the sines of that list are reduced left to right from
    ``0.0`` (``re + cos``, ``im - sin``), which gives the bits of summing
    ``cmath.exp(2j * pi * phase).conjugate()`` in complex arithmetic.  The
    reductions are not ``sum()``: CPython 3.12+ compensates a float sum,
    which would change those bits.
    """
    tau = 2 * math.pi
    if len(chi.chi) == 1:
        (c,) = chi.chi  # 0 + is sum()'s start: a phase -0.0 becomes 0.0
        phases = [tau * (0 + c * float(x)) for (x,) in points]
    else:
        coeffs = chi.chi
        phases = [tau * sum(map(mul, coeffs, map(float, p))) for p in points]
    re = reduce(add, map(math.cos, phases), 0.0)
    im = reduce(sub, map(math.sin, phases), 0.0)
    return complex(re, im) / volume


def fourier_bohr(scheme: CutProjectScheme, window: Window, chis, n: int) -> tuple[float, list[complex]]:
    """The density of the projection set on A_n, and its averaged character
    sum for each character in ``chis`` (``CharacterRd``s or coefficient
    tuples).  One patch and one ``float_points`` view serve them all; each
    character is ``character_average`` over that view: one list of phases,
    its cosines and sines reduced left to right from ``0.0``, the bits of
    the complex sum of conjugates (not ``sum()``, which CPython 3.12+
    compensates)."""
    chis = [c if isinstance(c, CharacterRd) else CharacterRd(tuple(map(float, c))) for c in chis]
    for chi in chis:
        if len(chi.chi) != scheme.d:
            raise ValueError(f"character has {len(chi.chi)} components, direct space {scheme.d}")
    patch = scheme.project_points(Box.symmetric(n, scheme.d), window)
    points = patch.float_points()
    volume = (2 * n) ** scheme.d
    return len(patch) / volume, [character_average(points, chi, volume) for chi in chis]


@dataclass
class EquidistributionReport:
    status: str  # "pass" | "fail" | "inconclusive"
    cells_hit: int
    cells_total: int
    point_count: int
    max_fb: float
    fb_values: dict

    def to_obj(self):
        return {
            "status": self.status,
            "cells_hit": self.cells_hit,
            "cells_total": self.cells_total,
            "point_count": self.point_count,
            "max_fb": self.max_fb,
            "fb_values": {str(k): [v.real, v.imag] for k, v in self.fb_values.items()},
        }


def torus_characters(scheme: CutProjectScheme, chi_bound: float):
    """The torus factor's index and its nontrivial characters of norm at
    most ``chi_bound``, keyed by dual-lattice vector.

    A scheme without a torus factor, or a bound under which no nontrivial
    character lies, is refused with ``ValueError``: a check of no character
    would pass vacuously.  So is a bound whose range of dual-lattice
    coordinates overflows a float or an index.  A box of dual-lattice
    coordinates of more than ``DEFAULT_MAX_CANDIDATES`` vectors raises
    ``EnumerationOverflowError`` before any of it is built.
    """
    torus_idx = None
    for idx, f in enumerate(scheme.space.factors):
        if f.kind == "torus":
            torus_idx = idx
    if torus_idx is None:
        raise ValueError("scheme has no torus factor")
    factor = scheme.space.factors[torus_idx]
    # characters of the quotient: dual-lattice vectors below the norm bound
    inv_diag = [1.0 / float(factor.basis[i][i]) for i in range(factor.dim)]
    if not all(chi_bound / v < sys.maxsize // 2 for v in inv_diag if v > 0):  # inf, nan too
        raise ValueError(f"the torus characters of norm <= {chi_bound} overflow their range")
    kmax = [int(chi_bound / v) + 1 if v > 0 else 0 for v in inv_diag]
    count = math.prod(2 * k + 1 for k in kmax)
    if count > DEFAULT_MAX_CANDIDATES:
        raise EnumerationOverflowError(
            f"torus character box of {count} exceeds budget {DEFAULT_MAX_CANDIDATES}"
        )
    chars = {}
    for kvec in itertools.product(*[range(-k, k + 1) for k in kmax]):
        if not any(kvec):
            continue
        chi = CharacterRd(tuple(k * v for k, v in zip(kvec, inv_diag)))
        if chi.norm <= chi_bound + 1e-12:
            chars[kvec] = chi
    if not chars:
        raise ValueError(f"no nontrivial torus character has norm <= {chi_bound}")
    return torus_idx, chars


def torus_window(scheme: CutProjectScheme, window: Window, torus_idx: int) -> Window:
    """``window`` in the scheme's internal space: itself, or, given over the
    torus-free part (every factor but the last, the torus at ``torus_idx``),
    crossed with the full torus.  ``SpaceMismatchError`` for any other space."""
    if window.space == scheme.space:
        return window
    factors = scheme.space.factors
    if window.space.factors + (factors[torus_idx],) != factors:
        raise SpaceMismatchError(
            "window lies in neither the scheme's internal space nor its torus-free part"
        )
    return window.lifted(scheme.space, TorusRegion.full(factors[torus_idx]))


def equidistribution_check(
    scheme: CutProjectScheme,
    window: Window,
    chi_bound: float,
    n: int,
) -> EquidistributionReport:
    """Torus coverage and nontrivial character sums for an extended scheme.

    The window may be given over the torus-free part; it is then crossed
    with the full torus.  Coverage asks every fundamental-coordinate cube of
    side 1/8 to contain a projected-point image; a sample of fewer than two
    points per cube reports "inconclusive" rather than failure.  A point's
    torus coordinate is ``TorusFactor.star_map`` over the generators' torus
    coordinates, the torus part of its star, so no full star point is
    built.  The cell loop stops at the first point that completes the
    coverage; a run that leaves a cell empty reads every point.  The
    characters are ``torus_characters``, which raises ``ValueError`` for a
    scheme or bound without any; their sums share one ``float_points`` view
    of every point, and each is ``character_average`` over it: one list of
    phases, its cosines and sines reduced left to right from ``0.0``, the
    bits of the complex sum of conjugates (not ``sum()``, which CPython
    3.12+ compensates).
    """
    torus_idx, chars = torus_characters(scheme, chi_bound)
    factor = scheme.space.factors[torus_idx]
    window = torus_window(scheme, window, torus_idx)
    patch = scheme.project_points(Box.symmetric(n, scheme.d), window)
    torus_coord = factor.star_map([h.coords[torus_idx] for _, h in scheme.generators])
    cells_total = _EQUIDIST_CELLS ** factor.dim
    hit = set()
    for coords in patch.coords or []:
        cell = tuple(
            min(int(x.to_float() * _EQUIDIST_CELLS) % _EQUIDIST_CELLS, _EQUIDIST_CELLS - 1)
            for x in torus_coord(coords)
        )
        hit.add(cell)
        if len(hit) == cells_total:
            break  # every cell is hit: no later point changes the coverage
    volume = (2 * n) ** scheme.d
    points = patch.float_points()
    fb_values = {kvec: character_average(points, chi, volume) for kvec, chi in chars.items()}
    max_fb = max((abs(v) for v in fb_values.values()), default=0.0)
    if len(hit) == cells_total:
        status = "pass"
    elif window.is_empty():
        status = "fail"  # structurally empty, not a sampling artifact
    elif len(patch) < 2 * cells_total:
        status = "inconclusive"
    else:
        status = "fail"
    return EquidistributionReport(
        status, len(hit), cells_total, len(patch), max_fb, fb_values
    )


def verify_equality(a: Patch, b: Patch):
    """Exact set equality with a first-difference witness: (ok, witness).

    Exact patches are sorted and distinct, so their sets are equal exactly
    when their point sequences are."""
    if a.box != b.box:
        raise ValueError("patch boxes differ")
    if _all_exact(a) and _all_exact(b):
        if a.points == b.points:
            return True, None
        diff = sorted(a.point_set() ^ b.point_set())
        return False, diff[0]
    if len(a.points) == len(b.points) and _match_float(a.points, b.points, require_all_b=True):
        return True, None
    for p in a.points:
        if not _match_float([p], b.points, require_all_b=False):
            return False, p
    for q in b.points:
        if not _match_float([q], a.points, require_all_b=False):
            return False, q
    return False, None


def _all_exact(patch: Patch) -> bool:
    return all(v.is_exact for p in patch.points for v in p)


def _match_float(points_a, points_b, require_all_b: bool) -> bool:
    used = [False] * len(points_b)
    for p in points_a:
        found = False
        for i, q in enumerate(points_b):
            if used[i]:
                continue
            if all(abs(float(x) - float(y)) <= FLOAT_EPS for x, y in zip(p, q)):
                used[i] = True
                found = True
                break
        if not found:
            return False
    return all(used) if require_all_b else True


@dataclass
class RepetitivityReport:
    ok: bool
    witness_center: tuple | None
    returns_found: int

    def to_obj(self):
        return {
            "ok": self.ok,
            "witness_center": [float(x) for x in self.witness_center]
            if self.witness_center
            else None,
            "returns_found": self.returns_found,
        }


def repetitivity_check(patch_source, K: Box, radius, probe: Box) -> RepetitivityReport:
    """Desk-scale return-vector density check on the line.

    True iff every closed ball of the given radius centred in the probe box
    contains a translation t with (-t + patch) agreeing with the patch on K.

    The patch is sorted, so its points in K are one slice ``ref`` of it.  A
    candidate ``t = x_j - ref[0]`` is a return exactly when the slice of the
    same length from ``x_j`` has the reference's differences to its first
    point (by ``Scalar ==``, up to the first mismatch) and the points just
    outside it lie outside ``K + t``.  The returns come out in order.
    """
    if K.dim != 1 or probe.dim != 1:
        raise NotImplementedError("repetitivity check implemented for dimension 1")
    radius = Scalar.of(radius)
    patch = patch_source(probe)
    xs = [p[0] for p in patch.points]
    # the reference: the points in K, one slice xs[a:a + m] of the sorted patch
    a = next((j for j, x in enumerate(xs) if x >= K.lo[0]), len(xs))
    m = next((k for k, x in enumerate(xs[a:]) if x > K.hi[0]), len(xs) - a)
    # candidate returns map the reference pattern into the patch
    valid_lo = probe.lo[0] - K.lo[0]
    valid_hi = probe.hi[0] - K.hi[0]
    if not m:
        # the one candidate is t = 0, and K + 0 holds no point either
        returns = [t for t in (Scalar(0),) if valid_lo <= t <= valid_hi]
    else:
        anchor = xs[a]
        offsets = [x - anchor for x in xs[a + 1 : a + m]]
        returns = []
        for j in range(len(xs) - m + 1):
            t = xs[j] - anchor  # increases with j
            if t > valid_hi:
                break
            if t < valid_lo:
                continue
            if (
                all(xs[j + k] - xs[j] == d for k, d in enumerate(offsets, 1))
                and (j == 0 or xs[j - 1] < K.lo[0] + t)
                and (j + m == len(xs) or xs[j + m] > K.hi[0] + t)
            ):
                returns.append(t)
    if not returns:
        return RepetitivityReport(False, (probe.lo[0],), 0)
    # every ball [c - R, c + R] with c in the probe must contain a return
    if returns[0] - probe.lo[0] > radius:
        return RepetitivityReport(False, (probe.lo[0],), len(returns))
    for t_prev, t_next in zip(returns, returns[1:]):
        if t_next - t_prev > 2 * radius:
            center = (t_prev + t_next) / 2
            return RepetitivityReport(False, (center,), len(returns))
    if probe.hi[0] - returns[-1] > radius:
        return RepetitivityReport(False, (probe.hi[0],), len(returns))
    return RepetitivityReport(True, None, len(returns))
