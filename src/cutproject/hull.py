"""Shifted projection sets and desk-scale hull checks.

Translated configurations are probed through deterministic sequences of
lattice translations whose internal parts approach a target, stabilizing to
a limit patch squeezed between the translated lower and upper windows.
Generic shifts avoid the difference set of the two windows on a stated
truncation, which is where the limit collapses to a single model set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import transforms
from .internal_space import HPoint, InternalSpace
from .scalars import Scalar
from .scheme import DEFAULT_MAX_CANDIDATES, Box, CutProjectScheme, Patch, SchemeError
from .windows import OutOfCertifiedRangeError, Window, point_window, window_from_obj

LADDER = (
    lambda: Scalar(1) / Scalar.const("pi"),
    lambda: Scalar(1) / Scalar.const("e"),
    lambda: Scalar.sqrt(3) / 7,
    lambda: Scalar.sqrt(2) / 5,
    lambda: Scalar.sqrt(7) / 9,
)
_SHIFT_ATTEMPTS = 16  # the ladder, then seeded multiples of its first entry
_LIMIT_TOL = 1e-2  # star distance at which a limit sequence has reached its target
_COMMENSURABILITY_BOUND = 10 ** 6  # for the translation extension of a shift


@dataclass(frozen=True)
class ShiftParameter:
    s: tuple
    t: HPoint

    @classmethod
    def of(cls, s, t: HPoint):
        return cls(tuple(Scalar.of(v) for v in (s if isinstance(s, (tuple, list)) else (s,))), t)


class GammaRule:
    """Serializable membership rule on lattice coordinates.

    Selected coordinates are those whose star lies in ``window``, plus the
    explicit ``add`` list, minus the explicit ``remove`` list.
    """

    def __init__(self, window: Window | None, add=(), remove=(), scheme: CutProjectScheme | None = None):
        self.window = window
        self.add = frozenset(tuple(int(x) for x in n) for n in add)
        self.remove = frozenset(tuple(int(x) for x in n) for n in remove)
        self._scheme = scheme

    def bind(self, scheme: CutProjectScheme) -> "GammaRule":
        return GammaRule(self.window, self.add, self.remove, scheme)

    def __call__(self, n) -> bool:
        n = tuple(n)
        if n in self.remove:
            return False
        if n in self.add:
            return True
        if self.window is None:
            return False
        return self.window.contains(self._scheme.star(n))

    def to_obj(self):
        return {
            "window": self.window.to_obj() if self.window is not None else None,
            "add": sorted(map(list, self.add)),
            "remove": sorted(map(list, self.remove)),
        }

    @classmethod
    def from_obj(cls, space: InternalSpace, obj) -> "GammaRule":
        window = window_from_obj(space, obj["window"]) if obj.get("window") else None
        return cls(window, obj.get("add", ()), obj.get("remove", ()))


class AlmostModelSetWitness:
    """Open lower window, compact upper window and a membership rule.

    At construction the truncation cube ``|n_i| <= truncation`` is
    enumerated through each window, and the rule is checked to lie between
    the two projection sets there; ``admitted`` keeps
    ``(n, star(n), star(n) in lower)`` for each n of the cube the rule
    admits, in lexicographic order.  ``certified_box`` is computed once.
    """

    def __init__(self, scheme: CutProjectScheme, lower: Window, upper: Window, rule: GammaRule, truncation: int):
        if not lower.is_open():
            raise ValueError("lower window must be open")
        if lower.interior().is_empty():
            raise ValueError("lower window must have interior points")
        self.scheme = scheme
        self.lower = lower
        self.upper = upper
        self.rule = rule.bind(scheme)
        self.truncation = truncation
        self._certified = None
        # the box holds direct(n) for every cube point; the budget grows with the cube
        radii = [truncation * sum(abs(g[i]) for g, _ in scheme.generators) for i in range(scheme.d)]
        box = Box([-r for r in radii], radii)
        budget = max(DEFAULT_MAX_CANDIDATES, (2 * truncation + 1) ** scheme.rank)

        def in_cube(n):
            return all(abs(x) <= truncation for x in n)

        def cube(window):
            if window is None:
                return set()
            found = scheme.project_points(box, window, max_candidates=budget)
            return set(filter(in_cube, found.coords))

        in_lower = cube(lower)
        in_rule = in_lower if rule.window == lower else cube(rule.window)
        selected = (in_rule | set(filter(in_cube, rule.add))) - rule.remove
        upper_cl = upper.closure()
        self.admitted = []
        for n in sorted(in_lower | selected):
            if n not in selected:
                raise transforms.WitnessInclusionError(
                    f"rule rejects a lower-window point at {n}"
                )
            h = scheme.star(n)
            if not upper_cl.contains(h):
                raise transforms.WitnessInclusionError(
                    f"rule admits a point outside the upper window at {n}"
                )
            self.admitted.append((n, h, n in in_lower))
        self._admitted_coords = frozenset(n for n, _, _ in self.admitted)

    def certified_box(self) -> Box:
        """The largest symmetric box whose enumeration through the upper
        window's closure stays inside the truncation cube."""
        if self._certified is None:
            self._certified = transforms.certified_box(
                self.scheme, self.upper.closure(), self.truncation
            )
        return self._certified

    def gamma_patch(self, box: Box) -> Patch:
        """The rule's point set inside a box within the certified range."""
        candidates = self.scheme.project_points(box, self.upper.closure())
        points = []
        coords = []
        for p, n in zip(candidates.points, candidates.coords):
            if any(abs(x) > self.truncation for x in n):
                raise OutOfCertifiedRangeError(
                    f"box reaches lattice coordinates {n} beyond the truncation"
                )
            if n in self._admitted_coords:
                points.append(p)
                coords.append(n)
        # a filter of a projected patch keeps its order
        return Patch._kept(tuple(points), box, self.scheme.scheme_id, tuple(coords))

    def to_obj(self):
        return {
            "lower": self.lower.to_obj(),
            "upper": self.upper.to_obj(),
            "rule": self.rule.to_obj(),
            "truncation": self.truncation,
        }

    @classmethod
    def from_obj(cls, scheme: CutProjectScheme, obj) -> "AlmostModelSetWitness":
        return cls(
            scheme,
            window_from_obj(scheme.space, obj["lower"]),
            window_from_obj(scheme.space, obj["upper"]),
            GammaRule.from_obj(scheme.space, obj["rule"]),
            obj["truncation"],
        )


@dataclass
class LimitPatchReport:
    stabilized: bool
    stalled: bool
    lower_ok: bool
    upper_ok: bool
    patch: Patch | None
    sequence: list
    boundary_hits: list
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.stabilized and not self.stalled and self.lower_ok and self.upper_ok

    def to_obj(self):
        return {
            "stabilized": self.stabilized,
            "stalled": self.stalled,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "points": (
                [[float(x) for x in p] for p in self.patch.points]
                if self.patch is not None else None
            ),
            "sequence": [
                {"n": list(n), "distance": d} for n, d in self.sequence
            ],
            "boundary_hits": [list(n) for n in self.boundary_hits],
            "note": self.note,
        }


def _star_distance(h: HPoint, target: HPoint) -> float:
    pairs = zip(h.space.factors, h.coords, target.coords)
    return sum(f.distance_sq(a, b) for f, a, b in pairs) ** 0.5


def limit_patch_check(
    scheme: CutProjectScheme,
    witness: AlmostModelSetWitness,
    t_target: HPoint,
    K: Box,
    rungs: int = 7,
) -> LimitPatchReport:
    """Translate the rule's point set along lattice stars approaching a target.

    Candidate lattice translations are found by enumerating stars inside a
    shrinking neighborhood of the target, with the direct part budgeted so
    the shifted box stays inside the witness's certified range.  The report
    states whether the patches on K stabilize between the translated window
    projections.
    """
    certified = witness.certified_box()
    s_lo = [k - c for k, c in zip(K.hi, certified.hi)]
    s_hi = [k - c for k, c in zip(K.lo, certified.lo)]
    budget = min(float(b) for b in s_hi)
    # shift caps and neighborhood radii refine together so each rung
    # enumerates a handful of candidates; a rung's radius is
    # 400 / int(cap * 100), so a budget under 1/100 leaves no rung
    cap = min(30.0, budget)
    if any(a > b for a, b in zip(s_lo, s_hi)) or int(cap * 100) <= 0:
        raise SchemeError("witness truncation too small for the requested box")
    lower_w = witness.lower.translate(t_target)
    upper_w = witness.upper.closure().translate(t_target)
    lower_set = scheme.project_points(K, lower_w).point_set()
    upper_set = scheme.project_points(K, upper_w).point_set()
    best = None
    sequence = []
    patches = []
    lower_ok = upper_ok = False
    for _ in range(rungs):
        cap_lo = [max(v, Scalar.from_float(-cap)) for v in s_lo]
        cap_hi = [min(v, Scalar.from_float(cap)) for v in s_hi]
        candidates = ()  # a rung whose cap misses the shifts has none
        if not any(a > b for a, b in zip(cap_lo, cap_hi)):
            delta = Fraction(4 * 100, int(cap * 100))
            nbhd = point_window(scheme.space, t_target, Scalar.of(delta))
            candidates = scheme.project_points(Box(cap_lo, cap_hi), nbhd).coords
        improved = False
        for n in candidates:
            dist = _star_distance(scheme.star(n), t_target)
            if best is None or dist < best[1] - 1e-15:
                best = (n, dist)
                improved = True
        if best is not None:
            sequence.append(best)
            if improved or not patches:
                s_k = scheme.direct(best[0])
                neg = tuple(-v for v in s_k)
                patches.append(witness.gamma_patch(K.translate(neg)).translate(s_k))
            else:
                patches.append(patches[-1])
            final_set = patches[-1].point_set()
            lower_ok = lower_set <= final_set
            upper_ok = final_set <= upper_set
            stable = (
                len(patches) >= 2
                and patches[-1].point_set() == patches[-2].point_set()
            )
            if stable and lower_ok and upper_ok and best[1] <= _LIMIT_TOL:
                break
        if cap >= budget:
            if best is not None and len(patches) >= 2:
                break
        cap = min(cap * 2, budget)
    stalled = best is None or best[1] > _LIMIT_TOL
    stabilized = (
        len(patches) >= 2 and patches[-1].point_set() == patches[-2].point_set()
    )
    if not patches:
        return LimitPatchReport(False, True, False, False, None, sequence, [])
    final = patches[-1]
    diff = window_difference_points(witness.lower, witness.upper)
    boundary_hits = list(_shifted_star_hits(scheme, t_target, diff, witness.truncation))
    note = "" if not boundary_hits else "translated boundary meets star points"
    return LimitPatchReport(
        stabilized, stalled, lower_ok, upper_ok, final, sequence, boundary_hits, note
    )


def window_difference_points(lower: Window, upper: Window) -> list[HPoint]:
    """The difference set upper-closure minus lower, required to be finite.

    Its points are among the corner points of the two windows.  Windows
    whose measures differ, or over a factor kind without corner points, are
    a ``SchemeError``."""
    upper_cl = upper.closure()
    if not (upper_cl.measure() - lower.measure()).is_zero():
        raise SchemeError("difference of the windows is not a finite point set")
    try:
        candidates = set(upper_cl.corner_points()) | set(lower.corner_points())
    except ValueError as exc:
        raise SchemeError(str(exc)) from exc
    out = []
    for p in candidates:
        if upper_cl.contains(p) and not lower.contains(p):
            out.append(p)
    return sorted(out, key=lambda p: str(p.to_obj()))


def _shifted_star_hits(scheme: CutProjectScheme, t: HPoint, difference_points, truncation: int):
    """Yield, in order over the points e, truncated n with star(n) = t + e."""
    for e in difference_points:
        n = scheme.star_preimage(scheme.space.add(t, e))
        if n is not None and all(abs(x) <= truncation for x in n):
            yield n


def check_shift_avoidance(
    scheme: CutProjectScheme, t: HPoint, difference_points, truncation: int
):
    """Exactly verify that no truncated star lands on the shifted difference set."""
    n = next(_shifted_star_hits(scheme, t, difference_points, truncation), None)
    return n is None, n


def generic_shift(
    scheme: CutProjectScheme,
    lower: Window,
    upper: Window,
    truncation: int,
    rng: random.Random | None = None,
) -> HPoint:
    """A shift moving the window difference set off all truncated star points.

    Walks a fixed irrational ladder first for reproducibility, then falls
    back to seeded random multiples of the first ladder entry.  Each
    candidate is built, and each multiple drawn, only when it is tried.  A
    ``truncation`` below 1 is refused with ``ValueError``.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be at least 1, got {truncation}")
    diff = window_difference_points(lower, upper)
    space = scheme.space
    if not diff:
        return space.zero()
    rng = rng or random.Random(0)

    def candidates():
        yield from (make() for make in LADDER)
        for _ in range(_SHIFT_ATTEMPTS - len(LADDER)):
            q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            yield LADDER[0]() * q

    for value in candidates():
        t = shift_point(space, value)
        ok, _ = check_shift_avoidance(scheme, t, diff, truncation)
        if ok:
            return t
    raise transforms.CertificationError(
        f"no avoiding shift found in {_SHIFT_ATTEMPTS} attempts"
    )


def shift_point(space: InternalSpace, value: Scalar) -> HPoint:
    """A point with the given value on every real axis and zeros elsewhere."""
    return HPoint(space, tuple(f.real_constant(value) for f in space.factors))


@dataclass
class HullClassificationReport:
    limit: LimitPatchReport
    lower_ok: bool
    upper_ok: bool
    roundtrip_ok: bool
    witness_point: tuple | None = None
    certificate: transforms.TransformCertificate | None = None

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.roundtrip_ok

    def to_obj(self):
        return {
            "limit": self.limit.to_obj(),
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "roundtrip_ok": self.roundtrip_ok,
            "witness_point": [float(x) for x in self.witness_point]
            if self.witness_point
            else None,
            "certificate": self.certificate.to_obj() if self.certificate else None,
        }


def hull_classification_check(
    scheme: CutProjectScheme,
    witness: AlmostModelSetWitness,
    x: ShiftParameter,
    K: Box,
    corrupt=None,
) -> HullClassificationReport:
    """Verify a shifted configuration is again an almost model set and rebuild
    its window through the translation extension plus augmentation pipeline.

    ``corrupt`` optionally maps the limit patch to a tampered one, exercising
    the failure path.
    """
    limit = limit_patch_check(scheme, witness, x.t, K)
    if limit.patch is None:
        return HullClassificationReport(limit, False, False, False)
    config = limit.patch
    if corrupt is not None:
        config = corrupt(config)
    shifted_box = K.translate(x.s)
    config = config.translate(x.s)
    if all(v.is_zero() for v in x.s):
        scheme2 = scheme
        lift = lambda w: w  # noqa: E731
    else:
        ext = transforms.translate_cps(scheme, x.s, _COMMENSURABILITY_BOUND)
        scheme2 = ext.scheme
        lift = lambda w: transforms.lift_window(w, 1, scheme2)  # noqa: E731
    lower_w = lift(witness.lower.translate(x.t))
    upper_w = lift(witness.upper.closure().translate(x.t))
    lower_patch = scheme2.project_points(shifted_box, lower_w)
    upper_patch = scheme2.project_points(shifted_box, upper_w)
    lower_ok = lower_patch.point_set() <= config.point_set()
    upper_ok = config.point_set() <= upper_patch.point_set()
    witness_point = None
    if not upper_ok:
        witness_point = sorted(config.point_set() - upper_patch.point_set())[0]
    elif not lower_ok:
        witness_point = sorted(lower_patch.point_set() - config.point_set())[0]
    # rebuild the window in the extended scheme and reproduce the configuration
    roundtrip_ok = False
    certificate = None
    if lower_ok and upper_ok:
        # lower_ok already puts the box's lower-window points in the configuration
        config_set = config.point_set()
        pairs = zip(upper_patch.points, upper_patch.coords)
        rule2 = GammaRule(lower_w, add=[n for p, n in pairs if p in config_set])
        try:
            wit2 = AlmostModelSetWitness(scheme2, lower_w, upper_w, rule2, witness.truncation)
            aug = transforms.almost_to_model(wit2)
            certificate = aug.certificate
            inner = wit2.certified_box()
            check_box = _box_intersection(inner, shifted_box)
            reproduced = scheme2.project_points(check_box, aug.window)
            expected = config.restrict(check_box)
            roundtrip_ok = reproduced.point_set() == expected.point_set()
            if not roundtrip_ok:
                diff = reproduced.point_set() ^ expected.point_set()
                witness_point = sorted(diff)[0]
        except (transforms.WitnessInclusionError, transforms.CertificationError):
            roundtrip_ok = False
    return HullClassificationReport(
        limit, lower_ok, upper_ok, roundtrip_ok, witness_point, certificate
    )


def _box_intersection(a: Box, b: Box) -> Box:
    lo = [max(x, y) for x, y in zip(a.lo, b.lo)]
    hi = [min(x, y) for x, y in zip(a.hi, b.hi)]
    return Box(lo, hi)
