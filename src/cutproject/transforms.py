"""Scheme transformations with certified relationships between point sets.

Four constructions: translation by an incommensurate vector (internal space
gains a free integer factor), translation by a commensurate vector (internal
space becomes a twisted cyclic extension carrying the minimal multiple), the
torus extension that makes the star map injective, and the window
augmentation turning an almost-model-set membership rule into a window.

Each returns a certificate listing the checks performed, the boxes they ran
on, and heuristic bounds where a complete decision is impossible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import ratmath
from .analysis import annihilator_projection, verify_equality
from .internal_space import (
    HPoint,
    IntegerRankFactor,
    InternalSpace,
    TorusFactor,
    TwistedExtensionFactor,
)
from .relations import RelationCertificate, certify_independent
from .scalars import Scalar
from .scheme import Box, CutProjectScheme, SchemeError
from .windows import (
    AugmentedWindow,
    IntSetRegion,
    ProductWindow,
    TorusRegion,
    TwistedRegion,
    Window,
    eq11_chain,
    window_from_obj,
)

_RESTRICTION_BOUND = 50  # |n_i| of the random combinations in check_lattice_restriction


class CertificationError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InjectivityError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CommensurabilityUndecidedError(RuntimeError):
    """Float-mode commensurability came back unknown at the given bound."""


class WitnessInclusionError(ValueError):
    """The membership rule escapes its bracketing windows on the truncation."""


@dataclass
class CertCheck:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_obj(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}

    @classmethod
    def from_obj(cls, obj):
        return cls(obj["name"], obj["passed"], obj.get("detail", {}))


# the checks a certificate may record: the six the transforms write, and
# the exhaustive injectivity check that older certificates hold
_CHECK_NAMES = frozenset({
    "pair-in-lattice", "patch-translation", "star-injective", "patch-full-torus",
    "membership-patch", "interior-closure-chain", "star-injective-exhaustive",
})


@dataclass
class TransformCertificate:
    kind: str  # Translation | QuotientTranslation | InjectiveExtension | WindowAugmentation
    input_scheme: str
    output_scheme: str
    data: dict = field(default_factory=dict)
    checks: list[CertCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self):
        return {
            "kind": self.kind,
            "input_scheme": self.input_scheme,
            "output_scheme": self.output_scheme,
            "data": self.data,
            "checks": [c.to_obj() for c in self.checks],
        }

    @classmethod
    def from_obj(cls, obj):
        checks = [CertCheck.from_obj(c) for c in obj.get("checks", [])]
        for check in checks:
            if check.name not in _CHECK_NAMES:
                raise ValueError(f"unknown check {check.name!r}")
        return cls(
            obj["kind"], obj["input_scheme"], obj["output_scheme"], obj.get("data", {}), checks
        )


@dataclass
class TranslationExtension:
    scheme: CutProjectScheme
    b: HPoint
    m: int  # 0 in the incommensurate case
    certificate: TransformCertificate


DEFAULT_CHECK_RADIUS = 20


# ---------------------------------------------------------------------------
# Translation extensions


def translate_cps(
    scheme: CutProjectScheme,
    a,
    bound: int,
    window: Window | None = None,
    box: Box | None = None,
) -> TranslationExtension:
    """Extend the scheme so that translation by ``a`` becomes a window shift.

    Incommensurate ``a`` appends a free integer factor; when a minimal
    multiple m a hits the projected lattice the internal space becomes the
    twisted cyclic extension carrying that multiple.  Returns the new scheme,
    the internal element paired with ``a``, and a certificate.
    """
    a = tuple(Scalar.of(v) for v in (a if isinstance(a, (tuple, list)) else (a,)))
    if all(v.is_zero() for v in a):
        raise ValueError("translation vector must be nonzero")
    res = scheme.is_commensurate(a, bound)
    if res.status == "unknown":
        raise CommensurabilityUndecidedError(
            f"commensurability of {a!r} undecided at bound {bound}"
        )
    if res.status == "incommensurate":
        space2 = InternalSpace(scheme.space.factors + (IntegerRankFactor(1),))
        gens2 = [
            (g, HPoint(space2, h.coords + ((0,),))) for g, h in scheme.generators
        ]
        zero_coords = scheme.space.zero().coords
        gens2.append((a, HPoint(space2, zero_coords + ((1,),))))
        b = HPoint(space2, zero_coords + ((1,),))
        m = 0
        kind = "Translation"
    else:
        m, n_b = res.m, res.n
        b_star = scheme.star(n_b)
        f = TwistedExtensionFactor(scheme.space, m, b_star)
        space2 = InternalSpace([f])
        v = list(n_b) + [-m]
        u = ratmath.complete_unimodular(v)
        gens2 = []
        # each further column w of the completion is the old lattice point
        # w[:-1] plus w[-1] times (a, b).  The direct part sums the zero
        # terms too: where w[:-1] is 0, scheme.direct gives an exact 0, and
        # a float scheme's generator would not stay a float
        directs = [g for g, _ in scheme.generators] + [a]
        for col in range(1, len(v)):
            w = [u[i][col] for i in range(len(v))]
            direct = tuple(
                sum((g[i] * wi for g, wi in zip(directs, w)), Scalar(0)) for i in range(scheme.d)
            )
            gens2.append((direct, space2.point((scheme.star(w[:-1]), w[-1]))))
        b = space2.point((scheme.space.zero(), 1))
        kind = "QuotientTranslation"
    scheme2 = CutProjectScheme(scheme.d, space2, gens2)
    cert = TransformCertificate(
        kind=kind,
        input_scheme=scheme.scheme_id,
        output_scheme=scheme2.scheme_id,
        data={
            "a": [v.to_obj() for v in a],
            "m": m,
            "bound": bound,
            "heuristic": res.heuristic,
            "b": b.to_obj(),
        },
    )
    cert.checks.append(
        CertCheck(
            "pair-in-lattice",
            scheme2.lattice_coords_of(a, b) is not None,
            {"note": "the translation vector pairs with b inside the new lattice"},
        )
    )
    if window is not None:
        if box is None:
            box = Box.symmetric(DEFAULT_CHECK_RADIUS, scheme.d)
        ok = _translation_patch_check(scheme, scheme2, a, window, box, 1)
        cert.checks.append(
            CertCheck(
                "patch-translation",
                ok,
                {"n": 1, "box": box.to_obj(), "window": window.to_obj()},
            )
        )
    result = TranslationExtension(scheme2, b, m, cert)
    if not cert.passed:
        raise CertificationError("translation certificate failed", cert)
    return result


def _translation_patch_check(scheme, scheme2, a, window, box, n: int) -> bool:
    shift = tuple(v * n for v in a)
    back = tuple(-v for v in shift)
    lhs = scheme.project_points(box.translate(back), window).translate(shift)
    rhs = scheme2.project_points(box, lift_window(window, n, scheme2))
    ok, _ = verify_equality(lhs, rhs)
    return ok


def _full_torus_patch_check(scheme, scheme2, window, box) -> bool:
    lifted = lift_window_torus(window, scheme2.space, len(scheme2.space.factors) - 1)
    lhs = scheme.project_points(box, window)
    rhs = scheme2.project_points(box, lifted)
    ok, _ = verify_equality(lhs, rhs)
    return ok


def _extension_twist(space2: InternalSpace, space: InternalSpace):
    """The twisted factor when ``space2`` is a twisted cyclic extension of
    ``space``, None when it is ``space`` times Z; ValueError otherwise."""
    factors = space2.factors
    if factors == space.factors + (IntegerRankFactor(1),):
        return None
    if len(factors) == 1 and factors[0].kind == "twisted" and factors[0].base == space:
        return factors[0]
    raise ValueError("space is not a translation extension of the given space")


def lift_window(window: Window, n: int, scheme2: CutProjectScheme) -> Window:
    """The extended-scheme window whose projection set is the n-th translate."""
    f = _extension_twist(scheme2.space, window.space)
    if f is None:
        return window.lifted(scheme2.space, IntSetRegion(1, {(n,)}), (n,))
    r = n % f.modulus
    s = (n - r) // f.modulus
    base = window
    if s:
        base = base.translate(window.space.scale(f.twist, s))
    return ProductWindow(scheme2.space, (TwistedRegion(f, {r: base}),))


def lift_window_torus(window: Window, space2: InternalSpace, torus_idx: int) -> Window:
    """Cross a window with the full torus of an extended scheme."""
    return window.lifted(space2, TorusRegion.full(space2.factors[torus_idx]))


def check_lattice_restriction(
    scheme: CutProjectScheme,
    scheme2: CutProjectScheme,
    rng: random.Random,
    combinations: int = 100,
) -> CertCheck:
    """The extended lattice meets the embedded old internal space exactly in
    the old lattice: checked on all generators plus random combinations both
    ways."""
    basis = [tuple(1 if j == i else 0 for j in range(scheme.rank)) for i in range(scheme.rank)]
    combos = list(basis)
    for _ in range(combinations):
        combos.append(
            tuple(rng.randint(-_RESTRICTION_BOUND, _RESTRICTION_BOUND) for _ in range(scheme.rank))
        )
    for n in combos:
        g, h = scheme.point_of(n)
        h2 = embed_internal(scheme2.space, h)
        if scheme2.lattice_coords_of(g, h2) is None:
            return CertCheck(
                "lattice-restriction", False, {"direction": "old-into-new", "n": list(n)}
            )
    for _ in range(combinations):
        n2 = tuple(
            rng.randint(-_RESTRICTION_BOUND, _RESTRICTION_BOUND) for _ in range(scheme2.rank)
        )
        g2, h2 = scheme2.point_of(n2)
        stripped = strip_embedded(scheme2.space, scheme.space, h2)
        if stripped is None:
            continue  # not inside the embedded copy of H
        if scheme.lattice_coords_of(g2, stripped) is None:
            return CertCheck(
                "lattice-restriction", False, {"direction": "new-into-old", "n": list(n2)}
            )
    return CertCheck(
        "lattice-restriction",
        True,
        {"combinations": combinations, "coordinate_bound": _RESTRICTION_BOUND},
    )


def embed_internal(space2: InternalSpace, h: HPoint) -> HPoint:
    """Embed a point of H into a translation extension of H."""
    if _extension_twist(space2, h.space) is None:
        return HPoint(space2, h.coords + ((0,),))
    return space2.point((h, 0))


def strip_embedded(space2: InternalSpace, space: InternalSpace, h2: HPoint):
    """Inverse of embed_internal where defined; None if h2 is off the copy."""
    if _extension_twist(space2, space) is None:
        return HPoint(space, h2.coords[:-1]) if h2.coords[-1] == (0,) else None
    base, r = h2.coords[0]
    return base if r == 0 else None


# ---------------------------------------------------------------------------
# Generic diagonal lattices and the injective-star torus extension


NAMED_CONSTANTS = (
    ("root(2,3)", lambda: Scalar.root(2, 3)),
    ("root(3,3)", lambda: Scalar.root(3, 3)),
    ("root(5,3)", lambda: Scalar.root(5, 3)),
    ("root(2,5)", lambda: Scalar.root(2, 5)),
    ("root(7,3)", lambda: Scalar.root(7, 3)),
    ("root(3,5)", lambda: Scalar.root(3, 5)),
    ("root(11,3)", lambda: Scalar.root(11, 3)),
    ("root(6,5)", lambda: Scalar.root(6, 5)),
)


def _span_values(points) -> list[Scalar]:
    """Scalars spanning (a superset of) the rational span of all coordinates."""
    values: dict = {((), ()): Scalar(1)}
    for p in points:
        for v in p:
            if not v.is_exact:
                raise ValueError("the generic-lattice certification needs exact generators")
            for mono in v.terms():
                if mono not in values:
                    values[mono] = Scalar._make({mono: Fraction(1)})
    return list(values.values())


def certify_generic_diagonal(points, diag, relation_bound: int) -> RelationCertificate:
    """No bounded rational relation links span(points), the diagonal entries
    and their inverses."""
    values = _span_values(points)
    for c in diag:
        c = Scalar.of(c)
        if c.is_exact and c.is_rational:
            return RelationCertificate(
                method="exact-kernel",
                bound=relation_bound,
                passed=False,
                witness=None,
                note="rational diagonal entry always lies in the rational span",
            )
        values.append(c)
        values.append(c.inverse() if c.is_exact else Scalar.from_float(1.0 / float(c)))
    return certify_independent(values, relation_bound)


def choose_generic_lattice(
    points,
    d: int,
    relation_bound: int = 10 ** 6,
):
    """Pick a diagonal lattice whose entries avoid the rational span of the data.

    Tries each of ``NAMED_CONSTANTS`` once, in order.  Returns (diagonal
    entries, certificate); raises CertificationError when the constants run
    out first.
    """
    chosen: list[Scalar] = []
    last_cert = None
    for _name, make in NAMED_CONSTANTS:
        if len(chosen) == d:
            break
        c = make()
        cert = certify_generic_diagonal(points, chosen + [c], relation_bound)
        if cert.passed:
            chosen.append(c)
            last_cert = cert
    if len(chosen) < d:
        raise CertificationError(
            f"named constants exhausted after {len(NAMED_CONSTANTS)} attempts",
            last_cert,
        )
    return tuple(chosen), last_cert


@dataclass
class InjectiveExtension:
    scheme: CutProjectScheme
    certificate: TransformCertificate


def extend_injective(
    scheme: CutProjectScheme,
    diag,
    *,
    relation_bound: int = 10 ** 6,
    injectivity_bound: int = 200,
    window: Window | None = None,
    box: Box | None = None,
) -> InjectiveExtension:
    """Append a torus factor making the star map injective.

    The diagonal must pass the generic-lattice certification against the
    generator direct parts together with the annihilator projection
    generators, which must be exact (float ones raise ``ValueError``).
    Injectivity is then decided once by the exact kernel proof
    ``star_kernel_witness``; ``injectivity_bound`` is only recorded.  The
    certificate records that decision and, given a window, a full-torus
    patch-equality check.
    """
    diag = tuple(Scalar.of(c) for c in (diag if isinstance(diag, (tuple, list)) else (diag,)))
    if len(diag) != scheme.d:
        raise ValueError("diagonal arity must match the direct dimension")
    ann = annihilator_projection(scheme, scheme.lift_size + scheme.d)
    data_points = [g for g, _ in scheme.generators] + list(ann)
    rel_cert = certify_generic_diagonal(data_points, diag, relation_bound)
    if not rel_cert.passed:
        raise CertificationError(
            "diagonal fails the generic-lattice certification", rel_cert.witness
        )
    basis = tuple(
        tuple(diag[i] if i == j else Scalar(0) for j in range(scheme.d))
        for i in range(scheme.d)
    )
    torus = TorusFactor(scheme.d, basis)
    space2 = InternalSpace(scheme.space.factors + (torus,))
    gens2 = []
    for g, h in scheme.generators:
        gens2.append((g, space2.point(*h.coords, g)))
    scheme2 = CutProjectScheme(scheme.d, space2, gens2)
    kernel = scheme2.star_kernel_witness()
    if kernel is not None:
        raise InjectivityError("extended star map has a kernel vector", kernel)
    cert = TransformCertificate(
        kind="InjectiveExtension",
        input_scheme=scheme.scheme_id,
        output_scheme=scheme2.scheme_id,
        data={
            "diag": [c.to_obj() for c in diag],
            "relation": rel_cert.to_obj(),
            "injectivity_bound": injectivity_bound,
        },
    )
    cert.checks.append(CertCheck("star-injective", True, {"method": "exact-kernel"}))
    if window is not None:
        if box is None:
            box = Box.symmetric(DEFAULT_CHECK_RADIUS, scheme.d)
        ok = _full_torus_patch_check(scheme, scheme2, window, box)
        cert.checks.append(
            CertCheck(
                "patch-full-torus",
                ok,
                {"box": box.to_obj(), "window": window.to_obj()},
            )
        )
        if not ok:
            raise CertificationError("full-torus patch check failed", cert)
    return InjectiveExtension(scheme2, cert)


def iter_lattice_stars(scheme: CutProjectScheme, bound: int):
    """Yield (n, star(n)) over the coordinate cube, one group addition each."""
    space = scheme.space
    gens = [h for _, h in scheme.generators]

    def rec(level, acc, prefix):
        if level == scheme.rank:
            yield tuple(prefix), acc
            return
        cur = space.add(acc, space.scale(gens[level], -bound))
        for k in range(-bound, bound + 1):
            yield from rec(level + 1, cur, prefix + [k])
            if k < bound:
                cur = space.add(cur, gens[level])

    yield from rec(0, space.zero(), [])


def star_injectivity_exhaustive(scheme: CutProjectScheme, bound: int):
    """Pairwise-distinct canonical star images over |n_i| <= bound."""
    seen: dict[HPoint, tuple] = {}
    for n, h in iter_lattice_stars(scheme, bound):
        other = seen.get(h)
        if other is not None:
            witness = tuple(x - y for x, y in zip(n, other))
            return False, witness
        seen[h] = n
    return True, None


# ---------------------------------------------------------------------------
# Window augmentation for almost model sets


@dataclass
class WindowAugmentation:
    window: AugmentedWindow
    certificate: TransformCertificate


def almost_to_model(witness, box: Box | None = None) -> WindowAugmentation:
    """Rebuild an almost model set as a genuine projection set window.

    ``witness`` carries an open lower window U, a compact upper window W and
    a membership rule on lattice coordinates with U-points mandatory and
    W-points permitted, bracketed on its truncation cube when it was built.
    The augmented window is U plus the stars of the points the rule admits
    outside U, taken from the cube points the witness admitted.  Its
    projection is checked against the rule's own patch
    (``witness.gamma_patch``) on ``box`` (default: the largest symmetric box
    certified by the truncation, ``witness.certified_box()``).
    """
    scheme, truncation = witness.scheme, witness.truncation
    kernel = scheme.star_kernel_witness()
    if kernel is not None:
        raise InjectivityError("star map is not injective", kernel)
    stars = [h for _, h, in_lower in witness.admitted if not in_lower]
    certifier = _star_range_certifier(scheme, truncation)
    window2 = AugmentedWindow(witness.lower, stars, certifier)
    if box is None:
        box = witness.certified_box()
    gamma_patch = witness.gamma_patch(box)
    projected = scheme.project_points(box, window2)
    ok, diff = verify_equality(gamma_patch, projected)
    cert = TransformCertificate(
        kind="WindowAugmentation",
        input_scheme=scheme.scheme_id,
        output_scheme=scheme.scheme_id,
        data={"truncation": truncation, "stars": len(stars)},
    )
    cert.checks.append(
        CertCheck(
            "membership-patch",
            ok,
            {
                "box": box.to_obj(),
                "witness_point": [float(x) for x in diff] if diff else None,
            },
        )
    )
    chain_ok = eq11_chain(witness.upper, window2)
    cert.checks.append(
        CertCheck(
            "interior-closure-chain",
            chain_ok,
            {"note": "meaningful when the lower window is the upper's interior"},
        )
    )
    if not ok:
        raise CertificationError("augmented window does not reproduce the rule", cert)
    return WindowAugmentation(window2, cert)


def _star_range_certifier(scheme: CutProjectScheme, truncation: int):
    def certifier(p: HPoint) -> bool:
        n = scheme.star_preimage(p)
        if n is None:
            return True
        return all(abs(x) <= truncation for x in n)

    return certifier


def certified_box(scheme: CutProjectScheme, window: Window, truncation: int) -> Box:
    """Largest symmetric box whose enumeration stays inside the truncation cube."""
    pieces = window.enum_pieces()
    if not pieces:
        return Box.symmetric(truncation, scheme.d)

    def fits(radius: int) -> bool:
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


def reverify_certificate(
    cert: TransformCertificate,
    scheme: CutProjectScheme,
    scheme2: CutProjectScheme,
) -> list[CertCheck]:
    """Re-run the recorded checks of a translation/extension certificate.

    Checks it cannot re-run (older ``star-injective-exhaustive`` entries and
    the augmentation checks) are copied as recorded.
    """
    out = []
    for check in cert.checks:
        if check.name == "patch-translation":
            box = Box.from_obj(check.detail["box"])
            window = window_from_obj(scheme.space, check.detail["window"])
            a = tuple(Scalar.from_obj(v) for v in cert.data["a"])
            ok = _translation_patch_check(
                scheme, scheme2, a, window, box, check.detail.get("n", 1)
            )
            out.append(CertCheck(check.name, ok, check.detail))
        elif check.name == "patch-full-torus":
            box = Box.from_obj(check.detail["box"])
            window = window_from_obj(scheme.space, check.detail["window"])
            ok = _full_torus_patch_check(scheme, scheme2, window, box)
            out.append(CertCheck(check.name, ok, check.detail))
        elif check.name == "star-injective":
            kernel = scheme2.star_kernel_witness()
            out.append(CertCheck(check.name, kernel is None, {"method": "exact-kernel"}))
        elif check.name == "pair-in-lattice":
            a = tuple(Scalar.from_obj(v) for v in cert.data["a"])
            b = HPoint.from_obj(scheme2.space, cert.data["b"])
            out.append(
                CertCheck(check.name, scheme2.lattice_coords_of(a, b) is not None, check.detail)
            )
        else:
            out.append(check)
    return out
