"""Cut-and-project schemes: lattice data, star map, point enumeration.

A scheme is direct-space dimension d, an internal space H, and lattice
generator columns (g, h) indexed by free integer coordinates.  Enumeration
works on a lifted square presentation: twisted extensions are unrolled into
their base plus an explicit carry generator, so every continuous coordinate
of a lattice point is linear in the lifted integer coordinates.  The lifted
coordinates are enumerated triangularly, in the manner of Fincke-Pohst with
the box and the window slab in place of an ellipsoid: once the outer
coordinates are fixed, an enclosure of the inverse of a square sub-block
bounds the next one, so about one candidate is examined per accepted point.
Every inverse entry is enclosed by one rule (``_inverse_rows``): a signed
cofactor over the determinant, both from ``linalg.det`` on the entries read
exactly, a float entry as its binary value.
The walk itself is a kernel compiled once per plan shape (``walk``): one
nested ``for`` loop per lifted column, with each row's partial sums in local
variables and the plan's integers passed in at call time.  Compact factor
coordinates (finite residues, torus positions) never affect boundedness and
are handled by exact membership filtering.  The walk keeps integer
enclosures of every lifted row; where a window piece's rows decide
membership, a leaf is accepted or rejected on them, and only leaves whose
enclosures straddle a boundary take exact ``Scalar`` arithmetic (a filtered
predicate in the sense of Shewchuk 1997 and Bronnimann, Burnikel & Pion 2001).
Float schemes are decided the same way against the ``FLOAT_EPS`` band of
each endpoint, widened by a rigorous bound on the float rounding.  The same
enclosures of the first direct coordinate order the patch whenever they are
separated by more than ``FLOAT_EPS``; only otherwise are the points sorted
by ``Scalar`` comparison.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import NamedTuple

from . import linalg, ratmath, walk
from .internal_space import HPoint, InternalSpace, SpaceMismatchError
from .scalars import (
    FLOAT_EPS,
    ExactnessError,
    Scalar,
    _DIGITS_LADDER,
    _apply_each,
    floats,
    sum_form,
)
from .windows import Window

DEFAULT_MAX_CANDIDATES = 5_000_000
_PLAN_DIGITS = 25  # decimal scale of the enumeration's enclosures
_SCALED_EPS = math.ceil(Fraction(FLOAT_EPS) * 10 ** _PLAN_DIGITS)
_ROW_MARGIN = 10 ** (_PLAN_DIGITS - 9)  # a non-integral row's clearance, 10**-9 at scale
_SQUARE = 10 ** (2 * _PLAN_DIGITS)  # scale of a product of two enclosures
_INVERSE_DIGITS = tuple(d for d in _DIGITS_LADDER if d > _PLAN_DIGITS)


class EnumerationOverflowError(RuntimeError):
    """Candidate box larger than the configured enumeration budget."""


class SchemeError(ValueError):
    pass


class Box:
    """Closed axis-aligned box in direct space."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = tuple(Scalar.of(v) for v in lo)
        self.hi = tuple(Scalar.of(v) for v in hi)
        if len(self.lo) != len(self.hi):
            raise ValueError("box corner dimensions differ")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError("box corners out of order")

    @classmethod
    def symmetric(cls, radius, dim=1):
        r = Scalar.of(radius)
        return cls([-r] * dim, [r] * dim)

    @classmethod
    def interval(cls, lo, hi):
        return cls([lo], [hi])

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, point) -> bool:
        return all(a <= x <= b for a, x, b in zip(self.lo, point, self.hi))

    def translate(self, vec) -> "Box":
        return Box(
            [a + v for a, v in zip(self.lo, vec)], [b + v for b, v in zip(self.hi, vec)]
        )

    def __eq__(self, other):
        return isinstance(other, Box) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Box({self.lo!r}, {self.hi!r})"

    def to_obj(self):
        return {"lo": [v.to_obj() for v in self.lo], "hi": [v.to_obj() for v in self.hi]}

    @classmethod
    def from_obj(cls, obj):
        return cls(
            [Scalar.from_obj(v) for v in obj["lo"]],
            [Scalar.from_obj(v) for v in obj["hi"]],
        )


@dataclass(frozen=True)
class AveragingSequence:
    """The centred cube sequence A_n = [-n, n]^d."""

    dim: int

    def box(self, n: int) -> Box:
        return Box.symmetric(n, self.dim)


class Patch:
    """Finite sorted point set in direct space with provenance.

    The points are sorted, distinct and inside the box.  ``__init__`` makes
    them so for data from outside; a patch derived inside the library keeps
    its parent's order (``_kept``).  An ordered patch of ``_of_leaves``
    builds its points from ``coords`` by its scheme's direct map on first
    access; until then its float view comes from ``coords``, and on an
    exact scheme it also holds the walk's enclosures of the first
    coordinate (``_enclosures``), which round that column where they decide
    it.  The enclosures are dropped once the points are built."""

    __slots__ = ("_points", "box", "scheme_id", "coords", "_scheme", "_enclosures")

    def __init__(self, points, box: Box, scheme_id: str = "", coords=None):
        pairs = list(zip(points, coords)) if coords is not None else [(p, None) for p in points]
        checked = []
        for p, c in pairs:
            p = tuple(Scalar.of(v) for v in p)
            if not box.contains(p):
                raise ValueError(f"patch point {p!r} outside its box")
            checked.append((p, tuple(int(x) for x in c) if c is not None else None))
        pts, crd = _sorted_distinct(checked)
        self._points, self.box, self.scheme_id, self._scheme = pts, box, scheme_id, None
        self.coords = crd if coords is not None else None
        self._enclosures = None

    @classmethod
    def _kept(cls, points, box: Box, scheme_id: str, coords, scheme=None) -> "Patch":
        """Patch of ``points`` already sorted, distinct and inside ``box``, unchecked.

        With ``points`` None, the points are ``scheme``'s direct images of
        ``coords``, built on first access.
        """
        patch = cls.__new__(cls)
        patch._points, patch.box, patch.scheme_id = points, box, scheme_id
        patch.coords, patch._scheme, patch._enclosures = coords, scheme, None
        return patch

    @classmethod
    def _of_leaves(cls, coords, box: Box, scheme, ordered: bool, enclosures=None) -> "Patch":
        """Patch of ``scheme``'s lattice points ``coords``, known to lie in ``box``.

        With ``ordered``, ``coords`` come in the order of their distinct direct
        images (``_separated``), and the points are built on first access;
        ``enclosures``, if given, are the walk's scaled enclosures of their
        first coordinates, kept for the float view until the points are
        built.  Else the points are built, sorted and deduplicated as in
        ``__init__``.
        """
        if ordered:
            patch = cls._kept(None, box, scheme.scheme_id, tuple(coords), scheme)
            patch._enclosures = enclosures
            return patch
        pts, crd = _sorted_distinct(list(zip(_form_points(scheme._direct_rows, coords), coords)))
        return cls._kept(pts, box, scheme.scheme_id, crd)

    @property
    def points(self) -> tuple:
        if self._points is None:
            self._points = _form_points(self._scheme._direct_rows, self.coords)
            self._enclosures = None
        return self._points

    def __len__(self):
        return len(self.coords if self._points is None else self._points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, Patch)
            and self.points == other.points
            and self.box == other.box
        )

    def __hash__(self):
        return hash((self.points, self.box))

    def point_set(self) -> frozenset:
        return frozenset(self.points)

    def translate(self, vec) -> "Patch":
        """The patch moved by ``vec``.  Exact addition of one vector keeps the
        strict order and the closed box's membership; a float point takes the
        checked path, since rounding keeps neither."""
        vec = tuple(Scalar.of(v) for v in vec)
        points = tuple(tuple(x + v for x, v in zip(p, vec)) for p in self.points)
        box = self.box.translate(vec)
        if all(v.is_exact for v in vec) and all(x.is_exact for p in points for x in p):
            return Patch._kept(points, box, self.scheme_id, self.coords)
        return Patch(points, box, self.scheme_id, self.coords)

    def restrict(self, box: Box) -> "Patch":
        """The points inside ``box``, a subsequence in the patch's order.

        Exact points in an exact box are counted by bisection: the patch is
        sorted, so its first coordinate is nondecreasing, and only the slice
        between the box's first ends is filtered on the other coordinates.
        A lazy patch reads that coordinate by its scheme's first direct form,
        building O(log N) values, and stays lazy.  A float value anywhere
        takes the ``FLOAT_EPS``-tolerant filter of ``Box.contains`` on every
        point.
        """
        lazy = self._points is None
        # each coordinate of an item of ``seq``: the scheme's exact direct forms
        # over a lazy patch's coordinates (None for float ones), else the point's
        seq, keys = (
            (self.coords, self._scheme._leaf_data.forms) if lazy
            else (self._points, [itemgetter(k) for k in range(box.dim)])
        )
        if (
            box.dim
            and keys is not None
            and all(v.is_exact for v in (*box.lo, *box.hi))
            and (lazy or all(v.is_exact for p in seq for v in p))
        ):
            lo = bisect_left(seq, box.lo[0], key=keys[0])
            keep = range(lo, bisect_right(seq, box.hi[0], lo, key=keys[0]))
            if box.dim > 1:
                rest = Box(box.lo[1:], box.hi[1:])
                keep = [i for i in keep if rest.contains([f(seq[i]) for f in keys[1:]])]
        else:
            keep = [i for i, p in enumerate(self.points) if box.contains(p)]
            lazy = False
        coords = tuple(self.coords[i] for i in keep) if self.coords is not None else None
        if lazy:
            return Patch._kept(None, box, self.scheme_id, coords, self._scheme)
        return Patch._kept(tuple(self.points[i] for i in keep), box, self.scheme_id, coords)

    def to_obj(self):
        out = {
            "box": self.box.to_obj(),
            "scheme_id": self.scheme_id,
            "points": [[v.to_obj() for v in p] for p in self.points],
        }
        if self.coords is not None:
            out["coords"] = [list(c) for c in self.coords]
        return out

    @classmethod
    def from_obj(cls, obj):
        return cls(
            [[Scalar.from_obj(v) for v in p] for p in obj["points"]],
            Box.from_obj(obj["box"]),
            obj.get("scheme_id", ""),
            obj.get("coords"),
        )

    def float_points(self) -> list[tuple[float, ...]]:
        """Each point's ``tuple(x.to_float() for x in p)``, in patch order.

        The floats are read one coordinate at a time (``_float_columns``): a
        lazy patch reads them from its coordinates by the ``floats`` of its
        scheme's direct rows, without keeping a point.  Its first
        coordinate's float comes from the walk's enclosure of it when that
        enclosure decides it, and from the 18-digit midpoint otherwise
        (``LinearForm.floats``), with the same bits.  Any other patch takes
        ``scalars.floats`` of its points.  Nothing is cached, so each call
        reads the patch as it is.
        """
        # a d = 0 patch still has one (empty) tuple per point
        return list(zip(*self._float_columns())) if self.box.dim else [()] * len(self)

    def _float_columns(self) -> list[list[float]]:
        """The float view of ``float_points``, one list per coordinate."""
        if self._points is None:
            return _form_floats(self._scheme._direct_rows, self.coords, self._enclosures)
        return [floats([p[k] for p in self._points]) for k in range(self.box.dim)]

    def to_csv_text(self) -> str:
        dim = self.box.dim
        rank = len(self.coords[0]) if self.coords else 0
        header = [f"x{i + 1}" for i in range(dim)] + [f"n{j + 1}" for j in range(rank)]
        # one column at a time, over the patch's one float view: each
        # float's repr, each lattice coordinate's str
        columns = [map(repr, col) for col in self._float_columns()]
        columns += [map(str, col) for col in zip(*self.coords)] if rank else []
        rows = map(",".join, zip(*columns)) if columns else [""] * len(self)
        return "\n".join([",".join(header), *rows]) + "\n"


@dataclass
class Commensurability:
    """Outcome of testing whether multiples of a direct vector hit the lattice."""

    status: str  # "commensurate" | "incommensurate" | "unknown"
    m: int | None = None  # the minimal multiple, also when it exceeds the bound
    n: tuple[int, ...] | None = None
    heuristic: bool = False


class CutProjectScheme:
    def __init__(self, d: int, space: InternalSpace, generators, *, require_injective=True):
        self.d = d
        self.space = space
        gens = []
        for g, h in generators:
            gvec = tuple(Scalar.of(v) for v in (g if isinstance(g, (tuple, list)) else (g,)))
            if len(gvec) != d:
                raise SchemeError("generator direct part has wrong dimension")
            if h.space != space:
                raise SpaceMismatchError("generator internal part in a different space")
            gens.append((gvec, h))
        self.generators = tuple(gens)
        self.rank = len(gens)
        expected = d + space.real_dim + space.integer_rank
        if self.rank != expected:
            raise SchemeError(
                f"rank {self.rank} does not match d + real + integer = {expected}"
            )
        self._build_lift()
        self.direct_injective = self._check_direct_injective(require_injective)

    # -- lifted presentation -------------------------------------------------

    def _build_lift(self):
        origin = tuple(Scalar(0) for _ in range(self.d))
        cols = [self._row_values(g, h) for g, h in self.generators]
        cols += [self._row_values(origin, rel) for rel in self.space.lift_relations()]
        size = len(cols)
        if size and any(len(c) != size for c in cols):
            raise SchemeError("lifted presentation is not square")
        self.lift_size = size
        self.matrix = [[cols[j][i] for j in range(size)] for i in range(size)]
        if size:
            self._det = linalg.det(self.matrix)
            if self._det.is_zero():
                raise SchemeError("lattice embedding is singular")
        else:
            self._det = Scalar(1)

    def _row_values(self, gvec, h: HPoint) -> list[Scalar]:
        """Stack the direct coordinates of (g, h) on its lifted internal rows."""
        return list(gvec) + self.space.lift_values(h)

    def _check_direct_injective(self, required: bool) -> bool:
        """Exact check that no nonzero integer combination projects to 0 in G."""
        if not all(v.is_exact for g, _ in self.generators for v in g):
            return True  # float schemes rely on the heuristic mode downstream
        kernel = linalg.integer_kernel(
            [[g[i] for g, _ in self.generators] for i in range(self.d)]
        )
        if kernel and required:
            raise SchemeError(f"direct projection is not injective: kernel vector {kernel[0]}")
        return not kernel

    # -- identity -------------------------------------------------------------

    @cached_property
    def scheme_id(self) -> str:
        blob = json.dumps(self.to_obj(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __eq__(self, other):
        return (
            isinstance(other, CutProjectScheme)
            and self.d == other.d
            and self.space == other.space
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.d, self.space, self.generators))

    # -- basic maps -------------------------------------------------------------

    def direct(self, n) -> tuple[Scalar, ...]:
        """``sum(n[j] * g_j)``, one ``_direct_rows`` form per coordinate."""
        return _apply_each(self._direct_rows, n)

    @cached_property
    def _direct_rows(self) -> tuple:
        """Each direct coordinate's form of the lattice coordinates, as
        ``scalars.sum_form`` chooses it for the row's generator entries."""
        return tuple(sum_form([g[i] for g, _ in self.generators]) for i in range(self.d))

    def star(self, n) -> HPoint:
        """Internal coordinate of the lattice point with coordinates n, by
        ``_star_maps``."""
        if len(n) != self.rank:
            raise SchemeError("lattice coordinate arity mismatch")
        return self._star(n)

    def _star(self, n) -> HPoint:
        return HPoint(self.space, _apply_each(self._star_maps, n))

    @cached_property
    def _star_maps(self) -> tuple:
        """One ``Factor.star_map`` per factor over the generators' coordinates."""
        coords = [h.coords for _, h in self.generators]
        return tuple(f.star_map([c[i] for c in coords]) for i, f in enumerate(self.space.factors))

    def point_of(self, n) -> tuple[tuple[Scalar, ...], HPoint]:
        return self.direct(n), self.star(n)

    # -- density ------------------------------------------------------------------

    def covolume(self) -> Scalar:
        return math.prod((f.covolume_factor() for f in self.space.factors), start=abs(self._det))

    def lattice_density(self) -> Scalar:
        cov = self.covolume()
        try:
            return cov.inverse()
        except (ExactnessError, ZeroDivisionError):
            return Scalar.from_float(1.0 / cov.to_float())

    # -- enumeration ---------------------------------------------------------------

    def project_points(
        self, box: Box, window: Window, *, max_candidates: int = DEFAULT_MAX_CANDIDATES
    ) -> Patch:
        """All projected lattice points inside ``box`` with star inside ``window``.

        Window pieces are enumerated one after another and merged in piece
        order, so the result is deterministic: the first piece's leaves are
        taken as they are, and a later piece adds only leaves not found
        before.  The points are put in order
        by their first coordinates' enclosures; when every neighbouring pair
        is separated (``_separated``), that is the patch's order, and the
        patch keeps the coordinates, and an exact scheme's enclosures for its
        float view, and builds its points on first access.  Otherwise the
        points are built and sorted and deduplicated by ``Scalar``
        comparison.  A ``max_candidates`` below 1
        is refused with ``ValueError``.
        """
        if max_candidates < 1:
            raise ValueError(f"max_candidates must be at least 1, got {max_candidates}")
        if box.dim != self.d:
            raise SchemeError("box dimension mismatch")
        if window.space != self.space:
            raise SpaceMismatchError("window lives in a different internal space")
        found: dict[tuple[int, ...], tuple[int, int]] | None = None
        for rows, decides in window.enum_pieces():
            leaves = self._enumerate_piece(box, window, rows, decides, max_candidates)
            if found is None:  # the first piece's dict, then later pieces' new leaves
                found = leaves
            else:
                for n, leaf in leaves.items():
                    found.setdefault(n, leaf)
        if found is None:
            found = {}
        forms, names, sizes = self._leaf_data
        if self.d and len(names) <= 1 and (forms is not None or sizes is not None):
            # the whole enclosure as key: a tie of lower ends is not separated
            order = sorted(found, key=found.__getitem__)
            leaves = [found[n] for n in order]
            if _separated(leaves):
                return Patch._of_leaves(order, box, self, True, leaves if forms is not None else None)
        return Patch._of_leaves(found, box, self, False)

    def _enumerate_piece(self, box, window, rows, decides, max_candidates):
        """Triangular walk over the lifted coordinates of one window piece.

        The walk is this scheme's compiled kernel (``_walk_kernel``).  The
        per-call set-up is integer arithmetic on one 25-digit enclosure
        of each row endpoint (``_piece_rhs``), from which come the candidate
        box (``_candidate_ranges``), the walk's ``targets``, the inner and
        outer bounds (``_inner_bounds``) and a float scheme's rounding bounds
        (``_float_errors``); no ``Fraction`` is built.  The budget bounds the
        volume of the candidate box, which the walk never leaves.  Every
        level only drops constraints, so the walk is exhaustive, and a leaf
        of the window that this piece rejects is found by the walk of a
        piece that holds it.  Each leaf comes with integer enclosures of all
        its lifted rows at scale 10**_PLAN_DIGITS.  When the piece's exact
        ``rows`` decide membership in it (``decides``, see
        ``_inner_bounds``), a leaf whose rows all lie inside their inner
        bounds is accepted on the enclosures alone, and a leaf with a row
        outside its outer bound is rejected.  Neither builds a point.  Every other leaf takes the exact path: ``direct`` and the
        star sum, taken only for leaves inside the box, and the exact
        ``Box.contains`` and ``Window.contains`` decide.

        Returns ``{n: (lo, hi)}`` with ``[lo, hi]`` a scaled enclosure of
        the first direct coordinate as ``direct`` computes it: the row's
        enclosure, widened by the float rounding bound for a float scheme.
        """
        rhs = self._piece_rhs(box, rows)
        ranges = self._candidate_ranges(rhs)
        count = 1
        for lo, hi in ranges:
            count *= max(0, hi - lo + 1)
            if count > max_candidates:
                raise EnumerationOverflowError(
                    f"candidate box of {count}+ exceeds budget {max_candidates}"
                )
        found: dict[tuple[int, ...], tuple] = {}
        if count == 0:
            return found
        targets = _walk_targets(rhs)
        sizes = self._leaf_data.sizes
        errors = None if sizes is None else self._float_errors(sizes, ranges)
        bounds = self._inner_bounds(box, rows, rhs, targets, errors) if decides else None
        kernel, plan = self._walk_kernel(bounds is not None)
        lead = errors[0] if errors else 0
        kernel(plan, ranges, targets, bounds, lead, found,
               box.contains, self.direct, window.contains, self._star)
        return found

    def _walk_kernel(self, bounded: bool):
        """The compiled walk of this scheme's plan shape, deciding leaves on
        enclosures when ``bounded``, and the plan's flat integers
        (``walk.walk_kernel``, ``walk.plan_arguments``).  Each pair is kept
        on the scheme after its first call, so a later call hashes no plan
        shape; ``walk.walk_kernel``'s cache still shares one code object
        among the schemes of a shape."""
        kernels = self._walk_kernels
        out = kernels.get(bounded)
        if out is None:
            levels, flat = walk.plan_arguments(self._enumeration_plan)
            kernel = walk.walk_kernel(levels, self.lift_size, self.rank, bounded, _SQUARE)
            out = kernels[bounded] = kernel, flat
        return out

    @cached_property
    def _walk_kernels(self) -> dict:
        return {}

    def _inner_bounds(self, box, rows, rhs, targets, errors):
        """Scaled inner and outer bounds of every lifted row, or None.

        ``rows`` are a window piece's rows, which decide membership in it,
        and ``rhs`` is ``_piece_rhs`` of the box and those rows.  A row
        inside its inner bound is inside the box or the window piece, a row
        outside its outer bound is outside.  For an exact scheme the inner
        bounds are the endpoints' 25-digit enclosures, as ``_piece_rhs``
        gives them, rounded inwards and cleared by ``_ROW_MARGIN``, except on
        integral rows, whose exact integer values meet closed integer
        bounds, and the outer bounds are the walk's ``targets``.  A float
        scheme (``errors`` given, see ``_float_errors``) compares within
        ``FLOAT_EPS``: a row is inside ``[lo + FLOAT_EPS + delta, hi -
        FLOAT_EPS - delta]`` and outside ``[lo - FLOAT_EPS - delta, hi +
        FLOAT_EPS + delta]``, with ``lo`` and ``hi`` the endpoints'
        ``to_float()``, rounded outwards or inwards at scale
        10**_PLAN_DIGITS from their integer ratios, and ``delta`` the row's
        rounding bound plus four roundings of the endpoints' magnitude
        (``Scalar.magnitude_ratio``), which also covers an exact comparison
        of a mixed scheme's exact values.  None when a float scheme has an
        integral row, or when an exact comparison could answer differently
        from the enclosures: float endpoints of an exact scheme, or two
        named constants, whose comparison raises ``ExactnessError``.
        """
        forms, names, _ = self._leaf_data
        if errors is None:
            if forms is None:
                return None
            # the generators involve at most one named constant; a float
            # endpoint or an endpoint with another constant gives None
            name = next(iter(names), None)
            for lo, hi, *_ in (*zip(box.lo, box.hi), *rows):
                for v in (lo, hi):
                    if v._num is None:
                        return None
                    if v._sym is not None:
                        if name is None:
                            name = v._sym
                        elif v._sym != name:
                            return None
            # every endpoint is exact, so ``rhs`` is at scale 10**_PLAN_DIGITS
            _, bounds = rhs
            return (
                [b[1] for b in bounds],
                [b[2] for b in bounds],
                [lo for lo, _ in targets],
                [hi for _, hi in targets],
            )
        rows = [(lo, hi, False) for lo, hi in zip(box.lo, box.hi)] + rows
        ends = [v for lo, hi, _ in rows for v in (lo, hi)]
        if len(names | {v.constant for v in ends} - {None}) > 1:
            return None
        if any(integral for _, _, integral in rows):
            return None
        scale = 10 ** _PLAN_DIGITS
        in_lo, in_hi, out_lo, out_hi = [], [], [], []
        for (lo, hi, _), error in zip(rows, errors):
            band = _SCALED_EPS + error + max(
                -(-4 * scale * num // (den << 53))
                for num, den in (lo.magnitude_ratio(), hi.magnitude_ratio())
            )
            lo_num, lo_den = lo.to_float().as_integer_ratio()
            hi_num, hi_den = hi.to_float().as_integer_ratio()
            in_lo.append(-(-lo_num * scale // lo_den) + band)
            in_hi.append(hi_num * scale // hi_den - band)
            out_lo.append(lo_num * scale // lo_den - band)
            out_hi.append(-(-hi_num * scale // hi_den) + band)
        return in_lo, in_hi, out_lo, out_hi

    @cached_property
    def _leaf_data(self) -> _LeafData:
        """What a leaf may be decided and ordered on.

        ``forms`` are the ``_direct_rows``, each a ``LinearForm``, when the
        generators are exact and involve at most one named constant, else
        None; ``names`` are the named constants among the generators.
        ``sizes`` is set for a float scheme, one with a float generator
        value, whose internal factors are all real: per row of the lifted
        matrix, the ``Scalar.magnitude_ratio`` of every entry as numerators
        over the row's least common denominator, ``(nums, den)``.  Else None.
        """
        values = [v for g, h in self.generators for v in (*g, *self.space.kernel_values(h))]
        names = {v.constant for v in values} - {None}
        forms = sizes = None
        if all(v.is_exact for v in values):
            if len(names) <= 1:
                forms = self._direct_rows
        elif all(f.kind == "real" for f in self.space.factors):
            sizes = tuple(
                _over_common_denominator([v.magnitude_ratio() for v in row])
                for row in self.matrix
            )
        return _LeafData(forms, names, sizes)

    def _float_errors(self, sizes, ranges) -> list[int]:
        """A scaled bound, per lifted row, on a float scheme's rounding.

        A row is computed in floats as ``direct`` and ``star`` compute it:
        each nonzero term is a product, rounded when the entry is a float,
        or else rounded to a float when it meets a float sum; the exact
        partial sum is rounded once, where the first float joins it; each
        addition rounds; the result is then subtracted from an endpoint or
        from another point's.  That is at most ``2 * size + 3`` roundings of
        relative size ``2**-53``, each of a value below the sum of the
        terms' magnitudes, the entries' ``sizes`` times the coordinates'
        reach over the candidate ``ranges``.  Each bound is twice that
        first-order bound, rounded up by one integer division over the row's
        common denominator, plus 10**-12 for the 18-digit enclosures exact
        values are rounded from.
        """
        reach = [max(-lo, hi) for lo, hi in ranges]
        rounds = 2 * (2 * len(reach) + 3)
        scale = 10 ** _PLAN_DIGITS
        return [
            -(-rounds * scale * sum(map(mul, reach, nums)) // (den << 53))
            + 10 ** (_PLAN_DIGITS - 12)
            for nums, den in sizes
        ]

    def _piece_rhs(self, box: Box, rows):
        """Integer bounds on every lifted row, from one enclosure per endpoint.

        The rows are the box, then a window piece's exact ``(lo, hi,
        integral)`` rows.  Returns ``(shift, bounds)`` with one ``(out_lo,
        in_lo, in_hi, out_hi)`` per row at scale ``10**_PLAN_DIGITS <<
        shift``.  An exact endpoint is enclosed once, at 10**-_PLAN_DIGITS
        with each term rounded on its own, as ``bounds(_PLAN_DIGITS)``
        encloses it; a float endpoint is its exact dyadic value, and
        ``shift`` is the least that puts every float on the scale (0 when
        all endpoints are exact, which one pass over the rows reads without
        a scan for floats).  ``[out_lo, out_hi]`` encloses the row's
        [lo, hi] and clears it by ``_ROW_MARGIN``, and ``[in_lo, in_hi]``
        lies inside [lo, hi] by the same margin; integral rows, whose
        endpoints are integers, are exact on the scale, with no margin.
        """
        rows = [(lo, hi, False) for lo, hi in zip(box.lo, box.hi)] + rows
        bounds = []
        for lo, hi, integral in rows:
            if lo._num is None or hi._num is None:
                break
            lo_lo, lo_hi = lo._bounds_per_term(_PLAN_DIGITS)
            hi_lo, hi_hi = hi._bounds_per_term(_PLAN_DIGITS)
            pad = 0 if integral else _ROW_MARGIN
            bounds.append((lo_lo - pad, lo_hi + pad, hi_lo - pad, hi_hi + pad))
        else:
            return 0, bounds
        dyadic = [
            v.to_float().as_integer_ratio()[1].bit_length() - 1 - _PLAN_DIGITS
            for lo, hi, _ in rows
            for v in (lo, hi)
            if not v.is_exact
        ]
        shift = max([0] + dyadic)
        margin = _ROW_MARGIN << shift
        bounds = []
        for lo, hi, integral in rows:
            lo_lo, lo_hi = _end_enclosure(lo, shift)
            hi_lo, hi_hi = _end_enclosure(hi, shift)
            pad = 0 if integral else margin
            bounds.append((lo_lo - pad, lo_hi + pad, hi_lo - pad, hi_hi + pad))
        return shift, bounds

    @cached_property
    def _inverse_enclosure(self):
        """Every row of ``_inverse_rows`` of the lifted matrix: integer
        ``(lo, hi)`` enclosures of the inverse coordinate matrix at scale
        10**_PLAN_DIGITS."""
        return _inverse_rows(self.matrix, range(self.lift_size))

    @cached_property
    def _enumeration_plan(self):
        """Per-level data of the triangular walk.

        Level k fixes lifted column k.  Its range comes from row 0 of the
        inverse enclosure (``_inverse_rows``) of a nonsingular square
        sub-block over the still-free columns, with internal (window) rows
        preferred over direct (box) rows because windows are narrow; the
        outermost level uses the full inverse through ``_candidate_ranges``
        instead.  Each row is also intersected, at the
        level of its last nonzero column, as soon as the fixed coordinates
        determine it.  Entries are integer enclosures at scale
        10**_PLAN_DIGITS: one ``(inverse, checks, updates)`` per column, with
        ``inverse`` and ``checks`` as ``(row, lo, hi)`` triples and
        ``updates`` the column's nonzero entries for the row partial sums.
        """
        size = self.lift_size
        enc = [[_scaled_enclosure(v, _PLAN_DIGITS) for v in row] for row in self.matrix]
        preferred = list(range(self.d, size)) + list(range(self.d))
        plan = []
        for col in range(size):
            free = range(col, size)
            checks = tuple(
                (i, *enc[i][col])
                for i in range(size)
                if (enc[i][col][0] > 0 or enc[i][col][1] < 0)
                and all(enc[i][j] == (0, 0) for j in free[1:])
            )
            inverse = ()
            if col > 0 and not (len(free) == 1 and checks):
                blocks = (
                    (rows, [[self.matrix[i][j] for j in free] for i in rows])
                    for rows in itertools.combinations(preferred, len(free))
                )
                rows, sub = next((r, b) for r, b in blocks if not linalg.det(b).is_zero())
                (first,) = _inverse_rows(sub, (0,))
                inverse = tuple((i, lo, hi) for i, (lo, hi) in zip(rows, first) if lo or hi)
            updates = tuple(
                (i, *enc[i][col]) for i in range(size) if enc[i][col] != (0, 0)
            )
            plan.append((inverse, checks, updates))
        return plan

    def _candidate_ranges(self, rhs) -> list[tuple[int, int]]:
        """The outermost candidate box, one integer range per lifted column.

        Each range is the least and greatest value of a row of the inverse
        enclosure over the ``[out_lo, out_hi]`` box of ``rhs``
        (``_piece_rhs``), rounded inwards to integers.  Each term's least
        and greatest product are picked by the signs of the enclosure ends,
        two products per term; an entry whose enclosure straddles 0 takes
        the least and greatest of all four.  Products and sums are exact
        integers at the inverse's scale times the rhs scale, and one floor
        or ceil division per row rounds them, so the ranges are those of
        the same computation in rationals.
        """
        if self.lift_size == 0:
            return []
        shift, bounds = rhs
        total = _SQUARE << shift
        out = []
        for row in self._inverse_enclosure:
            lo = hi = 0
            for (alo, ahi), (ylo, _, _, yhi) in zip(row, bounds):
                if alo >= 0:
                    lo += (alo if ylo >= 0 else ahi) * ylo
                    hi += (ahi if yhi >= 0 else alo) * yhi
                elif ahi <= 0:
                    lo += (alo if yhi >= 0 else ahi) * yhi
                    hi += (alo if ylo < 0 else ahi) * ylo
                else:
                    products = (alo * ylo, alo * yhi, ahi * ylo, ahi * yhi)
                    lo += min(products)
                    hi += max(products)
            out.append((-(-lo // total), hi // total))
        return out

    # -- exact lattice membership ----------------------------------------------------

    def lattice_coords_of(self, gvec, h: HPoint):
        """Integer coordinates reproducing (g, h) exactly, or None.

        An exact solution of the nonsingular lifted system has ``direct(n)
        == gvec`` by its direct rows; only the star is checked, since compact
        factor coordinates are not rows of that system.
        """
        gvec = tuple(Scalar.of(v) for v in gvec)
        target = self._row_values(gvec, h)
        if not all(v.is_exact for v in target) or not all(
            v.is_exact for row in self.matrix for v in row
        ):
            return self._lattice_coords_float(gvec, h, target)
        (sol,) = linalg.rational_solve(self.matrix, [target])
        if sol is None or any(x.denominator != 1 for x in sol):
            return None
        n = tuple(int(x) for x in sol[: self.rank])
        return n if self.star(n) == h else None

    def _lattice_coords_float(self, gvec, h, target):
        mat = [[Scalar.from_float(float(v)) for v in row] for row in self.matrix]
        rhs = [Scalar.from_float(float(v)) for v in target]
        try:
            (sol,) = linalg.solve_exact(mat, [rhs])
        except ZeroDivisionError:
            return None
        n = tuple(round(float(x)) for x in sol[: self.rank])
        direct, star = self.point_of(n)
        if all(abs(float(a) - float(b)) < 1e-6 for a, b in zip(direct, gvec)) and star == h:
            return n
        return None

    # -- commensurability ---------------------------------------------------------------

    def is_commensurate(self, a, bound: int) -> Commensurability:
        """Minimal m <= bound with m*a in the projected lattice."""
        a = tuple(Scalar.of(v) for v in (a if isinstance(a, (tuple, list)) else (a,)))
        if len(a) != self.d:
            raise SchemeError("direct vector dimension mismatch")
        if all(v.is_zero() for v in a):
            raise SchemeError("commensurability of the zero vector is undefined")
        exact = all(v.is_exact for v in a) and all(
            v.is_exact for g, _ in self.generators for v in g
        )
        if exact:
            rows = [[g[i] for g, _ in self.generators] for i in range(self.d)]
            (sol,) = linalg.rational_solve(rows, [list(a)])
            if sol is None:
                return Commensurability("incommensurate")
            m = math.lcm(*(x.denominator for x in sol))
            if m > bound:
                return Commensurability("incommensurate", m=m)
            n = tuple(int(x * m) for x in sol)
            return Commensurability("commensurate", m=m, n=n)
        return self._commensurate_float(a, bound)

    def _commensurate_float(self, a, bound: int) -> Commensurability:
        scale = 10 ** 10
        r = self.rank
        rows = []
        for j in range(r + 1):
            row = [1 if k == j else 0 for k in range(r + 1)]
            for i in range(self.d):
                v = float(a[i]) if j == 0 else -float(self.generators[j - 1][0][i])
                row.append(round(v * scale))
            rows.append(row)
        reduced = ratmath.lll_reduce(rows)
        for vec in reduced:
            m = vec[0]
            if m == 0 or abs(m) > bound:
                continue
            n = vec[1 : r + 1]
            resid = [
                m * float(a[i]) - sum(n[j] * float(self.generators[j][0][i]) for j in range(r))
                for i in range(self.d)
            ]
            if max(abs(x) for x in resid) < 1e-6:
                if m < 0:
                    m, n = -m, [-x for x in n]
                return Commensurability("commensurate", m=m, n=tuple(n), heuristic=True)
        return Commensurability("unknown", heuristic=True)

    # -- the star map's exact system ----------------------------------------------------

    def _star_system(self, p: HPoint):
        """Exact Scalar system ``(rows, rhs)`` equivalent to ``star(n) = p``.

        Its unknowns are the generator coordinates n, then one auxiliary
        unknown per congruence (cyclic modulus, torus lattice vector, twist
        carry, also inside a twisted base); ``linalg`` solves it over the
        rationals.
        """
        space = self.space
        cols = [space.kernel_values(h) for _, h in self.generators]
        cols += [space.kernel_values(rel) for rel in space.kernel_relations()]
        target = space.kernel_values(p)
        if not all(v.is_exact for col in cols for v in col) or not all(
            v.is_exact for v in target
        ):
            raise SchemeError("exact star-map questions need exact generators")
        return [list(row) for row in zip(*cols)], target

    def star_kernel_witness(self):
        """Exact search for nonzero n with star(n) = 0; None means injective.

        Inspects the rational kernel of the star system over all of Z^r,
        once per scheme (``_star_witness``).
        """
        return self._star_witness

    @cached_property
    def _star_witness(self):
        rows, _ = self._star_system(self.space.zero())
        kernel = (tuple(v[: self.rank]) for v in linalg.integer_kernel(rows))
        return next((n for n in kernel if any(n) and self.star(n) == self.space.zero()), None)

    def star_preimage(self, p: HPoint):
        """The lattice coordinates n with star(n) = p, or None.

        Raises ``SchemeError`` when the star map is not injective, since a
        preimage is then not unique; otherwise the generator part of one
        rational solution is the only candidate.
        """
        if self.star_kernel_witness() is not None:
            raise SchemeError("star map is not injective: preimages are not unique")
        rows, target = self._star_system(p)
        (sol,) = linalg.rational_solve(rows, [target])
        if sol is None or any(x.denominator != 1 for x in sol[: self.rank]):
            return None
        n = tuple(int(x) for x in sol[: self.rank])
        return n if self.star(n) == p else None

    # -- serialization ------------------------------------------------------------------------

    def to_obj(self):
        return {
            "d": self.d,
            "space": self.space.to_obj(),
            "generators": [
                {"g": [v.to_obj() for v in g], "h": h.to_obj()}
                for g, h in self.generators
            ],
        }

    @classmethod
    def from_obj(cls, obj) -> "CutProjectScheme":
        space = InternalSpace.from_obj(obj["space"])
        gens = []
        for go in obj["generators"]:
            g = [Scalar.from_obj(v) for v in go["g"]]
            h = HPoint.from_obj(space, go["h"])
            gens.append((g, h))
        return cls(obj["d"], space, gens)


# ---------------------------------------------------------------------------
# helpers


class _LeafData(NamedTuple):  # CutProjectScheme._leaf_data
    forms: tuple | None
    names: set
    sizes: tuple | None


def _sorted_distinct(pairs) -> tuple[tuple, tuple]:
    """The points of ``(point, coords)`` pairs sorted and deduplicated by
    ``Scalar`` comparison, and the coordinates of the points kept."""
    pairs.sort(key=lambda pc: pc[0])
    pts = []
    crd = []
    for p, c in pairs:
        if pts and pts[-1] == p:
            continue
        pts.append(p)
        crd.append(c)
    return tuple(pts), tuple(crd)


def _separated(leaves) -> bool:
    """True when each leaf's scaled enclosure ``(lo, hi)`` ends more than
    ``FLOAT_EPS`` below the next one's start.

    The leaves are then in increasing order, and pairwise distinct, under
    exact and under ``FLOAT_EPS`` comparison alike.
    """
    return all(b[0] - a[1] > _SCALED_EPS for a, b in zip(leaves, leaves[1:]))


def _form_points(forms, coords) -> tuple:
    columns = [[form(n) for n in coords] for form in forms]
    return tuple(zip(*columns)) if columns else ((),) * len(coords)


def _form_floats(forms, coords, enclosures=None) -> list[list[float]]:
    """Each form's floats over ``coords``, one list per form.  With
    ``enclosures``, the walk's enclosures of the first form's values at
    scale 10**_PLAN_DIGITS, that column is rounded from them where they
    decide it (``LinearForm.floats``); the other columns take the forms'
    ``floats`` alone."""
    if enclosures is None:
        return [form.floats(coords) for form in forms]
    first = forms[0].floats(coords, enclosures, _PLAN_DIGITS)
    return [first] + [form.floats(coords) for form in forms[1:]]


def _inverse_rows(matrix, rows) -> list[list[tuple[int, int]]]:
    """Integer enclosures at scale 10**_PLAN_DIGITS of the given ``rows`` of
    a nonsingular square matrix's inverse.

    Every entry is read exactly, a float entry as its binary value.  Entry
    (i, j) of the inverse is the signed cofactor of entry (j, i) over the
    determinant, both from ``linalg.det``.  Both are enclosed at the first
    rung of ``Scalar``'s digit ladder finer than 10**-_PLAN_DIGITS at which
    the determinant's enclosure excludes 0, and the quotient of the
    enclosures is rounded outwards.  One formula thus serves algebraic,
    transcendental and float entries.
    """
    exact = [[v if v.is_exact else Scalar(Fraction(v.to_float())) for v in row] for row in matrix]
    det = linalg.det(exact)
    for digits in _INVERSE_DIGITS:
        dlo, dhi = det._bounds_per_term(digits)
        if dlo > 0 or dhi < 0:
            break
    else:
        raise ExactnessError(f"determinant {det!r} not separated from 0")
    scale = 10 ** _PLAN_DIGITS
    out = []
    for i in rows:
        row = []
        for j in range(len(exact)):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(exact) if k != j]
            clo, chi = linalg.det(minor)._bounds_per_term(digits)
            if (i + j) % 2:
                clo, chi = -chi, -clo
            corners = [(c * scale, d) for c in (clo, chi) for d in (dlo, dhi)]
            row.append((min(n // d for n, d in corners), max(-(-n // d) for n, d in corners)))
        out.append(row)
    return out


def _scaled_enclosure(v: Scalar, digits: int) -> tuple[int, int]:
    """Integer enclosure of ``v`` at scale 10**digits; a float's exact
    dyadic value is enclosed and then padded by 10**-9 on either side."""
    if v.is_exact:
        return v._bounds_per_term(digits)
    num, den = v.to_float().as_integer_ratio()
    num *= 10 ** digits
    pad = int(1e-9 * 10 ** digits) + 1
    return (num // den - pad, -(-num // den) + pad)


def _end_enclosure(v: Scalar, shift: int) -> tuple[int, int]:
    """A row endpoint at scale ``10**_PLAN_DIGITS << shift``: an exact
    value's enclosure as ``bounds(_PLAN_DIGITS)`` gives it, a float's exact
    dyadic value, whose denominator ``shift`` makes divide the scale."""
    if v.is_exact:
        lo, hi = v._bounds_per_term(_PLAN_DIGITS)
        return lo << shift, hi << shift
    num, den = v.to_float().as_integer_ratio()
    value = (num * 10 ** _PLAN_DIGITS << shift) // den
    return value, value


def _walk_targets(rhs) -> list[tuple[int, int]]:
    """The walk's scaled rhs enclosure per row: ``[out_lo, out_hi]`` of
    ``_piece_rhs`` rounded outwards to scale 10**_PLAN_DIGITS and widened
    by 10**-9 on either side."""
    shift, bounds = rhs
    slack = 10 ** (_PLAN_DIGITS - 9)
    return [((lo >> shift) - slack, -(-hi >> shift) + slack) for lo, _, _, hi in bounds]


def _over_common_denominator(ratios) -> tuple[list[int], int]:
    """``(nums, den)``: integer ``(num, den)`` ratios as numerators over
    their least common denominator."""
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


# module-level operation aliases

def star(scheme: CutProjectScheme, n) -> HPoint:
    return scheme.star(n)


def project_points(scheme: CutProjectScheme, box: Box, window: Window, **kw) -> Patch:
    return scheme.project_points(box, window, **kw)


def dens_lattice(scheme: CutProjectScheme) -> Scalar:
    return scheme.lattice_density()


def is_commensurate(scheme: CutProjectScheme, a, bound: int) -> Commensurability:
    return scheme.is_commensurate(a, bound)
