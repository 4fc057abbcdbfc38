"""Window classes with decidable interior, closure, measure and membership.

A window selects internal-space points by coordinate: finite unions of
intervals on real directions, finite sets on discrete factors, boxes in
fundamental coordinates on torus factors, per-residue base windows on twisted
extensions.  Augmented windows adjoin a finite star set to an open core,
which is how projection sets of almost model sets become genuine windows.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .internal_space import (
    FiniteCyclicFactor,
    HPoint,
    IntegerRankFactor,
    InternalSpace,
    RealFactor,
    SpaceMismatchError,
    TorusFactor,
    TwistedExtensionFactor,
)
from .scalars import Scalar


class OutOfCertifiedRangeError(LookupError):
    """Membership query outside the range an augmented window certifies."""


# ---------------------------------------------------------------------------
# One-dimensional interval sets with exact endpoints


class Interval:
    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo, hi, lo_closed=True, hi_closed=False):
        self.lo = Scalar.of(lo)
        self.hi = Scalar.of(hi)
        self.lo_closed = bool(lo_closed)
        self.hi_closed = bool(hi_closed)
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed; use IntervalSet for empty")

    @classmethod
    def _kept(cls, lo: Scalar, hi: Scalar, lo_closed: bool, hi_closed: bool) -> "Interval":
        """The interval of ``Scalar`` endpoints already in order, unchecked."""
        piece = cls.__new__(cls)
        piece.lo, piece.hi, piece.lo_closed, piece.hi_closed = lo, hi, lo_closed, hi_closed
        return piece

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
            and self.lo_closed == other.lo_closed
            and self.hi_closed == other.hi_closed
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.lo_closed, self.hi_closed))

    def __repr__(self):
        return f"{'[' if self.lo_closed else '('}{self.lo}, {self.hi}{']' if self.hi_closed else ')'}"

    def contains(self, x: Scalar) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def to_obj(self):
        return {
            "lo": self.lo.to_obj(),
            "hi": self.hi.to_obj(),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(
            Scalar.from_obj(obj["lo"]),
            Scalar.from_obj(obj["hi"]),
            obj["lo_closed"],
            obj["hi_closed"],
        )


class IntervalSet:
    """Finite union of intervals in normal form (sorted, merged, disjoint)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces=()):
        self.pieces = _normalize_pieces(pieces)

    @classmethod
    def _kept(cls, pieces: tuple) -> "IntervalSet":
        """The set of ``pieces`` already in normal form, unchecked."""
        iset = cls.__new__(cls)
        iset.pieces = pieces
        return iset

    @classmethod
    def single(cls, lo, hi, lo_closed=True, hi_closed=False):
        lo, hi = Scalar.of(lo), Scalar.of(hi)
        if lo == hi and not (lo_closed and hi_closed):
            return cls(())
        return cls((Interval(lo, hi, lo_closed, hi_closed),))

    @classmethod
    def point(cls, x):
        return cls((Interval(x, x, True, True),))

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        return "IntervalSet[" + ", ".join(map(repr, self.pieces)) + "]"

    def is_empty(self) -> bool:
        return not self.pieces

    def contains(self, x: Scalar) -> bool:
        return any(p.contains(x) for p in self.pieces)

    def interior(self) -> "IntervalSet":
        out = []
        for p in self.pieces:
            if p.lo == p.hi:
                continue
            out.append(Interval(p.lo, p.hi, False, False))
        return IntervalSet(out)

    def closure(self) -> "IntervalSet":
        return IntervalSet(Interval(p.lo, p.hi, True, True) for p in self.pieces)

    def measure(self) -> Scalar:
        total = Scalar(0)
        for p in self.pieces:
            total = total + (p.hi - p.lo)
        return total

    def translate(self, t) -> "IntervalSet":
        """The set moved by ``t``.  Adding an exact ``t`` to exact endpoints
        is an order isomorphism, so it keeps the normal form, and the moved
        pieces are built unchecked (``_kept``); a float shift or endpoint
        takes the checked path, since rounding keeps no order."""
        t = Scalar.of(t)
        if t.is_exact and all(p.lo.is_exact and p.hi.is_exact for p in self.pieces):
            return IntervalSet._kept(tuple(
                Interval._kept(p.lo + t, p.hi + t, p.lo_closed, p.hi_closed) for p in self.pieces
            ))
        return IntervalSet(
            Interval(p.lo + t, p.hi + t, p.lo_closed, p.hi_closed) for p in self.pieces
        )

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.pieces + other.pieces)

    def bounds(self):
        if not self.pieces:
            return None
        return (self.pieces[0].lo, self.pieces[-1].hi)

    def subset(self, other: "IntervalSet") -> bool:
        for q in self.pieces:
            if not any(_piece_subset(q, p) for p in other.pieces):
                return False
        return True

    def overlaps(self, other: "IntervalSet") -> bool:
        for p in self.pieces:
            for q in other.pieces:
                if _pieces_overlap(p, q):
                    return True
        return False

    def fills_gap(self, x: Scalar) -> bool:
        """True when x sits exactly between two pieces open at x."""
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.hi == x and b.lo == x and not a.hi_closed and not b.lo_closed:
                return True
        return False

    def with_point(self, x: Scalar) -> "IntervalSet":
        return IntervalSet(self.pieces + (Interval(x, x, True, True),))

    def endpoints(self) -> list[Scalar]:
        out = []
        for p in self.pieces:
            out.append(p.lo)
            out.append(p.hi)
        return out

    def to_obj(self):
        return [p.to_obj() for p in self.pieces]

    @classmethod
    def from_obj(cls, obj):
        return cls(Interval.from_obj(p) for p in obj)


def _normalize_pieces(pieces) -> tuple[Interval, ...]:
    items = list(pieces)
    if any(not isinstance(p, Interval) for p in items):
        raise TypeError("IntervalSet expects Interval pieces")
    items.sort(key=lambda p: (p.lo, not p.lo_closed))
    out: list[Interval] = []
    for p in items:
        if out and _mergeable(out[-1], p):
            out[-1] = _merge(out[-1], p)
        else:
            out.append(p)
    return tuple(out)


def _mergeable(a: Interval, b: Interval) -> bool:
    if b.lo < a.hi:
        return True
    if b.lo == a.hi and (a.hi_closed or b.lo_closed):
        return True
    return False


def _merge(a: Interval, b: Interval) -> Interval:
    lo, lo_closed = a.lo, a.lo_closed
    if b.lo == a.lo:
        lo_closed = lo_closed or b.lo_closed
    if a.hi > b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi > a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed or b.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


def _piece_subset(q: Interval, p: Interval) -> bool:
    if q.lo < p.lo or (q.lo == p.lo and q.lo_closed and not p.lo_closed):
        return False
    if q.hi > p.hi or (q.hi == p.hi and q.hi_closed and not p.hi_closed):
        return False
    return True


def _pieces_overlap(p: Interval, q: Interval) -> bool:
    if p.hi < q.lo or q.hi < p.lo:
        return False
    if p.hi == q.lo:
        return p.hi_closed and q.lo_closed
    if q.hi == p.lo:
        return q.hi_closed and p.lo_closed
    return True


# ---------------------------------------------------------------------------
# Per-factor regions


class Region:
    """One factor's part of a product window.

    ``factor`` is the factor a region fits and ``kind`` its JSON name, the
    same as the factor's; ``ball`` builds the closed ball around a
    coordinate.  ``enum_rows`` gives the lattice enumerator the region's
    exact bounds on the factor's lifted rows (``Factor.lift_values``), as a
    list of alternatives, each a pair ``(rows, decides)``: ``rows`` is a list
    of ``(lo, hi, integral)`` triples, ``integral`` for rows whose values are
    exact integers, and ``decides`` says whether the rows alone decide
    membership: every coordinate whose rows lie strictly inside (lo, hi), or
    inside [lo, hi] for integral rows, is in the region.  Two regions are
    equal, and hash alike, when they are of one kind and their ``_key()``
    values are equal.  The other defaults describe a finite set of
    coordinates of a discrete factor.
    """

    __slots__ = ()
    kind = ""

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def interior(self):
        return self

    def closure(self):
        return self

    def is_open(self):
        return True

    def is_top_regular(self):
        return True

    def fill_gap(self, coord):
        """The region with ``coord`` adjoined when it fills a gap between two
        open pieces; the region itself when it holds ``coord``; else None."""
        return self if self.contains(coord) else None

    def corner_coords(self):
        """Coordinates of the region's corner points, for difference sets."""
        raise ValueError("difference points support real and discrete factors only")


class _AxesRegion(Region):
    """One interval set per axis; on a torus, in fundamental coordinates.

    The set operations are written once, on the real line, through two
    hooks: ``_with(axes)`` builds a region of the same kind, and
    ``_line(a)`` is a real set that looks like axis ``a`` around every point
    of [0, 1).  On R an axis is its own line.  On a torus an axis is a
    circle set: pieces in [0, 1), where the point 1 is 0, in the unique
    ``IntervalSet`` normal form (``_wrap_unit``); its line is the axis with
    its copies one turn either side, and ``_with`` reads a result modulo 1.
    Interior and closure are local and monotone, so what they add on the
    copies lies inside the true answer, and the wrap absorbs it.
    """

    __slots__ = ()

    def _line(self, a):
        return a

    def is_empty(self):
        return any(a.is_empty() for a in self.axes)

    def contains(self, coord):
        return all(a.contains(x) for a, x in zip(self.axes, coord))

    def subset(self, other):
        if self.is_empty():
            return True
        return all(a.subset(b) for a, b in zip(self.axes, other.axes))

    def interior(self):
        return self._with(self._line(a).interior() for a in self.axes)

    def closure(self):
        return self._with(self._line(a).closure() for a in self.axes)

    def translate(self, coord):
        return self._with(a.translate(t) for a, t in zip(self.axes, coord))

    def is_open(self):
        return self.interior() == self

    def is_top_regular(self):
        return self.is_empty() or self.interior().closure() == self.closure()

    def separated_from(self, other):
        if self.is_empty() or other.is_empty():
            return True
        return any(
            not a.overlaps(b) for a, b in zip(self.closure().axes, other.closure().axes)
        )

    def fill_gap(self, coord):
        """As ``Region.fill_gap``, on one-axis regions only: None on more."""
        if self.contains(coord):
            return self
        if len(self.axes) == 1 and self._line(self.axes[0]).fills_gap(coord[0]):
            return self._with((self.axes[0].with_point(coord[0]),))
        return None

    def to_obj(self):
        return {"region": self.kind, "axes": [a.to_obj() for a in self.axes]}


class RealRegion(_AxesRegion):
    __slots__ = ("axes",)
    kind = "real"

    def __init__(self, axes):
        self.axes = tuple(axes)

    def _with(self, axes):
        return RealRegion(axes)

    @property
    def factor(self):
        return RealFactor(len(self.axes))

    @classmethod
    def ball(cls, factor, coord, radius):
        return cls(IntervalSet.single(x - radius, x + radius, True, True) for x in coord)

    @classmethod
    def from_obj(cls, factor, obj):
        return cls(IntervalSet.from_obj(a) for a in obj["axes"])

    def _key(self):
        return self.axes

    def measure(self):
        total = Scalar(1)
        for a in self.axes:
            total = total * a.measure()
        return total

    def bounds(self):
        return tuple(a.bounds() for a in self.axes)

    def enum_rows(self):
        rows = [(lo, hi, False) for lo, hi in self.bounds()]
        return [(rows, all(len(a.pieces) == 1 for a in self.axes))]

    def corner_coords(self):
        return list(itertools.product(*(list(dict.fromkeys(a.endpoints())) for a in self.axes)))


class _FiniteRegion(Region):
    """A finite set of a discrete factor's canonical coordinates.

    A discrete coordinate is its own neighbourhood, so a coordinate counts 1
    towards the measure and two sets are separated when they share no
    coordinate.  Each kind keeps its constructor, its JSON spelling and its
    enumeration rows.
    """

    __slots__ = ("factor", "points")

    def _set(self, factor, points):
        self.factor = factor
        self.points = frozenset(map(factor.canonical, points))
        return self

    @classmethod
    def _of(cls, factor, points):
        return object.__new__(cls)._set(factor, points)

    @classmethod
    def ball(cls, factor, coord, radius):
        return cls._of(factor, (coord,))

    def _key(self):
        return (self.factor, self.points)

    def is_empty(self):
        return not self.points

    def contains(self, coord):
        return coord in self.points

    def measure(self):
        return Scalar(len(self.points))

    def translate(self, coord):
        return self._of(self.factor, (self.factor.add(p, coord) for p in self.points))

    def subset(self, other):
        return self.points <= other.points

    def separated_from(self, other):
        return self.points.isdisjoint(other.points)

    def corner_coords(self):
        return sorted(self.points)


class IntSetRegion(_FiniteRegion):
    __slots__ = ()
    kind = "integer"

    def __init__(self, rank, points):
        self._set(IntegerRankFactor(rank), points)

    @classmethod
    def from_obj(cls, factor, obj):
        return cls(obj["rank"], obj["points"])

    def bounds(self):
        if not self.points:
            return None
        return tuple((min(a), max(a)) for a in zip(*self.points))

    def enum_rows(self):
        bounds = self.bounds()
        full = len(self.points) == math.prod(hi - lo + 1 for lo, hi in bounds)
        return [([(Scalar(lo), Scalar(hi), True) for lo, hi in bounds], full)]

    def to_obj(self):
        return {
            "region": self.kind,
            "rank": self.factor.rank,
            "points": sorted(map(list, self.points)),
        }


class ResidueRegion(_FiniteRegion):
    __slots__ = ()
    kind = "cyclic"

    def __init__(self, modulus, residues):
        self._set(FiniteCyclicFactor(modulus), residues)

    @classmethod
    def from_obj(cls, factor, obj):
        return cls(obj["modulus"], obj["residues"])

    def enum_rows(self):
        return [([], len(self.points) == self.factor.modulus)]

    def to_obj(self):
        return {"region": self.kind, "modulus": self.factor.modulus, "residues": sorted(self.points)}


class TorusRegion(_AxesRegion):
    """Subset of a torus given by circle sets in fundamental coordinates."""

    __slots__ = ("factor", "axes")
    kind = "torus"

    def __init__(self, factor: TorusFactor, axes):
        self.factor = factor
        self.axes = tuple(_wrap_unit(a) for a in axes)

    def _with(self, axes):
        return TorusRegion(self.factor, axes)

    def _line(self, a):
        return a.translate(-1).union(a).union(a.translate(1))

    @classmethod
    def full(cls, factor: TorusFactor):
        return cls(factor, tuple(IntervalSet.single(0, 1) for _ in range(factor.dim)))

    @classmethod
    def ball(cls, factor, coord, radius):
        return cls(factor, (IntervalSet.single(x - radius, x + radius, True, True) for x in coord))

    @classmethod
    def from_obj(cls, factor, obj):
        return cls(factor, tuple(IntervalSet.from_obj(a) for a in obj["axes"]))

    def _key(self):
        return (self.factor, self.axes)

    def measure(self):
        total = self.factor.mass()
        for a in self.axes:
            total = total * a.measure()
        return total

    def enum_rows(self):
        return [([], all(_is_full_circle(a) for a in self.axes))]


class TwistedRegion(Region):
    """Per-residue base windows inside a twisted cyclic extension."""

    __slots__ = ("factor", "per_residue")
    kind = "twisted"

    def __init__(self, factor: TwistedExtensionFactor, per_residue: dict):
        self.factor = factor
        self.per_residue = {
            int(r): w for r, w in per_residue.items() if not w.is_empty()
        }
        for r in self.per_residue:
            if not 0 <= r < factor.modulus:
                raise ValueError("twisted residue out of range")

    @classmethod
    def ball(cls, factor, coord, radius):
        h, r = coord
        return cls(factor, {r: point_window(factor.base, h, radius)})

    @classmethod
    def from_obj(cls, factor, obj):
        return cls(
            factor,
            {int(r): window_from_obj(factor.base, w) for r, w in obj["per_residue"].items()},
        )

    def _key(self):
        return (self.factor, tuple(sorted(self.per_residue.items())))

    def is_empty(self):
        return not self.per_residue

    def contains(self, coord):
        h, r = coord
        return r in self.per_residue and self.per_residue[r].contains(h)

    def interior(self):
        return TwistedRegion(
            self.factor, {r: w.interior() for r, w in self.per_residue.items()}
        )

    def closure(self):
        return TwistedRegion(
            self.factor, {r: w.closure() for r, w in self.per_residue.items()}
        )

    def measure(self):
        total = Scalar(0)
        for w in self.per_residue.values():
            total = total + w.measure()
        return total

    def translate(self, coord):
        h_t, r_t = coord
        f = self.factor
        out: dict[int, Window] = {}
        for r, w in self.per_residue.items():
            rr = r + r_t
            shifted = w.translate(h_t)
            if rr >= f.modulus:
                rr -= f.modulus
                shifted = shifted.translate(f.twist)
            out[rr] = shifted
        return TwistedRegion(f, out)

    def is_open(self):
        return all(w.is_open() for w in self.per_residue.values())

    def is_top_regular(self):
        return all(w._top_regular() for w in self.per_residue.values())

    def subset(self, other):
        for r, w in self.per_residue.items():
            if r not in other.per_residue or not window_subset(w, other.per_residue[r]):
                return False
        return True

    def separated_from(self, other):
        return not (set(self.per_residue) & set(other.per_residue))

    def enum_rows(self):
        # A leaf's residue row is exactly r in [0, modulus), so its lifted
        # coordinate is already canonical (``TwistedExtensionFactor._reduce``
        # agrees with ``lift_relations``): its base rows are the base
        # coordinate of its star, which the base window's piece decides.
        return [
            (rows + [(Scalar(r), Scalar(r), True)], decides)
            for r, w in sorted(self.per_residue.items())
            for rows, decides in w.enum_pieces()
        ]

    def fill_gap(self, coord):
        h, res = coord
        base = self.per_residue.get(res)
        if base is None:
            return None
        if base.contains(h):
            return self
        filled = _gap_fill(base, h)
        if filled is None:
            return None
        return TwistedRegion(self.factor, {**self.per_residue, res: filled})

    def to_obj(self):
        return {
            "region": self.kind,
            "per_residue": {str(r): w.to_obj() for r, w in sorted(self.per_residue.items())},
        }


_REGION_KINDS = {
    cls.kind: cls for cls in (RealRegion, IntSetRegion, ResidueRegion, TorusRegion, TwistedRegion)
}


def _wrap_unit(iset: IntervalSet) -> IntervalSet:
    """The circle set of a real set: each piece cut at the integers and each
    part moved into [0, 1), where a point at 1 is 0.  A piece longer than 1
    is the full circle, [0, 1); one of length exactly 1 need not be.  The
    result is in ``IntervalSet`` normal form, unique for each circle set."""
    out = []
    for p in iset.pieces:
        if p.hi - p.lo > 1:
            return IntervalSet.single(0, 1)
        n = p.lo.floor()
        lo, hi = p.lo - n, p.hi - n
        if hi > 1 or (hi == 1 and p.hi_closed):
            out.append(Interval(lo, 1, p.lo_closed, False))
            out.append(Interval(0, hi - 1, True, p.hi_closed))
        else:
            out.append(Interval(lo, hi, p.lo_closed, p.hi_closed))
    return IntervalSet(out)


def _is_full_circle(iset: IntervalSet) -> bool:
    return iset == IntervalSet.single(0, 1)


# ---------------------------------------------------------------------------
# Windows


@dataclass(frozen=True)
class WindowProperties:
    has_interior: bool
    topologically_regular: bool
    measure_regular: bool


class Window:
    """Base class; see ProductWindow, UnionWindow, AugmentedWindow.

    ``enum_pieces`` gives the lattice enumerator one ``(rows, decides)``
    pair per piece, as ``Region.enum_rows`` does per alternative: the
    piece's exact ``(lo, hi, integral)`` row bounds, and whether those rows
    alone decide membership in the piece.

    Each kind also lifts itself into an extended space (``lifted``) and
    lists its corner points (``corner_points``).  Product and union windows
    are equal, and hash alike, when their nonempty members have the same
    regions, so a one-member union equals its member and all empty ones are
    equal.
    """

    space: InternalSpace

    def _member_regions(self) -> tuple:
        return tuple(m.regions for m in self.members() if not m.is_empty())

    def __eq__(self, other):
        if not isinstance(other, (ProductWindow, UnionWindow)):
            return NotImplemented
        return self._member_regions() == other._member_regions()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._member_regions())
        return self._hash

    def boundary_measure(self) -> Scalar:
        return self.closure().measure() - self.interior().measure()

    def properties(self) -> WindowProperties:
        return WindowProperties(
            has_interior=not self.interior().is_empty(),
            topologically_regular=self._top_regular(),
            measure_regular=self.boundary_measure().is_zero(),
        )

    def key(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, default=str)


class ProductWindow(Window):
    __slots__ = ("space", "regions", "_hash")

    def __init__(self, space: InternalSpace, regions):
        self.space = space
        self.regions = tuple(regions)
        if len(self.regions) != len(space.factors):
            raise SpaceMismatchError("one region per factor required")
        for f, r in zip(space.factors, self.regions):
            if r.factor != f:
                raise SpaceMismatchError(f"region {r!r} does not fit factor {f!r}")
        self._hash = None

    def is_empty(self):
        return any(r.is_empty() for r in self.regions)

    def contains(self, p: HPoint) -> bool:
        if p.space != self.space:
            raise SpaceMismatchError("point lives in a different space")
        return all(r.contains(c) for r, c in zip(self.regions, p.coords))

    def interior(self):
        return ProductWindow(self.space, (r.interior() for r in self.regions))

    def closure(self):
        return ProductWindow(self.space, (r.closure() for r in self.regions))

    def measure(self):
        if self.is_empty():
            return Scalar(0)
        total = Scalar(1)
        for r in self.regions:
            total = total * r.measure()
        return total

    def translate(self, t: HPoint):
        if t.space != self.space:
            raise SpaceMismatchError("shift lives in a different space")
        return ProductWindow(
            self.space, (r.translate(c) for r, c in zip(self.regions, t.coords))
        )

    def is_open(self):
        return all(r.is_open() for r in self.regions)

    def _top_regular(self):
        if self.is_empty():
            return True
        return all(r.is_top_regular() for r in self.regions)

    def members(self):
        return [self]

    def lifted(self, space2: InternalSpace, region: Region, coord=None):
        """This window crossed with ``region``, a region of the one factor
        ``space2`` appends to this window's space.  ``coord`` is the
        coordinate on that factor that an augmented window's stars take."""
        return ProductWindow(space2, self.regions + (region,))

    def corner_points(self) -> list[HPoint]:
        """Endpoint combinations of the per-factor regions."""
        per_factor = [r.corner_coords() for r in self.regions]
        return [self.space.point(*combo) for combo in itertools.product(*per_factor)]

    def enum_pieces(self):
        return [] if self.is_empty() else _product_rows([r.enum_rows() for r in self.regions])

    def to_obj(self):
        return {"kind": "product", "regions": [r.to_obj() for r in self.regions]}


class UnionWindow(Window):
    """Disjoint finite union; members must be separated (see module notes)."""

    __slots__ = ("space", "members_", "_hash")

    def __init__(self, space: InternalSpace, members):
        self.space = space
        flat = []
        for m in members:
            flat.extend(m.members())
        flat = [m for m in flat if not m.is_empty()]
        for i, a in enumerate(flat):
            for b in flat[i + 1:]:
                if not _separated(a, b):
                    raise ValueError(
                        "union members overlap or touch; unsupported window union"
                    )
        self.members_ = tuple(sorted(flat, key=lambda w: w.key()))
        self._hash = None

    def is_empty(self):
        return not self.members_

    def contains(self, p: HPoint) -> bool:
        return any(m.contains(p) for m in self.members_)

    def interior(self):
        return UnionWindow(self.space, [m.interior() for m in self.members_])

    def closure(self):
        return UnionWindow(self.space, [m.closure() for m in self.members_])

    def measure(self):
        total = Scalar(0)
        for m in self.members_:
            total = total + m.measure()
        return total

    def translate(self, t: HPoint):
        return UnionWindow(self.space, [m.translate(t) for m in self.members_])

    def is_open(self):
        return all(m.is_open() for m in self.members_)

    def _top_regular(self):
        return all(m._top_regular() for m in self.members_)

    def members(self):
        return list(self.members_)

    def lifted(self, space2: InternalSpace, region: Region, coord=None):
        return UnionWindow(space2, [m.lifted(space2, region, coord) for m in self.members_])

    def corner_points(self) -> list[HPoint]:
        return [p for m in self.members_ for p in m.corner_points()]

    def enum_pieces(self):
        out = []
        for m in self.members_:
            out.extend(m.enum_pieces())
        return out

    def to_obj(self):
        return {"kind": "union", "members": [m.to_obj() for m in self.members_]}


class AugmentedWindow(Window):
    """An open core together with a finite set of adjoined star points."""

    __slots__ = ("space", "open_part", "stars", "certifier")

    def __init__(self, open_part: Window, stars, certifier=None):
        if not open_part.is_open():
            raise ValueError("augmented window core must be open")
        self.space = open_part.space
        self.open_part = open_part
        pruned = []
        seen = set()
        for p in stars:
            if p.space != self.space:
                raise SpaceMismatchError("star point in a different space")
            if open_part.contains(p) or p in seen:
                continue
            seen.add(p)
            pruned.append(p)
        self.stars = tuple(sorted(pruned, key=lambda p: str(p.to_obj())))
        self.certifier = certifier

    def __eq__(self, other):
        return (
            isinstance(other, AugmentedWindow)
            and self.open_part == other.open_part
            and self.stars == other.stars
        )

    def __hash__(self):
        return hash((self.open_part, self.stars))

    def is_empty(self):
        return self.open_part.is_empty() and not self.stars

    def contains(self, p: HPoint) -> bool:
        if self.open_part.contains(p):
            return True
        if p in self.stars:
            return True
        if self.certifier is not None and not self.certifier(p):
            raise OutOfCertifiedRangeError(
                "membership query outside the certified truncation range"
            )
        return False

    def interior(self):
        rho = self.space.continuous_dim
        if rho == 0:
            singles = [point_window(self.space, p) for p in self.stars]
            return UnionWindow(self.space, self.open_part.members() + singles)
        core = self.open_part
        if rho == 1:
            for p in self.stars:
                filled = _gap_fill(core, p)
                if filled is not None:
                    core = filled
        return core

    def closure(self):
        closed = self.open_part.closure()
        extra = [point_window(self.space, p) for p in self.stars if not closed.contains(p)]
        return UnionWindow(self.space, closed.members() + extra)

    def measure(self):
        return self.open_part.measure() + self.space.point_mass() * len(self.stars)

    def translate(self, t: HPoint):
        moved = [self.space.add(p, t) for p in self.stars]
        certifier = None
        if self.certifier is not None:
            neg_t = self.space.negate(t)
            orig = self.certifier
            certifier = lambda p: orig(self.space.add(p, neg_t))  # noqa: E731
        return AugmentedWindow(self.open_part.translate(t), moved, certifier)

    def is_open(self):
        return not self.stars

    def _top_regular(self):
        closed = self.open_part.closure()
        return all(closed.contains(p) for p in self.stars)

    def members(self):
        raise ValueError("augmented windows cannot be union members")

    def lifted(self, space2: InternalSpace, region: Region, coord=None):
        """The lifted open core with each star's ``coord`` appended; the
        certifier is asked about a point without its last coordinate.  An
        augmented window is built after a full-torus extension, where no
        ``coord`` names its stars: ``TypeError`` without one."""
        if coord is None:
            raise TypeError("augmented windows are built after the extension, not lifted")
        stars = [HPoint(space2, p.coords + (coord,)) for p in self.stars]
        certifier = None
        if self.certifier is not None:
            orig = self.certifier
            certifier = lambda p: orig(HPoint(self.space, p.coords[:-1]))  # noqa: E731
        return AugmentedWindow(self.open_part.lifted(space2, region), stars, certifier)

    def corner_points(self) -> list[HPoint]:
        return self.open_part.corner_points()

    def enum_pieces(self):
        # no piece decides: ``contains`` may call the certifier, which must
        # see every leaf
        out = self.open_part.enum_pieces()
        for p in self.stars:
            out.extend(point_window(self.space, p).enum_pieces())
        return [(rows, False) for rows, _ in out]

    def to_obj(self):
        return {
            "kind": "augmented",
            "open": self.open_part.to_obj(),
            "stars": [p.to_obj() for p in self.stars],
        }


def _product_rows(alternatives) -> list[tuple[list, bool]]:
    """Pieces of a product, given each region's alternatives: one per choice
    of an alternative from each, earlier regions varying fastest; a piece
    decides when every alternative chosen does."""
    pieces = [([], True)]
    for region in alternatives:
        pieces = [(p + r, pd and rd) for r, rd in region for p, pd in pieces]
    return pieces


def _separated(a: ProductWindow, b: ProductWindow) -> bool:
    for ra, rb in zip(a.regions, b.regions):
        if ra.separated_from(rb):
            return True
    return False


def _gap_fill(window: Window, p: HPoint):
    """Absorb an isolated point into an open window when it fills a gap.

    Only meaningful when the total continuous dimension is 1; returns the
    merged window or None when p is not two-sided-adjacent to the core.
    """
    for member in window.members():
        merged = _gap_fill_member(member, p)
        if merged is not None:
            others = [m for m in window.members() if m is not member]
            if not others:
                return merged
            return UnionWindow(window.space, others + [merged])
    return None


def _gap_fill_member(member: ProductWindow, p: HPoint):
    regions = list(member.regions)
    gap_at = None
    for idx, (r, c) in enumerate(zip(member.regions, p.coords)):
        filled = r.fill_gap(c)
        if filled is None:
            return None
        if filled is not r:
            if gap_at is not None:
                return None
            gap_at = idx
            regions[idx] = filled
    if gap_at is None:
        return None
    return ProductWindow(member.space, regions)


def point_window(space: InternalSpace, p: HPoint, radius=0) -> ProductWindow:
    """The closed ball of the given radius around p on every continuous
    axis, and p's own coordinate on every discrete one: {p} at radius 0."""
    return ProductWindow(
        space,
        (_REGION_KINDS[f.kind].ball(f, c, radius) for f, c in zip(space.factors, p.coords)),
    )


def empty_window(space: InternalSpace) -> UnionWindow:
    return UnionWindow(space, [])


def interval_window(space: InternalSpace, lo, hi, lo_closed=True, hi_closed=False) -> ProductWindow:
    """Convenience for spaces whose single factor is a real line."""
    (factor,) = space.factors
    if factor != RealFactor(1):
        raise SpaceMismatchError("interval_window expects a one-dimensional real space")
    return ProductWindow(
        space, (RealRegion((IntervalSet.single(lo, hi, lo_closed, hi_closed),)),)
    )


def window_subset(a: Window, b: Window) -> bool:
    """Exact containment for product/union windows (augmented via reduction)."""
    if a.is_empty():
        return True
    if isinstance(a, AugmentedWindow):
        return window_subset(a.open_part, b) and all(b.contains(p) for p in a.stars)
    for m in a.members():
        if isinstance(b, AugmentedWindow):
            if window_subset(m, b.open_part):
                continue
            return False
        if not any(_member_subset(m, n) for n in b.members()):
            return False
    return True


def _member_subset(a: ProductWindow, b: ProductWindow) -> bool:
    return all(ra.subset(rb) for ra, rb in zip(a.regions, b.regions))


def window_from_obj(space: InternalSpace, obj) -> Window:
    kind = obj["kind"]
    if kind == "product":
        regions = []
        for f, ro in zip(space.factors, obj["regions"]):
            regions.append(_region_from_obj(f, ro))
        return ProductWindow(space, regions)
    if kind == "union":
        return UnionWindow(space, [window_from_obj(space, m) for m in obj["members"]])
    if kind == "augmented":
        open_part = window_from_obj(space, obj["open"])
        stars = [HPoint.from_obj(space, po) for po in obj["stars"]]
        return AugmentedWindow(open_part, stars)
    raise ValueError(f"unknown window kind {kind!r}")


def _region_from_obj(factor, obj):
    kind = obj["region"]
    if kind not in _REGION_KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    return _REGION_KINDS[kind].from_obj(factor, obj)


def eq11_chain(base: Window, augmented: Window) -> bool:
    """The inclusion chain interior(W) in interior(W') in W' in cl(W') in cl(W)."""
    w_int = base.interior()
    a_int = augmented.interior()
    a_cl = augmented.closure()
    w_cl = base.closure()
    if not window_subset(w_int, a_int):
        return False
    # W' inside cl(W'): an augmented window's open core and its stars
    if not window_subset(augmented, a_cl):
        return False
    if not window_subset(a_int, a_cl):
        return False
    return window_subset(a_cl, w_cl)
