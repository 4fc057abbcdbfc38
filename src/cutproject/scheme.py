"""Cut-and-project schemes: lattice data, star map, point enumeration.

A scheme is direct-space dimension d, an internal space H, and lattice
generator columns (g, h) indexed by free integer coordinates.  Enumeration
works on a lifted square presentation: twisted extensions are unrolled into
their base plus an explicit carry generator, so every continuous coordinate
of a lattice point is linear in the lifted integer coordinates.  The lifted
coordinates are enumerated triangularly, in the manner of Fincke-Pohst with
the box and the window slab in place of an ellipsoid: once the outer
coordinates are fixed, a rigorous interval inverse of a square sub-block
bounds the next one, so about one candidate is examined per accepted point.
Compact factor coordinates (finite residues, torus positions) never affect
boundedness and are handled by exact membership filtering.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, ratmath
from .internal_space import HPoint, InternalSpace, SpaceMismatchError
from .scalars import Scalar
from .windows import Window, row_bounds

DEFAULT_MAX_CANDIDATES = 5_000_000
_PLAN_DIGITS = 25  # decimal scale of the enumeration's enclosures


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
    """Finite sorted point set in direct space with provenance."""

    __slots__ = ("points", "box", "scheme_id", "coords")

    def __init__(self, points, box: Box, scheme_id: str = "", coords=None):
        pairs = list(zip(points, coords)) if coords is not None else [(p, None) for p in points]
        checked = []
        for p, c in pairs:
            p = tuple(Scalar.of(v) for v in p)
            if not box.contains(p):
                raise ValueError(f"patch point {p!r} outside its box")
            checked.append((p, tuple(int(x) for x in c) if c is not None else None))
        self._fill(checked, box, scheme_id, coords is not None)

    @classmethod
    def _of_checked(cls, pairs, box: Box, scheme_id: str) -> "Patch":
        """Patch of ``(point, coords)`` pairs known to be Scalar points in ``box``.

        For ``project_points``, whose leaves have just decided exactly that;
        the points are sorted and deduplicated as in ``__init__``.
        """
        patch = cls.__new__(cls)
        patch._fill(pairs, box, scheme_id, True)
        return patch

    def _fill(self, pairs, box, scheme_id, with_coords):
        pairs.sort(key=lambda pc: pc[0])
        pts = []
        crd = []
        for p, c in pairs:
            if pts and pts[-1] == p:
                continue
            pts.append(p)
            crd.append(c)
        self.points = tuple(pts)
        self.box = box
        self.scheme_id = scheme_id
        self.coords = tuple(crd) if with_coords else None

    def __len__(self):
        return len(self.points)

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
        vec = tuple(Scalar.of(v) for v in vec)
        return Patch(
            [tuple(x + v for x, v in zip(p, vec)) for p in self.points],
            self.box.translate(vec),
            self.scheme_id,
            self.coords,
        )

    def restrict(self, box: Box) -> "Patch":
        keep = [i for i, p in enumerate(self.points) if box.contains(p)]
        return Patch(
            [self.points[i] for i in keep],
            box,
            self.scheme_id,
            [self.coords[i] for i in keep] if self.coords is not None else None,
        )

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

    def to_csv_text(self) -> str:
        dim = len(self.box.lo)
        header = [f"x{i + 1}" for i in range(dim)]
        rank = len(self.coords[0]) if self.coords else 0
        if self.coords is not None and self.points:
            header += [f"n{j + 1}" for j in range(rank)]
        lines = [",".join(header)]
        for i, p in enumerate(self.points):
            row = [repr(float(v)) for v in p]
            if self.coords is not None and self.points:
                row += [str(x) for x in self.coords[i]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


@dataclass
class Commensurability:
    """Outcome of testing whether multiples of a direct vector hit the lattice."""

    status: str  # "commensurate" | "incommensurate" | "unknown"
    m: int | None = None
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
        self._id = None
        self._inverse_enc = None
        self._enum_plan = None

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
        mat = _monomial_matrix([[g[i] for g, _ in self.generators] for i in range(self.d)])
        for vec in ratmath.kernel(mat):
            ints = ratmath.clear_denominators(vec)
            if any(ints):
                if required:
                    raise SchemeError(
                        f"direct projection is not injective: kernel vector {ints}"
                    )
                return False
        return True

    # -- identity -------------------------------------------------------------

    @property
    def scheme_id(self) -> str:
        if self._id is None:
            blob = json.dumps(self.to_obj(), sort_keys=True).encode()
            self._id = hashlib.sha256(blob).hexdigest()[:16]
        return self._id

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
        out = [Scalar(0)] * self.d
        for k, (g, _) in zip(n, self.generators):
            if k:
                for i in range(self.d):
                    out[i] = out[i] + g[i] * k
        return tuple(out)

    def star(self, n) -> HPoint:
        """Internal coordinate of the lattice point with coordinates n."""
        if len(n) != self.rank:
            raise SchemeError("lattice coordinate arity mismatch")
        acc = self.space.zero()
        for k, (_, h) in zip(n, self.generators):
            if k:
                acc = self.space.add(acc, self.space.scale(h, k))
        return acc

    def point_of(self, n) -> tuple[tuple[Scalar, ...], HPoint]:
        return self.direct(n), self.star(n)

    # -- density ------------------------------------------------------------------

    def covolume(self) -> Scalar:
        return math.prod((f.covolume_factor() for f in self.space.factors), start=abs(self._det))

    def lattice_density(self) -> Scalar:
        cov = self.covolume()
        try:
            return cov.inverse()
        except Exception:
            return Scalar.from_float(1.0 / cov.to_float())

    # -- enumeration ---------------------------------------------------------------

    def project_points(
        self, box: Box, window: Window, *, max_candidates: int = DEFAULT_MAX_CANDIDATES
    ) -> Patch:
        """All projected lattice points inside ``box`` with star inside ``window``.

        Window pieces are enumerated one after another and merged in piece
        order, so the result is deterministic.
        """
        if box.dim != self.d:
            raise SchemeError("box dimension mismatch")
        if window.space != self.space:
            raise SpaceMismatchError("window lives in a different internal space")
        if not window.properties().precompact:
            raise SchemeError("window closure is not compact")
        found: dict[tuple[int, ...], tuple] = {}
        for piece in window.enum_pieces():
            for n, direct in self._enumerate_piece(box, window, piece, max_candidates).items():
                found.setdefault(n, direct)
        return Patch._of_checked(
            [(p, n) for n, p in found.items()], box, self.scheme_id
        )

    def _enumerate_piece(self, box, window, piece, max_candidates):
        """Triangular walk over the lifted coordinates of one window piece.

        The budget bounds the volume of the interval-inverse candidate box,
        which the walk never leaves.  Every level only drops constraints, so
        the walk is exhaustive; its leaves still pass the exact checks.
        A candidate's direct vector and star point are not built from
        scratch: the partial sums over its coordinates are kept, and the sum
        restarts at the first coordinate where the candidate differs from
        the last one summed.  Each step is the addition ``direct`` or
        ``star`` makes, in the same order, so exact values are equal and
        float values bit-identical; the star sum is only taken for
        candidates inside the box.
        """
        rhs = self._piece_rhs(box, piece)
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
        scale = 10 ** _PLAN_DIGITS
        slack = 10 ** (_PLAN_DIGITS - 9)
        targets = [
            ((lo.numerator * scale) // lo.denominator - slack,
             -((-hi.numerator * scale) // hi.denominator) + slack)
            for lo, hi in rhs
        ]
        gens = self.generators
        space = self.space
        # directs[j] and stars[j] sum n[:j] for the last n each was taken for
        d_last, directs = (), [tuple(Scalar(0) for _ in range(self.d))]
        s_last, stars = (), [space.zero()]
        zero = [0] * self.lift_size
        for lifted in _triangular_walk(self._enumeration_plan(), ranges, targets, (), zero, zero):
            n = lifted[: self.rank]
            if n in found:
                continue
            j = _shared_prefix(n, d_last)
            del directs[j + 1 :]
            for (g, _), k in zip(gens[j:], n[j:]):
                acc = directs[-1]
                directs.append(tuple([a + x * k for a, x in zip(acc, g)]) if k else acc)
            d_last = n
            if not box.contains(directs[-1]):
                continue
            j = _shared_prefix(n, s_last)
            del stars[j + 1 :]
            for (_, h), k in zip(gens[j:], n[j:]):
                acc = stars[-1]
                stars.append(space.add(acc, space.scale(h, k)) if k else acc)
            s_last = n
            if window.contains(stars[-1]):
                found[n] = directs[-1]
        return found

    def _piece_rhs(self, box: Box, piece) -> list[tuple[Fraction, Fraction]]:
        """Bounds on every lifted row: the box, then a window piece's rows."""
        return [row_bounds(lo, hi) for lo, hi in zip(box.lo, box.hi)] + piece

    def _inverse_enclosure(self):
        """Interval enclosure of the inverse coordinate matrix, cached."""
        if self._inverse_enc is None:
            self._inverse_enc = _inverse_rows(self.matrix, _PLAN_DIGITS)
        return self._inverse_enc

    def _enumeration_plan(self):
        """Per-level data of the triangular walk, built once per scheme.

        Level k fixes lifted column k.  Its range comes from the interval
        inverse of a nonsingular square sub-block over the still-free columns,
        with internal (window) rows preferred over direct (box) rows because
        windows are narrow; the outermost level uses the full inverse through
        ``_candidate_ranges`` instead.  Each row is also intersected, at the
        level of its last nonzero column, as soon as the fixed coordinates
        determine it.  Entries are integer enclosures at scale
        10**_PLAN_DIGITS: one ``(inverse, checks, updates)`` per column, with
        ``inverse`` and ``checks`` as ``(row, lo, hi)`` triples and
        ``updates`` the column's nonzero entries for the row partial sums.
        """
        if self._enum_plan is not None:
            return self._enum_plan
        size = self.lift_size
        scale = 10 ** _PLAN_DIGITS
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
                inverse = tuple(
                    (i, math.floor(lo * scale), math.ceil(hi * scale))
                    for i, (lo, hi) in zip(rows, _inverse_rows(sub, _PLAN_DIGITS)[0])
                    if lo or hi
                )
            updates = tuple(
                (i, *enc[i][col]) for i in range(size) if enc[i][col] != (0, 0)
            ) if col < size - 1 else ()
            plan.append((inverse, checks, updates))
        self._enum_plan = plan
        return plan

    def _candidate_ranges(self, rhs) -> list[tuple[int, int]]:
        if self.lift_size == 0:
            return []
        inv = self._inverse_enclosure()
        out = []
        for row in inv:
            lo = Fraction(0)
            hi = Fraction(0)
            for (alo, ahi), (ylo, yhi) in zip(row, rhs):
                products = (alo * ylo, alo * yhi, ahi * ylo, ahi * yhi)
                lo += min(products)
                hi += max(products)
            out.append((math.ceil(lo), math.floor(hi)))
        return out

    # -- exact lattice membership ----------------------------------------------------

    def lattice_coords_of(self, gvec, h: HPoint):
        """Integer coordinates reproducing (g, h) exactly, or None."""
        gvec = tuple(Scalar.of(v) for v in gvec)
        target = self._row_values(gvec, h)
        if not all(v.is_exact for v in target) or not all(
            v.is_exact for row in self.matrix for v in row
        ):
            return self._lattice_coords_float(gvec, h, target)
        mono_rows, mono_rhs = _monomial_system(self.matrix, target)
        sol = ratmath.solve(mono_rows, mono_rhs)
        if sol is None:
            return None
        if any(x.denominator != 1 for x in sol):
            return None
        n = tuple(int(x) for x in sol[: self.rank])
        direct, star = self.point_of(n)
        if tuple(direct) == tuple(gvec) and star == h:
            return n
        return None

    def _lattice_coords_float(self, gvec, h, target):
        mat = [[float(v) for v in row] for row in self.matrix]
        rhs = [float(v) for v in target]
        sol = _float_solve(mat, rhs)
        if sol is None:
            return None
        n = tuple(round(x) for x in sol[: self.rank])
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
            mat, rhs = _monomial_system(rows, list(a))
            sol = ratmath.solve(mat, rhs)
            if sol is None:
                return Commensurability("incommensurate")
            m = 1
            for x in sol:
                m = m * x.denominator // math.gcd(m, x.denominator)
            if m > bound:
                return Commensurability("incommensurate")
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

    # -- star-map injectivity -----------------------------------------------------------

    def star_kernel_witness(self):
        """Exact search for nonzero n with star(n) = 0; None means injective.

        Builds the combined linear/congruence system over the generator
        coordinates plus one auxiliary unknown per congruence (cyclic
        modulus, torus lattice vector, twist carry, also inside a twisted
        base) and inspects its rational kernel.
        """
        space = self.space
        cols = [space.kernel_values(h) for _, h in self.generators]
        cols += [space.kernel_values(rel) for rel in space.kernel_relations()]
        if not all(v.is_exact for col in cols for v in col):
            raise SchemeError("exact star-injectivity needs exact generators")
        rows_scalar = [list(row) for row in zip(*cols)]
        if not rows_scalar:
            return None
        mono, _ = _monomial_system(rows_scalar, [Scalar(0)] * len(rows_scalar))
        for vec in ratmath.kernel(mono):
            ints = ratmath.clear_denominators(vec)
            n = tuple(ints[: self.rank])
            if any(n) and self.star(n) == self.space.zero():
                return n
        return None

    # -- heuristics ------------------------------------------------------------------------

    def internal_density_heuristic(self, bound: int = 10, cells: int = 8) -> bool:
        """Star image looks dense: every coarse cell of a compact probe is hit.

        An attribute of the scheme, not a validity condition; each call
        probes anew with its own ``bound`` and ``cells``.
        """
        hits: dict[tuple[int, int], set] = {}
        axes = 0
        for n in itertools.product(range(-bound, bound + 1), repeat=self.rank):
            h = self.star(n)
            values = self.space.continuous_values(h)
            axes = len(values)
            for ax, v in enumerate(values):
                frac = v - v.floor()
                cell = min(int(frac.to_float() * cells), cells - 1)
                hits.setdefault(("cont", ax), set()).add(cell)
        return all(
            len(hits.get(("cont", ax), set())) == cells for ax in range(axes)
        )

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


def _monomial_matrix(rows) -> list[list[Fraction]]:
    """Expand a Scalar matrix into stacked rational rows, one per monomial."""
    mat, _ = _monomial_system(rows, [Scalar(0)] * len(rows))
    return mat


def _monomial_system(rows, rhs) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Rational system equivalent to the Scalar system ``rows . x = rhs``.

    Each scalar equation splits into one rational equation per monomial
    appearing anywhere on either side; unknowns are rational.
    """
    row_terms = [[v.terms() for v in row] for row in rows]
    rhs_terms = [v.terms() for v in rhs]
    monos = sorted(set().union(*rhs_terms, *(t for row in row_terms for t in row)))
    mat = []
    vec = []
    for row, rv in zip(row_terms, rhs_terms):
        for mono in monos:
            mat.append([t.get(mono, Fraction(0)) for t in row])
            vec.append(rv.get(mono, Fraction(0)))
    return mat, vec


def _triangular_walk(levels, ranges, targets, prefix, p_lo, p_hi):
    """Yield the lifted vectors a level plan admits, outermost coordinate first.

    ``targets`` are the scaled rhs enclosures per row, ``p_lo``/``p_hi`` the
    scaled enclosures of each row's partial sum over the fixed ``prefix``.
    """
    k = len(prefix)
    if k == len(levels):
        yield prefix
        return
    inverse, checks, updates = levels[k]
    lo, hi = ranges[k]
    if inverse:
        s_lo = s_hi = 0
        for i, a_lo, a_hi in inverse:
            y_lo = targets[i][0] - p_hi[i]
            y_hi = targets[i][1] - p_lo[i]
            products = (a_lo * y_lo, a_lo * y_hi, a_hi * y_lo, a_hi * y_hi)
            s_lo += min(products)
            s_hi += max(products)
        square = 10 ** (2 * _PLAN_DIGITS)
        lo = max(lo, -((-s_lo) // square))
        hi = min(hi, s_hi // square)
    for i, a_lo, a_hi in checks:
        y_lo = targets[i][0] - p_hi[i]
        y_hi = targets[i][1] - p_lo[i]
        if a_lo < 0:  # negate the row: coefficient enclosure in (0, inf)
            a_lo, a_hi, y_lo, y_hi = -a_hi, -a_lo, -y_hi, -y_lo
        lo = max(lo, -((-y_lo) // (a_hi if y_lo >= 0 else a_lo)))
        hi = min(hi, y_hi // (a_lo if y_hi >= 0 else a_hi))
    for v in range(lo, hi + 1):
        c_lo, c_hi = p_lo, p_hi
        if updates:
            c_lo, c_hi = list(p_lo), list(p_hi)
            for i, a_lo, a_hi in updates:
                c_lo[i] += v * (a_lo if v >= 0 else a_hi)
                c_hi[i] += v * (a_hi if v >= 0 else a_lo)
        yield from _triangular_walk(levels, ranges, targets, prefix + (v,), c_lo, c_hi)


def _shared_prefix(a, b) -> int:
    """Length of the common prefix of two coordinate tuples."""
    j = 0
    for x, y in zip(a, b):
        if x != y:
            break
        j += 1
    return j


def _inverse_rows(matrix, digits: int) -> list[list[tuple[Fraction, Fraction]]]:
    """Interval enclosure of the rows of a nonsingular square matrix's inverse.

    Exact inversion is used when the entries are algebraic; otherwise a
    rigorous interval elimination per unit column.
    """
    size = len(matrix)
    try:
        cols = [
            linalg.solve_exact(matrix, [Scalar(1 if i == k else 0) for i in range(size)])
            for k in range(size)
        ]
        return [[cols[j][i].bounds(digits) for j in range(size)] for i in range(size)]
    except Exception:
        unit = [
            linalg.interval_solve(
                matrix,
                [(Fraction(1 if i == k else 0), Fraction(1 if i == k else 0)) for i in range(size)],
                digits,
            )
            for k in range(size)
        ]
        return [[unit[j][i] for j in range(size)] for i in range(size)]


def _scaled_enclosure(v: Scalar, digits: int) -> tuple[int, int]:
    scale = 10 ** digits
    if v.is_exact:
        lo, hi = v.bounds(digits)
        return int(lo * scale), int(hi * scale)
    center = int(v._float * scale)
    pad = int(1e-9 * scale) + 1
    return (center - pad, center + pad)


def _float_solve(mat, rhs):
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-12:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


# module-level operation aliases

def star(scheme: CutProjectScheme, n) -> HPoint:
    return scheme.star(n)


def project_points(scheme: CutProjectScheme, box: Box, window: Window, **kw) -> Patch:
    return scheme.project_points(box, window, **kw)


def dens_lattice(scheme: CutProjectScheme) -> Scalar:
    return scheme.lattice_density()


def is_commensurate(scheme: CutProjectScheme, a, bound: int) -> Commensurability:
    return scheme.is_commensurate(a, bound)
