"""Internal spaces: finite products of concrete locally compact factors.

Supported factors: real lines, free integer ranks, finite cyclic groups,
torus quotients of R^d by a nonsingular lattice basis, and cyclic extensions
of a base space twisted by a carry element.  Points carry canonical
coordinates (reduced residues, fundamental-domain torus representatives), so
equality of points is plain structural comparison.

Each factor kind is one class with the method set of ``Factor``; spaces,
points, windows and schemes loop over factors through those methods, and a
twisted extension recurses into its base space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

from . import linalg
from .scalars import ExactnessError, LinearForm, Scalar, _apply_each, sum_form


class SpaceMismatchError(ValueError):
    pass


def _as_tuple(c):
    return c if isinstance(c, (tuple, list)) else (c,)


class Factor:
    """One factor kind of an internal space.

    A coordinate is a factor's part of a point.  ``zero``, ``canonical``,
    ``add`` and ``scale`` are the group law on canonical coordinates;
    ``to_obj``/``from_obj`` and ``coord_to_obj``/``coord_from_obj`` the JSON
    encodings of the factor and of its coordinates; ``kind`` names both the
    factor's encoding and the window region that fits it.

    A scheme reads coordinates through two linear systems.  Lifted rows
    (``lift_values``) are the coordinates that bound lattice enumeration;
    ``lift_relations`` are coordinates whose lifted rows become extra
    columns, so that the rows are linear in the lifted integer coordinates.
    Kernel rows (``kernel_values``) are all coordinates; ``kernel_relations``
    are coordinates whose kernel rows span the congruences under which a
    point is zero.  The defaults describe a factor with none of these.

    ``star_map`` turns the generators' coordinates into the map ``n ->``
    canonical coordinate of ``sum(n[j] * coords[j])``, the factor's part of
    a scheme's star map.  The default folds ``add`` and ``scale`` over the
    generators; a kind overrides it with a closed form where its values
    give the fold's coordinates bit for bit.
    """

    __slots__ = ()
    kind = ""
    real_dim = 0
    continuous_dim = 0
    integer_rank = 0

    def covolume_factor(self):
        """What the factor multiplies the lattice covolume by."""
        return 1

    def lift_values(self, c) -> list[Scalar]:
        return []

    def lift_relations(self) -> list:
        return []

    def kernel_values(self, c) -> list[Scalar]:
        return self.lift_values(c)

    def kernel_relations(self) -> list:
        return []

    def real_constant(self, value):
        """The coordinate with ``value`` on every real axis, zero elsewhere."""
        return self.zero()

    def distance_sq(self, a, b) -> float:
        """Squared distance of two coordinates; 1 for any discrete mismatch."""
        return 0.0 if a == b else 1.0

    def annihilator_shifts(self, coords) -> list:
        """Targets of the fractional dual-lattice shifts the factor adds,
        given the generators' coordinates."""
        return []

    def star_map(self, coords):
        return partial(_fold, self, tuple(coords))


def _fold(factor: Factor, coords, n):
    """``sum(n[j] * coords[j])`` by the factor's group law, term by term."""
    acc = factor.zero()
    for k, c in zip(n, coords):
        if k:
            acc = factor.add(acc, factor.scale(c, k))
    return acc


def _dot(coeffs, n) -> int:
    return sum(map(operator.mul, n, coeffs))


class _VectorFactor(Factor):
    """Coordinates are tuples under componentwise addition."""

    __slots__ = ()

    def add(self, a, b):
        return tuple(map(operator.add, a, b))

    def scale(self, a, k):
        return tuple([v * k for v in a])


@dataclass(frozen=True)
class RealFactor(_VectorFactor):
    dim: int
    kind = "real"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("real factor needs dim >= 1")

    @property
    def real_dim(self):
        return self.dim

    continuous_dim = real_dim

    def zero(self):
        return tuple(Scalar(0) for _ in range(self.dim))

    def canonical(self, c):
        vec = tuple(Scalar.of(v) for v in _as_tuple(c))
        if len(vec) != self.dim:
            raise SpaceMismatchError("real coordinate arity mismatch")
        return vec

    def to_obj(self):
        return {"factor": self.kind, "dim": self.dim}

    @classmethod
    def from_obj(cls, obj):
        return cls(obj["dim"])

    def coord_to_obj(self, c):
        return [v.to_obj() for v in c]

    def coord_from_obj(self, obj):
        return tuple(Scalar.from_obj(v) for v in obj)

    def lift_values(self, c):
        return list(c)

    def real_constant(self, value):
        return tuple(value for _ in range(self.dim))

    def distance_sq(self, a, b):
        return sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))

    def star_map(self, coords):
        # a float axis's sum_form sums term by term, in the fold's order
        return partial(_apply_each, [sum_form([c[i] for c in coords]) for i in range(self.dim)])


@dataclass(frozen=True)
class IntegerRankFactor(_VectorFactor):
    rank: int
    kind = "integer"

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("integer factor needs rank >= 1")

    @property
    def integer_rank(self):
        return self.rank

    def zero(self):
        return (0,) * self.rank

    def canonical(self, c):
        vec = tuple(int(v) for v in _as_tuple(c))
        if len(vec) != self.rank:
            raise SpaceMismatchError("integer coordinate arity mismatch")
        return vec

    def to_obj(self):
        return {"factor": self.kind, "rank": self.rank}

    @classmethod
    def from_obj(cls, obj):
        return cls(obj["rank"])

    def coord_to_obj(self, c):
        return list(c)

    def coord_from_obj(self, obj):
        return tuple(int(v) for v in obj)

    def lift_values(self, c):
        return [Scalar(v) for v in c]

    def star_map(self, coords):
        return partial(_apply_each, [partial(_dot, [c[i] for c in coords]) for i in range(self.rank)])


@dataclass(frozen=True)
class FiniteCyclicFactor(Factor):
    modulus: int
    kind = "cyclic"

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("cyclic factor needs modulus >= 2")

    def zero(self):
        return 0

    def canonical(self, c):
        return int(c) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def scale(self, a, k):
        return (a * k) % self.modulus

    def to_obj(self):
        return {"factor": self.kind, "modulus": self.modulus}

    @classmethod
    def from_obj(cls, obj):
        return cls(obj["modulus"])

    def coord_to_obj(self, c):
        return c

    def coord_from_obj(self, obj):
        return int(obj)

    def covolume_factor(self):
        return self.modulus

    def kernel_values(self, c):
        return [Scalar(c)]

    def kernel_relations(self):
        return [-self.modulus]

    def annihilator_shifts(self, coords):
        return [[-Scalar(c) / self.modulus for c in coords]]

    def star_map(self, coords):
        return partial(_residue, tuple(coords), self.modulus)


def _residue(coeffs, modulus: int, n) -> int:
    return _dot(coeffs, n) % modulus


class TorusFactor(Factor):
    """R^dim modulo the lattice spanned by the rows of ``basis``.

    Point coordinates are fractional (basis coefficients in [0, 1)); the
    ambient representative in the fundamental parallelepiped is derived.
    """

    __slots__ = ("dim", "basis", "_hash", "continuous_dim")
    kind = "torus"

    def __init__(self, dim: int, basis: tuple[tuple[Scalar, ...], ...]):
        self.dim = self.continuous_dim = dim
        self.basis = tuple(tuple(Scalar.of(v) for v in row) for row in basis)
        if len(self.basis) != dim or any(len(r) != dim for r in self.basis):
            raise ValueError("torus basis must be a square matrix")
        if linalg.det([list(r) for r in self.basis]).is_zero():
            raise ValueError("torus basis is singular")
        self._hash = None

    def mass(self) -> Scalar:
        return abs(linalg.det([list(r) for r in self.basis]))

    def fractional(self, ambient) -> tuple[Scalar, ...]:
        """Basis coefficients of an ambient vector, reduced into [0, 1)."""
        if all(
            self.basis[i][j].is_zero()
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        ):
            coeffs = [ambient[i] / self.basis[i][i] for i in range(self.dim)]
        else:
            mat = [[self.basis[i][j] for i in range(self.dim)] for j in range(self.dim)]
            (coeffs,) = linalg.solve_exact(mat, [list(ambient)])
        return tuple(c - c.floor() for c in coeffs)

    def ambient(self, fractional) -> tuple[Scalar, ...]:
        out = []
        for j in range(self.dim):
            acc = Scalar(0)
            for i in range(self.dim):
                acc = acc + fractional[i] * self.basis[i][j]
            out.append(acc)
        return tuple(out)

    def zero(self):
        return tuple(Scalar(0) for _ in range(self.dim))

    def canonical(self, c):
        vec = tuple(Scalar.of(v) for v in _as_tuple(c))
        if len(vec) != self.dim:
            raise SpaceMismatchError("torus coordinate arity mismatch")
        return self.fractional(vec)

    def add(self, a, b):
        summed = []
        for u, v in zip(a, b):
            s = u + v
            if s >= 1:
                s = s - 1
            summed.append(s)
        return tuple(summed)

    def scale(self, a, k):
        scaled = []
        for v in a:
            s = v * k
            scaled.append(s - s.floor())
        return tuple(scaled)

    def to_obj(self):
        return {
            "factor": self.kind,
            "dim": self.dim,
            "basis": [[v.to_obj() for v in row] for row in self.basis],
        }

    @classmethod
    def from_obj(cls, obj):
        basis = tuple(tuple(Scalar.from_obj(v) for v in row) for row in obj["basis"])
        return cls(obj["dim"], basis)

    def coord_to_obj(self, c):
        return [v.to_obj() for v in self.ambient(c)]

    def coord_from_obj(self, obj):
        return tuple(Scalar.from_obj(v) for v in obj)

    def covolume_factor(self):
        return self.mass()

    def kernel_values(self, c):
        return list(c)

    def kernel_relations(self):
        # coordinates are basis coefficients: basis vector i has coordinates e_i
        return [
            tuple(Scalar(-1 if j == i else 0) for j in range(self.dim))
            for i in range(self.dim)
        ]

    def annihilator_shifts(self, coords):
        raise ValueError("annihilator projection needs the base factor family")

    def star_map(self, coords):
        # an exact sum's fractional part; a float one takes the fold, whose
        # reductions after each term the closed form would not round alike
        try:
            forms = [LinearForm([c[i] for c in coords]) for i in range(self.dim)]
        except ExactnessError:
            return super().star_map(coords)
        return partial(_fractional_parts, forms)

    def __eq__(self, other):
        return (
            isinstance(other, TorusFactor)
            and self.dim == other.dim
            and self.basis == other.basis
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("torus", self.dim, self.basis))
        return self._hash

    def __repr__(self):
        return f"TorusFactor({self.dim}, {self.basis!r})"


def _fractional_parts(forms, n) -> tuple:
    values = [form(n) for form in forms]
    return tuple([v - v.floor() for v in values])


class TwistedExtensionFactor(Factor):
    """Cyclic extension of ``base`` with carry element ``twist``.

    Points are pairs (h, r) with h in the base and r in [0, modulus); adding
    residues past the modulus folds the carry back in via ``twist``.  Every
    method recurses into the base space; the residue adds one lifted and
    one kernel row, and the carry relation m * (0, 1) = (twist, 0) one
    column to each system.
    """

    __slots__ = ("base", "modulus", "twist", "_hash", "real_dim", "continuous_dim", "integer_rank")
    kind = "twisted"

    def __init__(self, base: "InternalSpace", modulus: int, twist: "HPoint"):
        if modulus < 1:
            raise ValueError("twisted extension needs modulus >= 1")
        if any(isinstance(f, TwistedExtensionFactor) for f in base.factors):
            raise ValueError("twisted extensions do not nest")
        if twist.space != base:
            raise SpaceMismatchError("twist element must live in the base space")
        self.base = base
        self.modulus = modulus
        self.twist = twist
        self._hash = None
        self.real_dim = base.real_dim
        self.continuous_dim = base.continuous_dim
        self.integer_rank = base.integer_rank

    def zero(self):
        return (self.base.zero(), 0)

    def canonical(self, c):
        h, r = c
        if h.space != self.base:
            raise SpaceMismatchError("twisted base coordinate mismatch")
        return self._reduce(h, int(r))

    def _reduce(self, h: "HPoint", r: int) -> tuple:
        s = r // self.modulus
        r -= s * self.modulus
        if s:
            h = self.base.add(h, self.base.scale(self.twist, s))
        return (h, r)

    def add(self, a, b):
        h1, r1 = a
        h2, r2 = b
        h = self.base.add(h1, h2)
        r = r1 + r2
        if r >= self.modulus:
            h = self.base.add(h, self.twist)
            r -= self.modulus
        return (h, r)

    def scale(self, a, k):
        h, r = a
        return self._reduce(self.base.scale(h, k), r * k)

    def to_obj(self):
        return {
            "factor": self.kind,
            "modulus": self.modulus,
            "base": self.base.to_obj(),
            "twist": self.twist.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj):
        base = InternalSpace.from_obj(obj["base"])
        return cls(base, obj["modulus"], HPoint.from_obj(base, obj["twist"]))

    def coord_to_obj(self, c):
        return {"base": c[0].to_obj(), "r": c[1]}

    def coord_from_obj(self, obj):
        return (HPoint.from_obj(self.base, obj["base"]), int(obj["r"]))

    def covolume_factor(self):
        return math.prod(f.covolume_factor() for f in self.base.factors)

    def lift_values(self, c):
        return self.base.lift_values(c[0]) + [Scalar(c[1])]

    def lift_relations(self):
        return [(self.twist, -self.modulus)]

    def kernel_values(self, c):
        return self.base.kernel_values(c[0]) + [Scalar(c[1])]

    def kernel_relations(self):
        return [(h, 0) for h in self.base.kernel_relations()] + [(self.twist, -self.modulus)]

    def annihilator_shifts(self, coords):
        raise ValueError("annihilator projection needs the base factor family")

    def star_map(self, coords):
        """The residue sum ``R``, and the base's maps over the generators and
        the twist at ``(n, R // modulus)``: each of the ``R // modulus``
        carries adds the twist once.  A float base takes the fold, whose
        float sums run in another order."""
        bases = [h for h, _ in coords] + [self.twist]
        if not all(v.is_exact for h in bases for v in self.base.kernel_values(h)):
            return super().star_map(coords)
        maps = [
            f.star_map([h.coords[i] for h in bases]) for i, f in enumerate(self.base.factors)
        ]
        return partial(_twisted, self.base, maps, tuple(r for _, r in coords), self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, TwistedExtensionFactor)
            and self.modulus == other.modulus
            and self.base == other.base
            and self.twist == other.twist
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("twist", self.modulus, self.base, self.twist))
        return self._hash

    def __repr__(self):
        return f"TwistedExtensionFactor({self.base!r}, {self.modulus}, {self.twist!r})"


def _twisted(base: "InternalSpace", maps, residues, modulus: int, n) -> tuple:
    carry, r = divmod(sum(map(operator.mul, n, residues)), modulus)
    lifted = (*n, carry)
    return (HPoint(base, tuple([f(lifted) for f in maps])), r)


_FACTOR_KINDS = {
    cls.kind: cls
    for cls in (RealFactor, IntegerRankFactor, FiniteCyclicFactor, TorusFactor, TwistedExtensionFactor)
}


class InternalSpace:
    __slots__ = ("factors", "_hash", "_zero")

    def __init__(self, factors=()):
        self.factors = tuple(factors)
        self._hash = self._zero = None

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, InternalSpace) and self.factors == other.factors

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.factors)
        return self._hash

    def __repr__(self):
        return f"InternalSpace({list(self.factors)!r})"

    # -- structure -------------------------------------------------------

    @property
    def continuous_dim(self) -> int:
        """Total real dimension (real, torus and twisted-base directions)."""
        return sum(f.continuous_dim for f in self.factors)

    @property
    def real_dim(self) -> int:
        return sum(f.real_dim for f in self.factors)

    @property
    def integer_rank(self) -> int:
        return sum(f.integer_rank for f in self.factors)

    def point_mass(self) -> Scalar:
        """Haar measure of a single point (1 on fully discrete spaces)."""
        return Scalar(0) if self.continuous_dim > 0 else Scalar(1)

    def lift_values(self, h: "HPoint") -> list[Scalar]:
        return [v for f, c in zip(self.factors, h.coords) for v in f.lift_values(c)]

    def kernel_values(self, h: "HPoint") -> list[Scalar]:
        return [v for f, c in zip(self.factors, h.coords) for v in f.kernel_values(c)]

    def lift_relations(self) -> list["HPoint"]:
        return self._embed_relations(lambda f: f.lift_relations())

    def kernel_relations(self) -> list["HPoint"]:
        return self._embed_relations(lambda f: f.kernel_relations())

    def _embed_relations(self, relations_of) -> list["HPoint"]:
        """Each factor's relation coordinates as (uncanonical) points, zero elsewhere."""
        zero = self.zero().coords
        return [
            HPoint(self, zero[:i] + (rel,) + zero[i + 1:])
            for i, f in enumerate(self.factors)
            for rel in relations_of(f)
        ]

    # -- point construction ------------------------------------------------

    def zero(self) -> "HPoint":
        if self._zero is None:
            self._zero = HPoint(self, tuple(f.zero() for f in self.factors))
        return self._zero

    def point(self, *coords) -> "HPoint":
        """Build a point, canonicalizing residues and torus representatives."""
        if len(coords) != len(self.factors):
            raise SpaceMismatchError(
                f"expected {len(self.factors)} factor coordinates, got {len(coords)}"
            )
        return HPoint(self, tuple(f.canonical(c) for f, c in zip(self.factors, coords)))

    # -- group operations ---------------------------------------------------

    def add(self, x: "HPoint", y: "HPoint") -> "HPoint":
        if x.space != self or y.space != self:
            raise SpaceMismatchError("operands from a different space")
        ops = zip(self.factors, x.coords, y.coords)
        return HPoint(self, tuple([f.add(a, b) for f, a, b in ops]))

    def negate(self, x: "HPoint") -> "HPoint":
        return self.scale(x, -1)

    def scale(self, x: "HPoint", k: int) -> "HPoint":
        if x.space != self:
            raise SpaceMismatchError("operand from a different space")
        return HPoint(self, tuple([f.scale(a, k) for f, a in zip(self.factors, x.coords)]))

    # -- serialization -------------------------------------------------------

    def to_obj(self):
        return {"factors": [f.to_obj() for f in self.factors]}

    @classmethod
    def from_obj(cls, obj) -> "InternalSpace":
        factors = []
        for fo in obj["factors"]:
            kind = fo["factor"]
            if kind not in _FACTOR_KINDS:
                raise ValueError(f"unknown factor kind {kind!r}")
            factors.append(_FACTOR_KINDS[kind].from_obj(fo))
        return cls(factors)


class HPoint:
    __slots__ = ("space", "coords", "_hash")

    def __init__(self, space: InternalSpace, coords: tuple):
        self.space = space
        self.coords = coords
        self._hash = None

    def __eq__(self, other):
        return (
            isinstance(other, HPoint)
            and self.space == other.space
            and self.coords == other.coords
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coords)
        return self._hash

    def __repr__(self):
        return f"HPoint({self.coords!r})"

    def to_obj(self):
        return {"coords": [f.coord_to_obj(c) for f, c in zip(self.space.factors, self.coords)]}

    @classmethod
    def from_obj(cls, space: InternalSpace, obj) -> "HPoint":
        return space.point(
            *(f.coord_from_obj(c) for f, c in zip(space.factors, obj["coords"]))
        )


def haar_measure(space: InternalSpace, region) -> Scalar:
    """Haar measure of a window region, under the package's normalization.

    Lebesgue measure on real directions, counting measure on discrete
    factors, total mass |det basis| on each torus factor.
    """
    if region.space != space:
        raise SpaceMismatchError("region lives in a different space")
    return region.measure()
