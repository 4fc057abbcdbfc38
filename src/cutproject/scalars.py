"""Exact scalar arithmetic for lattice and window computations.

An exact scalar is a finite rational combination of *monomials*.  A monomial
is a product of prime powers with fractional exponents in (0, 1) (for example
``5^(1/2)`` or ``2^(2/3)``) optionally multiplied by an integer power of a
single named constant (``pi`` or ``e``).  Distinct monomials of this kind are
linearly independent over the rationals, so the representation is a normal
form, and a nonzero value stays provably nonzero, which makes sign
determination by interval refinement terminate.

Monomials are interned: each distinct monomial gets a small integer id in a
module-level table, id 0 being the unit monomial.  The product of two ids is
cached as ``(id, carry)``; the carry is the positive integer made of the
primes whose exponents passed 1.  An exact scalar stores integer numerators
keyed by monomial id over one positive common denominator, reduced so that
the numerators and the denominator share no factor (the order-basis
representation of Cohen, *A Course in Computational Algebraic Number Theory*,
1993, §4.2).  Sums, differences and products are integer operations, and
equality is one integer comparison plus one dictionary comparison.
``Scalar.terms()`` gives the value back as ``{monomial: Fraction}``.

Every integer enclosure of an exact scalar follows one rounding rule
(``_bounds_per_term``): each term, its numerator times a cached
per-monomial enclosure, is floored and ceiled over the denominator on its
own.  ``bounds()``, ``to_float()``, the digit ladder of ``sign`` and
``floor``, and the enumeration's enclosures in ``scheme`` all read it.  A
scalar computes its 12-digit enclosure once and keeps it.  ``<``, ``<=``,
``>`` and ``>=`` answer equal operands exactly; otherwise two disjoint
enclosures decide the order, and only when they overlap is the sign of the
difference refined along the digit ladder.  Each step is a rigorous decision.

``sum_form`` is the one chooser of the form of ``n -> sum(n[j] *
values[j])``: an exact ``LinearForm``, a ``FloatForm`` when every value is a
float, else the term-by-term ``ScalarSum``.  Each gives the value ``Scalar``
arithmetic gives for the same sum.

A scalar may instead carry a plain float; float scalars are contagious and
compare within the fixed tolerance ``FLOAT_EPS``, which no option changes.
An operation with a float operand works on two Python floats: an exact
operand contributes its float, computed once and kept.  Exact mode is
authoritative everywhere.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

from .ratmath import factorize, iroot, solve

Rad = tuple[tuple[int, Fraction], ...]
Sym = tuple[tuple[str, int], ...]
Mono = tuple[Rad, Sym]

_UNIT: Mono = ((), ())
_DIGITS_LADDER = (12, 24, 48, 96, 192, 384, 768, 1536)
_ENCLOSURE_DIGITS = _DIGITS_LADDER[0]

FLOAT_EPS = 1e-9  # float-mode comparison tolerance


class ExactnessError(ArithmeticError):
    """Raised when an operation cannot be carried out exactly."""


def _mono_mul(a: Mono, b: Mono) -> tuple[Mono, int]:
    """Product of two monomials, returning (monomial, integer carry)."""
    carry = 1
    exps: dict[int, Fraction] = dict(a[0])
    for p, e in b[0]:
        exps[p] = exps.get(p, Fraction(0)) + e
    rad = []
    for p in sorted(exps):
        e = exps[p]
        k = e.numerator // e.denominator
        e -= k
        if k:
            carry *= p ** k
        if e:
            rad.append((p, e))
    syms: dict[str, int] = dict(a[1])
    for s, k in b[1]:
        syms[s] = syms.get(s, 0) + k
    sym = tuple((s, syms[s]) for s in sorted(syms) if syms[s])
    return (tuple(rad), sym), carry


def _mono_inv(m: Mono) -> tuple[Mono, int]:
    """``m**-1`` as (monomial, integer divisor)."""
    divisor = 1
    rad = []
    for p, e in m[0]:
        # p^-e = p^(1-e) / p
        divisor *= p
        rad.append((p, 1 - e))
    sym = tuple((s, -k) for s, k in m[1])
    return (tuple(rad), sym), divisor


# ---------------------------------------------------------------------------
# The monomial table: id -> monomial, its constant, cached products


class _MonoHash:
    """Stands for a monomial inside a hashed tuple: it hashes as the monomial."""

    __slots__ = ("value",)

    def __init__(self, mono: Mono):
        self.value = hash(mono)

    def __hash__(self):
        return self.value


_MONOS: list[Mono] = [_UNIT]
_MONO_IDS: dict[Mono, int] = {_UNIT: 0}
_MONO_SYMS: list[str | None] = [None]
_MONO_HASHES: list[_MonoHash] = [_MonoHash(_UNIT)]
_MONO_PRODUCTS: dict[tuple[int, int], tuple[int, int]] = {}


def _single_name(names) -> str | None:
    """The one named constant of the set ``names``, or None; refuses two."""
    if len(names) > 1:
        raise ExactnessError(f"cannot mix constants {sorted(names)} in one value")
    return next(iter(names), None)


def _intern(m: Mono) -> int:
    i = _MONO_IDS.get(m)
    if i is None:
        sym = _single_name({s for s, _ in m[1]})
        i = len(_MONOS)
        _MONOS.append(m)
        _MONO_SYMS.append(sym)
        _MONO_HASHES.append(_MonoHash(m))
        _MONO_IDS[m] = i
    return i


_HASH_MODULUS = sys.hash_info.modulus


def _coefficient_hash(n: int, d: int) -> int:
    """``hash(Fraction(n, d))`` for ``d > 0`` without building the Fraction.

    This is the numeric hash of the Python reference, ``|n| * d**-1 mod P``
    with the sign of ``n``; the result lies strictly between -P and P and is
    never -1, so an int holding it hashes to itself.
    """
    if d == 1:
        return hash(n)
    try:
        dinv = pow(d, -1, _HASH_MODULUS)
    except ValueError:
        return hash(Fraction(n, d))
    h = hash(hash(abs(n)) * dinv)
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _mono_product(i: int, j: int) -> tuple[int, int]:
    key = (i, j)
    out = _MONO_PRODUCTS.get(key)
    if out is None:
        m, carry = _mono_mul(_MONOS[i], _MONOS[j])
        out = (_intern(m), carry)
        _MONO_PRODUCTS[key] = _MONO_PRODUCTS[(j, i)] = out
    return out


# ---------------------------------------------------------------------------
# Interval enclosures of monomials, cached per precision


_ENCLOSURES: dict[tuple, tuple[Fraction, Fraction]] = {}


def _pow_bounds(p: int, e: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    key = ("pow", p, e, digits)
    if key not in _ENCLOSURES:
        scale = 10 ** digits
        r = iroot(p ** e.numerator * scale ** e.denominator, e.denominator)
        _ENCLOSURES[key] = (Fraction(r, scale), Fraction(r + 1, scale))
    return _ENCLOSURES[key]


def _atan_inv_scaled(x: int, scale: int) -> tuple[int, int]:
    total = 0
    err = 0
    k = 0
    while True:
        t = scale // ((2 * k + 1) * x ** (2 * k + 1))
        if t == 0:
            err += 1
            break
        total += -t if k % 2 else t
        err += 1
        k += 1
    return total - err, total + err


def _const_bounds(name: str, digits: int) -> tuple[Fraction, Fraction]:
    key = ("const", name, digits)
    if key in _ENCLOSURES:
        return _ENCLOSURES[key]
    scale = 10 ** (digits + 4)
    if name == "pi":
        lo5, hi5 = _atan_inv_scaled(5, scale)
        lo239, hi239 = _atan_inv_scaled(239, scale)
        lo, hi = 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239
    elif name == "e":
        total, term, k = 0, scale, 0
        while term:
            total += term
            k += 1
            term //= k
        lo, hi = total - k, total + k + 2
    else:
        raise ValueError(f"unknown constant {name!r}")
    out = (Fraction(lo, scale), Fraction(hi, scale))
    _ENCLOSURES[key] = out
    return out


def _mono_bounds(m: Mono, digits: int) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(1), Fraction(1)
    for p, e in m[0]:
        plo, phi = _pow_bounds(p, e, digits)
        lo, hi = lo * plo, hi * phi
    for s, k in m[1]:
        clo, chi = _const_bounds(s, digits)
        if k > 0:
            lo, hi = lo * clo ** k, hi * chi ** k
        else:
            lo, hi = lo / chi ** (-k), hi / clo ** (-k)
    return lo, hi


_MONO_INT: dict[tuple[int, int], tuple[int, int]] = {}


def _mono_int_bounds(i: int, digits: int) -> tuple[int, int]:
    """Integer enclosure of monomial ``i`` at scale 10**digits."""
    key = (i, digits)
    out = _MONO_INT.get(key)
    if out is None:
        lo, hi = _mono_bounds(_MONOS[i], digits)
        scale = 10 ** digits
        out = (
            (lo.numerator * scale) // lo.denominator,
            -((-hi.numerator * scale) // hi.denominator),
        )
        _MONO_INT[key] = out
    return out


def _symbol(num: dict[int, int]) -> str | None:
    """The named constant occurring in ``num``, if any."""
    for i in num:
        s = _MONO_SYMS[i]
        if s is not None:
            return s
    return None


def _joint_symbol(a: "Scalar", b: "Scalar") -> str | None:
    """The constant of a sum or product of ``a`` and ``b``; refuses two."""
    return _single_name({a._sym, b._sym} - {None})


_object_new = object.__new__


def _new(num: dict[int, int], den: int, sym: str | None) -> "Scalar":
    """An exact scalar from reduced parts; ``num`` holds no zero."""
    s = _object_new(Scalar)
    s._num = num
    s._den = den
    s._float = None
    s._hash = None
    s._enc = None
    s._sym = sym
    return s


def _reduced(num: dict[int, int], den: int, sym: str | None) -> "Scalar":
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {i: c // g for i, c in num.items()}
            den //= g
    return _new(num, den, sym)


class Scalar:
    # exact: _num {monomial id: int numerator}, _den positive int, _sym the
    # constant name or None, _enc the cached 12-digit enclosure, _float the
    # cached to_float() or None; float: _num is None and _float holds the
    # value.  _num is None is the only float/exact test.
    __slots__ = ("_num", "_den", "_float", "_hash", "_enc", "_sym")

    def __init__(self, value: int | float | Fraction = 0):
        self._hash = None
        self._enc = None
        self._sym = None
        if type(value) is int:
            self._num = {0: value} if value else {}
            self._den = 1
            self._float = None
        elif isinstance(value, float):
            self._num = None
            self._den = 1
            self._float = value
        else:
            v = Fraction(value)
            self._num = {0: v.numerator} if v else {}
            self._den = v.denominator
            self._float = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, terms: dict[Mono, Fraction]) -> "Scalar":
        den = math.lcm(*(c.denominator for c in terms.values()))
        num = {
            _intern(m): c.numerator * (den // c.denominator)
            for m, c in terms.items()
            if c
        }
        return _reduced(num, den, _single_name({_MONO_SYMS[i] for i in num} - {None}))

    @classmethod
    def from_float(cls, value: float) -> "Scalar":
        return cls(float(value))

    @classmethod
    def root(cls, radicand: int | Fraction, index: int) -> "Scalar":
        """The positive real ``radicand ** (1/index)``."""
        if index < 1:
            raise ValueError("index must be >= 1")
        radicand = Fraction(radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        if index == 1:
            return cls(radicand)
        out = cls(1)
        for n, top in ((radicand.numerator, True), (radicand.denominator, False)):
            exps: dict[int, Fraction] = {}
            carry = 1
            for p, k in factorize(n).items():
                e = Fraction(k, index)
                w = e.numerator // e.denominator
                e -= w
                carry *= p ** w
                if e:
                    exps[p] = e
            mono: Mono = (tuple(sorted(exps.items())), ())
            piece = cls._make({mono: Fraction(carry)})
            out = out * piece if top else out / piece
        return out

    @classmethod
    def sqrt(cls, radicand: int | Fraction) -> "Scalar":
        return cls.root(radicand, 2)

    @classmethod
    def const(cls, name: str) -> "Scalar":
        if name not in ("pi", "e"):
            raise ValueError(f"unknown constant {name!r}")
        return cls._make({((), ((name, 1),)): Fraction(1)})

    @classmethod
    def of(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, float):
            return cls.from_float(value)
        return cls(Fraction(value))

    # -- predicates and the monomial view ------------------------------

    @property
    def is_exact(self) -> bool:
        return self._num is not None

    @property
    def is_rational(self) -> bool:
        num = self._num
        return num is not None and (not num or (len(num) == 1 and 0 in num))

    @property
    def is_algebraic(self) -> bool:
        return self._num is not None and self._sym is None

    @property
    def constant(self) -> str | None:
        """The named constant an exact value involves, or None."""
        return self._sym

    def terms(self) -> dict[Mono, Fraction]:
        """A fresh ``{monomial: nonzero rational coefficient}`` of an exact value."""
        if self._num is None:
            raise ExactnessError("a float scalar has no monomial terms")
        den = self._den
        return {_MONOS[i]: Fraction(c, den) for i, c in self._num.items()}

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ExactnessError(f"{self} is not rational")
        return Fraction(self._num.get(0, 0), self._den)

    def is_zero(self) -> bool:
        if self._num is not None:
            return not self._num
        return abs(self._float) <= FLOAT_EPS

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def _add_int(self, k: int) -> "Scalar":
        """``self + k`` for an exact ``self``; the sum stays reduced."""
        if not k:
            return self
        den = self._den
        num = dict(self._num)
        c = num.get(0, 0) + k * den
        if c:
            num[0] = c
        else:
            del num[0]
        return _new(num, den, self._sym)

    def _combine(self, o: "Scalar", k: int) -> "Scalar":
        """``self + k*o`` for exact operands and ``k`` = 1 or -1."""
        a, b = self._num, o._num
        if not b:
            return self
        if not a:
            return o if k == 1 else -o
        sym = None
        if self._sym is not None or o._sym is not None:
            sym = _joint_symbol(self, o)
        da, db = self._den, o._den
        if da == db:
            den, fb = da, k
            num = dict(a)
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g * k
            den = da * fa
            num = {i: c * fa for i, c in a.items()}
        for i, c in b.items():
            c = num.get(i, 0) + c * fb
            if c:
                num[i] = c
            else:
                del num[i]
        if sym is not None:
            sym = _symbol(num)
        return _reduced(num, den, sym)

    def __add__(self, other):
        if type(other) is int:
            if self._num is None:
                return Scalar(self._float + other)
            return self._add_int(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._num is None or o._num is None:
            return Scalar(self.to_float() + o.to_float())
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        if self._num is None:
            return Scalar.from_float(-self._float)
        return _new({i: -c for i, c in self._num.items()}, self._den, self._sym)

    def _neg_float(self) -> float:
        """The float of ``-self``; an exact zero gives ``+0.0``, as ``-x`` does."""
        if self._num is None:
            return -self._float
        return 0.0 - self.to_float()

    def __sub__(self, other):
        # a float difference is a + (-b), never a - b: an exact or int zero
        # negates to +0.0, so -0.0 minus zero is 0.0, where a - b gives -0.0
        if type(other) is int:
            if self._num is None:
                return Scalar(self._float + (-other))
            return self._add_int(-other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._num is None or o._num is None:
            return Scalar(self.to_float() + o._neg_float())
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._num is None or o._num is None:
            return Scalar(o.to_float() + self._neg_float())
        return o._combine(self, -1)

    def _mul_int(self, k: int) -> "Scalar":
        """``self * k`` for an exact ``self``."""
        if not k or not self._num:
            return Scalar(0)
        den = self._den
        if den != 1:
            g = math.gcd(k, den)
            if g != 1:
                k //= g
                den //= g
        return _new({i: c * k for i, c in self._num.items()}, den, self._sym)

    def __mul__(self, other):
        if type(other) is int:
            if self._num is None:
                return Scalar(self._float * other)
            return self._mul_int(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._num, o._num
        if a is None or b is None:
            return Scalar(self.to_float() * o.to_float())
        if not a or not b:
            return Scalar(0)
        sym = None
        if self._sym is not None or o._sym is not None:
            sym = _joint_symbol(self, o)
        num: dict[int, int] = {}
        for i, ci in a.items():
            for j, cj in b.items():
                if not i:
                    m, carry = j, 1
                elif not j:
                    m, carry = i, 1
                else:
                    m, carry = _MONO_PRODUCTS.get((i, j)) or _mono_product(i, j)
                num[m] = num.get(m, 0) + ci * cj * carry
        num = {m: c for m, c in num.items() if c}
        if sym is not None:
            sym = _symbol(num)
        return _reduced(num, self._den * o._den, sym)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._num is None or o._num is None:
            return Scalar.from_float(self.to_float() / o.to_float())
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "Scalar":
        num = self._num
        if num is None:
            return Scalar.from_float(1.0 / self._float)
        if not num:
            raise ZeroDivisionError("scalar division by zero")
        if len(num) == 1:
            # (c/den * m)^-1 = den/c * m' / divisor
            ((i, c),) = num.items()
            m, divisor = _mono_inv(_MONOS[i])
            j = _intern(m)
            out = {j: self._den if c > 0 else -self._den}
            return _reduced(out, abs(c) * divisor, _MONO_SYMS[j])
        if not self.is_algebraic:
            raise ExactnessError("cannot invert a sum involving pi or e exactly")
        return self._algebraic_inverse()

    def _algebraic_inverse(self) -> "Scalar":
        terms = self.terms()
        orders: dict[int, int] = {}
        for m in terms:
            for p, e in m[0]:
                orders[p] = math.lcm(orders.get(p, 1), e.denominator)
        primes = sorted(orders)
        dim = math.prod(orders[p] for p in primes)
        if dim > 256:
            raise ExactnessError("radical extension too large to invert")
        basis: list[Mono] = []
        index: dict[Mono, int] = {}

        def build(i: int, acc: list[tuple[int, Fraction]]):
            if i == len(primes):
                mono: Mono = (tuple(acc), ())
                index[mono] = len(basis)
                basis.append(mono)
                return
            p = primes[i]
            for a in range(orders[p]):
                build(i + 1, acc + ([(p, Fraction(a, orders[p]))] if a else []))

        build(0, [])
        mat = [[Fraction(0)] * dim for _ in range(dim)]
        for j, bj in enumerate(basis):
            for m, c in terms.items():
                mm, carry = _mono_mul(m, bj)
                mat[index[mm]][j] += c * carry
        rhs = [Fraction(0)] * dim
        rhs[index[_UNIT]] = Fraction(1)
        sol = solve(mat, rhs)
        if sol is None:
            raise ZeroDivisionError("scalar is not invertible")
        return Scalar._make({basis[i]: sol[i] for i in range(dim)})

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order, sign, floor ---------------------------------------------

    def _bounds_per_term(self, digits: int) -> tuple[int, int]:
        """Integer enclosure at scale 10**digits, each term rounded on its own:
        the one rounding rule of every enclosure of an exact scalar."""
        lo = 0
        hi = 0
        den = self._den
        for i, c in self._num.items():
            mlo, mhi = _MONO_INT.get((i, digits)) or _mono_int_bounds(i, digits)
            if c >= 0:
                a, b = c * mlo, c * mhi
            else:
                a, b = c * mhi, c * mlo
            lo += a // den
            hi += -((-b) // den)
        return lo, hi

    def _enclosure(self) -> tuple[int, int]:
        """The 12-digit enclosure, computed once per scalar."""
        enc = self._enc
        if enc is None:
            enc = self._enc = self._bounds_per_term(_ENCLOSURE_DIGITS)
        return enc

    def _ladder(self):
        """``(digits, lo, hi)`` enclosures along the digit ladder, the kept
        12-digit one first."""
        yield (_ENCLOSURE_DIGITS, *self._enclosure())
        for digits in _DIGITS_LADDER[1:]:
            yield (digits, *self._bounds_per_term(digits))

    def bounds(self, digits: int) -> tuple[Fraction, Fraction]:
        """A rigorous rational enclosure, roughly ``digits`` decimals wide."""
        if self._num is None:
            v = Fraction(self._float)
            return v, v
        lo, hi = self._bounds_per_term(digits)
        scale = 10 ** digits
        return Fraction(lo, scale), Fraction(hi, scale)

    def magnitude(self) -> Fraction:
        """An upper bound on ``abs(self)`` and on every term of it: the sum of
        the terms' absolute values, each monomial counted as at least 1."""
        return Fraction(*self.magnitude_ratio())

    def magnitude_ratio(self) -> tuple[int, int]:
        """``magnitude()`` as an integer ratio ``(num, den)``, not reduced."""
        if self._num is None:
            num, den = self._float.as_integer_ratio()
            return abs(num), den
        scale = 10 ** _ENCLOSURE_DIGITS
        total = sum(
            abs(c) * max(scale, _mono_int_bounds(i, _ENCLOSURE_DIGITS)[1])
            for i, c in self._num.items()
        )
        return total, self._den * scale

    def sign(self) -> int:
        num = self._num
        if num is None:
            if abs(self._float) <= FLOAT_EPS:
                return 0
            return 1 if self._float > 0 else -1
        if not num:
            return 0
        if len(num) == 1:
            (c,) = num.values()
            return 1 if c > 0 else -1
        for _, lo, hi in self._ladder():
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        raise ExactnessError(f"sign undecided for {self!r}")

    def _compare(self, o: "Scalar") -> int:
        """Sign of ``self - o`` for exact operands, deciding on enclosures first."""
        if self._den == o._den and self._num == o._num:
            return 0
        if self._sym is not None and o._sym is not None:
            _joint_symbol(self, o)  # the difference of pi and e values is refused
        alo, ahi = self._enc or self._enclosure()
        blo, bhi = o._enc or o._enclosure()
        if ahi < blo:
            return -1
        if alo > bhi:
            return 1
        return self._combine(o, -1).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._num is not None and o._num is not None:
            return self._den == o._den and self._num == o._num
        return abs(self.to_float() - o.to_float()) <= FLOAT_EPS

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._num is not None and o._num is not None:
            return self._compare(o) < 0
        return self.to_float() - o.to_float() < -FLOAT_EPS

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._num is not None and o._num is not None:
            return self._compare(o) <= 0
        return self.to_float() - o.to_float() <= FLOAT_EPS

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__lt__(self)

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__le__(self)

    def __hash__(self):
        if self._hash is None:
            if self._num is None:
                self._hash = hash(("float", self._float))
            elif self.is_rational:
                self._hash = hash(self.as_fraction())
            else:
                # the hash of frozenset(self.terms().items()), from cached
                # monomial hashes and without building a Fraction
                den = self._den
                self._hash = hash(
                    frozenset(
                        (_MONO_HASHES[i], _coefficient_hash(c, den))
                        for i, c in self._num.items()
                    )
                )
        return self._hash

    def floor(self) -> int:
        if self._num is None:
            return math.floor(self._float)
        if self.is_rational:
            return self._num.get(0, 0) // self._den
        for digits, lo, hi in self._ladder():
            scale = 10 ** digits
            flo, fhi = lo // scale, hi // scale
            if flo == fhi:
                return flo
        raise ExactnessError(f"floor undecided for {self!r}")

    __floor__ = floor

    def to_float(self) -> float:
        """The value as a float; an exact value's is the midpoint of its
        ``_bounds_per_term(18)``, computed once and kept."""
        f = self._float
        if f is None:
            f = self._float = sum(self._bounds_per_term(18)) / (2 * 10 ** 18)
        return f

    __float__ = to_float

    # -- presentation & serialization -----------------------------------

    def __repr__(self):
        if self._num is None:
            return f"Scalar.from_float({self._float!r})"
        if not self._num:
            return "0"
        parts = []
        for m, c in sorted(self.terms().items(), key=lambda kv: (kv[0] != _UNIT, kv[0])):
            factors = [str(c)] if (c != 1 or m == _UNIT) else []
            for p, e in m[0]:
                factors.append(f"{p}^({e})")
            for s, k in m[1]:
                factors.append(s if k == 1 else f"{s}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def _as_quad(self) -> tuple[int, Fraction, Fraction] | None:
        """Decompose as a + b*sqrt(D) when possible (D squarefree > 1)."""
        if self._num is None or not self._num:
            return None
        a = Fraction(0)
        b = None
        d = None
        for m, c in self.terms().items():
            if m == _UNIT:
                a = c
            elif not m[1] and all(e == Fraction(1, 2) for _, e in m[0]):
                if b is not None:
                    return None
                b = c
                d = math.prod(p for p, _ in m[0])
            else:
                return None
        if b is None:
            return None
        return d, a, b

    def to_obj(self):
        if self._num is None:
            return {"type": "float", "value": self._float}
        if self.is_rational:
            return {"type": "rat", "v": str(self.as_fraction())}
        quad = self._as_quad()
        if quad is not None:
            d, a, b = quad
            return {"type": "quad", "d": d, "a": str(a), "b": str(b)}
        terms = []
        for m, c in sorted(self.terms().items()):
            terms.append(
                {
                    "c": str(c),
                    "rad": [[p, str(e)] for p, e in m[0]],
                    "sym": [[s, k] for s, k in m[1]],
                }
            )
        return {"type": "alg", "terms": terms}

    @classmethod
    def from_obj(cls, obj) -> "Scalar":
        if isinstance(obj, (int, str)):
            return cls(Fraction(obj))
        kind = obj["type"]
        if kind == "float":
            return cls.from_float(obj["value"])
        if kind == "rat":
            return cls(Fraction(obj["v"]))
        if kind == "quad":
            root = cls.sqrt(obj["d"])
            return cls(Fraction(obj["a"])) + cls(Fraction(obj["b"])) * root
        if kind == "alg":
            terms: dict[Mono, Fraction] = {}
            for t in obj["terms"]:
                rad = tuple((int(p), Fraction(e)) for p, e in t["rad"])
                sym = tuple((str(s), int(k)) for s, k in t["sym"])
                terms[(rad, sym)] = Fraction(t["c"])
            return cls._make(terms)
        raise ValueError(f"unknown scalar encoding {kind!r}")


def floats(values) -> list[float]:
    """``[v.to_float() for v in values]``, reading a kept float in place."""
    return [v.to_float() if v._float is None else v._float for v in values]


def _midpoints(vectors, rows, den: int) -> list[float]:
    """The float of ``sum(c * monomial) / den`` for each integer vector ``n``,
    where each row ``(coeffs, mlo, mhi)`` gives one monomial's coefficient
    ``c = sum(n[j] * coeffs[j])`` and its 10**18 ``_MONO_INT`` enclosure: the
    midpoint of the value's ``_bounds_per_term(18)``, as ``to_float`` takes it;
    floor(g*c*m / (g*den)) = floor(c*m / den).
    """
    out = []
    mul = operator.mul
    for n in vectors:
        lo = hi = 0
        for coeffs, mlo, mhi in rows:
            c = sum(map(mul, n, coeffs))
            if c >= 0:
                lo += c * mlo // den
                hi -= -c * mhi // den
            else:
                lo += c * mhi // den
                hi -= -c * mlo // den
        out.append((lo + hi) / (2 * 10 ** 18))
    return out


class LinearForm:
    """The exact value ``sum(n[j] * values[j])`` for integer vectors ``n``.

    The values' numerators are put on one common denominator, so a value
    is one integer dot product per monomial followed by one reduction: the
    order-basis form ``Scalar`` keeps, and the value ``Scalar`` arithmetic
    gives for the same sum.  The values must be exact and involve at most
    one named constant.
    """

    __slots__ = ("den", "rows", "has_constant")

    def __init__(self, values):
        if any(v._num is None for v in values):
            raise ExactnessError("a linear form needs exact values")
        self.has_constant = _single_name({v._sym for v in values} - {None}) is not None
        self.den = math.lcm(*(v._den for v in values))
        monos = sorted({i for v in values for i in v._num})
        self.rows = tuple(
            (i, tuple(v._num.get(i, 0) * (self.den // v._den) for v in values))
            for i in monos
        )

    def __call__(self, n) -> Scalar:
        num = {}
        for i, coeffs in self.rows:
            c = sum(map(operator.mul, n, coeffs))
            if c:
                num[i] = c
        return _reduced(num, self.den, _symbol(num) if self.has_constant else None)

    def floats(self, vectors, enclosures=None, digits: int = 18) -> list[float]:
        """``[self(n).to_float() for n in vectors]`` without building a value.

        ``to_float`` rounds the midpoint of an 18-digit enclosure ``[L, H]``,
        and ``H - L <= w``, the sum over monomials of ``(cbar * (mhi - mlo) +
        den) // den + 2``, ``cbar`` the reach of the monomial's coefficient
        over ``vectors``.  Given ``enclosures``, one integer ``(lo, hi)`` per
        vector with ``lo <= 10**digits * self(n) <= hi`` (``digits >= 18``),
        a value whose ends, widened by ``w * 10**(digits - 18)``, divide to
        one float takes that float: integer true division is correctly
        rounded, so monotone, and the midpoint lies between the widened
        ends.  Every other value takes one ``_midpoints`` pass, each
        monomial's 18-digit enclosure fetched once, as ``to_float`` takes it.
        """
        rows = [(coeffs, *(_MONO_INT.get((i, 18)) or _mono_int_bounds(i, 18)))
                for i, coeffs in self.rows]
        if enclosures is None:
            return _midpoints(vectors, rows, self.den)
        den = self.den
        reach = [max(max(col), -min(col)) for col in zip(*vectors)]
        pad = 10 ** (digits - 18) * sum(
            (sum(map(operator.mul, map(abs, coeffs), reach)) * (mhi - mlo) + den) // den + 2
            for coeffs, mlo, mhi in rows
        )
        scale = 10 ** digits
        out = [(lo - pad) / scale for lo, _ in enclosures]
        highs = [(hi + pad) / scale for _, hi in enclosures]
        misses = [k for k, (f, g) in enumerate(zip(out, highs)) if f != g]
        for k, f in zip(misses, _midpoints([vectors[k] for k in misses], rows, den)):
            out[k] = f
        return out


class FloatForm:
    """``sum(n[j] * values[j])`` over float values as ``Scalar`` float
    arithmetic sums it: ``0.0 + x * k`` at the first nonzero ``k``, then
    ``acc + x * k``, and the exact ``Scalar(0)`` when every ``k`` is 0."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = [v.to_float() for v in values]

    def _sum(self, n) -> float | None:
        acc = None
        for k, x in zip(n, self.values):
            if k:
                acc = 0.0 + x * k if acc is None else acc + x * k
        return acc

    def __call__(self, n) -> Scalar:
        acc = self._sum(n)
        return Scalar(0) if acc is None else Scalar(acc)

    def floats(self, vectors) -> list[float]:
        return [0.0 if acc is None else acc for acc in map(self._sum, vectors)]


class ScalarSum:
    """``sum(n[j] * values[j])`` in ``Scalar`` arithmetic, term by term: the
    form of values that mix exact and float ones, or two named constants."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    def __call__(self, n) -> Scalar:
        out = Scalar(0)
        for k, x in zip(n, self.values):
            if k:
                out = out + x * k
        return out

    def floats(self, vectors) -> list[float]:
        return floats([self(n) for n in vectors])


def _apply_each(forms, n) -> tuple:
    """``form(n)`` for each of ``forms``, as a tuple."""
    return tuple([form(n) for form in forms])


def sum_form(values):
    """``n -> sum(n[j] * values[j])`` as ``Scalar`` arithmetic computes it: a
    ``LinearForm`` where one applies, a ``FloatForm`` when every value is a
    float, else the term-by-term ``ScalarSum``.  Each has ``floats``."""
    try:
        return LinearForm(values)
    except ExactnessError:
        if all(v._num is None for v in values):
            return FloatForm(values)
        return ScalarSum(values)


ONE = Scalar(1)
SQRT5 = Scalar.sqrt(5)
GOLDEN = (ONE + SQRT5) / 2
GOLDEN_CONJ = (ONE - SQRT5) / 2


# ---------------------------------------------------------------------------
# A small expression grammar for CLI flags and window files:
#   atoms: integers, pi, e, golden, sqrt(n), root(n, k)
#   operators: + - * / ^ and parentheses


def parse_scalar(text: str) -> Scalar:
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"bad scalar expression {text!r}")
        pos[0] += 1
        return tok

    def atom() -> Scalar:
        tok = take()
        if tok == "(":
            v = expr()
            take(")")
            return v
        if tok == "-":
            return -atom()
        if isinstance(tok, int):
            return Scalar(tok)
        if tok in ("pi", "e"):
            return Scalar.const(tok)
        if tok == "golden":
            return GOLDEN
        if tok in ("sqrt", "root"):
            take("(")
            args = [expr()]
            while peek() == ",":
                take(",")
                args.append(expr())
            take(")")
            if tok == "sqrt":
                (arg,) = args
                return Scalar.root(arg.as_fraction(), 2)
            base, k = args
            return Scalar.root(base.as_fraction(), int(k.as_fraction()))
        raise ValueError(f"bad token {tok!r} in {text!r}")

    def power() -> Scalar:
        v = atom()
        while peek() == "^":
            take("^")
            e = atom()
            v = v ** int(e.as_fraction())
        return v

    def term() -> Scalar:
        v = power()
        while peek() in ("*", "/"):
            op = take()
            rhs = power()
            v = v * rhs if op == "*" else v / rhs
        return v

    def expr() -> Scalar:
        v = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            v = v + rhs if op == "+" else v - rhs
        return v

    out = expr()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in scalar expression {text!r}")
    return out


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch in "+-*/^(),":
            out.append(ch)
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in scalar expression")
    return out
