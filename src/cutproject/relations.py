"""Integer relation detection over exact scalars and floats.

Exact values that involve at most one of pi and e admit a complete
decision: a rational relation among them corresponds to a kernel vector of
their monomial coordinate matrix.  Their monomials are algebraic numbers
times powers of one constant, which are linearly independent over the
rationals because pi (Lindemann 1882) and e (Hermite 1873) are
transcendental.  Float inputs, and sets that mix pi and e, fall back to a classic LLL search on a scaled value column,
which is heuristic and bounded; every candidate found that way is re-checked
exactly when the inputs allow it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, ratmath
from .scalars import Scalar


@dataclass
class RelationCertificate:
    method: str  # "exact-kernel" or "lll-heuristic"
    bound: int
    passed: bool
    witness: list[int] | None = None
    note: str = ""

    def to_obj(self):
        return {
            "method": self.method,
            "bound": self.bound,
            "passed": self.passed,
            "witness": self.witness,
            "note": self.note,
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(
            obj["method"], obj["bound"], obj["passed"], obj.get("witness"), obj.get("note", "")
        )


def exact_relation(values: list[Scalar]) -> list[int] | None:
    """A nonzero integer relation among exact values, or None if independent."""
    if not all(v.is_exact for v in values):
        raise ValueError("exact_relation needs exact scalars")
    kernel = linalg.integer_kernel([values])
    if not kernel:
        return None
    acc = Scalar(0)
    for c, v in zip(kernel[0], values):
        acc = acc + v * c
    assert acc.is_zero()
    return kernel[0]


def lll_relation(values, bound: int) -> list[int] | None:
    """Bounded heuristic relation search; None means none found at this scale.

    Values may be exact scalars (scaled to integers from rigorous enclosures,
    so the working precision can exceed the coefficient bound comfortably) or
    plain floats (precision then capped by the float mantissa, which keeps
    large bounds genuinely heuristic).  A reduced vector counts as a relation
    when its scaled residual is no larger than coefficient rounding noise.
    """
    n = len(values)
    exact = all(isinstance(v, Scalar) and v.is_exact for v in values)
    digits = max(24, 12 + 2 * n * len(str(bound))) if exact else 13
    scale = 10 ** digits
    scaled = []
    for v in values:
        if isinstance(v, Scalar) and v.is_exact:
            lo, hi = v.bounds(digits + 2)
            mid = (lo + hi) / 2
            scaled.append(round(mid * scale))
        else:
            scaled.append(round(float(v) * scale))
    rows = [
        [1 if j == i else 0 for j in range(n)] + [scaled[i]] for i in range(n)
    ]
    reduced = ratmath.lll_reduce(rows)
    for vec in reduced:
        coeffs = vec[:n]
        if not any(coeffs) or max(abs(c) for c in coeffs) > bound:
            continue
        noise = 10 + 4 * n * max(abs(c) for c in coeffs)
        if abs(vec[n]) <= noise:
            return list(coeffs)
    return None


def certify_independent(values: list[Scalar], bound: int) -> RelationCertificate:
    """Certify that no bounded integer relation exists among the values.

    With exact inputs that involve at most one of pi and e the kernel
    computation is complete, so a pass is a proof; otherwise the certificate
    is an explicitly bounded LLL search.
    """
    exact = all(v.is_exact for v in values)
    if exact and len({v.constant for v in values} - {None}) <= 1:
        witness = exact_relation(values)
        return RelationCertificate(
            method="exact-kernel",
            bound=bound,
            passed=witness is None,
            witness=witness,
            note="complete over the monomial span",
        )
    witness = lll_relation(list(values), bound)
    if witness is not None and exact:
        acc = Scalar(0)
        for c, v in zip(witness, values):
            acc = acc + v * c
        if not acc.is_zero():
            witness = None  # numerical artifact, rejected by the exact check
    return RelationCertificate(
        method="lll-heuristic",
        bound=bound,
        passed=witness is None,
        witness=witness,
        note="bounded search, not a proof",
    )
