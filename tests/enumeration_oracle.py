"""The enumeration walk as one generic generator, kept as a test oracle.

``_triangular_walk`` and the leaf loop of ``_enumerate_piece`` are the walk
``CutProjectScheme._enumerate_piece`` ran before it handed the walk to a
kernel compiled per plan shape (``cutproject.walk``), copied unchanged.
The set-up (rhs, candidate ranges and budget, targets, float errors, inner
and outer bounds) is the scheme's own, so a difference from
``_enumerate_piece`` is a difference of the walk: of the nodes it visits,
their order, or a leaf's decision.
"""

from __future__ import annotations

from operator import gt, le, lt

from cutproject.scheme import _PLAN_DIGITS, EnumerationOverflowError, _walk_targets


def _enumerate_piece(self, box, window, rows, decides, max_candidates):
    """``CutProjectScheme._enumerate_piece`` of ``self`` over the generic walk."""
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
    sizes = self._leaf_data()[2]
    errors = None if sizes is None else self._float_errors(sizes, ranges)
    bounds = self._inner_bounds(box, rows, rhs, targets, errors) if decides else None
    if bounds is not None:
        in_lo, in_hi, out_lo, out_hi = bounds
    lead = errors[0] if errors else 0
    zero = [0] * max(self.lift_size, 1)  # a rank-0 scheme's leaf still has a row 0
    walk = _triangular_walk(self._enumeration_plan(), ranges, targets, (), zero, zero)
    for lifted, r_lo, r_hi in walk:
        n = lifted[: self.rank]
        if n in found:
            continue
        if bounds is not None:
            if all(map(le, in_lo, r_lo)) and all(map(le, r_hi, in_hi)):
                found[n] = (r_lo[0] - lead, r_hi[0] + lead)
                continue
            if any(map(lt, r_hi, out_lo)) or any(map(gt, r_lo, out_hi)):
                continue
        if box.contains(self.direct(n)) and window.contains(self._star(n)):
            found[n] = (r_lo[0] - lead, r_hi[0] + lead)
    return found


def _triangular_walk(levels, ranges, targets, prefix, p_lo, p_hi):
    """Yield the lifted vectors a level plan admits, outermost coordinate first.

    ``targets`` are the scaled rhs enclosures per row, ``p_lo``/``p_hi`` the
    scaled enclosures of each row's partial sum over the fixed ``prefix``.
    Each vector comes as ``(vector, lo, hi)`` with the enclosures of its
    full row sums.
    """
    k = len(prefix)
    if k == len(levels):  # only for an empty plan: every level yields its own leaves
        yield prefix, p_lo, p_hi
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
    leaf = k + 1 == len(levels)
    for v in range(lo, hi + 1):
        c_lo, c_hi = p_lo, p_hi
        if updates:
            c_lo, c_hi = list(p_lo), list(p_hi)
            for i, a_lo, a_hi in updates:
                c_lo[i] += v * (a_lo if v >= 0 else a_hi)
                c_hi[i] += v * (a_hi if v >= 0 else a_lo)
        if leaf:
            yield prefix + (v,), c_lo, c_hi
        else:
            yield from _triangular_walk(levels, ranges, targets, prefix + (v,), c_lo, c_hi)
