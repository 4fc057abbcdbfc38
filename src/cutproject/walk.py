"""Straight-line kernels for the triangular enumeration walk.

``CutProjectScheme._enumeration_plan`` gives one level per lifted column:
the rows of an inverse enclosure that bound the column's value, the rows the
column completes (``checks``), and the rows its value enters (``updates``),
each row with a scaled integer enclosure of a coefficient.  ``walk_kernel``
turns the *shape* of a plan, its row indices, the sign of each check, the
level count, ``lift_size`` and ``rank`` and whether leaves are decided on
enclosures, into the source of one function with a nested ``for`` loop per
level.  Each row's lower and upper partial sum is a local variable, and the
sign of each column value picks the enclosure ends in an unrolled branch.
The plan's integers enter at call time as one flat tuple
(``plan_arguments``), so every scheme of one shape shares one code object;
the source is built from row indices, level counts and flags alone.

A kernel is called as ``walk(plan, ranges, targets, bounds, lead, found,
in_box, direct, in_window, star)``.  ``ranges`` are the candidate ranges of
the lifted columns, ``targets`` the scaled rhs enclosure of each row, and
``bounds`` the inner and outer row bounds ``(in_lo, in_hi, out_lo, out_hi)``
of a kernel that decides leaves (None otherwise).  Each leaf ``n``, the
first ``rank`` column values, goes into ``found`` as ``(lo - lead, hi +
lead)`` over the enclosure ``[lo, hi]`` of its row 0 when it is accepted:
on the enclosures, when every row lies inside its inner bounds, or else,
unless a row lies outside its outer bounds, when ``in_box(direct(n))`` and
``in_window(star(n))`` hold.  Leaves come in the walk's order, outermost
column first; with ``lift_size > rank`` a leaf whose ``n`` is already in
``found`` is skipped.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain


def plan_arguments(plan):
    """``(levels, flat)``: the shape of an enumeration plan and its integers.

    ``levels`` holds per level the inverse rows, the checks as ``(row,
    negative)`` and the update rows; ``flat`` the coefficient enclosures in
    that order, a negative check's negated (``(-hi, -lo)``, both positive).
    """
    levels = tuple(
        (
            tuple(i for i, _, _ in inverse),
            tuple((i, lo < 0) for i, lo, _ in checks),
            tuple(i for i, _, _ in updates),
        )
        for inverse, checks, updates in plan
    )
    flat = tuple(chain.from_iterable(
        chain(
            chain.from_iterable((lo, hi) for _, lo, hi in inverse),
            chain.from_iterable((-hi, -lo) if lo < 0 else (lo, hi) for _, lo, hi in checks),
            chain.from_iterable((lo, hi) for _, lo, hi in updates),
        )
        for inverse, checks, updates in plan
    ))
    return levels, flat


@lru_cache(maxsize=32)
def walk_kernel(levels, lift_size: int, rank: int, bounded: bool, square: int):
    """The compiled walk of one plan shape (see the module notes).

    ``square`` is the scale of an inverse row's products, by which its sums
    are divided.  At most 32 shapes are kept."""
    source = _walk_source(levels, lift_size, rank, bounded)
    namespace = {"square": square}
    exec(compile(source, "<cutproject walk kernel>", "exec"), namespace)
    return namespace["walk"]


def _unpack(names) -> str:
    # a trailing comma makes a one-name target a tuple target too
    return "".join(f"{name}, " for name in names)


def _walk_source(levels, lift_size, rank, bounded) -> str:
    lines = [
        "def walk(plan, ranges, targets, bounds, lead, found, in_box, direct, in_window, star):"
    ]

    def emit(depth, text):
        lines.append("    " * depth + text)

    names = []
    for k, (inverse, checks, updates) in enumerate(levels):
        for kind, rows in (("i", inverse), ("c", [i for i, _ in checks]), ("u", updates)):
            names += [f"{kind}{k}_{i}_{end}" for i in rows for end in ("lo", "hi")]
    if names:
        emit(1, f"{_unpack(names)}= plan")
    if levels:
        emit(1, f"{_unpack(f'(r{k}_lo, r{k}_hi)' for k in range(len(levels)))}= ranges")
    rows = range(lift_size)
    if lift_size:
        emit(1, f"{_unpack(f'(t{i}_lo, t{i}_hi)' for i in rows)}= targets")
        if bounded:  # inner (accept) and outer (reject) bounds of each row
            ends = [f"({_unpack(end + str(i) for i in rows)})" for end in ("al", "ah", "rl", "rh")]
            emit(1, f"{', '.join(ends)} = bounds")
    if not rank:
        emit(1, "n = ()")
    # the expressions of every row's partial sums over the fixed columns
    p_lo = ["0"] * max(lift_size, 1)
    p_hi = ["0"] * max(lift_size, 1)

    def plus(a, b):
        return b if a == "0" else f"{a} + {b}"

    def minus(a, b):
        return a if b == "0" else f"{a} - {b}"

    depth = 1
    for k, (inverse, checks, updates) in enumerate(levels):
        emit(depth, f"lo = r{k}_lo")
        emit(depth, f"hi = r{k}_hi")
        if inverse:
            for j, i in enumerate(inverse):
                emit(depth, f"y_lo = {minus(f't{i}_lo', p_hi[i])}")
                emit(depth, f"y_hi = {minus(f't{i}_hi', p_lo[i])}")
                a, b = f"i{k}_{i}_lo", f"i{k}_{i}_hi"
                emit(depth, f"p = ({a} * y_lo, {a} * y_hi, {b} * y_lo, {b} * y_hi)")
                op = "=" if j == 0 else "+="
                emit(depth, f"s_lo {op} min(p)")
                emit(depth, f"s_hi {op} max(p)")
            emit(depth, "x = -((-s_lo) // square)")
            emit(depth, "if x > lo: lo = x")
            emit(depth, "x = s_hi // square")
            emit(depth, "if x < hi: hi = x")
        for i, negative in checks:
            if negative:  # the row negated: coefficient enclosure in (0, inf)
                emit(depth, f"y_lo = {p_lo[i]} - t{i}_hi")
                emit(depth, f"y_hi = {p_hi[i]} - t{i}_lo")
            else:
                emit(depth, f"y_lo = {minus(f't{i}_lo', p_hi[i])}")
                emit(depth, f"y_hi = {minus(f't{i}_hi', p_lo[i])}")
            a, b = f"c{k}_{i}_lo", f"c{k}_{i}_hi"
            emit(depth, f"x = -((-y_lo) // ({b} if y_lo >= 0 else {a}))")
            emit(depth, "if x > lo: lo = x")
            emit(depth, f"x = y_hi // ({a} if y_hi >= 0 else {b})")
            emit(depth, "if x < hi: hi = x")
        emit(depth, f"for v{k} in range(lo, hi + 1):")
        depth += 1
        if k + 1 == len(levels) and lift_size > rank:
            emit(depth, "if n in found:")
            emit(depth + 1, "continue")
        if updates:
            new_lo = {i: f"l{i}_{k}" for i in updates}
            new_hi = {i: f"h{i}_{k}" for i in updates}
            for test, near, far in ((f"if v{k} >= 0:", "lo", "hi"), ("else:", "hi", "lo")):
                emit(depth, test)
                for i in updates:
                    emit(depth + 1, f"{new_lo[i]} = {plus(p_lo[i], f'v{k} * u{k}_{i}_{near}')}")
                    emit(depth + 1, f"{new_hi[i]} = {plus(p_hi[i], f'v{k} * u{k}_{i}_{far}')}")
            for i in updates:
                p_lo[i], p_hi[i] = new_lo[i], new_hi[i]
        if k + 1 == rank:
            emit(depth, f"n = ({_unpack(f'v{j}' for j in range(rank))})")
    value = f"({p_lo[0]} - lead, {p_hi[0]} + lead)"
    exact = "in_box(direct(n)) and in_window(star(n))"
    if bounded:
        inside = " and ".join(f"al{i} <= {p_lo[i]} and {p_hi[i]} <= ah{i}" for i in rows)
        outside = " or ".join(f"{p_hi[i]} < rl{i} or {p_lo[i]} > rh{i}" for i in rows)
        emit(depth, f"if {inside or 'True'}:")
        emit(depth + 1, f"found[n] = {value}")
        if outside:
            exact = f"not ({outside}) and {exact}"
        emit(depth, f"elif {exact}:")
    else:
        emit(depth, f"if {exact}:")
    emit(depth + 1, f"found[n] = {value}")
    return "\n".join(lines) + "\n"
