"""Boxes: the values of each input that a path's conditions allow, with no solver.

An interval set is a sorted list of disjoint inclusive unsigned ``(lo, hi)``
ranges.  An atom comparing a constant with ``±x + k`` (``x`` an input, built
by ``add``/``sub``/``neg`` in either operand order) by ``=``, ``<`` or ``<=``,
in either signedness and operand order, reads as the interval set of ``x``
where it holds.  Signed orders split at the sign boundary and shifts wrap
modulo ``2**w``: wrapped intervals (Navas, Schachte, Søndergaard & Stuckey,
APLAS 2012).  A ``not``, ``and`` or ``or`` of formulas read over one same
input reads as the complement, intersection or union of their sets.  A box
maps each input to the intersection of its conditions' sets.  Other
conditions are opaque and constrain nothing, so an empty set proves a
conjunction unsatisfiable; a non-empty box proves nothing.

A path whose conditions all read has an exact box (``path_box``); the box of
any other path still bounds where it can hold.  Two paths' boxes ``meet`` where
both hold, and on an exact pair's box ``decided`` may show the two return terms
equal or unequal everywhere.  ``decide`` answers that question for two whole
summaries over a range (``range_box``), and names a box inside it where the two
differ and one where they agree; it rests on summaries being total, every input
on exactly one path of each version, which holds because ``summarize`` raises
instead of truncating a loop.  ``volume``, ``points`` and ``box_formula``
count, list and render a box.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Sequence

from .bvarith import mask
from .formula import (
    BvVar, FAnd, FEq, FLe, FLt, FNot, FOr, Formula, RangePair, TBin, TConst, Term, TNeg, TVar,
    fand, for_, point_formula, var_range_constraint,
)

Intervals = list[tuple[int, int]]
Box = dict[BvVar, Intervals]


def _normal(ivs: Iterable[tuple[int, int]]) -> Intervals:
    """Sorted, with overlapping or adjacent ranges merged."""
    out: Intervals = []
    for lo, hi in sorted(ivs):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def intersect(a: Intervals, b: Intervals) -> Intervals:
    return [(max(lo1, lo2), min(hi1, hi2)) for lo1, hi1 in a for lo2, hi2 in b
            if max(lo1, lo2) <= min(hi1, hi2)]


def complement(ivs: Intervals, width: int) -> Intervals:
    """The values of ``[0, 2**width)`` outside ``ivs``."""
    out, start = [], 0
    for lo, hi in ivs:
        if lo > start:
            out.append((start, lo - 1))
        start = hi + 1
    return out + [(start, mask(width))] if start <= mask(width) else out


def _shift(ivs: Intervals, d: int, width: int) -> Intervals:
    """``{(v + d) mod 2**width : v in ivs}``; a range that crosses the top wraps to 0."""
    n, out = 1 << width, []
    for lo, hi in ivs:
        start = (lo + d) % n
        end = start + hi - lo
        out += [(start, end)] if end < n else [(start, n - 1), (0, end - n)]
    return _normal(out)


def _linear(t: Term) -> tuple[BvVar, int, int] | None:
    """``(x, s, k)`` with ``t == s*x + k`` modulo ``2**w`` and ``s`` = ±1, or None."""
    s, k = 1, 0  # the whole term is s*t + k
    while True:
        if isinstance(t, TVar):
            return t.var, s, k
        if isinstance(t, TNeg):
            s, t = -s, t.arg
        elif isinstance(t, TBin) and t.op in ("add", "sub") and isinstance(t.rhs, TConst):
            k, t = k + s * t.rhs.value * (1 if t.op == "add" else -1), t.lhs
        elif isinstance(t, TBin) and t.op in ("add", "sub") and isinstance(t.lhs, TConst):
            k, s, t = k + s * t.lhs.value, s * (1 if t.op == "add" else -1), t.rhs
        else:
            return None


def read(f: Formula) -> tuple[BvVar, Intervals] | None:
    """The one input ``f`` constrains and the interval set on which it holds; None if opaque."""
    if isinstance(f, FNot):
        inner = read(f.arg)
        return inner and (inner[0], complement(inner[1], inner[0].sort.width))
    if isinstance(f, (FAnd, FOr)):
        parts = [read(g) for g in f.items]
        if not parts or any(p is None or p[0] != parts[0][0] for p in parts):
            return None
        sets = [ivs for _, ivs in parts]
        return parts[0][0], (functools.reduce(intersect, sets) if isinstance(f, FAnd)
                             else _normal(itertools.chain(*sets)))
    if not isinstance(f, (FEq, FLt, FLe)):
        return None
    const_left = isinstance(f.lhs, TConst)
    c, t = (f.lhs, f.rhs) if const_left else (f.rhs, f.lhs)
    if not isinstance(c, TConst) or (linear := _linear(t)) is None:
        return None
    x, s, k = linear
    w = t.width
    top = 1 << (w - 1) if getattr(f, "signed", False) else 0
    # u = s*x + k; in signed orders compare u ^ top unsigned, which orders like signed u
    cv, strict = c.value ^ top, isinstance(f, FLt)
    if isinstance(f, FEq):
        lo, hi = cv, cv
    elif const_left:
        lo, hi = cv + strict, mask(w)
    else:
        lo, hi = 0, cv - strict
    u = _shift([(lo, hi)] if lo <= hi else [], top, w)  # v ^ top == v + top mod 2**w
    xs = _shift(u, -k, w)
    if s < 0:  # -v == ~v + 1, and ~v reflects [lo, hi] without wrapping
        xs = _shift([(mask(w) - hi, mask(w) - lo) for lo, hi in xs], 1, w)
    return x, xs


def _atoms(conds: Iterable[Formula]):
    for f in conds:
        if isinstance(f, FAnd):
            yield from _atoms(f.items)
        else:
            yield f


def narrow(b: Box, conds: Iterable[Formula], reads=read) -> Box:
    """``b`` with each input a read condition of ``conds`` constrains intersected with its
    set; ``reads`` is ``read`` or a memo of it."""
    out = dict(b)
    for f in _atoms(conds):
        if (found := reads(f)) is not None:
            x, ivs = found
            out[x] = intersect(out[x], ivs) if x in out else ivs
    return out


def is_empty(b: Box) -> bool:
    """True only if no input satisfies the conditions ``b`` was read from."""
    return any(not ivs for ivs in b.values())


# --- path pairs ---


def path_box(conds: Iterable[Formula], reads=read) -> tuple[Box, bool]:
    """The box of a path's read conditions, and whether it is exact: whether every
    condition reads, so that the path holds on all of it."""
    found = {f: reads(f) for f in _atoms(conds)}
    return narrow({}, found, found.get), None not in found.values()


def meet(a: Box, b: Box) -> Box:
    """The box where both ``a`` and ``b`` hold."""
    return {**a, **b, **{x: intersect(a[x], b[x]) for x in a.keys() & b.keys()}}


def range_box(inputs: Sequence[BvVar], vec: Sequence[RangePair]) -> Box:
    """A range vector over ``inputs`` as a box; a signed range across zero wraps to two
    unsigned intervals."""
    return {x: _shift([(0, p.hi - p.lo)], p.lo, x.sort.width) for x, p in zip(inputs, vec)}


def _value(t: Term) -> tuple[BvVar | None, int, int] | None:
    """``(x, s, k)`` with ``t == s*x + k`` and ``k`` reduced, ``(None, 0, c)`` for a constant."""
    if isinstance(t, TConst):
        return None, 0, t.value
    linear = _linear(t)
    return linear and (linear[0], linear[1], linear[2] % (1 << t.width))


def decided(b: Box, t1: Term, t2: Term) -> str | None:
    """"eq" if ``t1`` and ``t2`` agree everywhere in box ``b``, "neq" if they differ
    everywhere in it (as two different constants, as ``s*x + k`` against ``s*x + k'``,
    or as ``±x + k`` against a constant it equals only outside ``b``), else None."""
    if t1 == t2:
        return "eq"
    v1, v2 = _value(t1), _value(t2)
    if v1 is None or v2 is None:
        return None
    if v1 == v2:
        return "eq"
    if v1[0] == v2[0]:
        return "neq" if v1[1] == v2[1] else None
    (x, s, k), (c_var, _, c) = (v1, v2) if v2[0] is None else (v2, v1)
    if c_var is not None:
        return None  # two different inputs
    root = s * (c - k) % (1 << t1.width)  # the one x with s*x + k == c
    return None if any(lo <= root <= hi for lo, hi in b.get(x, _full(x))) else "neq"


Boxed = Sequence[tuple[Box, bool, Term]]  # a summary's paths: (box, exact, return term)


def decide(b: Box, paths1: Boxed, paths2: Boxed) -> tuple[str | None, dict[str, Box]]:
    """Whether two total summaries' outputs agree ("eq") or differ ("neq") everywhere in
    ``b``, and a box inside ``b`` of each kind that some pair shows.

    The whole-range verdict is None if a path meeting ``b`` is not exact, a pair meeting
    it is not ``decided``, or the pairs disagree.  Each box is where two exact paths meet
    and are ``decided`` that way, found even when other paths are opaque, so the outputs
    differ (or agree) at every point of it.  Each version's paths are filtered against
    ``b`` first, so only paths that meet it are paired."""
    met: list[list[tuple[Box, Term]]] = [[], []]
    whole = True
    for paths, out in zip((paths1, paths2), met):
        for box, exact, t in paths:
            if not is_empty(box := meet(box, b)):
                whole = whole and exact
                if exact:
                    out.append((box, t))
    found: dict[str, Box] = {}
    for (b1, t1), (b2, t2) in itertools.product(*met):
        if not is_empty(box := meet(b1, b2)):
            verdict = decided(box, t1, t2)
            whole = whole and verdict is not None
            if verdict:
                found.setdefault(verdict, box)
            if len(found) == 2:
                break
    return (next(iter(found)) if whole and len(found) == 1 else None), found


def _full(x: BvVar) -> Intervals:
    return [(0, mask(x.sort.width))]


def _ranges(ivs: Intervals, x: BvVar) -> Intervals:
    """The set as increasing ranges of values in ``x``'s own reading."""
    if not x.sort.signed:
        return ivs
    w = x.sort.width
    top = 1 << (w - 1)
    negative, positive = intersect(ivs, [(top, mask(w))]), intersect(ivs, [(0, top - 1)])
    return _normal([(lo - (1 << w), hi - (1 << w)) for lo, hi in negative] + positive)


def volume(b: Box, inputs: Sequence[BvVar]) -> int:
    """The number of input points in ``b``."""
    return math.prod(sum(hi - lo + 1 for lo, hi in b.get(x, _full(x))) for x in inputs)


def points(b: Box, inputs: Sequence[BvVar], cap: int) -> list[tuple[int, ...]]:
    """The first ``cap`` points of ``b`` in increasing order, each value in its sort's reading.

    In that order the first ``cap`` points use at most ``cap`` values of each input."""
    axes = []
    for x in inputs:
        values = (v for lo, hi in _ranges(b.get(x, _full(x)), x) for v in range(lo, hi + 1))
        axes.append(list(itertools.islice(values, cap)))
    return list(itertools.islice(itertools.product(*axes), cap))


def box_formula(b: Box, inputs: Sequence[BvVar]) -> Formula:
    """``b`` as a formula over ``inputs``: for each constrained input, a disjunction of its
    ranges, a one-value range as ``x == v``."""
    return fand(
        for_(point_formula([x], [lo]) if lo == hi else var_range_constraint(x, lo, hi)
             for lo, hi in _ranges(b[x], x))
        for x in inputs if x in b and b[x] != _full(x)
    )
