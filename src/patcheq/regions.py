"""Boxes: the values of each input that a path's conditions allow, with no solver.

An interval set is a sorted list of disjoint inclusive unsigned ``(lo, hi)``
ranges.  An atom comparing a constant with ``±x + k`` (``x`` an input, built
by ``add``/``sub``/``neg`` in either operand order) by ``=``, ``<`` or ``<=``,
in either signedness and operand order and possibly negated, reads as the
interval set of ``x`` where it holds.  Signed orders split at the sign
boundary and shifts wrap modulo ``2**w``: wrapped intervals (Navas,
Schachte, Søndergaard & Stuckey, APLAS 2012).  A box maps each input to the
intersection of its atoms' sets.  Other atoms are opaque and constrain
nothing, so an empty set proves a conjunction unsatisfiable; a non-empty box
proves nothing.
"""

from __future__ import annotations

from typing import Iterable

from .bvarith import mask
from .formula import BvVar, FAnd, FEq, FLe, FLt, FNot, Formula, TBin, TConst, Term, TNeg, TVar

Intervals = list[tuple[int, int]]


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
    if isinstance(t, TVar):
        return t.var, 1, 0
    if isinstance(t, TNeg):
        inner = _linear(t.arg)
        return inner and (inner[0], -inner[1], -inner[2])
    if isinstance(t, TBin) and t.op in ("add", "sub"):
        sign = 1 if t.op == "add" else -1
        if isinstance(t.rhs, TConst):
            inner = _linear(t.lhs)
            return inner and (inner[0], inner[1], inner[2] + sign * t.rhs.value)
        if isinstance(t.lhs, TConst):
            inner = _linear(t.rhs)
            return inner and (inner[0], sign * inner[1], t.lhs.value + sign * inner[2])
    return None


def read(f: Formula) -> tuple[BvVar, Intervals] | None:
    """The input an atom constrains and the interval set on which it holds; None if opaque."""
    negated = isinstance(f, FNot)
    atom = f.arg if negated else f
    if not isinstance(atom, (FEq, FLt, FLe)):
        return None
    const_left = isinstance(atom.lhs, TConst)
    c, t = (atom.lhs, atom.rhs) if const_left else (atom.rhs, atom.lhs)
    if not isinstance(c, TConst) or (linear := _linear(t)) is None:
        return None
    x, s, k = linear
    w = t.width
    top = 1 << (w - 1) if getattr(atom, "signed", False) else 0
    # u = s*x + k; in signed orders compare u ^ top unsigned, which orders like signed u
    cv, strict = c.value ^ top, isinstance(atom, FLt)
    if isinstance(atom, FEq):
        lo, hi = cv, cv
    elif const_left:
        lo, hi = cv + strict, mask(w)
    else:
        lo, hi = 0, cv - strict
    u = _shift([(lo, hi)] if lo <= hi else [], top, w)  # v ^ top == v + top mod 2**w
    xs = _shift(u, -k, w)
    if s < 0:  # -v == ~v + 1, and ~v reflects [lo, hi] without wrapping
        xs = _shift([(mask(w) - hi, mask(w) - lo) for lo, hi in xs], 1, w)
    return x, complement(xs, w) if negated else xs


def _atoms(conds: Iterable[Formula]):
    for f in conds:
        if isinstance(f, FAnd):
            yield from _atoms(f.items)
        else:
            yield f


def box(conds: Iterable[Formula]) -> dict[BvVar, Intervals]:
    """Each input a read atom of ``conds`` constrains, to the intersection of their sets."""
    out: dict[BvVar, Intervals] = {}
    for f in _atoms(conds):
        if (found := read(f)) is not None:
            x, ivs = found
            out[x] = intersect(out[x], ivs) if x in out else ivs
    return out


def box_empty(conds: Iterable[Formula]) -> bool:
    """True only if no input satisfies ``conds``: some input's box set is empty."""
    return any(not ivs for ivs in box(conds).values())
