"""Boxes read off path conditions, checked exhaustively at width 8 against eval_formula."""

import itertools
import random

import pytest

from patcheq.formula import (
    BvVar, FAnd, FNot, eval_formula, feq, fle, flt, for_, tbin, tconst, tneg, tvar,
)
from patcheq.minilang import SORTS
from patcheq.regions import box, box_empty, complement, intersect, read

X = BvVar("x", SORTS["u8"], "input")
Y = BvVar("y", SORTS["i8"], "input")
VALUES = [0, 1, 5, 127, 128, 129, 200, 254, 255]


def linear_terms(var):
    x = tvar(var)
    yield x
    yield tneg(x)
    for k in VALUES:
        c = tconst(k, 8)
        yield from (tbin("add", x, c), tbin("add", c, x), tbin("sub", x, c), tbin("sub", c, x))


def atom_forms(var):
    """Every read atom form: =, < and <= in both signednesses, both operand orders."""
    for t, k in itertools.product(linear_terms(var), VALUES):
        c = tconst(k, 8)
        for lhs, rhs in ((t, c), (c, t)):
            yield feq(lhs, rhs)
            for signed in (False, True):
                yield flt(signed, lhs, rhs)
                yield fle(signed, lhs, rhs)


def members(intervals):
    return {v for lo, hi in intervals for v in range(lo, hi + 1)}


def holds(f, var=X):
    return {v for v in range(256) if eval_formula(f, {var.name: v})}


def test_every_atom_form_reads_as_exactly_the_values_it_holds_on():
    forms = 0
    for atom in atom_forms(X):
        for f in (atom, FNot(atom)):
            var, intervals = read(f)
            assert var == X
            assert intervals == sorted(intervals)
            assert all(lo <= hi < next_lo - 1 for (lo, hi), (next_lo, _) in
                       zip(intervals, intervals[1:] + [(257, 0)])), intervals
            assert members(intervals) == holds(f), f
            forms += 1
    assert forms == 38 * 9 * 2 * 5 * 2


def test_a_box_is_the_exact_conjunction_of_its_read_atoms():
    # random conjunctions over two inputs, some nested in FAnd, against brute force
    rng = random.Random(5)
    forms = {var: list(atom_forms(var)) for var in (X, Y)}
    for _ in range(300):
        atoms = [rng.choice(forms[rng.choice((X, Y))]) for _ in range(rng.randint(1, 4))]
        atoms = [FNot(f) if rng.random() < 0.4 else f for f in atoms]
        conds = [FAnd(tuple(atoms[:2])), *atoms[2:]] if rng.random() < 0.5 else atoms
        got = box(conds)
        empty = False
        for var in (X, Y):
            mine = [f for f in atoms if read(f)[0] == var]
            want = {v for v in range(256) if all(eval_formula(f, {var.name: v}) for f in mine)}
            assert members(got[var]) == want if mine else var not in got
            empty |= not want
        assert box_empty(conds) == empty


@pytest.mark.parametrize("f", [
    flt(False, tbin("mul", tvar(X), tvar(X)), tconst(0, 8)),  # unsatisfiable, but opaque
    feq(tvar(X), tvar(X)),
    flt(True, tbin("add", tvar(X), tvar(Y)), tconst(3, 8)),
    flt(False, tbin("and", tvar(X), tconst(7, 8)), tconst(9, 8)),
    for_([feq(tvar(X), tconst(1, 8)), feq(tvar(X), tconst(2, 8))]),
    FNot(FAnd((feq(tvar(X), tconst(1, 8)), feq(tvar(X), tconst(1, 8))))),
])
def test_opaque_atoms_never_prune(f):
    assert read(f) is None
    assert not box_empty([f, FNot(f)])
    assert box_empty([f, feq(tvar(X), tconst(3, 8)), feq(tvar(X), tconst(4, 8))])


def test_intersect_and_complement():
    a = [(0, 3), (10, 20), (250, 255)]
    b = [(2, 12), (18, 251)]
    assert intersect(a, b) == [(2, 3), (10, 12), (18, 20), (250, 251)]
    assert intersect(a, []) == []
    assert complement(a, 8) == [(4, 9), (21, 249)]
    assert complement([], 8) == [(0, 255)]
    assert complement([(0, 255)], 8) == []
    assert members(complement(b, 8)) == set(range(256)) - members(b)
