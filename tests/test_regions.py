"""Boxes read off path conditions, and path-pair boxes, checked exhaustively at width 8."""

import itertools
import random

import pytest

from patcheq.bvarith import to_signed
from patcheq.formula import (
    BvVar, FAnd, FNot, FOr, RangePair, eval_formula, feq, fle, flt, for_, tbin, tconst, tneg, tvar,
)
from patcheq.minilang import SORTS
from patcheq.regions import (
    box_formula, complement, decide, decided, intersect, is_empty, meet, narrow, path_box, points,
    range_box, read, volume,
)

from conftest import summary_pair

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


def assert_normal(intervals):
    assert intervals == sorted(intervals)
    assert all(lo <= hi < next_lo - 1 for (lo, hi), (next_lo, _) in
               zip(intervals, intervals[1:] + [(257, 0)])), intervals


def test_every_atom_form_reads_as_exactly_the_values_it_holds_on():
    forms = 0
    for atom in atom_forms(X):
        for f in (atom, FNot(atom)):
            var, intervals = read(f)
            assert var == X
            assert_normal(intervals)
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
        got = narrow({}, conds)
        empty = False
        for var in (X, Y):
            mine = [f for f in atoms if read(f)[0] == var]
            want = {v for v in range(256) if all(eval_formula(f, {var.name: v}) for f in mine)}
            assert members(got[var]) == want if mine else var not in got
            empty |= not want
        assert is_empty(narrow({}, conds)) == empty


def compound_forms(var, rng, n):
    """Negations, conjunctions and disjunctions, nested, of random atoms over ``var``."""
    forms = list(atom_forms(var))
    for _ in range(n):
        f = rng.choice(forms)
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice((FAnd, FOr, FNot))
            if kind is FNot:
                f = FNot(f)
            else:
                items = [f] + [rng.choice(forms) for _ in range(rng.randint(1, 2))]
                rng.shuffle(items)
                f = kind(tuple(items))
        yield f


@pytest.mark.parametrize("var", [X, Y])
def test_compound_one_input_reads_are_exact(var):
    x = tvar(var)
    fixed = [
        for_([feq(x, tconst(1, 8)), feq(x, tconst(2, 8))]),
        FNot(FAnd((feq(x, tconst(1, 8)), feq(x, tconst(1, 8))))),
        # tcp_window's guard at width 8
        for_([flt(True, x, tconst(8, 8)), flt(True, tconst(100, 8), x)]),
    ]
    for f in fixed + list(compound_forms(var, random.Random(11), 400)):
        found, intervals = read(f)
        assert found == var
        assert_normal(intervals)
        assert members(intervals) == holds(f, var), f


@pytest.mark.parametrize("f", [
    flt(False, tbin("mul", tvar(X), tvar(X)), tconst(0, 8)),  # unsatisfiable, but opaque
    feq(tvar(X), tvar(X)),
    flt(True, tbin("add", tvar(X), tvar(Y)), tconst(3, 8)),
    flt(False, tbin("and", tvar(X), tconst(7, 8)), tconst(9, 8)),
    for_([feq(tvar(X), tconst(1, 8)), feq(tvar(Y), tconst(2, 8))]),  # || over two inputs
])
def test_opaque_atoms_never_prune(f):
    assert read(f) is None
    assert not is_empty(narrow({}, [f, FNot(f)]))
    assert is_empty(narrow({}, [f, feq(tvar(X), tconst(3, 8)), feq(tvar(X), tconst(4, 8))]))


def test_intersect_and_complement():
    a = [(0, 3), (10, 20), (250, 255)]
    b = [(2, 12), (18, 251)]
    assert intersect(a, b) == [(2, 3), (10, 12), (18, 20), (250, 251)]
    assert intersect(a, []) == []
    assert complement(a, 8) == [(4, 9), (21, 249)]
    assert complement([], 8) == [(0, 255)]
    assert complement([(0, 255)], 8) == []
    assert members(complement(b, 8)) == set(range(256)) - members(b)


def in_sort(var, value):
    return to_signed(value, 8) if var.sort.signed else value


def random_boxes(rng, n, variables=(X, Y)):
    """Non-empty boxes over one input each, from random atoms and their negations."""
    forms = {var: list(atom_forms(var)) for var in variables}
    while n:
        var = rng.choice(variables)
        conds = [rng.choice(forms[var]) for _ in range(rng.randint(1, 3))]
        b = narrow({}, [FNot(f) if rng.random() < 0.4 else f for f in conds])
        if all(b.values()):
            n -= 1
            yield b


def test_box_volume_points_and_formula_are_exact_over_one_input():
    for b in random_boxes(random.Random(3), 150):
        (var, intervals), = b.items()
        values = sorted(in_sort(var, v) for v in members(intervals))
        assert volume(b, [var]) == len(values)
        assert volume(b, [X, Y]) == len(values) * 256  # the other input is free
        for cap in (1, 5, 300):
            assert points(b, [var], cap) == [(v,) for v in values[:cap]]
        assert holds(box_formula(b, [var]), var) == members(intervals)


def test_box_points_and_formula_over_two_inputs():
    rng = random.Random(4)
    for _ in range(4):
        b = next(random_boxes(rng, 1, (X,)))
        b.update(next(random_boxes(rng, 1, (Y,))))
        inside = {(x, y) for x in members(b[X]) for y in members(b[Y])}
        assert volume(b, [X, Y]) == len(inside)
        listed = sorted((in_sort(X, x), in_sort(Y, y)) for x, y in inside)
        assert points(b, [X, Y], 64) == listed[:64]
        f = box_formula(b, [X, Y])
        assert {(x, y) for x in range(256) for y in range(256)
                if eval_formula(f, {"x": x, "y": y})} == inside


def test_path_box_is_inexact_when_any_condition_is_opaque():
    lin = flt(False, tvar(X), tconst(9, 8))
    opaque = flt(False, tbin("mul", tvar(X), tvar(Y)), tconst(9, 8))
    pinned = feq(tvar(Y), tconst(2, 8))
    assert path_box([lin, FAnd((pinned,))]) == (narrow({}, [lin, pinned]), True)
    # the read conditions still bound an inexact box
    assert path_box([FAnd((lin, opaque))]) == (narrow({}, [lin]), False)
    assert meet(narrow({}, [lin]), narrow({}, [pinned])) == narrow({}, [lin, pinned])


def test_a_range_box_holds_exactly_the_range_and_wraps_across_zero():
    for var, spans in ((X, [(0, 255), (3, 3), (100, 200)]),
                       (Y, [(-128, 127), (-1, 0), (-100, 20), (-9, -3), (5, 90)])):
        for lo, hi in spans:
            (x, ivs), = range_box([var], [RangePair(lo, hi)]).items()
            assert x == var
            assert_normal(ivs)
            assert {to_signed(v, 8) if var.sort.signed else v for v in members(ivs)} == set(
                range(lo, hi + 1))
    assert range_box([Y], [RangePair(-1, 0)]) == {Y: [(0, 0), (255, 255)]}


def test_decided_pairs_agree_or_differ_everywhere_in_their_box():
    rng = random.Random(8)
    terms = list(linear_terms(X)) + [tconst(k, 8) for k in VALUES]
    verdicts = {"eq": 0, "neq": 0, None: 0}
    for b in random_boxes(rng, 300, (X,)):
        t1, t2 = rng.choice(terms), rng.choice(terms)
        if rng.random() < 0.1:
            t2 = t1
        verdict = decided(b, t1, t2)
        verdicts[verdict] += 1
        same = {eval_formula(feq(t1, t2), {"x": v}) for v in members(b[X])}
        if verdict == "eq":
            assert same == {True}, (b, t1, t2)
        elif verdict == "neq":
            assert same == {False}, (b, t1, t2)
    assert min(verdicts.values()) > 10, verdicts
    # a term over one input against a constant decides nothing over another input's box
    assert decided({Y: [(0, 3)]}, tvar(X), tconst(200, 8)) is None
    assert decided({}, tvar(X), tvar(Y)) is None


def test_decide_names_a_diverging_and_an_agreeing_box_beside_opaque_paths():
    # the patch moves the x < 10 guard to x < 20 and adds a guard that reads as no box
    s1, s2 = summary_pair(
        "fn f(x: u8) -> u8 { if (x < 10) { return 0; } return x; }",
        "fn f(x: u8) -> u8 { if (x < 20) { return 0; } if (x * 3 == 5) { return 1; } return x; }",
    )
    (x,) = s1.inputs

    def decide_over(lo, hi):
        verdict, found = decide(range_box([x], [RangePair(lo, hi)]), s1.boxes, s2.boxes)
        return verdict, {kind: box[x] for kind, box in found.items()}

    # both return 0 below 10; between 10 and 19 the original returns x and the patch 0
    assert decide_over(0, 255) == (None, {"eq": [(0, 9)], "neq": [(10, 19)]})
    assert decide_over(0, 9) == ("eq", {"eq": [(0, 9)]})
    assert decide_over(12, 15) == ("neq", {"neq": [(12, 15)]})
    assert decide_over(5, 12) == (None, {"eq": [(5, 9)], "neq": [(10, 12)]})
    # above 19 only the opaque paths meet the original's x: no box is named
    assert decide_over(20, 255) == (None, {})
