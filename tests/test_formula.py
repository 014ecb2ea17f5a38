"""Formula construction, range constraints, serialization, evaluation."""

import hashlib
import itertools
import pickle
import random
import weakref
from pathlib import Path

import pytest

from patcheq import bvarith, formula
from patcheq.formula import (
    FALSE, TRUE, BvVar, FAnd, FIff, FNot, FOr, FormulaError, compile_paths, eval_formula, feq,
    fle, mk_range_constraint, pretty, serialize, serialize_formula, tbin, tconst, tvar,
)
from patcheq.minilang import SORTS
from patcheq.oracle import SolverSession
from patcheq.randgen import random_function
from patcheq.summarizer import eval_concrete, summarize

from conftest import corpus_fn

GOLDEN = Path(__file__).parent / "golden"

U32 = SORTS["u32"]
I8 = SORTS["i8"]
U8 = SORTS["u8"]


def test_range_constraint_cliprects_bounds():
    x = BvVar("x", U32, "input")
    f = mk_range_constraint([x], [536870912], [4294967295])
    text = serialize_formula(f)
    assert "(bvule (_ bv536870912 32) x)" in text
    assert "(bvule x (_ bv4294967295 32))" in text


def test_full_domain_range_is_trivially_true():
    x = BvVar("x", I8, "input")
    f = mk_range_constraint([x], [-128], [127])
    for value in range(256):
        assert eval_formula(f, {"x": value})


def test_two_var_range_count_by_enumeration():
    # x pinned to 0 and y in [1, 2]: exactly 2 satisfying pairs over i8 x i8
    x, y = BvVar("x", I8, "input"), BvVar("y", I8, "input")
    f = mk_range_constraint([x, y], [0, 1], [0, 2])
    count = sum(
        eval_formula(f, {"x": vx, "y": vy})
        for vx, vy in itertools.product(range(256), repeat=2)
    )
    assert count == 2


def test_range_bound_outside_sort_rejected():
    x = BvVar("x", I8, "input")
    with pytest.raises(FormulaError, match="outside"):
        mk_range_constraint([x], [0], [128])
    with pytest.raises(FormulaError):
        mk_range_constraint([x], [5], [3])


def test_a_summary_is_equivalent_to_itself_under_a_range(cfg):
    s = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    rng = mk_range_constraint(
        list(s.inputs), [v.sort.min_value for v in s.inputs],
        [v.sort.max_value for v in s.inputs],
    )
    with SolverSession(cfg, s.decls) as session:
        session.assert_formula(FNot(FIff(s.formula, s.formula)))
        session.assert_formula(rng)
        assert session.check_sat() == "unsat"


def test_a_pair_differs_under_one_range_and_agrees_under_another(cfg):
    f1 = corpus_fn("cve_2013_0859_doubles_metadata", "original.fn")
    f2 = corpus_fn("cve_2013_0859_doubles_metadata", "patched.fn")
    s1, s2 = summarize(f1), summarize(f2)
    count = s1.inputs[0]

    # under {count = 0} the versions differ: negation satisfiable
    rng0 = mk_range_constraint([count], [0], [0])
    with SolverSession(cfg, s1.decls) as session:
        session.assert_formula(FNot(FIff(s1.formula, s2.formula)))
        session.assert_formula(rng0)
        assert session.check_sat() == "sat"

    # brute-force oracle: both versions agree on all of 1..100
    assert all(eval_concrete(f1, [v]) == eval_concrete(f2, [v]) for v in range(1, 101))
    rng = mk_range_constraint([count], [1], [100])
    with SolverSession(cfg, s1.decls) as session:
        session.assert_formula(FNot(FIff(s1.formula, s2.formula)))
        session.assert_formula(rng)
        assert session.check_sat() == "unsat"


def test_serialize_simple_equation():
    x = BvVar("x", U8, "input")
    text = serialize([x], feq(tvar(x), tconst(3, 8)))
    assert "(declare-const x (_ BitVec 8))" in text
    assert "(assert (= x (_ bv3 8)))" in text
    assert text.startswith("(set-logic QF_BV)")


def test_serialize_iff_connective():
    x = BvVar("x", U8, "input")
    atom = feq(tvar(x), tconst(3, 8))
    assert serialize_formula(FIff(atom, atom)) == (
        "(= (= x (_ bv3 8)) (= x (_ bv3 8)))"
    )


def test_serialize_golden_tcp_window_summary():
    summary = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    text = serialize(summary.decls, summary.formula)
    golden = GOLDEN / "tcp_window_summary.smt2"
    assert text == golden.read_text()
    # determinism: serializing twice is byte-identical
    assert text == serialize(summary.decls, summary.formula)


def test_serialize_injective_on_corpus():
    cases = [
        ("cve_2010_4165_tcp_window", "original.fn"),
        ("cve_2010_4165_tcp_window", "patched.fn"),
        ("cve_2013_0859_doubles_metadata", "original.fn"),
        ("cve_2013_0859_doubles_metadata", "patched.fn"),
        ("cve_2012_2384_cliprects", "original.fn"),
        ("cve_2012_2384_cliprects", "patched.fn"),
        ("eqbench_dart", "original.fn"),
        ("eqbench_dart", "patched.fn"),
    ]
    texts = {serialize_formula(summarize(corpus_fn(c, w)).formula) for c, w in cases}
    assert len(texts) == len(cases)


def test_random_summaries_serialize_to_pinned_text():
    # the SMT-LIB of the first 300 random_function summaries, so a refactor of the
    # summarizer or the serializer cannot change one byte of what the solver reads
    digest = hashlib.sha256()
    for seed in range(300):
        s = summarize(random_function(random.Random(seed)))
        digest.update(serialize(s.decls, s.formula).encode())
    assert digest.hexdigest() == "779c73b2c30accbedb76f9cbc968713b47cad5e3cc7e0c4addee31cc06e04a5a"


def test_a_term_of_any_depth_serializes_and_compiles():
    x = BvVar("x", U8, "input")
    chain = tvar(x)
    for _ in range(5000):  # far deeper than the interpreter's recursion limit
        chain = tbin("add", chain, tconst(1, 8))
    assert serialize_formula(feq(tvar(x), chain)) == (
        "(= x " + "(bvadd " * 5000 + "x" + " (_ bv1 8))" * 5000 + ")")
    low = ([fle(False, tvar(x), tconst(6, 8))], tvar(x))  # does not hold at x = 7
    assert compile_paths([low, ([], chain)])({"x": 7}) == (1, (7 + 5000) % 256)
    assert compile_paths([low])({"x": 7}) is None
    assert eval_formula(feq(chain, tconst((7 + 5000) % 256, 8)), {"x": 7})


def test_formula_eval_division_total():
    x = BvVar("x", U8, "input")
    env = {"x": 7}
    assert bvarith.udiv(7, 0, 8) == 255
    for op, value in (("udiv", 255), ("urem", 7), ("sdiv", 255)):
        assert eval_formula(feq(tbin(op, tvar(x), tconst(0, 8)), tconst(value, 8)), env)


def test_constants_iff_and_empty_connectives_evaluate():
    atom = feq(tvar(BvVar("x", U8, "input")), tconst(3, 8))
    cases = [(TRUE, True), (FALSE, False), (FAnd(()), True), (FOr(()), False),
             (FIff(atom, FNot(atom)), False), (FIff(FNot(atom), FNot(atom)), True)]
    for f, holds in cases:
        assert eval_formula(f, {"x": 3}) is holds


def test_a_term_pickles_without_its_cached_hash():
    # an unpickled term is interned again, so it is the live term it equals; an evaluated
    # term or formula pickles without its compiled evaluator, and outlives no last use
    t = tbin("add", tvar(BvVar("x", U8, "input")), tconst(1, 8))
    h = hash(t)
    assert formula._evaluator(t)({"x": 7}) == 8
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == h
    f = feq(t, tconst(8, 8))
    assert eval_formula(f, {"x": 7})
    f_copy = pickle.loads(pickle.dumps(f))
    assert f_copy == f and f_copy.lhs is t and eval_formula(f_copy, {"x": 7})
    dead = [weakref.ref(x) for x in (t, f, f_copy)]
    del t, copy, f, f_copy
    assert [ref() for ref in dead] == [None] * 3


def test_pretty_renders_signed_constants():
    val = BvVar("val", SORTS["i32"], "input")
    from patcheq.formula import flt

    text = pretty(flt(True, tvar(val), tconst(bvarith.to_unsigned(-22, 32), 32)))
    assert text == "val < -22"


def test_pretty_reads_an_equality_constant_in_its_variables_signedness():
    x8 = BvVar("x", I8, "input")
    u8 = BvVar("u", U8, "input")
    assert pretty(feq(tvar(x8), tconst(253, 8))) == "x == -3"
    assert pretty(feq(tconst(253, 8), tvar(x8))) == "-3 == x"
    assert pretty(feq(tvar(u8), tconst(253, 8))) == "u == 253"
