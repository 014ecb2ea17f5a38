"""Differential and protocol tests for the bundled QF_BV solver."""

import gc
import io
import itertools
import marshal
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from patcheq import bvarith
from patcheq.formula import (
    BvVar, eval_formula, feq, fle, flt, serialize_formula, tbin, tconst, textend, textract,
    tneg, tvar,
)
from patcheq.oracle import bundled_preamble, bundled_solver_command
from patcheq.smtbv import engine
from patcheq.smtbv.engine import SmtEngine, SmtError
from patcheq.smtbv.protocol import SmtSession, run_stdio
from patcheq.smtbv.sat import Solver
from patcheq.smtbv.sexpr import Incomplete, SexprError, parse_all
from patcheq.smtbv.terms import Node, TermTable, compile_node, free_vars, walk

SRC = str(Path(__file__).resolve().parent.parent / "src")
# for child interpreters: import from the checkout and leave no __pycache__ in it
CHILD_ENV = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}


# --- the reference node evaluator: a walk over the DAG, against which compile_node is checked ---


def eval_node(node: Node, env: dict[str, int], memo: dict[Node, int] | None = None):
    """Evaluate a node under unsigned-canonical variable values.

    Unassigned variables default to 0.  Returns ints for bit-vector nodes and
    bools for boolean nodes.  ``memo`` maps the nodes valued so far to their
    values.
    """
    memo = {} if memo is None else memo
    for n in walk(node, memo.__contains__):
        memo[n] = _value(n, [memo[a] for a in n.args if isinstance(a, Node)], env)
    return memo[node]


def _value(n: Node, v: list, env: dict[str, int]):
    """One node's value from its operands' values ``v``."""
    k, a = n.kind, n.args
    if k in ("const", "bconst"):
        return a[0]
    if k == "var":
        return env.get(a[0], 0)
    if k == "bnot":
        return not v[0]
    if k == "band":
        return all(v)
    if k == "bor":
        return any(v)
    if k == "ite":
        return v[1] if v[0] else v[2]
    if k == "extract":
        return (v[0] >> a[1]) & bvarith.mask(a[0] - a[1] + 1)
    if k == "zext":
        return v[0]
    if k == "sext":
        return bvarith.to_unsigned(bvarith.to_signed(v[0], a[1].width), n.width)
    if k in ("beq", "eq"):
        return v[0] == v[1]
    if k == "ult":
        return v[0] < v[1]
    if k == "slt":
        return bvarith.slt(v[0], v[1], a[0].width)
    return bvarith.BINARY[k](v[0], v[1], n.width)


def test_sat_core_basics():
    s = Solver()
    a, b, c = s.new_var(), s.new_var(), s.new_var()
    s.add_clause([a << 1, b << 1])
    s.add_clause([(a << 1) ^ 1, c << 1])
    assert s.solve() is True
    s.add_clause([(c << 1) ^ 1])
    s.add_clause([(b << 1) ^ 1])
    assert s.solve() is False


def test_sat_assumptions_do_not_poison_state():
    s = Solver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a << 1, b << 1])
    assert s.solve([(a << 1) ^ 1, (b << 1) ^ 1]) is False
    assert s.solve([(a << 1) ^ 1]) is True
    assert s.solve() is True


def _random_formula(t, varnodes, rng, depth):
    if depth == 0 or rng.random() < 0.4:
        a = _random_term(t, varnodes, rng, 2)
        b = _random_term(t, varnodes, rng, 2)
        return getattr(t, rng.choice(["eq", "ult", "slt", "ule", "sle"]))(a, b)
    roll = rng.random()
    a = _random_formula(t, varnodes, rng, depth - 1)
    b = _random_formula(t, varnodes, rng, depth - 1)
    if roll < 0.3:
        return t.band([a, b])
    if roll < 0.6:
        return t.bor([a, b])
    if roll < 0.8:
        return t.bnot(a)
    return t.beq(a, b)


def _random_term(t, varnodes, rng, depth):
    w = varnodes[0].width
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return rng.choice(varnodes)
        return t.const(rng.randrange(1 << w), w)
    op = rng.choice(
        ["add", "sub", "mul", "udiv", "urem", "shl", "lshr", "and", "or", "xor",
         "sdiv", "srem", "ashr", "neg", "not", "ite"]
    )
    a = _random_term(t, varnodes, rng, depth - 1)
    b = _random_term(t, varnodes, rng, depth - 1)
    if op == "neg":
        return t.neg(a)
    if op == "not":
        return t.bvnot(a)
    if op == "sdiv":
        return t.sdiv(a, b)
    if op == "srem":
        return t.srem(a, b)
    if op == "ashr":
        return t.ashr(a, b)
    if op == "ite":
        return t.ite(_random_formula(t, varnodes, rng, 0), a, b)
    return t.bv2(op, a, b)


def test_differential_against_exhaustive_enumeration():
    rng = random.Random(20240817)
    width = 4
    for trial in range(250):
        eng = SmtEngine()
        t = eng.table
        eng.declare("a", width)
        eng.declare("b", width)
        varnodes = [t.var("a", width), t.var("b", width)]
        f = _random_formula(t, varnodes, rng, 3)
        eng.assert_node(f)
        got = eng.check_sat()
        expected = "unsat"
        for va, vb in itertools.product(range(1 << width), repeat=2):
            if eval_node(f, {"a": va, "b": vb}, {}):
                expected = "sat"
                break
        assert got == expected, f"trial {trial}"
        if got == "sat":
            assert eval_node(f, eng.last_model, {})


def test_differential_production_shaped_queries():
    # the shape range search emits: [not(iff(S1 & R, S2 & R)), R] where the
    # summaries are or-of-and path constraints and R is a range conjunction
    rng = random.Random(77)
    width = 4
    half = 1 << (width - 1)
    for trial in range(120):
        eng = SmtEngine()
        t = eng.table
        eng.declare("x", width)
        eng.declare("out", width)
        x, out = t.var("x", width), t.var("out", width)

        def summary():
            cut = rng.randrange(-half, half)
            cut_c = t.const(cut & ((1 << width) - 1), width)
            t1 = _random_term(t, [x], rng, 2)
            t2 = _random_term(t, [x], rng, 2)
            guard = t.slt(x, cut_c)
            return t.bor([
                t.band([guard, t.eq(out, t1)]),
                t.band([t.bnot(guard), t.eq(out, t2)]),
            ])

        s1, s2 = summary(), summary()
        lo = rng.randrange(-half, half)
        hi = rng.randrange(lo, half)
        lo_c = t.const(lo & ((1 << width) - 1), width)
        hi_c = t.const(hi & ((1 << width) - 1), width)
        r = t.band([t.sle(lo_c, x), t.sle(x, hi_c)])
        query = t.bnot(t.beq(t.band([s1, r]), t.band([s2, r])))
        eng.assert_node(query)
        eng.assert_node(r)
        got = eng.check_sat()
        expected = "unsat"
        for vx in range(1 << width):
            for vo in range(1 << width):
                if eval_node(query, {"x": vx, "out": vo}, {}) and eval_node(
                    r, {"x": vx, "out": vo}, {}
                ):
                    expected = "sat"
                    break
            if expected == "sat":
                break
        assert got == expected, f"trial {trial}"
        if got == "sat":
            assert eval_node(query, eng.last_model, {})
            assert eval_node(r, eng.last_model, {})


def test_push_pop_isolation():
    s = SmtSession()
    s.handle(["declare-const", "x", ["_", "BitVec", "8"]])
    s.handle(["assert", ["bvult", "x", ["_", "bv10", "8"]]])
    assert s.handle(["check-sat"]) == "sat"
    s.handle(["push", "1"])
    s.handle(["assert", ["bvult", ["_", "bv20", "8"], "x"]])
    assert s.handle(["check-sat"]) == "unsat"
    s.handle(["pop", "1"])
    assert s.handle(["check-sat"]) == "sat"


def test_protocol_subprocess_round_trip():
    script = """
(set-logic QF_BV)
(declare-const x (_ BitVec 8))
(declare-const y (_ BitVec 8))
(assert (= (bvadd x y) (_ bv255 8)))
(assert (bvult x (_ bv3 8)))
(check-sat)
(get-value (x y))
(push 1)
(assert (bvult y (_ bv10 8)))
(check-sat)
(pop 1)
(check-sat)
(exit)
"""
    proc = subprocess.run(
        [sys.executable, "-m", "patcheq.smtbv"],
        input=script, capture_output=True, text=True, timeout=60,
        env=CHILD_ENV,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    assert lines[0] == "sat"
    assert lines[1].startswith("((x (_ bv")
    assert lines[2] == "unsat"
    assert lines[3] == "sat"


def test_protocol_reports_errors_and_continues():
    script = """
(declare-const x (_ BitVec 8))
(assert (bvfoo x x))
(assert (bvult x (_ bv0 8)))
(check-sat)
(exit)
"""
    proc = subprocess.run(
        [sys.executable, "-m", "patcheq.smtbv"],
        input=script, capture_output=True, text=True, timeout=60,
        env=CHILD_ENV,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    assert lines[0].startswith("(error")  # unknown operator reported
    assert lines[1] == "unsat"  # the session keeps going; nothing is below 0


# --- protocol contract: exactly the SMT-LIB that serialize_formula writes ---


@dataclass(frozen=True)
class _Narrow:
    """A bit-vector sort narrower than any minilang sort, to enumerate exhaustively."""

    width: int


COMPARISONS = ("ult", "ule", "slt", "sle")


def _contract_queries(head, x, y):
    """Small queries around one operator: its result against every constant."""
    w = x.width
    if head in COMPARISONS:
        make = flt if head.endswith("lt") else fle
        consts = [tconst(c, w) for c in range(1 << w)]
        signed = head.startswith("s")
        return [make(signed, x, c) for c in consts] + [make(signed, c, x) for c in consts]
    if head in bvarith.BINARY:
        terms = [tbin(head, x, y)]
        if head in ("shl", "lshr", "ashr"):  # and by constants, which blast to no gates
            amounts = sorted({*range(min(w + 2, 1 << w)), (1 << w) - 1})
            terms += [tbin(head, x, tconst(c, w)) for c in amounts]
    elif head == "neg":
        terms = [tneg(x)]
    elif head == "extract":
        terms = [textract(w - 1, w // 2, x)]
    else:
        terms = [textend(head, 2, x)]
    return [feq(term, tconst(c, term.width)) for term in terms for c in range(1 << term.width)]


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("head", [*bvarith.BINARY, "neg", "zero", "sign", "extract",
                                  *COMPARISONS])
def test_every_operator_agrees_with_eval_formula(head, width):
    x, y = (BvVar(name, _Narrow(width), "input") for name in "xy")
    s = SmtSession()
    _handle_all(s, f"(declare-const x (_ BitVec {width})) (declare-const y (_ BitVec {width}))")
    points = [{"x": a, "y": b} for a, b in itertools.product(range(1 << width), repeat=2)]
    for query in _contract_queries(head, tvar(x), tvar(y)):
        _handle_all(s, f"(push 1) (assert {serialize_formula(query)})")
        verdict = s.handle(["check-sat"])
        assert verdict == ("sat" if any(eval_formula(query, p) for p in points) else "unsat")
        if verdict == "sat":
            reply = parse_all(s.handle(["get-value", ["x", "y"]]))[0]
            assert eval_formula(query, {name: int(value[1][2:]) for name, value in reply})
        s.handle(["pop", "1"])


@pytest.mark.parametrize("command", [
    "(assert (= (concat x x) (_ bv0 16)))",
    "(assert (distinct x (_ bv0 8)))",
    "(assert (xor true false))",
    "(assert (=> true false))",
    "(assert (ite true true false))",
    "(assert (= (ite true x x) x))",
    "(assert (= (bvnot x) x))",
    "(assert (bvugt x x))",
    "(assert (bvuge x x))",
    "(assert (bvsgt x x))",
    "(assert (bvsge x x))",
    "(assert (= x #x00))",
    "(assert (= x #b00000000))",
    "(declare-fun y () (_ BitVec 8))",
    "(reset)",
    "(set-info :status sat)",
    '(echo "hello")',
    # the remaining vocabulary with a wrong argument count or sort
    "(assert (bvadd x))",
    "(assert (= (bvneg x x) x))",
    "(assert (not true false))",
    "(assert (and))",
    "(assert (bvult x))",
    "(assert (bvult true false))",
    "(assert (and x x))",
    "(assert (= ((_ extract 3 0) x x) (_ bv0 4)))",
    "(assert (= ((_ extract 8 0) x) (_ bv0 9)))",
    "(assert (= ((_ zero_extend 1) x x) (_ bv0 9)))",
    "(assert (= (_ bv0 0) (_ bv0 0)))",
    "(assert true true)",
    "(assert (= x (_ bv1 (8))))",
    "(declare-const y (_ BitVec (8)))",
    "(push (1))",
    "(push -1)",
    "(assert |x)",
])
def test_input_outside_the_vocabulary_is_an_error_and_the_session_continues(command):
    script = f"(declare-const x (_ BitVec 8))\n{command}\n(assert (bvult x (_ bv0 8)))\n(check-sat)\n"
    out = io.StringIO()
    assert run_stdio(io.StringIO(script), out) == 0
    assert [line.split(" ")[0] for line in out.getvalue().splitlines()] == ["(error", "unsat"]


def test_a_term_of_any_depth_is_solved_and_a_too_deep_command_is_an_error():
    deep = "x"
    for _ in range(5000):  # far deeper than the interpreter's recursion limit
        deep = f"(bvadd {deep} (_ bv1 8))"
    # a command nested as deep: its error message quotes it, and that repr overflows
    malformed = "(" * 5000 + ")" * 5000
    script = (f"(declare-const x (_ BitVec 8))\n(assert (= {deep} (_ bv143 8)))\n"
              f"(check-sat)\n(get-value (x))\n{malformed}\n(check-sat)\n")
    out = io.StringIO()
    assert run_stdio(io.StringIO(script), out) == 0
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["sat", "((x (_ bv7 8)))"]  # x + 5000 = x + 136 (mod 256)
    assert lines[2].startswith("(error ")
    assert lines[3:] == ["sat"]


@pytest.mark.parametrize("script, replies", [
    ("(assert\n  (bvult (_ bv3 8)\n    x))\n(check-sat)\n(get-value (x))\n",
     ["sat", "((x (_ bv4 8)))"]),
    ("(assert (bvult x (_ bv3 8))) (check-sat)\n(get-value (x))\n", ["sat", "((x (_ bv0 8)))"]),
    ("; an open ( in a comment\n(check-sat) ; and ( here\n(get-value (x))\n",
     ["sat", "((x (_ bv0 8)))"]),
    ('(set-option :note "one (\ntwo")\n(check-sat)\n', ["sat"]),
    ('(set-option :note "say ""(hi"" ")\n(check-sat)\n', ["sat"]),
    (")\n(check-sat)\n", ['(error "unbalanced \')\'")', "sat"]),
    # the whole line is dropped: the push never happens, so the pop has nothing to pop
    ("(push 1) ) (pop 1)\n(check-sat)\n(pop 1)\n",
     ['(error "unbalanced \')\'")', "sat", '(error "pop past the root level")']),
    ("(check-sat)\n(assert (bvult x\n", ["sat"]),
    ('(check-sat)\n(set-option :note "open\n', ["sat"]),
], ids=["three-lines", "two-on-one-line", "paren-in-comment", "string-spans-lines",
        "escaped-quote", "stray-paren-own-line", "stray-paren-mid-line", "open-at-eof",
        "string-open-at-eof"])
def test_run_stdio_reads_a_command_once_the_lines_so_far_parse_whole(script, replies):
    out = io.StringIO()
    assert run_stdio(io.StringIO("(declare-const x (_ BitVec 8))\n" + script), out) == 0
    assert out.getvalue().splitlines() == replies


def test_parse_all_tells_incomplete_text_from_malformed_text():
    assert parse_all('(a "say ""(hi"" ") ; (\n') == [["a", '"say ""(hi"" "']]
    for text in ("(a (b)", '(a "open', '"ends in an escaped quote""'):
        with pytest.raises(Incomplete):
            parse_all(text)
    with pytest.raises(SexprError, match="unbalanced") as raised:
        parse_all("(a)) (b")
    assert not isinstance(raised.value, Incomplete)


# The bundled solver's sessions of one `patcheq corpus corpus/ --jobs 1` pass, in start
# order, with the replies they got: recorded through a --solver-cmd wrapper that copies
# its stdin to session_NN.smt2 and its stdout to session_NN.out around
# protocol.run_stdio.  They pin every answer and model on real client traffic.  They
# were recorded before path-pair boxes answered range checks, so they hold queries a
# pass no longer sends (345 where it now sends 256); they are fixed solver input, not
# a record of today's client, and are kept as they are.
CORPUS_SESSIONS = sorted((Path(__file__).resolve().parent / "golden" / "smtbv_corpus")
                         .glob("session_*.smt2"))


def test_the_recorded_corpus_traffic_is_all_there():
    assert len(CORPUS_SESSIONS) == 12
    assert sum(p.read_text().count("(check-sat)") for p in CORPUS_SESSIONS) == 345


@pytest.mark.parametrize("session", CORPUS_SESSIONS, ids=lambda p: p.stem)
def test_a_recorded_corpus_session_gets_byte_identical_replies(session):
    out = io.StringIO()
    assert run_stdio(io.StringIO(session.read_text()), out) == 0
    assert out.getvalue() == session.with_suffix(".out").read_text()


# One pass of perfbench's paths16 pairs (one-input i16 pairs with 8 to 32 paths per
# version, run with the combined method), recorded the same way and at the same time:
# a pass now sends none of these 81 queries, since sampled points and path-pair boxes
# answer every check.
PATHS16_SESSIONS = sorted((Path(__file__).resolve().parent / "golden" / "smtbv_paths16")
                          .glob("session_*.smt2"))


def test_the_recorded_paths16_traffic_is_all_there():
    assert len(PATHS16_SESSIONS) == 4
    assert sum(p.read_text().count("(check-sat)") for p in PATHS16_SESSIONS) == 81


@pytest.mark.parametrize("session", PATHS16_SESSIONS, ids=lambda p: p.stem)
def test_a_recorded_paths16_session_gets_byte_identical_replies(session):
    out = io.StringIO()
    assert run_stdio(io.StringIO(session.read_text()), out) == 0
    assert out.getvalue() == session.with_suffix(".out").read_text()


# One pass of perfbench's random8 pairs (the property gate's i8/u8 pairs and work: the
# classifier, four range searches and the gated enumeration), recorded the same way,
# through ``Random8.analyze``, after sampled points and path-pair boxes answered checks.
RANDOM8_SESSIONS = sorted((Path(__file__).resolve().parent / "golden" / "smtbv_random8")
                          .glob("session_*.smt2"))


def test_the_recorded_random8_traffic_is_all_there():
    assert len(RANDOM8_SESSIONS) == 42
    assert sum(p.read_text().count("(check-sat)") for p in RANDOM8_SESSIONS) == 548


@pytest.mark.parametrize("session", RANDOM8_SESSIONS, ids=lambda p: p.stem)
def test_a_recorded_random8_session_gets_byte_identical_replies(session):
    out = io.StringIO()
    assert run_stdio(io.StringIO(session.read_text()), out) == 0
    assert out.getvalue() == session.with_suffix(".out").read_text()


def test_walk_yields_operands_first_each_node_once_and_skip_prunes():
    t = TermTable()
    x, y = t.var("x", 8), t.var("y", 8)
    shared = t.bv2("add", x, y)
    left = t.bv2("sub", shared, x)
    root = t.ult(left, shared)
    assert list(walk(root)) == [x, y, shared, left, root]
    asked = []
    assert list(walk(root, lambda n: asked.append(n) or n is shared)) == [x, left, root]
    assert asked == [root, left, shared, x]  # once per node, never below a skip


# --- compiled evaluator ---

WIDTHS = (1, 8, 33, 64)
_BV_OPS = ("add", "sub", "mul", "udiv", "urem", "shl", "lshr", "and", "or", "xor")
TERM_KINDS = _BV_OPS + ("sdiv", "srem", "ashr", "neg", "bvnot", "ite",
                        "extract", "zext", "sext")
FORMULA_KINDS = ("eq", "ult", "slt", "ule", "sle", "bnot", "band", "bor", "beq")


def _draw_term(data, t, width, depth, kind=None):
    """A bit-vector term of the given width, built through the TermTable."""
    if kind is None:
        if depth == 0 or data.draw(st.integers(0, 3)) == 0:
            if data.draw(st.booleans()):
                return t.var(f"v{width}_{data.draw(st.integers(0, 1))}", width)
            return t.const(data.draw(st.integers(0, (1 << width) - 1)), width)
        kind = data.draw(st.sampled_from(TERM_KINDS))
    sub = max(depth - 1, 0)
    if kind in _BV_OPS:
        return t.bv2(kind, _draw_term(data, t, width, sub), _draw_term(data, t, width, sub))
    if kind in ("sdiv", "srem", "ashr"):
        return getattr(t, kind)(_draw_term(data, t, width, sub), _draw_term(data, t, width, sub))
    if kind == "neg":
        return t.neg(_draw_term(data, t, width, sub))
    if kind == "bvnot":
        return t.bvnot(_draw_term(data, t, width, sub))
    if kind == "ite":
        return t.ite(_draw_formula(data, t, sub),
                     _draw_term(data, t, width, sub), _draw_term(data, t, width, sub))
    if kind == "extract":
        source = data.draw(st.sampled_from([w for w in WIDTHS if w >= width]))
        lo = data.draw(st.integers(0, source - width))
        return t.extract(lo + width - 1, lo, _draw_term(data, t, source, sub))
    if width == 1:  # no narrower operand to extend
        return _draw_term(data, t, width, 0)
    inner = data.draw(st.sampled_from([w for w in WIDTHS if w < width]))
    return getattr(t, kind)(width - inner, _draw_term(data, t, inner, sub))


def _draw_formula(data, t, depth, kind=None):
    if kind is None:
        kind = data.draw(st.sampled_from(FORMULA_KINDS))
    sub = max(depth - 1, 0)
    if kind in ("eq", "ult", "slt", "ule", "sle") or depth == 0:
        width = data.draw(st.sampled_from(WIDTHS))
        op = kind if kind in ("eq", "ult", "slt", "ule", "sle") else "eq"
        return getattr(t, op)(_draw_term(data, t, width, sub), _draw_term(data, t, width, sub))
    if kind == "bnot":
        return t.bnot(_draw_formula(data, t, sub))
    if kind in ("band", "bor"):
        return getattr(t, kind)([_draw_formula(data, t, sub) for _ in range(3)])
    return t.beq(_draw_formula(data, t, sub), _draw_formula(data, t, sub))


@pytest.mark.parametrize("kind", TERM_KINDS + FORMULA_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compiled_evaluator_matches_eval_node(kind, data):
    t = TermTable()
    if kind in FORMULA_KINDS:
        node = _draw_formula(data, t, 3, kind)
    else:
        widths = WIDTHS[1:] if kind in ("zext", "sext") else WIDTHS
        node = _draw_term(data, t, data.draw(st.sampled_from(widths)), 3, kind)
    env = {}
    for name, var in sorted(free_vars(node).items()):
        if data.draw(st.booleans()):  # the rest stay unassigned and read as 0
            env[name] = data.draw(st.integers(0, (1 << var.width) - 1))
    assert compile_node(node)(env) == eval_node(node, env, {})


def test_compiled_evaluator_calls_known_subterms():
    t = TermTable()
    x = t.var("x", 8)
    inner = t.bv2("add", x, t.const(3, 8))
    outer = t.ult(inner, t.bv2("mul", inner, x))
    calls = []

    def inner_fn(env):
        calls.append(env)
        return eval_node(inner, env, {})

    fn = compile_node(outer, lambda nid: inner_fn if nid == inner.nid else None)
    for value in (0, 5, 200, 255):
        assert fn({"x": value}) == eval_node(outer, {"x": value}, {})
    assert len(calls) == 4  # once per evaluation, shared by both uses


# --- define-fun ---


def _handle_all(session, text):
    return [session.handle(cmd) for cmd in parse_all(text)]


def test_defined_name_is_the_inline_node():
    s = SmtSession()
    _handle_all(s, "(declare-const x (_ BitVec 8))"
                   "(define-fun summary!1 () Bool (or (bvult x (_ bv5 8)) (= x (_ bv9 8))))")
    inline = s.parse_term(parse_all("(or (bvult x (_ bv5 8)) (= x (_ bv9 8)))")[0])
    assert s.parse_term("summary!1") is inline
    query = "(and summary!1 (bvult (_ bv3 8) x))"
    expanded = "(and (or (bvult x (_ bv5 8)) (= x (_ bv9 8))) (bvult (_ bv3 8) x))"
    assert s.parse_term(parse_all(query)[0]) is s.parse_term(parse_all(expanded)[0])
    _handle_all(s, f"(assert {query})")
    assert s.handle(["check-sat"]) == "sat"
    assert s.handle(["get-value", ["x"]]) == "((x (_ bv4 8)))"


def test_definition_inside_push_is_gone_after_pop():
    s = SmtSession()
    _handle_all(s, "(declare-const x (_ BitVec 8)) (push 1)"
                   "(define-fun small () Bool (bvult x (_ bv5 8))) (assert small)")
    assert s.handle(["check-sat"]) == "sat"
    s.handle(["pop", "1"])
    with pytest.raises(SmtError):
        s.parse_term("small")
    _handle_all(s, "(define-fun small () Bool (bvult (_ bv5 8) x)) (assert small)"
                   "(assert (bvult x (_ bv5 8)))")
    assert s.handle(["check-sat"]) == "unsat"  # the new body, not the popped one


def test_bad_definitions_are_errors_and_the_session_continues():
    script = """
(declare-const x (_ BitVec 8))
(define-fun d () Bool (bvult x (_ bv5 8)))
(define-fun d () Bool (bvult x (_ bv6 8)))
(define-fun x () Bool true)
(define-fun f ((y (_ BitVec 8))) Bool (bvult y x))
(define-fun g () (_ BitVec 8) x)
(define-fun h () Bool x)
(assert d)
(assert (bvult (_ bv5 8) x))
(check-sat)
(exit)
"""
    out = io.StringIO()
    assert run_stdio(io.StringIO(script), out) == 0
    lines = [line for line in out.getvalue().splitlines() if line.strip()]
    assert len(lines) == 6
    assert all(line.startswith("(error") for line in lines[:5])
    assert lines[5] == "unsat"  # d kept its first body


# --- scoped names ---


def _replies(commands: list[str]) -> list[str]:
    out = io.StringIO()
    assert run_stdio(io.StringIO("\n".join(commands) + "\n"), out) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("commands, replies", [
    (["(push 1)", "(declare-const x (_ BitVec 4))", "(assert (= (bvmul x (_ bv3 4)) (_ bv7 4)))",
      "(check-sat)", "(get-value (x))", "(pop 1)", "(declare-const x (_ BitVec 8))",
      "(assert (= (bvmul x (_ bv3 8)) (_ bv88 8)))", "(check-sat)", "(get-value (x))"],
     ["sat", "((x (_ bv13 4)))", "sat", "((x (_ bv200 8)))"]),
    (["(declare-const x (_ BitVec 8))", "(push 1)", "(declare-const y (_ BitVec 4))",
      "(assert (= (bvmul x (_ bv27 8)) (_ bv70 8)))", "(check-sat)",
      "(assert (= (bvmul y (_ bv5 4)) (_ bv7 4)))", "(check-sat)", "(get-value (y))", "(pop 1)",
      "(declare-const y (_ BitVec 8))", "(assert (= (bvmul y (_ bv61 8)) (_ bv24 8)))",
      "(check-sat)", "(get-value (y))"],
     ["sat", "sat", "((y (_ bv11 4)))", "sat", "((y (_ bv248 8)))"]),
], ids=["one-name", "beside-an-outer-name"])
def test_a_popped_name_declared_again_at_another_width_gets_bits_of_its_own(commands, replies):
    assert _replies(commands) == replies


def test_pop_past_the_root_is_an_error_that_pops_nothing():
    replies = _replies(["(declare-const x (_ BitVec 8))", "(push 1)",
                        "(assert (= x (_ bv1 8)))", "(pop 2)",
                        "(assert (= x (_ bv2 8)))", "(check-sat)"])
    assert replies == ['(error "pop past the root level")', "unsat"]


def test_names_are_bound_once_in_scope_and_go_with_their_level():
    replies = _replies([
        "(declare-const x (_ BitVec 8))", "(define-fun d () Bool (bvult x (_ bv5 8)))",
        "(push 1)", "(declare-const x (_ BitVec 4))", "(define-fun x () Bool true)",
        "(declare-const d (_ BitVec 8))", "(define-fun d () Bool true)",
        "(declare-const y (_ BitVec 8))", "(pop 1)",
        "(assert (bvult y (_ bv5 8)))", "(assert d)", "(check-sat)",
        "(get-value (y))", "(get-value (d))", "(get-value (x))",
    ])
    assert replies[:-1] == [
        '(error "x already declared")', '(error "x already declared")',
        '(error "d already declared")', '(error "d already declared")',
        '(error "unknown constant y")', "sat",
        '(error "unknown constant y")', '(error "unknown constant d")',
    ]
    assert replies[-1].startswith("((x (_ bv") and replies[-1].endswith(" 8)))")


def _scoped_script(rng: random.Random) -> tuple[list[str], list[list[str]]]:
    """Random declare/push/pop/assert/check-sat traffic over x and y at widths 4 and 8.

    Returns the commands and, for each check-sat, the declarations and then
    the assertions in scope at it.  Every assertion is followed by a check-sat.
    """
    levels: list[tuple[list[str], list[str]]] = [([], [])]  # declarations, assertions
    commands, scopes = [], []
    for _ in range(rng.randint(6, 20)):
        widths = {cmd.split()[1]: int(cmd.split()[-1][:-2]) for lvl in levels for cmd in lvl[0]}
        move = rng.choice(["declare", "push", "pop", "assert", "check-sat"])
        if move == "declare" and len(widths) < 2:
            name = rng.choice([n for n in "xy" if n not in widths])
            levels[-1][0].append(f"(declare-const {name} (_ BitVec {rng.choice((4, 8))}))")
            commands.append(levels[-1][0][-1])
        elif move == "push":
            levels.append(([], []))
            commands.append("(push 1)")
        elif move == "pop" and len(levels) > 1:
            levels.pop()
            commands.append("(pop 1)")
        elif move == "assert" and widths:
            name = rng.choice(sorted(widths))
            w = widths[name]
            k, c = rng.randrange(1, 1 << w, 2), rng.randrange(1 << w)  # one root: x = c / k
            levels[-1][1].append(f"(assert (= (bvmul {name} (_ bv{k} {w})) (_ bv{c} {w})))")
            commands.append(levels[-1][1][-1])
            move = "check-sat"
        if move == "check-sat":
            commands.append("(check-sat)")
            scopes.append([cmd for lvl in levels for cmd in lvl[0]]
                          + [cmd for lvl in levels for cmd in lvl[1]])
    return commands, scopes


def test_every_check_sat_answers_as_a_fresh_session_given_what_is_in_scope():
    rng = random.Random(5)
    for _ in range(800):
        commands, scopes = _scoped_script(rng)
        fresh = [_replies([*scope, "(check-sat)"])[0] for scope in scopes]
        assert "unknown" not in fresh
        assert _replies(commands) == fresh, commands


# --- probe caches ---


def _probe_cache_size(eng: SmtEngine) -> int:
    return sum(len(lvl.facts) for lvl in eng.levels)


def test_probe_caches_stay_flat_over_many_range_queries():
    """A query's probe facts go with its level on pop, and it leaves no reference
    cycle, so none of its garbage waits for the cyclic collector."""
    eng = SmtEngine()
    t = eng.table
    width = 16
    eng.declare("x", width)
    eng.declare("out", width)
    x, out = t.var("x", width), t.var("out", width)

    def summary(cut, a, b):
        guard = t.slt(x, t.const(cut, width))
        return t.bor([t.band([guard, t.eq(out, t.bv2("add", x, t.const(a, width)))]),
                      t.band([t.bnot(guard), t.eq(out, t.bv2("mul", x, t.const(b, width)))])])

    s1, s2 = summary(100, 1, 3), summary(200, 1, 3)
    eng.define("summary!1", s1)
    eng.define("summary!2", s2)
    rng = random.Random(5)
    sizes = []
    gc.collect()
    gc.disable()
    try:
        for query in range(2000):
            lo = rng.randrange(1 << width)
            hi = rng.randrange(lo, 1 << width)
            r = t.band([t.ule(t.const(lo, width), x), t.ule(x, t.const(hi, width))])
            eng.push()
            if query % 2:
                eng.assert_node(t.bnot(t.beq(t.band([s1, r]), t.band([s2, r]))))
            else:
                eng.assert_node(s1)
                eng.assert_node(s2)
            eng.assert_node(r)
            assert eng.check_sat() in ("sat", "unsat")
            assert _probe_cache_size(eng) > 2  # the query's own facts, until pop
            eng.pop()
            sizes.append(_probe_cache_size(eng))
        garbage = gc.collect()  # before enable(), whose next allocation would collect it
    finally:
        gc.enable()
    assert max(sizes) <= sizes[9] == 2  # only the two definitions remain
    assert garbage == 0


def test_a_model_that_breaks_an_original_assertion_is_solved_again(monkeypatch):
    # five inputs, so the probe steps aside and CDCL answers the simplified set; with
    # one assertion dropped its model breaks that assertion, so the originals are solved
    eng = SmtEngine()
    t = eng.table
    xs = []
    for name in "abcde":
        eng.declare(name, 8)
        xs.append(t.var(name, 8))
    total = xs[0]
    for x in xs[1:]:
        total = t.bv2("add", total, x)
    kept = t.eq(total, t.const(200, 8))
    dropped = t.eq(t.bv2("xor", xs[0], xs[1]), t.const(0x5A, 8))
    eng.assert_node(kept)
    eng.assert_node(dropped)

    class Dropping(engine.Simplifier):
        def run(self, n):
            return self.t.TRUE if n is dropped else super().run(n)

    monkeypatch.setattr(engine, "Simplifier", Dropping)
    solved, solve_cnf = [], eng._solve_cnf
    monkeypatch.setattr(eng, "_solve_cnf", lambda blast_set, originals, deadline: (
        solved.append(blast_set) or solve_cnf(blast_set, originals, deadline)))
    assert eng.check_sat() == "sat"
    assert dropped not in solved[0] and solved[1:] == [[kept, dropped]]
    assert eval_node(kept, eng.last_model, {}) and eval_node(dropped, eng.last_model, {})


def test_harvested_bounds_hold_every_model():
    width = 4
    eng = SmtEngine()
    t = eng.table
    names = ("x", "y")
    for name in names:
        eng.declare(name, width)
    points = [dict(zip(names, p)) for p in itertools.product(range(1 << width), repeat=2)]
    rng = random.Random(19)
    for _ in range(600):
        atoms = []
        for _ in range(rng.randint(1, 6)):
            v, c = t.var(rng.choice(names), width), t.const(rng.randrange(1 << width), width)
            op = getattr(t, rng.choice(["eq", "ult", "slt", "ule", "sle"]))
            atom = op(v, c) if rng.random() < 0.5 else op(c, v)
            atoms.append(t.bnot(atom) if rng.random() < 0.3 else atom)
        cuts = [*sorted(rng.sample(range(1, len(atoms)), rng.randrange(len(atoms)))), len(atoms)]
        actives = [t.band(atoms[i:j]) for i, j in zip([0, *cuts], cuts)]  # and groups
        bounds = eng._harvest_bounds(actives)
        models = [p for p in points if all(eval_node(a, p, {}) for a in actives)]
        if bounds is None:
            assert not models, actives
            continue
        for p in models:
            for name, (ulo, uhi, slo, shi) in bounds.items():
                assert ulo <= p[name] <= uhi, (actives, bounds)
                assert slo <= bvarith.to_signed(p[name], width) <= shi, (actives, bounds)


# --- package imports ---


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=CHILD_ENV,
    )


def test_solver_child_does_not_import_the_analysis_stack():
    proc = _fresh_python(
        "import sys\n"
        "import patcheq.smtbv.protocol\n"
        "print(sorted(m for m in sys.modules if m.startswith('patcheq')))\n"
        "assert 'patcheq.minilang' not in sys.modules\n"
        "assert 'patcheq.report' not in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_the_client_does_not_load_the_solver_engine():
    proc = _fresh_python(
        "import sys\n"
        "import patcheq.oracle\n"
        "assert 'patcheq.smtbv.engine' not in sys.modules\n"
        "from patcheq.smtbv import run_stdio, SmtSession\n"
        "from patcheq.smtbv.protocol import SmtSession as direct\n"
        "assert SmtSession is direct and callable(run_stdio)\n"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_the_preamble_holds_every_module_the_solver_child_loads():
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, patcheq.smtbv.protocol\n"
         "print(' '.join(m for m in sys.modules if m.startswith('patcheq')))\n"],
        capture_output=True, text=True, timeout=60,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    length, _, body = bundled_preamble().partition(b"\n")
    assert len(body) == int(length)
    assert "patcheq.smtbv.engine" in loaded
    assert loaded <= set(marshal.loads(body))


# declare, define, push, check-sat, get-value, pop, as a session sends them
RECORDED_SESSION = b"""(set-logic QF_BV)
(set-option :timeout 20000)
(declare-const x (_ BitVec 8))
(declare-const y (_ BitVec 8))
(define-fun both () Bool (and (bvult x (_ bv3 8)) (= (bvadd x y) (_ bv255 8))))
(push 1)
(assert both)
(check-sat)
(get-value (x y))
(pop 1)
(push 1)
(assert (and both (bvult y (_ bv10 8))))
(check-sat)
(pop 1)
(check-sat)
(exit)
"""


def test_the_handed_over_child_replies_byte_for_byte_like_python_m(tmp_path):
    # no PYTHONPATH and a foreign working directory: every module must come from the preamble
    handed = subprocess.run(
        bundled_solver_command(), input=bundled_preamble() + RECORDED_SESSION,
        capture_output=True, timeout=60, cwd=tmp_path, env={"PATH": "/usr/bin:/bin"},
    )
    by_hand = subprocess.run(
        [sys.executable, "-m", "patcheq.smtbv"], input=RECORDED_SESSION,
        capture_output=True, timeout=60, env=CHILD_ENV,
    )
    assert handed.returncode == by_hand.returncode == 0, handed.stderr + by_hand.stderr
    assert handed.stdout == by_hand.stdout
    replies = handed.stdout.decode().splitlines()
    assert [replies[0], replies[2], replies[3]] == ["sat", "unsat", "sat"]
    assert replies[1].startswith("((x (_ bv")


def test_package_exports_still_resolve():
    proc = _fresh_python(
        "import patcheq\n"
        "from patcheq import analyze_pair\n"
        "from patcheq.report import analyze_pair as direct\n"
        "assert analyze_pair is direct\n"
        "assert all(getattr(patcheq, name) is not None for name in patcheq.__all__)\n"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
