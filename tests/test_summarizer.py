"""Summary construction: path enumeration, Def-style soundness, loops."""

import gc
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from patcheq import bvarith, regions, summarizer
from patcheq.formula import FAnd, FEq, FIff, FNot, FOr, eval_formula, pretty
from patcheq.oracle import Budget
from patcheq.randgen import random_function, random_pair
from patcheq.summarizer import (
    SummarizeError, UnrollLimitExceeded, eval_concrete, require_same_signature,
    summarize,
)

from conftest import corpus_fn, fn, walk_formula, walk_term


def output_equation(disjunct):
    if isinstance(disjunct, FAnd):
        return disjunct.items[-1]
    return disjunct


def test_doubles_metadata_two_disjuncts():
    summary = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "original.fn"))
    assert summary.path_count == 2
    assert isinstance(summary.formula, FOr)
    assert len(summary.formula.items) == 2
    for disjunct in summary.formula.items:
        eq = output_equation(disjunct)
        assert isinstance(eq, FEq)
        assert eq.lhs.var.name == summary.output.name


def test_identity_single_disjunct():
    summary = summarize(fn("fn id(x: i8) -> i8 { return x; }"))
    assert summary.path_count == 1
    eq = output_equation(summary.formula.items[0])
    assert isinstance(eq, FEq)
    assert eq.rhs.var.name == "x"


def test_dart_version_two_has_three_paths():
    f = corpus_fn("eqbench_dart", "patched.fn")
    summary = summarize(f)
    assert summary.path_count == 3
    # cross-check each disjunct against concrete execution on random inputs,
    # plus targeted points so every disjunct fires at least once
    rng = random.Random(7)
    points = [(2, 10), (2, 11), (-3, 10), (2000000, 10)]
    points += [
        (rng.randint(-(2**31), 2**31 - 1), rng.randint(-(2**31), 2**31 - 1))
        for _ in range(1000)
    ]
    hits = [0] * summary.path_count
    for x, y in points:
        expected = eval_concrete(f, [x, y])
        env = {
            "x": bvarith.to_unsigned(x, 32),
            "y": bvarith.to_unsigned(y, 32),
            summary.output.name: bvarith.to_unsigned(expected, 32),
        }
        satisfied = [
            i for i, d in enumerate(summary.formula.items) if eval_formula(d, env)
        ]
        assert len(satisfied) == 1  # deterministic: exactly one path fires
        hits[satisfied[0]] += 1
        env[summary.output.name] = bvarith.to_unsigned(expected ^ 1, 32)
        assert not eval_formula(summary.formula, env)
    assert all(h > 0 for h in hits)  # every disjunct is exercised


def test_eval_concrete_tcp_window_divergence():
    orig = corpus_fn("cve_2010_4165_tcp_window", "original.fn")
    patched = corpus_fn("cve_2010_4165_tcp_window", "patched.fn")
    assert eval_concrete(orig, [8]) == 8
    assert eval_concrete(patched, [8]) == -22
    for val in (64, 32767, 0, -5, 100000):
        assert eval_concrete(orig, [val]) == eval_concrete(patched, [val])


def test_eval_concrete_identity():
    assert eval_concrete(fn("fn id(x: i8) -> i8 { return x; }"), [5]) == 5


def test_eval_concrete_ltfive_overflow_divergence():
    orig = corpus_fn("eqbench_ltfive", "original.fn")
    patched = corpus_fn("eqbench_ltfive", "patched.fn")
    x = 429496729
    # (x + 1) * 5 wraps negative, so the two lib versions take different
    # branches; hand-check the wraparound product first
    product = bvarith.to_signed(bvarith.mul(x + 1, 5, 32), 32)
    assert product < 0
    assert eval_concrete(orig, [x]) != eval_concrete(patched, [x])
    assert eval_concrete(orig, [0]) == eval_concrete(patched, [0])


WIDTH8_BATTERY = [
    "fn f(x: i8) -> i8 { return x; }",
    "fn f(x: i8) -> i8 { if (x < 0) { return -x; } return x; }",
    "fn f(x: u8) -> u8 { if (x > 200) { return 200; } return x; }",
    "fn f(x: i8) -> i8 { return x * 3 + 1; }",
    "fn f(x: i8, y: i8) -> i8 { if (x < y) { return y; } return x; }",
    "fn f(x: u8) -> u8 { return x / 3 + x % 5; }",
    "fn f(x: i8) -> i8 { return x / 0; }",
    """fn f(x: u8) -> u8 {
        let acc: u8 = 0;
        let i: u8 = 0;
        while (i < 3) { acc = acc + x; i = i + 1; }
        return acc;
    }""",
    # loop inside an if branch
    """fn f(x: u8) -> u8 {
        let acc: u8 = 1;
        let i: u8 = 0;
        if (x > 100) {
            while (i < x - 100 && i < 3) { acc = acc + x; i = i + 1; }
        } else {
            acc = x;
        }
        return acc + i;
    }""",
    # if inside a loop body
    """fn f(x: i8) -> i8 {
        let acc: i8 = 0;
        let i: i8 = 0;
        while (i < 4) {
            if (x > i) { acc = acc + 1; } else { acc = acc - x; }
            i = i + 1;
        }
        return acc;
    }""",
    # two loops in sequence, the second bounded by the first's result
    """fn f(x: u8) -> u8 {
        let i: u8 = 0;
        while (i < x && i < 3) { i = i + 1; }
        let j: u8 = 0;
        while (j < i + 1) { j = j + 2; }
        return i * 16 + j;
    }""",
    # nested loop
    """fn f(x: u8) -> u8 {
        let acc: u8 = 0;
        let i: u8 = 0;
        let j: u8 = 0;
        while (i < 3) {
            j = 0;
            while (j < i && j < x) { acc = acc + x; j = j + 1; }
            i = i + 1;
        }
        return acc;
    }""",
    # return after a loop, branching on the loop's result
    """fn f(x: i8) -> i8 {
        let n: i8 = 0;
        let v: i8 = x;
        while (v > 10 && n < 4) { v = v - 20; n = n + 1; }
        if (n > 1) { return v; }
        if (n == 1) { return -v; }
        return n;
    }""",
    # a callee with a loop
    """fn g(a: u8) -> u8 {
        let i: u8 = 0;
        while (i < a && i < 3) { i = i + 1; }
        return i * 10;
    }
    fn f(x: u8) -> u8 { return g(x) + g(x / 2); }""",
    # a callee that mixes returning and falling-through paths
    """fn g(a: i8) -> i8 {
        if (a > 50) { return 1; }
        if (a < -50) { a = a + 100; } else { return a * 2; }
        return a - 3;
    }
    fn f(x: i8) -> i8 { return g(x); }""",
    # a call chain, with literal arguments and a two-parameter callee
    """fn a(v: i8, w: i8) -> i8 { if (v < w) { return w - v; } return v - w; }
    fn b(v: i8) -> i8 { return a(v, 7) * 2; }
    fn f(x: i8) -> i8 { return b(x) + a(-3, x); }""",
    # a call used twice in one expression
    """fn g(a: u8) -> u8 { if (a > 127) { return a - 128; } return a + 1; }
    fn f(x: u8) -> u8 { return g(x) * g(x + 64); }""",
    # calls in an if condition and in a while condition
    """fn g(a: i8) -> i8 { if (a < 0) { return 0; } return a; }
    fn f(x: i8) -> i8 {
        let n: i8 = 0;
        if (g(x) > 20) { n = 1; }
        while (g(x - n) > 60 && n < 5) { n = n + 2; }
        return n;
    }""",
    # a cast of a callee that returns a literal, and a comparison with one
    """fn g(a: i8) -> i8 { if (a > 3) { return 1; } return -1; }
    fn f(x: i8) -> u8 {
        if (g(x) == 1) { return (u8) g(x - 5); }
        return (u8) g(x) + 9;
    }""",
    # signed division and remainder: zero divisors at x = 5 and x = -2, and -128 / -1
    "fn f(x: i8) -> i8 { return (x * 7) / (x - 5) + (x * 3) % (x + 2) + x / -1; }",
    # arithmetic and left shifts by every amount, the width and past it included
    "fn f(x: i8) -> i8 { return ((x >> (x & 15)) | (-77 >> x)) ^ (x << (x - 60)); }",
    # logical shifts past the width, and unsigned zero divisors
    "fn f(x: u8) -> u8 { return (x >> (x % 11)) + (200 >> x) + (x << (x / 16)) + x % (x & 7) + 100 / (x & 3); }",
    # sign and zero extension, and narrowing casts
    """fn f(x: i8) -> i16 {
        let w: i16 = (i16) x * 300 + (i16) ((u8) x);
        return (i16) ((u8) w) - (i16) ((i8) (w >> 4)) + (i16) ((u16) w / 3);
    }""",
    # signed and unsigned orders, negated and joined
    """fn f(x: i8) -> u8 {
        let y: u8 = (u8) (x * 5);
        if ((u8) x < y || x >= 100) { return y - (u8) x; }
        if (x <= -3 && !((u8) x > y)) { return 7; }
        if (x > (i8) y) { return y / 0; }
        if ((u8) x >= y && x != 12) { return 9; }
        return (u8) x;
    }""",
    # loops bounded by the input: each ends at its last box-feasible iteration
    "fn f(x: u8) -> u8 { while (x < 5) { x = x + 1; } return x; }",
    """fn f(x: i8) -> i8 {
        let n: i8 = 0;
        while (x > 100) { x = x + 10; n = n + 1; }
        return x * 4 + n;
    }""",
]


@pytest.mark.parametrize("source", WIDTH8_BATTERY)
def test_summary_iff_exhaustive_width8(source):
    # The summary holds on (i, o) exactly when the program maps i to o,
    # and o is the one output it allows at i
    f = fn(source)
    summary = summarize(f)
    sorts = [s for _, s in f.params]
    out_w = f.return_sort.width
    for point in itertools.product(*[range(s.min_value, s.max_value + 1) for s in sorts]):
        expected = eval_concrete(f, list(point))
        env = {
            v.name: bvarith.to_unsigned(val, v.sort.width)
            for v, val in zip(summary.inputs, point)
        }
        assert summary.at(env)[1] == bvarith.to_unsigned(expected, out_w)
        env[summary.output.name] = bvarith.to_unsigned(expected, out_w)
        assert eval_formula(summary.formula, env)
        env[summary.output.name] = bvarith.to_unsigned(expected + 1, out_w)
        assert not eval_formula(summary.formula, env)


def test_path_count_equals_syntactic_leaves():
    f = fn(
        """
        fn f(x: i8) -> i8 {
            if (x < 0) {
                if (x < -64) { return 0; }
                return 1;
            } else {
                if (x > 64) { return 2; }
            }
            return 3;
        }
        """
    )
    assert summarize(f).path_count == 4


def test_concrete_loop_unrolls_and_symbolic_loop_errors():
    bounded = fn(
        "fn f(x: i8) -> i8 { let i: i8 = 0; while (i < 3) { i = i + 1; } return i; }"
    )
    assert summarize(bounded).path_count == 1
    assert eval_concrete(bounded, [0]) == 3

    live = fn("fn f(x: i8) -> i8 { while (x > 0) { x = x - 1; } return x; }")
    with pytest.raises(UnrollLimitExceeded):
        summarize(live, unroll_limit=8)
    with pytest.raises(UnrollLimitExceeded):
        eval_concrete(live, [100], unroll_limit=8)
    assert eval_concrete(live, [5], unroll_limit=8) == 0


def test_input_bounded_loops_stop_at_their_last_feasible_iteration():
    counting_up = fn("fn f(x: u8) -> u8 { while (x < 5) { x = x + 1; } return x; }")
    assert summarize(counting_up).path_count == 6  # exits after 0..5 iterations
    assert summarize(counting_up, unroll_limit=5).path_count == 6
    with pytest.raises(UnrollLimitExceeded):  # x = 0 runs a fifth iteration
        summarize(counting_up, unroll_limit=4)
    # x + 10 wraps past 127 within three iterations
    wrapping = fn("fn f(x: i8) -> i8 { while (x > 100) { x = x + 10; } return x; }")
    assert summarize(wrapping, unroll_limit=3).path_count == 4


def chain(n, guard, params="x: i32"):
    return fn(f"fn f({params}) -> i32 {{\n    let acc: i32 = 0;\n" + "".join(
        f"    if ({guard(i)}) {{ acc = acc + {i + 1}; }}\n" for i in range(n)) + "    return acc;\n}")


@pytest.mark.parametrize("guard", [
    lambda i: f"x > {1000 * i}",
    lambda i: f"x {'>' if i % 2 else '<'} {1000 * i - 16000}",  # paths16's alternating guards
    lambda i: f"-x + 5 <= {7 - 1000 * i}",
])
def test_one_input_guard_chains_keep_one_path_per_interval(guard):
    f = chain(32, guard)
    start = time.perf_counter()
    summary = summarize(f)  # 2**32 syntactic paths
    assert time.perf_counter() - start < 1.0
    assert summary.path_count == 33
    points = [-(2**31), -16001, -16000, -1, 0, 1, 999, 1000, 15999, 16000, 2**31 - 1]
    for x in points + [1000 * i + d for i in range(-20, 33) for d in (-1, 0, 1)]:
        env = {"x": bvarith.to_unsigned(x, 32)}
        assert summary.at(env)[1] == bvarith.to_unsigned(eval_concrete(f, [x]), 32)


def test_each_condition_is_read_once_per_summary(monkeypatch):
    # a step reads only the conditions it adds; the parent re-read whole paths
    read, seen = regions.read, []

    def counting(f):
        if sys._getframe(1).f_code is not read.__code__:  # read's recursion is part of one read
            seen.append(f)
        return read(f)

    monkeypatch.setattr(regions, "read", counting)
    assert summarize(chain(32, lambda i: f"x > {1000 * i}")).path_count == 33
    assert len(seen) == len(set(seen)) > 32


def test_opaque_guards_keep_every_path():
    summary = summarize(chain(6, lambda i: f"x * y > {1000 * i}", "x: i32, y: i32"))
    assert summary.path_count == 2**6


@pytest.mark.parametrize("source, disjuncts", [
    # depth first: the then side runs on to its return before the else side starts
    ("fn f(x: i8) -> i8 { if (x > 0) { x = 1; } else { return 2; } return x; }",
     ["(0 < x && out == 1)", "(!(0 < x) && out == 2)"]),
    # a loop's exit path first, then one path per iteration
    ("fn f(x: u8) -> u8 { while (x < 2) { x = x + 1; } return x; }",
     ["(!(x < 2) && out == x)", "(x < 2 && !((x + 1) < 2) && out == (x + 1))",
      "(x < 2 && (x + 1) < 2 && !(((x + 1) + 1) < 2) && out == ((x + 1) + 1))"]),
    # call variants: the left argument's path varies slowest
    ("fn g(x: i8) -> i8 { if (x > 0) { return 1; } return 2; }\n"
     "fn f(x: i8, y: i8) -> i8 { return g(x) - g(y); }",
     ["(0 < x && 0 < y && out == 0)", "(0 < x && !(0 < y) && out == -1)",
      "(!(0 < x) && 0 < y && out == 1)", "(!(0 < x) && !(0 < y) && out == 0)"]),
])
def test_paths_come_out_in_execution_order(source, disjuncts):
    assert [pretty(d) for d in summarize(fn(source)).formula.items] == disjuncts


def test_an_expired_budget_stops_only_a_large_exploration():
    big = chain(10, lambda i: f"x * y > {1000 * i}", "x: i32, y: i32")
    with pytest.raises(SummarizeError, match="budget ran out"):
        summarize(big, budget=Budget(0))
    assert summarize(big, budget=Budget(60_000)).path_count == 2**10
    small = corpus_fn("eqbench_ltfive", "original.fn")  # fewer than BUDGET_STRIDE branch sides
    assert summarize(small, budget=Budget(0)).path_count == summarize(small).path_count


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_pruned_summaries_match_concrete_runs(seed):
    # no feasible path is dropped: exhaustive over one input, sampled over two
    rng = random.Random(seed)
    f = random_function(rng)
    summary = summarize(f)
    sorts = [s for _, s in f.params]
    points = list(itertools.product(*[range(s.min_value, s.max_value + 1) for s in sorts]))
    for point in points if len(sorts) == 1 else rng.sample(points, 2000):
        env = {v.name: bvarith.to_unsigned(x, 8) for v, x in zip(summary.inputs, point)}
        assert summary.at(env)[1] == bvarith.to_unsigned(eval_concrete(f, list(point)), 8)


def test_a_callee_runs_once_per_argument_tuple(monkeypatch):
    # f_i(x) = f_{i-1}(x) + f_{i-1}(x) ran f0 2^12 times before callee values were memoised
    depth = 12
    chain = "fn f0(x: i16) -> i16 { return x + 1; }\n" + "".join(
        f"fn f{i}(x: i16) -> i16 {{ return f{i - 1}(x) + f{i - 1}(x); }}\n"
        for i in range(1, depth + 1))
    spread = fn("""
fn g(x: i16) -> i16 { return x * 3; }
fn h(x: i16) -> i16 { return x * 3; }
fn top(x: i16) -> i16 { return g(x) + g(x) + g(x + 1) + h(x); }
""")
    runs = []
    counted = summarizer.eval_concrete

    def counting(callee, inputs, *rest):
        runs.append(callee.name)
        return counted(callee, inputs, *rest)

    monkeypatch.setattr(summarizer, "eval_concrete", counting)
    assert summarizer.eval_concrete(fn(chain), [3]) == (3 + 1) << depth
    assert len(runs) == depth + 1
    runs.clear()
    assert summarizer.eval_concrete(spread, [5]) == 15 + 15 + 18 + 15
    assert sorted(runs) == ["g", "g", "h", "top"]  # equal arguments share a run, not a callee


def doubling_chain(depth, tail=""):
    return fn("fn f0(x: i16) -> i16 { return x + 1; }\n" + "".join(
        f"fn f{i}(x: i16) -> i16 {{ return f{i - 1}(x) + f{i - 1}(x); }}\n"
        for i in range(1, depth + 1)) + tail)


def test_summarize_runs_a_callee_once_per_argument_terms(monkeypatch):
    # f_i(x) = f_{i-1}(x) + f_{i-1}(x) ran f0's body 2^12 times before callee paths were reused
    top = f0 = doubling_chain(12)
    while f0.name != "f0":
        f0 = f0.body[0].value.lhs.fn
    runs = []
    real = summarizer._PathExploder.run

    def counting(self, callee, args):
        runs.append(callee is f0)
        return real(self, callee, args)

    monkeypatch.setattr(summarizer._PathExploder, "run", counting)
    summary = summarize(top)
    assert runs.count(True) == 1
    assert summary.path_count == 1
    assert summary.at({"x": 3})[1] == (3 + 1) << 12
    monkeypatch.undo()
    deep = doubling_chain(40)
    start = time.perf_counter()
    assert summarize(deep).path_count == 1
    assert time.perf_counter() - start < 1.0


def test_deep_shared_terms_evaluate_in_linear_time():
    # the tree walk makes 2^20 node visits here
    f = doubling_chain(20)
    summary = summarize(f)
    start = time.perf_counter()
    assert summary.at({"x": 3})[1] == bvarith.to_unsigned(eval_concrete(f, [3]), 16)
    assert time.perf_counter() - start < 0.1


def test_a_shared_call_argument_hashes_once():
    # callee runs are keyed by argument terms; hashing f16(x) as a tree took 0.4 s
    f = doubling_chain(16, "fn g(a: i16) -> i16 { if (a > 0) { return a; } return -a; }\n"
                           "fn top(x: i16) -> i16 { return g(f16(x)) + g(f16(x)); }")
    start = time.perf_counter()
    summary = summarize(f)
    assert time.perf_counter() - start < 0.05
    assert summary.path_count == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_compiled_outputs_match_the_tree_walk(seed):
    # the paths partition the inputs: at each point the reference tree walk finds exactly
    # one path holding, the one Summary.at names, and its value is the program's.  Each
    # guard keeps the box and exactness its conditions read as afresh
    rng = random.Random(seed)
    pair = random_pair(rng)
    s1, s2 = summaries = [summarize(f) for f in pair]
    for guard, _ in s1.paths + s2.paths:
        assert guard == (guard.conds, *regions.narrow({}, guard.conds))
    diverge = FNot(FIff(s1.formula, s2.formula))
    out = s1.output
    for _ in range(20):
        env = {v.name: rng.randrange(v.sort.domain_size) for v in s1.inputs}
        args = [bvarith.to_signed(env[name], sort.width) if sort.signed else env[name]
                for name, sort in pair[0].params]
        values = {rng.randrange(out.sort.domain_size)}
        for f, summary in zip(pair, summaries):
            value = bvarith.to_unsigned(eval_concrete(f, args), out.sort.width)
            holding = [i for i, (guard, _) in enumerate(summary.paths)
                       if all(walk_formula(c, env) for c in guard.conds)]
            assert len(holding) == 1
            assert summary.at(env) == (holding[0], value)
            assert walk_term(summary.paths[holding[0]][1], env) == value
            for c in {c for guard, _ in summary.paths for c in guard.conds}:
                assert eval_formula(c, env) == walk_formula(c, env)
            values.add(value)
        for value in values:
            point = {**env, out.name: value}
            for phi in (s1.formula, s2.formula, diverge):
                assert eval_formula(phi, point) == walk_formula(phi, point)


def test_summaries_leave_no_reference_cycles():
    # a function kept in its own globals, or a closure that calls itself, is a cycle
    fns = [corpus_fn(case, which) for case in ("eqbench_ltfive", "cve_2010_4165_tcp_window",
                                               "eqbench_dart")
           for which in ("original.fn", "patched.fn")]
    gc.collect()
    gc.disable()
    try:
        for f in fns * 8:
            summary, env = summarize(f), {name: 3 for name, _ in f.params}
            summary.at(env)
            for guard, _ in summary.paths:
                for c in guard.conds:
                    eval_formula(c, env)
        garbage = gc.collect()  # before enable(), whose next allocation would collect it
    finally:
        gc.enable()
    assert garbage == 0


def test_signature_check():
    f1 = fn("fn f(x: i32) -> i32 { return x; }")
    f2 = fn("fn f(x: u32) -> i32 { return (i32) x; }")
    with pytest.raises(SummarizeError, match="parameter lists differ"):
        require_same_signature(f1, f2)


def test_out_name_avoids_parameter_collision():
    f = fn("fn f(out: i8) -> i8 { return out; }")
    summary = summarize(f)
    assert summary.output.name != "out"
