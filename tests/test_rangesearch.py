"""Range division, the four search strategies, bounds, and conditions."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from patcheq import bvarith, regions
from patcheq.classifier import Verdict, eq_check
from patcheq.enumcount import brute_force_eq_count
from patcheq.formula import (
    FALSE, BvVar, FIff, FNot, RangePair, eval_formula, for_, mk_range_constraint,
    serialize_formula,
)
from patcheq.minilang import SORTS
from patcheq.oracle import Budget, SolverSession
from patcheq.randgen import random_pair
from patcheq.rangesearch import (
    SUMMARIES, RangeSearch, RegionList, RegionSet, divide_range, eq_lower_bound_iterative,
    eq_lower_bound_relational, full_domain, merge_combined, prioritized_divide_range,
)
from patcheq.summarizer import eval_concrete, summarize

from conftest import OPAQUE_PAIR, corpus_fn, fn, summary_pair


# --- divide_range ---


def test_divide_single_dimension():
    out = divide_range((RangePair(0, 255),))
    assert out == [(RangePair(0, 128),), (RangePair(129, 255),)]


def test_divide_two_dimensions_covers_disjointly():
    out = divide_range((RangePair(0, 255), RangePair(-128, 127)))
    assert len(out) == 4
    points = set()
    for vec in out:
        for x in (vec[0].lo, vec[0].hi):
            for y in (vec[1].lo, vec[1].hi):
                assert 0 <= x <= 255 and -128 <= y <= 127
        points.add((vec[0].lo, vec[0].hi, vec[1].lo, vec[1].hi))
    assert len(points) == 4


def test_divide_singleton_passes_through():
    assert divide_range((RangePair(5, 5),)) == [(RangePair(5, 5),)]


@settings(max_examples=200, deadline=None)
@given(st.integers(-128, 127), st.integers(-128, 127))
def test_divide_partition_property(a, b):
    lo, hi = min(a, b), max(a, b)
    subs = divide_range((RangePair(lo, hi),))
    covered = []
    for (p,) in subs:
        covered.extend(range(p.lo, p.hi + 1))
    assert sorted(covered) == list(range(lo, hi + 1))
    assert len(covered) == len(set(covered))


# --- prioritized divide ---


def test_prioritized_divide_positive():
    assert prioritized_divide_range(RangePair(1, 100)) == RangePair(1, 50)


def test_prioritized_divide_negative():
    assert prioritized_divide_range(RangePair(-100, -1)) == RangePair(-50, -1)


def test_prioritized_divide_ceiling():
    assert prioritized_divide_range(RangePair(1, 3)) == RangePair(1, 2)


def test_prioritized_divide_rejects_straddling_zero():
    with pytest.raises(ValueError, match="straddles"):
        prioritized_divide_range(RangePair(-1, 1))


# --- lower bound formulas ---


def test_relational_bound_simple_sums():
    assert eq_lower_bound_relational([(RangePair(0, 128),), (RangePair(130, 255),)]) == 255
    assert eq_lower_bound_relational([(RangePair(0, 1), RangePair(0, 1))]) == 4


def test_relational_bound_quadrant_analytic():
    quadrant = [(RangePair(0, 2**31 - 1), RangePair(0, 2**31 - 1))]
    assert eq_lower_bound_relational(quadrant) == 2**31 * 2**31


def test_iterative_bound_formula():
    per_var = [[RangePair(0, 199)], [RangePair(0, 149)]]
    assert eq_lower_bound_iterative(per_var, [256, 256]) == 200 * 256 + 56 * 150


def test_iterative_bound_full_equivalence():
    per_var = [[RangePair(-128, 127)], [RangePair(-128, 127)]]
    assert eq_lower_bound_iterative(per_var, [256, 256]) == 256 * 256


# --- relational search ---


def test_relational_identical_summaries_full_range_one_call(cfg):
    # an opaque guard keeps the path boxes from answering: the solver certifies
    s = summarize(fn("fn f(x: i32) -> i32 { if (x * 3 < 100) { return x; } return 0 - x; }"))
    with RangeSearch(s, s, cfg) as rs:
        out = rs.relational(limit=8)
        assert out.vectors() == [full_domain(s.inputs)]
        assert rs.query_count == 1
        assert rs.range_checks == {"points": 0, "regions": 0, "solver": 1}


def test_relational_identical_exact_summaries_full_range_no_call(cfg):
    # every tcp_window path has an exact box and meets only its own twin
    s = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    with RangeSearch(s, s, cfg) as rs:
        out = rs.relational(limit=8)
        assert out.vectors() == [full_domain(s.inputs)]
        assert rs.query_count == 0 and rs.session is None
        assert rs.range_checks == {"points": 0, "regions": 1, "solver": 0}


def test_relational_quadrant_pair(cfg):
    s1, s2 = (
        summarize(corpus_fn("cve_2018_fb_requeue_guard", which))
        for which in ("original.fn", "patched.fn")
    )
    with RangeSearch(s1, s2, cfg) as rs:
        out = rs.relational(limit=4)
        calls = rs.query_count
    vectors = out.vectors()
    assert vectors, "expected certified regions"
    for vec in vectors:  # everything certified sits inside the quadrant
        assert vec[0].lo >= 0 and vec[1].lo >= 0
    bound = eq_lower_bound_relational(vectors)
    assert bound >= (2**31 - 1) ** 2
    assert bound <= 2**31 * 2**31  # exact quadrant size
    # query ceiling: at most 2 queries per examined range
    limit, n = 4, 2
    cap = 2 * sum(2 ** (n * d) for d in range(limit + 1))
    assert calls <= cap


def test_relational_width8_single_divergence(cfg):
    f1 = fn("fn f(x: u8, y: u8) -> u8 { return x ^ y; }")
    f2 = fn(
        "fn f(x: u8, y: u8) -> u8 { if (x == 3 && y == 7) { return 9; } return x ^ y; }"
    )
    truth = brute_force_eq_count(f1, f2)
    assert truth.eq_count == 65535  # diverges at exactly (3, 7)
    s1, s2 = summarize(f1), summarize(f2)
    with RangeSearch(s1, s2, cfg) as rs:
        out = rs.relational(limit=4)
    bound = eq_lower_bound_relational(out.vectors())
    # ceil-midpoint halving makes the left spine 129, 65, 33, 17 wide, so the
    # one uncertified box at limit 4 is 17 x 17
    assert bound == 65536 - 17 * 17
    assert bound <= truth.eq_count


# --- iterative search ---


def test_iterative_equals_relational_for_single_variable(cfg):
    s1, s2 = summary_pair(
        "fn f(x: u8) -> u8 { if (x > 100) { return 0; } return x; }",
        "fn f(x: u8) -> u8 { if (x > 90) { return 0; } return x; }",
    )
    with RangeSearch(s1, s2, cfg) as rs:
        rel = rs.relational(limit=8)
    with RangeSearch(s1, s2, cfg) as rs:
        it = rs.iterative(limit=8)
    assert [vec[0] for vec in rel.vectors()] == it.intervals(0)


def test_iterative_finds_nothing_on_relational_pair(cfg):
    s1, s2 = (
        summarize(corpus_fn("cve_2018_fb_requeue_guard", which))
        for which in ("original.fn", "patched.fn")
    )
    with RangeSearch(s1, s2, cfg) as rs:
        out = rs.iterative(limit=4)
    assert out.intervals(0) == [] and out.intervals(1) == []


def test_iterative_tcp_window_avoids_divergence_window(cfg):
    f1 = corpus_fn("cve_2010_4165_tcp_window", "original.fn")
    f2 = corpus_fn("cve_2010_4165_tcp_window", "patched.fn")
    s1, s2 = summarize(f1), summarize(f2)
    with RangeSearch(s1, s2, cfg) as rs:
        out = rs.iterative(limit=8)
    intervals = out.intervals(0)
    assert intervals
    bound = sum(p.size for p in intervals)
    assert bound <= 2**32 - 56
    for p in intervals:  # certified intervals never touch the window {8..63}
        assert p.hi < 8 or p.lo > 63
        for probe in {p.lo, p.hi, max(p.lo, min(p.hi, 0)), max(p.lo, min(p.hi, 100))}:
            assert eval_concrete(f1, [probe]) == eval_concrete(f2, [probe])


# --- priority search and boundary expansion ---


def test_priority_cliprects_shrink_then_expand(cfg):
    s1, s2 = (
        summarize(corpus_fn("cve_2012_2384_cliprects", which))
        for which in ("original.fn", "patched.fn")
    )
    var = s1.inputs[0]
    with RangeSearch(s1, s2, cfg) as rs:
        found = []
        rs.priority(var, RangePair(1, 2**32 - 1), found)
        assert [c[0] for c in found] == [RangePair(1, 536870911)]
        calls = rs.query_count
    width = 32
    assert calls <= 2 * width + 40  # shrink chain plus expansion probes


def test_expand_boundary_cliprects(cfg):
    s1, s2 = (
        summarize(corpus_fn("cve_2012_2384_cliprects", which))
        for which in ("original.fn", "patched.fn")
    )
    var = s1.inputs[0]
    with RangeSearch(s1, s2, cfg) as rs:
        out = rs.expand_boundary(var, RangePair(1, 2**28), frontier=2**29)
        assert out == RangePair(1, 536870911)


def test_expand_boundary_dart(cfg):
    s1, s2 = (
        summarize(corpus_fn("eqbench_dart", which))
        for which in ("original.fn", "patched.fn")
    )
    x = s1.inputs[0]
    with RangeSearch(s1, s2, cfg) as rs:
        assert rs.expand_boundary(x, RangePair(1, 1024), frontier=2048) == RangePair(1, 1290)


def test_expand_boundary_without_frontier_is_identity(cfg):
    s1, s2 = (
        summarize(corpus_fn("eqbench_dart", which))
        for which in ("original.fn", "patched.fn")
    )
    x = s1.inputs[0]
    with RangeSearch(s1, s2, cfg) as rs:
        assert rs.expand_boundary(x, RangePair(1, 1290), None) == RangePair(1, 1290)
        # and when no extension exists, the found range comes back unchanged
        assert rs.expand_boundary(x, RangePair(1, 1290), 1292) == RangePair(1, 1290)


def test_priority_identical_summaries_whole_partition(cfg):
    s = summarize(corpus_fn("eqbench_dart", "original.fn"))
    with RangeSearch(s, s, cfg) as rs:
        found = []
        rs.priority(s.inputs[0], RangePair(1, 2**31 - 1), found)
    assert [c[0] for c in found] == [RangePair(1, 2**31 - 1)]


def test_iterative_priority_unsigned_partitions(cfg):
    s1, s2 = (
        summarize(corpus_fn("cve_2012_2384_cliprects", which))
        for which in ("original.fn", "patched.fn")
    )
    with RangeSearch(s1, s2, cfg) as rs:
        out = rs.iterative_priority()
    intervals = sorted(out.intervals(0), key=lambda p: p.lo)
    assert intervals == [RangePair(0, 0), RangePair(1, 536870911)]


def test_iterative_priority_tcp_window(cfg):
    f1 = corpus_fn("cve_2010_4165_tcp_window", "original.fn")
    f2 = corpus_fn("cve_2010_4165_tcp_window", "patched.fn")
    s1, s2 = summarize(f1), summarize(f2)
    with RangeSearch(s1, s2, cfg) as rs:
        out = rs.iterative_priority()
    intervals = sorted(out.intervals(0), key=lambda p: p.lo)
    # negative partition certifies whole, zero certifies, positive shrinks to
    # (1, 4) and expands to (1, 7)
    assert intervals == [
        RangePair(-(2**31), -1), RangePair(0, 0), RangePair(1, 7),
    ]
    rng = random.Random(3)
    for p in intervals:
        samples = {p.lo, p.hi} | {rng.randint(p.lo, p.hi) for _ in range(50)}
        for v in samples:
            assert eval_concrete(f1, [v]) == eval_concrete(f2, [v])


def test_strict_lower_bound_pair_priority_vs_iterative(cfg):
    # divergence exactly at x == 1 hugs the positive partition's floor, so
    # the priority shrink can certify nothing positive; iterative wins there
    f1 = corpus_fn("cve_2010_fd_strict_lower_bound", "original.fn")
    f2 = corpus_fn("cve_2010_fd_strict_lower_bound", "patched.fn")
    s1, s2 = summarize(f1), summarize(f2)
    with RangeSearch(s1, s2, cfg) as rs:
        prio = rs.iterative_priority()
        it = rs.iterative(limit=8)
        merged, sources = merge_combined(it, prio)
    assert sorted(prio.intervals(0), key=lambda p: p.lo) == [
        RangePair(-(2**31), -1), RangePair(0, 0),
    ]
    assert it.eq_bound(0) > prio.eq_bound(0)
    assert sources == ["iterative"]
    assert merged.eq_bound(0) == max(it.eq_bound(0), prio.eq_bound(0))


# --- combined and properties on random width-8 pairs ---


def test_combined_picks_priority_on_cliprects(cfg):
    s1, s2 = (
        summarize(corpus_fn("cve_2012_2384_cliprects", which))
        for which in ("original.fn", "patched.fn")
    )
    with RangeSearch(s1, s2, cfg) as rs:
        result = rs.run("combined", limit=8)
    assert result.per_var_source == ["iterativePriority"]
    assert result.eq_lower_bound == 2**29


def test_combined_tie_keeps_iterative(cfg):
    s = summarize(fn("fn f(x: i8) -> i8 { return x; }"))
    with RangeSearch(s, s, cfg) as rs:
        result = rs.run("combined", limit=8)
    assert result.per_var_source == ["iterative"]
    assert result.eq_lower_bound == 256


def test_width8_bounds_sound_and_combined_dominates(cfg):
    rng = random.Random(1234)
    checked = 0
    while checked < 8:
        f1, f2 = random_pair(rng, n_params=1)
        truth = brute_force_eq_count(f1, f2)
        if truth.eq_count in (0, truth.domain_size):
            continue
        checked += 1
        s1, s2 = summarize(f1), summarize(f2)
        with RangeSearch(s1, s2, cfg) as rs:
            it = rs.iterative(limit=8)
            prio = rs.iterative_priority()
            merged, _ = merge_combined(it, prio)
        domain_sizes = [v.sort.domain_size for v in s1.inputs]
        for result in (it, prio, merged):
            intervals = [result.intervals(0)]
            bound = eq_lower_bound_iterative(intervals, domain_sizes)
            assert 0 <= bound <= truth.eq_count
            # every certified interval is exhaustively concretely equivalent
            for p in intervals[0]:
                for v in range(p.lo, p.hi + 1):
                    assert eval_concrete(f1, [v]) == eval_concrete(f2, [v])
        assert merged.eq_bound(0) == max(it.eq_bound(0), prio.eq_bound(0))


def test_certificates_reproduce_unsat(cfg):
    # re-running the certifying query for a recorded region stays unsat
    s1, s2 = (
        summarize(corpus_fn("cve_2012_2384_cliprects", which))
        for which in ("original.fn", "patched.fn")
    )
    with RangeSearch(s1, s2, cfg) as rs:
        out = rs.iterative_priority()
        for cert in out.per_var[0]:
            assert rs.check_equiv((s1.inputs[0],), (cert[0],)) == "unsat"


# --- point answers ---


def test_a_point_answer_leaves_the_solver_alone(cfg, monkeypatch):
    s1, s2 = summary_pair(
        "fn f(x: u8) -> u8 { if (x * 3 < 100) { return x; } return x; }",
        "fn f(x: u8) -> u8 { if (x < 128) { return 0; } return x; }",
    )
    full = full_domain(s1.inputs)
    with RangeSearch(s1, s2, cfg) as rs:
        rs.live_session()
        sent = []
        monkeypatch.setattr(SolverSession, "_send", lambda session, text: sent.append(text))
        # the midpoint x = 127 diverges and x = 255 agrees: the sample decides both
        assert rs.check_equiv(s1.inputs, full) == "sat"
        assert rs.check_conjunction(s1.inputs, full) == "sat"
        assert rs.classify_range(s1.inputs, full) == "partial"
        assert rs.query_count == 0
        assert sent == []
        monkeypatch.undo()
        # no point of [128, 255] diverges, and the original's opaque guard leaves the
        # path boxes undecided: only the solver can answer unsat
        assert rs.check_equiv(s1.inputs, (RangePair(128, 255),)) == "unsat"
        assert rs.query_count == 1
        # classify_range asked the full domain's two checks again: each counts once
        assert rs.range_checks == {"points": 2, "regions": 0, "solver": 1}


def test_a_region_answer_leaves_the_solver_alone(cfg, monkeypatch):
    s1, s2 = summary_pair(
        "fn f(x: u8) -> u8 { return x; }",
        "fn f(x: u8) -> u8 { if (x < 128) { return 0; } return x; }",
    )
    sent = []
    monkeypatch.setattr(SolverSession, "_send", lambda session, text: sent.append(text))
    with RangeSearch(s1, s2, cfg) as rs:
        # [128, 255] meets only the pair that returns x twice, [1, 127] only the pair of
        # x against 0, which differ wherever x != 0
        assert rs.classify_range(s1.inputs, (RangePair(128, 255),)) == "eq"
        assert rs.classify_range(s1.inputs, (RangePair(1, 127),)) == "neq"
        assert rs.range_checks == {"points": 1, "regions": 2, "solver": 0}
        assert rs.query_count == 0 and rs.session is None
    assert sent == []


def test_a_check_asked_again_of_one_range_is_sent_and_counted_once(cfg, monkeypatch):
    # no sampled point of OPAQUE_PAIR diverges and its guard reads as no box, so only the
    # solver can answer check_equiv; asked again of the same range, the answer is reused
    s1, s2 = summary_pair(*OPAQUE_PAIR)
    full = full_domain(s1.inputs)
    sent = _recorded_sends(monkeypatch)
    with RangeSearch(s1, s2, cfg) as rs:
        first, again = {}, {}
        assert rs.check_equiv(s1.inputs, full, first) == "sat"
        assert rs.check_equiv(s1.inputs, full) == "sat"
        assert rs.classify_range(s1.inputs, full, again) == "partial"
        assert first == again == {"x": 1431655767}  # 3 * 1431655767 == 5 (mod 2**32)
        assert rs.query_count == 1
        assert rs.range_checks == {"points": 1, "regions": 0, "solver": 1}
    (texts,) = sent.values()
    assert sum(text.count("(check-sat)") for text in texts) == 1
    # a sat given without a model is asked again when a model is wanted
    with RangeSearch(s1, s2, cfg) as rs:
        model = {}
        assert rs.check_equiv(s1.inputs, full) == "sat"
        assert rs.check_equiv(s1.inputs, full, model) == "sat"
        assert model == {"x": 1431655767}
        assert rs.query_count == 2


def _region_answered(rs: RangeSearch, check, var_subset, vec) -> tuple[str, bool]:
    """``check``'s verdict on the range, and whether the path boxes gave it."""
    before = rs.range_checks["regions"]
    verdict = check(var_subset, vec)
    return verdict, rs.range_checks["regions"] > before


def test_point_answers_agree_with_the_solver(cfg):
    # every check the sample answers gets sat from the solver too, and every check the
    # path boxes answer gets unsat from it
    rng = random.Random(4242)
    decided = by_regions = 0
    for _ in range(12):
        f1, f2 = random_pair(rng)
        s1, s2 = summarize(f1), summarize(f2)
        ranges = [(s1.inputs, vec) for vec in [full_domain(s1.inputs),
                                               *divide_range(full_domain(s1.inputs))]]
        for var in s1.inputs:
            halves = divide_range(full_domain((var,)))
            ranges += [((var,), vec) for half in halves for vec in [half, *divide_range(half)]]
        with RangeSearch(s1, s2, cfg) as rs:
            for var_subset, vec in ranges:
                rng_f = mk_range_constraint(var_subset, [p.lo for p in vec], [p.hi for p in vec])
                for check, formulas in (
                    (rs.check_equiv, [FNot(FIff(*SUMMARIES)), rng_f]),
                    (rs.check_conjunction, [*SUMMARIES, rng_f]),
                ):
                    before = rs.query_count
                    verdict, from_regions = _region_answered(rs, check, var_subset, vec)
                    if from_regions:
                        assert verdict == "unsat"
                        assert rs.query(formulas)[0] == "unsat", (f1, f2, vec)
                        by_regions += 1
                    elif rs.query_count == before:
                        assert verdict == "sat"
                        assert rs.query(formulas)[0] == "sat", (f1, f2, vec)
                        decided += 1
    assert decided >= 150
    assert by_regions >= 30


def _width8_ranges(rng: random.Random, inputs):
    """The whole domain and its relational pieces, then per input: ranges across its sign
    boundary (0 for signed sorts, 128 for unsigned ones), halves, and random ranges."""
    full = full_domain(inputs)
    yield from ((inputs, vec) for vec in [full, *divide_range(full)])
    for var in inputs:
        lo, hi = var.sort.min_value, var.sort.max_value
        mid = 0 if var.sort.signed else 128
        spans = [(mid - 1, mid), (mid - 9, mid + 20), (lo, mid), (mid, hi)]
        spans += [sorted((rng.randint(lo, hi), rng.randint(lo, hi))) for _ in range(8)]
        yield from (((var,), (RangePair(a, b),)) for a, b in spans)


def test_region_answers_agree_with_brute_force_width8(cfg, monkeypatch):
    # with the solver stubbed to unknown, every unsat comes from the path boxes; each
    # whole-range verdict regions.decide gives, points or not, is checked on every input
    # of its range, and without one the boxes answer no check unsat.  Each box it names
    # is checked on its first 256 points
    monkeypatch.setattr(RangeSearch, "query", lambda self, formulas, model_vars=(): ("unknown", None))
    rng = random.Random(2026)
    answered, boxes, kinds = {"eq": 0, "neq": 0}, {"eq": 0, "neq": 0}, set()
    for _ in range(40):
        f1, f2 = random_pair(rng)
        s1, s2 = summarize(f1), summarize(f2)
        inputs = s1.inputs
        kinds.add((inputs[0].sort.signed, len(inputs)))
        axes = [range(v.sort.min_value, v.sort.max_value + 1) for v in inputs]
        agrees = functools.cache(lambda p: eval_concrete(f1, p) == eval_concrete(f2, p))
        with RangeSearch(s1, s2, cfg) as rs:
            for var_subset, vec in _width8_ranges(rng, inputs):
                verdict, found = regions.decide(regions.range_box(var_subset, vec),
                                                s1.paths, s2.paths)
                bounds = dict(zip(var_subset, vec))
                for kind, box in found.items():  # a named box agrees or differs throughout
                    for p in regions.points(box, inputs, 256):
                        assert all(bounds[v].lo <= x <= bounds[v].hi
                                   for v, x in zip(inputs, p) if v in bounds), (f1, f2, vec)
                        assert agrees(p) == (kind == "eq"), (f1, f2, vec, kind, p)
                    boxes[kind] += 1
                answers = [_region_answered(rs, check, var_subset, vec)
                           for check in (rs.check_equiv, rs.check_conjunction)]
                if verdict is None:
                    assert ("unsat", True) not in answers
                    continue
                inside = {agrees(p) for p in itertools.product(*(
                    range(bounds[v].lo, bounds[v].hi + 1) if v in bounds else axis
                    for v, axis in zip(inputs, axes)))}
                assert inside == {verdict == "eq"}, (f1, f2, vec, verdict)
                assert answers[verdict == "neq"] == ("unsat", True)
                answered[verdict] += 1
        assert rs.session is None  # nothing reached a solver
    assert kinds == {(signed, n) for signed in (False, True) for n in (1, 2)}
    assert min(answered.values()) >= 40, answered
    assert min(boxes.values()) >= 40, boxes


def test_answers_without_the_solver_agree_with_brute_force_width8(cfg, monkeypatch):
    # with the solver stubbed to unknown, every classifier verdict, witness and sat below
    # comes from sampled points or path-pair boxes, and each is checked against evaluating
    # both programs on every input.  Each pair runs twice, the second time with no sampled
    # points, so that the boxes answer what the points would have answered first.
    monkeypatch.setattr(RangeSearch, "query", lambda self, formulas, model_vars=(): ("unknown", None))
    rng = random.Random(1227)
    answered = {"verdict": 0, "witness": 0, "neq box": 0, "eq box": 0}
    negative = 0
    for n_params in [1] * 50 + [2] * 4:
        f1, f2 = random_pair(rng, n_params)
        s1, s2 = summarize(f1), summarize(f2)
        inputs = s1.inputs
        truth = brute_force_eq_count(f1, f2)
        diverging = set(truth.neq_inputs)
        ranges = list(_width8_ranges(rng, inputs))

        def within(p, bounds) -> bool:
            return all(bounds[v].lo <= x <= bounds[v].hi for v, x in zip(inputs, p) if v in bounds)

        def assert_diverges(model: dict[str, int], bounds: dict):
            nonlocal negative
            point = tuple(model[v.name] for v in inputs)
            assert within(point, bounds), (f1, f2, bounds, model)
            assert eval_concrete(f1, list(point)) != eval_concrete(f2, list(point)), (f1, f2, model)
            answered["witness"] += 1
            negative += min(point) < 0

        for use_points in (True, False):
            with monkeypatch.context() as patch, RangeSearch(s1, s2, cfg) as rs:
                if not use_points:
                    patch.setattr(RangeSearch, "_sample", lambda self, subset, vec: iter(()))
                result = eq_check(s1, s2, cfg, search=rs)
                if result.kind is not Verdict.UNKNOWN:
                    expected = {truth.domain_size: Verdict.T_EQ, 0: Verdict.T_NEQ}.get(
                        truth.eq_count, Verdict.P_EQ)
                    assert result.kind is expected, (f1, f2, result)
                    answered["verdict"] += 1
                if result.witness is not None:
                    assert_diverges(result.witness, {})
                for var_subset, vec in ranges:
                    bounds = dict(zip(var_subset, vec))
                    model: dict[str, int] = {}
                    verdict, from_regions = _region_answered(
                        rs, lambda *a: rs.check_equiv(*a, model), var_subset, vec)
                    if verdict == "sat":
                        assert any(within(p, bounds) for p in diverging), (f1, f2, vec)
                        assert_diverges(model, bounds)
                        answered["neq box"] += from_regions
                    verdict, from_regions = _region_answered(rs, rs.check_conjunction,
                                                             var_subset, vec)
                    if verdict == "sat" and from_regions:
                        axes = (range(bounds[v].lo, bounds[v].hi + 1) if v in bounds
                                else range(v.sort.min_value, v.sort.max_value + 1)
                                for v in inputs)
                        assert any(p not in diverging for p in itertools.product(*axes)), (
                            f1, f2, vec)
                        answered["eq box"] += 1
            assert rs.session is None  # nothing reached a solver
    assert min(answered.values()) >= 20, answered
    assert negative > 0  # signed sorts' witnesses include negative values


# --- result boxes ---


def random_vectors(rng, inputs, depth, split):
    """Disjoint range vectors: a bisection of the full domain to at most ``depth`` levels,
    each range split with probability ``split``, each leaf kept or dropped at random."""
    out, todo = [], [(full_domain(inputs), 0)]
    while todo:
        vec, level = todo.pop()
        if level < depth and rng.random() < split:
            todo += [(sub, level + 1) for sub in divide_range(vec)]
        elif rng.random() < 0.5:
            out.append(vec)
    return out


def test_result_boxes_are_disjoint_count_the_closed_forms_and_render_exactly_width8():
    x, y = (BvVar(name, SORTS[sort], "input") for name, sort in (("x", "i8"), ("y", "u8")))
    inputs = (x, y)
    rng = random.Random(32)
    points = [(bvarith.to_signed(a, 8), b) for a in range(256) for b in range(256)]
    results = [RegionSet(), RegionList([[], []])]
    for _ in range(3):
        results.append(RegionSet(random_vectors(rng, inputs, 3, 0.5)))
        results.append(RegionList([random_vectors(rng, (v,), 5, 0.8) for v in inputs]))
    for result in results:
        if isinstance(result, RegionSet):
            bound = eq_lower_bound_relational(result.vectors())
            region = {p for p in points if any(
                all(r.lo <= v <= r.hi for r, v in zip(vec, p)) for vec in result.vectors())}
        else:
            bound = eq_lower_bound_iterative([result.intervals(n) for n in range(2)], [256, 256])
            region = {p for p in points if any(
                r.lo <= v <= r.hi for n, v in enumerate(p) for r in result.intervals(n))}
        boxes = result.boxes(inputs)
        for a, b in itertools.combinations(boxes, 2):
            assert regions.is_empty(regions.meet(a, b))
        assert sum(regions.volume(b, inputs) for b in boxes) == bound == len(region)
        condition = for_(regions.box_formula(b, inputs) for b in boxes)
        assert {p for p in points if eval_formula(
            condition, {"x": bvarith.to_unsigned(p[0], 8), "y": p[1]})} == region
    assert for_(regions.box_formula(b, inputs) for b in RegionSet().boxes(inputs)) == FALSE


def test_cliprects_condition_equivalent_to_closed_form(cfg):
    s1, s2 = (
        summarize(corpus_fn("cve_2012_2384_cliprects", which))
        for which in ("original.fn", "patched.fn")
    )
    with RangeSearch(s1, s2, cfg) as rs:
        quant = rs.run("combined", limit=8)
    closed = mk_range_constraint(list(s1.inputs), [0], [536870911])
    with SolverSession(cfg, s1.inputs) as session:
        session.assert_formula(FNot(FIff(quant.condition, closed)))
        assert session.check_sat() == "unsat"


def test_budget_exhaustion_flags_incomplete(cfg):
    s1, s2 = (
        summarize(corpus_fn("eqbench_dart", which))
        for which in ("original.fn", "patched.fn")
    )
    budget = Budget(1)  # expires immediately
    with RangeSearch(s1, s2, cfg, budget) as rs:
        out = rs.relational(limit=4)
    assert out.incomplete
    assert out.regions == []


def test_query_count_ceiling_iterative(cfg):
    s1, s2 = summary_pair(
        "fn f(x: u8) -> u8 { return x * 7; }",
        "fn f(x: u8) -> u8 { return x * 7 + (x & 1); }",
    )
    limit = 8
    with RangeSearch(s1, s2, cfg) as rs:
        rs.iterative(limit=limit)
        calls = rs.query_count
    assert calls <= 2 * (2 ** (limit + 1))  # pairs ceiling, two queries per pair


def _recorded_sends(monkeypatch) -> dict[int, list[str]]:
    """Every text sent to a solver from now on, by session."""
    sent: dict[int, list[str]] = {}
    original_send = SolverSession._send

    def recording_send(session, text):
        sent.setdefault(id(session), []).append(text)
        return original_send(session, text)

    monkeypatch.setattr(SolverSession, "_send", recording_send)
    return sent


def test_range_search_sends_each_summary_once_per_session(cfg, monkeypatch):
    # ltfive's guards compare (x + 1) * 5 with a constant, which reads as no box, so the solver
    # answers every unsat range check
    s1, s2 = (
        summarize(corpus_fn("eqbench_ltfive", which))
        for which in ("original.fn", "patched.fn")
    )
    sent = _recorded_sends(monkeypatch)
    with RangeSearch(s1, s2, cfg) as rs:
        result = rs.run("combined")
    assert result.solver_calls > 10
    assert len(sent) == 1
    (texts,) = sent.values()
    for summary in (s1, s2):
        assert sum(text.count(serialize_formula(summary.formula)) for text in texts) == 1


def test_range_search_answered_by_points_and_boxes_sends_nothing(cfg, monkeypatch):
    # every path of tcp_window reads as a box, so no range check reaches a solver
    s1, s2 = (
        summarize(corpus_fn("cve_2010_4165_tcp_window", which))
        for which in ("original.fn", "patched.fn")
    )
    sent = _recorded_sends(monkeypatch)
    with RangeSearch(s1, s2, cfg) as rs:
        result = rs.run("combined")
        assert rs.session is None
    assert result.solver_calls == 0 and sent == {}
    assert rs.range_checks["regions"] > 10
    # the solver alone finds the same regions
    monkeypatch.setattr(RangeSearch, "_sample", lambda self, var_subset, vec: iter(()))
    monkeypatch.setattr(regions, "decide", lambda box, paths1, paths2: (None, {}))
    with RangeSearch(s1, s2, cfg) as rs:
        by_solver = rs.run("combined")
    assert by_solver.solver_calls > 10 and len(sent) == 1
    assert (by_solver.eq_lower_bound, by_solver.condition) == (result.eq_lower_bound,
                                                               result.condition)


def _kill_child(rs: RangeSearch):
    rs.session.proc.kill()
    rs.session.proc.wait(timeout=10)


def test_solver_death_between_queries_gives_unknown_then_a_fresh_session(cfg):
    s1, s2 = (summarize(corpus_fn("eqbench_ltfive", which))
              for which in ("original.fn", "patched.fn"))
    with RangeSearch(s1, s2, cfg) as rs:
        uninterrupted = rs.run("combined")
    # points answer check_equiv on the full domain, so ask the solver directly
    diverges = [FNot(FIff(*SUMMARIES))]
    with RangeSearch(s1, s2, cfg) as rs:
        assert rs.query(diverges)[0] == "sat"
        dead = rs.session
        _kill_child(rs)
        assert rs.query(diverges)[0] == "unknown"
        assert rs.query(diverges)[0] == "sat"
        assert rs.session is not dead and not rs.session.dead
        _kill_child(rs)
        result = rs.run("combined")
    assert result.solver_calls > 10
    assert 0 < result.eq_lower_bound <= uninterrupted.eq_lower_bound


def test_an_error_inside_a_query_pops_its_scope(cfg, monkeypatch):
    s1, s2 = (summarize(corpus_fn("eqbench_ltfive", which))
              for which in ("original.fn", "patched.fn"))
    real_assert = SolverSession.assert_formula

    def assert_then_fail(session, f):
        real_assert(session, f)
        monkeypatch.setattr(SolverSession, "assert_formula", real_assert)
        raise RuntimeError("interrupted between push and pop")

    with RangeSearch(s1, s2, cfg) as rs:
        monkeypatch.setattr(SolverSession, "assert_formula", assert_then_fail)
        with pytest.raises(RuntimeError):
            rs.query([FALSE])
        # a FALSE left asserted would make every later query unsat
        assert rs.query([*SUMMARIES])[0] == "sat"
