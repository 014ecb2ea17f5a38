"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value here is either derived from the bundled
exhaustive oracle or is a hand-checked closed form of the corpus pair.
"""

import itertools
import random
import time
from fractions import Fraction

from patcheq.classifier import Verdict, eq_check
from patcheq.enumcount import EnumCase, brute_force_eq_count, enumerate_models
from patcheq.formula import (
    FIff, FNot, RangePair, eval_formula, feq, for_, mk_range_constraint, tconst, tvar,
)
from patcheq.oracle import SolverSession
from patcheq.randgen import random_pair
from patcheq.rangesearch import (
    RangeSearch, eq_lower_bound_iterative, eq_lower_bound_relational, merge_combined,
)
from patcheq.regions import box_formula
from patcheq.report import analyze_pair
from patcheq.summarizer import eval_concrete, summarize

from conftest import CORPUS, corpus_fn


def equivalent_conditions(cfg, variables, f1, f2) -> bool:
    with SolverSession(cfg, tuple(variables)) as session:
        session.assert_formula(FNot(FIff(f1, f2)))
        return session.check_sat() == "unsat"


def test_criterion_1_cliprects_combined_impact(cfg, capsys):
    start = time.monotonic()
    case = CORPUS / "cve_2012_2384_cliprects"
    report = analyze_pair("cliprects", case / "original.fn", case / "patched.fn",
                          "combined", cfg)
    elapsed = time.monotonic() - start
    assert report.verdict is Verdict.P_EQ
    assert report.impact_percent == Fraction(700, 8)  # exactly 7/8 of the domain
    assert report.eq_percent == Fraction(100, 8)
    s1 = summarize(corpus_fn("cve_2012_2384_cliprects", "original.fn"))
    closed_form = mk_range_constraint(list(s1.inputs), [0], [536870911])
    assert equivalent_conditions(cfg, s1.inputs, report.condition, closed_form)
    assert elapsed < 60
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: cliprects impact exactly 87.50%, "
              f"F_eq == [0, 536870911] ({elapsed:.1f}s)")


def test_criterion_2_doubles_metadata_enumeration(cfg, capsys):
    start = time.monotonic()
    s1 = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "original.fn"))
    s2 = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "patched.fn"))
    result = enumerate_models(s1, s2, cfg)
    elapsed = time.monotonic() - start
    assert result.case is EnumCase.CASE2
    assert result.neq_inputs == [(0,)]
    assert result.exact_eq_count == 2**32 - 1
    assert elapsed < 30
    with capsys.disabled():
        print(f"\nACCEPTANCE 2 PASS: doubles-metadata Case 2, divergence {{0}}, "
              f"exact count 2^32-1 ({elapsed:.1f}s)")


def test_criterion_3_tcp_window_enumeration(cfg, capsys):
    start = time.monotonic()
    s1 = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    s2 = summarize(corpus_fn("cve_2010_4165_tcp_window", "patched.fn"))
    result = enumerate_models(s1, s2, cfg)
    elapsed = time.monotonic() - start
    assert result.case is EnumCase.CASE2
    assert result.neq_inputs == [(v,) for v in range(8, 64)]
    assert len(result.neq_inputs) == 56
    assert result.exact_eq_count == 2**32 - 56
    assert elapsed < 60
    with capsys.disabled():
        print(f"\nACCEPTANCE 3 PASS: tcp-window Case 2 with exactly the 56 inputs "
              f"8..63 ({elapsed:.1f}s)")


def test_criterion_4_dart_regions(cfg, capsys):
    start = time.monotonic()
    s1 = summarize(corpus_fn("eqbench_dart", "original.fn"))
    s2 = summarize(corpus_fn("eqbench_dart", "patched.fn"))
    with RangeSearch(s1, s2, cfg) as rs:
        prio = rs.iterative_priority()
    x_intervals = sorted(prio.intervals(0), key=lambda p: p.lo)
    assert x_intervals == [RangePair(-1290, -1), RangePair(0, 0), RangePair(1, 1290)]
    covered = sorted(
        itertools.chain.from_iterable(range(p.lo, p.hi + 1) for p in x_intervals)
    )
    assert covered == list(range(-1290, 1291))  # exactly [-1290, 1290]

    with RangeSearch(s1, s2, cfg) as rs:
        rel = rs.relational(limit=4)
    slices = [
        vec for vec in rel.vectors()
        if not (vec[1].lo <= 10 <= vec[1].hi) and not (vec[1].lo <= 20 <= vec[1].hi)
    ]
    assert slices, "relational search must certify regions avoiding y in {10, 20}"
    elapsed = time.monotonic() - start
    assert elapsed < 120
    with capsys.disabled():
        print(f"\nACCEPTANCE 4 PASS: dart x-region exactly [-1290, 1290] by boundary "
              f"expansion; {len(slices)} relational regions inside y-safe slices "
              f"({elapsed:.1f}s)")


def test_criterion_5_ltfive_mislabel_detection(cfg, capsys):
    f1 = corpus_fn("eqbench_ltfive", "original.fn")
    f2 = corpus_fn("eqbench_ltfive", "patched.fn")
    result = eq_check(summarize(f1), summarize(f2), cfg)
    assert result.kind is Verdict.P_EQ  # contradicts the upstream label
    assert result.witness is not None
    x = result.witness["x"]
    assert eval_concrete(f1, [x]) != eval_concrete(f2, [x])
    with capsys.disabled():
        print(f"\nACCEPTANCE 5 PASS: ltfive classified P_eq with revalidated "
              f"diverging witness x = {x}")


def test_criterion_6_good_vs_bad_patch(cfg, capsys):
    case = CORPUS / "juliet_multiply_cwe190"
    bad = analyze_pair("bad", case / "original.fn", case / "bad.fn", "combined", cfg)
    good = analyze_pair("good", case / "original.fn", case / "good.fn", "combined", cfg)
    assert bad.verdict is Verdict.P_EQ and good.verdict is Verdict.P_EQ
    assert bad.impact_percent >= 2 * good.impact_percent

    s1 = summarize(corpus_fn("juliet_multiply_cwe190", "original.fn"))
    x = s1.inputs[0]
    x_eq_1 = feq(tvar(x), tconst(1, 32))
    assert equivalent_conditions(cfg, s1.inputs, bad.condition, x_eq_1)
    from patcheq.formula import flt

    x_lt = flt(True, tvar(x), tconst(1073741823, 32))
    assert equivalent_conditions(cfg, s1.inputs, good.condition, x_lt)
    from patcheq.report import fraction_decimal

    with capsys.disabled():
        print(f"\nACCEPTANCE 6 PASS: bad-patch impact {fraction_decimal(bad.impact_percent)} "
              f">= 2x good-patch impact {fraction_decimal(good.impact_percent)}; "
              f"F_eq(bad) == (x == 1), F_eq(good) == (x < 1073741823)")


def test_criterion_7_relational_vs_combined_separation(cfg, capsys):
    s1 = summarize(corpus_fn("cve_2018_fb_requeue_guard", "original.fn"))
    s2 = summarize(corpus_fn("cve_2018_fb_requeue_guard", "patched.fn"))
    with RangeSearch(s1, s2, cfg) as rs:
        relational = rs.run("relational", limit=4)
    with RangeSearch(s1, s2, cfg) as rs:
        combined = rs.run("combined", limit=4)
    assert relational.eq_lower_bound >= 2 * combined.eq_lower_bound
    assert relational.eq_lower_bound >= (2**31 - 1) ** 2  # the whole quadrant core
    with capsys.disabled():
        print(f"\nACCEPTANCE 7 PASS: relational bound {relational.eq_lower_bound} >= 2x "
              f"combined bound {combined.eq_lower_bound}")


def test_criterion_8_property_suite(cfg, capsys):
    start = time.monotonic()
    rng = random.Random(0xC0FFEE)
    n_pairs = 100
    enum_checked = 0
    violations = []
    for index in range(n_pairs):
        f1, f2 = random_pair(rng)
        truth = brute_force_eq_count(f1, f2)
        s1, s2 = summarize(f1), summarize(f2)
        n_vars = len(s1.inputs)
        domain_sizes = [v.sort.domain_size for v in s1.inputs]

        # (a) classifier verdict matches exhaustive comparison
        verdict = eq_check(s1, s2, cfg).kind
        if truth.eq_count == truth.domain_size:
            expected = Verdict.T_EQ
        elif truth.eq_count == 0:
            expected = Verdict.T_NEQ
        else:
            expected = Verdict.P_EQ
        if verdict is not expected:
            violations.append((index, "verdict", verdict, expected))
            continue

        limit = 6 if n_vars == 1 else 4
        with RangeSearch(s1, s2, cfg) as rs:
            region_set = rs.relational(limit=4)
            list_iter = rs.iterative(limit=limit)
            list_prio = rs.iterative_priority()
        merged, _ = merge_combined(list_iter, list_prio)

        rel_bound = eq_lower_bound_relational(region_set.vectors())
        bounds = {
            "relational": rel_bound,
            "iterative": eq_lower_bound_iterative(
                [list_iter.intervals(n) for n in range(n_vars)], domain_sizes),
            "priority": eq_lower_bound_iterative(
                [list_prio.intervals(n) for n in range(n_vars)], domain_sizes),
            "combined": eq_lower_bound_iterative(
                [merged.intervals(n) for n in range(n_vars)], domain_sizes),
        }
        # (b) every range-search lower bound is sound
        for method, bound in bounds.items():
            if not 0 <= bound <= truth.eq_count:
                violations.append((index, f"bound {method}", bound, truth.eq_count))

        # (c) combined per-variable bound is the max of its two inputs
        for n in range(n_vars):
            expected_bound = max(list_iter.eq_bound(n), list_prio.eq_bound(n))
            if merged.eq_bound(n) != expected_bound:
                violations.append((index, "combined max", merged.eq_bound(n), expected_bound))

        # (e) the rendered conditions have exactly as many models as reported
        rel_condition = for_(box_formula(b, s1.inputs) for b in region_set.boxes(s1.inputs))
        comb_condition = for_(box_formula(b, s1.inputs) for b in merged.boxes(s1.inputs))
        names = [v.name for v in s1.inputs]
        rel_count = comb_count = 0
        for point in itertools.product(*[range(d) for d in domain_sizes]):
            env = dict(zip(names, point))
            rel_count += eval_formula(rel_condition, env)
            comb_count += eval_formula(comb_condition, env)
        if rel_count != rel_bound:
            violations.append((index, "relational model count", rel_count, rel_bound))
        if comb_count != bounds["combined"]:
            violations.append((index, "combined model count", comb_count, bounds["combined"]))

        # (d) enumerative counts are exact whenever a side exhausts
        if expected is Verdict.P_EQ and min(truth.eq_count, truth.neq_count) <= 128:
            enum_checked += 1
            enum = enumerate_models(s1, s2, cfg)
            if enum.case not in (EnumCase.CASE1, EnumCase.CASE2):
                violations.append((index, "enum case", enum.case, "CASE1/2"))
            elif enum.exact_eq_count != truth.eq_count:
                violations.append((index, "enum count", enum.exact_eq_count, truth.eq_count))

    elapsed = time.monotonic() - start
    assert not violations, violations[:10]
    assert enum_checked >= 10  # the enumeration clause was really exercised
    assert elapsed < 600
    with capsys.disabled():
        print(f"\nACCEPTANCE 8 PASS: {n_pairs} random width-8 pairs, zero violations "
              f"({enum_checked} enumeration cross-checks) in {elapsed:.0f}s")
