"""Enumerative counting cases and the exhaustive oracle itself."""

import itertools
import math
import random

import pytest

from patcheq.enumcount import (
    BruteForceResult, DomainTooLarge, EnumCase, brute_force_eq_count,
    enumerate_models,
)
from patcheq.formula import FALSE, TRUE, compile_paths, tconst
from patcheq.oracle import Budget, SolverConfig, SolverSession
from patcheq.randgen import random_pair
from patcheq.rangesearch import RangeSearch
from patcheq.summarizer import eval_concrete, summarize

from conftest import corpus_fn, fn


def test_doubles_metadata_case2_single_divergence(cfg):
    s1 = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "original.fn"))
    s2 = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "patched.fn"))
    result = enumerate_models(s1, s2, cfg)
    assert result.case is EnumCase.CASE2
    assert result.neq_inputs == [(0,)]
    assert result.exact_eq_count == 2**32 - 1


def test_tcp_window_case2_56_inputs(cfg):
    s1 = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    s2 = summarize(corpus_fn("cve_2010_4165_tcp_window", "patched.fn"))
    result = enumerate_models(s1, s2, cfg)
    assert result.case is EnumCase.CASE2
    assert result.neq_inputs == [(v,) for v in range(8, 64)]
    assert result.exact_eq_count == 2**32 - 56
    assert result.eq_count_lower_bound == result.exact_eq_count


def test_totally_diverging_pair_exhausts_eq_side_instantly(cfg):
    s1 = summarize(fn("fn f(x: u8) -> u8 { return 0; }"))
    s2 = summarize(fn("fn f(x: u8) -> u8 { return 1; }"))
    result = enumerate_models(s1, s2, cfg)
    assert result.case is EnumCase.CASE1
    assert result.eq_inputs == []
    assert result.exact_eq_count == 0


def test_enumeration_counts_match_oracle_width8(cfg):
    rng = random.Random(555)
    done = 0
    while done < 6:
        f1, f2 = random_pair(rng, n_params=1)
        truth = brute_force_eq_count(f1, f2)
        if min(truth.eq_count, truth.neq_count) > 150:
            continue  # keep enumeration short; correctness is unaffected
        done += 1
        s1, s2 = summarize(f1), summarize(f2)
        result = enumerate_models(s1, s2, cfg)
        assert result.case in (EnumCase.CASE1, EnumCase.CASE2)
        assert result.exact_eq_count == truth.eq_count
        # no duplicates, disjoint sides, every member revalidates concretely
        assert len(set(result.eq_inputs)) == len(result.eq_inputs)
        assert len(set(result.neq_inputs)) == len(result.neq_inputs)
        assert not (set(result.eq_inputs) & set(result.neq_inputs))
        for (v,) in result.eq_inputs:
            assert eval_concrete(f1, [v]) == eval_concrete(f2, [v])
        for (v,) in result.neq_inputs:
            assert eval_concrete(f1, [v]) != eval_concrete(f2, [v])
        # worst-case call ceiling: one check per drawn model per side, plus
        # the two exhausting/final checks
        assert result.solver_calls <= 2 * (min(truth.eq_count, truth.neq_count) + 2) + 2


@pytest.mark.parametrize("patched, boxes", [
    ("if (x < 10) { return 50; } return x;", 1),  # x == 50 lies outside [0, 9]
    ("if (x < 10) { return 5; } return x;", 0),  # x == 5 agrees inside [0, 9]
])
def test_a_divergent_box_is_blocked_whole_only_if_no_input_in_it_agrees(cfg, patched, boxes):
    f1, f2 = fn("fn f(x: u8) -> u8 { return x; }"), fn(f"fn f(x: u8) -> u8 {{ {patched} }}")
    result = enumerate_models(summarize(f1), summarize(f2), cfg)
    assert result.exact_eq_count == brute_force_eq_count(f1, f2).eq_count
    assert result.neq.boxes == boxes


def count_models(condition, inputs) -> int:
    """Models of ``condition`` over every input point, by compiled evaluation."""
    if condition in (TRUE, FALSE):
        return math.prod(v.sort.domain_size for v in inputs) if condition == TRUE else 0
    holds = compile_paths([([condition], tconst(0, 8))])
    names = [v.name for v in inputs]
    return sum(bool(holds(dict(zip(names, point))))
               for point in itertools.product(*(range(v.sort.domain_size) for v in inputs)))


@pytest.mark.parametrize("n_params, pairs", [(1, 10), (2, 2)])
def test_box_blocking_counts_lists_and_renders_exactly_width8(cfg, n_params, pairs):
    rng = random.Random(1800 + n_params)
    done = 0
    while done < pairs:
        f1, f2 = random_pair(rng, n_params=n_params)
        s1, s2 = summarize(f1), summarize(f2)
        if n_params == 2:  # a quick pass over the compiled summaries picks pairs to brute force
            envs = [{"x": x, "y": y} for x in range(256) for y in range(256)]
            diverging = sum(s1.outputs(env) != s2.outputs(env) for env in envs)
            if not 0 < min(diverging, len(envs) - diverging) <= 150:
                continue
        truth = brute_force_eq_count(f1, f2)
        if not 0 < min(truth.eq_count, truth.neq_count) <= 150:
            continue  # keep point blocking short; correctness is unaffected
        done += 1
        result = enumerate_models(s1, s2, cfg)
        assert result.case in (EnumCase.CASE1, EnumCase.CASE2)
        assert result.exact_eq_count == truth.eq_count
        exhausted, count = ((result.eq, truth.eq_count) if result.case is EnumCase.CASE1
                            else (result.neq, truth.neq_count))
        assert exhausted.count == count
        for side, agree in ((result.eq, True), (result.neq, False)):
            assert side.queries == side.boxes + side.points + (side is exhausted)
            assert len(set(side.inputs)) == len(side.inputs) and side.inputs == sorted(side.inputs)
            for point in side.inputs:
                assert (eval_concrete(f1, point) == eval_concrete(f2, point)) is agree
            assert count_models(side.condition, s1.inputs) == side.count


def test_budget_expiry_downgrades_to_case3(cfg):
    s1 = summarize(fn("fn f(x: i32) -> i32 { return x; }"))
    s2 = summarize(fn("fn f(x: i32) -> i32 { if (x == 7) { return 0; } return x; }"))
    slow = SolverConfig(solver_cmd=cfg.solver_cmd, query_timeout_ms=1000, budget_ms=1000)
    with RangeSearch(s1, s2, slow, Budget(1)) as search:
        result = enumerate_models(s1, s2, slow, search=search)
    assert result.case is EnumCase.CASE3
    assert result.exact_eq_count is None
    assert result.eq_count_lower_bound == len(result.eq_inputs)


def test_solver_death_while_blocking_downgrades_to_case3(cfg, monkeypatch):
    s1 = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    s2 = summarize(corpus_fn("cve_2010_4165_tcp_window", "patched.fn"))
    real_block = SolverSession.block

    def die_then_block(session, region):
        session.proc.kill()
        session.proc.wait(timeout=10)
        return real_block(session, region)

    monkeypatch.setattr(SolverSession, "block", die_then_block)
    result = enumerate_models(s1, s2, cfg)
    assert result.case is EnumCase.CASE3
    assert result.exact_eq_count is None
    assert result.eq_count_lower_bound == len(result.eq_inputs) == 1
    assert result.solver_calls == 1


# --- the oracle itself ---


def test_brute_force_identical_u8():
    f = fn("fn f(x: u8) -> u8 { return x; }")
    result = brute_force_eq_count(f, f)
    assert result == BruteForceResult(256, 256, ())


def test_brute_force_tcp_window_scaled_to_i8():
    # same guard shape at width 8: divergence window is {8..63}, hand checked
    f1 = fn("fn f(val: i8) -> i8 { if (val < 8 || val > 100) { return -22; } return val; }")
    f2 = fn("fn f(val: i8) -> i8 { if (val < 64 || val > 100) { return -22; } return val; }")
    result = brute_force_eq_count(f1, f2)
    assert result.neq_inputs == tuple((v,) for v in range(8, 64))
    assert result.eq_count == 256 - 56


def test_brute_force_successor_never_equals_identity():
    f1 = fn("fn f(x: i8) -> i8 { return x; }")
    f2 = fn("fn f(x: i8) -> i8 { return x + 1; }")
    assert brute_force_eq_count(f1, f2).eq_count == 0


def test_brute_force_domain_cap():
    f = fn("fn f(x: u16, y: u16) -> u16 { return x ^ y; }")
    with pytest.raises(DomainTooLarge):
        brute_force_eq_count(f, f)
    g = fn("fn f(x: u16) -> u16 { return x; }")
    assert brute_force_eq_count(g, g).eq_count == 65536
