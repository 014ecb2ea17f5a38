"""Equivalence trichotomy and its agreement with exhaustive comparison."""

import random

import pytest

from patcheq.classifier import Verdict, eq_check
from patcheq.enumcount import brute_force_eq_count
from patcheq.randgen import random_pair
from patcheq.summarizer import SignatureMismatch, eval_concrete, summarize

from conftest import corpus_fn, fn


def test_identical_summaries_are_equivalent(cfg):
    s = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    assert eq_check(s, s, cfg).kind is Verdict.T_EQ


def test_distinct_constants_totally_non_equivalent(cfg):
    s1 = summarize(fn("fn f(x: i32) -> i32 { return 0; }"))
    s2 = summarize(fn("fn f(x: i32) -> i32 { return 1; }"))
    result = eq_check(s1, s2, cfg)
    assert result.kind is Verdict.T_NEQ
    assert result.witness is not None  # any input diverges


def test_ltfive_pair_is_partially_equivalent(cfg):
    # upstream labels this pair "equivalent"; integer overflow says otherwise
    f1 = corpus_fn("eqbench_ltfive", "original.fn")
    f2 = corpus_fn("eqbench_ltfive", "patched.fn")
    result = eq_check(summarize(f1), summarize(f2), cfg)
    assert result.kind is Verdict.P_EQ
    assert result.witness is not None
    x = result.witness["x"]
    assert eval_concrete(f1, [x]) != eval_concrete(f2, [x])


def test_signature_mismatch_is_an_error_not_unknown(cfg):
    s1 = summarize(fn("fn f(x: i32) -> i32 { return x; }"))
    s2 = summarize(fn("fn f(y: i32) -> i32 { return y; }"))
    with pytest.raises(SignatureMismatch):
        eq_check(s1, s2, cfg)


def test_width8_agreement_symmetry_trichotomy(cfg):
    rng = random.Random(99)
    for _ in range(12):
        f1, f2 = random_pair(rng)
        truth = brute_force_eq_count(f1, f2)
        if truth.eq_count == truth.domain_size:
            expected = Verdict.T_EQ
        elif truth.eq_count == 0:
            expected = Verdict.T_NEQ
        else:
            expected = Verdict.P_EQ
        s1, s2 = summarize(f1), summarize(f2)
        forward = eq_check(s1, s2, cfg)
        backward = eq_check(s2, s1, cfg)
        assert forward.kind is expected
        assert backward.kind is forward.kind  # symmetry
        if forward.kind is Verdict.P_EQ:
            point = forward.witness
            args = [point[v.name] for v in s1.inputs]
            assert eval_concrete(f1, args) != eval_concrete(f2, args)
