"""Equivalence trichotomy and its agreement with exhaustive comparison."""

import random

import pytest

from patcheq.classifier import Verdict, VerdictResult, eq_check
from patcheq.enumcount import brute_force_eq_count
from patcheq.oracle import SolverSession
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


def test_functions_without_inputs_classify_by_their_one_point(cfg):
    # the one (empty) input is sampled, so both verdicts come without a solver; the
    # solver's empty get-value used to leave no witness, and the verdict unknown
    one, two = (summarize(fn(f"fn f() -> i8 {{ return {k}; }}")) for k in (1, 2))
    assert eq_check(one, two, cfg) == VerdictResult(Verdict.T_NEQ, {}, 0)
    assert eq_check(one, one, cfg) == VerdictResult(Verdict.T_EQ, None, 0)


EQUIV_QUERY = ["(push 1)", "(assert (not (= summary!1 summary!2)))", "(check-sat)",
               "(get-value (x))", "(pop 1)"]
CONJUNCTION_QUERY = ["(push 1)", "(assert summary!1)", "(assert summary!2)", "(check-sat)",
                     "(pop 1)"]


@pytest.mark.parametrize("patched, queries, witness", [
    # no sampled point diverges, and the guard reads as no box
    ("if (x * 3 == 5) { return 0; } return x;", EQUIV_QUERY, 1431655767),
    # no sampled point agrees: the witness is the sample's first point, its low end
    ("if (x * 3 == 5) { return x; } return x + 1;", CONJUNCTION_QUERY, -2**31),
])
def test_the_solver_receives_exactly_the_classifiers_queries(cfg, monkeypatch, patched,
                                                             queries, witness):
    # a check the points and boxes leave open reaches the solver as the bare
    # biconditional or conjunction of the summaries, with no range constraint
    sent = []
    real_send = SolverSession._send
    monkeypatch.setattr(SolverSession, "_send",
                        lambda session, text: (sent.append(text), real_send(session, text)))
    s1 = summarize(fn("fn f(x: i32) -> i32 { return x; }"))
    s2 = summarize(fn(f"fn f(x: i32) -> i32 {{ {patched} }}"))
    result = eq_check(s1, s2, cfg)
    assert result.kind is Verdict.P_EQ and result.solver_calls == 1
    assert result.witness == {"x": witness}
    defined = max(i for i, text in enumerate(sent) if text.startswith("(define-fun"))
    assert sent[defined + 1:] == queries + ["(exit)"]


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
