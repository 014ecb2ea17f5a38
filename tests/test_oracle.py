"""Solver client: verdicts, models, blocking, timeouts, failure modes."""

import marshal
import os
import sys

import pytest

from patcheq import bvarith, oracle
from patcheq.classifier import Verdict, eq_check
from patcheq.formula import (
    BvVar, FIff, FNot, fand, feq, flt, point_formula, serialize_formula, tbin, tconst, tvar,
)
from patcheq.minilang import SORTS
from patcheq.oracle import Budget, SolverConfig, SolverConfigError, SolverSession
from patcheq.regions import box_formula
from patcheq.summarizer import eval_concrete, summarize

from conftest import corpus_fn


def check(cfg, decls, f) -> str:
    with SolverSession(cfg, tuple(decls)) as session:
        session.assert_formula(f)
        return session.check_sat()


def block_model(session, variables, model):
    session.block(point_formula(variables, [model[v.name] for v in variables]))


def test_empty_unsigned_range_is_unsat(cfg):
    x = BvVar("x", SORTS["u8"], "input")
    assert check(cfg, [x], flt(False, tvar(x), tconst(0, 8))) == "unsat"


def test_self_equivalence_is_valid(cfg):
    s = summarize(corpus_fn("cve_2012_2384_cliprects", "original.fn"))
    assert check(cfg, s.decls, FNot(FIff(s.formula, s.formula))) == "unsat"


def test_doubles_metadata_divergence_model(cfg):
    s1 = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "original.fn"))
    s2 = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "patched.fn"))
    with SolverSession(cfg, s1.decls) as session:
        session.assert_formula(FNot(FIff(s1.formula, s2.formula)))
        assert session.check_sat() == "sat"
        assert session.get_values(list(s1.inputs)) == {"count": 0}  # the only diverging input


def test_projection_returns_exactly_requested_vars(cfg):
    s1 = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    s2 = summarize(corpus_fn("cve_2010_4165_tcp_window", "patched.fn"))
    with SolverSession(cfg, s1.decls) as session:
        session.assert_formula(fand([s1.formula, s2.formula]))
        assert session.check_sat() == "sat"
        model = session.get_values(list(s1.inputs))
    assert set(model) == {"val"}
    val = model["val"]
    assert not (8 <= val <= 63)  # models of the conjunction are agreement points
    f1 = corpus_fn("cve_2010_4165_tcp_window", "original.fn")
    f2 = corpus_fn("cve_2010_4165_tcp_window", "patched.fn")
    assert eval_concrete(f1, [val]) == eval_concrete(f2, [val])


def test_block_single_divergence_then_unsat(cfg):
    s1 = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "original.fn"))
    s2 = summarize(corpus_fn("cve_2013_0859_doubles_metadata", "patched.fn"))
    with SolverSession(cfg, s1.decls) as session:
        session.assert_formula(FNot(FIff(s1.formula, s2.formula)))
        assert session.check_sat() == "sat"
        model = session.get_values(list(s1.inputs))
        assert model == {"count": 0}
        block_model(session, list(s1.inputs), model)
        assert session.check_sat() == "unsat"


@pytest.mark.parametrize("sorts, point, sent", [
    (("u8",), (5,), "(assert (not (= x0 (_ bv5 8))))"),
    (("i8", "u16"), (-5, 300),
     "(assert (not (and (= x0 (_ bv251 8)) (= x1 (_ bv300 16)))))"),
])
def test_blocking_clause_is_the_negated_report_condition(cfg, monkeypatch, sorts, point, sent):
    variables = [BvVar(f"x{i}", SORTS[name], "input") for i, name in enumerate(sorts)]
    texts = []
    condition = box_formula({v: [(bvarith.to_unsigned(value, v.sort.width),) * 2]
                             for v, value in zip(variables, point)}, variables)
    with SolverSession(cfg, tuple(variables)) as session:
        monkeypatch.setattr(session, "_send", texts.append)
        session.block(condition)
        monkeypatch.undo()
    assert texts == [sent]  # the bytes the solver gets
    assert sent == f"(assert {serialize_formula(FNot(condition))})"


def test_block_all_width8_inputs(cfg):
    x = BvVar("x", SORTS["u8"], "input")
    with SolverSession(cfg, (x,)) as session:
        for value in range(256):
            block_model(session, [x], {"x": value})
        assert session.check_sat() == "unsat"


def test_block_56_divergent_inputs_tcp_window(cfg):
    s1 = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    s2 = summarize(corpus_fn("cve_2010_4165_tcp_window", "patched.fn"))
    with SolverSession(cfg, s1.decls) as session:
        session.assert_formula(FNot(FIff(s1.formula, s2.formula)))
        drawn = []
        for _ in range(56):
            assert session.check_sat() == "sat"
            model = session.get_values(list(s1.inputs))
            drawn.append(model["val"])
            block_model(session, list(s1.inputs), model)
        assert session.check_sat() == "unsat"
    assert sorted(drawn) == list(range(8, 64))


def test_models_revalidate_concretely(cfg):
    # every model drawn during enumeration satisfies the formula concretely
    from patcheq.formula import eval_formula

    s1 = summarize(corpus_fn("cve_2010_4165_tcp_window", "original.fn"))
    s2 = summarize(corpus_fn("cve_2010_4165_tcp_window", "patched.fn"))
    query = FNot(FIff(s1.formula, s2.formula))
    with SolverSession(cfg, s1.decls) as session:
        session.assert_formula(query)
        for _ in range(5):
            assert session.check_sat() == "sat"
            model = session.get_values(list(s1.decls))
            widths = {v.name: v.sort.width for v in s1.decls}
            env = {name: bvarith.to_unsigned(value, widths[name]) for name, value in model.items()}
            assert eval_formula(query, env)
            block_model(session, list(s1.inputs), model)


def test_missing_solver_executable(cfg):
    bad = SolverConfig(solver_cmd=("/nonexistent/solver",), query_timeout_ms=1000,
                       budget_ms=1000)
    x = BvVar("x", SORTS["u8"], "input")
    with pytest.raises(SolverConfigError, match="not found"):
        check(bad, [x], feq(tvar(x), tconst(1, 8)))


def test_timeout_yields_unknown_not_a_verdict(cfg):
    # x*x * y*y == (x*y)^2 at width 64: true but brutal to bit-blast
    w = SORTS["u64"]
    x, y = BvVar("x", w, "input"), BvVar("y", w, "input")
    xx = tbin("mul", tvar(x), tvar(x))
    yy = tbin("mul", tvar(y), tvar(y))
    xy = tbin("mul", tvar(x), tvar(y))
    hard = FNot(feq(tbin("mul", xx, yy), tbin("mul", xy, xy)))
    quick = SolverConfig(solver_cmd=cfg.solver_cmd, query_timeout_ms=300,
                         budget_ms=1000)
    assert check(quick, [x, y], hard) == "unknown"


def test_config_validation():
    with pytest.raises(SolverConfigError):
        SolverConfig(query_timeout_ms=0)
    with pytest.raises(SolverConfigError):
        SolverConfig(query_timeout_ms=1000, budget_ms=10)


def test_budget_expiry_is_observable():
    budget = Budget(1)
    import time

    time.sleep(0.01)
    assert budget.expired


# The bundled solver, but printing each get-value reply one pair per line, as
# z3 does for two or more names.
ONE_PAIR_PER_LINE = """
import sys
from patcheq.smtbv import run_stdio

class OnePairPerLine:
    def write(self, text):
        sys.stdout.write(text.replace(") (", ")\\n (") if text.startswith("((") else text)

    def flush(self):
        sys.stdout.flush()

sys.exit(run_stdio(stdout=OnePairPerLine()))
"""


@pytest.mark.parametrize("case", ["eqbench_dart", "cve_2018_fb_requeue_guard"])
def test_a_reply_spanning_lines_is_read_whole(cfg, case):
    s1, s2 = (summarize(corpus_fn(case, w)) for w in ("original.fn", "patched.fn"))
    assert len(s1.inputs) == 2
    stub = SolverConfig(solver_cmd=(sys.executable, "-c", ONE_PAIR_PER_LINE),
                        query_timeout_ms=cfg.query_timeout_ms, budget_ms=cfg.budget_ms)
    bundled = eq_check(s1, s2, cfg)
    split = eq_check(s1, s2, stub)
    assert bundled.kind is split.kind is Verdict.P_EQ
    assert split.witness == bundled.witness is not None


def test_a_dead_session_drops_commands_and_answers_unknown(cfg):
    x = BvVar("x", SORTS["u8"], "input")
    with SolverSession(cfg, (x,)) as session:
        session.proc.kill()
        session.proc.wait(timeout=10)
        session.push()
        session.assert_formula(feq(tvar(x), tconst(1, 8)))
        session.pop()
        assert session.dead
        assert session.check_sat() == "unknown"
        assert session.get_values([x]) is None
        assert session.check_sat() == "unknown"


@pytest.mark.parametrize("value, expected", [
    ("#x2a", 42), ("#xFF", 255), ("#b101", 5), ("#b0", 0), ("42", 42),
    (["_", "bv42", "8"], 42), (["_", "bv0", "32"], 0),
])
def test_bv_values_read_in_every_solver_notation(value, expected):
    assert oracle._parse_bv_value(value) == expected


@pytest.mark.parametrize("value", ["#q12", "true", ["_", "bvx", "8"], ["bv5", "8"], []])
def test_an_unreadable_bv_value_is_a_value_error(value):
    with pytest.raises(ValueError):
        oracle._parse_bv_value(value)


# Answers sat, then a get-value reply that leaves out y.
MISSING_NAME = """
import sys
for line in sys.stdin:
    if line.startswith("(check-sat"):
        print("sat", flush=True)
    elif line.startswith("(get-value"):
        print("((x #x05))", flush=True)
"""


def test_a_reply_missing_a_requested_name_reads_no_model(cfg):
    x, y = (BvVar(name, SORTS["u8"], "input") for name in "xy")
    stub = SolverConfig(solver_cmd=(sys.executable, "-c", MISSING_NAME),
                        query_timeout_ms=cfg.query_timeout_ms, budget_ms=cfg.budget_ms)
    with SolverSession(stub, (x, y)) as session:
        assert session.check_sat() == "sat"
        assert session.get_values([x]) == {"x": 5}
        assert not session.dead
        assert session.get_values([x, y]) is None
        assert session.dead
        assert session.check_sat() == "unknown"


def test_close_never_reaps_a_child_that_already_exited():
    session = SolverSession(SolverConfig(solver_cmd=(sys.executable, "-c", "pass")))
    pid = session.proc.pid
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    session.close()
    assert session.dead
    assert os.waitpid(pid, 0)[0] == pid  # the status is still there for its owner


DYING_PACKAGE = marshal.dumps({"patcheq": (True, compile("raise SystemExit(3)", "patcheq", "exec"))})


@pytest.mark.parametrize("preamble", [
    b"junk\n",  # no length line
    b"4\njunk",  # not marshal data
    b"%d\n" % len(DYING_PACKAGE) + DYING_PACKAGE,  # the package exits as it is imported
])
def test_a_dead_bootstrap_answers_unknown(cfg, monkeypatch, preamble):
    monkeypatch.setattr(oracle, "bundled_preamble", lambda: preamble)
    with SolverSession(cfg) as session:
        assert session.check_sat() == "unknown"
        assert session.dead
