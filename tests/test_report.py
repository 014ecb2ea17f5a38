"""Pair driver behavior outside the quantification hot paths."""

from fractions import Fraction

import pytest

from patcheq import classifier, cli, enumcount, oracle, report as report_module
from patcheq.classifier import Verdict
from patcheq.formula import TRUE
from patcheq.report import (
    AnalysisError, ManifestError, analyze_pair, fraction_decimal, load_case,
)
from patcheq.summarizer import summarize

from conftest import CORPUS, OPAQUE_PAIR, corpus_fn, fn, fn_file


@pytest.fixture
def spawned(monkeypatch):
    """Every solver process started while the test runs."""
    procs = []
    real_popen = oracle.subprocess.Popen

    def popen(*args, **kwargs):
        procs.append(real_popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(oracle.subprocess, "Popen", popen)
    return procs


def assert_all_exited(procs):
    for proc in procs:
        proc.wait(timeout=10)  # raises TimeoutExpired for a process left running


def test_identical_files_report_full_equivalence(cfg, tmp_path):
    source = (CORPUS / "eqbench_dart" / "original.fn").read_text()
    a, b = tmp_path / "a.fn", tmp_path / "b.fn"
    a.write_text(source)
    b.write_text(source)
    report = analyze_pair("same", a, b, "combined", cfg)
    assert report.verdict is Verdict.T_EQ
    assert report.eq_percent == Fraction(100)
    assert report.impact_percent == Fraction(0)
    assert report.exact
    assert report.eq_lower_bound == report.domain_size == 2**64


def test_total_divergence_reports_zero_equivalence(cfg, tmp_path):
    a, b = tmp_path / "a.fn", tmp_path / "b.fn"
    a.write_text("fn f(x: i8) -> i8 { return 0; }")
    b.write_text("fn f(x: i8) -> i8 { return 1; }")
    report = analyze_pair("diverge", a, b, "enumerate", cfg)
    assert report.verdict is Verdict.T_NEQ
    assert report.eq_percent == Fraction(0)
    assert report.impact_percent == Fraction(100)
    assert report.exact


def test_percentages_always_sum_to_100(cfg):
    case = CORPUS / "cve_2012_2384_cliprects"
    report = analyze_pair("c", case / "original.fn", case / "patched.fn", "combined", cfg)
    assert report.eq_percent + report.impact_percent == Fraction(100)
    assert Fraction(0) <= report.eq_percent <= Fraction(100)


def test_expired_budget_stops_the_classifier_before_any_solver_starts(cfg, monkeypatch):
    def no_spawn(*args, **kwargs):
        raise AssertionError("a solver process was started")

    monkeypatch.setattr(report_module, "Budget", lambda budget_ms: oracle.Budget(0))
    monkeypatch.setattr(oracle.subprocess, "Popen", no_spawn)
    case = CORPUS / "eqbench_ltfive"
    report = analyze_pair("late", case / "original.fn", case / "patched.fn", "combined", cfg)
    assert report.verdict is Verdict.UNKNOWN
    assert report.solver_calls == 0
    assert report.incomplete


@pytest.mark.parametrize("method, processes, calls", [
    ("combined", 1, 1 + 50),  # the classifier's equivalence check, then 50 range checks
    ("enumerate", 2, 1 + 4),  # 4 enumeration queries
])
def test_one_solver_process_serves_classifier_and_quantification(
        cfg, spawned, opaque_files, method, processes, calls):
    report = analyze_pair("opaque", *opaque_files, method, cfg)
    assert report.verdict is Verdict.P_EQ
    assert report.stats["range_checks"]["solver"] >= 1  # the classifier asked the solver
    assert report.solver_calls == calls
    assert len(spawned) == processes
    assert_all_exited(spawned)


@pytest.mark.parametrize("case, method, processes, calls", [
    ("eqbench_ltfive", "combined", 1, 76),  # 76 range queries
    ("cve_2010_4165_tcp_window", "enumerate", 2, 4),  # 4 enumeration queries
])
def test_quantification_alone_starts_the_solver_when_points_and_boxes_classify(
        cfg, spawned, case, method, processes, calls):
    pair = CORPUS / case
    report = analyze_pair(case, pair / "original.fn", pair / "patched.fn", method, cfg)
    assert report.verdict is Verdict.P_EQ
    assert report.solver_calls == calls
    assert len(spawned) == processes
    assert_all_exited(spawned)


def test_equivalent_pair_starts_one_solver_process(cfg, spawned):
    source = CORPUS / "eqbench_dart" / "original.fn"
    report = analyze_pair("same", source, source, "enumerate", cfg)
    assert report.verdict is Verdict.T_EQ
    assert len(spawned) == 1
    assert_all_exited(spawned)


def test_standalone_classifier_and_enumeration_keep_their_sessions(cfg, spawned):
    opaque = [summarize(fn(text)) for text in OPAQUE_PAIR]
    assert classifier.eq_check(*opaque, cfg).solver_calls == 1
    assert len(spawned) == 1
    tcp = [summarize(corpus_fn("cve_2010_4165_tcp_window", w))
           for w in ("original.fn", "patched.fn")]
    assert enumcount.enumerate_models(*tcp, cfg).solver_calls == 4
    assert len(spawned) == 3
    assert_all_exited(spawned)


def test_standalone_classifier_answered_by_points_starts_no_solver(cfg, spawned):
    ltfive = [summarize(corpus_fn("eqbench_ltfive", w)) for w in ("original.fn", "patched.fn")]
    result = classifier.eq_check(*ltfive, cfg)
    assert result.kind is Verdict.P_EQ and result.solver_calls == 0
    assert spawned == []


PATHS16_SHAPED = """fn f(x: i16) -> i16 {{
    let acc: i16 = 7;
    if (x > -20000) {{ acc = acc + 311; }}
    if (x < -6000) {{ acc = acc + 42; }}
    if (x > {moved}) {{ acc = acc + 500; }}
    if (x < 24000) {{ acc = acc + 9; }}
    return acc;
}}
"""


def test_a_fully_readable_pair_starts_no_solver_process(cfg, spawned, tmp_path):
    # threshold guards adding to an accumulator, one threshold moved: every path reads as
    # a box and returns a constant, so points and boxes answer every check.  The moved
    # guard diverges on [8194, 16384], a piece iterative bisection certifies exactly
    files = tmp_path / "original.fn", tmp_path / "patched.fn"
    for path, moved in zip(files, (8193, 16384)):
        path.write_text(PATHS16_SHAPED.format(moved=moved))
    report = analyze_pair("p16", *files, "combined", cfg)
    assert spawned == []
    assert report.solver_calls == 0
    assert report.verdict is Verdict.P_EQ
    truth = enumcount.brute_force_eq_count(*map(fn_file, files))
    assert truth.eq_count == 2**16 - 8191
    assert report.eq_lower_bound == truth.eq_count


def test_a_solver_that_fails_to_start_leaves_no_process_behind(cfg, spawned, monkeypatch):
    counting_popen = oracle.subprocess.Popen

    def only_one_starts(*args, **kwargs):
        if spawned:
            raise FileNotFoundError(args[0][0])
        return counting_popen(*args, **kwargs)

    monkeypatch.setattr(oracle.subprocess, "Popen", only_one_starts)
    case = CORPUS / "cve_2010_4165_tcp_window"
    with pytest.raises(oracle.SolverConfigError):
        analyze_pair("one", case / "original.fn", case / "patched.fn", "enumerate", cfg)
    assert len(spawned) == 1  # the classifier's; the divergent side's fails to start
    assert_all_exited(spawned)


def test_solver_death_after_classification_gives_an_incomplete_enumeration(
        cfg, spawned, monkeypatch, opaque_files):
    real_eq_check = report_module.eq_check

    def classify_then_die(*args, search, **kwargs):
        verdict = real_eq_check(*args, search=search, **kwargs)
        search.session.proc.kill()  # the classifier's equivalence check started it
        search.session.proc.wait(timeout=10)
        return verdict

    monkeypatch.setattr(report_module, "eq_check", classify_then_die)
    report = analyze_pair("dies", *opaque_files, "enumerate", cfg)
    assert report.verdict is Verdict.P_EQ
    assert report.enum_case is enumcount.EnumCase.CASE3
    assert report.incomplete and not report.exact
    assert report.eq_lower_bound == 0
    assert_all_exited(spawned)


def test_enumeration_starts_the_session_a_solverless_classification_left_unstarted(
        cfg, spawned, monkeypatch):
    real_eq_check = report_module.eq_check
    sessions = []

    def classify(*args, search, **kwargs):
        verdict = real_eq_check(*args, search=search, **kwargs)
        sessions.append(search.session)
        return verdict

    monkeypatch.setattr(report_module, "eq_check", classify)
    case = CORPUS / "cve_2010_4165_tcp_window"
    report = analyze_pair("lazy", case / "original.fn", case / "patched.fn", "enumerate", cfg)
    assert sessions == [None]
    assert report.verdict is Verdict.P_EQ
    assert report.exact and report.eq_lower_bound == 2**32 - 56
    assert len(spawned) == 2
    assert_all_exited(spawned)


def test_negative_depth_limit_is_a_config_error(cfg, spawned, opaque_files):
    with pytest.raises(AnalysisError, match="config"):
        analyze_pair("neg", *opaque_files, "relational", cfg, depth_limit=-1)
    assert spawned == []
    report = analyze_pair("zero", *opaque_files, "relational", cfg, depth_limit=0)
    # the classifier's equivalence check, and the same check of the one range, which
    # adds no range constraint to the full domain; sampled points share outputs
    assert report.solver_calls == 1 + 1
    assert report.stats["range_checks"] == {"points": 2, "regions": 0, "solver": 2}
    assert_all_exited(spawned)


def test_depth_limit_zero_starts_no_solver_when_points_decide(cfg, spawned):
    case = CORPUS / "eqbench_ltfive"
    report = analyze_pair("zero", case / "original.fn", case / "patched.fn", "relational",
                          cfg, depth_limit=0)
    # sampled points answer the classifier's checks and both checks of the one range
    assert report.solver_calls == 0
    assert report.stats["range_checks"] == {"points": 4, "regions": 0, "solver": 0}
    assert spawned == []


def test_manifest_rejects_negative_depth_limit(tmp_path):
    for name in ("a.fn", "b.fn"):
        (tmp_path / name).write_text("fn f(x: i8) -> i8 { return x; }")
    manifest = tmp_path / "x.case"
    manifest.write_text("original = a.fn\npatched = b.fn\ndepth_limit = -1\n")
    with pytest.raises(ManifestError, match="depth_limit"):
        load_case(manifest)
    manifest.write_text("original = a.fn\npatched = b.fn\ndepth_limit = 0\n")
    assert load_case(manifest).depth_limit == 0


def test_manifest_rejects_a_repeated_key(tmp_path):
    # the later value must not silently replace the earlier one
    for name in ("a.fn", "b.fn"):
        (tmp_path / name).write_text("fn f(x: i8) -> i8 { return x; }")
    manifest = tmp_path / "x.case"
    manifest.write_text(
        "original = a.fn\npatched = b.fn\nexpect_verdict = T_EQ\nexpect_verdict = P_EQ\n")
    with pytest.raises(ManifestError, match="x.case:4: repeated key 'expect_verdict'"):
        load_case(manifest)


@pytest.mark.parametrize("line", [
    "method = bogus",
    "expect_verdict = EQUIVALENT",
    "expect_case = CASE4",
    "expect_eq_fraction = half",
    "expect_impact_fraction = 1/0",
    "expect_neq_count = many",
    "expect_exact_eq_count = -1",
])
def test_manifest_rejects_a_bad_value(tmp_path, line):
    # checked on load, not after the analysis has run or as a failed expectation
    for name in ("a.fn", "b.fn"):
        (tmp_path / name).write_text("fn f(x: i8) -> i8 { return x; }")
    manifest = tmp_path / "x.case"
    manifest.write_text(f"original = a.fn\npatched = b.fn\n{line}\n")
    key, _, value = line.partition(" = ")
    with pytest.raises(ManifestError, match=f"{key} must be .*, not '{value}'"):
        load_case(manifest)


def test_signature_mismatch_names_the_stage(cfg, tmp_path):
    a, b = tmp_path / "a.fn", tmp_path / "b.fn"
    a.write_text("fn f(x: i8) -> i8 { return x; }")
    b.write_text("fn f(x: u8) -> u8 { return x; }")
    with pytest.raises(AnalysisError, match="signature"):
        analyze_pair("bad", a, b, "combined", cfg)


def test_fraction_decimal_rendering():
    assert fraction_decimal(Fraction(175, 2)) == "87.50"
    assert fraction_decimal(Fraction(100)) == "100.00"
    assert fraction_decimal(Fraction(1, 3), places=4) == "0.3333"
    assert fraction_decimal(Fraction(1, 800)) == "0.00"  # rounds half even
    assert fraction_decimal(Fraction(25, 2), places=0) == "12"
    assert fraction_decimal(Fraction(1, 800), toward=1) == "0.01"
    assert fraction_decimal(Fraction(2, 3), toward=-1) == "0.66"
    assert fraction_decimal(Fraction(175, 2), toward=-1) == "87.50"  # no remainder to round


def test_a_rounded_bound_claims_no_more_than_was_proven():
    # fb_requeue_guard proves (2^31 - 1)^2 of 2^64 inputs equivalent: 24.99999998...%
    def proven(exact):
        return report_module.ImpactReport(
            name="p", original="a.fn", patched="b.fn", verdict=Verdict.P_EQ,
            method="relational", eq_lower_bound=(2**31 - 1) ** 2, domain_size=2**64,
            exact=exact, condition=TRUE, witness=None, solver_calls=0, elapsed_ms=0,
            incomplete=False, stats={})

    data = proven(False).to_json()
    assert data["eq_percent_lower_bound"]["decimal"] == "24.99"
    assert data["impact_percent_upper_bound"]["decimal"] == "75.01"
    text = cli._render_text(proven(False)).splitlines()
    assert "eq percent:  >= 24.99" in text
    assert text[5].startswith("impact:      <= 75.01% (")
    data = proven(True).to_json()  # an exact value rounds half even
    assert data["eq_percent_lower_bound"]["decimal"] == "25.00"
    assert data["impact_percent_upper_bound"]["decimal"] == "75.00"


def test_manifest_loader_rejects_missing_fields(tmp_path):
    bad = tmp_path / "x.case"
    bad.write_text("original = a.fn\n")
    from patcheq.report import ManifestError

    with pytest.raises(ManifestError, match="missing patched"):
        load_case(bad)
