"""Pair driver behavior outside the quantification hot paths."""

from fractions import Fraction

import pytest

from patcheq import oracle, report as report_module
from patcheq.classifier import Verdict
from patcheq.report import (
    AnalysisError, analyze_pair, fraction_decimal, load_case,
)

from conftest import CORPUS


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


def test_manifest_loader_rejects_missing_fields(tmp_path):
    bad = tmp_path / "x.case"
    bad.write_text("original = a.fn\n")
    from patcheq.report import ManifestError

    with pytest.raises(ManifestError, match="missing patched"):
        load_case(bad)
