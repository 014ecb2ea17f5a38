"""End-to-end CLI behavior: subcommands, formats, exit codes, determinism."""

import ast
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from patcheq.cli import main
from patcheq.oracle import SolverConfig, SolverConfigError, bundled_solver_command
from patcheq.summarizer import eval_concrete

from conftest import fn_file

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
SOLVER = shlex.join(bundled_solver_command())


def run_cli(argv, capsys):
    code = main(argv + ["--solver-cmd", SOLVER])
    out, err = capsys.readouterr()
    return code, out, err


def test_summarize_prints_paths_and_smtlib(capsys, corpus_dir):
    code, out, _ = run_cli(
        ["summarize", str(corpus_dir / "cve_2013_0859_doubles_metadata/original.fn")],
        capsys,
    )
    assert code == 0
    assert "2 path(s)" in out
    assert "(set-logic QF_BV)" in out
    assert "(declare-const count (_ BitVec 32))" in out


def test_check_reports_verdict_and_witness(capsys, corpus_dir):
    code, out, _ = run_cli(
        [
            "check",
            str(corpus_dir / "eqbench_ltfive/original.fn"),
            str(corpus_dir / "eqbench_ltfive/patched.fn"),
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "partially_equivalent"
    assert "x" in data["witness"]


def test_check_text_names_the_verdict_and_a_diverging_input(capsys, corpus_dir):
    case = corpus_dir / "eqbench_ltfive"
    code, out, _ = run_cli(["check", str(case / "original.fn"), str(case / "patched.fn")],
                           capsys)
    assert code == 0
    verdict, diverging = out.splitlines()
    assert verdict == "verdict: partially_equivalent"
    assert diverging.startswith("diverging input: ")
    x = ast.literal_eval(diverging.removeprefix("diverging input: "))["x"]
    assert (eval_concrete(fn_file(case / "original.fn"), [x])
            != eval_concrete(fn_file(case / "patched.fn"), [x]))


# Answers every check-sat with unknown.
UNKNOWN_SOLVER = """
import sys
for line in sys.stdin:
    if line.startswith("(check-sat"):
        print("unknown", flush=True)
"""


def test_check_exits_1_when_the_solver_answers_unknown(capsys, opaque_files):
    # no sampled point diverges and the guard reads as no box, so the solver must answer
    code = main(["check", *map(str, opaque_files),
                 "--solver-cmd", shlex.join([sys.executable, "-c", UNKNOWN_SOLVER])])
    out, _ = capsys.readouterr()
    assert code == 1
    assert out.splitlines() == ["verdict: unknown"]


def test_check_answers_without_the_solver_when_points_decide(capsys, corpus_dir):
    # sampled points find both a diverging and an agreeing input of ltfive, so the
    # solver that only answers unknown is never asked
    case = corpus_dir / "eqbench_ltfive"
    code = main(["check", str(case / "original.fn"), str(case / "patched.fn"), "--format", "json",
                 "--solver-cmd", shlex.join([sys.executable, "-c", UNKNOWN_SOLVER])])
    data = json.loads(capsys.readouterr()[0])
    assert code == 0
    assert data["verdict"] == "partially_equivalent"
    assert data["solver_calls"] == 0
    assert data["range_checks"] == {"points": 2, "regions": 0, "solver": 0}
    x = data["witness"]["x"]
    assert (eval_concrete(fn_file(case / "original.fn"), [x])
            != eval_concrete(fn_file(case / "patched.fn"), [x]))


def test_impact_json_fields(capsys, corpus_dir):
    code, out, _ = run_cli(
        [
            "impact",
            str(corpus_dir / "cve_2012_2384_cliprects/original.fn"),
            str(corpus_dir / "cve_2012_2384_cliprects/patched.fn"),
            "--algorithm", "combined", "--format", "json", "--stable",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "partially_equivalent"
    assert data["algorithm"] == "combined"
    assert data["eq_lower_bound"] == str(2**29)
    assert data["eq_percent_lower_bound"] == {
        "decimal": "12.50", "numerator": "25", "denominator": "2",
    }
    assert data["impact_percent_upper_bound"]["decimal"] == "87.50"
    assert data["impact_percent_upper_bound"]["numerator"] == "175"
    assert "pretty" in data["condition"] and "smtlib" in data["condition"]
    assert "elapsed_ms" not in data and "stats" not in data  # stable mode drops timing
    assert data["incomplete"] is False


def test_impact_json_reports_phase_times_and_path_counts(capsys, corpus_dir):
    case = corpus_dir / "eqbench_ltfive"
    code, out, _ = run_cli(
        ["impact", str(case / "original.fn"), str(case / "patched.fn"), "--format", "json"],
        capsys,
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert set(stats["phase_ms"]) == {"load", "summarize", "classify", "quantify"}
    assert all(ms >= 0 for ms in stats["phase_ms"].values())
    assert stats["paths"] == [4, 4]
    assert "enum" not in stats  # only enumeration reports its work


@pytest.mark.parametrize("case, patched, checks", [
    ("cve_2012_2384_cliprects", "patched.fn", {"points": 31, "regions": 35, "solver": 3}),
    ("juliet_multiply_cwe190", "good.fn", {"points": 26, "regions": 38, "solver": 1}),
    (None, None, {"points": 12, "regions": 0, "solver": 51}),  # OPAQUE_PAIR
])
def test_impact_json_counts_who_answered_each_range_check(capsys, corpus_dir, opaque_files,
                                                          case, patched, checks):
    # the classifier's two checks count with the range checks.  Every path of both corpus
    # pairs reads as a box, so the path boxes answer most unsat checks; OPAQUE_PAIR's guard
    # reads as none, so the solver answers its classifier's equivalence check and every
    # unsat
    files = opaque_files if case is None else (corpus_dir / case / "original.fn",
                                               corpus_dir / case / patched)
    code, out, _ = run_cli(["impact", *map(str, files), "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["stats"]["range_checks"] == checks
    assert data["solver_calls"] == checks["solver"]  # every solver query is a counted check


@pytest.mark.parametrize("patched, verdict, checks", [
    ("return x;", "equivalent", {"points": 0, "regions": 1, "solver": 0}),
    ("return x + 1;", "totally_non_equivalent", {"points": 1, "regions": 1, "solver": 0}),
    ("if (x < 5) { return 0; } return x;", "partially_equivalent",
     {"points": 2, "regions": 0, "solver": 0}),
])
@pytest.mark.parametrize("method", ["relational", "iterative", "priority", "combined",
                                    "enumerate"])
def test_impact_json_counts_the_classifiers_checks_for_every_method_and_verdict(
        capsys, tmp_path, patched, verdict, checks, method):
    files = tmp_path / "original.fn", tmp_path / "patched.fn"
    files[0].write_text("fn f(x: i8) -> i8 { return x; }")
    files[1].write_text(f"fn f(x: i8) -> i8 {{ {patched} }}")
    code, out, _ = run_cli(["impact", *map(str, files), "--algorithm", method,
                            "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == verdict
    counted = data["stats"]["range_checks"]
    if verdict == "partially_equivalent" and method != "enumerate":
        # the range search's checks follow the classifier's
        assert sum(counted.values()) > sum(checks.values())
        assert all(counted[by] >= checks[by] for by in checks)
        assert data["solver_calls"] == counted["solver"]
    else:
        assert counted == checks  # the classifier's checks: sampled points and boxes


def test_impact_json_reports_enumeration_work(capsys, corpus_dir):
    case = corpus_dir / "cve_2010_4165_tcp_window"
    argv = ["impact", str(case / "original.fn"), str(case / "patched.fn"),
            "--algorithm", "enumerate", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    data = json.loads(out)
    # one box on each side per path pair, and the last divergent query answers unsat
    assert data["stats"]["enum"] == {"eq": {"queries": 2, "boxes": 2, "points": 0},
                                     "neq": {"queries": 2, "boxes": 1, "points": 0}}
    # a sampled point and a path-pair box answer the classifier; the solver only enumerates
    assert data["stats"]["range_checks"] == {"points": 1, "regions": 1, "solver": 0}
    assert data["solver_calls"] == 4
    assert data["eq_model_count"] == 2**32 - 56 and data["neq_model_count"] == 56
    assert data["neq_models"] == [[v] for v in range(8, 64)]
    code, out, _ = run_cli(argv + ["--stable"], capsys)
    assert "stats" not in json.loads(out)


def test_impact_json_reports_enumeration_work_after_a_solver_classification(capsys,
                                                                           opaque_files):
    argv = ["impact", *map(str, opaque_files), "--algorithm", "enumerate", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    data = json.loads(out)
    # no path pair reads as a box, so each side blocks single points
    assert data["stats"]["enum"] == {"eq": {"queries": 2, "boxes": 0, "points": 2},
                                     "neq": {"queries": 2, "boxes": 0, "points": 1}}
    assert data["stats"]["range_checks"] == {"points": 1, "regions": 0, "solver": 1}
    assert data["solver_calls"] == 1 + 4  # the classifier's equivalence check, then these
    assert data["witness"] == {"x": 1431655767}  # 3 * 1431655767 == 5 (mod 2**32)
    assert data["neq_model_count"] == 1 and data["neq_models"] == [[1431655767]]
    assert data["eq_model_count"] == 2  # the divergent side exhausted first
    assert data["eq_lower_bound"] == str(2**32 - 1) and data["exact"]


def test_stable_reports_are_byte_identical(capsys, corpus_dir):
    argv = [
        "impact",
        str(corpus_dir / "cve_2013_0859_doubles_metadata/original.fn"),
        str(corpus_dir / "cve_2013_0859_doubles_metadata/patched.fn"),
        "--algorithm", "enumerate", "--format", "json", "--stable",
    ]
    code1, out1, _ = run_cli(list(argv), capsys)
    code2, out2, _ = run_cli(list(argv), capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_corpus_stable_json_matches_golden(capsys, monkeypatch):
    # Reports name their files relative to the working directory.
    monkeypatch.chdir(REPO)
    code, out, _ = run_cli(["corpus", "corpus/", "--stable", "--format", "json"], capsys)
    assert code == 0
    assert out == (GOLDEN / "corpus_stable.json").read_text()


def test_corpus_summaries_match_golden(capsys, corpus_dir):
    out = []
    for path in sorted(corpus_dir.glob("*/*.fn"), key=lambda p: p.relative_to(corpus_dir).as_posix()):
        code, text, _ = run_cli(["summarize", str(path)], capsys)
        assert code == 0
        out.append(text)
    assert "".join(out) == (GOLDEN / "corpus_summaries.smt2").read_text()


def test_corpus_runs_bundled_cases(capsys, corpus_dir):
    code, out, _ = run_cli(
        ["corpus", str(corpus_dir), "--jobs", "4"], capsys
    )
    assert code == 0
    assert "0 failed" in out
    assert "cve_2012_2384_cliprects" in out
    assert "87.50" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_corpus_mean_impact_honours_percent_places(tmp_path, capsys, corpus_dir, fmt):
    src = corpus_dir / "cve_2012_2384_cliprects"
    for name in ("original.fn", "patched.fn", "pair.case"):
        (tmp_path / name).write_text((src / name).read_text())
    code, out, _ = run_cli(
        ["corpus", str(tmp_path), "--percent-places", "4", "--format", fmt], capsys
    )
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["aggregate"]["mean_impact_percent"] == "87.5000"
    else:
        assert "<= 87.5000%" in out and "mean impact 87.5000%" in out


def test_corpus_expectation_failure_exits_one(tmp_path, capsys, corpus_dir):
    src = corpus_dir / "cve_2013_0859_doubles_metadata"
    for name in ("original.fn", "patched.fn"):
        (tmp_path / name).write_text((src / name).read_text())
    (tmp_path / "pair.case").write_text(
        "original = original.fn\npatched = patched.fn\nmethod = enumerate\n"
        "expect_verdict = T_EQ\n"
    )
    code, out, _ = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    assert "expected T_EQ" in out


def test_corpus_manifest_with_unknown_key_exits_2(tmp_path, capsys, corpus_dir):
    # a misspelt expectation must not leave the case passing unchecked
    src = corpus_dir / "cve_2013_0859_doubles_metadata"
    for name in ("original.fn", "patched.fn"):
        (tmp_path / name).write_text((src / name).read_text())
    (tmp_path / "pair.case").write_text(
        "original = original.fn\npatched = patched.fn\nexpect_verdcit = T_EQ\n"
    )
    code, out, err = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 2
    assert "unknown key 'expect_verdcit'" in err
    assert out == ""


def test_corpus_manifest_with_a_bad_value_exits_2(tmp_path, capsys, corpus_dir):
    src = corpus_dir / "cve_2013_0859_doubles_metadata"
    for name in ("original.fn", "patched.fn"):
        (tmp_path / name).write_text((src / name).read_text())
    (tmp_path / "pair.case").write_text(
        "original = original.fn\npatched = patched.fn\nexpect_neq_count = many\n"
    )
    code, out, err = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 2
    assert "expect_neq_count must be a non-negative integer" in err
    assert out == ""


def test_corpus_continues_past_broken_case(tmp_path, capsys):
    (tmp_path / "bad.fn").write_text("fn f(x: i32 -> i32 { return x; }")
    (tmp_path / "ok_orig.fn").write_text("fn f(x: i8) -> i8 { return x; }")
    (tmp_path / "ok_patched.fn").write_text("fn f(x: i8) -> i8 { return x; }")
    (tmp_path / "broken.case").write_text(
        "original = bad.fn\npatched = bad.fn\n"
    )
    (tmp_path / "works.case").write_text(
        "original = ok_orig.fn\npatched = ok_patched.fn\nexpect_verdict = T_EQ\n"
    )
    code, out, _ = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1  # the broken case failed, the good one still ran
    assert "error" in out
    assert "equivalent" in out


@pytest.mark.parametrize("subdir, message", [
    ("no/such/dir", "is not a directory"),
    ("", "no *.case manifest"),
], ids=["missing", "empty"])
def test_corpus_without_manifests_is_infrastructure_error(tmp_path, capsys, subdir, message):
    # a mistyped path must not pass as an empty, all-green corpus
    (tmp_path / "notes.txt").write_text("not a manifest")
    code, out, err = run_cli(["corpus", str(tmp_path / subdir)], capsys)
    assert code == 2
    assert err.startswith("infrastructure error: ") and message in err
    assert out == ""


def test_missing_solver_is_infrastructure_error(capsys, corpus_dir):
    code = main([
        "check",
        str(corpus_dir / "eqbench_dart/original.fn"),
        str(corpus_dir / "eqbench_dart/patched.fn"),
        "--solver-cmd", "/nonexistent/solver-binary",
    ])
    assert code == 2


def test_unrunnable_solver_is_infrastructure_error(tmp_path, capsys, corpus_dir):
    solver = tmp_path / "solver"
    solver.write_text("not a program")
    solver.chmod(0o644)
    code = main([
        "check",
        str(corpus_dir / "eqbench_dart/original.fn"),
        str(corpus_dir / "eqbench_dart/patched.fn"),
        "--solver-cmd", str(solver),
    ])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("infrastructure error: solver executable cannot be run")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unrunnable_solver_stops_corpus_as_infrastructure_error(tmp_path, capsys, corpus_dir,
                                                                jobs):
    # the solver is the setup's fault, not a failure of every case
    solver = tmp_path / "solver"
    solver.write_text("not a program")
    solver.chmod(0o644)
    code = main(["corpus", str(corpus_dir), "--jobs", jobs, "--solver-cmd", str(solver)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("infrastructure error: solver executable cannot be run")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["summarize", "{dir}"],
    ["check", "{fn}", "{dir}"],
    ["impact", "{dir}", "{fn}"],
], ids=["summarize", "check", "impact"])
def test_a_directory_as_source_is_an_infrastructure_error(tmp_path, capsys, corpus_dir, argv):
    fn = corpus_dir / "eqbench_ltfive/original.fn"
    code, out, err = run_cli([arg.format(dir=tmp_path, fn=fn) for arg in argv], capsys)
    assert code == 2
    assert err.startswith("infrastructure error: ") and str(tmp_path) in err
    assert out == ""


@pytest.mark.parametrize("command", ["summarize", "check"])
def test_a_source_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    source = tmp_path / "a.fn"
    source.write_bytes("fn f(x: i8) -> i8 { return x; } // caf\xe9\n".encode("latin-1"))
    code, out, err = run_cli([command, *[str(source)] * (2 if command == "check" else 1)],
                             capsys)
    assert code == 1
    assert err.startswith(f"error: parse/typecheck {source}: ") and "utf-8" in err
    assert out == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_manifest_source_that_is_a_directory_exits_2(tmp_path, capsys, corpus_dir, jobs):
    src = corpus_dir / "cve_2013_0859_doubles_metadata"
    (tmp_path / "patched.fn").write_text((src / "patched.fn").read_text())
    (tmp_path / "original.fn").mkdir()
    (tmp_path / "pair.case").write_text("original = original.fn\npatched = patched.fn\n")
    code, out, err = run_cli(["corpus", str(tmp_path), "--jobs", jobs], capsys)
    assert code == 2
    assert err.startswith("error: ") and "original.fn is missing or not a regular file" in err
    assert out == ""


def test_a_manifest_that_is_not_utf8_exits_2(tmp_path, capsys):
    (tmp_path / "pair.case").write_bytes(b"original = caf\xe9.fn\npatched = b.fn\n")
    code, out, err = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "utf-8" in err
    assert out == ""


@pytest.mark.parametrize("flag, env, message", [
    (["--solver-cmd", 'z3 "-in'], {}, "No closing quotation"),
    ([], {"PATCHEQ_SOLVER_CMD": 'z3 "-in'}, "No closing quotation"),
    (["--solver-cmd", " "], {}, "solver command is empty"),
])
def test_a_bad_solver_command_exits_2(corpus_dir, monkeypatch, capsys, flag, env, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    case = corpus_dir / "eqbench_ltfive"
    code = main(["check", str(case / "original.fn"), str(case / "patched.fn"), *flag])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("configuration error: ") and message in err
    assert out == ""


def test_an_unsplittable_solver_command_in_the_environment_is_a_config_error(monkeypatch):
    monkeypatch.setenv("PATCHEQ_SOLVER_CMD", 'z3 "-in')
    with pytest.raises(SolverConfigError, match="No closing quotation"):
        SolverConfig()


@pytest.mark.parametrize("flag, env", [(["--depth-limit=-1"], None), ([], "-1")])
def test_negative_depth_limit_exits_2(corpus_dir, monkeypatch, capsys, flag, env):
    if env is not None:
        monkeypatch.setenv("PATCHEQ_DEPTH_LIMIT", env)
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["impact", str(corpus_dir / "eqbench_ltfive/original.fn"),
                 str(corpus_dir / "eqbench_ltfive/patched.fn"), *flag], capsys)
    assert exit_info.value.code == 2
    assert "depth limit -1 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("flag, env, message", [
    (["--percent-places", "-1"], {}, "percent places -1 is negative"),
    ([], {"PATCHEQ_PERCENT_PLACES": "-1"}, "percent places -1 is negative"),
    ([], {"PATCHEQ_BUDGET_MS": "2s"}, "invalid int value: '2s'"),
    ([], {"PATCHEQ_JOBS": "many"}, "invalid int value: 'many'"),
    (["--jobs", "0"], {}, "jobs 0 is below 1"),
    (["--jobs", "-4"], {}, "jobs -4 is below 1"),
    ([], {"PATCHEQ_JOBS": "0"}, "jobs 0 is below 1"),
])
def test_bad_numeric_option_exits_2(corpus_dir, monkeypatch, capsys, flag, env, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    case = corpus_dir / "cve_2012_2384_cliprects"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["impact", str(case / "original.fn"), str(case / "patched.fn"), *flag], capsys)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


LIVE_LOOP = "fn f(x: i8) -> i8 { while (x > 0) { x = x - 1; } return x; }"


@pytest.mark.parametrize("command, patched, flags, stage", [
    ("check", "fn f(y: i8) -> i8 { return y; }", [], "signature"),
    ("check", LIVE_LOOP, ["--unroll-limit", "2"], "summarize"),
    ("summarize", None, ["--unroll-limit", "2"], "summarize"),
])
def test_analysis_failures_exit_1_with_their_stage(tmp_path, capsys, command, patched,
                                                    flags, stage):
    original = "fn f(x: i8) -> i8 { return x; }" if patched else LIVE_LOOP
    (tmp_path / "a.fn").write_text(original)
    (tmp_path / "b.fn").write_text(patched or original)
    files = [str(tmp_path / "a.fn")] + ([str(tmp_path / "b.fn")] if patched else [])
    code, out, err = run_cli([command, *files, *flags], capsys)
    assert code == 1
    assert err.startswith(f"error: {stage}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["impact", "check"])
def test_the_budget_stops_a_long_summary(tmp_path, command):
    # 20 guards that no box reads make 2**20 paths; unbudgeted, 17 of them ran past 20 s
    guards = "".join(f"    if (x * y > {1000 * i}) {{ acc = acc + {i + 1}; }}\n" for i in range(20))
    source = tmp_path / "opaque.fn"
    source.write_text(f"fn f(x: i32, y: i32) -> i32 {{\n    let acc: i32 = 0;\n{guards}"
                      "    return acc;\n}\n")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "patcheq.cli", command, str(source), str(source),
         "--budget-ms", "2000", "--query-timeout-ms", "1000", "--solver-cmd", SOLVER],
        capture_output=True, text=True, timeout=30,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert time.monotonic() - start < 4.0
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: summarize: budget ran out")


def test_the_budget_and_query_timeout_bound_sending_summaries(tmp_path):
    # 13 opaque guards summarize within the budget to 8,192 paths a version, whose
    # SMT-LIB takes the solver longer than a query timeout to read; the parent took 9 s
    guards = "".join(f"    if (x * y > {1000 * i}) {{ acc = acc + {i + 1}; }}\n" for i in range(13))
    source = tmp_path / "opaque.fn"
    source.write_text(f"fn f(x: i32, y: i32) -> i32 {{\n    let acc: i32 = 0;\n{guards}"
                      "    return acc;\n}\n")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "patcheq.cli", "impact", str(source), str(source),
         "--budget-ms", "2000", "--query-timeout-ms", "1000", "--solver-cmd", SOLVER],
        capture_output=True, text=True, timeout=30,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert time.monotonic() - start < 5.0
    assert proc.returncode == 1
    assert "verdict:     unknown" in proc.stdout.splitlines()


@pytest.mark.parametrize("command", ["check", "impact"])
def test_a_long_straight_line_function_is_analyzed(tmp_path, command):
    # each statement nests the returned term once more: 900 levels, past the depth at
    # which hashing, serializing and the bundled solver's reading once recursed too deep
    body = "".join(f"    x = x + {i % 7 + 1};\n" for i in range(900))
    (tmp_path / "a.fn").write_text(f"fn f(x: i32) -> i32 {{\n{body}    return x;\n}}\n")
    (tmp_path / "b.fn").write_text(
        f"fn f(x: i32) -> i32 {{\n    if (x == 5) {{ return 0; }}\n{body}    return x;\n}}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "patcheq.cli", command, str(tmp_path / "a.fn"),
         str(tmp_path / "b.fn"), "--format", "json", "--solver-cmd", SOLVER],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] == "partially_equivalent"
    assert report["witness"] == {"x": 5}


def test_a_5000_statement_function_is_checked(tmp_path):
    # summarizing once recursed per statement, and hashing and reading the guard's term
    # once per nesting level, so the client stopped near 1,000 statements
    body = "".join(f"    x = x + ({i % 7 + 1});\n" for i in range(5000))
    (tmp_path / "a.fn").write_text(f"fn f(x: i32) -> i32 {{\n{body}    return x;\n}}\n")
    (tmp_path / "b.fn").write_text(
        f"fn f(x: i32) -> i32 {{\n{body}    if (x == 5) {{ return 0; }}\n    return x;\n}}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "patcheq.cli", "check", str(tmp_path / "a.fn"),
         str(tmp_path / "b.fn"), "--format", "json", "--solver-cmd", SOLVER],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] == "partially_equivalent"
    x = report["witness"]["x"]
    assert (eval_concrete(fn_file(tmp_path / "a.fn"), [x])
            != eval_concrete(fn_file(tmp_path / "b.fn"), [x]))


def test_a_1200_statement_pair_is_enumerated_exactly(tmp_path):
    # enumeration finds the path each model takes, which once walked the 1,200-level
    # return term by recursion
    body = "".join(f"    x = x + {i % 7 + 1};\n" for i in range(1200))
    (tmp_path / "a.fn").write_text(f"fn f(x: i32) -> i32 {{\n{body}    return x;\n}}\n")
    (tmp_path / "b.fn").write_text(
        f"fn f(x: i32) -> i32 {{\n{body}    if (x == 5) {{ return 0; }}\n    return x;\n}}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "patcheq.cli", "impact", str(tmp_path / "a.fn"),
         str(tmp_path / "b.fn"), "--algorithm", "enumerate", "--format", "json",
         "--solver-cmd", SOLVER],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["exact"] is True and report["case"] == "case1"
    assert report["eq_lower_bound"] == str(2**32 - 1) and report["neq_model_count"] == 1


@pytest.mark.parametrize("command", ["summarize", "check"])
def test_unroll_limit_below_one_exits_2(corpus_dir, capsys, command):
    files = [str(corpus_dir / "eqbench_ltfive/original.fn")] * (1 if command == "summarize" else 2)
    with pytest.raises(SystemExit) as exit_info:
        run_cli([command, *files, "--unroll-limit", "0"], capsys)
    assert exit_info.value.code == 2
    assert "unroll limit 0 is below 1" in capsys.readouterr().err


def test_env_vars_mirror_flags(corpus_dir, monkeypatch, capsys):
    monkeypatch.setenv("PATCHEQ_ALGORITHM", "enumerate")
    monkeypatch.setenv("PATCHEQ_FORMAT", "json")
    monkeypatch.setenv("PATCHEQ_SOLVER_CMD", SOLVER)
    code = main([
        "impact",
        str(corpus_dir / "cve_2013_0859_doubles_metadata/original.fn"),
        str(corpus_dir / "cve_2013_0859_doubles_metadata/patched.fn"),
    ])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["algorithm"] == "enumerate"
    assert data["case"] == "case2"


def test_common_flags_before_the_subcommand_exit_2(corpus_dir, capsys):
    # only the subcommands read them, so the error names the misplaced flag
    case = corpus_dir / "eqbench_ltfive"
    with pytest.raises(SystemExit) as exit_info:
        main(["--format", "json", "check", str(case / "original.fn"), str(case / "patched.fn")])
    assert exit_info.value.code == 2
    assert ("patcheq: error: --format must come after the subcommand"
            in capsys.readouterr().err)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "patcheq.cli", "--help"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0
    assert "summarize" in proc.stdout and "corpus" in proc.stdout


def test_text_impact_shows_diverging_count(capsys, corpus_dir):
    case = corpus_dir / "cve_2010_4165_tcp_window"
    code, out, _ = run_cli(
        ["impact", str(case / "original.fn"), str(case / "patched.fn"),
         "--algorithm", "enumerate"],
        capsys,
    )
    assert code == 0
    # 56 of 2^32 rounds to 0.00%; the count says the patch does change something
    assert "impact:      = 0.00% (56 of 4294967296 inputs)" in out.splitlines()
    # the inputs each side counted, not the points it lists
    assert "enum case:   case2 (eq inputs 4294967240, neq inputs 56)" in out.splitlines()
