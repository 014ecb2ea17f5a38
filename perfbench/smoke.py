#!/usr/bin/env python3
"""Smoke test of the benchmark itself: python3 perfbench/smoke.py

Runs one pass of each workload's pool and checks that the last line is the
result object with every metric BENCHMARK.json names, each with its unit;
that a full corpus pass makes the baseline's 981 solver calls (109 per
pair); that a deliberately wrong expected answer makes the run report
failures; that a directory holding only the benchmark exits non-zero
without a result; and that no run leaves a process behind.  Takes about
two minutes on a 2-core box.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CORPUS_CALLS = 981
CORPUS_CASES = 9


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    """Run the benchmark in a session of its own; no process of it may outlive it.

    Output goes to a file, not a pipe: a leftover process that holds the
    pipe open would make a reader wait for it, and so hide it.
    """
    with tempfile.TemporaryFile("w+") as out:
        proc = subprocess.Popen([sys.executable, "perfbench/run.py", "--seed", "1",
                                 "--seconds", "1", *args], cwd=cwd, stdout=out,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.wait(timeout=300)
        finally:
            proc.kill()
            proc.wait()
        left = session_members(proc.pid)
        if left:
            raise AssertionError(f"{list(args)}: processes still running after exit: {left}")
        out.seek(0)
        return proc.returncode, out.read().strip().splitlines()


def session_members(sid: int) -> list[str]:
    """Command lines of the live processes in session ``sid``, read from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(cmdline.replace(b"\0", b" ").decode(errors="replace").strip())
    return members


def result(args: list[str]) -> dict:
    code, lines = run(*args)
    if code != 0 or not lines:
        raise AssertionError(f"{args}: exit {code}, output {lines[-5:]}")
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{args}: result keys {sorted(res)}")
    return res


def expect_metrics(res: dict, section: str, args: list[str]):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        wrong = sorted(n for n in want if n in got and got[n] != want[n])
        extra = sorted(set(got) - set(want))
        raise AssertionError(f"{args}: missing {missing}, wrong unit {wrong}, extra {extra}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{args}: {name} is not a number")


def main() -> int:
    checks = []

    def check(label, fn):
        try:
            fn()
            checks.append((label, None))
        except AssertionError as err:
            checks.append((label, str(err)))
        print(f"{'ok  ' if checks[-1][1] is None else 'FAIL'} {label}"
              + (f": {checks[-1][1]}" if checks[-1][1] else ""), flush=True)

    def one_pass(workload: str):
        args = ["--workload", workload, "--trace", "0"]
        res = result(args)
        expect_metrics(res, "end_to_end", args)
        if not res["correct"] or res["failed"]:
            raise AssertionError(f"{args}: {res['failed']} failed analyses")
        return res

    def corpus_calls():
        res = one_pass("corpus")
        calls = res["metrics"]["solver_calls_per_pair"]["value"] * res["attempted"]
        passes = res["attempted"] // CORPUS_CASES
        if calls != CORPUS_CALLS * passes:
            raise AssertionError(f"{calls} solver calls over {passes} passes, "
                                 f"baseline {CORPUS_CALLS} per pass")

    def fresh_paths16():
        # without its cached brute-force answers the run starts its worker pool
        for cached in (ROOT / ".perfbench").glob("paths16-truth-*.json"):
            cached.unlink()
        one_pass("paths16")

    def traced_pass():
        args = ["--workload", "paths16", "--trace", "1"]
        expect_metrics(result(args), "per_layer", args)

    def wrong_answer():
        args = ["--workload", "corpus", "--trace", "0", "--wrong-answer"]
        res = result(args)
        if res["correct"] or not res["failed"] or res["metrics"]["ok_frac"]["value"] >= 1.0:
            raise AssertionError(f"{args}: a wrong expected answer was not reported: {res}")

    def bare_directory():
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            code, lines = run("--workload", "corpus", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        if code == 0 or (lines and lines[-1].startswith("{")):
            raise AssertionError(f"exit {code}, output {lines[-3:]}")

    check("corpus pass: metrics, units, 981 solver calls per pass", corpus_calls)
    check("random8 pass: metrics and units", lambda: one_pass("random8"))
    check("paths16 pass, truth recomputed: metrics and units", fresh_paths16)
    check("traced pass: per-layer metrics and units", traced_pass)
    check("wrong expected answer is reported as a failure", wrong_answer)
    check("benchmark alone exits non-zero without a result", bare_directory)
    failed = [label for label, err in checks if err]
    print(f"{len(checks) - len(failed)}/{len(checks)} smoke checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
