#!/usr/bin/env python3
"""patcheq benchmark: three workloads through the public pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One client in a closed loop: analyses run one after another in this process,
and at most one solver child computes at a time.  The solver is pinned to
the bundled ``patcheq.smtbv`` (never ``z3``), with the test suite's 20 s
query timeout and 300 s budget so that no count depends on speed.

A run sets up, computes the independent answers (outside any timed region),
warms up with one untimed analysis, then analyses the workload's fixed pool
in whole passes, each in an order drawn from ``--seed``.  The number of
passes is fixed by ``--seconds`` and the workload's nominal pass time on a
2-core x86 VM, so every run of one workload does the same work.  After the
timed loop every result is checked.  With ``--trace 0`` the last line
carries the end-to-end metrics; with ``--trace 1`` each item is analysed
untraced and then traced, and the last line carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

QUERY_TIMEOUT_MS = 20_000
BUDGET_MS = 300_000
SETUP_REPEATS = 7
# Seconds one pass of each pool takes on a 2-core x86 VM; sets the passes.
NOMINAL_PASS_S = {"corpus": 10.3, "random8": 17.6, "paths16": 7.4}
# Stop starting passes once a run has taken this long, whatever --seconds says.
HARD_STOP_S = 120.0
LEAK_GRACE_S = 5.0

# Per-layer metrics of the traced run; times and counts are per analysis.
LAYER_UNITS = {
    "trace.pair_ms": "ms", "trace.overhead_frac": "ratio",
    "minilang.load_ms": "ms", "report.self_ms": "ms",
    "summarizer.ms": "ms", "summarizer.paths": "count", "summarizer.smt_bytes": "B",
    "classifier.ms": "ms", "classifier.queries": "count",
    "rangesearch.ms": "ms", "rangesearch.queries": "count",
    "rangesearch.query_ms_p50": "ms", "rangesearch.unsat_frac": "ratio",
    "enumcount.ms": "ms", "enumcount.models": "count",
    "enumcount.query_ms_p50": "ms", "enumcount.query_ms_growth": "ratio",
    "oracle.sessions": "count", "oracle.first_reply_ms": "ms", "oracle.startup_share": "ratio",
    "oracle.queries": "count", "oracle.wait_ms": "ms", "oracle.unknown": "count",
    "oracle.dead_sessions": "count", "oracle.bytes_sent": "B",
    "smtbv.startup_ms": "ms", "smtbv.idle_ms": "ms", "smtbv.parse_ms": "ms",
    "smtbv.check_sat_ms": "ms", "smtbv.simplify_ms": "ms", "smtbv.blast_ms": "ms",
    "smtbv.cdcl_ms": "ms", "smtbv.probe_ms": "ms", "smtbv.cdcl_frac": "ratio",
    "smtbv.max_clauses": "count", "smtbv.max_vars": "count",
}


def bootstrap():
    """Import patcheq from this checkout's src/, or exit without a result."""
    if not (SRC / "patcheq" / "__init__.py").is_file():
        print(f"perfbench: no patcheq sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import patcheq

    if Path(patcheq.__file__).resolve().parent != SRC / "patcheq":
        print(f"perfbench: imported patcheq from {patcheq.__file__}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-answer", action="store_true",
                    help="perturb every expected answer, to show that checks fail")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class ChildLedger:
    """Reaps every solver child, so its CPU time and peak memory are counted.

    ``SolverSession`` kills its child without waiting for it.  The ledger
    keeps each child's ``Popen`` alive (so ``subprocess`` does not reap it
    behind our back) and waits for it with ``wait4`` after each analysis.
    A child's ``ru_maxrss`` also counts the parent's memory it was forked
    from, so its own peak (VmHWM) is read just before the session closes it.
    """

    def __init__(self):
        from patcheq import oracle

        self.cls = oracle.SolverSession
        self.procs: list[subprocess.Popen] = []
        self.peak_kb: dict[int, int] = {}
        self._init, self._close = self.cls.__init__, self.cls.close

    def install(self):
        init, close, procs, peak_kb = self._init, self._close, self.procs, self.peak_kb

        def ledger_init(session, *args, **kwargs):
            try:
                init(session, *args, **kwargs)
            finally:
                if getattr(session, "proc", None) is not None:
                    procs.append(session.proc)

        def ledger_close(session):
            if not session.dead:
                peak_kb[session.proc.pid] = _vm_hwm_kb(session.proc.pid)
            return close(session)

        self.cls.__init__ = ledger_init
        self.cls.close = ledger_close

    def uninstall(self):
        self.cls.__init__, self.cls.close = self._init, self._close

    def reap(self) -> tuple[float, float, int]:
        """(child CPU seconds, largest child peak RSS in MB, children left running)."""
        cpu = 0.0
        peak_kb = leaked = 0
        for proc in self.procs:
            deadline = time.monotonic() + LEAK_GRACE_S
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    leaked += 1
                    proc.kill()
                    deadline = float("inf")
                time.sleep(0.0005)
            proc.returncode = os.waitstatus_to_exitcode(status)
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()
            cpu += usage.ru_utime + usage.ru_stime
            peak_kb = max(peak_kb, self.peak_kb.pop(proc.pid, 0))
        self.procs.clear()
        return cpu, peak_kb / 1024.0, leaked


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident memory of a live process, from /proc/<pid>/status."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class Sample:
    item: object
    outcome: object
    wall_ms: float
    verdict_ms: float
    cpu_ms: float
    child_rss_mb: float
    error: str | None
    failures: list[str]


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import patcheq and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only",
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", "0"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def analyse(workload, item, cfg, ledger: ChildLedger, tracer=None) -> Sample:
    """One analysis, timed; with a tracer, inside its ``analysis`` span."""
    outcome, error = None, None
    if tracer is not None:
        tracer.install()
        span = tracer.begin("analysis")
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        outcome = workload.analyze(item, cfg)
    except Exception:
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    end = time.perf_counter()
    if tracer is not None:
        tracer.end(span)
        tracer.uninstall()
    cpu = time.process_time() - cpu0
    child_cpu, child_rss, leaked = ledger.reap()
    failures = [f"error: {error}"] if error else []
    if leaked:
        failures.append(f"{leaked} solver child(ren) still running after the analysis")
    verdict_ms = (outcome.verdict_at - start) * 1000.0 if outcome else (end - start) * 1000.0
    return Sample(item, outcome, (end - start) * 1000.0, verdict_ms,
                  (cpu + child_cpu) * 1000.0, child_rss, error, failures)


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer no
    percentile qualifies and the maximum is reported as the 100th.  The
    value is the Harrell-Davis estimate of that percentile.  The single
    order statistic there falls between pairs of very different cost, and
    which one it picks changes from run to run: over four random8 runs on a
    2-core x86 VM its spread was 0.20, the estimate's 0.08.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    p = (n - 10) / n
    return harrell_davis(ordered, p), 100.0 * p, n


def harrell_davis(ordered: list[float], p: float, substeps: int = 64) -> float:
    """Mean of the order statistics weighted by Beta(p(n+1), (1-p)(n+1)).

    Order statistic i gets the Beta mass on ((i-1)/n, i/n], integrated by
    the trapezoid rule; both shape parameters exceed 1 here, so the density
    is finite on [0, 1].
    """
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    h = 1.0 / (n * substeps)
    grid = [j * h for j in range(1, n * substeps)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in grid]
    top = max(logs)
    density = [0.0] + [math.exp(v - top) for v in logs] + [0.0]
    weights = [sum(density[i * substeps:(i + 1) * substeps + 1])
               - (density[i * substeps] + density[(i + 1) * substeps]) / 2
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def check_samples(workload, samples: list[Sample], seed: int):
    from patcheq.classifier import Verdict

    rng = random.Random(seed ^ 0x5EED)
    for s in samples:
        if s.error is not None:
            continue
        if s.outcome.verdict is Verdict.UNKNOWN:
            s.failures.append("classifier verdict UNKNOWN")
            continue
        s.failures += workload.check(s.item, s.outcome, rng)


def end_to_end(samples: list[Sample], loop_s: float, setup_s: float, peak_rss_mb: float):
    walls = [s.wall_ms for s in samples]
    tail_ms, tail_pct, n = tail(walls)
    done = [s for s in samples if s.outcome is not None]
    known = [s for s in done if s.item.truth is not None and s.outcome.eq_bound is not None]
    true_total = sum(s.item.truth.eq_count for s in known)
    failed = sum(1 for s in samples if s.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pairs_per_s": (len(samples) / loop_s, "1/s"),
        "pair_ms_p50": (statistics.median(walls), "ms"),
        "pair_ms_tail": (tail_ms, "ms"),
        "verdict_ms_p50": (statistics.median(s.verdict_ms for s in samples), "ms"),
        "cpu_ms_per_pair": (statistics.fmean(s.cpu_ms for s in samples), "ms"),
        "solver_calls_per_pair": (statistics.fmean(s.outcome.solver_calls for s in done)
                                  if done else 0.0, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "solver_peak_rss_mb": (max(s.child_rss_mb for s in samples), "MB"),
        "ok_frac": (1.0 - failed / len(samples), "ratio"),
        "complete_frac": (1.0 - sum(1 for s in done if s.outcome.incomplete) / len(samples),
                          "ratio"),
        "bound_tightness": (sum(s.outcome.eq_bound for s in known) / true_total
                            if true_total else 1.0, "ratio"),
    }
    notes = [f"pair_ms_tail is p{tail_pct:.1f} of {n} analyses",
             f"failed_frac {failed / len(samples):.4f}",
             f"incomplete_frac {1.0 - metrics['complete_frac'][0]:.4f}"]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    sys.path.insert(0, str(HERE))
    import workloads
    from patcheq.oracle import SolverConfig, bundled_solver_command

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    ledger = None
    try:
        workload_cls = workloads.WORKLOADS[args.workload]
        if args.setup_only:
            workload_cls(ROOT, workdir)
            return 0
        setup_s = measure_setup(args)
        workload = workload_cls(ROOT, workdir)
        items = workload.items
        workload.truth(items)
        if args.wrong_answer:
            workloads.perturb_answers(items)
        cfg = SolverConfig(bundled_solver_command(), QUERY_TIMEOUT_MS, BUDGET_MS)
        ledger = ChildLedger()
        ledger.install()
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        # one untimed analysis first, so lazy imports and caches are warm
        analyse(workload, items[-1], cfg, ledger)
        if args.trace:
            return run_traced(args, workload, items, cfg, ledger, workdir, max(1, passes // 2))
        order_rng = random.Random(args.seed)
        samples: list[Sample] = []
        start = time.perf_counter()
        for _ in range(passes):
            order = list(items)
            order_rng.shuffle(order)
            samples += [analyse(workload, item, cfg, ledger) for item in order]
            if time.perf_counter() - start > HARD_STOP_S:
                break
        loop_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_samples(workload, samples, args.seed)
        metrics, notes = end_to_end(samples, loop_s, setup_s, peak_rss_mb)
        notes.insert(0, f"{args.workload} seed {args.seed}: {len(items)} items, "
                        f"{len(samples) // max(1, len(items))} passes, {loop_s:.1f} s timed")
        return emit(samples, metrics, notes)
    finally:
        if ledger is not None:
            ledger.reap()
            ledger.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def run_traced(args, workload, items, cfg, ledger, workdir: Path, passes: int) -> int:
    import spans
    from patcheq.oracle import SolverConfig

    trace_dir = workdir / "solver"
    trace_dir.mkdir()
    traced_cfg = SolverConfig((sys.executable, str(HERE / "solver_entry.py")),
                              cfg.query_timeout_ms, cfg.budget_ms)
    tracer = spans.Tracer(trace_dir)
    order_rng = random.Random(args.seed)
    samples: list[Sample] = []
    untraced_ms = 0.0
    for _ in range(passes):
        order = list(items)
        order_rng.shuffle(order)
        for item in order:
            plain = analyse(workload, item, cfg, ledger)
            traced = analyse(workload, item, traced_cfg, ledger, tracer)
            untraced_ms += plain.wall_ms
            samples += [plain, traced]
    check_samples(workload, samples, args.seed)
    layer = tracer.layer_metrics(untraced_ms)
    tracer.dump(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = {name: (value, LAYER_UNITS[name]) for name, value in layer.items()}
    notes = [f"{args.workload} seed {args.seed} traced: {len(items)} items, {passes} passes, "
             f"{len(samples)} analyses (half traced)"]
    return emit(samples, metrics, notes)


def emit(samples: list[Sample], metrics: dict, notes: list[str]) -> int:
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.4f} {unit}")
    reported = set()
    for s in samples:
        if s.failures and s.item.name not in reported:
            reported.add(s.item.name)
            print(f"FAILED {s.item.name}: {'; '.join(s.failures)}\n  input: {s.item.description}")
    failed = sum(1 for s in samples if s.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
