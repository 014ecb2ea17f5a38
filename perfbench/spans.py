"""Client-side tracing for the traced run, and the per-layer metrics.

Spans are recorded around calls into each module's public functions, from
outside the program: wrappers are patched in where the caller looks the name
up (``report`` imports ``summarize`` and ``eq_check`` by name), and removed
again after each traced analysis.  Spans stay in memory; the solver side is
read from the records ``solver_entry.py`` writes, one per session.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path

from patcheq import classifier, enumcount, oracle, report, summarizer
from patcheq.formula import serialize_formula
from patcheq.rangesearch import RangeSearch

clock = time.perf_counter

# Spans that are a layer of the pipeline; a query belongs to the nearest one.
LAYERS = ("minilang.load", "summarizer", "classifier", "rangesearch", "enumcount")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Session:
    __slots__ = ("sid", "start", "first_reply_ms", "dead_before_close")

    def __init__(self, sid: str, start: float):
        self.sid = sid
        self.start = start
        self.first_reply_ms: float | None = None
        self.dead_before_close = False


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.sessions: dict[int, Session] = {}
        self.all_sessions: list[Session] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ---

    def begin(self, name: str) -> int:
        self.spans.append(Span(name, clock(), self.stack[-1] if self.stack else None))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int):
        self.spans[index].end = clock()
        self.stack.pop()

    # --- patching ---

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, describe=None, outermost: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            if outermost and any(tracer.spans[i].name == name for i in tracer.stack):
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if describe is not None:
                tracer.spans[index].info = describe(args, result)
            return result

        return wrapper

    def install(self):
        summary_info = self._wrap(
            summarizer.summarize, "summarizer",
            lambda a, s: {"paths": s.path_count, "bytes": len(serialize_formula(s.formula))})
        eq_check = self._wrap(classifier.eq_check, "classifier",
                              lambda a, v: {"queries": v.solver_calls})
        enumerate_models = self._wrap(
            enumcount.enumerate_models, "enumcount",
            lambda a, e: {"models": len(e.eq_inputs) + len(e.neq_inputs)})
        self._patch(report, "load_function", self._wrap(report.load_function, "minilang.load"))
        for module in (report, summarizer):
            self._patch(module, "summarize", summary_info)
        for module in (report, classifier):
            self._patch(module, "eq_check", eq_check)
        for module in (report, enumcount):
            self._patch(module, "enumerate_models", enumerate_models)
        for method in ("run", "relational", "iterative", "iterative_priority"):
            self._patch(RangeSearch, method,
                        self._wrap(getattr(RangeSearch, method), "rangesearch", outermost=True))
        for method in ("check_equiv", "check_conjunction"):
            self._patch(RangeSearch, method, self._wrap(
                getattr(RangeSearch, method), "rangesearch.query", lambda a, v: {"verdict": v}))
        self._install_oracle()

    def _install_oracle(self):
        tracer = self
        cls = oracle.SolverSession
        init, check_sat, get_values, close = cls.__init__, cls.check_sat, cls.get_values, cls.close

        def traced_init(session, *args, **kwargs):
            record = Session(f"s{len(tracer.all_sessions)}-{os.getpid()}", clock())
            tracer.sessions[id(session)] = record
            tracer.all_sessions.append(record)
            os.environ["PERFBENCH_SESSION"] = record.sid
            os.environ["PERFBENCH_SPAWN"] = repr(time.time())
            index = tracer.begin("oracle.spawn")
            try:
                init(session, *args, **kwargs)
            finally:
                tracer.end(index)

        def replied(session):
            record = tracer.sessions.get(id(session))
            if record is not None and record.first_reply_ms is None:
                record.first_reply_ms = (clock() - record.start) * 1000.0
                return True
            return False

        def traced_check_sat(session):
            index = tracer.begin("oracle.check_sat")
            try:
                verdict = check_sat(session)
            finally:
                tracer.end(index)
            tracer.spans[index].info = {"verdict": verdict, "first": replied(session)}
            return verdict

        def traced_get_values(session, variables):
            index = tracer.begin("oracle.get_values")
            try:
                return get_values(session, variables)
            finally:
                tracer.end(index)
                replied(session)

        def traced_close(session):
            record = tracer.sessions.pop(id(session), None)
            if record is not None and session.dead:
                record.dead_before_close = True
            return close(session)

        os.environ["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
        self._patch(cls, "__init__", traced_init)
        self._patch(cls, "check_sat", traced_check_sat)
        self._patch(cls, "get_values", traced_get_values)
        self._patch(cls, "close", traced_close)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for key in ("PERFBENCH_TRACE_DIR", "PERFBENCH_SESSION", "PERFBENCH_SPAWN"):
            os.environ.pop(key, None)

    # --- per-layer metrics ---

    def layer_metrics(self, untraced_ms: float) -> dict[str, float]:
        """Per-analysis layer figures over every ``analysis`` span recorded."""
        spans = self.spans
        analyses = [s for s in spans if s.name == "analysis"]
        n = max(1, len(analyses))
        traced_ms = sum(s.ms for s in analyses)
        by_name: dict[str, list[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def total_ms(name):
            return sum(s.ms for s in by_name.get(name, ()))

        def info_sum(name, key):
            return sum(s.info[key] for s in by_name.get(name, ()) if s.info)

        def layer_of(index):
            parent = spans[index].parent
            while parent is not None and spans[parent].name not in LAYERS:
                parent = spans[parent].parent
            return parent

        # queries issued by an enumeration, in order, without each session's
        # first one (which also waits for the solver to start)
        per_enum: dict[int, list[float]] = {}
        for i, s in enumerate(spans):
            if s.name == "oracle.check_sat" and s.info and not s.info["first"]:
                layer = layer_of(i)
                if layer is not None and spans[layer].name == "enumcount":
                    per_enum.setdefault(layer, []).append(s.ms)
        enum_queries = [ms for qs in per_enum.values() for ms in qs]
        growth = []
        for qs in per_enum.values():
            tenth = len(qs) // 10
            if tenth:
                growth.append(statistics.fmean(qs[-tenth:]) / statistics.fmean(qs[:tenth]))

        range_queries = by_name.get("rangesearch.query", [])
        range_verdicts = Counter(s.info and s.info["verdict"] for s in range_queries)
        check_sats = by_name.get("oracle.check_sat", [])
        sessions = self.all_sessions
        first_replies = [s.first_reply_ms for s in sessions if s.first_reply_ms is not None]
        first_reply_ms = statistics.median(first_replies) if first_replies else 0.0
        child_of_analysis = sum(s.ms for s in spans
                                if s.parent is not None and spans[s.parent].name == "analysis")
        solver = self.solver_records()
        check_sat_ms = solver["check_sat_ms"]
        pair_ms = traced_ms / n

        return {
            "trace.pair_ms": pair_ms,
            "trace.overhead_frac": traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0,
            "minilang.load_ms": total_ms("minilang.load") / n,
            "report.self_ms": (traced_ms - child_of_analysis) / n,
            "summarizer.ms": total_ms("summarizer") / n,
            "summarizer.paths": info_sum("summarizer", "paths") / n,
            "summarizer.smt_bytes": info_sum("summarizer", "bytes") / n,
            "classifier.ms": total_ms("classifier") / n,
            "classifier.queries": info_sum("classifier", "queries") / n,
            "rangesearch.ms": total_ms("rangesearch") / n,
            "rangesearch.queries": len(range_queries) / n,
            "rangesearch.query_ms_p50": _median([s.ms for s in range_queries]),
            "rangesearch.unsat_frac": (range_verdicts["unsat"] / len(range_queries)
                                       if range_queries else 0.0),
            "enumcount.ms": total_ms("enumcount") / n,
            "enumcount.models": info_sum("enumcount", "models") / n,
            "enumcount.query_ms_p50": _median(enum_queries),
            "enumcount.query_ms_growth": _median(growth),
            "oracle.sessions": len(sessions) / n,
            "oracle.first_reply_ms": first_reply_ms,
            "oracle.startup_share": first_reply_ms * len(sessions) / n / pair_ms if pair_ms else 0.0,
            "oracle.queries": len(check_sats) / n,
            "oracle.wait_ms": (total_ms("oracle.check_sat") + total_ms("oracle.get_values")) / n,
            "oracle.unknown": float(sum(1 for s in check_sats
                                        if not s.info or s.info["verdict"] == "unknown")),
            "oracle.dead_sessions": float(sum(1 for s in sessions if s.dead_before_close)),
            "oracle.bytes_sent": solver["bytes_in"] / n,
            "smtbv.startup_ms": _median(solver["startup"]),
            "smtbv.idle_ms": solver["idle_ms"] / n,
            "smtbv.parse_ms": (solver["sexpr_ms"] + solver["handle_ms"] - check_sat_ms) / n,
            "smtbv.check_sat_ms": check_sat_ms / n,
            "smtbv.simplify_ms": solver["simplify_ms"] / n,
            "smtbv.blast_ms": solver["blast_ms"] / n,
            "smtbv.cdcl_ms": solver["cdcl_ms"] / n,
            "smtbv.probe_ms": (check_sat_ms - solver["simplify_ms"] - solver["blast_ms"]
                               - solver["cdcl_ms"]) / n,
            "smtbv.cdcl_frac": (solver["cdcl_checks"] / solver["check_sats"]
                                if solver["check_sats"] else 0.0),
            "smtbv.max_clauses": float(solver["max_clauses"]),
            "smtbv.max_vars": float(solver["max_vars"]),
        }

    def solver_records(self) -> dict:
        """Sum of the solver-side records of every traced session."""
        totals: dict = {"startup": []}
        for path in sorted(self.trace_dir.glob("*.json")):
            stats = json.loads(path.read_text())
            totals["startup"].append(stats.pop("startup_ms"))
            for key, value in stats.items():
                if key.startswith("max_"):
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        for key in ("idle_ms", "sexpr_ms", "handle_ms", "check_sat_ms", "simplify_ms",
                    "blast_ms", "cdcl_ms", "check_sats", "cdcl_checks", "bytes_in",
                    "max_clauses", "max_vars"):
            totals.setdefault(key, 0)
        return totals

    def dump(self, path: Path):
        """Write every span as one JSON line."""
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "info": s.info}) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
