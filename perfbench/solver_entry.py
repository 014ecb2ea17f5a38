"""Bundled solver entry point that records where each session spends its time.

Runs the same ``patcheq.smtbv`` protocol loop as ``python -m patcheq.smtbv``
and times its public pieces from outside: reading stdin (idle), S-expression
parsing, command handling, check-sat, simplification, bit-blasting (outermost
``Blaster.blast`` only, since it recurses) and CDCL.  The record is rewritten
after every check-sat and get-value, because the client kills the process
right after ``(exit)`` and anything written at exit would be lost.

Environment: PERFBENCH_TRACE_DIR (where records go), PERFBENCH_SESSION (the
record's name) and PERFBENCH_SPAWN (wall-clock time the client spawned us).
"""

import os
import sys
import time

SPAWN_WALL = float(os.environ.get("PERFBENCH_SPAWN", time.time()))

import json  # noqa: E402

from patcheq.smtbv import protocol  # noqa: E402
from patcheq.smtbv.bitblast import Blaster  # noqa: E402
from patcheq.smtbv.engine import SmtEngine  # noqa: E402
from patcheq.smtbv.sat import Solver  # noqa: E402
from patcheq.smtbv.terms import Simplifier  # noqa: E402

clock = time.perf_counter


class Record:
    def __init__(self, path: str):
        self.path = path
        self.stats = dict.fromkeys(
            ("startup_ms", "idle_ms", "sexpr_ms", "handle_ms", "check_sat_ms", "simplify_ms",
             "blast_ms", "cdcl_ms"), 0.0)
        self.stats.update(dict.fromkeys(
            ("check_sats", "cdcl_checks", "bytes_in", "max_clauses", "max_vars"), 0))
        self.reached_cdcl = False

    def add(self, key: str, seconds: float):
        self.stats[key] += seconds * 1000.0

    def write(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.stats, fh)
        os.replace(tmp, self.path)


def timed(cls, attr: str, key: str, record: Record, outermost: bool = False, before=None):
    original = getattr(cls, attr)
    depth = [0]

    def wrapper(*args, **kwargs):
        if outermost and depth[0]:
            return original(*args, **kwargs)
        if before is not None:
            before()
        depth[0] += 1
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            record.add(key, clock() - start)
            depth[0] -= 1

    setattr(cls, attr, wrapper)


class TimedStdin:
    """stdin whose blocking reads count as idle time."""

    def __init__(self, stream, record: Record):
        self.stream = stream
        self.record = record

    def readline(self):
        start = clock()
        line = self.stream.readline()
        self.record.add("idle_ms", clock() - start)
        self.record.stats["bytes_in"] += len(line)
        return line


def main() -> int:
    trace_dir = os.environ["PERFBENCH_TRACE_DIR"]
    record = Record(os.path.join(trace_dir, os.environ["PERFBENCH_SESSION"] + ".json"))

    def start_check():
        record.stats["check_sats"] += 1
        record.reached_cdcl = False

    def reached_cdcl():
        if not record.reached_cdcl:
            record.reached_cdcl = True
            record.stats["cdcl_checks"] += 1

    timed(SmtEngine, "check_sat", "check_sat_ms", record, before=start_check)
    timed(Simplifier, "run", "simplify_ms", record, outermost=True)
    timed(Blaster, "blast", "blast_ms", record, outermost=True)
    timed(Solver, "solve", "cdcl_ms", record, before=reached_cdcl)
    timed(protocol, "parse_all", "sexpr_ms", record)

    handle = protocol.SmtSession.handle

    def traced_handle(session, cmd):
        start = clock()
        try:
            return handle(session, cmd)
        finally:
            record.add("handle_ms", clock() - start)
            if isinstance(cmd, list) and cmd and cmd[0] in ("check-sat", "get-value"):
                solver = session.engine.solver
                stats = record.stats
                stats["max_clauses"] = max(stats["max_clauses"], solver.n_clauses)
                stats["max_vars"] = max(stats["max_vars"], solver.nvars)
                record.write()

    protocol.SmtSession.handle = traced_handle
    record.stats["startup_ms"] = (time.time() - SPAWN_WALL) * 1000.0
    return protocol.run_stdio(stdin=TimedStdin(sys.stdin, record))


if __name__ == "__main__":
    sys.exit(main())
