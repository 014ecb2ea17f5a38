"""Child-process client for an SMT-LIB2 bit-vector solver.

The solver is an external executable configured by command line (default:
``z3 -in`` when present on PATH, otherwise the bundled ``patcheq.smtbv``
interpreter, started as ``python -S -c BOOT``: no ``site``, and no compiling,
as each session first writes it ``bundled_preamble()``).  Commands used:
set-logic, set-option, declare-const, define-fun, assert, check-sat,
get-value, push, pop, exit.  An external solver must accept zero-arity
Boolean define-fun, which is standard SMT-LIB 2.6 (z3 does).  A query that
outlives its timeout, like a command the solver has not finished reading
within one, gets the session killed and reports unknown; unknown is never
conflated with sat or unsat.  A session whose solver died stays dead: later
commands are dropped, every check answers unknown and no model is read.
"""

from __future__ import annotations

import functools
import marshal
import os
import select
import shlex
import shutil
import signal
import subprocess
import sys
import time
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

from . import bvarith
from .formula import BvVar, FNot, Formula, serialize_formula
from .smtbv.sexpr import SexprError, balanced, parse_all

GRACE_MS = 2000

ENV_SOLVER_CMD = "PATCHEQ_SOLVER_CMD"


class SolverConfigError(Exception):
    """The solver executable is missing or the configuration is invalid."""


# Serves bundled_preamble()'s modules ahead of every other finder, then SMT-LIB.
BOOT = """\
import marshal, sys
modules = marshal.loads(sys.stdin.buffer.read(int(sys.stdin.buffer.readline())))
class Handed:
    def find_spec(name, *_):
        if name in modules:
            return type(sys.__spec__)(name, Handed, is_package=modules[name][0])
    def create_module(spec):
        return None
    def exec_module(module):
        exec(modules[module.__name__][1], module.__dict__)
sys.meta_path.insert(0, Handed)
from patcheq.smtbv.protocol import run_stdio
sys.exit(run_stdio())
"""


def bundled_solver_command() -> tuple[str, ...]:
    return (sys.executable, "-S", "-c", BOOT)


@functools.cache
def bundled_preamble() -> bytes:
    """What ``BOOT`` reads first: the bundled solver's modules, compiled once per process."""
    pkg = Path(__file__).resolve().parent
    modules = {}
    for path in [pkg / "__init__.py", pkg / "bvarith.py", *pkg.glob("smtbv/*.py")]:
        name = ".".join(("patcheq", *path.relative_to(pkg).with_suffix("").parts))
        code = compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
        modules[name.removesuffix(".__init__")] = (path.stem == "__init__", code)
    data = marshal.dumps(modules)
    return b"%d\n" % len(data) + data


def default_solver_command() -> tuple[str, ...]:
    env_cmd = os.environ.get(ENV_SOLVER_CMD)
    if env_cmd:
        return tuple(shlex.split(env_cmd))
    if shutil.which("z3"):
        return ("z3", "-in")
    return bundled_solver_command()


@dataclass(frozen=True)
class SolverConfig:
    solver_cmd: tuple[str, ...] = field(default_factory=default_solver_command)
    query_timeout_ms: int = 10_000
    budget_ms: int = 120_000

    def __post_init__(self):
        if self.query_timeout_ms <= 0:
            raise SolverConfigError("query timeout must be positive")
        if self.budget_ms < self.query_timeout_ms:
            raise SolverConfigError("budget must be at least one query timeout")


class Budget:
    """Wall-clock budget for one analysis; expiry is an analysis-level outcome."""

    def __init__(self, budget_ms: int):
        self.deadline = time.monotonic() + budget_ms / 1000.0

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


class SolverSession:
    """One solver process; owned by exactly one analysis at a time."""

    def __init__(self, cfg: SolverConfig, decls: tuple[BvVar, ...] = ()):
        self.cfg = cfg
        self.dead = False
        env = os.environ.copy()
        if cfg.solver_cmd[:1] == (sys.executable,):
            # make the bundled solver importable when running from a checkout
            pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            parts = [pkg_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
            env["PYTHONPATH"] = os.pathsep.join(parts)
        try:
            self.proc = subprocess.Popen(
                list(cfg.solver_cmd),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
            )
        except OSError as err:  # missing, not executable, a directory, ...
            reason = "not found" if isinstance(err, FileNotFoundError) else f"cannot be run ({err.strerror})"
            raise SolverConfigError(f"solver executable {reason}: {cfg.solver_cmd[0]}") from err
        os.set_blocking(self.proc.stdin.fileno(), False)  # _write keeps its own deadline
        self._buffer = b""
        if cfg.solver_cmd == bundled_solver_command():
            self._write(bundled_preamble())
        self._send("(set-logic QF_BV)")
        self._send(f"(set-option :timeout {cfg.query_timeout_ms})")
        for var in decls:
            self._send(f"(declare-const {var.name} (_ BitVec {var.sort.width}))")

    # --- plumbing ---

    def _send(self, text: str):
        """Write one command; a broken pipe leaves the session dead."""
        self._write(text.encode() + b"\n")

    def _write(self, data: bytes):
        """Write ``data`` within a query timeout, or leave the session dead."""
        if self.dead:
            return
        deadline = time.monotonic() + self.cfg.query_timeout_ms / 1000.0
        fd = self.proc.stdin.fileno()
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:  # the pipe is full while the solver reads
                timeout = deadline - time.monotonic()
                if timeout <= 0 or not select.select([], [fd], [], timeout)[1]:
                    break
            except OSError:
                break
        else:
            return
        self._teardown()

    def _reply(self):
        """The next reply, parsed; None, and a dead session, on timeout, EOF or garbage.

        A reply may span lines (z3 prints a get-value of two or more names one
        pair per line), so lines are buffered until the text is balanced.
        """
        deadline = time.monotonic() + (self.cfg.query_timeout_ms + GRACE_MS) / 1000.0
        fd = self.proc.stdout.fileno()
        end = 0
        while not self.dead:
            nl = self._buffer.find(b"\n", end)
            if nl < 0:
                timeout = deadline - time.monotonic()
                if timeout <= 0 or not select.select([fd], [], [], timeout)[0]:
                    break
                chunk = os.read(fd, 65536)
                if not chunk:
                    break  # EOF
                self._buffer += chunk
                continue
            end = nl + 1
            text = self._buffer[:end].decode(errors="replace")
            if balanced(text):
                try:
                    parsed = parse_all(text)
                except SexprError:
                    break
                if parsed:
                    self._buffer = self._buffer[end:]
                    return parsed[0]
        self._teardown()
        return None

    def _teardown(self):
        """Kill the child at most once, never reaping it (``Popen.kill()`` may, in ``poll()``)."""
        if not self.dead and self.proc.returncode is None:
            with suppress(OSError):
                os.kill(self.proc.pid, signal.SIGKILL)
        self.dead = True

    def close(self):
        if not self.dead:
            self._send("(exit)")
            self._teardown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # --- protocol operations ---

    def define(self, name: str, f: Formula):
        """Bind ``name`` to a Boolean formula; ``FName(name)`` then refers to it."""
        self._send(f"(define-fun {name} () Bool {serialize_formula(f)})")

    def assert_formula(self, f: Formula):
        self._send(f"(assert {serialize_formula(f)})")

    def push(self):
        self._send("(push 1)")

    def pop(self):
        self._send("(pop 1)")

    def check_sat(self) -> str:
        """Returns sat/unsat/unknown; timeout or protocol failure is unknown."""
        self._send("(check-sat)")
        reply = self._reply()
        if reply in ("sat", "unsat", "unknown"):
            return reply
        self._teardown()
        return "unknown"

    def get_values(self, variables: list[BvVar]) -> dict[str, int] | None:
        """Model values for exactly the requested variables, sort-interpreted."""
        names = " ".join(v.name for v in variables)
        self._send(f"(get-value ({names}))")
        reply = self._reply()
        by_name = {v.name: v for v in variables}
        out: dict[str, int] = {}
        try:
            for name, value in reply:
                var = by_name[name]
                raw = _parse_bv_value(value)
                if var.sort.signed:
                    out[name] = bvarith.to_signed(raw, var.sort.width)
                else:
                    out[name] = raw
        except (ValueError, KeyError, TypeError):
            self._teardown()
            return None
        if set(out) != set(by_name):
            self._teardown()
            return None
        return out

    def block(self, region: Formula):
        """Exclude every input where ``region`` holds from all later checks in this session."""
        self.assert_formula(FNot(region))


def _parse_bv_value(value) -> int:
    if isinstance(value, str):
        if value.startswith("#x"):
            return int(value[2:], 16)
        if value.startswith("#b"):
            return int(value[2:], 2)
        return int(value)
    if isinstance(value, list) and len(value) == 3 and value[0] == "_" and value[1].startswith("bv"):
        return int(value[1][2:])
    raise ValueError(f"unparsable bit-vector value {value!r}")

