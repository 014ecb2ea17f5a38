"""Command dispatch for the SMT-LIB2 text protocol."""

from __future__ import annotations

import sys

from .. import bvarith
from .engine import SmtEngine, SmtError
from .sexpr import Incomplete, SexprError, parse_all
from .terms import Node


class SmtSession:
    """One solver instance; ``handle`` consumes a parsed command.

    The accepted SMT-LIB is what patcheq sends: Boolean and bit-vector
    constants, declared and defined names, the binary operators of
    ``bvarith.BINARY`` under their ``bv`` names, ``bvneg``, ``not``/``and``/``or``,
    ``=``, ``bvult``/``bvule``/``bvslt``/``bvsle``, ``extract``, ``zero_extend``
    and ``sign_extend``.  Anything else is an error.
    """

    def __init__(self):
        self.engine = SmtEngine()

    # --- term parsing ---

    def parse_term(self, e) -> Node:
        """The node of a term, read off a stack of its own so that nesting has no limit."""
        done: list[Node] = []  # read terms that wait for their operator, in order
        todo = [e]  # terms to read, and (head, operand count) to apply once they are read
        while todo:
            x = todo.pop()
            if isinstance(x, tuple):
                head, count = x
                args = done[len(done) - count:]
                del done[len(done) - count:]
                done.append(self._apply(head, args))
            elif isinstance(x, str) or not x or x[0] == "_":
                done.append(self._atom(x))
            else:
                todo.append((x[0], len(x) - 1))
                todo.extend(reversed(x[1:]))
        return done[0]

    def _atom(self, e) -> Node:
        """A name, a constant, or an error for any other term without operands."""
        t = self.engine.table
        if isinstance(e, str):
            if e == "true":
                return t.TRUE
            if e == "false":
                return t.FALSE
            node = self.engine.lookup(e)
            if node is None:
                raise SmtError(f"unknown constant {e}")
            # a declared constant's node is numbered here, where a term first names it
            return t.var(e, node.width) if node.kind == "var" else node
        if not e:
            raise SmtError("empty term")
        if len(e) == 3 and isinstance(e[1], str) and e[1].startswith("bv"):
            if int(e[2]) < 1:
                raise SmtError("bit-vector width must be positive")
            return t.const(int(e[1][2:]), int(e[2]))
        raise SmtError(f"unsupported indexed term {e!r}")

    def _apply(self, head, args: list[Node]) -> Node:
        """An operator applied to its read operands."""
        t = self.engine.table
        if isinstance(head, list):
            return self._indexed(head, args)
        if head == "=":
            self._expect(head, args, 2, None)
            return t.eq(args[0], args[1])
        if head == "not":
            self._expect(head, args, 1, True)
            return t.bnot(args[0])
        if head in ("and", "or"):
            self._expect(head, args, None, True)
            return t.band(args) if head == "and" else t.bor(args)
        if head == "bvneg":
            self._expect(head, args, 1, False)
            return t.neg(args[0])
        if head in ("bvult", "bvule", "bvslt", "bvsle"):
            self._expect(head, args, 2, False)
            return getattr(t, head[2:])(args[0], args[1])
        op = head[2:] if isinstance(head, str) and head.startswith("bv") else None
        if op in bvarith.BINARY:
            self._expect(head, args, 2, False)
            if op in ("sdiv", "srem", "ashr"):  # desugared into the other ten
                return getattr(t, op)(args[0], args[1])
            return t.bv2(op, args[0], args[1])
        raise SmtError(f"unsupported operator {head!r}")

    def _indexed(self, head: list, args: list[Node]) -> Node:
        t = self.engine.table
        name = head[1] if len(head) > 1 and head[0] == "_" else None
        if name == "extract" and len(head) == 4:
            self._expect(name, args, 1, False)
            hi, lo = int(head[2]), int(head[3])
            if not 0 <= lo <= hi < args[0].width:
                raise SmtError(f"extract bounds {hi} {lo} outside the operand")
            return t.extract(hi, lo, args[0])
        if name in ("zero_extend", "sign_extend") and len(head) == 3:
            self._expect(name, args, 1, False)
            extra = int(head[2])
            if extra < 0:
                raise SmtError(f"{name} by a negative width")
            return (t.zext if name == "zero_extend" else t.sext)(extra, args[0])
        raise SmtError(f"unsupported indexed op {head!r}")

    @staticmethod
    def _expect(head, args: list[Node], count: int | None, boolean: bool | None):
        """Check the argument count (None: at least one) and that all arguments
        share one sort, Boolean or bit-vector as ``boolean`` asks (None: either)."""
        if (len(args) != count) if count is not None else not args:
            raise SmtError(f"{head} expects {count or 'at least one'} argument(s)")
        if len({a.width for a in args}) > 1:
            raise SmtError(f"{head}: operand width mismatch")
        if boolean is not None and (args[0].width == 0) != boolean:
            raise SmtError(f"{head} expects {'Boolean' if boolean else 'bit-vector'} arguments")

    # --- commands ---

    def handle(self, cmd) -> str | None:
        if not isinstance(cmd, list) or not cmd:
            raise SmtError(f"bad command {cmd!r}")
        head = cmd[0]
        if head == "set-logic":
            return None
        if head == "set-option":
            if len(cmd) >= 3 and cmd[1] == ":timeout":
                self.engine.timeout_ms = int(cmd[2])
            return None
        if head == "declare-const":
            sort = cmd[2] if len(cmd) == 3 and isinstance(cmd[1], str) else None
            if not isinstance(sort, list) or len(sort) != 3 or sort[:2] != ["_", "BitVec"]:
                raise SmtError("declare-const expects a name and a (_ BitVec w) sort")
            if int(sort[2]) < 1:
                raise SmtError("bit-vector width must be positive")
            self.engine.declare(cmd[1], int(sort[2]))
            return None
        if head == "define-fun":
            if len(cmd) != 5 or not isinstance(cmd[1], str):
                raise SmtError("define-fun expects a name, parameters, a sort and a body")
            if cmd[2] != []:
                raise SmtError("only zero-arity define-fun is supported")
            if cmd[3] != "Bool":
                raise SmtError("only Bool define-fun is supported")
            self.engine.define(cmd[1], self.parse_term(cmd[4]))
            return None
        if head == "assert":
            if len(cmd) != 2:
                raise SmtError("assert expects one term")
            self.engine.assert_node(self.parse_term(cmd[1]))
            return None
        if head in ("push", "pop"):
            n = int(cmd[1]) if len(cmd) > 1 else 1
            if n < 0 or len(cmd) > 2:
                raise SmtError(f"{head} expects a non-negative count")
            (self.engine.push if head == "push" else self.engine.pop)(n)
            return None
        if head == "check-sat":
            return self.engine.check_sat()
        if head == "get-value":
            if len(cmd) != 2 or not isinstance(cmd[1], list):
                raise SmtError("get-value expects a list of names")
            pairs = self.engine.get_values(cmd[1])
            body = " ".join(f"({name} (_ bv{value} {width}))" for name, value, width in pairs)
            return f"({body})"
        if head == "exit":
            return "__exit__"
        raise SmtError(f"unsupported command {head!r}")


def run_stdio(stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    session = SmtSession()
    buffer = ""
    while True:
        line = stdin.readline()
        if not line:
            break
        buffer += line
        try:
            commands = parse_all(buffer)
        except Incomplete:
            continue
        except SexprError as err:
            buffer = ""
            print(f'(error "{err}")', file=stdout, flush=True)
            continue
        buffer = ""
        for cmd in commands:
            try:
                reply = session.handle(cmd)
            except (SmtError, ValueError, TypeError, IndexError, KeyError, RecursionError) as err:
                print(f'(error "{err}")', file=stdout, flush=True)
                continue
            if reply == "__exit__":
                return 0
            if reply is not None:
                print(reply, file=stdout, flush=True)
    return 0
