"""Command dispatch for the SMT-LIB2 text protocol."""

from __future__ import annotations

import sys

from .engine import SmtEngine, SmtError
from .sexpr import SexprError, balanced, parse_all
from .terms import Node

_BV_BINARY = {
    "bvadd": "add", "bvsub": "sub", "bvmul": "mul",
    "bvudiv": "udiv", "bvurem": "urem",
    "bvshl": "shl", "bvlshr": "lshr",
    "bvand": "and", "bvor": "or", "bvxor": "xor",
}


class SmtSession:
    """One solver instance; ``handle`` consumes a parsed command."""

    def __init__(self):
        self.engine = SmtEngine()

    # --- term parsing ---

    def parse_term(self, e) -> Node:
        t = self.engine.table
        if isinstance(e, str):
            if e == "true":
                return t.TRUE
            if e == "false":
                return t.FALSE
            if e.startswith("#x"):
                return t.const(int(e[2:], 16), 4 * (len(e) - 2))
            if e.startswith("#b"):
                return t.const(int(e[2:], 2), len(e) - 2)
            defined = self.engine.lookup_definition(e)
            if defined is not None:
                return defined
            width = self.engine.lookup_width(e)
            if width is None:
                raise SmtError(f"unknown constant {e}")
            return t.var(e, width)
        if not e:
            raise SmtError("empty term")
        head = e[0]
        if head == "_":
            if len(e) == 3 and isinstance(e[1], str) and e[1].startswith("bv"):
                return t.const(int(e[1][2:]), int(e[2]))
            raise SmtError(f"unsupported indexed term {e!r}")
        if isinstance(head, list) and head and head[0] == "_":
            op = head[1]
            args = [self.parse_term(x) for x in e[1:]]
            if op == "extract":
                return t.extract(int(head[2]), int(head[3]), args[0])
            if op == "zero_extend":
                return t.zext(int(head[2]), args[0])
            if op == "sign_extend":
                return t.sext(int(head[2]), args[0])
            raise SmtError(f"unsupported indexed op {op}")
        args = [self.parse_term(x) for x in e[1:]]
        if head == "=":
            self._need(2, args, head)
            self._same_width(args, head)
            return t.eq(args[0], args[1])
        if head == "distinct":
            self._need(2, args, head)
            return t.bnot(t.eq(args[0], args[1]))
        if head == "not":
            self._need(1, args, head)
            return t.bnot(args[0])
        if head == "and":
            return t.band(args)
        if head == "or":
            return t.bor(args)
        if head == "xor":
            out = args[0]
            for a in args[1:]:
                out = t.bnot(t.beq(out, a))
            return out
        if head == "=>":
            self._need(2, args, head)
            return t.implies(args[0], args[1])
        if head == "ite":
            self._need(3, args, head)
            if args[1].width == 0:
                return t.bite(args[0], args[1], args[2])
            return t.ite(args[0], args[1], args[2])
        if head in _BV_BINARY:
            self._need(2, args, head)
            self._same_width(args, head)
            return t.bv2(_BV_BINARY[head], args[0], args[1])
        if head == "bvsdiv":
            self._same_width(args, head)
            return t.sdiv(args[0], args[1])
        if head == "bvsrem":
            self._same_width(args, head)
            return t.srem(args[0], args[1])
        if head == "bvashr":
            self._same_width(args, head)
            return t.ashr(args[0], args[1])
        if head == "bvneg":
            return t.neg(args[0])
        if head == "bvnot":
            return t.bvnot(args[0])
        if head == "concat":
            return t.concat(args[0], args[1])
        if head == "bvult":
            self._same_width(args, head)
            return t.ult(args[0], args[1])
        if head == "bvule":
            self._same_width(args, head)
            return t.ule(args[0], args[1])
        if head == "bvugt":
            return t.ult(args[1], args[0])
        if head == "bvuge":
            return t.ule(args[1], args[0])
        if head == "bvslt":
            self._same_width(args, head)
            return t.slt(args[0], args[1])
        if head == "bvsle":
            self._same_width(args, head)
            return t.sle(args[0], args[1])
        if head == "bvsgt":
            return t.slt(args[1], args[0])
        if head == "bvsge":
            return t.sle(args[1], args[0])
        raise SmtError(f"unsupported operator {head!r}")

    @staticmethod
    def _need(n: int, args, head):
        if len(args) != n:
            raise SmtError(f"{head} expects {n} arguments")

    @staticmethod
    def _same_width(args, head):
        if len({a.width for a in args}) > 1:
            raise SmtError(f"{head}: operand width mismatch")

    # --- commands ---

    def handle(self, cmd) -> str | None:
        if not isinstance(cmd, list) or not cmd:
            raise SmtError(f"bad command {cmd!r}")
        head = cmd[0]
        if head in ("set-logic", "set-info", "echo"):
            return None
        if head == "set-option":
            if len(cmd) >= 3 and cmd[1] == ":timeout":
                self.engine.timeout_ms = int(cmd[2])
            return None
        if head in ("declare-const", "declare-fun"):
            name = cmd[1]
            sort = cmd[-1]
            if (
                not isinstance(sort, list)
                or len(sort) != 3
                or sort[0] != "_"
                or sort[1] != "BitVec"
            ):
                raise SmtError("only (_ BitVec w) sorts are supported")
            if head == "declare-fun" and cmd[2] != []:
                raise SmtError("only zero-arity declare-fun is supported")
            self.engine.declare(name, int(sort[2]))
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
            self.engine.assert_node(self.parse_term(cmd[1]))
            return None
        if head == "push":
            self.engine.push(int(cmd[1]) if len(cmd) > 1 else 1)
            return None
        if head == "pop":
            self.engine.pop(int(cmd[1]) if len(cmd) > 1 else 1)
            return None
        if head == "check-sat":
            return self.engine.check_sat()
        if head == "get-value":
            pairs = self.engine.get_values(list(cmd[1]))
            body = " ".join(f"({name} (_ bv{value} {width}))" for name, value, width in pairs)
            return f"({body})"
        if head == "reset":
            self.engine.reset()
            return None
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
        if not balanced(buffer):
            continue
        try:
            commands = parse_all(buffer)
        except SexprError as err:
            buffer = ""
            print(f'(error "{err}")', file=stdout, flush=True)
            continue
        buffer = ""
        for cmd in commands:
            try:
                reply = session.handle(cmd)
            except (SmtError, ValueError, IndexError, KeyError) as err:
                print(f'(error "{err}")', file=stdout, flush=True)
                continue
            if reply == "__exit__":
                return 0
            if reply is not None:
                print(reply, file=stdout, flush=True)
    return 0
