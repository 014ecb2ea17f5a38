"""Tseitin bit-blasting of the term DAG into CNF.

Bit vectors become LSB-first literal lists.  Gate constructors fold constant
and duplicate inputs, and gates are cached, so constant-heavy circuits (range
checks against literals, shifts by constants, multiplies by constants) stay
small.
"""

from __future__ import annotations

from .sat import Solver
from .terms import Node


class Blaster:
    def __init__(self, solver: Solver):
        self.solver = solver
        true_var = solver.new_var()
        self.TRUE = true_var << 1
        self.FALSE = self.TRUE ^ 1
        solver.add_clause([self.TRUE])
        self.cache: dict[int, object] = {}
        self.gates: dict[tuple, int] = {}
        self.var_bits: dict[str, list[int]] = {}

    # --- gate primitives ---

    def fresh(self) -> int:
        return self.solver.new_var() << 1

    def and2(self, a: int, b: int) -> int:
        if a == self.FALSE or b == self.FALSE or a == (b ^ 1):
            return self.FALSE
        if a == self.TRUE:
            return b
        if b == self.TRUE or a == b:
            return a
        key = ("and", a, b) if a < b else ("and", b, a)
        g = self.gates.get(key)
        if g is None:
            g = self.fresh()
            add = self.solver.add_clause
            add([g ^ 1, a])
            add([g ^ 1, b])
            add([g, a ^ 1, b ^ 1])
            self.gates[key] = g
        return g

    def or2(self, a: int, b: int) -> int:
        return self.and2(a ^ 1, b ^ 1) ^ 1

    def xor2(self, a: int, b: int) -> int:
        if a == self.FALSE:
            return b
        if b == self.FALSE:
            return a
        if a == self.TRUE:
            return b ^ 1
        if b == self.TRUE:
            return a ^ 1
        if a == b:
            return self.FALSE
        if a == (b ^ 1):
            return self.TRUE
        key = ("xor", a, b) if a < b else ("xor", b, a)
        g = self.gates.get(key)
        if g is None:
            g = self.fresh()
            add = self.solver.add_clause
            add([g ^ 1, a, b])
            add([g ^ 1, a ^ 1, b ^ 1])
            add([g, a, b ^ 1])
            add([g, a ^ 1, b])
            self.gates[key] = g
        return g

    def mux(self, c: int, a: int, b: int) -> int:
        """c ? a : b"""
        if c == self.TRUE:
            return a
        if c == self.FALSE:
            return b
        if a == b:
            return a
        if a == self.TRUE and b == self.FALSE:
            return c
        if a == self.FALSE and b == self.TRUE:
            return c ^ 1
        key = ("mux", c, a, b)
        g = self.gates.get(key)
        if g is None:
            g = self.fresh()
            add = self.solver.add_clause
            add([g ^ 1, c ^ 1, a])
            add([g, c ^ 1, a ^ 1])
            add([g ^ 1, c, b])
            add([g, c, b ^ 1])
            add([g ^ 1, a, b])
            add([g, a ^ 1, b ^ 1])
            self.gates[key] = g
        return g

    def maj(self, a: int, b: int, c: int) -> int:
        if a == self.FALSE:
            return self.and2(b, c)
        if a == self.TRUE:
            return self.or2(b, c)
        if b == self.FALSE:
            return self.and2(a, c)
        if b == self.TRUE:
            return self.or2(a, c)
        if c == self.FALSE:
            return self.and2(a, b)
        if c == self.TRUE:
            return self.or2(a, b)
        if a == b:
            return a
        if a == c:
            return a
        if b == c:
            return b
        key = ("maj",) + tuple(sorted((a, b, c)))
        g = self.gates.get(key)
        if g is None:
            g = self.fresh()
            add = self.solver.add_clause
            add([g, a ^ 1, b ^ 1])
            add([g, a ^ 1, c ^ 1])
            add([g, b ^ 1, c ^ 1])
            add([g ^ 1, a, b])
            add([g ^ 1, a, c])
            add([g ^ 1, b, c])
            self.gates[key] = g
        return g

    def and_list(self, lits) -> int:
        out = []
        for lit in lits:
            if lit == self.FALSE:
                return self.FALSE
            if lit != self.TRUE:
                out.append(lit)
        if not out:
            return self.TRUE
        g = out[0]
        for lit in out[1:]:
            g = self.and2(g, lit)
        return g

    def or_list(self, lits) -> int:
        return self.and_list(lit ^ 1 for lit in lits) ^ 1

    # --- word-level circuits ---

    def const_bits(self, value: int, width: int) -> list[int]:
        return [self.TRUE if (value >> i) & 1 else self.FALSE for i in range(width)]

    def add_vec(self, a: list[int], b: list[int], cin: int) -> list[int]:
        out = []
        carry = cin
        for x, y in zip(a, b):
            out.append(self.xor2(self.xor2(x, y), carry))
            carry = self.maj(x, y, carry)
        return out

    def sub_vec(self, a: list[int], b: list[int]) -> list[int]:
        return self.add_vec(a, [x ^ 1 for x in b], self.TRUE)

    def mul_vec(self, a: list[int], b: list[int]) -> list[int]:
        w = len(a)
        acc = [self.FALSE] * w
        for i in range(w):
            if b[i] == self.FALSE:
                continue
            row = [self.FALSE] * i + [self.and2(b[i], a[j]) for j in range(w - i)]
            acc = self.add_vec(acc, row, self.FALSE)
        return acc

    def ult_vec(self, a: list[int], b: list[int]) -> int:
        lt = self.FALSE
        for x, y in zip(a, b):  # LSB to MSB; the last word wins
            lt = self.mux(self.xor2(x, y), self.and2(x ^ 1, y), lt)
        return lt

    def slt_vec(self, a: list[int], b: list[int]) -> int:
        a2 = a[:-1] + [a[-1] ^ 1]
        b2 = b[:-1] + [b[-1] ^ 1]
        return self.ult_vec(a2, b2)

    def eq_vec(self, a: list[int], b: list[int]) -> int:
        return self.and_list(self.xor2(x, y) ^ 1 for x, y in zip(a, b))

    def shift_vec(self, a: list[int], b: list[int], right: bool) -> list[int]:
        w = len(a)
        stages = max(1, (w - 1).bit_length())
        cur = list(a)
        for k in range(stages):
            sh = 1 << k
            if right:
                shifted = cur[sh:] + [self.FALSE] * min(sh, w)
            else:
                shifted = [self.FALSE] * min(sh, w) + cur[: w - sh]
            cur = [self.mux(b[k], s, c) for s, c in zip(shifted, cur)]
        too_big = self.or_list(b[stages:])
        return [self.and2(too_big ^ 1, c) for c in cur]

    def divmod_vec(self, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        """Restoring division; SMT-LIB semantics for a zero divisor."""
        w = len(a)
        ext = w + 1
        b_ext = b + [self.FALSE]
        rem = [self.FALSE] * ext
        q = [self.FALSE] * w
        for i in range(w - 1, -1, -1):
            rem = [a[i]] + rem[: ext - 1]
            ge = self.ult_vec(rem, b_ext) ^ 1
            diff = self.sub_vec(rem, b_ext)
            rem = [self.mux(ge, d, r) for d, r in zip(diff, rem)]
            q[i] = ge
        bnz = self.or_list(b)
        q_final = [self.mux(bnz, qi, self.TRUE) for qi in q]
        r_final = [self.mux(bnz, rem[i], a[i]) for i in range(w)]
        return q_final, r_final

    # --- DAG dispatch ---

    def blast(self, node: Node):
        got = self.cache.get(node.nid)
        if got is not None:
            return got
        k = node.kind
        if k == "bconst":
            out = self.TRUE if node.args[0] else self.FALSE
        elif k == "const":
            out = self.const_bits(node.args[0], node.width)
        elif k == "var":
            name = node.args[0]
            bits = self.var_bits.get(name)
            if bits is None:
                bits = [self.fresh() for _ in range(node.width)]
                self.var_bits[name] = bits
            out = bits
        elif k == "bnot":
            out = self.blast(node.args[0]) ^ 1
        elif k == "band":
            out = self.and_list(self.blast(x) for x in node.args)
        elif k == "bor":
            out = self.or_list(self.blast(x) for x in node.args)
        elif k == "beq":
            out = self.xor2(self.blast(node.args[0]), self.blast(node.args[1])) ^ 1
        elif k == "eq":
            out = self.eq_vec(self.blast(node.args[0]), self.blast(node.args[1]))
        elif k == "ult":
            out = self.ult_vec(self.blast(node.args[0]), self.blast(node.args[1]))
        elif k == "slt":
            out = self.slt_vec(self.blast(node.args[0]), self.blast(node.args[1]))
        elif k == "ite":
            c = self.blast(node.args[0])
            a = self.blast(node.args[1])
            b = self.blast(node.args[2])
            out = [self.mux(c, x, y) for x, y in zip(a, b)]
        elif k == "add":
            out = self.add_vec(self.blast(node.args[0]), self.blast(node.args[1]), self.FALSE)
        elif k == "sub":
            out = self.sub_vec(self.blast(node.args[0]), self.blast(node.args[1]))
        elif k == "mul":
            out = self.mul_vec(self.blast(node.args[0]), self.blast(node.args[1]))
        elif k == "udiv":
            out = self.divmod_vec(self.blast(node.args[0]), self.blast(node.args[1]))[0]
        elif k == "urem":
            out = self.divmod_vec(self.blast(node.args[0]), self.blast(node.args[1]))[1]
        elif k == "shl":
            out = self._shift(node, right=False)
        elif k == "lshr":
            out = self._shift(node, right=True)
        elif k == "and":
            out = [self.and2(x, y) for x, y in zip(self.blast(node.args[0]), self.blast(node.args[1]))]
        elif k == "or":
            out = [self.or2(x, y) for x, y in zip(self.blast(node.args[0]), self.blast(node.args[1]))]
        elif k == "xor":
            out = [self.xor2(x, y) for x, y in zip(self.blast(node.args[0]), self.blast(node.args[1]))]
        elif k == "extract":
            hi, lo, arg = node.args
            out = self.blast(arg)[lo: hi + 1]
        elif k == "zext":
            extra, arg = node.args
            out = self.blast(arg) + [self.FALSE] * extra
        elif k == "sext":
            extra, arg = node.args
            bits = self.blast(arg)
            out = bits + [bits[-1]] * extra
        elif k == "concat":
            hi_part, lo_part = node.args
            out = self.blast(lo_part) + self.blast(hi_part)
        else:
            raise ValueError(f"cannot blast node kind {k!r}")
        self.cache[node.nid] = out
        return out

    def _shift(self, node: Node, right: bool) -> list[int]:
        a, b = node.args
        bits = self.blast(a)
        w = node.width
        if b.kind == "const":
            sh = b.args[0]
            if sh >= w:
                return [self.FALSE] * w
            if right:
                return bits[sh:] + [self.FALSE] * sh
            return [self.FALSE] * sh + bits[: w - sh]
        return self.shift_vec(bits, self.blast(b), right)

    def model_value(self, name: str, width: int) -> int | None:
        bits = self.var_bits.get(name)
        if bits is None:
            return None
        solver = self.solver
        value = 0
        for i, lit in enumerate(bits):
            if lit == self.TRUE:
                value |= 1 << i
            elif lit == self.FALSE:
                continue
            else:
                v = solver.assign[lit >> 1]
                bit = 0 if v == -1 else (v ^ (lit & 1))
                value |= bit << i
        return value
