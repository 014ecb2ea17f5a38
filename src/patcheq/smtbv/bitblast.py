"""Tseitin bit-blasting of the term DAG into CNF.

Bit vectors become LSB-first literal lists.  Gate constructors fold constant
and duplicate inputs, and gates are cached, so constant-heavy circuits (range
checks against literals, shifts by constants, multiplies by constants) stay
small.
"""

from __future__ import annotations

from .sat import Solver
from .terms import Node, walk


class Blaster:
    def __init__(self, solver: Solver):
        self.solver = solver
        true_var = solver.new_var()
        self.TRUE = true_var << 1
        self.FALSE = self.TRUE ^ 1
        solver.add_clause([self.TRUE])
        self.cache: dict[Node, object] = {}
        self.gates: dict[tuple, int] = {}

    # --- gate primitives ---

    def fresh(self) -> int:
        return self.solver.new_var() << 1

    def _gate(self, key: tuple, clauses) -> int:
        """The cached literal of gate ``key``, else a fresh ``g`` defined by ``clauses(g)``."""
        g = self.gates.get(key)
        if g is None:
            g = self.gates[key] = self.fresh()
            for clause in clauses(g):
                self.solver.add_clause(clause)
        return g

    def and2(self, a: int, b: int) -> int:
        if a == self.FALSE or b == self.FALSE or a == (b ^ 1):
            return self.FALSE
        if a == self.TRUE:
            return b
        if b == self.TRUE or a == b:
            return a
        return self._gate(("and", min(a, b), max(a, b)), lambda g: (
            [g ^ 1, a], [g ^ 1, b], [g, a ^ 1, b ^ 1]))

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
        return self._gate(("xor", min(a, b), max(a, b)), lambda g: (
            [g ^ 1, a, b], [g ^ 1, a ^ 1, b ^ 1], [g, a, b ^ 1], [g, a ^ 1, b]))

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
        return self._gate(("mux", c, a, b), lambda g: (
            [g ^ 1, c ^ 1, a], [g, c ^ 1, a ^ 1], [g ^ 1, c, b], [g, c, b ^ 1],
            [g ^ 1, a, b], [g, a ^ 1, b ^ 1]))

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
        return self._gate(("maj", *sorted((a, b, c))), lambda g: (
            [g, a ^ 1, b ^ 1], [g, a ^ 1, c ^ 1], [g, b ^ 1, c ^ 1],
            [g ^ 1, a, b], [g ^ 1, a, c], [g ^ 1, b, c]))

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
        cache = self.cache
        for n in walk(node, cache.__contains__):
            cache[n] = self._circuit(n, [cache[a] for a in n.args if isinstance(a, Node)])
        return cache[node]

    def _circuit(self, node: Node, b: list):
        """One node's literal or LSB-first bits, from its operands' ``b``."""
        k = node.kind
        if k == "bconst":
            return self.TRUE if node.args[0] else self.FALSE
        if k == "const":
            return self.const_bits(node.args[0], node.width)
        if k == "var":
            return [self.fresh() for _ in range(node.width)]
        if k == "bnot":
            return b[0] ^ 1
        if k == "band":
            return self.and_list(b)
        if k == "bor":
            return self.or_list(b)
        if k == "beq":
            return self.xor2(b[0], b[1]) ^ 1
        if k == "eq":
            return self.eq_vec(b[0], b[1])
        if k == "ult":
            return self.ult_vec(b[0], b[1])
        if k == "slt":
            return self.slt_vec(b[0], b[1])
        if k == "ite":
            return [self.mux(b[0], x, y) for x, y in zip(b[1], b[2])]
        if k == "add":
            return self.add_vec(b[0], b[1], self.FALSE)
        if k == "sub":
            return self.sub_vec(b[0], b[1])
        if k == "mul":
            return self.mul_vec(b[0], b[1])
        if k in ("udiv", "urem"):
            return self.divmod_vec(b[0], b[1])[k == "urem"]
        if k in ("shl", "lshr"):
            return self.shift_vec(b[0], b[1], k == "lshr")
        if k in ("and", "or", "xor"):
            gate = {"and": self.and2, "or": self.or2, "xor": self.xor2}[k]
            return [gate(x, y) for x, y in zip(b[0], b[1])]
        if k == "extract":
            return b[0][node.args[1]: node.args[0] + 1]
        if k == "zext":
            return b[0] + [self.FALSE] * node.args[0]
        if k == "sext":
            return b[0] + [b[0][-1]] * node.args[0]
        raise ValueError(f"cannot blast node kind {k!r}")

    def model_value(self, var: Node) -> int:
        """A var node's value in the last model; unassigned bits, and unblasted vars, read 0."""
        bits = self.cache.get(var, ())
        return sum(max(self.solver.value(lit), 0) << i for i, lit in enumerate(bits))
