"""Hash-consed bit-vector/boolean term DAG with folding and interval analysis.

Boolean nodes have width 0.  Comparisons are canonicalized to strict forms
(ule becomes not(ult(b, a))) so that logically identical assertions built by
different code paths collapse to the same node, which in turn lets whole
equivalence queries fold away before any SAT search.
"""

from __future__ import annotations

from .. import bvarith


class Node:
    __slots__ = ("kind", "width", "args", "nid")

    def __init__(self, kind: str, width: int, args: tuple, nid: int | None):
        self.kind = kind
        self.width = width
        self.args = args
        self.nid = nid

    def __repr__(self):  # operands by nid, so that no term is printed by recursion
        args = ", ".join(f"#{a.nid}" if isinstance(a, Node) else repr(a) for a in self.args)
        return f"<{self.kind}/{self.width}#{self.nid} ({args})>"


class TermTable:
    """Interning table; one per solver session."""

    def __init__(self):
        self._table: dict[tuple, Node] = {}
        self._next = 0
        self.TRUE = self._node("bconst", 0, (True,))
        self.FALSE = self._node("bconst", 0, (False,))

    def _node(self, kind: str, width: int, args: tuple, number: bool = True) -> Node:
        key = (kind, width, tuple(a.nid if isinstance(a, Node) else a for a in args))
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = Node(kind, width, args, None)
        if node.nid is None and number:  # new, or a declared var that a term now names
            node.nid = self._next
            self._next += 1
        return node

    def bconst(self, value: bool) -> Node:
        return self.TRUE if value else self.FALSE

    def const(self, value: int, width: int) -> Node:
        return self._node("const", width, (value & bvarith.mask(width),))

    def var(self, name: str, width: int) -> Node:
        return self._node("var", width, (name,))

    def declared_var(self, name: str, width: int) -> Node:
        """The node ``var`` returns, numbered when ``var`` is first asked for it.

        So a declared constant is numbered where a term first names it, and
        operand order, which follows numbers, is that of first use."""
        return self._node("var", width, (name,), number=False)

    # --- boolean constructors ---

    def bnot(self, a: Node) -> Node:
        if a.kind == "bconst":
            return self.bconst(not a.args[0])
        if a.kind == "bnot":
            return a.args[0]
        return self._node("bnot", 0, (a,))

    def band(self, items) -> Node:
        return self._flatten("band", items, self.FALSE)

    def bor(self, items) -> Node:
        return self._flatten("bor", items, self.TRUE)

    def _flatten(self, kind: str, items, absorbing: Node) -> Node:
        """``kind`` over ``items``, flattened and deduplicated in order.

        ``absorbing`` (FALSE for and, TRUE for or) is the result when an item
        is it or an item occurs with its negation; the other constant is dropped.
        """
        flat: list[Node] = []
        seen = set()
        for x in items:
            if x.kind == "bconst":
                if x is absorbing:
                    return absorbing
                continue
            parts = x.args if x.kind == kind else (x,)
            for p in parts:
                if p.nid in seen:
                    continue
                seen.add(p.nid)
                flat.append(p)
        neg_ids = {p.args[0].nid for p in flat if p.kind == "bnot"}
        if any(p.nid in neg_ids for p in flat):
            return absorbing
        if not flat:
            return self.bnot(absorbing)
        if len(flat) == 1:
            return flat[0]
        return self._node(kind, 0, tuple(flat))

    def beq(self, a: Node, b: Node) -> Node:
        if a.nid == b.nid:
            return self.TRUE
        if a.kind == "bconst":
            return b if a.args[0] else self.bnot(b)
        if b.kind == "bconst":
            return a if b.args[0] else self.bnot(a)
        if a.nid > b.nid:
            a, b = b, a
        return self._node("beq", 0, (a, b))

    # --- atoms ---

    def eq(self, a: Node, b: Node) -> Node:
        if a.width == 0:
            return self.beq(a, b)
        if a.nid == b.nid:
            return self.TRUE
        if a.kind == "const" and b.kind == "const":
            return self.bconst(a.args[0] == b.args[0])
        if a.nid > b.nid:
            a, b = b, a
        return self._node("eq", 0, (a, b))

    def ult(self, a: Node, b: Node) -> Node:
        if a.nid == b.nid:
            return self.FALSE
        if a.kind == "const" and b.kind == "const":
            return self.bconst(a.args[0] < b.args[0])
        if b.kind == "const" and b.args[0] == 0:
            return self.FALSE
        if a.kind == "const" and a.args[0] == bvarith.mask(a.width):
            return self.FALSE
        return self._node("ult", 0, (a, b))

    def slt(self, a: Node, b: Node) -> Node:
        if a.nid == b.nid:
            return self.FALSE
        if a.kind == "const" and b.kind == "const":
            w = a.width
            return self.bconst(bvarith.slt(a.args[0], b.args[0], w))
        return self._node("slt", 0, (a, b))

    def ule(self, a: Node, b: Node) -> Node:
        return self.bnot(self.ult(b, a))

    def sle(self, a: Node, b: Node) -> Node:
        return self.bnot(self.slt(b, a))

    # --- bit-vector operators ---

    def bv2(self, op: str, a: Node, b: Node) -> Node:
        if a.kind == "const" and b.kind == "const":
            return self.const(bvarith.BINARY[op](a.args[0], b.args[0], a.width), a.width)
        w = a.width
        zero, ones = 0, bvarith.mask(w)
        ca = a.args[0] if a.kind == "const" else None
        cb = b.args[0] if b.kind == "const" else None
        if op == "add":
            if ca == 0:
                return b
            if cb == 0:
                return a
        elif op == "sub":
            if cb == 0:
                return a
            if a.nid == b.nid:
                return self.const(0, w)
        elif op == "mul":
            if ca == 0 or cb == 0:
                return self.const(0, w)
            if ca == 1:
                return b
            if cb == 1:
                return a
            if ca is not None and cb is None:
                a, b, ca, cb = b, a, cb, ca  # constant on the right
        elif op == "and":
            if ca == 0 or cb == 0:
                return self.const(0, w)
            if ca == ones:
                return b
            if cb == ones:
                return a
            if a.nid == b.nid:
                return a
        elif op == "or":
            if ca == ones or cb == ones:
                return self.const(ones, w)
            if ca == 0:
                return b
            if cb == 0:
                return a
            if a.nid == b.nid:
                return a
        elif op == "xor":
            if ca == 0:
                return b
            if cb == 0:
                return a
            if a.nid == b.nid:
                return self.const(0, w)
        elif op in ("shl", "lshr"):
            if cb == 0:
                return a
            if ca == 0:
                return self.const(0, w)
            if cb is not None and cb >= w:
                return self.const(0, w)
        elif op == "udiv":
            if cb == 1:
                return a
        elif op == "urem":
            if cb == 1:
                return self.const(0, w)
        if op in ("add", "mul", "and", "or", "xor") and a.nid > b.nid:
            a, b = b, a  # canonical order for commutative ops
        return self._node(op, w, (a, b))

    def neg(self, a: Node) -> Node:
        if a.kind == "const":
            return self.const(bvarith.neg(a.args[0], a.width), a.width)
        return self.bv2("sub", self.const(0, a.width), a)

    def bvnot(self, a: Node) -> Node:
        return self.bv2("xor", a, self.const(bvarith.mask(a.width), a.width))

    def _magnitudes(self, a: Node, b: Node) -> tuple[Node, Node, Node, Node]:
        """``(a < 0, b < 0, |a|, |b|)``, the prelude of signed division and remainder."""
        zero = self.const(0, a.width)
        a_neg = self.slt(a, zero)
        b_neg = self.slt(b, zero)
        return a_neg, b_neg, self.ite(a_neg, self.neg(a), a), self.ite(b_neg, self.neg(b), b)

    def sdiv(self, a: Node, b: Node) -> Node:
        if a.kind == "const" and b.kind == "const":
            return self.const(bvarith.sdiv(a.args[0], b.args[0], a.width), a.width)
        a_neg, b_neg, mag_a, mag_b = self._magnitudes(a, b)
        q = self.bv2("udiv", mag_a, mag_b)
        return self.ite(self.beq(a_neg, b_neg), q, self.neg(q))

    def srem(self, a: Node, b: Node) -> Node:
        if a.kind == "const" and b.kind == "const":
            return self.const(bvarith.srem(a.args[0], b.args[0], a.width), a.width)
        a_neg, _, mag_a, mag_b = self._magnitudes(a, b)
        r = self.bv2("urem", mag_a, mag_b)
        return self.ite(a_neg, self.neg(r), r)

    def ashr(self, a: Node, b: Node) -> Node:
        if a.kind == "const" and b.kind == "const":
            return self.const(bvarith.ashr(a.args[0], b.args[0], a.width), a.width)
        w = a.width
        sign = self.slt(a, self.const(0, w))
        flipped = self.bv2("lshr", self.bvnot(a), b)
        return self.ite(sign, self.bvnot(flipped), self.bv2("lshr", a, b))

    def ite(self, c: Node, a: Node, b: Node) -> Node:
        if c.kind == "bconst":
            return a if c.args[0] else b
        if a.nid == b.nid:
            return a
        return self._node("ite", a.width, (c, a, b))

    def extract(self, hi: int, lo: int, a: Node) -> Node:
        if a.kind == "const":
            return self.const((a.args[0] >> lo) & bvarith.mask(hi - lo + 1), hi - lo + 1)
        if lo == 0 and hi == a.width - 1:
            return a
        return self._node("extract", hi - lo + 1, (hi, lo, a))

    def zext(self, extra: int, a: Node) -> Node:
        if extra == 0:
            return a
        if a.kind == "const":
            return self.const(a.args[0], a.width + extra)
        return self._node("zext", a.width + extra, (extra, a))

    def sext(self, extra: int, a: Node) -> Node:
        if extra == 0:
            return a
        if a.kind == "const":
            v = bvarith.to_signed(a.args[0], a.width)
            return self.const(bvarith.to_unsigned(v, a.width + extra), a.width + extra)
        return self._node("sext", a.width + extra, (extra, a))


# ---------------------------------------------------------------------------
# Traversal and concrete evaluation


def walk(root: Node, skip=None):
    """Yield each node under ``root`` once, operands first and in argument order.

    This is the order recursion reaches them, kept on an explicit stack, so a
    term may nest to any depth.  ``skip(node)`` is asked when the walk first
    reaches a node; a node it accepts is neither yielded nor entered.  So a
    caller that values each yielded node before pulling the next, and skips
    the nodes it valued before, finds every operand of a yielded node valued.
    """
    seen: set[Node] = set()
    stack = [(root, False)]
    while stack:
        n, ready = stack.pop()
        if ready:
            yield n
        elif n not in seen:
            seen.add(n)
            if skip is None or not skip(n):
                stack.append((n, True))
                for a in reversed(n.args):
                    if isinstance(a, Node):
                        stack.append((a, False))


def compile_node(node: Node, known=None):
    """Compile a node into a straight-line Python evaluator ``f(env)``: the node's
    value under unsigned-canonical variable values, an int or a truth value.

    One statement per DAG node, each computed once, and unassigned variables read
    as 0.  ``known(nid)`` may return an evaluator for a sub-DAG, which is then
    called instead of inlined.  The probe and model validation both call it.
    """
    names: dict[Node, str] = {}
    calls: dict[str, object] = {}
    lines = ["def _eval(env):"]

    def skip(n: Node) -> bool:
        if n.kind in ("const", "bconst"):
            names[n] = repr(n.args[0])
            return True
        fn = known(n.nid) if known is not None and n is not node else None
        if fn is None:
            return False
        calls[f"k{len(calls)}"] = fn
        lines.append(f"    n{n.nid} = k{len(calls) - 1}(env)")
        names[n] = f"n{n.nid}"
        return True

    for n in walk(node, skip):
        operands = [names[a] for a in n.args if isinstance(a, Node)]
        lines.append(f"    n{n.nid} = {_expr(n, operands)}")
        names[n] = f"n{n.nid}"
    lines.append(f"    return {names[node]}")
    namespace = dict(calls)
    exec(compile("\n".join(lines), "<compile_node>", "exec"), namespace)
    return namespace.pop("_eval")  # kept in its own globals, it would be a reference cycle


def _expr(n: Node, a: list[str]) -> str:
    """Python expression for one node over its operands' local names."""
    k, w = n.kind, n.width
    m = bvarith.mask(w)
    if k == "var":
        return f"env.get({n.args[0]!r}, 0)"
    if k == "bnot":
        return f"not {a[0]}"
    if k == "band":
        return " and ".join(a)
    if k == "bor":
        return " or ".join(a)
    if k in ("beq", "eq"):
        return f"{a[0]} == {a[1]}"
    if k == "ult":
        return f"{a[0]} < {a[1]}"
    if k == "slt":
        top = 1 << (n.args[0].width - 1)  # flipping the sign bit orders signed values
        return f"({a[0]} ^ {top}) < ({a[1]} ^ {top})"
    if k == "ite":
        return f"{a[1]} if {a[0]} else {a[2]}"
    if k == "extract":
        hi, lo, _ = n.args
        return f"({a[0]} >> {lo}) & {bvarith.mask(hi - lo + 1)}"
    if k == "zext":
        return a[0]
    if k == "sext":
        inner = n.args[1].width
        return f"{a[0]} | {m ^ bvarith.mask(inner)} if {a[0]} >> {inner - 1} else {a[0]}"
    return bvarith.PYTHON[k].format(a=a[0], b=a[1], w=w, m=m)


def free_vars(node: Node) -> dict[str, Node]:
    return {n.args[0]: n for n in walk(node) if n.kind == "var"}


# ---------------------------------------------------------------------------
# Interval analysis

def full(w: int) -> tuple[int, int, int, int]:
    """Every ``w``-bit value, as ``(ulo, uhi, slo, shi)``."""
    return (0, bvarith.mask(w), -(1 << (w - 1)), (1 << (w - 1)) - 1)


def norm(w: int, quad) -> tuple[int, int, int, int]:
    """Tighten the signed view from the unsigned one and vice versa."""
    ulo, uhi, slo, shi = quad
    smin, smax = -(1 << (w - 1)), (1 << (w - 1)) - 1
    umax = bvarith.mask(w)
    ulo, uhi = max(ulo, 0), min(uhi, umax)
    slo, shi = max(slo, smin), min(shi, smax)
    half = 1 << (w - 1)
    # unsigned -> signed
    if uhi < half:
        slo, shi = max(slo, ulo), min(shi, uhi)
    elif ulo >= half:
        slo, shi = max(slo, ulo - (1 << w)), min(shi, uhi - (1 << w))
    # signed -> unsigned
    if slo >= 0:
        ulo, uhi = max(ulo, slo), min(uhi, shi)
    elif shi < 0:
        ulo, uhi = max(ulo, slo + (1 << w)), min(uhi, shi + (1 << w))
    if ulo > uhi or slo > shi:
        # contradictory constraints; keep a hair of soundness by widening
        return full(w)
    return (ulo, uhi, slo, shi)


class Intervals:
    """Per-node signed and unsigned interval approximation.

    ``bounds`` maps var name -> [ulo, uhi, slo, shi].  Every op is sound:
    when a result may wrap, the affected view widens to the whole range.
    """

    def __init__(self, bounds: dict[str, list[int]]):
        self.bounds = bounds
        self.memo: dict[Node, tuple[int, int, int, int]] = {}

    def of(self, n: Node) -> tuple[int, int, int, int]:
        memo = self.memo
        if n not in memo:  # most calls ask again for a node valued before
            for m in walk(n, lambda m: m.width == 0 or m in memo):  # no Boolean has one
                memo[m] = self._interval(m, [memo.get(a) for a in m.args if isinstance(a, Node)])
        return memo[n]

    def _interval(self, n: Node, v: list) -> tuple[int, int, int, int]:
        """One node's interval from its operands' ``v`` (None for a Boolean)."""
        w = n.width
        smin, smax = -(1 << (w - 1)), (1 << (w - 1)) - 1
        umax = bvarith.mask(w)
        k = n.kind
        if k == "const":
            x = n.args[0]
            return (x, x, bvarith.to_signed(x, w), bvarith.to_signed(x, w))
        if k == "var":
            b = self.bounds.get(n.args[0])
            return full(w) if b is None else tuple(b)
        if k in ("add", "sub", "mul"):
            a, b = v
            if k == "add":
                slo, shi = a[2] + b[2], a[3] + b[3]
                ulo, uhi = a[0] + b[0], a[1] + b[1]
            elif k == "sub":
                slo, shi = a[2] - b[3], a[3] - b[2]
                ulo, uhi = a[0] - b[1], a[1] - b[0]
            else:
                prods = [x * y for x in a[2:] for y in b[2:]]
                slo, shi = min(prods), max(prods)
                ulo, uhi = a[0] * b[0], a[1] * b[1]
            su = (ulo, uhi) if 0 <= ulo and uhi <= umax else (0, umax)
            ss = (slo, shi) if smin <= slo and shi <= smax else (smin, smax)
            return norm(w, (*su, *ss))
        if k in ("shl", "lshr", "udiv", "urem"):
            lo, hi = v[0][:2]
            c = n.args[1].args[0] if n.args[1].kind == "const" else None
            if c is None:
                return full(w)
            if k == "shl" and c >= w:
                return (0, 0, 0, 0)
            if k == "shl" and hi << c <= umax:
                return norm(w, (lo << c, hi << c, smin, smax))
            if k == "lshr":
                return norm(w, (lo >> min(c, w), hi >> min(c, w), smin, smax))
            if k == "udiv" and c:
                return norm(w, (lo // c, hi // c, smin, smax))
            if k == "urem" and c:
                return norm(w, (lo, hi, smin, smax) if hi < c else (0, c - 1, smin, smax))
            return full(w)
        if k == "and":
            return norm(w, (0, min(v[0][1], v[1][1]), smin, smax))
        if k == "or":
            a, b = v
            hi = (1 << max(a[1], b[1]).bit_length()) - 1
            out = norm(w, (min(a[0], b[0]), min(hi, umax), smin, smax))
            # lower bound: or is at least each operand's minimum
            return norm(w, (max(a[0], b[0], out[0]), out[1], out[2], out[3]))
        if k == "xor":
            hi = (1 << max(v[0][1], v[1][1]).bit_length()) - 1
            return norm(w, (0, min(hi, umax), smin, smax))
        if k == "ite":
            a, b = v[1], v[2]
            return (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))
        if k == "zext":
            return norm(w, (v[0][0], v[0][1], smin, smax))
        if k == "sext":
            return norm(w, (0, umax, v[0][2], v[0][3]))
        if k == "extract" and n.args[1] == 0 and v[0][1] <= umax:
            return norm(w, (v[0][0], v[0][1], smin, smax))
        return full(w)


class Simplifier:
    """Rebuild a DAG bottom-up under variable bounds, folding decided atoms."""

    def __init__(self, table: TermTable, intervals: Intervals):
        self.t = table
        self.iv = intervals
        self.memo: dict[Node, Node] = {}

    def run(self, n: Node) -> Node:
        memo = self.memo
        for m in walk(n, memo.__contains__):
            memo[m] = self._rebuild(m, [memo[a] for a in m.args if isinstance(a, Node)])
        return memo[n]

    def _rebuild(self, n: Node, s: list[Node]) -> Node:
        """One node over its operands' simplified forms ``s``."""
        t = self.t
        k = n.kind
        if k in ("const", "bconst"):
            return n
        if k == "var":
            b = self.iv.bounds.get(n.args[0])
            return t.const(b[0], n.width) if b is not None and b[0] == b[1] else n
        if k == "bnot":
            return t.bnot(s[0])
        if k == "band":
            return t.band(s)
        if k == "bor":
            return t.bor(s)
        if k == "beq":
            return t.beq(s[0], s[1])
        if k in ("eq", "ult", "slt"):
            return self._atom(k, s[0], s[1])
        if k == "ite":
            return t.ite(s[0], s[1], s[2])
        if k == "extract":
            return t.extract(n.args[0], n.args[1], s[0])
        if k in ("zext", "sext"):
            return getattr(t, k)(n.args[0], s[0])
        return t.bv2(k, s[0], s[1])

    def _atom(self, kind: str, a: Node, b: Node) -> Node:
        t = self.t
        ia, ib = self.iv.of(a), self.iv.of(b)
        if kind == "ult":
            if ia[1] < ib[0]:
                return t.TRUE
            if ia[0] >= ib[1]:
                return t.FALSE
            return t.ult(a, b)
        if kind == "slt":
            if ia[3] < ib[2]:
                return t.TRUE
            if ia[2] >= ib[3]:
                return t.FALSE
            return t.slt(a, b)
        # eq: fold when either view proves disjointness
        if ia[1] < ib[0] or ib[1] < ia[0] or ia[3] < ib[2] or ib[3] < ia[2]:
            return t.FALSE
        return t.eq(a, b)
