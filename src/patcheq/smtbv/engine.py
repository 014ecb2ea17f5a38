"""Check-sat pipeline: harvest bounds, simplify, probe, then bit-blast.

The assertion stack mirrors SMT-LIB push/pop.  Definitional clauses from
bit-blasting are permanent; per-level assertions enter the SAT solver as
assumptions, so popped state costs nothing and learned clauses survive.
Every sat answer is validated before it is reported: the original assertions'
compiled evaluators, the ones the probe calls, must all hold under the model.

Names are scoped the same way, in one table per level, ``_Level.names``: a
declared constant maps to its var node, whose bits are the blaster's for that
node, and a ``define-fun`` name to its body.  A name is bound at most once in
scope; once popped it may be declared again at any width, as a new node.

Bound harvesting walks the ``and`` spine of the assertions and reads each
``v op c`` or ``c op v`` (a variable against a constant), negated or not, as
a bound on ``v``: ``bvult`` bounds the unsigned view and ``bvslt`` the signed
one.  With ``v`` on the small side (``v < c``, or ``not (c < v)``) the bound
is an upper bound ``c - strict``, otherwise a lower bound ``c + strict``,
where ``strict`` is 1 for an unnegated order; ``=`` clamps both views to
``c``.
"""

from __future__ import annotations

import time
from itertools import product

from .. import bvarith
from .sat import Solver
from .bitblast import Blaster
from .terms import (
    Intervals, Node, Simplifier, TermTable, compile_node, free_vars, full, norm, walk,
)

PROBE_COMBO_CAP = 1024
PROBE_CANDIDATES_PER_VAR = 16


class SmtError(Exception):
    pass


class _Level:
    """One push/pop scope: the names it binds, its assertions and probe facts."""

    __slots__ = ("names", "asserts", "facts")

    def __init__(self):
        self.names: dict[str, Node] = {}  # declared constant -> var node, define-fun -> body
        self.asserts: list[Node] = []
        self.facts: dict[int, _Facts] = {}  # nid -> facts of a node asserted or defined here


class _Partner:
    """An equation ``name = term`` the probe can solve for ``name``."""

    __slots__ = ("name", "term", "vars", "fn")

    def __init__(self, name: str, term: Node):
        self.name = name
        self.term = term
        self.vars = frozenset(free_vars(term))
        self.fn = None

    def evaluator(self):
        if self.fn is None:
            self.fn = compile_node(self.term)
        return self.fn


class _Facts:
    """What the probe needs of one asserted or defined node, found once."""

    __slots__ = ("node", "level", "vars", "partners", "consts", "fn")

    def __init__(self, node: Node, level: int, variables, partners, consts):
        self.node = node
        self.level = level
        self.vars: dict[str, Node] = variables
        self.partners: dict[int, _Partner] = partners  # eq nid -> partner
        self.consts: frozenset[Node] = consts
        self.fn = None  # compiled on first use


class SmtEngine:
    def __init__(self):
        self.table = TermTable()
        self.solver = Solver()
        self.blaster = Blaster(self.solver)
        self.levels: list[_Level] = [_Level()]
        self.timeout_ms: int | None = None
        self.last_model: dict[str, int] | None = None

    # --- state management ---

    def lookup(self, name: str) -> Node | None:
        """What ``name`` is bound to in scope: a declared constant's var node, or a body."""
        return next((lvl.names[name] for lvl in self.levels if name in lvl.names), None)

    def _bind(self, name: str, node: Node):
        if self.lookup(name) is not None:
            raise SmtError(f"{name} already declared")
        self.levels[-1].names[name] = node

    def declare(self, name: str, width: int):
        self._bind(name, self.table.declared_var(name, width))

    def define(self, name: str, node: Node):
        """Bind a zero-arity Boolean name, scoped like a declaration."""
        if node.width != 0:
            raise SmtError("define-fun requires a boolean term")
        self._bind(name, node)
        self._learn(node)

    def assert_node(self, node: Node):
        if node.width != 0:
            raise SmtError("assert requires a boolean term")
        self.levels[-1].asserts.append(node)
        self._learn(node)
        self.last_model = None

    def push(self, n: int = 1):
        self.levels += [_Level() for _ in range(n)]

    def pop(self, n: int = 1):
        if n >= len(self.levels):
            raise SmtError("pop past the root level")
        del self.levels[len(self.levels) - n:]
        self.last_model = None

    def declared(self) -> list[Node]:
        """The var nodes of the declared constants in scope, outermost first."""
        return [node for lvl in self.levels for node in lvl.names.values() if node.kind == "var"]

    # --- bounds harvesting ---

    def _harvest_bounds(self, actives: list[Node]):
        """Intersect top-level interval facts per variable; None if contradictory."""
        bounds: dict[str, list[int]] = {}  # name -> [ulo, uhi, slo, shi], in first-seen order
        stack = actives[::-1]
        while stack:
            n = stack.pop()
            if n.kind == "band":
                stack += reversed(n.args)
                continue
            positive = n.kind != "bnot"
            if not positive:
                n = n.args[0]
            if n.kind not in ("ult", "slt", "eq"):
                continue
            a, b = n.args
            if a.kind == "var" and b.kind == "const":
                var, c, var_left = a, b.args[0], True
            elif a.kind == "const" and b.kind == "var":
                var, c, var_left = b, a.args[0], False
            else:
                continue
            w = var.width
            bb = bounds.setdefault(var.args[0], list(full(w)))
            s = bvarith.to_signed(c, w)
            if n.kind == "eq":
                if positive:
                    bb[:] = max(bb[0], c), min(bb[1], c), max(bb[2], s), min(bb[3], s)
                continue
            i, c = (0, c) if n.kind == "ult" else (2, s)
            if var_left == positive:  # v < c, or not (c < v)
                bb[i + 1] = min(bb[i + 1], c - positive)
            else:
                bb[i] = max(bb[i], c + positive)

        for name, b in bounds.items():
            if b[0] > b[1] or b[2] > b[3]:
                return None  # contradictory range facts
            bounds[name] = list(norm(self.lookup(name).width, tuple(b)))
        return bounds

    def _bound_constraints(self, bounds: dict[str, list[int]]) -> list[Node]:
        """Re-materialize harvested bounds so they are never simplified away."""
        t = self.table
        out = []
        for name, (ulo, uhi, slo, shi) in bounds.items():
            v = self.lookup(name)
            w = v.width
            if ulo > 0:
                out.append(t.bnot(t.ult(v, t.const(ulo, w))))
            if uhi < bvarith.mask(w):
                out.append(t.bnot(t.ult(t.const(uhi, w), v)))
            if slo > -(1 << (w - 1)):
                out.append(t.bnot(t.slt(v, t.const(bvarith.to_unsigned(slo, w), w))))
            if shi < (1 << (w - 1)) - 1:
                out.append(t.bnot(t.slt(t.const(bvarith.to_unsigned(shi, w), w), v)))
        return out

    # --- probing for easy models ---

    def _candidates(self, name: str, width: int, bounds, consts) -> list[int]:
        vals = {0, 1, bvarith.mask(width), 1 << (width - 1), (1 << (width - 1)) - 1}
        b = bounds.get(name)
        if b is not None:
            ulo, uhi, slo, shi = b
            mid = (ulo + uhi) // 2
            for v in (ulo, uhi, mid, ulo + 1, uhi - 1,
                      bvarith.to_unsigned(slo, width), bvarith.to_unsigned(shi, width)):
                vals.add(v & bvarith.mask(width))
        for c in consts:
            vals.add(c)
            vals.add((c + 1) & bvarith.mask(width))
            vals.add((c - 1) & bvarith.mask(width))
        ordered = sorted(vals)
        if b is not None:
            ulo, uhi = b[0], b[1]
            ordered = [v for v in ordered if ulo <= v <= uhi] or ordered
        return ordered[:PROBE_CANDIDATES_PER_VAR]

    def _lookup(self, nid: int, upto: int | None = None) -> _Facts | None:
        for lvl in self.levels[:upto]:
            found = lvl.facts.get(nid)
            if found is not None:
                return found
        return None

    def _learn(self, node: Node):
        """Record the probe facts of a node asserted or defined at the top level.

        The walk stops at nodes that already have facts, so a query that only
        refers to defined summaries costs its own new nodes.  Facts live in
        the level of the first assertion or definition that needed them and
        go with it on pop.
        """
        if self._lookup(node.nid) is not None:
            return
        variables: dict[str, Node] = {}
        partners: dict[int, _Partner] = {}
        consts: set[Node] = set()

        def known(n: Node) -> bool:
            facts = self._lookup(n.nid)
            if facts is not None:
                variables.update(facts.vars)
                partners.update(facts.partners)
                consts.update(facts.consts)
            return facts is not None

        for n in walk(node, known):
            if n.kind == "var":
                variables[n.args[0]] = n
            elif n.kind == "const":
                consts.add(n)
            elif n.kind == "eq":
                # equation partners: eq(v, t) lets us derive candidate values for v
                a, b = n.args
                if a.kind == "var" and b.kind != "var":
                    partners[n.nid] = _Partner(a.args[0], b)
                elif b.kind == "var" and a.kind != "var":
                    partners[n.nid] = _Partner(b.args[0], a)
        level = len(self.levels) - 1
        self.levels[level].facts[node.nid] = _Facts(
            node, level, variables, partners, frozenset(consts))

    def _evaluator(self, facts: _Facts):
        """Compiled evaluator of an asserted node, calling those of older ones."""
        if facts.fn is None:
            def known(nid):
                inner = self._lookup(nid, facts.level + 1)
                return None if inner is None else self._evaluator(inner)

            facts.fn = compile_node(facts.node, known)
        return facts.fn

    def _probe(self, actives: list[Node], bounds) -> dict[str, int] | None:
        facts = [self._lookup(a.nid) for a in actives]
        variables: dict[str, Node] = {}
        partner_of: dict[int, _Partner] = {}
        for f in facts:
            variables.update(f.vars)
            partner_of.update(f.partners)
        if not variables or len(variables) > 4:
            return None
        partners: dict[str, list[_Partner]] = {name: [] for name in variables}
        for p in partner_of.values():
            partners[p.name].append(p)

        width = max(v.width for v in variables.values())
        consts = {c.args[0] for f in facts for c in f.consts if c.width == width}

        derived = [n for n in sorted(variables) if partners[n]]
        base = [n for n in sorted(variables) if not partners[n]]
        if not base:
            base, derived = derived[:1], derived[1:]
        cand = {
            name: self._candidates(name, variables[name].width, bounds,
                                   consts if variables[name].width == width else set())
            for name in base
        }
        total = 1
        for name in base:
            total *= len(cand[name])
        if total > PROBE_COMBO_CAP:
            return None

        # Derived variables are assigned in order.  Step i may use the
        # partners closed before it, and must check the assertions it
        # closes; the ones closed by the base are checked at the first step
        # (or at the end, when nothing is derived).
        step = {name: i for i, name in enumerate(derived)}

        def closing_step(names) -> int:
            return max((step.get(v, -1) for v in names), default=-1)

        sources = [[p.evaluator() for p in partners[name] if closing_step(p.vars) < i]
                   for i, name in enumerate(derived)]
        checks: list[list] = [[] for _ in range(len(derived) + 1)]
        for f in facts:
            checks[max(closing_step(f.vars), 0 if derived else -1) + 1].append(
                self._evaluator(f))
        final = checks.pop(0)

        masks = {name: bvarith.mask(variables[name].width) for name in variables}
        for combo in product(*(cand[name] for name in base)):
            env = dict(zip(base, combo))
            ok = True
            for name, found, closed in zip(derived, sources, checks):
                options = {fn(env) & masks[name] for fn in found}
                options.add(0)
                chosen = None
                for opt in sorted(options):
                    env[name] = opt
                    if all(fn(env) for fn in closed):
                        chosen = opt
                        break
                if chosen is None:
                    ok = False
                    break
                env[name] = chosen
            if not ok:
                continue
            if all(fn(env) for fn in final):
                return env
        return None

    # --- the main decision procedure ---

    def check_sat(self) -> str:
        self.last_model = None
        actives = [n for lvl in self.levels for n in lvl.asserts]
        deadline = None
        if self.timeout_ms is not None:
            deadline = time.monotonic() + self.timeout_ms / 1000.0

        bounds = self._harvest_bounds(actives)
        if bounds is None:
            return "unsat"

        iv = Intervals(bounds)
        simplifier = Simplifier(self.table, iv)
        simplified = []
        for a in actives:
            s = simplifier.run(a)
            if s is self.table.FALSE:
                return "unsat"
            if s is not self.table.TRUE:
                simplified.append(s)
        blast_set = simplified + self._bound_constraints(bounds)

        if not blast_set and self._accept({name: b[0] for name, b in bounds.items()}, actives):
            return "sat"
        probed = self._probe(actives, bounds)
        if probed is not None and self._accept(probed, actives):
            return "sat"

        result = self._solve_cnf(blast_set, actives, deadline)
        if result is not None:
            return result
        # simplified pipeline produced an invalid model: solve the originals
        result = self._solve_cnf(actives, actives, deadline)
        return result if result is not None else "unknown"

    def _solve_cnf(self, blast_set: list[Node], originals: list[Node], deadline) -> str | None:
        assumptions = []
        for node in blast_set:
            lit = self.blaster.blast(node)
            if lit == self.blaster.FALSE:
                return "unsat"
            if lit != self.blaster.TRUE:
                assumptions.append(lit)
        verdict = self.solver.solve(assumptions, deadline=deadline)
        if verdict is None:
            return "unknown"
        if verdict is False:
            return "unsat"
        values = {v.args[0]: self.blaster.model_value(v) for v in self.declared()}
        self.solver._backtrack(0)
        # None: the caller falls back to the unsimplified instance
        return "sat" if self._accept(values, originals) else None

    def _accept(self, values: dict[str, int], originals: list[Node]) -> bool:
        """Keep the model giving each declared name its value, or 0, if it satisfies ``originals``
        (asserted nodes, each checked by its compiled evaluator)."""
        model = {v.args[0]: values.get(v.args[0], 0) for v in self.declared()}
        if not all(self._evaluator(self._lookup(a.nid))(model) for a in originals):
            return False
        self.last_model = model
        return True

    def get_values(self, names: list[str]) -> list[tuple[str, int, int]]:
        if self.last_model is None:
            raise SmtError("no model available; call check-sat first")
        out = []
        for name in names:
            node = self.lookup(name)
            if node is None or node.kind != "var":
                raise SmtError(f"unknown constant {name}")
            out.append((name, self.last_model.get(name, 0), node.width))
        return out
