"""Enumerative model counting and the exhaustive ground-truth oracle.

Two blocked enumerations run round-robin, each in a scope of its own on a
RangeSearch session: models of (S1 and S2) projected on inputs (the equivalent
side) and models of not(S1 iff S2) (the divergent side).  When a side draws a
model, the path of each version that holds there (``Summary.at``) names a path
pair.  If every condition of both paths reads as a box (``regions``) and the
pair's return terms agree on all of it (equivalent side) or differ on all of it
(divergent side), one assertion blocks that whole box and its volume is
counted; otherwise the model's point alone is blocked.  This is all-solutions
enumeration with generalised blocking clauses (Toda & Soh, ACM JEA 2016).  A
model already blocked, or one where the outputs do not agree (equivalent side)
or differ (divergent side), is a solver fault and raises ``SolverFault``.
Whichever side exhausts (answers unsat) first gives an exact count; budget
expiry downgrades to a lower bound.
"""

from __future__ import annotations

import enum
import itertools
from contextlib import ExitStack
from dataclasses import dataclass, field

from . import regions
from .bvarith import to_unsigned
from .formula import Formula, for_
from .oracle import SolverConfig
from .minilang import TypedFunction
from .rangesearch import CHECKS, BudgetExhausted, RangeSearch
from .summarizer import Summary, eval_concrete

BRUTE_FORCE_DOMAIN_CAP = 1 << 20
MODEL_LIST_CAP = 64  # points listed per blocked box


class EnumCase(enum.Enum):
    CASE1 = "eq_side_exhausted"
    CASE2 = "neq_side_exhausted"
    CASE3 = "budget_expired"


@dataclass
class SideResult:
    """What one side's enumeration blocked, as boxes (a point as a one-point box), each once it
    reached a live session; ``condition`` renders them."""

    count: int = 0  # inputs in the blocked boxes and points
    inputs: list[tuple[int, ...]] = field(default_factory=list)  # listed points, increasing
    blocked: list[regions.Box] = field(default_factory=list)  # disjoint, in the order drawn
    queries: int = 0
    boxes: int = 0
    points: int = 0

    def condition(self, inputs) -> Formula:
        """Exactly the ``count`` inputs this side blocked, each box rendered over ``inputs``."""
        return for_(regions.box_formula(b, inputs) for b in self.blocked)

    def stats(self) -> dict:
        return {"queries": self.queries, "boxes": self.boxes, "points": self.points}


@dataclass
class EnumResult:
    case: EnumCase
    eq: SideResult
    neq: SideResult
    exact_eq_count: int | None

    @property
    def eq_inputs(self) -> list[tuple[int, ...]]:
        return self.eq.inputs

    @property
    def neq_inputs(self) -> list[tuple[int, ...]]:
        return self.neq.inputs

    @property
    def solver_calls(self) -> int:
        return self.eq.queries + self.neq.queries

    @property
    def eq_count_lower_bound(self) -> int:
        return self.eq.count if self.exact_eq_count is None else self.exact_eq_count


class SolverFault(Exception):
    """A blocked enumeration drew a model it had already blocked, or one off its side."""


class _Enumeration:
    """One side's ("eq" or "neq") blocked enumeration, in a scope on ``search``'s session."""

    def __init__(self, search: RangeSearch, side: str, found: SideResult):
        self.session = search.live_session()
        self.session.push()
        for f in CHECKS[side]:
            self.session.assert_formula(f)
        self.side = side
        self.summaries = (search.s1, search.s2)
        self.inputs = list(search.variables)
        self.found = found

    def close(self):
        """Pop the side's scope, blocking clauses included."""
        self.session.pop()

    def _pair_box(self, i1: int, i2: int) -> regions.Box | None:
        """The exact box of path pair (``i1``, ``i2``), which holds at this side's model, if
        it is decided; a decided box lies wholly on the model's side."""
        (g1, t1), (g2, t2) = self.summaries[0].paths[i1], self.summaries[1].paths[i2]
        box = regions.meet(g1.box, g2.box)
        return box if g1.exact and g2.exact and regions.decided(box, t1, t2) else None

    def step(self) -> str:
        """Draw one more model; returns 'model', 'done', or 'unknown'."""
        self.found.queries += 1
        verdict = self.session.check_sat()
        if verdict == "unsat":
            return "done"
        if verdict != "sat":
            return "unknown"
        model = self.session.get_values(self.inputs)
        if model is None:
            return "unknown"
        env = {v.name: to_unsigned(model[v.name], v.sort.width) for v in self.inputs}
        (i1, y1), (i2, y2) = (s.at(env) for s in self.summaries)
        if ("eq" if y1 == y2 else "neq") != self.side:
            raise SolverFault(f"solver gave {model} as a model of the {self.side} side")
        if any(regions.contains(b, env) for b in self.found.blocked):
            raise SolverFault(f"solver repeated blocked assignment {model}")
        point = regions.point_box(self.inputs, env)
        box = self._pair_box(i1, i2) or point
        self.session.block(regions.box_formula(box, self.inputs))
        if self.session.dead:
            box = point  # the drawn model is sound; the box never reached a live solver
        found = self.found
        found.count += regions.volume(box, self.inputs)
        found.inputs += regions.points(box, self.inputs, MODEL_LIST_CAP)
        found.blocked.append(box)
        if box is point:
            found.points += 1
        else:
            found.boxes += 1
        return "unknown" if self.session.dead else "model"


def enumerate_models(s1: Summary, s2: Summary, cfg: SolverConfig,
                     search: RangeSearch | None = None) -> EnumResult:
    """Interleaved blocked enumeration of the eq and neq input sets.

    The equivalent side runs in a scope on the session of ``search`` (a
    RangeSearch over the same pair, whose budget then governs), or of a search
    of its own under ``cfg``'s budget; the divergent side runs on a second
    search over the pair and budget.  Both scopes are popped, and the searches
    opened here closed, on return.
    """
    eq, neq = SideResult(), SideResult()
    sides = []
    case = EnumCase.CASE3
    with ExitStack() as stack:
        search = search or stack.enter_context(RangeSearch(s1, s2, cfg))
        budget = search.budget
        neq_search = stack.enter_context(RangeSearch(s1, s2, cfg, budget))
        try:
            for on, side, found in ((search, "eq", eq), (neq_search, "neq", neq)):
                sides.append(_Enumeration(on, side, found))
                stack.callback(sides[-1].close)
        except BudgetExhausted:
            pass  # a side that cannot start a solver leaves CASE3
        else:
            for side, when_done in itertools.cycle(zip(sides, (EnumCase.CASE1, EnumCase.CASE2))):
                status = "unknown" if budget.expired else side.step()
                if status != "model":
                    case = when_done if status == "done" else EnumCase.CASE3
                    break
    eq.inputs.sort()
    neq.inputs.sort()
    exact = {EnumCase.CASE1: eq.count, EnumCase.CASE2: s1.domain_size - neq.count}.get(case)
    return EnumResult(case=case, eq=eq, neq=neq, exact_eq_count=exact)


# ---------------------------------------------------------------------------
# Exhaustive oracle


@dataclass(frozen=True)
class BruteForceResult:
    eq_count: int
    domain_size: int
    neq_inputs: tuple[tuple[int, ...], ...]

    @property
    def neq_count(self) -> int:
        return self.domain_size - self.eq_count


class DomainTooLarge(Exception):
    pass


def brute_force_eq_count(f1: TypedFunction, f2: TypedFunction) -> BruteForceResult:
    """Exact equivalence count by evaluating both programs on every input.

    Enforces a 2**20 total-domain cap, i.e. small widths only; this is the
    independent ground truth the solver-backed paths are tested against.
    """
    if [s for _, s in f1.params] != [s for _, s in f2.params]:
        raise ValueError("parameter sorts differ")
    domain = 1
    for _, sort in f1.params:
        domain *= sort.domain_size
    if domain > BRUTE_FORCE_DOMAIN_CAP:
        raise DomainTooLarge(f"domain size {domain} exceeds {BRUTE_FORCE_DOMAIN_CAP}")
    ranges = [range(sort.min_value, sort.max_value + 1) for _, sort in f1.params]
    eq = 0
    neq: list[tuple[int, ...]] = []
    for point in itertools.product(*ranges):
        args = list(point)
        if eval_concrete(f1, args) == eval_concrete(f2, args):
            eq += 1
        else:
            neq.append(point)
    return BruteForceResult(eq_count=eq, domain_size=domain, neq_inputs=tuple(neq))
