"""Enumerative model counting and the exhaustive ground-truth oracle.

Two blocked enumerations run round-robin, each in a scope of its own on a
RangeSearch session: models of (S1 and S2) projected on inputs (the equivalent
side) and models of not(S1 iff S2) (the divergent side).  When a side draws a
model, the path of each version that holds there names a path pair.  If every
condition of both paths reads as a box (``regions``) and the pair's return
terms agree on all of it (equivalent side) or differ on all of it (divergent
side), one assertion blocks that whole box and its volume is counted;
otherwise the model's point alone is blocked.  This is all-solutions
enumeration with generalised blocking clauses (Toda & Soh, ACM JEA 2016).
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
from .formula import FIff, FNot, Formula, eval_formula, for_
from .oracle import SolverConfig
from .minilang import TypedFunction
from .rangesearch import SUMMARIES, BudgetExhausted, RangeSearch
from .summarizer import Summary, eval_concrete

BRUTE_FORCE_DOMAIN_CAP = 1 << 20
MODEL_LIST_CAP = 64  # points listed per blocked box


class EnumCase(enum.Enum):
    CASE1 = "eq_side_exhausted"
    CASE2 = "neq_side_exhausted"
    CASE3 = "budget_expired"


@dataclass
class SideResult:
    """What one side's enumeration blocked, each box or point once it reached a live session."""

    count: int = 0  # inputs in the blocked boxes and points
    inputs: list[tuple[int, ...]] = field(default_factory=list)  # listed points, increasing
    blocked: list[Formula] = field(default_factory=list)  # each box or point, as a formula
    queries: int = 0
    boxes: int = 0
    points: int = 0

    @property
    def condition(self) -> Formula:
        """Exactly the ``count`` inputs this side blocked."""
        return for_(self.blocked)

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


class DuplicateModel(Exception):
    """A blocked enumeration returned an input assignment it had already blocked."""


def _path_at(summary: Summary, env: dict[str, int]):
    """The (box, exact, return term) of the path of ``summary`` that holds at ``env``."""
    return next(boxed for (conds, _), boxed in zip(summary.paths, summary.boxes)
                if all(eval_formula(c, env) for c in conds))


class _Enumeration:
    """One side's blocked enumeration, in a scope pushed on ``search``'s session."""

    def __init__(self, search: RangeSearch, formulas, found: SideResult):
        self.session = search.live_session()
        self.session.push()
        for f in formulas:
            self.session.assert_formula(f)
        self.summaries = (search.s1, search.s2)
        self.inputs = list(search.variables)
        self.found = found

    def close(self):
        """Pop the side's scope, blocking clauses included."""
        self.session.pop()

    def _pair_box(self, env: dict[str, int]) -> regions.Box | None:
        """The exact box of the path pair holding at this side's model ``env``, if it is
        decided; a decided box lies wholly on the model's side."""
        (box1, exact1, t1), (box2, exact2, t2) = (_path_at(s, env) for s in self.summaries)
        box = regions.meet(box1, box2)
        return box if exact1 and exact2 and regions.decided(box, t1, t2) else None

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
        if any(eval_formula(region, env) for region in self.found.blocked):
            raise DuplicateModel(f"solver repeated blocked assignment {model}")
        point = {v: [(env[v.name], env[v.name])] for v in self.inputs}
        box = self._pair_box(env) or point
        region = regions.box_formula(box, self.inputs)
        self.session.block(region)
        if self.session.dead and box is not point:
            # the drawn model is sound; the box never reached a live solver
            box, region = point, regions.box_formula(point, self.inputs)
        found = self.found
        found.count += regions.volume(box, self.inputs)
        found.inputs += regions.points(box, self.inputs, MODEL_LIST_CAP)
        found.blocked.append(region)
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
            for on, formulas, found in ((search, SUMMARIES, eq),
                                        (neq_search, [FNot(FIff(*SUMMARIES))], neq)):
                sides.append(_Enumeration(on, formulas, found))
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
