"""Enumerative model counting and the exhaustive ground-truth oracle.

Two blocked enumerations run round-robin, each in a scope of its own on a
RangeSearch session: models of (S1 and S2) projected on inputs (the equivalent
side) and models of not(S1 iff S2) (the divergent side).  Whichever side
exhausts first gives an exact count; budget expiry downgrades to a lower bound.
"""

from __future__ import annotations

import enum
import itertools
from contextlib import ExitStack
from dataclasses import dataclass

from .formula import FIff, FNot
from .oracle import SolverConfig
from .minilang import TypedFunction
from .rangesearch import SUMMARIES, RangeSearch
from .summarizer import Summary, eval_concrete

BRUTE_FORCE_DOMAIN_CAP = 1 << 20


class EnumCase(enum.Enum):
    CASE1 = "eq_side_exhausted"
    CASE2 = "neq_side_exhausted"
    CASE3 = "budget_expired"


@dataclass
class EnumResult:
    case: EnumCase
    eq_inputs: list[tuple[int, ...]]
    neq_inputs: list[tuple[int, ...]]
    exact_eq_count: int | None
    solver_calls: int

    @property
    def eq_count_lower_bound(self) -> int:
        return len(self.eq_inputs) if self.exact_eq_count is None else self.exact_eq_count


class DuplicateModel(Exception):
    """A blocked enumeration returned the same input assignment twice."""


class _Enumeration:
    """One side's blocked enumeration, in a scope pushed on ``search``'s session."""

    def __init__(self, search: RangeSearch, formulas):
        self.session = search.live_session()
        self.session.push()
        for f in formulas:
            self.session.assert_formula(f)
        self.inputs = list(search.variables)
        self.models: list[tuple[int, ...]] = []
        self.seen: set[tuple[int, ...]] = set()
        self.calls = 0

    def close(self):
        """Pop the side's scope, blocking clauses included."""
        self.session.pop()

    def step(self) -> str:
        """Draw one more model; returns 'model', 'done', or 'unknown'."""
        self.calls += 1
        verdict = self.session.check_sat()
        if verdict == "unsat":
            return "done"
        if verdict != "sat":
            return "unknown"
        model = self.session.get_values(self.inputs)
        if model is None:
            return "unknown"
        key = tuple(model[v.name] for v in self.inputs)
        if key in self.seen:
            raise DuplicateModel(f"solver repeated blocked assignment {key}")
        self.seen.add(key)
        self.models.append(key)
        self.session.block_model(self.inputs, model)
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
    with ExitStack() as stack:
        search = search or stack.enter_context(RangeSearch(s1, s2, cfg))
        budget = search.budget
        eq_side = _Enumeration(search, SUMMARIES)
        stack.callback(eq_side.close)
        neq_search = stack.enter_context(RangeSearch(s1, s2, cfg, budget))
        neq_side = _Enumeration(neq_search, [FNot(FIff(*SUMMARIES))])
        stack.callback(neq_side.close)
        for side, when_done in itertools.cycle(((eq_side, EnumCase.CASE1),
                                                (neq_side, EnumCase.CASE2))):
            status = "unknown" if budget.expired else side.step()
            if status != "model":
                case = when_done if status == "done" else EnumCase.CASE3
                break
    eq_models = sorted(eq_side.models)
    neq_models = sorted(neq_side.models)
    if case is EnumCase.CASE1:
        exact = len(eq_models)
    elif case is EnumCase.CASE2:
        exact = s1.domain_size - len(neq_models)
    else:
        exact = None
    return EnumResult(
        case=case,
        eq_inputs=eq_models,
        neq_inputs=neq_models,
        exact_eq_count=exact,
        solver_calls=eq_side.calls + neq_side.calls,
    )


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
