"""Classify a program pair: equivalent, totally non-equivalent, or partial.

Two solver queries decide the trichotomy: the pair is equivalent when the
negated biconditional of the summaries is unsat, totally non-equivalent when
their conjunction is unsat, and partially equivalent otherwise.  An unknown
on a deciding query, or a budget that runs out first, yields Unknown rather
than a guess.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .formula import FIff, FNot
from .oracle import Budget, SolverConfig
from .rangesearch import SUMMARIES, BudgetExhausted, RangeSearch
from .summarizer import SignatureMismatch, Summary  # noqa: F401  (re-exported)


class Verdict(enum.Enum):
    T_EQ = "equivalent"
    T_NEQ = "totally_non_equivalent"
    P_EQ = "partially_equivalent"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class VerdictResult:
    kind: Verdict
    witness: dict[str, int] | None = None  # a diverging input, when available
    solver_calls: int = 0


def eq_check(s1: Summary, s2: Summary, cfg: SolverConfig,
             budget: Budget | None = None) -> VerdictResult:
    """Decide the equivalence trichotomy for two summaries."""
    with RangeSearch(s1, s2, cfg, budget) as search:
        try:
            neq, witness = search.query([FNot(FIff(*SUMMARIES))], s1.inputs)
            if neq == "unsat":
                return VerdictResult(Verdict.T_EQ, solver_calls=search.query_count)
            if neq == "unknown" or witness is None:
                return VerdictResult(Verdict.UNKNOWN, solver_calls=search.query_count)
            both, _ = search.query([*SUMMARIES])
        except BudgetExhausted:
            return VerdictResult(Verdict.UNKNOWN, solver_calls=search.query_count)
    calls = search.query_count
    if both == "unsat":
        return VerdictResult(Verdict.T_NEQ, witness=witness, solver_calls=calls)
    if both == "unknown":
        return VerdictResult(Verdict.UNKNOWN, solver_calls=calls)
    return VerdictResult(Verdict.P_EQ, witness=witness, solver_calls=calls)
