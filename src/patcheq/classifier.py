"""Classify a program pair: equivalent, totally non-equivalent, or partial.

Two checks over the full domain decide the trichotomy: the pair is equivalent
when the negated biconditional of the summaries is unsat, totally
non-equivalent when their conjunction is unsat, and partially equivalent
otherwise.  ``RangeSearch.classify_range`` over the full domain makes both
checks, so a sampled point or a path-pair box answers them when it can, and the
solver, sent exactly these two queries, answers the rest; this module only
names its status as a Verdict.  An unknown on a deciding query, a sat with no
model, or a budget that runs out first, yields Unknown rather than a guess.
"""

from __future__ import annotations

import enum
from contextlib import nullcontext
from dataclasses import dataclass

from .oracle import SolverConfig
from .rangesearch import BudgetExhausted, RangeSearch, full_domain
from .summarizer import Summary


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


# classify_range's statuses as verdicts
VERDICTS = {"eq": Verdict.T_EQ, "neq": Verdict.T_NEQ, "partial": Verdict.P_EQ,
            "unknown": Verdict.UNKNOWN}


def eq_check(s1: Summary, s2: Summary, cfg: SolverConfig,
             search: RangeSearch | None = None) -> VerdictResult:
    """Decide the equivalence trichotomy for two summaries.

    Given ``search`` (a RangeSearch over the same pair), the queries run on its
    session, under its budget, and leave it open; otherwise a search of its own
    is opened and closed.  ``solver_calls`` counts these queries only.
    """
    with (nullcontext(search) if search else RangeSearch(s1, s2, cfg)) as search:
        first_query, inputs, witness = search.query_count, search.variables, {}
        try:
            kind = VERDICTS[search.classify_range(inputs, full_domain(inputs), witness)]
        except BudgetExhausted:
            kind = Verdict.UNKNOWN
    return VerdictResult(kind, witness if kind in (Verdict.T_NEQ, Verdict.P_EQ) else None,
                         search.query_count - first_query)
