"""Solver-guided search for equivalence regions of a program pair.

Four strategies over the input hyper-rectangle:

* relational: recursive bisection of all variables at once; finds
  cross-variable (relational) equivalence regions but costs O((2^N)^limit)
  queries.
* iterative: per-variable bisection with the other variables unconstrained;
  O(N * 2^limit) queries, cannot express relational conditions.
* iterative priority: per-variable shrink toward zero with certified binary
  expansion back into the discarded half; O(N * width) queries.
* combined: runs iterative and iterative priority, keeps the better
  per-variable bound (ties go to iterative).

A region enters a result only with an unsat certificate from the solver;
unknown verdicts drop the region, and budget expiry returns a partial result
flagged incomplete.  All counting is exact big-integer/rational arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .classifier import require_same_interface
from .formula import (
    BvVar, Formula, FName, FNot, FALSE, RangePair, fand, for_, iff_under_range,
    mk_range_constraint, require_agreeing_vars, var_range_constraint,
)
from .oracle import Budget, SolverConfig, SolverSession
from .summarizer import Summary

RangeVector = tuple[RangePair, ...]

# Each session defines the two summaries once under these names; minilang
# identifiers cannot contain "!", so they never collide with a variable.
SUMMARIES = (FName("summary!1"), FName("summary!2"))

DEFAULT_LIMIT_SINGLE = 8
DEFAULT_LIMIT_MULTI = 4


def default_limit(n_vars: int) -> int:
    return DEFAULT_LIMIT_SINGLE if n_vars == 1 else DEFAULT_LIMIT_MULTI


def full_domain(inputs: tuple[BvVar, ...]) -> RangeVector:
    return tuple(RangePair(v.sort.min_value, v.sort.max_value) for v in inputs)


# ---------------------------------------------------------------------------
# Region containers


@dataclass(frozen=True)
class CertifiedRegion:
    vector: RangeVector
    cert_query: int  # index of the unsat query that certified this region


@dataclass
class RegionSet:
    regions: list[CertifiedRegion] = field(default_factory=list)
    incomplete: bool = False

    def vectors(self) -> list[RangeVector]:
        return [r.vector for r in self.regions]


@dataclass(frozen=True)
class CertifiedInterval:
    interval: RangePair
    cert_query: int


@dataclass
class RegionList:
    per_var: list[list[CertifiedInterval]]
    incomplete: bool = False

    def intervals(self, n: int) -> list[RangePair]:
        return [c.interval for c in self.per_var[n]]

    def eq_bound(self, n: int) -> int:
        return sum(c.interval.size for c in self.per_var[n])


# ---------------------------------------------------------------------------
# Pure range arithmetic


def _ceil_half(a: int) -> int:
    """Ceiling of a/2, rounding toward positive infinity."""
    return -((-a) // 2)


def divide_range(r: RangeVector) -> list[RangeVector]:
    """Split every non-singleton dimension at mid = lo + ceil((hi - lo)/2).

    Returns the cartesian product of per-dimension subranges; their disjoint
    union is exactly the input vector.  Singleton dimensions pass through.
    """
    per_dim: list[list[RangePair]] = []
    for p in r:
        if p.lo == p.hi:
            per_dim.append([p])
            continue
        mid = p.lo + _ceil_half(p.hi - p.lo)
        subs = [RangePair(p.lo, mid)]
        if mid + 1 <= p.hi:
            subs.append(RangePair(mid + 1, p.hi))
        per_dim.append(subs)
    out: list[RangeVector] = [()]
    for subs in per_dim:
        out = [vec + (s,) for vec in out for s in subs]
    return out


def prioritized_divide_range(p: RangePair) -> RangePair:
    """Keep the half of a one-sided partition closer to zero.

    Positive partitions (lo >= 1) shrink the max to ceil(max/2); negative
    partitions (hi <= -1) raise the min to ceil(min/2).
    """
    if p.lo >= 1:
        return RangePair(p.lo, max(p.lo, _ceil_half(p.hi)))
    if p.hi <= -1:
        return RangePair(min(p.hi, _ceil_half(p.lo)), p.hi)
    raise ValueError(f"range {p} straddles zero; not a one-sided partition")


def eq_lower_bound_relational(regions: list[RangeVector]) -> int:
    """Sum of hyper-rectangle volumes (regions must be pairwise disjoint)."""
    total = 0
    for vec in regions:
        volume = 1
        for p in vec:
            volume *= p.size
        total += volume
    return total


def eq_lower_bound_iterative(per_var_intervals: list[list[RangePair]],
                             domain_sizes: list[int]) -> int:
    """Inclusion count for per-variable regions with other variables free.

    Variable n contributes (product of earlier neq bounds) * eq_bound[n] *
    (product of later full domains); the matching formula is rendered by
    render_condition_iterative.
    """
    eq_bounds = [sum(p.size for p in intervals) for intervals in per_var_intervals]
    neq_bounds = [d - e for d, e in zip(domain_sizes, eq_bounds)]
    total = 0
    for n in range(len(domain_sizes)):
        term = eq_bounds[n]
        for k in range(n):
            term *= neq_bounds[k]
        for j in range(n + 1, len(domain_sizes)):
            term *= domain_sizes[j]
        total += term
    return total


def render_condition_relational(variables: tuple[BvVar, ...],
                                regions: list[RangeVector]) -> Formula:
    """Disjunction of hyper-rectangle range constraints."""
    if not regions:
        return FALSE
    return for_(
        [
            mk_range_constraint(variables, [p.lo for p in vec], [p.hi for p in vec])
            for vec in regions
        ]
    )


def render_condition_iterative(variables: tuple[BvVar, ...],
                               per_var_intervals: list[list[RangePair]]) -> Formula:
    """Formula whose model count equals the iterative lower bound.

    Variable n's disjunct requires earlier variables outside their equivalence
    intervals and variable n inside its own; later variables are free.
    """
    memberships = []
    for var, intervals in zip(variables, per_var_intervals):
        memberships.append(
            for_([var_range_constraint(var, p.lo, p.hi) for p in intervals])
            if intervals
            else FALSE
        )
    disjuncts = []
    for n, var in enumerate(variables):
        if not per_var_intervals[n]:
            continue
        parts = [FNot(memberships[k]) for k in range(n)]
        parts.append(memberships[n])
        disjuncts.append(fand(parts))
    return for_(disjuncts) if disjuncts else FALSE


def merge_combined(list_iter: RegionList, list_prio: RegionList) -> tuple[RegionList, list[str]]:
    """Per-variable best of the two iterative strategies; ties keep iterative."""
    merged: list[list[CertifiedInterval]] = []
    sources: list[str] = []
    for n in range(len(list_iter.per_var)):
        if list_iter.eq_bound(n) >= list_prio.eq_bound(n):
            merged.append(list_iter.per_var[n])
            sources.append("iterative")
        else:
            merged.append(list_prio.per_var[n])
            sources.append("iterativePriority")
    return (
        RegionList(merged, incomplete=list_iter.incomplete or list_prio.incomplete),
        sources,
    )


# ---------------------------------------------------------------------------
# The solver-backed search


class _BudgetExhausted(Exception):
    pass


@dataclass
class QuantResult:
    """Quantification outcome of one range-search run."""

    method: str
    regions: RegionSet | RegionList
    eq_lower_bound: int
    eq_percent_lower_bound: Fraction
    condition: Formula
    solver_calls: int
    elapsed: float
    incomplete: bool
    per_var_source: list[str] | None = None  # combined: which method won per var


class RangeSearch:
    """Shared solver session, budget, and counters for one pair analysis."""

    def __init__(self, s1: Summary, s2: Summary, cfg: SolverConfig,
                 budget: Budget | None = None):
        require_same_interface(s1, s2)
        require_agreeing_vars(s1.formula, s2.formula)
        self.s1 = s1
        self.s2 = s2
        self.cfg = cfg
        self.budget = budget or Budget(cfg.budget_ms)
        self.variables = s1.inputs
        self.session: SolverSession | None = None
        self.query_count = 0
        self.incomplete = False

    # --- session/query plumbing ---

    def _session_ok(self) -> SolverSession:
        if self.session is None or self.session.dead:
            self.session = SolverSession(self.cfg, self.s1.decls)
            for ref, summary in zip(SUMMARIES, (self.s1, self.s2)):
                self.session.define(ref.name, summary.formula)
        return self.session

    def close(self):
        if self.session is not None:
            self.session.close()
            self.session = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _range_formula(self, var_subset: tuple[BvVar, ...], vec: RangeVector) -> Formula:
        return mk_range_constraint(
            var_subset, [p.lo for p in vec], [p.hi for p in vec]
        )

    def _query(self, formulas: list[Formula]) -> str:
        if self.budget.expired:
            raise _BudgetExhausted
        session = self._session_ok()
        session.push()
        try:
            for f in formulas:
                session.assert_formula(f)
            verdict = session.check_sat()
        finally:
            if not session.dead:
                session.pop()
        self.query_count += 1
        return verdict

    def check_equiv(self, var_subset: tuple[BvVar, ...], vec: RangeVector) -> str:
        """unsat means: the pair is equivalent on this range."""
        rng = self._range_formula(var_subset, vec)
        negated = FNot(iff_under_range(*SUMMARIES, rng))
        # The extra range conjunct is implied by the negated biconditional and
        # lets the solver fold interval facts without changing sat/unsat.
        return self._query([negated, rng])

    def check_conjunction(self, var_subset: tuple[BvVar, ...], vec: RangeVector) -> str:
        """unsat means: the pair is totally non-equivalent on this range."""
        rng = self._range_formula(var_subset, vec)
        return self._query([*SUMMARIES, rng])

    def classify_range(self, var_subset: tuple[BvVar, ...], vec: RangeVector) -> str:
        verdict = self.check_equiv(var_subset, vec)
        if verdict == "unsat":
            return "eq"
        if verdict == "unknown":
            return "unknown"
        verdict = self.check_conjunction(var_subset, vec)
        if verdict == "sat":
            return "partial"
        if verdict == "unsat":
            return "neq"
        return "unknown"

    # --- relational search (recursive bisection of the full vector) ---

    def relational(self, r: RangeVector | None = None, limit: int | None = None) -> RegionSet:
        r = r or full_domain(self.variables)
        limit = default_limit(len(self.variables)) if limit is None else limit
        out = RegionSet()
        try:
            status = self.classify_range(self.variables, r)
            if status == "eq":
                out.regions.append(CertifiedRegion(r, self.query_count))
                return out
            if status != "partial":
                return out
            self._relational_recurse(r, 0, limit, out)
        except _BudgetExhausted:
            out.incomplete = True
            self.incomplete = True
        return out

    def _relational_recurse(self, r: RangeVector, depth: int, limit: int, out: RegionSet):
        if depth == limit:
            return
        subs = divide_range(r)
        if subs == [r]:
            return  # nothing left to split; r itself was already classified
        for sub in subs:
            status = self.classify_range(self.variables, sub)
            if status == "eq":
                out.regions.append(CertifiedRegion(sub, self.query_count))
            elif status == "partial":
                self._relational_recurse(sub, depth + 1, limit, out)

    # --- iterative search (one variable at a time) ---

    def iterative(self, r: RangeVector | None = None, limit: int | None = None) -> RegionList:
        r = r or full_domain(self.variables)
        limit = default_limit(len(self.variables)) if limit is None else limit
        per_var: list[list[CertifiedInterval]] = []
        incomplete = False
        for n, var in enumerate(self.variables):
            found: list[CertifiedInterval] = []
            try:
                self._iterative_var(var, (r[n],), 0, limit, found, first=True)
            except _BudgetExhausted:
                incomplete = True
                self.incomplete = True
                per_var.append(found)
                per_var.extend([] for _ in range(n + 1, len(self.variables)))
                return RegionList(per_var, incomplete=True)
            per_var.append(found)
        return RegionList(per_var, incomplete=incomplete)

    def _iterative_var(self, var: BvVar, vec: RangeVector, depth: int, limit: int,
                       found: list[CertifiedInterval], first: bool = False):
        if first:
            status = self.classify_range((var,), vec)
            if status == "eq":
                found.append(CertifiedInterval(vec[0], self.query_count))
                return
            if status != "partial":
                return
            self._iterative_var(var, vec, 0, limit, found)
            return
        if depth == limit:
            return
        subs = divide_range(vec)
        if subs == [vec]:
            return
        for sub in subs:
            status = self.classify_range((var,), sub)
            if status == "eq":
                found.append(CertifiedInterval(sub[0], self.query_count))
            elif status == "partial":
                self._iterative_var(var, sub, depth + 1, limit, found)

    # --- priority search ---

    def priority(self, var: BvVar, partition: RangePair,
                 found: list[CertifiedInterval], frontier: int | None = None):
        """Shrink one one-sided partition toward zero until it certifies.

        On success the certified interval is widened back toward the most
        recently discarded half by certified binary search, then recorded.
        """
        verdict = self.check_equiv((var,), (partition,))
        if verdict == "unsat":
            widened = self.expand_boundary(var, partition, frontier)
            found.append(CertifiedInterval(widened, self.query_count))
            return
        if verdict == "unknown":
            return
        if partition.hi <= partition.lo:
            return
        conj = self.check_conjunction((var,), (partition,))
        if conj != "sat":
            return
        shrunk = prioritized_divide_range(partition)
        if shrunk == partition:
            return
        next_frontier = partition.hi if partition.lo >= 1 else partition.lo
        self.priority(var, shrunk, found, next_frontier)

    def expand_boundary(self, var: BvVar, found: RangePair,
                        frontier: int | None) -> RangePair:
        """Certified binary search from the found edge toward the frontier."""
        if frontier is None:
            return found
        if found.lo >= 1:
            lo, hi = found.hi, frontier  # (found.lo, frontier) is known not-eq
            while hi - lo > 1:
                mid = lo + (hi - lo) // 2
                verdict = self.check_equiv((var,), (RangePair(found.lo, mid),))
                if verdict == "unsat":
                    lo = mid
                elif verdict == "sat":
                    hi = mid
                else:
                    break  # unknown probe: keep the last certified boundary
            return RangePair(found.lo, lo)
        lo, hi = frontier, found.lo
        while hi - lo > 1:
            mid = lo + (hi - lo) // 2
            verdict = self.check_equiv((var,), (RangePair(mid, found.hi),))
            if verdict == "unsat":
                hi = mid
            elif verdict == "sat":
                lo = mid
            else:
                break
        return RangePair(hi, found.hi)

    def _partitions(self, var: BvVar, p: RangePair) -> list[RangePair]:
        out = []
        if p.hi >= 1:
            out.append(RangePair(max(p.lo, 1), p.hi))
        if var.sort.signed and p.lo <= -1:
            out.append(RangePair(p.lo, min(p.hi, -1)))
        if p.lo <= 0 <= p.hi:
            out.append(RangePair(0, 0))
        return out

    def iterative_priority(self, r: RangeVector | None = None) -> RegionList:
        r = r or full_domain(self.variables)
        per_var: list[list[CertifiedInterval]] = []
        incomplete = False
        for n, var in enumerate(self.variables):
            found: list[CertifiedInterval] = []
            try:
                for partition in self._partitions(var, r[n]):
                    self.priority(var, partition, found)
            except _BudgetExhausted:
                incomplete = True
                self.incomplete = True
                per_var.append(found)
                per_var.extend([] for _ in range(n + 1, len(self.variables)))
                return RegionList(per_var, incomplete=True)
            per_var.append(found)
        return RegionList(per_var, incomplete=incomplete)

    # --- combined ---

    def combined(self, r: RangeVector | None = None,
                 limit: int | None = None) -> tuple[RegionList, list[str]]:
        """Best per-variable bound of iterative vs iterative priority.

        Ties keep the iterative entry.  Returns the merged list and the
        winning method name per variable.
        """
        list_iter = self.iterative(r, limit)
        list_prio = self.iterative_priority(r)
        return merge_combined(list_iter, list_prio)

    # --- entry point producing a full quantification result ---

    def run(self, method: str, r: RangeVector | None = None,
            limit: int | None = None) -> QuantResult:
        start = time.monotonic()
        domain_sizes = [v.sort.domain_size for v in self.variables]
        domain_total = 1
        for d in domain_sizes:
            domain_total *= d
        sources = None
        if method == "relational":
            region_set = self.relational(r, limit)
            bound = eq_lower_bound_relational(region_set.vectors())
            condition = render_condition_relational(self.variables, region_set.vectors())
            regions: RegionSet | RegionList = region_set
        else:
            if method == "iterative":
                region_list = self.iterative(r, limit)
            elif method == "priority":
                region_list = self.iterative_priority(r)
            elif method == "combined":
                region_list, sources = self.combined(r, limit)
            else:
                raise ValueError(f"unknown method {method!r}")
            intervals = [region_list.intervals(n) for n in range(len(self.variables))]
            bound = eq_lower_bound_iterative(intervals, domain_sizes)
            condition = render_condition_iterative(self.variables, intervals)
            regions = region_list
        return QuantResult(
            method=method,
            regions=regions,
            eq_lower_bound=bound,
            eq_percent_lower_bound=Fraction(100 * bound, domain_total),
            condition=condition,
            solver_calls=self.query_count,
            elapsed=time.monotonic() - start,
            incomplete=regions.incomplete,
            per_var_source=sources,
        )
