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

Every satisfiability check of an analysis goes through ``RangeSearch._check``:
the classifier's two checks over the full domain and every range check.  Before
one goes to the solver, both summaries' compiled evaluators (``Summary.outputs``)
run at a few points of the range: its two ends, its midpoint and RANDOM_POINTS
more drawn from a seed fixed by the range.  A point where the summaries allow
different outputs is a model of the equivalence check, and one where they share
an output is a model of the conjunction check.  Path-pair boxes
(``regions.decide``) then answer both ways: a box where two exact paths meet with
different (equal) return terms proves the equivalence (conjunction) check sat,
and when every pair meeting the range has exact boxes and agrees (differs)
everywhere on them, it proves the check unsat.  This is differential symbolic
execution's path-pair reasoning (Person, Dwyer, Elbaum & Pasareanu, FSE 2008).
The solver answers the rest, so an analysis whose checks points and boxes all
answer starts no solver process.  ``query_count``, and so ``solver_calls``,
counts only solver queries; ``range_checks`` counts the checks each of the
three answered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import bvarith, regions
from .formula import (
    BvVar, Formula, FIff, FName, FNot, FALSE, RangePair, fand, for_, mk_range_constraint,
    var_range_constraint,
)
from .oracle import Budget, SolverConfig, SolverSession
from .summarizer import Summary, require_same_interface

RangeVector = tuple[RangePair, ...]

# Each session defines the two summaries once under these names; minilang
# identifiers cannot contain "!", so they never collide with a variable.
SUMMARIES = (FName("summary!1"), FName("summary!2"))

DEFAULT_LIMIT_SINGLE = 8
DEFAULT_LIMIT_MULTI = 4

# Seeded points evaluated per range, besides its two ends and its midpoint.
RANDOM_POINTS = 8


def default_limit(n_vars: int) -> int:
    return DEFAULT_LIMIT_SINGLE if n_vars == 1 else DEFAULT_LIMIT_MULTI


def full_domain(inputs: tuple[BvVar, ...]) -> RangeVector:
    return tuple(RangePair(v.sort.min_value, v.sort.max_value) for v in inputs)


# ---------------------------------------------------------------------------
# Region containers


@dataclass
class RegionSet:
    regions: list[RangeVector] = field(default_factory=list)  # certified range vectors
    incomplete: bool = False

    def vectors(self) -> list[RangeVector]:
        return self.regions


@dataclass
class RegionList:
    per_var: list[list[RangeVector]]  # certified one-variable vectors of each variable
    incomplete: bool = False

    def intervals(self, n: int) -> list[RangePair]:
        return [vec[0] for vec in self.per_var[n]]

    def eq_bound(self, n: int) -> int:
        return sum(p.size for p in self.intervals(n))


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
    merged: list[list[RangeVector]] = []
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


class BudgetExhausted(Exception):
    """The analysis budget ran out before a query could be sent."""


@dataclass
class QuantResult:
    """Quantification outcome of one range-search run."""

    eq_lower_bound: int
    condition: Formula
    solver_calls: int
    incomplete: bool
    per_var_source: list[str] | None = None  # combined: which method won per var


class RangeSearch:
    """Shared solver session, budget, and counters for one pair analysis."""

    def __init__(self, s1: Summary, s2: Summary, cfg: SolverConfig,
                 budget: Budget | None = None):
        require_same_interface(s1, s2)
        self.s1 = s1
        self.s2 = s2
        self.cfg = cfg
        self.budget = budget or Budget(cfg.budget_ms)
        self.variables = s1.inputs
        self.session: SolverSession | None = None
        self.query_count = 0
        self.range_checks = {"points": 0, "regions": 0, "solver": 0}
        # the last sampled range and what its points decided, and the last range the
        # boxes decided; classify_range and priority ask both checks of one range in a row
        self._last_sample: tuple | None = None
        self._last_region: tuple | None = None

    # --- session/query plumbing ---

    def live_session(self) -> SolverSession:
        """This search's session, both summaries defined; a dead one is replaced.

        Callers may push a scope of their own on it and must pop it again.  Raises
        BudgetExhausted, starting no solver, once the budget has run out.
        """
        if self.session is None or self.session.dead:
            if self.budget.expired:
                raise BudgetExhausted
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

    def query(self, formulas: list[Formula],
              model_vars: tuple[BvVar, ...] = ()) -> tuple[str, dict[str, int] | None]:
        """Check ``formulas`` in a push/pop scope over the defined summaries.

        On sat the values of ``model_vars`` are read before the pop; the model
        is None when none were asked for or the solver failed to give them.
        A solver that dies before it answers gives unknown.  Raises
        BudgetExhausted, sending nothing, once the budget has run out.
        """
        if self.budget.expired:
            raise BudgetExhausted
        self.query_count += 1
        model = None
        session = self.live_session()
        session.push()
        try:
            for f in formulas:
                session.assert_formula(f)
            verdict = session.check_sat()
            if verdict == "sat" and model_vars:
                model = session.get_values(list(model_vars))
        finally:
            session.pop()
        return verdict, model

    def _sample(self, var_subset: tuple[BvVar, ...], vec: RangeVector):
        """The range's ends, midpoint and seeded points, as input environments.

        The seed is the range's repr, not its hash, so every process draws the
        same points.  Inputs outside ``var_subset`` come from the same stream.
        """
        rand = random.Random(repr((tuple(v.name for v in var_subset), vec)))
        bounds = dict(zip(var_subset, vec))
        for k in range(3 + RANDOM_POINTS):
            env = {}
            for var in self.variables:
                p = bounds.get(var)
                if p is None:
                    value = rand.randint(var.sort.min_value, var.sort.max_value)
                elif k < 3:
                    value = (p.lo, p.hi, p.lo + (p.hi - p.lo) // 2)[k]
                else:
                    value = rand.randint(p.lo, p.hi)
                env[var.name] = bvarith.to_unsigned(value, var.sort.width)
            yield env

    def _points_decide(self, var_subset: tuple[BvVar, ...],
                       vec: RangeVector) -> dict[str, dict[str, int]]:
        """The first sampled point where the summaries differ ("neq") and the first where
        they share an output ("eq"), as unsigned environments.

        A diverging point is a model of check_equiv's query, a shared output one of
        check_conjunction's.  Raises BudgetExhausted, evaluating nothing, once the
        budget has run out.
        """
        if self.budget.expired:
            raise BudgetExhausted
        key = (var_subset, vec)
        if self._last_sample is None or self._last_sample[0] != key:
            found: dict[str, dict[str, int]] = {}
            for env in self._sample(var_subset, vec):
                y1, y2 = self.s1.outputs(env), self.s2.outputs(env)
                if y1 != y2:
                    found.setdefault("neq", env)
                if y1 & y2:
                    found.setdefault("eq", env)
                if len(found) == 2:
                    break
            self._last_sample = (key, found)
        return self._last_sample[1]

    def _regions_decide(self, var_subset: tuple[BvVar, ...],
                        vec: RangeVector) -> tuple[str | None, dict[str, regions.Box]]:
        """What ``regions.decide`` says of both summaries over the range."""
        key = (var_subset, vec)
        if self._last_region is None or self._last_region[0] != key:
            box = regions.range_box(var_subset, vec)
            self._last_region = (key, regions.decide(box, self.s1.boxes, self.s2.boxes))
        return self._last_region[1]

    def _check(self, var_subset: tuple[BvVar, ...], vec: RangeVector, sat_on: str,
               formulas: list[Formula], model: dict[str, int] | None = None) -> str:
        """Whether the range has a point where the summaries ``sat_on`` ("neq" or "eq"):
        a sampled point or a path-pair box answers sat, the boxes' whole-range verdict
        unsat, and the solver the rest, with no range constraint for a full range.  On
        sat, ``model`` (when given) gets that point, each input in its sort's reading."""
        point = self._points_decide(var_subset, vec).get(sat_on)
        sampled = point is not None
        verdict, boxes = (None, {}) if sampled else self._regions_decide(var_subset, vec)
        if sampled or sat_on in boxes:
            answer, by = "sat", "points" if sampled else "regions"
            if model is not None:  # a sampled point reads as a one-point box
                box = {v: [(point[v.name], point[v.name])] for v in self.variables
                       } if sampled else boxes[sat_on]
                model.update(zip((v.name for v in self.variables),
                                 regions.points(box, self.variables, 1)[0]))
        elif verdict:
            answer, by = "unsat", "regions"
        else:
            rng = [] if vec == full_domain(var_subset) else [
                mk_range_constraint(var_subset, [p.lo for p in vec], [p.hi for p in vec])]
            answer, values = self.query([*formulas, *rng], self.variables if model is not None else ())
            by = "solver"
            if model is not None and values:
                model.update(values)
        self.range_checks[by] += 1
        return answer

    def check_equiv(self, var_subset: tuple[BvVar, ...], vec: RangeVector,
                    model: dict[str, int] | None = None) -> str:
        """unsat means: the pair is equivalent on this range; on sat ``model`` gets a
        diverging input."""
        return self._check(var_subset, vec, "neq", [FNot(FIff(*SUMMARIES))], model)

    def check_conjunction(self, var_subset: tuple[BvVar, ...], vec: RangeVector) -> str:
        """unsat means: the pair is totally non-equivalent on this range."""
        return self._check(var_subset, vec, "eq", [*SUMMARIES])

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

    def _bisect(self, var_subset: tuple[BvVar, ...], vec: RangeVector, depth: int,
                limit: int, found: list[RangeVector]):
        """Certify ``vec`` as equivalent, or split it and recurse while partial."""
        status = self.classify_range(var_subset, vec)
        if status == "eq":
            found.append(vec)
        elif status == "partial" and depth != limit:
            subs = divide_range(vec)
            if subs != [vec]:  # a vector of singletons cannot be split
                for sub in subs:
                    self._bisect(var_subset, sub, depth + 1, limit, found)

    # --- relational search (bisection of all variables at once) ---

    def relational(self, limit: int | None = None) -> RegionSet:
        limit = default_limit(len(self.variables)) if limit is None else limit
        out = RegionSet()
        try:
            self._bisect(self.variables, full_domain(self.variables), 0, limit, out.regions)
        except BudgetExhausted:
            out.incomplete = True
        return out

    # --- per-variable searches (one variable at a time, the others free) ---

    def _per_variable(self, search_var) -> RegionList:
        """Call ``search_var(n, var, found)`` for each variable in turn.

        Budget expiry keeps what the interrupted variable had found and leaves
        the later variables empty.
        """
        per_var: list[list[RangeVector]] = [[] for _ in self.variables]
        for n, var in enumerate(self.variables):
            try:
                search_var(n, var, per_var[n])
            except BudgetExhausted:
                return RegionList(per_var, incomplete=True)
        return RegionList(per_var)

    def iterative(self, limit: int | None = None) -> RegionList:
        limit = default_limit(len(self.variables)) if limit is None else limit
        return self._per_variable(
            lambda n, var, found: self._bisect((var,), full_domain((var,)), 0, limit, found))

    # --- priority search ---

    def priority(self, var: BvVar, partition: RangePair,
                 found: list[RangeVector], frontier: int | None = None):
        """Shrink one one-sided partition toward zero until it certifies.

        On success the certified interval is widened back toward the most
        recently discarded half by certified binary search, then recorded.
        """
        verdict = self.check_equiv((var,), (partition,))
        if verdict == "unsat":
            widened = self.expand_boundary(var, partition, frontier)
            found.append((widened,))
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
        # the moving edge is certified out to ``good``; out to ``bad`` is known not-eq
        positive = found.lo >= 1
        good, bad = (found.hi if positive else found.lo), frontier

        def widened(edge: int) -> RangePair:
            return RangePair(found.lo, edge) if positive else RangePair(edge, found.hi)

        while abs(bad - good) > 1:
            mid = good + (bad - good) // 2
            verdict = self.check_equiv((var,), (widened(mid),))
            if verdict == "unsat":
                good = mid
            elif verdict == "sat":
                bad = mid
            else:
                break  # unknown probe: keep the last certified boundary
        return widened(good)

    def _partitions(self, var: BvVar) -> list[RangePair]:
        """The domain's positive part, its negative part (signed sorts) and zero."""
        out = [RangePair(1, var.sort.max_value)]
        if var.sort.signed:
            out.append(RangePair(var.sort.min_value, -1))
        return out + [RangePair(0, 0)]

    def iterative_priority(self) -> RegionList:
        def search_var(n: int, var: BvVar, found: list[RangeVector]):
            for partition in self._partitions(var):
                self.priority(var, partition, found)

        return self._per_variable(search_var)

    # --- combined ---

    def combined(self, limit: int | None = None) -> tuple[RegionList, list[str]]:
        """Best per-variable bound of iterative vs iterative priority.

        Ties keep the iterative entry.  Returns the merged list and the
        winning method name per variable.
        """
        list_iter = self.iterative(limit)
        list_prio = self.iterative_priority()
        return merge_combined(list_iter, list_prio)

    # --- entry point producing a full quantification result ---

    def run(self, method: str, limit: int | None = None) -> QuantResult:
        """Quantify with ``method``; ``solver_calls`` counts this run's queries only."""
        first_query = self.query_count
        sources = None
        if method == "relational":
            region_set = self.relational(limit)
            bound = eq_lower_bound_relational(region_set.vectors())
            condition = render_condition_relational(self.variables, region_set.vectors())
            incomplete = region_set.incomplete
        else:
            if method == "iterative":
                region_list = self.iterative(limit)
            elif method == "priority":
                region_list = self.iterative_priority()
            elif method == "combined":
                region_list, sources = self.combined(limit)
            else:
                raise ValueError(f"unknown method {method!r}")
            intervals = [region_list.intervals(n) for n in range(len(self.variables))]
            bound = eq_lower_bound_iterative(intervals, [v.sort.domain_size for v in self.variables])
            condition = render_condition_iterative(self.variables, intervals)
            incomplete = region_list.incomplete
        return QuantResult(
            eq_lower_bound=bound,
            condition=condition,
            solver_calls=self.query_count - first_query,
            incomplete=incomplete,
            per_var_source=sources,
        )
