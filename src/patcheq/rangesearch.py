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
flagged incomplete.  Every method's result is a list of disjoint boxes
(``RegionSet.boxes``, ``RegionList.boxes``), counted by the sum of their
``regions.volume`` (Geldenhuys, Dwyer & Visser, ISSTA 2012) and rendered as the
disjunction of their ``regions.box_formula``, in exact big-integer arithmetic.

Every satisfiability check of an analysis goes through ``RangeSearch._check``:
the classifier's two checks over the full domain and every range check.  Before
one goes to the solver, both summaries' compiled evaluators (``Summary.at``) run
at a few points of the range: its two ends, its midpoint and RANDOM_POINTS more
drawn from a seed fixed by the range.  Each point lies on one path of each
version, so the summaries give one output each there: a point where the two
differ is a model of the equivalence check, and one where they agree is a model
of the conjunction check.  Path-pair boxes
(``regions.decide``) then answer both ways: a box where two exact paths meet with
different (equal) return terms proves the equivalence (conjunction) check sat,
and when every pair meeting the range has exact boxes and agrees (differs)
everywhere on them, it proves the check unsat.  This is differential symbolic
execution's path-pair reasoning (Person, Dwyer, Elbaum & Pasareanu, FSE 2008).
The solver answers the rest, so an analysis whose checks points and boxes all
answer starts no solver process.  A ``RangeRecord`` keeps the last range's
answers, so each check of a range is answered, and counted in ``range_checks``
by who answered it, once; every model is the least point of a box.
``query_count``, and so ``solver_calls``, counts only solver queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import bvarith, regions
from .formula import BvVar, Formula, FIff, FName, FNot, RangePair, for_, mk_range_constraint
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

# Each check's solver query, by the outcome that makes it sat: check_equiv's "neq"
# (the summaries differ) and check_conjunction's "eq" (they share an output).
CHECKS = {"neq": [FNot(FIff(*SUMMARIES))], "eq": [*SUMMARIES]}


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

    def boxes(self, inputs: tuple[BvVar, ...]) -> list[regions.Box]:
        """Each certified vector as a box; bisection leaves them disjoint."""
        return [regions.range_box(inputs, vec) for vec in self.regions]


@dataclass
class RegionList:
    per_var: list[list[RangeVector]]  # certified one-variable vectors of each variable
    incomplete: bool = False

    def intervals(self, n: int) -> list[RangePair]:
        return [vec[0] for vec in self.per_var[n]]

    def eq_bound(self, n: int) -> int:
        return sum(p.size for p in self.intervals(n))

    def boxes(self, inputs: tuple[BvVar, ...]) -> list[regions.Box]:
        """Box n holds input n in its merged intervals and each earlier input outside its
        own, the later inputs free; empty boxes are dropped.  The boxes are disjoint, and
        box n's volume is the term ``eq_lower_bound_iterative`` adds for n."""
        sets = [regions.normal(iv for vec in vecs for iv in regions.range_box((x,), vec)[x])
                for x, vecs in zip(inputs, self.per_var)]
        out = []
        for n, x in enumerate(inputs):
            box = {y: regions.complement(ivs, y.sort.width) for y, ivs in zip(inputs[:n], sets)}
            box[x] = sets[n]
            if not regions.is_empty(box):
                out.append(box)
        return out


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
    (product of later full domains), the volume of ``RegionList.boxes``' box n;
    tests check the boxes against this closed form.
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


@dataclass(slots=True)
class RangeRecord:
    """One range's checks: by outcome, the first sampled point showing it and the answer
    given, its proof of a sat (a point or a box) and who gave it; ``decide``'s once asked."""

    key: tuple
    points: dict[str, dict[str, int]]
    answers: dict[str, tuple] = field(default_factory=dict)
    decided: tuple[str | None, dict[str, regions.Box]] | None = None


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
        self._last: RangeRecord | None = None  # the range checked last, often checked again

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

    def _record(self, var_subset: tuple[BvVar, ...], vec: RangeVector) -> RangeRecord:
        """The last range's record if this is that range, else a new one holding the first
        sampled point where the summaries' outputs differ and the first where they agree."""
        key = (var_subset, vec)
        if self._last is None or self._last.key != key:
            found: dict[str, dict[str, int]] = {}
            for env in self._sample(var_subset, vec):
                same = self.s1.at(env)[1] == self.s2.at(env)[1]
                found.setdefault("eq" if same else "neq", env)
                if len(found) == 2:
                    break
            self._last = RangeRecord(key, found)
        return self._last

    def _check(self, var_subset: tuple[BvVar, ...], vec: RangeVector, sat_on: str,
               model: dict[str, int] | None = None) -> str:
        """Whether the range has a point where the summaries ``sat_on`` ("neq" or "eq").

        A sampled point or a path-pair box answers sat, the boxes' whole-range verdict
        unsat, and the solver the rest (``CHECKS[sat_on]``, with no range constraint for a
        full range), once a range unless a model is asked of a sat that has none.  On sat,
        ``model`` (when given) gets the least point of the box, or one-point box, proving
        it, in each sort's reading.  Raises BudgetExhausted once the budget has run out.
        """
        if self.budget.expired:
            raise BudgetExhausted
        record = self._record(var_subset, vec)
        answer, proof, by = record.answers.get(sat_on, (None, None, None))
        if answer is None or (model is not None and answer == "sat" and proof is None):
            verdict, proofs, by = None, record.points, "points"
            if sat_on not in proofs:
                record.decided = record.decided or regions.decide(
                    regions.range_box(var_subset, vec), self.s1.paths, self.s2.paths)
                (verdict, proofs), by = record.decided, "regions"
            if sat_on in proofs:
                answer, proof = "sat", proofs[sat_on]
            elif verdict:
                answer, proof = "unsat", None
            else:
                rng = [] if vec == full_domain(var_subset) else [
                    mk_range_constraint(var_subset, [p.lo for p in vec], [p.hi for p in vec])]
                want = self.variables if model is not None else ()
                (answer, proof), by = self.query([*CHECKS[sat_on], *rng], want), "solver"
            record.answers[sat_on] = answer, proof, by
            self.range_checks[by] += 1
        if model is not None and proof is not None:
            box = proof if by == "regions" else regions.point_box(self.variables, proof)
            model.update(zip((v.name for v in self.variables),
                             regions.points(box, self.variables, 1)[0]))
        return answer

    def check_equiv(self, var_subset: tuple[BvVar, ...], vec: RangeVector,
                    model: dict[str, int] | None = None) -> str:
        """unsat means: the pair is equivalent on this range; on sat ``model`` gets a
        diverging input."""
        return self._check(var_subset, vec, "neq", model)

    def check_conjunction(self, var_subset: tuple[BvVar, ...], vec: RangeVector) -> str:
        """unsat means: the pair is totally non-equivalent on this range."""
        return self._check(var_subset, vec, "eq")

    def classify_range(self, var_subset: tuple[BvVar, ...], vec: RangeVector,
                       witness: dict[str, int] | None = None) -> str:
        """"eq", "neq" or "partial" as the pair is equivalent, totally non-equivalent or
        partially equivalent on the range, else "unknown".  ``witness`` (when given) gets
        a diverging input; a sat that gives none reads "unknown"."""
        verdict = self.check_equiv(var_subset, vec, witness)
        if verdict == "unsat":
            return "eq"
        if verdict == "unknown" or (witness is not None and len(witness) < len(self.variables)):
            return "unknown"
        return {"sat": "partial", "unsat": "neq"}.get(self.check_conjunction(var_subset, vec),
                                                      "unknown")

    def _bisect(self, var_subset: tuple[BvVar, ...], vec: RangeVector, depth: int,
                limit: int, found: list[RangeVector]):
        """Certify ``vec`` as equivalent, or split it and recurse while partial."""
        status = self.classify_range(var_subset, vec)
        if status == "eq":
            found.append(vec)
        elif status == "partial" and depth != limit:
            subs = divide_range(vec)
            if subs != [vec]:  # one- and two-value ranges come back whole
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

    # --- entry point producing a full quantification result ---

    def run(self, method: str, limit: int | None = None) -> QuantResult:
        """Quantify with ``method``; ``solver_calls`` counts this run's queries only."""
        first_query = self.query_count
        sources = None
        if method == "relational":
            found = self.relational(limit)
        elif method == "iterative":
            found = self.iterative(limit)
        elif method == "priority":
            found = self.iterative_priority()
        elif method == "combined":
            found, sources = merge_combined(self.iterative(limit), self.iterative_priority())
        else:
            raise ValueError(f"unknown method {method!r}")
        boxes = found.boxes(self.variables)
        return QuantResult(
            eq_lower_bound=sum(regions.volume(b, self.variables) for b in boxes),
            condition=for_(regions.box_formula(b, self.variables) for b in boxes),
            solver_calls=self.query_count - first_query,
            incomplete=found.incomplete,
            per_var_source=sources,
        )
