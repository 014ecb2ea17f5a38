"""The benchmark's three workloads: inputs, the work per analysis, and checks.

Every workload is a fixed pool of items; the seed only orders its passes
(and, on corpus, picks the sample points of the checks).  ``analyze``
runs one item through patcheq's public pipeline and returns what the checks
need; ``check`` compares that against an answer the program did not compute
in the timed region.  Checks never run inside a timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from patcheq import (
    bvarith, classifier, enumcount, formula, minilang, randgen, report, summarizer,
)
from patcheq.classifier import Verdict
from patcheq.rangesearch import (
    RangeSearch, eq_lower_bound_iterative, eq_lower_bound_relational, merge_combined,
)

import paths16

# random8 takes the first RANDOM8_PAIRS draws of this fixed stream, unfiltered.
# The gate's own stream (0xC0FFEE) opens with a 17 s, 255-model enumeration
# that would be four fifths of any pass short enough for one run.
RANDOM8_STREAM = 11
RANDOM8_PAIRS = 20
# The property gate (test_criterion_8) enumerates a partially equivalent pair
# only when one side has at most this many inputs; random8 keeps that rule.
GATE_ENUM_CAP = 128
# paths16 is generated from this fixed stream, with k guards per pair.
PATHS16_STREAM = 16
PATHS16_KS = (3, 4, 5, 4)
CORPUS_SAMPLES = 160


@dataclass
class Item:
    """One input of a workload: a program pair plus what its checks need."""

    name: str
    description: str  # how to reproduce it, printed with any failure
    payload: object
    truth: object = None  # filled by ``Workload.truth`` outside timed regions


@dataclass
class Outcome:
    """What one analysis reported, in the form the checks and metrics use."""

    verdict: Verdict
    solver_calls: int
    incomplete: bool
    eq_bound: int | None  # the reported equivalence lower bound
    verdict_at: float  # perf_counter when the classifier answered
    detail: object = None


def _verdict_of(eq_count: int, domain: int) -> Verdict:
    if eq_count == domain:
        return Verdict.T_EQ
    if eq_count == 0:
        return Verdict.T_NEQ
    return Verdict.P_EQ


class VerdictClock:
    """Remembers when ``report.analyze_pair`` got its classifier verdict."""

    def __init__(self):
        self.at = 0.0
        self._original = None

    def install(self):
        self._original = original = report.eq_check

        def eq_check(*args, **kwargs):
            result = original(*args, **kwargs)
            self.at = time.perf_counter()
            return result

        report.eq_check = eq_check

    def uninstall(self):
        report.eq_check = self._original


# ---------------------------------------------------------------------------
# corpus


class Corpus:
    """The bundled CVE/EqBench/Juliet pairs, each with its manifest's method."""

    name = "corpus"

    def __init__(self, root: Path, workdir: Path):
        self.clock = VerdictClock()
        manifests = sorted((root / "corpus").rglob("*.case"))
        self.items = [
            Item(case.name, f"corpus case {case.path.parent.name}/{case.path.name}", case)
            for case in map(report.load_case, manifests)
        ]

    def truth(self, items: list[Item]):
        """Only exact manifest counts are known; 32-bit domains rule out brute force."""
        for item in items:
            exp = item.payload.expectations
            if "expect_exact_eq_count" in exp:
                params = report.load_function(item.payload.original).params
                domain = 1
                for _, sort in params:
                    domain *= sort.domain_size
                item.truth = Truth(int(exp["expect_exact_eq_count"]), domain)

    def analyze(self, item: Item, cfg) -> Outcome:
        case = item.payload
        self.clock.install()
        try:
            rep = report.analyze_pair(case.name, case.original, case.patched, case.method,
                                      cfg, depth_limit=case.depth_limit)
        finally:
            self.clock.uninstall()
        return Outcome(rep.verdict, rep.solver_calls, rep.incomplete, rep.eq_lower_bound,
                       self.clock.at, detail=rep)

    def check(self, item: Item, out: Outcome, rng: random.Random) -> list[str]:
        case, rep = item.payload, out.detail
        failures = report.check_expectations(case, rep, method_overridden=False)
        f1 = report.load_function(case.original)
        f2 = report.load_function(case.patched)
        if rep.verdict is Verdict.P_EQ and rep.witness is not None:
            point = [rep.witness[name] for name, _ in f1.params]
            if summarizer.eval_concrete(f1, point) == summarizer.eval_concrete(f2, point):
                failures.append(f"witness {point} does not diverge")
        for point in rep.neq_models or []:
            if summarizer.eval_concrete(f1, point) == summarizer.eval_concrete(f2, point):
                failures.append(f"diverging model {list(point)} agrees")
        failures += _check_condition_samples(f1, f2, rep.condition, rng)
        return failures


def _constants(node, out: set[int]):
    """Every constant in a condition formula, as raw unsigned values."""
    if isinstance(node, formula.TConst):
        out.add(node.value)
        return
    if isinstance(node, (tuple, list)):
        for x in node:
            _constants(x, out)
        return
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            _constants(getattr(node, f.name), out)


def _check_condition_samples(f1, f2, condition, rng: random.Random) -> list[str]:
    """Seeded inputs that satisfy the reported condition must agree.

    Candidates are random inputs plus every constant of the condition and
    its neighbours, so narrow certified intervals are sampled too.
    """
    sorts = [sort for _, sort in f1.params]
    names = [name for name, _ in f1.params]
    consts: set[int] = set()
    _constants(condition, consts)
    per_var = []
    for sort in sorts:
        m = bvarith.mask(sort.width)
        values = {0, 1, m, m >> 1, (m >> 1) + 1}
        values |= {(c + d) & m for c in consts for d in (-1, 0, 1)}
        values |= {rng.randrange(m + 1) for _ in range(CORPUS_SAMPLES)}
        per_var.append(sorted(values))
    if len(per_var) == 1:
        points = [(v,) for v in per_var[0]]
    else:
        points = [tuple(rng.choice(vs) for vs in per_var) for _ in range(4 * CORPUS_SAMPLES)]
    failures = []
    for raw in points:
        if not formula.eval_formula(condition, dict(zip(names, raw))):
            continue
        point = [bvarith.to_signed(v, s.width) if s.signed else v for v, s in zip(raw, sorts)]
        if summarizer.eval_concrete(f1, point) != summarizer.eval_concrete(f2, point):
            failures.append(f"input {point} satisfies the condition but diverges")
            break
    return failures


# ---------------------------------------------------------------------------
# random8


@dataclass(frozen=True)
class RandomPair:
    index: int  # position in the stream
    original: minilang.TypedFunction
    patched: minilang.TypedFunction


class Random8:
    """The property gate's traffic: random i8/u8 pairs with the gate's work.

    The pool is the first RANDOM8_PAIRS draws of one fixed stream.  Per-pair
    cost spans 0.1 s to 20 s, so a seeded draw of a size that fits in one run
    does not give figures that repeat across seeds.
    """

    name = "random8"

    def __init__(self, root: Path, workdir: Path):
        stream = random.Random(RANDOM8_STREAM)
        self.root = root
        self.items = [
            Item(f"draw{index}", f"draw {index} of random_pair(random.Random({RANDOM8_STREAM}))",
                 RandomPair(index, *randgen.random_pair(stream)))
            for index in range(RANDOM8_PAIRS)
        ]

    def truth(self, items: list[Item]):
        pairs = [(i.payload.original, i.payload.patched) for i in self.items]
        results = _cached_truth(self.root, self.name, pairs)
        for item in items:
            item.truth = results[item.payload.index]

    def analyze(self, item: Item, cfg) -> Outcome:
        pair, truth = item.payload, item.truth
        s1 = summarizer.summarize(pair.original)
        s2 = summarizer.summarize(pair.patched)
        verdict = classifier.eq_check(s1, s2, cfg)
        verdict_at = time.perf_counter()
        calls = verdict.solver_calls
        detail = {"bounds": {}, "enum": None}
        incomplete = False
        bound = {Verdict.T_EQ: s1.domain_size, Verdict.T_NEQ: 0}.get(verdict.kind)
        if verdict.kind is Verdict.P_EQ:
            n_vars = len(s1.inputs)
            sizes = [v.sort.domain_size for v in s1.inputs]
            with RangeSearch(s1, s2, cfg) as rs:
                regions = rs.relational(limit=4)
                per_iter = rs.iterative(limit=6 if n_vars == 1 else 4)
                per_prio = rs.iterative_priority()
            merged, _ = merge_combined(per_iter, per_prio)
            calls += rs.query_count
            incomplete = regions.incomplete or per_iter.incomplete or per_prio.incomplete

            def it_bound(regs):
                return eq_lower_bound_iterative([regs.intervals(n) for n in range(n_vars)], sizes)

            detail["bounds"] = {
                "relational": eq_lower_bound_relational(regions.vectors()),
                "iterative": it_bound(per_iter),
                "priority": it_bound(per_prio),
                "combined": it_bound(merged),
            }
            bound = detail["bounds"]["combined"]
            if min(truth.eq_count, truth.neq_count) <= GATE_ENUM_CAP:
                enum = enumcount.enumerate_models(s1, s2, cfg)
                calls += enum.solver_calls
                incomplete = incomplete or enum.case is enumcount.EnumCase.CASE3
                detail["enum"] = enum
        return Outcome(verdict.kind, calls, incomplete, bound, verdict_at, detail=detail)

    def check(self, item: Item, out: Outcome, rng: random.Random) -> list[str]:
        truth = item.truth
        expected = _verdict_of(truth.eq_count, truth.domain_size)
        if out.verdict is not expected:
            return [f"verdict {out.verdict.name}, truth {expected.name}"]
        failures = []
        for method, bound in out.detail["bounds"].items():
            if not 0 <= bound <= truth.eq_count:
                failures.append(f"{method} bound {bound} exceeds true count {truth.eq_count}")
        enum = out.detail["enum"]
        if enum is not None and enum.exact_eq_count != truth.eq_count:
            failures.append(f"enumerate count {enum.exact_eq_count}, true count {truth.eq_count}")
        return failures


# ---------------------------------------------------------------------------
# paths16


class Paths16:
    """Generated one-input i16 pairs with 2**k paths per version, run with combined."""

    name = "paths16"

    def __init__(self, root: Path, workdir: Path):
        rng = random.Random(PATHS16_STREAM)
        self.root = root
        self.items = []
        for index, k in enumerate(PATHS16_KS):
            pair = paths16.generate_pair(rng, k, index)
            original = workdir / f"{pair.name}_original.fn"
            patched = workdir / f"{pair.name}_patched.fn"
            original.write_text(pair.original)
            patched.write_text(pair.patched)
            self.items.append(Item(pair.name, f"paths16 pair {index} of stream {PATHS16_STREAM}: k={k}, "
                                   f"{pair.paths} paths\n{pair.original}{pair.patched}",
                                   (pair, original, patched)))
        self.clock = VerdictClock()

    def truth(self, items: list[Item]):
        loaded = [(report.load_function(i.payload[1]), report.load_function(i.payload[2]))
                  for i in items]
        for item, result in zip(items, _cached_truth(self.root, self.name, loaded)):
            item.truth = result

    def analyze(self, item: Item, cfg) -> Outcome:
        pair, original, patched = item.payload
        self.clock.install()
        try:
            rep = report.analyze_pair(pair.name, original, patched, "combined", cfg)
        finally:
            self.clock.uninstall()
        return Outcome(rep.verdict, rep.solver_calls, rep.incomplete, rep.eq_lower_bound,
                       self.clock.at, detail=rep)

    def check(self, item: Item, out: Outcome, rng: random.Random) -> list[str]:
        pair, truth = item.payload[0], item.truth
        failures = []
        if truth.eq_count != pair.eq_count:
            failures.append(f"brute force counts {truth.eq_count} equivalent inputs, "
                            f"the generator built {pair.eq_count}")
        expected = _verdict_of(truth.eq_count, truth.domain_size)
        if out.verdict is not expected:
            failures.append(f"verdict {out.verdict.name}, truth {expected.name}")
        elif not 0 <= out.eq_bound <= truth.eq_count:
            failures.append(f"bound {out.eq_bound} exceeds true count {truth.eq_count}")
        return failures


WORKLOADS = {w.name: w for w in (Corpus, Random8, Paths16)}


def perturb_answers(items: list[Item]):
    """Make the expected answers wrong, so that the checks have to fail."""
    for item in items:
        if isinstance(item.payload, report.CorpusCase):
            item.payload.expectations = {**item.payload.expectations, "expect_verdict": "T_NEQ"}
        elif item.truth is not None:
            item.truth = dataclasses.replace(item.truth, eq_count=item.truth.eq_count - 1)


# ---------------------------------------------------------------------------
# ground truth, two worker processes at most


@dataclass(frozen=True)
class Truth:
    """The exhaustive answer for one pair, without the list of diverging inputs."""

    eq_count: int
    domain_size: int

    @property
    def neq_count(self) -> int:
        return self.domain_size - self.eq_count


def _truth_worker(pair) -> Truth:
    result = enumcount.brute_force_eq_count(*pair)
    return Truth(result.eq_count, result.domain_size)


def _cached_truth(root: Path, name: str, pairs: list) -> list[Truth]:
    """Brute force a fixed pool once per checkout and source tree, then reuse it.

    The 16-bit brute force takes seconds per pair, so it is not repeated in
    every run.  The cache key covers the pairs and every source file of
    patcheq.
    """
    digest = hashlib.sha256(repr(pairs).encode())
    for path in sorted((root / "src" / "patcheq").rglob("*.py")):
        digest.update(path.read_bytes())
    path = root / ".perfbench" / f"{name}-truth-{digest.hexdigest()[:16]}.json"
    try:
        return [Truth(*pair) for pair in json.loads(path.read_text())]
    except (OSError, ValueError, TypeError):
        pass
    results = _map_truth(pairs)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps([[t.eq_count, t.domain_size] for t in results]))
    os.replace(tmp, path)
    return results


def _map_truth(pairs: list) -> list[Truth]:
    """brute_force_eq_count for each pair; 16-bit domains take seconds each.

    The workers are forked: a "spawn" pool starts multiprocessing's resource
    tracker, a process nobody waits for that outlives the run.  Leaving the
    ``with`` block joins both workers.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_truth_worker, pairs))

