"""Analysis driver and report structures for program pairs and corpora.

A pair runs through: parse, type check, signature check, summarize, classify;
partial equivalence then flows into the selected quantification method.  All
percentages are exact rationals; JSON carries numerator/denominator strings
next to a fixed-point rendering so nothing is lost to floating point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .classifier import Verdict, eq_check
from .enumcount import MODEL_LIST_CAP, EnumCase, enumerate_models
from .formula import FALSE, TRUE, Formula, FNot, pretty, serialize_formula
from .minilang import parse, typecheck
from .oracle import Budget, SolverConfig
from .rangesearch import RangeSearch
from .summarizer import DEFAULT_UNROLL_LIMIT, Summary, summarize, require_same_signature

RANGE_METHODS = ("relational", "iterative", "priority", "combined")
ALL_METHODS = RANGE_METHODS + ("enumerate",)


def fraction_decimal(value: Fraction, places: int = 2, toward: int = 0) -> str:
    """Exact fixed-point rendering, rounded half even, or down (``toward`` -1) or up (1)
    so that a rounded bound claims no more than the bound."""
    q, r = divmod(value.numerator * 10 ** places, value.denominator)
    if toward:
        q += 1 if toward > 0 and r else 0
    elif 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    text = str(q).rjust(places + 1, "0")
    return f"{text[:-places]}.{text[-places:]}" if places else text


def fraction_json(value: Fraction, places: int = 2, toward: int = 0) -> dict:
    # decimal for eyeballs, numerator/denominator so 87.50 and
    # (2^32 - 56)/2^32 are both stored losslessly
    return {
        "decimal": fraction_decimal(value, places, toward),
        "numerator": str(value.numerator),
        "denominator": str(value.denominator),
    }


@dataclass
class ImpactReport:
    name: str
    original: str
    patched: str
    verdict: Verdict
    method: str
    eq_lower_bound: int
    domain_size: int
    exact: bool
    condition: Formula
    witness: dict[str, int] | None
    solver_calls: int
    elapsed_ms: int
    incomplete: bool
    stats: dict  # phase_ms, path counts, enumeration work; --stable drops it
    enum_case: EnumCase | None = None
    eq_models: list[tuple[int, ...]] | None = None  # listed points, not all of them
    neq_models: list[tuple[int, ...]] | None = None
    eq_model_count: int = 0  # inputs each enumeration side blocked
    neq_model_count: int = 0
    per_var_source: list[str] | None = None
    input_names: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def eq_percent(self) -> Fraction:
        return Fraction(100 * self.eq_lower_bound, self.domain_size)

    @property
    def impact_percent(self) -> Fraction:
        return 100 - self.eq_percent

    def toward(self, bound: int) -> int:
        """How to round a lower (-1) or upper (1) bound: half even when it is exact."""
        return 0 if self.exact else bound

    @property
    def impact_condition(self) -> Formula:
        return FNot(self.condition)

    def to_json(self, stable: bool = False, places: int = 2) -> dict:
        out = {
            "name": self.name,
            "original": self.original,
            "patched": self.patched,
            "verdict": self.verdict.value,
            "algorithm": self.method,
            "eq_lower_bound": str(self.eq_lower_bound),
            "exact": self.exact,
            "domain_size": str(self.domain_size),
            "eq_percent_lower_bound": fraction_json(self.eq_percent, places, self.toward(-1)),
            "impact_percent_upper_bound": fraction_json(self.impact_percent, places,
                                                        self.toward(1)),
            "condition": {
                "pretty": pretty(self.condition),
                "smtlib": serialize_formula(self.condition),
            },
            "impact_condition": {
                "pretty": pretty(self.impact_condition),
                "smtlib": serialize_formula(self.impact_condition),
            },
            "witness": self.witness,
            "solver_calls": self.solver_calls,
            "incomplete": self.incomplete,
        }
        if not stable:
            out["elapsed_ms"] = self.elapsed_ms
            out["stats"] = self.stats
        if self.enum_case is not None:
            out["case"] = self.enum_case.name.lower()
            out["eq_models"] = [list(m) for m in (self.eq_models or [])[:MODEL_LIST_CAP]]
            out["neq_models"] = [list(m) for m in (self.neq_models or [])[:MODEL_LIST_CAP]]
            out["eq_model_count"] = self.eq_model_count
            out["neq_model_count"] = self.neq_model_count
        if self.per_var_source is not None:
            out["per_var_source"] = dict(zip(self.input_names, self.per_var_source))
        if self.error is not None:
            out["error"] = self.error
        return out


class AnalysisError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def load_function(path: str | Path):
    """The typed function in a UTF-8 source file; an unreadable path raises ``OSError``."""
    data = Path(path).read_bytes()
    try:
        return typecheck(parse(data.decode()))
    except Exception as err:
        raise AnalysisError(f"parse/typecheck {path}", str(err)) from err


def summarize_function(fn, unroll_limit: int, budget: Budget | None = None) -> Summary:
    """summarize, failing with the analysis stage "summarize"."""
    try:
        return summarize(fn, unroll_limit, budget)
    except Exception as err:
        raise AnalysisError("summarize", str(err)) from err


def load_pair(original_path: str | Path, patched_path: str | Path, unroll_limit: int,
              budget: Budget | None = None, clock: list[float] | None = None
              ) -> tuple[Summary, Summary]:
    """Load, type check, signature check and summarize both versions of a pair, under
    ``budget``; ``clock`` gets the time after loading and after summarizing."""
    f1 = load_function(original_path)
    f2 = load_function(patched_path)
    try:
        require_same_signature(f1, f2)
    except Exception as err:
        raise AnalysisError("signature", str(err)) from err
    clock = [] if clock is None else clock
    clock.append(time.monotonic())
    pair = summarize_function(f1, unroll_limit, budget), summarize_function(f2, unroll_limit, budget)
    clock.append(time.monotonic())
    return pair


def analyze_pair(
    name: str,
    original_path: str | Path,
    patched_path: str | Path,
    method: str,
    cfg: SolverConfig,
    depth_limit: int | None = None,
    unroll_limit: int = DEFAULT_UNROLL_LIMIT,
) -> ImpactReport:
    """Classify first; quantify only on partial equivalence.

    Classification and quantification share one RangeSearch, so at most one solver
    process serves the pair, none when sampled points and path-pair boxes answer
    every check (enumeration adds one for its divergent side).
    """
    if method not in ALL_METHODS:
        raise AnalysisError("config", f"unknown algorithm {method!r}")
    if depth_limit is not None and depth_limit < 0:
        raise AnalysisError("config", f"depth limit {depth_limit} is negative")
    start = time.monotonic()
    budget, clock = Budget(cfg.budget_ms), [start]
    s1, s2 = load_pair(original_path, patched_path, unroll_limit, budget, clock)

    with RangeSearch(s1, s2, cfg, budget) as search:
        verdict = eq_check(s1, s2, cfg, search=search)
        clock.append(time.monotonic())
        if verdict.kind is Verdict.P_EQ and method == "enumerate":
            enum = enumerate_models(s1, s2, cfg, search=search)
        elif verdict.kind is Verdict.P_EQ:
            quant = search.run(method, limit=depth_limit)
    clock.append(time.monotonic())
    phase_ms = {phase: round((end - begin) * 1000, 3) for phase, begin, end
                in zip(("load", "summarize", "classify", "quantify"), clock, clock[1:])}

    def finish(quantify_calls: int = 0, stats: dict | None = None, **kw) -> ImpactReport:
        return ImpactReport(
            name=name,
            original=str(original_path),
            patched=str(patched_path),
            verdict=verdict.kind,
            method=method,
            domain_size=s1.domain_size,
            witness=verdict.witness,
            solver_calls=verdict.solver_calls + quantify_calls,
            elapsed_ms=int((time.monotonic() - start) * 1000),
            input_names=[v.name for v in s1.inputs],
            stats={"phase_ms": phase_ms, "paths": [s1.path_count, s2.path_count],
                   "range_checks": search.range_checks, **(stats or {})},
            **kw,
        )

    if verdict.kind is Verdict.T_EQ:
        return finish(eq_lower_bound=s1.domain_size, exact=True, condition=TRUE, incomplete=False)
    if verdict.kind is Verdict.T_NEQ:
        return finish(eq_lower_bound=0, exact=True, condition=FALSE, incomplete=False)
    if verdict.kind is Verdict.UNKNOWN:
        return finish(
            eq_lower_bound=0, exact=False, condition=FALSE, incomplete=True,
            error="classifier query unknown (timeout or solver failure)",
        )

    if method == "enumerate":
        if enum.case is EnumCase.CASE2:
            condition = FNot(enum.neq.condition)
        else:
            condition = enum.eq.condition
        return finish(
            quantify_calls=enum.solver_calls, eq_lower_bound=enum.eq_count_lower_bound,
            exact=enum.exact_eq_count is not None, condition=condition,
            incomplete=enum.case is EnumCase.CASE3, enum_case=enum.case,
            eq_models=enum.eq_inputs, neq_models=enum.neq_inputs,
            eq_model_count=enum.eq.count, neq_model_count=enum.neq.count,
            stats={"enum": {"eq": enum.eq.stats(), "neq": enum.neq.stats()}},
        )

    return finish(
        quantify_calls=quant.solver_calls, eq_lower_bound=quant.eq_lower_bound, exact=False,
        condition=quant.condition, incomplete=quant.incomplete,
        per_var_source=quant.per_var_source,
    )


# ---------------------------------------------------------------------------
# Corpus runner


@dataclass
class CorpusCase:
    name: str
    path: Path
    original: Path
    patched: Path
    method: str = "combined"
    depth_limit: int | None = None
    expectations: dict[str, str] = field(default_factory=dict)


class ManifestError(Exception):
    pass


def _is_fraction(text: str) -> bool:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


# manifest key -> (does it accept this value?, what the value must be)
_MANIFEST_VALUES = {
    "method": (ALL_METHODS.__contains__, "one of " + ", ".join(ALL_METHODS)),
    "depth_limit": (str.isdecimal, "a non-negative integer"),
    "expect_verdict": (Verdict.__members__.__contains__, "one of " + ", ".join(Verdict.__members__)),
    "expect_case": (lambda v: v == "none" or v in EnumCase.__members__,
                    "none or one of " + ", ".join(EnumCase.__members__)),
    "expect_eq_fraction": (_is_fraction, "a fraction"),
    "expect_impact_fraction": (_is_fraction, "a fraction"),
    "expect_neq_count": (str.isdecimal, "a non-negative integer"),
    "expect_exact_eq_count": (str.isdecimal, "a non-negative integer"),
}
EXPECT_KEYS = {key for key in _MANIFEST_VALUES if key.startswith("expect_")}
MANIFEST_KEYS = {"name", "original", "patched"} | _MANIFEST_VALUES.keys()


def load_case(path: str | Path) -> CorpusCase:
    path = Path(path)
    fields: dict[str, str] = {}
    try:
        text = path.read_bytes().decode()
    except UnicodeDecodeError as err:
        raise ManifestError(f"{path}: {err}") from err
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in MANIFEST_KEYS:
            raise ManifestError(f"{path}:{line_no}: unknown key {key!r}")
        if key in fields:
            raise ManifestError(f"{path}:{line_no}: repeated key {key!r}")
        fields[key] = value.strip()
    for required in ("original", "patched"):
        if required not in fields:
            raise ManifestError(f"{path}: missing {required}")
    for key, (accepts, what) in _MANIFEST_VALUES.items():
        if key in fields and not accepts(fields[key]):
            raise ManifestError(f"{path}: {key} must be {what}, not {fields[key]!r}")
    case = CorpusCase(
        name=fields.get("name", path.stem),
        path=path,
        original=path.parent / fields["original"],
        patched=path.parent / fields["patched"],
        method=fields.get("method", "combined"),
        depth_limit=int(fields["depth_limit"]) if "depth_limit" in fields else None,
        expectations={k: v for k, v in fields.items() if k in EXPECT_KEYS},
    )
    for fn in (case.original, case.patched):
        if not fn.is_file():
            raise ManifestError(f"{path}: source {fn} is missing or not a regular file")
    return case


def check_expectations(case: CorpusCase, report: ImpactReport,
                       method_overridden: bool) -> list[str]:
    """Compare a report against the manifest; returns failure descriptions."""
    failures = []
    exp = case.expectations
    if "expect_verdict" in exp and report.verdict.name != exp["expect_verdict"]:
        failures.append(
            f"verdict {report.verdict.name}, expected {exp['expect_verdict']}"
        )
    if method_overridden:
        return failures  # method-specific expectations no longer apply
    if "expect_eq_fraction" in exp:
        want = Fraction(exp["expect_eq_fraction"]) * 100
        if report.eq_percent != want:
            failures.append(f"eq percent {report.eq_percent}, expected {want}")
    if "expect_impact_fraction" in exp:
        want = Fraction(exp["expect_impact_fraction"]) * 100
        if report.impact_percent != want:
            failures.append(f"impact percent {report.impact_percent}, expected {want}")
    if "expect_case" in exp:
        got = report.enum_case.name if report.enum_case else "none"
        if got != exp["expect_case"]:
            failures.append(f"enumeration case {got}, expected {exp['expect_case']}")
    if "expect_neq_count" in exp:
        got = report.neq_model_count
        if got != int(exp["expect_neq_count"]):
            failures.append(f"neq model count {got}, expected {exp['expect_neq_count']}")
    if "expect_exact_eq_count" in exp:
        want = int(exp["expect_exact_eq_count"])
        if not report.exact or report.eq_lower_bound != want:
            failures.append(
                f"exact eq count {report.eq_lower_bound} (exact={report.exact}), expected {want}"
            )
    return failures
