"""Quantitative patch impact analysis for numeric programs.

Pipeline: parse and type-check the two program versions, build symbolic
summaries by path enumeration, classify the pair (equivalent / totally
non-equivalent / partially equivalent), then quantify partial equivalence
with solver-guided range search or enumerative counting.

The names below are imported on first use (PEP 562), so that the bundled
solver child, which needs only ``patcheq.smtbv``, does not load the analysis
stack.
"""

import importlib

_EXPORTS = {
    "minilang": ("IntSort", "TypedFunction", "parse", "parse_unit", "typecheck"),
    "formula": ("BvVar", "RangePair", "mk_range_constraint", "serialize"),
    "summarizer": ("Summary", "summarize", "eval_concrete"),
    "oracle": ("Budget", "SolverConfig", "SolverSession"),
    "classifier": ("Verdict", "VerdictResult", "eq_check"),
    "rangesearch": ("RangeSearch", "QuantResult", "divide_range", "prioritized_divide_range",
                    "eq_lower_bound_relational", "eq_lower_bound_iterative"),
    "enumcount": ("EnumCase", "EnumResult", "enumerate_models", "brute_force_eq_count"),
    "report": ("ImpactReport", "analyze_pair"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
