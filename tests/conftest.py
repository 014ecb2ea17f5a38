import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from patcheq import bvarith  # noqa: E402
from patcheq.formula import (  # noqa: E402
    FAnd, FEq, FFalse, FIff, FLe, FLt, FNot, FOr, FTrue, FormulaError, TBin, TConst, TExtend,
    TExtract, TNeg, TVar,
)
from patcheq.minilang import parse, typecheck  # noqa: E402
from patcheq.oracle import SolverConfig, bundled_solver_command  # noqa: E402
from patcheq.summarizer import summarize  # noqa: E402

CORPUS = REPO / "corpus"


def fn(text: str):
    return typecheck(parse(text))


def fn_file(path) -> "object":
    return fn(Path(path).read_text())


def summary_pair(orig_text: str, patched_text: str):
    return summarize(fn(orig_text)), summarize(fn(patched_text))


@pytest.fixture(scope="session")
def cfg() -> SolverConfig:
    # Exercise the bundled solver explicitly so results do not depend on
    # whatever happens to be on PATH; swap via PATCHEQ_SOLVER_CMD if desired.
    return SolverConfig(solver_cmd=bundled_solver_command(),
                        query_timeout_ms=20_000, budget_ms=300_000)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def corpus_fn(case: str, which: str):
    return fn_file(CORPUS / case / which)


# Differ only at the one x with x * 3 == 5 (mod 2**32).  The guard does not read as a
# box and sampled points miss that x, so the classifier's equivalence check, and every
# range check of a range without that x, needs the solver.
OPAQUE_PAIR = (
    "fn f(x: i32) -> i32 { return x; }",
    "fn f(x: i32) -> i32 { if (x * 3 == 5) { return 0; } return x; }",
)


@pytest.fixture
def opaque_files(tmp_path) -> tuple[Path, Path]:
    """OPAQUE_PAIR as original.fn and patched.fn."""
    paths = tmp_path / "original.fn", tmp_path / "patched.fn"
    for path, text in zip(paths, OPAQUE_PAIR):
        path.write_text(text)
    return paths


# --- the reference evaluator: a tree walk, against which compiled evaluation is checked ---


def walk_term(t, env: dict[str, int]) -> int:
    """A term's value under an assignment of unsigned canonical values."""
    if isinstance(t, TConst):
        return t.value
    if isinstance(t, TVar):
        return env[t.var.name]
    if isinstance(t, TBin):
        return bvarith.BINARY[t.op](walk_term(t.lhs, env), walk_term(t.rhs, env), t.width)
    if isinstance(t, TNeg):
        return bvarith.neg(walk_term(t.arg, env), t.width)
    if isinstance(t, TExtend):
        v = walk_term(t.arg, env)
        if t.kind == "sign":
            return bvarith.to_unsigned(bvarith.to_signed(v, t.arg.width), t.width)
        return v
    if isinstance(t, TExtract):
        return (walk_term(t.arg, env) >> t.lo) & bvarith.mask(t.width)
    raise FormulaError(f"cannot evaluate {type(t).__name__}")


def walk_formula(f, env: dict[str, int]) -> bool:
    """Whether a formula holds under an assignment of unsigned canonical values."""
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FFalse):
        return False
    if isinstance(f, FEq):
        return walk_term(f.lhs, env) == walk_term(f.rhs, env)
    if isinstance(f, FLt):
        a, b = walk_term(f.lhs, env), walk_term(f.rhs, env)
        return bvarith.slt(a, b, f.lhs.width) if f.signed else a < b
    if isinstance(f, FLe):
        a, b = walk_term(f.lhs, env), walk_term(f.rhs, env)
        return bvarith.sle(a, b, f.lhs.width) if f.signed else a <= b
    if isinstance(f, FNot):
        return not walk_formula(f.arg, env)
    if isinstance(f, FAnd):
        return all(walk_formula(x, env) for x in f.items)
    if isinstance(f, FOr):
        return any(walk_formula(x, env) for x in f.items)
    if isinstance(f, FIff):
        return walk_formula(f.lhs, env) == walk_formula(f.rhs, env)
    raise FormulaError(f"cannot evaluate {type(f).__name__}")
