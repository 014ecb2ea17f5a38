"""Quantifier-free bit-vector formulas and their SMT-LIB2 serialization.

Terms, atoms, and boolean connectives are plain frozen dataclasses; there is
deliberately no rewriting engine here.  A small concrete evaluator doubles as
the ground-truth semantics used by tests and by model validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import bvarith
from .minilang import IntSort


class FormulaError(Exception):
    pass


class SortMismatch(FormulaError):
    pass


class VariableMismatch(FormulaError):
    pass


@dataclass(frozen=True)
class BvVar:
    """A free bit-vector variable, partitioned into program inputs and outputs."""

    name: str
    sort: IntSort
    role: str  # 'input' | 'output'

    def __post_init__(self):
        if self.role not in ("input", "output"):
            raise FormulaError(f"bad role {self.role!r}")


# --- terms ---


@dataclass(frozen=True)
class Term:
    width: int


@dataclass(frozen=True)
class TConst(Term):
    value: int  # unsigned canonical

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.width):
            raise SortMismatch(f"constant {self.value} does not fit in {self.width} bits")


@dataclass(frozen=True)
class TVar(Term):
    var: BvVar


@dataclass(frozen=True)
class TBin(Term):
    op: str  # add sub mul udiv sdiv urem srem shl lshr ashr and or xor
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class TNeg(Term):
    arg: Term


@dataclass(frozen=True)
class TExtend(Term):
    kind: str  # 'zero' | 'sign'
    extra: int
    arg: Term


@dataclass(frozen=True)
class TExtract(Term):
    hi: int
    lo: int
    arg: Term


BV_BIN_OPS = {
    "add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
    "shl", "lshr", "ashr", "and", "or", "xor",
}


def tconst(value: int, width: int) -> TConst:
    return TConst(width, value & bvarith.mask(width))


def tvar(var: BvVar) -> TVar:
    return TVar(var.sort.width, var)


def tbin(op: str, lhs: Term, rhs: Term) -> TBin:
    if op not in BV_BIN_OPS:
        raise FormulaError(f"unknown term operator {op!r}")
    if lhs.width != rhs.width:
        raise SortMismatch(f"{op}: operand widths {lhs.width} vs {rhs.width}")
    return TBin(lhs.width, op, lhs, rhs)


def tneg(arg: Term) -> TNeg:
    return TNeg(arg.width, arg)


def textend(kind: str, extra: int, arg: Term) -> TExtend:
    if kind not in ("zero", "sign") or extra < 0:
        raise FormulaError("bad extension")
    return TExtend(arg.width + extra, kind, extra, arg)


def textract(hi: int, lo: int, arg: Term) -> TExtract:
    if not (0 <= lo <= hi < arg.width):
        raise FormulaError("bad extract bounds")
    return TExtract(hi - lo + 1, hi, lo, arg)


# --- atoms and formulas ---


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class FTrue(Formula):
    pass


@dataclass(frozen=True)
class FFalse(Formula):
    pass


@dataclass(frozen=True)
class FEq(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FLt(Formula):
    signed: bool
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FLe(Formula):
    signed: bool
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FNot(Formula):
    arg: Formula


@dataclass(frozen=True)
class FAnd(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class FOr(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class FIff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class FName(Formula):
    """A Boolean name bound by ``SolverSession.define``; only a solver can read it."""

    name: str


TRUE = FTrue()
FALSE = FFalse()


def feq(lhs: Term, rhs: Term) -> FEq:
    if lhs.width != rhs.width:
        raise SortMismatch(f"=: operand widths {lhs.width} vs {rhs.width}")
    return FEq(lhs, rhs)


def flt(signed: bool, lhs: Term, rhs: Term) -> FLt:
    if lhs.width != rhs.width:
        raise SortMismatch("<: operand width mismatch")
    return FLt(signed, lhs, rhs)


def fle(signed: bool, lhs: Term, rhs: Term) -> FLe:
    if lhs.width != rhs.width:
        raise SortMismatch("<=: operand width mismatch")
    return FLe(signed, lhs, rhs)


def fand(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return FAnd(items)


def for_(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return FOr(items)


def free_vars(f: Formula) -> dict[str, BvVar]:
    """Collect free variables; raises on same-name variables with unequal sorts."""
    out: dict[str, BvVar] = {}

    def walk_t(t: Term):
        if isinstance(t, TVar):
            prev = out.get(t.var.name)
            if prev is not None and prev != t.var:
                raise VariableMismatch(f"conflicting declarations of {t.var.name!r}")
            out[t.var.name] = t.var
        elif isinstance(t, TBin):
            walk_t(t.lhs)
            walk_t(t.rhs)
        elif isinstance(t, (TNeg, TExtend, TExtract)):
            walk_t(t.arg)

    def walk_f(f: Formula):
        if isinstance(f, (FEq, FLt, FLe)):
            walk_t(f.lhs)
            walk_t(f.rhs)
        elif isinstance(f, FNot):
            walk_f(f.arg)
        elif isinstance(f, (FAnd, FOr)):
            for item in f.items:
                walk_f(item)
        elif isinstance(f, FIff):
            walk_f(f.lhs)
            walk_f(f.rhs)

    walk_f(f)
    return out


# --- range constraints ---


@dataclass(frozen=True)
class RangePair:
    """Inclusive [lo, hi] interval, in the owning variable's signedness."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise FormulaError(f"empty range ({self.lo}, {self.hi})")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __repr__(self):
        return f"({self.lo}, {self.hi})"


def check_bound(var: BvVar, value: int):
    if not var.sort.contains(value):
        raise FormulaError(
            f"bound {value} outside {var.sort.name} range for {var.name!r}"
        )


def var_range_constraint(var: BvVar, lo: int, hi: int) -> Formula:
    """lo <= v and v <= hi, with the comparison matching the sort's signedness."""
    check_bound(var, lo)
    check_bound(var, hi)
    if lo > hi:
        raise FormulaError(f"empty range ({lo}, {hi}) for {var.name!r}")
    width = var.sort.width
    v = tvar(var)
    lo_t = tconst(bvarith.to_unsigned(lo, width), width)
    hi_t = tconst(bvarith.to_unsigned(hi, width), width)
    return fand([fle(var.sort.signed, lo_t, v), fle(var.sort.signed, v, hi_t)])


def mk_range_constraint(
    variables: Sequence[BvVar], lows: Sequence[int], highs: Sequence[int]
) -> Formula:
    """Conjunction over variables of lo <= v <= hi (inclusive both ends)."""
    if not (len(variables) == len(lows) == len(highs)):
        raise FormulaError("range vectors must have one entry per variable")
    return fand(
        [var_range_constraint(v, lo, hi) for v, lo, hi in zip(variables, lows, highs)]
    )


def require_agreeing_vars(s1: Formula, s2: Formula):
    """Raise unless every variable named in both formulas is the same variable."""
    vars1, vars2 = free_vars(s1), free_vars(s2)
    for name in set(vars1) & set(vars2):
        if vars1[name] != vars2[name]:
            raise VariableMismatch(f"summaries disagree on variable {name!r}")


def iff_under_range(s1: Formula, s2: Formula, rng: Formula) -> Formula:
    """(S1 and range) iff (S2 and range); callers negate for the validity check."""
    require_agreeing_vars(s1, s2)
    return FIff(fand([s1, rng]), fand([s2, rng]))


# --- serialization ---


def _smt_term(t: Term) -> str:
    if isinstance(t, TConst):
        return f"(_ bv{t.value} {t.width})"
    if isinstance(t, TVar):
        return t.var.name
    if isinstance(t, TBin):
        op = {
            "add": "bvadd", "sub": "bvsub", "mul": "bvmul",
            "udiv": "bvudiv", "sdiv": "bvsdiv", "urem": "bvurem", "srem": "bvsrem",
            "shl": "bvshl", "lshr": "bvlshr", "ashr": "bvashr",
            "and": "bvand", "or": "bvor", "xor": "bvxor",
        }[t.op]
        return f"({op} {_smt_term(t.lhs)} {_smt_term(t.rhs)})"
    if isinstance(t, TNeg):
        return f"(bvneg {_smt_term(t.arg)})"
    if isinstance(t, TExtend):
        fn = "zero_extend" if t.kind == "zero" else "sign_extend"
        return f"((_ {fn} {t.extra}) {_smt_term(t.arg)})"
    if isinstance(t, TExtract):
        return f"((_ extract {t.hi} {t.lo}) {_smt_term(t.arg)})"
    raise FormulaError(f"cannot serialize {type(t).__name__}")


def _smt_formula(f: Formula) -> str:
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FFalse):
        return "false"
    if isinstance(f, FName):
        return f.name
    if isinstance(f, FEq):
        return f"(= {_smt_term(f.lhs)} {_smt_term(f.rhs)})"
    if isinstance(f, FLt):
        return f"({'bvslt' if f.signed else 'bvult'} {_smt_term(f.lhs)} {_smt_term(f.rhs)})"
    if isinstance(f, FLe):
        return f"({'bvsle' if f.signed else 'bvule'} {_smt_term(f.lhs)} {_smt_term(f.rhs)})"
    if isinstance(f, FNot):
        return f"(not {_smt_formula(f.arg)})"
    if isinstance(f, FAnd):
        return "(and " + " ".join(_smt_formula(x) for x in f.items) + ")"
    if isinstance(f, FOr):
        return "(or " + " ".join(_smt_formula(x) for x in f.items) + ")"
    if isinstance(f, FIff):
        return f"(= {_smt_formula(f.lhs)} {_smt_formula(f.rhs)})"
    raise FormulaError(f"cannot serialize {type(f).__name__}")


def serialize_formula(f: Formula) -> str:
    return _smt_formula(f)


def serialize(decls: Sequence[BvVar], f: Formula) -> str:
    """Full SMT-LIB2 script: logic, declarations in the given order, one assert."""
    lines = ["(set-logic QF_BV)"]
    for var in decls:
        lines.append(f"(declare-const {var.name} (_ BitVec {var.sort.width}))")
    lines.append(f"(assert {_smt_formula(f)})")
    return "\n".join(lines) + "\n"


# --- pretty printing for reports ---


def _pp_term(t: Term) -> str:
    if isinstance(t, TConst):
        return str(t.value)
    if isinstance(t, TVar):
        return t.var.name
    if isinstance(t, TBin):
        sym = {
            "add": "+", "sub": "-", "mul": "*", "udiv": "/u", "sdiv": "/s",
            "urem": "%u", "srem": "%s", "shl": "<<", "lshr": ">>u", "ashr": ">>s",
            "and": "&", "or": "|", "xor": "^",
        }[t.op]
        return f"({_pp_term(t.lhs)} {sym} {_pp_term(t.rhs)})"
    if isinstance(t, TNeg):
        return f"(- {_pp_term(t.arg)})"
    if isinstance(t, TExtend):
        return f"{t.kind}_ext({_pp_term(t.arg)}, +{t.extra})"
    if isinstance(t, TExtract):
        return f"{_pp_term(t.arg)}[{t.hi}:{t.lo}]"
    return "?"


def pretty(f: Formula) -> str:
    """Human-oriented infix rendering, with signed constants where sensible."""
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FFalse):
        return "false"
    if isinstance(f, (FEq, FLt, FLe)):
        sym = "==" if isinstance(f, FEq) else ("<" if isinstance(f, FLt) else "<=")
        signed = getattr(f, "signed", None)

        def side(t: Term) -> str:
            if isinstance(t, TConst) and signed:
                return str(bvarith.to_signed(t.value, t.width))
            return _pp_term(t)

        return f"{side(f.lhs)} {sym} {side(f.rhs)}"
    if isinstance(f, FNot):
        return f"!({pretty(f.arg)})"
    if isinstance(f, FAnd):
        return "(" + " && ".join(pretty(x) for x in f.items) + ")"
    if isinstance(f, FOr):
        return "(" + " || ".join(pretty(x) for x in f.items) + ")"
    if isinstance(f, FIff):
        return f"({pretty(f.lhs)} <=> {pretty(f.rhs)})"
    return "?"


# --- concrete evaluation ---


def eval_term(t: Term, env: dict[str, int]) -> int:
    """Evaluate under an assignment of unsigned canonical values."""
    if isinstance(t, TConst):
        return t.value
    if isinstance(t, TVar):
        return env[t.var.name]
    if isinstance(t, TBin):
        a, b = eval_term(t.lhs, env), eval_term(t.rhs, env)
        w = t.width
        return {
            "add": bvarith.add, "sub": bvarith.sub, "mul": bvarith.mul,
            "udiv": bvarith.udiv, "sdiv": bvarith.sdiv,
            "urem": bvarith.urem, "srem": bvarith.srem,
            "shl": bvarith.shl, "lshr": bvarith.lshr, "ashr": bvarith.ashr,
            "and": bvarith.bvand, "or": bvarith.bvor, "xor": bvarith.bvxor,
        }[t.op](a, b, w)
    if isinstance(t, TNeg):
        return bvarith.neg(eval_term(t.arg, env), t.width)
    if isinstance(t, TExtend):
        v = eval_term(t.arg, env)
        if t.kind == "sign":
            return bvarith.to_unsigned(bvarith.to_signed(v, t.arg.width), t.width)
        return v
    if isinstance(t, TExtract):
        return (eval_term(t.arg, env) >> t.lo) & bvarith.mask(t.width)
    raise FormulaError(f"cannot evaluate {type(t).__name__}")


def eval_formula(f: Formula, env: dict[str, int]) -> bool:
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FFalse):
        return False
    if isinstance(f, FEq):
        return eval_term(f.lhs, env) == eval_term(f.rhs, env)
    if isinstance(f, FLt):
        a, b = eval_term(f.lhs, env), eval_term(f.rhs, env)
        return bvarith.slt(a, b, f.lhs.width) if f.signed else a < b
    if isinstance(f, FLe):
        a, b = eval_term(f.lhs, env), eval_term(f.rhs, env)
        return bvarith.sle(a, b, f.lhs.width) if f.signed else a <= b
    if isinstance(f, FNot):
        return not eval_formula(f.arg, env)
    if isinstance(f, FAnd):
        return all(eval_formula(x, env) for x in f.items)
    if isinstance(f, FOr):
        return any(eval_formula(x, env) for x in f.items)
    if isinstance(f, FIff):
        return eval_formula(f.lhs, env) == eval_formula(f.rhs, env)
    raise FormulaError(f"cannot evaluate {type(f).__name__}")
