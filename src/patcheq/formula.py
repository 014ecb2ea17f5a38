"""Quantifier-free bit-vector formulas and their SMT-LIB2 serialization.

Terms, atoms, and boolean connectives are plain frozen dataclasses, and terms
are hash-consed; there is deliberately no rewriting engine here.  Formulas are
evaluated by compiling them to straight-line Python (``eval_formula``,
``compile_paths``); the solver validates its models with its own
``smtbv.terms.compile_node``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from . import bvarith
from .minilang import IntSort


class FormulaError(Exception):
    pass


class SortMismatch(FormulaError):
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

    def __hash__(self):  # equal variables share a name, and Python keeps a string's hash
        return hash(self.name)


# --- terms ---


_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()  # summaries are built on threads under ``corpus --jobs``


def _intern(cls, *values):
    """The one live ``cls(*values)``.  Terms are hash-consed (Filliâtre & Conchon, ML 2006):
    equal terms are one object, so they compare and hash by identity, at any depth.  An
    operand is keyed by its ``id``, which stays its own while a term holding it lives."""
    key = (cls, *(id(v) if isinstance(v, Term) else v for v in values))
    with _intern_lock:
        t = _interned.get(key)
        if t is None:
            t = _interned[key] = cls(*values)
        return t


_term = dataclass(frozen=True, eq=False)


@_term
class Term:
    width: int

    def __reduce__(self):  # an unpickled term is interned again
        return _intern, (type(self), *(getattr(self, f.name) for f in fields(self)))


@_term
class TConst(Term):
    value: int  # unsigned canonical

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.width):
            raise SortMismatch(f"constant {self.value} does not fit in {self.width} bits")


@_term
class TVar(Term):
    var: BvVar


@_term
class TBin(Term):
    op: str  # a key of bvarith.BINARY
    lhs: Term
    rhs: Term


@_term
class TNeg(Term):
    arg: Term


@_term
class TExtend(Term):
    kind: str  # 'zero' | 'sign'
    extra: int
    arg: Term


@_term
class TExtract(Term):
    hi: int
    lo: int
    arg: Term


def tconst(value: int, width: int) -> TConst:
    return _intern(TConst, width, value & bvarith.mask(width))


def tvar(var: BvVar) -> TVar:
    return _intern(TVar, var.sort.width, var)


def tbin(op: str, lhs: Term, rhs: Term) -> TBin:
    if op not in bvarith.BINARY:
        raise FormulaError(f"unknown term operator {op!r}")
    if lhs.width != rhs.width:
        raise SortMismatch(f"{op}: operand widths {lhs.width} vs {rhs.width}")
    return _intern(TBin, lhs.width, op, lhs, rhs)


def tneg(arg: Term) -> TNeg:
    return _intern(TNeg, arg.width, arg)


def textend(kind: str, extra: int, arg: Term) -> TExtend:
    if kind not in ("zero", "sign") or extra < 0:
        raise FormulaError("bad extension")
    return _intern(TExtend, arg.width + extra, kind, extra, arg)


def textract(hi: int, lo: int, arg: Term) -> TExtract:
    if not (0 <= lo <= hi < arg.width):
        raise FormulaError("bad extract bounds")
    return _intern(TExtract, hi - lo + 1, hi, lo, arg)


# --- atoms and formulas ---


@dataclass(frozen=True)
class Formula:
    def __reduce__(self):  # without the evaluator ``eval_formula`` keeps on it
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


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


def point_formula(variables: Sequence[BvVar], values: Sequence[int]) -> Formula:
    """Conjunction over variables of v == value, values in the sort's own reading."""
    return fand(
        feq(tvar(var), tconst(bvarith.to_unsigned(value, var.sort.width), var.sort.width))
        for var, value in zip(variables, values)
    )


# --- serialization ---


def _operands(x: Term | Formula) -> tuple:
    """The terms and formulas ``x`` is built from, in argument order."""
    if isinstance(x, (TBin, FEq, FLt, FLe, FIff)):
        return (x.lhs, x.rhs)
    if isinstance(x, (FAnd, FOr)):
        return x.items
    if isinstance(x, (TNeg, TExtend, TExtract, FNot)):
        return (x.arg,)
    return ()


def _fold(roots: Sequence, one) -> dict[int, object]:
    """``{id(x): one(x, [its operands' values])}`` over the nodes under ``roots``, each
    valued once, operands first and in argument order, on a stack of its own.  Nothing is
    hashed, so a term may nest to any depth."""
    done: dict[int, object] = {}
    stack = [(x, None) for x in reversed(roots)]  # (node, None) enters, (node, operands) values
    while stack:
        x, ops = stack.pop()
        if ops is None:
            if id(x) in done:
                continue
            ops = _operands(x)
            if ops:
                stack.append((x, ops))
                stack += [(a, None) for a in reversed(ops)]
                continue
        done[id(x)] = one(x, [done[id(a)] for a in ops])
    return done


_SMT_HEADS = {TNeg: "bvneg", FEq: "=", FIff: "=", FNot: "not", FAnd: "and", FOr: "or"}


def _smt(x: Term | Formula, a: list):
    """SMT-LIB text of one node as a string or a tuple of pieces, ``a`` holding its
    operands' texts; a piece is a string or such a tuple."""
    if isinstance(x, TConst):
        return f"(_ bv{x.value} {x.width})"
    if isinstance(x, (TVar, FName)):
        return x.var.name if isinstance(x, TVar) else x.name
    if isinstance(x, (FTrue, FFalse)):
        return "true" if isinstance(x, FTrue) else "false"
    if isinstance(x, TBin):
        head = f"bv{x.op}"
    elif isinstance(x, (FLt, FLe)):
        head = f"bv{'s' if x.signed else 'u'}{'lt' if isinstance(x, FLt) else 'le'}"
    elif isinstance(x, TExtend):
        head = f"(_ {x.kind}_extend {x.extra})"
    elif isinstance(x, TExtract):
        head = f"(_ extract {x.hi} {x.lo})"
    elif type(x) in _SMT_HEADS:
        head = _SMT_HEADS[type(x)]
    else:
        raise FormulaError(f"cannot serialize {type(x).__name__}")
    return (f"({head} ", *[piece for text in a for piece in (" ", text)][1:], ")")


def serialize_formula(f: Formula) -> str:
    out, stack = [], [_fold([f], _smt)[id(f)]]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack += reversed(piece)
    return "".join(out)


def serialize(decls: Sequence[BvVar], f: Formula) -> str:
    """Full SMT-LIB2 script: logic, declarations in the given order, one assert."""
    declare = [f"(declare-const {var.name} (_ BitVec {var.sort.width}))" for var in decls]
    return "\n".join(["(set-logic QF_BV)", *declare, f"(assert {serialize_formula(f)})"]) + "\n"


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
        # an equality has no signedness of its own: it takes that of a variable it compares
        signed = (any(isinstance(t, TVar) and t.var.sort.signed for t in (f.lhs, f.rhs))
                  if isinstance(f, FEq) else f.signed)

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


def eval_formula(f: Formula, env: dict[str, int]) -> bool:
    """Whether ``f`` holds under an assignment of unsigned canonical values."""
    return _evaluator(f)(env)


def compile_paths(paths: Sequence[tuple[Sequence[Formula], Term]]):
    """``f(env)``: the index of the first path whose every condition holds at ``env`` and
    its return term's value there, or None if none holds; one ``if`` per path."""
    return _compile([x for conds, t in paths for x in (*conds, t)], lambda name: [
        f"    if {' and '.join(name[id(c)] for c in conds) or 'True'}: return {i}, {name[id(t)]}"
        for i, (conds, t) in enumerate(paths)])


def _evaluator(x: Term | Formula):
    """``x``'s value as a function of ``env``, compiled on first use and kept on ``x``, as
    ``Summary.at`` keeps its function; a cache of its own would keep every term alive."""
    f = x.__dict__.get("_evaluate")
    if f is None:
        f = x.__dict__["_evaluate"] = _compile([x], lambda name: [f"    return {name[id(x)]}"])
    return f


def _compile(roots: Sequence, result):
    """``f(env)`` as straight-line source like ``smtbv.terms.compile_node``: one assignment
    per distinct term and formula under ``roots``, computed once per call, then the lines
    ``result(name)`` writes from ``name[id(x)]``, the local that holds node ``x``."""
    lines = ["def f(env):"]
    named: dict[Term | Formula, str] = {}

    def assign(x: Term | Formula, a: list[str]) -> str:
        if x not in named:  # first hashed after its operands, so the hash never recurses
            lines.append(f"    v{len(named)} = {_python(x, a)}")
            named[x] = f"v{len(named)}"
        return named[x]

    lines += result(_fold(roots, assign))
    exec(compile("\n".join(lines), "<formula>", "exec"), namespace := dict(bvarith.BINARY))
    return namespace.pop("f")  # kept in its own globals, it would be a reference cycle


def _python(x: Term | Formula, a: list[str]) -> str:
    """Python expression for one term or formula over its operands' local names ``a``."""
    if isinstance(x, TConst):
        return repr(x.value)
    if isinstance(x, TVar):
        return f"env[{x.var.name!r}]"
    if isinstance(x, TBin):
        return bvarith.PYTHON[x.op].format(a=a[0], b=a[1], w=x.width, m=bvarith.mask(x.width))
    if isinstance(x, TNeg):
        return f"-{a[0]} & {bvarith.mask(x.width)}"
    if isinstance(x, TExtend):
        v, fill = a[0], bvarith.mask(x.width) ^ bvarith.mask(x.arg.width)
        return f"{v} | {fill} if {v} >> {x.arg.width - 1} else {v}" if x.kind == "sign" else v
    if isinstance(x, TExtract):
        return f"({a[0]} >> {x.lo}) & {bvarith.mask(x.width)}"
    if isinstance(x, (FTrue, FFalse)):
        return repr(isinstance(x, FTrue))
    if isinstance(x, (FEq, FLt, FLe, FIff)):
        lhs, rhs = a
        if getattr(x, "signed", False):
            top = 1 << (x.lhs.width - 1)  # flipping the sign bit orders signed values
            lhs, rhs = f"({lhs} ^ {top})", f"({rhs} ^ {top})"
        return f"{lhs} {'<' if isinstance(x, FLt) else '<=' if isinstance(x, FLe) else '=='} {rhs}"
    if isinstance(x, FNot):
        return f"not {a[0]}"
    if isinstance(x, (FAnd, FOr)):  # empty, ``all([])`` and ``any([])``
        return (" and " if isinstance(x, FAnd) else " or ").join(a) or repr(isinstance(x, FAnd))
    raise FormulaError(f"cannot compile {type(x).__name__}")
