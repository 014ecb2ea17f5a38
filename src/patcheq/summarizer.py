"""Symbolic summaries by exhaustive path enumeration, and concrete evaluation.

A summary is the list of a function's paths, each a (path conditions over
inputs, return term) pair; as a formula it is the disjunction of (path
conditions) and (output = return term).  Local variables are eliminated by
substitution during execution, so the summary's free variables are exactly
the inputs plus the single output.  A call runs the callee's body once per
distinct argument terms, and each callee path becomes one variant of the
call expression.  Each path carries its box (``regions``), narrowed by each
condition it gains, and is dropped once the box is empty, so a summary keeps
only box-feasible paths; opaque conditions never prune.  Loops are unrolled
up to a hard limit; a loop whose next iteration is still box-feasible at the
limit is an error, never a truncation.  A budget stops a long exploration
with an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from . import bvarith, minilang, regions
from .formula import (
    BvVar, Formula, Term, TConst, FAnd, FNot, FOr, FTrue, FFalse, TRUE, FALSE,
    compile_paths, eval_term, fand, feq, fle, flt, for_, tbin, tconst, textend, textract,
    tneg, tvar,
)
from .minilang import (
    Assign, Binary, Call, Cast, Expr, If, IntSort, Let, Lit, Return, Stmt,
    TypedFunction, Unary, Var, While,
)

DEFAULT_UNROLL_LIMIT = 64
BUDGET_STRIDE = 256  # path steps between two reads of the budget's clock


class SummarizeError(Exception):
    pass


class SignatureMismatch(Exception):
    """The two summaries do not range over the same input/output variables."""


class UnrollLimitExceeded(SummarizeError):
    def __init__(self, limit: int):
        super().__init__(f"loop still live after {limit} iterations")
        self.limit = limit


@dataclass(frozen=True)
class Summary:
    """Disjunctive input/output characterization of one function."""

    inputs: tuple[BvVar, ...]
    output: BvVar
    paths: tuple[tuple[tuple[Formula, ...], Term], ...]  # (path conditions, return term)

    @cached_property
    def formula(self) -> FOr:
        """One disjunct per path: (path conditions) and (output = return term)."""
        bodies = [(*conds, feq(tvar(self.output), t)) for conds, t in self.paths]
        return FOr(tuple(FAnd(body) if len(body) > 1 else body[0] for body in bodies))

    @property
    def path_count(self) -> int:
        return len(self.paths)

    @property
    def decls(self) -> tuple[BvVar, ...]:
        return self.inputs + (self.output,)

    @property
    def domain_size(self) -> int:
        n = 1
        for v in self.inputs:
            n *= v.sort.domain_size
        return n

    @cached_property
    def outputs(self):
        """``outputs(env)``: the output values the summary allows at one input point.

        ``env`` maps every input name to its unsigned canonical value.  This is
        the summary's compiled evaluator, built by ``compile_paths`` on first use."""
        return compile_paths(self.paths)


def _require_sorted(e: Expr) -> IntSort:
    if not isinstance(e.sort, IntSort):
        raise SummarizeError("expression is not type-annotated; run typecheck first")
    return e.sort


# --- constant folding helpers (kept local; the formula layer stays dumb) ---


def _mk_bin(op: str, lhs: Term, rhs: Term) -> Term:
    if isinstance(lhs, TConst) and isinstance(rhs, TConst):
        return tconst(bvarith.BINARY[op](lhs.value, rhs.value, lhs.width), lhs.width)
    return tbin(op, lhs, rhs)


def _mk_not(f: Formula) -> Formula:
    if isinstance(f, FTrue):
        return FALSE
    if isinstance(f, FFalse):
        return TRUE
    if isinstance(f, FNot):
        return f.arg
    return FNot(f)


def _mk_and(items) -> Formula:
    out = []
    for x in items:
        if isinstance(x, FFalse):
            return FALSE
        if not isinstance(x, FTrue):
            out.append(x)
    return fand(out)


def _mk_or(items) -> Formula:
    out = []
    for x in items:
        if isinstance(x, FTrue):
            return TRUE
        if not isinstance(x, FFalse):
            out.append(x)
    return for_(out)


def _mk_cmp(op: str, signed: bool, lhs: Term, rhs: Term) -> Formula:
    if isinstance(lhs, TConst) and isinstance(rhs, TConst):
        a, b, w = lhs.value, rhs.value, lhs.width
        lt = bvarith.slt(a, b, w) if signed else a < b
        eq = a == b
        result = {
            "<": lt, "<=": lt or eq, ">": not (lt or eq), ">=": not lt,
            "==": eq, "!=": not eq,
        }[op]
        return TRUE if result else FALSE
    if op == "<":
        return flt(signed, lhs, rhs)
    if op == "<=":
        return fle(signed, lhs, rhs)
    if op == ">":
        return flt(signed, rhs, lhs)
    if op == ">=":
        return fle(signed, rhs, lhs)
    if op == "==":
        return feq(lhs, rhs)
    if op == "!=":
        return _mk_not(feq(lhs, rhs))
    raise SummarizeError(f"unknown comparison {op!r}")


def _cast_term(t: Term, src: IntSort, dst: IntSort) -> Term:
    if dst.width == src.width:
        return t
    if dst.width < src.width:
        out = textract(dst.width - 1, 0, t)
    else:
        out = textend("sign" if src.signed else "zero", dst.width - src.width, t)
    if isinstance(t, TConst):
        return tconst(eval_term(out, {}), dst.width)
    return out


# minilang operator -> (unsigned, signed) term operator
_TERM_BINARY = {
    "+": ("add", "add"), "-": ("sub", "sub"), "*": ("mul", "mul"),
    "/": ("udiv", "sdiv"), "%": ("urem", "srem"),
    "<<": ("shl", "shl"), ">>": ("lshr", "ashr"),
    "&": ("and", "and"), "|": ("or", "or"), "^": ("xor", "xor"),
}


def _branches(phi: Formula) -> list[tuple[bool, list[Formula]]]:
    """The sides a branch condition allows, true side first: (taken, added conditions)."""
    if isinstance(phi, FTrue):
        return [(True, [])]
    if isinstance(phi, FFalse):
        return [(False, [])]
    return [(True, [phi]), (False, [_mk_not(phi)])]


def _cross(lhs: list, rhs: list, join) -> list:
    """Each (conditions, value) variant of ``lhs`` with each of ``rhs``, in that order."""
    return [(cl + cr, join(vl, vr)) for cl, vl in lhs for cr, vr in rhs]


# --- symbolic execution ---


def _fell_off(env, path):
    raise SummarizeError("fell off the end of a block without returning")


class _Path(NamedTuple):
    """A path being explored: its conditions so far, and their box."""

    conds: list[Formula]
    box: regions.Box


class _PathExploder:
    def __init__(self, unroll_limit: int, budget=None):
        self.unroll_limit = unroll_limit
        self.budget = budget
        self.steps = 0  # extend() calls, for the budget's stride
        self.calls: dict[tuple, list] = {}  # (callee id, argument terms) -> its paths
        self.read = cache(regions.read)  # each condition is read once per summary

    def extend(self, path: _Path, added: list[Formula]) -> _Path | None:
        """``path`` once it gains ``added``, or None if its box is then empty.  The budget is
        read every ``BUDGET_STRIDE`` calls, so a small summary never fails on the clock."""
        self.steps += 1
        if self.budget is not None and self.steps % BUDGET_STRIDE == 0 and self.budget.expired:
            raise SummarizeError(f"budget ran out after {self.steps} steps")
        if not added:
            return path
        box = regions.narrow(path.box, added, self.read)
        return None if regions.is_empty(box) else _Path(path.conds + added, box)

    def run(self, fn: TypedFunction, args: tuple[Term, ...]) -> list[tuple[list[Formula], Term]]:
        """Every path of ``fn``'s body on argument terms ``args``: (conditions, return term)."""
        out = []
        params = {name: t for (name, _), t in zip(fn.params, args)}
        self.exec_straight(fn.body, params, _Path([], {}), out, _fell_off)
        return out

    def translate_expr(self, e: Expr, env: dict[str, Term]) -> list[tuple[list[Formula], Term]]:
        """Return (extra path conditions, term) variants; calls fork on the callee's paths."""
        sort = _require_sorted(e)
        if isinstance(e, Lit):
            return [([], tconst(bvarith.to_unsigned(e.value, sort.width), sort.width))]
        if isinstance(e, Var):
            return [([], env[e.name])]
        if isinstance(e, Cast):
            src = _require_sorted(e.arg)
            return [
                (conds, _cast_term(t, src, e.target))
                for conds, t in self.translate_expr(e.arg, env)
            ]
        if isinstance(e, Unary):
            if e.op == "-":
                return [
                    (conds, tconst(bvarith.neg(t.value, t.width), t.width)
                     if isinstance(t, TConst) else tneg(t))
                    for conds, t in self.translate_expr(e.arg, env)
                ]
            if e.op == "~":
                ones = tconst(bvarith.mask(sort.width), sort.width)
                return [
                    (conds, _mk_bin("xor", t, ones))
                    for conds, t in self.translate_expr(e.arg, env)
                ]
            raise SummarizeError(f"unexpected unary {e.op!r} in value position")
        if isinstance(e, Binary):
            if e.op not in _TERM_BINARY:
                raise SummarizeError(f"unexpected operator {e.op!r} in value position")
            op = _TERM_BINARY[e.op][sort.signed]
            return _cross(self.translate_expr(e.lhs, env), self.translate_expr(e.rhs, env),
                          lambda tl, tr: _mk_bin(op, tl, tr))
        if isinstance(e, Call):
            args = [([], ())]
            for a in e.args:
                args = _cross(args, self.translate_expr(a, env), lambda ts, t: ts + (t,))
            out = []
            for conds, terms in args:
                key = (id(e.fn), terms)
                if key not in self.calls:
                    self.calls[key] = self.run(e.fn, terms)
                out += [(conds + path, t) for path, t in self.calls[key]]
            return out
        raise SummarizeError(f"cannot translate {type(e).__name__}")

    def translate_cond(self, e: Expr, env: dict[str, Term]) -> list[tuple[list[Formula], Formula]]:
        if isinstance(e, Binary) and e.op in minilang.CMP_OPS:
            signed = _require_sorted(e.lhs).signed
            return _cross(self.translate_expr(e.lhs, env), self.translate_expr(e.rhs, env),
                          lambda tl, tr: _mk_cmp(e.op, signed, tl, tr))
        if isinstance(e, Binary) and e.op in minilang.LOGIC_OPS:
            join = _mk_and if e.op == "&&" else _mk_or
            return _cross(self.translate_cond(e.lhs, env), self.translate_cond(e.rhs, env),
                          lambda fl, fr: join([fl, fr]))
        if isinstance(e, Unary) and e.op == "!":
            return [(c, _mk_not(f)) for c, f in self.translate_cond(e.arg, env)]
        raise SummarizeError(f"cannot translate condition {type(e).__name__}")

    def exec_straight(self, stmts: tuple[Stmt, ...], env, path, out, k):
        """Run ``stmts`` on every path; a return adds (path, term) to ``out``, and a
        path that reaches their end calls ``k(env, path)``."""
        if not stmts:
            k(env, path)
            return
        head, rest = stmts[0], stmts[1:]
        if isinstance(head, (Let, Assign)):
            for conds, t in self.translate_expr(head.value, env):
                if (next_path := self.extend(path, conds)) is not None:
                    self.exec_straight(rest, {**env, head.name: t}, next_path, out, k)
            return
        if isinstance(head, Return):
            for conds, t in self.translate_expr(head.value, env):
                if (next_path := self.extend(path, conds)) is not None:
                    out.append((next_path.conds, t))
            return
        if isinstance(head, If):
            for conds, phi in self.translate_cond(head.cond, env):
                for taken, extra in _branches(phi):
                    if (next_path := self.extend(path, conds + extra)) is not None:
                        block = head.then if taken else head.other or ()
                        self.exec_straight(block + rest, dict(env), next_path, out, k)
            return
        if isinstance(head, While):
            def after_loop(env2, path2):
                self.exec_straight(rest, env2, path2, out, k)

            self.run_loop_nested(head, 0, env, path, out, after_loop)
            return
        raise SummarizeError(f"cannot execute {type(head).__name__}")

    def run_loop_nested(self, loop: While, iteration: int, env, path, out, k):
        for conds, phi in self.translate_cond(loop.cond, env):
            for entered, extra in reversed(_branches(phi)):  # the exit path first
                if (next_path := self.extend(path, conds + extra)) is None:
                    continue
                if not entered:
                    k(dict(env), next_path)
                    continue
                if iteration >= self.unroll_limit:
                    raise UnrollLimitExceeded(self.unroll_limit)

                def continue_loop(env2, path2):
                    self.run_loop_nested(loop, iteration + 1, env2, path2, out, k)

                self.exec_straight(loop.body, dict(env), next_path, out, continue_loop)


def _fresh_output_name(fn: TypedFunction) -> str:
    taken = {name for name, _ in fn.params}
    name = "out"
    while name in taken:
        name += "_"
    return name


def summarize(fn: TypedFunction, unroll_limit: int = DEFAULT_UNROLL_LIMIT,
              budget=None) -> Summary:
    """Explore every box-feasible path of a type-checked function and build its summary;
    an expired ``budget`` (an ``oracle.Budget``) stops the exploration."""
    if unroll_limit < 1:
        raise SummarizeError("unroll limit must be at least 1")
    inputs = tuple(BvVar(name, sort, "input") for name, sort in fn.params)
    output = BvVar(_fresh_output_name(fn), fn.return_sort, "output")
    paths = _PathExploder(unroll_limit, budget).run(fn, tuple(tvar(v) for v in inputs))
    return Summary(inputs, output, tuple((tuple(conds), t) for conds, t in paths))


# --- concrete interpreter ---


class _Returned(Exception):
    def __init__(self, value):
        self.value = value


# minilang operator -> (unsigned, signed) operator name.  Summaries are
# checked against eval_concrete, so it keeps this reading of its own rather
# than sharing translate_expr's.
_CONCRETE_BINARY = {
    "+": ("add", "add"), "-": ("sub", "sub"), "*": ("mul", "mul"),
    "/": ("udiv", "sdiv"), "%": ("urem", "srem"),
    "<<": ("shl", "shl"), ">>": ("lshr", "ashr"),
    "&": ("and", "and"), "|": ("or", "or"), "^": ("xor", "xor"),
}


def eval_concrete(fn: TypedFunction, inputs: list[int] | tuple[int, ...],
                  unroll_limit: int = DEFAULT_UNROLL_LIMIT, calls: dict | None = None) -> int:
    """Run a function on concrete arguments with wraparound semantics.

    Arguments and the result use the sort's own interpretation (signed ints
    for signed sorts).  Loop iterations are bounded by the same unroll limit
    as summarize.  ``calls`` memoises callee results per argument tuple.
    """
    if len(inputs) != len(fn.params):
        raise SummarizeError(f"expected {len(fn.params)} arguments")
    env: dict[str, tuple[int, IntSort]] = {}
    for value, (name, sort) in zip(inputs, fn.params):
        if not sort.contains(value):
            raise SummarizeError(f"argument {value} out of range for {name}: {sort.name}")
        env[name] = (bvarith.to_unsigned(value, sort.width), sort)
    calls = {} if calls is None else calls

    def eval_expr(e: Expr) -> int:
        sort = _require_sorted(e)
        if isinstance(e, Lit):
            return bvarith.to_unsigned(e.value, sort.width)
        if isinstance(e, Var):
            return env[e.name][0]
        if isinstance(e, Cast):
            src = _require_sorted(e.arg)
            v = eval_expr(e.arg)
            if e.target.width <= src.width:
                return v & bvarith.mask(e.target.width)
            if src.signed:
                return bvarith.to_unsigned(bvarith.to_signed(v, src.width), e.target.width)
            return v
        if isinstance(e, Unary):
            if e.op == "-":
                return bvarith.neg(eval_expr(e.arg), sort.width)
            if e.op == "~":
                return bvarith.bvnot(eval_expr(e.arg), sort.width)
            raise SummarizeError("'!' in value position")
        if isinstance(e, Binary) and e.op in _CONCRETE_BINARY:
            name = _CONCRETE_BINARY[e.op][sort.signed]
            return bvarith.BINARY[name](eval_expr(e.lhs), eval_expr(e.rhs), sort.width)
        if isinstance(e, Call):
            args = tuple(
                bvarith.to_signed(v, s.width) if s.signed else v
                for v, (_, s) in zip((eval_expr(a) for a in e.args), e.fn.params)
            )
            if (key := (id(e.fn), args)) not in calls:
                calls[key] = eval_concrete(e.fn, args, unroll_limit, calls)
            return bvarith.to_unsigned(calls[key], sort.width)
        raise SummarizeError(f"cannot evaluate {type(e).__name__}")

    def eval_cond(e: Expr) -> bool:
        if isinstance(e, Binary) and e.op in minilang.CMP_OPS:
            sort = _require_sorted(e.lhs)
            a, b = eval_expr(e.lhs), eval_expr(e.rhs)
            if sort.signed:
                a, b = bvarith.to_signed(a, sort.width), bvarith.to_signed(b, sort.width)
            return {
                "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                "==": a == b, "!=": a != b,
            }[e.op]
        if isinstance(e, Binary) and e.op == "&&":
            return eval_cond(e.lhs) and eval_cond(e.rhs)
        if isinstance(e, Binary) and e.op == "||":
            return eval_cond(e.lhs) or eval_cond(e.rhs)
        if isinstance(e, Unary) and e.op == "!":
            return not eval_cond(e.arg)
        raise SummarizeError("bad condition")

    def run_block(stmts: tuple[Stmt, ...]):
        for s in stmts:
            if isinstance(s, Let):
                env[s.name] = (eval_expr(s.value), s.declared)
            elif isinstance(s, Assign):
                env[s.name] = (eval_expr(s.value), env[s.name][1])
            elif isinstance(s, If):
                if eval_cond(s.cond):
                    run_block(s.then)
                elif s.other is not None:
                    run_block(s.other)
            elif isinstance(s, While):
                count = 0
                while eval_cond(s.cond):
                    count += 1
                    if count > unroll_limit:
                        raise UnrollLimitExceeded(unroll_limit)
                    run_block(s.body)
            elif isinstance(s, Return):
                raise _Returned(eval_expr(s.value))

    try:
        run_block(fn.body)
    except _Returned as r:
        if fn.return_sort.signed:
            return bvarith.to_signed(r.value, fn.return_sort.width)
        return r.value
    raise SummarizeError("function did not return")


def require_same_signature(f1: TypedFunction, f2: TypedFunction):
    """Both programs in a pair must share parameter lists and return sort."""
    if f1.params != f2.params:
        raise SummarizeError(
            f"parameter lists differ: {[(n, s.name) for n, s in f1.params]} vs "
            f"{[(n, s.name) for n, s in f2.params]}"
        )
    if f1.return_sort != f2.return_sort:
        raise SummarizeError(
            f"return sorts differ: {f1.return_sort.name} vs {f2.return_sort.name}"
        )


def require_same_interface(s1: Summary, s2: Summary):
    """Both summaries of a pair must range over the same input and output variables."""
    if s1.inputs != s2.inputs:
        raise SignatureMismatch(
            f"input variables differ: {[v.name for v in s1.inputs]} vs {[v.name for v in s2.inputs]}"
        )
    if s1.output != s2.output:
        raise SignatureMismatch("output variables differ")
