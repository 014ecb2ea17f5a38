"""Symbolic summaries by exhaustive path enumeration, and concrete evaluation.

A summary is the list of a function's paths, each a (path conditions over
inputs, return term) pair; as a formula it is the disjunction of (path
conditions) and (output = return term).  Execution maps one path state to
the states that follow it: each step is a generator of its successor states,
and generators are pulled depth first, so each path runs to its end before
the next starts, a branch's true side first, a loop's exit first, and the
first operand's paths varying slowest.  Local variables are eliminated by
substitution, so the summary's free variables are exactly the inputs plus
the single output.  A call runs the callee's body once per distinct argument
terms, and forks the path on each callee path.  Each path carries its box
(``regions``), narrowed by each condition it gains, and is dropped once the
box is empty, so a summary keeps only box-feasible paths; opaque conditions
never prune.  Loops are unrolled up to a hard limit; a loop whose next
iteration is still box-feasible at the limit is an error, never a
truncation.  A budget stops a long exploration with an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from . import bvarith, minilang, regions
from .formula import (
    BvVar, Formula, Term, TConst, FAnd, FNot, FOr, FTrue, FFalse, TRUE, FALSE,
    compile_paths, fand, feq, fle, flt, for_, tbin, tconst, textend, textract,
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

    @cached_property
    def boxes(self) -> tuple[tuple[regions.Box, bool, Term], ...]:
        """Each path as (box, exact, return term), read on first use (``regions.path_box``)."""
        reads = cache(regions.read)
        return tuple((*regions.path_box(conds, reads), t) for conds, t in self.paths)


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


def _mk_logic(op: str, items) -> Formula:
    """``items`` joined by ``&&`` or ``||``: its absorbing constant decides the result,
    and the other constant drops out."""
    absorbing, join = (FFalse, fand) if op == "&&" else (FTrue, for_)
    out = []
    for x in items:
        if isinstance(x, absorbing):
            return x
        if not isinstance(x, (FTrue, FFalse)):
            out.append(x)
    return join(out)


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
    if isinstance(t, TConst):
        v = t.value
        return tconst(bvarith.to_signed(v, src.width) if src.signed else v, dst.width)
    if dst.width < src.width:
        return textract(dst.width - 1, 0, t)
    return textend("sign" if src.signed else "zero", dst.width - src.width, t)


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


# --- symbolic execution ---


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
        for _ in self.block(fn.body, params, _Path([], {}), out):
            raise SummarizeError("fell off the end of a block without returning")
        return out

    def each(self, step, items: tuple, env, path):
        """Yield (path, values), one value per item from ``step``, the first item's slowest."""
        if not items:
            yield path, ()
            return
        for path, value in step(items[0], env, path):
            for path, values in self.each(step, items[1:], env, path):
                yield path, (value, *values)

    def expr(self, e: Expr, env: dict[str, Term], path: _Path):
        """Yield (path, term) for each way ``e`` evaluates; a call forks on the callee's paths."""
        sort = _require_sorted(e)
        if isinstance(e, Lit):
            yield path, tconst(bvarith.to_unsigned(e.value, sort.width), sort.width)
        elif isinstance(e, Var):
            yield path, env[e.name]
        elif isinstance(e, Cast):
            src = _require_sorted(e.arg)
            for path, t in self.expr(e.arg, env, path):
                yield path, _cast_term(t, src, e.target)
        elif isinstance(e, Unary) and e.op == "-":
            for path, t in self.expr(e.arg, env, path):
                yield path, (tconst(bvarith.neg(t.value, t.width), t.width)
                             if isinstance(t, TConst) else tneg(t))
        elif isinstance(e, Unary) and e.op == "~":
            ones = tconst(bvarith.mask(sort.width), sort.width)
            for path, t in self.expr(e.arg, env, path):
                yield path, _mk_bin("xor", t, ones)
        elif isinstance(e, Unary):
            raise SummarizeError(f"unexpected unary {e.op!r} in value position")
        elif isinstance(e, Binary):
            if e.op not in _TERM_BINARY:
                raise SummarizeError(f"unexpected operator {e.op!r} in value position")
            op = _TERM_BINARY[e.op][sort.signed]
            for path, (tl, tr) in self.each(self.expr, (e.lhs, e.rhs), env, path):
                yield path, _mk_bin(op, tl, tr)
        elif isinstance(e, Call):
            for path, terms in self.each(self.expr, e.args, env, path):
                key = (id(e.fn), terms)
                if key not in self.calls:
                    self.calls[key] = self.run(e.fn, terms)
                for conds, t in self.calls[key]:
                    if (next_path := self.extend(path, conds)) is not None:
                        yield next_path, t
        else:
            raise SummarizeError(f"cannot translate {type(e).__name__}")

    def cond(self, e: Expr, env: dict[str, Term], path: _Path):
        """Yield (path, formula) for each way the condition ``e`` evaluates."""
        if isinstance(e, Binary) and e.op in minilang.CMP_OPS:
            signed = _require_sorted(e.lhs).signed
            for path, (tl, tr) in self.each(self.expr, (e.lhs, e.rhs), env, path):
                yield path, _mk_cmp(e.op, signed, tl, tr)
        elif isinstance(e, Binary) and e.op in minilang.LOGIC_OPS:
            for path, pair in self.each(self.cond, (e.lhs, e.rhs), env, path):
                yield path, _mk_logic(e.op, pair)
        elif isinstance(e, Unary) and e.op == "!":
            for path, f in self.cond(e.arg, env, path):
                yield path, _mk_not(f)
        else:
            raise SummarizeError(f"cannot translate condition {type(e).__name__}")

    def block(self, stmts: tuple[Stmt, ...], env, path: _Path, out: list):
        """Yield the (env, path) states that run off the end of ``stmts``; a return adds
        (conditions, term) to ``out`` instead."""
        stack = [(0, iter([(env, path)]))]  # (next statement, the states that reach it)
        while stack:
            i, states = stack[-1]
            state = next(states, None)
            if state is None:
                stack.pop()
            elif i == len(stmts):
                yield state
            else:
                stack.append((i + 1, self.stmt(stmts[i], *state, out)))

    def stmt(self, s: Stmt, env, path: _Path, out: list):
        if isinstance(s, (Let, Assign)):
            for path, t in self.expr(s.value, env, path):
                yield {**env, s.name: t}, path
        elif isinstance(s, Return):
            for path, t in self.expr(s.value, env, path):
                out.append((path.conds, t))
        elif isinstance(s, If):
            for path, phi in self.cond(s.cond, env, path):
                for taken, added in _branches(phi):
                    if (next_path := self.extend(path, added)) is not None:
                        branch = s.then if taken else s.other or ()
                        yield from self.block(branch, env, next_path, out)
        elif isinstance(s, While):
            yield from self.loop(s, 0, env, path, out)
        else:
            raise SummarizeError(f"cannot execute {type(s).__name__}")

    def loop(self, loop: While, iteration: int, env, path: _Path, out: list):
        """Yield the states that leave ``loop`` from its ``iteration``-th test on, exit first."""
        for path, phi in self.cond(loop.cond, env, path):
            for entered, added in reversed(_branches(phi)):
                if (next_path := self.extend(path, added)) is None:
                    continue
                if not entered:
                    yield env, next_path
                elif iteration >= self.unroll_limit:
                    raise UnrollLimitExceeded(self.unroll_limit)
                else:
                    for env2, path2 in self.block(loop.body, env, next_path, out):
                        yield from self.loop(loop, iteration + 1, env2, path2, out)


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
# than sharing _PathExploder.expr's.
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
