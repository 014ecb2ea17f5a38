"""Symbolic summaries by exhaustive path enumeration, and concrete evaluation.

A summary is a disjunction of per-path constraints: each explored path
contributes (path condition over inputs) and (output = return term).  Local
variables are eliminated by substitution during execution, so the summary's
free variables are exactly the inputs plus the single output.  A call runs
the callee's body on the argument terms, and each callee path that returns
becomes one variant of the call expression.  Loops are unrolled up to a
hard limit; a loop still symbolically live at the limit is an error, never a
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import bvarith, minilang
from .formula import (
    BvVar, Formula, Term, TConst, FAnd, FNot, FOr, FTrue, FFalse, TRUE, FALSE,
    eval_term, fand, feq, fle, flt, for_, tbin, tconst, textend, textract, tneg, tvar,
)
from .minilang import (
    Assign, Binary, Call, Cast, Expr, If, IntSort, Let, Lit, Return, Stmt,
    TypedFunction, Unary, Var, While,
)

DEFAULT_UNROLL_LIMIT = 64


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
    formula: FOr

    @property
    def path_count(self) -> int:
        return len(self.formula.items)

    @property
    def decls(self) -> tuple[BvVar, ...]:
        return self.inputs + (self.output,)

    @property
    def domain_size(self) -> int:
        n = 1
        for v in self.inputs:
            n *= v.sort.domain_size
        return n


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


_ARITH_TO_TERM = {
    "+": "add", "-": "sub", "*": "mul",
    "&": "and", "|": "or", "^": "xor", "<<": "shl",
}


# --- symbolic execution ---


def _fell_off(env, path):
    raise SummarizeError("fell off the end of a block without returning")


class _PathExploder:
    def __init__(self, ret, unroll_limit: int, prune=None):
        self.ret = ret  # callable(path, term), once per path that reaches a return
        self.unroll_limit = unroll_limit
        self.prune = prune  # optional callable(list[Formula]) -> bool (satisfiable?)

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
                out = []
                for conds, t in self.translate_expr(e.arg, env):
                    if isinstance(t, TConst):
                        out.append((conds, tconst(bvarith.neg(t.value, t.width), t.width)))
                    else:
                        out.append((conds, tneg(t)))
                return out
            if e.op == "~":
                ones = tconst(bvarith.mask(sort.width), sort.width)
                return [
                    (conds, _mk_bin("xor", t, ones))
                    for conds, t in self.translate_expr(e.arg, env)
                ]
            raise SummarizeError(f"unexpected unary {e.op!r} in value position")
        if isinstance(e, Binary):
            op = e.op
            variants = []
            for cl, tl in self.translate_expr(e.lhs, env):
                for cr, tr in self.translate_expr(e.rhs, env):
                    conds = cl + cr
                    if op in _ARITH_TO_TERM:
                        variants.append((conds, _mk_bin(_ARITH_TO_TERM[op], tl, tr)))
                    elif op == "/":
                        variants.append((conds, _mk_bin("sdiv" if sort.signed else "udiv", tl, tr)))
                    elif op == "%":
                        variants.append((conds, _mk_bin("srem" if sort.signed else "urem", tl, tr)))
                    elif op == ">>":
                        variants.append((conds, _mk_bin("ashr" if sort.signed else "lshr", tl, tr)))
                    else:
                        raise SummarizeError(f"unexpected operator {op!r} in value position")
            return variants
        if isinstance(e, Call):
            args = [([], ())]
            for a in e.args:
                args = [(c1 + c2, ts + (t,)) for c1, ts in args for c2, t in self.translate_expr(a, env)]
            out = []
            sub = _PathExploder(lambda path, t: out.append((path, t)), self.unroll_limit, self.prune)
            for conds, terms in args:
                params = {name: t for (name, _), t in zip(e.fn.params, terms)}
                sub.exec_straight(e.fn.body, params, conds, _fell_off)
            return out
        raise SummarizeError(f"cannot translate {type(e).__name__}")

    def translate_cond(self, e: Expr, env: dict[str, Term]) -> list[tuple[list[Formula], Formula]]:
        if isinstance(e, Binary) and e.op in minilang.CMP_OPS:
            signed = _require_sorted(e.lhs).signed
            out = []
            for cl, tl in self.translate_expr(e.lhs, env):
                for cr, tr in self.translate_expr(e.rhs, env):
                    out.append((cl + cr, _mk_cmp(e.op, signed, tl, tr)))
            return out
        if isinstance(e, Binary) and e.op in minilang.LOGIC_OPS:
            out = []
            for cl, fl in self.translate_cond(e.lhs, env):
                for cr, fr in self.translate_cond(e.rhs, env):
                    conds = cl + cr
                    if e.op == "&&":
                        out.append((conds, _mk_and([fl, fr])))
                    else:
                        out.append((conds, _mk_or([fl, fr])))
            return out
        if isinstance(e, Unary) and e.op == "!":
            return [(c, _mk_not(f)) for c, f in self.translate_cond(e.arg, env)]
        raise SummarizeError(f"cannot translate condition {type(e).__name__}")

    def feasible(self, path: list[Formula]) -> bool:
        if self.prune is None:
            return True
        return self.prune(path)

    def exec_straight(self, stmts: tuple[Stmt, ...], env, path, k):
        """Run ``stmts`` on every path; a path that reaches their end calls ``k(env, path)``."""
        if not stmts:
            k(env, path)
            return
        head, rest = stmts[0], stmts[1:]
        if isinstance(head, (Let, Assign)):
            for conds, t in self.translate_expr(head.value, env):
                new_path = path + conds
                if conds and not self.feasible(new_path):
                    continue
                new_env = dict(env)
                new_env[head.name] = t
                self.exec_straight(rest, new_env, new_path, k)
            return
        if isinstance(head, Return):
            for conds, t in self.translate_expr(head.value, env):
                new_path = path + conds
                if conds and not self.feasible(new_path):
                    continue
                self.ret(new_path, t)
            return
        if isinstance(head, If):
            for conds, phi in self.translate_cond(head.cond, env):
                base = path + conds
                if conds and not self.feasible(base):
                    continue
                if isinstance(phi, FTrue):
                    self.exec_straight(head.then + rest, dict(env), base, k)
                elif isinstance(phi, FFalse):
                    self.exec_straight((head.other or ()) + rest, dict(env), base, k)
                else:
                    tp = base + [phi]
                    if self.feasible(tp):
                        self.exec_straight(head.then + rest, dict(env), tp, k)
                    fp = base + [_mk_not(phi)]
                    if self.feasible(fp):
                        self.exec_straight((head.other or ()) + rest, dict(env), fp, k)
            return
        if isinstance(head, While):
            def after_loop(env2, path2):
                self.exec_straight(rest, env2, path2, k)

            self.run_loop_nested(head, 0, env, path, after_loop)
            return
        raise SummarizeError(f"cannot execute {type(head).__name__}")

    def run_loop_nested(self, loop: While, iteration: int, env, path, k):
        for conds, phi in self.translate_cond(loop.cond, env):
            base = path + conds
            if conds and not self.feasible(base):
                continue
            if isinstance(phi, FFalse):
                k(dict(env), base)
                continue
            exit_path = base if isinstance(phi, FTrue) else base + [_mk_not(phi)]
            enter_path = base if isinstance(phi, FTrue) else base + [phi]
            if not isinstance(phi, FTrue) and self.feasible(exit_path):
                k(dict(env), exit_path)
            if self.feasible(enter_path):
                if iteration >= self.unroll_limit:
                    raise UnrollLimitExceeded(self.unroll_limit)

                def continue_loop(env2, path2):
                    self.run_loop_nested(loop, iteration + 1, env2, path2, k)

                self.exec_straight(loop.body, dict(env), enter_path, continue_loop)


def _fresh_output_name(fn: TypedFunction) -> str:
    taken = {name for name, _ in fn.params}
    name = "out"
    while name in taken:
        name += "_"
    return name


def summarize(fn: TypedFunction, unroll_limit: int = DEFAULT_UNROLL_LIMIT, prune=None) -> Summary:
    """Explore every path of a type-checked function and build its summary.

    ``prune``, when given, is a callable taking a list of path-condition
    formulas and returning whether they are jointly satisfiable; infeasible
    prefixes are then skipped.  Summaries are logically identical with
    pruning on or off.
    """
    if unroll_limit < 1:
        raise SummarizeError("unroll limit must be at least 1")
    inputs = tuple(BvVar(name, sort, "input") for name, sort in fn.params)
    output = BvVar(_fresh_output_name(fn), fn.return_sort, "output")
    disjuncts: list[Formula] = []

    def ret(path, t):
        body = path + [feq(tvar(output), t)]
        disjuncts.append(FAnd(tuple(body)) if len(body) > 1 else body[0])

    ex = _PathExploder(ret, unroll_limit, prune)
    ex.exec_straight(fn.body, {v.name: tvar(v) for v in inputs}, [], _fell_off)
    if not disjuncts:
        raise SummarizeError("no feasible path reached a return")
    return Summary(inputs, output, FOr(tuple(disjuncts)))


# --- concrete interpreter ---


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
                  unroll_limit: int = DEFAULT_UNROLL_LIMIT) -> int:
    """Run a function on concrete arguments with wraparound semantics.

    Arguments and the result use the sort's own interpretation (signed ints
    for signed sorts).  Loop iterations are bounded by the same unroll limit
    as summarize.
    """
    if len(inputs) != len(fn.params):
        raise SummarizeError(f"expected {len(fn.params)} arguments")
    env: dict[str, tuple[int, IntSort]] = {}
    for value, (name, sort) in zip(inputs, fn.params):
        if not sort.contains(value):
            raise SummarizeError(f"argument {value} out of range for {name}: {sort.name}")
        env[name] = (bvarith.to_unsigned(value, sort.width), sort)

    class _Returned(Exception):
        def __init__(self, value):
            self.value = value

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
            args = [
                bvarith.to_signed(v, s.width) if s.signed else v
                for v, (_, s) in zip((eval_expr(a) for a in e.args), e.fn.params)
            ]
            return bvarith.to_unsigned(eval_concrete(e.fn, args, unroll_limit), sort.width)
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
