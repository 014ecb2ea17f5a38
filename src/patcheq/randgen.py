"""Random small-width program pairs for differential property testing.

Functions are built directly as well-typed ASTs over one or two i8/u8
parameters; a paired version is derived by mutating constants, operators,
guards, or return expressions, which lands the pairs across the whole
equivalent / partially equivalent / totally non-equivalent spectrum.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .minilang import (
    Binary, Cast, Expr, If, IntSort, Lit, Return, SORTS, Stmt,
    TypedFunction, Unary, Var, typecheck,
)

ARITH = ["+", "-", "*", "&", "|", "^"]
CMP = ["<", "<=", ">", ">=", "==", "!="]


def _lit_for(rng: random.Random, sort: IntSort) -> Lit:
    return Lit(rng.randint(sort.min_value, sort.max_value))


def _value_expr(rng: random.Random, sort: IntSort, names: list[str], depth: int,
                need_var: bool = False) -> Expr:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        if need_var or rng.random() < 0.7:
            return Var(rng.choice(names))
        return _lit_for(rng, sort)
    if roll < 0.45:
        shift = Lit(rng.randint(0, sort.width - 1))
        op = rng.choice(["<<", ">>"])
        return Binary(op, _value_expr(rng, sort, names, depth - 1, need_var), shift)
    if roll < 0.5:
        other = SORTS["u8" if sort.signed else "i8"]
        return Cast(sort, Cast(other, _value_expr(rng, sort, names, depth - 1, True)))
    if roll < 0.56:
        divisor = Lit(rng.choice([1, 2, 3, 5, 7]))
        return Binary(rng.choice(["/", "%"]),
                      _value_expr(rng, sort, names, depth - 1, need_var), divisor)
    if roll < 0.62:
        return Unary(rng.choice(["-", "~"]), _value_expr(rng, sort, names, depth - 1, need_var))
    op = rng.choice(ARITH)
    return Binary(op, _value_expr(rng, sort, names, depth - 1, need_var),
                  _value_expr(rng, sort, names, depth - 1))


def _cond_expr(rng: random.Random, sort: IntSort, names: list[str], depth: int) -> Expr:
    if depth > 0 and rng.random() < 0.25:
        op = rng.choice(["&&", "||"])
        return Binary(op, _cond_expr(rng, sort, names, 0), _cond_expr(rng, sort, names, 0))
    lhs = _value_expr(rng, sort, names, 1, need_var=True)
    rhs = _lit_for(rng, sort) if rng.random() < 0.7 else Var(rng.choice(names))
    return Binary(rng.choice(CMP), lhs, rhs)


def _body(rng: random.Random, sort: IntSort, names: list[str], depth: int) -> tuple[Stmt, ...]:
    stmts: list[Stmt] = []
    if depth > 0 and rng.random() < 0.75:
        cond = _cond_expr(rng, sort, names, 1)
        then = _body(rng, sort, names, depth - 1)
        if rng.random() < 0.5:
            return (If(cond, then, _body(rng, sort, names, depth - 1)),)
        stmts.append(If(cond, then, None))
    stmts.append(Return(_value_expr(rng, sort, names, 2)))
    return tuple(stmts)


def random_function(rng: random.Random, n_params: int | None = None) -> TypedFunction:
    sort = SORTS[rng.choice(["i8", "u8"])]
    if n_params is None:
        n_params = rng.choice([1, 1, 2])
    names = ["x", "y"][:n_params]
    params = tuple((n, sort) for n in names)
    body = _body(rng, sort, names, rng.choice([1, 2, 2, 3]))
    fn = TypedFunction("f", params, sort, body)
    return typecheck(fn)


def _mutate_expr(rng: random.Random, e: Expr, sort: IntSort) -> Expr:
    if isinstance(e, Binary) and e.op in CMP and rng.random() < 0.6:
        return replace(e, op=rng.choice([op for op in CMP if op != e.op]))
    if isinstance(e, Binary) and e.op in ARITH and rng.random() < 0.4:
        return replace(e, op=rng.choice([op for op in ARITH if op != e.op]))
    if isinstance(e, Lit):
        delta = rng.choice([-2, -1, 1, 2, 16])
        value = e.value + delta
        value = max(sort.min_value, min(sort.max_value, value))
        return Lit(value)
    if isinstance(e, Binary):
        which = rng.random()
        if which < 0.5:
            return replace(e, lhs=_mutate_expr(rng, e.lhs, sort))
        return replace(e, rhs=_mutate_expr(rng, e.rhs, sort))
    if isinstance(e, (Unary, Cast)):
        return replace(e, arg=_mutate_expr(rng, e.arg, sort))
    if isinstance(e, Var):
        return _lit_for(rng, sort)
    return e


def _mutate_stmts(rng: random.Random, stmts: tuple[Stmt, ...], sort: IntSort,
                  target: int, counter: list[int]) -> tuple[Stmt, ...]:
    out = []
    for s in stmts:
        if isinstance(s, Return):
            if counter[0] == target:
                s = Return(_mutate_expr(rng, s.value, sort))
            counter[0] += 1
            out.append(s)
        elif isinstance(s, If):
            if counter[0] == target:
                s = If(_mutate_expr(rng, s.cond, sort), s.then, s.other)
                counter[0] += 1
                out.append(s)
                continue
            counter[0] += 1
            then = _mutate_stmts(rng, s.then, sort, target, counter)
            other = _mutate_stmts(rng, s.other, sort, target, counter) if s.other else None
            out.append(If(s.cond, then, other))
        else:
            out.append(s)
    return tuple(out)


def _count_sites(stmts: tuple[Stmt, ...]) -> int:
    n = 0
    for s in stmts:
        if isinstance(s, Return):
            n += 1
        elif isinstance(s, If):
            n += 1 + _count_sites(s.then) + (_count_sites(s.other) if s.other else 0)
    return n


def mutate_function(rng: random.Random, fn: TypedFunction) -> TypedFunction:
    """One random edit: a guard, a constant, an operator, or a return value."""
    from .minilang import TypeError_

    sort = fn.return_sort
    sites = _count_sites(fn.body)
    for _ in range(8):
        target = rng.randrange(sites)
        body = _mutate_stmts(rng, fn.body, sort, target, [0])
        try:
            return typecheck(replace(fn, body=body))
        except TypeError_:
            continue  # e.g. a mutation erased the only variable in a condition
    return fn


def random_pair(rng: random.Random, n_params: int | None = None):
    """An (original, patched) pair; occasionally patched is identical."""
    fn = random_function(rng, n_params)
    if rng.random() < 0.08:
        return fn, fn
    mutated = mutate_function(rng, fn)
    if rng.random() < 0.3:
        mutated = mutate_function(rng, mutated)
    return fn, mutated
