"""A fixed-width integer C subset: parsing and type checking.

Programs are single functions over typed integer parameters with one return
value.  Control flow is if/else and bounded while; all arithmetic is
fixed-width two's-complement wraparound.  A call names a function defined
earlier in the same source; the parser links the call to that function, and
later stages execute the callee in its own scope, so recursion cannot occur.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional, Union


class MiniLangError(Exception):
    """Base class for parse/type errors."""


class ParseError(MiniLangError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TypeError_(MiniLangError):
    """Sort mismatch, scope violation, missing return, or rejected construct."""


# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True)
class IntSort:
    """A machine integer sort: bit width plus signedness."""

    width: int
    signed: bool

    def __post_init__(self):
        if self.width not in (8, 16, 32, 64):
            raise ValueError(f"unsupported width {self.width}")

    @property
    def name(self) -> str:
        return ("i" if self.signed else "u") + str(self.width)

    @property
    def domain_size(self) -> int:
        return 1 << self.width

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1 if self.signed else (1 << self.width) - 1

    def contains(self, value: int) -> bool:
        return self.min_value <= value <= self.max_value

    def __repr__(self):
        return self.name


SORTS = {
    s.name: s
    for s in (
        IntSort(w, sg) for w in (8, 16, 32, 64) for sg in (True, False)
    )
}


class _BoolKind:
    """Result kind of comparisons and logical connectives; not a value sort."""

    def __repr__(self):
        return "bool"


BOOL = _BoolKind()

Sort = Union[IntSort, _BoolKind]


# ---------------------------------------------------------------------------
# AST

ARITH_OPS = {"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"}
CMP_OPS = {"<", "<=", ">", ">=", "==", "!="}
LOGIC_OPS = {"&&", "||"}

# C precedence of the binary operators, loosest first.
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}


@dataclass(frozen=True)
class Expr:
    sort: Optional[Sort] = field(default=None, kw_only=True, compare=False)


@dataclass(frozen=True)
class Lit(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Cast(Expr):
    target: IntSort
    arg: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # '-', '~', '!'
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    """A call of ``fn``, a function defined earlier in the same source."""

    name: str
    args: tuple[Expr, ...]
    fn: TypedFunction = field(compare=False)


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Let(Stmt):
    name: str
    declared: IntSort
    value: Expr


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    other: Optional[tuple[Stmt, ...]]


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Return(Stmt):
    value: Expr


@dataclass(frozen=True)
class TypedFunction:
    name: str
    params: tuple[tuple[str, IntSort], ...]
    return_sort: IntSort
    body: tuple[Stmt, ...]


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><<|>>|<=|>=|==|!=|&&|\|\||->|[-+*/%<>!~&|^(){},;:=])
    """,
    re.VERBOSE,
)

KEYWORDS = {"fn", "let", "if", "else", "while", "return"} | set(SORTS)


@dataclass
class Token:
    kind: str  # 'num', 'ident', 'op', 'kw', 'eof'
    text: str
    line: int
    col: int


def _lex(source: str) -> list[Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        col = pos - line_start + 1
        text = m.group(0)
        if m.lastgroup == "ws":
            nl = text.count("\n")
            if nl:
                line += nl
                line_start = pos + text.rindex("\n") + 1
        elif m.lastgroup in ("num", "hex"):
            tokens.append(Token("num", text, line, col))
        elif m.lastgroup == "ident":
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
        else:
            tokens.append(Token("op", text, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.functions: dict[str, TypedFunction] = {}  # defined so far, by name

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # --- grammar ---

    def parse_unit(self) -> list[TypedFunction]:
        fns = []
        while not self.peek().kind == "eof":
            fns.append(self.parse_fn())
            self.functions[fns[-1].name] = fns[-1]
        if not fns:
            self.error("empty input: expected at least one function")
        return fns

    def parse_fn(self) -> TypedFunction:
        self.expect("fn")
        name_tok = self.peek()
        if name_tok.kind != "ident":
            self.error("expected function name")
        name = self.next().text
        self.expect("(")
        params: list[tuple[str, IntSort]] = []
        seen = set()
        while not self.at(")"):
            if params:
                self.expect(",")
            ptok = self.peek()
            if ptok.kind != "ident":
                self.error("expected parameter name")
            pname = self.next().text
            if pname in seen:
                self.error(f"duplicate parameter {pname!r}", ptok)
            seen.add(pname)
            self.expect(":")
            params.append((pname, self.parse_sort()))
        self.expect(")")
        self.expect("->")
        ret = self.parse_sort()
        body = self.parse_block()
        return TypedFunction(name, tuple(params), ret, body)

    def parse_sort(self) -> IntSort:
        tok = self.peek()
        if tok.text not in SORTS:
            self.error(f"unknown type name {tok.text!r}")
        self.next()
        return SORTS[tok.text]

    def parse_block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return tuple(stmts)

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.text == "let":
            self.next()
            name = self.next()
            if name.kind != "ident":
                self.error("expected variable name", name)
            self.expect(":")
            sort = self.parse_sort()
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return Let(name.text, sort, value)
        if tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            other = None
            if self.at("else"):
                self.next()
                other = self.parse_block()
            return If(cond, then, other)
        if tok.text == "while":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return While(cond, self.parse_block())
        if tok.text == "return":
            self.next()
            value = self.parse_expr()
            self.expect(";")
            return Return(value)
        if tok.kind == "ident":
            name = self.next().text
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return Assign(name, value)
        self.error(f"expected statement, found {tok.text!r}")

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Binary operators binding at ``min_prec`` or tighter, left-associative."""
        e = self.parse_unary()
        while (prec := _PRECEDENCE.get(self.peek().text, 0)) >= min_prec:
            op = self.next().text
            e = Binary(op, e, self.parse_expr(prec + 1))
        return e

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.text in ("-", "~", "!"):
            self.next()
            # A minus directly on a numeral is a negative literal (so sort
            # minima like -2147483648 parse); -(...) stays a negation node.
            if tok.text == "-" and self.peek().kind == "num":
                num = self.next()
                return Lit(-int(num.text, 0))
            return Unary(tok.text, self.parse_unary())
        if tok.text == "(" and self.tokens[self.i + 1].text in SORTS and self.tokens[self.i + 2].text == ")":
            self.next()
            sort = self.parse_sort()
            self.expect(")")
            return Cast(sort, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if tok.kind == "num":
            self.next()
            return Lit(int(tok.text, 0))
        if tok.kind == "ident":
            self.next()
            if self.at("("):
                callee = self.functions.get(tok.text)
                if callee is None:
                    self.error(f"unknown function {tok.text!r} (callees must be defined first)", tok)
                self.next()
                args = []
                while not self.at(")"):
                    if args:
                        self.expect(",")
                    args.append(self.parse_expr())
                self.expect(")")
                if len(args) != len(callee.params):
                    self.error(
                        f"call to {tok.text!r} has {len(args)} argument(s), expected {len(callee.params)}",
                        tok,
                    )
                return Call(tok.text, tuple(args), callee)
            return Var(tok.text)
        self.error(f"expected expression, found {tok.text!r}")


def parse_unit(source: str) -> list[TypedFunction]:
    """Parse all functions in a source text, in order of definition."""
    return _Parser(_lex(source)).parse_unit()


def parse(source: str) -> TypedFunction:
    """Parse a source text; the last function defined is the unit of analysis."""
    return parse_unit(source)[-1]


# ---------------------------------------------------------------------------
# Type checking


def typecheck(fn: TypedFunction) -> TypedFunction:
    """Annotate every expression with its sort and verify totality.

    Mixed-sort arithmetic without an explicit cast is rejected, conditions
    must be boolean-kinded, every variable must be a parameter or a local
    assigned before use, and every control-flow path must end in a return.
    """

    seen = set()
    for name, _ in fn.params:
        if name in seen:
            raise TypeError_(f"duplicate parameter {name!r}")
        seen.add(name)
    checked: dict[int, TypedFunction] = {}  # by callee identity, as Call.fn is compare=False

    def infer(e: Expr, env: dict[str, IntSort], expected: Optional[IntSort]) -> Expr:
        if isinstance(e, Lit):
            if expected is None:
                raise TypeError_(f"cannot infer the sort of literal {e.value}")
            if not expected.contains(e.value):
                raise TypeError_(f"literal {e.value} out of range for {expected.name}")
            return replace(e, sort=expected)
        if isinstance(e, Var):
            if e.name not in env:
                raise TypeError_(f"unknown variable {e.name!r}")
            sort = env[e.name]
            if expected is not None and sort != expected:
                raise TypeError_(
                    f"sort mismatch: {e.name!r} is {sort.name}, expected {expected.name} (casts must be explicit)"
                )
            return replace(e, sort=sort)
        if isinstance(e, Cast):
            if expected is not None and e.target != expected:
                raise TypeError_(
                    f"sort mismatch: cast yields {e.target.name}, expected {expected.name}"
                )
            inner_expected = e.target if isinstance(e.arg, Lit) else None
            arg = infer(e.arg, env, inner_expected)
            return replace(e, arg=arg, sort=e.target)
        if isinstance(e, Unary):
            if e.op == "!":
                raise TypeError_("logical '!' produces a condition, not a value")
            arg = infer(e.arg, env, expected)
            if arg.sort is None or isinstance(arg.sort, _BoolKind):
                raise TypeError_(f"operand of {e.op!r} must be an integer expression")
            return replace(e, arg=arg, sort=arg.sort)
        if isinstance(e, Binary):
            if e.op in CMP_OPS or e.op in LOGIC_OPS:
                raise TypeError_("boolean expression used as a value")
            if e.op not in ARITH_OPS:
                raise TypeError_(f"unknown operator {e.op!r}")
            lhs, rhs = _infer_same_sort(e.lhs, e.rhs, env, expected, infer)
            return replace(e, lhs=lhs, rhs=rhs, sort=lhs.sort)
        if isinstance(e, Call):
            if id(e.fn) not in checked:
                checked[id(e.fn)] = typecheck(e.fn)  # in its own scope: parameters only
            callee = checked[id(e.fn)]
            args = tuple(infer(a, env, sort) for a, (_, sort) in zip(e.args, callee.params))
            if expected is not None and callee.return_sort != expected:
                raise TypeError_(
                    f"sort mismatch: call to {e.name!r} yields {callee.return_sort.name}, expected {expected.name}"
                )
            return replace(e, args=args, fn=callee, sort=callee.return_sort)
        raise TypeError_(f"cannot type {type(e).__name__}")

    def check_cond(e: Expr, env: dict[str, IntSort]) -> Expr:
        if isinstance(e, Binary) and e.op in CMP_OPS:
            lhs, rhs = _infer_same_sort(e.lhs, e.rhs, env, None, infer)
            return replace(e, lhs=lhs, rhs=rhs, sort=BOOL)
        if isinstance(e, Binary) and e.op in LOGIC_OPS:
            return replace(e, lhs=check_cond(e.lhs, env), rhs=check_cond(e.rhs, env), sort=BOOL)
        if isinstance(e, Unary) and e.op == "!":
            return replace(e, arg=check_cond(e.arg, env), sort=BOOL)
        raise TypeError_("condition must be a comparison or logical expression")

    def check_block(stmts: tuple[Stmt, ...], env: dict[str, IntSort]
                    ) -> tuple[tuple[Stmt, ...], bool]:
        """The checked statements, and whether every path through them returns."""
        env = dict(env)
        out = []
        returns = False
        for s in stmts:
            if returns:
                raise TypeError_("unreachable statement after return")
            if isinstance(s, Let):
                if s.name in env:
                    raise TypeError_(f"variable {s.name!r} already defined")
                out.append(Let(s.name, s.declared, infer(s.value, env, s.declared)))
                env[s.name] = s.declared
            elif isinstance(s, Assign):
                if s.name not in env:
                    raise TypeError_(f"assignment to undeclared variable {s.name!r}")
                out.append(Assign(s.name, infer(s.value, env, env[s.name])))
            elif isinstance(s, If):
                cond = check_cond(s.cond, env)
                then, then_returns = check_block(s.then, env)
                other, other_returns = (None, False) if s.other is None else check_block(s.other, env)
                out.append(If(cond, then, other))
                returns = then_returns and other_returns
            elif isinstance(s, While):
                cond = check_cond(s.cond, env)
                out.append(While(cond, check_block(s.body, env)[0]))
            elif isinstance(s, Return):
                out.append(Return(infer(s.value, env, fn.return_sort)))
                returns = True
        return tuple(out), returns

    body, returns = check_block(fn.body, dict(fn.params))
    if not returns:
        raise TypeError_(f"function {fn.name!r} does not return on every path")
    return replace(fn, body=body)


def _infer_same_sort(lhs, rhs, env, expected, infer):
    """Resolve operand sorts for a binary node; literals adopt the other side."""
    if isinstance(lhs, Lit) and not isinstance(rhs, Lit):
        rhs_t = infer(rhs, env, expected)
        sort = rhs_t.sort if isinstance(rhs_t.sort, IntSort) else None
        if sort is None:
            raise TypeError_("operand is not an integer expression")
        return infer(lhs, env, sort), rhs_t
    lhs_t = infer(lhs, env, expected)
    sort = lhs_t.sort if isinstance(lhs_t.sort, IntSort) else None
    if sort is None:
        raise TypeError_("operand is not an integer expression")
    return lhs_t, infer(rhs, env, sort)
