"""Parsing, calls and type checking of the mini-language."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from patcheq import minilang
from patcheq.minilang import (
    SORTS, Binary, Cast, If, Lit, ParseError, Return, TypeError_, Unary, Var,
    parse, parse_unit, typecheck,
)
from patcheq.randgen import random_function
from patcheq.summarizer import eval_concrete

from conftest import fn


def test_parse_guard_with_folded_constant():
    # count >= INT_MAX / sizeof(int64_t), with the constant already folded
    f = parse("fn f(x: u32) -> i32 { if (x >= 268435455) { return -22; } return 0; }")
    assert f.name == "f"
    assert [s.name for _, s in f.params] == ["u32"]
    assert f.return_sort.name == "i32"
    assert isinstance(f.body[0], If)
    assert isinstance(f.body[1], Return)


def test_parse_identity():
    f = parse("fn id(x: i8) -> i8 { return x; }")
    assert f.body == (Return(Var("x")),)


A, B, C = Var("a"), Var("b"), Var("c")

# Binary operator levels of C, loosest first, one operator standing for each.
LEVELS = ["||", "&&", "|", "^", "&", "==", "<", "<<", "+", "*"]


def expr(src: str):
    return parse(f"fn f(a: i32, b: i32, c: i32) -> i32 {{ return {src}; }}").body[0].value


@pytest.mark.parametrize("loose,tight", zip(LEVELS, LEVELS[1:]))
def test_each_precedence_level_binds_looser_than_the_next(loose, tight):
    assert expr(f"a {loose} b {tight} c") == Binary(loose, A, Binary(tight, B, C))
    assert expr(f"a {tight} b {loose} c") == Binary(loose, Binary(tight, A, B), C)


@pytest.mark.parametrize("src,expected", [
    # operators sharing a level associate to the left
    ("a - b - c", Binary("-", Binary("-", A, B), C)),
    ("a / b / c", Binary("/", Binary("/", A, B), C)),
    ("a << b << c", Binary("<<", Binary("<<", A, B), C)),
    ("a == b != c", Binary("!=", Binary("==", A, B), C)),
    ("a <= b > c", Binary(">", Binary("<=", A, B), C)),
    ("a % b * c", Binary("*", Binary("%", A, B), C)),
    ("a >> b >> c", Binary(">>", Binary(">>", A, B), C)),
    # a cast binds tighter than any binary operator
    ("(i8) a + b", Binary("+", Cast(SORTS["i8"], A), B)),
    ("a * (u16) b", Binary("*", A, Cast(SORTS["u16"], B))),
    ("(i8) -a", Cast(SORTS["i8"], Unary("-", A))),
    # a minus on a numeral is a literal; on anything else, a negation
    ("-5", Lit(-5)),
    ("-(5)", Unary("-", Lit(5))),
    ("-a", Unary("-", A)),
    ("a - -5", Binary("-", A, Lit(-5))),
    ("-a * b", Binary("*", Unary("-", A), B)),
    # unary chains
    ("~-a", Unary("~", Unary("-", A))),
    ("!(a < b)", Unary("!", Binary("<", A, B))),
    ("!!(a == b) && c", Binary("&&", Unary("!", Unary("!", Binary("==", A, B))), C)),
    # parentheses override precedence
    ("(a + b) * c", Binary("*", Binary("+", A, B), C)),
    ("a - (b - c)", Binary("-", A, Binary("-", B, C))),
    ("(a || b) && c", Binary("&&", Binary("||", A, B), C)),
    ("((a))", A),
])
def test_parser_builds_the_expected_tree(src, expected):
    assert expr(src) == expected


def test_unknown_variable_is_rejected():
    f = parse("fn f(x: i32) -> i32 { return y; }")
    with pytest.raises(TypeError_, match="unknown variable 'y'"):
        typecheck(f)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("fn f(x: i32) -> i32 {\n  return x +; }")
    assert err.value.line == 2


def test_duplicate_parameter():
    with pytest.raises(ParseError, match="duplicate parameter"):
        parse("fn f(x: i32, x: i32) -> i32 { return x; }")


def test_unknown_type_name():
    with pytest.raises(ParseError, match="unknown type name"):
        parse("fn f(x: i31) -> i32 { return 0; }")


def test_mixed_sorts_require_cast():
    f = parse("fn f(x: i32, y: u32) -> i32 { return x + y; }")
    with pytest.raises(TypeError_, match="casts must be explicit"):
        typecheck(f)
    fn("fn f(x: i32, y: u32) -> i32 { return x + (i32) y; }")  # with cast: fine


def test_missing_return_on_some_path():
    f = parse("fn f(x: i32) -> i32 { if (x > 0) { return 1; } else { x = 2; } }")
    with pytest.raises(TypeError_, match="does not return on every path"):
        typecheck(f)


def test_tcp_window_guard_is_well_typed():
    fn("fn f(val: i32) -> i32 { if (val < 8 || val > 32767) { return -22; } return val; }")


def test_condition_cannot_be_a_value():
    with pytest.raises(TypeError_, match="boolean expression used as a value"):
        fn("fn f(x: i32) -> i32 { return x < 3; }")


def test_value_cannot_be_a_condition():
    with pytest.raises(TypeError_, match="condition must be a comparison"):
        fn("fn f(x: i32) -> i32 { if (x) { return 1; } return 0; }")


def test_unreachable_statement_rejected():
    with pytest.raises(TypeError_, match="unreachable"):
        fn("fn f(x: i32) -> i32 { return x; x = 1; }")


def test_division_flag():
    fn("fn f(x: i32) -> i32 { return x / 2; }")  # division is accepted


def test_literal_needs_context():
    with pytest.raises(TypeError_, match="cannot infer"):
        fn("fn f(x: i32) -> i32 { if (3 < 5) { return 1; } return 0; }")


def test_hex_literals():
    f = fn("fn f(x: u32) -> u32 { if (x > 0x1F) { return 0xFF; } return x; }")
    assert eval_concrete(f, [0x20]) == 0xFF
    assert eval_concrete(f, [7]) == 7


def test_literal_range_checked():
    with pytest.raises(TypeError_, match="out of range"):
        fn("fn f(x: i8) -> i8 { return x + 200; }")
    fn("fn f(x: u8) -> u8 { return x + 200; }")


# --- calls ---

LTFIVE = """
fn lib(x: i32) -> i32 { if (x < 0) { return 0; } else { return x; } }
fn client(x: i32) -> i32 { if (x < 0) { return -lib((-x)*5)/5; } return lib((x+1)*5)/5-1; }
"""


def test_inline_two_function_unit():
    unit = parse_unit(LTFIVE)
    assert [f.name for f in unit] == ["lib", "client"]
    assert parse(LTFIVE).name == "client"


def test_inline_env_merge():
    src = """
fn clamp(v: i32) -> i32 {
    let out: i32 = v;
    if (v > 100) { out = 100; }
    return out;
}
fn caller(x: i32) -> i32 { return clamp(x + 1) * 2; }
"""
    f = fn(src)
    assert eval_concrete(f, [5]) == 12
    assert eval_concrete(f, [500]) == 200


def test_inline_chain():
    src = """
fn a(x: i32) -> i32 { return x + 1; }
fn b(x: i32) -> i32 { return a(x) * 2; }
fn c(x: i32) -> i32 { return b(x) + a(x); }
"""
    f = fn(src)
    assert eval_concrete(f, [3]) == (3 + 1) * 2 + (3 + 1)


def test_call_to_undefined_function():
    with pytest.raises(ParseError, match="unknown function") as err:
        parse("fn caller(x: i32) -> i32 { return helper(x); }")
    assert (err.value.line, err.value.col) == (1, 35)  # at the call


def test_call_arity_checked():
    src = """
fn a(x: i32) -> i32 { return x; }
fn caller(x: i32) -> i32 { return a(x, x); }
"""
    with pytest.raises(ParseError, match="argument") as err:
        parse(src)
    assert (err.value.line, err.value.col) == (3, 35)


@pytest.mark.parametrize("src, message", [
    # a callee sees only its parameters, not the caller's variables
    ("fn g(a: i32) -> i32 { return a + x; }\n"
     "fn f(x: i32) -> i32 { return g(1); }", "unknown variable 'x'"),
    ("fn g(a: u8) -> u8 { let b: i8 = a; return a; }\n"
     "fn f(x: u8) -> u8 { return g(x); }", "'a' is u8, expected i8"),
    ("fn g(a: i8) -> i16 { return (i16) a; }\n"
     "fn f(x: i8) -> i8 { return g(x); }", "call to 'g' yields i16, expected i8"),
])
def test_call_checks_the_callee_in_its_own_scope(src, message):
    with pytest.raises(TypeError_, match=message):
        fn(src)


def test_typecheck_checks_each_callee_once(monkeypatch):
    # f_i(x) = f_{i-1}(x) + f_{i-1}(x): checking per call site costs 2^15 - 1
    lines = ["fn f0(x: i8) -> i8 { return x + 1; }"]
    lines += [f"fn f{i}(x: i8) -> i8 {{ return f{i - 1}(x) + f{i - 1}(x); }}" for i in range(1, 15)]
    top = parse("\n".join(lines))
    calls = []
    real = minilang.typecheck

    def counting(f):
        calls.append(f.name)
        return real(f)

    monkeypatch.setattr(minilang, "typecheck", counting)
    minilang.typecheck(top)
    assert sorted(calls) == sorted(f"f{i}" for i in range(15))


def test_call_argument_sort_enforced():
    src = """
fn a(x: u32) -> u32 { return x; }
fn caller(x: i32) -> i32 { return (i32) a(x); }
"""
    with pytest.raises(TypeError_):
        typecheck(parse(src))


# --- evaluation fuzz ---


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.data())
def test_accepted_functions_evaluate_everywhere(seed, data):
    f = random_function(random.Random(seed))
    args = [
        data.draw(st.integers(min_value=s.min_value, max_value=s.max_value))
        for _, s in f.params
    ]
    value = eval_concrete(f, args)
    assert f.return_sort.contains(value)
