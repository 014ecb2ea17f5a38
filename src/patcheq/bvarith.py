"""Fixed-width two's-complement arithmetic on plain ints.

Values are kept in unsigned canonical form, i.e. in [0, 2**width).  Division
and remainder follow the SMT-LIB bit-vector theory, including the total
semantics for zero divisors, so the concrete interpreter, the formula
evaluator and the solver backend all agree bit for bit.

``BINARY`` is the one operator table: it maps each binary term operator of
the formula layer to its function here.  Its keys are the valid operators,
and each operator's SMT-LIB name is ``"bv" + name``.
"""

from __future__ import annotations


def mask(width: int) -> int:
    return (1 << width) - 1


def to_unsigned(value: int, width: int) -> int:
    """Map any int to its unsigned canonical form modulo 2**width."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned canonical value as a two's-complement int."""
    value &= mask(width)
    if value >> (width - 1):
        return value - (1 << width)
    return value


def add(a: int, b: int, width: int) -> int:
    return (a + b) & mask(width)


def sub(a: int, b: int, width: int) -> int:
    return (a - b) & mask(width)


def mul(a: int, b: int, width: int) -> int:
    return (a * b) & mask(width)


def neg(a: int, width: int) -> int:
    return (-a) & mask(width)


def bvnot(a: int, width: int) -> int:
    return a ^ mask(width)


def bvand(a: int, b: int, width: int) -> int:
    return a & b


def bvor(a: int, b: int, width: int) -> int:
    return a | b


def bvxor(a: int, b: int, width: int) -> int:
    return a ^ b


def udiv(a: int, b: int, width: int) -> int:
    # SMT-LIB: bvudiv by zero is all ones.
    if b == 0:
        return mask(width)
    return a // b


def urem(a: int, b: int, width: int) -> int:
    if b == 0:
        return a
    return a % b


def sdiv(a: int, b: int, width: int) -> int:
    # Rounds toward zero; bvsdiv x 0 is 1 for negative x, all ones otherwise.
    sa, sb = to_signed(a, width), to_signed(b, width)
    if sb == 0:
        return 1 if sa < 0 else mask(width)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return to_unsigned(q, width)


def srem(a: int, b: int, width: int) -> int:
    # Result takes the sign of the dividend; bvsrem x 0 is x.
    sa, sb = to_signed(a, width), to_signed(b, width)
    if sb == 0:
        return a
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return to_unsigned(r, width)


def shl(a: int, b: int, width: int) -> int:
    if b >= width:
        return 0
    return (a << b) & mask(width)


def lshr(a: int, b: int, width: int) -> int:
    if b >= width:
        return 0
    return a >> b


def ashr(a: int, b: int, width: int) -> int:
    sign = a >> (width - 1)
    if b >= width:
        return mask(width) if sign else 0
    out = a >> b
    if sign:
        out |= mask(width) ^ (mask(width) >> b)
    return out


BINARY = {
    "add": add, "sub": sub, "mul": mul,
    "udiv": udiv, "sdiv": sdiv, "urem": urem, "srem": srem,
    "shl": shl, "lshr": lshr, "ashr": ashr,
    "and": bvand, "or": bvor, "xor": bvxor,
}

# Each operator as Python text over operands {a}, {b} at width {w}, mask {m}, for
# compiled evaluators; sdiv, srem and ashr call their BINARY function by name.
PYTHON = {
    "add": "({a} + {b}) & {m}", "sub": "({a} - {b}) & {m}", "mul": "({a} * {b}) & {m}",
    "udiv": "{a} // {b} if {b} else {m}", "sdiv": "sdiv({a}, {b}, {w})",
    "urem": "{a} % {b} if {b} else {a}", "srem": "srem({a}, {b}, {w})",
    "shl": "({a} << {b}) & {m} if {b} < {w} else 0", "lshr": "{a} >> {b} if {b} < {w} else 0",
    "ashr": "ashr({a}, {b}, {w})",
    "and": "{a} & {b}", "or": "{a} | {b}", "xor": "{a} ^ {b}",
}


def slt(a: int, b: int, width: int) -> bool:
    return to_signed(a, width) < to_signed(b, width)


def sle(a: int, b: int, width: int) -> bool:
    return to_signed(a, width) <= to_signed(b, width)
