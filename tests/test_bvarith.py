"""Fixed-width arithmetic semantics, including total division by zero."""

from hypothesis import given, strategies as st

from patcheq import bvarith

U8 = st.integers(min_value=0, max_value=255)


def test_division_by_zero_is_total():
    # SMT-LIB bit-vector theory: udiv by 0 is all ones, urem keeps the
    # dividend, sdiv flips to 1 for negative dividends, srem keeps it.
    assert bvarith.udiv(5, 0, 8) == 0xFF
    assert bvarith.urem(5, 0, 8) == 5
    assert bvarith.sdiv(5, 0, 8) == 0xFF  # +5 / 0 = -1
    assert bvarith.sdiv(bvarith.to_unsigned(-5, 8), 0, 8) == 1
    assert bvarith.srem(bvarith.to_unsigned(-5, 8), 0, 8) == bvarith.to_unsigned(-5, 8)


def test_sdiv_rounds_toward_zero():
    assert bvarith.to_signed(bvarith.sdiv(bvarith.to_unsigned(-7, 8), 2, 8), 8) == -3
    assert bvarith.to_signed(bvarith.sdiv(7, bvarith.to_unsigned(-2, 8), 8), 8) == -3
    assert bvarith.to_signed(bvarith.srem(bvarith.to_unsigned(-7, 8), 2, 8), 8) == -1


def test_shift_semantics():
    assert bvarith.shl(1, 8, 8) == 0
    assert bvarith.lshr(0x80, 8, 8) == 0
    assert bvarith.ashr(0x80, 8, 8) == 0xFF
    assert bvarith.ashr(0x80, 1, 8) == 0xC0
    assert bvarith.lshr(0x80, 1, 8) == 0x40


@given(U8, U8)
def test_add_sub_inverse(a, b):
    assert bvarith.sub(bvarith.add(a, b, 8), b, 8) == a


@given(U8, U8)
def test_signed_division_identity(a, b):
    # a == b * (a sdiv b) + (a srem b) holds whenever b != 0
    if b == 0:
        return
    q = bvarith.sdiv(a, b, 8)
    r = bvarith.srem(a, b, 8)
    assert bvarith.add(bvarith.mul(b, q, 8), r, 8) == a


@given(U8)
def test_signed_unsigned_round_trip(a):
    assert bvarith.to_unsigned(bvarith.to_signed(a, 8), 8) == a


@given(U8, U8)
def test_comparison_views_agree_on_nonnegative(a, b):
    if a < 128 and b < 128:
        assert bvarith.slt(a, b, 8) == (a < b)
