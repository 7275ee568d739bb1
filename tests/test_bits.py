import re

import numpy as np
import pytest

from privamp import BitString, gf2_matvec, hex_decode, hex_encode
from privamp.bits import _hex_rows, _unhex_rows
from privamp.exceptions import (
    DimensionMismatch,
    InvalidHexDigit,
    LengthMismatch,
    NonZeroPadding,
    PrivampError,
)


def test_hex_encode_pads_left():
    assert hex_encode(BitString("1")) == "01"
    assert hex_encode(BitString("")) == ""
    assert hex_encode(BitString("00000001")) == "01"
    assert hex_encode(BitString("1111111")) == "7f"


def test_hex_decode_examples():
    assert hex_decode("01", 1) == BitString("1")
    with pytest.raises(NonZeroPadding):
        hex_decode("ff", 7)
    with pytest.raises(LengthMismatch):
        hex_decode("ff", 20)
    with pytest.raises(InvalidHexDigit):
        hex_decode("0g", 8)


@pytest.mark.parametrize(
    "text, length, bad",
    [("0g", 8, "['g']"), ("de a", 16, "[' ']"), ("de  ", 16, "[' ']"), (" dea", 16, "[' ']")],
)
def test_hex_decode_rejects_non_digits_and_whitespace(text, length, bad):
    # bytes.fromhex alone would skip the whitespace
    with pytest.raises(InvalidHexDigit, match=re.escape(bad)):
        hex_decode(text, length)


def test_hex_round_trip_golden_seed():
    # 127-bit seed from the published vectors: top padding bit is zero
    seed_hex = "05f47ea39db462da99e3e29b06721ae6"
    seed = hex_decode(seed_hex, 127)
    assert len(seed) == 127
    assert hex_encode(seed) == seed_hex


@pytest.mark.parametrize("length", range(257))
def test_hex_round_trip_random(length):
    rng = np.random.default_rng(42 + length)
    cases = [BitString.zeros(length), BitString.ones(length)]
    for b in cases + [BitString.random(length, rng) for _ in range(25)]:
        text = hex_encode(b)
        assert len(text) == 2 * ((length + 7) // 8)
        assert hex_decode(text, length) == b


def test_bitstring_basics():
    b = BitString("0101")
    assert len(b) == 4
    assert b[1] == 1
    assert b[1:3] == BitString("10")
    assert b.to01() == "0101"
    assert b.to_int() == 5
    assert BitString.from_int(5, 4) == b
    assert list(b) == [0, 1, 0, 1]
    assert b.take([3, 0]) == BitString("10")
    assert b + BitString("11") == BitString("010111")
    assert (b ^ BitString("1111")) == BitString("1010")
    with pytest.raises(LengthMismatch):
        b ^ BitString("10")
    with pytest.raises(ValueError):
        BitString([0, 2])
    assert BitString(np.array([1.0, 0.0])) == BitString([True, False]) == BitString("10")


@pytest.mark.parametrize("bits", [
    np.array([0.5, 1.7]), np.array([256, 257]), np.array([-0.5, 1.0]), [0.5, 1.7], [256, 1],
], ids=["float-array", "wide-int-array", "negative-float-array", "float-list", "wide-int-list"])
def test_bitstring_rejects_values_other_than_0_and_1_before_casting(bits):
    with pytest.raises(ValueError, match="only 0 and 1"):
        BitString(bits)


@pytest.mark.parametrize("length", [0, 1, 7, 9, 127, 1 << 20])
def test_int_round_trip(length):
    rng = np.random.default_rng(length)
    b = BitString.random(length, rng)
    value = b.to_int()
    assert value.bit_length() <= length
    assert BitString.from_int(value, length) == b
    if length <= 127:  # MSB first: bit 0 has weight 2^(length-1)
        assert value == sum(bit << (length - 1 - i) for i, bit in enumerate(b))
    # zero-extension on the left, and values that do not fit are refused
    assert BitString.from_int(value, length + 3) == BitString.zeros(3) + b
    assert BitString.from_int(1, length + 1) == BitString.zeros(length) + BitString("1")
    with pytest.raises(ValueError):
        BitString.from_int(1 << length, length)
    with pytest.raises(ValueError):
        BitString.from_int(-1, length)


def test_bitstring_immutable_and_hashable():
    b = BitString("110")
    with pytest.raises(ValueError):
        b.bits[0] = 0
    assert hash(b) == hash(BitString("110"))
    assert b != BitString("1100")


def test_gf2_matvec_trivial():
    eye = np.eye(5, dtype=np.uint8)
    x = BitString("10110")
    assert np.array_equal(gf2_matvec(eye, x), x.bits)
    ones = np.ones((2, 3), dtype=np.uint8)
    assert gf2_matvec(ones, BitString("111")).tolist() == [1, 1]
    assert gf2_matvec(ones.astype(bool), [1, 0, 1]).tolist() == [0, 0]


def test_gf2_matvec_against_bit_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mat = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
        x = BitString.random(6, rng)
        expected = []
        for i in range(4):
            acc = 0
            for j in range(6):
                acc ^= int(mat[i, j]) & x[j]
            expected.append(acc)
        assert gf2_matvec(mat, x).tolist() == expected


def test_gf2_matvec_linear_over_xor():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        mat = rng.integers(0, 2, size=(3, 5), dtype=np.uint8)
        a = BitString.random(5, rng)
        b = BitString.random(5, rng)
        left = gf2_matvec(mat, a ^ b)
        right = gf2_matvec(mat, a) ^ gf2_matvec(mat, b)
        assert np.array_equal(left, right)


def test_gf2_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gf2_matvec(np.eye(3, dtype=np.uint8), BitString("10"))
    with pytest.raises(DimensionMismatch, match="need a 2-D matrix, got 1-D"):
        gf2_matvec(np.ones(3, dtype=np.uint8), BitString("101"))


def test_bitstring_of_a_2d_array_is_refused():
    with pytest.raises(DimensionMismatch, match="one-dimensional"):
        BitString(np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("matrix, vector, message", [
    ([[1, 1], [0, 1]], [0.5, 1.7], "only 0 and 1"),
    ([[1, 1], [0, 1]], [256, 1], "only 0 and 1"),
    ([[2, 1], [0, 1]], [1, 1], "matrix entries"),
    ([[257, 1], [0, 1]], [1, 1], "matrix entries"),
    ([[1.5, 1], [0, 1]], [1, 1], "matrix entries"),
    (np.array([[2, 1], [0, 1]], dtype=np.uint8), [1, 1], "matrix entries"),
], ids=["float-vector", "wide-vector", "matrix-2", "matrix-257", "float-matrix", "uint8-matrix-2"])
def test_gf2_matvec_rejects_values_other_than_0_and_1_before_casting(matrix, vector, message):
    # a cast first would truncate 0.5 to 0, overflow on 256 and read 2 or 257 mod 2
    with pytest.raises(ValueError, match=message):
        gf2_matvec(matrix, vector)


def test_hex_decode_accepts_uppercase():
    assert hex_decode("AB", 8) == hex_decode("ab", 8)
    assert hex_encode(hex_decode("AB", 8)) == "ab"  # output stays lowercase


# (value, length, class, message) as the codec words each rejection
HEX_REJECTIONS = [
    ("ab", -1, LengthMismatch, "length must be non-negative"),
    ("abc", 8, LengthMismatch, "expected 2 hex chars for 8 bits, got 3"),
    ("0g", 8, InvalidHexDigit, "invalid hex digit(s): ['g']"),
    ("a ", 8, InvalidHexDigit, "invalid hex digit(s): [' ']"),
    ("é0", 8, InvalidHexDigit, "invalid hex digit(s): ['é']"),
    ("ff", 7, NonZeroPadding, "1 padding bit(s) must be zero"),
    ("ffff", 13, NonZeroPadding, "3 padding bit(s) must be zero"),
]


@pytest.mark.parametrize("value, length, cls, message", HEX_REJECTIONS)
def test_hex_decode_pins_class_and_message(value, length, cls, message):
    with pytest.raises(PrivampError) as info:
        hex_decode(value, length)
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("value, length, cls, message", HEX_REJECTIONS)
@pytest.mark.parametrize("where", [0, 2, 4])
def test_unhex_rows_raises_for_a_bad_first_middle_or_last_row(value, length, cls, message, where):
    values = ["0" * ((max(length, 0) + 7) // 8 * 2)] * 5
    values[where] = value
    with pytest.raises(PrivampError) as info:
        _unhex_rows(values, length)
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 127, 128])
def test_hex_rows_match_the_one_value_codec(length):
    rows = np.random.default_rng(length).integers(0, 2, size=(6, length), dtype=np.uint8)
    text = _hex_rows(rows)
    assert text == [hex_encode(BitString(r)) for r in rows]
    bits = _unhex_rows(text, length)
    assert not bits.flags.writeable
    assert np.array_equal(bits, rows)
    assert _hex_rows(rows[:0]) == [] and _unhex_rows([], length).shape == (0, length)
