"""Bit strings with explicit length, and GF(2) linear algebra.

Bit order convention (normative for the whole package): index 0 is the
leftmost, most significant bit, both in display ("0101...") and in hex.
Hex serialization is lowercase and MSB-first; a string whose length is
not a multiple of eight is left-padded with zero bits to the next byte
boundary, so e.g. a 127-bit seed encodes as 32 hex characters whose top
bit is zero.
"""

from __future__ import annotations

import numpy as np

from .exceptions import (
    DimensionMismatch,
    InvalidHexDigit,
    LengthMismatch,
    NonZeroPadding,
)

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class BitString:
    """Immutable ordered sequence of bits with an exact (bit) length.

    Accepts a "01" string, an iterable of 0/1 integers, a numpy array,
    or another BitString.  Instances hash and compare by value and are
    safe to share between threads.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits):
        if isinstance(bits, BitString):
            self._bits = bits._bits  # already validated and read-only
            return
        if isinstance(bits, str):
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        else:  # an array is copied, so its owner cannot change the bits
            arr = bits.copy() if isinstance(bits, np.ndarray) else np.asarray(list(bits))
        if arr.ndim != 1:
            raise DimensionMismatch("bits must be one-dimensional")
        self._bits = _zero_one(arr)

    # -- constructors -------------------------------------------------

    @classmethod
    def _wrap(cls, bits: np.ndarray) -> "BitString":
        """A BitString over ``bits``, a read-only 1-D uint8 array of 0/1 checked by the caller."""
        self = object.__new__(cls)
        self._bits = bits
        return self

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(np.zeros(length, dtype=np.uint8))

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls(np.ones(length, dtype=np.uint8))

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "BitString":
        return cls(rng.integers(0, 2, size=length, dtype=np.uint8))

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """MSB-first bits of ``value``, zero-extended to ``length``."""
        if value < 0 or (length < value.bit_length()):
            raise ValueError(f"{value} does not fit in {length} bits")
        raw = np.frombuffer(value.to_bytes((length + 7) // 8, "big"), dtype=np.uint8)
        return cls(np.unpackbits(raw)[(-length) % 8 :])

    # -- conversions --------------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 array view of the bits."""
        return self._bits

    def to_int(self) -> int:
        """MSB-first value of the bits (0 for the empty string)."""
        return int.from_bytes(np.packbits(self._bits).tobytes(), "big") >> ((-len(self)) % 8)

    def to_hex(self) -> str:
        return hex_encode(self)

    def to01(self) -> str:
        return (self._bits + ord("0")).tobytes().decode("ascii")

    # -- sequence / algebra -------------------------------------------

    def __len__(self) -> int:
        return self._bits.size

    def __iter__(self):
        return iter(int(b) for b in self._bits)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return int(self._bits[key])
        return BitString(self._bits[key])

    def take(self, indices) -> "BitString":
        """Bits at the given indices, in the given order."""
        return BitString(self._bits[np.asarray(indices, dtype=np.intp)])

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise LengthMismatch(f"cannot xor {len(self)} bits with {len(other)} bits")
        return BitString(self._bits ^ other._bits)

    def __add__(self, other: "BitString") -> "BitString":
        return BitString(np.concatenate([self._bits, BitString(other)._bits]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self):
        return hash((self._bits.size, self._bits.tobytes()))

    def __str__(self) -> str:
        return self.to01()

    def __repr__(self) -> str:
        s = self.to01()
        if len(s) > 64:
            s = s[:61] + "..."
        return f"BitString('{s}', length={len(self)})"


def hex_encode(b: BitString) -> str:
    """Lowercase hex of ``b``, MSB first, left-padded to a byte boundary."""
    return _hex_rows(BitString(b).bits[None])[0]


def hex_decode(s: str, length: int) -> BitString:
    """Inverse of :func:`hex_encode` for a known bit ``length``."""
    return BitString._wrap(_unhex_rows([s], length)[0])


def _hex_rows(rows: np.ndarray) -> list[str]:
    """:func:`hex_encode` of each row of the (c, n) 0/1 array ``rows``."""
    c, n = rows.shape
    padded = np.concatenate([np.zeros((c, (-n) % 8), dtype=np.uint8), rows], axis=1)
    # each padded row is whole bytes, so the flat packbits keeps rows apart
    text, width = np.packbits(padded).tobytes().hex(), padded.shape[1] // 4
    return [text[i * width : (i + 1) * width] for i in range(c)]


def _unhex_rows(values: list[str], length: int) -> np.ndarray:
    """:func:`hex_decode` of each string of ``values`` as one read-only (c, length) uint8 array.

    The checks run in turn over the whole column (a negative length, then
    character count, digits and padding); each raises for the first value
    that fails it.
    """
    if length < 0:
        raise LengthMismatch("length must be non-negative")
    chars = ((length + 7) // 8) * 2
    for s in values:
        if len(s) != chars:
            raise LengthMismatch(f"expected {chars} hex chars for {length} bits, got {len(s)}")
    text = "".join(values)
    try:
        raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    except ValueError:
        raw = None
    if raw is None or 2 * raw.size != len(text):  # fromhex skips whitespace
        bad = next(set(s) - _HEX_DIGITS for s in values if set(s) - _HEX_DIGITS)
        raise InvalidHexDigit(f"invalid hex digit(s): {sorted(bad)}")
    bits = np.unpackbits(raw.reshape(len(values), chars // 2), axis=1)
    pad = bits.shape[1] - length
    if pad and bits[:, :pad].any():
        raise NonZeroPadding(f"{pad} padding bit(s) must be zero")
    bits.setflags(write=False)
    return bits[:, pad:]


def _zero_one(values, what: str = "bits") -> np.ndarray:
    """``values`` as a read-only uint8 array, a view of a uint8 or bool one; ValueError unless 0/1."""
    arr = np.asarray(values)
    if arr.dtype.char in "B?":  # uint8 or bool: viewed and scanned once
        arr = arr.view(np.uint8)
        ok = not arr.size or arr.max() <= 1
    else:  # checked before the cast, which would truncate or wrap
        ok = ((arr == 0) | (arr == 1)).all()
    if not ok:
        raise ValueError(f"{what} must contain only 0 and 1")
    arr = arr.astype(np.uint8, copy=False)
    arr.setflags(write=False)
    return arr


def gf2_matvec(matrix: np.ndarray, x) -> np.ndarray:
    """Matrix-vector product over GF(2): z_i = XOR_j (M_ij AND x_j)."""
    v = BitString(x).bits
    m = _zero_one(matrix, "matrix entries")
    if m.ndim != 2:
        raise DimensionMismatch(f"need a 2-D matrix, got {m.ndim}-D")
    if m.shape[1] != v.size:
        raise DimensionMismatch(f"matrix has {m.shape[1]} columns, vector has {v.size}")
    return ((m & v).sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)
