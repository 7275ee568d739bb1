"""Correctness checks for the outputs the benchmark measures.

Each check recomputes a sample of output bits from the defining
formula, by a route that differs from the one privamp takes:

- Toeplitz: one row at a time from T[i, j] = y[(i - j) mod q], plus
  the identity block for modified Toeplitz; no n x n matrix is built.
- Test vectors: a line parser of the benchmark's own.
- Trevisan: the weak-design set and the one-bit polynomial are both
  evaluated as sums of monomials built from ``mul_i``/``pow_i``, so the
  check does not share Horner's evaluation order with the extractor.
"""

from __future__ import annotations

import re

import numpy as np

_FIELD = re.compile(r"^(COUNT|INPUT|SEED|OUTPUT)\s*=\s*(\S*)\s*$")


def sample_indices(rng: np.random.Generator, size: int, count: int) -> list[int]:
    """``count`` distinct indices below ``size``, always including the first and last."""
    if count >= size:
        return list(range(size))
    picked = {0, size - 1} | set(rng.choice(size, size=count, replace=False).tolist())
    return sorted(picked)


def toeplitz_rows_ok(kind: str, x: np.ndarray, y: np.ndarray, out: np.ndarray, rows) -> bool:
    """Do the given rows of ``out`` equal (T(y) x)_i, with the identity block if modified?"""
    m, q = out.size, y.size
    k = x.size - m if kind == "modified-toeplitz" else x.size
    j = np.arange(k)
    for i in rows:
        bit = np.count_nonzero(y[(i - j) % q] & x[:k]) & 1
        if kind == "modified-toeplitz":
            bit ^= int(x[k + i])
        if bit != out[i]:
            return False
    return True


def parse_rsp(text: str) -> list[dict]:
    """Cases of a .rsp file as dicts of COUNT/INPUT/SEED/OUTPUT strings."""
    cases = []
    for line in text.splitlines():
        match = _FIELD.match(line.strip())
        if not match:
            continue
        key, value = match.groups()
        if key == "COUNT":
            cases.append({})
        if not cases:
            raise ValueError(f"{key} before the first COUNT")
        cases[-1][key] = value
    return cases


def _bits_to_int(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> ((-bits.size) % 8)


def trevisan_bits_ok(GF, x, y, out, t: int, indices) -> bool:
    """Do the given bits of a Trevisan output match a monomial-sum evaluation?

    ``GF`` is the field factory; ``x``, ``y`` and ``out`` are 0/1 arrays
    and ``t`` the one-bit seed length (the design is over GF(t)).
    """
    n, m = x.size, out.size
    design, one_bit = GF(t), GF(2 ** (t // 2))
    l = t // 2
    c = 0
    while t ** (c + 1) < m:
        c += 1
    s = -(-n // l)
    padded = np.concatenate([x, np.zeros(s * l - n, dtype=np.uint8)])
    chunks = [_bits_to_int(padded[j * l : (j + 1) * l]) for j in range(s)]

    for i in indices:
        digits = [(i // t**k) % t for k in range(c + 1)]
        members = []
        for a in range(t):
            value = 0
            for k, digit in enumerate(digits):
                value = design.add_i(value, design.mul_i(digit, design.pow_i(a, k)))
            members.append(a * t + value)
        seed_bits = y[sorted(members)]
        alpha, beta = _bits_to_int(seed_bits[:l]), _bits_to_int(seed_bits[l:])
        powers = [1]
        for _ in range(s - 1):
            powers.append(one_bit.mul_i(powers[-1], alpha))
        if powers[-1] != one_bit.pow_i(alpha, s - 1):
            return False
        # the leftmost chunk is the highest-degree coefficient
        value = 0
        for j, chunk in enumerate(chunks):
            value = one_bit.add_i(value, one_bit.mul_i(chunk, powers[s - 1 - j]))
        if (value & beta).bit_count() & 1 != out[i]:
            return False
    return True
