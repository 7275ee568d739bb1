"""Finite field arithmetic with integer-encoded elements.

GF(q) is provided for q prime or a power of two, the orders an
extractor reaches: a design over GF(t) needs a prime power t, and
Trevisan's one-bit seed length t is also even, so t = 2^e.  Elements
are encoded as integers in [0, q).  For prime fields this is the usual
residue; for GF(2^l), bit k of the encoding is the coefficient of x^k
in the polynomial representation.  Addition and multiplication are
true field operations — multiplication is never a bare left shift and
addition is never a bitwise OR, which are correct only in degenerate
power-of-two settings and silently wrong elsewhere.

Reduction polynomials are chosen deterministically: the monic
irreducible polynomial of the right degree with the least integer
encoding ("lexicographically least").  For GF(2^l):

    l   polynomial              encoding
    1   x                       0x2
    2   x^2 + x + 1             0x7
    3   x^3 + x + 1             0xb
    4   x^4 + x + 1             0x13
    5   x^5 + x^2 + 1           0x25
    6   x^6 + x + 1             0x43
    7   x^7 + x + 1             0x83
    8   x^8 + x^4 + x^3 + x + 1 0x11b

Higher degrees are found by the same search at construction time and
cached.  Each candidate, a polynomial over GF(2) held as an int, is
tested with Ben-Or's irreducibility test (Ben-Or, FOCS 1981).
"""

from __future__ import annotations

import functools
import operator

from .exceptions import InvalidRange, NotPrimePower


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p**e with p prime, or raise NotPrimePower; InvalidRange for an odd q > 2**32.

    A design over GF(q) needs q**2 seed bits, so the bound refuses nothing
    usable, and the trial division below it takes at most 2**16 steps.
    """
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    if q % 2 and q > 1 << 32:
        raise InvalidRange(f"an odd field order must be at most 2**32, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, e


def _digits(n: int, p: int, count: int) -> tuple[int, ...]:
    """The ``count`` lowest base-p digits of n, least significant first."""
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


# -- polynomials over GF(2) as ints: bit k is the coefficient of x^k ----

#: byte b with its bit k moved to bit 2k: the square of b's polynomial
_SPREAD = [int(format(b, "08b"), 4).to_bytes(2, "little") for b in range(256)]


def _square(a: int) -> int:
    """a(x)^2 over GF(2), one table lookup per byte of a."""
    data = a.to_bytes((a.bit_length() + 7) // 8, "little")
    return int.from_bytes(b"".join(map(_SPREAD.__getitem__, data)), "little")


def _mod(a: int, f: int) -> int:
    """a(x) mod f(x) over GF(2), by shift and XOR."""
    e = f.bit_length()
    while (n := a.bit_length()) >= e:
        a ^= f << (n - e)
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _is_irreducible(f: int) -> bool:
    """Ben-Or: f of degree e is irreducible over GF(2) iff gcd(x^(2^k) - x, f) = 1 for k <= e/2."""
    u = 0b10  # x
    for _ in range((f.bit_length() - 1) // 2):
        u = _mod(_square(u), f)  # x^(2^k) mod f
        # zero or non-constant gcd: f has a factor of degree dividing k
        if _gcd(f, u ^ 0b10) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def min_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over GF(2) with least integer encoding, ascending.

    GF(p**e) for an odd p and e > 1 is not provided: an odd p raises InvalidRange.
    """
    if p != 2:
        raise InvalidRange(f"GF({p}**{e}): the order must be prime or a power of two")
    return _digits(next(filter(_is_irreducible, range(1 << e, 2 << e))), 2, e + 1)


class GaloisField:
    """GF(q), q prime or a power of two, operating on integer-encoded elements.

    Use the module-level :func:`GF` factory, which caches instances per
    order, so fields compare by identity.  Elements are the integer
    encodings that the ``*_i`` methods take and return.
    """

    def __init__(self, order: int):
        p, e = prime_power(order)
        self.order = order
        self.characteristic = p
        self.degree = e
        self.reduction_poly = None if e == 1 else min_irreducible(p, e)
        if e > 1:
            self._red2 = sum(c << k for k, c in enumerate(self.reduction_poly))

    def _check(self, a: int) -> int:
        try:
            a = operator.index(a)
        except TypeError:
            raise InvalidRange(f"{a!r} is not an element encoding of {self}") from None
        if not 0 <= a < self.order:
            raise InvalidRange(f"{a!r} is not an element encoding of {self}")
        return a

    # -- integer-level arithmetic ---------------------------------------

    def add_i(self, a: int, b: int) -> int:
        """a + b, coefficient-wise."""
        self._check(a)
        self._check(b)
        p, e = self.characteristic, self.degree
        if e == 1:
            return (a + b) % p
        return a ^ b

    def mul_i(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        p, e = self.characteristic, self.degree
        if e == 1:
            return (a * b) % p
        # shift-and-xor with modular reduction by the irreducible
        r = 0
        red = self._red2
        top = 1 << e
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= red
        return r

    def pow_i(self, a: int, n: int) -> int:
        self._check(a)
        if n < 0:
            return self.pow_i(self.inv_i(a), -n)
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul_i(result, base)
            base = self.mul_i(base, base)
            n >>= 1
        return result

    def inv_i(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow_i(a, self.order - 2)

    def eval_poly_i(self, coeffs, x: int) -> int:
        """Horner evaluation; coeffs[k] is the degree-k coefficient."""
        self._check(x)
        acc = 0
        for c in reversed(list(coeffs)):
            acc = self.add_i(self.mul_i(acc, x), self._check(c))
        return acc

    def __repr__(self):
        return f"GF({self.order})"


@functools.lru_cache(maxsize=None)
def GF(order: int) -> GaloisField:
    return GaloisField(order)
