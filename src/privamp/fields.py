"""Finite field arithmetic with integer-encoded elements.

Elements of GF(p^e) are encoded as integers in [0, q): writing the
integer in base p, digit k is the coefficient of x^k in the polynomial
representation.  For prime fields this is the usual residue; for binary
fields the encoding coincides with the bit pattern of the coefficient
vector.  Addition and multiplication are true field operations —
multiplication is never a bare left shift and addition is never a
bitwise OR, which are correct only in degenerate power-of-two settings
and silently wrong elsewhere.

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

Higher degrees and odd characteristics are found by the same search at
construction time and cached.  Each candidate is tested with Ben-Or's
irreducibility test (Ben-Or, FOCS 1981).
"""

from __future__ import annotations

import functools
import operator

from .exceptions import InvalidRange, NotPrimePower


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p**e with p prime, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
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


# -- dense polynomials over GF(p), ascending coefficient tuples --------


def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)

def _pmod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for k in range(len(f)):
            a[shift + k] = (a[shift + k] - factor * f[k]) % p
        a = list(_ptrim(a))
    return tuple(a)


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _ptrim(out)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base, exp, f, p):
    result = (1,)
    base = _pmod(base, f, p)
    while exp:
        if exp & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        exp >>= 1
    return result


def _is_irreducible(f, p):
    """Ben-Or: monic f of degree e is irreducible iff gcd(x^(p^k) - x, f) = 1 for k <= e/2."""
    x = u = (0, 1)
    for _ in range((len(f) - 1) // 2):
        u = _ppowmod(u, p, f, p)  # x^(p^k) mod f
        # zero or non-constant gcd: f has a factor of degree dividing k
        if len(_pgcd(_psub(u, x, p), f, p)) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def min_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over GF(p) with least integer encoding."""
    for tail in range(p**e):
        f = _digits(tail, p, e) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("irreducible polynomial must exist")


class GaloisField:
    """GF(p^e) operating on integer-encoded elements.

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
        if p == 2 and e > 1:
            self._red2 = self._encode(self.reduction_poly)

    # -- encoding helpers ----------------------------------------------

    def _check(self, a: int) -> int:
        try:
            a = operator.index(a)
        except TypeError:
            raise InvalidRange(f"{a!r} is not an element encoding of {self}") from None
        if not 0 <= a < self.order:
            raise InvalidRange(f"{a!r} is not an element encoding of {self}")
        return a

    def _encode(self, coeffs) -> int:
        p = self.characteristic
        value = 0
        for c in reversed(coeffs):
            value = value * p + c
        return value

    # -- integer-level arithmetic ---------------------------------------

    def add_i(self, a: int, b: int) -> int:
        """a + b, coefficient-wise."""
        self._check(a)
        self._check(b)
        p, e = self.characteristic, self.degree
        if e == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        return self._encode(
            [(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))]
        )

    def mul_i(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        p, e = self.characteristic, self.degree
        if e == 1:
            return (a * b) % p
        if p == 2:
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
        prod = _pmul(_digits(a, p, e), _digits(b, p, e), p)
        return self._encode(_pmod(prod, self.reduction_poly, p))

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
