import numpy as np
import pytest

from privamp import GF
from privamp.exceptions import InvalidRange, NotPrimePower
from privamp.fields import min_irreducible, prime_power


def carryless_mul_mod(a, b, red, deg):
    """Independent GF(2^l) multiply: schoolbook product, then long division."""
    prod = 0
    for k in range(b.bit_length()):
        if (b >> k) & 1:
            prod ^= a << k
    while prod.bit_length() > deg:
        prod ^= red << (prod.bit_length() - (deg + 1))
    return prod


def log_antilog_tables(field):
    """exp/log tables built from a generator found via the independent multiply."""
    q = field.order
    red = 0
    for k, c in enumerate(field.reduction_poly):
        red |= c << k
    for g in range(2, q):
        exp = [1]
        seen = {1}
        v = 1
        for _ in range(q - 2):
            v = carryless_mul_mod(v, g, red, field.degree)
            if v in seen:
                break
            seen.add(v)
            exp.append(v)
        if len(exp) == q - 1:
            log = {v: i for i, v in enumerate(exp)}
            return exp, log
    raise AssertionError("no generator found")


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 8])
def test_gf2l_multiplication_matches_table_oracle(l):
    field = GF(2**l)
    exp, log = log_antilog_tables(field)
    q = 2**l
    for a in range(q):
        for b in range(q):
            got = field.mul_i(a, b)
            if a == 0 or b == 0:
                assert got == 0
            else:
                assert got == exp[(log[a] + log[b]) % (q - 1)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 251])
def test_prime_field_matches_modular_arithmetic(p):
    field = GF(p)
    rng = np.random.default_rng(p)
    pairs = rng.integers(0, p, size=(10_000, 2))
    for a, b in pairs:
        a, b = int(a), int(b)
        assert field.add_i(a, b) == (a + b) % p
        assert field.mul_i(a, b) == (a * b) % p


def test_gf2l_add_is_xor_never_or():
    field = GF(8)
    # 3 | 5 == 7 but 3 ^ 5 == 6: OR-as-addition would get this wrong
    assert field.add_i(3, 5) == 6


def test_mul_is_not_bare_left_shift():
    # in GF(5), 3*2 = 6 mod 5 = 1, while 3 << 1 = 6
    assert GF(5).mul_i(3, 2) == 1
    # in GF(8) with x^3+x+1: x^2 * x = x^3 = x+1 (3), not 8
    assert GF(8).mul_i(4, 2) == 3


def test_odd_prime_power_field():
    field = GF(9)
    assert field.characteristic == 3 and field.degree == 2
    # additive order of every nonzero element is 3
    for a in range(1, 9):
        assert field.add_i(field.add_i(a, a), a) == 0
    # multiplicative group has order 8
    for a in range(1, 9):
        assert field.pow_i(a, 8) == 1
    # inverse really inverts
    for a in range(1, 9):
        assert field.mul_i(a, field.inv_i(a)) == 1


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            prime_power(bad)


def test_min_irreducible_table():
    # lexicographically least by integer encoding; frozen convention
    expected = {2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B}
    # higher degrees as x^l + tail; l = 128 is the GCM polynomial
    tails = {
        9: 0x3, 10: 0x9, 11: 0x5, 12: 0x9, 13: 0x1B, 14: 0x21, 15: 0x3, 16: 0x2B,
        17: 0x9, 18: 0x9, 19: 0x27, 20: 0x9, 21: 0x5, 22: 0x3, 23: 0x21, 24: 0x1B,
        25: 0x9, 26: 0x1B, 27: 0x27, 28: 0x3, 29: 0x5, 30: 0x3, 31: 0x9, 32: 0x8D,
        64: 0x1B, 128: 0x87,
    }
    expected.update({l: (1 << l) | tail for l, tail in tails.items()})
    for l, enc in expected.items():
        coeffs = min_irreducible(2, l)
        got = sum(c << k for k, c in enumerate(coeffs))
        assert got == enc, f"l={l}: got {got:#x}, expected {enc:#x}"


def test_eval_poly_i_coefficients_ascend():
    f5 = GF(5)
    assert f5.eval_poly_i([2, 3], 4) == 4  # 2 + 3*4 = 14 = 4 mod 5, not 3 + 2*4 = 1
    assert f5.eval_poly_i([3], 2) == 3  # constant polynomial
    assert f5.eval_poly_i([0, 1], 2) == 2  # identity polynomial
    assert f5.eval_poly_i([], 2) == 0  # the empty list is the zero polynomial
    with pytest.raises(InvalidRange):
        f5.eval_poly_i([1], 7)
    with pytest.raises(InvalidRange):
        f5.eval_poly_i([7], 1)


def all_monic(p, deg):
    for tail in range(p**deg):
        coeffs, v = [], tail
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        yield tuple(coeffs) + (1,)


@pytest.mark.parametrize(
    "p,e",
    [(2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2), (2, 8), (2, 10), (3, 4), (5, 3), (11, 2)],
)
def test_min_irreducible_matches_trial_division_oracle(p, e):
    from privamp.fields import _is_irreducible, _pmod

    def is_irreducible_by_trial_division(f):
        for d in range(1, e // 2 + 1):
            for g in all_monic(p, d):
                if not _pmod(f, g, p):
                    return False
        return True

    oracle = [is_irreducible_by_trial_division(f) for f in all_monic(p, e)]
    assert [_is_irreducible(f, p) for f in all_monic(p, e)] == oracle
    least = next(f for f, irreducible in zip(all_monic(p, e), oracle) if irreducible)
    assert min_irreducible(p, e) == least


@pytest.mark.parametrize("q", [25, 27, 49])
def test_larger_odd_prime_power_fields_are_fields(q):
    field = GF(q)
    for a in range(1, q):
        assert field.mul_i(a, field.inv_i(a)) == 1
    # distributivity spot check
    rng = np.random.default_rng(q)
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(0, q, size=3))
        left = field.mul_i(a, field.add_i(b, c))
        right = field.add_i(field.mul_i(a, b), field.mul_i(a, c))
        assert left == right
