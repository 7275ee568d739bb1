import os
import subprocess
import sys
import time

import numpy as np
import pytest

import privamp
from privamp import GF, generate_design
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


@pytest.mark.parametrize("q", [2**8, 257])
def test_inverse_and_negative_powers(q):
    field = GF(q)
    for a in range(1, q):
        inverse = field.inv_i(a)
        assert field.mul_i(a, inverse) == 1
        assert field.pow_i(a, -1) == inverse
        assert field.pow_i(a, -3) == field.pow_i(inverse, 3)
    with pytest.raises(ZeroDivisionError):
        field.inv_i(0)


def test_a_non_integer_is_not_an_element():
    with pytest.raises(InvalidRange, match="1.5 is not an element encoding of GF"):
        GF(8).mul_i(1.5, 1)


def test_gf2l_add_is_xor_never_or():
    field = GF(8)
    # 3 | 5 == 7 but 3 ^ 5 == 6: OR-as-addition would get this wrong
    assert field.add_i(3, 5) == 6


def test_mul_is_not_bare_left_shift():
    # in GF(5), 3*2 = 6 mod 5 = 1, while 3 << 1 = 6
    assert GF(5).mul_i(3, 2) == 1
    # in GF(8) with x^3+x+1: x^2 * x = x^3 = x+1 (3), not 8
    assert GF(8).mul_i(4, 2) == 3


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 121, 125])
def test_odd_extension_fields_are_refused(q):
    # a design over GF(t) needs a prime power t, and Trevisan's t is even too:
    # no extractor reaches GF(p**e) for an odd p and e > 1
    with pytest.raises(InvalidRange, match="prime or a power of two"):
        GF(q)
    with pytest.raises(InvalidRange, match="prime or a power of two"):
        generate_design(2, q)


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            prime_power(bad)


def test_prime_power_near_the_odd_order_bound():
    # at most 2**16 trial divisions below 2**32
    assert prime_power(2**31 - 1) == (2**31 - 1, 1)
    assert prime_power(3**20) == (3, 20)
    assert prime_power(2**64) == (2, 64)  # even orders are not bounded
    with pytest.raises(InvalidRange, match="at most 2\\*\\*32"):
        prime_power(2**32 + 1)


@pytest.mark.parametrize("build", ["GF(10**18 + 9)", "generate_design(1, 10**18 + 9)"])
def test_huge_odd_order_is_refused_in_a_fresh_interpreter_within_5_s(build):
    # 10**18 + 9 is prime: trial division to its square root would run for hours
    src = os.path.dirname(os.path.dirname(privamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("from privamp import GF, generate_design\nfrom privamp.exceptions import InvalidRange\n"
             f"try:\n    {build}\nexcept InvalidRange:\n    print('InvalidRange')")
    started = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True, timeout=60)
    assert time.perf_counter() - started < 5.0
    assert result.stdout == "InvalidRange\n", result.stderr


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


@pytest.mark.parametrize("p,e", [(2, e) for e in range(2, 13)])
def test_min_irreducible_matches_trial_division_oracle(p, e):
    from privamp.fields import _is_irreducible

    def is_irreducible_by_trial_division(f):
        # f mod g by this file's own long division, for every monic g of degree 1..e/2
        divisors = (g for d in range(1, e // 2 + 1) for g in range(1 << d, 2 << d))
        return all(carryless_mul_mod(f, 1, g, g.bit_length() - 1) for g in divisors)

    candidates = range(1 << e, 2 << e)  # the monic polynomials of degree e, by encoding
    oracle = [is_irreducible_by_trial_division(f) for f in candidates]
    assert [_is_irreducible(f) for f in candidates] == oracle
    least = candidates[oracle.index(True)]
    assert min_irreducible(p, e) == tuple((least >> k) & 1 for k in range(e + 1))


def test_min_irreducible_tails_at_large_degrees():
    for l, tail in {256: 0x425, 512: 0x125}.items():
        got = sum(c << k for k, c in enumerate(min_irreducible(2, l)))
        assert got == (1 << l) | tail, f"l={l}: got tail {got ^ (1 << l):#x}, expected {tail:#x}"


def test_gf_2_512_is_built_in_a_fresh_interpreter_within_5_s():
    # the least-encoding search runs at construction, so a slow search is a slow GF(2**512)
    src = os.path.dirname(os.path.dirname(privamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "from privamp import GF; GF(2**512)"],
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=60,
    )
    assert time.perf_counter() - started < 5.0
