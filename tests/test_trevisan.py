import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamp import (
    GF,
    BitString,
    FiniteFieldPolynomialDesign,
    PolynomialOneBitExtractor,
    TrevisanExtractor,
    WeakDesign,
    calculate_length_trevisan,
    generate_design,
    verify_design,
)
from privamp.exceptions import (
    InvalidRange,
    LengthMismatch,
    NoFeasibleOutput,
    NotPrimePower,
    TooManySets,
)

TWO_E = 2 * math.e


# -- weak designs -------------------------------------------------------


def test_design_m2_t2():
    design = generate_design(2, 2)
    assert design.sets.tolist() == [[0, 2], [1, 3]]
    # the sets are disjoint: the single pair contributes 2^0 = 1
    assert verify_design(design).achieved_r == 0.5


def test_design_m1_is_zero_polynomial():
    for t in (2, 3, 5):
        design = generate_design(1, t)
        assert design.sets.tolist() == [[a * t for a in range(t)]]


def test_design_m3_t2_overlap_sum():
    design = generate_design(3, 2)
    assert design.sets.tolist()[2] == [0, 3]  # p(a) = a
    total = sum(2 ** len(set(design.sets[2]) & set(design.sets[j])) for j in range(2))
    assert total == 4
    assert total <= TWO_E * 3


def test_design_element_structure():
    # S_i = { a*t + p_i(a) }: one element per "column" a, offset < t
    for t in (3, 4, 5):
        design = generate_design(t**2, t)
        for s in design.sets:
            assert len(s) == t
            assert sorted(e // t for e in s) == list(range(t))
            assert all(0 <= e % t < t for e in s)


def test_design_rejects_bad_parameters():
    with pytest.raises(NotPrimePower):
        generate_design(2, 6)
    with pytest.raises(TooManySets):
        generate_design(5, 2)  # cap is t**t = 4
    with pytest.raises(InvalidRange):
        generate_design(0, 2)


def test_root_count_bound_exhaustive():
    # distinct polynomials of degree <= c over GF(t) agree on at most c points
    for t in (2, 3, 4, 5, 7):
        field = GF(t)
        for c in (1, 2):
            tables = []
            for i in range(t ** (c + 1)):
                coeffs, v = [], i
                for _ in range(c + 1):
                    coeffs.append(v % t)
                    v //= t
                tables.append([field.eval_poly_i(coeffs, a) for a in range(t)])
            for i, ti in enumerate(tables):
                for tj in tables[:i]:
                    agreements = sum(a == b for a, b in zip(ti, tj))
                    assert agreements <= c


def test_verify_design_passes_generated():
    report = verify_design(generate_design(8, 3), r=TWO_E)
    assert report.passed
    assert report.achieved_r <= TWO_E
    assert report.mode == "exhaustive"
    assert report.checked_indices == 8


def test_verify_design_flags_duplicate_sets():
    t = 4
    s = tuple(range(t))
    design = WeakDesign([s, s], seed_length=16)
    report = verify_design(design, r=TWO_E)
    assert not report.passed
    assert report.worst_index == 1
    assert report.worst_sum == 2**t  # = 16 > 2e * 2
    assert report.achieved_r == 2**t / 2
    assert report.summary() == (
        "FAIL: weak design with m=2, t=4, d=16\n"
        "  overlap bound r=5.4366, achieved 8.0000 (worst index 1, sum 16 vs r*m 10.9; "
        "exhaustive, 2 indices)"
    )


def test_verify_design_m1_trivially_passes():
    report = verify_design(WeakDesign([(0, 5)], seed_length=9), r=TWO_E)
    assert report.passed
    assert report.achieved_r == 0.0


def test_verify_design_sampled_mode():
    design = generate_design(400, 23)  # m*t = 9200 exhaustive; force sampling
    report = verify_design(design, r=TWO_E, verify_cap=100, sample_size=50)
    assert report.mode == "sampled"
    assert report.checked_indices == 50
    assert report.passed


@pytest.mark.parametrize("sample_size", [0, -1])
def test_verify_design_sampled_mode_rejects_an_empty_sample(sample_size):
    # 0 would report PASS after checking no index; -1 reached numpy's ValueError
    with pytest.raises(InvalidRange, match=f"sample_size must be >= 1, got {sample_size}"):
        verify_design(generate_design(50, 8), verify_cap=0, sample_size=sample_size)


def test_weak_design_structural_validation():
    with pytest.raises(InvalidRange):
        WeakDesign([(0, 1), (0, 9)], seed_length=4)  # out of range
    with pytest.raises(InvalidRange):
        WeakDesign([(0, 1), (2,)], seed_length=4)  # ragged sizes
    with pytest.raises(InvalidRange):
        WeakDesign([], seed_length=4)
    with pytest.raises(InvalidRange):
        WeakDesign([(0, 0)], seed_length=4)  # repeated element


def test_weak_design_sets_are_a_read_only_sorted_array():
    design = WeakDesign([(3, 1), (0, 2)], seed_length=4)
    assert design.sets.dtype == np.int64 and design.sets.shape == (2, 2)
    assert design.sets.tolist() == [[1, 3], [0, 2]]
    with pytest.raises(ValueError):
        design.sets[0, 0] = 2


def _overlap_sums_oracle(design):
    rows = [set(s) for s in design.sets.tolist()]
    return [sum(2 ** len(si & sj) for sj in rows[:i]) for i, si in enumerate(rows)]


def test_overlap_sums_match_set_oracle():
    designs = [generate_design(m, t) for t in (2, 3, 4, 5, 7, 8) for m in range(1, t * t + 1)]
    rng = np.random.default_rng(11)
    for _ in range(30):  # generic designs, unsorted input, with duplicate sets
        m, t = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        d = t + int(rng.integers(0, 30))
        sets = [rng.choice(d, size=t, replace=False) for _ in range(m)]
        sets += [sets[j] for j in rng.integers(0, m, size=3)]
        designs.append(WeakDesign(sets, seed_length=d))
    for design in designs:
        expected = _overlap_sums_oracle(design)
        assert design._overlap_sums(range(design.m)) == expected
        picked = rng.permutation(design.m)[:5].tolist()
        assert design._overlap_sums(picked) == [expected[i] for i in picked]


def test_overlap_sums_exact_beyond_int64():
    report = verify_design(WeakDesign([tuple(range(100))] * 2, 100), r=TWO_E)
    assert report.worst_sum == 2**100
    assert report.worst_index == 1 and not report.passed


def test_verify_design_decides_a_sum_beyond_float_range():
    # 2^1100 / 2 overflows a float: the verdict stays exact, the reported ratio is inf
    report = verify_design(WeakDesign([tuple(range(1100))] * 2, 1100), r=TWO_E)
    assert report.worst_sum == 2**1100
    assert report.worst_index == 1 and not report.passed
    assert report.achieved_r == math.inf
    assert report.summary().startswith("FAIL")


# -- one-bit extractor ---------------------------------------------------


def test_one_bit_zero_input_and_zero_mask():
    ob = PolynomialOneBitExtractor(8, 4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = BitString.random(4, rng)
        assert ob.extract_bit(BitString.zeros(8), y) == 0
    for _ in range(10):
        x = BitString.random(8, rng)
        alpha = BitString.random(2, rng)
        assert ob.extract_bit(x, alpha + BitString.zeros(2)) == 0


def test_one_bit_gf4_worked_example():
    # x = 1100 -> p(A) = (X+1)*A over GF(4); alpha = 01 -> p(1) = X+1 = bits 11;
    # beta = 11 -> parity(11 AND 11) = 0
    ob = PolynomialOneBitExtractor(4, 4)
    assert ob.extract_bit(BitString("1100"), BitString("0111")) == 0
    # same polynomial at alpha = 10 (= X): (X+1)*X = X^2+X = 1 mod X^2+X+1 -> bits 01
    assert ob.extract_bit(BitString("1100"), BitString("1001")) == 1


def test_one_bit_matches_brute_force_over_gf2():
    # l = 1: chunks are single bits, p_x(alpha) evaluated over GF(2)
    ob = PolynomialOneBitExtractor(4, 2)
    for xv in range(16):
        x = BitString.from_int(xv, 4)
        for yv in range(4):
            y = BitString.from_int(yv, 2)
            alpha, beta = y[0], y[1]
            value = 0
            for bit in x:  # descending-degree Horner over GF(2)
                value = (value & alpha) ^ bit
            assert ob.extract_bit(x, y) == (value & beta)


def test_one_bit_parameter_validation():
    with pytest.raises(InvalidRange):
        PolynomialOneBitExtractor(8, 3)  # odd seed length
    with pytest.raises(InvalidRange):
        PolynomialOneBitExtractor(0, 4)
    ob = PolynomialOneBitExtractor(8, 4)
    with pytest.raises(LengthMismatch):
        ob.extract_bit(BitString.zeros(7), BitString.zeros(4))
    with pytest.raises(LengthMismatch):
        ob.extract_bit(BitString.zeros(8), BitString.zeros(6))


# -- composition ----------------------------------------------------------


def one_bit_oracle(x, y, l):
    """Independent one-bit oracle: monomial sums instead of Horner."""
    field = GF(2**l)
    s = -(-len(x) // l)
    padded = list(x) + [0] * (s * l - len(x))
    chunks = []
    for j in range(s):
        value = 0
        for bit in padded[j * l : (j + 1) * l]:
            value = (value << 1) | bit
        chunks.append(value)
    alpha = 0
    for bit in list(y)[:l]:
        alpha = (alpha << 1) | bit
    beta = 0
    for bit in list(y)[l:]:
        beta = (beta << 1) | bit
    acc = 0
    for j, chunk in enumerate(chunks):  # chunk j has degree s-1-j
        acc ^= field.mul_i(chunk, field.pow_i(alpha, s - 1 - j))
    return bin(acc & beta).count("1") & 1


@pytest.mark.parametrize("l", [1, 2, 4, 8, 16, 32, 64, 128])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_bit_matches_the_oracle_at_every_field_size(l, data):
    # n up to 3l + 5: inputs that fill their last chunk and inputs padded with zeros
    n = data.draw(st.integers(1, 3 * l + 5), label="n")
    x = BitString.from_int(data.draw(st.integers(0, 2**n - 1), label="x"), n)
    y = BitString.from_int(data.draw(st.integers(0, 2 ** (2 * l) - 1), label="y"), 2 * l)
    assert PolynomialOneBitExtractor(n, 2 * l).extract_bit(x, y) == one_bit_oracle(x, y, l)


def trevisan_oracle(ext, x, y):
    bits = []
    for s in ext.design.sets:
        sub = BitString([y[i] for i in s])
        bits.append(one_bit_oracle(x, sub, ext.one_bit.field_degree))
    return BitString(bits)


def test_trevisan_m1_equals_one_bit():
    ext = TrevisanExtractor.create(input_length=6, output_length=1, one_bit_extractor_seed_length=4)
    rng = np.random.default_rng(21)
    for _ in range(40):
        x = BitString.random(6, rng)
        y = BitString.random(16, rng)
        sub = ext.design.restrict(y, 0)
        assert ext.extract(x, y) == ext.one_bit.extract(x, sub)


def test_trevisan_zero_input():
    ext = TrevisanExtractor.create(input_length=8, output_length=3, one_bit_extractor_seed_length=4)
    rng = np.random.default_rng(33)
    for _ in range(20):
        assert ext.extract(BitString.zeros(8), BitString.random(16, rng)) == BitString.zeros(3)


def test_trevisan_matches_composition_oracle_random():
    ext = TrevisanExtractor.create(input_length=8, output_length=2, one_bit_extractor_seed_length=2)
    rng = np.random.default_rng(55)
    for _ in range(200):
        x = BitString.random(8, rng)
        y = BitString.random(4, rng)
        assert ext.extract(x, y) == trevisan_oracle(ext, x, y)


def test_trevisan_matches_composition_oracle_gf4():
    ext = TrevisanExtractor.create(input_length=6, output_length=3, one_bit_extractor_seed_length=4)
    rng = np.random.default_rng(56)
    for _ in range(100):
        x = BitString.random(6, rng)
        y = BitString.random(16, rng)
        assert ext.extract(x, y) == trevisan_oracle(ext, x, y)


def test_trevisan_interface_constraints():
    design = FiniteFieldPolynomialDesign(2, 4)
    with pytest.raises(InvalidRange):
        TrevisanExtractor(design, PolynomialOneBitExtractor(8, 2))  # t != seed length
    ext = TrevisanExtractor.create(input_length=8, output_length=2, one_bit_extractor_seed_length=4)
    assert (ext.input_length, ext.output_length, ext.seed_length) == (8, 2, 16)
    with pytest.raises(LengthMismatch):
        ext.extract(BitString.zeros(7), BitString.zeros(16))
    with pytest.raises(LengthMismatch):
        ext.extract(BitString.zeros(8), BitString.zeros(15))


def test_strongness_smoke_exhaustive_exact_counts():
    """Exhaustive n=8, t=2, m=2 (uniform input): per-seed output statistics.

    Each output bit is a GF(2)-linear form of the input selected by its
    restricted seed, so the exact truth is: a bit with a nonzero mask is
    exactly balanced over uniform inputs; a zero-mask bit is constantly
    0; and whenever the two restricted seeds differ (distinct nonzero
    forms are automatically independent over GF(2)) the joint output is
    exactly uniform.  Seeds that make the forms coincide or degenerate
    are the per-seed exceptions the composed error bound budgets for.
    """
    ext = TrevisanExtractor.create(input_length=8, output_length=2, one_bit_extractor_seed_length=2)
    for yv in range(1 << 4):
        y = BitString.from_int(yv, 4)
        sub = [ext.design.restrict(y, i) for i in range(2)]
        masks = [s[1] for s in sub]
        counts = {}
        for xv in range(1 << 8):
            z = ext.extract(BitString.from_int(xv, 8), y).to01()
            counts[z] = counts.get(z, 0) + 1
        for i in range(2):
            ones = sum(c for z, c in counts.items() if z[i] == "1")
            assert ones == (128 if masks[i] else 0)
        if all(masks) and sub[0] != sub[1]:
            assert all(counts.get(f"{a}{b}", 0) == 64 for a in "01" for b in "01")


# -- output length calculation ---------------------------------------------


def test_trevisan_length_infeasible():
    with pytest.raises(NoFeasibleOutput):
        calculate_length_trevisan(64, 0.1, 1e-6, 8)  # k = 6.4 < k1 + r


def test_trevisan_length_cap_does_not_compute_huge_t_pow_t():
    # t**t for t = 2**24 has ~4e8 bits; deciding m <= t**t must not build it
    started = time.perf_counter()
    with pytest.raises(NoFeasibleOutput):
        calculate_length_trevisan(1000, 0.5, 1e-6, 2**24)
    assert time.perf_counter() - started < 0.5


def test_trevisan_length_monotone_in_error_bound():
    rng = np.random.default_rng(40)
    for _ in range(10):
        n = int(rng.integers(2**10, 2**16))
        rel = float(rng.uniform(0.3, 1.0))
        eps = float(10.0 ** rng.uniform(-9, -2))
        t = int(2 ** rng.integers(1, 7))
        try:
            m1, _ = calculate_length_trevisan(n, rel, eps, t)
        except NoFeasibleOutput:
            m1 = 0
        try:
            m2, _ = calculate_length_trevisan(n, rel, 2 * eps, t)
        except NoFeasibleOutput:
            m2 = 0
        assert m2 >= m1


def test_trevisan_length_monotone_in_entropy():
    for t in (8, 64, 256):
        m_low, _ = calculate_length_trevisan(2**14, 0.5, 1e-6, t)
        m_high, _ = calculate_length_trevisan(2**14, 0.9, 1e-6, t)
        assert m_high >= m_low


@pytest.mark.parametrize(
    "n, rel, eps, t",
    [
        (2**16, 0.8, 1e-8, 32),
        (2**12, 1.0, 1e-3, 2),  # t**t caps m at 4
        (2**12, 1.0, 1e-3, 4),  # t**t caps m at 256
        (1000, 0.9, 1e-4, 4),
        (3001, 0.95, 1e-2, 16),
        (2**18, 0.3, 1e-9, 64),
    ],
    ids=["n65536-t32", "n4096-t2-cap", "n4096-t4-cap", "n1000-t4", "n3001-t16", "n262144-t64"],
)
def test_trevisan_length_params_are_consistent(n, rel, eps, t):
    m, params = calculate_length_trevisan(n, rel, eps, t)
    assert params.output_length == m
    assert params.field_degree == t // 2
    assert params.seed_length == t * t
    assert params.chunk_count == -(-n // (t // 2))
    assert params.per_bit_error == eps / m
    c = params.degree_cap
    assert m <= t ** (c + 1) and (c == 0 or m > t**c)
    assert params.total_entropy_required <= params.source_entropy

    def required(mm):
        e1 = eps / mm
        k1 = params.field_degree + 2 * math.log2(1 / e1) + math.log2(params.chunk_count)
        return k1 + TWO_E * mm

    # m is feasible, and one more output bit is infeasible or over the cap
    k = rel * n
    assert k >= required(m)
    assert m + 1 > min(n, t**t) or k < required(m + 1)


@pytest.mark.parametrize("rel, eps, t", [
    (1.0, 1e-3, 2),  # t**t caps m at 4
    (1.0, 1e-3, 4),  # t**t caps m at 256 from n ~ 1100
    (0.9, 1e-2, 4),
    (0.8, 1e-6, 8),
    (0.6, 1e-4, 16),
])
def test_trevisan_length_is_the_largest_m_a_linear_scan_admits(rel, eps, t):
    # the documented rule over every m in [1, n], with no assumption of monotonicity
    for n in [*range(1, 40), *range(40, 2001, 53), 1999, 2000]:
        l, s, k = t // 2, -(-n // (t // 2)), rel * n

        def admits(m):
            return m <= t**t and k >= l + 2 * math.log2(m / eps) + math.log2(s) + TWO_E * m

        admitted = [m for m in range(1, n + 1) if admits(m)]
        if not admitted:
            with pytest.raises(NoFeasibleOutput):
                calculate_length_trevisan(n, rel, eps, t)
        else:
            assert calculate_length_trevisan(n, rel, eps, t)[0] == max(admitted), n


def test_trevisan_length_with_an_error_bound_whose_inverse_overflows():
    # 1 / (eps / m) is inf in floats; the rule with log2(m / eps) taken from integers
    n, rel, eps, t = 10**6, 0.9, 1e-310, 16
    l, s, k, e = t // 2, -(-n // (t // 2)), rel * n, Fraction(eps)

    def admits(m):
        log_m_over_eps = math.log2(m * e.denominator) - math.log2(e.numerator)
        return k >= l + 2 * log_m_over_eps + math.log2(s) + TWO_E * m

    m = calculate_length_trevisan(n, rel, eps, t)[0]
    assert m == 165155
    assert admits(m) and not admits(m + 1)


def test_trevisan_length_respects_design_cap():
    # plentiful entropy but t=2 caps the family at t**t = 4 sets
    m, _ = calculate_length_trevisan(2**12, 1.0, 1e-3, 2)
    assert m == 4


@pytest.mark.parametrize("build, error", [
    (lambda: calculate_length_trevisan(64, 0.5, 1e-3, 10**18 + 3), InvalidRange),
    (lambda: TrevisanExtractor.create(64, 1, 10**18 + 3), InvalidRange),
    (lambda: TrevisanExtractor.create(64, 1, 10**18 + 4), NotPrimePower),
    (lambda: TrevisanExtractor.create(64, 4, 6), NotPrimePower),
    (lambda: TrevisanExtractor.create(0, 4000, 256), InvalidRange),
    (lambda: TrevisanExtractor.create(64, 0, 256), InvalidRange),
], ids=["length-odd-huge-t", "create-odd-huge-t", "create-even-huge-t", "create-t6", "n0", "m0"])
def test_trevisan_cheap_checks_run_before_fields_and_design(build, error):
    # GF(t) trial-divides an odd t up to sqrt(t); the design for m = 4000 takes seconds
    started = time.perf_counter()
    with pytest.raises(error):
        build()
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("t, error", [(6, NotPrimePower), (10**18 + 3, InvalidRange), (10**18 + 4, NotPrimePower)])
def test_trevisan_rule_refuses_what_create_and_the_length_refuse(t, error):
    for build in (lambda: TrevisanExtractor._seed_length_for(64, 1, t),
                  lambda: TrevisanExtractor.create(64, 1, t),
                  lambda: calculate_length_trevisan(64, 0.5, 1e-3, t)):
        with pytest.raises(error):
            build()


@pytest.mark.parametrize("m, t", [(5, 2), (257, 4), (16**16 + 1, 16)])
def test_trevisan_rule_refuses_more_sets_than_t_to_the_t(m, t):
    # the design checks the cap itself, before its sets; the rule states it without a field or design
    assert TrevisanExtractor._seed_length_for(64, m - 1, t) == t * t
    for build in (lambda: TrevisanExtractor._seed_length_for(64, m, t),
                  lambda: TrevisanExtractor.create(64, m, t),
                  lambda: FiniteFieldPolynomialDesign(m, t)):
        with pytest.raises(TooManySets, match=f"sanity cap t\\*\\*t = {t**t}$"):
            build()


def test_trevisan_length_parameter_validation():
    with pytest.raises(NotPrimePower):
        calculate_length_trevisan(64, 0.9, 1e-3, 6)
    with pytest.raises(InvalidRange):
        calculate_length_trevisan(64, 0.9, 1e-3, 7)  # odd prime: not an even seed
    with pytest.raises(InvalidRange):
        calculate_length_trevisan(64, 0.0, 1e-3, 4)
    with pytest.raises(InvalidRange):
        calculate_length_trevisan(64, 0.9, 2.0, 4)


def test_trevisan_matches_composition_oracle_gf256():
    # deeper field: l = 8, seed chunks exercise multi-step Horner in GF(256)
    ext = TrevisanExtractor.create(
        input_length=40, output_length=4, one_bit_extractor_seed_length=16
    )
    assert ext.seed_length == 256
    rng = np.random.default_rng(4096)
    for _ in range(25):
        x = BitString.random(40, rng)
        y = BitString.random(256, rng)
        assert ext.extract(x, y) == trevisan_oracle(ext, x, y)


@pytest.mark.parametrize("m", [1, 16, 256])
def test_extract_splits_its_input_once_for_all_output_bits(monkeypatch, m):
    # one split of x serves every output bit, and extract takes no per-bit extract_bit route
    from privamp import trevisan

    splits, split = [], trevisan._hex_rows
    monkeypatch.setattr(trevisan, "_hex_rows", lambda rows: splits.append(rows.shape) or split(rows))
    ext = TrevisanExtractor.create(input_length=100, output_length=m, one_bit_extractor_seed_length=16)
    rng = np.random.default_rng(m)
    x, y = BitString.random(100, rng), BitString.random(256, rng)
    expected = BitString([ext.one_bit.extract_bit(x, ext.design.restrict(y, i)) for i in range(m)])
    splits.clear()

    def no_extract_bit(*args):
        raise AssertionError("extract called extract_bit")

    monkeypatch.setattr(PolynomialOneBitExtractor, "extract_bit", no_extract_bit)
    assert ext.extract(x, y) == expected
    assert splits == [(13, 8)]  # ceil(100 / 8) chunks of l = 8 bits
