import math
import os
import re
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privamp import (
    BitString,
    ModifiedToeplitzExtractor,
    ToeplitzExtractor,
    TrevisanExtractor,
    calculate_length,
    gf2_matvec,
    hex_decode,
    toeplitz,
)
from privamp.exceptions import (
    DimensionMismatch,
    InsufficientMemory,
    InvalidRange,
    LengthMismatch,
    PrecisionLoss,
)
from privamp.toeplitz import _block_exact, _block_fft


# -- output length ----------------------------------------------------


def test_calculate_length_large_case():
    # floor(4194304 + 2 - 2*log2(1e6)) with 2*log2(1e6) = 39.8631...
    assert calculate_length("quantum", 8 * 2**20, 0.5, 1e-6) == 4194266


def test_calculate_length_exact_and_clamped():
    assert calculate_length("quantum", 10, 1.0, 0.5) == 10  # 2*log2(2) cancels the +2
    assert calculate_length("quantum", 4, 1.0, 1e-6) == 0  # negative bound clamps to 0
    assert calculate_length("classical", 10, 1.0, 0.5) == 10  # same formula by design
    assert calculate_length("quantum", 100, 1.0, 0.25) == 98


def test_calculate_length_never_exceeds_input():
    # k + 2 - 2*log2(1/0.9) = 9.69... would exceed n; clamp to n
    assert calculate_length("quantum", 8, 1.0, 0.9) == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(extractor_type="other", input_length=8, relative_source_entropy=0.5, error_bound=0.1),
        dict(extractor_type="quantum", input_length=0, relative_source_entropy=0.5, error_bound=0.1),
        dict(extractor_type="quantum", input_length=8, relative_source_entropy=0.0, error_bound=0.1),
        dict(extractor_type="quantum", input_length=8, relative_source_entropy=1.5, error_bound=0.1),
        dict(extractor_type="quantum", input_length=8, relative_source_entropy=0.5, error_bound=1.0),
        dict(extractor_type="quantum", input_length=8, relative_source_entropy=0.5, error_bound=0.0),
    ],
)
def test_calculate_length_range_errors(kwargs):
    with pytest.raises(InvalidRange):
        calculate_length(**kwargs)


def test_classmethod_delegation():
    assert ToeplitzExtractor.calculate_length("quantum", 10, 1.0, 0.5) == 10
    # the modified variant needs m < n: its classmethod caps the bound at n-1
    assert ModifiedToeplitzExtractor.calculate_length("quantum", 10, 1.0, 0.5) == 9
    assert ModifiedToeplitzExtractor.calculate_length("quantum", 100, 1.0, 0.25) == 98
    for cls in (ToeplitzExtractor, ModifiedToeplitzExtractor):
        m = cls.calculate_length("quantum", 128, 1.0, 0.5)
        assert cls(128, m).output_length == m


def test_extractor_names_map_to_one_class_each():
    from privamp.extractor import SeededExtractor, extractor_class
    from privamp.trevisan import TrevisanExtractor

    assert extractor_class("toeplitz") is ToeplitzExtractor
    assert extractor_class("Modified_Toeplitz") is ModifiedToeplitzExtractor
    assert extractor_class("trevisan") is TrevisanExtractor
    modified = SeededExtractor.create("modified_toeplitz", input_length=8, output_length=3)
    assert type(modified) is ModifiedToeplitzExtractor
    trevisan = SeededExtractor.create(
        "trevisan", input_length=16, output_length=2, one_bit_extractor_seed_length=2
    )
    assert type(trevisan) is TrevisanExtractor
    with pytest.raises(InvalidRange, match="unknown extractor type"):
        extractor_class("hadamard")


# -- standard Toeplitz -------------------------------------------------


def test_standard_trivial_cases():
    ext = ToeplitzExtractor(3, 2)
    assert ext.seed_length == 4
    rng = np.random.default_rng(1)
    y = BitString.random(4, rng)
    assert ext.extract(BitString.zeros(3), y) == BitString.zeros(2)
    # all-ones matrix: each output bit is the parity of x
    assert ext.extract(BitString("111"), BitString.ones(4)) == BitString("11")


def test_standard_matches_entrywise_matrix_oracle():
    # oracle builds T entry by entry from the diagonal rule and multiplies
    # with an explicit parity loop, independently of the library paths
    n, m = 8, 4
    q = n + m - 1
    ext = ToeplitzExtractor(n, m)
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = BitString.random(n, rng)
        y = BitString.random(q, rng)
        expected = []
        for i in range(m):
            acc = 0
            for j in range(n):
                acc ^= y[(i - j) % q] & x[j]
            expected.append(acc)
        assert ext.extract(x, y) == BitString(expected)
        assert ext.extract(x, y, method="matrix") == BitString(expected)
        assert ext.extract(x, y, method="exact") == BitString(expected)


def test_to_matrix_is_toeplitz():
    ext = ToeplitzExtractor(6, 4)
    rng = np.random.default_rng(9)
    y = BitString.random(9, rng)
    mat = ext.to_matrix(y)
    for i in range(1, 4):
        for j in range(1, 6):
            assert mat[i, j] == mat[i - 1, j - 1]
    assert np.array_equal(mat[:, 0], y.bits[:4])  # first column reads the seed head


def test_to_matrix_family_size():
    # n=3, m=2: enumerating all 2^(n+m-1) seeds gives that many distinct matrices
    ext = ToeplitzExtractor(3, 2)
    mats = {ext.to_matrix(BitString.from_int(v, 4)).tobytes() for v in range(16)}
    assert len(mats) == 16


def test_zero_seed_zero_matrix():
    ext = ToeplitzExtractor(5, 3)
    assert not ext.to_matrix(BitString.zeros(7)).any()


def test_standard_length_checks():
    ext = ToeplitzExtractor(4, 2)
    with pytest.raises(LengthMismatch):
        ext.extract(BitString.zeros(3), BitString.zeros(5))
    with pytest.raises(LengthMismatch):
        ext.extract(BitString.zeros(4), BitString.zeros(4))
    with pytest.raises(LengthMismatch):
        ext.to_matrix(BitString.zeros(4))
    with pytest.raises(InvalidRange):
        ToeplitzExtractor(4, 5)
    with pytest.raises(InvalidRange):
        ToeplitzExtractor(4, 0)


# -- modified Toeplitz --------------------------------------------------


def test_modified_golden_count0():
    ext = ModifiedToeplitzExtractor(128, 64)
    x = hex_decode("e3fc097a6dcc77fc781a7ed3533528c8", 128)
    y = hex_decode("05f47ea39db462da99e3e29b06721ae6", 127)
    assert ext.extract(x, y).to_hex() == "ab264a34f8ebc27c"


def test_modified_zero_seed_keeps_identity_block():
    ext = ModifiedToeplitzExtractor(10, 4)
    rng = np.random.default_rng(3)
    x = BitString.random(10, rng)
    assert ext.extract(x, BitString.zeros(9)) == x[6:]


def test_modified_all_ones_seed():
    ext = ModifiedToeplitzExtractor(4, 2)
    assert ext.extract(BitString("1111"), BitString.ones(3)) == BitString("11")


def test_modified_to_matrix_structure():
    ext = ModifiedToeplitzExtractor(6, 2)
    rng = np.random.default_rng(13)
    y = BitString.random(5, rng)
    mat = ext.to_matrix(y)
    assert mat.shape == (2, 6)
    assert np.array_equal(mat[:, 4:], np.eye(2, dtype=np.uint8))
    for i in range(1, 2):
        for j in range(1, 4):
            assert mat[i, j] == mat[i - 1, j - 1]
    assert np.array_equal(
        ext.to_matrix(BitString.zeros(5)),
        np.hstack([np.zeros((2, 4), np.uint8), np.eye(2, dtype=np.uint8)]),
    )


def test_modified_rejects_m_equal_n():
    with pytest.raises(InvalidRange):
        ModifiedToeplitzExtractor(4, 4)
    with pytest.raises(InvalidRange):
        ModifiedToeplitzExtractor(1, 1)


@pytest.mark.parametrize("cls, identity", [(ToeplitzExtractor, False), (ModifiedToeplitzExtractor, True)])
def test_seed_length_rule_matches_the_constructor(cls, identity):
    # the rule refuses exactly the shapes the constructor refuses, and states its seed width:
    # 1 <= m <= n and q = n+m-1, or with the identity block 1 <= m < n and q = n-1
    for n in range(1, 9):
        accepted = []
        for m in range(0, n + 2):
            try:
                ext = cls(n, m)
            except InvalidRange:
                with pytest.raises(InvalidRange):
                    cls._seed_length_for(n, m)
                continue
            accepted.append(m)
            q = cls._seed_length_for(n, m)
            assert q == ext.seed_length == (n - 1 if identity else n + m - 1)
            k = q - m + 1
            mat = ext.to_matrix(BitString.zeros(q))
            assert mat.shape == (m, n) and n - k == (m if identity else 0)
            assert np.array_equal(mat[:, k:], np.eye(m, n - k, dtype=np.uint8))
        assert accepted == list(range(1, n + (not identity)))


# -- path equivalence and linearity -------------------------------------


def all_pairs_equal(ext):
    n, d = ext.input_length, ext.seed_length
    for xv in range(1 << n):
        x = BitString.from_int(xv, n)
        for yv in range(1 << d):
            y = BitString.from_int(yv, d)
            ref = ext.extract(x, y, method="matrix")
            if ext.extract(x, y, method="fft") != ref:
                return False
            if ext.extract(x, y, method="exact") != ref:
                return False
    return True


def test_path_equivalence_small_exhaustive():
    assert all_pairs_equal(ToeplitzExtractor(4, 2))
    assert all_pairs_equal(ModifiedToeplitzExtractor(4, 3))


def test_path_equivalence_large_spot_check():
    rng = np.random.default_rng(2024)
    n = 2**16
    ext = ToeplitzExtractor(n, 48)
    x = BitString.random(n, rng)
    y = BitString.random(ext.seed_length, rng)
    fft = ext.extract(x, y, method="fft")
    assert fft == ext.extract(x, y, method="matrix")
    assert fft == ext.extract(x, y, method="exact")


def test_linearity_in_the_input():
    rng = np.random.default_rng(77)
    for ext in (ToeplitzExtractor(9, 5), ModifiedToeplitzExtractor(9, 5)):
        for _ in range(1000):
            x1 = BitString.random(9, rng)
            x2 = BitString.random(9, rng)
            y = BitString.random(ext.seed_length, rng)
            assert ext.extract(x1 ^ x2, y) == ext.extract(x1, y) ^ ext.extract(x2, y)


def test_extract_accepts_matrix_product_definition():
    # the documented contract: extract == gf2_matvec(to_matrix(y), x)
    rng = np.random.default_rng(31)
    for ext in (ToeplitzExtractor(7, 3), ModifiedToeplitzExtractor(7, 3)):
        for _ in range(20):
            x = BitString.random(7, rng)
            y = BitString.random(ext.seed_length, rng)
            assert ext.extract(x, y) == BitString(gf2_matvec(ext.to_matrix(y), x))


# -- FFT residual guard --------------------------------------------------


def test_fft_residual_guard(monkeypatch):
    d = np.ones(64, dtype=np.uint8)
    x = np.ones(33, dtype=np.uint8)
    real_irfft = np.fft.irfft

    def noisy_irfft(*args, **kwargs):
        return real_irfft(*args, **kwargs) + 0.3

    monkeypatch.setattr(np.fft, "irfft", noisy_irfft)
    with pytest.raises(PrecisionLoss):
        _block_fft(d, x)
    # there is no fallback: the default method raises too
    ext = ToeplitzExtractor(8, 4)
    xb, yb = BitString.ones(8), BitString.ones(11)
    with pytest.raises(PrecisionLoss):
        ext.extract(xb, yb)
    with pytest.raises(PrecisionLoss):
        ext.extract(xb, yb, method="fft")
    assert ext.extract(xb, yb, method="exact") == ext.extract(xb, yb, method="matrix")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", [32, 4])  # one transform; 3 output and 5 input blocks
def test_fft_residual_guard_rejects_non_finite(monkeypatch, bad, block):
    # NaN is not >= 0.25 either: the check must reject what is not < 0.25
    monkeypatch.setattr(toeplitz, "_BLOCK", block)
    d, x = np.ones(29, dtype=np.uint8), np.ones(20, dtype=np.uint8)  # m = 10, k = 20
    real_irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: np.full_like(real_irfft(*a, **kw), bad))
    with pytest.raises(PrecisionLoss):
        _block_fft(d, x)


def test_fft_residual_guard_multi_block(monkeypatch):
    monkeypatch.setattr(toeplitz, "_BLOCK", 4)
    d = np.zeros(29, dtype=np.uint8)  # m = 10, k = 20: 3 output blocks, 5 input blocks
    d[24:] = 1  # diagonals that output blocks 1 and 2 reach, block 0 does not
    x = np.ones(20, dtype=np.uint8)
    assert np.array_equal(_block_fft(d, x), _block_exact(d, x))
    real_irfft = np.fft.irfft

    def noisy_irfft(a, *args, **kwargs):
        # noise only where the spectrum is non-zero: block 0 stays clean, so
        # the check has to cover every block, not the first
        return real_irfft(a, *args, **kwargs) + 0.3 * (np.abs(a[..., :1]) > 0)

    monkeypatch.setattr(np.fft, "irfft", noisy_irfft)
    with pytest.raises(PrecisionLoss):
        _block_fft(d, x)


def test_auto_method_is_rejected():
    ext = ToeplitzExtractor(4, 2)
    with pytest.raises(InvalidRange, match="unknown method"):
        ext.extract(BitString.zeros(4), BitString.zeros(5), method="auto")


# -- FFT error bound (module docstring of privamp.toeplitz) ---------------


def fft_error_bound(blocks):
    """E(K) of the module docstring, for K = ``blocks``, in 200-bit arithmetic."""
    with mpmath.workprec(200):
        u, sqrt = mpmath.mpf(2) ** -53, mpmath.sqrt
        growth = (1 + u) ** (53 + blocks) * (1 + sqrt(5) * u) ** 55 * (1 + 2 * u) ** 54
        return blocks * sqrt(2) * toeplitz._BLOCK * (growth - 1)


def test_fft_error_bound_covers_the_stated_k():
    blocks = int(re.search(r"< 0\.25 for K <= (\d+)", toeplitz.__doc__).group(1))
    assert fft_error_bound(blocks) < 0.25 <= fft_error_bound(blocks + 1)
    assert 33.7 < math.log2(blocks * toeplitz._BLOCK) < 33.8  # "k <= 2^33.7"
    assert blocks * toeplitz._BLOCK >= 2**26  # standard Toeplitz at n = 2^26, the largest target
    assert 5.85e-9 < fft_error_bound(1) < 5.95e-9  # "5.9e-9 at K = 1"


@pytest.mark.parametrize("m, k, blocks", [(2**17, 2**17, 1), (2**16, 3 * 2**17, 3)])
def test_fft_error_within_bound(monkeypatch, m, k, blocks):
    # the largest single-transform shape (q = 2^18 - 1), and a sum of 3 block
    # products.  A sparse d keeps the coefficients small, so their ulp is too
    # and the float error shows; below 0.5 the distance to the nearest
    # integer is that error
    residuals = []
    real_rounded_bits = toeplitz._rounded_bits

    def spy(window, spare=None):
        residuals.append(float(np.abs(window - np.rint(window)).max()))
        return real_rounded_bits(window, spare)

    monkeypatch.setattr(toeplitz, "_rounded_bits", spy)
    rng = np.random.default_rng(k)
    d = (rng.random(m + k - 1) < 1e-3).astype(np.uint8)
    _block_fft(d, rng.integers(0, 2, size=k, dtype=np.uint8))
    assert len(residuals) == 1  # one output block
    assert 0 < residuals[0] <= fft_error_bound(blocks)


@pytest.mark.parametrize("m, k", [(10, 20), (20, 3), (5, 5), (17, 9)])
def test_partitioned_schedule_transforms_each_frame_once(monkeypatch, m, k):
    # blocks of b = 4 bits: M output and K input blocks need the M+K-1
    # windows W_e and the K blocks X_j forward, and M inverse transforms
    monkeypatch.setattr(toeplitz, "_BLOCK", 4)
    frames = {"rfft": [], "irfft": []}  # frames per call; list.append is thread-safe

    def counting(name, real):
        def transform(a, n=None, *args, **kwargs):
            assert n == 8  # every frame is 2b points
            frames[name].append(int(np.prod(np.shape(a)[:-1])))
            return real(a, n, *args, **kwargs)

        return transform

    for name in frames:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    rng = np.random.default_rng(m * k)
    d = rng.integers(0, 2, size=m + k - 1, dtype=np.uint8)
    x = rng.integers(0, 2, size=k, dtype=np.uint8)
    assert np.array_equal(_block_fft(d, x), _block_exact(d, x))
    mb, kb = -(-m // 4), -(-k // 4)
    assert sum(frames["rfft"]) == mb + 2 * kb - 1
    assert sum(frames["irfft"]) == mb


def test_exact_convolution_against_numpy():
    # the block kernel reads coefficients k-1 .. q-1 of the linear convolution
    rng = np.random.default_rng(8)
    for _ in range(30):
        k, m = rng.integers(1, 40, size=2)
        d = rng.integers(0, 2, size=m + k - 1, dtype=np.uint8)
        x = rng.integers(0, 2, size=k, dtype=np.uint8)
        expected = np.convolve(d.astype(np.int64), x.astype(np.int64))[k - 1 : m + k - 1] & 1
        assert np.array_equal(_block_exact(d, x), expected.astype(np.uint8))
        assert np.array_equal(_block_fft(d, x), expected.astype(np.uint8))


@st.composite
def edge_shapes(draw):
    """(extractor, x1, x2, y) at the shapes where the block kernel's indices meet their bounds."""
    n = draw(st.integers(1, 40))
    variants = [("std", 1), ("std", n)]  # m = n: the seed holds exactly m+n-1 diagonals
    if n >= 2:
        variants += [("mod", 1), ("mod", n - 1)]  # m = n-1: a one-column block, k = 1
    kind, m = draw(st.sampled_from(variants))
    ext = ToeplitzExtractor(n, m) if kind == "std" else ModifiedToeplitzExtractor(n, m)

    def bits(length):
        return BitString(draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)))

    return ext, bits(n), bits(n), bits(ext.seed_length)


@settings(max_examples=150, deadline=None)
@given(edge_shapes())
@example((ToeplitzExtractor(1, 1), BitString("1"), BitString("1"), BitString("1")))
@example((ModifiedToeplitzExtractor(2, 1), BitString("11"), BitString("01"), BitString("1")))
def test_block_kernel_edge_shapes(case):
    ext, x1, x2, y = case
    ref1, ref2 = ext.extract(x1, y, method="matrix"), ext.extract(x2, y, method="matrix")
    for method in ("fft", "exact", "matrix"):
        assert ext.extract(x1, y, method=method) == ref1
        assert ext.extract(x1 ^ x2, y, method=method) == ref1 ^ ref2


@st.composite
def block_crossing_shapes(draw):
    """(block size, extractor, x, y) with m and k spanning many partitioned-FFT blocks."""
    block = draw(st.sampled_from([1, 4, 64]))
    n = draw(st.integers(2, 200))
    if draw(st.booleans()):
        ext = ToeplitzExtractor(n, draw(st.integers(1, n)))
    else:
        ext = ModifiedToeplitzExtractor(n, draw(st.integers(1, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return block, ext, BitString.random(n, rng), BitString.random(ext.seed_length, rng)


def pin_workers(mp, workers):
    """Make the partitioned kernel see ``workers`` usable CPUs."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    mp.setattr(os, "cpu_count", lambda: workers)


@settings(max_examples=150, deadline=None)
@given(block_crossing_shapes())
def test_partitioned_fft_matches_matrix_and_exact(case):
    # rounds of 1, 2 and 3 output blocks: the ring of seed spectra wraps at
    # several lengths, and holds all M+K-1 of them where M < 2g
    block, ext, x, y = case
    ref = ext.extract(x, y, method="matrix")
    assert ext.extract(x, y, method="exact") == ref
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(toeplitz, "_BLOCK", block)
            pin_workers(mp, workers)
            assert ext.extract(x, y, method="fft") == ref


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_partitioned_fft_stores_a_ring_of_seed_spectra(monkeypatch, workers):
    # M = 32 output and K = 4 input blocks of b bits: the K input spectra and a
    # ring of min(M+K-1, K+2g-1) seed spectra, 9 to 13, not all M+2K-1 = 39
    b, mb, kb = 4096, 32, 4
    monkeypatch.setattr(toeplitz, "_BLOCK", b)
    pin_workers(monkeypatch, workers)
    rng = np.random.default_rng(workers)
    d = rng.integers(0, 2, size=(mb + kb) * b - 1, dtype=np.uint8)
    x = rng.integers(0, 2, size=kb * b, dtype=np.uint8)
    tracemalloc.start()
    try:
        out = _block_fft(d, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, _block_exact(d, x))
    spectrum, g = 16 * (b + 1), min(workers, mb)
    stored = spectrum * (kb + min(mb + kb - 1, kb + 2 * g - 1))
    # beside them: the output blocks and their concatenation (2m bytes), and the
    # frames in flight, a few spectra per thread (3.7-3.8 spectra measured)
    bound = stored + 2 * mb * b + (3 + 2 * g) * spectrum
    assert peak <= bound, f"peak {peak / spectrum:.1f} spectra, bound {bound / spectrum:.1f}"


def partitioned_case(b, mb, kb, seed):
    """Modified Toeplitz with M = ``mb`` output and K = ``kb`` input blocks of b bits, x and y."""
    ext = ModifiedToeplitzExtractor((mb + kb) * b, mb * b)
    rng = np.random.default_rng(seed)
    return ext, BitString.random(ext.input_length, rng), BitString.random(ext.seed_length, rng)


def workspace_bytes(b, mb, kb, workers):
    """Stored spectra, a frame and an accumulator per thread, and the m-byte output."""
    g = min(workers, mb)
    return 16 * (b + 1) * (kb + min(mb + kb - 1, kb + 2 * g - 1) + 2 * workers) + mb * b


def root(a):
    """The array that owns the memory of ``a``."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("workers", [None, 1, 2, 3])  # None: 10^4 rows of 128 -> 64 in batches
def test_fft_blocks_write_into_one_workspace(monkeypatch, workers):
    # every transform writes through out=, and in one _block_fft call (a batch block, or a
    # whole partitioned extract) each thread's transforms draw on at most 3 arrays (a frame
    # and two spectra, or the stored spectra): no output block has buffers of its own
    calls, block_fft = [], toeplitz._block_fft  # (call, thread, input, out); list.append is thread-safe

    def counting(*args):
        counting.calls += 1
        return block_fft(*args)

    counting.calls = 0

    def spying(real):
        def transform(a, n=None, *args, **kwargs):
            calls.append((counting.calls, threading.get_ident(), a, kwargs.get("out")))
            return real(a, n, *args, **kwargs)

        return transform

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, spying(getattr(np.fft, name)))
    monkeypatch.setattr(toeplitz, "_block_fft", counting)
    if workers is None:
        ext, rng = ModifiedToeplitzExtractor(128, 64), np.random.default_rng(128)
        xs = rng.integers(0, 2, size=(10_000, 128), dtype=np.uint8)
        ys = rng.integers(0, 2, size=(10_000, 127), dtype=np.uint8)
        out = ext.extract_many(xs, ys)
        assert np.array_equal(out[-3:], ext.extract(xs[-3:], ys[-3:], method="exact"))
        assert counting.calls == 20  # blocks of <= 512 rows
        workers = 1
    else:
        monkeypatch.setattr(toeplitz, "_BLOCK", 4096)
        pin_workers(monkeypatch, workers)
        ext, x, y = partitioned_case(4096, 8, 4, workers)
        assert ext.extract(x, y) == ext.extract(x, y, method="exact")
    assert calls and all(isinstance(out, np.ndarray) for *_, out in calls)
    assert len({thread for _, thread, _, _ in calls}) <= workers
    for key in {(call, thread) for call, thread, _, _ in calls}:
        assert len({id(root(arr)) for *k, a, out in calls if tuple(k) == key for arr in (a, out)}) <= 3


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_modified_extract_peaks_at_its_workspace(monkeypatch, workers):
    # b = 4096, M = 32, K = 4 through extract, so that a rotated copy of the seed (q
    # bytes), padded input blocks or per-block output blocks would count
    b, mb, kb = 4096, 32, 4
    monkeypatch.setattr(toeplitz, "_BLOCK", b)
    pin_workers(monkeypatch, workers)
    ext, x, y = partitioned_case(b, mb, kb, workers)
    expected = ext.extract(x, y)  # first, so that imports (numpy.fft is lazy) are not traced
    tracemalloc.start()
    try:
        out = ext.extract(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == expected == ext.extract(x, y, method="exact")
    # slack: a rounding temporary of 8b bytes per thread, and 32 KiB of futures, threads
    # and other small objects (the peak is 46-62 KiB above the workspace at 1-3 workers)
    bound = workspace_bytes(b, mb, kb, workers) + 8 * b * workers + (32 << 10)
    assert peak <= bound, f"peak {peak} bytes, bound {bound}"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_partitioned_extract_allocates_nothing_past_its_workspace(monkeypatch, workers):
    # an output block rounds into its thread's sum, which irfft has read: no 8b-byte
    # temporary.  Slack: 32 KiB and 4 KiB a thread of futures, threads and other small
    # objects (the peak is 24-36 KiB above the workspace at 1-3 workers)
    b, mb, kb = 4096, 32, 4
    monkeypatch.setattr(toeplitz, "_BLOCK", b)
    pin_workers(monkeypatch, workers)
    ext, x, y = partitioned_case(b, mb, kb, workers)
    expected = ext.extract(x, y, method="exact")
    ext.extract(x, y)  # first, so that imports (numpy.fft is lazy) are not traced
    tracemalloc.start()
    try:
        out = ext.extract(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == expected
    excess = peak - workspace_bytes(b, mb, kb, workers)
    assert excess <= (32 << 10) + (4 << 10) * workers, f"{excess} bytes past the workspace"


def test_partitioned_fft_fails_loudly_before_the_first_transform(monkeypatch):
    b, mb, kb = 4096, 32, 4
    monkeypatch.setattr(toeplitz, "_BLOCK", b)
    pin_workers(monkeypatch, 2)
    ext, x, y = partitioned_case(b, mb, kb, 2)
    need = workspace_bytes(b, mb, kb, 2)
    real_rfft = np.fft.rfft

    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran before the memory check")

    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr(toeplitz, "_available_memory", lambda: need - 1)
    with pytest.raises(InsufficientMemory, match=f"needs {need} bytes, {need - 1} are available"):
        ext.extract(x, y)
    assert InsufficientMemory.exit_code == 1
    monkeypatch.setattr(np.fft, "rfft", real_rfft)
    expected = ext.extract(x, y, method="exact")
    for free in (need, None):  # just enough, or nothing readable: no check
        monkeypatch.setattr(toeplitz, "_available_memory", lambda: free)
        assert ext.extract(x, y) == expected


def test_available_memory_reads_meminfo_and_cgroup(monkeypatch, tmp_path):
    def write(path, text):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)

    monkeypatch.setattr(toeplitz, "Path", lambda path: tmp_path / path.lstrip("/"))
    assert toeplitz._available_memory() is None  # neither readable
    write("proc/meminfo", "MemTotal:       8000 kB\nMemAvailable:       1000 kB\n")
    assert toeplitz._available_memory() == 1000 << 10
    write("proc/self/cgroup", "1:name=systemd:/\n0::/job\n")
    write("sys/fs/cgroup/job/memory.max", "max\n")  # no limit
    write("sys/fs/cgroup/job/memory.current", "300000\n")
    write("sys/fs/cgroup/job/memory.stat", "anon 300000\nactive_file 0\ninactive_file 0\n")
    assert toeplitz._available_memory() == 1000 << 10
    write("sys/fs/cgroup/job/memory.max", "500000\n")
    assert toeplitz._available_memory() == 200000
    (tmp_path / "proc/meminfo").unlink()
    assert toeplitz._available_memory() == 200000
    # a group at its limit, mostly page cache: the cache is reclaimed before the group runs out
    write("sys/fs/cgroup/job/memory.current", "500000\n")
    write("sys/fs/cgroup/job/memory.stat", (
        "anon 40000\nfile 460000\nactive_file 60000\ninactive_file 400000\nworkingset_refault_file 7\n"
    ))
    assert toeplitz._available_memory() == 460000
    (tmp_path / "sys/fs/cgroup/job/memory.stat").unlink()  # no memory.stat: no cgroup figure
    assert toeplitz._available_memory() is None


def test_partitioned_fft_real_block_size():
    # 300001 bits at the production block size: ragged input and output blocks
    rng = np.random.default_rng(300001)
    ext = ToeplitzExtractor(300001, 150000)
    x = BitString.random(ext.input_length, rng)
    y = BitString.random(ext.seed_length, rng)
    assert max(ext.output_length, ext.input_length) > toeplitz._BLOCK
    assert ext.extract(x, y, method="fft") == ext.extract(x, y, method="exact")


def test_single_block_extract_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single-block extract started a thread pool")

    monkeypatch.setattr(toeplitz, "ThreadPoolExecutor", no_pool)
    ext = ModifiedToeplitzExtractor(128, 64)
    x = hex_decode("e3fc097a6dcc77fc781a7ed3533528c8", 128)
    y = hex_decode("05f47ea39db462da99e3e29b06721ae6", 127)
    assert ext.extract(x, y).to_hex() == "ab264a34f8ebc27c"
    std, seed = ToeplitzExtractor(128, 64), BitString.random(191, np.random.default_rng(64))
    assert std.extract(x, seed) == std.extract(x, seed, method="matrix")


def test_two_universality_second_size():
    # exhaustive collision bound at n=5, m=3 for both variants
    import itertools

    for ext in (ToeplitzExtractor(5, 3), ModifiedToeplitzExtractor(5, 3)):
        n, d, m = ext.input_length, ext.seed_length, ext.output_length
        table = [
            [ext.extract(BitString.from_int(xv, n), BitString.from_int(yv, d))
             for yv in range(1 << d)]
            for xv in range(1 << n)
        ]
        bound = (1 << d) >> m
        for xa, xb in itertools.combinations(range(1 << n), 2):
            collisions = sum(a == b for a, b in zip(table[xa], table[xb]))
            assert collisions <= bound


# -- many cases in one call -----------------------------------------------------


def batch_rows(ext):
    """Rows per extract call of extract_many: max(1, _BATCH_POINTS // next_pow2(q))."""
    return max(1, toeplitz._BATCH_POINTS // (1 << (ext.seed_length - 1).bit_length()))


def assert_rows_match_matrix(ext, xs, ys, out):
    assert out.shape == (len(xs), ext.output_length) and out.dtype == np.uint8
    assert not out.flags.writeable
    for x, y, row in zip(xs, ys, out):
        assert np.array_equal(row, ext.extract(BitString(x), BitString(y), method="matrix").bits)


@st.composite
def many_cases(draw):
    """(batch points, block, extractor, xs, ys): c rows at or beside the batch size, or 0.

    c is capped at 300 rows, which only the production batch points exceed.
    """
    points = draw(st.sampled_from([64, 256, toeplitz._BATCH_POINTS]))
    block = draw(st.sampled_from([4, toeplitz._BLOCK]))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        ext = ToeplitzExtractor(n, draw(st.integers(1, n)))
    else:
        ext = ModifiedToeplitzExtractor(n, draw(st.integers(1, n - 1)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toeplitz, "_BATCH_POINTS", points)
        rows = batch_rows(ext)
    c = min(draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1])), 300)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.integers(0, 2, size=(c, n), dtype=np.uint8)
    ys = rng.integers(0, 2, size=(c, ext.seed_length), dtype=np.uint8)
    return points, block, ext, xs, ys


@settings(max_examples=120, deadline=None)
@given(many_cases())
def test_extract_many_rows_match_matrix(case):
    # block 4 makes most shapes partitioned: their batches run one 1-D row at a time
    points, block, ext, xs, ys = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toeplitz, "_BATCH_POINTS", points)
        mp.setattr(toeplitz, "_BLOCK", block)
        assert_rows_match_matrix(ext, xs, ys, ext.extract_many(xs, ys))


@pytest.mark.parametrize("ext, rows", [
    (ModifiedToeplitzExtractor(128, 64), 512), (ToeplitzExtractor(128, 64), 256),
])
def test_extract_many_batch_rule_at_128_to_64(ext, rows):
    assert batch_rows(ext) == rows
    rng = np.random.default_rng(rows)
    xs = rng.integers(0, 2, size=(rows + 1, 128), dtype=np.uint8)
    ys = rng.integers(0, 2, size=(rows + 1, ext.seed_length), dtype=np.uint8)
    assert_rows_match_matrix(ext, xs, ys, ext.extract_many(xs, ys))


def test_extract_many_calls_extract_once_per_batch(monkeypatch):
    # extract_many is one extract call, and both hand _hash the same blocks
    ext = ModifiedToeplitzExtractor(128, 64)
    shapes = []
    original = ModifiedToeplitzExtractor._hash

    def counting(self, x, y, *args, **kwargs):
        shapes.append(x.shape)
        return original(self, x, y, *args, **kwargs)

    monkeypatch.setattr(ModifiedToeplitzExtractor, "_hash", counting)
    xs = np.zeros((5000, 128), dtype=np.uint8)
    ys = np.zeros((5000, 127), dtype=np.uint8)
    for call in (ext.extract, ext.extract_many):
        shapes.clear()
        call(xs, ys)
        assert shapes == [(512, 128)] * 9 + [(392, 128)]
    monkeypatch.setattr(toeplitz, "_BATCH_POINTS", 128)  # one 1-D row per call
    for call in (ext.extract, ext.extract_many):
        shapes.clear()
        call(xs[:3], ys[:3])
        assert shapes == [(128,)] * 3


@pytest.mark.parametrize("make", [ModifiedToeplitzExtractor, ToeplitzExtractor])
def test_batch_hashing_runs_in_bounded_memory(make):
    # 2*10^4 read-only 128-bit rows: one transform for all rows traces 76-118 MiB, and
    # copying the columns before the blocks 8-9 MiB; in place and in blocks, ~3 MiB
    ext = make(128, 64)
    rng = np.random.default_rng(20)
    xs = rng.integers(0, 2, size=(20_000, 128), dtype=np.uint8)
    ys = rng.integers(0, 2, size=(20_000, ext.seed_length), dtype=np.uint8)
    xs.setflags(write=False)
    ys.setflags(write=False)
    for call in (ext.extract, ext.extract_many):
        tracemalloc.start()
        try:
            call(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 << 20, f"{call.__name__} peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("method", ["fft", "exact", "matrix"])
def test_extract_with_a_batch_axis_matches_row_by_row(method):
    rng = np.random.default_rng(17)
    for ext in (ToeplitzExtractor(23, 9), ModifiedToeplitzExtractor(23, 9)):
        xs = rng.integers(0, 2, size=(7, 23), dtype=np.uint8)
        ys = rng.integers(0, 2, size=(7, ext.seed_length), dtype=np.uint8)
        assert_rows_match_matrix(ext, xs, ys, ext.extract(xs, ys, method=method))


def trevisan_16():
    return TrevisanExtractor.create(input_length=16, output_length=3, one_bit_extractor_seed_length=2)


def test_extract_many_trevisan_loops_extract():
    ext = trevisan_16()
    rng = np.random.default_rng(3)
    for c in (0, 1, 9):
        xs = rng.integers(0, 2, size=(c, 16), dtype=np.uint8)
        ys = rng.integers(0, 2, size=(c, ext.seed_length), dtype=np.uint8)
        out = ext.extract_many(xs, ys)
        assert out.shape == (c, 3) and out.dtype == np.uint8 and not out.flags.writeable
        for x, y, row in zip(xs, ys, out):
            assert np.array_equal(row, ext.extract(BitString(x), BitString(y)).bits)


@pytest.mark.parametrize("make", [
    lambda: ToeplitzExtractor(16, 8), lambda: ModifiedToeplitzExtractor(16, 8), trevisan_16,
])
def test_extract_many_checks_like_extract(make):
    ext = make()
    n, d = ext.input_length, ext.seed_length
    x, y = np.zeros((2, n), dtype=np.uint8), np.zeros((2, d), dtype=np.uint8)
    calls = [ext.extract_many]
    if not hasattr(ext, "one_bit"):  # Toeplitz extract takes the batch axis itself
        calls.append(ext.extract)
    for call in calls:
        for xs, ys in [(x[:, 1:], y), (x, y[:, 1:])]:
            with pytest.raises(LengthMismatch) as one:  # the same widths, one case
                ext.extract(BitString(xs[0]), BitString(ys[0]))
            with pytest.raises(LengthMismatch, match=f"^{re.escape(str(one.value))}$"):
                call(xs, ys)
        for xs, ys in [(x + 2, y), (x, y - 1), (x.astype(float) + 0.5, y)]:
            with pytest.raises(ValueError, match="only 0 and 1"):
                call(xs, ys)
        with pytest.raises(DimensionMismatch):
            call(x, y[:1])
    with pytest.raises(DimensionMismatch):
        ext.extract_many(x[0], y[0])
