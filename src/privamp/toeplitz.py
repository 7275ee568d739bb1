"""Toeplitz and modified Toeplitz hashing extractors.

Seed-to-matrix convention (frozen — it is the unique one, up to a
mirror symmetry, that reproduces the published 128->64 modified
Toeplitz test vectors bit-exactly): seed bits index the matrix
diagonals cyclically,

    T[i, j] = y[(i - j) mod q],

where T is an m x k block and q = m+k-1 is the seed length (k = n for
standard Toeplitz acting on the whole input, k = n-m for the block T'
of modified Toeplitz, so q = n+m-1 and n-1).  The first column is
therefore y[0], y[1], ..., y[m-1] top to bottom and the first row walks
the tail of the seed backwards: y[0], y[q-1], y[q-2], ...

The block has exactly q diagonals: diagonal t = i-j+k-1 (t = 0 at the
top-right corner) holds d[t] = y[(t-k+1) mod q], i.e. d is the seed
rotated by k-1.  Output bit i is then coefficient i+k-1 of the linear
convolution d*x.  The exact path reads this window of m coefficients
from one big-integer product.  The FFT path reads it from one cyclic
convolution of size next_pow2(q) while m and k both fit in b = _BLOCK
bits (every 128->64 case does), else by blocks: x is left-padded to K
blocks x_j of b bits, and output block a (of M) is coefficients
[b-1, 2b-1) of irfft(sum_j W_{a+j} X_{K-1-j}, 2b), with X_j =
rfft(x_j, 2b) and W_e = rfft(d[e*b : e*b + 2b], 2b), d zero-padded; a
2b-point cyclic convolution of a 2b- and a b-bit operand wraps onto
[0, b-1) only.  Schedule: M+2K-1 forward transforms, then M inverse
ones, one job each on up to one thread per usable CPU (numpy's FFT
releases the GIL).  Cost: ~4(m+k) transform points, 3 next_pow2(m+k)
unpartitioned.  Memory: all spectra are stored, ~16(m+k) + 16k bytes.

Exactness (Percival, Math. Comp. 72, 2003, Thm. 5.1): a radix-2 cyclic
convolution of a and c on 2^n points in binary64 (u = 2^-53, twiddles
within beta of the roots of unity) errs by < |a| |c| ((1+u)^3n
(1+sqrt5 u)^(3n+1) (1+beta)^3n - 1) per coefficient, |.| the 2-norm.
Here 2^n <= 2b, |a| |c| <= sqrt(2) b (0/1 operands of 2b and b bits),
beta = 2u, and K block products add up at most K-1 additions deep:

    E(K) = K sqrt(2) b ((1+u)^(53 + K) (1+sqrt5 u)^55 (1+2u)^54 - 1)

bounds the error: 5.9e-9 at K = 1, < 0.25 for K <= 110076 (k <= 2^33.7).
That is for a radix-2 FFT; numpy's is mixed-radix, and the residual check
(each coefficient < 0.25 from an integer; NaN, inf fail) guards it at run time.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np

from .bits import BitString, gf2_matvec
from .exceptions import InvalidRange, PrecisionLoss
from .extractor import SeededExtractor, check_source_parameters

_METHODS = ("fft", "exact", "matrix")

# 120-bit working precision keeps the floor of k + 2 - 2*log2(1/eps) exact
# for any realistic argument; 53-bit doubles would not for k beyond ~2^40.
_PRECISION_BITS = 120

# Partitioned-FFT block, in bits: of 2^16..2^18 the fastest at n = 2^21, 2^22 on a 2-vCPU Xeon
_BLOCK = 1 << 17


def calculate_length(
    extractor_type: str,
    input_length: int,
    relative_source_entropy: float,
    error_bound: float,
) -> int:
    """Largest secure output length by the leftover hash bound.

    Returns floor(k + 2 - 2*log2(1/error_bound)) clamped to
    [0, input_length], where k = relative_source_entropy * input_length
    is the conditional min-entropy of the source.  The same bound is
    used for extractor_type="quantum" and "classical"; the flag is kept
    for API parity should the two ever diverge.  The subtracted log term
    is rounded up at the final digit, so numerical error can only shrink
    the result (the security-safe direction).
    """
    if extractor_type not in ("quantum", "classical"):
        raise InvalidRange(f"extractor_type must be quantum or classical, got {extractor_type!r}")
    check_source_parameters(input_length, relative_source_entropy, error_bound)

    with mpmath.workprec(_PRECISION_BITS):
        k = mpmath.mpf(relative_source_entropy) * input_length
        frac = Fraction(error_bound)
        if frac.numerator == 1 and (frac.denominator & (frac.denominator - 1)) == 0:
            # error bound is an exact power of two: the log term is an integer
            term = mpmath.mpf(2 * (frac.denominator.bit_length() - 1))
        else:
            term = 2 * mpmath.log(1 / mpmath.mpf(error_bound), 2)
            scale = mpmath.mpf(2) ** 64
            term = mpmath.ceil(term * scale) / scale
        m = int(mpmath.floor(k + 2 - term))
    return max(0, min(input_length, m))


def _pack_bits(bits: np.ndarray, slot_bytes: int) -> int:
    """Pack 0/1 coefficients into a big integer, one little-endian slot each."""
    buf = np.zeros(len(bits) * slot_bytes, dtype=np.uint8)
    buf[:: slot_bytes] = bits
    return int.from_bytes(buf.tobytes(), "little")


def _block_exact(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficients k-1 .. q-1 of the linear convolution d*x, exactly, mod 2.

    q = len(d) >= k = len(x).  Coefficients are packed into wide slots of
    one big integer each, so the single big-integer product (Karatsuba
    under the hood) computes them all at once without carries between
    slots.
    """
    q, k = len(d), len(x)
    slot = (q.bit_length() + 8) // 8
    raw = (_pack_bits(d, slot) * _pack_bits(x, slot)).to_bytes((q + k) * slot, "little")
    return np.frombuffer(raw, dtype=np.uint8)[(k - 1) * slot : q * slot : slot] & 1


def _rounded_bits(window: np.ndarray) -> np.ndarray:
    """Low bits of the integers nearest to ``window``; PrecisionLoss unless all are < 0.25 away."""
    rounded = np.rint(window)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        residual = float(np.abs(window - rounded).max())
    if not residual < 0.25:
        raise PrecisionLoss(f"convolution residual {residual:.3g} is not < 0.25")
    return rounded.astype(np.int64).astype(np.uint8) & 1


def _block_fft(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The window of :func:`_block_exact` via real FFT, verified by a residual check.

    A cyclic convolution of size L >= q folds the linear coefficients L
    and above onto indices at most q+k-2-L <= k-2, so the window
    k-1 .. q-1 is free of wrap-around.
    """
    q, k = len(d), len(x)
    m, b = q - k + 1, _BLOCK
    if max(m, k) <= b:
        size = 1 << max(0, q - 1).bit_length()
        window = np.fft.irfft(np.fft.rfft(d, size) * np.fft.rfft(x, size), size)[k - 1 : q]
        return _rounded_bits(window)
    mb, kb = -(-m // b), -(-k // b)
    w = np.empty((mb + kb - 1, b + 1), dtype=complex)  # W_e
    xs = np.empty((kb, b + 1), dtype=complex)  # X_j
    x_blocks = np.pad(x, (kb * b - k, 0)).reshape(kb, b)

    def forward(dst, src):  # rfft zero-pads src to 2b
        dst[:] = np.fft.rfft(src, 2 * b)

    def inverse(a):
        acc = np.einsum("jf,jf->f", w[a : a + kb], xs[::-1])  # sum_j W_{a+j} X_{K-1-j}
        return _rounded_bits(np.fft.irfft(acc, 2 * b)[b - 1 : 2 * b - 1])

    frames = [d[e * b : e * b + 2 * b] for e in range(len(w))] + list(x_blocks)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(min(cpus, len(frames))) as pool:  # numpy's FFT releases the GIL
        list(pool.map(forward, [*w, *xs], frames))
        return np.concatenate(list(pool.map(inverse, range(mb))))[:m]


class _ToeplitzBlockExtractor(SeededExtractor):
    """Ext(x, y) = (T(y) || I) . x over GF(2) for the m x k block T(y).

    The block T[i, j] = y[(i - j) mod q] hashes the first k input bits
    with a seed of q = m+k-1 bits; the remaining n-k input bits (none,
    or m of them) are XORed onto the output through an identity block.
    A variant states its block width k, ``_block_width(n, m)``, and its
    largest output length, ``_max_output_length(n)``.
    """

    def __init__(self, input_length: int, output_length: int):
        top = self._max_output_length(input_length)
        if top < 1:
            raise InvalidRange(f"input_length {input_length} admits no output length")
        if not 1 <= output_length <= top:
            raise InvalidRange(f"output_length must be in [1, {top}], got {output_length}")
        self._k = self._block_width(input_length, output_length)
        super().__init__(input_length, output_length, output_length + self._k - 1)

    @classmethod
    def calculate_length(cls, extractor_type, input_length, relative_source_entropy, error_bound):
        """:func:`calculate_length`, capped at the variant's largest output length."""
        m = calculate_length(extractor_type, input_length, relative_source_entropy, error_bound)
        return min(m, cls._max_output_length(input_length))

    def to_matrix(self, y: BitString) -> np.ndarray:
        """Explicit hashing matrix for seed ``y`` (reference path)."""
        _, y = self._check_lengths(None, y)
        m, k = self.output_length, self._k
        idx = (np.arange(m)[:, None] - np.arange(k)[None, :]) % self.seed_length
        return np.hstack([y.bits[idx], np.eye(m, self.input_length - k, dtype=np.uint8)])

    def extract(self, x: BitString, y: BitString, method: str = "fft") -> BitString:
        """Hash ``x`` with the function selected by seed ``y``.

        method: "fft" (default) convolves by float FFT, whose error the
        module docstring bounds for a radix-2 FFT, and raises PrecisionLoss
        if its residual check fails; "exact" by one big-integer product,
        the independent path; "matrix" multiplies by the explicit matrix.
        """
        if method not in _METHODS:
            raise InvalidRange(f"unknown method {method!r}")
        x, y = self._check_lengths(x, y)
        if method == "matrix":
            return BitString(gf2_matvec(self.to_matrix(y), x))
        m, k = self.output_length, self._k
        d = np.concatenate((y.bits[m:], y.bits[:m]))  # the q diagonals: the seed rotated by k-1
        out = (_block_fft if method == "fft" else _block_exact)(d, x.bits[:k])
        out[: self.input_length - k] ^= x.bits[k:]
        return BitString(out)


class ToeplitzExtractor(_ToeplitzBlockExtractor):
    """Standard Toeplitz hashing: Ext(x, y) = T(y) . x over GF(2).

    T(y) is the m x n Toeplitz matrix T[i, j] = y[(i - j) mod (n+m-1)],
    the block with k = n.  The seed is n+m-1 bits; any 1 <= m <= n is
    allowed.
    """

    vector_name = "ToeplitzHashing"
    # each variant binds extract itself, so it can be wrapped per class
    extract = _ToeplitzBlockExtractor.extract

    @staticmethod
    def _block_width(n: int, m: int) -> int:
        return n

    @staticmethod
    def _max_output_length(n: int) -> int:
        return n


class ModifiedToeplitzExtractor(_ToeplitzBlockExtractor):
    """Modified Toeplitz hashing: Ext(x, y) = (T'(y) || I_m) . x.

    T'(y) is the m x (n-m) block T'[i, j] = y[(i - j) mod (n-1)], so
    only n-1 seed bits are needed.  The identity block passes the last
    m input bits through, XORed onto the Toeplitz part.  Requires m < n:
    at m = n the Toeplitz block would have no columns while the seed
    would still have n-1 bits, which leaves the construction ill-posed.
    """

    vector_name = "ModifiedToeplitzHashing"
    extract = _ToeplitzBlockExtractor.extract

    @staticmethod
    def _block_width(n: int, m: int) -> int:
        return n - m

    @staticmethod
    def _max_output_length(n: int) -> int:
        return n - 1
