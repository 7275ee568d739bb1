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
[0, b-1) only.  Schedule: the X_j and the first windows, then rounds of g =
min(CPUs, M) output blocks, inverted while the next round's windows go
forward, one thread per CPU: M+2K-1 forward, M inverse transforms.  Cost:
~4(m+k) transform points (3 next_pow2(m+k) unpartitioned) and ~mk/b complex
multiply-adds in the MK block products, quadratic in n.  Memory: one workspace
of 16(b+1)(K+R+2c) + m bytes on c CPUs, allocated and checked before the first
transform: the X_j reversed, a ring of R = min(M+K-1, K+2g-1) windows, a frame
and a sum per thread, the output; frames read y in place (no d).

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

Many cases: ``extract`` also takes a leading batch axis, (c, n) inputs
and (c, q) seeds giving a (c, m) array, and ``extract_many`` is one such
call.  The columns are checked in place, without a copy, and one block
loop hashes the rows: while m and k fit in a block, max(1, 2^16 //
next_pow2(q)) rows share one transform along the last axis (512 at
modified 128->64, 256 at standard 128->64), so a transform has at most
2^16 points per operand; partitioned shapes, "exact" and "matrix" take
one 1-D row at a time.  This is the package's one batch rule: test vectors
hash whole columns, the validator a chunk of at most 1024 cases and 2^26
input and seed bits a call, at least one case per worker.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bits import BitString, gf2_matvec
from .exceptions import InsufficientMemory, InvalidRange, PrecisionLoss
from .extractor import SeededExtractor, check_source_parameters

# 120-bit working precision keeps the floor of k + 2 - 2*log2(1/eps) exact
# for any realistic argument; 53-bit doubles would not for k beyond ~2^40.
_PRECISION_BITS = 120

# Partitioned-FFT block, in bits: of 2^16..2^18 the fastest at n = 2^21, 2^22 on a 2-vCPU Xeon
_BLOCK = 1 << 17

# Transform points per operand in one block of a batch extract: per case no slower than
# 2^17 or 2^18 on a 2-vCPU Xeon, 128->64 to 4096->2048, and 2^17 raises peak RSS ~1 MiB
_BATCH_POINTS = 1 << 16


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
    import mpmath  # here, not at module level: it adds ~30 ms to every CLI start-up

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


def _rounded_bits(window: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """Low bits of the integers nearest ``window`` (overwritten), in ``spare``; PrecisionLoss unless all < 0.25 away."""
    rounded = np.rint(window, out=spare)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        residual = float(np.abs(np.subtract(window, rounded, out=window), out=window).max())
    if not residual < 0.25:
        raise PrecisionLoss(f"convolution residual {residual:.3g} is not < 0.25")
    rounded += 1.5 * 2**52  # an integer below 2^51 is now the low bits of an int64 view
    return np.bitwise_and(rounded.view(np.int64), 1, out=rounded.view(np.int64))


def _available_memory() -> int | None:
    """MemAvailable, capped by the cgroup v2 memory.max less memory.current where readable; None if neither is."""
    free = []
    with suppress(OSError, ValueError, IndexError):
        free.append(int(Path("/proc/meminfo").read_text().split("MemAvailable:")[1].split()[0]) << 10)
    with suppress(OSError, ValueError, IndexError):  # the group's file cache counts as free: it is reclaimed first
        group = Path("/sys/fs/cgroup" + ("\n" + Path("/proc/self/cgroup").read_text()).split("\n0::")[1].split()[0])
        stat = (group / "memory.stat").read_text().split()
        cache = sum(int(stat[stat.index(name) + 1]) for name in ("active_file", "inactive_file"))
        free.append(int((group / "memory.max").read_text()) - int((group / "memory.current").read_text()) + cache)
    return min(free, default=None)


def _block_fft(y: np.ndarray, x: np.ndarray, shift: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """The window of :func:`_block_exact` for d[t] = y[(t + shift) mod q], 0 <= shift <= q, via real FFT.

    A cyclic convolution of size L >= q folds the linear coefficients L and above onto
    indices at most q+k-2-L <= k-2, so the window k-1 .. q-1 is free of wrap-around.
    While m and k fit in a block, ``y`` and ``x`` may carry a leading batch axis, (c, q)
    and (c, k): one transform along the last axis then serves every row.  The window
    goes to ``out``, a uint8 array of its shape (new if None).
    """
    q, k = y.shape[-1], x.shape[-1]
    m, b = q - k + 1, _BLOCK
    out = np.empty(x.shape[:-1] + (m,), np.uint8) if out is None else out
    if max(m, k) <= b:
        size, rows = 1 << max(0, q - 1).bit_length(), x.shape[:-1]
        frame, (spectrum, xs) = np.empty(rows + (size,)), np.empty((2, *rows, size // 2 + 1), complex)
        frame[..., : q - shift], frame[..., q - shift : q] = y[..., shift:], y[..., :shift]
        np.fft.rfft(frame[..., :q], size, out=spectrum)
        frame[..., :k] = x
        spectrum *= np.fft.rfft(frame[..., :k], size, out=xs)
        out[...] = _rounded_bits(np.fft.irfft(spectrum, size, out=frame)[..., k - 1 : q])
        return out
    mb, kb = -(-m // b), -(-k // b)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    g = min(cpus, mb)  # output blocks per round
    r = min(mb + kb - 1, kb + 2 * g - 1)  # W_e at row e % r of the ring, X_{K-1-j} at row j of xr
    need, free = 16 * (b + 1) * (kb + r + 2 * cpus) + m, _available_memory()
    if free is not None and need > free:
        raise InsufficientMemory(f"the FFT workspace needs {need} bytes, {free} are available")
    spectra, local = np.empty((kb + r + 2 * cpus, b + 1), complex), threading.local()
    xr, ring, slots = spectra[:kb], spectra[kb : kb + r], list(spectra[kb + r :].reshape(cpus, 2, b + 1))

    def forward(dst, lo, hi, src=y, shift=shift):  # rfft(d[lo:hi], 2b), d[t] = src[(t+shift) % n], 0 at t < 0
        frame, n = local.work[0].view(float), len(src)
        hi, pad = min(hi, n), max(0, -lo)  # pad: the left zeros of the last input block
        cut = min(max(n - shift, lo), hi)  # d[t] wraps to the start of src at t = n - shift
        frame[:pad] = 0
        frame[pad : cut - lo] = src[lo + pad + shift : cut + shift]
        frame[cut - lo : hi - lo] = src[cut + shift - n : hi + shift - n]
        np.fft.rfft(frame[: hi - lo], 2 * b, out=dst)

    def inverse(a):  # sum_j W_{a+j} X_{K-1-j}: rows s .. r-1 of the ring, then 0 ..
        (frame, acc), s, lo = local.work, a % r, a * b
        np.einsum("jf,jf->f", ring[s : s + kb], xr[: r - s], out=acc)
        if s + kb > r:
            acc += np.einsum("jf,jf->f", ring[: s + kb - r], xr[r - s :], out=frame)
        window = np.fft.irfft(acc, 2 * b, out=frame.view(float)[: 2 * b])[b - 1 : -1][: m - lo]
        out[lo : lo + b] = _rounded_bits(window, acc.view(float)[: len(window)])  # irfft is done with acc

    with ThreadPoolExecutor(cpus, initializer=lambda: setattr(local, "work", slots.pop())) as pool:
        top, jobs = 0, [pool.submit(forward, xr[j], k - (j + 1) * b, k - j * b, x, 0) for j in range(kb)]
        for a0 in range(-g, mb, g):  # blocks a0 .. a0+g-1 while the next round's windows go forward
            done, top = top, min(a0 + kb + 2 * g - 1, mb + kb - 1)
            jobs += [pool.submit(forward, ring[e % r], e * b, (e + 2) * b) for e in range(done, top)]
            list(pool.map(inverse, range(max(0, a0), min(a0 + g, mb))))
            while jobs:
                jobs.pop().result()
        return out


class _ToeplitzBlockExtractor(SeededExtractor):
    """Ext(x, y) = (T(y) || I) . x over GF(2) for the m x k block T(y).

    The block T[i, j] = y[(i - j) mod q] hashes the first k input bits
    with a seed of q = m+k-1 bits; the remaining n-k input bits (none,
    or m of them) are XORed onto the output through an identity block.
    A variant states ``_identity``, whether that block takes the last m
    input bits: then k = n-m and m < n, else k = n and m <= n.
    """

    _identity: bool

    def __init__(self, input_length: int, output_length: int):
        super().__init__(input_length, output_length, self._seed_length_for(input_length, output_length))
        self._k = self.seed_length - output_length + 1

    @classmethod
    def _seed_length_for(cls, input_length: int, output_length: int) -> int:
        """The seed length q = m+k-1 of (n, m), else InvalidRange: the variant's whole shape rule; it builds nothing."""
        top = input_length - cls._identity
        if top < 1:
            raise InvalidRange(f"input_length {input_length} admits no output length")
        if not 1 <= output_length <= top:
            raise InvalidRange(f"output_length must be in [1, {top}], got {output_length}")
        return input_length - 1 if cls._identity else input_length + output_length - 1

    @classmethod
    def calculate_length(cls, extractor_type, input_length, relative_source_entropy, error_bound):
        """:func:`calculate_length`, capped at the variant's largest output length."""
        m = calculate_length(extractor_type, input_length, relative_source_entropy, error_bound)
        return min(m, input_length - cls._identity)

    def to_matrix(self, y: BitString) -> np.ndarray:
        """Explicit hashing matrix for seed ``y`` (reference path)."""
        _, y = self._check_lengths(None, y)
        m, k = self.output_length, self._k
        idx = (np.arange(m)[:, None] - np.arange(k)[None, :]) % self.seed_length
        return np.hstack([y.bits[idx], np.eye(m, self.input_length - k, dtype=np.uint8)])

    def extract(self, x, y, method: str = "fft"):
        """Hash ``x`` with the function selected by seed ``y``.

        method: "fft" (default) convolves by float FFT, whose error the
        module docstring bounds for a radix-2 FFT, and raises PrecisionLoss
        if its residual check fails; "exact" by one big-integer product,
        the independent path; "matrix" multiplies by the explicit matrix.

        ``x`` and ``y`` may carry a leading batch axis: (c, n) and (c, d)
        arrays of 0/1, checked in place, give a read-only (c, m) uint8 array
        whose row i hashes x[i] with y[i], in blocks (module docstring: "Many cases"); one case is a one-row column.
        """
        if method not in ("fft", "exact", "matrix"):
            raise InvalidRange(f"unknown method {method!r}")
        one = not (isinstance(x, np.ndarray) and x.ndim == 2)
        xs, ys = (v.bits[None] for v in self._check_lengths(x, y)) if one else self._check_rows(x, y)
        rows = 1  # a partitioned transform, "exact" and "matrix" take one 1-D row
        if method == "fft" and max(self.output_length, self._k) <= _BLOCK:
            rows = max(1, _BATCH_POINTS >> max(0, self.seed_length - 1).bit_length())
        out = np.empty((len(xs), self.output_length), dtype=np.uint8)
        for lo in range(0, len(xs), rows):
            block = slice(lo, lo + rows) if rows > 1 else lo
            self._hash(xs[block], ys[block], method, out[block])
        out.setflags(write=False)
        return BitString._wrap(out[0]) if one else out  # a new row of 0/1: nothing to copy or check

    def _hash(self, x: np.ndarray, y: np.ndarray, method: str, out: np.ndarray) -> None:
        """The hash of checked bits ``x`` with ``y``, along the last axis, written to ``out``."""
        if method == "matrix":
            out[...] = gf2_matvec(self.to_matrix(y), x)
            return
        m, k = self.output_length, self._k
        if method == "fft":
            _block_fft(y, x[..., :k], m, out)  # the q diagonals: y rotated by k-1
        else:
            out[...] = _block_exact(np.concatenate((y[..., m:], y[..., :m]), axis=-1), x[..., :k])
        out[..., : self.input_length - k] ^= x[..., k:]

    def extract_many(self, xs, ys) -> np.ndarray:
        """:meth:`SeededExtractor.extract_many`: the columns checked in place, then one batch ``extract``."""
        return self.extract(*self._check_rows(xs, ys))


class ToeplitzExtractor(_ToeplitzBlockExtractor):
    """Standard Toeplitz hashing: Ext(x, y) = T(y) . x over GF(2).

    T(y) is the m x n Toeplitz matrix T[i, j] = y[(i - j) mod (n+m-1)],
    the block with k = n.  The seed is n+m-1 bits; any 1 <= m <= n is
    allowed.
    """

    vector_name = "ToeplitzHashing"
    # each variant binds extract itself, so it can be wrapped per class
    extract = _ToeplitzBlockExtractor.extract
    _identity = False


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
    _identity = True
