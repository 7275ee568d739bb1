"""Trevisan's extractor: weak designs, one-bit extraction, composition.

The output bit i is a one-bit extraction of the whole input against the
seed bits selected by set S_i of a weak design; the designs here are
the finite-field polynomial family over GF(t) with d = t*t.

Coefficient ordering conventions are normative because silent ordering
drift changes outputs without breaking anything visibly: the one-bit
extractor interprets input chunks in descending degree order (leftmost
chunk is the highest-degree coefficient), while generic polynomial
evaluation in :mod:`privamp.fields` is ascending.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import BitString
from .exceptions import InvalidRange, NoFeasibleOutput, TooManySets
from .extractor import SeededExtractor, check_source_parameters
from .fields import GF, _digits, prime_power

#: Overlap parameter guaranteed by the finite-field polynomial design.
DEFAULT_OVERLAP_R = 2 * math.e

#: Above this many set elements (m*t) verification samples indices
#: instead of checking every one (the per-index check stays exact).
DEFAULT_VERIFY_CAP = 100_000


def _one_bit_shape(input_length: int, seed_length: int) -> tuple[int, int]:
    """Field degree l = t/2 and chunk count s = ceil(n/l) for one-bit seed length t."""
    if seed_length < 2 or seed_length % 2:
        raise InvalidRange(f"one-bit seed length must be even and >= 2, got {seed_length}")
    l = seed_length // 2
    return l, -(-input_length // l)


def _degree_cap(m: int, t: int) -> int:
    """Least polynomial degree c with m <= t^(c+1), so m sets get distinct polynomials.

    m <= t^t exactly when c < t.
    """
    c = 0
    while t ** (c + 1) < m:
        c += 1
    return c


class WeakDesign:
    """A family of m size-t subsets of {0, ..., d-1}: a read-only (m, t) array.

    Row i of the int64 array ``sets`` is S_i, ascending.  The constructor
    is the one structural check: it raises InvalidRange for no sets, an
    empty set, sets of different sizes, a repeated element or an element
    outside [0, d).  The defining bound is sum_{j<i} 2^{|S_i cap S_j|} <= r*m
    for every i.  A design that exceeds a target r is not rejected —
    :func:`verify_design` exists to report exactly that.
    """

    def __init__(self, sets, seed_length: int):
        rows = [tuple(s) for s in sets]
        if not rows or not rows[0] or any(len(s) != len(rows[0]) for s in rows):
            raise InvalidRange("a weak design needs one or more non-empty sets of one size")
        array = np.array(rows)
        if array.min() < 0 or array.max() >= seed_length:
            raise InvalidRange(f"set elements must lie in [0, {seed_length})")
        array = np.sort(array.astype(np.int64), axis=1)
        if (array[:, 1:] == array[:, :-1]).any():
            raise InvalidRange("a set repeats an element")
        array.setflags(write=False)
        self.sets = array
        self.m, self.t = array.shape
        self.d = seed_length

    def _overlap_sums(self, indices) -> list[int]:
        """Exact sum_{j<i} 2^{|S_i cap S_j|} for each i in ``indices``, as Python ints.

        The overlap counts come from gathering a mask of S_i at every earlier
        row; how the design was built is never consulted, so this stays an oracle.
        """
        mask = np.zeros(self.d, dtype=bool)
        sums = []
        for i in indices:
            mask[self.sets[i]] = True
            counts = np.bincount(mask[self.sets[:i]].sum(axis=1)).tolist()
            mask[self.sets[i]] = False
            sums.append(sum(c << k for k, c in enumerate(counts)))
        return sums

    def restrict(self, y: BitString, i: int) -> BitString:
        """Seed bits of ``y`` at the indices of S_i, ascending."""
        return y.take(self.sets[i])


class FiniteFieldPolynomialDesign(WeakDesign):
    """Weak design over GF(t): S_i = { a*t + p_i(a) : a in GF(t) }.

    The coefficients of p_i are the base-t digits of i (digit k is the
    degree-k coefficient) and field elements are identified with
    {0, ..., t-1} through the canonical integer encoding.  The maximum
    polynomial degree c is the least value with m <= t^(c+1); the
    family achieves overlap parameter r = 2e as long as m <= t^t, which
    is enforced as a sanity cap.
    """

    def __init__(self, m: int, t: int):
        if m < 1:
            raise InvalidRange("m must be at least 1")
        field = GF(t)  # raises NotPrimePower for invalid t
        c = _degree_cap(m, t)
        if c >= t:  # t**t < m, so it is small
            raise TooManySets(f"m = {m} exceeds the sanity cap t**t = {t**t}")
        sets = []
        for i in range(m):
            coeffs = _digits(i, t, c + 1)
            sets.append(
                tuple(a * t + field.eval_poly_i(coeffs, a) for a in range(t))
            )
        super().__init__(sets, t * t)
        self.degree_cap = c
        self.field = field


def generate_design(m: int, t: int) -> FiniteFieldPolynomialDesign:
    """Build the finite-field polynomial weak design with m sets over GF(t)."""
    return FiniteFieldPolynomialDesign(m, t)


@dataclass
class DesignVerification:
    """Result of checking a weak design against the overlap bound."""

    passed: bool
    m: int
    t: int
    d: int
    r: float
    achieved_r: float
    worst_index: int
    worst_sum: int
    mode: str  # "exhaustive" or "sampled"
    checked_indices: int

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"{state}: weak design with m={self.m}, t={self.t}, d={self.d}\n"
            f"  overlap bound r={self.r:.4f}, achieved {self.achieved_r:.4f} "
            f"(worst index {self.worst_index}, sum {self.worst_sum} vs r*m "
            f"{self.r * self.m:.1f}; {self.mode}, {self.checked_indices} indices)"
        )


def verify_design(
    design: WeakDesign,
    r: float = DEFAULT_OVERLAP_R,
    verify_cap: int = DEFAULT_VERIFY_CAP,
    rng_seed: int = 0,
    sample_size: int = 1000,
) -> DesignVerification:
    """Check the overlap bound sum_{j<i} 2^{|S_i cap S_j|} <= r*m for every i.

    Structure needs no check: the :class:`WeakDesign` constructor made it.
    When m*t exceeds ``verify_cap`` a deterministic sample of indices is
    checked instead.  Each checked index gets its exact sum from one
    O(i*t) numpy gather.  The report carries the worst index and the
    achieved maximum sum / m — the number to compare against r.
    """
    if design.m * design.t <= verify_cap:
        indices = range(design.m)
        mode = "exhaustive"
    else:
        if sample_size < 1:
            raise InvalidRange(f"sample_size must be >= 1, got {sample_size}")
        rng = np.random.default_rng(rng_seed)
        count = min(sample_size, design.m)
        indices = sorted(rng.choice(design.m, size=count, replace=False).tolist())
        mode = "sampled"

    worst_index, worst_sum = 0, 0
    for i, s in zip(indices, design._overlap_sums(indices)):
        if s > worst_sum:
            worst_index, worst_sum = i, s
    try:
        achieved = worst_sum / design.m
    except OverflowError:  # a sum can reach 2^t, beyond a float from t = 1024 on
        achieved = math.inf
    return DesignVerification(
        passed=Fraction(worst_sum, design.m) <= r,  # exact against any float r
        m=design.m,
        t=design.t,
        d=design.d,
        r=r,
        achieved_r=achieved,
        worst_index=worst_index,
        worst_sum=worst_sum,
        mode=mode,
        checked_indices=len(indices),
    )


class PolynomialOneBitExtractor(SeededExtractor):
    """One-bit extractor: polynomial evaluation plus an inner-product mask.

    The seed (2l bits) splits into a field point alpha (first l bits)
    and a mask beta (last l bits), both read as GF(2^l) elements with
    the leftmost bit as the highest-degree coefficient.  The input is
    split into ceil(n/l) chunks of l bits (the final chunk is padded
    with zeros on the right); the leftmost chunk is the highest-degree
    coefficient of the input polynomial p_x.  The output bit is the
    parity of p_x(alpha) AND beta.
    """

    def __init__(self, input_length: int, seed_length: int):
        if input_length < 1:
            raise InvalidRange("input_length must be positive")
        self._l, self._chunks = _one_bit_shape(input_length, seed_length)
        self._field = GF(2**self._l)
        super().__init__(input_length, 1, seed_length)

    @property
    def field_degree(self) -> int:
        return self._l

    @property
    def chunk_count(self) -> int:
        return self._chunks

    def extract_bit(self, x: BitString, y: BitString) -> int:
        x, y = self._check_lengths(x, y)
        l, s = self._l, self._chunks
        alpha = y[:l].to_int()
        beta = y[l:].to_int()
        padded = x.to_int() << (s * l - self.input_length)
        mask = (1 << l) - 1
        value = 0
        for j in range(s):  # descending degree, leftmost chunk first
            chunk = (padded >> ((s - 1 - j) * l)) & mask
            value = self._field.mul_i(value, alpha) ^ chunk
        return (value & beta).bit_count() & 1

    def extract(self, x: BitString, y: BitString) -> BitString:
        return BitString([self.extract_bit(x, y)])


@dataclass(frozen=True)
class TrevisanParams:
    """Parameters behind a calculated Trevisan output length."""

    output_length: int
    one_bit_seed_length: int
    field_degree: int
    chunk_count: int
    seed_length: int
    degree_cap: int
    overlap_r: float
    per_bit_error: float
    one_bit_entropy_required: float
    total_entropy_required: float
    source_entropy: float


def _one_bit_entropy_required(l: int, s: int, per_bit_error: float) -> float:
    # conservative requirement for the polynomial one-bit extractor
    return l + 2 * math.log2(1 / per_bit_error) + math.log2(s)


def calculate_length_trevisan(
    input_length: int,
    relative_source_entropy: float,
    error_bound: float,
    one_bit_seed_length: int,
) -> tuple[int, TrevisanParams]:
    """Largest feasible output length for the composed extractor.

    Composition rule (frozen in this package): a weak (m, t, r, d)-design
    plus a one-bit extractor that is (k - r*m, e1)-strong yields an
    (k, m*e1)-strong extractor, so the per-bit error budget is
    error_bound / m and the total entropy requirement is
    k >= k1(e1) + r*m with r = 2e and
    k1 = l + 2*log2(1/e1) + log2(s).  The result is monotone
    non-decreasing in both the source entropy and the error bound.
    """
    check_source_parameters(input_length, relative_source_entropy, error_bound)
    t = one_bit_seed_length
    d = TrevisanExtractor._seed_length_for(input_length, 1, t)
    l, s = _one_bit_shape(input_length, t)
    k = relative_source_entropy * input_length
    r = DEFAULT_OVERLAP_R

    def feasible(m: int) -> bool:
        # the design's t**t cap, then the entropy that the composition rule asks for
        return _degree_cap(m, t) < t and k >= _one_bit_entropy_required(l, s, error_bound / m) + r * m

    # feasible is monotone decreasing in m, so the largest feasible m is the number of them
    m = bisect.bisect_left(range(1, input_length + 1), True, key=lambda m: not feasible(m))
    if m == 0:
        raise NoFeasibleOutput("source entropy too low for even one output bit at these parameters")
    e1 = error_bound / m
    k1 = _one_bit_entropy_required(l, s, e1)
    params = TrevisanParams(
        output_length=m,
        one_bit_seed_length=t,
        field_degree=l,
        chunk_count=s,
        seed_length=d,
        degree_cap=_degree_cap(m, t),
        overlap_r=r,
        per_bit_error=e1,
        one_bit_entropy_required=k1,
        total_entropy_required=k1 + r * m,
        source_entropy=k,
    )
    return m, params


class TrevisanExtractor(SeededExtractor):
    """Composition of a weak design with a one-bit extractor.

    Output bit i is the one-bit extraction of the input against the
    seed restricted to S_i; bits are assembled in index order (the m
    extractions are independent, so any evaluation schedule gives the
    same output).
    """

    vector_name = "TrevisanExtractor"

    def __init__(self, design: WeakDesign, one_bit: PolynomialOneBitExtractor):
        if design.t != one_bit.seed_length:
            raise InvalidRange(
                f"design set size t={design.t} must equal the one-bit extractor "
                f"seed length {one_bit.seed_length}"
            )
        self.design = design
        self.one_bit = one_bit
        super().__init__(one_bit.input_length, design.m, design.d)

    @classmethod
    def create(
        cls,
        input_length: int,
        output_length: int,
        one_bit_extractor_seed_length: int,
    ) -> "TrevisanExtractor":
        t = one_bit_extractor_seed_length
        cls._seed_length_for(input_length, output_length, t)  # before the m*t design steps
        design = FiniteFieldPolynomialDesign(output_length, t)
        return cls(design, PolynomialOneBitExtractor(input_length, t))

    @staticmethod
    def _seed_length_for(input_length: int, output_length: int, one_bit_extractor_seed_length: int) -> int:
        """The seed length t*t of (n, m, t), else the error ``create`` raises: the whole rule; it builds nothing."""
        t = one_bit_extractor_seed_length
        if input_length < 1 or output_length < 1:
            raise InvalidRange("input_length and output_length must be positive")
        _one_bit_shape(input_length, t)
        prime_power(t)  # raises NotPrimePower when t is invalid
        if _degree_cap(output_length, t) >= t:  # t**t < m, so it is small
            raise TooManySets(f"m = {output_length} exceeds the sanity cap t**t = {t**t}")
        return t * t

    def header_params(self) -> dict[str, int]:
        return {"One-bit seed length": self.one_bit.seed_length}

    def extract(self, x: BitString, y: BitString) -> BitString:
        x, y = self._check_lengths(x, y)
        return BitString(
            [self.one_bit.extract_bit(x, self.design.restrict(y, i)) for i in range(self.design.m)]
        )
