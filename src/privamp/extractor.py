"""Common interface for strong seeded randomness extractors."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .bits import BitString, _zero_one
from .exceptions import DimensionMismatch, InvalidRange, LengthMismatch


def check_source_parameters(
    input_length: int, relative_source_entropy: float, error_bound: float
) -> None:
    """Range checks shared by the output-length calculations."""
    if input_length < 1:
        raise InvalidRange("input_length must be positive")
    if not 0.0 < relative_source_entropy <= 1.0:
        raise InvalidRange("relative_source_entropy must be in (0, 1]")
    if not 0.0 < error_bound < 1.0:
        raise InvalidRange("error_bound must be in (0, 1)")


class SeededExtractor(ABC):
    """A function {0,1}^n x {0,1}^d -> {0,1}^m, pure and immutable.

    The base class owns the three lengths: each constructor passes them
    once to ``__init__`` and they are read back as the read-only
    properties ``input_length``, ``output_length`` and ``seed_length``.
    Implementations provide :meth:`extract`; :meth:`extract_many` hashes
    many cases in one call.  ``vector_name`` is the identifier used in
    test vector file headers.
    """

    vector_name: str = ""

    def __init__(self, input_length: int, output_length: int, seed_length: int):
        self._lengths = (input_length, output_length, seed_length)

    @property
    def input_length(self) -> int:
        return self._lengths[0]

    @property
    def output_length(self) -> int:
        return self._lengths[1]

    @property
    def seed_length(self) -> int:
        return self._lengths[2]

    @abstractmethod
    def extract(self, x: BitString, y: BitString) -> BitString:
        """Apply the extractor to input ``x`` and uniform seed ``y``."""

    def extract_many(self, xs, ys) -> np.ndarray:
        """Hash row i of ``xs`` with row i of ``ys``, for every row.

        ``xs`` and ``ys`` are (c, n) and (c, d) arrays of 0/1; the result
        is a read-only (c, m) uint8 array whose row i equals
        ``extract(xs[i], ys[i]).bits``.  This default calls :meth:`extract`
        once per row.
        """
        xs, ys = self._check_rows(xs, ys)
        out = np.empty((len(xs), self.output_length), dtype=np.uint8)
        for i, (x, y) in enumerate(zip(xs, ys)):
            out[i] = self.extract(x, y).bits
        out.setflags(write=False)
        return out

    def _check_lengths(self, x, y) -> tuple[BitString | None, BitString]:
        """``x`` and ``y`` as BitStrings of the input and seed lengths; ``x`` may be None."""
        if x is not None:
            x = BitString(x)
            if len(x) != self.input_length:
                raise LengthMismatch(f"input must be {self.input_length} bits, got {len(x)}")
        y = BitString(y)
        if len(y) != self.seed_length:
            raise LengthMismatch(f"seed must be {self.seed_length} bits, got {len(y)}")
        return x, y

    def _check_rows(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """``xs`` and ``ys`` as read-only (c, n) and (c, d) uint8 arrays of 0/1.

        A row is checked as :meth:`_check_lengths` checks one ``x`` or ``y``,
        in place: a uint8 or bool column comes back as a view, not a copy.
        """
        checked = []
        for rows, width, what in ((xs, self.input_length, "input"), (ys, self.seed_length, "seed")):
            rows = np.asarray(rows)
            if rows.ndim != 2:
                raise DimensionMismatch(f"{what}s must be a 2-D array of rows, got {rows.ndim}-D")
            if rows.shape[1] != width:
                raise LengthMismatch(f"{what} must be {width} bits, got {rows.shape[1]}")
            checked.append(_zero_one(rows))
        if len(checked[0]) != len(checked[1]):
            raise DimensionMismatch(f"{len(checked[0])} inputs but {len(checked[1])} seeds")
        return checked[0], checked[1]

    def header_params(self) -> dict[str, int]:
        """Extractor-specific parameters carried in test vector headers."""
        return {}

    @staticmethod
    def create(extractor_type: str, **kwargs) -> "SeededExtractor":
        """Factory over the implemented extractor families.

        ``extractor_type`` is one of "toeplitz", "modified-toeplitz" or
        "trevisan" (underscores accepted).  Toeplitz variants take
        ``input_length`` and ``output_length``; Trevisan additionally
        takes ``one_bit_extractor_seed_length``.
        """
        cls = extractor_class(extractor_type)
        # Trevisan builds its design and one-bit extractor in its own create
        return cls(**kwargs) if cls.create is SeededExtractor.create else cls.create(**kwargs)


def extractor_class(extractor_type: str) -> type[SeededExtractor]:
    """The class of ``extractor_type``, a name as :meth:`SeededExtractor.create` takes it."""
    from .toeplitz import ModifiedToeplitzExtractor, ToeplitzExtractor
    from .trevisan import TrevisanExtractor

    classes = {
        "toeplitz": ToeplitzExtractor,
        "modified-toeplitz": ModifiedToeplitzExtractor,
        "trevisan": TrevisanExtractor,
    }
    kind = extractor_type.replace("_", "-").lower()
    if kind not in classes:
        raise InvalidRange(f"unknown extractor type {extractor_type!r}")
    return classes[kind]
