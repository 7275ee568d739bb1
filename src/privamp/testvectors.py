"""CAVP-style request/response test vector files.

File format (bit-exact): "\n" line endings; header comment lines start
with "# "; one blank line before the "[EXTRACT]" section marker and
between blocks; fields as "NAME = value" with single spaces; hex is
lowercase with MSB-first left-zero-padded encoding.  A response (.rsp)
file carries OUTPUT lines, a request (.req) file does not.

    # CAVS
    # ModifiedToeplitzHashing
    # Input Length : 128
    # Compression ratio: 1/2
    # Generated on ...

    [EXTRACT]

    COUNT = 0
    INPUT = e3fc...
    SEED = 05f4...
    OUTPUT = ab26...

Extractor-specific parameters (e.g. the Trevisan one-bit seed length)
travel as additional "# Key : value" header comments.  The parser is
tolerant of arbitrary comment lines and blank-line spacing, and strict
on field names, '=' separators and hex validity.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .bits import BitString, hex_decode
from .exceptions import (
    InvalidRange,
    LengthInconsistency,
    LengthMismatch,
    MissingOutputs,
    ParseError,
    PrivampError,
)
from .extractor import SeededExtractor

SECTION = "EXTRACT"

#: Timestamp line used when generation is deterministic (fixed rng seed).
DETERMINISTIC_TIMESTAMP = "Thu Jan  1 00:00:00 1970"

_FIELD_RE = re.compile(r"^(\w+)\s*=\s*(\S*)\s*$")
_HEADER_KV_RE = re.compile(r"^#\s*([^:]+?)\s*:\s*(.+?)\s*$")

#: vector_name -> (SeededExtractor.create kind, {header parameter: create keyword})
_KINDS = {
    "ToeplitzHashing": ("toeplitz", {}),
    "ModifiedToeplitzHashing": ("modified-toeplitz", {}),
    "TrevisanExtractor": ("trevisan", {"One-bit seed length": "one_bit_extractor_seed_length"}),
}


@dataclass(frozen=True)
class VectorConfig:
    """Extractor identity carried by a test vector file header."""

    name: str
    input_length: int
    output_length: int
    params: tuple = ()  # extra (key, value) header parameters

    @property
    def seed_length(self) -> int:
        return self.extractor.seed_length

    @functools.cached_property
    def extractor(self) -> SeededExtractor:
        """The extractor this header names, built once; not a field, so not compared."""
        if self.name not in _KINDS:
            raise ParseError(f"unknown extractor name {self.name!r}")
        kind, keywords = _KINDS[self.name]
        params = dict(self.params)
        kwargs = {}
        for key, keyword in keywords.items():
            if key not in params:
                raise ParseError(f"{self.name} header must carry {key!r}")
            try:
                kwargs[keyword] = int(params[key])
            except ValueError:
                raise ParseError(f"invalid {key} {params[key]!r}") from None
        return SeededExtractor.create(
            kind, input_length=self.input_length, output_length=self.output_length, **kwargs
        )


def config_for(ext: SeededExtractor) -> VectorConfig:
    # parameter values live in text headers, so they are carried as strings
    return VectorConfig(
        name=ext.vector_name,
        input_length=ext.input_length,
        output_length=ext.output_length,
        params=tuple((k, str(v)) for k, v in ext.header_params().items()),
    )


@dataclass
class Case:
    count: int
    input: BitString
    seed: BitString
    output: BitString | None = None


@dataclass
class TestVectorFile:
    header: list  # comment lines, without the leading "# "
    section: str
    cases: list
    extractor_config: VectorConfig | None = None

    @property
    def kind(self) -> str:
        return "rsp" if self.cases and all(c.output is not None for c in self.cases) else "req"

    def render(self) -> str:
        lines = [f"# {h}" if h else "#" for h in self.header]
        lines += ["", f"[{self.section}]"]
        for case in self.cases:
            lines += ["", f"COUNT = {case.count}"]
            lines.append(f"INPUT = {case.input.to_hex()}")
            lines.append(f"SEED = {case.seed.to_hex()}")
            if case.output is not None:
                lines.append(f"OUTPUT = {case.output.to_hex()}")
        return "\n".join(lines) + "\n"


def generate_test_vectors(
    ext: SeededExtractor,
    count: int,
    rng_seed: int | None = None,
    kind: str = "rsp",
) -> TestVectorFile:
    """Draw ``count`` uniform (input, seed) cases for ``ext``.

    Response files carry outputs computed by the reference extractor;
    request files are identical minus the OUTPUT lines.  With a fixed
    ``rng_seed`` the result (including the timestamp line) is fully
    deterministic, so regeneration is byte-identical.
    """
    if count < 1:
        raise InvalidRange("count must be >= 1")
    if kind not in ("req", "rsp"):
        raise InvalidRange(f"kind must be req or rsp, got {kind!r}")
    config = config_for(ext)
    rng = np.random.default_rng(rng_seed)
    cases = []
    for i in range(count):
        x = BitString.random(ext.input_length, rng)
        y = BitString.random(ext.seed_length, rng)
        out = ext.extract(x, y) if kind == "rsp" else None
        cases.append(Case(i, x, y, out))
    ratio = Fraction(ext.output_length, ext.input_length)
    stamp = DETERMINISTIC_TIMESTAMP if rng_seed is not None else time.asctime()
    header = [
        "CAVS",
        ext.vector_name,
        f"Input Length : {ext.input_length}",
        f"Compression ratio: {ratio.numerator}/{ratio.denominator}",
    ]
    header += [f"{k} : {v}" for k, v in config.params]
    header.append(f"Generated on {stamp}")
    return TestVectorFile(header=header, section=SECTION, cases=cases, extractor_config=config)


def _config_from_header(header: list) -> VectorConfig | None:
    name = next((h.strip() for h in header if h.strip() in _KINDS), None)
    n = m = None
    ratio = None
    params = []
    for h in header:
        if h.strip().startswith("Generated on"):
            continue
        kv = _HEADER_KV_RE.match(f"# {h}")
        if not kv:
            continue
        key, value = kv.group(1), kv.group(2)
        try:
            if key == "Input Length":
                n = int(value)
            elif key == "Compression ratio":
                num, _, den = value.partition("/")
                ratio = Fraction(int(num), int(den))
            elif key == "Output Length":
                m = int(value)
            else:
                params.append((key, value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"invalid header value for {key!r}: {value!r} ({exc})") from None
    if name is None or n is None:
        return None
    if m is None and ratio is not None:
        exact = n * ratio
        if exact.denominator != 1:
            raise ParseError(f"compression ratio {ratio} of {n} bits is not integral")
        m = int(exact)
    if m is None:
        return None
    return VectorConfig(name=name, input_length=n, output_length=m, params=tuple(params))


def _decode_field(value: str, length: int, line_no: int, name: str) -> BitString:
    try:
        return hex_decode(value, length)
    except LengthMismatch as exc:
        raise LengthInconsistency(f"{name}: {exc}", line=line_no) from None
    except PrivampError as exc:
        raise ParseError(f"{name}: {exc}", line=line_no) from None


def parse_vector_file(text: str, extractor_config: VectorConfig | None = None) -> TestVectorFile:
    """Parse .req/.rsp text into a TestVectorFile.

    The extractor configuration is taken from ``extractor_config`` when
    given, otherwise recovered from the header comments; it is required
    as soon as the file contains cases, because bit lengths (and hence
    hex padding) cannot be checked without it.
    """
    header: list = []
    section = None
    raw_cases = []  # (count, fields dict name -> (value, line))
    current = None

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            header.append(stripped[1:].strip())
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            if section is not None:
                raise ParseError("multiple sections are not supported", line=line_no)
            section = stripped[1:-1]
            continue
        match = _FIELD_RE.match(stripped)
        if not match:
            raise ParseError(f"unrecognized line {stripped!r}", line=line_no)
        name, value = match.group(1), match.group(2)
        if section is None:
            raise ParseError(f"field {name} before any [section]", line=line_no)
        if name == "COUNT":
            try:
                count = int(value)
            except ValueError:
                raise ParseError(f"invalid COUNT value {value!r}", line=line_no) from None
            current = {"COUNT": (count, line_no)}
            raw_cases.append(current)
        elif name in ("INPUT", "SEED", "OUTPUT"):
            if current is None:
                raise ParseError(f"{name} before any COUNT", line=line_no)
            if name in current:
                raise ParseError(f"duplicate {name} in COUNT {current['COUNT'][0]}", line=line_no)
            current[name] = (value, line_no)
        else:
            raise ParseError(f"unknown field {name!r}", line=line_no)

    if section is None:
        raise ParseError("no [section] marker found", line=len(text.splitlines()) or 1)

    config = extractor_config or _config_from_header(header)
    if raw_cases and config is None:
        raise ParseError("extractor configuration not found in header")

    cases = []
    for expected_count, raw in enumerate(raw_cases):
        count, count_line = raw["COUNT"]
        if count != expected_count:
            raise ParseError(
                f"COUNT {count} out of order (expected {expected_count})", line=count_line
            )
        for required in ("INPUT", "SEED"):
            if required not in raw:
                raise ParseError(f"COUNT {count} is missing {required}", line=count_line)
        x = _decode_field(raw["INPUT"][0], config.input_length, raw["INPUT"][1], "INPUT")
        if expected_count == 0:
            # once per file, and only after an INPUT has matched the declared length
            seed_length = config.seed_length
        y = _decode_field(raw["SEED"][0], seed_length, raw["SEED"][1], "SEED")
        out = None
        if "OUTPUT" in raw:
            out = _decode_field(raw["OUTPUT"][0], config.output_length, raw["OUTPUT"][1], "OUTPUT")
        cases.append(Case(count, x, y, out))

    return TestVectorFile(header=header, section=section, cases=cases, extractor_config=config)


@dataclass
class VectorVerification:
    """Per-case pass/fail of recomputing a response file."""

    total: int
    failed_counts: list = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failed_counts

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        line = f"{state}: {self.total - len(self.failed_counts)}/{self.total} vectors verified"
        if self.failed_counts:
            line += f"; failing COUNTs: {', '.join(map(str, self.failed_counts))}"
        return line


def verify_response_file(ext: SeededExtractor, file: TestVectorFile) -> VectorVerification:
    """Recompute every case of a response file with the reference extractor."""
    missing = [c.count for c in file.cases if c.output is None]
    if missing:
        raise MissingOutputs(f"COUNT(s) {missing} have no OUTPUT (request file?)")
    verification = VectorVerification(total=len(file.cases))
    for case in file.cases:
        if ext.extract(case.input, case.seed) != case.output:
            verification.failed_counts.append(case.count)
    return verification
