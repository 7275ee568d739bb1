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

Generation, rendering, parsing and verification work column-wise on
chunks of 512 cases: one random draw, one hex encode or decode per
field and one ``extract_many`` per chunk.  The hex codec is
:mod:`privamp.bits`'s, the one behind ``hex_encode`` and ``hex_decode``.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .bits import BitString, _hex_rows, _unhex_rows, hex_decode
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

#: Cases drawn, encoded, decoded and hashed together: 1024 would hold the
#: spectra of twice as many cases at once, and raise peak RSS by ~1 MiB
_CHUNK = 512

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
        for lo in range(0, len(self.cases), _CHUNK):
            chunk = self.cases[lo : lo + _CHUNK]
            inputs = _hex_column([c.input for c in chunk])
            seeds = _hex_column([c.seed for c in chunk])
            outputs = iter(_hex_column([c.output for c in chunk if c.output is not None]))
            for case, x, y in zip(chunk, inputs, seeds):
                lines += ["", f"COUNT = {case.count}", f"INPUT = {x}", f"SEED = {y}"]
                if case.output is not None:
                    lines.append(f"OUTPUT = {next(outputs)}")
        return "\n".join(lines) + "\n"


def _rows(values: list, width: int) -> np.ndarray | None:
    """The bits of the BitStrings ``values`` as one (c, width) array; None unless all are ``width`` bits."""
    if any(len(v) != width for v in values):
        return None
    return np.stack([v.bits for v in values]) if values else np.empty((0, width), dtype=np.uint8)


def _hex_column(values: list) -> list[str]:
    """``v.to_hex()`` of each BitString ``v`` of ``values``: one :func:`_hex_rows` if all have one length."""
    rows = _rows(values, len(values[0]) if values else 0)
    return [v.to_hex() for v in values] if rows is None else _hex_rows(rows)


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
    n, d = ext.input_length, ext.seed_length
    # BitString.random draws its bytes from whole 32-bit words, dropping the
    # rest of the last one: one draw of both widths rounded up to 4 per case
    # gives the bits of the per-case calls
    wn, wd = -(-n // 4) * 4, -(-d // 4) * 4
    rng = np.random.default_rng(rng_seed)
    cases = []
    for lo in range(0, count, _CHUNK):
        c = min(_CHUNK, count - lo)
        draw = rng.integers(0, 2, size=(c, wn + wd), dtype=np.uint8)
        draw.setflags(write=False)
        xs, ys = draw[:, :n], draw[:, wn : wn + d]
        outs = map(BitString._wrap, ext.extract_many(xs, ys)) if kind == "rsp" else [None] * c
        cases += [
            Case(lo + i, BitString._wrap(x), BitString._wrap(y), out)
            for i, (x, y, out) in enumerate(zip(xs, ys, outs))
        ]
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


def _decode_columns(chunk: list, lo: int, config: VectorConfig) -> list | None:
    """The cases of ``chunk`` (COUNT ``lo`` on) by one decode per field; None if any is bad."""
    for count, raw in enumerate(chunk, start=lo):
        if raw["COUNT"][0] != count or "INPUT" not in raw or "SEED" not in raw:
            return None
    try:
        xs = _unhex_rows([raw["INPUT"][0] for raw in chunk], config.input_length)
        # read only once the inputs have matched the declared length
        ys = _unhex_rows([raw["SEED"][0] for raw in chunk], config.seed_length)
        outs = [raw["OUTPUT"][0] for raw in chunk if "OUTPUT" in raw]
        outs = iter(_unhex_rows(outs, config.output_length))
    except PrivampError:
        return None
    return [
        Case(count, BitString._wrap(x), BitString._wrap(y),
             BitString._wrap(next(outs)) if "OUTPUT" in raw else None)
        for count, (raw, x, y) in enumerate(zip(chunk, xs, ys), start=lo)
    ]


def _decode_cases(chunk: list, lo: int, config: VectorConfig) -> list:
    """The cases of ``chunk`` field by field, in file order: raises for the first bad field."""
    cases = []
    for expected_count, raw in enumerate(chunk, start=lo):
        count, count_line = raw["COUNT"]
        if count != expected_count:
            raise ParseError(
                f"COUNT {count} out of order (expected {expected_count})", line=count_line
            )
        for required in ("INPUT", "SEED"):
            if required not in raw:
                raise ParseError(f"COUNT {count} is missing {required}", line=count_line)
        x = _decode_field(raw["INPUT"][0], config.input_length, raw["INPUT"][1], "INPUT")
        # read only once an INPUT has matched the declared length
        y = _decode_field(raw["SEED"][0], config.seed_length, raw["SEED"][1], "SEED")
        out = None
        if "OUTPUT" in raw:
            out = _decode_field(raw["OUTPUT"][0], config.output_length, raw["OUTPUT"][1], "OUTPUT")
        cases.append(Case(count, x, y, out))
    return cases


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
    for lo in range(0, len(raw_cases), _CHUNK):
        chunk = raw_cases[lo : lo + _CHUNK]
        decoded = _decode_columns(chunk, lo, config)
        cases += _decode_cases(chunk, lo, config) if decoded is None else decoded
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
    widths = (ext.input_length, ext.seed_length, ext.output_length)
    for lo in range(0, len(file.cases), _CHUNK):
        chunk = file.cases[lo : lo + _CHUNK]
        xs, ys, outs = (
            _rows([getattr(c, f) for c in chunk], w) for f, w in zip(("input", "seed", "output"), widths)
        )
        if xs is None or ys is None or outs is None:  # a hand-built file: as extract checks one case
            wrong = [ext.extract(c.input, c.seed) != c.output for c in chunk]
        else:
            wrong = (ext.extract_many(xs, ys) != outs).any(axis=1)
        verification.failed_counts += [c.count for c, bad in zip(chunk, wrong) if bad]
    return verification
