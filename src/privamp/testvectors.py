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
travel as additional "# Key : value" header comments.

A file is held as read-only 0/1 uint8 columns of (c, n) inputs, (c, d)
seeds and (c, m) outputs, so its cases all have one width per field;
a column is hashed by one ``extract_many`` call.  Parsing tiles text laid
out as rendered (CRLF endings and uppercase hex too) with one regular
expression; any other text goes to the line parser, tolerant of comment
lines and blank-line spacing, strict on field names, '=' separators and
hex validity.  Both decode each column at once; only if a column fails
does the line parser go field by field from COUNT 0, to raise for the
first bad line or field.
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
from .extractor import SeededExtractor, extractor_class

SECTION = "EXTRACT"

#: Timestamp line used when generation is deterministic (fixed rng seed).
DETERMINISTIC_TIMESTAMP = "Thu Jan  1 00:00:00 1970"

_FIELD_RE = re.compile(r"^(\w+)\s*=\s*(\S*)\s*$")
_HEADER_KV_RE = re.compile(r"^#\s*([^:]+?)\s*:\s*(.+?)\s*$")
# the strict pass, compiled on first use: comment lines (with none of the other
# breaks that str.splitlines splits at) and blank lines, the section line, the cases
_HEAD = r"(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*\n|\n)*\[(\w+)\]\n"
_REQ_CASE = r"\nCOUNT = (\d+)\nINPUT = ([0-9a-fA-F]*)\nSEED = ([0-9a-fA-F]*)\n"
_RSP_CASE = _REQ_CASE + r"OUTPUT = ([0-9a-fA-F]*)\n"

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
        """The seed length the header implies, by arithmetic alone: no extractor is built.

        A file as wide as its header holds t*t seed and m output bits per case, so
        its Trevisan extractor (m*t design steps, GF(2^(t/2))) is polynomial in its size.
        """
        kind, kwargs = self._create_args()
        return extractor_class(kind)._seed_length_for(**kwargs)

    @functools.cached_property
    def extractor(self) -> SeededExtractor:
        """The extractor this header names, built once; not a field, so not compared."""
        kind, kwargs = self._create_args()
        return SeededExtractor.create(kind, **kwargs)

    def _create_args(self) -> tuple[str, dict]:
        """The :meth:`SeededExtractor.create` kind and keywords this header names."""
        if self.name not in _KINDS:
            raise ParseError(f"unknown extractor name {self.name!r}")
        kind, keywords = _KINDS[self.name]
        params = dict(self.params)
        kwargs = {"input_length": self.input_length, "output_length": self.output_length}
        for key, keyword in keywords.items():
            if key not in params:
                raise ParseError(f"{self.name} header must carry {key!r}")
            try:
                kwargs[keyword] = int(params[key])
            except ValueError:
                raise ParseError(f"invalid {key} {params[key]!r}") from None
        return kind, kwargs


@dataclass(frozen=True)
class Case:
    count: int
    input: BitString
    seed: BitString
    output: BitString | None = None


class TestVectorFile:
    """A test vector file: header comment lines, section name and cases as columns.

    ``columns`` is ``(inputs, seeds, outputs)``: row i of ``inputs`` and
    ``seeds`` is the case numbered COUNT i, and ``outputs`` holds the
    OUTPUT rows, in order, of the cases that ``has_output`` marks (every
    case if None), or is None if no case carries one.  A file with no
    cases holds (0, 0) columns whatever it is given.
    """

    def __init__(self, header, section, columns, extractor_config=None, *, has_output=None):
        self.header = header  # comment lines, without the leading "# "
        self.section, self.extractor_config = section, extractor_config
        if not len(columns[0]):  # no case, no widths
            empty = np.empty((0, 0), dtype=np.uint8)
            columns = (empty, empty, None)
        every = np.full(len(columns[0]), columns[2] is not None)
        self.has_output = every if has_output is None else np.asarray(has_output, dtype=bool)
        self.inputs, self.seeds, self.outputs = columns
        names = ("input", "seed", "output") if extractor_config is not None and len(self.inputs) else ()
        for name, column in zip(names, columns):
            width = getattr(extractor_config, f"{name}_length")
            if column is not None and column.shape[1] != width:
                raise LengthMismatch(f"{name}s are {column.shape[1]} bits, the configuration says {width}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TestVectorFile):
            return NotImplemented
        # by value, every attribute as an array: header, columns and mask alike
        return all(np.array_equal(value, getattr(other, key)) for key, value in vars(self).items())

    @property
    def cases(self) -> list:
        """The cases as :class:`Case` objects, built from the columns on each access."""
        outputs = iter(map(BitString._wrap, () if self.outputs is None else self.outputs))
        return [
            Case(k, BitString._wrap(x), BitString._wrap(y), next(outputs) if present else None)
            for k, (x, y, present) in enumerate(zip(self.inputs, self.seeds, self.has_output))
        ]

    @property
    def kind(self) -> str:
        return "rsp" if self.has_output.size and self.has_output.all() else "req"

    def render(self) -> str:
        head = "".join(f"# {h}\n" if h else "#\n" for h in self.header) + f"\n[{self.section}]\n"
        outputs = iter(() if self.outputs is None else _hex_rows(self.outputs))
        tails = ["OUTPUT = " + next(outputs) + "\n" if p else "" for p in self.has_output.tolist()]
        rows = zip(range(len(tails)), _hex_rows(self.inputs), _hex_rows(self.seeds), tails)
        return head + "".join(f"\nCOUNT = {k}\nINPUT = {x}\nSEED = {y}\n{t}" for k, x, y, t in rows)


def _check_generate(count: int, rng_seed: int | None, kind: str) -> None:
    """The argument checks of :func:`generate_test_vectors`, which need no extractor."""
    if count < 1:
        raise InvalidRange("count must be >= 1")
    if kind not in ("req", "rsp"):
        raise InvalidRange(f"kind must be req or rsp, got {kind!r}")
    if rng_seed is not None and rng_seed < 0:
        raise InvalidRange(f"rng_seed must be >= 0, got {rng_seed}")


def generate_test_vectors(
    ext: SeededExtractor, count: int, rng_seed: int | None = None, kind: str = "rsp"
) -> TestVectorFile:
    """Draw ``count`` uniform (input, seed) cases for ``ext``.

    Response files carry outputs computed by the reference extractor;
    request files are identical minus the OUTPUT lines.  With a fixed
    ``rng_seed`` the result (including the timestamp line) is fully
    deterministic, so regeneration is byte-identical.
    """
    _check_generate(count, rng_seed, kind)
    n, d = ext.input_length, ext.seed_length
    # parameter values live in text headers, so they are carried as strings
    params = tuple((k, str(v)) for k, v in ext.header_params().items())
    config = VectorConfig(ext.vector_name, n, ext.output_length, params)
    vars(config)["extractor"] = ext  # the cached property: ext is not built a second time
    # BitString.random draws its bytes from whole 32-bit words, dropping the
    # rest of the last one: one draw of both widths rounded up to 4 per case
    # gives the bits of the per-case calls, and so does one draw of all cases
    wn, wd = -(-n // 4) * 4, -(-d // 4) * 4
    draw = np.random.default_rng(rng_seed).integers(0, 2, size=(count, wn + wd), dtype=np.uint8)
    draw.setflags(write=False)
    xs, ys = draw[:, :n], draw[:, wn : wn + d]
    outputs = ext.extract_many(xs, ys) if kind == "rsp" else None
    ratio = Fraction(ext.output_length, ext.input_length)
    stamp = DETERMINISTIC_TIMESTAMP if rng_seed is not None else time.asctime()
    header = ["CAVS", ext.vector_name, f"Input Length : {n}"]
    header += [f"Compression ratio: {ratio.numerator}/{ratio.denominator}"]
    header += [f"{k} : {v}" for k, v in params] + [f"Generated on {stamp}"]
    return TestVectorFile(header, SECTION, (xs, ys, outputs), config)


def _config_from_header(header: list) -> VectorConfig | None:
    names = list(dict.fromkeys(h.strip() for h in header if h.strip() in _KINDS))
    if len(names) > 1:
        raise ParseError(f"header names both {names[0]} and {names[1]}")
    name = names[0] if names else None
    values, params = {}, []  # key -> its value, parsed; a key may repeat only with that value
    for h in header:
        kv = _HEADER_KV_RE.match(f"# {h}")
        if not kv or h.strip().startswith("Generated on"):
            continue
        key, value = kv.group(1), kv.group(2)
        try:
            if key in ("Input Length", "Output Length"):
                parsed = int(value)
            elif key == "Compression ratio":
                num, _, den = value.partition("/")
                parsed = Fraction(int(num), int(den))
            else:
                parsed = value
                params.append((key, value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"invalid header value for {key!r}: {value!r} ({exc})") from None
        if values.setdefault(key, parsed) != parsed:
            raise ParseError(f"header {key!r} is given as both {values[key]} and {parsed}")
    n, m, ratio = map(values.get, ("Input Length", "Output Length", "Compression ratio"))
    if name is None or n is None or (m is None and ratio is None):
        return None
    if m is not None and ratio is not None and m != n * ratio:
        raise ParseError(f"Output Length {m} is not the compression ratio {ratio} of {n} bits")
    if m is None:
        exact = n * ratio
        if exact.denominator != 1:
            raise ParseError(f"compression ratio {ratio} of {n} bits is not integral")
        m = int(exact)
    return VectorConfig(name=name, input_length=n, output_length=m, params=tuple(params))


def parse_vector_file(text: str, extractor_config: VectorConfig | None = None) -> TestVectorFile:
    """Parse .req/.rsp text into a TestVectorFile.

    The extractor configuration is taken from ``extractor_config`` when
    given, otherwise recovered from the header comments; it is required
    as soon as the file contains cases, because bit lengths (and hence
    hex padding) cannot be checked without it.  Text laid out as
    :meth:`TestVectorFile.render` writes it, with "\n" or "\r\n" line
    endings and hex of either case, is read in one strict pass; any other
    text, and every error, goes to the line parser.
    """
    # "\r\n" ends one line for the line parser too (str.splitlines)
    strict = text.replace("\r\n", "\n") if "\r" in text else text
    return _parse_strict(strict, extractor_config) or _parse_lines(text, extractor_config)


def _parse_strict(text: str, extractor_config: VectorConfig | None) -> TestVectorFile | None:
    """The file of ``text`` if it is laid out as rendered and valid; None otherwise."""
    if (head := re.match(_HEAD, text)) is None:
        return None
    body = text[head.end() :]
    case_re = re.compile(_RSP_CASE if "OUTPUT" in body else _REQ_CASE)
    # the text around the cases alternates with their fields: all empty iff the cases tile
    pieces, step = case_re.split(body), case_re.groups + 1
    if any(pieces[::step]) or pieces[1::step] != list(map(str, range(len(pieces) // step))):
        return None
    header = [line[1:].strip() for line in text[: head.start(1) - 1].split("\n") if line]
    try:
        config = extractor_config or _config_from_header(header)
        if config is None and len(pieces) > 1:  # cases but no configuration
            return None
        outputs = pieces[4::step] if step == 5 else []
        return _file_from_hex(header, head[1], config, pieces[2::step], pieces[3::step], outputs)
    except PrivampError:
        return None


def _file_from_hex(header, section, config, inputs, seeds, outputs, has_output=None):
    """The file of the hex columns ``inputs``, ``seeds`` and ``outputs``, one decode each."""
    if inputs:  # a file with no case may have no configuration either
        inputs, seeds = _unhex_rows(inputs, config.input_length), _unhex_rows(seeds, config.seed_length)
    outputs = _unhex_rows(outputs, config.output_length) if outputs else None
    return TestVectorFile(header, section, (inputs, seeds, outputs), config, has_output=has_output)


def _parse_lines(text: str, extractor_config: VectorConfig | None) -> TestVectorFile:
    """The file of ``text``, read line by line: raises for its first bad line or field."""
    header, raw_cases, section, current = [], [], None, None  # a raw case: name -> (value, line)
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        match = _FIELD_RE.match(stripped)  # a field line starts with a word character
        if match is None:
            if not stripped:
                continue
            if stripped[0] == "#":
                header.append(stripped[1:].strip())
                continue
            if stripped[0] == "[" and stripped[-1] == "]":
                if section is not None:
                    raise ParseError("multiple sections are not supported", line=line_no)
                section = stripped[1:-1]
                continue
            raise ParseError(f"unrecognized line {stripped!r}", line=line_no)
        name, value = match.groups()
        if section is None:
            raise ParseError(f"field {name} before any [section]", line=line_no)
        if name == "COUNT":
            try:
                current = {"COUNT": (int(value), line_no)}
            except ValueError:
                raise ParseError(f"invalid COUNT value {value!r}", line=line_no) from None
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
    if all(r["COUNT"][0] == i and "INPUT" in r and "SEED" in r for i, r in enumerate(raw_cases)):
        columns = [[r[name][0] for r in raw_cases if name in r] for name in ("INPUT", "SEED", "OUTPUT")]
        try:  # one decode per column
            return _file_from_hex(header, section, config, *columns, ["OUTPUT" in r for r in raw_cases])
        except PrivampError:
            pass  # a column is bad: its first bad field is sought below
    for expected, raw in enumerate(raw_cases):  # field by field, up to the first bad line or field
        count, count_line = raw["COUNT"]
        if count != expected:
            raise ParseError(f"COUNT {count} out of order (expected {expected})", line=count_line)
        for required in ("INPUT", "SEED"):
            if required not in raw:
                raise ParseError(f"COUNT {count} is missing {required}", line=count_line)
        for name in [name for name in ("INPUT", "SEED", "OUTPUT") if name in raw]:
            (value, line_no), length = raw[name], getattr(config, f"{name.lower()}_length")
            try:
                hex_decode(value, length)
            except LengthMismatch as exc:
                raise LengthInconsistency(f"{name}: {exc}", line=line_no) from None
            except PrivampError as exc:
                raise ParseError(f"{name}: {exc}", line=line_no) from None
    raise AssertionError("a column failed to decode but none of its fields did")


@dataclass
class VectorVerification:
    """Per-case pass/fail of recomputing a response file."""

    total: int
    failed_counts: list = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failed_counts

    def summary(self) -> str:
        failed, total = self.failed_counts, self.total
        line = f"{'FAIL' if failed else 'PASS'}: {total - len(failed)}/{total} vectors verified"
        return line + (f"; failing COUNTs: {_first_counts(failed)}" if failed else "")


def _first_counts(counts: list) -> str:
    """The first ten of ``counts``, and how many there are in all if more."""
    shown = ", ".join(map(str, counts[:10]))
    return shown if len(counts) <= 10 else f"{shown}, … ({len(counts)} in all)"


def verify_response_file(ext: SeededExtractor, file: TestVectorFile) -> VectorVerification:
    """Recompute every case of a response file with the reference extractor."""
    missing = np.flatnonzero(~file.has_output).tolist()
    if missing:
        raise MissingOutputs(f"COUNT(s) {_first_counts(missing)} have no OUTPUT (request file?)")
    if not len(file.inputs):  # no columns to hash: an empty file's are (0, 0)
        return VectorVerification(0)
    hashed = ext.extract_many(file.inputs, file.seeds)
    wrong = np.ones(len(hashed), dtype=bool)  # outputs of another width than ext's all fail
    if hashed.shape == np.shape(file.outputs):
        wrong = (hashed != file.outputs).any(axis=1)
    return VectorVerification(len(hashed), np.flatnonzero(wrong).tolist())
