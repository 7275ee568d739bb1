import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamp import (
    BitString,
    ModifiedToeplitzExtractor,
    SeededExtractor,
    ToeplitzExtractor,
    TrevisanExtractor,
    generate_test_vectors,
    parse_vector_file,
    verify_response_file,
)
from privamp.exceptions import (
    InvalidRange,
    LengthInconsistency,
    MissingOutputs,
    ParseError,
    PrivampError,
)
from privamp.testvectors import DETERMINISTIC_TIMESTAMP, VectorConfig


# -- published golden file ------------------------------------------------


def test_parse_golden_file(golden_rsp_text):
    file = parse_vector_file(golden_rsp_text)
    assert len(file.cases) == 8
    assert file.section == "EXTRACT"
    config = file.extractor_config
    assert config.name == "ModifiedToeplitzHashing"
    assert config.input_length == 128
    assert config.output_length == 64
    assert config.seed_length == 127
    assert [c.count for c in file.cases] == list(range(8))
    assert all(len(c.input) == 128 and len(c.seed) == 127 for c in file.cases)
    assert all(c.output is not None and len(c.output) == 64 for c in file.cases)


def test_verify_golden_file(golden_rsp_text):
    file = parse_vector_file(golden_rsp_text)
    ext = file.extractor_config.extractor
    assert isinstance(ext, ModifiedToeplitzExtractor)
    verification = verify_response_file(ext, file)
    assert verification.passed
    assert verification.total == 8


def test_tampered_golden_file_fails_at_count_3(golden_rsp_text):
    tampered = golden_rsp_text.replace(
        "OUTPUT = 48f041d38296ffcc", "OUTPUT = 48f041d38296ffcd"
    )
    file = parse_vector_file(tampered)
    ext = file.extractor_config.extractor
    verification = verify_response_file(ext, file)
    assert not verification.passed
    assert verification.failed_counts == [3]


# -- generation -------------------------------------------------------------


def extractors_under_test():
    return [
        ToeplitzExtractor(16, 8),
        ModifiedToeplitzExtractor(16, 8),
        TrevisanExtractor.create(input_length=16, output_length=2, one_bit_extractor_seed_length=2),
    ]


@pytest.mark.parametrize("ext", extractors_under_test(), ids=lambda e: e.vector_name)
def test_generate_verify_round_trip(ext):
    file = generate_test_vectors(ext, count=8, rng_seed=123, kind="rsp")
    text = file.render()
    parsed = parse_vector_file(text)
    assert parsed == file
    assert verify_response_file(ext, parsed).passed


@pytest.mark.parametrize("ext", extractors_under_test(), ids=lambda e: e.vector_name)
def test_deterministic_regeneration_is_byte_identical(ext):
    a = generate_test_vectors(ext, count=8, rng_seed=77, kind="rsp").render()
    b = generate_test_vectors(ext, count=8, rng_seed=77, kind="rsp").render()
    assert a == b
    assert DETERMINISTIC_TIMESTAMP in a


def test_generated_header_mirrors_published_layout():
    ext = ModifiedToeplitzExtractor(128, 64)
    text = generate_test_vectors(ext, count=2, rng_seed=5).render()
    head = text.splitlines()[:6]
    assert head[0] == "# CAVS"
    assert head[1] == "# ModifiedToeplitzHashing"
    assert head[2] == "# Input Length : 128"
    assert head[3] == "# Compression ratio: 1/2"
    assert head[4].startswith("# Generated on ")
    assert head[5] == ""
    assert "[EXTRACT]" in text


def test_req_kind_has_no_outputs():
    ext = ToeplitzExtractor(8, 4)
    rsp = generate_test_vectors(ext, count=4, rng_seed=9, kind="rsp")
    req = generate_test_vectors(ext, count=4, rng_seed=9, kind="req")
    assert "OUTPUT" not in req.render()
    assert req.kind == "req" and rsp.kind == "rsp"
    # identical file minus the OUTPUT lines
    stripped = "\n".join(l for l in rsp.render().splitlines() if not l.startswith("OUTPUT"))
    assert stripped == req.render().rstrip("\n")
    with pytest.raises(MissingOutputs):
        verify_response_file(ext, req)


def test_generate_parameter_validation():
    ext = ToeplitzExtractor(8, 4)
    with pytest.raises(InvalidRange):
        generate_test_vectors(ext, count=0)
    with pytest.raises(InvalidRange):
        generate_test_vectors(ext, count=4, kind="rs")


def test_generate_rejects_a_negative_rng_seed_before_drawing(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("bits were drawn"))
    with pytest.raises(InvalidRange, match="rng_seed must be >= 0, got -1"):
        generate_test_vectors(ToeplitzExtractor(8, 4), count=2, rng_seed=-1)


@pytest.mark.parametrize("header", [
    "# CAVS\n# ToeplitzHashing\n# Input Length : 8\n# Compression ratio: 1/2\n\n", ""
], ids=["with-config", "without-config"])
def test_verify_file_without_cases_passes(header):
    file = parse_vector_file(header + "[EXTRACT]\n")
    verification = verify_response_file(ToeplitzExtractor(8, 4), file)
    assert verification.passed and verification.summary() == "PASS: 0/0 vectors verified"


def test_random_files_round_trip():
    rng = np.random.default_rng(2025)
    for trial in range(100):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n))
        kind = "rsp" if trial % 2 else "req"
        ext = (
            ToeplitzExtractor(n, m)
            if trial % 3
            else ModifiedToeplitzExtractor(max(n, 2), min(m, max(n, 2) - 1))
        )
        file = generate_test_vectors(ext, count=int(rng.integers(1, 6)), rng_seed=trial, kind=kind)
        assert parse_vector_file(file.render()) == file


@st.composite
def generated_files(draw):
    """A generated .req or .rsp file of any of the three extractor families."""
    n = draw(st.integers(2, 40))
    family = draw(st.sampled_from(["std", "mod", "trevisan"]))
    if family == "std":
        ext = ToeplitzExtractor(n, draw(st.integers(1, n)))
    elif family == "mod":
        ext = ModifiedToeplitzExtractor(n, draw(st.integers(1, n - 1)))
    else:
        ext = TrevisanExtractor.create(
            input_length=n, output_length=draw(st.integers(1, 4)), one_bit_extractor_seed_length=2
        )
    count = draw(st.integers(1, 5))
    rng_seed = draw(st.integers(0, 2**32 - 1))
    return generate_test_vectors(ext, count, rng_seed, kind=draw(st.sampled_from(["req", "rsp"])))


@settings(max_examples=100, deadline=None)
@given(generated_files())
def test_parse_of_render_is_identity(file):
    assert parse_vector_file(file.render()) == file


@st.composite
def constructed_files(draw):
    """A file the constructor accepts: standard or modified Toeplitz up to n = 40, 0 to 30
    cases with every, no or some OUTPUT, built from ``cases=`` or from ``columns=``."""
    from privamp.testvectors import Case, TestVectorFile

    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        ext = ToeplitzExtractor(n, draw(st.integers(1, n)))
    else:
        ext = ModifiedToeplitzExtractor(n, draw(st.integers(1, n - 1)))
    count, m = draw(st.integers(0, 30)), ext.output_length
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
    ys = rng.integers(0, 2, size=(count, ext.seed_length), dtype=np.uint8)
    has_output = {"rsp": np.ones(count, bool), "req": np.zeros(count, bool),
                  "partial": rng.random(count) < 0.5}[draw(st.sampled_from(["rsp", "req", "partial"]))]
    outputs = rng.integers(0, 2, size=(int(has_output.sum()), m), dtype=np.uint8)
    outputs = outputs if has_output.any() else None  # None when no case carries an OUTPUT
    header = ["CAVS", ext.vector_name, f"Input Length : {n}", f"Output Length : {m}"]
    config = VectorConfig(ext.vector_name, n, m)
    if draw(st.booleans()):
        return TestVectorFile(header, "EXTRACT", extractor_config=config, columns=(xs, ys, outputs),
                              has_output=has_output)
    rows = iter(() if outputs is None else outputs)
    cases = [Case(k, BitString(x), BitString(y), BitString(next(rows)) if present else None)
             for k, (x, y, present) in enumerate(zip(xs, ys, has_output))]
    return TestVectorFile(header, "EXTRACT", cases, config)


@settings(max_examples=150, deadline=None)
@given(constructed_files())
def test_every_constructed_file_reads_back_equal(file):
    assert parse_vector_file(file.render()) == file


_MUTATION_CHARS = "0123456789abcdefgABZ #:=[]/-\n\t\x00é"


@st.composite
def mutations(draw, text):
    """``text`` after one to four character or line edits."""
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "insert", "replace", "drop line", "repeat line"]))
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(_MUTATION_CHARS))
        if op == "delete":
            text = text[:i] + text[i + 1 :]
        elif op == "insert":
            text = text[:i] + c + text[i:]
        elif op == "replace":
            text = text[:i] + c + text[i + 1 :]
        else:
            lines = text.split("\n")
            j = i % len(lines)
            lines[j : j + 1] = [] if op == "drop line" else [lines[j], lines[j]]
            text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_vector_text_raises_only_privamp_errors(golden_rsp_text, data):
    text = data.draw(mutations(golden_rsp_text))
    try:
        file = parse_vector_file(text)
        if file.extractor_config is not None:
            verify_response_file(file.extractor_config.extractor, file)
    except PrivampError:
        pass


# -- parsing edge cases -------------------------------------------------------


def test_empty_section_is_valid():
    file = parse_vector_file("# a comment\n\n[EXTRACT]\n")
    assert file.cases == []
    assert file.section == "EXTRACT"


def test_parse_tolerates_comments_and_spacing(golden_rsp_text):
    noisy = golden_rsp_text.replace(
        "[EXTRACT]", "# extra comment line\n\n\n[EXTRACT]\n# another comment"
    )
    file = parse_vector_file(noisy)
    assert len(file.cases) == 8


def test_wrong_output_hex_length():
    text = (
        "# ToeplitzHashing\n# Input Length : 8\n# Compression ratio: 1/2\n\n"
        "[EXTRACT]\n\nCOUNT = 0\nINPUT = ab\nSEED = 07bc\nOUTPUT = abcd\n"
    )
    with pytest.raises(LengthInconsistency) as err:
        parse_vector_file(text)
    assert err.value.line == 10


def test_unknown_field_reports_line():
    text = "[EXTRACT]\n\nCOUNT = 0\nNOISE = 1\n"
    with pytest.raises(ParseError) as err:
        parse_vector_file(text)
    assert err.value.line == 4


def test_counts_must_be_consecutive():
    text = (
        "# ToeplitzHashing\n# Input Length : 4\n# Compression ratio: 1/2\n\n"
        "[EXTRACT]\n\nCOUNT = 1\nINPUT = 0a\nSEED = 0b\n"
    )
    with pytest.raises(ParseError) as err:
        parse_vector_file(text)
    assert "out of order" in str(err.value)


def test_field_before_section_rejected():
    with pytest.raises(ParseError):
        parse_vector_file("COUNT = 0\n")


def test_file_without_section_rejected_at_last_line():
    with pytest.raises(ParseError, match="no \\[section\\]") as err:
        parse_vector_file("# CAVS\n\n# ToeplitzHashing\n")
    assert err.value.line == 3


@pytest.mark.parametrize("line, output_length", [
    ("# Compression ratio: 1/2\n", 4), ("# Output Length : 3\n", 3),
])
def test_header_gives_output_length(line, output_length):
    file = parse_vector_file(f"# ToeplitzHashing\n# Input Length : 8\n{line}\n[EXTRACT]\n")
    assert file.extractor_config.output_length == output_length


@pytest.mark.parametrize("lines, message", [
    (["# Input Length : 8", "# Compression ratio: 1/2", "# Output Length : 3", "# Input Length : 10"],
     "'Input Length' is given as both 8 and 10"),
    (["# Input Length : 8", "# Compression ratio: 1/2", "# Compression ratio: 3/4"],
     "'Compression ratio' is given as both 1/2 and 3/4"),
    (["# Input Length : 8", "# Output Length : 4", "# Output Length : 3"],
     "'Output Length' is given as both 4 and 3"),
    (["# Input Length : 8", "# Output Length : 4", "# Build : a", "# Build : b"],
     "'Build' is given as both a and b"),
    (["# Input Length : 8", "# Compression ratio: 1/2", "# Output Length : 3"],
     "Output Length 3 is not the compression ratio 1/2 of 8 bits"),
    (["# Input Length : 8", "# Compression ratio: 1/3", "# Output Length : 3"],
     "Output Length 3 is not the compression ratio 1/3 of 8 bits"),
    (["# ModifiedToeplitzHashing", "# Input Length : 8", "# Compression ratio: 1/2"],
     "header names both ToeplitzHashing and ModifiedToeplitzHashing"),
], ids=["input-twice", "ratio-twice", "output-twice", "parameter-twice", "output-not-ratio",
        "output-not-integral-ratio", "two-extractors"])
def test_contradictory_header_rejected(lines, message):
    text = "\n".join(["# ToeplitzHashing", *lines]) + "\n\n[EXTRACT]\n"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_vector_file(text)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_vector_file(text + "\nCOUNT = 0\nINPUT = ab\nSEED = 07bc\n")


def test_repeated_header_values_that_agree_are_accepted():
    lines = ["ToeplitzHashing", "Input Length : 8", "Compression ratio: 1/2", "ToeplitzHashing",
             "Input Length : 8", "Compression ratio: 2/4", "Output Length : 4", "Output Length : 4"]
    text = "".join(f"# {line}\n" for line in lines) + "\n[EXTRACT]\n"
    config = parse_vector_file(text).extractor_config
    assert (config.input_length, config.output_length) == (8, 4)


def test_non_integral_compression_ratio_rejected():
    with pytest.raises(ParseError, match="not integral"):
        parse_vector_file(
            "# ToeplitzHashing\n# Input Length : 8\n# Compression ratio: 1/3\n\n[EXTRACT]\n"
        )


def test_unknown_extractor_name_rejected():
    config = VectorConfig(name="PolynomialOneBitExtractor", input_length=8, output_length=1)
    with pytest.raises(ParseError, match="unknown extractor name"):
        config.extractor


def test_missing_config_with_cases_rejected():
    text = "[EXTRACT]\n\nCOUNT = 0\nINPUT = ab\nSEED = 07bc\n"
    with pytest.raises(ParseError):
        parse_vector_file(text)
    # but an explicit config makes the same text parseable
    config = VectorConfig(name="ToeplitzHashing", input_length=8, output_length=4)
    file = parse_vector_file(text, extractor_config=config)
    assert len(file.cases) == 1


def test_invalid_hex_reports_line():
    text = (
        "# ToeplitzHashing\n# Input Length : 8\n# Compression ratio: 1/2\n\n"
        "[EXTRACT]\n\nCOUNT = 0\nINPUT = zz\nSEED = 07bc\n"
    )
    with pytest.raises(ParseError) as err:
        parse_vector_file(text)
    assert err.value.line == 8


def test_trevisan_header_params_round_trip():
    ext = TrevisanExtractor.create(input_length=16, output_length=2, one_bit_extractor_seed_length=2)
    text = generate_test_vectors(ext, count=3, rng_seed=8).render()
    assert "# One-bit seed length : 2" in text
    parsed = parse_vector_file(text)
    rebuilt = parsed.extractor_config.extractor
    assert isinstance(rebuilt, TrevisanExtractor)
    assert rebuilt.seed_length == 4
    assert verify_response_file(rebuilt, parsed).passed


@pytest.mark.parametrize("line", ["", "# One-bit seed length : two\n"])
def test_trevisan_header_without_integer_seed_length_rejected(line):
    ext = TrevisanExtractor.create(input_length=16, output_length=2, one_bit_extractor_seed_length=2)
    text = generate_test_vectors(ext, count=2, rng_seed=8).render()
    text = text.replace("# One-bit seed length : 2\n", line)
    with pytest.raises(ParseError):
        parse_vector_file(text)


def test_config_name_matches_create_factory():
    for ext in extractors_under_test():
        again = SeededExtractor.create(
            {"ToeplitzHashing": "toeplitz", "ModifiedToeplitzHashing": "modified-toeplitz"}.get(
                ext.vector_name, "trevisan"
            ),
            input_length=ext.input_length,
            output_length=ext.output_length,
            **(
                {"one_bit_extractor_seed_length": ext.one_bit.seed_length}
                if isinstance(ext, TrevisanExtractor)
                else {}
            ),
        )
        assert again.vector_name == ext.vector_name


def test_wall_clock_timestamp_without_rng_seed():
    ext = ToeplitzExtractor(8, 4)
    file = generate_test_vectors(ext, count=1)
    assert any(h.startswith("Generated on ") for h in file.header)
    assert DETERMINISTIC_TIMESTAMP not in file.render()
    assert parse_vector_file(file.render()).extractor_config == file.extractor_config


def test_parser_surfaces_only_package_errors_under_fuzzing(golden_rsp_text):
    # random single-point corruptions must raise package exceptions, never
    # leak bare ValueError/IndexError tracebacks out of the parser
    from privamp.exceptions import PrivampError

    rng = np.random.default_rng(1_000_003)
    alphabet = "01abcdefxyz= #[]\nCOUNTINPUTSEED"
    parsed = crashed = 0
    for _ in range(300):
        text = list(golden_rsp_text)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(text)))
            action = rng.integers(0, 3)
            if action == 0:
                text[pos] = alphabet[int(rng.integers(0, len(alphabet)))]
            elif action == 1:
                del text[pos]
            else:
                text.insert(pos, alphabet[int(rng.integers(0, len(alphabet)))])
        try:
            parse_vector_file("".join(text))
            parsed += 1
        except PrivampError:
            crashed += 1
    assert parsed + crashed == 300
    assert crashed > 0  # corruption is usually caught


# -- column-wise generation, rendering, parsing and verification ---------------

# sha256 of `privamp vectors gen ... --count 1100 --rng-seed 7` (three chunks of cases),
# pinned from the case-by-case implementation
GEN_DIGESTS = {
    ("toeplitz", 13, 5, "rsp"): "d08fd5c23eb4a81fdbebae1f36741573429f9feb93edc18cfabba77b8a8334c2",
    ("toeplitz", 13, 5, "req"): "c686e9be82d06ffcf2055cfc700086b3c11b9aed1680efba4c886111aecff114",
    ("toeplitz", 15, 15, "rsp"): "002999efdd616ad1c581bbe4a1111c48fabf6b03df509f7995e6f4020689e916",
    ("modified-toeplitz", 128, 64, "rsp"): "0f103c92fa0997d5dfd830e6f256dd53b9869697c8624a3262572aa4b8a94d44",
    ("modified-toeplitz", 128, 64, "req"): "7fbecfc8293ce041466e66ba0107b62bae8ee26c9d1401eb25301a4f925a6c09",
    ("modified-toeplitz", 14, 3, "rsp"): "a5f55036ceda7bb6844a4427338d239c27e6b01db7fc88b516a92f33a305e10f",
    ("trevisan", 16, 2, "rsp"): "ece0322783992f9132b2ba2e8ccea28270d112122fd4bfff9fc557594794add8",
    ("trevisan", 16, 2, "req"): "7d56e7004e2e17c655dcdfd0a88746992dd7544353f77695e9571e4414fa5c8a",
}


@pytest.mark.parametrize("kind, n, m, file_kind", sorted(GEN_DIGESTS))
def test_vectors_gen_output_is_pinned(tmp_path, capsys, kind, n, m, file_kind):
    import hashlib

    from privamp.cli import main

    path = tmp_path / "gen.rsp"
    extra = ["--one-bit-seed-length", "2"] if kind == "trevisan" else []
    assert main(["vectors", "gen", "--type", kind, "-n", str(n), "-m", str(m), *extra,
                 "--count", "1100", "--rng-seed", "7", "--kind", file_kind, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_DIGESTS[kind, n, m, file_kind]


@pytest.mark.parametrize("n", [8, 9, 10, 11])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_chunked_draw_equals_per_case_draws(n, m):
    # seed length n+m-1: n and d take every value mod 4 between them
    ext = ToeplitzExtractor(n, m)
    file = generate_test_vectors(ext, count=1030, rng_seed=n * m, kind="req")
    rng = np.random.default_rng(n * m)
    for case in file.cases:
        assert case.input == BitString.random(n, rng)
        assert case.seed == BitString.random(ext.seed_length, rng)


def test_generate_and_verify_hash_through_the_class_extract(monkeypatch):
    # a wrapper on the class attribute (as a tracer installs it) sees every hash
    calls = []
    original = ModifiedToeplitzExtractor.extract

    def counting(self, *args, **kwargs):
        calls.append(args[0].shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ModifiedToeplitzExtractor, "extract", counting)
    ext = ModifiedToeplitzExtractor(128, 64)
    file = generate_test_vectors(ext, count=1500, rng_seed=1)
    assert calls == [(1500, 128)]
    calls.clear()
    assert verify_response_file(ext, file).passed
    assert calls == [(1500, 128)]


def test_verify_reports_wrong_outputs_in_every_chunk():
    from privamp.testvectors import TestVectorFile

    ext = ToeplitzExtractor(13, 5)
    file = parse_vector_file(generate_test_vectors(ext, count=2100, rng_seed=3).render())
    outputs = file.outputs.copy()  # the columns are read-only: tamper with a copy
    for count in (5, 511, 512, 1023, 1024, 2099):
        outputs[count, count % 5] ^= 1
    tampered = TestVectorFile(
        file.header, file.section, extractor_config=file.extractor_config,
        columns=(file.inputs, file.seeds, outputs),
    )
    assert verify_response_file(ext, tampered).failed_counts == [5, 511, 512, 1023, 1024, 2099]


def oracle_parse(text, extractor_config=None):
    """The case-by-case parser: every field decoded alone, in file order."""
    from privamp.bits import hex_decode
    from privamp.exceptions import LengthMismatch
    from privamp.testvectors import _FIELD_RE, Case, TestVectorFile, _config_from_header

    def decode(value, length, line_no, name):
        try:
            return hex_decode(value, length)
        except LengthMismatch as exc:
            raise LengthInconsistency(f"{name}: {exc}", line=line_no) from None
        except PrivampError as exc:
            raise ParseError(f"{name}: {exc}", line=line_no) from None

    header, section, raw_cases, current = [], None, [], None
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
            raise ParseError(f"COUNT {count} out of order (expected {expected_count})", line=count_line)
        for required in ("INPUT", "SEED"):
            if required not in raw:
                raise ParseError(f"COUNT {count} is missing {required}", line=count_line)
        x = decode(raw["INPUT"][0], config.input_length, raw["INPUT"][1], "INPUT")
        if expected_count == 0:  # once, after the first INPUT has matched the declared length
            seed_length = config.seed_length
        y = decode(raw["SEED"][0], seed_length, raw["SEED"][1], "SEED")
        out = None
        if "OUTPUT" in raw:
            out = decode(raw["OUTPUT"][0], config.output_length, raw["OUTPUT"][1], "OUTPUT")
        cases.append(Case(count, x, y, out))
    return TestVectorFile(header=header, section=section, cases=cases, extractor_config=config)


def assert_parse_parity(text):
    """parse_vector_file raises what the oracle raises (class, message, line) or returns its file."""
    try:
        expected = oracle_parse(text)
    except PrivampError as exc:
        with pytest.raises(PrivampError) as got:
            parse_vector_file(text)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        assert getattr(got.value, "line", None) == getattr(exc, "line", None)
    else:
        assert parse_vector_file(text) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_parity_on_mutated_golden_files(golden_rsp_text, data):
    assert_parse_parity(data.draw(mutations(golden_rsp_text)))


@settings(max_examples=100, deadline=None)
@given(generated_files(), st.data())
def test_parse_parity_on_mutated_generated_files(file, data):
    text = file.render()
    assert_parse_parity(text)
    assert_parse_parity(data.draw(mutations(text)))


_MANY_CHUNKS = generate_test_vectors(ModifiedToeplitzExtractor(13, 5), count=1100, rng_seed=2).render()
_NEAR_LAST_CHUNK = _MANY_CHUNKS.index("COUNT = 1020\n")  # the third chunk starts at 1024


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_parse_parity_on_mutations_around_the_chunk_boundary(data):
    head, tail = _MANY_CHUNKS[:_NEAR_LAST_CHUNK], _MANY_CHUNKS[_NEAR_LAST_CHUNK:]
    assert_parse_parity(head + data.draw(mutations(tail)))


def edit_case(text, count, field, edit):
    """``text`` with ``edit(value)`` for ``field`` of case ``count``; edit None drops the line."""
    lines = text.split("\n")
    at = lines.index(f"COUNT = {count}")
    j = next(i for i in range(at, at + 4) if lines[i].startswith(f"{field} = "))
    if edit is None:
        del lines[j]
    else:
        lines[j] = f"{field} = {edit(lines[j].split(' = ')[1])}"
    return "\n".join(lines)


FIELD_EDITS = {
    "input-padding": ("INPUT", lambda v: "f" + v[1:]),
    "seed-padding": ("SEED", lambda v: "f" + v[1:]),
    "output-padding": ("OUTPUT", lambda v: "f" + v[1:]),
    "input-too-long": ("INPUT", lambda v: v + "0"),
    "seed-bad-digit": ("SEED", lambda v: v[:-1] + "g"),
    "output-too-short": ("OUTPUT", lambda v: v[:-1]),
    "input-missing": ("INPUT", None),
    "seed-missing": ("SEED", None),
    "output-missing": ("OUTPUT", None),
    "count-skipped": ("COUNT", lambda v: str(int(v) + 1)),
}


@pytest.mark.parametrize("edit", sorted(FIELD_EDITS))
@pytest.mark.parametrize("count", [0, 511, 512, 1099])
def test_parse_parity_on_each_bad_field_in_each_chunk(count, edit):
    assert_parse_parity(edit_case(_MANY_CHUNKS, count, *FIELD_EDITS[edit]))


@pytest.mark.parametrize("first, second", [
    ("output-padding", "input-padding"), ("seed-bad-digit", "count-skipped"),
    ("output-missing", "seed-padding"),
])
def test_parse_parity_reports_the_first_of_two_bad_fields(first, second):
    text = edit_case(_MANY_CHUNKS, 1030, *FIELD_EDITS[first])
    assert_parse_parity(edit_case(text, 1031, *FIELD_EDITS[second]))


def test_seed_length_is_read_after_the_first_input_matches():
    # a Trevisan header without its seed-length parameter: a bad first INPUT is reported first
    ext = TrevisanExtractor.create(input_length=16, output_length=2, one_bit_extractor_seed_length=2)
    text = generate_test_vectors(ext, count=3, rng_seed=8).render()
    text = text.replace("# One-bit seed length : 2\n", "")
    with pytest.raises(ParseError, match="must carry"):
        parse_vector_file(text)
    first_input = text.index("INPUT = ") + len("INPUT = ")
    bad = text[:first_input] + "zz" + text[first_input + 2 :]
    with pytest.raises(ParseError, match="INPUT: invalid hex"):
        parse_vector_file(bad)
    for case_text in (text, bad):
        assert_parse_parity(case_text)


# -- the strict pass and its fallback ---------------------------------------------


@pytest.fixture
def line_parser_calls(monkeypatch):
    """The texts handed to the line parser while the test runs."""
    from privamp import testvectors

    calls = []
    original = testvectors._parse_lines

    def counting(text, extractor_config):
        calls.append(text)
        return original(text, extractor_config)

    monkeypatch.setattr(testvectors, "_parse_lines", counting)
    return calls


@pytest.mark.parametrize("kind", ["req", "rsp"])
@pytest.mark.parametrize("ext", extractors_under_test(), ids=lambda e: e.vector_name)
def test_rendered_files_parse_in_the_strict_pass(line_parser_calls, ext, kind):
    text = generate_test_vectors(ext, count=600, rng_seed=4, kind=kind).render()
    assert parse_vector_file(text) == oracle_parse(text)
    assert line_parser_calls == []


def test_golden_file_parses_in_the_strict_pass(line_parser_calls, golden_rsp_text):
    assert parse_vector_file(golden_rsp_text) == oracle_parse(golden_rsp_text)
    assert line_parser_calls == []


STRICT_LAYOUTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "uppercase-hex": lambda text: edit_case(text, 2, "INPUT", str.upper),
    "all-uppercase-hex-crlf": lambda text: re.sub(
        r" = [0-9a-f]+\n", lambda m: m[0].upper(), text).replace("\n", "\r\n"),
}


@pytest.mark.parametrize("kind", ["req", "rsp"])
@pytest.mark.parametrize("edit", sorted(STRICT_LAYOUTS))
def test_crlf_and_uppercase_hex_parse_in_the_strict_pass(line_parser_calls, edit, kind):
    ext = ModifiedToeplitzExtractor(13, 5)
    rendered = generate_test_vectors(ext, count=600, rng_seed=6, kind=kind).render()
    text = STRICT_LAYOUTS[edit](rendered)
    assert text != rendered
    parsed = parse_vector_file(text)
    assert line_parser_calls == []
    assert parsed == oracle_parse(text)
    assert parsed.cases == parse_vector_file(rendered).cases


OTHER_LAYOUTS = {
    "comment-between-cases": lambda text: text.replace("\nCOUNT = 3\n", "# a comment\n\nCOUNT = 3\n"),
    "extra-blank-lines": lambda text: text.replace("\nCOUNT = 500\n", "\n\n\nCOUNT = 500\n"),
    "other-spacing": lambda text: text.replace("SEED = ", "SEED=").replace("\n", "  \n"),
}


@pytest.mark.parametrize("kind", ["req", "rsp"])
@pytest.mark.parametrize("edit", sorted(OTHER_LAYOUTS))
def test_other_layouts_take_the_line_parser_once(line_parser_calls, monkeypatch, edit, kind):
    from privamp import testvectors

    # a valid file is decoded a column at a time, never field by field
    monkeypatch.setattr(testvectors, "hex_decode", None)
    ext = ModifiedToeplitzExtractor(13, 5)
    rendered = generate_test_vectors(ext, count=600, rng_seed=6, kind=kind).render()
    text = OTHER_LAYOUTS[edit](rendered)
    assert text != rendered
    parsed = parse_vector_file(text)
    assert line_parser_calls == [text]
    assert parsed == oracle_parse(text)
    assert parsed.cases == parse_vector_file(rendered).cases


@pytest.mark.parametrize("count", [3, 1099])
def test_a_bad_field_is_sought_field_by_field_in_one_chunk_only(monkeypatch, count):
    from privamp import testvectors
    from privamp.bits import hex_decode

    decoded = []

    def counting(value, length):
        decoded.append(value)
        return hex_decode(value, length)

    # a comment between cases keeps the text out of the strict pass
    text = edit_case(_MANY_CHUNKS.replace("\nCOUNT = 1\n", "# c\n\nCOUNT = 1\n"), count, "SEED",
                     lambda v: v[:-1] + "g")
    monkeypatch.setattr(testvectors, "hex_decode", counting)
    with pytest.raises(ParseError) as raised:
        parse_vector_file(text)
    with pytest.raises(ParseError) as expected:
        oracle_parse(text)
    assert (str(raised.value), raised.value.line) == (str(expected.value), expected.value.line)
    assert len(decoded) == 3 * (count % 512) + 2


# -- bounded lists of COUNTs ------------------------------------------------------


def test_missing_outputs_names_the_first_ten_counts_and_the_total(tmp_path, capsys):
    from privamp.cli import main

    path = tmp_path / "big.req"
    ext = ModifiedToeplitzExtractor(128, 64)
    path.write_text(generate_test_vectors(ext, count=10**4, rng_seed=7, kind="req").render())
    assert main(["vectors", "verify", str(path)]) == MissingOutputs.exit_code
    assert capsys.readouterr().err == (
        "error: COUNT(s) 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, … (10000 in all) have no OUTPUT (request file?)\n"
    )
    few = parse_vector_file(edit_case(edit_case(_MANY_CHUNKS, 3, "OUTPUT", None), 1099, "OUTPUT", None))
    with pytest.raises(MissingOutputs, match=r"^COUNT\(s\) 3, 1099 have no OUTPUT"):
        verify_response_file(few.extractor_config.extractor, few)


def test_fail_summary_names_the_first_ten_counts_and_keeps_them_all():
    from privamp.testvectors import TestVectorFile

    ext = ToeplitzExtractor(13, 5)
    file = generate_test_vectors(ext, count=1100, rng_seed=3)
    for wrong in (list(range(1100)), list(range(0, 1100, 110))):
        outputs = file.outputs.copy()
        outputs[wrong, 0] ^= 1
        tampered = TestVectorFile(
            file.header, file.section, extractor_config=file.extractor_config,
            columns=(file.inputs, file.seeds, outputs),
        )
        verification = verify_response_file(ext, tampered)
        assert verification.failed_counts == wrong
        shown = ", ".join(map(str, wrong[:10]))
        more = ", … (1100 in all)" if len(wrong) > 10 else ""
        assert verification.summary() == (
            f"FAIL: {1100 - len(wrong)}/1100 vectors verified; failing COUNTs: {shown}{more}"
        )


# -- the column model -----------------------------------------------------------


def test_partial_outputs_round_trip_with_a_mask():
    text = edit_case(_MANY_CHUNKS, 700, "OUTPUT", None)
    file = parse_vector_file(text)
    assert file.kind == "req"
    assert file.render() == text and file == oracle_parse(text)
    assert file.cases[700].output is None and file.cases[701].output is not None


def test_a_case_list_is_numbered_by_its_rows():
    # COUNT is the row: a file of Case(5, ...) would verify and render, then fail to parse
    from privamp.testvectors import Case, TestVectorFile

    ext, x, y = ToeplitzExtractor(4, 2), BitString("0101"), BitString("11011")
    case = Case(5, x, y, ext.extract(x, y))
    with pytest.raises(InvalidRange, match=r"^COUNTs must run 0, 1, \.\.\., got 5$"):
        TestVectorFile(["CAVS"], "EXTRACT", [case])
    with pytest.raises(InvalidRange, match=r"got 0, 2$"):
        TestVectorFile(["CAVS"], "EXTRACT", [Case(0, x, y), Case(2, x, y)])
    file = TestVectorFile(["CAVS"], "EXTRACT", [Case(0, x, y), Case(1, x, y)])
    assert [c.count for c in file.cases] == [0, 1] and not hasattr(file, "counts")


def test_cases_of_different_widths_cannot_make_a_file():
    from privamp.exceptions import LengthMismatch
    from privamp.testvectors import Case, TestVectorFile

    cases = [Case(0, BitString("0101"), BitString("11")), Case(1, BitString("010"), BitString("11"))]
    with pytest.raises(LengthMismatch):
        TestVectorFile(["CAVS"], "EXTRACT", cases)


def test_a_file_is_as_wide_as_its_configuration():
    # such a file would render, but its text would not parse
    from privamp.exceptions import LengthMismatch
    from privamp.testvectors import Case, TestVectorFile

    case = Case(0, BitString.zeros(8), BitString.zeros(7))
    with pytest.raises(LengthMismatch, match="^inputs are 8 bits, the configuration says 128$"):
        TestVectorFile(["CAVS"], "EXTRACT", [case], VectorConfig("ModifiedToeplitzHashing", 128, 64))
    config = VectorConfig("ToeplitzHashing", 8, 4)  # seeds of 8 + 4 - 1 bits
    xs, ys, outputs = (np.zeros((2, width), np.uint8) for width in (8, 11, 4))
    for columns, message in [((xs[:, 1:], ys, outputs), "inputs are 7 bits"),
                             ((xs, ys[:, 1:], outputs), "seeds are 10 bits"),
                             ((xs, ys, outputs[:, 1:]), "outputs are 3 bits")]:
        with pytest.raises(LengthMismatch, match=f"^{message}, the configuration says"):
            TestVectorFile(["CAVS"], "EXTRACT", extractor_config=config, columns=columns)
    file = TestVectorFile(["CAVS"], "EXTRACT", extractor_config=config, columns=(xs, ys, outputs))
    assert parse_vector_file(file.render(), config) == file


def test_a_trevisan_file_is_generated_with_one_design_build(monkeypatch):
    # the header's configuration is handed the extractor, not left to build it again
    from privamp.trevisan import FiniteFieldPolynomialDesign

    builds, init = [], FiniteFieldPolynomialDesign.__init__

    def counted(self, m, t):
        builds.append((m, t))
        init(self, m, t)

    monkeypatch.setattr(FiniteFieldPolynomialDesign, "__init__", counted)
    ext = TrevisanExtractor.create(input_length=16, output_length=2, one_bit_extractor_seed_length=2)
    file = generate_test_vectors(ext, count=4, rng_seed=1)
    assert file.extractor_config.seed_length == ext.seed_length
    assert builds == [(2, 2)] and file.extractor_config.extractor is ext
