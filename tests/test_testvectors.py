import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamp import (
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
