import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import privamp
from privamp import toeplitz, trevisan, validator
from privamp.cli import build_parser, main
from privamp.fields import GaloisField
from privamp.trevisan import FiniteFieldPolynomialDesign

from conftest import thirdparty_command

GOLDEN_INPUT = "e3fc097a6dcc77fc781a7ed3533528c8"
GOLDEN_SEED = "05f47ea39db462da99e3e29b06721ae6"
GOLDEN_OUTPUT = "ab264a34f8ebc27c"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- extract ------------------------------------------------------------------


def test_extract_golden_count0(capsys):
    code, out, _ = run(
        capsys,
        "extract", "--type", "modified-toeplitz", "-n", "128", "-m", "64",
        "--input", GOLDEN_INPUT, "--seed", GOLDEN_SEED,
    )
    assert code == 0
    assert out.strip() == GOLDEN_OUTPUT


def test_extract_zero_input_file(capsys, tmp_path):
    path = tmp_path / "input.hex"
    path.write_text("00" * 16 + "\n")
    code, out, _ = run(
        capsys,
        "extract", "--type", "modified-toeplitz", "-n", "128", "-m", "64",
        "--input", f"@{path}", "--seed", GOLDEN_SEED,
    )
    assert code == 0
    assert out.strip() == "0" * 16


def test_extract_wrong_seed_length(capsys):
    code, _, err = run(
        capsys,
        "extract", "--type", "modified-toeplitz", "-n", "128", "-m", "64",
        "--input", GOLDEN_INPUT, "--seed", "aabb",
    )
    assert code == 1
    assert "127 bits" in err
    assert err == "error: seed: expected 32 hex chars for 127 bits, got 4\n"  # the codec's message


def test_extract_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "out.hex"
    code, out, _ = run(
        capsys,
        "extract", "--type", "modified-toeplitz", "-n", "128", "-m", "64",
        "--input", GOLDEN_INPUT, "--seed", GOLDEN_SEED, "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert out_path.read_text().strip() == GOLDEN_OUTPUT


def test_extract_trevisan(capsys):
    code, out, _ = run(
        capsys,
        "extract", "--type", "trevisan", "-n", "16", "-m", "2",
        "--one-bit-seed-length", "2", "--input", "ffff", "--seed", "0f",
    )
    assert code == 0
    assert len(out.strip()) == 2  # 2 bits -> 1 byte -> 2 hex chars


def test_extract_trevisan_needs_t(capsys):
    code, _, err = run(
        capsys,
        "extract", "--type", "trevisan", "-n", "16", "-m", "2",
        "--input", "ffff", "--seed", "0f",
    )
    assert code == 2
    assert "one-bit-seed-length" in err


def golden_extract(capsys):
    return run(
        capsys,
        "extract", "--type", "modified-toeplitz", "-n", "128", "-m", "64",
        "--input", GOLDEN_INPUT, "--seed", GOLDEN_SEED,
    )


def test_extract_fails_loudly_when_the_workspace_does_not_fit(capsys, monkeypatch):
    monkeypatch.setattr(toeplitz, "_BLOCK", 4)  # 128 -> 64 in blocks of 4 bits: partitioned
    monkeypatch.setattr(toeplitz, "_available_memory", lambda: 1000)
    code, out, err = golden_extract(capsys)
    assert code == 1 and out == ""
    assert re.fullmatch(r"error: the FFT workspace needs \d+ bytes, 1000 are available\n", err)
    monkeypatch.setattr(toeplitz, "_available_memory", lambda: None)
    assert golden_extract(capsys)[:2] == (0, GOLDEN_OUTPUT + "\n")


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 2.00 GiB for an array", "error: Unable to allocate 2.00 GiB for an array"),
    ("", "error: out of memory"),
])
def test_extract_reports_a_memory_error_in_one_line(capsys, monkeypatch, message, line):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(np.fft, "rfft", no_memory)
    assert golden_extract(capsys) == (1, "", line + "\n")


# -- params -------------------------------------------------------------------


def test_params_large_case(capsys):
    code, out, _ = run(
        capsys,
        "params", "--type", "toeplitz", "-n", "8388608", "--entropy", "0.5",
        "--error", "1e-6",
    )
    assert code == 0
    assert out.strip() == "4194266"


def test_params_trivial_case(capsys):
    code, out, _ = run(
        capsys,
        "params", "--type", "toeplitz", "-n", "10", "--entropy", "1.0", "--error", "0.5",
    )
    assert code == 0
    assert out.strip() == "10"


@pytest.mark.parametrize("kind, expected", [("toeplitz", "128"), ("modified-toeplitz", "127")])
def test_params_capped_per_variant(capsys, kind, expected):
    # the bound allows m = n; the modified variant needs m < n
    code, out, _ = run(
        capsys, "params", "--type", kind, "-n", "128", "--entropy", "1", "--error", "0.5"
    )
    assert code == 0
    assert out.strip() == expected


def test_params_range_error(capsys):
    code, _, err = run(
        capsys,
        "params", "--type", "toeplitz", "-n", "10", "--entropy", "1.0", "--error", "2.0",
    )
    assert code == 2
    assert "error" in err


def test_params_trevisan(capsys):
    code, out, _ = run(
        capsys,
        "params", "--type", "trevisan", "-n", "65536", "--entropy", "0.8",
        "--error", "1e-6", "--one-bit-seed-length", "64",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert int(lines[0]) > 0
    assert any("seed length: 4096" in l for l in lines)


def test_params_trevisan_needs_t(capsys):
    code, _, err = run(
        capsys,
        "params", "--type", "trevisan", "-n", "65536", "--entropy", "0.8", "--error", "1e-6",
    )
    assert code == 2
    assert "--one-bit-seed-length" in err


@pytest.mark.parametrize("argv", [
    ["extract", "-m", "32", "--input", "00" * 8, "--seed", "00" * 12],
    ["params", "--entropy", "0.5", "--error", "1e-3"],
    ["validate", "-m", "32", "--command", "true $SEED$ $INPUT$"],
    ["vectors", "gen", "-m", "32"],
], ids=["extract", "params", "validate", "vectors-gen"])
def test_one_bit_seed_length_refused_for_toeplitz(capsys, argv):
    code, out, err = run(
        capsys, *argv, "--type", "toeplitz", "-n", "64", "--one-bit-seed-length", "6"
    )
    assert code == 2 and out == ""
    assert "--one-bit-seed-length is for trevisan only" in err


# -- validate -----------------------------------------------------------------


def test_validate_self_exhaustive(thirdparty_bin, capsys):
    code, out, _ = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", thirdparty_command(thirdparty_bin, "toeplitz", 3, 2),
        "--mode", "exhaustive",
    )
    assert code == 0
    assert "128/128" in out


def test_validate_mutant_exit_code_and_analysis(thirdparty_bin, capsys):
    code, out, _ = run(
        capsys,
        "validate", "--type", "modified-toeplitz", "-n", "8", "-m", "4",
        "--command", thirdparty_command(thirdparty_bin, "modified-toeplitz", 8, 4, "drop-last-input-bit"),
        "--mode", "random", "--samples", "150", "--rng-seed", "5",
    )
    assert code == 3
    assert "bit 7" in out and "correlation 1.00" in out


def test_validate_without_a_seed_prints_the_seed_it_drew(thirdparty_bin, capsys):
    code, out, _ = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", thirdparty_command(thirdparty_bin, "toeplitz", 3, 2),
        "--mode", "random", "--samples", "4",
    )
    assert code == 0
    assert re.search(r"4/4 cases agree \(random mode, rng_seed=\d+, ", out)


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_validate_non_positive_timeout_exits_2(thirdparty_bin, capsys, timeout):
    # a correct implementation must never be reported as failing
    code, out, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", thirdparty_command(thirdparty_bin, "toeplitz", 3, 2), "--timeout", timeout,
    )
    assert code == 2
    assert "timeout" in err and "FAIL" not in out


@pytest.mark.parametrize("timeout", ["inf", "1e9"])
def test_validate_timeout_above_ceiling_exits_2(thirdparty_bin, capsys, timeout):
    # poll() cannot wait longer than 2**31-1 ms
    code, out, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", thirdparty_command(thirdparty_bin, "toeplitz", 3, 2), "--timeout", timeout,
    )
    assert code == 2
    assert "timeout" in err and "FAIL" not in out


def test_validate_non_utf8_stderr_passes(thirdparty_bin, capsys):
    inner = thirdparty_command(thirdparty_bin, "toeplitz", 2, 1)
    code, out, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "2", "-m", "1",
        "--command", f"""sh -c 'printf "\\377" >&2; exec "$0" "$@"' {inner}""",
        "--mode", "random", "--samples", "2", "--rng-seed", "0",
    )
    assert code == 0 and out.startswith("PASS") and not err


def test_validate_non_utf8_stdout_is_a_crashed_case(capsys):
    # the all-zero probe gets the right answer, every other input one byte that is not UTF-8
    code, out, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "2", "-m", "1",
        "--command", r"""sh -c 'if [ "$2" = 00 ]; then echo 0; else printf "\377"; fi' sh $SEED$ $INPUT$""",
        "--mode", "random", "--samples", "8", "--rng-seed", "0",
    )
    assert code == 3 and "case(s) crashed" in out
    assert "Traceback" not in err


def test_validate_unlaunchable_exits_4(capsys):
    code, _, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", "/does/not/exist $SEED$ $INPUT$",
    )
    assert code == 4
    assert "probe" in err


@pytest.mark.parametrize("args, message", [
    (["--timeout", "0"], "timeout must lie in"),
    (["--mode", "random", "--samples", "4", "--rng-seed", "-1"], "rng_seed must be >= 0"),
    (["--mode", "random"], "random mode needs sample_size"),
    (["--mode", "random", "--samples", "0"], "random mode needs sample_size"),
    (["--exhaustive-cap", "6"], "exhaustive mode needs input+seed <= 6"),
    (["--workers", "0"], "workers must be >= 1, got 0"),
    (["--workers", "-3"], "workers must be >= 1, got -3"),
], ids=["timeout", "rng-seed", "no-samples", "zero-samples", "exhaustive-cap", "zero-workers",
        "negative-workers"])
def test_validate_argument_errors_exit_2_before_the_probe(capsys, args, message):
    # the probe would sleep 2 s: a bad argument must be reported without launching it
    started = time.perf_counter()
    code, out, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", "sh -c 'sleep 2; echo 00' $SEED$ $INPUT$", *args,
    )
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "") and message in err


def test_validate_probe_waits_at_most_the_timeout(capsys):
    # the all-zero probe sleeps 3 s: it times out after --timeout, not after the default 30 s
    started = time.perf_counter()
    code, out, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", "sh -c 'sleep 3; echo 00' $SEED$ $INPUT$", "--timeout", "0.5",
        "--mode", "random", "--samples", "2", "--rng-seed", "0",
    )
    assert time.perf_counter() - started < 2
    assert (code, out) == (4, "") and "timed out after 0.5 s" in err


# -- vectors ------------------------------------------------------------------


def test_vectors_verify_golden(capsys, golden_rsp_path):
    code, out, _ = run(capsys, "vectors", "verify", str(golden_rsp_path))
    assert code == 0
    assert "8/8" in out


def test_vectors_gen_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "vectors.rsp"
    code, _, _ = run(
        capsys,
        "vectors", "gen", "--type", "toeplitz", "-n", "16", "-m", "8",
        "--count", "6", "--rng-seed", "3", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "vectors", "verify", str(path))
    assert code == 0
    assert "6/6" in out


def test_vectors_verify_trevisan_builds_the_design_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "trevisan.rsp"
    code, _, _ = run(
        capsys,
        "vectors", "gen", "--type", "trevisan", "-n", "16", "-m", "3",
        "--one-bit-seed-length", "4", "--count", "4", "--rng-seed", "5", "--out", str(path),
    )
    assert code == 0
    builds = 0
    original = FiniteFieldPolynomialDesign.__init__

    def counted(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(FiniteFieldPolynomialDesign, "__init__", counted)
    code, out, _ = run(capsys, "vectors", "verify", str(path))
    assert code == 0 and "4/4" in out
    assert builds == 1


# a 16 -> 1 Trevisan response file as ``vectors gen ... --rng-seed 1`` writes it at t = 4
TREVISAN_RSP = (
    "# CAVS\n# TrevisanExtractor\n# Input Length : 16\n# Compression ratio: {ratio}\n"
    "# One-bit seed length : {t}\n# Generated on Thu Jan  1 00:00:00 1970\n\n[EXTRACT]\n\n"
    "COUNT = 0\nINPUT = cd5d\nSEED = aebf\nOUTPUT = 00\n"
)


@pytest.mark.parametrize("ratio, t, code, message", [
    ("1/16", 4, 0, ""),
    ("1/16", 4096, 2, "line 12: SEED: expected 4194304 hex chars for 16777216 bits, got 4"),
    ("1048576/16", 64, 2, "line 12: SEED: expected 1024 hex chars for 4096 bits, got 4"),
    ("1/16", 6, 2, "6 is not a prime power"),
], ids=["as-generated", "t4096", "m2^20", "t6"])
def test_vectors_verify_checks_header_widths_before_building(capsys, tmp_path, monkeypatch, ratio, t,
                                                             code, message):
    # a header alone could ask for GF(2^2048) or a design of 2^20 sets
    path = tmp_path / "trevisan.rsp"
    path.write_text(TREVISAN_RSP.format(ratio=ratio, t=t))
    built = []  # GF is cached, so the fields the extractor asks for are recorded too
    monkeypatch.setattr(trevisan, "GF", lambda order, GF=trevisan.GF: built.append(order) or GF(order))
    for cls in (GaloisField, FiniteFieldPolynomialDesign):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__:
                            built.append(args) or init(self, *args))
    started = time.perf_counter()
    assert run(capsys, "vectors", "verify", str(path))[::2] == (code, message and f"error: {message}\n")
    assert time.perf_counter() - started < 1.0
    if code:
        assert built == []
    else:  # the design over GF(4) and the one-bit field GF(2^2)
        assert (1, 4) in built and 4 in built


@pytest.mark.parametrize("argv, code, message", [
    (["extract", "-n", "1000000", "-m", "100000", "--one-bit-seed-length", "64", "--input", "00", "--seed", "00"],
     1, "input: expected 250000 hex chars for 1000000 bits, got 2"),
    (["extract", "-n", "16", "-m", "100000000", "--one-bit-seed-length", "64", "--input", "0000", "--seed", "00"],
     1, "seed: expected 1024 hex chars for 4096 bits, got 2"),
    (["validate", "-n", "16384", "-m", "8000", "--one-bit-seed-length", "128", "--command", "true",
      "--timeout", "0"], 2, "timeout must lie in (0, 2147483] s, got 0.0"),
    (["vectors", "gen", "-n", "16384", "-m", "8000", "--one-bit-seed-length", "128", "--count", "0"],
     2, "count must be >= 1"),
], ids=["extract-short-input", "extract-short-seed", "validate-timeout-0", "vectors-gen-count-0"])
def test_cli_checks_arguments_and_widths_before_building(capsys, monkeypatch, argv, code, message):
    # each shape's design takes seconds: the widths come from the shape rule, and every argument
    # is checked before the extractor is built.  A spy stops a build at once, so a regression
    # fails fast instead of building a design of up to 10^8 sets
    built = []

    def spy(*args):
        built.append(args[-1])
        raise AssertionError(f"built {args[-1]!r} before checking the arguments")

    monkeypatch.setattr(trevisan, "GF", spy)
    for cls in (GaloisField, FiniteFieldPolynomialDesign):
        monkeypatch.setattr(cls, "__init__", spy)
    started = time.perf_counter()
    assert run(capsys, *argv, "--type", "trevisan")[::2] == (code, f"error: {message}\n")
    assert time.perf_counter() - started < 1.0
    assert built == []


def test_vectors_verify_refuses_more_sets_than_t_to_the_t_at_parse(capsys, tmp_path):
    # m = 5 > t**t = 4: the shape rule refuses the header before the SEED width is checked
    path = tmp_path / "trevisan.rsp"
    path.write_text(TREVISAN_RSP.format(ratio="5/16", t=2))
    assert run(capsys, "vectors", "verify", str(path))[::2] == (2, "error: m = 5 exceeds the sanity cap t**t = 4\n")


def test_vectors_verify_tampered_lists_counts(capsys, tmp_path, golden_rsp_text):
    path = tmp_path / "tampered.rsp"
    path.write_text(
        golden_rsp_text.replace("OUTPUT = 16b0ed99752aa43a", "OUTPUT = 16b0ed99752aa43b")
    )
    code, out, _ = run(capsys, "vectors", "verify", str(path))
    assert code == 3
    assert "COUNT" in out and "4" in out


def test_vectors_verify_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.rsp"
    path.write_text("[EXTRACT]\n\nCOUNT = 0\nGARBAGE\n")
    code, _, err = run(capsys, "vectors", "verify", str(path))
    assert code == 2
    assert "line 4" in err


def test_vectors_verify_of_a_missing_file_exits_2(capsys, tmp_path):
    path = tmp_path / "missing.rsp"
    code, out, err = run(capsys, "vectors", "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_vectors_verify_file_without_config_exits_2(capsys, tmp_path):
    path = tmp_path / "bare.rsp"
    path.write_text("[EXTRACT]\n")
    code, _, err = run(capsys, "vectors", "verify", str(path))
    assert code == 2
    assert "extractor configuration" in err


def test_vectors_gen_to_stdout(capsys):
    code, out, _ = run(
        capsys,
        "vectors", "gen", "--type", "modified-toeplitz", "-n", "16", "-m", "8",
        "--count", "2", "--rng-seed", "1", "--kind", "req",
    )
    assert code == 0
    assert out.startswith("# CAVS")
    assert "OUTPUT" not in out


@pytest.mark.parametrize("command", [
    ["vectors", "gen", "--type", "toeplitz", "-n", "8", "-m", "4", "--count", "2"],
    ["validate", "--type", "toeplitz", "-n", "3", "-m", "2", "--command", "{stand_in}",
     "--mode", "random", "--samples", "4"],
], ids=["vectors-gen", "validate"])
def test_negative_rng_seed_exits_2(thirdparty_bin, capsys, command):
    stand_in = thirdparty_command(thirdparty_bin, "toeplitz", 3, 2)
    argv = [arg.format(stand_in=stand_in) for arg in command] + ["--rng-seed", "-5"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: rng_seed must be >= 0, got -5\n")


def test_vectors_verify_file_without_cases_passes(capsys, tmp_path):
    path = tmp_path / "empty.rsp"
    path.write_text("# CAVS\n# ToeplitzHashing\n# Input Length : 8\n# Compression ratio: 1/2\n\n[EXTRACT]\n")
    code, out, err = run(capsys, "vectors", "verify", str(path))
    assert (code, out, err) == (0, "PASS: 0/0 vectors verified\n", "")


def test_vectors_verify_golden_file_with_a_byte_order_mark(capsys, tmp_path, golden_rsp_path):
    path = tmp_path / "bom.rsp"
    path.write_bytes(b"\xef\xbb\xbf" + golden_rsp_path.read_bytes())
    code, out, _ = run(capsys, "vectors", "verify", str(path))
    assert (code, out) == (0, "PASS: 8/8 vectors verified\n")


def test_extract_input_file_with_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "input.hex"
    path.write_bytes(b"\xef\xbb\xbf" + GOLDEN_INPUT.encode() + b"\r\n")
    code, out, _ = run(
        capsys,
        "extract", "--type", "modified-toeplitz", "-n", "128", "-m", "64",
        "--input", f"@{path}", "--seed", GOLDEN_SEED,
    )
    assert (code, out) == (0, GOLDEN_OUTPUT + "\n")


def test_non_utf8_byte_after_a_byte_order_mark_is_placed_in_the_file(capsys, tmp_path):
    path = tmp_path / "bom.rsp"
    path.write_bytes(b"\xef\xbb\xbf# CAVS \xff\n")
    code, _, err = run(capsys, "vectors", "verify", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: not utf-8 text") and "at byte 10" in err


def test_vectors_verify_non_ascii_comment_is_read_as_utf8(capsys, tmp_path, golden_rsp_text):
    # independent of the locale's encoding
    path = tmp_path / "comment.rsp"
    path.write_bytes(("# Schlüssel\n" + golden_rsp_text).encode("utf-8"))
    result = subprocess.run(
        [sys.executable, "-m", "privamp", "vectors", "verify", str(path)],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(privamp.__file__)),
                 PYTHONUTF8="0", LC_ALL="C"),
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "PASS: 8/8 vectors verified\n"), result.stderr


def test_validate_defaults_come_from_the_validator(capsys):
    argv = ["validate", "--type", "toeplitz", "-n", "3", "-m", "2", "--command", "c"]
    args = build_parser().parse_args(argv)
    assert args.exhaustive_cap == validator.DEFAULT_EXHAUSTIVE_CAP
    assert args.timeout == validator.DEFAULT_TIMEOUT
    assert args.workers is None  # validate then runs DEFAULT_WORKERS
    with pytest.raises(SystemExit):
        build_parser().parse_args(["validate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())  # as argparse wraps it
    assert f"concurrent cases (default: {validator.DEFAULT_WORKERS})" in help_text


def test_validate_random_needs_samples(thirdparty_bin, capsys):
    code, _, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", thirdparty_command(thirdparty_bin, "toeplitz", 3, 2),
        "--mode", "random",
    )
    assert code == 2
    assert "sample_size" in err


def test_vectors_verify_request_file_exits_2(capsys, tmp_path):
    path = tmp_path / "r.req"
    code, _, _ = run(
        capsys,
        "vectors", "gen", "--type", "toeplitz", "-n", "8", "-m", "4",
        "--count", "2", "--rng-seed", "1", "--kind", "req", "--out", str(path),
    )
    assert code == 0
    code, _, err = run(capsys, "vectors", "verify", str(path))
    assert code == 2
    assert "OUTPUT" in err


def test_extract_invalid_hex_exits_2(capsys):
    code, _, err = run(
        capsys,
        "extract", "--type", "modified-toeplitz", "-n", "128", "-m", "64",
        "--input", "zz" + "00" * 15, "--seed", GOLDEN_SEED,
    )
    assert code == 2
    assert "hex" in err


@pytest.mark.parametrize("command", [
    ["vectors", "verify", "{path}"],
    ["extract", "--type", "toeplitz", "-n", "8", "-m", "4", "--input", "@{path}", "--seed", "00"],
], ids=["vectors-verify", "extract-input-file"])
def test_non_utf8_file_exits_2(capsys, tmp_path, command):
    path = tmp_path / "binary.rsp"
    path.write_bytes(b"\xff\xfe00")
    code, _, err = run(capsys, *(arg.format(path=path) for arg in command))
    assert code == 2
    assert err.startswith(f"error: {path}: not ") and "at byte 0" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["params", "--type", "trevisan", "-n", "64", "--entropy", "0.5", "--error", "1e-3",
      "--one-bit-seed-length", "6"], "prime power"),
    (["params", "--type", "trevisan", "-n", "64", "--entropy", "0.1", "--error", "1e-3",
      "--one-bit-seed-length", "4"], "entropy too low"),
    (["extract", "--type", "trevisan", "-n", "8", "-m", "5", "--one-bit-seed-length", "2",
      "--input", "00", "--seed", "0"], "sanity cap"),
    (["validate", "--type", "toeplitz", "-n", "3", "-m", "2",
      "--command", thirdparty_command("thirdparty", "toeplitz", 3, 2) + " $OUTPUT$"], "files mode only"),
    (["validate", "--type", "toeplitz", "-n", "3", "-m", "2",
      "--command", "python3 'oops $SEED$ $INPUT$"], "No closing quotation"),
    (["validate", "--type", "toeplitz", "-n", "3", "-m", "2", "--command", ""], "command is empty"),
    (["extract", "--type", "modified-toeplitz", "-n", "3", "-m", "2",
      "--input", "0f", "--seed", "0"], "padding"),
], ids=["NotPrimePower", "NoFeasibleOutput", "TooManySets", "AdapterConfigError",
        "AdapterConfigError-unbalanced-quote", "AdapterConfigError-empty-command", "NonZeroPadding"])
def test_argument_errors_exit_2(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in err


def test_cli_import_leaves_mpmath_unloaded():
    src = os.path.dirname(os.path.dirname(privamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, privamp.cli; print('mpmath' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert result.stdout.strip() == "False", result.stderr


def test_cli_import_leaves_numpy_random_unloaded():
    # as mpmath above: its first import adds ~10-15 ms to every command's start-up
    src = os.path.dirname(os.path.dirname(privamp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, privamp.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert result.stdout.strip() == "False", result.stderr
