import pytest

from privamp import validator
from privamp.cli import build_parser, main
from privamp.trevisan import FiniteFieldPolynomialDesign

from conftest import refwrapper_command

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


# -- validate -----------------------------------------------------------------


def test_validate_self_exhaustive(capsys):
    code, out, _ = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", refwrapper_command("toeplitz", 3, 2),
        "--mode", "exhaustive",
    )
    assert code == 0
    assert "128/128" in out


def test_validate_mutant_exit_code_and_analysis(capsys):
    code, out, _ = run(
        capsys,
        "validate", "--type", "modified-toeplitz", "-n", "8", "-m", "4",
        "--command", refwrapper_command("modified-toeplitz", 8, 4, "drop-last-input-bit"),
        "--mode", "random", "--samples", "150", "--rng-seed", "5",
    )
    assert code == 3
    assert "bit 7" in out and "correlation 1.00" in out


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_validate_non_positive_timeout_exits_2(capsys, timeout):
    # a correct implementation must never be reported as failing
    code, out, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", refwrapper_command("toeplitz", 3, 2), "--timeout", timeout,
    )
    assert code == 2
    assert "timeout" in err and "FAIL" not in out


def test_validate_unlaunchable_exits_4(capsys):
    code, _, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", "/does/not/exist $SEED$ $INPUT$",
    )
    assert code == 4
    assert "probe" in err


def test_validate_bad_worker_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PRIVAMP_WORKERS", "four")
    code, _, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", refwrapper_command("toeplitz", 3, 2),
    )
    assert code == 2
    assert "PRIVAMP_WORKERS" in err and "'four'" in err


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


def test_validate_defaults_come_from_the_validator(capsys):
    argv = ["validate", "--type", "toeplitz", "-n", "3", "-m", "2", "--command", "c"]
    args = build_parser().parse_args(argv)
    assert args.exhaustive_cap == validator.DEFAULT_EXHAUSTIVE_CAP
    assert args.timeout == validator.DEFAULT_TIMEOUT
    assert args.workers is None  # validate then reads $PRIVAMP_WORKERS or DEFAULT_WORKERS
    with pytest.raises(SystemExit):
        build_parser().parse_args(["validate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())  # as argparse wraps it
    assert f"$PRIVAMP_WORKERS or {validator.DEFAULT_WORKERS})" in help_text


def test_validate_random_needs_samples(capsys):
    code, _, err = run(
        capsys,
        "validate", "--type", "toeplitz", "-n", "3", "-m", "2",
        "--command", refwrapper_command("toeplitz", 3, 2),
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
