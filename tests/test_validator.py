import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from privamp import (
    BitString,
    ImplementationAdapter,
    ModifiedToeplitzExtractor,
    ToeplitzExtractor,
    Validator,
)
from privamp.exceptions import (
    AdapterConfigError,
    DuplicateLabel,
    InvalidRange,
    NoFailures,
    ProbeFailed,
)

from conftest import refwrapper_command


# -- adapter configuration ------------------------------------------------


def test_adapter_rejects_missing_serializer():
    with pytest.raises(AdapterConfigError):
        ImplementationAdapter(
            label="x",
            command="./impl $SEED$ $INPUT$",
            serializers={"$SEED$": "binary-string"},  # $INPUT$ uncovered
        )


def test_adapter_rejects_repeated_placeholder():
    with pytest.raises(AdapterConfigError):
        ImplementationAdapter(
            label="x",
            command="./impl $INPUT$ $INPUT$",
            serializers={"$INPUT$": "binary-string"},
        )


def test_adapter_rejects_unknown_method_and_formats():
    with pytest.raises(AdapterConfigError):
        ImplementationAdapter(label="x", command="./impl", serializers={}, input_method="zmq")
    with pytest.raises(AdapterConfigError):
        ImplementationAdapter(label="x", command="./impl", serializers={}, output_parser="utf8")
    with pytest.raises(AdapterConfigError):
        ImplementationAdapter(
            label="x",
            command="./impl $INPUT$",
            serializers={"$INPUT$": "base64"},
        )


def test_adapter_files_mode_needs_output():
    with pytest.raises(AdapterConfigError):
        ImplementationAdapter(
            label="x",
            command="./impl $SEED$ $INPUT$",
            serializers={"$SEED$": "hex", "$INPUT$": "hex"},
            input_method="files",
        )


def test_adapter_stdio_mode_rejects_output_placeholder():
    with pytest.raises(AdapterConfigError, match="files mode"):
        ImplementationAdapter(
            label="x",
            command="./impl $SEED$ $INPUT$ $OUTPUT$",
            serializers={"$SEED$": "hex", "$INPUT$": "hex"},
        )


def test_adapter_stdio_mode_rejects_output_path():
    # stdio mode parses stdout; a path it would never read is a configuration error
    with pytest.raises(AdapterConfigError, match="output_path"):
        ImplementationAdapter(
            label="x",
            command="./impl $SEED$ $INPUT$",
            serializers={"$SEED$": "hex", "$INPUT$": "hex"},
            output_path="/nonexistent/out",
        )


# -- registration and probing ----------------------------------------------


def make_validator(ext, mutation="none", fmt="binary-string", probe=True):
    validator = Validator(ext)
    kind = "toeplitz" if isinstance(ext, ToeplitzExtractor) else "modified-toeplitz"
    command = refwrapper_command(kind, ext.input_length, ext.output_length, mutation)
    if fmt == "hex":
        command = command.replace("$SEED$", "--format hex $SEED$")
    validator.add_implementation(
        label=f"refwrapper-{mutation}",
        command=command,
        serializers={"$INPUT$": fmt, "$SEED$": fmt},
        output_parser=fmt,
        probe=probe,
    )
    return validator


def test_probe_accepts_reference_wrapper():
    make_validator(ToeplitzExtractor(3, 2))  # would raise ProbeFailed


def test_probe_rejects_unlaunchable_command():
    validator = Validator(ToeplitzExtractor(3, 2))
    with pytest.raises(ProbeFailed):
        validator.add_implementation(
            label="missing",
            command="/nonexistent/binary $SEED$ $INPUT$",
            serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        )


def test_probe_rejects_unparseable_output():
    validator = Validator(ToeplitzExtractor(3, 2))
    with pytest.raises(ProbeFailed):
        validator.add_implementation(
            label="noise",
            command=f"{sys.executable} -S -c print('hello') $SEED$ $INPUT$".replace(
                "print('hello')", '"print(42)"'
            ),
            serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        )


def test_duplicate_label_rejected():
    validator = make_validator(ToeplitzExtractor(3, 2))
    adapter = next(iter(validator.implementations.values()))
    with pytest.raises(DuplicateLabel):
        validator.add_implementation(adapter)


# -- validation -------------------------------------------------------------


def test_exhaustive_self_validation_passes():
    validator = make_validator(ToeplitzExtractor(3, 2))
    report = validator.validate(mode="exhaustive")
    assert report.total == 2**3 * 2**4
    assert report.passed and report.n_failed == 0 and report.n_crashed == 0


def test_compiled_stand_in_agrees_with_library(thirdparty_bin):
    # the C target used by the heavy acceptance runs must track the library
    from conftest import thirdparty_command

    for kind, ext in (
        ("toeplitz", ToeplitzExtractor(3, 2)),
        ("modified-toeplitz", ModifiedToeplitzExtractor(4, 2)),
    ):
        validator = Validator(ext)
        validator.add_implementation(
            label="c-stand-in",
            command=thirdparty_command(thirdparty_bin, kind, ext.input_length, ext.output_length),
            serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        )
        assert validator.validate(mode="exhaustive").passed


def test_exhaustive_hex_adapter_round_trip():
    validator = make_validator(ModifiedToeplitzExtractor(3, 2), fmt="hex")
    report = validator.validate(mode="exhaustive", workers=8)
    assert report.total == 2**3 * 2**2
    assert report.passed


def test_exhaustive_cap_enforced():
    validator = make_validator(ToeplitzExtractor(3, 2))
    validator.exhaustive_cap = 5
    with pytest.raises(InvalidRange):
        validator.validate(mode="exhaustive")


@pytest.mark.parametrize("timeout", [0, -1, float("nan")])
def test_validate_rejects_non_positive_timeout(timeout):
    validator = make_validator(ToeplitzExtractor(3, 2))
    with pytest.raises(InvalidRange, match="timeout"):
        validator.validate(timeout=timeout)


def test_random_mode_needs_sample_size():
    validator = make_validator(ToeplitzExtractor(3, 2))
    with pytest.raises(InvalidRange):
        validator.validate(mode="random")
    with pytest.raises(InvalidRange):
        validator.validate(mode="bogus")


def test_drop_last_bit_mutant_detected_and_analyzed():
    ext = ModifiedToeplitzExtractor(8, 4)
    validator = make_validator(ext, mutation="drop-last-input-bit")
    report = validator.validate(mode="random", sample_size=300, rng_seed=99)
    assert 0.35 <= report.failure_fraction <= 0.65
    assert all(case.input[-1] == 1 for case in report.failed)
    diagnosis = validator.analyze_failed_test(report)
    assert diagnosis.flagged_input_bits == [7]
    assert diagnosis.input_bit_correlations[7] == 1.0
    assert "bit 7" in diagnosis.summary


def test_seed_reversal_mutant_matches_convention_oracle():
    # count mismatching (x, y) pairs by brute force over both conventions
    ext = ToeplitzExtractor(3, 2)
    validator = make_validator(ext, mutation="reverse-seed")
    report = validator.validate(mode="exhaustive")
    expected_failures = 0
    for xv in range(1 << 3):
        x = BitString.from_int(xv, 3)
        for yv in range(1 << 4):
            y = BitString.from_int(yv, 4)
            reversed_y = BitString(y.bits[::-1])
            if ext.extract(x, y) != ext.extract(x, reversed_y):
                expected_failures += 1
    assert report.n_failed == expected_failures
    assert expected_failures > 0


def test_random_mode_reproducible():
    ext = ModifiedToeplitzExtractor(8, 4)
    validator = make_validator(ext, mutation="drop-last-input-bit")
    r1 = validator.validate(mode="random", sample_size=60, rng_seed=7, workers=4)
    r2 = validator.validate(mode="random", sample_size=60, rng_seed=7, workers=2)
    assert [c.index for c in r1.failed] == [c.index for c in r2.failed]
    assert [(c.input, c.seed) for c in r1.failed] == [(c.input, c.seed) for c in r2.failed]
    assert r1.rng_seed == 7


def test_crashed_cases_recorded_not_fatal():
    validator = Validator(ToeplitzExtractor(2, 1))
    validator.add_implementation(
        label="crasher",
        command=f"{sys.executable} -S -c import_sys_and_die $SEED$ $INPUT$".replace(
            "import_sys_and_die", '"raise SystemExit(3)"'
        ),
        serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        probe=False,
    )
    report = validator.validate(mode="exhaustive")
    assert report.total == 2**2 * 2**2
    assert report.n_failed == report.total
    assert report.n_crashed == report.total
    assert all(case.error and "exit code 3" in case.error for case in report.failed)
    assert not report.passed


def test_per_case_timeout():
    validator = Validator(ToeplitzExtractor(2, 1))
    validator.add_implementation(
        label="sleeper",
        command=f"{sys.executable} -S -c sleeper $SEED$ $INPUT$".replace(
            "sleeper", '"import time; time.sleep(60)"'
        ),
        serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        probe=False,
    )
    report = validator.validate(mode="random", sample_size=2, rng_seed=0, timeout=0.5)
    assert report.n_crashed == 2
    assert all("timed out" in case.error for case in report.failed)


def test_timeout_kills_the_whole_process_group(tmp_path):
    # the shell's background job outlives the shell unless its group is killed
    marker = tmp_path / "grandchild-survived"
    validator = Validator(ToeplitzExtractor(2, 1))
    validator.add_implementation(
        label="forker",
        command=f'sh -c "(sleep 1; touch {marker}) & wait" $SEED$ $INPUT$',
        serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        probe=False,
    )
    started = time.monotonic()
    report = validator.validate(mode="random", sample_size=1, rng_seed=0, timeout=0.3, workers=1)
    assert report.n_crashed == 1 and "timed out" in report.failed[0].error
    time.sleep(max(0.0, started + 2.0 - time.monotonic()))
    assert not marker.exists()


def test_clean_exit_kills_background_jobs(tmp_path):
    # the shell exits at once and passes the case; its job must not outlive it
    marker = tmp_path / "background-job-survived"
    adapter = ImplementationAdapter(
        label="background",
        command=f'sh -c "(sleep 1; touch {marker}) >/dev/null 2>&1 & echo 0"',
        serializers={},
    )
    started = time.monotonic()
    out = adapter.run_case(BitString("01"), BitString("1"), 1, timeout=5.0)
    assert out == BitString("0")
    time.sleep(max(0.0, started + 1.5 - time.monotonic()))
    assert not marker.exists()


def test_files_mode_round_trip(tmp_path):
    script = tmp_path / "files_wrapper.sh"
    import privamp.refwrapper

    script.write_text(
        "#!/bin/sh\n"
        f'exec {sys.executable} -S {privamp.refwrapper.__file__} '
        '--type modified-toeplitz -n 3 -m 1 "$(cat "$1")" "$(cat "$2")" > "$3"\n'
    )
    script.chmod(0o755)
    ext = ModifiedToeplitzExtractor(3, 1)
    validator = Validator(ext)
    validator.add_implementation(
        label="files",
        command=f"{script} $SEED$ $INPUT$ $OUTPUT$",
        serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        input_method="files",
    )
    report = validator.validate(mode="exhaustive")
    assert report.total == 2**3 * 2**2
    assert report.passed


# -- failure analysis ---------------------------------------------------------


def test_analyze_requires_failures():
    validator = make_validator(ToeplitzExtractor(3, 2))
    report = validator.validate(mode="exhaustive")
    with pytest.raises(NoFailures):
        validator.analyze_failed_test(report)


def test_stuck_output_bit_concentrates_histogram():
    # mutant: output bit 2 perturbed by xor with input bit 0 (flip-entry 2,0)
    ext = ToeplitzExtractor(3, 3)
    validator = make_validator(ext, mutation="flip-entry:2,0")
    report = validator.validate(mode="exhaustive")
    diagnosis = validator.analyze_failed_test(report)
    hist = diagnosis.differing_bit_positions
    assert hist[2] > 0
    assert hist[0] == hist[1] == 0


def test_all_zero_failures_do_not_flag_bits():
    # hand-built report: a handful of failures, all on the all-zero input;
    # with few failures the 4/sqrt(f) threshold exceeds the 0.5 deviation
    from privamp.validator import FailedCase, ValidationReport

    ext = ToeplitzExtractor(4, 2)
    cases = [
        FailedCase(i, BitString.zeros(4), BitString.from_int(i, 5), BitString.zeros(2), BitString("01"))
        for i in range(5)
    ]
    report = ValidationReport(
        label="x", mode="random", total=50, rng_seed=0, failed=cases, n_failed=5
    )
    validator = Validator(ext)
    diagnosis = validator.analyze_failed_test(report)
    assert diagnosis.flagged_input_bits == []
    assert np.allclose(diagnosis.input_bit_correlations, 0.0)


def test_failure_cap_limits_stored_cases():
    ext = ToeplitzExtractor(3, 2)
    validator = make_validator(ext, mutation="reverse-seed")
    validator.failure_cap = 5
    report = validator.validate(mode="exhaustive")
    assert len(report.failed) == 5
    assert report.n_failed > 5  # full count still reported


def test_files_mode_with_fixed_output_path(tmp_path):
    script = tmp_path / "files_wrapper_fixed.sh"
    out_path = tmp_path / "result.txt"
    import privamp.refwrapper

    script.write_text(
        "#!/bin/sh\n"
        f'exec {sys.executable} -S {privamp.refwrapper.__file__} '
        f'--type modified-toeplitz -n 3 -m 1 "$(cat "$1")" "$(cat "$2")" > {out_path}\n'
    )
    script.chmod(0o755)
    validator = Validator(ModifiedToeplitzExtractor(3, 1))
    validator.add_implementation(
        label="files-fixed",
        command=f"{script} $SEED$ $INPUT$",
        serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        input_method="files",
        output_path=str(out_path),
    )
    report = validator.validate(mode="exhaustive", workers=8)  # forced to 1 worker
    assert report.total == 32 and report.passed


def test_label_resolution_with_multiple_implementations():
    validator = Validator(ToeplitzExtractor(3, 2))
    for label, mutation in (("good", "none"), ("bad", "reverse-seed")):
        command = refwrapper_command("toeplitz", 3, 2, mutation)
        validator.add_implementation(
            label=label,
            command=command,
            serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
            probe=False,
        )
    with pytest.raises(InvalidRange):
        validator.validate(mode="random", sample_size=1, rng_seed=0)  # ambiguous
    with pytest.raises(InvalidRange):
        validator.validate(mode="random", sample_size=1, rng_seed=0, label="missing")
    report = validator.validate(mode="random", sample_size=10, rng_seed=0, label="good")
    assert report.passed and report.label == "good"


def test_worker_count_env_default(monkeypatch):
    from privamp.validator import WORKERS_ENV

    monkeypatch.setenv(WORKERS_ENV, "2")
    validator = make_validator(ToeplitzExtractor(2, 1), probe=False)
    report = validator.validate(mode="random", sample_size=4, rng_seed=0)
    assert report.total == 4 and report.passed


def test_validate_queues_at_most_one_chunk(monkeypatch):
    from privamp import validator as validator_module

    chunk = validator_module._CHUNK
    assert chunk >= 1024
    pools = []

    class CountingPool(ThreadPoolExecutor):
        """Counts cases submitted and not yet finished, and their peak."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.lock, self.outstanding, self.peak = threading.Lock(), 0, 0
            pools.append(self)

        def submit(self, fn, /, *args, **kwargs):
            def counted():
                try:
                    return fn(*args, **kwargs)
                finally:  # before the future resolves, so before map yields it
                    with self.lock:
                        self.outstanding -= 1

            with self.lock:
                self.outstanding += 1
                self.peak = max(self.peak, self.outstanding)
            return super().submit(counted)

    ext = ToeplitzExtractor(3, 2)
    monkeypatch.setattr(validator_module, "ThreadPoolExecutor", CountingPool)
    # in-process cases: the pool, not process launches, is under test
    monkeypatch.setattr(ImplementationAdapter, "run_case", lambda self, x, y, m, t: ext.extract(x, y))
    validator = make_validator(ext, probe=False)
    report = validator.validate(mode="random", sample_size=3 * chunk + 1, rng_seed=0, workers=2)
    assert report.total == 3 * chunk + 1 and report.passed
    assert len(pools) == 1 and 0 < pools[0].peak <= chunk
