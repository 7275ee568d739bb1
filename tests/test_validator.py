import os
import subprocess
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
    AdapterCrashed,
    DuplicateLabel,
    InvalidRange,
    NoFailures,
    ProbeFailed,
)

from conftest import thirdparty_command


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


@pytest.mark.parametrize("command, message", [
    ("python3 'oops $SEED$ $INPUT$", "No closing quotation"),
    ("", "command is empty"),
    ("  \t ", "command is empty"),
], ids=["unbalanced-quote", "empty", "blank"])
def test_adapter_rejects_a_command_that_does_not_split(command, message):
    with pytest.raises(AdapterConfigError, match=message):
        ImplementationAdapter(
            label="x", command=command, serializers={"$SEED$": "hex", "$INPUT$": "hex"}
        )


def test_adapter_substitutes_into_each_token():
    # the template is split once; a placeholder inside a quoted token still substitutes
    adapter = ImplementationAdapter(
        label="x",
        command='sh -c "echo $INPUT$$SEED$"',
        serializers={"$SEED$": "binary-string", "$INPUT$": "binary-string"},
    )
    assert adapter.run_case(BitString("01"), BitString("1"), 3, timeout=5.0) == BitString("011")


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


def make_validator(binary, ext, mutation="none", fmt="binary-string", probe=True):
    validator = Validator(ext)
    kind = "toeplitz" if isinstance(ext, ToeplitzExtractor) else "modified-toeplitz"
    validator.add_implementation(
        label=f"thirdparty-{mutation}",
        command=thirdparty_command(binary, kind, ext.input_length, ext.output_length, mutation, fmt),
        serializers={"$INPUT$": fmt, "$SEED$": fmt},
        output_parser=fmt,
        probe=probe,
    )
    return validator


def test_probe_accepts_reference_wrapper(thirdparty_bin):
    make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))  # would raise ProbeFailed


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


def test_duplicate_label_rejected(thirdparty_bin):
    validator = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))
    adapter = next(iter(validator.implementations.values()))
    with pytest.raises(DuplicateLabel):
        validator.add_implementation(adapter)


# -- validation -------------------------------------------------------------


def test_exhaustive_self_validation_passes(thirdparty_bin):
    validator = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))
    report = validator.validate(mode="exhaustive")
    assert report.total == 2**3 * 2**4
    assert report.passed and report.n_failed == 0 and report.n_crashed == 0


def test_compiled_stand_in_agrees_with_library(thirdparty_bin):
    # the shapes of test_every_stand_in_mutant_is_caught, exhaustive there, miss
    # hex padding of 1 to 3 bits; the published shape and 13->5 have it
    for ext in (ModifiedToeplitzExtractor(128, 64), ToeplitzExtractor(13, 5)):
        for fmt in ("binary-string", "hex"):
            validator = make_validator(thirdparty_bin, ext, fmt=fmt)
            assert validator.validate(mode="random", sample_size=50, rng_seed=3).passed


@pytest.mark.parametrize("mutation", ["none", "drop-last-input-bit", "reverse-seed", "flip-entry:0,0"])
@pytest.mark.parametrize("fmt", ["binary-string", "hex"])
@pytest.mark.parametrize("ext", [ToeplitzExtractor(3, 2), ModifiedToeplitzExtractor(4, 2)],
                         ids=["toeplitz-3-2", "modified-toeplitz-4-2"])
def test_every_stand_in_mutant_is_caught(thirdparty_bin, ext, fmt, mutation):
    report = make_validator(thirdparty_bin, ext, mutation, fmt).validate(mode="exhaustive")
    assert report.n_crashed == 0
    assert report.passed == (mutation == "none")


@pytest.mark.parametrize("args", [
    "toeplitz 3 2 flip-entry:9,9", "toeplitz 3 2 flip-entry:2,0", "toeplitz 3 2 flip-entry:0,3",
    "toeplitz 3 2 flip-entry:-1,0", "toeplitz 3 2 flip-entry:0,0x", "toeplitz 3 2 mirror",
    "toeplitz 3x 2 none", "toeplitz 3 +2 none", "toeplitz 3 4 none", "modified-toeplitz 3 3 none",
])
def test_stand_in_rejects_bad_arguments(thirdparty_bin, args):
    # a flip outside the 3->2 matrix would otherwise run as "none" and pass
    validator = Validator(ToeplitzExtractor(3, 2))
    with pytest.raises(ProbeFailed, match="exit code 2"):
        validator.add_implementation(
            label="bad",
            command=f"{thirdparty_bin} {args} $SEED$ $INPUT$",
            serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
        )


def test_exhaustive_hex_adapter_round_trip(thirdparty_bin):
    validator = make_validator(thirdparty_bin, ModifiedToeplitzExtractor(3, 2), fmt="hex")
    report = validator.validate(mode="exhaustive", workers=8)
    assert report.total == 2**3 * 2**2
    assert report.passed


def test_exhaustive_cap_enforced(thirdparty_bin):
    validator = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))
    validator.exhaustive_cap = 5
    with pytest.raises(InvalidRange):
        validator.validate(mode="exhaustive")


@pytest.mark.parametrize("timeout", [0, -1, float("nan")])
def test_validate_rejects_non_positive_timeout(thirdparty_bin, timeout):
    validator = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))
    with pytest.raises(InvalidRange, match="timeout"):
        validator.validate(timeout=timeout)


def test_validate_accepts_the_timeout_ceiling(thirdparty_bin):
    # the ceiling itself must not overflow poll()'s milliseconds
    validator = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))
    report = validator.validate(mode="random", sample_size=1, rng_seed=0, timeout=2_147_483)
    assert report.passed


@pytest.mark.parametrize("timeout", [0, 1e9])
def test_run_case_refuses_a_timeout_out_of_range_before_launching(monkeypatch, timeout):
    monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: pytest.fail("launched"))
    adapter = ImplementationAdapter(label="echo", command="echo 0", serializers={})
    with pytest.raises(InvalidRange, match=r"^timeout must lie in \(0, 2147483\] s"):
        adapter.run_case(BitString("01"), BitString("1"), 1, timeout=timeout)


def test_the_probe_waits_at_most_its_timeout():
    validator = Validator(ToeplitzExtractor(2, 1))
    started = time.monotonic()
    with pytest.raises(ProbeFailed, match="timed out after 0.2 s$"):
        validator.add_implementation(
            label="sleeper", command="sh -c 'sleep 3; echo 0'", serializers={}, timeout=0.2,
        )
    assert time.monotonic() - started < 1.5 and not validator.implementations


def test_random_mode_needs_sample_size(thirdparty_bin):
    validator = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))
    with pytest.raises(InvalidRange):
        validator.validate(mode="random")
    with pytest.raises(InvalidRange):
        validator.validate(mode="bogus")


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
def test_validate_rejects_a_negative_rng_seed_before_any_case(thirdparty_bin, monkeypatch, mode):
    validator = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))
    monkeypatch.setattr(Validator, "_case", lambda *args: pytest.fail("a case was drawn"))
    with pytest.raises(InvalidRange, match="rng_seed must be >= 0, got -5"):
        validator.validate(mode=mode, sample_size=4, rng_seed=-5)


def test_drop_last_bit_mutant_detected_and_analyzed(thirdparty_bin):
    ext = ModifiedToeplitzExtractor(8, 4)
    validator = make_validator(thirdparty_bin, ext, mutation="drop-last-input-bit")
    report = validator.validate(mode="random", sample_size=300, rng_seed=99)
    assert 0.35 <= report.failure_fraction <= 0.65
    assert all(case.input[-1] == 1 for case in report.failed)
    diagnosis = validator.analyze_failed_test(report)
    assert diagnosis.flagged_input_bits == [7]
    assert diagnosis.input_bit_correlations[7] == 1.0
    assert "bit 7" in diagnosis.summary


def test_seed_reversal_mutant_matches_convention_oracle(thirdparty_bin):
    # count mismatching (x, y) pairs by brute force over both conventions
    ext = ToeplitzExtractor(3, 2)
    validator = make_validator(thirdparty_bin, ext, mutation="reverse-seed")
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


def test_random_mode_reproducible(thirdparty_bin):
    ext = ModifiedToeplitzExtractor(8, 4)
    validator = make_validator(thirdparty_bin, ext, mutation="drop-last-input-bit")
    r1 = validator.validate(mode="random", sample_size=60, rng_seed=7, workers=4)
    r2 = validator.validate(mode="random", sample_size=60, rng_seed=7, workers=2)
    assert [c.index for c in r1.failed] == [c.index for c in r2.failed]
    assert [(c.input, c.seed) for c in r1.failed] == [(c.input, c.seed) for c in r2.failed]
    assert r1.rng_seed == 7


def test_exhaustive_report_carries_no_rng_seed(thirdparty_bin):
    # exhaustive mode enumerates every case and never reads rng_seed
    report = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2)).validate(mode="exhaustive", rng_seed=5)
    assert report.passed and report.total == 2**3 * 2**4
    assert report.rng_seed is None
    assert "(exhaustive mode, " in report.summary() and "rng_seed" not in report.summary()


@pytest.mark.parametrize("ext", [ToeplitzExtractor(13, 5), ModifiedToeplitzExtractor(128, 64)])
@pytest.mark.parametrize("rng_seed", [0, 7, 2025, 2**80 + 1])
def test_random_case_is_n_then_d_bits_of_its_own_stream(ext, rng_seed):
    # case i draws n bits, then d bits, from the generator of SeedSequence(rng_seed, spawn_key=(i,))
    validator = Validator(ext)
    for index in (0, 1, 2, 511, 1024, 10**6):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(index,)))
        x = rng.integers(0, 2, size=ext.input_length, dtype=np.uint8)
        y = rng.integers(0, 2, size=ext.seed_length, dtype=np.uint8)
        assert validator._case("random", index, rng_seed) == (BitString(x), BitString(y))


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


@pytest.mark.parametrize("command, options, error", [
    ('sh -c "echo zz" $SEED$ $INPUT$', {"output_parser": "hex"}, "unparseable hex output"),
    ("true $SEED$ $INPUT$ $OUTPUT$", {"input_method": "files"}, "could not read output file"),
    (r"""sh -c 'printf "\377"' $SEED$ $INPUT$""", {}, "output is not UTF-8: b'\\xff'"),
    (r"""sh -c 'printf "\377" > "$0"' $OUTPUT$ $SEED$ $INPUT$""", {"input_method": "files"},
     "output is not UTF-8"),
    (r"""sh -c 'printf "\377" >&2; exit 3' $SEED$ $INPUT$""", {}, "exit code 3: \ufffd"),
], ids=["non-hex-output", "missing-output-file", "non-utf8-stdout", "non-utf8-output-file",
        "non-utf8-stderr-on-exit-3"])
def test_unreadable_output_recorded_as_crash(command, options, error):
    validator = Validator(ToeplitzExtractor(2, 1))
    validator.add_implementation(
        label="x", command=command, serializers={"$INPUT$": "hex", "$SEED$": "hex"},
        probe=False, **options,
    )
    report = validator.validate(mode="random", sample_size=2, rng_seed=0, workers=1)
    assert report.n_failed == report.n_crashed == 2
    assert all(error in case.error for case in report.failed)


def test_non_utf8_stderr_of_a_correct_implementation_passes(thirdparty_bin):
    # stderr is read only for the message of a failed exit; it cannot fail a case
    ext = ToeplitzExtractor(3, 2)
    validator = Validator(ext)
    inner = thirdparty_command(thirdparty_bin, "toeplitz", 3, 2)
    validator.add_implementation(
        label="x", command=f"""sh -c 'printf "\\377" >&2; exec "$0" "$@"' {inner}""",
        serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
    )
    report = validator.validate(mode="exhaustive", workers=2)
    assert report.passed and report.total == 2**3 * 2**4 and report.n_crashed == 0


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


def test_a_case_reads_an_empty_stdin():
    # a child process runs one case with "x\n" waiting on its own, still open, stdin:
    # the command must get end of file, not the caller's input (nor wait for more)
    script = (
        "from privamp import BitString, ImplementationAdapter\n"
        "adapter = ImplementationAdapter(label='reader', serializers={},\n"
        "    command=\"sh -c 'if read line; then echo 0; else echo 1; fi'\")\n"
        "print(adapter.run_case(BitString('01'), BitString('1'), 1, timeout=5.0).to01())\n"
    )
    src = os.path.dirname(os.path.dirname(sys.modules["privamp"].__file__))
    child = subprocess.Popen(
        [sys.executable, "-c", script], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    try:
        child.stdin.write(b"x\n")
        child.stdin.flush()
        assert child.wait(timeout=60) == 0
        assert child.stdout.read() == b"1\n"
    finally:
        child.kill()
        child.stdin.close()
        child.stdout.close()


def _has_pidfd():
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError):
        return False
    return True


@pytest.fixture(params=["pidfd", "no-pidfd_open", "pidfd_open-fails"])
def wait_path(request, monkeypatch):
    """(path, timeouts): one way of waiting for the child, and the timeouts communicate got."""
    if request.param == "pidfd" and not _has_pidfd():
        pytest.skip("os.pidfd_open is not available here")
    if request.param == "no-pidfd_open":
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    elif request.param == "pidfd_open-fails":
        def refuse(pid, flags=0):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(os, "pidfd_open", refuse, raising=False)
    timeouts = []
    real_communicate = subprocess.Popen.communicate

    def communicate(self, input=None, timeout=None):
        timeouts.append(timeout)
        return real_communicate(self, input, timeout)

    monkeypatch.setattr(subprocess.Popen, "communicate", communicate)
    return request.param, timeouts


def test_every_wait_path_gives_the_same_results(thirdparty_bin, wait_path, monkeypatch):
    path, timeouts = wait_path
    if path == "pidfd":  # the child's exit wakes the wait: Popen.wait's sleep loop never runs
        monkeypatch.setattr(time, "sleep", lambda s: pytest.fail(f"slept {s} s in a normal case"))
    ext = ModifiedToeplitzExtractor(8, 4)
    adapter = ImplementationAdapter(
        label="c", command=thirdparty_command(thirdparty_bin, "modified-toeplitz", 8, 4),
        serializers={"$INPUT$": "binary-string", "$SEED$": "binary-string"},
    )
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, y = BitString.random(8, rng), BitString.random(ext.seed_length, rng)
        assert adapter.run_case(x, y, 4, timeout=5.0) == ext.extract(x, y)
    # the exit-code message, with stderr decoded as before
    failing = ImplementationAdapter(
        label="f", command="sh -c 'printf \"\\377 oops\" >&2; exit 3'", serializers={},
    )
    with pytest.raises(AdapterCrashed, match="^exit code 3: \ufffd oops$"):
        failing.run_case(BitString("01"), BitString("1"), 1, timeout=5.0)
    assert timeouts == []  # one loop waits on every path: Popen.communicate never runs


def test_a_child_that_closes_its_pipes_still_times_out(tmp_path, wait_path):
    path, timeouts = wait_path
    # the pipes reach end of file at once; the wait for the exit keeps the deadline,
    # and the kill of the group keeps the shell from running on
    marker = tmp_path / "shell-survived"
    adapter = ImplementationAdapter(
        label="closer", command=f"sh -c 'exec >&- 2>&-; sleep 2; touch {marker}'", serializers={},
    )
    started = time.monotonic()
    with pytest.raises(AdapterCrashed, match="^timed out after 0.3 s$"):
        adapter.run_case(BitString("01"), BitString("1"), 1, timeout=0.3)
    assert time.monotonic() - started < 1.5
    time.sleep(max(0.0, started + 2.5 - time.monotonic()))
    assert not marker.exists()
    assert timeouts == []


def test_a_child_that_fills_both_pipes_ends_with_its_exit_code(wait_path):
    # 300 KB on stderr, then 300 KB on stdout, each more than a pipe holds: a wait
    # that drained one pipe before the other would deadlock until the deadline
    script = "import os; os.write(2, b'e' * 300_000); os.write(1, b'o' * 300_000); os._exit(3)"
    adapter = ImplementationAdapter(
        label="flood", command=f'{sys.executable} -S -c "{script}"', serializers={},
    )
    started = time.monotonic()
    with pytest.raises(AdapterCrashed, match=f"^exit code 3: {'e' * 200}$"):
        adapter.run_case(BitString("01"), BitString("1"), 1, timeout=5.0)
    assert time.monotonic() - started < 5.0


def test_files_mode_round_trip(thirdparty_bin, tmp_path):
    script = tmp_path / "files_wrapper.sh"
    script.write_text(
        "#!/bin/sh\n"
        f'exec {thirdparty_bin} modified-toeplitz 3 1 none "$(cat "$1")" "$(cat "$2")" > "$3"\n'
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


def test_analyze_requires_failures(thirdparty_bin):
    validator = make_validator(thirdparty_bin, ToeplitzExtractor(3, 2))
    report = validator.validate(mode="exhaustive")
    with pytest.raises(NoFailures):
        validator.analyze_failed_test(report)


def test_stuck_output_bit_concentrates_histogram(thirdparty_bin):
    # mutant: output bit 2 perturbed by xor with input bit 0 (flip-entry 2,0)
    ext = ToeplitzExtractor(3, 3)
    validator = make_validator(thirdparty_bin, ext, mutation="flip-entry:2,0")
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


def test_failure_cap_limits_stored_cases(thirdparty_bin):
    ext = ToeplitzExtractor(3, 2)
    validator = make_validator(thirdparty_bin, ext, mutation="reverse-seed")
    validator.failure_cap = 5
    report = validator.validate(mode="exhaustive")
    assert len(report.failed) == 5
    assert report.n_failed > 5  # full count still reported


def test_files_mode_with_fixed_output_path(thirdparty_bin, tmp_path):
    script = tmp_path / "files_wrapper_fixed.sh"
    out_path = tmp_path / "result.txt"
    script.write_text(
        "#!/bin/sh\n"
        f'exec {thirdparty_bin} modified-toeplitz 3 1 none "$(cat "$1")" "$(cat "$2")" > {out_path}\n'
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


def test_label_resolution_with_multiple_implementations(thirdparty_bin):
    validator = Validator(ToeplitzExtractor(3, 2))
    for label, mutation in (("good", "none"), ("bad", "reverse-seed")):
        command = thirdparty_command(thirdparty_bin, "toeplitz", 3, 2, mutation)
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


def test_worker_count_is_an_argument(monkeypatch):
    # None runs DEFAULT_WORKERS whatever the environment holds; fewer than 1 runs 1
    from privamp.validator import DEFAULT_WORKERS

    monkeypatch.setenv("PRIVAMP_WORKERS", "1")
    validator = Validator(ToeplitzExtractor(2, 1))
    assert validator._check_run("random", 4, 0, 1.0, None) == (4, DEFAULT_WORKERS)
    assert validator._check_run("random", 4, 0, 1.0, 0) == (4, 1)


def test_validate_queues_at_most_one_chunk(thirdparty_bin, monkeypatch):
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
    validator = make_validator(thirdparty_bin, ext, probe=False)
    report = validator.validate(mode="random", sample_size=3 * chunk + 1, rng_seed=0, workers=2)
    assert report.total == 3 * chunk + 1 and report.passed
    assert len(pools) == 1 and 0 < pools[0].peak <= chunk
