"""Conformance testing of external extractor implementations.

A third-party implementation is registered as an adapter describing how
to invoke it (a command template with $SEED$ and $INPUT$ placeholders)
and how values are serialized.  Validation compares its output against
the reference extractor on exhaustively enumerated or randomly sampled
(input, seed) pairs; every case runs even after failures, and failures
can be analyzed for structure (which output bits differ, which input
bits correlate with failing).

Adapters spawn one process per case — the simplest possible contract
for the implementation under test.  I/O formats: "binary-string" is
ASCII '0'/'1' characters, "hex" is the package hex encoding.
"""

from __future__ import annotations

import contextlib
import math
import os
import selectors
import shlex
import signal
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bits import BitString, hex_decode
from .exceptions import (
    AdapterConfigError,
    AdapterCrashed,
    DuplicateLabel,
    InvalidRange,
    NoFailures,
    PrivampError,
    ProbeFailed,
)
from .extractor import SeededExtractor

FORMATS = ("binary-string", "hex")
PLACEHOLDERS = ("$INPUT$", "$SEED$")

DEFAULT_EXHAUSTIVE_CAP = 24
DEFAULT_FAILURE_CAP = 10_000
DEFAULT_TIMEOUT = 30.0
DEFAULT_WORKERS = 4

_CHUNK = 1024  # cases queued at once: Executor.map submits all it is given up front
_CHUNK_BITS = 2**26  # input and seed bits drawn at once, when that is at least one case per worker
_FAILURE_BITS = 2**28  # input, seed, expected and received bits that a report's failures hold
_MAX_TIMEOUT = 2_147_483  # seconds: poll() waits with a C int of milliseconds


def _check_timeout(timeout: float) -> None:
    if not 0 < timeout <= _MAX_TIMEOUT:
        raise InvalidRange(f"timeout must lie in (0, {_MAX_TIMEOUT}] s, got {timeout}")


def _check_run(width, exhaustive_cap, mode, sample_size, rng_seed, timeout, workers) -> tuple[int, int]:
    """(cases, workers) of a validate run on input+seed ``width`` bits; InvalidRange for a bad argument.

    It needs no extractor and launches nothing, so the command line checks
    its arguments with it before it builds the reference and probes the command.
    """
    _check_timeout(timeout)
    if workers is not None and workers < 1:
        raise InvalidRange(f"workers must be >= 1, got {workers}")
    if rng_seed is not None and rng_seed < 0:
        raise InvalidRange(f"rng_seed must be >= 0, got {rng_seed}")
    if mode == "exhaustive":
        if width > exhaustive_cap:
            raise InvalidRange(f"exhaustive mode needs input+seed <= {exhaustive_cap} bits, got {width}")
        total = 1 << width
    elif mode == "random":
        if sample_size is None or sample_size < 1:
            raise InvalidRange("random mode needs sample_size >= 1")
        total = sample_size
    else:
        raise InvalidRange(f"unknown mode {mode!r}")
    return total, DEFAULT_WORKERS if workers is None else workers


def _serialize(value: BitString, fmt: str) -> str:
    return value.to_hex() if fmt == "hex" else value.to01()


def _parse_output(raw: bytes, fmt: str, length: int) -> BitString:
    try:
        text = raw.decode().strip()
    except UnicodeDecodeError as exc:
        raise AdapterCrashed(f"output is not UTF-8: {raw[:40]!r}") from exc
    if fmt == "hex":
        try:
            return hex_decode(text, length)
        except PrivampError as exc:
            raise AdapterCrashed(f"unparseable hex output {text!r}: {exc}") from exc
    if len(text) != length or set(text) - {"0", "1"}:
        raise AdapterCrashed(
            f"expected {length} binary-string chars, got {text[:40]!r}"
        )
    return BitString(text)


@dataclass(frozen=True)
class ImplementationAdapter:
    """How to run one external implementation for a single test case.

    ``command`` is a template, split into arguments once as a POSIX shell
    would (no shell runs), whose $INPUT$ and $SEED$ placeholders are
    replaced by the serialized values (stdio mode) or by paths to files
    holding them (files mode).  In files mode the output is read from
    ``output_path``, or from a temporary file substituted for an
    $OUTPUT$ placeholder when present.  Its stdin is empty, so a command
    that reads it gets end of file, never the caller's input.
    """

    label: str
    command: str
    serializers: dict
    output_parser: str = "binary-string"
    input_method: str = "stdio"
    output_path: str | None = None
    _tokens: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # split once, so a malformed template fails here and not in every case
        try:
            tokens = tuple(shlex.split(self.command))
        except ValueError as exc:
            raise AdapterConfigError(f"cannot split command {self.command!r}: {exc}") from None
        if not tokens:
            raise AdapterConfigError("command is empty")
        object.__setattr__(self, "_tokens", tokens)
        if self.input_method not in ("stdio", "files"):
            raise AdapterConfigError(f"unknown input_method {self.input_method!r}")
        if self.output_parser not in FORMATS:
            raise AdapterConfigError(f"unknown output format {self.output_parser!r}")
        present = [ph for ph in PLACEHOLDERS if ph in self.command]
        for ph in present:
            if self.command.count(ph) > 1:
                raise AdapterConfigError(f"{ph} appears more than once in command")
            if ph not in self.serializers:
                raise AdapterConfigError(f"no serializer configured for {ph}")
        for ph, fmt in self.serializers.items():
            if ph not in PLACEHOLDERS:
                raise AdapterConfigError(f"unknown placeholder {ph!r}")
            if fmt not in FORMATS:
                raise AdapterConfigError(f"unknown format {fmt!r} for {ph}")
        if self.input_method == "files" and self.output_path is None and "$OUTPUT$" not in self.command:
            raise AdapterConfigError("files mode needs output_path or an $OUTPUT$ placeholder")
        if self.input_method == "stdio" and ("$OUTPUT$" in self.command or self.output_path is not None):
            raise AdapterConfigError("$OUTPUT$ and output_path are for files mode only")

    def run_case(self, x: BitString, y: BitString, output_length: int, timeout: float) -> BitString:
        """Invoke the implementation once: AdapterCrashed on any failure, InvalidRange for a timeout."""
        _check_timeout(timeout)
        # each placeholder's text, built once: stdio passes it, files mode writes it
        subst = {ph: _serialize(v, self.serializers[ph]) for ph, v in (("$INPUT$", x), ("$SEED$", y))
                 if ph in self.command}
        if self.input_method == "stdio":
            return _parse_output(self._run(self._argv(subst), timeout), self.output_parser, output_length)
        with tempfile.TemporaryDirectory(prefix="privamp-case-") as tmp:
            for ph, text in subst.items():
                subst[ph] = os.path.join(tmp, ph.strip("$").lower())
                with open(subst[ph], "w") as fh:
                    fh.write(text)
            subst["$OUTPUT$"] = self.output_path or os.path.join(tmp, "output")
            if self.output_path is not None and os.path.exists(self.output_path):
                os.unlink(self.output_path)  # never read a previous case's output
            self._run(self._argv(subst), timeout)
            try:
                with open(subst["$OUTPUT$"], "rb") as fh:
                    return _parse_output(fh.read(), self.output_parser, output_length)
            except OSError as exc:
                raise AdapterCrashed(f"could not read output file: {exc}") from exc

    def _argv(self, substitutions: dict) -> list:
        argv = []
        for token in self._tokens:
            for ph, val in substitutions.items():
                token = token.replace(ph, val)
            argv.append(token)
        return argv

    def _run(self, argv: list, timeout: float) -> bytes:
        # a session of its own makes the case one process group, so killing
        # the group also ends whatever the command started (a shell's children, say)
        try:
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as exc:
            raise AdapterCrashed(f"could not launch {argv[0]!r}: {exc}") from exc
        deadline = time.monotonic() + timeout
        chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
        pidfds = []  # readable once the child has exited, so the loop then waits for the exit too
        with contextlib.suppress(AttributeError, OSError):  # no pidfd_open, or it failed
            pidfds.append(os.pidfd_open(proc.pid))
        with proc, selectors.PollSelector() as sel:
            try:
                for fd in (*chunks, *pidfds):
                    sel.register(fd, selectors.EVENT_READ)
                while sel.get_map():
                    remaining = deadline - time.monotonic()
                    ready = sel.select(remaining) if remaining > 0 else []
                    if not ready:
                        raise subprocess.TimeoutExpired(argv, timeout)
                    for key, _ in ready:
                        data = os.read(key.fd, 32768) if key.fd in chunks else b""
                        if data:
                            chunks[key.fd].append(data)
                        else:  # end of file, or the child has exited
                            sel.unregister(key.fd)
                # at once after a pidfd; through Popen.wait's sleep loop without one
                proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                raise AdapterCrashed(f"timed out after {timeout} s") from exc
            finally:
                for fd in pidfds:
                    os.close(fd)
                # the group ends with the case, also when the command exits
                # and leaves a background job behind
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = (b"".join(parts) for parts in chunks.values())
        if proc.returncode != 0:
            message = stderr.decode(errors="replace").strip()[:200]
            raise AdapterCrashed(f"exit code {proc.returncode}: {message}")
        return stdout


@dataclass
class FailedCase:
    index: int
    input: BitString
    seed: BitString
    expected: BitString
    got: BitString | None = None  # None when the adapter crashed
    error: str | None = None


@dataclass
class ValidationReport:
    label: str
    mode: str
    total: int
    rng_seed: int | None
    failed: list
    n_failed: int = 0
    n_crashed: int = 0
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.n_failed == 0

    @property
    def failure_fraction(self) -> float:
        return self.n_failed / self.total if self.total else 0.0

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        line = (
            f"{state}: {self.label}: {self.total - self.n_failed}/{self.total} cases agree "
            f"({self.mode} mode"
        )
        if self.rng_seed is not None:
            line += f", rng_seed={self.rng_seed}"
        line += f", {self.elapsed_s:.1f} s)"
        if self.n_crashed:
            line += f"; {self.n_crashed} case(s) crashed"
        return line


@dataclass
class FailureDiagnosis:
    """Structure of the failing cases of a validation report."""

    n_failures: int
    differing_bit_positions: np.ndarray  # histogram over output indices
    input_bit_correlations: np.ndarray  # fraction of failures with bit = 1
    flagged_input_bits: list
    threshold: float
    summary: str = ""


class Validator:
    """Compares registered implementations against a reference extractor."""

    def __init__(
        self,
        reference: SeededExtractor,
        exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
        failure_cap: int = DEFAULT_FAILURE_CAP,
    ):
        self.reference = reference
        self.exhaustive_cap = exhaustive_cap
        self.failure_cap = failure_cap
        self.implementations: dict[str, ImplementationAdapter] = {}

    def add_implementation(
        self, adapter: ImplementationAdapter | None = None, probe: bool = True,
        timeout: float = DEFAULT_TIMEOUT, **kwargs
    ):
        """Register an adapter (or keyword arguments building one).

        A probe invocation with all-zero input and seed checks that the
        process launches and produces parseable output of the right
        length within ``timeout`` seconds; ProbeFailed is raised otherwise.
        """
        if adapter is None:
            adapter = ImplementationAdapter(**kwargs)
        if adapter.label in self.implementations:
            raise DuplicateLabel(f"label {adapter.label!r} already registered")
        if probe:
            x = BitString.zeros(self.reference.input_length)
            y = BitString.zeros(self.reference.seed_length)
            try:
                adapter.run_case(x, y, self.reference.output_length, timeout)
            except AdapterCrashed as exc:
                raise ProbeFailed(f"probe of {adapter.label!r} failed: {exc}") from exc
        self.implementations[adapter.label] = adapter
        return adapter

    def _resolve(self, label: str | None) -> ImplementationAdapter:
        if not self.implementations:
            raise InvalidRange("no implementation registered")
        if label is None:
            if len(self.implementations) > 1:
                raise InvalidRange("several implementations registered; pass label=")
            return next(iter(self.implementations.values()))
        try:
            return self.implementations[label]
        except KeyError:
            raise InvalidRange(f"no implementation labelled {label!r}") from None

    def _case(self, mode: str, indices: range, rng_seed) -> tuple[np.ndarray, np.ndarray]:
        """Cases ``indices`` as read-only (c, n) input and (c, d) seed views of one (c, n+d) array."""
        n = self.reference.input_length
        rows = np.empty((len(indices), n + self.reference.seed_length), dtype=np.uint8)
        for row, i in zip(rows, indices):
            if mode == "exhaustive":  # case i is the n+d bits of i
                row[:] = BitString.from_int(i, row.size).bits
            else:  # n then d bits of case i's own generator, whatever its chunk
                rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(i,)))
                row[:n] = rng.integers(0, 2, size=n, dtype=np.uint8)
                row[n:] = rng.integers(0, 2, size=row.size - n, dtype=np.uint8)
        rows.setflags(write=False)
        return rows[:, :n], rows[:, n:]

    def validate(
        self,
        mode: str = "exhaustive",
        sample_size: int | None = None,
        rng_seed: int | None = None,
        label: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        workers: int | None = None,
    ) -> ValidationReport:
        """Run all cases against one registered implementation.

        Exhaustive mode enumerates every (input, seed) pair and requires
        input_length + seed_length <= exhaustive_cap; random mode draws
        ``sample_size`` pairs from a per-index seeded generator, so a
        report is exactly reproducible given ``rng_seed`` (drawn once and
        reported when None).  Crashed cases are recorded, not fatal.
        ``timeout`` (seconds per case) must lie in (0, 2147483], the
        longest wait that poll() can take.  ``workers`` (>= 1) cases run at
        once, :data:`DEFAULT_WORKERS` if None.  A chunk of ``workers`` to 1024
        cases holds at most 2**26 input and seed bits.  The stored failures
        are the lowest indices: at most ``failure_cap``, and at most 2**28
        bits of input, seed, expected and received output, or one case if
        it alone is larger.
        """
        adapter = self._resolve(label)
        n, d, m = self.reference.input_length, self.reference.seed_length, self.reference.output_length
        total, workers = _check_run(n + d, self.exhaustive_cap, mode, sample_size, rng_seed, timeout, workers)
        if adapter.output_path is not None:
            workers = 1  # a fixed output path cannot be shared between cases
        if mode == "random" and rng_seed is None:
            rng_seed = np.random.SeedSequence().entropy  # drawn once, so the report can name it
        chunk = min(_CHUNK, max(workers, _CHUNK_BITS // (n + d)))
        kept = min(self.failure_cap, max(1, _FAILURE_BITS // (n + d + 2 * m)))

        def run_one(index, x, y, expected):
            try:
                got, error = adapter.run_case(BitString._wrap(x), BitString._wrap(y), m, timeout), None
                if np.array_equal(got.bits, expected):
                    return None
            except AdapterCrashed as exc:
                got, error = None, str(exc)
            # copies: a view of a row would keep its whole chunk alive
            return FailedCase(index, BitString(x), BitString(y), BitString(expected), got, error)

        started = time.perf_counter()
        failures, n_failed, n_crashed, visited = [], 0, 0, 0
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for lo in range(0, total, chunk):
                indices = range(lo, min(lo + chunk, total))
                xs, ys = self._case(mode, indices, rng_seed)
                results = pool.map(run_one, indices, xs, ys, self.reference.extract_many(xs, ys))
                del xs, ys  # the queued rows alone hold the chunk, so it goes before the next is drawn
                # map yields in index order, so the stored failures are the lowest indices
                for failure in results:
                    visited += 1
                    if failure is not None:
                        n_failed += 1
                        n_crashed += failure.error is not None
                        if len(failures) < kept:
                            failures.append(failure)
        assert visited == total, f"visited {visited} of {total} cases"
        return ValidationReport(  # exhaustive mode draws nothing, so it names no seed
            label=adapter.label, mode=mode, total=total, rng_seed=rng_seed if mode == "random" else None,
            failed=failures, n_failed=n_failed, n_crashed=n_crashed, elapsed_s=time.perf_counter() - started)

    def analyze_failed_test(self, report: ValidationReport) -> FailureDiagnosis:
        """Look for structure in the failing cases of a report.

        Computes the histogram of differing output bit positions and,
        per input bit, the fraction of failing cases in which that bit
        is set.  Bits whose fraction deviates from the 0.5 baseline by
        more than 4/sqrt(failures) (a ~4-sigma binomial bound) are
        flagged as correlated with failure.
        """
        if not report.failed:
            raise NoFailures("report contains no failed cases")
        cases = report.failed
        n = len(cases[0].input)
        m = len(cases[0].expected)
        inputs = np.stack([c.input.bits for c in cases])
        correlations = inputs.mean(axis=0)
        histogram = np.zeros(m, dtype=np.int64)
        for c in cases:
            if c.got is not None:
                histogram += c.expected.bits ^ c.got.bits
        threshold = 4.0 / math.sqrt(len(cases))
        flagged = [i for i in range(n) if abs(float(correlations[i]) - 0.5) > threshold]

        lines = [f"{len(cases)} failing case(s) analyzed (threshold {threshold:.3f})"]
        if histogram.any():
            top = np.argsort(histogram)[::-1]
            shown = [f"bit {int(i)}: {int(histogram[i])}" for i in top[:4] if histogram[i]]
            lines.append("differing output bits: " + ", ".join(shown))
        if flagged:
            parts = [f"bit {i} (correlation {float(correlations[i]):.2f})" for i in flagged]
            lines.append("input bits correlated with failure: " + ", ".join(parts))
        else:
            lines.append("no input bit correlates with failure")
        return FailureDiagnosis(
            n_failures=len(cases),
            differing_bit_positions=histogram,
            input_bit_correlations=correlations,
            flagged_input_bits=flagged,
            threshold=threshold,
            summary="\n".join(lines),
        )
