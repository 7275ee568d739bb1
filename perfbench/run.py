"""privamp benchmark: two closed-loop workloads, one client process each.

    python3 perfbench/run.py --workload {bulk-pa,small-cases} \\
        --seed N --seconds S --trace {0,1}

- bulk-pa: ``privamp extract`` of 2^22-bit (modified Toeplitz) and
  2^21-bit (standard Toeplitz) hex @FILE inputs; loads the FFT kernel.
- small-cases: ``vectors gen``/``vectors verify`` of 10^4 128->64 cases
  and ``validate`` against the compiled C stand-in; loads per-call and
  per-process overhead.  Its traced run adds a Trevisan job
  (``TrevisanExtractor.create`` + ``extract`` at n = 2^14, m = 256,
  t = 128, in a fresh interpreter) after every traced round, for the
  per-layer metrics of ``fields`` and ``trevisan``.

The workload seed fixes every input.  Each operation runs in a child
process (``worker.py``) that is started cold, so that set-up time and
peak RSS are measured per process; untraced runs also start children
that only set up, for more set-up samples.  This process checks every
output.  A failed check counts as a failed operation and never stops
the run.

With ``--trace 0`` the metrics are the end-to-end ones, with tracing
off.  With ``--trace 1`` the children wrap calls into privamp's public
functions in spans on half of the operations, and the metrics are the
per-layer ones, plus the tracing overhead measured against the
operations run without spans.  Both workloads report the same metrics,
each defined on the workload's own operations; the finer metrics that
only one workload has are printed above the result.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
Per-operation samples, rate bases, machine facts and (traced) spans are
written to ``.bench_out/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import common
import oracles
import tracing

WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS = common.OUT / "results"
CHILD_GRACE_S = 60.0

# The metrics of BENCHMARK.json.  Every workload prints all of them, each
# defined on the workload's own operations (see perfbench/README.md).
E2E_UNITS = {"setup_s": "s", "success_frac": "fraction", "peak_rss_mib": "MiB",
             "input_mbps": "Mbit/s"}
LAYER_UNITS = {
    "trace.overhead_ratio": "ratio",
    "self_frac.cli": "fraction", "self_frac.bits": "fraction", "self_frac.toeplitz": "fraction",
    "toeplitz.extract_ns_per_bit": "ns/bit", "cli.own_ns_per_bit": "ns/bit",
}
LAYERS = {
    "bulk-pa": ["cli", "bits", "toeplitz"],
    "small-cases": ["cli", "testvectors", "toeplitz", "validator", "fields", "trevisan", "bits"],
}
# Finer metrics of one workload each: printed and written to the result
# file, but not part of the result line.
DETAIL_UNITS = {
    "bulk-pa": {"rss_mod_mib": "MiB", "extract_mod_mbps": "Mbit/s", "extract_std_mbps": "Mbit/s"},
    "small-cases": {"vectors_gen_per_s": "cases/s", "vectors_verify_per_s": "cases/s",
                    "validate_cases_per_s": "cases/s"},
}
_LAYER_DETAIL = {
    "bulk-pa": {
        f"{name}.{v}": unit
        for v in common.VARIANTS
        for name, unit in [
            ("cli.extract_s", "s"), ("bits.hex_decode_s", "s"), ("bits.hex_encode_s", "s"),
            ("toeplitz.extract_s", "s"), ("cli.other_s", "s"),
            ("toeplitz.rss_bytes_per_input_bit", "B/bit"),
        ]
    },
    "small-cases": {
        "testvectors.generate_us": "us", "testvectors.render_us": "us",
        "testvectors.parse_us": "us", "testvectors.verify_us": "us",
        "toeplitz.extract_us": "us", "cli.own_s": "s", "validator.run_case_ms": "ms",
        "validator.launch_ms": "ms", "validator.case_overhead_ms": "ms",
        "validator.probe_ms": "ms", "validator.crashed": "count",
        # from the Trevisan job after each traced round
        "fields.min_irreducible_s": "s", "fields.gf_design_s": "s",
        "trevisan.generate_design_s": "s", "bits.to_int_ms": "ms",
        "fields.mul_i_us": "us", "trevisan.extract_bit_ms": "ms",
        "trevisan.mul_i_per_bit": "count",
    },
}
LAYER_DETAIL_UNITS = {
    workload: {**units, **{f"self_frac.{layer}": "fraction" for layer in LAYERS[workload]}}
    for workload, units in _LAYER_DETAIL.items()
}

_VALIDATE = re.compile(r"^(?:PASS|FAIL): .*?: (\d+)/(\d+) cases agree", re.M)
_CRASHED = re.compile(r"(\d+) case\(s\) crashed")


@dataclass(frozen=True)
class Sizes:
    """Input sizes and per-process operation counts of the workloads."""

    bulk: dict  # variant -> (n, m)
    bulk_calls: int  # extract calls per process
    bulk_rows: int  # output rows checked per call
    small_n: int
    small_m: int
    gen_count: int  # cases per vectors gen
    validate_cases: int  # cases per validate call
    serial_cases: int  # traced rounds: serial cases and bare launches
    setup_only: int  # untraced runs: set-up-only cold starts before each working process
    gen_checked: int  # generated cases checked against method="matrix"
    trev_n: int
    trev_m: int
    trev_t: int
    trev_checked: int  # output bits checked per job
    mul_i_calls: int


FULL = Sizes(
    bulk={"mod": (1 << 22, 1 << 21), "std": (1 << 21, 1 << 20)}, bulk_calls=2, bulk_rows=8,
    small_n=128, small_m=64, gen_count=10_000, validate_cases=300, serial_cases=20,
    setup_only=2, gen_checked=32, trev_n=1 << 14, trev_m=256, trev_t=128, trev_checked=16,
    mul_i_calls=2000,
)


class Run:
    """One benchmark run: child processes, outcome counts and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, corrupt: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.sizes = sizes
        # flip one output bit before its check, to show that checks catch it
        self.corrupt = corrupt
        self.rng = common.rng_for(seed, 0)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list] = {}
        self.layer_samples: dict[str, list] = {}
        # traced over untraced time of the same operation in the same process
        self.overhead_ratios: list[float] = []
        self.bases: dict[str, str] = {}
        # input_mbps: (rate metric, its units in one round of the workload, input bits per unit)
        self.round_parts: list[tuple[str, float, float]] = []
        # "<layer>.<what>_ns_per_bit": [(layer sample, seconds per sample unit, input bits)]
        self.per_bit_parts: dict[str, list[tuple[str, float, int]]] = {}
        self.spans: list[dict] = []
        self.spans_by_op: dict[tuple, list] = {}  # (job, operation id) -> spans
        self.jobs = 0  # child processes started, set-up-only ones too
        self.work_s: list[float] = []  # wall time of each child that did operations
        self.work = common.OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = None

    # -- bookkeeping -------------------------------------------------------

    def tally(self, ok: bool, what: str, ops: int = 1, failed: int | None = None):
        failed = (0 if ok else ops) if failed is None else failed
        self.attempted += ops
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {ops} failed")

    def add(self, name: str, value: float, layer: bool = False):
        (self.layer_samples if layer else self.samples).setdefault(name, []).append(value)

    def tamper(self, bits):
        if not self.corrupt:
            return bits
        self.corrupt = False
        bits = bits.copy()
        bits[0] ^= 1
        return bits

    def expired(self) -> bool:
        """Is the measuring time over?

        Every run starts at least two processes that do operations, and
        none that would end more than half its expected time after the
        deadline.
        """
        if len(self.work_s) < 2:
            return False
        return common.now() + common.median(self.work_s) / 2 >= self.deadline

    # -- children ----------------------------------------------------------

    def child(self, role: str, trace: bool = False, setup_only: bool = False,
              **spec) -> dict | None:
        """Start one cold worker process, wait for it and read its result."""
        job = self.jobs
        self.jobs += 1
        spec.update(role=role, job=job, seed=self.seed, trace=trace, setup_only=setup_only,
                    dir=str(self.work), result=str(self.work / f"result-{job}.json"))
        spec_path = self.work / f"spec-{job}.json"
        spec_path.write_text(json.dumps(spec))
        err_path = self.work / f"stderr-{job}.txt"
        with open(err_path, "w") as err:
            spawned = common.now()
            proc = subprocess.Popen([sys.executable, str(WORKER), str(spec_path)],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, cwd=common.ROOT)
            try:
                proc.wait(timeout=max(10.0, self.deadline + CHILD_GRACE_S - common.now()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if not setup_only:
            self.work_s.append(common.now() - spawned)
        try:
            result = json.loads(Path(spec["result"]).read_text())
        except (OSError, ValueError):
            tail = err_path.read_text()[-500:]
            self.failures.append(f"{role} process {job} exited {proc.returncode}: {tail}")
            return None
        result["job"] = job
        result["setup_s"] = result["ready"] - spawned
        for span in result.pop("spans"):
            # span ids restart in every process: qualify them with the job
            span.update(job=job, id=f"{job}.{span['id']}",
                        parent=None if span["parent"] is None else f"{job}.{span['parent']}")
            self.spans.append(span)
            self.spans_by_op.setdefault((job, span["run"]), []).append(span)
        return result

    def cold_start(self, result: dict):
        """Add the set-up time and peak RSS of a workload's child process."""
        self.add("setup_s", result["setup_s"])
        self.add("peak_rss_mib", result["rss_kib"] / 1024)

    def setup_only(self, role: str, **spec):
        """Cold starts that only set up, for more ``setup_s`` samples.

        The host's speed for interpreter-bound code drifts, so the set-up
        time needs many cold starts per run; these are interleaved with
        the working processes, before each one.  Traced runs, which do
        not report ``setup_s``, start none.
        """
        for _ in range(0 if self.trace else self.sizes.setup_only):
            result = self.child(role, setup_only=True, **spec)
            self.tally(result is not None, f"{role} set-up process")
            if result is not None:
                self.cold_start(result)

    def child_spans(self, job: int, run_id: str) -> list[dict]:
        return self.spans_by_op.get((job, run_id), [])

    # -- result ------------------------------------------------------------

    def metrics(self) -> dict:
        values = {}
        for name, samples in self.samples.items():
            values[name] = max(samples) if name.endswith("_mib") else common.median(samples)
        values["success_frac"] = (self.attempted - self.failed) / max(1, self.attempted)
        if self.round_parts and all(rate in values for rate, _, _ in self.round_parts):
            # one round of the workload's operations, each taking its median time
            bits = sum(units * per_unit for _, units, per_unit in self.round_parts)
            seconds = sum(units / values[rate] for rate, units, _ in self.round_parts)
            values["input_mbps"] = bits / seconds / 1e6
        return values

    def layer_metrics(self) -> dict:
        values = {name: common.median(v) for name, v in self.layer_samples.items()}
        for metric, parts in self.per_bit_parts.items():
            if parts and all(name in values for name, _, _ in parts):
                seconds = sum(values[name] * scale for name, scale, _ in parts)
                values[metric] = seconds / sum(bits for _, _, bits in parts) * 1e9
        if self.overhead_ratios:
            values["trace.overhead_ratio"] = common.median(self.overhead_ratios)
        if self.spans:
            totals = tracing.layer_self_times(self.spans)
            traced = sum(totals.values())
            for layer in LAYERS[self.workload]:
                values[f"self_frac.{layer}"] = totals.get(layer, 0.0) / traced
        return values

    def report(self) -> dict:
        e2e, layers = self.metrics(), self.layer_metrics()
        wanted = LAYER_UNITS if self.trace else E2E_UNITS
        shown = layers if self.trace else e2e
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": shown[name], "unit": unit}
                        for name, unit in wanted.items() if name in shown},
            "detail": {
                "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                "trace": self.trace, "sizes": asdict(self.sizes), "machine": common.machine_info(),
                "bases": self.bases, "failures": self.failures, "end_to_end": e2e,
                "per_layer": layers,
                "samples": {k: {**common.spread(v), "values": v} for k, v in self.samples.items()},
                "layer_samples": {k: {**common.spread(v), "values": v}
                                  for k, v in self.layer_samples.items()},
                "layer_self_s": tracing.layer_self_times(self.spans),
            },
        }


# -- bulk-pa ----------------------------------------------------------------


def bulk_pa(run: Run):
    sizes = run.sizes
    variants = list(sizes.bulk)
    started = dict.fromkeys(variants, 0)  # working processes per variant
    for rnd in itertools.count():
        variant = variants[rnd % len(variants)]  # the variants alternate
        n, m = sizes.bulk[variant]
        run.setup_only("bulk", variant=variant, n=n, m=m)
        # traced runs trace the first call in every other process of a variant, the second
        # in the others, so that each variant's traced and untraced calls are as often cold
        traced_call = started[variant] % 2
        started[variant] += 1
        result = run.child("bulk", trace=run.trace, variant=variant, n=n, m=m,
                           calls=sizes.bulk_calls, traced_call=traced_call)
        if result is None:
            run.tally(False, f"{variant} extract process")
        else:
            run.cold_start(result)
            if variant == "mod":
                run.add("rss_mod_mib", result["rss_kib"] / 1024)
            grown = (result["rss_kib"] - result["rss_before_kib"]) * 1024
            run.add(f"toeplitz.rss_bytes_per_input_bit.{variant}", grown / n, layer=True)
        passed = {}  # traced -> seconds of the calls that passed
        for op in result["ops"] if result else []:
            ok = op["rc"] == 0 and _bulk_output_ok(run, variant, n, m, result["job"], op)
            run.tally(ok, f"{variant} extract job {result['job']} call {op['call']}")
            Path(op["out"]).unlink(missing_ok=True)
            if not ok:
                continue
            passed[op["traced"]] = op["s"]
            if op["traced"]:
                spans = run.child_spans(result["job"], f"{variant}-{result['job']}-{op['call']}")
                for name, value in _bulk_layers(spans):
                    run.add(f"{name}.{variant}", value, layer=True)
            else:
                run.add(f"extract_{variant}_mbps", n / op["s"] / 1e6)
        if len(passed) == 2:  # a traced and an untraced call of one process
            run.overhead_ratios.append(passed[True] / passed[False])
        if run.expired():
            break
    for variant, (n, m) in sizes.bulk.items():
        run.bases[f"extract_{variant}_mbps"] = (
            f"input bits hashed per privamp extract call: n = {n} (m = {m}); median over "
            f"{len(run.samples.get(f'extract_{variant}_mbps', []))} untraced calls")
    run.round_parts = [(f"extract_{v}_mbps", n / 1e6, 1e6) for v, (n, _) in sizes.bulk.items()]
    run.per_bit_parts = {
        f"{layer}_ns_per_bit": [(f"{sample}.{v}", 1.0, n) for v, (n, _) in sizes.bulk.items()]
        for layer, sample in [("toeplitz.extract", "toeplitz.extract_s"),
                              ("cli.own", "cli.other_s")]
    }
    run.bases.update({
        "input_mbps": "input bits of one privamp extract call of each variant, over the sum "
                      "of their median times",
        "setup_s": "fresh interpreter to first extract: import + extractor construction",
    })


def _bulk_output_ok(run: Run, variant: str, n: int, m: int, job: int, op: dict) -> bool:
    kind, _ = common.VARIANTS[variant]
    try:
        out = common.hex_to_bits(Path(op["out"]).read_text(), m)
    except (OSError, ValueError):
        return False
    out = run.tamper(out)
    x, y = common.bulk_inputs(run.seed, variant, n, m, job, op["call"])
    rows = oracles.sample_indices(run.rng, m, run.sizes.bulk_rows)
    return oracles.toeplitz_rows_ok(kind, x, y, out, rows)


def _bulk_layers(spans: list[dict]):
    """(metric, value) pairs of one traced extract call."""
    own = tracing.self_times(spans)
    for main in _named(spans, "cli.main"):
        yield "cli.extract_s", _dur(main)
        yield "cli.other_s", own[main["id"]]
    for layer, name in [("bits.hex_decode_s", "bits.hex_decode"),
                        ("bits.hex_encode_s", "bits.hex_encode"),
                        ("toeplitz.extract_s", "toeplitz.extract")]:
        if _named(spans, name):
            yield layer, sum(_dur(s) for s in _named(spans, name))


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _named(spans: list[dict], name: str, **attrs) -> list[dict]:
    """Spans called ``name`` whose attributes include ``attrs``.

    A function that a later version of privamp no longer has records no
    span, so every caller treats an empty list as a metric not measured.
    """
    return [s for s in spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())]


# -- small-cases ------------------------------------------------------------


def small_cases(run: Run):
    sizes = run.sizes
    n, m = sizes.small_n, sizes.small_m
    stand_in = [str(_build_stand_in(run)), "modified-toeplitz", str(n), str(m), "none"]
    golden = len(oracles.parse_rsp(common.GOLDEN_RSP.read_text()))
    crashed = 0
    for rnd in itertools.count():
        rng_seed = int(common.rng_for(run.seed, 2, rnd).integers(1 << 31))
        # traced runs trace every other round; the untraced base of the overhead runs
        # before the traced operation in every other traced round, after it otherwise
        traced = run.trace and rnd % 2 == 1
        plain_first = rnd % 4 == 1
        run.setup_only("small", n=n, m=m, stand_in=stand_in)
        result = run.child("small", trace=traced, n=n, m=m, gen_count=sizes.gen_count,
                           validate_cases=sizes.validate_cases, serial_cases=sizes.serial_cases,
                           rng_seed=rng_seed, plain_first=plain_first, stand_in=stand_in)
        if result is None:
            run.tally(False, "small-cases round process", ops=3 + sizes.validate_cases)
        else:
            run.cold_start(result)
            crashed += _check_round(run, result, golden)
            if traced:
                _small_layers(run, result)
        if traced:
            _trevisan_job(run, plain_first)
        if run.expired():
            break
    if run.trace:
        run.add("validator.crashed", crashed, layer=True)
    cases = sizes.validate_cases
    run.round_parts = [("vectors_gen_per_s", sizes.gen_count, n),
                       ("vectors_verify_per_s", sizes.gen_count + golden, n),
                       ("validate_cases_per_s", cases, n)]
    run.per_bit_parts = {
        "toeplitz.extract_ns_per_bit": [("toeplitz.extract_us", 1e-6, n)],
        "cli.own_ns_per_bit": [("cli.own_s", 1.0, (2 * sizes.gen_count + golden + cases) * n)],
    }
    run.bases.update({
        "input_mbps": f"input bits of one round ({n} per case generated, verified or "
                      f"validated), over the sum of the median times of its commands",
        "vectors_gen_per_s": f"cases generated per vectors gen call: {sizes.gen_count} "
                             f"at n = {n}, m = {m}",
        "vectors_verify_per_s": f"cases verified per round: {sizes.gen_count} generated "
                                f"+ {golden} golden, over two vectors verify calls",
        "validate_cases_per_s": f"cases per validate call: {sizes.validate_cases}; processes "
                                f"launched per call: {sizes.validate_cases + 1} (cases + probe); "
                                f"2 workers",
        "setup_s": "fresh interpreter to first vectors gen: import + extractor "
                   "+ validator probe of the stand-in",
    })


def _build_stand_in(run: Run) -> Path:
    """Compile the C implementation under test; not part of any timing."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise SystemExit("error: no C compiler to build tests/helpers/thirdparty.c")
    binary = run.work / "thirdparty"
    # the compiler's temporary files stay in the work directory too
    subprocess.run([cc, "-O2", "-o", str(binary), str(common.STAND_IN_C)], check=True,
                   env={**os.environ, "TMPDIR": str(run.work)})
    return binary


def _check_round(run: Run, result: dict, golden: int) -> int:
    """Check one round's outputs, add its samples; return its crashed case count."""
    sizes, ops, job = run.sizes, result["ops"], result["job"]
    count, cases = sizes.gen_count, sizes.validate_cases

    gen = ops["gen"]
    ok = gen["rc"] == 0 and _gen_file_ok(run, Path(result["gen_path"]))
    Path(result["gen_path"]).unlink(missing_ok=True)
    run.tally(ok, f"vectors gen round {job}")
    if ok and not gen["traced"]:
        run.add("vectors_gen_per_s", count / gen["s"])
    if "gen_plain" in ops:
        plain_path = Path(f"{result['gen_path']}.plain")
        plain_ok = ops["gen_plain"]["rc"] == 0 and _gen_file_ok(run, plain_path)
        plain_path.unlink(missing_ok=True)
        run.tally(plain_ok, f"untraced vectors gen round {job}")
        if ok and plain_ok:
            run.overhead_ratios.append(gen["s"] / ops["gen_plain"]["s"])

    verify, gold = ops["verify"], ops["verify_golden"]
    ok_v = verify["rc"] == 0 and verify["stdout"].strip() == f"PASS: {count}/{count} vectors verified"
    ok_g = gold["rc"] == 0 and gold["stdout"].strip() == f"PASS: {golden}/{golden} vectors verified"
    run.tally(ok_v, f"vectors verify round {job}")
    run.tally(ok_g, f"vectors verify golden round {job}")
    if ok_v and ok_g and not verify["traced"]:
        run.add("vectors_verify_per_s", (count + golden) / (verify["s"] + gold["s"]))

    validate = ops["validate"]
    match = _VALIDATE.search(validate["stdout"])
    agree = int(match.group(1)) if match and int(match.group(2)) == cases else 0
    crash = _CRASHED.search(validate["stdout"])
    crashed = int(crash.group(1)) if crash else 0
    failed = cases - agree if validate["rc"] == 0 else max(cases - agree, 1)
    run.tally(not failed, f"validate round {job}", ops=cases, failed=failed)
    if not failed and not validate["traced"]:
        run.add("validate_cases_per_s", cases / validate["s"])
    return crashed


def _gen_file_ok(run: Run, path: Path) -> bool:
    from privamp.bits import BitString
    from privamp.toeplitz import ModifiedToeplitzExtractor

    n, m = run.sizes.small_n, run.sizes.small_m
    try:
        cases = oracles.parse_rsp(path.read_text())
    except (OSError, ValueError):
        return False
    if [c.get("COUNT") for c in cases] != [str(i) for i in range(run.sizes.gen_count)]:
        return False
    ext = ModifiedToeplitzExtractor(n, m)
    for i in oracles.sample_indices(run.rng, len(cases), run.sizes.gen_checked):
        try:
            x = common.hex_to_bits(cases[i]["INPUT"], n)
            y = common.hex_to_bits(cases[i]["SEED"], n - 1)
            out = common.hex_to_bits(cases[i]["OUTPUT"], m)
        except (KeyError, ValueError):
            return False
        if i == 0:
            out = run.tamper(out)
        expected = ext.extract(BitString(x), BitString(y), method="matrix").bits
        if not (expected == out).all():
            return False
    return True


def _small_layers(run: Run, result: dict):
    job, count = result["job"], run.sizes.gen_count
    gen = run.child_spans(job, f"gen-{job}")
    verify = run.child_spans(job, f"verify-{job}")
    commands = [s for name in ["gen", "verify", "verify_golden", "validate"]
                for s in run.child_spans(job, f"{name}-{job}")]
    own = tracing.self_times(commands)
    mains = _named(commands, "cli.main")
    if mains:
        run.add("cli.own_s", sum(own[s["id"]] for s in mains), layer=True)
    per_case = [
        ("testvectors.generate_us", gen, "testvectors.generate", True),
        ("testvectors.render_us", gen, "testvectors.render", False),
        ("testvectors.parse_us", verify, "testvectors.parse", False),
        ("testvectors.verify_us", verify, "testvectors.verify", True),
    ]
    for metric, spans, name, self_time in per_case:
        for span in _named(spans, name):
            seconds = own[span["id"]] if self_time else _dur(span)
            run.add(metric, seconds / count * 1e6, layer=True)
    extracts = [_dur(s) for s in _named(gen + verify, "toeplitz.extract")]
    if extracts:
        run.add("toeplitz.extract_us", common.median(extracts) * 1e6, layer=True)
    for probe in _named(run.child_spans(job, f"validate-{job}"), "validator.add_implementation"):
        run.add("validator.probe_ms", _dur(probe) * 1e3, layer=True)

    serial = result["serial"]
    n, m = run.sizes.small_n, run.sizes.small_m
    for case in serial:
        rng = common.rng_for(run.seed, 4, job, case["i"])
        x, y = common.random_bits(rng, n), common.random_bits(rng, n - 1)
        got = case["output"]
        ok = len(got) == m and set(got) <= {"0", "1"} and oracles.toeplitz_rows_ok(
            "modified-toeplitz", x, y, np.array([int(b) for b in got]), range(m))
        run.tally(ok, f"serial validate case {case['i']} round {job}")
    if serial:
        run_case = common.median([c["run_case_s"] for c in serial]) * 1e3
        launch = common.median([c["launch_s"] for c in serial]) * 1e3
        run.add("validator.run_case_ms", run_case, layer=True)
        run.add("validator.launch_ms", launch, layer=True)
        run.add("validator.case_overhead_ms", run_case - launch, layer=True)


# -- Trevisan job (traced small-cases runs) ----------------------------------


def _trevisan_job(run: Run, plain_first: bool):
    """One traced Trevisan job in a fresh interpreter: check it, add its layers.

    ``GF`` is cached per process, so only a fresh interpreter measures the
    cold field construction.  The job's set-up time is not a ``setup_s``
    sample: it belongs to no end-to-end metric.
    """
    from privamp.fields import GF

    sizes = run.sizes
    result = run.child("trevisan", trace=True, n=sizes.trev_n, m=sizes.trev_m,
                       t=sizes.trev_t, mul_i_calls=sizes.mul_i_calls, plain_first=plain_first)
    if result is None:
        run.tally(False, "trevisan job process")
        return
    job = result["job"]
    # the untraced repeat of the extract must give the same bits
    ok = (_trevisan_output_ok(run, GF, job, result["output"])
          and result["plain_output"] == result["output"])
    run.tally(ok, f"trevisan job {job}")
    if ok:
        run.overhead_ratios.append(result["s"] / result["plain_s"])
        _trevisan_layers(run, result)


def _trevisan_output_ok(run: Run, GF, job: int, output: str) -> bool:
    sizes = run.sizes
    if len(output) != sizes.trev_m or set(output) - {"0", "1"}:
        return False
    out = run.tamper(np.array([int(b) for b in output]))
    x, y = common.trevisan_inputs(run.seed, sizes.trev_n, sizes.trev_t ** 2, job)
    bits = oracles.sample_indices(run.rng, sizes.trev_m, sizes.trev_checked)
    return oracles.trevisan_bits_ok(GF, x, y, out, sizes.trev_t, bits)


def _trevisan_layers(run: Run, result: dict):
    sizes = run.sizes
    spans = run.child_spans(result["job"], f"trevisan-{result['job']}")
    own = tracing.self_times(spans)
    for span in _named(spans, "fields.min_irreducible", p=2, e=sizes.trev_t // 2):
        run.add("fields.min_irreducible_s", _dur(span), layer=True)
    for span in _named(spans, "fields.GF", order=sizes.trev_t):
        run.add("fields.gf_design_s", _dur(span), layer=True)
    for span in _named(spans, "trevisan.design"):
        run.add("trevisan.generate_design_s", own[span["id"]], layer=True)
    for metric, name, attrs in [("bits.to_int_ms", "bits.to_int", {"n": sizes.trev_n}),
                                ("trevisan.extract_bit_ms", "trevisan.extract_bit", {})]:
        durations = [_dur(s) for s in _named(spans, name, **attrs)]
        if durations:
            run.add(metric, common.median(durations) * 1e3, layer=True)
    run.add("fields.mul_i_us", result["mul_i_s"] * 1e6, layer=True)
    if result["mul_i_per_bit"] is not None:
        run.add("trevisan.mul_i_per_bit", result["mul_i_per_bit"], layer=True)


# -- entry point ------------------------------------------------------------

RUNNERS = {"bulk-pa": bulk_pa, "small-cases": small_cases}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL, corrupt: bool = False) -> dict:
    """Run one workload and return its result (the printed keys plus ``detail``)."""
    common.import_privamp()
    run = Run(workload, seed, seconds, trace, sizes, corrupt)
    run.work.mkdir(parents=True)
    try:
        run.deadline = common.now() + seconds
        RUNNERS[workload](run)
        result = run.report()
        if trace:
            result["detail"]["spans_file"] = str(_write_spans(run))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return result


def _write_spans(run: Run) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{run.workload}-seed{run.seed}-spans.jsonl"
    with open(path, "w") as fh:
        for span in run.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = common.missing_sources()
    if missing:
        print(f"error: not a privamp checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "detail": detail}, indent=1))

    # the result line's metrics first, then the workload's finer ones
    if args.trace:
        units = {**LAYER_UNITS, **LAYER_DETAIL_UNITS[args.workload]}
        values, samples = detail["per_layer"], detail["layer_samples"]
    else:
        units = {**E2E_UNITS, **DETAIL_UNITS[args.workload]}
        values, samples = detail["end_to_end"], detail["samples"]
    for name, unit in units.items():
        if name not in values:
            continue
        s = samples.get(name)
        quartiles = f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})" if s else ""
        print(f"{name:40s} {values[name]:.6g} {unit}{quartiles}")
    for name, base in detail["bases"].items():
        print(f"base of {name}: {base}")
    machine = detail["machine"]
    print(f"machine: {machine['nproc']} cpus, {machine['cpu_model']}, LLC {machine['llc_size']}, "
          f"Python {machine['python']}, numpy {machine['numpy']}")
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    print(f"details: {path.relative_to(common.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
