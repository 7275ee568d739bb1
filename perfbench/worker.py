"""One cold-started process of the benchmark.

    python3 perfbench/worker.py SPEC.json

``run.py`` writes the spec and starts this process; the spec's
``trace`` says whether the process records spans.  The process
imports privamp from the checkout, does the set-up of its role, notes
the monotonic time at which the first timed operation can start, runs
its timed operations (none if the spec says ``setup_only``), and
writes a JSON result next to the spec: per-op timings and exit codes,
its peak RSS, and, in traced operations, the spans recorded around
calls into privamp.  It checks nothing; run.py checks every output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import common
from tracing import Tracer

SERIALIZERS = {"$INPUT$": "binary-string", "$SEED$": "binary-string"}


def _max_rss_kib() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _call_cli(cli, argv) -> dict:
    """Run ``privamp`` in-process; return its exit code, output and time."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a crash is one failed operation, not the end of the run
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - started
    return {"rc": rc, "s": seconds, "stdout": out.getvalue()[-2000:], "stderr": err.getvalue()[-2000:]}


def bulk(spec: dict, tracer: Tracer) -> dict:
    """Repeated ``privamp extract`` of one Toeplitz variant on @FILE hex inputs."""
    from privamp import bits, cli, toeplitz
    from privamp.extractor import SeededExtractor

    kind, _ = common.VARIANTS[spec["variant"]]
    n, m = spec["n"], spec["m"]
    SeededExtractor.create(kind, input_length=n, output_length=m)
    ready = common.now()
    if spec["setup_only"]:
        return {"ready": ready}

    targets = [
        (cli, "main", "cli.main"),
        (cli, "hex_decode", "bits.hex_decode"),
        (bits, "hex_encode", "bits.hex_encode"),
        (toeplitz.ToeplitzExtractor, "extract", "toeplitz.extract"),
        (toeplitz.ModifiedToeplitzExtractor, "extract", "toeplitz.extract"),
    ]
    work = Path(spec["dir"])
    x_path, y_path = work / f"x-{spec['job']}.hex", work / f"y-{spec['job']}.hex"
    ops, rss_before = [], None
    for call in range(spec["calls"]):
        x, y = common.bulk_inputs(spec["seed"], spec["variant"], n, m, spec["job"], call)
        x_path.write_text(common.bits_to_hex(x))
        y_path.write_text(common.bits_to_hex(y))
        if rss_before is None:
            rss_before = _max_rss_kib()
        out_path = work / f"out-{spec['job']}-{call}.hex"
        argv = ["extract", "--type", kind, "-n", str(n), "-m", str(m),
                "--input", f"@{x_path}", "--seed", f"@{y_path}", "--out", str(out_path)]
        # a traced process traces one of its calls and times the other without spans
        traced = spec["trace"] and call == spec["traced_call"]
        tracer.run_id = f"{spec['variant']}-{spec['job']}-{call}"
        with tracer.installed(targets if traced else []):
            op = _call_cli(cli, argv)
        ops.append({**op, "call": call, "traced": traced, "out": str(out_path)})
    x_path.unlink(missing_ok=True)
    y_path.unlink(missing_ok=True)
    return {"ready": ready, "ops": ops, "rss_before_kib": rss_before}


def _serial_cases(spec: dict, tracer: Tracer, adapter) -> list[dict]:
    """One validation case at a time, beside a bare launch of the same argv."""
    from privamp.bits import BitString
    from privamp.exceptions import AdapterCrashed

    n, m = spec["n"], spec["m"]
    cases = []
    for i in range(spec["serial_cases"]):
        rng = common.rng_for(spec["seed"], 4, spec["job"], i)
        x, y = common.random_bits(rng, n), common.random_bits(rng, n - 1)
        argv = [*spec["stand_in"], "".join(map(str, y)), "".join(map(str, x))]
        started = time.perf_counter()
        subprocess.run(argv, capture_output=True, text=True, timeout=30)
        launch = time.perf_counter() - started
        with tracer.span("validator.run_case") as span:
            try:
                got = adapter.run_case(BitString(x), BitString(y), m, 30.0).to01()
            except AdapterCrashed as exc:  # counted as a failed case
                got = f"error: {exc}"
        cases.append({"i": i, "run_case_s": span["end"] - span["start"],
                      "launch_s": launch, "output": got})
    return cases


def small(spec: dict, tracer: Tracer) -> dict:
    """One round of small-case operations: vectors gen/verify and validate."""
    from privamp import cli, testvectors, toeplitz, validator
    from privamp.extractor import SeededExtractor

    n, m = spec["n"], spec["m"]
    command = " ".join(spec["stand_in"]) + " $SEED$ $INPUT$"
    ext = SeededExtractor.create("modified-toeplitz", input_length=n, output_length=m)
    validator.Validator(ext).add_implementation(
        label="stand-in", command=command, serializers=SERIALIZERS
    )
    ready = common.now()
    if spec["setup_only"]:
        return {"ready": ready}

    targets = [
        (cli, "main", "cli.main"),
        (testvectors, "generate_test_vectors", "testvectors.generate"),
        (testvectors.TestVectorFile, "render", "testvectors.render"),
        (testvectors, "parse_vector_file", "testvectors.parse"),
        (testvectors, "verify_response_file", "testvectors.verify"),
        (toeplitz.ModifiedToeplitzExtractor, "extract", "toeplitz.extract"),
        (validator.Validator, "add_implementation", "validator.add_implementation"),
        (validator.Validator, "validate", "validator.validate"),
    ]
    shape = ["--type", "modified-toeplitz", "-n", str(n), "-m", str(m)]
    gen_path = Path(spec["dir"]) / f"gen-{spec['job']}.rsp"
    plan = {
        "gen": ["vectors", "gen", *shape, "--count", str(spec["gen_count"]),
                "--rng-seed", str(spec["rng_seed"]), "--out", str(gen_path)],
        "verify": ["vectors", "verify", str(gen_path)],
        "verify_golden": ["vectors", "verify", str(common.GOLDEN_RSP)],
        "validate": ["validate", *shape, "--command", command, "--mode", "random",
                     "--samples", str(spec["validate_cases"]),
                     "--rng-seed", str(spec["rng_seed"]), "--workers", "2"],
    }
    traced = spec["trace"]
    ops = {}

    def gen_plain():
        # the same gen without spans, in the same process, is the base of the overhead;
        # it runs before the traced gen in every other traced round, after it otherwise
        ops["gen_plain"] = {**_call_cli(cli, plan["gen"][:-1] + [f"{gen_path}.plain"]),
                            "traced": False}

    if traced and spec["plain_first"]:
        gen_plain()
    with tracer.installed(targets if traced else []):
        for name, argv in plan.items():
            tracer.run_id = f"{name}-{spec['job']}"
            ops[name] = {**_call_cli(cli, argv), "traced": traced}
        serial = []
        if traced:
            tracer.run_id = f"serial-{spec['job']}"
            adapter = validator.ImplementationAdapter(
                label="stand-in", command=command, serializers=SERIALIZERS
            )
            serial = _serial_cases(spec, tracer, adapter)
    if traced and not spec["plain_first"]:
        gen_plain()
    return {"ready": ready, "ops": ops, "gen_path": str(gen_path), "serial": serial}


def trevisan(spec: dict, tracer: Tracer) -> dict:
    """One Trevisan job: cold ``create`` (set-up) then one timed ``extract``."""
    from privamp import bits, fields
    from privamp import trevisan as tv

    n, m, t = spec["n"], spec["m"], spec["t"]
    traced = spec["trace"]
    targets = [
        (fields, "min_irreducible", "fields.min_irreducible", lambda p, e: {"p": p, "e": e}),
        (tv, "GF", "fields.GF", lambda order: {"order": order}),
        (tv.FiniteFieldPolynomialDesign, "__init__", "trevisan.design"),
        (tv.PolynomialOneBitExtractor, "extract_bit", "trevisan.extract_bit"),
        (bits.BitString, "to_int", "bits.to_int", lambda self: {"n": len(self)}),
    ]
    tracer.run_id = f"trevisan-{spec['job']}"
    with tracer.installed(targets if traced else []):
        ext = tv.TrevisanExtractor.create(n, m, t)
    result = {"ready": common.now(), "traced": traced}
    x, y = common.trevisan_inputs(spec["seed"], n, ext.seed_length, spec["job"])
    x, y = bits.BitString(x), bits.BitString(y)

    def timed_extract(key: str):
        started = time.perf_counter()
        out = ext.extract(x, y)
        result.update({f"{key}s": time.perf_counter() - started, f"{key}output": out.to01()})

    # the same extract without spans, in the same process, is the base of the overhead;
    # it runs before the traced extract in every other traced job, after it otherwise
    if traced and spec["plain_first"]:
        timed_extract("plain_")
    with tracer.installed(targets if traced else []):
        timed_extract("")
    if traced and not spec["plain_first"]:
        timed_extract("plain_")
    if traced:
        result.update(_field_costs(spec, fields, ext, x, y))
    return result


def _field_costs(spec: dict, fields, ext, x, y) -> dict:
    """Time of one GF(2^l) multiplication, and multiplications per output bit."""
    field = fields.GF(2 ** (spec["t"] // 2))
    rng = common.rng_for(spec["seed"], 5, spec["job"])
    operands = [int(v) for v in rng.integers(0, field.order, size=2 * spec["mul_i_calls"],
                                             dtype="uint64")]
    pairs = list(zip(operands[::2], operands[1::2]))
    started = time.perf_counter()
    for a, b in pairs:
        field.mul_i(a, b)
    mul_i_s = (time.perf_counter() - started) / len(pairs)

    if not hasattr(ext.one_bit, "extract_bit"):
        return {"mul_i_s": mul_i_s, "mul_i_per_bit": None}
    calls = 0
    original = fields.GaloisField.mul_i

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return original(self, a, b)

    fields.GaloisField.mul_i = counted
    try:
        ext.one_bit.extract_bit(x, ext.design.restrict(y, 0))
    finally:
        fields.GaloisField.mul_i = original
    return {"mul_i_s": mul_i_s, "mul_i_per_bit": calls}


ROLES = {"bulk": bulk, "small": small, "trevisan": trevisan}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    common.import_privamp()
    tracer = Tracer()
    result = ROLES[spec["role"]](spec, tracer)
    result["rss_kib"] = _max_rss_kib()
    result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
