"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

For every workload it makes three short runs:

- clean: every operation must pass (success_frac = 1), and the metrics
  printed must be every end-to-end metric, non-zero, with the units
  that BENCHMARK.json gives them;
- corrupted: one output bit is flipped before its check, and the run
  must count a failed operation (success_frac < 1);
- traced: the metrics must be every per-layer metric, non-zero.

The Trevisan job of traced small-cases runs is checked by its own
oracle, which must accept a tiny Trevisan output and reject it with
one bit flipped.  The self-test also checks that BENCHMARK.json lists
exactly the metrics the benchmark can print, and that run.py, copied
into a directory holding nothing but BENCHMARK.json and perfbench/,
exits non-zero without printing a result.  Exits 0 when everything
holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import common
import oracles
import run

TINY = run.Sizes(
    bulk={"mod": (256, 64), "std": (128, 32)}, bulk_calls=2, bulk_rows=1 << 20,
    small_n=16, small_m=8, gen_count=40, validate_cases=20, serial_cases=3, setup_only=1,
    gen_checked=40,
    trev_n=64, trev_m=32, trev_t=16, trev_checked=32, mul_i_calls=50,
)
SECONDS = 0.1


def check(ok: bool, what: str, problems: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_declared(bench: dict, problems: list) -> None:
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(declared == run.E2E_UNITS, "BENCHMARK.json end_to_end = the metrics run.py prints",
          problems)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(declared == run.LAYER_UNITS, "BENCHMARK.json per_layer = the metrics run.py prints",
          problems)
    check([w["name"] for w in bench["workloads"]] == list(run.RUNNERS),
          "BENCHMARK.json workloads = run.py workloads", problems)


def check_workload(workload: str, problems: list) -> None:
    clean = run.run_workload(workload, 1, SECONDS, False, TINY)
    metrics = clean["metrics"]
    check(clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0
          and metrics["success_frac"]["value"] == 1.0,
          f"{workload}: clean run passes every check ({clean['attempted']} operations)", problems)
    check(metrics.keys() == run.E2E_UNITS.keys()
          and all(m["unit"] == run.E2E_UNITS[name] for name, m in metrics.items())
          and all(m["value"] > 0 for m in metrics.values()),
          f"{workload}: prints every end-to-end metric, all non-zero", problems)

    corrupted = run.run_workload(workload, 1, SECONDS, False, TINY, corrupt=True)
    frac = corrupted["metrics"]["success_frac"]["value"]
    check(not corrupted["correct"] and corrupted["failed"] >= 1 and frac < 1.0,
          f"{workload}: one corrupted output bit lowers success_frac to {frac:.4f}", problems)

    traced = run.run_workload(workload, 1, SECONDS, True, TINY)
    metrics = traced["metrics"]
    missing = set(run.LAYER_UNITS) - set(metrics)
    check(traced["correct"] and not missing and all(m["value"] > 0 for m in metrics.values()),
          f"{workload}: traced run reports every per-layer metric, all non-zero"
          + (f" (missing {sorted(missing)})" if missing else ""), problems)


def check_trevisan_oracle(problems: list) -> None:
    from privamp.bits import BitString
    from privamp.fields import GF
    from privamp.trevisan import TrevisanExtractor

    n, m, t = TINY.trev_n, TINY.trev_m, TINY.trev_t
    ext = TrevisanExtractor.create(n, m, t)
    x, y = common.trevisan_inputs(1, n, ext.seed_length, 0)
    out = ext.extract(BitString(x), BitString(y)).bits.copy()
    clean = oracles.trevisan_bits_ok(GF, x, y, out, t, range(m))
    out[m // 2] ^= 1
    check(clean and not oracles.trevisan_bits_ok(GF, x, y, out, t, range(m)),
          "trevisan: the oracle accepts the output and rejects one flipped bit", problems)


def check_bare_directory(problems: list) -> None:
    """Without the rest of the repository the benchmark must refuse to run."""
    common.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.OUT) as bare:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small-cases", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result printed", problems)


def main() -> int:
    problems: list[str] = []
    check_declared(json.loads((common.ROOT / "BENCHMARK.json").read_text()), problems)
    for workload in run.RUNNERS:
        check_workload(workload, problems)
    check_trevisan_oracle(problems)
    check_bare_directory(problems)
    print(f"{len(problems)} problem(s)" if problems else "self-test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
