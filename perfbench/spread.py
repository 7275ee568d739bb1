"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload bulk-pa --seeds 1-10
    python3 perfbench/spread.py --workload bulk-pa --seeds 11-20 \\
        --compare .bench_out/spread/bulk-pa-trace0-seeds1-10.json

Every run measures for BENCHMARK.json's ``run_seconds``.  For every
metric the report gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json, and flags a spread over the bound.
``--compare`` also flags a median that differs from that of an earlier
report by more than the bound in either direction, as a later change
would be judged with the two sets taken in either order.  All values
and the wall time of every run are written to ``.bench_out/spread/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import common

RUN = Path(__file__).resolve().parent / "run.py"
SPREAD_DIR = common.OUT / "spread"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", type=Path, help="an earlier report of this tool")
    args = parser.parse_args(argv)

    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in bench[kind]}

    values: dict[str, list] = {}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=common.ROOT)
        wall = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        runs.append({"seed": seed, "rc": proc.returncode, "wall_s": wall, "result": result})
        if result is None:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)

    earlier = json.loads(args.compare.read_text())["summary"] if args.compare else {}
    summary, bad = {}, []
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        s = common.spread(vals)
        s["spread"] = (s["q3"] - s["q1"]) / s["median"] if s["median"] else float("inf")
        summary[name] = s
        bound = metrics.get(name, {}).get("bound")
        line = (f"{name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                f"{s['spread']:7.2%} {bound if bound is not None else '':>6}")
        if bound is not None and s["spread"] > bound:
            bad.append(f"{name}: spread {s['spread']:.2%} over bound {bound}")
        if name in earlier and bound is not None:
            before, now = earlier[name]["median"], s["median"]
            # how much worse the worse of the two medians is than the other
            low, high = sorted([before, now])
            worse = (high - low) / (high if metrics[name]["better"] == "higher" else low)
            line += (f"  vs earlier {before:.6g} ({(now - before) / before:+.2%}; "
                     f"{worse:.2%} worse in one order)")
            if worse > bound:
                bad.append(f"{name}: the medians of the two sets differ by {worse:.2%} "
                           "in one order or the other")
        print(line)
    SPREAD_DIR.mkdir(parents=True, exist_ok=True)
    out = SPREAD_DIR / f"{args.workload}-trace{args.trace}-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs,
                               "values": values, "summary": summary}, indent=1))
    print(f"wall time per run: {common.spread([r['wall_s'] for r in runs])}")
    print(f"report: {out.relative_to(common.ROOT)}")
    for problem in bad:
        print(f"OVER BOUND {problem}")
    failed_runs = [r["seed"] for r in runs if r["result"] is None or not r["result"]["correct"]]
    if failed_runs:
        print(f"runs failed or incorrect: seeds {failed_runs}")
    return 1 if bad or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
