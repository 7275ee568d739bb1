"""Paths, input generation, bit codecs, statistics and machine facts.

Shared by ``run.py``, which runs the workloads, and its child processes
(``worker.py``).  The codecs and input generators here are the
benchmark's own, so that inputs handed to privamp and the checks made
on its outputs never go through the code being measured.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "privamp"
GOLDEN_RSP = ROOT / "tests" / "data" / "modified_toeplitz_n128_m64.rsp"
STAND_IN_C = ROOT / "tests" / "helpers" / "thirdparty.c"
# everything the benchmark writes stays under this (git-ignored) directory
OUT = ROOT / ".bench_out"

# extractor variants of the bulk-pa workload: name -> (--type, id in rng keys)
VARIANTS = {"mod": ("modified-toeplitz", 0), "std": ("toeplitz", 1)}


def missing_sources() -> list[str]:
    """Files of the repository the benchmark needs but cannot find."""
    needed = [PACKAGE / "__init__.py", GOLDEN_RSP, STAND_IN_C]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def import_privamp():
    """Import privamp from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import privamp

    if Path(privamp.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"privamp imported from {privamp.__file__}, not from {PACKAGE}")
    return privamp


def seed_length(kind: str, n: int, m: int) -> int:
    return n - 1 if kind == "modified-toeplitz" else n + m - 1


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Generator for one input, fixed by the workload seed and the input's key."""
    return np.random.default_rng([seed, *key])


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    """MSB-first hex, left-padded with zero bits to a byte boundary."""
    pad = (-bits.size) % 8
    return np.packbits(np.concatenate([np.zeros(pad, np.uint8), bits])).tobytes().hex()


def hex_to_bits(text: str, n: int) -> np.ndarray:
    """Inverse of :func:`bits_to_hex`; raises ValueError on a malformed value."""
    text = text.strip()
    if len(text) != 2 * ((n + 7) // 8):
        raise ValueError(f"{len(text)} hex chars for {n} bits")
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(text), dtype=np.uint8))
    if bits[: bits.size - n].any():
        raise ValueError("non-zero padding bits")
    return bits[bits.size - n :]


def bulk_inputs(seed: int, variant: str, n: int, m: int, job: int, call: int):
    """Input and seed bits of one bulk-pa extract call."""
    kind, vid = VARIANTS[variant]
    rng = rng_for(seed, 1, vid, job, call)
    return random_bits(rng, n), random_bits(rng, seed_length(kind, n, m))


def trevisan_inputs(seed: int, n: int, d: int, job: int):
    """Input and seed bits of one Trevisan job."""
    rng = rng_for(seed, 3, job)
    return random_bits(rng, n), random_bits(rng, d)


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": median(values), "q1": q1, "q3": q3}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def machine_info() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = _cache_sizes()
    llc = caches[max(caches)] if caches else "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_size": llc,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
