"""The benchmark's self-test as a test of the package.

``perfbench`` wraps privamp functions by name and reads metrics from
their spans, so a library change that drops a trace target or a metric
fails here as well as in the benchmark.
"""

import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.fail("no C compiler available to build the benchmark's validation target")
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
