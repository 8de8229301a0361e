"""The benchmark's self-test, run as the benchmark runs it.

It drives the public names the benchmark calls, so a renamed function or a
changed signature fails the suite, not only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_catches_every_planted_fault():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "every planted fault was caught" in proc.stdout
