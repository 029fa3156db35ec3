"""The benchmark harness's own tests (bench/tests), run as one test.

They check that bench/tracer.py can still wrap every public entry point
it names, that every workload is seeded and checked, and that the
harness's statistics hold, so a change to the library that breaks the
benchmark fails here.  They run in a subprocess, with their own conftest
and import path, exactly as

    python -m pytest -q -p no:cacheprovider bench/tests
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_harness_tests_pass():
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/tests"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, f"bench/tests failed:\n{run.stdout}\n{run.stderr}"
