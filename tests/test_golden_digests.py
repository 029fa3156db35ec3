"""Every result of tools/digest.py against the digests committed under golden/.

tools/digest.py prints one sha256 per result of each op, structure call,
power, complex sigma and CLI call on a fixed input set, labelled by what
it ran.  The exact lines are machine-independent: golden/digests_exact.txt
holds them.  The lines that digest float bits or float text (complex
inputs, complex sigma, ``--backend complex`` and the identity suite,
whose deviations are floats) depend on numpy and the C library's libm:
golden/digests_complex.txt holds them under a first line naming the numpy
version, C library and machine they were made with, and is compared only
where all three match.

A change that alters a result regenerates both files in the same commit,
and names each changed label and the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
EXACT = GOLDEN / "digests_exact.txt"
COMPLEX = GOLDEN / "digests_complex.txt"


def _environment() -> str:
    return f"# numpy {np.__version__}, {' '.join(platform.libc_ver())}, {platform.machine()}"


def _run_digest() -> list[str]:
    tool, src = ROOT / "tools" / "digest.py", ROOT / "src"
    out = subprocess.run([sys.executable, str(tool), str(src)], capture_output=True, text=True,
                         check=True, timeout=900).stdout
    return out.splitlines()


def _is_float(line: str) -> bool:
    return line.startswith("sigma\t") or "complex" in line or line.startswith("cli\t") and "\tverify " in line


def _differences(got: list[str], want: list[str]) -> list[str]:
    """The labels (a line without its digest) whose digest differs, or
    that only one side has."""
    g, w = (dict(line.rsplit("\t", 1) for line in lines) for lines in (got, want))
    return ([f"changed: {k}" for k in w if k in g and g[k] != w[k]]
            + [f"missing: {k}" for k in w if k not in g]
            + [f"new: {k}" for k in g if k not in w])


@pytest.fixture(scope="module")
def digests() -> list[str]:
    return _run_digest()


def _check(got: list[str], golden: Path) -> None:
    want = [line for line in golden.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    diffs = _differences(got, want)
    assert not diffs, f"{len(diffs)} labels differ from {golden.name}:\n" + "\n".join(diffs[:40])


def test_exact_digests_match_golden(digests):
    _check([line for line in digests if not _is_float(line)], EXACT)


def test_complex_digests_match_golden(digests):
    recorded = COMPLEX.read_text(encoding="utf-8").split("\n", 1)[0]
    if recorded != _environment():
        pytest.skip(f"complex digests recorded under {recorded!r}, running under {_environment()!r}")
    _check([line for line in digests if _is_float(line)], COMPLEX)


if __name__ == "__main__":
    lines = _run_digest()
    exact = [line for line in lines if not _is_float(line)]
    floats = [_environment()] + [line for line in lines if _is_float(line)]
    for path, part in ((EXACT, exact), (COMPLEX, floats)):
        path.write_text("".join(f"{line}\n" for line in part), encoding="utf-8")
