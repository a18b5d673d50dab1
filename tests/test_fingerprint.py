"""The results of the fixed pools match the committed fingerprint, bit for bit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath

ROOT = Path(__file__).resolve().parent.parent

# the SIMD features NumPy picks kernels for at run time on this CPU, lowest
# first; a baseline feature cannot be turned off, and naming one, or an
# unknown feature, makes NumPy refuse to import
DISPATCHED = [name for name in _multiarray_umath.__cpu_dispatch__
              if _multiarray_umath.__cpu_features__.get(name)]


def fingerprint(env=None):
    proc = subprocess.run(
        [sys.executable, "tools/fingerprint.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fingerprint_matches_the_committed_one():
    # tools/fingerprint.txt holds what the last change that moved results
    # printed; a change that moves them again updates the file. Every Python
    # and NumPy version that runs the tests compares against this one file
    assert fingerprint() == (ROOT / "tools" / "fingerprint.txt").read_text()


@pytest.mark.parametrize("level", range(len(DISPATCHED)), ids=DISPATCHED)
def test_fingerprint_holds_with_simd_features_turned_off(level):
    # the named feature and every one above it off, down to the baseline:
    # NumPy's sort, reduction and math kernels differ between these levels,
    # and the results must not
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(DISPATCHED[level:])}
    assert fingerprint(env) == (ROOT / "tools" / "fingerprint.txt").read_text()
