"""The results of the fixed pools match the committed fingerprint, bit for bit."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fingerprint_matches_the_committed_one():
    # tools/fingerprint.txt holds what the last change that moved results
    # printed; a change that moves them again updates the file. Every Python
    # and NumPy version that runs the tests compares against this one file
    proc = subprocess.run(
        [sys.executable, "tools/fingerprint.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tools" / "fingerprint.txt").read_text()
