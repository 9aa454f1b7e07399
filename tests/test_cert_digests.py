"""Certificates stay byte-identical: the digests of ``tools/cert_digests.py``
on a fixed set of inputs match the golden file ``cert_digests.txt``.

A change that means to alter certificates regenerates the file with
DIGEST_ARGS in the same change and says which lines moved and why.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cert_digests.txt"
DIGEST_ARGS = ["--seed", "60606", "--seed", "505",
               "--draw", "n5d3", "--draw", "n4d5", "--draw", "n5d4", "--draw", "n6d3", "--draw", "n4d6"]


def test_certificate_digests_match_the_golden_file():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "cert_digests.py"), *DIGEST_ARGS],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line for line in lines if not line.endswith(" verified")] == []
    assert lines == GOLDEN.read_text(encoding="utf-8").splitlines()
