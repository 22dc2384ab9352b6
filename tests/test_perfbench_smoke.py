"""The benchmark's smoke pass: every workload at a tiny size, outputs checked
against independent recounts, no timing asserted."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("paper-mix", "deep-chains", "offline-resume"):
        assert f"smoke {name}: ok" in proc.stdout, proc.stdout
