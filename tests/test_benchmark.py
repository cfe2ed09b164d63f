"""The benchmark's smoke run: every workload at tiny sizes, plain and
traced, with all of its correctness checks.  It fails when a package name
that the benchmark calls or wraps is removed or changes its signature."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_run():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True
