"""The benchmark harness runs against this tree.

perfbench/spans.py wraps program functions by module and name
(formula.parse, semantics.holds, kernels.compile_program, ...), so a rename
in the program would otherwise show only when the benchmark runs.
`--self-check` runs every workload at tiny bounds, traced and untraced,
with all of the benchmark's correctness checks.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "self-check: ok" in proc.stdout
