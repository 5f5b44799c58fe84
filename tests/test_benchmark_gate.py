"""The benchmark's correctness gate, as a tier-1 test.

One pass of each perfbench workload checks every op's output against
perfbench/reference.json and the workload's oracles; a change that drifts
from the recorded output fails here, before any timing is taken.  The test
only runs perfbench/run.py and reads its last line.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["detect", "structure", "rings"])
def test_one_pass_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
    assert last["failed"] == 0, proc.stdout[-2000:]
