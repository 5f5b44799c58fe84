"""The benchmark's correctness gate, as a tier-1 test.

One pass of each perfbench workload checks every op's output against
perfbench/reference.json and the workload's oracles; a change that drifts
from the recorded output fails here, before any timing is taken.  The test
only runs perfbench/run.py and reads its last line.

Each workload also runs once traced: the tracer wraps named functions and
methods (CandidateSeq.r_log2, GroupSpec.order_mod among them), so a change
that drops one of them fails every traced run while the untraced one passes.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = [(w, t) for t in (0, 1) for w in ("detect", "structure", "rings")]


@pytest.mark.parametrize("workload,trace", PASSES, ids=[w + "-traced" * t for w, t in PASSES])
def test_one_pass_is_correct(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
    assert last["failed"] == 0, proc.stdout[-2000:]
