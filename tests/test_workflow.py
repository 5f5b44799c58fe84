"""The command-line steps of .github/workflows/tier1.yml, run here.

Each step's `run: |` block runs as the workflow's `shell: bash` runs it,
under `bash -e -o pipefail`, with `resfin` and `python` on PATH as shims to
this interpreter (or another one) and RUNNER_TEMP a temporary directory.
The workflow is read without a YAML parser: only step names and `run:`
blocks are needed.
"""

import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
CLI_STEPS = (
    "Quick-start dq",
    "Quick-start growth",
    "Quick-start candidates and fit",
    "Exit codes",
    "Ring on a multiword content",
)
SKIPPED_STEPS = ("Install the test extra", "Tier-1")  # pip install, and this suite itself


def workflow_runs(text):
    """{step name: its run script} for each named step with a `run:` key.
    A step starts at a "- " item; a `run: |` block is the lines indented
    past its key, dedented."""
    runs, name, block, indent = {}, None, None, 0
    for line in text.splitlines():
        item = line.lstrip()
        depth = len(line) - len(item)
        if block is not None:
            if not item or depth > indent:
                block.append(line)
                continue
            runs[name], block = textwrap.dedent("\n".join(block)) + "\n", None
        if item.startswith("- "):
            name, item, depth = None, item[2:], depth + 2
        if item.startswith("name:"):
            name = item[len("name:"):].strip()
        elif item.startswith("run:"):
            value = item[len("run:"):].strip()
            if value == "|":
                block, indent = [], depth
            else:
                runs[name] = value + "\n"
    if block is not None:
        runs[name] = textwrap.dedent("\n".join(block)) + "\n"
    return runs


@pytest.fixture(scope="module")
def runs():
    return workflow_runs(WORKFLOW.read_text(encoding="utf-8"))


@pytest.fixture
def run_step(tmp_path):
    """Run a script as a `shell: bash` step under a Python, by default this
    one, returning the CompletedProcess."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    runner_temp = tmp_path / "runner_temp"
    runner_temp.mkdir()
    env = dict(os.environ, RUNNER_TEMP=str(runner_temp))
    env["PATH"] = os.pathsep.join((str(bin_dir), env.get("PATH", "")))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))

    def run(script, python=sys.executable):
        for shim, args in (("resfin", '-m resfin "$@"'), ("python", '"$@"')):
            path = bin_dir / shim
            path.write_text(f'#!/bin/sh\nexec "{python}" {args}\n')
            path.chmod(0o755)
        path = tmp_path / "step.sh"
        path.write_text(script)
        return subprocess.run(
            ["bash", "--noprofile", "--norc", "-e", "-o", "pipefail", str(path)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )

    return run


def test_every_step_is_run_or_skipped_by_name(runs):
    assert set(runs) == set(CLI_STEPS) | set(SKIPPED_STEPS)


@pytest.mark.parametrize("name", CLI_STEPS)
def test_cli_step_passes(runs, run_step, name):
    done = run_step(runs[name])
    assert done.returncode == 0, done.stdout + done.stderr


def test_exit_codes_under_other_pythons(runs, run_step):
    # argparse's internals differ between Pythons; the signed-value rows
    # catch one that drops the private _negative_number_matcher the CLI sets
    pythons = [
        path for minor in range(10, 14)
        if (3, minor) != sys.version_info[:2] and (path := shutil.which(f"python3.{minor}"))
        and subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60).returncode == 0
    ]
    if not pythons:
        pytest.skip("no other python3.10 to python3.13 on PATH starts")
    for python in pythons:
        done = run_step(runs["Exit codes"], python)
        assert done.returncode == 0, (python, done.stdout + done.stderr)


def test_an_altered_exit_code_row_fails(runs, run_step):
    # the adjoint check of sl2 at p = 2 fails, so its row expects exit 1
    script, altered = re.subn(r"^expect 1 ", "expect 0 ", runs["Exit codes"], count=1, flags=re.M)
    assert altered == 1
    done = run_step(script)
    assert done.returncode != 0
    assert done.stdout.splitlines()[-1].endswith("exit 1, stderr empty"), done.stdout
