"""resfin benchmark runner.

    python3 perfbench/run.py --workload {detect,structure,rings} --seed N
                             --seconds S --trace {0,1} [--size tiny]

Run from the root of a checkout.  Load model: a closed loop with one client;
each pass runs the workload's seeded op list once, in a fresh Python process
(``worker.py``), sending each op only after the previous one returned.
Passes repeat until ``--seconds`` is used up (at least one).  The growth ops
start a process pool of ``--threads nproc`` workers, the only processes
besides the pass itself.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``setup_s``: process start to first op ready (interpreter start,
  ``import resfin``, op-list generation), median of several fresh processes;
- ``wall_s``: time to finish the op list, median over passes;
- ``op_p50_ms`` / ``op_p90_ms``: per-op latency percentiles (nearest rank)
  over the ops of all passes; each pass has >= 100 ops, so >= 10 samples lie
  beyond p90 even in a single pass;
- ``peak_rss_mb``: peak resident memory of the pass or its pool workers,
  median over passes.

The share of failed ops is the result's ``failed`` / ``attempted`` and is
printed as ``fail_frac``.  With ``--trace 1`` passes alternate untraced and
traced, and the metrics are the per-layer ones of ``layers.py``, including
the tracing overhead.  Lines before the last one start with ``#`` and record
the environment and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SPAWNS = 7
PASS_TIMEOUT_S = 150
P_TAIL = 0.90


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def _spawn(args: list[str]) -> tuple[float, dict | None]:
    """Run one worker process to completion; (spawn time, its JSON or None).
    The worker leads its own process group so a timeout also ends its pool."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"# worker timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return t_spawn, None
    if proc.returncode != 0:
        sys.stderr.write(err)
        return t_spawn, None
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def environment(args, n_ops: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "resfin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "ops_per_pass": n_ops,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "cpu": cpu, "commit": commit, "source_sha256": src.hexdigest()[:16],
        "load_model": "closed loop, 1 client, next op after the previous returns; "
                      "each pass a fresh python process; growth ops use a pool of nproc workers",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "resfin", "cli.py")):
        print(f"error: no resfin sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    n_ops = len(workloads.build_ops(args.workload, args.seed, args.size))
    env = environment(args, n_ops)
    print("# env " + json.dumps(env), flush=True)

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    tmp = os.path.join(tmp_root, str(os.getpid()))
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size, "--tmp", tmp]
    try:
        setup, passes, traced, lost = [], [], [], 0
        for _ in range(SETUP_SPAWNS):
            t_spawn, got = _spawn(base + ["--setup-only"])
            if got is None:
                lost += 1
            else:
                setup.append(got["ready"] - t_spawn)

        start = time.monotonic()
        while True:
            for trace_pass in ((False, True) if args.trace else (False,)):
                t_spawn, got = _spawn(base + (["--trace"] if trace_pass else []))
                if got is None:
                    lost += 1
                    continue
                setup.append(got["ready"] - t_spawn)
                (traced if trace_pass else passes).append(got)
            done = passes + traced
            elapsed = time.monotonic() - start
            per_round = elapsed / max(1, len(passes))
            if not done or elapsed + per_round > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(tmp_root) and not os.listdir(tmp_root):
            os.rmdir(tmp_root)

    attempted = n_ops * (len(passes) + len(traced) + lost)
    failures = [(label, reason) for p in passes + traced for label, _, reason in p["ops"] if reason]
    failed = len(failures) + n_ops * lost
    for label, reason in failures[:20]:
        print(f"# FAIL {label}: {reason}")
    correct = failed == 0 and bool(passes)

    e2e = {}
    if passes:
        lat = [t for p in passes for _, t, _ in p["ops"]]
        e2e = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "op_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
            "op_p90_ms": (percentile(lat, P_TAIL) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    print(f"# passes={len(passes)} traced={len(traced)} lost={lost} ops_per_pass={n_ops} "
          f"beyond_p90={samples_beyond(n_ops, P_TAIL)} fail_frac={failed / max(1, attempted):.6g}")
    print("# pass wall_s: " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    for name, (value, unit) in e2e.items():
        print(f"# {name} = {value:.6g} {unit}")

    metrics = {}
    if args.trace == 0:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    elif traced and passes:
        # times are medians over traced passes; counts repeat exactly, so take the first
        values = {name: statistics.median(t["layers"][name] for t in traced) if unit == "s"
                  else traced[0]["layers"][name]
                  for name, unit, _, _ in layers.LAYER_METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = values["trace.wall_s"] - e2e["wall_s"][0]
        for name, unit, _, target in layers.LAYER_METRICS:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"# {name} = {values[name]:.6g} {unit}  (-> {target})")
        for name, secs in traced[0]["top_self_s"]:
            print(f"# top self time: {name} {secs:.4f} s")
    if not metrics:
        correct = False
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
