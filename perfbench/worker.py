"""One pass of a workload in a fresh Python process.

    python3 perfbench/worker.py --workload W --seed S [--size tiny] [--trace]
                                [--setup-only] --tmp DIR

Imports resfin from the checkout's ``src``, builds the seeded op list, and
prints the monotonic time at which the first op is ready.  Unless
``--setup-only``, it then runs the ops as a closed loop (one client, each op
sent after the previous returns), timing each op, and afterwards checks
every output.  The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def op_label(op: dict) -> str:
    return op["argv"][0] if op["kind"] == "cli" else op["kind"]


def run_cli(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    res = {"rc": None, "exc": None}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            res["rc"] = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        res["rc"] = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a dead pass
        res["exc"] = f"{type(exc).__name__}: {exc}"
    res["latency"] = time.perf_counter() - t0
    res["out"], res["err"] = out.getvalue(), err.getvalue()
    return res


def run_library(fn) -> dict:
    t0 = time.perf_counter()
    try:
        res = fn()
        res["exc"] = None
    except Exception as exc:
        res = {"exc": f"{type(exc).__name__}: {exc}"}
    res["latency"] = time.perf_counter() - t0
    return res


def run_ops(ops: list[dict], tmp: str) -> tuple[list[dict], dict[int, str], float]:
    """The timed closed loop.  Returns per-op results, the CSV text each fit
    op read, and the wall time of the whole list."""
    from resfin import chevalley, cli, growth

    results: list[dict] = []
    fit_inputs: dict[int, str] = {}
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        kind = op["kind"]
        if kind == "cli":
            res = run_cli(cli, op["argv"])
        elif kind == "fit":
            path = os.path.join(tmp, f"cand_{op['src']}.csv")
            with open(path, "w", encoding="utf-8") as fh:  # the user's `> cand.csv`
                fh.write(results[op["src"]]["out"])
            fit_inputs[i] = results[op["src"]]["out"]
            res = run_cli(cli, ["fit", path])
        elif kind == "word":
            def word(op=op):
                w = growth.short_unipotent_word(chevalley.GroupSpec(op["n"]), op["z"])
                return {"tokens": len(w), "matrix": growth.evaluate_word(op["n"], w)}
            res = run_library(word)
        elif kind == "enum":
            res = run_library(lambda op=op: {
                "size": len(chevalley.enumerate_group(chevalley.GroupSpec(op["n"]), op["m"]))
            })
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        results.append(res)
    return results, fit_inputs, time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Larger of this process and its reaped children (the growth pool)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import resfin  # noqa: F401  (setup cost: the package and its modules)
    import workloads

    ops = workloads.build_ops(args.workload, args.seed, args.size)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    os.makedirs(args.tmp, exist_ok=True)
    results, fit_inputs, wall = run_ops(ops, args.tmp)
    rss = peak_rss_mb()
    layers = top = None
    if tracer is not None:
        tracer.uninstall()
        import layers as layer_metrics
        layers = layer_metrics.from_tracer(tracer, [r["latency"] for r in results], wall)
        top = layer_metrics.top_self_times(tracer)

    import checks
    ref = checks.load_reference()
    records = []
    for i, (op, res) in enumerate(zip(ops, results)):
        reason = checks.check_op(op, res, ref, fit_inputs.get(i))
        records.append([op_label(op), res["latency"], reason])
    print(json.dumps({
        "ready": ready, "wall_s": wall, "peak_rss_mb": rss, "ops": records,
        "layers": layers, "top_self_s": top,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
