"""Record reference.json: the expected exit code, stdout digest and stderr of
every catalogue instance the workloads can draw, plus a digest per
``candidates`` row for k in 10..2000 and each group.  Verify instances are
also run with a second ``--seed`` to confirm their output ignores it.

    python3 perfbench/record_reference.py

Run it on a commit whose outputs are trusted; a later commit is then checked
against those outputs whatever seed a run uses.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_cli  # noqa: E402


def catalogue_ops() -> list[list[str]]:
    argvs = []
    for n, words in workloads.dq_catalogue().items():
        for text in words:
            base = ["dq", "--group", f"sl{n}", f"--matrix={text}"]
            argvs += [base, base + ["--allow-central"]]
    argvs += [op["argv"] for op in workloads.growth_catalogue()]
    cat = workloads.structure_catalogue()
    argvs += [op["argv"] for op in cat["fixed"] + cat["draw"] if op["kind"] == "cli"]
    argvs += [op["argv"] for op in workloads.EXAMPLES]
    return argvs


def main() -> int:
    from resfin import cli

    ref: dict = {"ops": {}, "candidates": {}}
    for argv in catalogue_ops():
        res = run_cli(cli, argv)
        if res["exc"] or res["rc"] == 3:
            raise SystemExit(f"catalogue op failed, not recorded: {argv} {res['exc'] or res['err']}")
        if argv[0] == "verify":  # workloads pass a seeded --seed; output must not see it
            other = run_cli(cli, argv + ["--seed", "987654321"])
            if (other["rc"], other["out"], other["err"]) != (res["rc"], res["out"], res["err"]):
                raise SystemExit(f"output depends on --seed, not usable: {argv}")
        ref["ops"][checks.ref_key(argv)] = {
            "rc": res["rc"], "out": checks.digest(res["out"]), "err": res["err"],
        }
    lo, hi = workloads.CAND_K_LO, workloads.CAND_K_HI
    for group in ("sl2", "sl3", "sl4"):
        res = run_cli(cli, ["candidates", "--group", group, "--k", f"{lo}..{hi}"])
        lines = res["out"].splitlines()
        ref["candidates"][group] = {
            "k_lo": lo, "header": checks.digest(lines[0]),
            "rows": [checks.digest(line) for line in lines[1:]],
        }
        print(f"{group}: {len(lines) - 1} candidate rows", file=sys.stderr)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(ref['ops'])} instances -> {checks.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
