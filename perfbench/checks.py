"""Correctness gate: each op against an oracle or the recorded reference.

Runs after the timed loop.  ``check_op`` returns None for a correct op and a
one-line reason otherwise.  An op fails if it raised, printed a traceback,
exited 3 (budget) or with a code other than the expected one, or gave a
wrong answer.  Where an independent oracle exists it is used:

- ``brute_force_D`` (every modulus, no prime-power shortcut) for plain ``dq``;
- the materialized ``congruence_D`` of A_k for candidate rows with k <= 40;
- ``GroupSpec.order_mod`` against the enumerated table size;
- the ``evaluate_word`` round trip and the 4(1 + log2 z)^2 length bound;
- for ``ring``: the split prime is prime, its root is a root of f, the
  residue is a(root) mod p and nonzero, and ideal.norm <= split.prime.

Everything else (verify verdicts, growth tables, examples, central ``dq``,
candidate rows) is compared with ``reference.json``, recorded per catalogue
instance from the seed commit by ``record_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def ref_key(argv: list[str]) -> str:
    """Reference key of a CLI op.  --threads and the verify --seed are
    dropped: the output of every catalogue instance is independent of them
    (record_reference.py checks this for --seed)."""
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok in ("--threads", "--seed"):
            skip = True
        else:
            out.append(tok)
    return " ".join(out)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _against_reference(argv: list[str], res: dict, ref: dict) -> str | None:
    want = ref["ops"].get(ref_key(argv))
    if want is None:
        return "no reference for this instance"
    if res["rc"] != want["rc"]:
        return f"exit {res['rc']}, reference {want['rc']}"
    if digest(res["out"]) != want["out"]:
        return "stdout differs from reference"
    if res["err"] != want["err"]:
        return "stderr differs from reference"
    return None


def _expect_clean(res: dict) -> str | None:
    if res["rc"] != 0:
        return f"exit {res['rc']}, expected 0"
    if res["err"]:
        return "unexpected stderr"
    return None


# ---------------------------------------------------------------------------
# oracles


def _parse_fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split(","))


def _dq_oracle(argv: list[str], out: str) -> str | None:
    from resfin import matgrp
    from resfin.chevalley import GroupSpec

    a = matgrp.parse_matrix(argv[3].split("=", 1)[1])
    spec = GroupSpec(len(a))
    got = _parse_fields(out.strip())
    m_max = 64
    while True:
        r = matgrp.brute_force_D(a, spec, m_max)
        if r.search_complete:
            break
        m_max *= 2
    if (int(got["modulus"]), int(got["order"])) != (r.modulus, r.quotient_order):
        return f"dq {got} differs from brute force ({r.modulus}, {r.quotient_order})"
    return None


def _candidate_rows(argv: list[str], out: str, ref: dict) -> str | None:
    from resfin import growth, matgrp
    from resfin.chevalley import GroupSpec

    group = argv[argv.index("--group") + 1]
    lo, hi = (int(x) for x in argv[argv.index("--k") + 1].split(".."))
    lines = out.splitlines()
    table = ref["candidates"][group]
    if len(lines) != hi - lo + 2 or digest(lines[0]) != table["header"]:
        return "candidates header or row count wrong"
    cs = growth.CandidateSeq(GroupSpec.from_name(group))
    for k, line in zip(range(lo, hi + 1), lines[1:]):
        if digest(line) != table["rows"][k - int(table["k_lo"])]:
            return f"candidates row k={k} differs from reference"
        if k <= 40:
            _, _, modulus, order = line.split(",")
            r = matgrp.congruence_D(growth.candidate_elements(cs, k), cs.spec)
            if (int(modulus), int(order)) != (r.modulus, r.quotient_order):
                return f"candidates k={k} differs from the materialized A_k"
    return None


def _fit_oracle(csv_text: str, out: str) -> str | None:
    """Own least squares of log(order) on log(k), not statistics.linear_regression."""
    pts = []
    for line in csv_text.splitlines()[1:]:
        k, _, _, order = line.split(",")
        pts.append((math.log(int(k)), math.log(int(order))))
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    intercept = my - slope * mx
    got = json.loads(out)
    if not (math.isclose(got["slope"], slope, rel_tol=1e-9, abs_tol=1e-9)
            and math.isclose(got["intercept"], intercept, rel_tol=1e-9, abs_tol=1e-9)):
        return f"fit slope {got['slope']} differs from least squares {slope}"
    return None


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _horner(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


_RING_OUT = re.compile(
    r"split: prime=(\d+),root=(\d+),residue=(\d+)\n"
    r"ideal: prime=(\d+),factor=[^,]*,norm=(\d+)\n\Z"
)


def _ring_oracle(op: dict, out: str) -> str | None:
    ring = op["argv"][1].split("=", 1)[1]
    f = [int(c) for c in ring.split(";")[0].split("=")[1].split(",")]
    inverted = int(ring.split("invert=")[1]) if "invert=" in ring else 1
    coords = [int(c) for c in op["argv"][2].split("=", 1)[1].split(",")]
    m = _RING_OUT.match(out)
    if not m:
        return "ring output malformed"
    p, root, residue, q, norm = (int(g) for g in m.groups())
    if not _is_prime(p) or inverted % p == 0 or _horner(f, root, p) != 0:
        return f"split prime {p} with root {root} is not a split residue map"
    if residue == 0 or _horner(coords, root, p) != residue:
        return f"residue {residue} is not a nonzero image of the element mod {p}"
    rest, e = norm, 0
    while _is_prime(q) and rest % q == 0:
        rest, e = rest // q, e + 1
    if rest != 1 or e < 1 or norm > p:
        return f"ideal norm {norm} over {q} is not a prime power <= split prime {p}"
    if op["lcm_k"] and min(p, q) <= op["lcm_k"]:
        return f"a multiple of lcm(1..{op['lcm_k']}) cannot survive at {min(p, q)}"
    return None


def _word_oracle(op: dict, res: dict) -> str | None:
    from resfin import matgrp

    z = op["z"]
    if res["matrix"] != matgrp.elementary(op["n"], 1, 3, z):
        return f"word for z={z} does not evaluate to E_13(z)"
    if res["tokens"] > 4 * (1 + math.log2(z)) ** 2:
        return f"word for z={z} has {res['tokens']} tokens, over 4(1+log2 z)^2"
    return None


def _enum_oracle(op: dict, res: dict) -> str | None:
    from resfin.chevalley import GroupSpec

    want = GroupSpec(op["n"]).order_mod(op["m"])
    if res["size"] != want:
        return f"|SL{op['n']}(Z/{op['m']})| enumerated {res['size']}, formula {want}"
    return None


# ---------------------------------------------------------------------------


def check_op(op: dict, res: dict, ref: dict, fit_input: str | None = None) -> str | None:
    """None if the op is correct, else why it failed."""
    if res.get("exc"):
        return f"raised {res['exc']}"
    kind = op["kind"]
    if kind == "word":
        return _word_oracle(op, res)
    if kind == "enum":
        return _enum_oracle(op, res)
    if "Traceback" in res["err"]:
        return "traceback on stderr"
    if res["rc"] == 3:
        return "budget exhausted (exit 3)"
    if kind == "fit":
        return _expect_clean(res) or _fit_oracle(fit_input, res["out"])
    argv = op["argv"]
    cmd = argv[0]
    if cmd == "candidates":
        return _expect_clean(res) or _candidate_rows(argv, res["out"], ref)
    if cmd == "ring":
        return _expect_clean(res) or _ring_oracle(op, res["out"])
    bad = _against_reference(argv, res, ref)
    if bad is None and cmd == "dq" and "--allow-central" not in argv:
        bad = _dq_oracle(argv, res["out"])
    return bad
