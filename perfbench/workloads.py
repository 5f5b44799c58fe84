"""Seeded op lists for the three benchmark workloads.

An op is a JSON-able dict with a ``kind``:

- ``cli``: ``resfin.cli.main(argv)`` run in-process, stdout/stderr captured;
- ``fit``: ``resfin fit <csv>`` on the output of an earlier ``candidates`` op
  (``src`` is that op's index);
- ``word``: library ``short_unipotent_word`` + ``evaluate_word`` for E_13(z);
- ``enum``: library ``enumerate_group`` of SL_n(Z/m), an order check.

Every workload draws from a fixed catalogue with ``random.Random(seed)``, so
the same seed gives the same list and the reference in ``reference.json``
covers every catalogue instance whatever the seed.  Each draw is stratified:
every pass holds the same number of ops of each cost class, so that the
seed moves which instances run and in what order, not how much work a pass
is.

Module import does no work; callers build op lists with ``build_ops``.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("detect", "structure", "rings")

# The growth ops run the process-pool path the way a user's default does.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def _cli(*argv: str) -> dict:
    return {"kind": "cli", "argv": list(argv)}


# ---------------------------------------------------------------------------
# detect


DQ_CATALOGUE_SEED = 20101008
DQ_WORDS_PER_GROUP = 120
CAND_K_LO, CAND_K_HI = 10, 2000
MATERIALIZED_K_MAX = 40


def _dq_word(n: int, rng: random.Random) -> str:
    """A random product of elementary generators E_ij(+-1), not the identity."""
    while True:
        a = [[int(r == c) for c in range(n)] for r in range(n)]
        for _ in range(rng.randint(4, 14 if n == 2 else 10)):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((1, -1))
            for r in range(n):  # right-multiply by E_ij(s): column j += s * column i
                a[r][j] += s * a[r][i]
        if any(a[r][c] != int(r == c) for r in range(n) for c in range(n)):
            return ";".join(",".join(str(x) for x in row) for row in a)


def dq_catalogue() -> dict[int, list[str]]:
    """The fixed SL2/SL3/SL4 word catalogue, matrix text per group size."""
    rng = random.Random(DQ_CATALOGUE_SEED)
    return {n: [_dq_word(n, rng) for _ in range(DQ_WORDS_PER_GROUP)] for n in (2, 3, 4)}


def growth_catalogue(threads: int = NPROC) -> list[dict]:
    t = str(threads)
    return [
        _cli("growth", "--group", "sl2", "--gens", "st", "--n-max", "12", "--threads", t),
        _cli("growth", "--group", "sl2", "--gens", "st", "--n-max", "13", "--threads", t),
        _cli("growth", "--group", "sl2", "--gens", "st", "--n-max", "14", "--threads", t),
        _cli("growth", "--group", "sl3", "--gens", "elementary", "--n-max", "4", "--threads", t),
        _cli("growth", "--group", "sl3", "--gens", "elementary", "--n-max", "4",
             "--power", "2", "--threads", t),
        _cli("growth", "--group", "sl3", "--gens", "elementary", "--n-max", "4",
             "--allow-central", "--threads", t),
    ]


def _detect(rng: random.Random, size: str) -> list[dict]:
    tiny = size == "tiny"
    groups = ("sl2", "sl3", "sl4")
    ops: list[dict] = []

    # dq: a seeded draw of catalogue words, plain and with --allow-central
    cat = dq_catalogue()
    per_group = 4 if tiny else 32
    for n in (2, 3, 4):
        for t, idx in enumerate(rng.sample(range(DQ_WORDS_PER_GROUP), per_group)):
            op = _cli("dq", "--group", f"sl{n}", f"--matrix={cat[n][idx]}")
            if t % 2:
                op["argv"].append("--allow-central")
            ops.append(op)

    # candidate sweep: one window per band of 10..2000, each followed by a fit;
    # band 0 stays at k <= 40 plus margin so the materialized oracle applies
    bands, width = (2, 8) if tiny else (8, 75)
    step = (CAND_K_HI - CAND_K_LO + 1) // bands
    sweep: list[dict] = []
    for b in range(bands):
        lo = CAND_K_LO + b * step
        start = CAND_K_LO if b == 0 else rng.randint(lo, lo + step - width)
        group = groups[rng.randrange(3)]
        sweep.append(_cli("candidates", "--group", group, "--k", f"{start}..{start + width - 1}"))

    growth_ops = growth_catalogue()
    if tiny:
        growth_ops = [growth_ops[0], growth_ops[3]]

    words = [
        {"kind": "word", "n": 3, "z": rng.randint(10**8, 10**9) if tiny else rng.randint(10**17, 10**18)}
        for _ in range(2 if tiny else 10)
    ]

    heavy = sweep + growth_ops + words
    rng.shuffle(heavy)
    rng.shuffle(ops)
    # interleave the heavy ops into the dq stream; each sweep is followed by its fit
    out: list[dict] = []
    gap = max(1, len(ops) // len(heavy))
    for i, op in enumerate(heavy):
        out.extend(ops[i * gap:(i + 1) * gap])
        out.append(op)
        if op["kind"] == "cli" and op["argv"][0] == "candidates":
            out.append({"kind": "fit", "src": len(out) - 1})
    out.extend(ops[len(heavy) * gap:])
    return out


# ---------------------------------------------------------------------------
# structure


def structure_catalogue() -> dict[str, list[dict]]:
    """Verify instances and order checks over SL2/SL3 at small moduli.

    ``fixed`` holds the heavy instances (the pair scans, the normal-subgroup
    lattice and the closures each take a fifth or more of a pass); ``draw``
    the cheap ones.  p in {2, 3} instances are excluded primes and some of
    them fail by design; reference.json holds the verdicts.
    """
    v = lambda *a: _cli("verify", *a)  # noqa: E731
    fixed = [
        v("--suite", "moy-prasad", "--group", "sl2", "--p", "3", "--k", "2"),
        v("--suite", "moy-prasad", "--group", "sl2", "--p", "2", "--k", "3"),
        v("--suite", "moy-prasad", "--group", "sl2", "--p", "2", "--k", "2..3"),
        v("--suite", "normal-subgroups", "--group", "sl2", "--modulus", "13"),
        v("--suite", "normal-subgroups", "--group", "sl2", "--modulus", "11"),
        v("--suite", "normal-subgroups", "--group", "sl2", "--modulus", "9"),
        v("--suite", "normal-subgroups", "--group", "sl2", "--modulus", "8"),
        v("--suite", "normal-subgroups", "--group", "sl3", "--modulus", "2"),
        v("--suite", "strong-approx", "--group", "sl3", "--level", "1", "--modulus", "3"),
        v("--suite", "strong-approx", "--group", "sl2", "--level", "5", "--modulus", "9"),
        v("--suite", "adjoint", "--group", "sl3", "--p", "5"),
        v("--suite", "centerless", "--group", "sl2", "--modulus", "13"),
        {"kind": "enum", "n": 2, "m": 17},
        {"kind": "enum", "n": 2, "m": 19},
    ]
    draw = [
        v("--suite", "moy-prasad", "--group", "sl2", "--p", "2", "--k", "2"),
        *(v("--suite", "normal-subgroups", "--group", "sl2", "--modulus", str(m)) for m in (3, 4, 5, 7)),
        *(v("--suite", "centerless", "--group", "sl2", "--modulus", str(m)) for m in (4, 5, 6, 7, 8, 9)),
        v("--suite", "centerless", "--group", "sl3", "--modulus", "2"),
        *(v("--suite", "adjoint", "--group", "sl2", "--p", str(p)) for p in (2, 3, 5, 7, 11, 13)),
        *(v("--suite", "strong-approx", "--group", "sl2", "--level", "1", "--modulus", str(m))
          for m in (5, 7, 8, 9)),
        v("--suite", "strong-approx", "--group", "sl2", "--level", "3", "--modulus", "8"),
        *({"kind": "enum", "n": 2, "m": m} for m in (4, 5, 6, 7, 8, 9, 10, 11, 12)),
        {"kind": "enum", "n": 3, "m": 2},
    ]
    return {"fixed": fixed, "draw": draw}


def _structure(rng: random.Random, size: str) -> list[dict]:
    """Every fixed instance once and every draw instance three times, in
    seeded order; each verify op gets a seeded ``--seed`` for the checks'
    own sampling (verdicts and output do not depend on it)."""
    cat = structure_catalogue()
    if size == "tiny":
        ops = rng.sample(cat["draw"], 8)
    else:
        ops = cat["fixed"] + cat["draw"] * 3
    ops = [dict(op) for op in ops]
    rng.shuffle(ops)
    for op in ops:
        if op["kind"] == "cli":
            op["argv"] = op["argv"] + ["--seed", str(rng.randrange(2**31))]
    return ops


# ---------------------------------------------------------------------------
# rings


RINGS = (
    "f=1,0,1",             # Z[i]
    "f=-2,0,1",            # Z[sqrt 2]
    "f=-2,0,0,1",          # x^3 - 2
    "f=1,0,0,0,1",         # x^4 + 1
    "f=1,-1,0,0,0,1",      # x^5 - x + 1, sparse split primes
    "f=1,0,1;invert=5",    # Z[i][1/5]
)
RING_M_MAX = 20000
LCM_K_LOW = (1000, 1200)
LCM_K_HIGH = (2700, 3000)

EXAMPLES = (
    _cli("examples", "--group", "lamplighter", "--k", "2..16"),
    _cli("examples", "--group", "lamplighter", "--k", "2..24"),
    _cli("examples", "--group", "semidirect", "--k", "2..12"),
    _cli("examples", "--group", "semidirect", "--k", "2..16"),
    _cli("examples", "--group", "abelian", "--k", "2..32"),
    _cli("examples", "--group", "abelian", "--k", "2..64"),
)


def ring_degree(ring: str) -> int:
    return len(ring.split(";")[0].split("=")[1].split(",")) - 1


def ring_op(ring: str, coords: list[int], lcm_k: int = 0) -> dict:
    """A ``ring`` op; with lcm_k the element is lcm(1..lcm_k) * coords."""
    mult = math.lcm(*range(1, lcm_k + 1)) if lcm_k else 1
    element = ",".join(str(c * mult) for c in coords)
    op = _cli("ring", f"--ring={ring}", f"--element={element}", f"--m-max={RING_M_MAX}")
    op["lcm_k"] = lcm_k
    return op


def _rings(rng: random.Random, size: str) -> list[dict]:
    tiny = size == "tiny"
    ops: list[dict] = []
    for ring in RINGS:
        d = ring_degree(ring)

        def coords() -> list[int]:
            while True:
                c = [rng.randint(-10**6, 10**6) for _ in range(d)]
                if any(c):
                    return c

        for _ in range(2 if tiny else 15):
            ops.append(ring_op(ring, coords()))
        bands = [(50, 100)] if tiny else [LCM_K_LOW, LCM_K_HIGH]
        for lo, hi in bands:
            ops.append(ring_op(ring, coords(), lcm_k=rng.randint(lo, hi)))
    ops.extend(dict(op) for op in (EXAMPLES[::2] if tiny else EXAMPLES))
    rng.shuffle(ops)
    return ops


def build_ops(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The op list of one pass; the same (workload, seed, size) gives the same list."""
    makers = {"detect": _detect, "structure": _structure, "rings": _rings}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    return makers[workload](random.Random(f"{workload}:{seed}"), size)
