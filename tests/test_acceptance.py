"""Acceptance suite: the twelve headline guarantees, one test and one
printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; each test
also enforces its stated wall-clock budget.
"""

import io
import math
import random
import sys
import time

from resfin import cli, counterexamples, growth, matgrp, numring
from resfin import chevalley
from resfin.chevalley import GroupSpec

SL2 = GroupSpec(2)
SL3 = GroupSpec(3)
SL4 = GroupSpec(4)


def report(num: int, desc: str, ok: bool, extra: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if extra:
        line += f" [{extra}]"
    print(line)
    assert ok, line


def test_criterion_01_congruence_d_matches_oracle():
    rng = random.Random(20260822)
    elements = []
    while len(elements) < 100:
        a = matgrp.identity(2)
        for _ in range(rng.randrange(2, 7)):
            z = rng.choice([-3, -2, -1, 1, 2, 3])
            pos = (1, 2) if rng.random() < 0.5 else (2, 1)
            a = matgrp.mat_mul(a, matgrp.elementary(2, *pos, z))
        if a == matgrp.identity(2):
            continue
        if max(abs(x) for row in a for x in row) > 50:
            continue
        elements.append(a)
    t0 = time.time()
    ok = True
    for a in elements:
        fast = matgrp.congruence_D(a, SL2)
        slow = matgrp.brute_force_D(a, SL2, m_max=200)
        if (fast.modulus, fast.quotient_order) != (slow.modulus, slow.quotient_order):
            ok = False
            break
    elapsed = time.time() - t0
    report(
        1,
        "congruence_D equals the all-moduli oracle on 100 random elements",
        ok and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_order_formula_matches_enumeration():
    t0 = time.time()
    ok = True
    for spec, moduli in ((SL2, (2, 3, 4, 5, 8, 9, 25)), (SL3, (2, 3, 4))):
        for m in moduli:
            if len(chevalley.enumerate_group(spec, m)) != spec.order_mod(m):
                ok = False
    elapsed = time.time() - t0
    report(
        2,
        "order_mod equals exhaustive enumeration for SL2 and SL3 moduli",
        ok and elapsed < 300,
        f"{elapsed:.1f}s",
    )


def test_criterion_03_graded_pieces_are_the_lie_algebra():
    t0 = time.time()
    results = []
    for p in (3, 5, 7):
        for k in (2, 3):
            for i in range(1, k):
                results.append(chevalley.moy_prasad_check(SL2, p, k, i))
            results.append(chevalley.commutator_filtration_check(SL2, p, k))
    for p in (2, 3):
        results.append(chevalley.moy_prasad_check(SL3, p, 2, 1))
        results.append(chevalley.commutator_filtration_check(SL3, p, 2))
    elapsed = time.time() - t0
    modes = sorted({r.mode.split(";")[0] for r in results})
    report(
        3,
        "filtration quotients and commutator containment across SL2, SL3",
        all(r.passed for r in results),
        f"{len(results)} checks, modes {modes}, {elapsed:.1f}s",
    )


def test_criterion_04_normal_subgroups_mod_25():
    t0 = time.time()
    table = chevalley.enumerate_group(SL2, 25)
    subs = chevalley.normal_subgroups_containing_center(table)
    predicted = chevalley.filtration_center_subgroups(table)
    elapsed = time.time() - t0
    ok = (
        subs == predicted
        and [len(s) for s in subs] == [2, 250, 15000]
        and elapsed < 600
    )
    report(
        4,
        "normal subgroups of SL2(Z/25) above the center are Z, G^1 Z, G",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_05_adjoint_irreducibility_boundary():
    good = [
        chevalley.adjoint_irreducibility_check(SL2, 5),
        chevalley.adjoint_irreducibility_check(SL2, 7),
        chevalley.adjoint_irreducibility_check(SL3, 5),
    ]
    bad = chevalley.adjoint_irreducibility_check(SL2, 2)
    report(
        5,
        "adjoint action irreducible away from the excluded primes, not at p=2",
        all(r.passed for r in good) and bad.status == "fail",
        f"modes {sorted({r.mode for r in good})}",
    )


def test_criterion_06_growth_exponent_is_dim():
    t0 = time.time()
    ok = True
    slopes = {}
    for spec, dim in ((SL3, 8), (SL2, 3), (SL4, 15)):
        cs = growth.CandidateSeq(spec)
        pairs = []
        for k in range(10, 2001):
            r = growth.candidate_D_analytic(cs, k)
            pairs.append((k, r.quotient_order))
        fit = growth.fit_exponent(pairs)
        slopes[spec.name] = round(fit.slope, 3)
        if abs(fit.slope - dim) > 0.8:
            ok = False
    for spec in (SL2, SL3):
        cs = growth.CandidateSeq(spec)
        for k in range(1, 41):
            analytic = growth.candidate_D_analytic(cs, k)
            direct = matgrp.congruence_D(growth.candidate_elements(cs, k), spec)
            if (analytic.modulus, analytic.quotient_order) != (
                direct.modulus, direct.quotient_order
            ):
                ok = False
    elapsed = time.time() - t0
    report(
        6,
        "fitted exponents near dim(G) and analytic D equals direct D",
        ok and elapsed < 30,
        f"slopes {slopes}, {elapsed:.1f}s",
    )


def test_criterion_07_split_prime_detection_is_log_size():
    t0 = time.time()
    rng = random.Random(41)
    ok = True
    fitted = {}
    for ring in (numring.GAUSSIAN, numring.SQRT2):
        ratios = []
        count = 0
        while count < 100:
            coords = (
                rng.randrange(-(10**6), 10**6 + 1),
                rng.randrange(-(10**6), 10**6 + 1),
            )
            if max(abs(c) for c in coords) < 2:
                continue
            count += 1
            a = ring.element(coords)
            split = numring.detect_split(a)
            ideal = numring.min_detecting_ideal(a)
            if ideal.norm > split.prime:
                ok = False
            ratios.append(split.prime / math.log(max(abs(c) for c in coords)))
        fitted[ring.name] = round(max(ratios), 2)
    elapsed = time.time() - t0
    report(
        7,
        "split-prime detection at log size, ideal minimum never larger",
        ok and elapsed < 60,
        f"fitted C {fitted}, {elapsed:.1f}s",
    )


def test_criterion_08_exact_growth_table():
    plain = growth.farb_growth(growth.sl2_st(), SL2, 8)
    squared = growth.farb_growth(growth.sl2_st(), SL2, 4, k=2)
    values = [row.f_value for row in plain.rows]
    ok = (
        plain.f(1) == 6
        and plain.f(2) == 24
        and all(a <= b for a, b in zip(values, values[1:]))
        and all(squared.f(n) <= plain.f(2 * n) for n in range(5))
    )
    report(8, "F(1)=6, F(2)=24, monotone, and F^2(n) <= F(2n)", ok, f"F {values}")


def test_criterion_09_counterexample_certificates():
    t0 = time.time()
    ok = True
    for k in range(2, 65):
        lamp = counterexamples.lamp_quotient_D(k)
        if lamp.order < max((k // 4) ** 2, 2**k):
            ok = False
        if k >= 4:
            cert = counterexamples.lamp_injectivity_certificate(k, lamp.modulus)
            if not cert.passed:
                ok = False
        semi = counterexamples.semidirect_quotient_D(k)
        if not (semi.modulus > k and semi.order == 8 * semi.modulus**2):
            ok = False
        if 4 * semi.order < semi.modulus**2:
            ok = False
    for d in sorted({counterexamples.semidirect_quotient_D(k).modulus for k in range(2, 65)}):
        if not counterexamples.semidirect_kernel_structure_check(d).passed:
            ok = False
    elapsed = time.time() - t0
    report(
        9,
        "wreath and semidirect candidates carry their certified lower bounds",
        ok and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_10_strong_approximation():
    t0 = time.time()
    exact = [chevalley.strong_approx_check(SL2, 1, m) for m in (8, 9, 45)]
    sampled = [
        chevalley.strong_approx_check(SL2, N, m, trials=64, seed=0)
        for N, m in ((2, 9), (3, 25), (4, 9))
    ]
    elapsed = time.time() - t0
    ok = all(r.status == "pass" for r in exact + sampled)
    report(
        10,
        "congruence subgroups surject onto coprime congruence quotients",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_11_short_unipotent_words():
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    worst = 0.0
    for _ in range(50):
        z = rng.randrange(1, 10**18 + 1)
        word = growth.short_unipotent_word(SL3, z)
        if growth.evaluate_word(3, word) != matgrp.elementary(3, 1, 3, z):
            ok = False
            break
        bound = 4 * (1 + math.log2(z)) ** 2
        worst = max(worst, len(word) / bound)
        if len(word) > bound:
            ok = False
    elapsed = time.time() - t0
    report(
        11,
        "bounded-generation words are exact and quadratically short (C=4)",
        ok and elapsed < 30,
        f"worst length ratio {worst:.2f}, {elapsed:.1f}s",
    )


def _run_cli(argv):
    old = sys.stdout
    sys.stdout = io.StringIO()
    try:
        rc = cli.main(argv)
        return rc, sys.stdout.getvalue()
    finally:
        sys.stdout = old


def test_criterion_12_byte_identical_reruns():
    configs = [
        ["growth", "--group", "sl2", "--n-max", "4", "--format", "json"],
        ["candidates", "--group", "sl3", "--k", "2..25"],
        ["verify", "--suite", "strong-approx", "--group", "sl2",
         "--level", "3", "--modulus", "25", "--seed", "11"],
        ["examples", "--group", "lamplighter", "--k", "2..12"],
    ]
    ok = all(_run_cli(argv) == _run_cli(argv) for argv in configs)
    report(12, "identical config and seed reproduce identical bytes", ok)
