"""Tests for the lamplighter and semidirect counterexample families.

Detection values were derived by folding the candidates through every small
quotient in the family (the scan oracles below); the abelian values are
checked against literal enumeration of finite-index subgroups.
"""

import itertools
import math
import random

import pytest

from resfin import arith
from resfin import counterexamples as cx
from resfin import matgrp
from resfin.chevalley import CheckResult
from resfin.matgrp import BudgetExceededError, UndetectableError


class TestLampElement:
    def test_candidate_support(self):
        g = cx.lamp_candidate(2)
        assert (sorted(g.support), g.shift) == ([1, 3], 0)
        assert sorted(cx.lamp_candidate(4).support) == [1, 13]
        assert sorted(cx.lamp_candidate(4, corrected=False).support) == [1, 12]

    def test_identity_and_inverse(self):
        a = cx.LampElement(frozenset({0, 2}), 5)
        assert (a * a.inv()).is_identity()
        assert (a.inv() * a).is_identity()
        assert cx.LAMP_IDENTITY.is_identity()
        assert (a * cx.LAMP_IDENTITY) == a

    def test_associativity_sample(self):
        rng = random.Random(0)
        for _ in range(1000):
            x, y, z = (
                cx.LampElement(
                    frozenset(rng.sample(range(-8, 9), rng.randrange(0, 4))),
                    rng.randrange(-5, 6),
                )
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            cx.lamp_candidate(1)


class TestFolding:
    def test_homomorphism(self):
        rng = random.Random(1)
        for _ in range(200):
            x = cx.LampElement(
                frozenset(rng.sample(range(-20, 21), rng.randrange(0, 5))),
                rng.randrange(-9, 10),
            )
            y = cx.LampElement(
                frozenset(rng.sample(range(-20, 21), rng.randrange(0, 5))),
                rng.randrange(-9, 10),
            )
            for m in range(2, 21):
                assert cx.lamp_fold(x * y, m) == cx.folded_mul(
                    cx.lamp_fold(x, m), cx.lamp_fold(y, m), m
                )

    def test_fold_collapses_pairs(self):
        g = cx.delta(1) * cx.delta(7)
        assert cx.lamp_fold(g, 6) == (frozenset(), 0)
        assert cx.lamp_fold(g, 4) == (frozenset({1, 3}), 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cx.lamp_fold(cx.delta(1), 1)


class TestLampDetection:
    def test_frozen_values(self):
        assert cx.lamp_quotient_D(2) == cx.Detection(3, 24)
        assert cx.lamp_quotient_D(4) == cx.Detection(5, 160)
        assert cx.lamp_quotient_D(10) == cx.Detection(11, 22528)

    def test_analytic_matches_scan(self):
        for k in range(2, 21):
            assert cx.lamp_quotient_D(k) == cx.lamp_detect(cx.lamp_candidate(k))

    def test_uncorrected_candidate_is_cheap(self):
        # the whole point of the correction: the literal candidate falls to
        # the parity fold m = 2 as soon as the lcm is even
        for k in (2, 4, 10):
            assert cx.lamp_quotient_D(k, corrected=False) == cx.Detection(2, 8)
        for k in range(2, 13):
            assert cx.lamp_quotient_D(k, corrected=False) == cx.lamp_detect(
                cx.lamp_candidate(k, corrected=False)
            )

    def test_detect_errors(self):
        with pytest.raises(UndetectableError):
            cx.lamp_detect(cx.LAMP_IDENTITY)
        with pytest.raises(BudgetExceededError):
            cx.lamp_detect(cx.lamp_candidate(3), m_max=3)

    def test_lower_bound_certificates(self):
        for k in range(2, 65):
            order = cx.lamp_quotient_D(k).order
            assert order >= (k // 4) ** 2
            assert order >= 2**k


class TestInjectivityCertificate:
    def test_passes_at_detecting_moduli(self):
        r = cx.lamp_injectivity_certificate(8, 11)
        assert r.passed and "4 distinct" in r.detail
        r = cx.lamp_injectivity_certificate(12, 13)
        assert r.passed and "9 distinct" in r.detail

    def test_axis_product_matches_materialized_images(self):
        # oracle: fold every witness (delta_n, t) and count distinct images
        for k in range(4, 64):
            for m in range(k + 1, k + 40):  # a detecting m exceeds k
                if all(e <= arith.lcm_valuation(k, p) for p, e in arith.factorize(m)):
                    continue
                side = k // 4
                images = {
                    cx.lamp_fold(cx.LampElement(frozenset((n,)), t), m)
                    for n in range(1, side + 1)
                    for t in range(1, side + 1)
                }
                status = "pass" if len(images) == side * side else "fail"
                r = cx.lamp_injectivity_certificate(k, m)
                assert (r.status, r.detail) == (
                    status, f"{len(images)} distinct images, expected {side * side}"
                ), (k, m)

    def test_rejections(self):
        with pytest.raises(ValueError):
            cx.lamp_injectivity_certificate(4, 2)  # 2 divides lcm(1..4)
        with pytest.raises(ValueError):
            cx.lamp_injectivity_certificate(3, 5)  # empty witness set


class TestSquaredContrast:
    def test_squares_are_cheap(self):
        # a shifted candidate squares into a configuration detected by the
        # m = 3 fold, far below the candidate's own detection order
        for k in (4, 6, 10):
            g = cx.LampElement(cx.lamp_candidate(k).support, 1)
            sq = cx.lamp_detect(g * g)
            full = cx.lamp_quotient_D(k)
            assert sq == cx.Detection(3, 24)
            assert sq.modulus <= full.modulus
            assert sq.order < full.order


class TestSignedPermutations:
    def test_group_table(self):
        q = cx.SIGNED_PERMUTATIONS
        assert len(q) == 8
        assert matgrp.identity(2) in q
        assert ((1, 0), (0, -1)) in q
        assert ((0, 1), (1, 0)) in q
        for a in q:
            assert abs(matgrp.det(a)) == 1
            for b in q:
                assert matgrp.mat_mul(a, b) in q


class TestSemidirectElement:
    def test_frozen_product(self):
        a = cx.SemidirectElement((1, 2), ((1, 0), (0, -1)))
        b = cx.SemidirectElement((3, 4), ((0, 1), (1, 0)))
        ab = a * b
        assert ab.vec == (4, -2)
        assert ab.rot == ((0, 1), (-1, 0))

    def test_inverse_and_associativity(self):
        rng = random.Random(2)
        q = cx.SIGNED_PERMUTATIONS
        for _ in range(500):
            x, y, z = (
                cx.SemidirectElement(
                    (rng.randrange(-9, 10), rng.randrange(-9, 10)),
                    q[rng.randrange(8)],
                )
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)
            assert (x * x.inv()).is_identity()

    def test_rejects_foreign_rotation(self):
        with pytest.raises(ValueError):
            cx.SemidirectElement((0, 0), ((1, 1), (0, 1)))


class TestSemidirectDetection:
    def test_frozen_values(self):
        assert cx.semidirect_quotient_D(2) == cx.Detection(3, 72)
        assert cx.semidirect_quotient_D(4) == cx.Detection(5, 200)
        assert cx.semidirect_quotient_D(6) == cx.Detection(7, 392)

    def test_analytic_matches_scan(self):
        for k in range(2, 21):
            assert cx.semidirect_quotient_D(k) == cx.semidirect_detect(
                cx.semidirect_candidate(k)
            )

    def test_rotation_part_detected_in_q(self):
        g = cx.SemidirectElement((0, 0), ((0, 1), (1, 0)))
        assert cx.semidirect_detect(g) == cx.Detection(1, 8)

    def test_errors_and_bounds(self):
        with pytest.raises(UndetectableError):
            cx.semidirect_detect(cx.SEMIDIRECT_IDENTITY)
        with pytest.raises(ValueError):
            cx.semidirect_candidate(1)
        for k in range(2, 65):
            r = cx.semidirect_quotient_D(k)
            assert r.modulus > k
            assert 4 * r.order >= r.modulus**2


def scan_kernel_structure_check(d, box=2):
    """Oracle: the kernel vectors of the box [-box*d, box*d]^2, found
    through the actual fold map and reduced to a basis, then checked as
    semidirect_kernel_structure_check checks its certificate's basis."""
    span = max(box * d, 2)
    one = matgrp.identity(2)
    vectors = [
        (a, b)
        for a in range(-span, span + 1)
        for b in range(-span, span + 1)
        if cx.semidirect_fold(cx.SemidirectElement((a, b), one), d)[0] == (0, 0)
    ]
    basis = lattice_basis(vectors)
    if basis is None:
        return CheckResult(
            "semidirect_kernel_structure", f"d={d}", "fail", "kernel lattice not of rank 2"
        )
    det = basis[0][0] * basis[1][1]
    contains = cx._in_lattice((d, 0), basis) and cx._in_lattice((0, d), basis)
    stable = all(
        cx._in_lattice(cx._apply(q, v), basis) for q in cx.SIGNED_PERMUTATIONS for v in basis
    )
    index = d * d // det if contains else 0
    ok = contains and stable and 1 <= index <= 4
    return CheckResult(
        "semidirect_kernel_structure",
        f"d={d}",
        "pass" if ok else "fail",
        f"basis={basis}, index of dZxdZ = {index}, Q-stable={stable}",
    )


def lattice_basis(vectors):
    """Oracle: reduce integer vectors to a basis ((g, y), (0, c)) with
    g, c > 0 and 0 <= y < c, or None when they do not span rank 2."""
    vs = [list(v) for v in vectors if v != (0, 0)]
    while True:
        nz = [v for v in vs if v[0] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda v: abs(v[0]))
        pivot = nz[0]
        for v in nz[1:]:
            q = v[0] // pivot[0]
            v[0] -= q * pivot[0]
            v[1] -= q * pivot[1]
    first = next((v for v in vs if v[0] != 0), None)
    rest = [v[1] for v in vs if v[0] == 0 and v[1] != 0]
    if first is None or not rest:
        return None
    if first[0] < 0:
        first = [-first[0], -first[1]]
    c = math.gcd(*rest) if len(rest) > 1 else abs(rest[0])
    return (first[0], first[1] % c), (0, c)


def kernel_basis_scan(d, u1, u2):
    """Oracle: the O(d) Hermite basis of {(a, b) : a u1 + b u2 = 0 mod d}.
    c = d / gcd(d, u2) is the order of u2; the least g >= 1 with -g u1 a
    multiple of u2 is found by walking g up, and y by a table of the c
    multiples of u2."""
    c = d // math.gcd(d, *u2)
    multiples = {(y * u2[0] % d, y * u2[1] % d): y for y in range(c)}
    g = 1
    while (target := (-g * u1[0] % d, -g * u1[1] % d)) not in multiples:
        g += 1
    return (g, multiples[target]), (0, c)


class TestKernelStructure:
    def test_family_kernels_are_exact(self):
        for d in (1, 2, 5, 7):
            r = cx.semidirect_kernel_structure_check(d)
            assert r.passed
            assert "index of dZxdZ = 1" in r.detail

    def test_certificate_matches_box_scan(self):
        # a scan costs (2 box d + 1)^2 folds: every box up to d = 30, then
        # box 1 at the prime powers, the moduli the semidirect rows use
        for d in range(1, 101):
            boxes = (1, 2, 3) if d <= 30 else (1,) if arith.is_prime_power(d) else ()
            for box in boxes:
                assert cx.semidirect_kernel_structure_check(d) == scan_kernel_structure_check(
                    d, box
                ), (d, box)

    def test_kernel_basis_matches_brute_force(self):
        # every (u1, u2) in (Z/d)^2 x (Z/d)^2 for d <= 6, seeded ones to 30
        rng = random.Random(7)
        cases = [
            (d, (a, b), (c, e))
            for d in range(1, 7)
            for a, b, c, e in itertools.product(range(d), repeat=4)
        ]
        for d in range(7, 31):
            cases += [
                (d, (rng.randrange(d), rng.randrange(d)), (rng.randrange(d), rng.randrange(d)))
                for _ in range(40)
            ]
        for d, u1, u2 in cases:
            kernel = [
                (a, b)
                for a in range(-d, d + 1)
                for b in range(-d, d + 1)
                if (a * u1[0] + b * u2[0]) % d == 0 and (a * u1[1] + b * u2[1]) % d == 0
            ]
            assert cx._kernel_basis(d, u1, u2) == lattice_basis(kernel), (d, u1, u2)

    def test_kernel_basis_matches_scan(self):
        # every (u1, u2) in (Z/d)^2 x (Z/d)^2 for d <= 12, seeded ones to 500
        for d in range(1, 13):
            for a, b, c, e in itertools.product(range(d), repeat=4):
                assert cx._kernel_basis(d, (a, b), (c, e)) == kernel_basis_scan(d, (a, b), (c, e))
        rng = random.Random(12)
        for _ in range(300):
            d = rng.randint(1, 500)
            u1 = (rng.randrange(d), rng.randrange(d))
            u2 = (rng.randrange(d), rng.randrange(d))
            assert cx._kernel_basis(d, u1, u2) == kernel_basis_scan(d, u1, u2), (d, u1, u2)

    def test_in_lattice_checks_the_first_coordinate(self):
        assert not cx._in_lattice((1, 0), ((2, 0), (0, 2)))
        assert cx._in_lattice((2, 0), ((2, 0), (0, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            cx.semidirect_kernel_structure_check(0)


def _least_missing_index_z2(v, max_index):
    """Oracle: smallest index of a subgroup of Z^2 avoiding v, by literal
    enumeration of Hermite bases ((a, 0), (b, d)) with a*d = index."""
    for index in range(2, max_index + 1):
        for a in range(1, index + 1):
            if index % a:
                continue
            d = index // a
            for b in range(a):
                if v[1] % d:
                    continue
                if (v[0] - (v[1] // d) * b) % a:
                    return index
    return None


class TestAbelian:
    def test_frozen_values(self):
        assert cx.abelian_D((6, 0)) == cx.Detection(4, 4)
        assert cx.abelian_D((1, 1)) == cx.Detection(2, 2)
        assert cx.abelian_D((12,)) == cx.Detection(5, 5)

    def test_zero_rejected(self):
        with pytest.raises(UndetectableError):
            cx.abelian_D((0, 0))

    def test_matches_subgroup_enumeration(self):
        for v in ((6, 0), (1, 1), (4, 6), (2, 2), (30, 12)):
            assert cx.abelian_D(v).order == _least_missing_index_z2(v, 12)
        # rank one: subgroups are nZ, so the oracle is direct divisibility
        for x in (12, 7, 60):
            expect = next(n for n in range(2, 20) if x % n)
            assert cx.abelian_D((x,)).order == expect
