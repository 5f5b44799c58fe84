"""Tests for SL_n mod m structure: orders, filtration, graded pieces, checks.

Order values were derived from the closed formula and cross-checked against
exhaustive BFS enumeration; the two routes are independent.  The excluded
prime boundary cases (p = 2, 3) appear below with their honestly computed
outcomes, including the instances where the good-prime statements survive
anyway and the first moduli where they break.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resfin import arith, matgrp
from resfin import chevalley as ch
from resfin.chevalley import SL2, SL3, SL4


@pytest.fixture(scope="module")
def t5():
    return ch.enumerate_group(SL2, 5)


@pytest.fixture(scope="module")
def t9():
    return ch.enumerate_group(SL2, 9)


@pytest.fixture(scope="module")
def sl3_f2():
    return ch.enumerate_group(SL3, 2)


class TestGroupSpec:
    def test_orders_over_prime_fields(self):
        assert SL2.order_fp(3) == 24
        assert SL2.order_fp(2) == 6
        assert SL2.order_fp(5) == 120
        assert SL3.order_fp(2) == 168

    def test_orders_mod_prime_powers_and_composites(self):
        assert SL2.order_mod(9) == 648
        assert SL2.order_mod(45) == 77760
        assert SL2.order_mod(1) == 1
        assert SL3.order_mod(4) == 43008

    @given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.sampled_from([5, 7, 9, 11, 16]))
    def test_order_multiplicative_over_coprime_parts(self, a, b):
        import math

        if math.gcd(a, b) != 1:
            return
        assert SL2.order_mod(a * b) == SL2.order_mod(a) * SL2.order_mod(b)

    def test_invariants(self):
        assert (SL2.dim, SL2.rank) == (3, 1)
        assert (SL3.dim, SL3.rank) == (8, 2)
        assert (SL4.dim, SL4.rank) == (15, 3)

    def test_from_name(self):
        assert ch.GroupSpec.from_name("sl2") == SL2
        assert ch.GroupSpec.from_name("SL3") == SL3
        with pytest.raises(ValueError):
            ch.GroupSpec.from_name("so5")
        with pytest.raises(ValueError):
            ch.GroupSpec(1)

    def test_center_order_matches_scalar_scan(self):
        for spec in (SL2, SL3, SL4):
            for m in range(2, 201):
                assert spec.center_order_mod(m) == len(ch.center_scalars(spec, m)), m

    def test_center_order_repeat_reads_the_cache(self, monkeypatch):
        first = {m: SL3.center_order_mod(m) for m in (12, 97, 360, 10**12 + 39)}

        def refuse(m):
            raise AssertionError(f"factorized {m} again")

        monkeypatch.setattr(arith, "factorize", refuse)
        assert {m: SL3.center_order_mod(m) for m in first} == first

    def test_generators(self):
        gens = SL2.elementary_generators()
        assert len(gens) == 4
        assert matgrp.elementary(2, 1, 2, 1) in gens
        assert len(SL3.elementary_generators()) == 12


class TestEnumerate:
    def test_formula_matches_enumeration(self, t5, t9, sl3_f2):
        assert len(t5) == SL2.order_mod(5) == 120
        assert len(t9) == SL2.order_mod(9) == 648
        assert len(sl3_f2) == SL3.order_mod(2) == 168

    def test_composite_modulus(self):
        assert len(ch.enumerate_group(SL2, 12)) == SL2.order_mod(12) == 1152

    def test_budget_rejected_up_front(self):
        with pytest.raises(ch.BudgetExceededError):
            ch.enumerate_group(SL2, 3**8)

    def test_deterministic_order(self, t5):
        again = ch.enumerate_group(SL2, 5)
        assert again.elements == t5.elements
        assert t5.elements[0] == matgrp.identity(2)

    def test_membership_and_inverse(self, t5):
        g = t5.elements[17]
        assert g in t5
        assert matgrp.mat_mul_mod(g, t5.inv(g), 5) == matgrp.identity(2)


class TestCenters:
    def test_center_is_scalars(self, t5, t9):
        assert set(ch.center_of(t9)) == set(ch.center_scalars(SL2, 9))
        assert len(ch.center_of(t9)) == 2
        assert set(ch.center_of(t5)) == {matgrp.identity(2), ((4, 0), (0, 4))}

    def test_trivial_center_mod_2(self):
        assert ch.center_scalars(SL2, 2) == [matgrp.identity(2)]

    def test_sl3_cube_roots_mod_7(self):
        diags = [z[0][0] for z in ch.center_scalars(SL3, 7)]
        assert diags == [1, 2, 4]


def filtration_elements(spec, p, k, i, budget=ch.DEFAULT_ENUM_BUDGET):
    """Oracle: G^i = ker(SL_n(Z/p^k) -> SL_n(Z/p^i)) built directly, no group
    table and no generators.

    Every entry except the last diagonal one runs over its p^(k-i) allowed
    residues; the last diagonal entry is then the unique solution of
    det = 1 mod p^k (see _fix_last_entry).  This realizes
    |G^i| = p^(dim * (k-i)) exactly.
    """
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= i <= k:
        raise ValueError(f"need 1 <= i <= k, got i={i}, k={k}")
    n = spec.n
    q = p**k
    step = p**i
    count = p ** (spec.dim * (k - i))
    if count > budget:
        raise ch.BudgetExceededError(f"|G^{i}| = {count} exceeds budget {budget}")
    residues = range(p ** (k - i))
    positions = [(r, c) for r in range(n) for c in range(n) if (r, c) != (n - 1, n - 1)]
    out = []
    for combo in itertools.product(residues, repeat=len(positions)):
        a = [[0] * n for _ in range(n)]
        for (r, c), x in zip(positions, combo):
            a[r][c] = ((1 if r == c else 0) + step * x) % q
        g = ch._fix_last_entry(a, q)
        # the solved entry automatically lands back in 1 + step*Z
        assert (g[n - 1][n - 1] - 1) % step == 0
        out.append(g)
    assert len(out) == count
    return out


class TestFiltration:
    def test_direct_construction_matches_table(self, t9):
        direct = filtration_elements(SL2, 3, 2, 1)
        assert len(direct) == 27
        assert set(direct) == set(ch.filtration_subgroup(t9, 1))

    def test_sizes_follow_power_law(self):
        # |G^i| = p^(dim * (k - i))
        assert len(filtration_elements(SL2, 5, 2, 1)) == 125
        assert len(filtration_elements(SL2, 3, 3, 2)) == 27
        assert len(filtration_elements(SL2, 3, 3, 1)) == 729

    def test_extreme_levels(self, t9):
        assert len(ch.filtration_subgroup(t9, 0)) == len(t9)
        assert ch.filtration_subgroup(t9, 2) == [matgrp.identity(2)]

    def test_members_have_unit_det(self):
        q = 25
        for g in filtration_elements(SL2, 5, 2, 1):
            assert matgrp.det(g) % q == 1
            assert matgrp.reduce_mod(g, 5) == matgrp.identity(2)

    def test_rejections(self):
        t12 = ch.enumerate_group(SL2, 12)
        with pytest.raises(ValueError):
            ch.filtration_subgroup(t12, 1)
        with pytest.raises(ValueError):
            filtration_elements(SL2, 5, 2, 0)
        with pytest.raises(ch.BudgetExceededError):
            filtration_elements(SL2, 5, 9, 1)


class TestGradedMaps:
    def test_lift_then_image_is_identity_on_sl2_f5(self):
        basis = ch.lie_algebra_basis(SL2, 5)
        for coeffs in itertools.product(range(5), repeat=3):
            x = tuple(
                tuple(
                    sum(c * b[r][s] for c, b in zip(coeffs, basis)) % 5
                    for s in range(2)
                )
                for r in range(2)
            )
            g = ch.lift_from_lie(SL2, 5, 3, 1, x)
            assert ch.graded_image(g, 5, 1) == x

    def test_lift_rejects_nonzero_trace(self):
        with pytest.raises(ValueError):
            ch.lift_from_lie(SL2, 5, 2, 1, ((1, 0), (0, 0)))

    def test_graded_image_requires_congruence(self):
        with pytest.raises(ValueError):
            ch.graded_image(matgrp.elementary(2, 1, 2, 1), 5, 1)

    def test_lie_coords_invert_basis(self):
        for spec, p in [(SL2, 5), (SL3, 2), (SL3, 7)]:
            basis = ch.lie_algebra_basis(spec, p)
            assert len(basis) == spec.dim
            for idx, b in enumerate(basis):
                coords = ch._lie_coords(b, p, spec.n)
                assert coords == [1 if t == idx else 0 for t in range(spec.dim)]


class TestMoyPrasad:
    def test_sl2_small_instance(self):
        r = ch.moy_prasad_check(SL2, 3, 2, 1)
        assert r.passed
        assert r.mode == "exhaustive"
        assert "27" in r.detail

    def test_sl3(self):
        assert ch.moy_prasad_check(SL3, 2, 2, 1).passed

    def test_formerly_sampled_instance_is_exhaustive(self):
        # |G^1| = 5^6: the pair scan sampled here, the certificate does not
        r = ch.moy_prasad_check(SL2, 5, 3, 1)
        assert r.passed
        assert r.mode == "exhaustive"

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            ch.moy_prasad_check(SL2, 3, 2, 0)
        with pytest.raises(ValueError):
            ch.moy_prasad_check(SL2, 3, 2, 2)


class TestCommutatorFiltration:
    def test_sl2(self):
        r = ch.commutator_filtration_check(SL2, 3, 2)
        assert r.passed
        assert "exhaustive" in r.mode

    def test_sl3_exhaustive(self):
        # the pair scan sampled (0,1) on both; the certificate has no sampling
        for p in (2, 3):
            r = ch.commutator_filtration_check(SL3, p, 2)
            assert r.passed
            assert r.mode == "(0,1):exhaustive;(0,2):exhaustive;(1,1):exhaustive"


# ---------------------------------------------------------------------------
# generator certificates: the generating-set lemmas, and the old pair scans
# as the oracle the certificates must agree with


def _ids(v):
    return str(getattr(v, "name", v))


def closed(gens, m):
    return set(ch.closure(matgrp.identity(len(gens[0])), gens, m)[0])


class TestFiltrationGenerators:
    @pytest.mark.parametrize(
        "spec,p,k",
        [(SL2, 2, 4), (SL2, 3, 3), (SL2, 5, 3), (SL2, 7, 2), (SL3, 2, 3), (SL3, 3, 2)],
        ids=_ids,
    )
    def test_levels_close_to_filtration_elements(self, spec, p, k):
        for i in range(1, k + 1):
            got = closed(ch.filtration_generators(spec, p, k, i), p**k)
            assert got == set(filtration_elements(spec, p, k, i)), i

    @pytest.mark.parametrize(
        "spec,p,k", [(SL2, 2, 4), (SL2, 3, 3), (SL2, 5, 2), (SL2, 7, 2), (SL3, 2, 2)], ids=_ids
    )
    def test_level_zero_closes_to_the_group(self, spec, p, k):
        got = closed(ch.filtration_generators(spec, p, k, 0), p**k)
        assert len(got) == spec.order_mod(p**k)

    def test_diagonal_part_is_needed(self):
        # the E_rc(p) alone miss the diagonal units of G^1, so a generator
        # set without them fails the closure tests above
        for spec, p, k in [(SL2, 2, 3), (SL2, 3, 2), (SL3, 3, 2)]:
            unipotent = [
                g for g in ch.filtration_generators(spec, p, k, 1)
                if any(g[r][c] for r in range(spec.n) for c in range(spec.n) if r != c)
            ]
            assert len(closed(unipotent, p**k)) < p ** (spec.dim * (k - 1))

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            ch.filtration_generators(SL2, 3, 2, 3)


def oracle_commutators_within(gs, hs, q, target):
    """The old pair scan: is [g, h] = I mod target for every g in gs, h in hs?"""
    for g in gs:
        gi = matgrp.mat_inv_mod(g, q)
        for h in hs:
            hi = matgrp.mat_inv_mod(h, q)
            c = matgrp.mat_mul_mod(matgrp.mat_mul_mod(g, h, q), matgrp.mat_mul_mod(gi, hi, q), q)
            if not ch._congruent_to_identity(c, target):
                return False
    return True


def oracle_moy_prasad(levels, p, k, i):
    """The old scans: psi_i additive on every pair of G^i, and equivariant
    for every conjugator in G^0 against every element of G^i."""
    q = p**k
    level = levels[i]
    for g in level:
        x = ch.graded_image(g, p, i)
        for h in level:
            y = ch.graded_image(h, p, i)
            want = tuple(tuple((a + b) % p for a, b in zip(r, s)) for r, s in zip(x, y))
            if ch.graded_image(matgrp.mat_mul_mod(g, h, q), p, i) != want:
                return False
    for a in levels[0]:
        ai = matgrp.mat_inv_mod(a, q)
        abar, abar_inv = matgrp.reduce_mod(a, p), matgrp.reduce_mod(ai, p)
        for h in level:
            lhs = ch.graded_image(matgrp.mat_mul_mod(matgrp.mat_mul_mod(a, h, q), ai, q), p, i)
            rhs = matgrp.mat_mul_mod(matgrp.mat_mul_mod(abar, ch.graded_image(h, p, i), p), abar_inv, p)
            if lhs != rhs:
                return False
    return True


# every pair of G^0 x G^j costs |SL_2(Z/p^k)| * |G^j| products: SL2 mod 25
# and mod 27 would take 40 s and more, so the oracle stays on these
PAIR_SCAN_INSTANCES = [(SL2, 2, 2), (SL2, 2, 3), (SL2, 3, 2)]


class TestCertificatesAgainstPairScans:
    @pytest.mark.parametrize("spec,p,k", PAIR_SCAN_INSTANCES, ids=_ids)
    def test_commutator_containment(self, spec, p, k):
        # generators and all pairs agree at the true target p^(i+j) and at
        # the false one p^(i+j+1)
        q = p**k
        levels = [ch.enumerate_group(spec, q).elements]
        levels += [filtration_elements(spec, p, k, i) for i in range(1, k + 1)]
        gens = [ch.filtration_generators(spec, p, k, i) for i in range(k + 1)]
        for i in range(k + 1):
            for j in range(max(i, 1), k + 1 - i):
                for target in (p ** (i + j), p ** (i + j + 1)):
                    by_gens = ch._escaping_commutator(gens[i], gens[j], q, target) is None
                    assert by_gens == oracle_commutators_within(levels[i], levels[j], q, target)
        assert ch.commutator_filtration_check(spec, p, k).passed

    @pytest.mark.parametrize("spec,p,k", PAIR_SCAN_INSTANCES, ids=_ids)
    def test_moy_prasad(self, spec, p, k):
        levels = [ch.enumerate_group(spec, p**k).elements]
        levels += [filtration_elements(spec, p, k, i) for i in range(1, k + 1)]
        for i in range(1, k):
            assert ch.moy_prasad_check(spec, p, k, i).passed == oracle_moy_prasad(levels, p, k, i)

    def test_false_target_is_caught(self):
        for spec, p, k in [(SL2, 3, 3), (SL2, 5, 3), (SL3, 2, 3)]:
            gens = [ch.filtration_generators(spec, p, k, i) for i in range(k + 1)]
            for i in range(k):
                for j in range(max(i, 1), k - i):
                    assert ch._escaping_commutator(gens[i], gens[j], p**k, p ** (i + j + 1)), (i, j)


def oracle_graded_scans(spec, p, k, i):
    """The scans the certificate replaced, over all of G^i: psi_i is trace
    zero, its fibers are uniform, the fiber over 0 is G^(i+1), and
    psi(g s) = psi(g) + psi(s) for every g in G^i and s in X_i.  The image
    size if they all hold, else None."""
    q = p**k
    n = spec.n
    images = {g: ch.graded_image(g, p, i) for g in filtration_elements(spec, p, k, i)}
    fibers = {}
    for x in images.values():
        fibers[x] = fibers.get(x, 0) + 1
    if any(sum(x[t][t] for t in range(n)) % p for x in fibers):
        return None
    if len(set(fibers.values())) != 1:
        return None
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    kernel = {g for g, x in images.items() if x == zero}
    if kernel != set(filtration_elements(spec, p, k, i + 1)):
        return None
    for s in ch.filtration_generators(spec, p, k, i):
        xs = ch.graded_image(s, p, i)
        plus_s = {
            x: tuple(tuple((a + b) % p for a, b in zip(r, t)) for r, t in zip(x, xs))
            for x in fibers
        }
        for g, x in images.items():
            if images.get(matgrp.mat_mul_mod(g, s, q)) != plus_s[x]:
                return None
    return len(fibers)


class TestMoyPrasadAgainstLevelScans:
    @pytest.mark.parametrize(
        "spec,p,k",
        [(SL2, 2, 3), (SL2, 3, 2), (SL2, 5, 2), (SL2, 3, 3), (SL3, 2, 2), (SL3, 2, 3)],
        ids=_ids,
    )
    def test_certificate_matches_scans(self, spec, p, k):
        for i in range(1, k):
            size = oracle_graded_scans(spec, p, k, i)
            r = ch.moy_prasad_check(spec, p, k, i)
            assert r.passed == (size is not None), i
            assert r.detail.startswith(f"|G^{i}/G^{i + 1}| = {size} = p^{spec.dim},"), i

    def test_builds_no_group(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("moy_prasad_check enumerated a group")

        monkeypatch.setattr(ch, "closure", refuse)
        monkeypatch.setattr(ch, "enumerate_group", refuse)
        # |G^1| = 7^16, beyond every enumeration budget
        assert ch.moy_prasad_check(SL3, 7, 2, 1).passed

    def test_missing_diagonal_generators_shrink_the_image(self, monkeypatch):
        real = ch.filtration_generators

        def no_level_diagonal(spec, p, k, i):
            gens = real(spec, p, k, i)
            if i == 0:
                return gens
            return [g for g in gens if all(g[t][t] != 1 + p**i for t in range(spec.n))]

        monkeypatch.setattr(ch, "filtration_generators", no_level_diagonal)
        r = ch.moy_prasad_check(SL3, 5, 2, 1)
        assert (r.status, r.detail) == ("fail", f"image size {5**6} != p^dim = {5**8}")

    def test_nonzero_trace_is_caught(self, monkeypatch):
        # diag(1 + p, 1) has determinant 1 + p: psi_1 of it has trace 1
        real = ch.filtration_generators
        bad = ((4, 0), (0, 1))

        def with_bad(spec, p, k, i):
            return real(spec, p, k, i) + ([bad] if i else [])

        monkeypatch.setattr(ch, "filtration_generators", with_bad)
        r = ch.moy_prasad_check(SL2, 3, 2, 1)
        assert (r.status, r.detail) == ("fail", f"image of {bad} has nonzero trace")


class TestAdjoint:
    def test_good_primes_pass_exhaustively(self):
        for p in (5, 7):
            r = ch.adjoint_irreducibility_check(SL2, p)
            assert r.passed
            assert r.mode == "exhaustive-subspaces"

    def test_sl3_uses_closure_scan(self):
        for spec, p in ((SL3, 2), (SL3, 5), (SL4, 3), (SL4, 5)):
            r = ch.adjoint_irreducibility_check(spec, p)
            assert r.passed
            assert r.mode == "line-closure-scan"

    def test_char_divides_n_fails(self):
        r = ch.adjoint_irreducibility_check(SL2, 2)
        assert r.status == "fail"
        assert "center" in r.detail
        assert ch.adjoint_irreducibility_check(SL3, 3).status == "fail"

    def test_branches_agree(self):
        r = ch.adjoint_irreducibility_check(SL2, 5, subspace_budget=0)
        assert r.passed
        assert r.mode.startswith("line-closure-scan")

    def test_gaussian_binomial(self):
        assert ch.gaussian_binomial(3, 1, 5) == 31
        assert ch.gaussian_binomial(4, 2, 2) == 35
        assert ch.gaussian_binomial(8, 3, 2) == ch.gaussian_binomial(8, 5, 2)

    def test_subspace_enumeration_count(self):
        got = sum(1 for _ in ch._enumerate_subspaces(4, 2, 2))
        assert got == 35

    def test_scan_failure_details(self, monkeypatch):
        # no SL_n instance reaches a failing scan, so feed one in
        for mode, sub, detail in [
            ("exhaustive-subspaces", [[1, 0, 2]], "invariant subspace of dimension 1: rows [[1, 0, 2]]"),
            ("line-closure-scan", [[0, 1, 2], [0, 0, 1]], "line (0, 1, 2) generates a proper invariant subspace"),
        ]:
            monkeypatch.setattr(ch, "_invariant_subspace_scan", lambda *a, m=mode, s=sub: (m, s))
            r = ch.adjoint_irreducibility_check(SL2, 5)
            assert (r.status, r.detail, r.mode) == ("fail", detail, mode)


# ---------------------------------------------------------------------------
# the adjoint check's linear algebra before the echelon kernel, kept as a
# slow oracle: a sorted echelon basis whose leading entries are searched for
# again on every reduction, and an algebra spun by the full operators


def oracle_reduce_against(v, basis, p):
    v = [x % p for x in v]
    for b in basis:
        lead = next(c for c, x in enumerate(b) if x)
        if v[lead]:
            f = v[lead]  # b is normalized with leading 1
            v = [(a - f * bb) % p for a, bb in zip(v, b)]
    return v


def oracle_insert(v, basis, p):
    """Add v to the sorted echelon basis; True if it was new."""
    v = oracle_reduce_against(v, basis, p)
    if not any(v):
        return False
    lead = next(c for c, x in enumerate(v) if x)
    inv = pow(v[lead], -1, p)
    basis.append([x * inv % p for x in v])
    basis.sort(key=lambda b: next(c for c, x in enumerate(b) if x))
    return True


def oracle_line_closure_dim(v, ops, p, d):
    basis = []
    queue = [list(v)]
    while queue:
        w = queue.pop()
        if oracle_insert(w, basis, p):
            if len(basis) == d:
                return d
            for m in ops:
                queue.append([sum(a * b for a, b in zip(row, w)) % p for row in m])
    return len(basis)


def oracle_operator_algebra_dim(ops, p, d):
    basis = []
    frontier = [[[int(r == c) for c in range(d)] for r in range(d)]] + list(ops)
    frontier = [m for m in frontier if oracle_insert([x for row in m for x in row], basis, p)]
    while frontier and len(basis) < d * d:
        new = []
        for m in frontier:
            for g in ops:
                prod = [
                    [sum(g[r][t] * m[t][c] for t in range(d)) % p for c in range(d)]
                    for r in range(d)
                ]
                if oracle_insert([x for row in prod for x in row], basis, p):
                    new.append(prod)
        frontier = new
    return len(basis)


def is_proper_invariant(sub, ops, p, d):
    basis = []
    for v in sub:
        oracle_insert(v, basis, p)
    images = [[sum(a * b for a, b in zip(row, v)) % p for row in m] for m in ops for v in sub]
    return 0 < len(basis) < d and not any(any(oracle_reduce_against(w, basis, p)) for w in images)


def ad_ops(spec, p):
    basis = ch.lie_algebra_basis(spec, p)
    return [ch._ad_matrix(g, p, basis, spec.n) for g in ch._elementary_mod(spec, p)]


ORACLE_AD = [(SL2, p) for p in (3, 5, 7, 11, 13)] + [(SL3, p) for p in (2, 5, 7)]


# largest d per p that keeps the exhaustive subspace scan of F_p^d small
OPSET_D_MAX = {2: 5, 3: 4, 5: 3}


@st.composite
def operator_sets(draw):
    """1-3 operators on F_p^d; half the sets share a block-triangular shape,
    so proper algebras and proper invariant subspaces occur."""
    p = draw(st.sampled_from(sorted(OPSET_D_MAX)))
    d = draw(st.integers(1, OPSET_D_MAX[p]))
    split = draw(st.integers(1, d - 1)) if d > 1 and draw(st.booleans()) else 0
    entry = st.integers(0, p - 1)
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        ops.append([[0 if 0 < split <= r and c < split else draw(entry) for c in range(d)]
                    for r in range(d)])
    return ops, p, d


class TestEchelonKernel:
    @pytest.mark.parametrize("spec,p", ORACLE_AD, ids=_ids)
    def test_ad_operators_match_oracle(self, spec, p):
        ops, d = ad_ops(spec, p), spec.dim
        nils = ch._nilpotent_parts(ops, p)
        assert ch._operator_algebra_dim(nils, p, d) == oracle_operator_algebra_dim(ops, p, d) == d * d
        lines = list(itertools.islice(ch._all_lines(d, p), 12))
        lines += [[(7 * i + j * j) % p for i in range(d)] for j in range(1, 4)]
        for v in lines:
            assert len(ch._spin(list(v), nils, p, 1)) == oracle_line_closure_dim(v, ops, p, d)

    @given(operator_sets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_operators_match_oracle(self, opset, data):
        ops, p, d = opset
        nils = ch._nilpotent_parts(ops, p)
        assert ch._operator_algebra_dim(nils, p, d) == oracle_operator_algebra_dim(ops, p, d)
        v = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        span = ch._spin(v, nils, p, 1)
        assert len(span) == oracle_line_closure_dim(v, ops, p, d)
        for i, (row, c) in enumerate(zip(span.rows, span.pivots)):
            assert row[c] == 1 and all(row[span.pivots[j]] == 0 for j in range(i))

    @given(operator_sets())
    @settings(max_examples=60, deadline=None)
    def test_scan_branches_agree(self, opset):
        ops, p, d = opset
        assume(d > 1)  # F_p^1 has no proper subspace to count, so no line branch
        exhaustive = ch._invariant_subspace_scan(ops, p, d, 10**5)
        by_lines = ch._invariant_subspace_scan(ops, p, d, 0)
        assert exhaustive[0] == "exhaustive-subspaces"
        assert by_lines[0].startswith("line-closure-scan")
        assert (exhaustive[1] is None) == (by_lines[1] is None)
        for _, sub in (exhaustive, by_lines):
            assert sub is None or is_proper_invariant(sub, ops, p, d)

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_matches_oracle_rank(self, p, nrows, ncols, data):
        rows = data.draw(st.lists(st.lists(st.integers(-p, 2 * p), min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows))
        kernel = ch._nullspace_mod(rows, p, ncols)
        rank = []
        for r in rows:
            oracle_insert(r, rank, p)
        assert len(kernel) == ncols - len(rank)
        assert all(sum(a * b for a, b in zip(r, x)) % p == 0 for r in rows for x in kernel)
        independent = []
        assert all(oracle_insert(x, independent, p) for x in kernel)

    def test_reducible_set_fails_on_both_branches(self):
        p, d = 5, 4
        ops = [  # block upper triangular: span(e0, e1) is invariant
            [[1, 2, 3, 0], [0, 1, 4, 1], [0, 0, 1, 2], [0, 0, 0, 1]],
            [[2, 1, 0, 4], [3, 3, 1, 0], [0, 0, 1, 1], [0, 0, 4, 2]],
        ]
        for budget, mode in ((10**5, "exhaustive-subspaces"), (0, "line-closure-scan")):
            got_mode, sub = ch._invariant_subspace_scan(ops, p, d, budget)
            assert got_mode == mode
            assert sub is not None and is_proper_invariant(sub, ops, p, d)
        _, sub = ch._invariant_subspace_scan(ops, p, d, 0)
        assert sub[0] == [1, 0, 0, 0]  # the first line, closed first

    def test_proper_algebra_without_invariant_subspace(self):
        # x -> ix on F_9 = F_3^2: the algebra is F_9 (dim 2 < 4), yet no
        # line is invariant, so the full line scan passes
        ops, p, d = [[[0, 2], [1, 0]]], 3, 2
        nils = ch._nilpotent_parts(ops, p)
        assert ch._operator_algebra_dim(nils, p, d) == oracle_operator_algebra_dim(ops, p, d) == 2
        assert ch._invariant_subspace_scan(ops, p, d, 0) == ("line-closure-scan-full", None)
        assert ch._invariant_subspace_scan(ops, p, d, 10**5) == ("exhaustive-subspaces", None)


class TestAnnuli:
    def verify_certificate(self, spec, p, k, g, i, h):
        q = p**k
        assert ch._congruent_to_identity(h, p)  # h in G^1
        hg = matgrp.mat_mul_mod(h, matgrp.reduce_mod(g, q), q)
        inv = matgrp.mat_mul_mod(
            matgrp.mat_inv_mod(h, q), matgrp.mat_inv_mod(matgrp.reduce_mod(g, q), q), q
        )
        c = matgrp.mat_mul_mod(hg, inv, q)
        assert ch._congruent_to_identity(c, p ** (i + 1))
        for z in ch.center_scalars(spec, q):
            cz = matgrp.mat_mul_mod(c, matgrp.mat_inv_mod(z, q), q)
            assert not ch._congruent_to_identity(cz, p ** (i + 2))

    def test_witness_mod_125_outer_shell(self):
        g = matgrp.elementary(2, 1, 2, 1)
        h = ch.annuli_witness(SL2, 5, 3, g, 0)
        self.verify_certificate(SL2, 5, 3, g, 0, h)

    def test_witness_mod_125_middle_shell(self):
        g = matgrp.elementary(2, 1, 2, 5)
        h = ch.annuli_witness(SL2, 5, 3, g, 1)
        self.verify_certificate(SL2, 5, 3, g, 1, h)

    def test_witness_mod_49(self):
        g = ((5, 1), (4, 1))  # E_12(1)*E_21(4), in the outer shell
        h = ch.annuli_witness(SL2, 7, 2, g, 0)
        self.verify_certificate(SL2, 7, 2, g, 0, h)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            ch.annuli_witness(SL2, 5, 3, ((2, 0), (0, 1)), 0)

    def test_rejections(self):
        e = matgrp.elementary(2, 1, 2, 1)
        with pytest.raises(ValueError):
            ch.annuli_witness(SL2, 3, 3, e, 0)  # excluded prime
        with pytest.raises(ValueError):
            ch.annuli_witness(SL2, 5, 3, e, 2)  # level too deep for k
        with pytest.raises(ValueError):
            ch.annuli_witness(SL2, 5, 3, ((-1, 0), (0, -1)), 0)  # central
        with pytest.raises(ValueError):
            ch.annuli_witness(SL2, 5, 3, matgrp.elementary(2, 1, 2, 25), 1)


class TestNormalSubgroups:
    def test_mod_5_only_center_and_everything(self, t5):
        subs = ch.normal_subgroups_containing_center(t5)
        assert [len(s) for s in subs] == [2, 120]
        assert subs == ch.filtration_center_subgroups(t5)

    def test_simple_group_no_middle(self, sl3_f2):
        subs = ch.normal_subgroups_containing_center(sl3_f2)
        assert [len(s) for s in subs] == [1, 168]

    def test_returned_sets_are_normal_subgroups(self, t5):
        for sub in ch.normal_subgroups_containing_center(t5):
            mats = [t5.elements[i] for i in sorted(sub)]
            members = set(mats)
            for g in mats:
                for s in t5.generators:
                    conj = matgrp.mat_mul_mod(
                        matgrp.mat_mul_mod(s, g, 5), t5.inv(s), 5
                    )
                    assert conj in members

    def test_excluded_prime_deviates(self, t9):
        # p = 3: the quotient PSL_2(F_3) = A_4 is not simple, and its Klein
        # subgroup pulls back to a fourth normal subgroup of index 3
        subs = ch.normal_subgroups_containing_center(t9)
        assert [len(s) for s in subs] == [2, 54, 216, 648]
        filt = ch.filtration_center_subgroups(t9)
        assert [len(s) for s in filt] == [2, 54, 648]
        assert all(f in subs for f in filt)


# ---------------------------------------------------------------------------
# slow oracles: the tuple-product engine the table lookups replaced


def oracle_closure(start, gens, m):
    """(elements, right, parent, via) of closure, by mat_mul_mod."""
    first = matgrp.reduce_mod(start, m)
    elements, index = [first], {first: 0}
    right, parent, via = [[] for _ in gens], [-1], [-1]
    for x, g in enumerate(elements):
        for s, gen in enumerate(gens):
            h = matgrp.mat_mul_mod(g, gen, m)
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
                parent.append(x)
                via.append(s)
            right[s].append(index[h])
    return elements, right, parent, via


def oracle_classes(table):
    m = table.modulus
    assigned = set()
    classes = []
    for start, g in enumerate(table.elements):
        if start in assigned:
            continue
        assigned.add(start)
        cls, queue = [start], [g]
        for x in queue:
            for s in table.generators:
                y = matgrp.mat_mul_mod(matgrp.mat_mul_mod(s, x, m), table.inv(s), m)
                if table.index[y] not in assigned:
                    assigned.add(table.index[y])
                    cls.append(table.index[y])
                    queue.append(y)
        classes.append(sorted(cls))
    return classes


def oracle_center(table):
    m = table.modulus
    return [
        g for g in table.elements
        if all(matgrp.mat_mul_mod(g, s, m) == matgrp.mat_mul_mod(s, g, m) for s in table.generators)
    ]


def oracle_second_center(table):
    m = table.modulus
    center = set(oracle_center(table))
    return [
        g for g in table.elements
        if all(
            matgrp.mat_mul_mod(
                matgrp.mat_mul_mod(g, s, m),
                matgrp.mat_mul_mod(table.inv(g), table.inv(s), m), m,
            ) in center
            for s in table.generators
        )
    ]


def oracle_subgroup(table, gen_indices):
    """Subgroup generated by some elements, by right multiplication."""
    m = table.modulus
    gens = [table.elements[i] for i in gen_indices]
    seen, queue = {0}, [table.elements[0]]
    for x in queue:
        for s in gens:
            y = matgrp.mat_mul_mod(x, s, m)
            if table.index[y] not in seen:
                seen.add(table.index[y])
                queue.append(y)
    return frozenset(seen)


def oracle_normal_subgroups(table):
    """Atoms <Z, C> by re-closing after each new class element, then
    saturation under pairwise joins, each join re-closed from generators."""
    classes = oracle_classes(table)
    class_of = {x: ci for ci, cls in enumerate(classes) for x in cls}

    def close(seed_classes):
        gens, members = [], frozenset({0})
        for ci in seed_classes:
            for x in classes[ci]:
                if x not in members:
                    gens.append(x)
                    members = oracle_subgroup(table, gens)
        return members, gens

    center_classes = sorted({class_of[table.index[z]] for z in oracle_center(table)})
    sub, gens = close(center_classes)
    subgroups = {sub: gens}
    for ci in range(len(classes)):
        sub, gens = close(center_classes + ([ci] if ci not in center_classes else []))
        subgroups.setdefault(sub, gens)
    changed = True
    while changed:
        changed = False
        for (a, ga), (b, gb) in itertools.combinations(list(subgroups.items()), 2):
            if a <= b or b <= a:
                continue
            join, gens = close(sorted({class_of[i] for i in ga + gb}))
            if join not in subgroups:
                subgroups[join] = gens
                changed = True
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


ORACLE_INSTANCES = [(SL2, m) for m in (3, 4, 5, 7, 8, 9, 13)] + [(SL3, 2)]
_TABLES = {}


def table_for(spec, m):
    key = (spec.n, m)
    if key not in _TABLES:
        _TABLES[key] = ch.enumerate_group(spec, m)
    return _TABLES[key]


class TestEngineAgainstOracles:
    @pytest.mark.parametrize("spec,m", ORACLE_INSTANCES, ids=lambda v: str(getattr(v, "name", v)))
    def test_lookups_match_tuple_products(self, spec, m):
        table = table_for(spec, m)
        assert table.elements == oracle_closure(matgrp.identity(spec.n), table.generators, m)[0]
        assert ch.conjugacy_classes(table) == oracle_classes(table)
        assert ch.center_of(table) == oracle_center(table)
        second = [table.elements[g] for g in ch._second_center_indices(table, ch._center_indices(table))]
        assert second == oracle_second_center(table)
        assert ch.normal_subgroups_containing_center(table) == oracle_normal_subgroups(table)

    def test_cayley_graph_and_tree(self):
        table = table_for(SL2, 9)
        m = table.modulus
        for x, g in enumerate(table.elements):
            for s, gen in enumerate(table.generators):
                assert table.elements[table.right[s][x]] == matgrp.mat_mul_mod(g, gen, m)
            if x:
                assert table.parent[x] < x
                assert matgrp.mat_mul_mod(
                    table.elements[table.parent[x]], table.generators[table.via[x]], m
                ) == g

    @given(st.sampled_from(ORACLE_INSTANCES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_left_and_conjugation_arrays(self, inst, data):
        table = table_for(*inst)
        m = table.modulus
        a = data.draw(st.integers(0, len(table) - 1))
        x = data.draw(st.integers(0, len(table) - 1))
        el = table.elements
        assert el[table.left(a)[x]] == matgrp.mat_mul_mod(el[a], el[x], m)
        for s, c in zip(table.generators, table.conjugations):
            want = matgrp.mat_mul_mod(matgrp.mat_mul_mod(table.inv(s), el[x], m), s, m)
            assert el[c[x]] == want

    @pytest.mark.parametrize("spec,m", [(SL2, 4), (SL2, 5), (SL2, 7), (SL3, 2)],
                             ids=lambda v: str(getattr(v, "name", v)))
    def test_class_products_match_all_pairs(self, spec, m):
        # the one-representative lemma of class_product_table, checked
        # against the full product set C_a * C_b
        table = table_for(spec, m)
        classes = ch.conjugacy_classes(table)
        class_of = {x: ci for ci, cls in enumerate(classes) for x in cls}
        prod = ch.class_product_table(table, classes)
        for a, ca in enumerate(classes):
            for b, cb in enumerate(classes):
                hit = 0
                for x in ca:
                    for y in cb:
                        xy = matgrp.mat_mul_mod(table.elements[x], table.elements[y], m)
                        hit |= 1 << class_of[table.index[xy]]
                assert prod[a][b] == hit

    def test_closure_budget_and_trivial_modulus(self):
        with pytest.raises(ch.BudgetExceededError):
            ch.closure(matgrp.identity(2), SL2.elementary_generators(), 7, budget=100)
        # Z/1 is the zero ring: SL_n(Z/1) is one element, not {I, 0}
        t1 = ch.enumerate_group(SL2, 1)
        assert len(t1) == SL2.order_mod(1) == 1
        assert ch.strong_approx_check(SL2, 1, 1).passed
        assert ch.centerless_quotient_check(t1).detail == "second center equals center (order 1)"


# ---------------------------------------------------------------------------
# the table-driven closure against oracle_closure


def as_lists(result):
    elements, right, parent, via = result
    return elements, [list(row) for row in right], list(parent), list(via)


def strong_approx_generators(monkeypatch, spec, N, m):
    """The generator list strong_approx_check hands to closure."""
    calls = []
    real = ch.closure

    def spy(start, gens, m, *args, **kwargs):
        calls.append(gens)
        return real(start, gens, m, *args, **kwargs)

    monkeypatch.setattr(ch, "closure", spy)
    assert ch.strong_approx_check(spec, N, m, seed=0).passed
    return calls[0]


TABLE_INSTANCES = [(SL2, m) for m in (1, 2, 3, 4, 9, 13)] + [(SL3, 2), (SL3, 3), (SL4, 2)]


class TestTableClosure:
    @pytest.mark.parametrize("spec,m", TABLE_INSTANCES, ids=_ids)
    def test_matches_matrix_product_bfs(self, spec, m):
        gens = ch._elementary_mod(spec, m, signs=(1,))
        got = ch.closure(matgrp.identity(spec.n), gens, m)
        assert as_lists(got) == oracle_closure(matgrp.identity(spec.n), gens, m)
        assert len(got[0]) == spec.order_mod(m)
        # rows are shared: one tuple per row vector, at most m^n of them
        assert len({id(row) for g in got[0] for row in g}) <= m**spec.n

    @pytest.mark.parametrize("spec,m", [(SL2, 4), (SL2, 9), (SL3, 2)], ids=_ids)
    def test_signed_generators_match(self, spec, m):
        gens = ch._elementary_mod(spec, m)
        start = matgrp.identity(spec.n)
        assert as_lists(ch.closure(start, gens, m)) == oracle_closure(start, gens, m)

    def test_coset_start(self):
        # G^1 of SL_2(Z/9) walked from E_12(1) and from a start given
        # unreduced: the coset E_12(1) G^1, with start first
        gens = ch.filtration_generators(SL2, 3, 2, 1)
        for start in (matgrp.elementary(2, 1, 2, 1), ((10, -8), (9, 1))):
            got = ch.closure(start, gens, 9)
            assert as_lists(got) == oracle_closure(start, gens, 9)
            assert got[0][0] == matgrp.reduce_mod(start, 9)
            assert len(got[0]) == 3**SL2.dim

    @pytest.mark.parametrize("N,m", [(5, 9), (3, 8)])
    def test_strong_approx_conjugates(self, monkeypatch, N, m):
        gens = strong_approx_generators(monkeypatch, SL2, N, m)
        assert not all(g in ch._elementary_mod(SL2, m) for g in gens)
        start = matgrp.identity(2)
        got = ch.closure(start, gens, m)
        assert as_lists(got) == oracle_closure(start, gens, m)
        # the finite-group lemma: adding the inverses closes to the same set
        with_inverses = gens + [matgrp.mat_inv_mod(g, m) for g in gens]
        assert set(ch.closure(start, with_inverses, m)[0]) == set(got[0])

    def test_budget_boundary(self):
        gens = ch._elementary_mod(SL2, 13, signs=(1,))
        order = SL2.order_mod(13)
        assert len(ch.closure(matgrp.identity(2), gens, 13, budget=order)[0]) == order
        with pytest.raises(ch.BudgetExceededError, match="closure exceeded"):
            ch.closure(matgrp.identity(2), gens, 13, budget=order - 1)

    def test_stop_at_ends_the_walk(self):
        gens = ch._elementary_mod(SL3, 3, signs=(1,))
        order = SL3.order_mod(3)
        elements, right, parent, via = ch.closure(matgrp.identity(3), gens, 3, stop_at=order)
        full = ch.closure(matgrp.identity(3), gens, 3)
        assert elements == full[0] and parent == full[2] and via == full[3]
        walked = len(right[0])
        assert walked < order
        assert all(list(row) == list(f[:walked]) for row, f in zip(right, full[1]))

    def test_table_guard(self):
        # a one-element closure still needs tables of m^(n ceil(n/2))
        # entries, and they are checked before the walk
        one = [matgrp.identity(3)]
        assert len(ch.closure(matgrp.identity(3), one, 5, budget=5**6)[0]) == 1
        with pytest.raises(ch.BudgetExceededError, match="tables"):
            ch.closure(matgrp.identity(3), one, 5, budget=5**6 - 1)

    def test_table_bound_below_group_order(self):
        for n in range(2, 7):
            for m in range(2, 60):
                assert m ** (n * ((n + 1) // 2)) < ch.GroupSpec(n).order_mod(m), (n, m)

    def test_enumeration_walks_the_positive_generators(self):
        for spec, m in [(SL2, 2), (SL2, 7), (SL3, 3)]:
            table = ch.enumerate_group(spec, m)
            n = spec.n
            want = [
                matgrp.reduce_mod(matgrp.elementary(n, i, j, 1), m)
                for i in range(1, n + 1) for j in range(1, n + 1) if i != j
            ]
            assert table.generators == want
        # mod 2 the signed list has the same residues, each once
        assert ch.enumerate_group(SL2, 2).generators == ch._elementary_mod(SL2, 2)

    def test_index_is_built_on_first_use(self):
        table = ch.enumerate_group(SL2, 7)
        assert len(table) == SL2.order_mod(7)
        assert "index" not in vars(table)
        assert table.elements[5] in table
        assert table.index == {g: x for x, g in enumerate(table.elements)}


class TestCenterlessAndReduction:
    def test_good_primes_pass(self, t5, t9):
        assert ch.centerless_quotient_check(t5).passed
        assert ch.centerless_quotient_check(t9).passed

    def test_mod_4_survives_anyway(self):
        # the good-prime proof breaks at p=2, but the statement itself
        # first fails at modulus 16, not 4
        t4 = ch.enumerate_group(SL2, 4)
        assert ch.centerless_quotient_check(t4).passed

    def test_mod_16_is_the_boundary(self):
        t16 = ch.enumerate_group(SL2, 16)
        r = ch.centerless_quotient_check(t16)
        assert r.status == "fail"
        assert "8" in r.detail and "4" in r.detail

    def test_center_reduction(self):
        assert ch.center_reduction_check(SL2, 5, 2).passed
        assert ch.center_reduction_check(SL2, 7, 3).passed
        r = ch.center_reduction_check(SL2, 2, 2)
        assert r.status == "fail"
        with pytest.raises(ValueError):
            ch.center_reduction_check(SL2, 5, 1)


class TestStrongApprox:
    def test_full_level_exact(self):
        for m in (8, 9):
            r = ch.strong_approx_check(SL2, 1, m)
            assert r.passed
            assert r.mode == "exact"

    def test_congruence_kernels_probabilistic(self):
        for N, m in [(2, 9), (4, 9)]:
            r = ch.strong_approx_check(SL2, N, m, trials=64, seed=0)
            assert r.passed
            assert r.mode == "probabilistic"

    def test_too_few_trials_inconclusive(self):
        r = ch.strong_approx_check(SL2, 2, 9, trials=1, seed=5)
        assert r.status == "inconclusive"
        assert "648" in r.detail

    def test_rejections(self):
        with pytest.raises(ValueError):
            ch.strong_approx_check(SL2, 2, 4)
        with pytest.raises(ch.BudgetExceededError):
            ch.strong_approx_check(SL3, 1, 9)


def test_check_result_passed_property():
    r = ch.CheckResult("x", "y", "pass", "ok")
    assert r.passed and r.mode == "exhaustive"
    assert not ch.CheckResult("x", "y", "fail", "no").passed
