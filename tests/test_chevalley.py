"""Tests for SL_n mod m structure: orders, filtration, graded pieces, checks.

Order values were derived from the closed formula and cross-checked against
exhaustive BFS enumeration; the two routes are independent.  The excluded
prime boundary cases (p = 2, 3) appear below with their honestly computed
outcomes, including the instances where the good-prime statements survive
anyway and the first moduli where they break.
"""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resfin import arith, growth, matgrp
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


def center_scalars(spec, m):
    """Oracle: the scalar matrices lambda*I with lambda^n = 1 mod m, by
    direct scan."""
    n = spec.n
    if m == 1:
        return [matgrp.identity(n)]
    return [
        tuple(tuple(lam if i == j else 0 for j in range(n)) for i in range(n))
        for lam in range(m)
        if math.gcd(lam, m) == 1 and pow(lam, n, m) == 1
    ]


def fix_last_entry(a, q):
    """a with its last diagonal entry replaced by the unique t that makes
    det = 1 mod q.  The determinant is linear in that entry with coefficient
    the leading (n-1)-minor, a unit whenever a = I mod p; so t is
    (1 - det with the entry set to 0) / minor."""
    n = len(a)
    cof = matgrp.det(tuple(tuple(row[: n - 1]) for row in a[: n - 1])) % q
    a[n - 1][n - 1] = 0
    d0 = matgrp.det(matgrp.mat(a)) % q
    a[n - 1][n - 1] = (1 - d0) * pow(cof, -1, q) % q
    return matgrp.mat(a)


def lift_from_lie(spec, p, k, i, xbar):
    """A group element g = 1 + p^i * xbar + O(p^(i+1)) in SL_n(Z/p^k).

    Requires trace(xbar) = 0 mod p; the det = 1 correction is absorbed into
    the last diagonal entry (fix_last_entry) and is automatically
    O(p^(i+1)), so the graded image of the result is exactly xbar.
    """
    n = spec.n
    if sum(xbar[t][t] for t in range(n)) % p != 0:
        raise ValueError("lift requires a trace-zero Lie algebra element")
    q = p**k
    step = p**i
    a = [
        [((1 if r == c else 0) + step * (xbar[r][c] % p)) % q for c in range(n)]
        for r in range(n)
    ]
    corner = a[n - 1][n - 1]
    g = fix_last_entry(a, q)
    assert (g[n - 1][n - 1] - corner) % (step * p) == 0
    assert ch.graded_image(g, p, i) == matgrp.reduce_mod(xbar, p)
    return g


class TestGroupSpec:
    def test_orders_over_prime_fields(self):
        assert SL2.order_mod(3) == 24
        assert SL2.order_mod(2) == 6
        assert SL2.order_mod(5) == 120
        assert SL3.order_mod(2) == 168

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
                assert spec.center_order_mod(m) == len(center_scalars(spec, m)), m

    def test_search_path_never_factorizes(self, monkeypatch):
        # the search keys each q by the (p, i) the prime-power stream gives
        mats = [
            ((1, 4), (0, 1)),
            ((-1, 0), (0, -1)),
            matgrp.elementary(2, 1, 2, 360),
            ((1, 0, 60), (0, 1, 0), (0, 0, 1)),
            ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
            matgrp.mat_mul(matgrp.elementary(3, 1, 2, 12), matgrp.elementary(3, 3, 1, 30)),
            tuple(tuple(-1 if i == j else 0 for j in range(4)) for i in range(4)),
            matgrp.elementary(4, 2, 3, 840),
        ]
        spec = {2: SL2, 3: SL3, 4: SL4}
        cs = growth.CandidateSeq(SL3)

        def run():
            return (
                [matgrp.congruence_D(a, spec[len(a)], c) for a in mats for c in (False, True)],
                list(growth.candidate_sweep(cs, 10**4, 10**4 + 2000, True)),
                growth.farb_growth(growth.elementary_set(3), SL3, 3, allow_central=True).rows,
            )

        want = run()

        def refuse(*args):
            raise AssertionError(f"factorized or primality-tested {args}")

        monkeypatch.setattr(arith, "factorize", refuse)
        monkeypatch.setattr(arith, "is_prime", refuse)
        assert run() == want

    def test_generators(self):
        gens = SL2.elementary_generators()
        assert len(gens) == 4
        assert matgrp.elementary(2, 1, 2, 1) in gens
        assert len(SL3.elementary_generators()) == 12


class TestOrderFloor:
    def test_floor_holds_on_every_prime_power(self):
        # the stop-rule lemma of order_floor, plain and central, and the
        # 2n bound on the center it rests on
        for spec in (SL2, SL3, SL4, ch.GroupSpec(5)):
            num, den = spec.order_floor()
            cnum, cden = spec.order_floor(allow_central=True)
            for q, p, e in arith.prime_power_stream(10**4):
                order, z = spec.order_pp(p, e), spec.center_pp(p, e)
                assert order * den >= q**spec.dim * num, (spec.n, q)
                assert order // z * cden >= q**spec.dim * cnum, (spec.n, q)
                assert z <= 2 * spec.n, (spec.n, q)


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

    def test_membership_and_inverse(self):
        # the lemma of conjugations: right[s] permutes G, and s^-1 is the
        # one index it sends to 0 (the identity)
        for spec, m in ORACLE_INSTANCES:
            table = table_for(spec, m)
            for s, row in zip(table.generators, table.right):
                assert sorted(row) == list(range(len(table)))
                assert table.elements[row.index(0)] == matgrp.mat_inv_mod(s, m)


def center_of(table):
    """The elements of the table commuting with all generators (hence with
    everything), read from the library's center indices."""
    return [table.elements[x] for x in table.center]


class TestCenters:
    def test_center_is_scalars(self, t5, t9):
        assert set(center_of(t9)) == set(center_scalars(SL2, 9))
        assert len(center_of(t9)) == 2
        assert set(center_of(t5)) == {matgrp.identity(2), ((4, 0), (0, 4))}

    def test_trivial_center_mod_2(self):
        assert center_scalars(SL2, 2) == [matgrp.identity(2)]

    def test_sl3_cube_roots_mod_7(self):
        diags = [z[0][0] for z in center_scalars(SL3, 7)]
        assert diags == [1, 2, 4]


def congruent_to_identity(g, q):
    """Oracle for g = I mod q, entry by entry (no detection gcd)."""
    n = len(g)
    return all((g[r][c] - (r == c)) % q == 0 for r in range(n) for c in range(n))


def filtration_subgroup(table, i):
    """Oracle: G^i inside an enumerated SL_n(Z/p^k), by scanning every
    element for g = I mod p^i."""
    p, k = ch._prime_power_modulus(table.modulus)
    if not 0 <= i <= k:
        raise ValueError(f"filtration level {i} outside 0..{k}")
    return [g for g in table.elements if congruent_to_identity(g, p**i)]


def filtration_elements(spec, p, k, i, budget=matgrp.DEFAULT_BUDGET):
    """Oracle: G^i = ker(SL_n(Z/p^k) -> SL_n(Z/p^i)) built directly, no group
    table and no generators.

    Every entry except the last diagonal one runs over its p^(k-i) allowed
    residues; the last diagonal entry is then the unique solution of
    det = 1 mod p^k (see fix_last_entry).  This realizes
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
        g = fix_last_entry(a, q)
        # the solved entry automatically lands back in 1 + step*Z
        assert (g[n - 1][n - 1] - 1) % step == 0
        out.append(g)
    assert len(out) == count
    return out


class TestFiltration:
    def test_direct_construction_matches_table(self, t9):
        direct = filtration_elements(SL2, 3, 2, 1)
        assert len(direct) == 27
        assert set(direct) == set(filtration_subgroup(t9, 1))

    def test_sizes_follow_power_law(self):
        # |G^i| = p^(dim * (k - i))
        assert len(filtration_elements(SL2, 5, 2, 1)) == 125
        assert len(filtration_elements(SL2, 3, 3, 2)) == 27
        assert len(filtration_elements(SL2, 3, 3, 1)) == 729

    def test_extreme_levels(self, t9):
        assert len(filtration_subgroup(t9, 0)) == len(t9)
        assert filtration_subgroup(t9, 2) == [matgrp.identity(2)]

    def test_members_have_unit_det(self):
        q = 25
        for g in filtration_elements(SL2, 5, 2, 1):
            assert matgrp.det(g) % q == 1
            assert matgrp.reduce_mod(g, 5) == matgrp.identity(2)

    def test_rejections(self):
        t12 = ch.enumerate_group(SL2, 12)
        with pytest.raises(ValueError):
            filtration_subgroup(t12, 1)
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
            g = lift_from_lie(SL2, 5, 3, 1, x)
            assert ch.graded_image(g, 5, 1) == x

    def test_lift_rejects_nonzero_trace(self):
        with pytest.raises(ValueError):
            lift_from_lie(SL2, 5, 2, 1, ((1, 0), (0, 0)))

    def test_graded_image_requires_congruence(self):
        with pytest.raises(ValueError):
            ch.graded_image(matgrp.elementary(2, 1, 2, 1), 5, 1)

    def test_lie_coords_invert_basis(self):
        for spec, p in [(SL2, 5), (SL3, 2), (SL3, 7), (SL4, 3), (ch.GroupSpec(5), 2)]:
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


def closure_elements(gens, m, *args, **kwargs):
    """ch.closure with its codes decoded: (elements, right, parent, via)."""
    codes, *rest = ch.closure(gens, m, *args, **kwargs)
    return (ch._decode(codes, len(gens[0]), m), *rest)


def closed(gens, m):
    return set(closure_elements(gens, m)[0])


def explicit_filtration_generators(spec, p, k, i):
    """X_i for i >= 1 by explicit loops, in order: the E_rc(p^i), r != c,
    row-major, then the diagonal units by t and then by position, each once."""
    n, q = spec.n, p**k
    gens = [
        matgrp.reduce_mod(matgrp.elementary(n, r, c, p**i), q)
        for r in range(1, n + 1) for c in range(1, n + 1) if r != c
    ]
    for t in range(i, k):
        u = 1 + p**t
        for l in range(n - 1):
            d = [1] * n
            d[l], d[l + 1] = u % q, pow(u, -1, q)
            gens.append(tuple(tuple(d[r] if r == c else 0 for c in range(n)) for r in range(n)))
    return list(dict.fromkeys(gens))


class TestFiltrationGenerators:
    @pytest.mark.parametrize(
        "spec,p,k",
        [(SL2, 2, 4), (SL2, 3, 3), (SL2, 5, 3), (SL2, 7, 2), (SL3, 2, 3), (SL3, 3, 2)],
        ids=_ids,
    )
    def test_levels_close_to_filtration_elements(self, spec, p, k):
        for i in range(1, k + 1):
            assert ch.filtration_generators(spec, p, k, i) == explicit_filtration_generators(spec, p, k, i), i
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
            if not congruent_to_identity(c, target):
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

    def test_broken_equivariance_is_caught(self, monkeypatch):
        # products mod p taken in reverse order conjugate the image the wrong
        # way round, while conjugation mod p^k upstairs stays right
        real = matgrp.mat_mul_mod

        def reversed_mod_p(a, b, m):
            return real(b, a, m) if m == 3 else real(a, b, m)

        monkeypatch.setattr(ch, "mat_mul_mod", reversed_mod_p)
        r = ch.moy_prasad_check(SL2, 3, 2, 1)
        assert (r.status, r.detail, r.mode) == (
            "fail", "equivariance fails for conjugator 1,1;0,1", "exhaustive")

    def test_escaping_commutator_is_caught(self, monkeypatch):
        # E_12(1) is in G^0 but not G^1, and [E_21(1), E_12(1)] != I mod p
        real = ch.filtration_generators
        e12 = ((1, 1), (0, 1))

        def with_e12(spec, p, k, i):
            return real(spec, p, k, i) + ([e12] if i == 1 else [])

        monkeypatch.setattr(ch, "filtration_generators", with_e12)
        r = ch.commutator_filtration_check(SL2, 3, 2)
        assert (r.status, r.detail, r.mode) == (
            "fail", "[G^0,G^1] escapes G^1 at 1,0;1,1, 1,1;0,1", "(0,1):exhaustive")


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
        basis = ch.lie_algebra_basis(SL2, 5)
        ops = [ch._ad_matrix(g, 5, basis, 2) for g in ch._elementary_mod(SL2, 5)]
        assert ch._invariant_subspace_scan(ops, 5, 3) == ("exhaustive-subspaces", None)
        mode, sub = ch._invariant_subspace_scan(ops, 5, 3, subspace_budget=0)
        assert sub is None
        assert mode.startswith("line-closure-scan")

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

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_centralizer_is_the_scalars(self, n, p):
        # the docstring's lemma, which decides parts (a) and (c) with no
        # solve: [X, b] = 0 for all b in sl_n has rank n^2 - 1 and kills I
        rows = full_basis_centralizer_rows(ch.GroupSpec(n), p)
        rank = []
        for row in rows:
            oracle_insert(row, rank, p)
        assert len(rank) == n * n - 1
        eye = [int(i % (n + 1) == 0) for i in range(n * n)]
        assert all(sum(a * b for a, b in zip(row, eye)) % p == 0 for row in rows)


def full_basis_centralizer_rows(spec, p):
    """Oracle: the rows of [X, b] = 0 for every b in lie_algebra_basis, each
    coefficient read off (Xb - bX)[r][c] entry by entry."""
    n = spec.n
    rows = []
    for b in ch.lie_algebra_basis(spec, p):
        for r in range(n):
            for c in range(n):
                row = [0] * (n * n)
                for u in range(n):
                    for v in range(n):
                        coef = 0
                        if u == r:
                            coef += b[v][c]
                        if v == c:
                            coef -= b[r][u]
                        row[u * n + v] = coef % p
                rows.append(row)
    assert len(rows) == (n * n - 1) * n * n
    return rows


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


def oracle_lie_center_dim(spec, p):
    """dim of the center of sl_n(F_p): d minus the rank of x -> ([x, b])_b,
    each image written out entry by entry, by the sorted echelon above."""
    n = spec.n
    basis = ch.lie_algebra_basis(spec, p)
    images = []
    for a in basis:
        image = []
        for b in basis:
            ab = matgrp.mat_mul_mod(a, b, p)
            ba = matgrp.mat_mul_mod(b, a, p)
            image.extend((ab[r][c] - ba[r][c]) % p for r in range(n) for c in range(n))
        images.append(image)
    rank_basis = []
    rank = sum(oracle_insert(v, rank_basis, p) for v in images)
    return len(basis) - rank


@pytest.mark.parametrize("spec", [SL2, SL3, SL4, ch.GroupSpec(5)], ids=lambda s: s.name)
def test_lie_center_matches_bracket_nullspace(spec, monkeypatch):
    # the check reads part (a), the Lie center, off n and p alone; the test
    # stubs part (b), the invariant-subspace scan
    monkeypatch.setattr(ch, "_invariant_subspace_scan", lambda *a: ("stub", None))
    for p in (2, 3, 5, 7, 11, 13):
        dim = oracle_lie_center_dim(spec, p)
        assert dim == (1 if spec.n % p == 0 else 0)
        r = ch.adjoint_irreducibility_check(spec, p)
        if dim:
            assert (r.status, r.detail) == ("fail", f"Lie algebra center has dimension {dim} > 0")
        else:
            assert (r.status, r.mode) == ("pass", "stub"), (spec.n, p)


def echelon_subspace_scan(ops, p, d):
    """The exhaustive branch of _invariant_subspace_scan as it was: an
    _Echelon built row by row for every candidate subspace."""
    nils = ch._nilpotent_parts(ops, p)
    for t in range(1, d):
        for rows in ch._enumerate_subspaces(d, p, t):
            span = ch._Echelon(p)
            for v in rows:
                span.add(v)
            if not any(any(span.reduce(ch._left_mul(nil, v, 1))) for nil in nils for v in rows):
                return "exhaustive-subspaces", rows
    return "exhaustive-subspaces", None


class TestEchelonKernel:
    @pytest.mark.parametrize("spec,p", ORACLE_AD, ids=_ids)
    def test_ad_operators_match_oracle(self, spec, p):
        ops, d = ad_ops(spec, p), spec.dim
        nils = ch._nilpotent_parts(ops, p)
        assert ch._operator_algebra_dim(nils, p, d) == oracle_operator_algebra_dim(ops, p, d) == d * d
        lines = [v for (v,) in itertools.islice(ch._enumerate_subspaces(d, p, 1), 12)]
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
        assert exhaustive == echelon_subspace_scan(ops, p, d)
        assert by_lines[0].startswith("line-closure-scan")
        assert (exhaustive[1] is None) == (by_lines[1] is None)
        for _, sub in (exhaustive, by_lines):
            assert sub is None or is_proper_invariant(sub, ops, p, d)

    def test_exhaustive_scan_matches_echelon_loop_on_fixed_modules(self):
        modules = [
            ([[[1, 2, 3, 0], [0, 1, 4, 1], [0, 0, 1, 2], [0, 0, 0, 1]],
              [[2, 1, 0, 4], [3, 3, 1, 0], [0, 0, 1, 1], [0, 0, 4, 2]]], 5, 4),
            ([[[0, 2], [1, 0]]], 3, 2),
        ]
        modules += [(ad_ops(SL2, p), p, SL2.dim) for p in (2, 3, 5, 7, 11, 13)]
        found = 0
        for ops, p, d in modules:
            got = ch._invariant_subspace_scan(ops, p, d)
            assert got[0] == "exhaustive-subspaces"
            assert got == echelon_subspace_scan(ops, p, d)
            found += got[1] is not None
        assert found == 2  # the block-triangular set and sl2 mod 2

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


def annuli_witness(spec, p, k, g, i):
    """An h in G^1 whose commutator with g lands in G^(i+1) but outside
    G^(i+2) Z(G), certifying that g sits in the annulus G^i minus G^(i+1) Z.

    Constructive, following the graded picture: for i = 0 pick a basis
    element of sl_n moved by conjugation by the image of g mod p; for i >= 1
    pick one that fails to commute with psi_i(g).  Lift it to the group and
    verify the commutator's position exactly.
    """
    mul, inv = matgrp.mat_mul_mod, matgrp.mat_inv_mod
    if p in (2, 3):
        raise ValueError(f"annuli analysis requires a good prime, not {p}")
    if not 0 <= i <= k - 2:
        raise ValueError(f"annulus level i={i} needs 0 <= i <= k-2 (k={k})")
    q = p**k
    g = matgrp.reduce_mod(g, q)
    if matgrp.det(g) % q != 1 % q:
        raise ValueError("element is not in SL_n of the requested quotient")
    if not congruent_to_identity(g, p**i):
        raise ValueError(f"element is not in G^{i}")
    centers = center_scalars(spec, q)
    for z in centers:
        if congruent_to_identity(mul(g, inv(z, q), q), p ** (i + 1)):
            raise ValueError(f"element lies in G^{i + 1} Z, not the open annulus")

    basis = ch.lie_algebra_basis(spec, p)
    if i == 0:
        gbar = matgrp.reduce_mod(g, p)
        gbar_inv = inv(gbar, p)
        moved = (b for b in basis if mul(mul(gbar, b, p), gbar_inv, p) != b)
    else:
        xbar = ch.graded_image(g, p, i)
        moved = (b for b in basis if mul(xbar, b, p) != mul(b, xbar, p))
    ybar = next(moved, None)
    if ybar is None:
        raise ValueError("no witness direction exists; element acts centrally")

    h = lift_from_lie(spec, p, k, 1, ybar)
    comm = mul(mul(h, g, q), mul(inv(h, q), inv(g, q), q), q)
    assert congruent_to_identity(comm, p ** (i + 1)), "commutator missed G^(i+1)"
    for z in centers:
        assert not congruent_to_identity(
            mul(comm, inv(z, q), q), p ** (i + 2)
        ), "commutator fell into G^(i+2) Z"
    return h


class TestAnnuli:
    def verify_certificate(self, spec, p, k, g, i, h):
        q = p**k
        assert congruent_to_identity(h, p)  # h in G^1
        hg = matgrp.mat_mul_mod(h, matgrp.reduce_mod(g, q), q)
        inv = matgrp.mat_mul_mod(
            matgrp.mat_inv_mod(h, q), matgrp.mat_inv_mod(matgrp.reduce_mod(g, q), q), q
        )
        c = matgrp.mat_mul_mod(hg, inv, q)
        assert congruent_to_identity(c, p ** (i + 1))
        for z in center_scalars(spec, q):
            cz = matgrp.mat_mul_mod(c, matgrp.mat_inv_mod(z, q), q)
            assert not congruent_to_identity(cz, p ** (i + 2))

    def test_witness_mod_125_outer_shell(self):
        g = matgrp.elementary(2, 1, 2, 1)
        h = annuli_witness(SL2, 5, 3, g, 0)
        self.verify_certificate(SL2, 5, 3, g, 0, h)

    def test_witness_mod_125_middle_shell(self):
        g = matgrp.elementary(2, 1, 2, 5)
        h = annuli_witness(SL2, 5, 3, g, 1)
        self.verify_certificate(SL2, 5, 3, g, 1, h)

    def test_witness_mod_49(self):
        g = ((5, 1), (4, 1))  # E_12(1)*E_21(4), in the outer shell
        h = annuli_witness(SL2, 7, 2, g, 0)
        self.verify_certificate(SL2, 7, 2, g, 0, h)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            annuli_witness(SL2, 5, 3, ((2, 0), (0, 1)), 0)

    def test_rejections(self):
        e = matgrp.elementary(2, 1, 2, 1)
        with pytest.raises(ValueError):
            annuli_witness(SL2, 3, 3, e, 0)  # excluded prime
        with pytest.raises(ValueError):
            annuli_witness(SL2, 5, 3, e, 2)  # level too deep for k
        with pytest.raises(ValueError):
            annuli_witness(SL2, 5, 3, ((-1, 0), (0, -1)), 0)  # central
        with pytest.raises(ValueError):
            annuli_witness(SL2, 5, 3, matgrp.elementary(2, 1, 2, 25), 1)


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
                        matgrp.mat_mul_mod(s, g, 5), matgrp.mat_inv_mod(s, 5), 5
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

    @pytest.mark.parametrize(
        "n, m", [(2, 4), (2, 8), (2, 9), (2, 16), (2, 25), (2, 27), (2, 32), (3, 2), (3, 3), (3, 4)]
    )
    def test_one_pass_levels_match_filtration_subgroups(self, n, m):
        # oracles: each G^i from filtration_subgroup's congruence scan, times
        # every central matrix by matrix products; and the levels, read off
        # the codes, against the detection gcd of the decoded elements
        table = ch.enumerate_group(ch.GroupSpec(n), m)
        assert ch._levels(table) == [math.gcd(m, matgrp.detection_gcd(g)) for g in table.elements]
        k = arith.is_prime_power(m)[1]
        center = center_of(table)
        index = index_of(table)
        want = {
            frozenset(
                index[matgrp.mat_mul_mod(z, g, m)]
                for g in filtration_subgroup(table, i)
                for z in center
            )
            for i in range(k + 1)
        }
        want = sorted(want, key=lambda s: (len(s), sorted(s)))
        assert ch.filtration_center_subgroups(table) == want == filtration_center_subgroups_by_elements(table)


def filtration_center_subgroups_by_elements(table):
    """filtration_center_subgroups with its levels read off the decoded
    elements by the compiled detection gcd, as before tables held codes."""
    p, k = ch._prime_power_modulus(table.modulus)
    key = matgrp.gcd_key(table.spec.n, False, False)
    gcds = list(map(math.gcd, itertools.repeat(p**k), map(key, table.elements)))
    by_center = [table.left(z) for z in table.center if z]
    sub, out = set(), set()
    for i in reversed(range(k + 1)):
        level = [x for x, g in enumerate(gcds) if g == p**i]
        sub.update(level)
        for lz in by_center:
            sub.update(lz[x] for x in level)
        out.add(frozenset(sub))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# slow oracles: the tuple-product engine the table lookups replaced


def index_of(table):
    """Element -> its index, the map FiniteGroupTable does without."""
    return {g: x for x, g in enumerate(table.elements)}


def oracle_closure(gens, m):
    """(elements, right, parent, via) of closure, by mat_mul_mod."""
    first = matgrp.reduce_mod(matgrp.identity(len(gens[0])), m)
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
    index = index_of(table)
    assigned = set()
    classes = []
    for start, g in enumerate(table.elements):
        if start in assigned:
            continue
        assigned.add(start)
        cls, queue = [start], [g]
        for x in queue:
            for s in table.generators:
                y = matgrp.mat_mul_mod(matgrp.mat_mul_mod(s, x, m), matgrp.mat_inv_mod(s, m), m)
                if index[y] not in assigned:
                    assigned.add(index[y])
                    cls.append(index[y])
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
                matgrp.mat_mul_mod(matgrp.mat_inv_mod(g, m), matgrp.mat_inv_mod(s, m), m), m,
            ) in center
            for s in table.generators
        )
    ]


def oracle_subgroup(table, gen_indices):
    """Subgroup generated by some elements, by right multiplication."""
    m, index = table.modulus, index_of(table)
    gens = [table.elements[i] for i in gen_indices]
    seen, queue = {0}, [table.elements[0]]
    for x in queue:
        for s in gens:
            y = matgrp.mat_mul_mod(x, s, m)
            if index[y] not in seen:
                seen.add(index[y])
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

    index = index_of(table)
    center_classes = sorted({class_of[index[z]] for z in oracle_center(table)})
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


def pairwise_saturation(table):
    """The normal subgroups above the center by the library's class products,
    saturating the atoms <Z, C> under pairwise joins until nothing changes."""
    classes = ch.conjugacy_classes(table)
    prod = ch.class_product_table(table, classes)
    class_of = {cls[0]: ci for ci, cls in enumerate(classes)}
    z_mask = sum(1 << class_of[x] for x in table.center)
    subgroups = {ch._class_closure(z_mask | 1 << ci, prod) for ci in range(len(classes))}
    subgroups.add(ch._class_closure(z_mask, prod))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(subgroups), 2):
            if a & b not in (a, b) and (join := ch._class_closure(a | b, prod)) not in subgroups:
                subgroups.add(join)
                changed = True
    out = [frozenset(x for ci, cls in enumerate(classes) if mask >> ci & 1 for x in cls)
           for mask in subgroups]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


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
        assert table.elements == oracle_closure(table.generators, m)[0]
        assert ch.conjugacy_classes(table) == oracle_classes(table)
        assert center_of(table) == oracle_center(table)
        second = [table.elements[g] for g in ch._second_center_indices(table, table.center)]
        assert second == oracle_second_center(table)
        assert ch.normal_subgroups_containing_center(table) == oracle_normal_subgroups(table)

    @pytest.mark.parametrize("spec,m", ORACLE_INSTANCES, ids=lambda v: str(getattr(v, "name", v)))
    def test_singleton_classes_are_the_center(self, spec, m):
        # normal_subgroups_containing_center reads Z from the classes alone
        table = table_for(spec, m)
        assert [c[0] for c in ch.conjugacy_classes(table) if len(c) == 1] == table.center

    @pytest.mark.parametrize("spec,m", [(SL2, 8), (SL2, 9), (SL2, 25), (SL3, 2)],
                             ids=lambda v: str(getattr(v, "name", v)))
    def test_atom_fold_matches_pairwise_saturation(self, spec, m):
        table = table_for(spec, m)
        assert ch.normal_subgroups_containing_center(table) == pairwise_saturation(table)

    @pytest.mark.parametrize("gens,order,subgroups,atoms", [
        ([((1, 6), (7, 3)), ((1, 4), (0, 1))], 16, 5, 4),
        ([((7, 6), (2, 3)), ((1, 0), (3, 1))], 128, 11, 8),
    ], ids=["order16", "order128"])
    def test_lattice_that_needs_its_joins(self, gens, order, subgroups, atoms):
        # In every SL_n(Z/m) table above, each normal subgroup over the
        # center is an atom <Z, C>.  These two subgroups of SL_2(Z/8) have
        # normal subgroups that are only joins of atoms, so a lattice that
        # keeps the atoms and drops the joins fails here.
        codes, right, parent, via = ch.closure(gens, 8)
        table = ch.FiniteGroupTable(SL2, 8, codes, gens, right, parent, via)
        assert len(table) == order
        classes = ch.conjugacy_classes(table)
        prod = ch.class_product_table(table, classes)
        z_mask = sum(1 << ci for ci, cls in enumerate(classes) if len(cls) == 1)
        assert len({ch._class_closure(z_mask | 1 << ci, prod) for ci in range(len(classes))}) == atoms
        found = ch.normal_subgroups_containing_center(table)
        assert len(found) == subgroups
        assert found == oracle_normal_subgroups(table) == pairwise_saturation(table)

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
            want = matgrp.mat_mul_mod(matgrp.mat_mul_mod(matgrp.mat_inv_mod(s, m), el[x], m), s, m)
            assert el[c[x]] == want

    @pytest.mark.parametrize("spec,m", [(SL2, 4), (SL2, 5), (SL2, 7), (SL3, 2)],
                             ids=lambda v: str(getattr(v, "name", v)))
    def test_class_products_match_all_pairs(self, spec, m):
        # the one-representative lemma of class_product_table, checked
        # against the full product set C_a * C_b
        table = table_for(spec, m)
        classes = ch.conjugacy_classes(table)
        class_of = {x: ci for ci, cls in enumerate(classes) for x in cls}
        index = index_of(table)
        prod = ch.class_product_table(table, classes)
        for a, ca in enumerate(classes):
            for b, cb in enumerate(classes):
                hit = 0
                for x in ca:
                    for y in cb:
                        xy = matgrp.mat_mul_mod(table.elements[x], table.elements[y], m)
                        hit |= 1 << class_of[index[xy]]
                assert prod[a][b] == hit

    def test_closure_budget_and_trivial_modulus(self):
        with pytest.raises(ch.BudgetExceededError):
            ch.closure(SL2.elementary_generators(), 7, budget=100)
        # Z/1 is the zero ring: SL_n(Z/1) is one element, not {I, 0}
        t1 = ch.enumerate_group(SL2, 1)
        assert len(t1) == SL2.order_mod(1) == 1
        assert ch.strong_approx_check(SL2, 1, 1).passed
        assert ch.centerless_quotient_check(t1).detail == "second center equals center (order 1)"


# ---------------------------------------------------------------------------
# the table-driven closure against oracle_closure


def encode(g, m):
    """The code of a matrix mod m: its entries as base-m digits, row-major."""
    code = 0
    for entry in itertools.chain.from_iterable(g):
        code = code * m + entry
    return code


def as_lists(result):
    elements, right, parent, via = result
    return elements, [list(row) for row in right], list(parent), list(via)


def strong_approx_generators(monkeypatch, spec, N, m):
    """The generator list strong_approx_check hands to its last closure:
    every conjugate it kept."""
    calls = []
    real = ch.closure

    def spy(gens, m, *args, **kwargs):
        calls.append(gens)
        return real(gens, m, *args, **kwargs)

    monkeypatch.setattr(ch, "closure", spy)
    assert ch.strong_approx_check(spec, N, m, seed=0).passed
    return calls[-1]


TABLE_INSTANCES = [(SL2, m) for m in (1, 2, 3, 4, 9, 13)] + [(SL3, 2), (SL3, 3), (SL4, 2)]


class TestTableClosure:
    @pytest.mark.parametrize("spec,m", TABLE_INSTANCES, ids=_ids)
    def test_matches_matrix_product_bfs(self, spec, m):
        gens = ch._elementary_mod(spec, m, signs=(1,))
        got = closure_elements(gens, m)
        assert as_lists(got) == oracle_closure(gens, m)
        assert len(got[0]) == spec.order_mod(m)
        # rows are shared: one tuple per row vector, at most m^n of them
        assert len({id(row) for g in got[0] for row in g}) <= m**spec.n

    @pytest.mark.parametrize("spec,m", [(SL2, 4), (SL2, 9), (SL3, 2)], ids=_ids)
    def test_signed_generators_match(self, spec, m):
        gens = ch._elementary_mod(spec, m)
        assert as_lists(closure_elements(gens, m)) == oracle_closure(gens, m)

    @pytest.mark.parametrize("N,m", [(5, 9), (3, 8)])
    def test_strong_approx_conjugates(self, monkeypatch, N, m):
        gens = strong_approx_generators(monkeypatch, SL2, N, m)
        assert not all(g in ch._elementary_mod(SL2, m) for g in gens)
        got = closure_elements(gens, m)
        assert as_lists(got) == oracle_closure(gens, m)
        # the finite-group lemma: adding the inverses closes to the same set
        with_inverses = gens + [matgrp.mat_inv_mod(g, m) for g in gens]
        assert set(closure_elements(with_inverses, m)[0]) == set(got[0])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [5, 6, 8, 9])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_generators_match(self, n, m, seed):
        # dense generators with entries anywhere in [0, m), invertible or not,
        # so every column of the row tables is a general one; two generators
        # for n = 2 (at most m^4 matrices), one for n = 3 (a cyclic monoid)
        rng = random.Random(1000 * n + 10 * m + seed)
        gens = [
            tuple(tuple(rng.randrange(m) for _ in range(n)) for _ in range(n))
            for _ in range(4 - n)
        ]
        assert as_lists(closure_elements(gens, m)) == oracle_closure(gens, m)

    @pytest.mark.parametrize("spec,m", [(SL2, 1), (SL3, 1), (SL2, 6)], ids=_ids)
    def test_codes_round_trip(self, spec, m):
        # a code is the base-m digits of the entries in row-major order:
        # encoding the decoded elements gives the codes back, and at m = 1
        # the one code is 0 and its element the zero matrix
        gens = ch._elementary_mod(spec, m, signs=(1,))
        codes = ch.closure(gens, m)[0]
        elements = ch._decode(codes, spec.n, m)
        assert elements == oracle_closure(gens, m)[0]
        assert [encode(g, m) for g in elements] == codes
        if m == 1:
            assert codes == [0] and elements == [((0,) * spec.n,) * spec.n]
        table = ch.enumerate_group(spec, m)
        assert table.codes == codes and table.elements == elements
        assert table.elements is table.elements  # decoded once

    def test_budget_boundary(self):
        gens = ch._elementary_mod(SL2, 13, signs=(1,))
        order = SL2.order_mod(13)
        assert len(closure_elements(gens, 13, budget=order)[0]) == order
        with pytest.raises(ch.BudgetExceededError, match="closure exceeded"):
            ch.closure(gens, 13, budget=order - 1)

    def test_stop_at_ends_the_walk(self):
        gens = ch._elementary_mod(SL3, 3, signs=(1,))
        order = SL3.order_mod(3)
        elements, right, parent, via = closure_elements(gens, 3, stop_at=order)
        full = closure_elements(gens, 3)
        assert elements == full[0] and parent == full[2] and via == full[3]
        walked = len(right[0])
        assert walked < order
        assert all(list(row) == list(f[:walked]) for row, f in zip(right, full[1]))

    def test_table_guard(self):
        # a one-element closure still needs tables of m^(n ceil(n/2))
        # entries, and they are checked before the walk
        one = [matgrp.identity(3)]
        assert len(closure_elements(one, 5, budget=5**6)[0]) == 1
        with pytest.raises(ch.BudgetExceededError, match="tables"):
            ch.closure(one, 5, budget=5**6 - 1)

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


def center_reduction_check(spec, p, k):
    """Z(G mod p^k) -> Z(G mod p^(k-1)) should be a bijection (good primes)."""
    if k < 2:
        raise ValueError("need k >= 2")
    instance = f"{spec.name},p={p},k={k}"
    upper = center_scalars(spec, p**k)
    lower = center_scalars(spec, p ** (k - 1))
    images = [matgrp.reduce_mod(z, p ** (k - 1)) for z in upper]
    if len(set(images)) == len(upper) and set(images) == set(lower):
        return ch.CheckResult(
            "center-reduction", instance, "pass",
            f"bijection on {len(upper)} central scalars",
        )
    return ch.CheckResult(
        "center-reduction", instance, "fail",
        f"|Z(mod p^{k})| = {len(upper)} maps onto {len(set(images))} of {len(lower)}",
    )


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

    def test_mod_16_centers_match_oracles(self):
        # the one failing instance: both fixed-point passes, exactly
        t16 = ch.enumerate_group(SL2, 16)
        center = [t16.elements[x] for x in t16.center]
        second = [t16.elements[x] for x in ch._second_center_indices(t16, t16.center)]
        assert center == oracle_center(t16) and len(center) == 4
        assert second == oracle_second_center(t16) and len(second) == 8

    def test_center_reduction(self):
        assert center_reduction_check(SL2, 5, 2).passed
        assert center_reduction_check(SL2, 7, 3).passed
        r = center_reduction_check(SL2, 2, 2)
        assert r.status == "fail"
        with pytest.raises(ValueError):
            center_reduction_check(SL2, 5, 1)


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

    @pytest.mark.parametrize("spec,m", [(SL2, 1), (SL2, 8), (SL2, 9), (SL3, 2), (SL3, 3)],
                             ids=lambda v: str(getattr(v, "name", v)))
    def test_full_level_closes_once(self, monkeypatch, spec, m):
        # N = 1 closes its E_ij(1) once, and nothing else
        calls = []
        real = ch.closure
        monkeypatch.setattr(ch, "closure", lambda gens, *a, **kw: calls.append(gens) or real(gens, *a, **kw))
        assert ch.strong_approx_check(spec, 1, m).passed
        assert calls == [ch._elementary_mod(spec, m, signs=(1,))]

    def test_too_few_generators_fail_at_full_level(self, monkeypatch):
        # the only failing verdict of the exact N = 1 path: E_12(1) alone
        # closes to its 9 powers mod 9, not to all of SL_2(Z/9)
        real = ch._elementary_mod
        monkeypatch.setattr(ch, "_elementary_mod", lambda *a, **kw: real(*a, **kw)[:1])
        r = ch.strong_approx_check(SL2, 1, 9)
        assert (r.status, r.detail, r.mode) == ("fail", "closure reaches 9 of 648", "exact")

    def test_too_few_trials_inconclusive(self):
        r = ch.strong_approx_check(SL2, 2, 9, trials=1, seed=5)
        assert r.status == "inconclusive"
        assert "648" in r.detail

    def test_rejections(self):
        with pytest.raises(ValueError, match="gcd"):
            ch.strong_approx_check(SL2, 2, 4)
        # m < 1 is rejected before the gcd test, which gcd(2, 0) = 2 fails
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            ch.strong_approx_check(SL2, 2, 0)
        with pytest.raises(ch.BudgetExceededError):
            ch.strong_approx_check(SL3, 1, 9)


def eager_strong_approx(spec, N, m, trials, seed):
    """Oracle for the probabilistic branch of strong_approx_check: draw all
    `trials` seeded conjugates, drop repeats, close them once, and report
    (status, detail, mode) as the check does."""
    expected = spec.order_mod(m)
    base_gens = [matgrp.reduce_mod(g, m) for g in spec.elementary_generators()]
    rng = random.Random(seed)
    conjugates = {}  # insertion-ordered, each once
    for _ in range(trials):
        i, j = spec.roots[rng.randrange(len(spec.roots))]
        sign = 1 if rng.randrange(2) == 0 else -1
        core = matgrp.reduce_mod(matgrp.elementary(spec.n, i, j, sign * N), m)
        w = matgrp.identity(spec.n)
        for _ in range(rng.randrange(0, 13)):
            w = matgrp.mat_mul_mod(w, base_gens[rng.randrange(len(base_gens))], m)
        winv = matgrp.mat_inv_mod(w, m)
        conjugates[matgrp.mat_mul_mod(matgrp.mat_mul_mod(w, core, m), winv, m)] = None
    gens = list(conjugates) or [matgrp.identity(spec.n)]
    reached = len(ch.closure(gens, m, stop_at=expected)[0])
    if reached == expected:
        return "pass", f"closure reaches all {expected} elements", "probabilistic"
    return (
        "inconclusive", f"closure reaches {reached} of {expected} after {trials} trials", "probabilistic",
    )


EARLY_STOP_INSTANCES = [
    (SL2, N, m)
    for N in (2, 3, 4, 5, 7, 11)
    for m in (3, 4, 5, 7, 8, 9, 11, 16, 25, 27)
    if math.gcd(N, m) == 1
] + [(SL3, 2, 3), (SL3, 4, 3), (SL3, 5, 4)]


@pytest.mark.parametrize("spec,N,m", EARLY_STOP_INSTANCES, ids=_ids)
def test_early_stop_matches_eager_oracle(monkeypatch, spec, N, m):
    """The draws stop at the first full closure and skip conjugates already
    inside it, with every verdict and detail of the eager draw-all-then-close
    oracle.  A closure spy sees the lemma's shape: each call has one more
    generator than the last, only the last may reach the full order, and
    there are at most log2 |SL_n(Z/m)| + 1 calls, none without a draw.  A
    spy on mat_inv_mod, called once per draw, sees the draws end at the call
    that closes."""
    expected = spec.order_mod(m)
    cases = [(trials, seed) for trials in (0, 1, 2, 3, 8, 64) for seed in range(3)]
    want = {case: eager_strong_approx(spec, N, m, *case) for case in cases}
    calls, draws = [], []
    real, real_inv = ch.closure, ch.mat_inv_mod

    def spy(gens, m, *args, **kwargs):
        result = real(gens, m, *args, **kwargs)
        calls.append((len(gens), len(result[0]), len(draws)))
        return result

    def inv_spy(w, m):
        draws.append(w)
        return real_inv(w, m)

    monkeypatch.setattr(ch, "closure", spy)
    monkeypatch.setattr(ch, "mat_inv_mod", inv_spy)
    for trials, seed in cases:
        calls.clear()
        draws.clear()
        r = ch.strong_approx_check(spec, N, m, trials, seed)
        assert (r.status, r.detail, r.mode) == want[trials, seed], (trials, seed)
        assert bool(calls) == bool(trials), (trials, seed)  # the closure of nothing is {I}
        assert [k for k, _, _ in calls] == list(range(1, len(calls) + 1)), (trials, seed)
        assert all(reached < expected for _, reached, _ in calls[:-1]), (trials, seed)
        assert len(calls) <= math.log2(expected) + 1, (trials, seed)
        assert len(draws) == (calls[-1][2] if r.passed else trials), (trials, seed)


def test_check_result_passed_property():
    r = ch.CheckResult("x", "y", "pass", "ok")
    assert r.passed and r.mode == "exhaustive"
    assert not ch.CheckResult("x", "y", "fail", "no").passed
