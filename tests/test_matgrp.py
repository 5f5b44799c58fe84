"""Tests for exact matrices and minimal detecting quotients.

The brute-force scan over all moduli is the oracle for the prime-power
search; frozen expected values below were computed with it first.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfin import arith, matgrp
from resfin.chevalley import SL2, SL3


def permutation_det(a):
    """Independent oracle: det as the signed sum over permutations."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y]
        )
        term = 1
        for r in range(n):
            term *= a[r][perm[r]]
        total += -term if inversions % 2 else term
    return total


def laplace_det(a):
    """Independent oracle: det by cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * laplace_det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


small_entries = st.integers(min_value=-30, max_value=30)
# mostly zeros, so that elimination meets zero pivots and singular matrices
sparse_entries = st.sampled_from((0, 0, 0, 1, -1, 2))


def square_matrix(n, entries=small_entries):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(matgrp.mat)


def sl_word(n, max_len=6):
    """Random elements of SL_n(Z) as words in the E_ij(z), |z| <= 3."""
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    step = st.tuples(st.sampled_from(positions), st.integers(-3, 3))
    def build(steps):
        a = matgrp.identity(n)
        for (i, j), z in steps:
            a = matgrp.mat_mul(a, matgrp.elementary(n, i, j, z))
        return a
    return st.lists(step, min_size=1, max_size=max_len).map(build)


def sl2_word(max_len=6):
    """Random elements of SL_2(Z) as words in E_12, E_21."""
    return sl_word(2, max_len)


def brute_force_central_D(a, spec, m_max):
    """Oracle for congruence_D(allow_central=True): every modulus 2..m_max,
    composites included, minimizing (order, modulus, central flag).

    SL_n(Z/m) scores order_mod(m); SL_n(Z/m) / center scores
    order_mod(m) // center_order_mod(m) and counts only when a is not
    central mod m, decided by commuting a with the elementary generators,
    which generate SL_n(Z/m).  Returns the minimum and whether m_max covers
    twice the least detecting prime power, which makes it global.
    """
    ident = matgrp.identity(spec.n)
    gens = spec.elementary_generators()
    best = None
    least_pp = None
    for m in range(2, m_max + 1):
        am = matgrp.reduce_mod(a, m)
        if am == ident:
            continue
        if least_pp is None and arith.is_prime_power(m):
            least_pp = m
        order = spec.order_mod(m)
        cands = [(order, m, False)]
        central = all(
            matgrp.mat_mul_mod(am, e, m) == matgrp.mat_mul_mod(e, am, m) for e in gens
        )
        if not central:
            cands.append((order // spec.center_order_mod(m), m, True))
        best = min(cands if best is None else cands + [best])
    return best, least_pp is not None and m_max >= 2 * least_pp


class TestMatrixBasics:
    def test_mat_rejects_ragged(self):
        with pytest.raises(ValueError):
            matgrp.mat([[1, 2], [3]])

    def test_elementary(self):
        assert matgrp.elementary(2, 1, 2, 12) == ((1, 12), (0, 1))
        with pytest.raises(ValueError):
            matgrp.elementary(2, 1, 1, 3)

    def test_parse_format_example(self):
        assert matgrp.parse_matrix("1,12;0,1") == ((1, 12), (0, 1))
        assert matgrp.format_matrix(((1, 12), (0, 1))) == "1,12;0,1"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            matgrp.parse_matrix("1,x;0,1")

    @given(square_matrix(2))
    def test_parse_format_roundtrip(self, a):
        assert matgrp.parse_matrix(matgrp.format_matrix(a)) == a

    @given(square_matrix(3), square_matrix(3))
    def test_mul_mod_matches_mul(self, a, b):
        assert matgrp.reduce_mod(matgrp.mat_mul(a, b), 97) == matgrp.mat_mul_mod(
            matgrp.reduce_mod(a, 97), matgrp.reduce_mod(b, 97), 97
        )


class TestDetAndInverse:
    @given(st.one_of(
        *(square_matrix(n) for n in (2, 3, 4, 5)),
        *(square_matrix(n, sparse_entries) for n in (4, 5)),
    ))
    def test_det_matches_permutation_sum(self, a):
        assert matgrp.det(a) == permutation_det(a) == laplace_det(a)

    @given(square_matrix(3))
    def test_adjugate_identity(self, a):
        d = matgrp.det(a)
        prod = matgrp.mat_mul(a, matgrp.adjugate(a))
        assert prod == tuple(
            tuple(d if i == j else 0 for j in range(3)) for i in range(3)
        )

    @given(sl2_word())
    def test_inverse_of_unimodular(self, a):
        assert matgrp.mat_mul(a, matgrp.mat_inv(a)) == matgrp.identity(2)

    def test_inverse_rejects_nonunit_det(self):
        with pytest.raises(matgrp.SingularMatrixError):
            matgrp.mat_inv(((2, 0), (0, 2)))
        with pytest.raises(matgrp.SingularMatrixError):
            matgrp.mat_inv_mod(((2, 0), (0, 2)), 10)


class TestDetectionGcd:
    def test_frozen_examples(self):
        assert matgrp.detection_gcd(matgrp.elementary(2, 1, 2, 12)) == 12
        assert matgrp.detection_gcd(((2, 1), (1, 1))) == 1
        assert matgrp.detection_gcd(matgrp.identity(2)) == 0

    @given(sl2_word(), st.integers(min_value=2, max_value=60))
    def test_gcd_governs_death(self, a, m):
        # a dies mod m exactly when m divides the detection gcd
        g = matgrp.detection_gcd(a)
        dies = matgrp.reduce_mod(a, m) == matgrp.identity(2)
        assert dies == (g % m == 0)


class TestCongruenceD:
    def test_frozen_sl2_values(self):
        r = matgrp.congruence_D(matgrp.elementary(2, 1, 2, 12), SL2)
        assert (r.modulus, r.quotient_order) == (5, 120)
        r = matgrp.congruence_D(matgrp.elementary(2, 1, 2, 6), SL2)
        assert (r.modulus, r.quotient_order) == (4, 48)
        r = matgrp.congruence_D(matgrp.elementary(2, 1, 2, 1), SL2)
        assert (r.modulus, r.quotient_order) == (2, 6)

    def test_minus_identity(self):
        minus = ((-1, 0), (0, -1))
        r = matgrp.congruence_D(minus, SL2)
        assert (r.modulus, r.quotient_order) == (3, 24)

    def test_identity_rejected(self):
        with pytest.raises(matgrp.UndetectableError):
            matgrp.congruence_D(matgrp.identity(2), SL2)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matgrp.congruence_D(matgrp.elementary(3, 1, 2, 5), SL2)

    def test_central_quotient_can_win(self):
        # mod 5 the image of E_12(12) is noncentral, so PSL_2(5) of order 60
        # beats every plain congruence quotient
        r = matgrp.congruence_D(matgrp.elementary(2, 1, 2, 12), SL2, allow_central=True)
        assert (r.modulus, r.quotient_order, r.central_quotient) == (5, 60, True)

    def test_central_image_cannot_use_central_quotient(self):
        # -I is central in every SL_2(Z/q), so allowing central quotients
        # changes nothing for it
        minus = ((-1, 0), (0, -1))
        r = matgrp.congruence_D(minus, SL2, allow_central=True)
        assert (r.modulus, r.quotient_order, r.central_quotient) == (3, 24, False)


class TestBruteForceD:
    def test_frozen_examples(self):
        r = matgrp.brute_force_D(matgrp.elementary(2, 1, 2, 12), SL2, 200)
        assert (r.modulus, r.quotient_order) == (5, 120)
        assert r.search_complete is True
        r = matgrp.brute_force_D(((-1, 0), (0, -1)), SL2, 100)
        assert (r.modulus, r.quotient_order) == (3, 24)
        r = matgrp.brute_force_D(matgrp.elementary(2, 1, 2, 60), SL2, 400)
        assert (r.modulus, r.quotient_order) == (7, 336)

    def test_incomplete_range_flagged(self):
        r = matgrp.brute_force_D(matgrp.elementary(2, 1, 2, 60), SL2, 13)
        assert r.modulus == 7
        assert r.search_complete is False

    def test_exhausted_range_raises(self):
        with pytest.raises(matgrp.RangeExhaustedError):
            matgrp.brute_force_D(matgrp.elementary(2, 1, 2, 60), SL2, 4)

    @settings(max_examples=60, deadline=None)
    @given(sl2_word())
    def test_prime_power_search_matches_all_moduli(self, a):
        if a == matgrp.identity(2):
            return
        fast = matgrp.congruence_D(a, SL2)
        slow = matgrp.brute_force_D(a, SL2, 64)
        assert slow.search_complete
        assert fast.quotient_order == slow.quotient_order
        assert fast.modulus == slow.modulus

    @settings(max_examples=40, deadline=None)
    @given(sl_word(3))
    def test_prime_power_search_matches_all_moduli_sl3(self, a):
        if a == matgrp.identity(3):
            return
        fast = matgrp.congruence_D(a, SL3)
        slow = matgrp.brute_force_D(a, SL3, 48)
        assert slow.search_complete
        assert (fast.modulus, fast.quotient_order) == (slow.modulus, slow.quotient_order)


class TestCentralOracle:
    def test_frozen_examples(self):
        # PSL_2(5) sees E_12(12); -I is central everywhere and keeps SL_2(3)
        best, complete = brute_force_central_D(matgrp.elementary(2, 1, 2, 12), SL2, 64)
        assert complete and best == (60, 5, True)
        best, complete = brute_force_central_D(((-1, 0), (0, -1)), SL2, 64)
        assert complete and best == (24, 3, False)
        # E_12(60) first survives mod 7 (168 centrally), but mod 8 the center
        # has order 4 and 384 / 4 = 96 wins: only the 2n stop-rule slack
        # keeps the search running that far
        best, complete = brute_force_central_D(matgrp.elementary(2, 1, 2, 60), SL2, 64)
        assert complete and best == (96, 8, True)

    @pytest.mark.parametrize("a,spec", [
        (matgrp.elementary(2, 1, 2, 12), SL2),
        (matgrp.elementary(2, 1, 2, 60), SL2),
        (matgrp.elementary(2, 1, 2, 840), SL2),
        (matgrp.elementary(3, 1, 2, 60), SL3),
        (((-1, 0), (0, -1)), SL2),
    ])
    def test_pinned_elements(self, a, spec):
        self._check(a, spec, 64)

    @settings(max_examples=60, deadline=None)
    @given(sl_word(2))
    def test_central_search_matches_all_moduli_sl2(self, a):
        self._check(a, SL2, 64)

    @settings(max_examples=30, deadline=None)
    @given(sl_word(3, max_len=5))
    def test_central_search_matches_all_moduli_sl3(self, a):
        self._check(a, SL3, 40)

    @staticmethod
    def _check(a, spec, m_max):
        if a == matgrp.identity(spec.n):
            return
        fast = matgrp.congruence_D(a, spec, allow_central=True)
        slow, complete = brute_force_central_D(a, spec, m_max)
        assert complete
        assert fast.key() == (slow[0], slow[1], int(slow[2]))

    def test_non_unimodular_centrality(self):
        # det = -1: diag(1, -1) is scalar mod 2 only; diag(2, 2) is scalar
        # everywhere but 2^2 = 1 only mod 3
        a = ((1, 0), (0, -1))
        assert [q for q in range(2, 9) if matgrp.is_central_mod(a, q)] == [2]
        assert [q for q in range(2, 9) if matgrp.is_central_mod(((2, 0), (0, 2)), q)] == [3]
        r = matgrp.congruence_D(a, SL2, allow_central=True)
        assert (r.modulus, r.quotient_order, r.central_quotient) == (3, 12, True)


class TestOrderFloor:
    def test_floor_holds_for_sl2_and_sl3(self):
        for spec in (SL2, SL3):
            num, den = matgrp._order_floor_fraction(spec.n)
            for q in [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]:
                assert spec.order_mod(q) * den >= q**spec.dim * num


def test_is_central_mod():
    minus = ((-1, 0), (0, -1))
    assert matgrp.is_central_mod(minus, 5)
    assert not matgrp.is_central_mod(matgrp.elementary(2, 1, 2, 1), 5)
    # diag(2, 2) mod 5: scalar but 2^2 = 4 != 1, not in SL_2's center
    assert not matgrp.is_central_mod(((2, 0), (0, 2)), 5)
