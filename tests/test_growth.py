"""Tests for word balls, growth tables, candidate sequences, word synthesis.

Ball contents for small radii were verified against the brute-force product
oracle below; growth values F(1) = 6 and F(2) = 24 were derived through the
all-moduli brute force before freezing.
"""

import functools
import itertools
import math
import random
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfin import arith, matgrp
from resfin import growth as gr
from resfin.chevalley import SL2, SL3, SL4, BudgetExceededError, GroupSpec


def brute_ball(gens, n):
    """Oracle: minimal word length by enumerating all products up to length n."""
    out = {matgrp.identity(len(gens.mats[0])): 0}
    for length in range(1, n + 1):
        for combo in itertools.product(gens.mats, repeat=length):
            m = matgrp.identity(len(combo[0]))
            for s in combo:
                m = matgrp.mat_mul(m, s)
            if m not in out:
                out[m] = length
    return out


MINUS_I = ((-1, 0), (0, -1))
A_MINUS_I = gr.GeneratingSet("A,-I", (((-3, 2), (-2, 1)), ((1, -2), (2, -3)), MINUS_I))
# R = diag(-1, 1) and -I_3 have det -1, so the central key keeps its det - 1
# term for these sets
R_T = gr.GeneratingSet(
    "R,T", (((-1, 0), (0, 1)), matgrp.elementary(2, 1, 2, 1), matgrp.elementary(2, 1, 2, -1))
)
E3_MINUS_I = gr.GeneratingSet(
    "E(3),-I", gr.elementary_set(3).mats + (((-1, 0, 0), (0, -1, 0), (0, 0, -1)),)
)


@functools.cache
def reference_powers():
    """{q: (p, i)} with q = p**i for the prime powers q <= 10^4, in order."""
    return {q: arith.is_prime_power(q) for q in arith.prime_powers_up_to(10**4)}


@functools.cache
def reference_orders(spec, q):
    """(order_mod(q), center_order_mod(q)), computed once per (spec, q)."""
    return spec.order_mod(q), spec.center_order_mod(q)


def reference_search(spec, allow_central, survives, central):
    """Oracle: the least (order, q, central) congruence quotient over the
    prime powers q with survives(q), by a per-call search with its own copy
    of the stop rule, independent of matgrp.QuotientSearch: q from
    prime_powers_up_to, starting at 2; with allow_central the quotient by
    the center competes unless central(q)."""
    n = spec.n
    fnum, fden = 1, 1
    for i in range(2, n + 1):
        fnum, fden = fnum * (2**i - 1), fden * 2**i
    slack = 2 * n if allow_central else 1
    best = None
    for q in reference_powers():
        if best is not None and q**spec.dim * fnum > best[0] * fden * slack:
            return matgrp.DetectionResult(best[1], best[0], best[2] == 1)
        if not survives(q):
            continue
        order, z = reference_orders(spec, q)
        cands = [(order, q, 0)]
        if allow_central and not central(q):
            cands.append((order // z, q, 1))
        best = min(cands if best is None else cands + [best])
    raise AssertionError("reference search ran past its prime-power range")


def reference_D(a, spec, allow_central):
    """Oracle for congruence_D: survival by reducing a mod q, centrality by
    reading the reduction as a scalar lambda with lambda^n = 1."""
    ident = matgrp.identity(spec.n)

    def central(q):
        am = matgrp.reduce_mod(a, q)
        lam = am[0][0]
        scalar = all(x == (lam if i == j else 0) for i, row in enumerate(am) for j, x in enumerate(row))
        return scalar and pow(lam, spec.n, q) == 1

    return reference_search(spec, allow_central, lambda q: matgrp.reduce_mod(a, q) != ident, central)


def reference_candidate_D(cs, k, allow_central):
    """Oracle for candidate_D_analytic: survival from cs.survives at the
    prime and exponent of q; a surviving E_12(M) mod q is never scalar."""
    return reference_search(
        cs.spec, allow_central, lambda q: cs.survives(k, *reference_powers()[q]), lambda q: False
    )


def per_element_table(gens, spec, n_max, k=1, allow_central=False):
    """Oracle: the growth table with reference_D run on every ball element,
    no detection keys; gamma^k is a plain repeated product."""
    ball = gr.word_ball(gens, n_max)
    ident = matgrp.identity(spec.n)
    rows = [gr.GrowthRow(0, 1, 0, None, None)]
    best, witness, det = 0, None, None
    for n in range(1, n_max + 1):
        for g, length in sorted(ball.items(), key=lambda kv: (kv[1], kv[0])):
            if length != n:
                continue
            tg = g
            for _ in range(k - 1):
                tg = matgrp.mat_mul(tg, g)
            if tg == ident:
                continue
            d = reference_D(tg, spec, allow_central)
            if d.quotient_order > best:
                best, witness, det = d.quotient_order, g, d
        size = sum(1 for length in ball.values() if length <= n)
        rows.append(gr.GrowthRow(n, size, best, witness, det))
    return gr.GrowthTable(gens.name, k, allow_central, tuple(rows))


def reference_synth(n, i, j, z, words=None):
    """Length baseline: the O((1 + log2 |z|)^2) commutator word for E_ij(z),
    from [E_il(a), E_lj(b)] = E_ij(ab), built as both the binary and the
    divisor split in full at every level, keeping the shorter (the split on
    ties).  `words` memoizes finished words by (i, j, z) within one call."""
    words = {} if words is None else words
    if (i, j, z) not in words:
        words[i, j, z] = _reference_word(n, i, j, z, words)
    return words[i, j, z]


def _reference_word(n, i, j, z, words):
    mag = abs(z)
    if mag <= 3:
        return [(i, j, 1 if z > 0 else -1)] * mag
    l = next(x for x in range(1, n + 1) if x not in (i, j))
    sign = 1 if z > 0 else -1

    def commutator(a, b):
        wa, wb = reference_synth(n, i, l, a, words), reference_synth(n, l, j, b, words)
        inverse = [[(a, b, -c) for a, b, c in reversed(w)] for w in (wa, wb)]
        return wa + wb + inverse[0] + inverse[1]

    if mag & (mag - 1) == 0:
        t = mag.bit_length() - 1
        return commutator(2 ** ((t + 1) // 2), sign * 2 ** (t // 2))
    s = mag.bit_length() // 2
    hi, lo = mag >> s, mag & ((1 << s) - 1)
    binary = commutator(sign * hi, 2**s)
    if lo:
        binary = binary + reference_synth(n, i, j, sign * lo, words)
    divisors = [1]
    for p, e in arith.factorize(mag):
        divisors = [d * p**t for d in divisors for t in range(e + 1)]
    balanced = [d for d in divisors if 2 <= d <= math.isqrt(mag)]
    if balanced:
        a = max(balanced)
        split = commutator(a, sign * (mag // a))
        if len(split) <= len(binary):
            return split
    return binary


class TestWordBall:
    def test_radius_zero_and_one(self):
        gens = gr.sl2_st()
        assert gr.word_ball(gens, 0) == {matgrp.identity(2): 0}
        b1 = gr.word_ball(gens, 1)
        assert len(b1) == 5
        assert set(b1.values()) == {0, 1}

    def test_minus_identity_at_radius_two(self):
        b2 = gr.word_ball(gr.sl2_st(), 2)
        assert len(b2) == 16
        assert b2[MINUS_I] == 2

    def test_matches_brute_force(self):
        gens = gr.sl2_st()
        assert gr.word_ball(gens, 3) == brute_ball(gens, 3)
        gens3 = gr.elementary_set(3)
        assert gr.word_ball(gens3, 2) == brute_ball(gens3, 2)
        assert gr.word_ball(gr.elementary_set(4), 2) == brute_ball(gr.elementary_set(4), 2)
        # every column of A, A^-1 and -I changes, none is an identity column
        assert gr.word_ball(A_MINUS_I, 4) == brute_ball(A_MINUS_I, 4)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            gr.word_ball(gr.sl2_st(), 6, budget=10)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            gr.word_ball(gr.sl2_st(), -1)


class TestGeneratingSet:
    def test_rejects_asymmetric(self):
        t = matgrp.elementary(2, 1, 2, 1)
        with pytest.raises(ValueError):
            gr.GeneratingSet("bad", (t,))

    def test_elementary_set(self):
        gens = gr.elementary_set(3)
        assert len(gens.mats) == 12
        assert gens.mats[3] == matgrp.elementary(3, 1, 3, -1)
        assert gens.mats == tuple(matgrp.elementary(3, i, j, c) for i, j in SL3.roots for c in (1, -1))


class TestFarbGrowth:
    def test_frozen_first_values(self):
        t = gr.farb_growth(gr.sl2_st(), SL2, 4)
        assert t.f(1) == 6
        assert t.f(2) == 24
        assert t.rows[0].f_value == 0 and t.rows[0].ball_size == 1
        assert t.rows[1].witness == ((0, -1), (1, 0))
        assert t.rows[2].witness == MINUS_I
        assert (t.rows[2].detection.modulus, t.rows[2].detection.quotient_order) == (3, 24)
        assert t.family == "F_cong"

    def test_monotone_and_ball_sizes(self):
        t = gr.farb_growth(gr.sl2_st(), SL2, 5)
        values = [r.f_value for r in t.rows]
        assert values == sorted(values)
        sizes = [r.ball_size for r in t.rows]
        assert sizes[0:3] == [1, 5, 16]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_power_table_skips_torsion(self):
        # S^2 = -I is kept (nontrivial), S^4 = I is skipped at k=4
        t2 = gr.farb_growth(gr.sl2_st(), SL2, 2, k=2)
        assert [(r.n, r.f_value) for r in t2.rows] == [(0, 0), (1, 24), (2, 24)]
        assert t2.rows[1].witness == ((0, -1), (1, 0))
        t4 = gr.farb_growth(gr.sl2_st(), SL2, 1, k=4)
        # at radius 1 only T^4 = E_12(4) survives; detected first mod 3
        assert t4.rows[1].detection.modulus == 3
        assert t4.rows[1].witness in (matgrp.elementary(2, 1, 2, 1), matgrp.elementary(2, 1, 2, -1))

    def test_selberg_inequality_small(self):
        plain = gr.farb_growth(gr.sl2_st(), SL2, 8)
        squared = gr.farb_growth(gr.sl2_st(), SL2, 4, k=2)
        for n in range(1, 5):
            assert squared.f(n) <= plain.f(2 * n)

    def test_central_family(self):
        t = gr.farb_growth(gr.sl2_st(), SL2, 2, allow_central=True)
        assert t.family == "F_cong_central"
        # the maximizer -I is central everywhere, so F(2) stays 24
        assert t.f(2) == 24
        assert t.rows[2].detection.central_quotient is False

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("allow_central", [False, True])
    @pytest.mark.parametrize("gens,spec,n_max", [
        (gr.sl2_st(), SL2, 8),
        (gr.elementary_set(3), SL3, 3),
        # A = [[-3, 2], [-2, 1]] and -I share detection_gcd 2 and A sorts
        # first, but only -I is central mod 3: one key per gcd would give
        # -I the central order 12 of A instead of 24
        (A_MINUS_I, SL2, 3),
        (R_T, SL2, 6),
        (E3_MINUS_I, SL3, 2),
    ])
    def test_keyed_table_matches_per_element_oracle(self, gens, spec, n_max, k, allow_central):
        fast = gr.farb_growth(gens, spec, n_max, k=k, allow_central=allow_central)
        assert fast == per_element_table(gens, spec, n_max, k, allow_central)

    @pytest.mark.parametrize("gens,radius", [
        (gr.sl2_st(), 6), (gr.elementary_set(3), 2), (A_MINUS_I, 4), (R_T, 6), (E3_MINUS_I, 2),
    ])
    def test_central_key_matches_central_gcd(self, gens, radius):
        # -I_3 has off-diagonal and diagonal-difference gcd 0; only its
        # det - 1 term makes its central gcd 2
        d = len(gens.mats[0])
        key = gr._central_key(d, all(matgrp.det(s) == 1 for s in gens.mats))
        for g in gr.word_ball(gens, radius):
            power = g
            for _ in range(3):
                assert key(sum(power, ())) == matgrp._central_gcd(power), power
                power = matgrp.mat_mul(power, g)

    def test_witness_is_the_entry_least_of_a_tied_sphere(self):
        # S^-1 is found first and S, T^-1, T tie with it at order 6 on
        # sphere 1; S is the least in entries order
        s, t = matgrp.mat([[0, -1], [1, 0]]), matgrp.elementary(2, 1, 2, 1)
        gens = gr.GeneratingSet("S^-1,S,T^-1,T", (matgrp.mat_inv(s), s, matgrp.mat_inv(t), t))
        table = gr.farb_growth(gens, SL2, 3)
        assert next(iter(gr.word_ball(gens, 1))) == matgrp.identity(2)
        assert list(gr.word_ball(gens, 1))[1] == matgrp.mat_inv(s)
        assert table.rows[1].witness == s
        assert table == per_element_table(gens, SL2, 3)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            gr.farb_growth(gr.sl2_st(), SL2, 2, k=0)


class TestCandidateSeq:
    def test_frozen_elements(self):
        assert gr.candidate_elements(gr.CandidateSeq(SL2), 3) == matgrp.elementary(2, 1, 2, 6)
        assert gr.candidate_elements(gr.CandidateSeq(SL2, (2,)), 2) == matgrp.elementary(2, 1, 2, 8)
        assert gr.candidate_elements(gr.CandidateSeq(SL2, (), 2), 4) == matgrp.elementary(2, 1, 2, 24)

    def test_validation(self):
        with pytest.raises(ValueError):
            gr.CandidateSeq(SL2, (), 0)
        with pytest.raises(ValueError):
            gr.CandidateSeq(SL2, (4,))
        with pytest.raises(ValueError):
            gr.CandidateSeq(SL2, (2, 2))
        with pytest.raises(ValueError):
            gr.CandidateSeq(SL2).r(0)
        with pytest.raises(ValueError):
            gr.CandidateSeq(SL2).r(65)

    def test_log_matches_materialized(self):
        for cs in (gr.CandidateSeq(SL2), gr.CandidateSeq(SL2, (2, 3))):
            for k in (1, 2, 7, 20, 40, 64):
                assert math.isclose(cs.r_log2(k), math.log2(cs.r(k)), rel_tol=1e-12)

    def test_log_is_bit_identical_to_the_sieve_formula(self):
        def sieved_r_log2(cs, k):
            # the formula before r_log2 read the prime-power stream: one sieve
            # per k, primes summed in increasing order
            out = k * (math.log2(cs.alpha) if cs.s_primes else 0.0)
            for p in arith.primes_up_to(max(k, 2)):
                if p <= k:
                    out += arith.lcm_valuation(k, p) * math.log2(p)
            return out

        for cs in (gr.CandidateSeq(SL2), gr.CandidateSeq(SL3, (2, 3))):
            for k in range(1, 2001):
                assert cs.r_log2(k) == sieved_r_log2(cs, k), k

    def test_valuations_match_factorization(self):
        cs = gr.CandidateSeq(SL2, (3,), 12)
        for k in (1, 2, 5, 11, 20):
            m = cs.e * cs.r(k)
            f = dict(arith_factors(m))
            for p in (2, 3, 5, 7, 11, 13, 23):
                assert cs.multiplier_valuation(k, p) == f.get(p, 0)


def arith_factors(m):
    from resfin import arith

    return arith.factorize(m)


class TestCandidateDAnalytic:
    def test_frozen_values(self):
        cs = gr.CandidateSeq(SL2)
        r = gr.candidate_D_analytic(cs, 3)
        assert (r.modulus, r.quotient_order) == (4, 48)
        r = gr.candidate_D_analytic(cs, 6)
        assert (r.modulus, r.quotient_order) == (7, 336)
        r = gr.candidate_D_analytic(gr.CandidateSeq(SL3), 6)
        assert (r.modulus, r.quotient_order) == (7, 343 * 48 * 342)

    def test_matches_materialized_search(self):
        for cs in (
            gr.CandidateSeq(SL2),
            gr.CandidateSeq(SL2, (2,)),
            gr.CandidateSeq(SL2, (), 2),
            gr.CandidateSeq(SL3, (5,), 3),
        ):
            for k in range(1, 41):
                if k > 20 and cs.s_primes:
                    continue
                lhs = gr.candidate_D_analytic(cs, k)
                rhs = matgrp.congruence_D(gr.candidate_elements(cs, k), cs.spec)
                assert (lhs.modulus, lhs.quotient_order) == (rhs.modulus, rhs.quotient_order)

    def test_matches_brute_force_over_units(self):
        # SL_n(Z[1/S]) maps onto SL_n(Z/m) only for m coprime to alpha, and
        # A_k survives mod m iff m does not divide e * r_k; every least
        # modulus here is below 400
        for spec in (SL2, SL3):
            orders = {m: spec.order_mod(m) for m in range(2, 400)}
            for s_primes, e in [((2, 3, 5), 1), ((2,), 1), ((2, 3, 5, 7, 11), 1), ((5,), 3)]:
                cs = gr.CandidateSeq(spec, s_primes, e)
                for k in range(1, 16):
                    m_k = e * cs.r(k)
                    want = min(
                        (order, m) for m, order in orders.items()
                        if math.gcd(m, cs.alpha) == 1 and m_k % m != 0
                    )
                    got = gr.candidate_D_analytic(cs, k)
                    assert (got.quotient_order, got.modulus) == want, (spec.name, s_primes, k)

    def test_s_primes_never_detect(self):
        r = gr.candidate_D_analytic(gr.CandidateSeq(SL2, (2, 3, 5)), 1)
        assert (r.modulus, r.quotient_order) == (7, 336)
        r = gr.candidate_D_analytic(gr.CandidateSeq(SL3, (2, 3, 5, 7, 11)), 1)
        assert (r.modulus, r.quotient_order) == (13, 810534816)

    def test_central_variant(self):
        cs = gr.CandidateSeq(SL2)
        r = gr.candidate_D_analytic(cs, 3, allow_central=True)
        assert (r.modulus, r.quotient_order, r.central_quotient) == (4, 24, True)
        rhs = matgrp.congruence_D(gr.candidate_elements(cs, 3), SL2, allow_central=True)
        assert r == rhs

    @pytest.mark.parametrize("spec", [SL2, SL3, SL4], ids=lambda s: s.name)
    def test_search_above_k_matches_search_from_two(self, spec):
        # every q <= k kills A_k, so starting the stream above k changes
        # nothing; the full search from q = 2 is the oracle
        for s_primes in ((), (2, 3)):
            cs = gr.CandidateSeq(spec, s_primes)
            for allow_central in (False, True):
                for k in range(1, 301):
                    from_two = matgrp.QuotientSearch(spec, allow_central).least(
                        lambda q, p, i: cs.survives(k, p, i)
                    )
                    assert gr.candidate_D_analytic(cs, k, allow_central) == from_two, (s_primes, k)

    def test_growth_sandwich(self):
        # order of the detecting quotient sits between (3/4) k^3 and (2k)^3
        cs = gr.CandidateSeq(SL2)
        for k in range(10, 301):
            d = gr.candidate_D_analytic(cs, k).quotient_order
            assert 3 * k**3 <= 4 * d
            assert d <= (2 * k) ** 3


class TestCandidateSweep:
    K_MAX = 3000

    @pytest.mark.parametrize("s_primes", [(), (2,), (2, 3, 5)])
    def test_r_log2_bit_identical_at_every_k(self, s_primes):
        cs = gr.CandidateSeq(SL3, s_primes)
        got = [r for _, r, _ in gr.candidate_sweep(cs, 1, self.K_MAX)]
        assert got == [cs.r_log2(k) for k in range(1, self.K_MAX + 1)]

    @pytest.mark.parametrize("allow_central", [False, True])
    @pytest.mark.parametrize("e", [1, 2, 12])
    @pytest.mark.parametrize("s_primes", [(), (2,), (2, 3, 5)])
    def test_detection_matches_per_k_oracle(self, s_primes, e, allow_central):
        # per-k candidate_D_analytic at both ends of every run between prime
        # powers (the sweep's answer can change only at a prime power) and at
        # every k <= 300; the range starts past 1 so lo is not a prime power
        cs = gr.CandidateSeq(SL3, s_primes, e)
        powers = [q for q, _, _ in arith.prime_power_stream(self.K_MAX)]
        checked = set(range(6, 301)) | {q for q in powers if q >= 6} | {q - 1 for q in powers if q > 6}
        sweep = gr.candidate_sweep(cs, 6, self.K_MAX, allow_central)
        for k, _, det in sweep:
            if k in checked:
                assert det == gr.candidate_D_analytic(cs, k, allow_central), k

    @pytest.mark.parametrize("allow_central", [False, True])
    @pytest.mark.parametrize("spec", [SL2, SL3], ids=lambda s: s.name)
    def test_detection_matches_independent_per_k_search(self, spec, allow_central):
        # the sweep and candidate_D_analytic share matgrp.QuotientSearch;
        # reference_candidate_D shares no search code with either.  The
        # answer can change only at a prime power k, so k and k - 1 for
        # every prime power k cover every run
        cs = gr.CandidateSeq(spec)
        powers = set(arith.prime_powers_up_to(self.K_MAX))
        checked = powers | {q - 1 for q in powers}
        for k, _, det in gr.candidate_sweep(cs, 1, self.K_MAX, allow_central):
            if k in checked:
                assert det == reference_candidate_D(cs, k, allow_central), k

    def test_rows_cover_the_range_and_lo_is_checked(self):
        cs = gr.CandidateSeq(SL2, (3,), 4)
        rows = list(gr.candidate_sweep(cs, 40, 60, True))
        assert [k for k, _, _ in rows] == list(range(40, 61))
        with pytest.raises(ValueError):
            list(gr.candidate_sweep(cs, 0, 5))


class TestFitExponent:
    def test_exact_power_law(self):
        f = gr.fit_exponent([(k, k**8) for k in range(10, 100)])
        assert abs(f.slope - 8) < 1e-9
        assert f.max_residual < 1e-9
        assert abs(f.intercept) < 1e-9

    def test_noisy_slope_and_residual(self):
        pts = [(k, k**3 * (1.1 if k % 2 == 0 else 0.9)) for k in range(10, 60)]
        f = gr.fit_exponent(pts)
        assert abs(f.slope - 3) < 0.2
        assert 0.05 < f.max_residual < 0.25

    def test_matches_statistics_linear_regression(self):
        # Python 3.11 computes linear_regression with the same fsum formulas,
        # so there the fit must match bit for bit; other versions differ
        rng = random.Random(3)
        for _ in range(300):
            pts = [(rng.randint(1, 10**6), rng.randint(1, 10**40)) for _ in range(rng.randint(3, 60))]
            if len({x for x, _ in pts}) < 2:
                continue
            f = gr.fit_exponent(pts)
            want = tuple(statistics.linear_regression(
                [math.log(x) for x, _ in pts], [math.log(y) for _, y in pts]
            ))
            if sys.version_info[:2] == (3, 11):
                assert (f.slope, f.intercept) == want
            else:
                assert (f.slope, f.intercept) == pytest.approx(want, rel=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            gr.fit_exponent([(1, 1), (2, 8)])
        with pytest.raises(ValueError):
            gr.fit_exponent([(1, 1), (2, 8), (3, -1)])
        with pytest.raises(ValueError):
            gr.fit_exponent([(2, 1), (2, 8), (2, 27)])


# l(z) <= WORD_C * ln|z| + WORD_C0, the constants of the lemma in
# short_unipotent_word's docstring
WORD_C = 5 / math.log((1 + math.sqrt(5)) / 2)
WORD_C0 = 11


def check_word(spec, z, i, j, baseline=None):
    """The word for E_ij(z) is exact, within the lemma's length bound, and
    for 100 <= |z| <= 3000 no longer than the commutator baseline (whose
    length, like the word's, depends on |z| alone)."""
    w = gr.short_unipotent_word(spec, z, i, j)
    assert gr.evaluate_word(spec.n, w) == matgrp.elementary(spec.n, i, j, z), z
    assert len(w) <= WORD_C * math.log(abs(z)) + WORD_C0, z
    if 100 <= abs(z) <= 3000:
        assert len(w) <= len(reference_synth(spec.n, i, j, abs(z), baseline)), z
    return w


class TestShortUnipotentWord:
    def test_single_generator(self):
        assert gr.short_unipotent_word(SL3, 1) == [(1, 3, 1)]
        assert gr.short_unipotent_word(SL3, -3) == [(1, 3, -1)] * 3

    def test_four_is_eleven_letters(self):
        # 4 = lam + 1 + lam^-1 for lam = phi^2: B E13 B^-1 E13 B^-1 E13 B
        w = gr.short_unipotent_word(SL3, 4)
        assert w == [(3, 2, 1), (2, 3, 1), (1, 3, 1), (2, 3, -1), (3, 2, -1), (1, 3, 1),
                     (2, 3, -1), (3, 2, -1), (1, 3, 1), (3, 2, 1), (2, 3, 1)]
        assert gr.evaluate_word(3, w) == matgrp.elementary(3, 1, 3, 4)

    def test_highly_composite(self):
        z = 2520
        w = gr.short_unipotent_word(SL3, z)
        assert gr.evaluate_word(3, w) == matgrp.elementary(3, 1, 3, z)
        assert len(w) <= 250

    def test_negative_target(self):
        w = gr.short_unipotent_word(SL3, -7)
        assert gr.evaluate_word(3, w) == matgrp.elementary(3, 1, 3, -7)

    def test_seeded_large_targets(self):
        rng = random.Random(0)
        for _ in range(30):
            z = rng.randrange(1, 10**18)
            w = gr.short_unipotent_word(SL3, z)
            assert gr.evaluate_word(3, w) == matgrp.elementary(3, 1, 3, z)
            assert len(w) <= 4 * (1 + math.log2(z)) ** 2

    def test_other_positions_and_sizes(self):
        w = gr.short_unipotent_word(SL4, 12345, i=2, j=1)
        assert gr.evaluate_word(4, w) == matgrp.elementary(4, 2, 1, 12345)

    def test_two_digit_indices(self):
        # two-digit indices: the word holds both E_11,1 and E_1,11
        w = gr.short_unipotent_word(GroupSpec(11), 12345, i=10, j=11)
        assert (11, 1, 1) in w and (1, 11, 1) in w
        assert gr.evaluate_word(11, w) == matgrp.elementary(11, 10, 11, 12345)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from([(i, j, c) for i, j in GroupSpec(n).roots for c in (1, -1)]), max_size=40),
    )))
    def test_column_ops_match_matrix_products(self, case):
        n, word = case
        expect = matgrp.identity(n)
        for i, j, c in word:
            expect = matgrp.mat_mul(expect, matgrp.elementary(n, i, j, c))
        assert gr.evaluate_word(n, word) == expect

    # check_word compares these z with reference_synth on length only
    def test_tokens_match_reference_small(self):
        baseline = {}  # finished reference words, shared across the z of one n
        for z in itertools.chain(range(-3000, 0), range(1, 3001)):
            check_word(SL3, z, 1, 3, baseline)
        for z in range(-200, 201, 7):
            check_word(SL4, z, 4, 2)

    def test_tokens_match_reference_seeded(self):
        rng = random.Random(10)
        zs = [2**t for t in range(2, 60, 3)]
        for _ in range(20):
            p = rng.randrange(2, 5 * 10**17)
            while not arith.is_prime(p):
                p += 1
            zs.append(2 * p)
        zs += [rng.randrange(1, 10 ** rng.randint(2, 18)) for _ in range(160)]
        places = [(SL3, 1, 3), (SL3, 2, 1), (SL3, 3, 2), (SL4, 1, 3), (SL4, 4, 2), (SL4, 3, 1)]
        for t, z in enumerate(zs):
            z = z if t % 3 else -z
            spec, i, j = places[t % len(places)]
            check_word(spec, z, i, j)

    def test_lcm_targets(self):
        for k in range(1, 301):
            w = check_word(SL3, arith.lcm_upto(k), 1, 3)
        assert len(w) == 2843

    def test_golden_digits_expand_m(self):
        # sum c_t e_1 A^t = (m, 0) for A = [[2, 1], [1, 1]], with A^-1 for t < 0
        def act(v, a):
            return (v[0] * a[0][0] + v[1] * a[1][0], v[0] * a[0][1] + v[1] * a[1][1])

        for m in range(1, 1500):
            digits = gr._golden_digits(m)
            assert set(digits.values()) <= {-1, 0, 1}, m
            total = [0, 0]
            for t, c in digits.items():
                v = (1, 0)
                for _ in range(abs(t)):
                    v = act(v, ((2, 1), (1, 1)) if t > 0 else ((1, -1), (-1, 2)))
                total[0] += c * v[0]
                total[1] += c * v[1]
            assert total == [m, 0], m

    def test_inverse_word(self):
        w = gr.short_unipotent_word(SL3, 97)
        assert gr.evaluate_word(3, w + gr._invert_word(w)) == matgrp.identity(3)

    def test_rejections(self):
        with pytest.raises(ValueError):
            gr.short_unipotent_word(SL2, 5)
        with pytest.raises(ValueError):
            gr.short_unipotent_word(SL3, 0)
        with pytest.raises(ValueError):
            gr.short_unipotent_word(SL3, 5, i=1, j=1)
        for bad in [(1, 4, 1), (2, 2, -1), (1, 2, 2), "E12"]:
            with pytest.raises(ValueError, match="bad letter"):
                gr.evaluate_word(3, [(1, 2, 1), bad])


def test_detection_is_viewpoint_free():
    # an element of the level-2 congruence subgroup has one detection result,
    # whether it is written in subgroup generators or as a bare matrix
    via_gamma2 = matgrp.mat_mul(matgrp.elementary(2, 1, 2, 2), matgrp.elementary(2, 2, 1, 2))
    assert via_gamma2 == ((5, 2), (2, 1))
    d1 = matgrp.congruence_D(via_gamma2, SL2)
    d2 = matgrp.congruence_D(((5, 2), (2, 1)), SL2)
    assert d1 == d2
