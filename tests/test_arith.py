"""Tests for exact integer helpers.

Expected values for the factorization and nondivisor examples were computed
with the trial-division oracle below before being frozen into assertions.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfin import arith


def trial_division_factorize(n):
    """Independent oracle: factor by dividing out 2, 3, 4, ... in order."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


class TestFactorize:
    def test_twelve(self):
        assert arith.factorize(12).factors == ((2, 2), (3, 1))

    def test_one_is_empty(self):
        assert arith.factorize(1).factors == ()

    def test_prime(self):
        assert arith.factorize(97).factors == ((97, 1),)

    def test_against_trial_division_small(self):
        for n in range(1, 2000):
            assert arith.factorize(n).factors == trial_division_factorize(n)

    def test_large_semiprime(self):
        p, q = 1_000_000_007, 998_244_353
        assert arith.factorize(p * q).factors == ((q, 1), (p, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            arith.factorize(0)

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=10**12))
    def test_roundtrip(self, n):
        f = arith.factorize(n)
        assert f.value == n
        primes = [p for p, _ in f]
        assert primes == sorted(set(primes))
        assert all(arith.is_prime(p) for p in primes)


class TestIsPrime:
    def test_small_table(self):
        primes = set(arith.primes_up_to(1000))
        for n in range(1000):
            assert arith.is_prime(n) == (n in primes)

    def test_carmichael(self):
        # 561 = 3 * 11 * 17 fools the Fermat test but not Miller-Rabin.
        assert not arith.is_prime(561)
        assert not arith.is_prime(41041)

    def test_large_prime(self):
        assert arith.is_prime(2**61 - 1)

    def test_range_rejection(self):
        with pytest.raises(arith.PrimalityRangeError):
            arith.is_prime(arith.MR_DETERMINISTIC_BOUND)


class TestLcmValuation:
    def test_examples(self):
        assert arith.lcm_valuation(6, 2) == 2
        assert arith.lcm_valuation(10, 3) == 2
        assert arith.lcm_valuation(5, 7) == 0

    def test_against_materialized_lcm(self):
        # Direct cross-check for every k <= 30 and every prime p <= 31.
        for k in range(1, 31):
            l = math.lcm(*range(1, k + 1))
            for p in arith.primes_up_to(31):
                v = 0
                while l % p**(v + 1) == 0:
                    v += 1
                assert arith.lcm_valuation(k, p) == v

    @given(st.integers(min_value=1, max_value=10**15))
    def test_defining_property(self, k):
        v = arith.lcm_valuation(k, 2)
        assert 2**v <= k < 2**(v + 1)


class TestLeastNondivisor:
    def test_examples(self):
        assert arith.least_nondivisor(12) == 5
        assert arith.least_nondivisor(60) == 7
        assert arith.least_nondivisor(1) == 2

    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=10**12))
    def test_result_is_prime_power(self, m):
        d = arith.least_nondivisor(m)
        assert m % d != 0
        assert all(m % e == 0 for e in range(2, d))
        assert arith.is_prime_power(d) is not None

    def test_matches_linear_scan(self):
        # oracle: the definition, d = 2, 3, ... until one does not divide m;
        # the lcm cases cross the 64-prime-power blocks of the fast scan
        def scan(m):
            d = 2
            while m % d == 0:
                d += 1
            return d

        cases = list(range(1, 3000)) + [math.lcm(*range(1, k + 1)) for k in (300, 311, 320, 1000)]
        for m in cases:
            assert arith.least_nondivisor(m) == scan(m), m

    def test_of_lcm_exceeds_k(self):
        # least_nondivisor(lcm(1..k)) is the least prime power > k; checked
        # against the materialized lcm where that is cheap.
        for k in range(1, 65):
            l = math.lcm(*range(1, k + 1))
            d = arith.least_nondivisor(l)
            assert d > k
            assert d == next(arith.prime_power_stream(2 * k + 2, above=k))[0]

    def test_of_lcm_via_valuations_large_k(self):
        # For k up to 2000, the least nondivisor of lcm(1..k) must equal the
        # first prime power above k, computed without materializing the lcm.
        for k in (100, 500, 1000, 1999):
            q = next(arith.prime_power_stream(2 * k + 2, above=k))[0]
            assert q > k
            # every integer in [2, q) divides lcm(1..k)
            for d in range(max(2, q - 5), q):
                for pp, e in arith.factorize(d):
                    assert pp**e <= k


def prime_powers_above(k, limit):
    """(p, i) for the prime powers k < p**i <= limit, read off the stream."""
    return [(p, i) for _, p, i in arith.prime_power_stream(limit, above=k)]


class TestPrimePowersAbove:
    def test_example_six_twelve(self):
        assert prime_powers_above(6, 12) == [(7, 1), (2, 3), (3, 2), (11, 1)]

    def test_example_one_five(self):
        got = prime_powers_above(1, 5)
        assert got == [(2, 1), (3, 1), (2, 2), (5, 1)]

    def test_example_four_five(self):
        assert prime_powers_above(4, 5) == [(5, 1)]

    def test_sorted_by_value(self):
        vals = [q for q, _, _ in arith.prime_power_stream(200, above=10)]
        assert vals == sorted(vals)

    def test_matches_lcm_divisibility(self):
        for k in (3, 10, 17):
            l = math.lcm(*range(1, k + 1))
            got = {q for q, _, _ in arith.prime_power_stream(60, above=k)}
            expect = {
                q
                for q in range(2, 61)
                if arith.is_prime_power(q) and l % q != 0
            }
            assert got == expect

    def test_limit_below_k_rejected(self):
        with pytest.raises(ValueError):
            next(arith.prime_power_stream(5, above=10))


def test_prime_powers_up_to():
    assert arith.prime_powers_up_to(10) == [2, 3, 4, 5, 7, 8, 9]
    assert arith.prime_powers_up_to(1) == []
    # cache growth keeps results consistent
    big = arith.prime_powers_up_to(1000)
    assert arith.prime_powers_up_to(10) == [2, 3, 4, 5, 7, 8, 9]
    assert big[-1] <= 1000


def test_prime_power_stream_matches_factorization():
    stream = itertools.islice(arith.prime_power_stream(), 3000)
    expect = ((q, *arith.is_prime_power(q)) for q in itertools.count(2) if arith.is_prime_power(q))
    assert list(stream) == list(itertools.islice(expect, 3000))


def test_primes_read_the_prime_power_cache(monkeypatch):
    assert list(arith.primes(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(arith.primes(1)) == []
    assert list(arith.primes(5000)) == arith.primes_up_to(5000)
    assert list(itertools.islice(arith.primes(), 100)) == arith.primes_up_to(541)
    assert [q for q, _, _ in arith.prime_power_stream(10)] == [2, 3, 4, 5, 7, 8, 9]
    sieved = []
    sieve = arith.primes_up_to
    monkeypatch.setattr(arith, "primes_up_to", lambda n: sieved.append(n) or sieve(n))
    assert list(arith.primes(3000))[-1] == 2999
    assert sieved == []  # the range is cached already
    with pytest.raises(ValueError, match="exceeds cap"):
        next(arith.primes(10**8 + 1))
    assert sieved == []


def test_prime_powers_above_reads_the_prime_power_cache(monkeypatch):
    # rising limits from an empty cache: a few sieves, not one per k
    monkeypatch.setattr(arith, "_PRIME_POWERS", [])
    monkeypatch.setattr(arith, "_SIEVED_TO", 0)
    sieved = []
    sieve = arith.primes_up_to
    monkeypatch.setattr(arith, "primes_up_to", lambda n: sieved.append(n) or sieve(n))
    first = {}
    for k in range(2, 3000):
        p, i = first[k] = prime_powers_above(k, 2 * k + 2)[0]
        assert k < p**i <= 2 * k + 2
    assert sieved == [512, 1024, 2048, 4096, 8192]
    sieved.clear()
    assert next(arith.prime_power_stream(5000, above=2000)) == (2003, 2003, 1)
    assert sieved == []
    # the first prime power above k alone, as the counterexample rows read it
    monkeypatch.setattr(arith, "_PRIME_POWERS", [])
    monkeypatch.setattr(arith, "_SIEVED_TO", 0)
    sieved.clear()
    for k in range(2, 3000):
        q, p, i = next(arith.prime_power_stream(above=k))
        assert (p, i) == first[k]
    assert sieved == [512, 2048, 8192]


def test_is_prime_power():
    assert arith.is_prime_power(8) == (2, 3)
    assert arith.is_prime_power(9) == (3, 2)
    assert arith.is_prime_power(12) is None
    assert arith.is_prime_power(1) is None


def test_prime_power_stream_above_bisects_to_the_first_larger_q():
    every = list(arith.prime_power_stream(5000))
    for above in (-3, 0, 1, 2, 7, 8, 9, 1000, 1024, 4999, 5000):
        want = [t for t in every if t[0] > above]
        assert list(arith.prime_power_stream(5000, above=above)) == want, above


def test_prime_power_stream_above_the_cache_end_grows_it_first(monkeypatch):
    monkeypatch.setattr(arith, "_PRIME_POWERS", [])
    monkeypatch.setattr(arith, "_SIEVED_TO", 0)
    assert next(arith.prime_power_stream(above=5000)) == (5003, 5003, 1)
    assert arith._SIEVED_TO == 8192
    assert next(arith.prime_power_stream(above=8191)) == (8192, 2, 13)


def test_endless_stream_grows_up_to_the_sieve_cap(monkeypatch):
    # a small cap stands in for 10**8: growth is clamped to the cap, and only
    # a reader running past a cache that sits at the cap raises
    expect = list(arith.prime_power_stream(1000))
    monkeypatch.setattr(arith, "_SIEVE_CAP", 1000)
    monkeypatch.setattr(arith, "_PRIME_POWERS", [])
    monkeypatch.setattr(arith, "_SIEVED_TO", 0)
    stream = arith.prime_power_stream()
    assert [next(stream) for _ in expect] == expect
    assert arith._SIEVED_TO == 1000
    with pytest.raises(ValueError, match="cap 1000"):
        next(stream)
    with pytest.raises(ValueError, match="cap 1000"):
        next(arith.prime_power_stream(above=1000))
    assert list(arith.prime_power_stream(1000, above=990)) == [(991, 991, 1), (997, 997, 1)]


def test_lcm_upto_matches_math_lcm_in_any_order():
    ks = list(range(0, 200)) + list(range(199, -1, -1)) + [500, 3, 700, 699, 1, 701]
    for k in ks:
        assert arith.lcm_upto(k) == math.lcm(*range(1, k + 1)), k
