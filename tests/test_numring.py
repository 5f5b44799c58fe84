"""Tests for number rings, split primes, and residue-field detection.

Split-prime lists were cross-checked against the congruence descriptions
(p = 1 mod 4 for x^2+1, p = +-1 mod 8 for x^2-2, p = 1 mod 5 for the fifth
cyclotomic) before freezing; detection values were derived by evaluating
the residue maps by hand.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfin import numring as nr
from resfin.matgrp import RangeExhaustedError, UndetectableError

ZI = nr.GAUSSIAN
R2 = nr.SQRT2


class TestConstruction:
    def test_names(self):
        assert ZI.name == "Z[x]/(x^2+1)"
        assert R2.name == "Z[x]/(x^2-2)"
        assert nr.NumberRing((1, 0, 1), 2).name == "Z[x]/(x^2+1)[1/2]"

    def test_degree_and_discriminant(self):
        assert (ZI.degree, ZI.discriminant()) == (2, -4)
        assert (R2.degree, R2.discriminant()) == (2, 8)
        assert nr.NumberRing((0, 1)).discriminant() == 1
        assert nr.NumberRing((1, 0, 0, 0, 1)).discriminant() == 256
        assert nr.NumberRing((1, 1, 1, 1, 1)).discriminant() == 125

    def test_rejects_nonmonic_and_trivial(self):
        with pytest.raises(ValueError):
            nr.NumberRing((2, 3))
        with pytest.raises(ValueError):
            nr.NumberRing((1,))
        with pytest.raises(ValueError):
            nr.NumberRing((1, 0, 1), 0)

    def test_rejects_reducible(self):
        for coeffs in (
            (-1, 0, 1),  # (x-1)(x+1)
            (1, 2, 1),  # (x+1)^2
            (-1, 0, 0, 0, 1),  # x^4 - 1
            (2, 0, 3, 0, 1),  # (x^2+1)(x^2+2)
            (6, 0, -5, 0, 1),  # (x^2-2)(x^2-3)
            (0, 0, 1),  # x^2
        ):
            with pytest.raises(ValueError):
                nr.NumberRing(coeffs)

    def test_accepts_irreducible_quartics(self):
        # x^4+1 is reducible mod every prime, so the lift-and-recombine
        # stage has to do the work
        assert nr.NumberRing((1, 0, 0, 0, 1)).degree == 4
        assert nr.NumberRing((1, 1, 1, 1, 1)).degree == 4


class TestArithmetic:
    def test_frozen_products(self):
        i = ZI.element((0, 1))
        assert (i * i).coords == (-1, 0)
        a = ZI.element((3, 7))
        assert (ZI.one() * a) == a
        s = R2.element((1, 1))
        assert (s * s).coords == (3, 2)

    def test_add_sub_neg(self):
        a = ZI.element((3, 7))
        assert (a + a).coords == (6, 14)
        assert (a - a) == ZI.zero()
        assert (-a).coords == (-3, -7)

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError):
            ZI.element((1, 0)) + R2.element((1, 0))
        with pytest.raises(ValueError):
            ZI.element((1, 0)) * R2.element((1, 0))

    def test_localized_normalization(self):
        ring = nr.NumberRing((1, 0, 1), 2)
        half = ring.element((1, 0), 1)
        assert half.denom_exp == 1
        whole = half + half
        assert (whole.coords, whole.denom_exp) == ((1, 0), 0)
        assert (half * ring.element((2, 0))).denom_exp == 0

    def test_element_validation(self):
        with pytest.raises(ValueError):
            ZI.element((1, 2, 3))
        with pytest.raises(ValueError):
            ZI.element((1, 0), -1)
        ring = nr.NumberRing((1, 0, 1), 2)
        with pytest.raises(ValueError):
            nr.RingElement(ring, (2, 4), 1)  # not normalized

    @given(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_sample(self, x, y, z):
        a, b, c = ZI.element(x), ZI.element(y), ZI.element(z)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestSplitPrimes:
    def test_frozen_lists(self):
        assert [p for p, _ in nr.split_primes(ZI, 30)] == [5, 13, 17, 29]
        assert [p for p, _ in nr.split_primes(nr.NumberRing((0, 1)), 10)] == [2, 3, 5, 7]
        assert [p for p, _ in nr.split_primes(R2, 25)] == [7, 17, 23]
        assert [p for p, _ in nr.split_primes(nr.NumberRing((1, 0, 0, 0, 1)), 40)] == [17]
        assert [p for p, _ in nr.split_primes(nr.NumberRing((1, 1, 1, 1, 1)), 50)] == [11, 31, 41]

    def test_roots_are_distinct_roots(self):
        for ring in (ZI, R2, nr.NumberRing((1, 1, 1, 1, 1))):
            for p, roots in nr.split_primes(ring, 60):
                assert len(roots) == ring.degree
                assert len(set(roots)) == len(roots)
                for r in roots:
                    value = sum(c * r**k for k, c in enumerate(ring.min_poly))
                    assert value % p == 0

    def test_bad_primes_skipped(self):
        assert all(p != 2 for p, _ in nr.split_primes(ZI, 100))
        assert all(p != 2 for p, _ in nr.split_primes(R2, 100))

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            nr.split_primes(ZI, 1)


class TestReduceElement:
    def test_frozen_values(self):
        assert nr.reduce_element(ZI.element((3, 0)), 5, 2) == 3
        assert nr.reduce_element(ZI.element((0, 5)), 13, 5) == 12
        assert nr.reduce_element(ZI.element((0, 5)), 5, 2) == 0

    def test_localized_value(self):
        ring = nr.NumberRing((1, 0, 1), 2)
        half_i = ring.element((0, 1), 1)
        assert nr.reduce_element(half_i, 5, 2) == 1  # 2 * inverse(2) mod 5

    def test_rejections(self):
        with pytest.raises(ValueError):
            nr.reduce_element(ZI.element((1, 0)), 6, 2)  # composite modulus
        with pytest.raises(ValueError):
            nr.reduce_element(ZI.element((1, 0)), 5, 1)  # not a root
        ring = nr.NumberRing((1, 0, 1), 5)
        with pytest.raises(ValueError):
            nr.reduce_element(ring.element((1, 0)), 5, 2)  # p divides inverted

    @given(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    )
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, x, y):
        a, b = ZI.element(x), ZI.element(y)
        for p, roots in nr.split_primes(ZI, 30):
            for r in roots:
                fa, fb = nr.reduce_element(a, p, r), nr.reduce_element(b, p, r)
                assert nr.reduce_element(a + b, p, r) == (fa + fb) % p
                assert nr.reduce_element(a * b, p, r) == fa * fb % p


class TestDetectSplit:
    def test_frozen_values(self):
        assert nr.detect_split(ZI.element((0, 5))) == nr.SplitDetection(13, 5, 12)
        assert nr.detect_split(ZI.element((1, 0))) == nr.SplitDetection(5, 2, 1)
        assert nr.detect_split(R2.element((0, 7))) == nr.SplitDetection(17, 6, 8)
        assert nr.detect_split(nr.NumberRing((0, 1)).element((12,))) == nr.SplitDetection(5, 0, 2)

    def test_zero_and_limit(self):
        with pytest.raises(UndetectableError):
            nr.detect_split(ZI.zero())
        with pytest.raises(RangeExhaustedError):
            nr.detect_split(ZI.element((0, 5)), limit=3)

    def test_residue_is_live(self):
        rng = random.Random(11)
        for _ in range(25):
            coords = (rng.randrange(-999, 1000), rng.randrange(-999, 1000))
            if coords == (0, 0):
                continue
            d = nr.detect_split(ZI.element(coords))
            assert d.residue != 0
            assert nr.reduce_element(ZI.element(coords), d.prime, d.root) == d.residue


class TestMinDetectingIdeal:
    def test_frozen_values(self):
        assert nr.min_detecting_ideal(ZI.element((0, 5))) == nr.IdealDetection(2, (1, 1), 2)
        assert nr.min_detecting_ideal(ZI.element((1, 0))) == nr.IdealDetection(2, (1, 1), 2)
        # 1+i dies at the ramified ideal over 2; the first split prime wins
        assert nr.min_detecting_ideal(ZI.element((1, 1))) == nr.IdealDetection(5, (2, 1), 5)
        # (1+i) * 5 * 13 dies everywhere small except the inert prime 3
        assert nr.min_detecting_ideal(ZI.element((65, 65))) == nr.IdealDetection(3, (1, 0, 1), 9)

    def test_zero_and_limit(self):
        with pytest.raises(UndetectableError):
            nr.min_detecting_ideal(ZI.zero())
        with pytest.raises(RangeExhaustedError):
            nr.min_detecting_ideal(ZI.element((0, 5)), limit=1)

    def test_never_beaten_by_split_detection(self):
        rng = random.Random(23)
        for ring in (ZI, R2):
            for _ in range(30):
                coords = tuple(rng.randrange(-9999, 10000) for _ in range(ring.degree))
                if all(c == 0 for c in coords):
                    continue
                a = ring.element(coords)
                assert nr.min_detecting_ideal(a).norm <= nr.detect_split(a).prime


class TestParseRing:
    def test_round_trips(self):
        assert nr.parse_ring("f = 1,0,1; invert = 1") == ZI
        assert nr.parse_ring("f=-2,0,1;invert=7") == nr.NumberRing((-2, 0, 1), 7)
        assert nr.parse_ring("f = 1,0,1") == ZI

    def test_rejections(self):
        for text in ("", "g = 1,0,1", "f = 1,0,1; invert = -2", "f = x^2+1", "f = 2,3"):
            with pytest.raises(ValueError):
                nr.parse_ring(text)


def test_split_density_matches_half():
    import resfin.arith as arith

    split = nr.split_primes(ZI, 10**5)
    total = len(arith.primes_up_to(10**5))
    ratio = len(split) / total
    assert abs(ratio - 0.5) < 0.1


# ---------------------------------------------------------------------------
# Independent oracles for the shared roots and factor memos.  Everything
# below works from the coefficients alone: roots by evaluating f at every
# residue, factors by trial division over all monic polynomials, and scans
# that redo the search on each call with neither memo nor numring's F_p[x]
# code.

ORACLE_RINGS = (
    ZI,
    R2,
    nr.NumberRing((-2, 0, 0, 1)),
    nr.NumberRing((1, 0, 0, 0, 1)),
    nr.NumberRing((1, -1, 0, 0, 0, 1)),
    nr.NumberRing((1, 0, 1), 5),
    nr.NumberRing((1, 1, 1, 1, 1)),
)
ORACLE_POLYS = tuple(dict.fromkeys(r.min_poly for r in ORACLE_RINGS))


def _sieve(n):
    flags = [True] * (n + 1)
    flags[:2] = [False, False]
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return [i for i, v in enumerate(flags) if v]


@functools.lru_cache(maxsize=None)
def _evaluator(f):
    """f as a compiled Horner expression in x, over the integers."""
    expr = "0"
    for c in reversed(f):
        expr = f"({expr})*x+({c})"
    return eval("lambda x: " + expr)


@functools.lru_cache(maxsize=None)
def _roots_by_evaluation(f, p):
    ev = _evaluator(f)
    return tuple(c for c in range(p) if ev(c) % p == 0)


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(c % p for c in out)


def _rem(a, g, p):
    """a mod the monic g over F_p, by schoolbook long division."""
    a = _trim(x % p for x in a)
    while len(a) >= len(g):
        c = a[-1]
        shift = len(a) - len(g)
        for j, y in enumerate(g):
            a[shift + j] = (a[shift + j] - c * y) % p
        a = _trim(a)
    return a


def _quo(a, g, p):
    a = _trim(x % p for x in a)
    q = [0] * (len(a) - len(g) + 1)
    while len(a) >= len(g):
        c = a[-1]
        shift = len(a) - len(g)
        q[shift] = c
        for j, y in enumerate(g):
            a[shift + j] = (a[shift + j] - c * y) % p
        a = _trim(a)
    return _trim(q)


def _monics(deg, p):
    """Monic polynomials of degree deg, low degree first, in the library's
    sort order (lexicographic on the coefficient tuple)."""
    for lower in itertools.product(range(p), repeat=deg):
        yield lower + (1,)


def _brute_factors(f, p):
    """Distinct monic irreducible factors of f mod p by trial division."""
    rest = _trim(x % p for x in f)
    out = []
    deg = 1
    while len(rest) - 1 >= 2 * deg:
        for g in _monics(deg, p):
            if not _rem(rest, g, p):
                out.append(g)
                while not _rem(rest, g, p):
                    rest = _quo(rest, g, p)
        deg += 1
    if len(rest) > 1 and tuple(rest) not in out:
        out.append(tuple(rest))
    return sorted(out, key=lambda c: (len(c), c))


def _is_irreducible_brute(g, p):
    return all(
        _rem(g, h, p) for e in range(1, (len(g) - 1) // 2 + 1) for h in _monics(e, p)
    )


def _oracle_detect_split(a, limit):
    ring = a.ring
    inv = pow(ring.inverted, a.denom_exp)
    for p in _sieve(limit):
        if ring.inverted % p == 0:
            continue
        roots = _roots_by_evaluation(ring.min_poly, p)
        if len(roots) != ring.degree:  # also excludes p | disc: a root repeats
            continue
        for r in roots:
            residue = _evaluator(a.coords)(r) * pow(inv, -1, p) % p
            if residue:
                return nr.SplitDetection(p, r, residue)
    return None


def _oracle_ideal(a, limit):
    """Smallest-norm prime ideal keeping a alive: primes in increasing order,
    and at each the monic g of each degree e (up to deg f, with p**e within
    the limit and below the best norm so far) that are irreducible divisors
    of f mod p; the first one at which a survives wins, as in the library's
    (degree, coefficients) order."""
    ring = a.ring
    best = None
    for p in _sieve(limit):
        if best is not None and p > best.norm:
            break
        if ring.inverted % p == 0:
            continue
        for e in range(1, ring.degree + 1):
            if p**e > (limit if best is None else best.norm - 1):
                break
            hit = next(
                (g for g in _monics(e, p)
                 if not _rem(ring.min_poly, g, p) and _is_irreducible_brute(g, p)
                 and _rem(a.coords, g, p)),
                None,
            )
            if hit is not None:
                best = nr.IdealDetection(p, hit, p**e)
                break
    return best


class TestResidueTableOracle:
    def test_roots_match_evaluation_below_5000(self):
        # one evaluation pass checks both memos: the roots memo, and the
        # linear factors of the full factorization
        for f in ORACLE_POLYS:
            for p in _sieve(5000):
                want = _roots_by_evaluation(f, p)
                assert nr._roots_mod(f, p) == want, (f, p)
                factors = nr._factors_mod(f, p)
                linear = sorted(-g[0] % p for g in factors if len(g) == 2)
                assert tuple(linear) == want, (f, p)

    def test_factors_match_trial_division_below_60(self):
        for f in ORACLE_POLYS:
            for p in _sieve(60):
                factors = nr._factors_mod(f, p)
                assert factors == _brute_factors(f, p), (f, p)
                assert all(_is_irreducible_brute(g, p) for g in factors)
                # the product of the factors is the radical: it divides f,
                # and f divides radical**deg(f)
                radical = functools.reduce(lambda acc, g: _mul(acc, g, p), factors, [1])
                assert not _rem(f, radical, p)
                power = functools.reduce(lambda acc, _: _mul(acc, radical, p), f[1:], [1])
                assert not _rem(power, f, p)

    def test_every_small_polynomial_over_tiny_fields(self):
        # includes repeated factors at p <= deg, where f' can vanish
        for p, top in ((2, 6), (3, 4), (5, 3)):
            for d in range(1, top + 1):
                for low in itertools.product(range(p), repeat=d):
                    f = low + (1,)
                    assert nr.factor_distinct_mod(f, p) == _brute_factors(f, p), (f, p)

    def test_scans_match_per_call_oracle(self):
        rng = random.Random(5)
        scale = math.lcm(*range(1, 301))
        for ring in ORACLE_RINGS:
            for _ in range(3):
                coords = [rng.randint(-10**6, 10**6) or 1 for _ in range(ring.degree)]
                a = ring.element([c * scale for c in coords])
                for limit in (250, 20000):
                    want = _oracle_detect_split(a, limit)
                    if want is None:
                        with pytest.raises(RangeExhaustedError):
                            nr.detect_split(a, limit)
                    else:
                        assert nr.detect_split(a, limit) == want
                # every ideal of norm <= 300 kills a, so 1000 leaves room
                for limit in (250, 1000):
                    want = _oracle_ideal(a, limit)
                    if want is None:
                        with pytest.raises(RangeExhaustedError):
                            nr.min_detecting_ideal(a, limit)
                    else:
                        assert nr.min_detecting_ideal(a, limit) == want

    def test_small_elements_match_per_call_oracle(self):
        rng = random.Random(6)
        for ring in ORACLE_RINGS:
            for _ in range(10):
                coords = [rng.randint(-50, 50) for _ in range(ring.degree)]
                if not any(coords):
                    continue
                a = ring.element(coords, rng.randrange(2) if ring.inverted > 1 else 0)
                assert nr.detect_split(a, 5000) == _oracle_detect_split(a, 5000)
                assert nr.min_detecting_ideal(a, 5000) == _oracle_ideal(a, 5000)


def _clear_memos(f=None):
    """Forget the roots and factor memos of f, or of every min_poly."""
    for memo in (nr._ROOTS, nr._FACTORS):
        if f is None:
            memo.clear()
        else:
            memo.pop(f, None)


def _memo_primes(f):
    return set(nr._ROOTS.get(f, ())) | set(nr._FACTORS.get(f, ()))


def _assert_matches_oracles(a, limit):
    want = _oracle_detect_split(a, limit)
    if want is None:
        with pytest.raises(RangeExhaustedError):
            nr.detect_split(a, limit)
    else:
        assert nr.detect_split(a, limit) == want
    want = _oracle_ideal(a, limit)
    if want is None:
        with pytest.raises(RangeExhaustedError):
            nr.min_detecting_ideal(a, limit)
    else:
        assert nr.min_detecting_ideal(a, limit) == want


class TestScanLemmas:
    """The three lemmas that let a scan skip work, each against the oracle."""

    @pytest.mark.parametrize("K", (40, 150))
    def test_content_primes_leave_no_memo_entry(self, K):
        rng = random.Random(K)
        scale = math.lcm(*range(1, K + 1))
        for ring in ORACLE_RINGS:
            f = ring.min_poly
            coords = [rng.randint(-99, 99) or 1 for _ in range(ring.degree)]
            a = ring.element([c * scale for c in coords])
            for limit in (250, 1000):
                _clear_memos(f)
                _assert_matches_oracles(a, limit)
                assert all(p > K for p in _memo_primes(f)), (f, limit)

    def test_shared_prime_that_would_detect(self):
        # b is detected at q; q * b has q in its content, so both scans
        # must move past q without reading either memo at q
        rng = random.Random(8)
        moved = 0
        for ring in ORACLE_RINGS:
            f = ring.min_poly
            for _ in range(6):
                coords = [rng.randint(-30, 30) for _ in range(ring.degree)]
                if math.gcd(*coords) != 1:
                    continue
                b = ring.element(coords)
                for scan in (nr.detect_split, nr.min_detecting_ideal):
                    q = scan(b, 5000).prime
                    a = ring.element([q * c for c in coords])
                    _clear_memos(f)
                    _assert_matches_oracles(a, 5000)
                    assert scan(a, 5000).prime != q
                    assert q not in _memo_primes(f)
                    moved += 1
        assert moved >= 40

    # (ring, coords, p): every prime ideal of norm below p**2 kills the
    # element, and an inert quadratic factor of f mod p keeps it alive
    NORM_CAP_CASES = (
        (ZI, (65, 65), 3),  # (1+i) * 5 * 13
        (ZI, (3 * 5 * 13 * 17 * 29 * 37 * 41,) * 2, 7),  # (1+i) * 3 * 5 * ... * 41
        (R2, (0, 7), 3),  # sqrt2 * 7
        (R2, (0, 3 * 7 * 17 * 23), 5),  # sqrt2 * 3 * 7 * 17 * 23
        # (x - 3) * 2*3*11*17*19*23 in Z[cbrt 2]: over 5, x - 3 dies and
        # the quadratic factor of x^3 - 2 mod 5 decides
        (nr.NumberRing((-2, 0, 0, 1)), (-3 * 2 * 3 * 11 * 17 * 19 * 23,
                                        2 * 3 * 11 * 17 * 19 * 23, 0), 5),
    )

    @pytest.mark.parametrize("ring, coords, p", NORM_CAP_CASES)
    def test_norm_cap_around_p_squared(self, ring, coords, p):
        a = ring.element(coords)
        for limit in (p * p - 1, p * p, p * p + 1):
            _clear_memos(ring.min_poly)
            want = _oracle_ideal(a, limit)
            if limit < p * p:
                assert want is None or want.prime != p
            else:
                assert (want.prime, want.norm) == (p, p * p)
            if want is None:
                with pytest.raises(RangeExhaustedError):
                    nr.min_detecting_ideal(a, limit)
            else:
                assert nr.min_detecting_ideal(a, limit) == want
            # the full factorization is read only where p**2 is within the cap
            assert all(q * q <= limit for q in nr._FACTORS.get(ring.min_poly, ()))


class TestResidueTableCoherence:
    """The roots and factor memos are shared by every scan of one min_poly;
    no scan may see more or less than fresh memos would give it."""

    ZI5 = nr.NumberRing((1, 0, 1), 5)

    def _calls(self):
        big = math.lcm(*range(1, 120))
        calls = []
        for limit in (50, 3000, 7, 400, 20000, 13, 2, 1000):
            for ring in (ZI, self.ZI5):
                calls.append((nr.split_primes, ring, (ring, max(limit, 2))))
                for coords in ((0, 5), (big, 3 * big), (5, 0)):
                    a = ring.element(coords)
                    calls.append((nr.detect_split, ring, (a, limit)))
                    calls.append((nr.min_detecting_ideal, ring, (a, limit)))
        return calls

    @staticmethod
    def _run(fn, args):
        try:
            return fn(*args)
        except RangeExhaustedError as exc:
            return ("exhausted", str(exc))

    def test_interleaved_scans_match_fresh_tables(self):
        calls = self._calls()
        _clear_memos()
        shared = [self._run(fn, args) for fn, _, args in calls]
        fresh = []
        for fn, _, args in calls:
            _clear_memos()
            fresh.append(self._run(fn, args))
        assert shared == fresh

    def test_small_limit_after_large(self):
        nr.split_primes(ZI, 5000)
        assert [p for p, _ in nr.split_primes(ZI, 30)] == [5, 13, 17, 29]
        big = ZI.element((math.lcm(*range(1, 40)), 0))
        with pytest.raises(RangeExhaustedError):
            nr.detect_split(big, 37)
        with pytest.raises(RangeExhaustedError):
            nr.min_detecting_ideal(big, 37)
        assert nr.detect_split(big, 5000).prime == 41

    def test_table_grows_only_as_far_as_scanned(self):
        f = (3, 1, 0, 1)  # x^3 + x + 3, disc -247 = -13 * 19, used by no other test
        ring = nr.NumberRing(f)
        _clear_memos(f)
        nr.split_primes(ring, 100)
        assert set(nr._ROOTS[f]) == set(_sieve(100)) - {13, 19}
        assert not nr._FACTORS.get(f)
        # a content of lcm(1..30) and limit 1000: roots only above 30, and
        # full factorizations only where p**2 <= 1000 as well
        _clear_memos(f)
        nr.min_detecting_ideal(ring.element((math.lcm(*range(1, 31)), 0, 0)), 1000)
        assert nr._ROOTS[f] and all(p > 30 for p in nr._ROOTS[f])
        assert all(30 < p and p * p <= 1000 for p in nr._FACTORS.get(f, ()))

    def test_cap_checked_before_any_scan(self):
        _clear_memos()
        a = ZI.element((1, 0))
        for call in (
            lambda: nr.detect_split(a, 10**8 + 1),
            lambda: nr.min_detecting_ideal(a, 10**8 + 1),
            lambda: nr.split_primes(ZI, 10**8 + 1),
        ):
            with pytest.raises(ValueError, match="exceeds cap"):
                call()
        assert not nr._ROOTS.get(ZI.min_poly)
        assert not nr._FACTORS.get(ZI.min_poly)
