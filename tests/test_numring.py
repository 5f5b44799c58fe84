"""Tests for number rings, split primes, and residue-field detection.

Split-prime lists were cross-checked against the congruence descriptions
(p = 1 mod 4 for x^2+1, p = +-1 mod 8 for x^2-2, p = 1 mod 5 for the fifth
cyclotomic) before freezing; detection values were derived by evaluating
the residue maps by hand.
"""

import bisect
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfin import numring as nr
from resfin.matgrp import BudgetExceededError, UndetectableError

ZI = nr.GAUSSIAN
R2 = nr.SQRT2


class TestConstruction:
    def test_names(self):
        assert ZI.name == "Z[x]/(x^2+1)"
        assert R2.name == "Z[x]/(x^2-2)"
        assert nr.NumberRing((1, 0, 1), 2).name == "Z[x]/(x^2+1)[1/2]"

    @pytest.mark.parametrize("coeffs, text", [
        ((), "0"), ((0,), "0"), ((1,), "1"), ((-1,), "-1"), ((-7,), "-7"),
        ((0, 1), "x"), ((0, -1), "-x"), ((3, -2), "-2x+3"),
        ((1, -2, 1), "x^2-2x+1"), ((-3, 0, -1), "-x^2-3"),
        ((5, 1, 0, -1), "-x^3+x+5"), ((0, 0, 0, 12), "12x^3"),
    ])
    def test_format_poly(self, coeffs, text):
        assert nr.format_poly(coeffs) == text

    def test_degree_and_discriminant(self):
        assert (ZI.degree, ZI.discriminant()) == (2, -4)
        assert (R2.degree, R2.discriminant()) == (2, 8)
        assert nr.NumberRing((0, 1)).discriminant() == 1
        assert nr.NumberRing((1, 0, 0, 0, 1)).discriminant() == 256
        assert nr.NumberRing((1, 1, 1, 1, 1)).discriminant() == 125
        # x^5 + ax + b: 5^5 b^4 + 4^4 a^5
        assert nr.NumberRing((1, -1, 0, 0, 0, 1)).discriminant() == 3125 - 256

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

    def test_reducible_quartic_rejected_again_from_the_memo(self):
        # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2): no rational root, so only
        # a quadratic subset product shows it; the second construction reads
        # the memoized verdict
        for _ in range(2):
            with pytest.raises(ValueError, match="reducible"):
                nr.NumberRing((4, 0, 0, 0, 1))

    def test_accepts_irreducible_quartics(self):
        # x^4+1 is reducible mod every prime, so the subset products of its
        # factors mod the test prime have to do the work
        assert nr.NumberRing((1, 0, 0, 0, 1)).degree == 4
        assert nr.NumberRing((1, 1, 1, 1, 1)).degree == 4

    def test_large_constant_term_constructs(self):
        # f(0) = 10^18 + 1: the test prime is near 4 * 10^18, and nothing
        # scans the divisors of f(0)
        assert nr.NumberRing((10**18 + 1, 0, 1)).degree == 2
        assert nr.NumberRing((10**30, 1)).degree == 1

    def test_coefficients_past_the_primality_range_raise(self):
        # the test prime would pass the deterministic Miller-Rabin bound
        with pytest.raises(ValueError, match=r"^min_poly coefficients 1000000000000000000000001,0,1 "):
            nr.NumberRing((10**24 + 1, 0, 1))

    def test_construction_writes_no_scan_memo(self):
        f = (3, 3, 0, 0, 1)  # x^4 + 3x + 3, Eisenstein at 3, used by no other test
        nr._is_irreducible.cache_clear()
        _clear_memos(f)
        assert nr.NumberRing(f).degree == 4
        assert all(f not in memo for memo in (nr._FACTORS, nr._ROOTS, nr._SPLIT))


def _divides_monic(f, g):
    """Does the monic g divide f over Z?  Schoolbook long division."""
    rem = list(f)
    for i in range(len(f) - len(g), -1, -1):
        coef = rem[i + len(g) - 1]
        for j, y in enumerate(g):
            rem[i + j] -= coef * y
    return not any(rem)


def _reducible_oracle(f):
    """Brute force for monic f of degree 2..5, with none of numring's code.

    A reducible f of degree <= 5 has a monic factor of degree 1 or 2 over Z.
    The constant term of such a factor divides f(0) (for f(0) != 0), and the
    x-coefficient of x^2 + ax + b is minus a sum of two roots, which Cauchy's
    bound |root| < 1 + max |c_i| keeps below 2 (1 + max |c_i|) in size."""
    if f[0] == 0:
        return True
    c0 = abs(f[0])
    divisors = [s * t for t in range(1, c0 + 1) if c0 % t == 0 for s in (1, -1)]
    if any(_divides_monic(f, (-r, 1)) for r in divisors):
        return True
    a_max = 2 * (1 + max(abs(c) for c in f))
    return len(f) - 1 >= 4 and any(
        _divides_monic(f, (b, a, 1)) for b in divisors for a in range(-a_max, a_max + 1)
    )


class TestIrreducibilityOracle:
    """_is_irreducible against the brute-force factor search, degree <= 5."""

    @staticmethod
    def _check(polys):
        polys = list(polys)
        wrong = [f for f in polys if nr._is_irreducible(f) == _reducible_oracle(f)]
        assert not wrong, wrong[:5]
        return sum(map(_reducible_oracle, polys))

    def test_every_small_polynomial_of_degree_2_to_4(self):
        polys = [low + (1,) for d in (2, 3, 4) for low in itertools.product(range(-2, 3), repeat=d)]
        assert len(polys) == 775
        assert self._check(polys) == 334  # reducible ones

    def test_seeded_quintics(self):
        rng = random.Random(19)
        polys = [tuple(rng.randint(-12, 12) for _ in range(5)) + (1,) for _ in range(150)]
        assert self._check(polys) == 16

    def test_products_of_two_seeded_factors(self):
        rng = random.Random(23)

        def monic(d):
            return tuple(rng.randint(-4, 4) for _ in range(d)) + (1,)

        def product(g, h):
            return tuple(sum(g[i] * h[k - i] for i in range(len(g)) if 0 <= k - i < len(h))
                         for k in range(len(g) + len(h) - 1))

        polys = []
        for _ in range(200):
            a = rng.randint(1, 2)
            polys.append(product(monic(a), monic(rng.randint(1, 5 - a))))
        assert self._check(polys) == len(polys)

    def test_first_prime_dividing_the_discriminant_is_passed_over(self):
        # (x^2 - 17x + 12)(x^3 + x + 1): 241 is the first prime >= 2B + 1,
        # and x^2 - 17x + 12 has discriminant 241, so it is (x - r)^2 mod
        # 241, which no product of distinct factors mod 241 gives
        f = (12, -5, -16, 13, -17, 1)
        assert nr._discriminant(f) % 241 == 0
        assert self._check([f]) == 1


def _zpoly_add(u, v):
    return tuple(a + b for a, b in itertools.zip_longest(u, v, fillvalue=0))


def _zpoly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return tuple(out)


def _sum_of_square_roots_poly(qs):
    """The monic polynomial of degree 2^len(qs) with root sum(sqrt(q)): from
    p = x, each q maps p to A^2 - q B^2, where p(x + sqrt q) = A + sqrt(q) B."""
    p = (0, 1)
    for q in qs:
        a, b = (0,), (0,)
        for c in reversed(p):  # Horner: (a + s b)(x + s) + c with s^2 = q
            a, b = (_zpoly_add(_zpoly_add((0,) + a, tuple(q * t for t in b)), (c,)),
                    _zpoly_add(a, (0,) + b))
        p = _zpoly_add(_zpoly_mul(a, a), tuple(-q * t for t in _zpoly_mul(b, b)))
        while not p[-1]:
            p = p[:-1]
    return p


class TestConstantTermFilter:
    """A subset of the factors mod P whose lifted constant product does not
    divide f(0) is no factor, and is skipped before its product is built."""

    # unfiltered, every subset of degree <= d/2 was tried: 162 and 39,202
    # trial divisions
    @pytest.mark.parametrize("qs, unfiltered", [((2, 3, 5, 7), 162), ((2, 3, 5, 7, 11), 39_202)])
    def test_few_trial_divisions(self, monkeypatch, qs, unfiltered):
        f = _sum_of_square_roots_poly(qs)
        assert len(f) - 1 == 2 ** len(qs) and f[-1] == 1
        calls = []
        divide = nr._zdivmod_monic
        monkeypatch.setattr(nr, "_zdivmod_monic", lambda *a: calls.append(a) or divide(*a))
        nr._is_irreducible.cache_clear()
        try:
            assert nr._is_irreducible(f)
        finally:
            nr._is_irreducible.cache_clear()
        assert len(calls) <= unfiltered // 10


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
        with pytest.raises(BudgetExceededError):
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

    # the rings of perfbench's rings workload
    @pytest.mark.parametrize("text", [
        "f=1,0,1", "f=-2,0,1", "f=-2,0,0,1", "f=1,0,0,0,1", "f=1,-1,0,0,0,1", "f=1,0,1;invert=5",
    ])
    def test_inline_residue_matches_reduce_element(self, monkeypatch, text):
        # detect_split reduces inline, without reduce_element's checks: the
        # residue is the same, and no primality test runs
        ring = nr.parse_ring(text)
        rng = random.Random(text)
        elements = []
        for k in range(40):
            coords = [rng.randint(-10**6, 10**6) * (1 + k % 3) for _ in ring.min_poly[1:]]
            if any(coords):
                elements.append(ring.element(coords, k % 4 if ring.inverted > 1 else 0))
        if ring.inverted > 1:
            assert sum(a.denom_exp > 0 for a in elements) > 20
        calls = []
        real = nr.arith.is_prime
        monkeypatch.setattr(nr.arith, "is_prime", lambda n: calls.append(n) or real(n))
        found = [nr.detect_split(a) for a in elements]
        assert calls == []
        monkeypatch.undo()
        for a, d in zip(elements, found):
            assert d.residue and nr.reduce_element(a, d.prime, d.root) == d.residue


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
        with pytest.raises(BudgetExceededError):
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

# (min_poly, inverted) of each oracle ring.  The rings are built on first
# use, not at import: NumberRing factors f mod p to test irreducibility, so
# a broken F_p[x] kernel then fails the tests that use them instead of
# stopping the collection of this module.
ORACLE_SPECS = (
    ((1, 0, 1), 1),
    ((-2, 0, 1), 1),
    ((-2, 0, 0, 1), 1),
    ((1, 0, 0, 0, 1), 1),
    ((1, -1, 0, 0, 0, 1), 1),
    ((1, 0, 1), 5),
    ((1, 1, 1, 1, 1), 1),
)
ORACLE_POLYS = tuple(dict.fromkeys(f for f, _ in ORACLE_SPECS))


@functools.lru_cache(maxsize=None)
def oracle_rings():
    return tuple(nr.NumberRing(f, inverted) for f, inverted in ORACLE_SPECS)


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
        # one pass of the values oracle checks both memos: the roots memo,
        # and the linear factors of the full factorization
        for f in ORACLE_POLYS:
            for p, want in _roots_by_values(f, 5000).items():
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

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_repeated_factors_match_trial_division(self, p):
        # f = g1^e1 * g2^e2 * ... with multiplicities up to p + 1, so that
        # some f' vanish; the distinct-degree loop strips every copy
        rng = random.Random(p)
        for _ in range(40):
            f = [1]
            for _ in range(rng.randint(1, 3)):
                g = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3))) + (1,)
                for _ in range(rng.randint(1, p + 1)):
                    f = _mul(f, g, p)
            f = tuple(f)
            assert nr.factor_distinct_mod(f, p) == _brute_factors(f, p), (f, p)

    @pytest.mark.parametrize("h, g, p", [
        ((2, 0, 1), 1, 5),  # x^2 + 2 is irreducible mod 5, not two linear factors
        ((1, 1, 1), 1, 2),  # x^2 + x + 1 is irreducible mod 2
        ((0, 0, 1), 1, 3),  # x^2 = x * x mod 3: a repeated factor, not two
        ((0, 0, 1), 1, 2),  # x^2 = x * x mod 2
    ])
    def test_equal_degree_split_rejects_a_broken_precondition(self, h, g, p):
        with pytest.raises(ArithmeticError, match="not a product of distinct"):
            nr._split_equal_degree(h, g, p)

    def test_scans_match_per_call_oracle(self):
        rng = random.Random(5)
        scale = math.lcm(*range(1, 301))
        for ring in oracle_rings():
            for _ in range(3):
                coords = [rng.randint(-10**6, 10**6) or 1 for _ in range(ring.degree)]
                a = ring.element([c * scale for c in coords])
                for limit in (250, 20000):
                    want = _oracle_detect_split(a, limit)
                    if want is None:
                        with pytest.raises(BudgetExceededError):
                            nr.detect_split(a, limit)
                    else:
                        assert nr.detect_split(a, limit) == want
                # every ideal of norm <= 300 kills a, so 1000 leaves room
                for limit in (250, 1000):
                    want = _oracle_ideal(a, limit)
                    if want is None:
                        with pytest.raises(BudgetExceededError):
                            nr.min_detecting_ideal(a, limit)
                    else:
                        assert nr.min_detecting_ideal(a, limit) == want

    def test_small_elements_match_per_call_oracle(self):
        rng = random.Random(6)
        for ring in oracle_rings():
            for _ in range(10):
                coords = [rng.randint(-50, 50) for _ in range(ring.degree)]
                if not any(coords):
                    continue
                a = ring.element(coords, rng.randrange(2) if ring.inverted > 1 else 0)
                assert nr.detect_split(a, 5000) == _oracle_detect_split(a, 5000)
                assert nr.min_detecting_ideal(a, 5000) == _oracle_ideal(a, 5000)


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _roots_by_values(f, limit):
    """{p: sorted roots of f mod p} for every prime p <= limit, from the
    integer values f(r): r in [0, p) is a root of f mod p exactly when p
    divides f(r), so one gcd of f(r) with the product of the primes in
    (r, limit] finds every p at which r is a root, and limit evaluations
    serve every prime at once."""
    ev = _evaluator(f)
    primes = _sieve(limit)
    roots = {p: [] for p in primes}
    rest = math.prod(primes)
    for r in range(limit):
        if r in roots:
            rest //= r  # primes <= r leave the product
        g = math.gcd(rest, ev(r))
        if g > 1:
            for p in itertools.islice(primes, bisect.bisect_right(primes, r), None):
                if g % p == 0:
                    roots[p].append(r)
                    g //= p
                    if g == 1:
                        break
    return {p: tuple(rs) for p, rs in roots.items()}


# the oracle rings and x^3 + x + 3 (disc -247 = -13 * 19)
LEMMA_POLYS = ORACLE_POLYS + ((3, 1, 0, 1),)


def _good_odd_primes(f, limit):
    disc = nr._discriminant(f)
    return disc, [p for p in _sieve(limit)[1:] if disc % p]


def _clear_memos(f=None):
    """Forget every per-f memo of f, or of every min_poly."""
    for memo in (nr._ROOTS, nr._FACTORS, nr._SPLIT):
        if f is None:
            memo.clear()
        else:
            memo.pop(f, None)


def _memo_primes(f):
    memos = (nr._ROOTS, nr._FACTORS, nr._SPLIT)
    return set().union(*(memo.get(f, ()) for memo in memos))


def _spy_frobenius(monkeypatch):
    """Record (p, m) for each power x^p mod (m, p) that numring computes."""
    calls = []
    real = nr._ppowmod

    def spy(base, e, mod, p):
        if base == (0, 1) and e == p:
            calls.append((p, mod))
        return real(base, e, mod, p)

    monkeypatch.setattr(nr, "_ppowmod", spy)
    return calls


def _frobenius_primes(calls, f):
    """The p of the recorded powers x^p mod (f mod p, p)."""
    return {p for p, mod in calls if mod == nr._pmod_coeffs(f, p)}


def _assert_matches_oracles(a, limit):
    want = _oracle_detect_split(a, limit)
    if want is None:
        with pytest.raises(BudgetExceededError):
            nr.detect_split(a, limit)
    else:
        assert nr.detect_split(a, limit) == want
    want = _oracle_ideal(a, limit)
    if want is None:
        with pytest.raises(BudgetExceededError):
            nr.min_detecting_ideal(a, limit)
    else:
        assert nr.min_detecting_ideal(a, limit) == want


class TestScanLemmas:
    """The lemmas that let a scan skip work, each against the oracle."""

    def test_sign_test_matches_factor_count(self):
        # Stickelberger: (disc/p) = (-1)^(d - r) for odd p not dividing disc
        for f in LEMMA_POLYS:
            d = len(f) - 1
            disc, primes = _good_odd_primes(f, 5000)
            for p in primes:
                r = len(nr._factors_mod(f, p))
                assert _jacobi(disc, p) == (-1) ** (d - r), (f, p)

    def test_fixed_point_test_matches_evaluation(self):
        # x^p = x mod f exactly when f has deg(f) roots mod p
        for f in LEMMA_POLYS:
            d = len(f) - 1
            by_values = _roots_by_values(f, 5000)
            _, primes = _good_odd_primes(f, 5000)
            for p in primes:
                roots = by_values[p]
                fbar = nr._pmod_coeffs(f, p)
                fixed = nr._ppowmod((0, 1), p, fbar, p) == tuple(_rem([0, 1], f, p))
                assert fixed == (len(roots) == d), (f, p)
                assert nr._split_roots(f, p) == (roots if fixed else ()), (f, p)

    @pytest.mark.parametrize("f, limit", (((1, -1, 0, 0, 0, 1), 20000), ((0, 1), 100)))
    def test_split_primes_match_values_oracle(self, f, limit):
        _clear_memos(f)
        want = [(p, rs) for p, rs in _roots_by_values(f, limit).items() if len(rs) == len(f) - 1]
        assert nr.split_primes(nr.NumberRing(f), limit) == want

    def test_non_residue_primes_leave_no_split_entry(self, monkeypatch):
        rng = random.Random(9)
        calls = _spy_frobenius(monkeypatch)
        for ring in oracle_rings():
            f = ring.min_poly
            disc = ring.discriminant()
            _clear_memos(f)
            calls.clear()
            nr.split_primes(ring, 3000)
            for _ in range(5):
                coords = [rng.randint(-10**6, 10**6) or 1 for _ in range(ring.degree)]
                nr.detect_split(ring.element(coords), 20000)
            assert nr._SPLIT[f]
            # nor does the split scan power x^p at such a prime
            assert _frobenius_primes(calls, f) == set(nr._SPLIT[f]), f
            for primes in (nr._SPLIT[f], nr._ROOTS.get(f, ())):
                assert all(p == 2 or _jacobi(disc, p) == 1 for p in primes), f

    @pytest.mark.parametrize("K", (40, 150))
    def test_content_primes_leave_no_memo_entry(self, K):
        rng = random.Random(K)
        scale = math.lcm(*range(1, K + 1))
        for ring in oracle_rings():
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
        for ring in oracle_rings():
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
                with pytest.raises(BudgetExceededError):
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
        except BudgetExceededError as exc:
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
        with pytest.raises(BudgetExceededError):
            nr.detect_split(big, 37)
        with pytest.raises(BudgetExceededError):
            nr.min_detecting_ideal(big, 37)
        assert nr.detect_split(big, 5000).prime == 41

    def test_table_grows_only_as_far_as_scanned(self, monkeypatch):
        f = (3, 1, 0, 1)  # x^3 + x + 3, disc -247 = -13 * 19, used by no other test
        ring = nr.NumberRing(f)
        _clear_memos(f)
        calls = _spy_frobenius(monkeypatch)
        nr.split_primes(ring, 100)
        monkeypatch.undo()
        # only the primes that pass the sign test get a split memo entry and
        # a power x^p, and only the split ones get roots
        assert set(nr._SPLIT[f]) == _frobenius_primes(calls, f) == {
            p for p in _sieve(100) if p == 2 or _jacobi(-247, p) == 1
        }
        assert set(nr._ROOTS[f]) == {p for p, roots in nr._SPLIT[f].items() if roots}
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


def _ppowmod_oracle(base, e, mod, p):
    """base**e modulo the monic polynomial mod over F_p, by the interpreted
    square and multiply that the compiled kernels replaced."""
    n = len(mod) - 1
    low = [-c for c in mod[:n]]  # x^n = low(x) modulo mod

    def mulmod(a, b):
        # product folded down with x^n = low(x), over Z until the final mod p
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for k in range(len(out) - 1, n - 1, -1):
            c = out[k] % p
            if c:
                for j, y in enumerate(low):
                    out[k - n + j] += c * y
        return nr._ptrim(x % p for x in out[:n])

    result = (1,)
    base = nr._pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return result


class TestPowmodKernel:
    """The compiled kernels against the interpreted square and multiply."""

    @staticmethod
    def _check(base, e, mod, p):
        assert nr._ppowmod(base, e, mod, p) == _ppowmod_oracle(base, e, mod, p), (base, e, mod, p)

    def test_every_exponent_and_base_below_200(self):
        # zero, x and a random base mod the oracle moduli and random monic
        # ones of degree 1..8, for the exponents of every caller; the random
        # base's length runs through 0..n+2 as p does (longer ones are
        # reduced first)
        rng = random.Random(11)
        for t, p in enumerate(_sieve(200)):
            moduli = [nr._pmod_coeffs(f, p) for f in ORACLE_POLYS]
            moduli += [tuple(rng.randrange(p) for _ in range(d)) + (1,) for d in range(1, 9)]
            exps = {0, 1, 2, 3, p, p * p} | {(p**g - 1) // 2 for g in (1, 2, 3)}
            for mod in moduli:
                n = len(mod) - 1
                drawn = nr._ptrim(rng.randrange(p) for _ in range(t % (n + 3)))
                for base in ((), (0, 1), drawn):
                    for e in exps:
                        self._check(base, e, mod, p)

    def test_frobenius_and_splitting_powers_below_2000(self):
        # x^p and x^(p^2) as the Frobenius and distinct-degree scans take
        # them, and a random base to (p^g - 1)/2 as Cantor-Zassenhaus does
        rng = random.Random(12)
        for p in _sieve(2000):
            moduli = [nr._pmod_coeffs(f, p) for f in ORACLE_POLYS]
            moduli.append(tuple(rng.randrange(p) for _ in range(p % 8 + 1)) + (1,))
            for mod in moduli:
                n = len(mod) - 1
                base = nr._ptrim(rng.randrange(p) for _ in range(n))
                for e in (p, p * p):
                    self._check((0, 1), e, mod, p)
                    self._check(base, e, mod, p)
                self._check(base, (p ** rng.randint(1, 3) - 1) // 2, mod, p)

    def test_one_kernel_pair_per_degree(self):
        nr._powmod_kernels.cache_clear()
        for p in (2, 3, 101):
            for d in range(1, 9):
                mod = tuple(range(d)) + (1,)
                self._check((0, 1), p, mod, p)
                self._check((1, 1), p + 2, mod, p)
        info = nr._powmod_kernels.cache_info()
        assert info.currsize == info.misses == 8
