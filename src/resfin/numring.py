"""Monogenic number rings Z[x]/(f) and residue-field detection.

A ring here is a monic irreducible integer polynomial f together with an
inverted positive integer f0: elements are integer coordinate vectors over
the power basis 1, x, ..., x^(d-1), divided by a power of f0.  For a prime
p not dividing f0, every irreducible factor g of f mod p gives a residue
map onto the field of size p^deg(g); when f splits into d distinct linear
factors mod p the targets are prime fields F_p and evaluation at a root of
f realizes the map.

detect_split finds the smallest completely split prime at which an element
survives, which is the detection route whose size is logarithmic in the
coordinates.  min_detecting_ideal scans all residue fields (split, inert,
ramified alike) in order of size, so the split answer can be compared with
the global minimum.

Each scan computes only what can decide its answer, from two memos per
min_poly keyed by p and filled only at the primes some scan asked about:
the sorted distinct roots of f mod p (one gcd with x^p - x, then
Cantor-Zassenhaus), and the full list of distinct irreducible factors of f
mod p.  Both scans first skip the primes dividing the content of the
element (the gcd of its coordinates), where it dies in every residue field.
detect_split and split_primes read roots only.  min_detecting_ideal reads
the full factorization only while p^2 is within its norm cap; above that
only linear factors can count, and it reads roots.  The irreducibility test
reads full factorizations.  Since every scan shares the memos, the referee
is the oracle in tests/test_numring.py, which finds roots by evaluating f
at every residue, factors by trial division and redoes each scan per call.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass

from resfin import arith
from resfin.matgrp import RangeExhaustedError, UndetectableError

DEFAULT_PRIME_LIMIT = 10_000

# ---------------------------------------------------------------------------
# polynomials over F_p (tuples of ints, low degree first, no trailing zeros)


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmod_coeffs(c, p):
    return _ptrim(x % p for x in c)


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _ptrim((x - y) % p for x, y in zip(a, b))


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        coef = rem[i + len(b) - 1] * inv % p
        if coef:
            quo[i] = coef
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - coef * y) % p
    return _ptrim(quo), _ptrim(rem)


def _pmonic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return _ptrim(x * inv % p for x in a)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmonic(a, p)


def _ppowmod(base, e, mod, p):
    """base**e modulo the monic polynomial mod over F_p."""
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
        return _ptrim(x % p for x in out[:n])

    result = (1,)
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return result


def _pderiv(a, p):
    return _ptrim(i * a[i] % p for i in range(1, len(a)))


def _peval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


# ---------------------------------------------------------------------------
# integer polynomials (for reduction mod monic f and exact division tests)


def _zmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _zdivmod_monic(a, b):
    """Exact integer division by a monic polynomial."""
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        coef = rem[i + len(b) - 1]
        if coef:
            quo[i] = coef
            for j, y in enumerate(b):
                rem[i + j] -= coef * y
    return _ptrim(quo), _ptrim(rem)


@functools.lru_cache(maxsize=None)
def _discriminant(f: tuple) -> int:
    """disc(f) for monic f, via the Sylvester resultant of f and f'."""
    d = len(f) - 1
    if d == 1:
        return 1
    fp = tuple(i * f[i] for i in range(1, len(f)))
    m, n = d, len(fp) - 1
    size = m + n
    rows = []
    high_f = list(reversed(f))
    high_fp = list(reversed(fp))
    for i in range(n):
        rows.append([0] * i + high_f + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + high_fp + [0] * (size - n - 1 - i))
    res = _int_det(rows)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res


def _int_det(rows) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# factorization mod p: radical, distinct-degree, equal-degree


def _radical_mod(fbar, p):
    """Product of the distinct irreducible factors of fbar over F_p."""
    if len(fbar) <= 1:
        return fbar
    if p > len(fbar) - 1:  # every multiplicity is below p, so fbar' != 0
        return _pdivmod(fbar, _pgcd(fbar, _pderiv(fbar, p), p), p)[0]
    # tiny p: gcd(fbar, x^(p^g) - x) holds the factors of degree dividing
    # g, each once; their lcm over g <= deg(fbar) is the radical
    fbar = _pmonic(fbar, p)
    rad, w = (1,), (0, 1)
    for _ in range(len(fbar) - 1):
        w = _ppowmod(w, p, fbar, p)
        part = _pgcd(fbar, _psub(w, (0, 1), p), p)
        rad = _pdivmod(_pmul(rad, part, p), _pgcd(rad, part, p), p)[0]
    return rad


def _monic_polys(deg, p):
    return (low + (1,) for low in itertools.product(range(p), repeat=deg))


def _distinct_degree(h, p):
    """[(g, product of the irreducible factors of degree g)] for squarefree h."""
    out = []
    w = (0, 1)
    g = 0
    while len(h) - 1 >= 1:
        g += 1
        if 2 * g > len(h) - 1:
            out.append((len(h) - 1, h))
            break
        w = _ppowmod(w, p, h, p)
        part = _pgcd(h, _psub(w, (0, 1), p), p)
        if len(part) > 1:
            out.append((g, part))
            h = _pdivmod(h, part, p)[0]
            w = _pdivmod(w, h, p)[1]
    return out


def _split_equal_degree(h, g, p):
    """Irreducible factors of squarefree h, all known to have degree g.

    Trial division for p = 2; Cantor-Zassenhaus equal-degree splitting for
    odd p (von zur Gathen and Gerhard, Modern Computer Algebra, 14.3): for
    random r, gcd(r^((p^g - 1)/2) - 1, h) is a proper factor with
    probability about 1/2.  The seeded generator keeps runs deterministic,
    and the factor set is unique whatever r splits it."""
    deg = len(h) - 1
    if deg == g:
        return [h]
    if p == 2:
        out = []
        rest = h
        for cand in _monic_polys(g, p):
            if len(rest) - 1 == g:
                out.append(rest)
                rest = (1,)
                break
            quo, rem = _pdivmod(rest, cand, p)
            if not rem:
                out.append(cand)
                rest = quo
        return out
    rng = random.Random(p * 1009 + g)
    e = (p**g - 1) // 2
    while True:
        r = _ptrim([rng.randrange(p) for _ in range(deg)])
        if len(r) < 2:
            continue
        w = _psub(_ppowmod(r, e, h, p), (1,), p)
        d = _pgcd(w, h, p)
        if 0 < len(d) - 1 < deg:
            return _split_equal_degree(d, g, p) + _split_equal_degree(
                _pdivmod(h, d, p)[0], g, p
            )


def factor_distinct_mod(f, p) -> list[tuple]:
    """The distinct monic irreducible factors of f mod p, sorted."""
    fbar = _pmod_coeffs(f, p)
    if len(fbar) <= 1:
        return []
    rad = _radical_mod(fbar, p)
    out = []
    for g, part in _distinct_degree(rad, p):
        out.extend(_split_equal_degree(part, g, p))
    return sorted(out, key=lambda c: (len(c), c))


# Two memos per min_poly, keyed by p and filled only at the primes some scan
# asked about: the distinct irreducible factors of f mod p, and the sorted
# distinct roots of f mod p.
_FACTORS: dict[tuple, dict[int, list[tuple]]] = {}
_ROOTS: dict[tuple, dict[int, tuple[int, ...]]] = {}


def _factors_mod(f: tuple, p: int) -> list[tuple]:
    """factor_distinct_mod(f, p), computed once per (f, p)."""
    table = _FACTORS.setdefault(f, {})
    if p not in table:
        table[p] = factor_distinct_mod(f, p)
    return table[p]


def _roots_mod(f: tuple, p: int) -> tuple[int, ...]:
    """The distinct roots of the monic f mod p, sorted, computed once per (f, p).

    Roots from Frobenius: over F_p, x^p - x is the product of x - t over all
    t in F_p, so gcd(f mod p, x^p - x) is the product of the distinct linear
    factors of f mod p.  One power x^p mod f and one gcd give it, and
    Cantor-Zassenhaus splits it only when it has degree 2 or more.  So p
    splits completely into distinct factors exactly when f mod p has deg(f)
    roots here, and no other factor of f mod p is ever computed."""
    table = _ROOTS.setdefault(f, {})
    roots = table.get(p)
    if roots is None:
        fbar = _pmod_coeffs(f, p)
        frob = _psub(_ppowmod((0, 1), p, fbar, p), (0, 1), p)
        lin = _pgcd(fbar, frob, p)
        factors = _split_equal_degree(lin, 1, p) if len(lin) > 1 else []
        roots = table[p] = tuple(sorted(-g[0] % p for g in factors))
    return roots


def _split_rows(ring, limit: int, skip: int = 1):
    """(p, sorted roots of f mod p) for the completely split p <= limit:
    p divides none of disc(f), the inverted integer and skip, and f mod p
    has deg(f) distinct roots.  Roots are read only at primes that pass the
    divisibility test, and a limit above the sieve cap raises at once."""
    bad = abs(ring.discriminant()) * ring.inverted * skip
    for p in arith.primes(limit):
        if bad % p:
            roots = _roots_mod(ring.min_poly, p)
            if len(roots) == ring.degree:
                yield p, roots


# ---------------------------------------------------------------------------
# irreducibility over Q (monic integer polynomials)


def _is_irreducible(f: tuple) -> bool:
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False  # divisible by x
    for r in _divisors_signed(abs(f[0])):
        if sum(c * r**i for i, c in enumerate(f)) == 0:
            return False
    if d <= 3:
        return True  # no rational root and degree <= 3
    disc = _discriminant(f)
    if disc == 0:
        return False  # repeated factor
    degree_options = set(range(1, d))
    good = []
    # disc has finitely many prime divisors, so six good primes turn up
    for p in arith.primes():
        if disc % p == 0:
            continue
        factors = _factors_mod(f, p)
        degs = sorted(len(g) - 1 for g in factors)
        if degs == [d]:
            return True
        good.append((len(degs), p, factors))
        degree_options &= _subset_sums(degs)
        if not degree_options:
            return True
        if len(good) >= 6:
            break
    good.sort()
    _, p, factors = good[0]
    return not _has_integer_factor(f, p, factors)


def _divisors_signed(c0):
    out = set()
    for d in range(1, math.isqrt(c0) + 1):
        if c0 % d == 0:
            out.update((d, -d, c0 // d, -(c0 // d)))
    return sorted(out)


def _subset_sums(degs):
    sums = {0}
    for g in degs:
        sums |= {s + g for s in sums}
    return sums


def _has_integer_factor(f, p, factors) -> bool:
    """Zassenhaus: lift the mod-p factors and test factor subsets over Z."""
    d = len(f) - 1
    bound = 2 ** (d // 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    a = 1
    q = p
    while q < 2 * bound + 1:
        q *= p
        a += 1
    lifted = _hensel_lift_list(_pmod_coeffs(f, q), list(factors), p, q)
    r = len(lifted)
    for mask in range(1, 2**r - 1):
        chosen = [lifted[i] for i in range(r) if mask >> i & 1]
        deg = sum(len(g) - 1 for g in chosen)
        if deg > d // 2:
            continue
        cand = (1,)
        for g in chosen:
            cand = _pmul(cand, g, q)
        centered = tuple(c if c <= q // 2 else c - q for c in cand)
        _, rem = _zdivmod_monic(f, centered)
        if not rem:
            return True
    return False


def _hensel_lift_list(fq, factors, p, q):
    """Lift a coprime mod-p factorization of fq to hold mod q = p^a."""
    if len(factors) == 1:
        return [fq]
    half = len(factors) // 2
    g0 = (1,)
    for fac in factors[:half]:
        g0 = _pmul(g0, fac, p)
    h0 = (1,)
    for fac in factors[half:]:
        h0 = _pmul(h0, fac, p)
    g, h = _hensel_lift_pair(fq, g0, h0, p, q)
    return _hensel_lift_list(g, factors[:half], p, q) + _hensel_lift_list(
        h, factors[half:], p, q
    )


def _hensel_lift_pair(fq, g0, h0, p, q):
    s, t = _bezout_mod(g0, h0, p)
    g, h = g0, h0
    k = p
    while k < q:
        diff = _psub(_pmod_coeffs(fq, k * p), _pmul(g, h, k * p), k * p)
        e = _ptrim(c // k for c in diff)
        dg = _pdivmod(_pmul(t, e, p), g0, p)[1]
        dh = _pdivmod(_pmul(s, e, p), h0, p)[1]
        g = _ptrim(a + k * b for a, b in _zip_pad(g, dg))
        h = _ptrim(a + k * b for a, b in _zip_pad(h, dh))
        k *= p
    return _pmod_coeffs(g, q), _pmod_coeffs(h, q)


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(tuple(a) + (0,) * (n - len(a)), tuple(b) + (0,) * (n - len(b)))


def _bezout_mod(a, b, p):
    """s, t with s*a + t*b = 1 over F_p, for coprime a, b."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        quo, rem = _pdivmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(s0, _pmul(quo, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(quo, t1, p), p)
    if len(r0) != 1:
        raise ValueError("polynomials are not coprime")
    inv = pow(r0[0], -1, p)
    return _ptrim(c * inv % p for c in s0), _ptrim(c * inv % p for c in t0)


# ---------------------------------------------------------------------------
# rings and elements


@dataclass(frozen=True)
class NumberRing:
    """Z[x]/(min_poly), localized at the positive integer `inverted`.

    min_poly is monic and irreducible over Q (enforced here), stored low
    degree first; elements carry coordinates over the power basis.
    """

    min_poly: tuple[int, ...]
    inverted: int = 1

    def __post_init__(self):
        f = tuple(int(c) for c in self.min_poly)
        object.__setattr__(self, "min_poly", f)
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("min_poly must be monic of degree >= 1")
        if self.inverted < 1:
            raise ValueError("inverted integer must be >= 1")
        if not _is_irreducible(f):
            raise ValueError("min_poly is reducible over the rationals")

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    @property
    def name(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.min_poly[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c:+d}")
            elif i == 1:
                terms.append(f"{c:+d}x" if abs(c) != 1 else ("+x" if c > 0 else "-x"))
            else:
                terms.append(
                    f"{c:+d}x^{i}" if abs(c) != 1 else (f"+x^{i}" if c > 0 else f"-x^{i}")
                )
        poly = "".join(terms).lstrip("+")
        base = f"Z[x]/({poly})"
        return base if self.inverted == 1 else f"{base}[1/{self.inverted}]"

    def element(self, coords, denom_exp: int = 0) -> RingElement:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError(f"need {self.degree} coordinates, got {len(coords)}")
        if denom_exp < 0:
            raise ValueError("denominator exponent must be >= 0")
        while denom_exp > 0 and all(c % self.inverted == 0 for c in coords):
            coords = tuple(c // self.inverted for c in coords)
            denom_exp -= 1
        return RingElement(self, coords, denom_exp)

    def zero(self) -> RingElement:
        return self.element((0,) * self.degree)

    def one(self) -> RingElement:
        return self.element((1,) + (0,) * (self.degree - 1))

    def discriminant(self) -> int:
        return _discriminant(self.min_poly)


@dataclass(frozen=True)
class RingElement:
    """coords over the power basis, divided by ring.inverted ** denom_exp."""

    ring: NumberRing
    coords: tuple[int, ...]
    denom_exp: int = 0

    def __post_init__(self):
        if len(self.coords) != self.ring.degree:
            raise ValueError("coordinate length does not match ring degree")
        if self.denom_exp < 0:
            raise ValueError("denominator exponent must be >= 0")
        if self.denom_exp > 0 and all(c % self.ring.inverted == 0 for c in self.coords):
            raise ValueError("representation not normalized (use ring.element)")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _require_same_ring(self, other: RingElement):
        if self.ring != other.ring:
            raise ValueError("elements live in different rings")

    def __add__(self, other: RingElement) -> RingElement:
        self._require_same_ring(other)
        e = max(self.denom_exp, other.denom_exp)
        f0 = self.ring.inverted
        a = tuple(c * f0 ** (e - self.denom_exp) for c in self.coords)
        b = tuple(c * f0 ** (e - other.denom_exp) for c in other.coords)
        return self.ring.element([x + y for x, y in zip(a, b)], e)

    def __neg__(self) -> RingElement:
        return self.ring.element([-c for c in self.coords], self.denom_exp)

    def __sub__(self, other: RingElement) -> RingElement:
        return self + (-other)

    def __mul__(self, other: RingElement) -> RingElement:
        self._require_same_ring(other)
        prod = _zmul(self.coords, other.coords)
        _, rem = _zdivmod_monic(prod, self.ring.min_poly)
        coords = tuple(rem) + (0,) * (self.ring.degree - len(rem))
        return self.ring.element(coords, self.denom_exp + other.denom_exp)


GAUSSIAN = NumberRing((1, 0, 1))
SQRT2 = NumberRing((-2, 0, 1))


_RING_RE = re.compile(
    r"^\s*f\s*=\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*(?:;\s*invert\s*=\s*(\d+)\s*)?$"
)


def parse_ring(text: str) -> NumberRing:
    """Parse 'f = c0,c1,...,1' with an optional '; invert = f0' clause."""
    m = _RING_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse ring description {text!r}")
    coeffs = tuple(int(c) for c in m.group(1).split(","))
    inverted = int(m.group(2)) if m.group(2) else 1
    return NumberRing(coeffs, inverted)


# ---------------------------------------------------------------------------
# split primes and residue maps


def split_primes(ring: NumberRing, limit: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (p, sorted roots of f mod p) with p <= limit completely split.

    Primes dividing disc(f) or the inverted integer are skipped: only
    finitely many, and at those the reduction is ramified or undefined.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    return list(_split_rows(ring, limit))


def reduce_element(a: RingElement, p: int, root: int) -> int:
    """Image of a in F_p under x -> root, for a root of f mod p."""
    ring = a.ring
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if ring.inverted % p == 0:
        raise ValueError(f"localized integer {ring.inverted} is not invertible mod {p}")
    if _peval(ring.min_poly, root, p) != 0:
        raise ValueError(f"{root} is not a root of the minimal polynomial mod {p}")
    value = _peval(a.coords, root, p)
    if a.denom_exp:
        value = value * pow(pow(ring.inverted, a.denom_exp, p), -1, p) % p
    return value


@dataclass(frozen=True)
class SplitDetection:
    prime: int
    root: int
    residue: int


def detect_split(a: RingElement, limit: int = DEFAULT_PRIME_LIMIT) -> SplitDetection:
    """Smallest split prime whose residue map keeps a nonzero.

    Returns the smallest qualifying root as the witness.  The detecting
    quotient is the field F_p, so the reported size is just p.

    Content: let c be the gcd of the coordinates of a.  A prime p dividing c
    but not the inverted integer sends a to 0 in every residue field over
    p, so such p are skipped before any root is computed.
    """
    if a.is_zero():
        raise UndetectableError("zero maps to zero in every quotient")
    for p, roots in _split_rows(a.ring, limit, math.gcd(*a.coords)):
        for root in roots:
            residue = reduce_element(a, p, root)
            if residue:
                return SplitDetection(p, root, residue)
    raise RangeExhaustedError(
        f"no split prime <= {limit} detects the element; raise the limit"
    )


@dataclass(frozen=True)
class IdealDetection:
    prime: int
    factor: tuple[int, ...]
    norm: int


def min_detecting_ideal(a: RingElement, limit: int = DEFAULT_PRIME_LIMIT) -> IdealDetection:
    """Smallest residue field over ANY prime ideal that keeps a nonzero.

    Scans primes in increasing order; the ideal over p with residue field
    F_{p^e} corresponds to an irreducible degree-e factor of f mod p, and
    ramified primes participate (only p dividing the inverted integer are
    excluded, since those ideals are blown up by the localization).  At
    each p the factors are tried in (degree, coefficients) order, and the
    scan stops once the next prime already exceeds the best norm found.

    Content: a prime p dividing the gcd of the coordinates of a sends a to
    0 in every residue field over p, so it is skipped before any factor is
    computed.

    Norm cap: a degree-e factor counts only if p^e <= limit and p^e is
    below the best norm so far.  Once p^2 exceeds that cap, only linear
    factors can count, and they are the x - r for the roots r of f mod p;
    only smaller p need the full factorization of f mod p.
    """
    if a.is_zero():
        raise UndetectableError("zero maps to zero in every quotient")
    f = a.ring.min_poly
    skip = a.ring.inverted * math.gcd(*a.coords)
    best: IdealDetection | None = None
    for p in arith.primes(limit):
        if best is not None and p > best.norm:
            break
        if skip % p == 0:
            continue
        cap = limit if best is None else best.norm - 1
        if p * p > cap:
            factors = sorted((-r % p, 1) for r in _roots_mod(f, p))
        else:
            factors = _factors_mod(f, p)
        image = _pmod_coeffs(a.coords, p)
        for g in factors:
            norm = p ** (len(g) - 1)
            if norm > cap:
                break  # the factors come in degree order
            if _pdivmod(image, g, p)[1]:
                best = IdealDetection(p, g, norm)
                break
    if best is None:
        raise RangeExhaustedError(
            f"no prime ideal of norm <= {limit} detects the element"
        )
    return best
