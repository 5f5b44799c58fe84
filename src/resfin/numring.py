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

Each scan computes only what can decide its answer, from memos per min_poly
keyed by p and filled only at the primes some scan asked about.  Both scans
first skip the primes dividing the content of the element (the gcd of its
coordinates), where it dies in every residue field.  detect_split and
split_primes then skip the odd p at which disc(f) is not a square (sign
test), split f into roots only where x^p = x mod f (fixed-point test), and
keep the verdict in the split memo: the roots where p splits, () elsewhere.
min_detecting_ideal reads the full factorization only while p^2 is within
its norm cap; above that only linear factors can count, and it reads the
roots of f mod p (one gcd with x^p - x, then Cantor-Zassenhaus).  The
irreducibility test factors f once, at one prime above the Landau-Mignotte
bound (see _is_irreducible), and writes no memo.  Since every scan shares
the memos, the referee is the oracle in tests/test_numring.py, which finds
roots by evaluating f at every residue, factors by trial division and
redoes each scan per call.

Factoring mod p has no radical step.  The distinct-degree loop takes f mod
p with its repeated factors: x^(p^g) - x is squarefree, so its gcd with what
is left of f holds each degree-g factor once, and dividing by it until the
gcd is 1 strips them with their multiplicities (the lemma is in
_distinct_degree).

Every power in F_p[x]/(m) (x^p mod f, the distinct-degree powers, and the
Cantor-Zassenhaus r^((p^g - 1)/2) mod h) runs in
straight-line code compiled once per degree of m, with p and the low
coefficients of m as arguments, so one kernel serves every prime and every
monic modulus of that degree.  The interpreted square and multiply it
replaced is the oracle in the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from collections import namedtuple

from resfin import arith
from resfin.matgrp import BudgetExceededError, Record, UndetectableError, det

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
    return _ptrim((x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0))


def _pmul(a, b, p):
    return _pmod_coeffs(_zmul(a, b), p)


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
    """base**e modulo mod over F_p, trimmed; mod must be monic of degree >= 1.

    The powers run in the straight-line kernels of _powmod_kernels, one pair
    per degree, with x^n = low(x) mod mod and p passed at run time."""
    if not e:
        return (1,)
    n = len(mod) - 1
    low = [-c % p for c in mod[:n]]
    x_power, power = _powmod_kernels(n)
    if base == (0, 1):
        out = x_power(e, low, p)
    else:
        base = _pdivmod(base, mod, p)[1]
        if not base:
            return ()
        out = power([c % p for c in base] + [0] * (n - len(base)), e, low, p)
    return out if out[-1] else _ptrim(out)


@functools.lru_cache(maxsize=None)
def _powmod_kernels(n: int):
    """(x_power, power) for monic moduli of degree n: x_power(e, low, p) is
    x^e and power(b, e, low, p) is b^e for a reduced base b of length n,
    both modulo x^n - low(x) over F_p, for e >= 1, as untrimmed n-tuples.

    Left-to-right square and multiply, with every loop over coefficients
    unrolled into code text built from integer indices only.  A square
    takes the n(n+1)/2 products c_i c_j with i <= j.  A product's
    coefficients t_k of x^k, k = 2n-2 down to n, fold down from the top
    through x^k = x^(k-n) low(x), one % p each, then the n kept
    coefficients take one % p each.  Multiplying by x is a shift plus one
    fold of the top coefficient."""
    def names(letter):
        return ", ".join(f"{letter}{i}" for i in range(n))

    def assign(exprs):
        return f"({names('c')},) = ({', '.join(exprs)},)"

    def reduced(terms):
        # terms[k] is the text of the product's coefficient of x^k
        top = len(terms) - 1

        def folded(k):
            return " + ".join([terms[k]] + [
                f"t{j} * l{k - j + n}" for j in range(max(k + 1, n), min(top, k + n) + 1)
            ])

        lines = [f"t{k} = ({folded(k)}) % p" for k in range(top, n - 1, -1)]
        return lines + [assign(f"({folded(k)}) % p" for k in range(n))]

    def square(k):
        pairs = [f"c{i} * c{k - i}" for i in range(max(0, k - n + 1), (k + 1) // 2)]
        half = [f"c{k // 2} * c{k // 2}"] if k % 2 == 0 else []
        return " + ".join(([f"2 * ({' + '.join(pairs)})"] if pairs else []) + half)

    def product(k):
        return " + ".join(f"c{i} * b{k - i}" for i in range(max(0, k - n + 1), min(k, n - 1) + 1))

    squared = reduced([square(k) for k in range(2 * n - 1)])
    multiplied = reduced([product(k) for k in range(2 * n - 1)])
    shifted = [assign(
        f"(c{i - 1} + c{n - 1} * l{i}) % p" if i else f"c{n - 1} * l0 % p" for i in range(n)
    )]
    x_init = "l0" if n == 1 else ", ".join(["0", "1"] + ["0"] * (n - 2))

    def kernel(head, start, multiply):
        body = [f"({names('l')},) = low", *head, f"({names('c')},) = ({start},)",
                "for bit in bin(e)[3:]:", *(f"    {s}" for s in squared),
                '    if bit == "1":', *(f"        {s}" for s in multiply),
                f"return ({names('c')},)"]
        return "\n    ".join(body)

    bs = names("b")
    namespace: dict = {}
    exec(  # the text holds integer indices and fixed names only
        f"def x_power(e, low, p):\n    {kernel([], x_init, shifted)}\n"
        f"def power(b, e, low, p):\n    {kernel([f'({bs},) = b'], bs, multiplied)}\n",
        namespace,
    )
    return namespace["x_power"], namespace["power"]


def _poly_at(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


# ---------------------------------------------------------------------------
# integer polynomials (for reduction mod monic f and exact division tests)


def format_poly(coeffs) -> str:
    """Low-to-high integer coefficients as text in x, highest term first:
    (1, -2, 1) prints as x^2-2x+1, and () as 0."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        if c := coeffs[i]:
            var = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            terms.append((f"{c:+d}"[0] if var and abs(c) == 1 else f"{c:+d}") + var)
    return "".join(terms).lstrip("+") or "0"


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
    res = det(rows)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res


# ---------------------------------------------------------------------------
# factorization mod p: distinct-degree, equal-degree


def _distinct_degree(h, p):
    """[(g, product of the distinct irreducible factors of degree g)] for
    monic h, repeated factors allowed.

    x^(p^g) - x is squarefree, so part = gcd(h, x^(p^g) - x) holds every
    factor of degree dividing g exactly once; the smaller degrees are gone
    already, so those are the degree-g factors.  Dividing h by gcd(h, part)
    until that gcd is 1 strips them with their multiplicities, so every
    factor left in h has degree > g.  Hence 2g > deg h still means h is
    irreducible: two factors of degree >= g would give deg h >= 2g."""
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
            while len(common := _pgcd(h, part, p)) > 1:
                h = _pdivmod(h, common, p)[0]
            w = _pdivmod(w, h, p)[1]
    return out


def _split_equal_degree(h, g, p):
    """Irreducible factors of squarefree h, all known to have degree g.

    Trial division for p = 2; Cantor-Zassenhaus equal-degree splitting for
    odd p (von zur Gathen and Gerhard, Modern Computer Algebra, 14.3): for
    random r, gcd(r^((p^g - 1)/2) - 1, h) is a proper factor with
    probability about 1/2.  The seeded generator keeps runs deterministic,
    and the factor set is unique whatever r splits it.  An h that breaks
    the precondition raises ArithmeticError instead of looping or returning
    copies: the distinct factors found must make up the degree of h, which
    fails at p = 2 when the trial quotients do not use h up, at odd p after
    100 draws, and at either when h has a repeated factor."""
    deg = len(h) - 1
    if deg == g:
        return [h]
    out = []
    if p == 2:
        rest = h
        for cand in (low + (1,) for low in itertools.product(range(p), repeat=g)):
            if len(rest) - 1 == g:
                out.append(rest)
                break
            quo, rem = _pdivmod(rest, cand, p)
            if not rem:
                out.append(cand)
                rest = quo
    else:
        rng = random.Random(p * 1009 + g)
        e = (p**g - 1) // 2
        for _ in range(100):
            r = _ptrim([rng.randrange(p) for _ in range(deg)])
            if len(r) < 2:
                continue
            w = _psub(_ppowmod(r, e, h, p), (1,), p)
            d = _pgcd(w, h, p)
            if 0 < len(d) - 1 < deg:
                out = _split_equal_degree(d, g, p) + _split_equal_degree(_pdivmod(h, d, p)[0], g, p)
                break
    if sum(len(c) - 1 for c in set(out)) == deg:
        return out
    raise ArithmeticError(f"{h} mod {p} is not a product of distinct degree-{g} factors")


def factor_distinct_mod(f, p) -> list[tuple]:
    """The distinct monic irreducible factors of f mod p, sorted."""
    fbar = _pmonic(_pmod_coeffs(f, p), p)
    if len(fbar) <= 1:
        return []
    out = []
    for g, part in _distinct_degree(fbar, p):
        out.extend(_split_equal_degree(part, g, p))
    return sorted(out, key=lambda c: (len(c), c))


# Memos per min_poly, keyed by p and filled only at the primes some scan
# asked about: the factors of f mod p, its roots, the split memo (the roots
# if p splits completely, else ()) and x^p mod f, which the last two share.
_FACTORS: dict[tuple, dict[int, list[tuple]]] = {}
_ROOTS: dict[tuple, dict[int, tuple[int, ...]]] = {}
_SPLIT: dict[tuple, dict[int, tuple[int, ...]]] = {}
_FROBENIUS: dict[tuple, dict[int, tuple[int, ...]]] = {}


def _factors_mod(f: tuple, p: int) -> list[tuple]:
    """factor_distinct_mod(f, p), computed once per (f, p)."""
    table = _FACTORS.setdefault(f, {})
    if p not in table:
        table[p] = factor_distinct_mod(f, p)
    return table[p]


def _frobenius(f: tuple, p: int) -> tuple[int, ...]:
    """x^p mod (f, p), computed once per (f, p)."""
    table = _FROBENIUS.setdefault(f, {})
    if p not in table:
        table[p] = _ppowmod((0, 1), p, _pmod_coeffs(f, p), p)
    return table[p]


def _roots_mod(f: tuple, p: int) -> tuple[int, ...]:
    """The distinct roots of the monic f mod p, sorted, computed once per (f, p).

    Roots from Frobenius: over F_p, x^p - x is the product of x - t over all
    t in F_p, so gcd(f mod p, x^p - x) is the product of the distinct linear
    factors of f mod p.  One power x^p mod f and one gcd give it, and
    Cantor-Zassenhaus splits it only when it has degree 2 or more."""
    table = _ROOTS.setdefault(f, {})
    roots = table.get(p)
    if roots is None:
        fbar = _pmod_coeffs(f, p)
        frob = _psub(_frobenius(f, p), (0, 1), p)
        lin = _pgcd(fbar, frob, p)
        factors = _split_equal_degree(lin, 1, p) if len(lin) > 1 else []
        roots = table[p] = tuple(sorted(-g[0] % p for g in factors))
    return roots


def _split_roots(f: tuple, p: int) -> tuple[int, ...]:
    """The deg(f) sorted roots of f mod p if p splits completely, else ().

    Fixed points: for p not dividing disc(f), f mod p is squarefree, so it
    splits into distinct linear factors exactly when it divides x^p - x, that
    is when x^p = x mod f (x reduced mod f: 0 for f = x).  Only then does
    _roots_mod run, and its gcd with x^p - x = 0 is f itself."""
    if _frobenius(f, p) != _pdivmod((0, 1), _pmod_coeffs(f, p), p)[1]:
        return ()
    return _roots_mod(f, p)


def _split_rows(ring, limit: int, skip: int = 1):
    """(p, sorted roots of f mod p) for the completely split p <= limit not
    dividing disc(f), the inverted integer or skip.  A limit above the sieve
    cap raises at once.  Sign test (Stickelberger; Swan, Pacific J. Math. 12,
    1962): for odd p not dividing D = disc(f), (D/p) = (-1)^(d - r), where r
    is the number of irreducible factors of f mod p, and a split p has r = d;
    so one pow skips every odd p with (D/p) = -1 that the split memo does not
    hold, and such p never enter it."""
    disc = ring.discriminant()
    bad = abs(disc) * ring.inverted * skip
    table = _SPLIT.setdefault(ring.min_poly, {})
    primes = arith.primes(limit)
    if bad >= arith.WORD:  # one remainder per block; no p left divides bad
        primes, bad = arith.nondivisors(bad, primes), 1
    for p in primes:
        if bad % p:
            roots = table.get(p)
            if roots is None:
                if p != 2 and pow(disc, (p - 1) // 2, p) != 1:
                    continue
                roots = table[p] = _split_roots(ring.min_poly, p)
            if roots:
                yield p, roots


# ---------------------------------------------------------------------------
# irreducibility over Q (monic integer polynomials)


@functools.lru_cache(maxsize=None)
def _is_irreducible(f: tuple) -> bool:
    """Is the monic integer polynomial f irreducible over Q?

    Zassenhaus at one prime, with no lifting.  A reducible f of degree d
    has a monic factor g over Z with deg g <= d/2, and Landau-Mignotte
    bounds its coefficients by |g_i| <= C(deg g, i) |f|_2 < B =
    2^(d//2) (isqrt(sum c^2) + 1).  Take the first prime P >= 2B + 1 not
    dividing disc(f): f mod P is squarefree, so g mod P is the product of
    a proper subset of the distinct factors of f mod P, and g is that
    product with its coefficients lifted to (-P/2, P/2].  Hence f is
    reducible exactly when some such product of degree <= d/2 divides f
    over Z.  Its lifted constant term is g(0), which divides f(0), so a
    subset whose lifted constant product does not is skipped unbuilt.
    disc(f) = 0 means a repeated factor."""
    d = len(f) - 1
    if d == 1:
        return True  # with no prime search, however large f(0)
    disc = _discriminant(f)
    if disc == 0:
        return False
    p = 2 * 2 ** (d // 2) * (math.isqrt(sum(c * c for c in f)) + 1) + 1  # 2B + 1
    try:
        while disc % p == 0 or not arith.is_prime(p):
            p += 1
    except arith.PrimalityRangeError:
        raise ValueError(
            f"min_poly coefficients {','.join(map(str, f))} are too large to test for irreducibility"
        ) from None
    factors = factor_distinct_mod(f, p)
    for mask in range(1, 2 ** len(factors) - 1):
        chosen = [g for i, g in enumerate(factors) if mask >> i & 1]
        c0 = math.prod(g[0] for g in chosen) % p
        c0 -= p if 2 * c0 > p else 0
        if sum(len(g) - 1 for g in chosen) <= d // 2 and not (f[0] % c0 if c0 else f[0]):
            g = functools.reduce(lambda a, b: _pmul(a, b, p), chosen)
            if not _zdivmod_monic(f, tuple(c - p if 2 * c > p else c for c in g))[1]:
                return False
    return True


# ---------------------------------------------------------------------------
# rings and elements


class NumberRing(namedtuple("NumberRing", "min_poly inverted")):
    """Z[x]/(min_poly), localized at the positive integer `inverted`.

    min_poly is monic and irreducible over Q (enforced here), stored low
    degree first; elements carry coordinates over the power basis.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__

    def __new__(cls, min_poly, inverted: int = 1):
        f = tuple(int(c) for c in min_poly)
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("min_poly must be monic of degree >= 1")
        if inverted < 1:
            raise ValueError("inverted integer must be >= 1")
        if not _is_irreducible(f):
            raise ValueError("min_poly is reducible over the rationals")
        return super().__new__(cls, f, inverted)

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    @property
    def name(self) -> str:
        base = f"Z[x]/({format_poly(self.min_poly)})"
        return base if self.inverted == 1 else f"{base}[1/{self.inverted}]"

    def element(self, coords, denom_exp: int = 0) -> RingElement:
        coords = tuple(int(c) for c in coords)
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


class RingElement(Record):
    """coords over the power basis, divided by ring.inverted ** denom_exp."""

    __slots__ = ("ring", "coords", "denom_exp")

    def __init__(self, ring: NumberRing, coords: tuple[int, ...], denom_exp: int = 0):
        if len(coords) != ring.degree:
            raise ValueError(f"need {ring.degree} coordinates, got {len(coords)}")
        if denom_exp < 0:
            raise ValueError("denominator exponent must be >= 0")
        if denom_exp > 0 and all(c % ring.inverted == 0 for c in coords):
            raise ValueError("representation not normalized (use ring.element)")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "denom_exp", denom_exp)

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
    if _poly_at(ring.min_poly, root, p) != 0:
        raise ValueError(f"{root} is not a root of the minimal polynomial mod {p}")
    value = _poly_at(a.coords, root, p)
    if a.denom_exp:
        value = value * pow(pow(ring.inverted, a.denom_exp, p), -1, p) % p
    return value


SplitDetection = namedtuple("SplitDetection", "prime root residue")


def detect_split(a: RingElement, limit: int = DEFAULT_PRIME_LIMIT) -> SplitDetection:
    """Smallest split prime whose residue map keeps a nonzero.

    Returns the smallest qualifying root as the witness.  The detecting
    quotient is the field F_p, so the reported size is just p.

    Content: let c be the gcd of the coordinates of a.  A prime p dividing c
    but not the inverted integer sends a to 0 in every residue field over
    p, so such p are skipped before any root is computed.
    """
    if a.is_zero():
        raise UndetectableError("zero is undetectable")
    for p, roots in _split_rows(a.ring, limit, math.gcd(*a.coords)):
        for root in roots:
            # reduce_element without its checks: p is a sieve prime and root
            # a memoized root.  _split_rows skips every p dividing the
            # inverted integer, so the unit inverted^-denom_exp cannot make a
            # residue 0; it scales only the residue returned.
            residue = _poly_at(a.coords, root, p)
            if residue:
                if a.denom_exp:
                    residue = residue * pow(pow(a.ring.inverted, a.denom_exp, p), -1, p) % p
                return SplitDetection(p, root, residue)
    raise BudgetExceededError(
        f"no split prime <= {limit} detects the element; raise the limit"
    )


IdealDetection = namedtuple("IdealDetection", "prime factor norm")


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
        raise UndetectableError("zero is undetectable")
    f = a.ring.min_poly
    skip = a.ring.inverted * math.gcd(*a.coords)
    best: IdealDetection | None = None
    primes = arith.primes(limit)
    if skip >= arith.WORD:  # one remainder per block; no p left divides skip
        primes, skip = arith.nondivisors(skip, primes), 1
    for p in primes:
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
        raise BudgetExceededError(
            f"no prime ideal of norm <= {limit} detects the element"
        )
    return best
