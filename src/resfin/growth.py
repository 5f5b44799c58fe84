"""Word balls, normal Farb growth tables, candidate sequences, exponent fits.

The growth function F(n) maximizes, over the word ball of radius n, the size
of the smallest congruence quotient detecting the element; F^k does the same
for k-th powers.  Tables carry exact witnesses.  The candidate sequence
E_12(e * alpha^k * lcm(1..k)) probes F along a sparse family whose minimal
detecting modulus is computable purely from valuations, which is what lets
the empirical exponent run to k = 10^6 and recover dim(G).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Iterator

from resfin import arith, matgrp
from resfin.chevalley import GroupSpec
from resfin.matgrp import DEFAULT_BUDGET, BudgetExceededError, Mat, DetectionResult

MATERIALIZE_LIMIT = 64


# ---------------------------------------------------------------------------
# generating sets and word balls


class GeneratingSet(namedtuple("GeneratingSet", "name mats")):
    """A named generating set, closed under inverses."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__

    def __new__(cls, name: str, mats: tuple[Mat, ...]):
        pool = set(mats)
        for m in mats:
            if matgrp.mat_inv(m) not in pool:
                raise ValueError(f"set not closed under inverse at {m}")
        return super().__new__(cls, name, mats)


def sl2_st() -> GeneratingSet:
    """The classical {S, T} generators of SL_2(Z), symmetrized."""
    s = matgrp.mat([[0, -1], [1, 0]])
    t = matgrp.elementary(2, 1, 2, 1)
    return GeneratingSet("S,T", (s, matgrp.mat_inv(s), t, matgrp.mat_inv(t)))


def elementary_set(n: int) -> GeneratingSet:
    """All E_ij(+-1) for SL_n(Z), in GroupSpec(n).elementary_generators order."""
    return GeneratingSet(f"E({n})", tuple(GroupSpec(n).elementary_generators()))


def _spheres(gens: GeneratingSet, n: int, budget: int) -> list[list[tuple[int, ...]]]:
    """The spheres of radii 0..n as lists of row-major flat tuples, each in
    discovery order of one layered BFS."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    ident = tuple(itertools.chain.from_iterable(matgrp.identity(len(gens.mats[0]))))
    products = [_right_multiplier(s) for s in gens.mats]
    seen = {ident}
    spheres = [[ident]]
    for length in range(1, n + 1):
        new = []
        for g in spheres[-1]:
            for mul in products:
                h = mul(g)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
                    if len(seen) > budget:
                        raise BudgetExceededError(
                            f"ball exceeded {budget} elements at radius {length}"
                        )
        spheres.append(new)
    return spheres


@functools.lru_cache(maxsize=None)
def _right_multiplier(s: Mat):
    """g -> g * s on row-major flat tuples, compiled once per generator.

    Entry (r, c) of g * s is the sum of value * g[r, k] over the nonzero
    (k, value) of column c of s, which is g[r, c] itself when column c is an
    identity column.  So an E_ij(+-1) costs n additions and one tuple.
    """
    d = len(s)
    cells = []
    for r in range(0, d * d, d):
        for col in matgrp.sparse_columns(s):
            terms = [
                f"g[{r + k}]" if v == 1 else f"-g[{r + k}]" if v == -1 else f"{int(v)} * g[{r + k}]"
                for k, v in col
            ]
            cells.append(" + ".join(terms) or "0")
    return matgrp.compile_lambda("g", f"({', '.join(cells)},)")


@functools.lru_cache(maxsize=None)
def _product(d: int):
    """(a, b) -> a * b on flat d x d matrices, compiled."""
    cells = [
        " + ".join(f"a[{r + k}] * b[{k * d + c}]" for k in range(d))
        for r in range(0, d * d, d)
        for c in range(d)
    ]
    return matgrp.compile_lambda("a, b", f"({', '.join(cells)},)")


def _flat_power(g: tuple[int, ...], k: int, product) -> tuple[int, ...]:
    """g^k for k >= 1 by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = g if out is None else product(out, g)
        k >>= 1
        if not k:
            return out
        g = product(g, g)


def _nested(g: tuple[int, ...], d: int) -> Mat:
    return tuple(g[r : r + d] for r in range(0, d * d, d))


# ---------------------------------------------------------------------------
# growth tables


# F at radius n; witness and detection are None where F is 0.
GrowthRow = namedtuple("GrowthRow", "n ball_size f_value witness detection")


class GrowthTable(namedtuple("GrowthTable", "gens_name power allow_central rows")):
    """F (or F^k) along word balls, with witnesses; family label F_cong."""

    __slots__ = ()

    @property
    def family(self) -> str:
        return "F_cong_central" if self.allow_central else "F_cong"

    def f(self, n: int) -> int:
        return self.rows[n].f_value


def farb_growth(
    gens: GeneratingSet,
    spec,
    n_max: int,
    k: int = 1,
    allow_central: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> GrowthTable:
    """The table n -> F^k(n) for n <= n_max, maximizing D(gamma^k) over the
    ball and skipping gamma with gamma^k = 1 (all gamma != 1 when k = 1).

    D depends on a target only through its detection key (see
    matgrp.congruence_D): g = detection_gcd, paired with the central gcd h
    under allow_central, both read off the flat tuples by matgrp.gcd_key.
    congruence_D runs once per distinct key, on the first target with that
    key; a ball shares only a handful of keys.

    Witnesses are the first maximizer in (word length, entries) order.  The
    spheres are read directly, with no sort of the ball: a sphere changes
    the maximum only when its largest order beats it, and then the witness
    is the entry-least element of the sphere reaching that order.  Entries
    order is read on the row-major flat tuples: on matrices with rows of
    one length, lexicographic order of the concatenated rows equals the
    nested-tuple order, since the first differing row decides both.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    d = len(gens.mats[0])
    spheres = _spheres(gens, n_max, budget)
    flat_key = matgrp.gcd_key(d, True, False)
    if allow_central:
        # Lemma: det is multiplicative, so when every generator has det 1,
        # so has every target, and the det g - 1 term of the central gcd is 0
        if all(matgrp.det(s) == 1 for s in gens.mats):
            central_key = matgrp.gcd_key(d, True, True)
        else:
            central_key = lambda g: matgrp._central_gcd(_nested(g, d))  # noqa: E731
    product = _product(d)
    # the order rides beside its detection: one field read per key, not per target
    by_key: dict[object, tuple[int, DetectionResult]] = {}

    rows = [GrowthRow(0, 1, 0, None, None)]
    best = 0
    best_witness: Mat | None = None
    best_det: DetectionResult | None = None
    size = 1
    for n in range(1, n_max + 1):
        sphere = spheres[n]
        size += len(sphere)
        top, top_g, top_det = best, None, None
        for g in sphere:
            tg = g if k == 1 else _flat_power(g, k, product)
            key = flat_key(tg)
            if key == 0:
                continue  # gamma^k = 1
            if allow_central:
                key = (key, central_key(tg))
            found = by_key.get(key)
            if found is None:
                det = matgrp.congruence_D(_nested(tg, d), spec, allow_central=allow_central)
                found = by_key[key] = det.quotient_order, det
            order, det = found
            if order > top or (order == top and top_g is not None and g < top_g):
                top, top_g, top_det = order, g, det
        if top_g is not None:
            best, best_witness, best_det = top, _nested(top_g, d), top_det
        rows.append(GrowthRow(n, size, best, best_witness, best_det))
    return GrowthTable(gens.name, k, allow_central, tuple(rows))


# ---------------------------------------------------------------------------
# candidate sequences


class CandidateSeq(namedtuple("CandidateSeq", "spec s_primes e")):
    """The probe family A_k = E_12(e * alpha^k * lcm(1..k)), alpha = prod(S)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__

    def __new__(cls, spec, s_primes: tuple[int, ...] = (), e: int = 1):
        if e < 1:
            raise ValueError("index multiplier must be >= 1")
        seen = set()
        for p in s_primes:
            if not arith.is_prime(p) or p in seen:
                raise ValueError("S must be a set of distinct primes")
            seen.add(p)
        return super().__new__(cls, spec, s_primes, e)

    @property
    def alpha(self) -> int:
        return math.prod(self.s_primes)

    def r(self, k: int) -> int:
        """r_k = alpha^k * lcm(1..k), materialized; k is capped to keep the
        integer at most a few hundred digits."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > MATERIALIZE_LIMIT:
            raise ValueError(
                f"k = {k} exceeds the materialization limit {MATERIALIZE_LIMIT};"
                " use the valuation-based path"
            )
        return self.alpha**k * arith.lcm_upto(k)

    def r_log2(self, k: int) -> float:
        """log2(r_k) from valuations; no huge integers formed.  The primes
        p <= k come from the cached prime-power stream in increasing order,
        so no call sieves."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = k * math.log2(self.alpha)
        for q, p, i in arith.prime_power_stream():
            if q > k:
                break
            if i == 1:
                out += arith.lcm_valuation(k, p) * math.log2(p)
        return out

    def survives(self, k: int, p: int, i: int) -> bool:
        """Is A_k nontrivial mod p**i?  Only if p is not in S, as SL_n(Z[1/S])
        has no congruence quotient mod a power of a unit, and i exceeds the
        valuation of the multiplier."""
        return p not in self.s_primes and i > self.multiplier_valuation(k, p)

    def multiplier_valuation(self, k: int, p: int) -> int:
        """v_p(e * alpha^k * lcm(1..k)) without forming the product."""
        v = arith.lcm_valuation(k, p)
        if p in self.s_primes:
            v += k
        e = self.e
        while e % p == 0:
            v += 1
            e //= p
        return v


def candidate_elements(cs: CandidateSeq, k: int) -> Mat:
    """A_k = E_12(e * r_k) as an exact integer matrix."""
    return matgrp.elementary(cs.spec.n, 1, 2, cs.e * cs.r(k))


def candidate_D_analytic(cs: CandidateSeq, k: int, allow_central: bool = False) -> DetectionResult:
    """Minimal detecting congruence quotient of A_k, via valuations only.

    A prime power q = p^i detects E_12(M) exactly when p^i does not divide
    M = e * alpha^k * lcm(1..k); divisibility is read off multiplier_valuation
    (cs.survives), so k can be far beyond what candidate_elements can
    materialize.  The search is a fresh matgrp.QuotientSearch, as in
    congruence_D; the two agree exactly on the materializable range (a test
    pins this for k <= 40).  The primes of S are units in Z[1/S], so
    SL_n(Z[1/S]) has no congruence quotient mod a power of one: they never
    detect.  Every q <= k divides lcm(1..k) and so kills A_k: the search
    starts above k.  A nontrivial elementary image is never scalar, so with
    allow_central the central quotient always sees it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    search = matgrp.QuotientSearch(cs.spec, allow_central, above=k)
    return search.least(lambda q, p, i: cs.survives(k, p, i))


def candidate_sweep(
    cs: CandidateSeq, lo: int, hi: int, allow_central: bool = False
) -> Iterator[tuple[int, float, DetectionResult]]:
    """(k, cs.r_log2(k), candidate_D_analytic(cs, k, allow_central)) for
    k = lo..hi in one pass over the prime-power stream, equal to the per-k
    calls (the floats bit for bit).

    Lemma: lcm(1..k) = p * lcm(1..k-1) when k = p^i and equals lcm(1..k-1)
    otherwise.  So the terms v_p(lcm(1..k)) * log2(p) of r_log2 change only
    at k = p^i, in p's term alone.  A new prime's term comes last in the
    left-to-right sum of r_log2, so it is added to a running total; any
    other change (k = p^i with i > 1, k = lo, every k when S is nonempty)
    sums the terms again in increasing p from k * log2(alpha).  The terms
    at k = lo are read off the prime powers q <= lo, so the sweep starts
    at lo.

    Survival never returns as k grows, since multiplier_valuation(k, p)
    never falls, and it changes only at prime powers k.  So one
    matgrp.QuotientSearch serves the whole range, asked again only at prime
    powers k; its stream and its heap of survivors carry over from one k to
    the next.  It starts above lo: every q <= k divides lcm(1..k), so none
    survives.
    """
    if lo < 1:
        raise ValueError("k must be >= 1")
    with_s = bool(cs.s_primes)
    log_alpha = math.log2(cs.alpha)
    terms: dict[int, float] = {}  # p -> v_p(lcm(1..k)) * log2(p), increasing p
    lcm_powers = arith.prime_power_stream()
    for q, p, i in lcm_powers:  # the terms at k = lo, up to the first q > lo
        if q > lo:
            break
        terms[p] = i * math.log2(p)
    total = 0.0  # r_log2(k), summed afresh at k = lo
    search = matgrp.QuotientSearch(cs.spec, allow_central, above=lo)
    det = None
    for k in range(lo, hi + 1):
        resum = with_s or k == lo
        if k == q:
            terms[p] = i * math.log2(p)
            total += terms[p]  # exact when p is new, else summed again below
            resum = resum or i > 1
            det = None
            q, p, i = next(lcm_powers)
        if resum:
            total = k * log_alpha
            for term in terms.values():
                total += term
        if det is None:
            det = search.least(lambda _, p_, i_: cs.survives(k, p_, i_))
        yield k, total, det


# ---------------------------------------------------------------------------
# exponent fitting


FitResult = namedtuple("FitResult", "slope intercept max_residual")


def fit_exponent(pairs) -> FitResult:
    """Log-log least squares: slope is the empirical growth exponent.

    max_residual is the largest relative deviation |y / y_fit - 1| over the
    input points.  The sums are math.fsum's correctly rounded ones, in the
    formulas of Python 3.11's statistics.linear_regression, without
    importing statistics (and with it fractions and decimal) into every
    process that imports resfin.  math.log takes ints of any size, so no
    point goes through float(): orders past 2**1024 fit as well.
    """
    pts = list(pairs)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("points must be positive for a log-log fit")
    xs = [math.log(x) for x, _ in pts]
    ys = [math.log(y) for _, y in pts]
    if max(xs) == min(xs):
        raise ValueError("degenerate fit: all x equal")
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = math.fsum((x - xbar) * (x - xbar) for x in xs)
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    max_resid = max(abs(math.exp(y - (slope * x + intercept)) - 1) for x, y in zip(xs, ys))
    return FitResult(slope, intercept, max_resid)


# ---------------------------------------------------------------------------
# short unipotent words


def short_unipotent_word(spec, z: int, i: int = 1, j: int = 3) -> list[tuple[int, int, int]]:
    """A word in the E_ab(+-1) generators multiplying to exactly E_ij(z), of
    length l(z) <= C ln|z| + C' with C = 5 / ln(phi) < 10.4 and C' = 11.
    Its letters are (a, b, c), each standing for E_ab(c) with c = +-1.

    Lemma.  Let l be the spare index and B = E_jl(1) E_lj(1).  The products
    E(a, b) = E_ij(a) E_il(b) form an abelian group U = Z^2, and B acts on
    the columns (j, l) as A = [[2, 1], [1, 1]], so B^-1 E(v) B = E(vA).  A
    has char. polynomial x^2 - 3x + 1, the minimal polynomial of
    lam = phi^2, so iota(x) = e_1 x(A) is a Z[phi]-module isomorphism
    Z[lam] = Z[phi] -> Z^2 (the basis 1, lam goes to (1, 0), (2, 1)), with
    iota(m) = (m, 0).  Hence m = sum c_t lam^t over t in [-S, T] gives, by
    Horner,
        E_ij(m) = prod_t B^-t E_ij(c_t) B^t
                = B^S E_ij(c_-S) B^-1 E_ij(c_1-S) B^-1 ... E_ij(c_T) B^T.

    Digits.  Bergman's greedy base-phi expansion m = sum d_k phi^k, with
    digits 0 or 1, no two adjacent, is finite for an integer m >= 1.  It
    runs exactly in Z[phi] (see _golden_digits), from K = floor(log_phi m)
    down to some -L.  Regrouped through phi^(2t+1) = lam^(t+1) - lam^t, the
    digit c_t = d_2t + d_(2t-1) - d_(2t+1) lies in {-1, 0, 1}, with
    T = ceil(K / 2) and S = ceil(L / 2).

    Length.  l(m) = 4(S + T) + sum |c_t| <= 5(S + T) + 1.  Conjugation
    phi -> -1/phi fixes m; under it the digits k >= 0 sum to a number in
    (-1, phi), and the digits k < 0 to one of size above
    phi^L - phi^(L-1) = phi^(L-2), as no two are adjacent.  So
    phi^(L-2) < m + 1 < phi^(K+2), L <= K + 3, S + T <= K + 2 and
    l(m) <= 5K + 11 <= C ln m + C'.  Near |z| = 10^18 the length is 9.2 to
    10.1 ln|z| (about 400 letters).  |z| <= 3 is a plain repeat, and z < 0
    negates every digit.  Needs rank >= 2 for the spare index, so n = 2 is
    rejected.
    """
    n = spec.n
    if n < 3:
        raise ValueError("word synthesis needs n >= 3 (a spare index)")
    if z == 0:
        raise ValueError("z must be nonzero")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need distinct in-range target indices")
    letter = {1: [(i, j, 1)], 0: [], -1: [(i, j, -1)]}
    sign = 1 if z > 0 else -1
    if abs(z) <= 3:
        return letter[sign] * abs(z)
    l = _spare_index(n, i, j)
    b = [(j, l, 1), (l, j, 1)]
    b_inv = _invert_word(b)
    digits = _golden_digits(abs(z))
    bottom, top = min(digits), max(digits)
    word = b * -bottom + letter[sign * digits[bottom]]
    for t in range(bottom + 1, top + 1):
        word += b_inv + letter[sign * digits.get(t, 0)]
    return word + b * top


def _spare_index(n: int, i: int, j: int) -> int:
    return next(l for l in range(1, n + 1) if l != i and l != j)


def _invert_word(word: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    return [(a, b, -c) for a, b, c in reversed(word)]


def _golden_digits(m: int) -> dict[int, int]:
    """{t: c_t} with m = sum c_t phi^(2t) and every c_t in {-1, 0, 1}, for
    m >= 1: Bergman's greedy base-phi digits, regrouped to base phi^2.

    phi^k is carried as the pair (a, b) = a + b phi.  The climb goes up by
    phi^(k+1) = phi^k + phi^(k-1) and the greedy steps down by
    phi^(k-1) = phi^(k+1) - phi^k, so every number stays exact in Z[phi].
    Taking phi^k <= x < phi^(k+1) leaves x - phi^k < phi^(k-1), so the next
    digit is at most k - 2: no two digits are adjacent.
    """
    k, cur, nxt = 0, (1, 0), (0, 1)  # phi^k, phi^(k+1)
    while _nonnegative(m - nxt[0], -nxt[1]):
        k, cur, nxt = k + 1, nxt, (cur[0] + nxt[0], cur[1] + nxt[1])
    digits: dict[int, int] = {}
    x = (m, 0)
    while x != (0, 0):
        if _nonnegative(x[0] - cur[0], x[1] - cur[1]):
            x = (x[0] - cur[0], x[1] - cur[1])
            t, odd = divmod(k, 2)
            digits[t + odd] = digits.get(t + odd, 0) + 1
            if odd:  # phi^(2t+1) = lam^(t+1) - lam^t
                digits[t] = digits.get(t, 0) - 1
        k, cur, nxt = k - 1, (nxt[0] - cur[0], nxt[1] - cur[1]), cur
    return digits


def _nonnegative(a: int, b: int) -> bool:
    """a + b phi >= 0, by integers: 2(a + b phi) = p + b sqrt(5), p = 2a + b."""
    p = 2 * a + b
    if p >= 0 and b >= 0:
        return True
    if p <= 0 and b <= 0:
        return False
    return (p > 0) == (p * p > 5 * b * b)


def evaluate_word(n: int, word: list[tuple[int, int, int]]) -> Mat:
    """Multiply a word out exactly.  A letter is a tuple (i, j, c) with (i, j)
    in GroupSpec(n).roots and c = +-1, standing for E_ij(c); it acts on the
    right as the column operation column j += c * column i, in place.  Any
    other letter is a ValueError naming it."""
    letters = {(i, j, c) for i, j in GroupSpec(n).roots for c in (1, -1)}
    out = [[0, *row] for row in matgrp.identity(n)]  # column 0 pads, so indices stay 1-based
    for letter in word:
        if type(letter) is not tuple or letter not in letters:
            raise ValueError(f"bad letter {letter!r}: not (i, j, +-1) with i != j in 1..{n}")
        i, j, c = letter
        for row in out:
            row[j] += c * row[i]
    return tuple(tuple(row[1:]) for row in out)
