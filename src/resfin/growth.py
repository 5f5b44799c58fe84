"""Word balls, normal Farb growth tables, candidate sequences, exponent fits.

The growth function F(n) maximizes, over the word ball of radius n, the size
of the smallest congruence quotient detecting the element; F^k does the same
for k-th powers.  Tables carry exact witnesses.  The candidate sequence
E_12(e * alpha^k * lcm(1..k)) probes F along a sparse family whose minimal
detecting modulus is computable purely from valuations, which is what lets
the empirical exponent run to k in the thousands and recover dim(G).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from resfin import arith, matgrp
from resfin.chevalley import BudgetExceededError
from resfin.matgrp import Mat, DetectionResult

DEFAULT_BALL_BUDGET = 10**6
MATERIALIZE_LIMIT = 64


# ---------------------------------------------------------------------------
# generating sets and word balls


@dataclass(frozen=True)
class GeneratingSet:
    """A symmetrized generating set with printable labels."""

    name: str
    labels: tuple[str, ...]
    mats: tuple[Mat, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.mats):
            raise ValueError("labels and matrices must align")
        pool = set(self.mats)
        for m in self.mats:
            if matgrp.mat_inv(m) not in pool:
                raise ValueError(f"set not closed under inverse at {m}")

    def __iter__(self):
        return iter(zip(self.labels, self.mats))


def sl2_st() -> GeneratingSet:
    """The classical {S, T} generators of SL_2(Z), symmetrized."""
    s = matgrp.mat([[0, -1], [1, 0]])
    t = matgrp.elementary(2, 1, 2, 1)
    return GeneratingSet(
        "S,T",
        ("S", "S^-1", "T", "T^-1"),
        (s, matgrp.mat_inv(s), t, matgrp.mat_inv(t)),
    )


def elementary_set(n: int) -> GeneratingSet:
    """All E_ij(+-1) for SL_n(Z)."""
    labels = []
    mats = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            labels.append(f"E{i}{j}")
            mats.append(matgrp.elementary(n, i, j, 1))
            labels.append(f"E{i}{j}^-1")
            mats.append(matgrp.elementary(n, i, j, -1))
    return GeneratingSet(f"E({n})", tuple(labels), tuple(mats))


def word_ball(gens: GeneratingSet, n: int, budget: int = DEFAULT_BALL_BUDGET) -> dict[Mat, int]:
    """Exact ball of radius n: element -> true word length, by layered BFS."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    ident = matgrp.identity(len(gens.mats[0]))
    columns = [matgrp.sparse_columns(s) for s in gens.mats]
    ball = {ident: 0}
    frontier = [ident]
    for length in range(1, n + 1):
        new = []
        for g in frontier:
            for cols in columns:
                h = _mul_sparse(g, cols)
                if h not in ball:
                    ball[h] = length
                    new.append(h)
                    if len(ball) > budget:
                        raise BudgetExceededError(
                            f"ball exceeded {budget} elements at radius {length}"
                        )
        frontier = new
    return ball


def _mul_sparse(g: Mat, columns) -> Mat:
    """g * s by column operations: column c of the product is the sum of
    value * (column r of g) over the nonzero pattern of column c of s."""
    out = []
    for row in g:
        new = []
        for col in columns:
            x = 0
            for r, v in col:
                x += row[r] * v
            new.append(x)
        out.append(tuple(new))
    return tuple(out)


# ---------------------------------------------------------------------------
# growth tables


@dataclass(frozen=True)
class GrowthRow:
    n: int
    ball_size: int
    f_value: int
    witness: Mat | None
    detection: DetectionResult | None


@dataclass(frozen=True)
class GrowthTable:
    """F (or F^k) along word balls, with witnesses; family label F_cong."""

    gens_name: str
    power: int
    allow_central: bool
    rows: tuple[GrowthRow, ...]

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
    budget: int = DEFAULT_BALL_BUDGET,
    workers: int = 1,
    parallel_threshold: int = 512,
) -> GrowthTable:
    """The table n -> F^k(n) for n <= n_max, maximizing D(gamma^k) over the
    ball and skipping gamma with gamma^k = 1 (all gamma != 1 when k = 1).

    D depends on a target only through its detection key (see
    matgrp.congruence_D): g = detection_gcd, paired with the central gcd h
    under allow_central.  congruence_D runs once per distinct key, on the
    first target with that key; a ball shares only a handful of keys.

    Witnesses are the first maximizer in (word length, entries) order.
    `workers` and `parallel_threshold` are accepted and ignored: growth
    tables run serially.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    ball = word_ball(gens, n_max, budget=budget)
    ordered = sorted(ball.items(), key=lambda kv: (kv[1], kv[0]))
    by_key: dict[object, DetectionResult] = {}

    rows = [GrowthRow(0, 1, 0, None, None)]
    best = 0
    best_witness: Mat | None = None
    best_det: DetectionResult | None = None
    idx = 0
    for n in range(1, n_max + 1):
        while idx < len(ordered) and ordered[idx][1] <= n:
            g = ordered[idx][0]
            idx += 1
            tg = g if k == 1 else matgrp.mat_pow(g, k)
            key = matgrp.detection_gcd(tg)
            if key == 0:
                continue  # gamma^k = 1
            if allow_central:
                key = (key, matgrp._central_gcd(tg))
            det = by_key.get(key)
            if det is None:
                det = by_key[key] = matgrp.congruence_D(tg, spec, allow_central=allow_central)
            if det.quotient_order > best:
                best = det.quotient_order
                best_witness = g
                best_det = det
        rows.append(GrowthRow(n, idx, best, best_witness, best_det))  # idx = |ball(n)|
    return GrowthTable(gens.name, k, allow_central, tuple(rows))


# ---------------------------------------------------------------------------
# candidate sequences


@dataclass(frozen=True)
class CandidateSeq:
    """The probe family A_k = E_12(e * alpha^k * lcm(1..k)), alpha = prod(S)."""

    spec: object
    s_primes: tuple[int, ...] = ()
    e: int = 1

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("index multiplier must be >= 1")
        seen = set()
        for p in self.s_primes:
            if not arith.is_prime(p) or p in seen:
                raise ValueError("S must be a set of distinct primes")
            seen.add(p)

    @property
    def alpha(self) -> int:
        return math.prod(self.s_primes) if self.s_primes else 1

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
        return self.alpha**k * math.lcm(*range(1, k + 1))

    def r_log2(self, k: int) -> float:
        """log2(r_k) from valuations; no huge integers formed.  The primes
        p <= k come from the cached prime-power stream in increasing order,
        so no call sieves."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = k * (math.log2(self.alpha) if self.s_primes else 0.0)
        for q, p, i in arith.prime_power_stream():
            if q > k:
                break
            if i == 1:
                out += arith.lcm_valuation(k, p) * math.log2(p)
        return out

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
    M = e * alpha^k * lcm(1..k); divisibility is read off multiplier_valuation,
    so k can be far beyond what candidate_elements can materialize.  The
    search and stop rule are matgrp.min_congruence_quotient, shared with
    congruence_D; the two agree exactly on the materializable range (a test
    pins this for k <= 40).  The primes of S are units in Z[1/S], so
    SL_n(Z[1/S]) has no congruence quotient mod a power of one: they never
    detect.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # a nontrivial elementary image is never scalar, so with allow_central
    # the central quotient always sees it
    return matgrp.min_congruence_quotient(
        cs.spec,
        lambda q, p, i: p not in cs.s_primes and i > cs.multiplier_valuation(k, p),
        allow_central,
    )


# ---------------------------------------------------------------------------
# exponent fitting


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_residual: float


def fit_exponent(pairs) -> FitResult:
    """Log-log least squares: slope is the empirical growth exponent.

    max_residual is the largest relative deviation |y / y_fit - 1| over the
    input points.
    """
    pts = [(float(x), float(y)) for x, y in pairs]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("points must be positive for a log-log fit")
    xs = [math.log(x) for x, _ in pts]
    ys = [math.log(y) for _, y in pts]
    if max(xs) == min(xs):
        raise ValueError("degenerate fit: all x equal")
    slope, intercept = statistics.linear_regression(xs, ys)
    max_resid = max(abs(math.exp(y - (slope * x + intercept)) - 1) for x, y in zip(xs, ys))
    return FitResult(slope, intercept, max_resid)


# ---------------------------------------------------------------------------
# short unipotent words


def short_unipotent_word(spec, z: int, i: int = 1, j: int = 3) -> list[str]:
    """A word in the E_ab(+-1) generators multiplying to exactly E_ij(z).

    Built from the commutator identity [E_il(a), E_lj(b)] = E_ij(ab) with
    balanced splits: powers of two split in half, composites split at the
    largest divisor <= sqrt when that beats the binary (Horner) fallback,
    and everything else goes binary.  Taking the divisor split gated on an
    actual length comparison keeps z = 2 * (large prime) from doubling the
    word at every such level, so length stays O((1 + log2 |z|)^2); callers
    measure the constant.  Needs rank >= 2 for the third index, so n = 2 is
    rejected.
    """
    n = spec.n
    if n < 3:
        raise ValueError("word synthesis needs n >= 3 (a spare index for commutators)")
    if z == 0:
        raise ValueError("z must be nonzero")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need distinct in-range target indices")
    return _synth(n, i, j, z)


def _spare_index(n: int, i: int, j: int) -> int:
    return next(l for l in range(1, n + 1) if l != i and l != j)


def _invert_word(word: list[str]) -> list[str]:
    out = []
    for tok in reversed(word):
        if tok.endswith("^-1"):
            out.append(tok[:-3])
        else:
            out.append(tok + "^-1")
    return out


def _commutator_word(n: int, i: int, l: int, j: int, a: int, b: int) -> list[str]:
    # [E_il(a), E_lj(b)] = E_ij(a*b)
    wa = _synth(n, i, l, a)
    wb = _synth(n, l, j, b)
    return wa + wb + _invert_word(wa) + _invert_word(wb)


def _synth(n: int, i: int, j: int, z: int) -> list[str]:
    mag = abs(z)
    if mag <= 3:
        tok = f"E{i}{j}" if z > 0 else f"E{i}{j}^-1"
        return [tok] * mag
    l = _spare_index(n, i, j)
    sign = 1 if z > 0 else -1
    if mag & (mag - 1) == 0:  # power of two
        t = mag.bit_length() - 1
        return _commutator_word(n, i, l, j, 2 ** ((t + 1) // 2), sign * 2 ** (t // 2))
    binary = _binary_word(n, i, l, j, mag, sign)
    a = _largest_balanced_divisor(mag)
    if a is not None:
        split = _commutator_word(n, i, l, j, a, sign * (mag // a))
        if len(split) <= len(binary):
            return split
    return binary


def _binary_word(n: int, i: int, l: int, j: int, mag: int, sign: int) -> list[str]:
    # z = hi * 2^s + lo
    bits = mag.bit_length()
    s = bits // 2
    hi, lo = mag >> s, mag & ((1 << s) - 1)
    word = _commutator_word(n, i, l, j, sign * hi, 2**s)
    if lo:
        word = word + _synth(n, i, j, sign * lo)
    return word


def _largest_balanced_divisor(m: int) -> int | None:
    """Largest divisor a of m with 2 <= a <= sqrt(m), None if m is prime."""
    root = math.isqrt(m)
    best = None
    divisors = [1]
    for p, e in arith.factorize(m):
        divisors = [d * p**t for d in divisors for t in range(e + 1)]
    for d in divisors:
        if 2 <= d <= root and (best is None or d > best):
            best = d
    return best


def evaluate_word(n: int, word: list[str]) -> Mat:
    """Multiply a label word out exactly.  Each letter E_ij(+-1) acts on the
    right as the column operation column j += +-column i, in place."""
    letters = {}
    for i in range(min(n, 9)):  # labels carry one digit per index
        for j in range(min(n, 9)):
            if i != j:
                letters[f"E{i + 1}{j + 1}"] = (i, j, 1)
                letters[f"E{i + 1}{j + 1}^-1"] = (i, j, -1)
    out = [list(row) for row in matgrp.identity(n)]
    for tok in word:
        if tok not in letters:
            raise ValueError(f"bad generator label {tok!r}")
        i, j, z = letters[tok]
        for row in out:
            row[j] += z * row[i]
    return tuple(tuple(row) for row in out)
