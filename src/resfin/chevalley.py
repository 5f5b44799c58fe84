"""SL_n over Z/m: orders, enumeration, congruence filtration, structure checks.

The congruence filtration of G = SL_n(Z/p^k) is G^i = ker(G -> SL_n(Z/p^i)),
elements congruent to the identity mod p^i.  Writing g = 1 + p^i x, the map
psi_i : g -> x mod p identifies the graded piece G^i / G^{i+1} with the Lie
algebra sl_n(F_p), equivariantly for conjugation.  The checks in this module
verify that picture computationally: the commutator containment
[G^i, G^j] <= G^{i+j}, the graded isomorphism, equivariance, irreducibility
of the adjoint action, the shape of normal subgroups above the center, and
surjectivity of arithmetic subgroups onto congruence quotients.

The filtration checks are generator certificates, not pair scans: each
level G^i has an explicit generating set X_i (filtration_generators, with
its two lemmas), and the commutator containment, the image of psi_i and its
equivariance are tested on generators only, each reduction resting on a
lemma stated in the check's docstring.  No G^i is enumerated, and they have
no sampling mode.

Finite groups are enumerated once: `closure` walks the generators mod m
breadth first and records the right Cayley graph, and a FiniteGroupTable is
the elements in BFS order plus that graph.  The walk reads tables, not
products: row r of x * s is (row r of x) * s, so on elements coded as ints
(the base-m digits of their rows) right multiplication by s is two lookups
in tables of at most m^(n ceil(n/2)) < |SL_n(Z/m)| entries.  Groups are
walked over the E_ij(1) alone.  Left multiplication replays the BFS tree
through the graph, so conjugacy classes, centers and the class-product
table behind the normal-subgroup lattice are integer-array lookups, not
matrix products.

Conventions: "good" primes are p >= 5; p in {2, 3} are excluded from the
center-sensitive statements, and two checks exist specifically to document
what breaks there.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from array import array
from dataclasses import dataclass
from functools import cached_property

from resfin import arith, matgrp
from resfin.matgrp import Mat, identity, mat_inv_mod, mat_mul_mod, reduce_mod


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its element budget."""


DEFAULT_ENUM_BUDGET = 10**6
EXCLUDED_PRIMES = (2, 3)


# ---------------------------------------------------------------------------
# group specs and order formulas


@dataclass(frozen=True)
class GroupSpec:
    """A split form SL_n with its numerical invariants and order formulas."""

    n: int
    family: str = "SL"

    def __post_init__(self):
        if self.family != "SL":
            raise ValueError(f"unsupported family {self.family!r}")
        if self.n < 2:
            raise ValueError("need n >= 2")

    @property
    def dim(self) -> int:
        return self.n * self.n - 1

    @property
    def rank(self) -> int:
        return self.n - 1

    @property
    def center_order(self) -> int:
        # |mu_n|: the generic center size of the simply connected form
        return self.n

    @property
    def name(self) -> str:
        return f"sl{self.n}"

    @classmethod
    def from_name(cls, name: str) -> "GroupSpec":
        name = name.lower().strip()
        if not name.startswith("sl"):
            raise ValueError(f"unknown group {name!r}")
        return cls(int(name[2:]))

    def order_fp(self, p: int) -> int:
        """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{i=2..n} (p^i - 1)."""
        if not arith.is_prime(p):
            raise ValueError(f"{p} is not prime")
        out = p ** (self.n * (self.n - 1) // 2)
        for i in range(2, self.n + 1):
            out *= p**i - 1
        return out

    def order_mod(self, m: int) -> int:
        """|SL_n(Z/m)|, multiplicative over prime powers; order_mod(1) = 1."""
        if m < 1:
            raise ValueError("modulus must be >= 1")
        key = (self.n, m)
        cached = _ORDER_CACHE.get(key)
        if cached is not None:
            return cached
        out = 1
        for p, e in arith.factorize(m):
            out *= p ** ((e - 1) * self.dim) * self.order_fp(p)
        _ORDER_CACHE[key] = out
        return out

    def center_order_mod(self, m: int) -> int:
        """Number of scalars lambda mod m with lambda^n = 1 (= |Z(SL_n(Z/m))|),
        multiplicative over prime powers; cached like order_mod."""
        key = (self.n, m)
        cached = _CENTER_CACHE.get(key)
        if cached is not None:
            return cached
        out = 1
        for p, e in arith.factorize(m):
            q = p**e
            if p == 2:
                if e == 1:
                    cnt = 1
                elif e == 2:
                    cnt = math.gcd(self.n, 2)
                else:
                    cnt = math.gcd(self.n, 2) * math.gcd(self.n, 2 ** (e - 2))
            else:
                cnt = math.gcd(self.n, q // p * (p - 1))
            out *= cnt
        _CENTER_CACHE[key] = out
        return out

    def elementary_generators(self, signs: tuple[int, ...] = (1, -1)) -> list[Mat]:
        """All E_ij(c), i != j, c in signs: by default the E_ij(+-1), the
        standard generating set of SL_n(Z)."""
        pairs = itertools.permutations(range(1, self.n + 1), 2)
        return [matgrp.elementary(self.n, i, j, c) for i, j in pairs for c in signs]


_ORDER_CACHE: dict[tuple[int, int], int] = {}
_CENTER_CACHE: dict[tuple[int, int], int] = {}

SL2 = GroupSpec(2)
SL3 = GroupSpec(3)
SL4 = GroupSpec(4)


# ---------------------------------------------------------------------------
# exhaustive tables


def closure(
    start: Mat,
    gens: list[Mat],
    m: int,
    budget: int = DEFAULT_ENUM_BUDGET,
    stop_at: int | None = None,
) -> tuple[list[Mat], list[array], array, array]:
    """BFS closure of start under right multiplication by gens mod m.

    Returns (elements, right, parent, via): the elements in BFS order, start
    (reduced mod m) first; right[s][x], the index of elements[x] * gens[s];
    and the BFS tree, elements[x] = elements[parent[x]] * gens[via[x]] with
    parent[x] < x for x >= 1 (parent[0] = via[0] = -1).  From start = I this
    is the right Cayley graph of the group the gens generate: a
    multiplicatively closed subset of a finite group is a subgroup.  Raises
    BudgetExceededError past `budget` elements.  With stop_at, the walk ends
    as soon as that many elements are found (for a caller that knows the
    order of a group containing the closure and wants only the count); right
    then covers only the elements walked.

    Row lemma: row r of x * s is (row r of x) * s.  So the walk codes an
    element as one int, the base-m digits of its entries in row-major order
    (a row is a code below size = m^n), and gives each s two block tables
    built from its row table on (Z/m)^n: hi on the top ceil(n/2) rows,
    pre-scaled by low = m^(n floor(n/2)), and lo on the bottom floor(n/2)
    rows.  With (a, b) = divmod(x, low), x * s is hi[a] + lo[b].  The
    elements are decoded at the end, sharing one tuple per row vector.

    Table bound: hi has m^(n ceil(n/2)) entries, fewer than |SL_n(Z/m)| =
    m^(n^2 - 1) prod_(p | m) prod_(i = 2..n) (1 - p^-i) for n, m >= 2: the
    exponent falls short by 1 for n = 2, where each p | m gives
    p (1 - p^-2) > 1, and by at least 2 for n >= 3, where the product
    exceeds prod_(i >= 2) 1/zeta(i) > 0.43.  Tables past `budget` raise
    BudgetExceededError before the walk.
    """
    n = len(start)
    size = m**n  # row codes
    top = (n + 1) // 2
    low = size ** (n - top)
    if size**top > budget:
        raise BudgetExceededError(f"closure tables of {size**top} entries exceed budget {budget}")
    vecs = list(itertools.product(range(m), repeat=n))  # row code -> row vector
    places = [m ** (n - 1 - c) for c in range(n)]
    steps = []
    for s, gen in enumerate(gens):
        cols = list(zip(zip(*gen), places))
        images = [sum(sum(map(operator.mul, v, col)) % m * w for col, w in cols) for v in vecs]
        steps.append((s, _block_table(images, size, top, low), _block_table(images, size, n - top, 1), []))
    first = 0
    for x in itertools.chain.from_iterable(start):
        first = first * m + x % m
    codes, parent, via = [first], [-1], [-1]
    seen = {first: 0}.setdefault  # code -> index, inserting the next index
    count = 1
    for x, g in enumerate(codes):  # the list grows while it is walked
        a, b = divmod(g, low)
        for s, hi, lo, row in steps:
            h = hi[a] + lo[b]
            y = seen(h, count)
            if y == count:
                if y >= budget:
                    raise BudgetExceededError(f"closure exceeded {budget} elements")
                count += 1
                codes.append(h)
                parent.append(x)
                via.append(s)
            row.append(y)
        if count == stop_at:
            break
    del seen
    rows = [[vecs[g // w % size] for g in codes] for w in (size**r for r in reversed(range(n)))]
    right = [array("i", row) for *_, row in steps]
    return list(zip(*rows)), right, array("i", parent), array("i", via)


def _block_table(images: list[int], size: int, rows: int, scale: int) -> list[int]:
    """x -> scale * (code of x * s) on blocks x of `rows` consecutive rows,
    coded like elements, given the codes of the row images under s."""
    table = [0]
    for _ in range(rows):
        table = [u + t for u in [scale * v for v in images] for t in table]
        scale *= size
    return table


@dataclass(eq=False, repr=False)
class FiniteGroupTable:
    """A fully enumerated SL_n(Z/m): the elements in deterministic BFS order
    plus the right Cayley graph of the generators (see closure).

    Structural questions are integer-array lookups: left(a) is left
    multiplication by elements[a], replayed along the BFS tree, and
    `conjugations` is conjugation by each generator.
    """

    spec: GroupSpec
    modulus: int
    elements: list[Mat]
    generators: list[Mat]
    right: list[array]
    parent: array
    via: array

    @cached_property
    def index(self) -> dict[Mat, int]:
        """Element -> its index, built on first use."""
        return {g: i for i, g in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Mat) -> bool:
        return g in self.index

    def inv(self, g: Mat) -> Mat:
        return mat_inv_mod(g, self.modulus)

    def left(self, a: int) -> array:
        """x -> index of elements[a] * elements[x].

        elements[x] = elements[parent[x]] * gens[via[x]] with parent[x] < x,
        so a * elements[x] = (a * elements[parent[x]]) * gens[via[x]]: one
        lookup in right[via[x]] per x, from left[0] = a (elements[0] = I).
        """
        right = self.right
        out = array("i", [a]) * len(self.elements)
        for x, p, s in zip(range(1, len(out)), self.parent[1:], self.via[1:]):
            out[x] = right[s][out[p]]
        return out

    @cached_property
    def conjugations(self) -> list[array]:
        """For each generator s, x -> index of s^-1 * elements[x] * s, read
        as right[s][left(s^-1)[x]]."""
        return [
            array("i", map(row.__getitem__, self.left(self.index[self.inv(s)])))
            for row, s in zip(self.right, self.generators)
        ]


def enumerate_group(spec: GroupSpec, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> FiniteGroupTable:
    """The closure of the E_ij(1) mod m, as a table: they generate SL_n(Z/m)
    as a monoid (see strong_approx_check).  The BFS order, and with it every
    index, is theirs, not that of the E_ij(+-1); classes, centers and the
    second center, each defined through a generating set, are unchanged as
    sets of matrices.

    The expected order is checked against the budget up front, using the
    closed formula; the enumeration itself is independent of that formula and
    the two are compared in the tests.
    """
    expected = spec.order_mod(m)
    if expected > budget:
        raise BudgetExceededError(
            f"|SL{spec.n}(Z/{m})| = {expected} exceeds budget {budget}"
        )
    gens = _elementary_mod(spec, m, signs=(1,))
    elements, right, parent, via = closure(identity(spec.n), gens, m, budget)
    return FiniteGroupTable(spec, m, elements, gens, right, parent, via)


def _elementary_mod(spec: GroupSpec, m: int, signs: tuple[int, ...] = (1, -1)) -> list[Mat]:
    """spec.elementary_generators(signs) reduced mod m, each residue once
    (E_ij(1) = E_ij(-1) mod 2)."""
    return list(dict.fromkeys(reduce_mod(g, m) for g in spec.elementary_generators(signs)))


def center_scalars(spec: GroupSpec, m: int) -> list[Mat]:
    """The scalar matrices lambda*I with lambda^n = 1 mod m, by direct scan."""
    if m > 10**6:
        raise BudgetExceededError(f"center scan mod {m} too large")
    out = []
    for lam in range(m):
        if math.gcd(lam, m) == 1 and pow(lam, spec.n, m) == 1 % m:
            out.append(tuple(tuple(lam if i == j else 0 for j in range(spec.n)) for i in range(spec.n)))
    if m == 1:
        out = [identity(spec.n)]
    return out


def center_of(table: FiniteGroupTable) -> list[Mat]:
    """Elements commuting with all generators (hence with everything)."""
    return [table.elements[x] for x in _center_indices(table)]


def _center_indices(table: FiniteGroupTable) -> list[int]:
    """Indices of the elements fixed by conjugation by every generator."""
    conj = table.conjugations
    return [x for x in range(len(table)) if all(c[x] == x for c in conj)]


# ---------------------------------------------------------------------------
# congruence filtration

def _prime_power_modulus(m: int) -> tuple[int, int]:
    pe = arith.is_prime_power(m)
    if pe is None:
        raise ValueError(f"modulus {m} is not a prime power")
    return pe


def filtration_subgroup(table: FiniteGroupTable, i: int) -> list[Mat]:
    """G^i inside an enumerated SL_n(Z/p^k): elements congruent to I mod p^i."""
    p, k = _prime_power_modulus(table.modulus)
    if not 0 <= i <= k:
        raise ValueError(f"filtration level {i} outside 0..{k}")
    q = p**i
    return [g for g in table.elements if _congruent_to_identity(g, q)]


def _fix_last_entry(a: list[list[int]], q: int) -> Mat:
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


def filtration_generators(spec: GroupSpec, p: int, k: int, i: int) -> list[Mat]:
    """A generating set X_i of G^i in G = SL_n(Z/p^k), for 0 <= i <= k.

    i = 0: the E_rc(+-1) mod p^k.  Lemma: Z/p^k is local, and SL_n of a
    local ring is generated by elementary matrices (row reduction: every
    column of an invertible matrix has a unit entry, which elementary row
    operations move to the diagonal and use to clear the column); and
    E_rc(z) = E_rc(1)^z.

    i >= 1: E_rc(p^i) for r != c, and diag(.., u, u^-1, ..) in positions
    (l, l+1) for u = 1 + p^t, i <= t < k.  Lemma: every g = I + p^i x has
    g = L D U mod p^k with L (U) lower (upper) unitriangular with
    off-diagonal entries in p^i Z, and D diagonal in 1 + p^i Z, because the
    leading minors of g are 1 mod p (units) and each elimination step keeps
    the Schur complement = I mod p^i.  L and U are products of
    E_rc(p^i)^a.  D, of determinant 1, is the product over l of
    diag(.., e_l, e_l^-1, ..) with e_l = d_1 .. d_l, and the units
    1 + p^t (i <= t < k) generate 1 + p^i Z/p^k: each maps onto a generator
    of (1 + p^t Z)/(1 + p^(t+1) Z) = Z/p.  Neither lemma excludes p = 2.
    The tests close these sets and compare them with G^i built entry by
    entry and with the order formula.
    """
    if not 0 <= i <= k:
        raise ValueError(f"filtration level {i} outside 0..{k}")
    q = p**k
    if i == 0:
        return _elementary_mod(spec, q)
    n = spec.n
    gens = [
        reduce_mod(matgrp.elementary(n, r, c, p**i), q)
        for r in range(1, n + 1) for c in range(1, n + 1) if r != c
    ]
    for t in range(i, k):
        u = 1 + p**t
        for l in range(n - 1):
            d = [1] * n
            d[l], d[l + 1] = u % q, pow(u, -1, q)
            gens.append(tuple(tuple(d[r] if r == c else 0 for c in range(n)) for r in range(n)))
    return list(dict.fromkeys(gens))


def graded_image(g: Mat, p: int, i: int) -> Mat:
    """psi_i(g) = x mod p for g = 1 + p^i x, the graded Lie-algebra image."""
    n = len(g)
    q = p**i
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            diff = g[r][c] - (1 if r == c else 0)
            if diff % q != 0:
                raise ValueError(f"element is not congruent to I mod {p}^{i}")
            row.append(diff // q % p)
        out.append(tuple(row))
    return tuple(out)


def lift_from_lie(spec: GroupSpec, p: int, k: int, i: int, xbar: Mat) -> Mat:
    """A group element g = 1 + p^i * xbar + O(p^(i+1)) in SL_n(Z/p^k).

    Requires trace(xbar) = 0 mod p; the det = 1 correction is absorbed into
    the last diagonal entry (_fix_last_entry) and is automatically
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
    g = _fix_last_entry(a, q)
    assert (g[n - 1][n - 1] - corner) % (step * p) == 0
    assert graded_image(g, p, i) == reduce_mod(xbar, p)
    return g


# ---------------------------------------------------------------------------
# check results


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a structural verification, ready for CSV emission."""

    check: str
    instance: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str
    mode: str = "exhaustive"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# ---------------------------------------------------------------------------
# Moy-Prasad style checks


def moy_prasad_check(spec: GroupSpec, p: int, k: int, i: int) -> CheckResult:
    """Verify G^i/G^{i+1} ~ sl_n(F_p) via psi_i, with conjugation equivariance.

    Lemma: for i >= 1, (I + p^i A)(I + p^i B) = I + p^i (A + B) + p^(2i) AB
    and 2i >= i + 1, so psi_i is a homomorphism from G^i to (M_n(F_p), +).
    Its kernel is G^{i+1} by definition, its fibers are cosets of that
    kernel and so uniform, and its image is the F_p-span of psi_i(X_i), as
    X_i generates G^i (filtration_generators).  det(I + p^i A) =
    1 + p^i tr A mod p^(i+1), so every image has trace zero.  The check
    therefore tests generators only: trace zero and rank dim for psi_i(X_i),
    then psi(a h a^-1) = abar psi(h) abar^-1 for a in X_0 and h in X_i.
    Both sides of that are homomorphisms in h, so they agree on G^i; and the
    conjugators a for which they agree on all of G^i are closed under
    products (a h a^-1 is again in G^i), so they are all of G = <X_0>.
    """
    instance = f"{spec.name},p={p},k={k},i={i}"
    if not 1 <= i < k:
        raise ValueError("graded piece needs 1 <= i < k")
    q = p**k
    gens = filtration_generators(spec, p, k, i)
    images = [graded_image(h, p, i) for h in gens]
    span = _Echelon(p)
    for h, x in zip(gens, images):
        if sum(x[t][t] for t in range(spec.n)) % p != 0:
            return CheckResult("moy-prasad", instance, "fail", f"image of {h} has nonzero trace")
        span.add([v for row in x for v in row])
    want_image = p**spec.dim
    if p ** len(span) != want_image:
        return CheckResult(
            "moy-prasad", instance, "fail", f"image size {p ** len(span)} != p^dim = {want_image}"
        )

    # equivariance: conjugation upstairs matches Ad downstairs
    for a in filtration_generators(spec, p, k, 0):
        a_inv = mat_inv_mod(a, q)
        abar, abar_inv = reduce_mod(a, p), reduce_mod(a_inv, p)
        for h, x in zip(gens, images):
            lhs = graded_image(mat_mul_mod(mat_mul_mod(a, h, q), a_inv, q), p, i)
            rhs = mat_mul_mod(mat_mul_mod(abar, x, p), abar_inv, p)
            if lhs != rhs:
                return CheckResult(
                    "moy-prasad", instance, "fail",
                    f"equivariance fails for conjugator {matgrp.format_matrix(abar)}",
                )
    detail = f"|G^{i}/G^{i + 1}| = {want_image} = p^{spec.dim}, fibers uniform, additive, equivariant"
    return CheckResult("moy-prasad", instance, "pass", detail)


def commutator_filtration_check(spec: GroupSpec, p: int, k: int) -> CheckResult:
    """[G^i, G^j] <= G^(i+j) for all i + j <= k (unordered pairs; the two
    orders are equivalent because [g,h]^-1 = [h,g] and G^(i+j) is a group).

    Certificate: with G^i = <X_i> (filtration_generators), it is enough that
    [x, y] lies in G^(i+j) for every x in X_i and y in X_j.  Lemma:
    G^(i+j) is normal in G, and if the images of X_i and X_j in
    G/G^(i+j) commute, so do the subgroups they generate; that is,
    [G^i, G^j] <= G^(i+j) (Robinson, A Course in the Theory of Groups, 5.1).
    """
    instance = f"{spec.name},p={p},k={k}"
    q = p**k
    gens = [filtration_generators(spec, p, k, i) for i in range(k + 1)]
    modes = []
    for i in range(0, k + 1):
        for j in range(i, k + 1 - i):
            if i == 0 and j == 0:
                continue
            modes.append(f"({i},{j}):exhaustive")
            escape = _escaping_commutator(gens[i], gens[j], q, p ** (i + j))
            if escape is not None:
                g, h = escape
                return CheckResult(
                    "commutator-filtration", instance, "fail",
                    f"[G^{i},G^{j}] escapes G^{i + j} at {matgrp.format_matrix(g)}, {matgrp.format_matrix(h)}",
                    ";".join(modes),
                )
    return CheckResult(
        "commutator-filtration", instance, "pass",
        f"[G^i,G^j] <= G^(i+j) for all i+j <= {k}", ";".join(modes),
    )


def _escaping_commutator(xs: list[Mat], ys: list[Mat], q: int, target: int) -> tuple[Mat, Mat] | None:
    """The first (g, h) in xs x ys with g h g^-1 h^-1 not = I mod target."""
    ys_inv = [mat_inv_mod(h, q) for h in ys]
    for g in xs:
        gi = mat_inv_mod(g, q)
        for h, hi in zip(ys, ys_inv):
            c = mat_mul_mod(mat_mul_mod(g, h, q), mat_mul_mod(gi, hi, q), q)
            if not _congruent_to_identity(c, target):
                return g, h
    return None


def _congruent_to_identity(g: Mat, q: int) -> bool:
    n = len(g)
    return all(
        (g[r][c] - (1 if r == c else 0)) % q == 0 for r in range(n) for c in range(n)
    )


# ---------------------------------------------------------------------------
# linear algebra mod p (small, dense, exact)


class _Echelon:
    """A semi-echelon basis over F_p, grown one vector at a time.

    Pivot invariant: rows[i] is 1 at pivots[i] and 0 at pivots[j] for every
    j < i, because it was reduced against those rows before it was stored.
    So reducing v by the rows in insertion order, subtracting v[pivot] * row
    only where v[pivot] != 0, never refills a pivot already cleared and
    leaves v zero at every pivot: v lies in the span iff it reduces to 0.
    """

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p: int):
        self.p = p
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, v: list[int]) -> list[int]:
        p = self.p
        for row, c in zip(self.rows, self.pivots):
            f = v[c] % p
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return [a % p for a in v]

    def add(self, v: list[int]) -> list[int] | None:
        """Insert v; return its stored row if v was new, None if in the span."""
        v = self.reduce(v)
        for c, x in enumerate(v):
            if x:
                break
        else:
            return None
        if x != 1:
            inv = pow(x, -1, self.p)
            v = [a * inv % self.p for a in v]
        self.rows.append(v)
        self.pivots.append(c)
        return v


def _nullspace_mod(rows: list[list[int]], p: int, ncols: int) -> list[list[int]]:
    """Basis of {x : M x = 0} over F_p, M given by rows.

    Every stored row of the echelon of the (M e_j, e_j) has the form
    (M x, x); the ncols - rank(M) rows whose pivot lies past the M part are
    the (0, x), so their x are a basis of the kernel, each with leading 1.
    """
    span = _Echelon(p)
    for j in range(ncols):
        span.add([row[j] for row in rows] + [int(c == j) for c in range(ncols)])
    m = len(rows)
    return [row[m:] for row, c in zip(span.rows, span.pivots) if c >= m]


def gaussian_binomial(d: int, t: int, p: int) -> int:
    """Number of t-dimensional subspaces of F_p^d."""
    num = den = 1
    for s in range(t):
        num *= p ** (d - s) - 1
        den *= p ** (s + 1) - 1
    return num // den


# ---------------------------------------------------------------------------
# adjoint representation


def lie_algebra_basis(spec: GroupSpec, p: int) -> list[Mat]:
    """Standard basis of sl_n(F_p): off-diagonal e_ij plus h_l = e_ll - e_(l+1)(l+1)."""
    n = spec.n
    basis = []
    for r in range(n):
        for c in range(n):
            if r != c:
                basis.append(tuple(tuple(1 if (x, y) == (r, c) else 0 for y in range(n)) for x in range(n)))
    for l in range(n - 1):
        basis.append(
            tuple(
                tuple(
                    (1 if (x, y) == (l, l) else (p - 1) if (x, y) == (l + 1, l + 1) else 0)
                    for y in range(n)
                )
                for x in range(n)
            )
        )
    assert len(basis) == spec.dim
    return basis


def _lie_coords(x: Mat, p: int, n: int) -> list[int]:
    """Coordinates of a trace-zero matrix in the lie_algebra_basis order."""
    coords = [x[r][c] % p for r in range(n) for c in range(n) if r != c]
    acc = 0
    for l in range(n - 1):
        acc = (acc + x[l][l]) % p
        coords.append(acc)
    return coords


def _ad_matrix(g: Mat, p: int, basis: list[Mat], n: int) -> list[list[int]]:
    """Matrix of X -> g X g^-1 on sl_n(F_p), columns in basis coordinates."""
    ginv = mat_inv_mod(g, p)
    cols = []
    for b in basis:
        img = mat_mul_mod(mat_mul_mod(g, b, p), ginv, p)
        cols.append(_lie_coords(img, p, n))
    d = len(basis)
    return [[cols[c][r] for c in range(d)] for r in range(d)]


def _nilpotent_parts(ops: list[list[list[int]]], p: int) -> list[list[list[tuple[int, int]]]]:
    """Each op - I mod p as sparse rows: row r lists the (t, x) with x != 0."""
    return [
        [
            [(t, x) for t, y in enumerate(row) if (x := (y - (r == t)) % p)]
            for r, row in enumerate(op)
        ]
        for op in ops
    ]


def _left_mul(nil: list[list[tuple[int, int]]], v: list[int], width: int) -> list[int]:
    """N v, for v a d x width matrix flattened by rows and N given sparsely."""
    out = [0] * len(v)
    for r, row in enumerate(nil):
        o = r * width
        for t, x in row:
            s = t * width
            for c in range(width):
                out[o + c] += x * v[s + c]
    return out


def _spin(seed: list[int], nils, p: int, width: int) -> _Echelon:
    """Echelon basis of the smallest subspace containing seed and closed under
    left multiplication by every N in nils (acting as in _left_mul).

    Every stored row is multiplied by every N once, in insertion order (so
    breadth first), and the spin stops as soon as the span is everything.
    """
    ech = _Echelon(p)
    ech.add(seed)
    full = len(seed)
    i = 0
    while i < len(ech) < full:
        v = ech.rows[i]
        i += 1
        for nil in nils:
            if ech.add(_left_mul(nil, v, width)) is not None and len(ech) == full:
                break
    return ech


def _operator_algebra_dim(nils, p: int, d: int) -> int:
    """Dimension of the algebra generated by I and the ops inside End(F_p^d),
    given the nilpotent parts N = op - I of the ops."""
    return len(_spin([int(i % (d + 1) == 0) for i in range(d * d)], nils, p, d))


def _all_lines(d: int, p: int):
    """One representative per line of F_p^d (first nonzero coordinate 1)."""
    for lead in range(d):
        tail = d - lead - 1
        for rest in itertools.product(range(p), repeat=tail):
            yield (0,) * lead + (1,) + rest


def _enumerate_subspaces(d: int, p: int, t: int):
    """All t-dimensional subspaces of F_p^d as RREF bases."""
    for pivots in itertools.combinations(range(d), t):
        free_positions = [
            (r, c)
            for r in range(t)
            for c in range(d)
            if c > pivots[r] and c not in pivots
        ]
        for vals in itertools.product(range(p), repeat=len(free_positions)):
            rows = [[0] * d for _ in range(t)]
            for r in range(t):
                rows[r][pivots[r]] = 1
            for (r, c), v in zip(free_positions, vals):
                rows[r][c] = v
            yield rows


def _invariant_subspace_scan(
    ops: list[list[list[int]]], p: int, d: int, subspace_budget: int
) -> tuple[str, list[list[int]] | None]:
    """Mode and a proper nonzero ops-invariant subspace of F_p^d (its basis
    rows), or None when there is none.

    Exhaustive over all proper subspaces when their count fits the budget;
    otherwise the operator algebra first, and only if it is proper, the
    closure of every line, whose generating line is then the first row.
    """
    nils = _nilpotent_parts(ops, p)
    if sum(gaussian_binomial(d, t, p) for t in range(1, d)) <= subspace_budget:
        for t in range(1, d):
            for rows in _enumerate_subspaces(d, p, t):
                span = _Echelon(p)
                for v in rows:
                    span.add(v)
                if not any(any(span.reduce(_left_mul(nil, v, 1))) for nil in nils for v in rows):
                    return "exhaustive-subspaces", rows
        return "exhaustive-subspaces", None
    if _operator_algebra_dim(nils, p, d) == d * d:
        return "line-closure-scan", None
    for v in _all_lines(d, p):
        closure = _spin(list(v), nils, p, 1)
        if len(closure) < d:
            return "line-closure-scan", closure.rows
    return "line-closure-scan-full", None


def adjoint_irreducibility_check(spec: GroupSpec, p: int, subspace_budget: int = 10**5) -> CheckResult:
    """Is the adjoint action of SL_n(F_p) on sl_n(F_p) irreducible with no
    Lie-algebra center, and is the kernel of Ad exactly the scalar center?

    The invariant-subspace part (_invariant_subspace_scan) is exhaustive over
    all proper subspaces when their count fits subspace_budget.  Otherwise it
    spins the associative algebra A generated by I and the Ad(g), g in the
    E_ij(+-1), and falls back to the closure of every line only when A is
    proper.  Three facts make that complete and cheap:

    - Nilpotent parts.  With N_g = Ad(g) - I, the algebra generated by I and
      the Ad(g) is the one generated by I and the N_g, and when m is in the
      span, span{m, Ad(g) m} = span{m, N_g m}.  So the spin multiplies only
      by the very sparse N_g (stored as sparse rows), and it stops at d^2.
    - No sampled lines.  The closure of a line v under the Ad(g) is A v.
      When dim A = d^2 that is all of F_p^d for every v; when A is proper,
      every line has been closed already.  So a sample of line closures
      could never fail, and there is none.
    - Pivot invariant.  Every span is an _Echelon: each row is stored with
      its pivot, normalised to 1 there and zero at the earlier pivots, so a
      reduction subtracts a row only where the vector's pivot entry is
      nonzero and never searches for a leading entry.
    """
    instance = f"{spec.name},p={p}"
    n = spec.n
    d = spec.dim
    basis = lie_algebra_basis(spec, p)

    # (a) no nonzero central element of the Lie algebra
    bracket_rows = []
    for b in basis:
        # rows of the map x -> [x, b], x in basis coordinates
        cols = []
        for a in basis:
            br = tuple(
                tuple(
                    (sum(a[r][t] * b[t][c] for t in range(n)) - sum(b[r][t] * a[t][c] for t in range(n))) % p
                    for c in range(n)
                )
                for r in range(n)
            )
            cols.append(_lie_coords(br, p, n))
        for r in range(d):
            bracket_rows.append([cols[c][r] for c in range(d)])
    center_basis = _nullspace_mod(bracket_rows, p, d)
    if center_basis:
        return CheckResult(
            "adjoint-irreducibility", instance, "fail",
            f"Lie algebra center has dimension {len(center_basis)} > 0",
        )

    # (b) no proper nonzero invariant subspace
    ops = [_ad_matrix(g, p, basis, n) for g in _elementary_mod(spec, p)]
    mode, sub = _invariant_subspace_scan(ops, p, d, subspace_budget)
    if sub is not None:
        what = (
            f"invariant subspace of dimension {len(sub)}: rows {sub}"
            if mode == "exhaustive-subspaces"
            else f"line {tuple(sub[0])} generates a proper invariant subspace"
        )
        return CheckResult("adjoint-irreducibility", instance, "fail", what, mode)

    # (c) kernel of Ad = scalar center: solve [X, sl_n] = 0 over all of M_n
    amb_rows = []
    for b in basis:
        for r in range(n):
            for c in range(n):
                row = [0] * (n * n)
                # coefficient of X[u][v] in (Xb - bX)[r][c]
                for u in range(n):
                    for v in range(n):
                        coef = 0
                        if u == r:
                            coef += b[v][c]
                        if v == c:
                            coef -= b[r][u]
                        row[u * n + v] = coef % p
                amb_rows.append(row)
    centralizer = _nullspace_mod(amb_rows, p, n * n)
    if centralizer != [[int(r == c) for r in range(n) for c in range(n)]]:  # leading 1
        return CheckResult(
            "adjoint-irreducibility", instance, "fail",
            f"centralizer of sl_n in M_n has dimension {len(centralizer)}, not scalars",
            mode,
        )
    n_roots = spec.center_order_mod(p)
    return CheckResult(
        "adjoint-irreducibility", instance, "pass",
        f"no center, no invariant subspace, Ad-kernel = {n_roots} scalar(s)",
        mode,
    )


# ---------------------------------------------------------------------------
# annuli witnesses


def annuli_witness(spec: GroupSpec, p: int, k: int, g: Mat, i: int) -> Mat:
    """An h in G^1 whose commutator with g lands in G^(i+1) but outside
    G^(i+2) Z(G), certifying that g sits in the annulus G^i minus G^(i+1) Z.

    Constructive, following the graded picture: for i = 0 pick a basis
    element of sl_n moved by conjugation by the image of g mod p; for i >= 1
    pick one that fails to commute with psi_i(g).  Lift it to the group and
    verify the commutator's position exactly.
    """
    if p in EXCLUDED_PRIMES:
        raise ValueError(f"annuli analysis requires a good prime, not {p}")
    if not 0 <= i <= k - 2:
        raise ValueError(f"annulus level i={i} needs 0 <= i <= k-2 (k={k})")
    q = p**k
    g = reduce_mod(g, q)
    if matgrp.det(g) % q != 1 % q:
        raise ValueError("element is not in SL_n of the requested quotient")
    target = p**i
    if not _congruent_to_identity(g, target):
        raise ValueError(f"element is not in G^{i}")
    centers = center_scalars(spec, q)
    for z in centers:
        zi = mat_inv_mod(z, q)
        if _congruent_to_identity(mat_mul_mod(g, zi, q), p ** (i + 1)):
            raise ValueError(f"element lies in G^{i + 1} Z, not the open annulus")

    basis = lie_algebra_basis(spec, p)
    ybar = None
    if i == 0:
        gbar = reduce_mod(g, p)
        gbar_inv = mat_inv_mod(gbar, p)
        for b in basis:
            moved = mat_mul_mod(mat_mul_mod(gbar, b, p), gbar_inv, p)
            if moved != b:
                ybar = b
                break
    else:
        xbar = graded_image(g, p, i)
        for b in basis:
            lhs = mat_mul_mod(xbar, b, p)
            rhs = mat_mul_mod(b, xbar, p)
            if lhs != rhs:
                ybar = b
                break
    if ybar is None:
        raise ValueError("no witness direction exists; element acts centrally")

    h = lift_from_lie(spec, p, k, 1, ybar)
    comm = mat_mul_mod(
        mat_mul_mod(h, g, q), mat_mul_mod(mat_inv_mod(h, q), mat_inv_mod(g, q), q), q
    )
    assert _congruent_to_identity(comm, p ** (i + 1)), "commutator missed G^(i+1)"
    for z in centers:
        zi = mat_inv_mod(z, q)
        assert not _congruent_to_identity(
            mat_mul_mod(comm, zi, q), p ** (i + 2)
        ), "commutator fell into G^(i+2) Z"
    return h


# ---------------------------------------------------------------------------
# normal subgroups above the center


def conjugacy_classes(table: FiniteGroupTable) -> list[list[int]]:
    """Conjugacy classes as sorted lists of element indices, in order of
    their smallest member: orbits under conjugation by the generators."""
    conj = table.conjugations
    assigned = bytearray(len(table))
    classes = []
    for start in range(len(table)):
        if assigned[start]:
            continue
        cls = [start]
        assigned[start] = 1
        for x in cls:  # the list grows while it is walked
            for c in conj:
                y = c[x]
                if not assigned[y]:
                    assigned[y] = 1
                    cls.append(y)
        classes.append(sorted(cls))
    return classes


def class_product_table(table: FiniteGroupTable, classes: list[list[int]]) -> list[list[int]]:
    """prod[a][b] = the classes met by C_a * C_b, as a bitmask.

    Lemma: C_a * C_b is the union of x * C_b over x in C_a, and for
    y = g x g^-1 we have y * C_b = g (x * C_b) g^-1 since C_b is normal, which
    meets the same classes as x * C_b.  So one representative x of C_a
    suffices, and the table costs #classes * |G| lookups.
    """
    class_of = array("i", [0]) * len(table)
    for ci, cls in enumerate(classes):
        for x in cls:
            class_of[x] = ci
    bit = [1 << ci for ci in class_of]
    prod = []
    for cls in classes:
        row = [0] * len(classes)
        for cy, xy in zip(class_of, table.left(cls[0])):
            row[cy] |= bit[xy]
        prod.append(row)
    return prod


def _class_closure(mask: int, prod: list[list[int]]) -> int:
    """The least class set containing mask and closed under prod.

    A nonempty finite subset of a group closed under products is a subgroup,
    and a union of classes is normal, so the result is the normal subgroup
    generated by the classes in mask.  Semi-naive fixpoint: each round
    multiplies the classes added in the round before by every class so far
    (products of normal sets commute, AB = BA, so one order suffices).
    """
    frontier = mask
    while frontier:
        old = _bits(mask)
        new = 0
        for b in _bits(frontier):
            row = prod[b]
            for a in old:
                new |= row[a]
        frontier = new & ~mask
        mask |= new
    return mask


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def normal_subgroups_containing_center(table: FiniteGroupTable) -> list[frozenset[int]]:
    """All normal subgroups of the table group that contain its center.

    Method: conjugacy classes and their product table; for each class C, the
    atom <Z, C>; then saturation under pairwise joins.  Every normal subgroup
    above the center is a join of these atoms (it is generated by the
    classes it contains), so the saturated family is complete.  Subgroups
    are class bitmasks and each closure is a fixpoint of class products
    (class_product_table, _class_closure).
    """
    classes = conjugacy_classes(table)
    prod = class_product_table(table, classes)
    class_of = {cls[0]: ci for ci, cls in enumerate(classes)}
    z_mask = 0
    for x in _center_indices(table):  # central classes are singletons
        z_mask |= 1 << class_of[x]

    subgroups = {_class_closure(z_mask, prod)}
    for ci in range(len(classes)):
        subgroups.add(_class_closure(z_mask | 1 << ci, prod))

    # saturate under pairwise joins
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(subgroups), 2):
            if a & b in (a, b):
                continue
            join = _class_closure(a | b, prod)
            if join not in subgroups:
                subgroups.add(join)
                changed = True
    out = [
        frozenset(x for ci in _bits(mask) for x in classes[ci]) for mask in subgroups
    ]
    assert all(len(table) % len(s) == 0 for s in out)  # Lagrange
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def filtration_center_subgroups(table: FiniteGroupTable) -> list[frozenset[int]]:
    """The predicted normal subgroups G^i Z(G) for i = 0..k, as index sets."""
    p, k = _prime_power_modulus(table.modulus)
    by_center = [table.left(z) for z in _center_indices(table)]  # g -> z * g = g * z
    out = []
    for i in range(k + 1):
        level = [table.index[g] for g in filtration_subgroup(table, i)]
        sub = frozenset(lz[x] for x in level for lz in by_center)
        if sub not in out:
            out.append(sub)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def normal_structure_check(table: FiniteGroupTable) -> CheckResult:
    """Are the normal subgroups above the center exactly the filtration
    family G^i Z(G)?  The left side is enumerated from conjugacy classes,
    the right side built from the congruence filtration, so agreement is a
    genuine cross-check rather than a tautology."""
    instance = f"{table.spec.name},m={table.modulus}"
    found = normal_subgroups_containing_center(table)
    predicted = filtration_center_subgroups(table)
    if found == predicted:
        return CheckResult(
            "normal-structure", instance, "pass",
            f"{len(found)} normal subgroups above the center, all of the form G^i Z",
        )
    extra = sum(1 for s in found if s not in predicted)
    missing = sum(1 for s in predicted if s not in found)
    return CheckResult(
        "normal-structure", instance, "fail",
        f"{extra} subgroups outside the filtration family, {missing} predicted ones absent",
    )


def centerless_quotient_check(table: FiniteGroupTable) -> CheckResult:
    """Does G/Z(G) have trivial center?  (Holds for good primes; fails for
    example at SL_2(Z/4), documenting the excluded-prime boundary.)"""
    instance = f"{table.spec.name},m={table.modulus}"
    center = _center_indices(table)
    second = _second_center_indices(table, center)
    if len(second) == len(center):
        return CheckResult(
            "centerless-quotient", instance, "pass",
            f"second center equals center (order {len(center)})",
        )
    return CheckResult(
        "centerless-quotient", instance, "fail",
        f"second center order {len(second)} exceeds center order {len(center)}",
    )


def _second_center_indices(table: FiniteGroupTable, center: list[int]) -> list[int]:
    """Elements g with [g, s] central for every generator s.

    For central z, g s g^-1 s^-1 = z iff g s = z s g iff s^-1 g s = z g, so
    the test is conj_s(g) in the coset Z g, read through left(z).
    """
    conj = table.conjugations
    by_center = [table.left(z) for z in center]
    out = []
    for g in range(len(table)):
        coset = {lz[g] for lz in by_center}
        if all(c[g] in coset for c in conj):
            out.append(g)
    return out


def center_reduction_check(spec: GroupSpec, p: int, k: int) -> CheckResult:
    """Z(G mod p^k) -> Z(G mod p^(k-1)) should be a bijection (good primes)."""
    if k < 2:
        raise ValueError("need k >= 2")
    instance = f"{spec.name},p={p},k={k}"
    upper = center_scalars(spec, p**k)
    lower = center_scalars(spec, p ** (k - 1))
    images = [reduce_mod(z, p ** (k - 1)) for z in upper]
    if len(set(images)) == len(upper) and set(images) == set(lower):
        return CheckResult(
            "center-reduction", instance, "pass",
            f"bijection on {len(upper)} central scalars",
        )
    return CheckResult(
        "center-reduction", instance, "fail",
        f"|Z(mod p^{k})| = {len(upper)} maps onto {len(set(images))} of {len(lower)}",
    )


# ---------------------------------------------------------------------------
# strong approximation


def strong_approx_check(
    spec: GroupSpec,
    N: int,
    m: int,
    trials: int = 64,
    seed: int = 0,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> CheckResult:
    """Does the level-N congruence subgroup of SL_n(Z) surject onto SL_n(Z/m)?

    For N = 1 this is exact: the E_ij(1) must close to the full group.  For
    N > 1 (with gcd(N, m) = 1) the kernel of reduction mod N is sampled by
    seeded random conjugates w E_ij(N)^(+-1) w^(-1); reaching the full order
    proves surjectivity, falling short is inconclusive rather than a failure.

    Lemma: in a finite group x^-1 = x^(ord x - 1), so the closure of X
    under products is <X>.  So E_ij(1) stands for E_ij(-1) = E_ij(1)^(m-1),
    and no sampled conjugate needs its inverse beside it.
    """
    if math.gcd(N, m) != 1:
        raise ValueError(f"need gcd(N, m) = 1, got N={N}, m={m}")
    expected = spec.order_mod(m)
    if expected > budget:
        raise BudgetExceededError(f"target order {expected} exceeds budget {budget}")
    instance = f"{spec.name},N={N},m={m}"
    if N == 1:
        gens = _elementary_mod(spec, m, signs=(1,))
        mode = "exact"
    else:
        mode = "probabilistic"
        # every E_ij(+-1), duplicates kept: the seeded draws index this list
        base_gens = [reduce_mod(g, m) for g in spec.elementary_generators()]
        rng = random.Random(seed)
        pairs = list(itertools.permutations(range(1, spec.n + 1), 2))
        conjugates = {}  # insertion-ordered, each once
        for _ in range(trials):
            i, j = pairs[rng.randrange(len(pairs))]
            sign = 1 if rng.randrange(2) == 0 else -1
            core = reduce_mod(matgrp.elementary(spec.n, i, j, sign * N), m)
            w = identity(spec.n)
            for _ in range(rng.randrange(0, 13)):
                w = mat_mul_mod(w, base_gens[rng.randrange(len(base_gens))], m)
            winv = mat_inv_mod(w, m)
            conjugates[mat_mul_mod(mat_mul_mod(w, core, m), winv, m)] = None
        gens = list(conjugates)
    reached, _, _, _ = closure(identity(spec.n), gens, m, budget, stop_at=expected)
    if len(reached) == expected:
        return CheckResult(
            "strong-approximation", instance, "pass",
            f"closure reaches all {expected} elements", mode,
        )
    if N == 1:
        return CheckResult(
            "strong-approximation", instance, "fail",
            f"closure reaches {len(reached)} of {expected}", mode,
        )
    return CheckResult(
        "strong-approximation", instance, "inconclusive",
        f"closure reaches {len(reached)} of {expected} after {trials} trials", mode,
    )
