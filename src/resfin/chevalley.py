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
breadth first from I and records the right Cayley graph, and a
FiniteGroupTable is the elements in BFS order plus that graph.  The walk
reads tables, not products: row r of x * s is (row r of x) * s, so on
elements coded as ints (the base-m digits of their rows) right
multiplication by s is two lookups in tables of at most
m^(n ceil(n/2)) < |SL_n(Z/m)| entries.  A table keeps the codes, and no
check decodes them into matrices.  Groups are walked over the E_ij(1)
alone.  Left multiplication replays the BFS tree through the graph and s^-1
is read off it, so conjugacy classes, centers and the class-product table
behind the normal-subgroup lattice are integer-array lookups, with no
matrix products and no matrix -> index map.

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
from collections import namedtuple
from functools import cached_property

from resfin import arith, matgrp
from resfin.matgrp import DEFAULT_BUDGET, BudgetExceededError
from resfin.matgrp import Mat, identity, mat_inv_mod, mat_mul_mod, reduce_mod


# ---------------------------------------------------------------------------
# group specs and order formulas


class GroupSpec(namedtuple("GroupSpec", "n")):
    """A split form SL_n with its numerical invariants: the order and center
    of SL_n(Z/p^e) per prime power, their products over Z/m, and the order
    floor behind QuotientSearch's stop rule, with its lemma; and its roots,
    whose one order every list of root elements E_ij in resfin follows."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__

    def __new__(cls, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        return super().__new__(cls, n)

    @property
    def dim(self) -> int:
        return self.n * self.n - 1

    @property
    def rank(self) -> int:
        return self.n - 1

    @property
    def name(self) -> str:
        return f"sl{self.n}"

    @classmethod
    def from_name(cls, name: str) -> "GroupSpec":
        name = name.lower().strip()
        if not (name.startswith("sl") and name[2:].isdecimal()):
            raise ValueError(f"unknown group {name!r}")
        return cls(int(name[2:]))

    def order_pp(self, p: int, e: int) -> int:
        """|SL_n(Z/p^e)| = p^((e-1) dim) |SL_n(F_p)| for a prime p and e >= 1,
        where |SL_n(F_p)| = p^(n(n-1)/2) prod_{i=2..n} (p^i - 1)."""
        n = self.n
        out = p ** ((e - 1) * (n * n - 1) + n * (n - 1) // 2)
        for i in range(2, n + 1):
            out *= p**i - 1
        return out

    def center_pp(self, p: int, e: int) -> int:
        """|Z(SL_n(Z/p^e))|, the scalars lambda mod p^e with lambda^n = 1: the
        unit group is cyclic of order p^(e-1)(p-1) for odd p, and C_2 x
        C_(2^(e-2)) for p = 2, e >= 2."""
        if p == 2:
            return math.gcd(self.n, 2) * math.gcd(self.n, 2 ** (e - 2)) if e > 1 else 1
        return math.gcd(self.n, p ** (e - 1) * (p - 1))

    def order_mod(self, m: int) -> int:
        """|SL_n(Z/m)|, the product of order_pp over the prime powers exactly
        dividing m; order_mod(1) = 1."""
        if m < 1:
            raise ValueError("modulus must be >= 1")
        return math.prod(self.order_pp(p, e) for p, e in arith.factorize(m))

    def center_order_mod(self, m: int) -> int:
        """|Z(SL_n(Z/m))|, the product of center_pp over the prime powers
        exactly dividing m."""
        return math.prod(self.center_pp(p, e) for p, e in arith.factorize(m))

    def order_floor(self, allow_central: bool = False) -> tuple[int, int]:
        """(num, den) with order_pp(p, e) * den >= q^dim * num for every prime
        power q = p^e, and the same for order_pp // center_pp when
        allow_central.

        Lemma.  order_pp(p, e) = q^dim * prod_{i=2..n} (1 - p^-i), and the
        product is least at p = 2; the center has order at most 2n (n-th
        roots of unity in a unit group with <= 2 cyclic parts), so dividing
        by it costs at most a factor 2n.
        """
        num, den = 1, 1
        for i in range(2, self.n + 1):
            num, den = num * (2**i - 1), den * 2**i
        return num, den * (2 * self.n if allow_central else 1)

    @property
    def roots(self) -> tuple[tuple[int, int], ...]:
        """The roots of SL_n as 1-based index pairs (i, j), i != j, in the one
        order of every E_ij list: generators, Lie basis, word letters."""
        return tuple(itertools.permutations(range(1, self.n + 1), 2))

    def elementary_generators(self, signs: tuple[int, ...] = (1, -1)) -> list[Mat]:
        """All E_ij(c), (i, j) in roots, c in signs: by default the E_ij(+-1),
        the standard generating set of SL_n(Z)."""
        return [matgrp.elementary(self.n, i, j, c) for i, j in self.roots for c in signs]


SL2 = GroupSpec(2)
SL3 = GroupSpec(3)
SL4 = GroupSpec(4)


# ---------------------------------------------------------------------------
# exhaustive tables


def closure(
    gens: list[Mat],
    m: int,
    budget: int = DEFAULT_BUDGET,
    stop_at: int | None = None,
) -> tuple[list[int], list[array], array, array]:
    """BFS closure of I under right multiplication by gens (nonempty) mod m.

    Returns (codes, right, parent, via): the elements in BFS order as codes
    (below; _decode gives the matrices), I mod m first (for m = 1 the one
    zero matrix, code 0); right[s][x], the index of elements[x] * gens[s];
    and the BFS tree, elements[x] = elements[parent[x]] * gens[via[x]] with
    parent[x] < x for x >= 1 (parent[0] = via[0] = -1).  This is the right
    Cayley graph of the group the gens generate: a multiplicatively closed
    subset of a finite group is a subgroup.  Raises BudgetExceededError
    past `budget` elements.  With stop_at, the walk ends as soon as that
    many elements are found (for a caller that knows the order of a group
    containing the closure and wants only the count); right then covers
    only the elements walked.

    Row lemma: row r of x * s is (row r of x) * s.  So the walk codes an
    element as one int, the base-m digits of its entries in row-major order
    (a row is a code below size = m^n), and gives each s two block tables
    built from its row table on (Z/m)^n (_row_images): hi on the top
    ceil(n/2) rows, pre-scaled by low = m^(n floor(n/2)), and lo on the
    bottom floor(n/2) rows.  With (a, b) = divmod(x, low), x * s is
    hi[a] + lo[b].  Every table is a _digit_table: the code of a block's
    image is the sum of its rows' image codes, each at its place, and an
    entry of a row's image the sum of one term per coordinate.

    Table bound: hi has m^(n ceil(n/2)) entries, fewer than |SL_n(Z/m)| =
    m^(n^2 - 1) prod_(p | m) prod_(i = 2..n) (1 - p^-i) for n, m >= 2: the
    exponent falls short by 1 for n = 2, where each p | m gives
    p (1 - p^-2) > 1, and by at least 2 for n >= 3, where the product
    exceeds prod_(i >= 2) 1/zeta(i) > 0.43.  Tables past `budget` raise
    BudgetExceededError before the walk.
    """
    n = len(gens[0])
    size = m**n  # row codes
    top = (n + 1) // 2
    low = size ** (n - top)
    if size**top > budget:
        raise BudgetExceededError(f"closure tables of {size**top} entries exceed budget {budget}")
    steps = []
    for s, gen in enumerate(gens):
        images = _row_images(gen, m)
        hi = _digit_table([[low * size**r * v for v in images] for r in range(top)])
        lo = _digit_table([[size**r * v for v in images] for r in range(n - top)])
        steps.append((s, hi, lo, []))
    first = sum(m ** ((n + 1) * r) for r in range(n)) % size**n  # the code of I, 0 for m = 1
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
    right = [array("i", row) for *_, row in steps]
    return codes, right, array("i", parent), array("i", via)


def _row_codes(codes: list[int], n: int, m: int) -> list:
    """code // size^(n-1-r) % size for r = 0..n-1, one lazy pass per row r:
    row n-1 skips the division and row 0 the remainder (it is < size)."""
    size = m**n
    shifted = [map(operator.floordiv, codes, itertools.repeat(size**r)) if r else codes for r in range(n)]
    return [shifted[-1], *(map(operator.mod, it, itertools.repeat(size)) for it in reversed(shifted[:-1]))]


def _decode(codes: list[int], n: int, m: int) -> list[Mat]:
    """The matrices of closure's codes, sharing one tuple per row vector."""
    vecs = list(itertools.product(range(m), repeat=n))  # row code -> row vector
    return list(zip(*(map(vecs.__getitem__, rows) for rows in _row_codes(codes, n, m))))


def _digit_table(digits: list[list[int]]) -> list[int]:
    """The table of a map that adds one term per digit of its argument:
    entry x is the sum of digits[i][x_i] over the mixed-radix digits x_i
    of x (radix len(digits[i])), digits[0] the least significant."""
    table = [0]
    for part in digits:
        table = [u + t for u in part for t in table]
    return table


def _row_images(gen: Mat, m: int) -> list[int]:
    """Row code -> code of (row vector) * gen on (Z/m)^n, built column by
    column: entry c of v * gen is sum_k v_k gen[k][c] mod m, one term per
    coordinate v_k, so it is a _digit_table over the coordinates."""
    n = len(gen)
    images = [0] * m**n
    for c, col in enumerate(zip(*gen)):
        entry = _digit_table([[a * v % m for v in range(m)] for a in reversed(col)])
        w = m ** (n - 1 - c)
        images = list(map(operator.add, images, [e % m * w for e in entry]))
    return images


class FiniteGroupTable:
    """A fully enumerated SL_n(Z/m): the elements in deterministic BFS order
    as codes, plus the right Cayley graph of the generators (see closure).

    Structural questions are integer-array lookups: left(a) is left
    multiplication by elements[a], replayed along the BFS tree,
    `conjugations` is conjugation by each generator, and `center` holds the
    indices they all fix.
    """

    def __init__(self, spec: GroupSpec, modulus: int, codes: list[int], generators: list[Mat],
                 right: list[array], parent: array, via: array):
        self.spec, self.modulus, self.codes, self.generators = spec, modulus, codes, generators
        self.right, self.parent, self.via = right, parent, via

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def elements(self) -> list[Mat]:
        """The matrices, in the order of codes, decoded on first read."""
        return _decode(self.codes, self.spec.n, self.modulus)

    def left(self, a: int) -> list[int]:
        """x -> index of elements[a] * elements[x].

        elements[x] = elements[parent[x]] * gens[via[x]] with parent[x] < x,
        so a * elements[x] = (a * elements[parent[x]]) * gens[via[x]]: one
        lookup in right[via[x]] per x, from left[0] = a (elements[0] = I).
        """
        right = self.right
        out = [a]
        add = out.append
        for p, s in zip(self.parent[1:], self.via[1:]):
            add(right[s][out[p]])
        return out

    @cached_property
    def conjugations(self) -> list[array]:
        """For each generator s, x -> index of s^-1 * elements[x] * s, read
        as right[s][left(s^-1)[x]].  Lemma: x -> x * s permutes G, and its
        cycle through I is I, s, s^2, ..., s^-1, so s^-1 is the one index
        right[s] sends to 0.  No matrix is hashed or inverted."""
        return [array("i", map(row.__getitem__, self.left(row.index(0)))) for row in self.right]

    @cached_property
    def center(self) -> list[int]:
        """Indices of the elements fixed by conjugation by every generator."""
        return sorted(set.intersection(*(_fixed(c, range(len(self))) for c in self.conjugations)))


def _fixed(f, g) -> set[int]:
    """The x with f[x] == g[x], for int sequences of one length, in one
    C-level pass."""
    return set(itertools.compress(range(len(f)), map(operator.eq, f, g)))


def enumerate_group(spec: GroupSpec, m: int, budget: int = DEFAULT_BUDGET) -> FiniteGroupTable:
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
    codes, right, parent, via = closure(gens, m, budget)
    return FiniteGroupTable(spec, m, codes, gens, right, parent, via)


def _elementary_mod(spec: GroupSpec, m: int, signs: tuple[int, ...] = (1, -1)) -> list[Mat]:
    """spec.elementary_generators(signs) reduced mod m, each residue once
    (E_ij(1) = E_ij(-1) mod 2)."""
    return list(dict.fromkeys(reduce_mod(g, m) for g in spec.elementary_generators(signs)))


# ---------------------------------------------------------------------------
# congruence filtration

def _prime_power_modulus(m: int) -> tuple[int, int]:
    pe = arith.is_prime_power(m)
    if pe is None:
        raise ValueError(f"modulus {m} is not a prime power")
    return pe


def filtration_generators(spec: GroupSpec, p: int, k: int, i: int) -> list[Mat]:
    """A generating set X_i of G^i in G = SL_n(Z/p^k), for 0 <= i <= k.

    i = 0: the E_rc(+-1) mod p^k.  Lemma: Z/p^k is local, and SL_n of a
    local ring is generated by elementary matrices (row reduction: every
    column of an invertible matrix has a unit entry, which elementary row
    operations move to the diagonal and use to clear the column); and
    E_rc(z) = E_rc(1)^z.

    i >= 1: E_rc(p^i) for the roots (r, c), and diag(.., u, u^-1, ..) in
    positions (l, l+1) for u = 1 + p^t, i <= t < k.  Lemma: every
    g = I + p^i x has g = L D U mod p^k with L (U) lower (upper)
    unitriangular with off-diagonal entries in p^i Z, and D diagonal in
    1 + p^i Z, because the leading minors of g are 1 mod p (units) and each
    elimination step keeps the Schur complement = I mod p^i.  L and U are
    products of E_rc(p^i)^a.  D, of determinant 1, is the product over l of
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
    gens = _elementary_mod(spec, q, signs=(p**i,))
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


# ---------------------------------------------------------------------------
# check results


class CheckResult(namedtuple("CheckResult", "check instance status detail mode",
                             defaults=("exhaustive",))):
    """Outcome of a structural verification, ready for CSV emission; status
    is "pass", "fail" or "inconclusive"."""

    __slots__ = ()

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
        for j in range(max(i, 1), k + 1 - i):
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
            if matgrp.detection_gcd(c) % target:
                return g, h
    return None


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
    cells = [{(i, j): 1} for i, j in spec.roots]  # (row, column) -> entry, 1-based
    cells += [{(l, l): 1, (l + 1, l + 1): p - 1} for l in range(1, n)]
    basis = [
        tuple(tuple(c.get((x, y), 0) for y in range(1, n + 1)) for x in range(1, n + 1)) for c in cells
    ]
    assert len(basis) == spec.dim
    return basis


def _lie_coords(x: Mat, p: int, n: int) -> list[int]:
    """Coordinates of a trace-zero matrix in the lie_algebra_basis order."""
    coords = [x[i - 1][j - 1] % p for i, j in GroupSpec(n).roots]
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
    ops: list[list[list[int]]], p: int, d: int, subspace_budget: int = 10**5
) -> tuple[str, list[list[int]] | None]:
    """Mode and a proper nonzero ops-invariant subspace of F_p^d (its basis
    rows), or None when there is none.

    Exhaustive over all proper subspaces when their count fits the budget;
    otherwise the operator algebra first, and only if it is proper, the
    closure of every line, whose generating line is then the first row.
    An RREF basis, 1 at each pivot and 0 at the others, already meets
    _Echelon's pivot invariant, so it is taken as the echelon as it stands.
    """
    nils = _nilpotent_parts(ops, p)
    if sum(gaussian_binomial(d, t, p) for t in range(1, d)) <= subspace_budget:
        span = _Echelon(p)
        for t in range(1, d):
            for rows in _enumerate_subspaces(d, p, t):
                span.rows, span.pivots = rows, [row.index(1) for row in rows]
                if not any(any(span.reduce(_left_mul(nil, v, 1))) for nil in nils for v in rows):
                    return "exhaustive-subspaces", rows
        return "exhaustive-subspaces", None
    if _operator_algebra_dim(nils, p, d) == d * d:
        return "line-closure-scan", None
    for (v,) in _enumerate_subspaces(d, p, 1):
        closure = _spin(v, nils, p, 1)
        if len(closure) < d:
            return "line-closure-scan", closure.rows
    return "line-closure-scan-full", None


def adjoint_irreducibility_check(spec: GroupSpec, p: int) -> CheckResult:
    """Is the adjoint action of SL_n(F_p) on sl_n(F_p) irreducible with no
    Lie-algebra center, and is the kernel of Ad exactly the scalar center?

    Lemma: the centralizer C of sl_n(F_p) in M_n(F_p) is the scalars, for
    every n >= 2 and p.  For i != j the entry of X e_ij - e_ij X at (r, j),
    r != i, is X[r][i], and at (i, j) it is X[i][i] - X[j][j]; so an X that
    commutes with every e_ij is diagonal and constant.  Hence (a) the Lie
    center C meet sl_n is the lambda I with n lambda = 0, a line when p | n
    and 0 otherwise, and (c) the kernel of Ad is SL_n(F_p) meet C, the
    scalar center.  Neither part needs a solve.

    The invariant-subspace part (_invariant_subspace_scan) is exhaustive over
    all proper subspaces when there are at most 10^5 of them.  Otherwise it
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
    if spec.n % p == 0:  # (a) the Lie center is a line when p | n
        return CheckResult(
            "adjoint-irreducibility", instance, "fail", "Lie algebra center has dimension 1 > 0"
        )

    # (b) no proper nonzero invariant subspace
    basis = lie_algebra_basis(spec, p)
    ops = [_ad_matrix(g, p, basis, spec.n) for g in _elementary_mod(spec, p)]
    mode, sub = _invariant_subspace_scan(ops, p, spec.dim)
    if sub is not None:
        what = (
            f"invariant subspace of dimension {len(sub)}: rows {sub}"
            if mode == "exhaustive-subspaces"
            else f"line {tuple(sub[0])} generates a proper invariant subspace"
        )
        return CheckResult("adjoint-irreducibility", instance, "fail", what, mode)

    n_roots = spec.center_order_mod(p)  # (c) by the lemma
    return CheckResult(
        "adjoint-irreducibility", instance, "pass",
        f"no center, no invariant subspace, Ad-kernel = {n_roots} scalar(s)",
        mode,
    )


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

    Each row is one pass that replays left(x) along the BFS tree and ORs in
    the class of each product as it is made, over an edge list (parent[y],
    right[via[y]], class of y) for y = 1, 2, ... built once for all rows.
    """
    class_of = [0] * len(table)
    for ci, cls in enumerate(classes):
        for x in cls:
            class_of[x] = ci
    bits = [1 << ci for ci in range(len(classes))]
    bit = [bits[ci] for ci in class_of]  # shared: one int object per class, not per element
    right = table.right
    edges = list(zip(table.parent[1:], [right[s] for s in table.via[1:]], class_of[1:]))
    prod = []
    for cls in classes:
        x = cls[0]
        out = [x]  # out[y] = index of elements[x] * elements[y]
        add = out.append
        row = [0] * len(classes)
        row[class_of[0]] = bit[x]
        for p, r, cy in edges:
            xy = r[out[p]]
            add(xy)
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
    atom <Z, C>; then one worklist that joins each subgroup it has found
    with each atom, starting from Z.  Every normal subgroup above the center
    is a join of these atoms (it is generated by the classes it contains),
    and joining one atom at a time reaches every such join, so the family is
    complete.  Subgroups are class bitmasks and each closure is a fixpoint
    of class products (class_product_table, _class_closure).
    """
    classes = conjugacy_classes(table)
    prod = class_product_table(table, classes)
    # the classes are the generator-conjugation orbits, so the center is
    # exactly their fixed points: the singleton classes
    z_mask = sum(1 << ci for ci, cls in enumerate(classes) if len(cls) == 1)

    atoms = {_class_closure(z_mask | 1 << ci, prod) for ci in range(len(classes))}
    found = [z_mask]  # the center is already a subgroup
    subgroups = set(found)
    for sub in found:  # the list grows while it is walked
        for atom in atoms:
            if atom & ~sub:
                join = _class_closure(sub | atom, prod)
                if join not in subgroups:
                    subgroups.add(join)
                    found.append(join)
    out = [
        frozenset(x for ci in _bits(mask) for x in classes[ci]) for mask in subgroups
    ]
    assert all(len(table) % len(s) == 0 for s in out)  # Lagrange
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def filtration_center_subgroups(table: FiniteGroupTable) -> list[frozenset[int]]:
    """The predicted normal subgroups G^i Z(G) for i = 0..k, as index sets.

    g lies in G^i exactly when its level, gcd(p^k, detection_gcd(g)), is at
    least p^i (_levels).  One max pass per central z != I, through left(z),
    leaves each g with the largest level over its coset Z g (Z is a group),
    and g lies in G^i Z exactly when that central level is at least p^i.
    The G^i Z form a chain, so distinct ones differ in size."""
    p, k = _prime_power_modulus(table.modulus)
    level = _levels(table)
    for z in table.center[1:]:  # center[0] = 0 is I
        # max of each pair, inline: a call to the builtin max costs twice as much
        level = [a if a > b else b for a, b in zip(level, map(level.__getitem__, table.left(z)))]
    above = (map(operator.ge, level, itertools.repeat(p**i)) for i in range(k + 1))
    out = {frozenset(itertools.compress(range(len(level)), at)) for at in above}
    return sorted(out, key=len)


def _levels(table: FiniteGroupTable) -> list[int]:
    """gcd(m, detection_gcd(g)) per element g, off its code: row r of g - I
    adds gcd(m, row - e_r), one lookup in a table by row code."""
    n, m = table.spec.n, table.modulus
    vecs = list(itertools.product(range(m), repeat=n))  # row code -> row vector
    gets = [[math.gcd(m, *v[:r], v[r] - 1, *v[r + 1:]) for v in vecs].__getitem__ for r in range(n)]
    return list(map(math.gcd, *map(map, gets, _row_codes(table.codes, n, m))))


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
    """Does G/Z(G) have trivial center?  (Holds for good primes.  For sl2 it
    still holds at SL_2(Z/4), whose second center is its center of order 2;
    the first sl2 modulus where it fails is 16.)"""
    instance = f"{table.spec.name},m={table.modulus}"
    center = table.center
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
    by_center = [table.left(z) if z else range(len(table)) for z in center]
    return sorted(set.intersection(
        *(set().union(*(_fixed(c, lz) for lz in by_center)) for c in table.conjugations)
    ))


# ---------------------------------------------------------------------------
# strong approximation


def strong_approx_check(
    spec: GroupSpec,
    N: int,
    m: int,
    trials: int = 64,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
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
    expected = spec.order_mod(m)  # rejects m < 1 first
    if math.gcd(N, m) != 1:
        raise ValueError(f"need gcd(N, m) = 1, got N={N}, m={m}")
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
        roots = spec.roots
        conjugates = {}  # insertion-ordered, each once
        for _ in range(trials):
            i, j = roots[rng.randrange(len(roots))]
            sign = 1 if rng.randrange(2) == 0 else -1
            core = reduce_mod(matgrp.elementary(spec.n, i, j, sign * N), m)
            w = identity(spec.n)
            for _ in range(rng.randrange(0, 13)):
                w = mat_mul_mod(w, base_gens[rng.randrange(len(base_gens))], m)
            winv = mat_inv_mod(w, m)
            conjugates[mat_mul_mod(mat_mul_mod(w, core, m), winv, m)] = None
        gens = list(conjugates)
    reached, _, _, _ = closure(gens or [identity(spec.n)], m, budget, stop_at=expected)
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
