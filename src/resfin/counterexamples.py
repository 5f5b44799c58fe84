"""Two groups whose detection growth separates from their relatives.

The lamplighter Z/2 wr Z has candidates delta_1 + delta_{1+lcm(1..k)} whose
minimal detecting fold Z/2 wr Z/m needs m > k, so the quotient order m*2^m
explodes while every SQUARED element is already seen by a logarithmically
small fold: detection growth and its squared variant genuinely differ.

The plane group Z^2 x| Q (Q the eight signed permutation matrices) contains
Z^2 with index 8, yet the candidates (lcm(1..k), 0) need quotients of order
8d^2 with d > k, against the log-sized quotients that suffice inside Z^2
itself: detection growth is not stable under finite index.

Both families come with the certificates that make the lower bounds checkable
on concrete quotients: injectivity of the witness set for the lamplighter,
and the kernel-lattice index bound for the semidirect product.  The kernel
certificate scans no vectors: the fold is additive on translations, so the
kernel lattice is the solution set of a u1 + b u2 = 0 for the folds u1, u2
of the two unit vectors, and its Hermite basis comes from u1 and u2 by
extended gcds, in O(log d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from resfin import arith, matgrp
from resfin.chevalley import CheckResult
from resfin.matgrp import Mat, RangeExhaustedError, UndetectableError

DEFAULT_FOLD_LIMIT = 256


# ---------------------------------------------------------------------------
# lamplighter Z/2 wr Z


@dataclass(frozen=True)
class LampElement:
    """(lamp configuration, lamplighter position): support is the set of
    lit positions, multiplication shifts the right factor's lamps."""

    support: frozenset[int]
    shift: int

    def __mul__(self, other: LampElement) -> LampElement:
        moved = {i + self.shift for i in other.support}
        return LampElement(self.support ^ moved, self.shift + other.shift)

    def inv(self) -> LampElement:
        return LampElement(
            frozenset(i - self.shift for i in self.support), -self.shift
        )

    def is_identity(self) -> bool:
        return not self.support and self.shift == 0


LAMP_IDENTITY = LampElement(frozenset(), 0)


def delta(i: int) -> LampElement:
    """A single lit lamp at position i."""
    return LampElement(frozenset((i,)), 0)


def lamp_fold(g: LampElement, m: int) -> tuple[frozenset[int], int]:
    """Image of g in Z/2 wr Z/m: lamps collapse onto residues mod m, keeping
    the parity of how many land on each; the shift reduces mod m."""
    if m < 2:
        raise ValueError("fold modulus must be >= 2")
    parity: set[int] = set()
    for i in g.support:
        parity ^= {i % m}
    return frozenset(parity), g.shift % m


def folded_mul(
    a: tuple[frozenset[int], int], b: tuple[frozenset[int], int], m: int
) -> tuple[frozenset[int], int]:
    moved = {(i + a[1]) % m for i in b[0]}
    return a[0] ^ moved, (a[1] + b[1]) % m


def lamp_candidate(k: int, corrected: bool = True) -> LampElement:
    """delta_1 + delta_{1+lcm(1..k)}, or the uncorrected delta_1 + delta_lcm.

    The uncorrected form dies under no small fold on the shifted slot, so it
    is detected already at m = 2 whenever the lcm is even; the corrected form
    survives a fold exactly when the modulus divides the lcm.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    l = arith.lcm_upto(k)
    pos = 1 + l if corrected else l
    return delta(1) * delta(pos)


@dataclass(frozen=True)
class LampDetection:
    modulus: int
    order: int


def lamp_detect(g: LampElement, m_max: int = DEFAULT_FOLD_LIMIT) -> LampDetection:
    """Smallest fold modulus m whose image of g is nontrivial; order m*2^m."""
    if g.is_identity():
        raise UndetectableError("identity dies in every fold")
    for m in range(2, m_max + 1):
        support, shift = lamp_fold(g, m)
        if support or shift:
            return LampDetection(m, m * 2**m)
    raise RangeExhaustedError(f"no fold modulus <= {m_max} detects the element")


def lamp_quotient_D(k: int, corrected: bool = True) -> LampDetection:
    """Minimal detecting fold of the k-th candidate, without materializing
    the fold: the corrected candidate survives mod m iff m does not divide
    lcm(1..k), so the answer is the least prime power above k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if corrected:
        m = next(arith.prime_power_stream(above=k))[0]
    else:
        m = arith.least_nondivisor(max(arith.lcm_upto(k) - 1, 1))
    return LampDetection(m, m * 2**m)


def lamp_injectivity_certificate(k: int, m: int) -> CheckResult:
    """Check that the witness set {(delta_n, t) : n, t <= floor(k/4)} stays
    injective in the detecting fold Z/2 wr Z/m.

    Lemma: the fold of (delta_n, t) is ({n mod m}, t mod m), so as n and t
    range independently the image set is the product of the lamp-axis
    images {n mod m} and the shift-axis images {t mod m}.  Each axis is
    folded with lamp_fold on its own, and the count of distinct images is
    the product of the two axis counts.
    """
    if k < 4:
        raise ValueError("the witness set is empty below k = 4")
    if all(e <= arith.lcm_valuation(k, p) for p, e in arith.factorize(m)):
        raise ValueError(f"m = {m} divides lcm(1..{k}), so it detects nothing")
    side = k // 4
    lamps = {lamp_fold(delta(n), m) for n in range(1, side + 1)}
    shifts = {lamp_fold(LampElement(frozenset(), t), m) for t in range(1, side + 1)}
    images = len(lamps) * len(shifts)
    expected = side * side
    status = "pass" if images == expected else "fail"
    return CheckResult(
        "lamp_injectivity",
        f"k={k}, m={m}",
        status,
        f"{images} distinct images, expected {expected}",
    )


# ---------------------------------------------------------------------------
# Z^2 x| Q for the eight signed permutation matrices


_SIGNED_PERMUTATIONS: tuple[Mat, ...] = (
    ((1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, 1), (-1, 0)),
    ((0, -1), (1, 0)), ((0, -1), (-1, 0)), ((-1, 0), (0, 1)), ((-1, 0), (0, -1)),
)


def signed_permutations() -> tuple[Mat, ...]:
    """The order-8 subgroup of GL_2(Z) generated by diag(1,-1) and the swap:
    the matrices with one entry +-1 in each row and column, that is +-1 on
    the diagonal or on the anti-diagonal."""
    return _SIGNED_PERMUTATIONS


def _apply(q: Mat, v: tuple[int, int]) -> tuple[int, int]:
    return (
        q[0][0] * v[0] + q[0][1] * v[1],
        q[1][0] * v[0] + q[1][1] * v[1],
    )


@dataclass(frozen=True)
class SemidirectElement:
    """(vector, signed permutation) with (v, q)(w, r) = (v + q w, q r)."""

    vec: tuple[int, int]
    rot: Mat

    def __post_init__(self):
        if self.rot not in _SIGNED_PERMUTATIONS:
            raise ValueError("rotation part must be one of the 8 signed permutations")

    def __mul__(self, other: SemidirectElement) -> SemidirectElement:
        w = _apply(self.rot, other.vec)
        return SemidirectElement(
            (self.vec[0] + w[0], self.vec[1] + w[1]),
            matgrp.mat_mul(self.rot, other.rot),
        )

    def inv(self) -> SemidirectElement:
        rinv = matgrp.mat_inv(self.rot)
        w = _apply(rinv, self.vec)
        return SemidirectElement((-w[0], -w[1]), rinv)

    def is_identity(self) -> bool:
        return self.vec == (0, 0) and self.rot == matgrp.identity(2)


SEMIDIRECT_IDENTITY = SemidirectElement((0, 0), matgrp.identity(2))


def semidirect_candidate(k: int) -> SemidirectElement:
    if k < 2:
        raise ValueError("k must be >= 2")
    return SemidirectElement((arith.lcm_upto(k), 0), matgrp.identity(2))


def semidirect_fold(g: SemidirectElement, d: int) -> tuple[tuple[int, int], Mat]:
    """Image in (Z/d)^2 x| Q: reduce the vector part mod d."""
    if d < 1:
        raise ValueError("fold modulus must be >= 1")
    return (g.vec[0] % d, g.vec[1] % d), g.rot


@dataclass(frozen=True)
class SemidirectDetection:
    modulus: int
    order: int


def semidirect_detect(
    g: SemidirectElement, d_max: int = DEFAULT_FOLD_LIMIT
) -> SemidirectDetection:
    """Smallest d with nontrivial image in (Z/d)^2 x| Q, of order 8 d^2."""
    if g.is_identity():
        raise UndetectableError("identity dies in every fold")
    if g.rot != matgrp.identity(2):
        return SemidirectDetection(1, 8)
    for d in range(2, d_max + 1):
        vec, _ = semidirect_fold(g, d)
        if vec != (0, 0):
            return SemidirectDetection(d, 8 * d * d)
    raise RangeExhaustedError(f"no fold modulus <= {d_max} detects the element")


def semidirect_quotient_D(k: int) -> SemidirectDetection:
    """Minimal detecting fold of (lcm(1..k), 0): the least d not dividing
    the lcm, i.e. the least prime power above k, with quotient order 8 d^2."""
    if k < 2:
        raise ValueError("k must be >= 2")
    d = next(arith.prime_power_stream(above=k))[0]
    return SemidirectDetection(d, 8 * d * d)


def semidirect_kernel_structure_check(d: int) -> CheckResult:
    """For the fold over d, confirm ker cap Z^2 is a Q-stable lattice that
    contains d Z x d Z with index at most 4.

    Lemma: on translations the fold is additive, so (a, b) folds to
    a u1 + b u2 in (Z/d)^2, where u1 and u2 are the folds of e_1 and e_2,
    and the kernel is {(a, b) : a u1 + b u2 = 0}.  _kernel_basis gives its
    Hermite basis from u1 and u2 alone, and the containment, the index and
    Q-stability are each verified on that basis.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    one = matgrp.identity(2)
    u1, u2 = (semidirect_fold(SemidirectElement(e, one), d)[0] for e in ((1, 0), (0, 1)))
    basis = _kernel_basis(d, u1, u2)
    det = basis[0][0] * basis[1][1]
    contains = _in_lattice((d, 0), basis) and _in_lattice((0, d), basis)
    stable = all(
        _in_lattice(_apply(q, v), basis) for q in _SIGNED_PERMUTATIONS for v in basis
    )
    index = d * d // det if contains else 0
    ok = contains and stable and 1 <= index <= 4
    return CheckResult(
        "semidirect_kernel_structure",
        f"d={d}",
        "pass" if ok else "fail",
        f"basis={basis}, index of dZxdZ = {index}, Q-stable={stable}",
    )


def _kernel_basis(
    d: int, u1: tuple[int, int], u2: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Hermite basis ((g, y), (0, c)) of {(a, b) : a u1 + b u2 = 0 in (Z/d)^2},
    with g, c >= 1 and 0 <= y < c, in O(log d) steps.

    Write U for the matrix with columns u1 and u2, so the kernel is
    {x in Z^2 : U x = 0 mod d}.  With s x2 + t y2 = h = gcd(x2, y2) for
    u2 = (x2, y2), the rows (s, t) and (y2 / h, -x2 / h) form a unimodular
    matrix (the identity when h = 0), and multiplying U by it on the left
    keeps the kernel and turns U into [[p, h], [r, 0]].  So (a, b) lies in
    the kernel iff a r = 0 mod d and b h = -a p mod d.  The second has a
    solution b iff e = gcd(h, d) divides a p, so the first coordinates form
    g Z with g = lcm(d / gcd(d, r), e / gcd(e, p)).  The b with (0, b) in
    the kernel are the multiples of c = d / e, and y solves
    y (h / e) = -g p / e mod c, where h / e is a unit mod c.
    """
    (x1, y1), (x2, y2) = u1, u2
    h, s, t = _extended_gcd(x2, y2)
    if h:
        p, r = s * x1 + t * y1, (y2 * x1 - x2 * y1) // h
    else:
        p, r = x1, y1
    e = math.gcd(h, d)
    g = math.lcm(d // math.gcd(d, r), e // math.gcd(e, p))
    c = d // e
    y = -g * p // e * pow(h // e, -1, c) % c
    return (g, y), (0, c)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(h, s, t) with s a + t b = h = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _in_lattice(v: tuple[int, int], basis) -> bool:
    (g, y), (_, c) = basis
    if v[0] % g:
        return False
    a = v[0] // g
    return (v[1] - a * y) % c == 0


# ---------------------------------------------------------------------------
# free abelian reference point


@dataclass(frozen=True)
class AbelianDetection:
    modulus: int
    order: int


def abelian_candidate(k: int) -> tuple[int, int]:
    """(lcm(1..k), 0): the free-abelian analogue of the other candidates,
    useful as the baseline every extension is compared against."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return (arith.lcm_upto(k), 0)


def abelian_D(v: tuple[int, ...]) -> AbelianDetection:
    """Minimal finite quotient of Z^d seeing v: a coordinate functional into
    Z/a for the least a not dividing gcd(v)."""
    if not v or all(c == 0 for c in v):
        raise UndetectableError("zero survives in no finite quotient")
    g = 0
    for c in v:
        g = math.gcd(g, c)
    a = arith.least_nondivisor(g)
    return AbelianDetection(a, a)
