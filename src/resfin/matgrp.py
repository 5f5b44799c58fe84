"""Exact integer and modular matrices, and minimal detecting quotients.

Matrices are immutable tuples of tuples of Python ints, so they hash and
compare exactly and never overflow.  A matrix over Z/m is the same tuple
shape with entries already reduced; the modulus travels alongside it rather
than inside it, which keeps group tables of a few hundred thousand elements
cheap.

The central notion: an integer matrix A in SL_n(Z) dies in SL_n(Z/m) exactly
when m divides the gcd of the entries of A - I.  The minimal finite quotient
in the congruence family that still sees A is therefore a search over prime
powers q not dividing that gcd.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from resfin import arith

Mat = tuple[tuple[int, ...], ...]


class SingularMatrixError(ValueError):
    """Matrix not invertible in the requested ring."""


class UndetectableError(ValueError):
    """The element is the identity; no finite quotient detects it."""


class RangeExhaustedError(RuntimeError):
    """A bounded search ended with no detecting modulus."""


def mat(rows) -> Mat:
    """Normalize an iterable of rows into a square tuple-of-tuples matrix."""
    m = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return m


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def elementary(n: int, i: int, j: int, z: int) -> Mat:
    """E_ij(z): identity plus z in position (i, j), 1-based indices, i != j."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("elementary matrix needs distinct in-range indices")
    return tuple(
        tuple(
            (1 if r == c else 0) + (z if (r, c) == (i - 1, j - 1) else 0)
            for c in range(n)
        )
        for r in range(n)
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a)


def mat_mul_mod(a: Mat, b: Mat, m: int) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % m for col in bt) for row in a)


def sparse_columns(s: Mat) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each column of s as its nonzero (row, value) pairs: column c of g * s
    is the sum of value * (column row of g) over these pairs."""
    n = len(s)
    return tuple(tuple((r, s[r][c]) for r in range(n) if s[r][c]) for c in range(n))


def reduce_mod(a: Mat, m: int) -> Mat:
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return tuple(tuple(x % m for x in row) for row in a)


def det(a: Mat) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        term = a[0][j] * det(minor)
        total += term if j % 2 == 0 else -term
    return total


def adjugate(a: Mat) -> Mat:
    n = len(a)
    if n == 1:
        return ((1,),)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(a[r][c] for c in range(n) if c != j)
                for r in range(n)
                if r != i
            )
            cof[i][j] = (-1) ** (i + j) * det(minor)
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))  # transpose


def mat_inv(a: Mat) -> Mat:
    """Exact inverse of an integer matrix with det +-1."""
    d = det(a)
    if d not in (1, -1):
        raise SingularMatrixError(f"det {d} is not a unit in Z")
    adj = adjugate(a)
    if d == 1:
        return adj
    return tuple(tuple(-x for x in row) for row in adj)


def mat_inv_mod(a: Mat, m: int) -> Mat:
    """Inverse mod m; requires det(a) to be a unit mod m."""
    d = det(a) % m
    if math.gcd(d, m) != 1:
        raise SingularMatrixError(f"det {d} is not a unit mod {m}")
    dinv = pow(d, -1, m)
    adj = adjugate(a)
    return tuple(tuple(x * dinv % m for x in row) for row in adj)


def mat_pow(a: Mat, e: int) -> Mat:
    if e < 0:
        return mat_pow(mat_inv(a), -e)
    out = None
    while e:
        if e & 1:
            out = a if out is None else mat_mul(out, a)
        e >>= 1
        if e:
            a = mat_mul(a, a)
    return identity(len(a)) if out is None else out


def parse_matrix(text: str) -> Mat:
    """Parse the row-major text form, e.g. "1,12;0,1"."""
    try:
        rows = [
            [int(x) for x in row.split(",")] for row in text.strip().split(";")
        ]
    except ValueError as exc:
        raise ValueError(f"bad matrix text {text!r}") from exc
    return mat(rows)


def format_matrix(a: Mat) -> str:
    return ";".join(",".join(str(x) for x in row) for row in a)


def detection_gcd(a: Mat) -> int:
    """gcd of the entries of A - I; 0 encodes the identity matrix.

    A dies in SL_n(Z/m) exactly when m divides this gcd (with the usual
    convention that every m divides 0).
    """
    return math.gcd(*(x - 1 if i == j else x for i, row in enumerate(a) for j, x in enumerate(row)))


@dataclass(frozen=True)
class DetectionResult:
    """A finite quotient that detects a matrix, and how big it is."""

    modulus: int
    quotient_order: int
    central_quotient: bool = False
    search_complete: bool | None = None

    def key(self) -> tuple[int, int, int]:
        return (self.quotient_order, self.modulus, 1 if self.central_quotient else 0)


def _central_gcd(a: Mat) -> int:
    """gcd of the off-diagonal entries of a, of the a_ii - a_11 and of det a - 1.

    Lemma: a is central mod q (a scalar lambda with lambda^n = 1) exactly
    when q divides it.  q divides the first two parts exactly when
    a = lambda * I mod q, and then lambda^n = det a mod q; for det a = 1 the
    last part is 0, as lambda^n = 1 comes for free.
    """
    entries = list(itertools.chain.from_iterable(a))
    a11 = entries[0]
    for t in range(0, len(entries), len(a) + 1):  # the diagonal
        entries[t] -= a11
    return math.gcd(det(a) - 1, *entries)


def is_central_mod(a: Mat, m: int) -> bool:
    """Is a (mod m) a central element of SL_n(Z/m), i.e. a scalar n-th root of 1?"""
    return _central_gcd(a) % m == 0


def _order_floor_fraction(n: int) -> tuple[int, int]:
    # |SL_n(Z/q)| >= q^dim * prod_{i=2..n} (1 - 2^-i) for every prime power q;
    # the product is the worst case p = 2, returned as an exact fraction.
    num, den = 1, 1
    for i in range(2, n + 1):
        num *= 2**i - 1
        den *= 2**i
    return num, den


def quotient_key(spec, q: int, allow_central: bool, central: bool = False) -> tuple[int, int, bool]:
    """(order, q, central flag), ordered as DetectionResult.key(), of the
    least quotient mod the prime power q seeing an element that survives
    mod q: SL_n(Z/q), or with allow_central SL_n(Z/q) / center when the
    center is nontrivial and the image is not `central` mod q."""
    order = spec.order_mod(q)
    if allow_central and not central:
        z = spec.center_order_mod(q)
        if z > 1:
            return order // z, q, True
    return order, q, False


def stop_rule(spec, allow_central: bool) -> tuple[int, int, int]:
    """(dim, fnum, scale) such that every quotient_key order at q and at all
    larger prime powers exceeds `order` once q**dim * fnum > order * scale:
    q^dim times the universal order floor fnum / fden exceeds it.  Central
    quotients are smaller by the center order, which never exceeds 2n (n-th
    roots of unity in a unit group with <= 2 cyclic parts), so the bound
    then has slack 2n."""
    fnum, fden = _order_floor_fraction(spec.n)
    return spec.dim, fnum, fden * (2 * spec.n if allow_central else 1)


def min_congruence_quotient(
    spec, survives, allow_central: bool = False, central=None, above: int = 0
) -> DetectionResult:
    """The least (order, modulus) congruence quotient of `spec` seeing an
    element known only through survives(q, p, i): is its image mod q = p**i
    not the identity?  With allow_central, SL_n(Z/q) / center competes too,
    unless central(q, p, i) says the image is central mod q.

    Prime powers suffice: SL_n(Z/m), also modulo its center, is the product
    over the prime powers exactly dividing m, and the element survives mod m
    only if it does mod one of them.  q runs upwards from the first prime
    power past `above` until stop_rule holds against the best order, so the
    result is the least quotient_key over all surviving prime powers when
    the caller knows that no q <= above survives.
    """
    dim, fnum, scale = stop_rule(spec, allow_central)
    best: tuple[int, int, bool] | None = None
    for q, p, i in arith.prime_power_stream(above=above):
        if best is not None and q**dim * fnum > best[0] * scale:
            break
        if survives(q, p, i):
            cand = quotient_key(spec, q, allow_central, central is not None and central(q, p, i))
            if best is None or cand < best:
                best = cand
    return DetectionResult(best[1], best[0], best[2])


def congruence_D(a: Mat, spec, allow_central: bool = False) -> DetectionResult:
    """Minimal quotient in the congruence family of `spec` detecting `a`.

    `spec` supplies the group side: order_mod(m), center_order_mod(q), dim, n.
    With allow_central, quotients SL_n(Z/q) / center compete as well, counting
    only when the image of `a` is not itself central mod q.

    a dies mod q exactly when q divides g = detection_gcd(a) and is central
    mod q exactly when q divides h = _central_gcd(a), so the answer depends
    on the detection key (g, h) alone; min_congruence_quotient searches.
    """
    if len(a) != spec.n:
        raise ValueError(f"matrix size {len(a)} does not match spec n={spec.n}")
    g = detection_gcd(a)
    if g == 0:
        raise UndetectableError("identity is killed by every quotient")
    central = None
    if allow_central:
        h = _central_gcd(a)
        central = lambda q, p, i: h % q == 0  # noqa: E731
    return min_congruence_quotient(spec, lambda q, p, i: g % q != 0, allow_central, central)


def brute_force_D(a: Mat, spec, m_max: int) -> DetectionResult:
    """Oracle: scan every modulus 2..m_max, minimize (quotient order, modulus).

    Independent of congruence_D's prime-power shortcut; used to validate it.
    The search_complete flag records whether the minimum is certainly global:
    it is when m_max >= 2 * (the least detecting prime power).
    """
    if len(a) != spec.n:
        raise ValueError(f"matrix size {len(a)} does not match spec n={spec.n}")
    ident = identity(spec.n)
    best: tuple[int, int] | None = None
    least_pp: int | None = None
    for m in range(2, m_max + 1):
        if reduce_mod(a, m) == ident:
            continue
        if least_pp is None and arith.is_prime_power(m):
            least_pp = m
        order = spec.order_mod(m)
        if best is None or (order, m) < best:
            best = (order, m)
    if best is None:
        raise RangeExhaustedError(f"no modulus <= {m_max} detects the element")
    complete = least_pp is not None and m_max >= 2 * least_pp
    return DetectionResult(best[1], best[0], False, search_complete=complete)
