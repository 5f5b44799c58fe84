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

import functools
import heapq
import math
import operator
from collections import namedtuple

from resfin import arith

Mat = tuple[tuple[int, ...], ...]


class SingularMatrixError(ValueError):
    """Matrix not invertible in the requested ring."""


class UndetectableError(ValueError):
    """The element is the identity; no finite quotient detects it."""


class RangeExhaustedError(RuntimeError):
    """A bounded search ended with no detecting modulus."""


class Record:
    """An immutable element record: fields in __slots__, set once by the
    subclass's __init__ through object.__setattr__, equal only within one
    type, hashed as the tuple of fields, shown as Name(field=value, ...).
    Unlike the namedtuple records it has no tuple + and *, so 3 * x raises
    TypeError."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


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
    """Exact integer determinant of a square matrix given by its rows."""
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
    # fraction-free (Bareiss) elimination: every division is exact
    a = [list(row) for row in a]
    sign, prev = 1, 1
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
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def compile_lambda(params: str, expr: str):
    """The function lambda params: expr, with gcd in scope; expr is built
    from integer literals and indices only."""
    return eval(f"lambda {params}: {expr}", {"gcd": math.gcd})


@functools.lru_cache(maxsize=None)
def gcd_key(n: int, flat: bool, central: bool):
    """g -> the detection gcd (of the entries of g - I) or, with central,
    the gcd of the off-diagonal entries and the g_ii - g_11, which
    _central_gcd completes with det g - 1; compiled once per (n, layout,
    kind), for nested rows or, with flat, row-major flat tuples."""
    at = (lambda r, c: f"g[{r * n + c}]") if flat else (lambda r, c: f"g[{r}][{c}]")
    if central:
        terms = [at(r, c) for r in range(n) for c in range(n) if r != c]
        terms += [f"{at(i, i)} - {at(0, 0)}" for i in range(1, n)]
    else:
        terms = [at(r, c) + (" - 1" if r == c else "") for r in range(n) for c in range(n)]
    return compile_lambda("g", f"gcd({', '.join(terms)})")


def detection_gcd(a: Mat) -> int:
    """gcd of the entries of A - I; 0 encodes the identity matrix.

    A dies in SL_n(Z/m) exactly when m divides this gcd (with the usual
    convention that every m divides 0).
    """
    return gcd_key(len(a), False, False)(a)


# A finite quotient that detects a matrix, and how big it is.
DetectionResult = namedtuple("DetectionResult", "modulus quotient_order central_quotient "
                             "search_complete", defaults=(False, None))


def _central_gcd(a: Mat) -> int:
    """gcd of the off-diagonal entries of a, of the a_ii - a_11 and of det a - 1.

    Lemma: a is central mod q (a scalar lambda with lambda^n = 1) exactly
    when q divides it.  q divides the first two parts exactly when
    a = lambda * I mod q, and then lambda^n = det a mod q; for det a = 1 the
    last part is 0, as lambda^n = 1 comes for free.
    """
    return math.gcd(det(a) - 1, gcd_key(len(a), False, True)(a))


class QuotientSearch:
    """The least congruence quotient of `spec` seeing an element known only
    through survives(q, p, i): is its image mod q = p**i not the identity?
    With allow_central, SL_n(Z/q) / center competes too, unless
    central(q, p, i) says the image is central mod q.  Keys order as the
    tuple (order, q, central flag).

    Lemma.  Prime powers suffice: SL_n(Z/m), also modulo its center, is the
    product over the prime powers exactly dividing m, and the element
    survives mod m only if it does mod one of them.  Each q = p**i is keyed
    by spec.order_pp(p, i) and spec.center_pp(p, i), with the (p, i) the
    prime-power stream gives, so the search factorizes nothing.  Once q^dim
    times spec.order_floor(allow_central) (lemma there) exceeds the least
    order found, no prime power from q on can beat it: the stop rule.

    least(survives) reads the stream past `above` until the stop rule holds
    against the least surviving key: the least over all surviving q when no
    q <= above survives.  The stream position and the heap of survivors
    persist between calls, so one search serves a run of predicates in
    which survival never returns; dead keys are dropped as they surface.
    """

    def __init__(self, spec, allow_central: bool = False, above: int = 0, central=None):
        self.spec, self.allow_central, self.central = spec, allow_central, central
        self.floor = spec.order_floor(allow_central)
        self._stream = arith.prime_power_stream(above=above)
        self._ahead = next(self._stream)
        self._heap: list[tuple[tuple[int, int, bool], tuple[int, int, int]]] = []

    def least(self, survives) -> DetectionResult:
        heap, (num, den), dim = self._heap, self.floor, self.spec.dim
        while heap and not survives(*heap[0][1]):
            heapq.heappop(heap)
        q, p, i = self._ahead
        while not heap or q**dim * num <= heap[0][0][0] * den:
            if survives(q, p, i):
                heapq.heappush(heap, (self._key(q, p, i), (q, p, i)))
            q, p, i = next(self._stream)
        self._ahead = q, p, i
        order, modulus, central = heap[0][0]
        return DetectionResult(modulus, order, central)

    def _key(self, q: int, p: int, i: int) -> tuple[int, int, bool]:
        order = self.spec.order_pp(p, i)
        if self.allow_central and not (self.central and self.central(q, p, i)):
            z = self.spec.center_pp(p, i)
            if z > 1:
                return order // z, q, True
        return order, q, False


def congruence_D(a: Mat, spec, allow_central: bool = False) -> DetectionResult:
    """Minimal quotient in the congruence family of `spec` detecting `a`.

    `spec` supplies the group side: order_pp, center_pp, order_floor, dim, n.
    With allow_central, quotients SL_n(Z/q) / center compete as well, counting
    only when the image of `a` is not itself central mod q.

    a dies mod q exactly when q divides g = detection_gcd(a) and is central
    mod q exactly when q divides h = _central_gcd(a), so the answer depends
    on the detection key (g, h) alone; a fresh QuotientSearch per call
    searches it from q = 2.
    """
    if len(a) != spec.n:
        raise ValueError(f"matrix size {len(a)} does not match spec n={spec.n}")
    g = detection_gcd(a)
    if g == 0:
        raise UndetectableError("identity is undetectable")
    central = None
    if allow_central:
        h = _central_gcd(a)
        central = lambda q, p, i: h % q == 0  # noqa: E731
    return QuotientSearch(spec, allow_central, central=central).least(lambda q, p, i: g % q != 0)


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
