"""Exact integer arithmetic helpers: primality, factorization, lcm valuations.

Everything here is deterministic.  Primality is Miller-Rabin with the fixed
witness set that is known to be exact below 3.3 * 10**24; inputs at or above
that bound are rejected rather than answered probabilistically.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator

# Deterministic Miller-Rabin witnesses, exact for n < 3 317 044 064 679 887 385 961 981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SIEVE_CAP = 10**8


class PrimalityRangeError(ValueError):
    """Raised when a primality query exceeds the deterministic witness range."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 3.3e24."""
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    if n >= MR_DETERMINISTIC_BOUND:
        raise PrimalityRangeError(
            f"{n} exceeds the deterministic Miller-Rabin bound {MR_DETERMINISTIC_BOUND}"
        )
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve of Eratosthenes."""
    if limit > _SIEVE_CAP:
        raise ValueError(f"sieve limit {limit} exceeds cap {_SIEVE_CAP}")
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit + 1) if sieve[i]]


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, Brent's variant, deterministic."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable for n <= 1e18


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n >= 1 as sorted (prime, exponent) pairs; () for n = 1."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    acc: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            acc[p] = acc.get(p, 0) + 1
            n //= p
    if n > 1:
        _factor_into(n, acc)
    return tuple(sorted(acc.items()))


def lcm_valuation(k: int, p: int) -> int:
    """The p-adic valuation of lcm(1..k): the largest i with p**i <= k.

    This never materializes the lcm, so k may be large.
    """
    if k < 1:
        raise ValueError("lcm_valuation requires k >= 1")
    i = 0
    q = p
    while q <= k:
        i += 1
        q *= p
    return i


def least_nondivisor(m: int) -> int:
    """The smallest integer d >= 2 that does not divide m.

    The result is always a prime power: if d = uv with coprime u, v > 1 then
    u and v both divide m by minimality, hence so does d.
    """
    if m < 1:
        raise ValueError("least_nondivisor requires m >= 1")
    # Only prime powers need testing, in blocks: q divides m exactly when it
    # divides m mod P for a product P of prime powers that q divides, and
    # reducing a huge m once per block beats once per q.
    stream = prime_power_stream()
    while True:
        block = [q for q, _, _ in itertools.islice(stream, 64)]
        r = m % math.prod(block)
        for q in block:
            if r % q:
                return q


def is_prime_power(q: int) -> tuple[int, int] | None:
    """(p, i) with q = p**i if q is a prime power, else None."""
    f = factorize(q) if q >= 2 else ()
    return f[0] if len(f) == 1 else None


# One sieve pass fills both columns, up to _SIEVE[0]: the sorted (q, p, i)
# with q = p**i of every prime power, and the primes.
_SIEVE: tuple[int, list[tuple[int, int, int]], list[int]] = (0, [], [])


def prime_power_stream(limit: int | None = None, above: int = 0):
    """Every prime power q > above as (q, p, i) with q = p**i, in increasing
    order; endless, or only the q <= limit when a limit is given."""
    return _read_sieve(1, _VALUE, limit, above)


def primes(limit: int | None = None):
    """The primes in increasing order (those <= limit, if given), read from
    the sieve cache, so a range it already holds sieves nothing."""
    return _read_sieve(2, None, limit, 0)


def _read_sieve(column: int, key, limit: int | None, above: int):
    """The entries of one _SIEVE column whose key exceeds above, in order.

    Read from the cache filled straight from the sieve, so no q is ever
    factorized; the first entry past above is found by bisecting the cache.
    The cache grows fourfold whenever a reader runs past its end, but never
    past the sieve cap: only a reader that runs past a cache sitting at the
    cap raises.  A reader with a limit grows it to that limit, but at least
    twofold, so readers with rising limits share O(log) sieves.  A limit
    above the sieve cap, or below `above`, raises at once.
    """
    if limit is not None and limit > _SIEVE_CAP:
        raise ValueError(f"sieve limit {limit} exceeds cap {_SIEVE_CAP}")
    if limit is not None and limit < above:
        raise ValueError("limit must be at least above")
    k = None  # index of the next entry, once the cache covers above
    while True:
        sieved_to, cache = _SIEVE[0], _SIEVE[column]
        if k is None and sieved_to >= above:
            k = bisect.bisect_right(cache, above, key=key)
        if limit is not None and sieved_to >= limit:
            yield from itertools.islice(cache, k, bisect.bisect_right(cache, limit, lo=k, key=key))
            return
        if k is not None:
            yield from itertools.islice(cache, k, None)
            k = len(cache)
        if sieved_to >= _SIEVE_CAP:
            raise ValueError(f"prime-power stream ran past the sieve cap {_SIEVE_CAP}")
        grow = 4 * sieved_to if sieved_to else 512
        if limit is not None:
            grow = min(grow, max(limit, 2 * sieved_to))
        _grow_sieve(min(grow, _SIEVE_CAP))


_VALUE = operator.itemgetter(0)

# (k, lcm(1..k)) of the last lcm_upto call.
_LCM_MEMO = (1, 1)


def lcm_upto(k: int) -> int:
    """lcm(1..k), carried upward from the previous call.

    lcm(1..k) = p * lcm(1..k-1) when k = p**i and equals lcm(1..k-1)
    otherwise, so rising k (a range of rows) multiply in one prime per prime
    power; a smaller k starts again from the empty lcm(1..0) = 1.
    """
    global _LCM_MEMO
    top, acc = _LCM_MEMO if _LCM_MEMO[0] <= k else (0, 1)
    for _, p, _ in prime_power_stream(k, above=top):
        acc *= p
    _LCM_MEMO = (max(k, 1), acc)
    return acc


def prime_powers_up_to(limit: int) -> list[int]:
    """Sorted prime powers q <= limit, read from the sieve cache."""
    return [q for q, _, _ in prime_power_stream(limit)]


def _grow_sieve(limit: int) -> None:
    """Replace _SIEVE by one sieve pass up to max(limit, 512)."""
    global _SIEVE
    cap = max(limit, 512)
    ps = primes_up_to(cap)
    triples = []
    for p in ps:
        q, i = p, 1
        while q <= cap:
            triples.append((q, p, i))
            q, i = q * p, i + 1
    _SIEVE = (cap, sorted(triples), ps)
