"""Smallest-prime-factor sieve, primes and prime powers.

The sieve stores spf[n] = smallest prime factor of n for 2 <= n <= N,
which makes the factorization of any n <= N an O(number of prime factors)
walk.  The catalogue's recurrence tables (totient, Mobius, Liouville, the
nu/Omega counts) read f(k) off f(k / spf(k)), one dyadic block of k at a
time.

This module also owns the primes <= N (:attr:`SpfSieve.primes`) and the
prime-power rows (p, k, p^k) <= bound (:func:`_prime_powers`): a
multiplicative or additive function is fixed by its values on those
rows, so the predicates, the decompositions, the Mangoldt table and the
identity suite all read them from here.

Memory is the only practical limit: the table is one int32 numpy array,
so N = 10**7 costs 40 MB and builds in well under a second.

Besides the table, a sieve caches what the prime-power fold
(``structure._prime_power_fold``) and its callers read, each built on
first use, never at build time, and only as far as the largest bound
asked for (not to the sieve's own bound):

- the fold index (:meth:`SpfSieve._fold_index`): the largest prime
  factor P(k) and the cofactor r(k) = k / P(k)^v, where P(k)^v exactly
  divides k, as two read-only int32 arrays over 0..n, 8 bytes per index
  (0.8 MB at n = 10^5); a smaller n reads a slice, a larger one extends
  them;
- the prime-power rows of the largest bound asked for (three int64
  arrays, 24 bytes per row, about 9.7k rows at 10^5 and 78.7k at
  10^6); a smaller bound filters them by p^k <= bound, which keeps
  their (p, k) order.
"""

from __future__ import annotations

import math

import numpy as np


class SpfSieve:
    """Smallest-prime-factor table up to ``bound``.

    Attributes:
        bound:  the sieve limit N (inclusive).
        primes: the primes <= N as one ascending list (p_1 = 2, p_2 = 3, ...).

    The fold index and the prime-power rows are cached on the sieve as it
    is read (see the module docstring).
    """

    __slots__ = ("bound", "_spf", "_prime_array", "_prime_list", "_big", "_rest", "_rows")

    def __init__(self, bound: int, spf: np.ndarray, primes: np.ndarray):
        self.bound = bound
        self._spf = spf
        self._prime_array, self._prime_list = primes, None  # the list is made on first read
        self._big = self._rest = np.ones(2, dtype=np.int32)  # P(k), r(k) at k = 0, 1
        self._rows = None  # (p, k, p^k) of the largest bound asked for

    @property
    def primes(self) -> list[int]:
        if self._prime_list is None:
            self._prime_list = self._prime_array.tolist()
        return self._prime_list

    def _fold_index(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """P(k) and r(k) on 0..n (1 at 0 and 1), read-only int32, for
        n <= bound.

        With p = spf(k) and m = k / p, P(k) = max(p, P(m)) and r(k) is 1
        if P(m) <= p, else p r(m): m <= k / 2, so each dyadic block of k
        is one vector step on the blocks below it.
        """
        have = len(self._big)
        if have <= n:
            big = np.ones(n + 1, dtype=np.int32)
            rest = np.ones(n + 1, dtype=np.int32)
            big[:have], rest[:have] = self._big, self._rest
            lo = max(have, 2)
            while lo <= n:
                hi = min(2 * lo, n + 1)
                p = self._spf[lo:hi]
                m = np.arange(lo, hi) // p
                big_m = big[m]
                big[lo:hi] = np.maximum(p, big_m)
                rest[lo:hi] = np.where(big_m <= p, 1, p * rest[m])
                lo = hi
            big.flags.writeable = rest.flags.writeable = False
            self._big, self._rest = big, rest
        return self._big[: n + 1], self._rest[: n + 1]

    def _check_range(self, n: int, lo: int = 1) -> None:
        if not lo <= n <= self.bound:
            raise ValueError(f"n = {n} outside sieve range {lo}..{self.bound}")

    def smallest_prime_factor(self, n: int) -> int:
        """spf(n) for 2 <= n <= bound."""
        self._check_range(n, lo=2)
        return int(self._spf[n])

    def is_prime(self, n: int) -> bool:
        self._check_range(n)
        return n >= 2 and int(self._spf[n]) == n

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Canonical factorization [(p1, a1), ...] with p1 < p2 < ...

        factorize(1) is the empty list.
        """
        self._check_range(n)
        out: list[tuple[int, int]] = []
        spf = self._spf
        while n > 1:
            p = int(spf[n])
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        return out

    def prime_power_cap(self, p: int, bound: int | None = None) -> int:
        """Largest k with p**k <= bound (the per-prime series length cap)."""
        if p < 2:
            raise ValueError(f"base must be >= 2, got {p}")
        limit = self.bound if bound is None else bound
        k, pk = 0, 1
        while pk * p <= limit:
            pk *= p
            k += 1
        return k

    def __repr__(self) -> str:
        return f"SpfSieve(bound={self.bound}, primes={len(self._prime_array)})"


def build_sieve(bound: int) -> SpfSieve:
    """Sieve smallest prime factors for 2..bound and collect the primes.

    bound = 1 yields no primes; a bound past int32 is refused before any allocation.
    """
    if not 1 <= bound < 2**31:
        raise ValueError(f"sieve bound must be in 1..{2**31 - 1}, got {bound}")
    spf = np.zeros(bound + 1, dtype=np.int32)
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    # untouched entries are prime (their smallest factor is themselves)
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    spf.flags.writeable = primes.flags.writeable = False
    return SpfSieve(bound, spf, primes)


def _check_bound(sieve: SpfSieve, bound: int) -> None:
    """A sieve is read only up to its own bound: reject a smaller one."""
    if sieve.bound < bound:
        raise ValueError(f"sieve bound {sieve.bound} < required {bound}")


def _prime_powers(sieve: SpfSieve, bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 arrays (p, k, p**k) over every prime power p**k <= bound,
    sorted by (p, k).

    The sieve keeps the rows of the largest bound asked for, read-only;
    a smaller bound gets a copy of those with p**k <= bound, in the same
    order.
    """
    _check_bound(sieve, bound)
    if sieve._rows is None or sieve._rows[0] < bound:
        sieve._rows = (bound, *_build_prime_powers(sieve, bound))
    top, p, k, pk = sieve._rows
    if top == bound:
        return p, k, pk
    keep = np.flatnonzero(pk[: np.searchsorted(p, bound, side="right")] <= bound)
    return p[keep], k[keep], pk[keep]


def _build_prime_powers(sieve: SpfSieve, bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of :func:`_prime_powers` at ``bound``, read-only.

    Only the primes up to sqrt(bound) have a row with k >= 2.  p**k grows
    with p, so the primes with a k-th power <= bound are a prefix of them:
    one vector step per k counts the largest exponent ``cap`` of each.
    """
    p = sieve._prime_array[: np.searchsorted(sieve._prime_array, bound, side="right")]
    root = np.searchsorted(p, math.isqrt(bound), side="right")
    cap, pk = np.ones(root, dtype=np.int64), p[:root]
    while len(pk):
        pk = pk * p[: len(pk)]  # at most bound**2: no int64 wrap
        pk = pk[pk <= bound]
        cap[: len(pk)] += 1
    head = np.repeat(p[:root], cap)
    k = np.arange(1, len(head) + 1) - np.repeat(np.cumsum(cap) - cap, cap)
    tail = p[root:]  # k = 1 only
    ones = np.ones(len(tail), dtype=np.int64)
    rows = np.concatenate((head, tail)), np.concatenate((k, ones)), np.concatenate((head**k, tail))
    for row in rows:
        row.flags.writeable = False
    return rows
