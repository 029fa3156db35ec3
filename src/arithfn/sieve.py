"""Smallest-prime-factor sieve, primes and prime powers.

The sieve stores spf[n] = smallest prime factor of n for 2 <= n <= N,
which makes the factorization of any n <= N an O(number of prime factors)
walk.  Every table derived for a bound is one walk over k = 2..n,
written once here (:func:`_steps`): the catalogue's recurrence tables
(totient, Mobius, Liouville, the nu/Omega counts) and the fold index read
f(k) off f(k / spf(k)) (:func:`_spf_recurrence`), the prime-power fold of
``structure`` off f(r(k)) (a complex sum off f(k / P(k)), to keep its order
of addition).  No walk divides or reduces
modulo in int64: every divisor divides exactly, so an index k / d is one
exact float quotient (:func:`_quotient`), values and spf are read by
``take`` gathers straight from the int32 index slices, and p | m is
read off spf(m) = p.

This module also owns the primes <= N (:attr:`SpfSieve.primes`) and the
prime-power rows (p, k, p^k) <= bound (:func:`_prime_powers`): a
multiplicative or additive function is fixed by its values on those
rows, so the predicates, the decompositions, the Mangoldt table and the
identity suite all read them from here.

Memory is the only practical limit: the table is one int32 numpy array,
so N = 10**7 costs 40 MB and builds in well under a second.

Anything derived for a bound n lives on the sieve that serves n, for
that sieve's life, built on first use: the fold index
(:meth:`SpfSieve._fold_index`: the cofactor r(k) = k / P(k)^v, P(k) the
largest prime factor of k and P(k)^v exactly dividing k, as one
read-only int32 array, 4 bytes per index, built once to the sieve's own
bound, so every n reads a slice of it and nothing is regrown; P(k) is
spf(k / r(k))), and one entry per builder and bound
(:meth:`SpfSieve._for_bound`): the prime-power rows, 24 bytes per row
(9.7k rows at 10^5, 78.7k at 10^6), and the coprime-pair index of the
structure checks.  The sieve that serves n is the caller's where one is
at hand; a caller with none (a check, a product, power or inverse of
tagged tables) takes the smallest live sieve with bound >= n from a weak
registry that :func:`build_sieve` fills (:func:`_sieve_for`), else a new
one that it does not keep.  ``_LIVE`` is weak and keeps no sieve alive,
so the package holds no module-level cache.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

#: Indices per vector step of the walks over 2..n (the pair scan reads
#: STEP bits, so a multiple of 8): temporaries stay near 1 MB at any n.
STEP = 1 << 14

#: Every sieve :func:`build_sieve` made that something still holds.
_LIVE = weakref.WeakSet()


class SpfSieve:
    """Smallest-prime-factor table up to ``bound``.

    Attributes:
        bound:  the sieve limit N (inclusive).
        primes: the primes <= N as one ascending list (p_1 = 2, p_2 = 3, ...).

    What is derived for a bound is kept on the sieve (see the module docstring).
    """

    __slots__ = ("bound", "_spf", "_prime_array", "_prime_list", "_rest", "_per_bound",
                 "__weakref__")

    def __init__(self, bound: int, spf: np.ndarray, primes: np.ndarray):
        self.bound = bound
        self._spf = spf
        self._prime_array, self._prime_list = primes, None  # the list is made on first read
        self._rest = None  # the fold index, built on first use
        self._per_bound = {}  # (build, n) -> build(self, n)

    @property
    def primes(self) -> list[int]:
        if self._prime_list is None:
            self._prime_list = self._prime_array.tolist()
        return self._prime_list

    def _fold_index(self, n: int) -> np.ndarray:
        """r(k) = k / P(k)^v on 0..n (1 at 0 and 1), P(k) the largest prime
        factor of k and P(k)^v the power of it that exactly divides k, as
        read-only int32, for n <= bound: a slice of one array, built on first
        use to the sieve's bound.  P(k) is spf(k / r(k)).

        One :func:`_spf_recurrence`: with p = spf(k) and m = k / p, r(k) is 1
        if m is 1 or a power of p, that is r(m) = 1 and spf(m) <= p (spf(1)
        is 0, and every prime of m is >= p), else p r(m).
        """
        if self._rest is None:
            rest = _spf_recurrence(
                self, self.bound, 1, lambda f, p, s: np.where((f == 1) & (s <= p), 1, p * f),
                np.int32,
            )
            rest[0] = 1
            rest.flags.writeable = False
            self._rest = rest
        return self._rest[: n + 1]

    def _for_bound(self, build, n: int):
        """build(self, n), made on first use and kept for the sieve's life."""
        key = build, n
        if key not in self._per_bound:
            self._per_bound[key] = build(self, n)
        return self._per_bound[key]

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
    sieve = SpfSieve(bound, spf, primes)
    _LIVE.add(sieve)
    return sieve


def _steps(n: int):
    """Yield the steps (lo, hi) that cover 2..n in order: at most STEP
    indices each, inside one dyadic block [2^j, 2^(j+1)).  Every k of a
    step has k / 2 < lo, so a walk that reads f only at indices <= k / 2
    reads values that earlier steps made final: each step is one vector op.
    """
    lo = 2
    while lo <= n:
        hi = min(2 * lo, lo + STEP, n + 1)
        yield lo, hi
        lo = hi


def _spf_recurrence(sieve: SpfSieve, n: int, first: int, step, dtype) -> np.ndarray:
    """The table f on 0..n of ``dtype`` with f(0) = 0, f(1) = ``first`` and
    f(k) = step(f(m), p, spf(m)) for k >= 2, where p = spf(k), m = k / p
    and spf(1) = 0, one vector step per :func:`_steps` (m <= k / 2).  m has
    no prime below p, so p | m iff spf(m) = p: a step reads divisibility
    off one comparison.  m is an exact float quotient (:func:`_quotient`),
    and f(m) and spf(m) are ``take`` gathers.
    """
    out = np.zeros(n + 1, dtype=dtype)
    out[1] = first
    spf = sieve._spf
    for lo, hi in _steps(n):
        p = spf[lo:hi]
        m = _quotient(np.arange(lo, hi), p)
        out[lo:hi] = step(out.take(m), p, spf.take(m))
    return out


def _quotient(k, d) -> np.ndarray:
    """k / d as intp, for d dividing k and 0 <= k < 2**31 elementwise.

    Every walk over 2..n has n < 2**31 (:func:`build_sieve` refuses a
    larger bound), so k and d are exact doubles and their quotient is an
    integer that is one too: float64 division, correctly rounded, returns
    it exactly, with no int64 division.
    """
    return (k / d).astype(np.intp)


def _sieve_for(n: int) -> SpfSieve:
    """The sieve that serves bound n for a caller that has none: the
    smallest live one with bound >= n, else a new one, not kept."""
    live = [sieve for sieve in _LIVE if sieve.bound >= n]
    return min(live, key=lambda sieve: sieve.bound) if live else build_sieve(n)


def _check_bound(sieve: SpfSieve, bound: int) -> None:
    """A sieve is read only up to its own bound: reject a smaller one."""
    if sieve.bound < bound:
        raise ValueError(f"sieve bound {sieve.bound} < required {bound}")


def _prime_powers(sieve: SpfSieve, bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 arrays (p, k, p**k) over every prime power p**k <= bound,
    sorted by (p, k), read-only and kept on the sieve per bound.
    """
    _check_bound(sieve, bound)
    return sieve._for_bound(_build_prime_powers, bound)


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
