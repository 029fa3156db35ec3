"""Structure predicates and per-prime decompositions.

A multiplicative function is determined by its values on prime powers:
it factors as a per-prime family of truncated power series ("Bell
series") f_p(x) = 1 + a(p)x + a(p^2)x^2 + ... and, conversely, any such
family with constant terms 1 multiplies out to a multiplicative function.
An additive function is u-convolved from a sparse table supported on
prime powers: a = u * g with g(p, k) = a(p^k) - a(p^(k-1)), and g is
exactly mu * a.  That last identity also yields an alternative additivity
test: a is additive iff (mu * a)(n) = 0 whenever n is not a prime power
(including n = 1).

The predicates scan every coprime pair (m, n), 2 <= m < n, m*n <= N, in
ascending (m, n), over the storage the convolution kernel uses (exact
numerators A = a den: A(mn) = A(m) + A(n), A(mn) den = A(m) A(n)).  The
pairs come from one bit-packed index per bound (one bit per candidate n
of each m, 0.76 MB at N = 10^6), cached for the last two bounds,
and are read in vector steps of at most PAIR_CHUNK pairs, the first at
m = 2; the first failing pair of the first failing step is the
lexicographically least witness.  Complex values compare within
tol + 8 eps (|lhs| + |rhs|): the absolute tolerance plus a rounding
allowance that grows with the magnitudes, as in PEP 485's ``isclose``;
an equal finite pair passes without it.
Both reconstructions are one fold over the exact prime powers of each
index, under x or +, one vector op per dyadic block: a(k) is
a(k / P^v) c_P[v] or a(k / P) + g(P, v), P^v the exact power of the
largest prime factor of k, read off the sieve's cached fold index.  So
every value is formed in ascending primes (sums in ascending (p, k)), as
a per-index loop over the factorization forms it, and complex results
are bit-identical to that loop.

Every entry point that reads prime powers takes the caller's sieve,
which must reach the table's bound: the two readers of the sieve,
``sieve._prime_powers`` and :func:`_prime_power_fold`, raise ValueError
on a smaller one before they read it.  The checks, decompositions and
reconstructions walk the prime-power rows (p, k, p^k) of
``sieve._prime_powers``.  The identity suite
(``catalogue.verify_identities``) folds its closed-form values on those
rows with :func:`_prime_power_fold` directly, with no decomposition
object in between.

Each decomposition is a set of rows, not a map of Python tuples: a
:class:`BellDecomposition` keeps its primes in the order given, one
offset per series and one flat coefficient array; a :class:`PrimeSupport`
keeps its keys (p, k), sorted, and their values.  The decompositions fill
the rows by gathers of the table's storage at the prime-power rows, and
the reconstructions check them by whole-array passes and hand the values
straight to the fold, so a round trip does no per-prime Python.  A
(prime, coeffs) pair (a :class:`BellSeries`; a prime given twice is an
error) or a (p, k) -> g(p, k) entry is made only when a caller reads one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dirichlet import (
    ArithFn,
    _box,
    _max_abs,
    _objects,
    _scaled,
    _scratch,
    _store,
)
from .errors import NonFiniteError, StructureError
from .numerics import COMPLEX, DEFAULT_TOL, _canonical_exact
from .sieve import SpfSieve, _check_bound, _prime_powers

#: Rounding allowance of the complex comparisons: values match within
#: tol + ROUNDING_ALLOWANCE * eps * (|lhs| + |rhs|).  The rounding error of
#: sigma_c for c in {1/2, 3/2, 5/2, 1/3, -1/2} at N = 2e4 and 1e5 is at
#: most 3.2 eps (|lhs| + |rhs|).
ROUNDING_ALLOWANCE = 8

_SLACK = ROUNDING_ALLOWANCE * np.finfo(np.float64).eps


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a structure predicate.

    ``witness`` disproves the property when ``ok`` is false:
    a coprime pair (m, n), a prime power (p, k), or a single index n,
    per ``witness_kind`` in {"pair", "prime_power", "index"}.
    ``constants`` reports c_p = a(p) per prime for passing
    completely-multiplicative / completely-additive checks.
    """

    ok: bool
    kind: str
    witness: tuple | int | None = None
    witness_kind: str | None = None
    constants: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def _require(check: CheckResult) -> None:
    """A decomposition's precondition: StructureError with the witness."""
    if not check:
        raise StructureError(
            f"input is not {check.kind} (witness {check.witness})", witness=check.witness
        )


@np.errstate(over="ignore", invalid="ignore")  # _store reports it
def _prime_power_fold(sieve, n, pks, stored, den, backend, product) -> ArithFn:
    """f on 1..n with f(1) = 1 and f(k) = at[p1^a1] x at[p2^a2] x ...
    (``product``), or f(1) = 0 and f(k) = at[p1] + ... + at[p1^a1] +
    at[p2] + ... over the primes of k ascending, where at[pks[i]] =
    stored[i] / den, else 0; ``stored`` and ``den`` are as :func:`_store`
    gives them, or numerators over a multiple of the lcm of their
    denominators.

    With P(k) the largest prime factor of k and r(k) = k / P(k)^v (the
    sieve's fold index), f(k) = f(r(k)) x at[k / r(k)] or f(k / P(k)) +
    at[k / r(k)] reads only below k / 2, so each dyadic block is one
    vector op.  int64 runs while max|left| x max|at| (or +) < 2**63; a
    block that fails moves to object.  The sum runs on the numerators
    over their den; a product over den > 1 would need den**omega(k), so it
    runs on the boxed values.
    """
    _check_bound(sieve, n)
    if product and den > 1:
        stored, den = _objects(_box(stored, den)), 1
    at = np.zeros(n + 1, dtype=stored.dtype)
    at[pks] = stored
    out = np.zeros(n + 1, dtype=at.dtype)
    out[1] = int(product)  # the unit of the fold; a product runs with den = 1
    big, rest = sieve._fold_index(n)
    lo = 2
    while lo <= n:
        hi = min(2 * lo, n + 1)
        k = np.arange(lo, hi)
        r = rest[lo:hi]
        left = out[r] if product else out[k // big[lo:hi]]
        right = at[k // r]
        if out.dtype == np.int64:
            x, y = _max_abs(left), _max_abs(right)
            if (x * y if product else x + y) >= 2**63:
                out, at = out.astype(object), at.astype(object)
                left, right = left.astype(object), right.astype(object)
        out[lo:hi] = _scaled(left, right) if product else left + right
        lo = hi
    return ArithFn._wrap(n, backend, out, den)


@np.errstate(over="ignore", invalid="ignore")
def _first_mismatch(lhs: np.ndarray, rhs: np.ndarray, tol: float | None) -> int | None:
    """Index of the first position where lhs and rhs differ, else None.

    Exact storage compares with ==.  Complex values match when
    |lhs - rhs| <= tol + _SLACK (|lhs| + |rhs|), with the checks of
    :func:`approx_eq`: tol must be positive, and a NaN or infinite value at
    or before the first mismatch raises NonFiniteError.  Only the positions
    with lhs != rhs or lhs not finite are tested, since equal finite values
    match for every tol > 0.  Moduli use np.hypot, which rounds as
    Python's abs(complex) does (np.abs of a complex array does not).
    """
    if lhs.dtype != np.complex128:
        at, bad = None, lhs != rhs
    else:
        tol = DEFAULT_TOL if tol is None else tol
        if not tol > 0:
            raise ValueError(f"tolerance must be positive, got {tol!r}")
        at = np.flatnonzero((lhs != rhs) | ~np.isfinite(lhs))
        lhs, rhs = lhs[at], rhs[at]
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        diff = lhs - rhs
        allowed = tol + _SLACK * (np.hypot(lhs.real, lhs.imag) + np.hypot(rhs.real, rhs.imag))
        bad = ~(finite & (np.hypot(diff.real, diff.imag) <= allowed))
    if not bad.any():
        return None
    i = int(bad.argmax())
    if at is None:
        return i
    if not finite[i]:
        raise NonFiniteError(
            f"non-finite value in the comparison of {complex(lhs[i])!r} and {complex(rhs[i])!r}"
        )
    return int(at[i])


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


#: Candidate slots per step of the pair scan, a multiple of 8: one step
#: reads at most this many coprime pairs.
PAIR_CHUNK = 1 << 14


def _coprime_mask(m: int, top: int) -> np.ndarray:
    """keep[i] is true iff k = m + 1 + i, m < k <= top, is coprime to m:
    each prime p | m strikes out k = m + p, m + 2p, ... (cheaper than np.gcd
    per k)."""
    keep = np.ones(top - m, dtype=bool)
    rest, p = m, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            keep[p - 1 :: p] = False
            while rest % p == 0:
                rest //= p
        p += 1
    return keep


@functools.lru_cache(maxsize=2)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coprime pairs 2 <= m < k, m k <= n, as one bit-packed mask.

    m = 2, 3, ... while n // m > m owns the bytes starts[m - 2] to
    starts[m - 1] of ``mask``; bit j of them is set iff k = m + 1 + j is
    coprime to m (bits past n // m are clear).  About (ln(n) / 2 - 1) n
    bits, with ``starts``: 63 KB at 10^5, 0.76 MB at 10^6, 8.9 MB at 10^7.
    Cached for the last two bounds.
    """
    ms = np.arange(2, math.isqrt(n) + 1)
    ms = ms[n // ms > ms]
    starts = np.concatenate(([0], np.cumsum((n // ms - ms + 7) // 8)))
    mask = np.empty(starts[-1], dtype=np.uint8)
    for m, lo, hi in zip(ms.tolist(), starts.tolist(), starts[1:].tolist()):
        mask[lo:hi] = np.packbits(_coprime_mask(m, n // m))
    mask.flags.writeable = starts.flags.writeable = False
    return mask, starts


def _coprime_pairs(n: int):
    """Yield the coprime pairs 2 <= m < k, m k <= n, in ascending (m, k),
    at most PAIR_CHUNK at a time, the first from m = 2: arrays ms, counts
    and k, where m = np.repeat(ms, counts) pairs with k.

    One chunk is PAIR_CHUNK bits of :func:`_pair_index`: its set bits, and
    per m the count of them, give k = bit - (first bit of m) + m + 1.
    """
    mask, starts = _pair_index(n)
    step = PAIR_CHUNK // 8
    for lo in range(0, len(mask), step):
        hi = min(lo + step, len(mask))
        first = int(np.searchsorted(starts, lo, side="right")) - 1
        last = int(np.searchsorted(starts, hi, side="left"))
        bits = np.flatnonzero(np.unpackbits(mask[lo:hi]).view(bool))
        edges = 8 * (starts[first : last + 1] - lo)  # each m's first bit in the chunk's frame
        counts = np.diff(np.searchsorted(bits, edges))
        ms = np.arange(first + 2, last + 2)
        yield ms, counts, bits - np.repeat(edges[:-1] - ms - 1, counts)


@np.errstate(over="ignore", invalid="ignore")  # _first_mismatch reports it
def _coprime_pair_scan(a: ArithFn, kind: str, product: bool, tol) -> CheckResult:
    """a(mk) = a(m) a(k) (``product``) or a(m) + a(k) on every coprime pair
    2 <= m < k, mk <= N, then a(1) = 1 (or 0).

    One vector step per chunk of :func:`_coprime_pairs`, in ascending
    (m, k); the first failing pair of the first failing chunk is the least
    witness.  On numerators A = a den, a(1) = 1 is A(1) = den, and int64
    storage needs max|A| max(max|A|, den) < 2**62 and falls back to object.
    """
    v, den = a._v, a.den
    if v.dtype == np.int64 and _max_abs(v) * max(_max_abs(v), den) >= 2**62:
        v = v.astype(object)
    for ms, counts, k in _coprime_pairs(a.bound):
        m = np.repeat(ms, counts)
        lhs = v[m * k] * den if product and den > 1 else v[m * k]
        vm = np.repeat(v[ms], counts)  # cheaper than v[m]
        rhs = _scaled(vm, v[k]) if product else vm + v[k]
        i = _first_mismatch(lhs, rhs, tol)
        if i is not None:
            return CheckResult(False, kind, (int(m[i]), int(k[i])), "pair")
    unit = a.backend.one * den if product else a.backend.zero
    if _first_mismatch(v[1:2], np.array([unit], dtype=v.dtype), tol) is not None:
        return CheckResult(False, kind, (1, 1), "pair")
    return CheckResult(True, kind)


def _prime_power_check(a: ArithFn, sieve: SpfSieve, kind: str, product: bool, tol) -> CheckResult:
    """The pair scan, then a(p^k) = a(p)**k (``product``) or k a(p) on every
    prime power p^k <= N with k >= 2; the witness is the least failing
    pair, else the least failing (p, k).  A complex a(p)**k beyond the
    floats raises NonFiniteError."""
    p, k, pk = _prime_powers(sieve, a.bound)
    base = _coprime_pair_scan(a, kind, product, tol)
    if not base:
        return base
    higher = k >= 2
    rows = list(zip(p[higher].tolist(), k[higher].tolist()))
    rhs = _scratch(len(rows), a.backend)
    try:
        for i, (q, j) in enumerate(rows):
            rhs[i] = a[q] ** j if product else j * a[q]
    except OverflowError:
        raise NonFiniteError(f"a({q})**{j} overflows the complex backend") from None
    i = _first_mismatch(a._values_at(pk[higher]), rhs, tol)
    if i is not None:
        return CheckResult(False, kind, rows[i], "prime_power")
    primes = p[k == 1]
    return CheckResult(True, kind, constants=dict(zip(primes.tolist(), _box(a._v[primes], a.den))))


def is_multiplicative(a: ArithFn, tol: float | None = None) -> CheckResult:
    """a(1) = 1 and a(mn) = a(m) a(n) for coprime m, n >= 2 with mn <= N.

    The witness is the lexicographically least coprime pair violating the
    product law; if the law holds on every pair and only the unit value is
    wrong, the conventional witness (1, 1) flags index 1.
    """
    return _coprime_pair_scan(a, "multiplicative", True, tol)


def is_additive(a: ArithFn, tol: float | None = None) -> CheckResult:
    """a(1) = 0 and a(mn) = a(m) + a(n) for coprime m, n >= 2 with mn <= N.

    a(1) = 0 is forced by taking m = n = 1.  Witness convention as in
    :func:`is_multiplicative`: least failing sum-law pair, else (1, 1).
    """
    return _coprime_pair_scan(a, "additive", False, tol)


def is_completely_multiplicative(a: ArithFn, sieve: SpfSieve, tol: float | None = None) -> CheckResult:
    """Multiplicative and a(p^k) = a(p)^k on every prime power <= N.

    At truncation the prime-power criterion plus plain multiplicativity
    is equivalent to a(mn) = a(m) a(n) for all m, n; scanning the O(N)
    prime powers is far cheaper than scanning all pairs.
    """
    return _prime_power_check(a, sieve, "completely-multiplicative", True, tol)


def is_completely_additive(a: ArithFn, sieve: SpfSieve, tol: float | None = None) -> CheckResult:
    """Additive and a(p^k) = k a(p) on every prime power <= N."""
    return _prime_power_check(a, sieve, "completely-additive", False, tol)


def mobius_additivity_test(a: ArithFn, sieve: SpfSieve, tol: float | None = None) -> CheckResult:
    """Additivity via convolution: mu * a must vanish at 1 and at every
    n with two or more distinct prime factors.  Agrees with
    :func:`is_additive` on every input; the witness is the least failing
    index n.  mu is the fold of -1 at the primes and 0 at the higher
    prime powers."""
    _, k, pk = _prime_powers(sieve, a.bound)
    at = np.where(k == 1, -1, 0).astype(np.complex128 if a.backend is COMPLEX else np.int64)
    mu = _prime_power_fold(sieve, a.bound, pk, at, 1, a.backend, True)
    g = (mu * a)._v
    prime_power = np.zeros(a.bound + 1, dtype=bool)
    prime_power[0] = True  # dead padding slot
    prime_power[pk] = True
    off = np.flatnonzero(~prime_power)
    i = _first_mismatch(g[off], np.zeros(len(off), dtype=g.dtype), tol)
    if i is not None:
        return CheckResult(False, "additive-mobius", int(off[i]), "index")
    return CheckResult(True, "additive-mobius")


# ---------------------------------------------------------------------------
# Bell decompositions (multiplicative side)
# ---------------------------------------------------------------------------


class BellSeries(NamedTuple):
    """Truncated per-prime power series as a (prime, coeffs) pair: coeffs[k] is
    the function's value at p^k, the coefficient of x^k; len(coeffs) = floor(log_p N) + 1."""

    prime: int
    coeffs: tuple

    def to_json_obj(self, backend) -> dict:
        return {"prime": self.prime, "coeffs": [backend.to_json(c) for c in self.coeffs]}


def _int_array(ints: list) -> np.ndarray:
    """ints as an int64 array, or an object array if one is beyond int64."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return _objects(ints)


def _values(coeffs: np.ndarray, den) -> list:
    """Python scalars of stored values over ``den``, or of values as given
    (``den`` None)."""
    return coeffs.tolist() if den is None else _box(coeffs, den)


def _series_rows(series) -> tuple[list, list]:
    """The primes and coefficient rows of (prime, coeffs) pairs, in the
    order given; each prime is read with operator.index as its pair is
    unpacked, and StructureError names the first that is not an int or
    repeats one before it."""
    primes, rows, seen = [], [], set()
    for key, coeffs in series:
        try:
            p = operator.index(key)
        except TypeError:
            raise StructureError(f"prime {key!r} is not an int", witness=key) from None
        if p in seen:
            raise StructureError(f"two series at prime {p}", witness=p)
        seen.add(p)
        primes.append(p)
        rows.append(coeffs)
    return primes, rows


class BellDecomposition:
    """The Bell series of a multiplicative function as rows: the primes in
    the order given, and one flat sequence of all their coefficients, the
    series of primes[i] at offsets[i]:offsets[i + 1] (its k-th coefficient
    is the value at p^k).  Constant terms 1, values multiply across primes.

    Built from (prime, coeffs) pairs, BellSeries among them: primes are
    read with operator.index, and a prime that is not an int, or is given
    twice, is a StructureError; the coefficients are kept as given and
    checked by :func:`bell_reconstruct_mult`.  :func:`bell_decompose_mult`
    fills the rows from the table's storage instead, numerators over its
    den.  Per-prime tuples are made only when ``series``, ``series_for``,
    ``==`` read them.
    """

    __slots__ = ("bound", "backend", "_primes", "_offsets", "_coeffs", "_den", "_lookup")

    def __init__(self, bound: int, backend, series):
        primes, rows = _series_rows(series)
        offsets = np.cumsum([0, *map(len, rows)])
        coeffs = _objects([c for row in rows for c in row])
        self._set(bound, backend, _int_array(primes), offsets, coeffs, None)

    def _set(self, bound, backend, primes, offsets, coeffs, den) -> None:
        """``coeffs`` holds stored values over ``den``, or values as given
        (``den`` None); every array is made read-only."""
        self.bound, self.backend, self._den, self._lookup = bound, backend, den, None
        self._primes, self._offsets, self._coeffs = primes, offsets, coeffs
        for arr in (primes, offsets, coeffs):
            arr.flags.writeable = False

    def _tuples(self) -> list:
        """The coefficient tuples, in the order given."""
        vals, ends = _values(self._coeffs, self._den), self._offsets.tolist()
        return [tuple(vals[i:j]) for i, j in zip(ends, ends[1:])]

    @property
    def series(self) -> tuple:
        return tuple(map(BellSeries, self._primes.tolist(), self._tuples()))

    def series_for(self, p: int) -> BellSeries:
        """The series at p, by a prime -> row map built on first use."""
        if self._lookup is None:
            self._lookup = dict(zip(self._primes.tolist(), range(len(self._primes))))
        i = self._lookup.get(p)
        if i is None:
            raise StructureError(f"no series for prime {p}", witness=p)
        lo, hi = self._offsets[i : i + 2].tolist()
        return BellSeries(p, tuple(_values(self._coeffs[lo:hi], self._den)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BellDecomposition):
            return NotImplemented
        return (
            self.bound == other.bound
            and self.backend is other.backend
            and dict(zip(self._primes.tolist(), self._tuples()))
            == dict(zip(other._primes.tolist(), other._tuples()))
        )

    def __repr__(self) -> str:
        return f"BellDecomposition(bound={self.bound}, primes={len(self._primes)})"


def bell_decompose_mult(a: ArithFn, sieve: SpfSieve) -> BellDecomposition:
    """Split a multiplicative function into its per-prime series.

    Raises StructureError carrying the witness pair if the input is not
    multiplicative; a silent decomposition of a non-multiplicative input
    would reconstruct into garbage.  The series are one gather of a's
    storage at the prime-power rows, each after a constant term 1.
    """
    p, k, pk = _prime_powers(sieve, a.bound)
    _require(is_multiplicative(a))
    heads = np.flatnonzero(k == 1)  # the first row of each prime
    offsets = np.append(heads + np.arange(len(heads)), len(k) + len(heads))
    v, den = a._v, a.den
    wide = v.dtype == np.int64 and den >= 2**63  # the constant term den needs objects
    coeffs = np.empty(offsets[-1], dtype=object if wide else v.dtype)
    coeffs[offsets[:-1]] = a.backend.one * den  # the constant term 1 as a numerator
    coeffs[np.arange(len(k)) + np.cumsum(k == 1)] = v[pk]  # row i sits after its series' head
    dec = BellDecomposition.__new__(BellDecomposition)
    dec._set(a.bound, a.backend, p[heads], offsets, coeffs, den)
    return dec


def bell_reconstruct_mult(dec: BellDecomposition, sieve: SpfSieve) -> ArithFn:
    """Multiply the per-prime series back out: a(p1^a1...pk^ak) is the
    product 1 * c_p1[a1] * c_p2[a2] * ... in ascending primes; a(1) = 1
    (empty product).

    There must be one series per prime <= N and no other, each with its
    floor(log_p N) + 1 coefficients and constant term 1, else
    StructureError names the first bad series, else the least missing prime.
    The checks are whole-array passes over the rows; a coefficient the
    backend cannot hold raises when the values are stored.
    """
    backend, n, coeffs, den = dec.backend, dec.bound, dec._coeffs, dec._den
    p, k, pk = _prime_powers(sieve, n)
    heads = np.flatnonzero(k == 1)
    primes, caps = p[heads], np.diff(np.append(heads, len(k)))
    q, starts = dec._primes, dec._offsets[:-1]
    inside = (q >= 2) & (q <= n)
    qi = np.where(inside, q, 0).astype(np.int64)
    rank = np.searchsorted(primes, qi)
    at_prime = inside & (np.append(primes, 0)[rank] == qi)
    short = at_prime & (np.diff(dec._offsets) <= np.append(caps, 0)[rank])  # q**len <= n
    not_one = np.zeros(len(q), dtype=bool)
    sized = at_prime & ~short
    not_one[sized] = coeffs[starts[sized]] != (backend.one if den is None else backend.one * den)
    bad = ~at_prime | short | not_one
    if bad.any():
        i = int(bad.argmax())
        prime = q.item(i)
        if not at_prime[i]:
            raise StructureError(f"the series at {prime} is not at a prime <= {n}", witness=prime)
        if short[i]:
            raise StructureError(
                f"the series at prime {prime} is too short for bound {n}", witness=prime
            )
        raise StructureError(
            f"constant term of the series at prime {prime} must be 1, "
            f"got {backend.format(_values(coeffs[starts[i] : starts[i] + 1], den)[0])}",
            witness=prime,
        )
    if len(q) < len(primes):  # every series is at a distinct prime, so one is missing
        given = np.zeros(len(primes), dtype=bool)
        given[rank] = True
        dec.series_for(int(primes[np.argmin(given)]))  # raises for the least missing prime
    series = np.empty(len(primes), dtype=np.int64)
    series[rank] = np.arange(len(q))  # the series of each prime <= n
    vals = coeffs[starts[series][np.cumsum(k == 1) - 1] + k]
    stored, den = _store(vals.tolist(), backend) if den is None else (vals, den)
    return _prime_power_fold(sieve, n, pk, stored, den, backend, True)


# ---------------------------------------------------------------------------
# prime-support decompositions (additive side)
# ---------------------------------------------------------------------------


class PrimeSupport:
    """Sparse table g(p, k) on prime powers p^k <= bound, as rows: the keys
    (p, k), sorted, and their nonzero values, stored as a table stores its
    values (numerators over one den, or complex128).

    Represents a function vanishing at 1 and at every index with two or
    more distinct prime factors; missing keys read as zero.  Keys are
    read with operator.index, and every key and value is checked at
    construction: the first entry with a bad key or value raises, in
    the order given.  :func:`additive_decompose` fills the rows from the
    table's storage.  The (p, k) tuples are made only when ``items``,
    ``get``, ``series_at``, JSON or ``==`` read them.
    """

    __slots__ = ("bound", "backend", "_p", "_k", "_vals", "_den", "_lookup")

    def __init__(self, bound: int, backend, entries: dict | None = None):
        p, k, stored, den = self._walk(bound, backend, entries or {})
        self._set(bound, backend, p, k, stored, den, stored != 0)

    @staticmethod
    def _walk(bound, backend, entries):
        """The keys and stored values of ``entries``, each entry checked in
        turn: the first with a bad key or value raises."""
        table = {}
        index = operator.index
        bits = bound.bit_length()  # p >= 2, so p**k > bound once k >= bits: no power is formed
        for key, v in entries.items():
            p, k = key
            try:
                p, k = index(p), index(k)
            except TypeError:
                raise StructureError(f"key {key!r} is not a pair of ints", witness=key) from None
            if k < 1 or p < 2 or k >= bits or p**k > bound:
                raise StructureError(
                    f"key ({p}, {k}) is not a prime power within bound {bound}",
                    witness=(p, k),
                )
            table[p, k] = backend.convert(v)
        p, k = (_int_array([key[i] for key in table]) for i in (0, 1))
        return (p, k, *_store(list(table.values()), backend))

    def _set(self, bound, backend, p, k, stored, den, keep) -> None:
        """The rows of the ``keep`` entries, sorted by (p, k), read-only."""
        keep = np.flatnonzero(keep)
        rows = keep[np.lexsort((k[keep], p[keep]))]
        self.bound, self.backend, self._den, self._lookup = bound, backend, den, None
        self._p, self._k, self._vals = p[rows], k[rows], stored[rows]
        for arr in (self._p, self._k, self._vals):
            arr.flags.writeable = False

    def _keys(self) -> list:
        return list(zip(self._p.tolist(), self._k.tolist()))

    def get(self, p: int, k: int):
        """g(p, k), by a (p, k) -> row map built on first use; zero for a
        missing key."""
        if self._lookup is None:
            self._lookup = dict(zip(self._keys(), range(len(self._p))))
        i = self._lookup.get((p, k))
        if i is None:
            return self.backend.zero
        return _box(self._vals[i : i + 1], self._den)[0]

    def items(self):
        """Entries sorted by (p, k)."""
        return list(zip(self._keys(), _box(self._vals, self._den)))

    def __len__(self) -> int:
        return len(self._p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeSupport):
            return NotImplemented
        return (
            self.bound == other.bound
            and self.backend is other.backend
            and self.items() == other.items()
        )

    def series_at(self, p: int, length: int) -> list:
        """Coefficient vector [0, g(p,1), g(p,2), ...] of given length."""
        return [self.backend.zero] + [self.get(p, k) for k in range(1, length)]

    def to_json_obj(self) -> list:
        enc = self.backend.to_json
        return [{"p": p, "k": k, "value": enc(v)} for (p, k), v in self.items()]

    @classmethod
    def from_json_obj(cls, obj, bound: int, backend) -> "PrimeSupport":
        rows = {(row["p"], row["k"]): backend.from_json(row["value"]) for row in obj}
        return cls(bound, backend, rows)

    def __repr__(self) -> str:
        return f"PrimeSupport(bound={self.bound}, entries={len(self._p)})"


@np.errstate(over="ignore", invalid="ignore")  # convert reports it
def additive_decompose(a: ArithFn, sieve: SpfSieve) -> PrimeSupport:
    """Difference the prime-power values of an additive function:
    g(p, k) = a(p^k) - a(p^(k-1)); g equals mu * a on prime powers.  One
    vector difference of a's numerators at the prime-power rows."""
    p, k, pk = _prime_powers(sieve, a.bound)
    _require(is_additive(a))
    v = a._v
    # a(p^k) - a(p^(k-1)), a(p) - a(1) at k = 1; object if int64 could wrap
    high = v[pk].astype(object) if v.dtype == np.int64 and _max_abs(v) >= 2**62 else v[pk]
    diff = high - v[pk // p]
    if diff.dtype == np.complex128 and not np.isfinite(diff).all():
        a.backend.convert(complex(diff[np.argmin(np.isfinite(diff))]))  # raises, naming it
    g = PrimeSupport.__new__(PrimeSupport)
    g._set(a.bound, a.backend, p, k, diff, a.den, diff != 0)
    return g


def additive_reconstruct(g: PrimeSupport, sieve: SpfSieve) -> ArithFn:
    """Sum g over the prime-power divisors of each index: the u-convolution
    of g's zero-extension, evaluated directly, each a(n) in ascending
    (p, k).  Keys must be genuine prime powers: a composite base raises
    StructureError, found after the fold, which checks the sieve's bound
    before any read.
    """
    a = _prime_power_fold(sieve, g.bound, g._p**g._k, g._vals, g._den, g.backend, False)
    composite = np.flatnonzero(sieve._spf[g._p] != g._p)
    if len(composite):
        p, k = g._p.item(composite[0]), g._k.item(composite[0])
        raise StructureError(f"key ({p}, {k}): base {p} is not prime", witness=(p, k))
    return a


# ---------------------------------------------------------------------------
# truncated one-variable power series helpers
#
# The same alternating/factorial series as the ring-level operators,
# specialized to a single prime coordinate.  Fraction coefficients keep the
# exact backend exact; multiplied into complex values they degrade to
# complex, so one code path serves both.
# ---------------------------------------------------------------------------


def series_mul(f, g, length: int) -> list:
    """Product of coefficient vectors, truncated to ``length`` coefficients."""
    out = [0] * length
    for i, fi in enumerate(f[:length]):
        if not fi:
            continue
        for j, gj in enumerate(g[: length - i]):
            if gj:
                out[i + j] = out[i + j] + fi * gj
    return [_canonical_exact(x) if isinstance(x, Fraction) else x for x in out]


def series_log(f, length: int) -> list:
    """log of a power series with constant term 1, truncated."""
    if not f or f[0] != 1:
        raise ValueError("series_log needs constant term 1")
    coeffs = [Fraction(-1 if k % 2 == 0 else 1, k) for k in range(1, length)]
    return _series_sum(f, length, [0] * length, coeffs)


def series_exp(f, length: int) -> list:
    """exp of a power series with constant term 0, truncated."""
    if not f or f[0] != 0:
        raise ValueError("series_exp needs constant term 0")
    coeffs = [Fraction(1, math.factorial(k)) for k in range(1, length)]
    return _series_sum(f, length, [1] + [0] * (length - 1), coeffs)


def _series_sum(f, length: int, acc: list, coeffs) -> list:
    """acc + sum over k >= 1 of coeffs[k-1] (f - f[0])**k, truncated."""
    u = [0] + list(f[1:length])
    pw = [1] + [0] * (length - 1)
    for c in coeffs:
        pw = series_mul(pw, u, length)
        for i in range(length):
            if pw[i]:
                acc[i] = acc[i] + c * pw[i]
    return [_canonical_exact(x) if isinstance(x, Fraction) else x for x in acc]
