"""Structure predicates and per-prime decompositions.

A multiplicative function is determined by its values on prime powers:
it factors as a per-prime family of truncated power series ("Bell
series") f_p(x) = 1 + a(p)x + a(p^2)x^2 + ... and, conversely, any such
family with constant terms 1 multiplies out to a multiplicative function.
An additive function is u-convolved from a sparse table supported on
prime powers: a = u * g with g(p, k) = a(p^k) - a(p^(k-1)), and g is
exactly mu * a.  That last identity also yields an alternative additivity
test: a is additive iff (mu * a)(n) = 0 whenever n is not a prime power
(including n = 1).  On an exact table the least failing n is 1 if
a(1) != 0, else the least failure of the law below, so only a complex
table is convolved (:func:`mobius_additivity_test`).

The predicates read the storage the convolution kernel uses (exact
numerators A = a den: A(mn) = A(m) + A(n), A(mn) den = A(m) A(n)).  An
exact table is decided by the characterization law: a is multiplicative
iff a(1) = 1 and a(k) = a(r(k)) a(k / r(k)) for every k = 2..N, r(k) the
fold index below (additive: a(1) = 0 and a sum), read off the sieve's
fold index in steps of at most ``sieve.STEP`` indices (:func:`_law_failure`).
The pair scan runs only to name the witness of an exact table that
fails, and on complex tables, where closeness within a tolerance is not
transitive, so the law would be another test.

The scan reads every coprime pair (m, n), 2 <= m < n, m*n <= N, in
ascending (m, n), from one bit-packed index per bound (one bit per
candidate n of each m, 0.76 MB at N = 10^6), kept on the sieve, in
vector steps of at most ``sieve.STEP`` pairs, the first at m = 2; the first
failing pair of the first failing step is the lexicographically least
witness.  Complex values compare within tol + 8 eps (|lhs| + |rhs|): the
absolute tolerance plus a rounding allowance that grows with the
magnitudes, as in PEP 485's ``isclose``; an equal finite pair passes
without it.
Both reconstructions are one fold over the exact prime powers of each
index, under x or +, one vector op per step of the sieve's walk over
2..N (``sieve._steps``): a(k) is a(k / P^v) c_P[v], or a(k / P^v) +
A(P^v) with A(P^v) = g(P, 1) + ... + g(P, v) summed first, P^v the exact
power of the largest prime factor of k, read off the sieve's fold index
by exact float quotients (``sieve._quotient``) and ``take`` gathers.  So
every value is formed in ascending primes, as a per-index loop over the
factorization forms it.  A complex sum, whose rounding depends on the
order of addition, runs a(k / P) + g(P, v) (P is spf(P^v)) in ascending
(p, k), so complex results are bit-identical to that loop.

Every entry point that reads prime powers takes the caller's sieve,
which must reach the table's bound: the two readers of the sieve,
``sieve._prime_powers`` and :func:`_prime_power_fold`, raise ValueError
on a smaller one before they read it.  :func:`is_multiplicative`,
:func:`is_additive` and the products, powers and inverses of tagged
tables take no sieve and read the one ``sieve._sieve_for`` finds.  The
checks, decompositions and reconstructions walk the prime-power rows
(p, k, p^k) of ``sieve._prime_powers``.  The identity suite
(``catalogue.verify_identities``) folds its closed-form values on those
rows with :func:`_prime_power_fold` directly, with no decomposition
object in between.

Both decompositions are views of one row value (:class:`_Rows`): the
function's values at the rows (p, k), sorted by (p, k), stored as a
table stores its values.  :func:`bell_decompose_mult` keeps a(p^k), the
constant terms 1 implied; :func:`additive_decompose` keeps the nonzero
a(p^k) - a(p^(k-1)).  Each is one gather of the table's storage, and
rows at a bound are the same whatever sieve made them, so a
reconstruction folds them with no validation pass and a round trip does
no per-prime Python.  Input given to the public constructors is checked
instead: (prime, coeffs) pairs (a :class:`BellSeries`; a prime given
twice is an error) by a walk in :func:`bell_reconstruct_mult`, (p, k)
keys as they are read.  Every support's bases are checked prime at
reconstruction, by one gather of the sieve.  A lookup binary-searches
the sorted rows (:meth:`_Rows.span`) and boxes only the rows it finds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import sieve as _sieve_module
from .dirichlet import (
    ArithFn,
    _box,
    _max_abs,
    _modulus,
    _objects,
    _scaled,
    _scratch,
    _store,
)
from .errors import NonFiniteError, StructureError
from .numerics import DEFAULT_TOL, _canonical_exact
from .sieve import SpfSieve, _check_bound, _prime_powers, _quotient, _sieve_for, _steps

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
def _prime_power_fold(sieve, n, pks, stored, den, backend, product, unit=1) -> ArithFn:
    """f on 1..n with f(1) = 1 and f(k) = at[p1^a1] x at[p2^a2] x ...
    (``product``), or f(1) = 0 and f(k) = at[p1] + ... + at[p1^a1] +
    at[p2] + ... over the primes of k ascending, where at[pks[i]] =
    stored[i] / den, else 0; ``stored`` and ``den`` are as :func:`_store`
    gives them, or numerators over a multiple of the lcm of their
    denominators.  An exact product is then multiplied by the integer
    ``unit`` in place.

    With r(k) = k / P(k)^v (the sieve's fold index), P(k) the largest prime
    factor of k, and q = k / r(k) that prime power, f(k) = f(r(k)) x at[q];
    an exact sum first adds up each prime's increments, A(p^k) = at[p] +
    ... + at[p^k] (one vector op per exponent, on Python ints over the
    rows of the primes <= sqrt n), and runs f(k) = f(r(k)) + A(q).  A
    complex sum keeps f(k / P(k)) + at[q], P(k) = spf(q), as its rounding
    depends on the order of addition.  Every read is below k / 2 or at q,
    so each step of ``sieve._steps`` is one vector op on exact float
    quotients (``sieve._quotient``) and ``take`` gathers, and the
    temporaries stay near 1 MB at any n.  int64 runs while a step's
    max|left| x max|right| (or +) < 2**63; a step that fails moves to
    object, and so does a sum whose A leaves int64.  left is read from the
    folded prefix, whose max|f| ``top`` is kept from each written step, and
    right from the stored values (or A), of max ``peak``: only a step with
    top x peak (or +) >= 2**63 computes its own maxima.  The sum runs on
    the numerators over their den; a product over den > 1 would need
    den**omega(k), so it runs on the boxed values.  An exact fold keeps
    ``at`` in the table it fills: f(q) = 1 x at[q] or 0 + A(q) at a prime
    power q, and a step reads at[q] at prime powers folded in an earlier
    step or at its own k, before it writes them, so one N-sized array
    serves both (in complex, 1 x z can flip a signed zero).
    """
    _check_bound(sieve, n)
    if product and den > 1:
        stored, den = _objects(_box(stored, den)), 1
    rest = sieve._fold_index(n)
    out = np.zeros(n + 1, dtype=stored.dtype)
    exact = out.dtype != np.complex128
    at = out if exact else np.zeros(n + 1, dtype=out.dtype)
    at[pks] = stored
    out[1] = top = int(product)  # f(1); a product runs with den = 1
    peak = _max_abs(stored) if out.dtype == np.int64 and len(stored) else 0
    if exact and not product:
        p, k, pk = _prime_powers(sieve, n)
        head = int(np.searchsorted(p, math.isqrt(n), side="right"))  # every row with k >= 2
        k, pk = k[:head], pk[:head]
        sums = out[pk].astype(object)
        for j in range(2, int(k.max(initial=1)) + 1):
            rows = np.flatnonzero(k == j)
            sums[rows] += sums[rows - 1]  # rows are sorted by (p, k): row - 1 is p^(j-1)
        peak = max(peak, _peak(sums))
        out = at = _widened(out, peak)
        out[pk] = sums
    chain = not exact and not product  # the complex sum's order of addition
    combine = operator.mul if product else operator.add
    for lo, hi in _steps(n):
        k = np.arange(lo, hi)
        r = rest[lo:hi]
        q = _quotient(k, r)  # the prime power k / r(k)
        left = out.take(_quotient(k, sieve._spf.take(q)) if chain else r)
        right = at.take(q)
        if out.dtype == np.int64 and combine(top, peak) >= 2**63:
            if combine(_max_abs(left), _max_abs(right)) >= 2**63:
                out = at = out.astype(object)
                left, right = left.astype(object), right.astype(object)
        if not exact:
            out[lo:hi] = _scaled(left, right) if product else left + right
        else:
            (np.multiply if product else np.add)(left, right, out=out[lo:hi])
            if out.dtype == np.int64:
                top = max(top, _max_abs(out[lo:hi]))
    if unit != 1:
        if out.dtype == np.int64 and not abs(unit) * top < 2**63:
            out = out.astype(object)
        out *= unit
    return ArithFn._wrap(n, backend, out, den)


@np.errstate(over="ignore", invalid="ignore")
def _first_mismatch(lhs: np.ndarray, rhs: np.ndarray, tol: float | None) -> int | None:
    """Index of the first position where lhs and rhs differ, else None.

    Exact storage compares with ==.  Complex values match when
    |lhs - rhs| <= tol + _SLACK (|lhs| + |rhs|), with the checks of
    :func:`approx_eq`: tol must be positive, and a NaN or infinite value at
    or before the first mismatch raises NonFiniteError.  Only the positions
    with lhs != rhs or lhs not finite are tested, since equal finite values
    match for every tol > 0.  Moduli are :func:`dirichlet._modulus`.
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
        allowed = tol + _SLACK * (_modulus(lhs) + _modulus(rhs))
        bad = ~(finite & (_modulus(lhs - rhs) <= allowed))
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


def _coprime_mask(sieve: SpfSieve, m: int, top: int) -> np.ndarray:
    """keep[i] is true iff k = m + 1 + i, m < k <= top, is coprime to m:
    each prime p | m strikes out k = m + p, m + 2p, ... (cheaper than np.gcd
    per k)."""
    keep = np.ones(top - m, dtype=bool)
    for p, _ in sieve.factorize(m):
        keep[p - 1 :: p] = False
    return keep


def _pair_index(sieve: SpfSieve, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coprime pairs 2 <= m < k, m k <= n, as one bit-packed mask.

    m = 2, 3, ... while n // m > m owns the bytes starts[m - 2] to
    starts[m - 1] of ``mask``; bit j of them is set iff k = m + 1 + j is
    coprime to m (bits past n // m are clear).  About (ln(n) / 2 - 1) n
    bits, with ``starts``: 63 KB at 10^5, 0.76 MB at 10^6, 8.9 MB at 10^7.
    Kept on the sieve per bound.
    """
    ms = np.arange(2, math.isqrt(n) + 1)
    ms = ms[n // ms > ms]
    starts = np.concatenate(([0], np.cumsum((n // ms - ms + 7) // 8)))
    mask = np.empty(starts[-1], dtype=np.uint8)
    for m, lo, hi in zip(ms.tolist(), starts.tolist(), starts[1:].tolist()):
        mask[lo:hi] = np.packbits(_coprime_mask(sieve, m, n // m))
    mask.flags.writeable = starts.flags.writeable = False
    return mask, starts


def _coprime_pairs(sieve: SpfSieve, n: int):
    """Yield the coprime pairs 2 <= m < k, m k <= n, in ascending (m, k),
    at most ``sieve.STEP`` at a time, the first from m = 2: arrays ms,
    counts and k, where m = np.repeat(ms, counts) pairs with k.

    One chunk is STEP bits of :func:`_pair_index`: its set bits, and per m
    the count of them, give k = bit - (first bit of m) + m + 1.
    """
    mask, starts = sieve._for_bound(_pair_index, n)
    step = _sieve_module.STEP // 8
    for lo in range(0, len(mask), step):
        hi = min(lo + step, len(mask))
        first = int(np.searchsorted(starts, lo, side="right")) - 1
        last = int(np.searchsorted(starts, hi, side="left"))
        bits = np.flatnonzero(np.unpackbits(mask[lo:hi]).view(bool))
        edges = 8 * (starts[first : last + 1] - lo)  # each m's first bit in the chunk's frame
        counts = np.diff(np.searchsorted(bits, edges))
        ms = np.arange(first + 2, last + 2)
        yield ms, counts, bits - np.repeat(edges[:-1] - ms - 1, counts)


def _law_storage(v: np.ndarray, den: int, product: bool) -> np.ndarray:
    """v, in object storage where int64 could wrap in the law or the pair
    scan on it: A(m) A(n) and A(k) den need max|A| max(max|A|, den) < 2**62
    (``product``), A(m) + A(n) needs 2 max|A| < 2**63."""
    if v.dtype != np.int64:
        return v
    top = _max_abs(v)
    return _widened(v, 2 * top * max(top, den) if product else 2 * top)


def _law_failure(v: np.ndarray, den: int, n: int, product: bool, sieve: SpfSieve) -> int | None:
    """The least k = 2..n with A(k) den != A(r(k)) A(q(k)) (``product``),
    else A(k) != A(r(k)) + A(q(k)), on the exact numerators v = A over den
    (stored as :func:`_law_storage` gives them), or None if there is none:
    r(k) is k with the power of its largest prime removed (the sieve's
    fold index), so q(k) = k / r(k) is that prime power.

    Given a(1) = 1 (or 0), no k fails iff every coprime pair passes.  Each
    k with r = r(k) > 1 is the coprime pair (r, q) (as (min, max)), both
    >= 2; at r = 1 the law reads a(k) = a(1) a(k).  Conversely, by
    induction on the number of distinct primes of k, r(k) having one
    fewer, the law gives a(k) = the product (sum) of a(p^v) over the
    exact prime powers p^v of k, and two coprime m, n share no prime, so
    a(mn) = a(m) a(n).  One vector step per ``sieve.STEP`` indices, on an
    exact float quotient (``sieve._quotient``) and ``take`` gathers: the
    law reads no value it writes, so its steps need no dyadic blocks.
    """
    rest, step = sieve._fold_index(n), _sieve_module.STEP
    for lo in range(2, n + 1, step):
        hi = min(lo + step, n + 1)
        r = rest[lo:hi]
        q = _quotient(np.arange(lo, hi), r)
        rhs, lhs = v.take(r), v[lo:hi]
        if product:
            rhs *= v.take(q)
            lhs = lhs * den if den > 1 else lhs
        else:
            rhs += v.take(q)
        bad = lhs != rhs
        if bad.any():
            return lo + int(bad.argmax())
    return None


@np.errstate(over="ignore", invalid="ignore")  # _first_mismatch reports it
def _coprime_pair_scan(a: ArithFn, kind: str, product: bool, tol, sieve: SpfSieve) -> CheckResult:
    """a(mk) = a(m) a(k) (``product``) or a(m) + a(k) on every coprime pair
    2 <= m < k, mk <= N, then a(1) = 1 (or 0).

    An exact table with the right a(1) is decided by :func:`_law_failure`
    first, with no pair read; a table it fails, one with another a(1),
    and every complex table (closeness within a tolerance is not
    transitive, so the law would be another test) go to the scan.

    The scan takes one vector step per chunk of :func:`_coprime_pairs`, in
    ascending (m, k); the first failing pair of the first failing chunk is
    the least witness.  On numerators A = a den, a(1) = 1 is A(1) = den,
    and int64 storage falls back to object by :func:`_law_storage`.
    """
    v, den = _law_storage(a._v, a.den, product), a.den
    if (v.dtype != np.complex128 and v[1] == (den if product else 0)
            and _law_failure(v, den, a.bound, product, sieve) is None):
        return CheckResult(True, kind)
    for ms, counts, k in _coprime_pairs(sieve, a.bound):
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
    """:func:`_coprime_pair_scan` (the law on an exact table, the pairs to
    name a witness or on a complex one), then a(p^k) = a(p)**k
    (``product``) or k a(p) on every prime power p^k <= N with k >= 2; the
    witness is the least failing pair, else the least failing (p, k).  A
    complex a(p)**k beyond the floats raises NonFiniteError."""
    p, k, pk = _prime_powers(sieve, a.bound)
    base = _coprime_pair_scan(a, kind, product, tol, sieve)
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
    wrong, the conventional witness (1, 1) flags index 1.  An exact table
    is decided by a(k) = a(r(k)) a(k / r(k)), where r(k) is k without the
    power of its largest prime; the pair scan names the witness, and
    decides a complex table.
    """
    return _coprime_pair_scan(a, "multiplicative", True, tol, _sieve_for(a.bound))


def is_additive(a: ArithFn, tol: float | None = None) -> CheckResult:
    """a(1) = 0 and a(mn) = a(m) + a(n) for coprime m, n >= 2 with mn <= N.

    a(1) = 0 is forced by taking m = n = 1.  Witness convention as in
    :func:`is_multiplicative`: least failing sum-law pair, else (1, 1).
    An exact table is decided by a(k) = a(r(k)) + a(k / r(k)); the pair
    scan names the witness, and decides a complex table.
    """
    return _coprime_pair_scan(a, "additive", False, tol, _sieve_for(a.bound))


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
    n with two or more distinct prime factors (Apostol 2.7).  Agrees with
    :func:`is_additive` on every input; the witness is the least failing
    index n.

    An exact table fails at 1 if a(1) != 0, else at the least k where
    a(k) = a(r(k)) + a(k / r(k)) fails (:func:`_law_failure`), with no
    convolution: let k0 be that k and a' the additive function equal to a
    below k0.  (mu * a)(n) reads a at the divisors of n only, so it is
    (mu * a')(n) = 0 at every n < k0 that is no prime power, and
    a(k0) - a'(k0) != 0 at k0, which is no prime power.  A complex table
    is convolved with mu, the fold of -1 at the primes and 0 at the higher
    prime powers, since closeness within a tolerance is not transitive.
    """
    _check_bound(sieve, a.bound)
    if a._v.dtype != np.complex128:
        v, den = a._v, a.den
        k = 1 if v[1] != 0 else _law_failure(_law_storage(v, den, False), den, a.bound, False, sieve)
        if k is None:
            return CheckResult(True, "additive-mobius")
        return CheckResult(False, "additive-mobius", k, "index")
    _, k, pk = _prime_powers(sieve, a.bound)
    at = np.where(k == 1, -1, 0).astype(np.complex128)
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
# decompositions: values on the prime-power rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Rows:
    """A function's values at prime powers p^k: int64 ``p`` and ``k``,
    sorted by (p, k), the values stored as :func:`_store` keeps them
    (numerators, or complex128) and their ``den``; every array read-only.
    Rows at a bound are the same whatever sieve made them."""

    p: np.ndarray
    k: np.ndarray
    vals: np.ndarray
    den: int

    def __post_init__(self):
        for arr in (self.p, self.k, self.vals):
            arr.flags.writeable = False

    def span(self, *key) -> tuple[int, int]:
        """Rows lo:hi of a prime (p,) or a key (p, k), empty if none: binary
        searches of column p, then of k in p's rows.  A part x matches int i
        as a dict key does, iff hash(x) == x == i (a row's 1 <= i < 2**61 - 1
        hashes to itself): 2.0 and np.int64(2) match 2, '2' and 2.5 nothing.
        numpy reads hash(x), never x; every part is hashed before a search."""
        ints = [hash(x) for x in key]
        lo, hi = 0, len(self.p)
        if not all(h == x for h, x in zip(ints, key)):
            return lo, lo
        for col, h in zip((self.p, self.k), ints):
            lo, hi = (lo + col[lo:hi].searchsorted((h, h + 1))).tolist()
        return lo, hi

    def boxed(self, lo: int = 0, hi: int | None = None) -> list:
        """The values of rows lo:hi as Python scalars."""
        return _box(self.vals[lo:hi], self.den)

    def fold(self, sieve, n, backend, product) -> ArithFn:
        """:func:`_prime_power_fold` of the rows on 1..n."""
        return _prime_power_fold(sieve, n, self.p**self.k, self.vals, self.den, backend, product)


# ---------------------------------------------------------------------------
# the Dirichlet ring on Bell rows
#
# A tagged table (see dirichlet.py) is an integer table t M, where M is
# multiplicative, M(1) = 1, and t = a(1).  The tag keeps M at the rows
# (p, k) of ``sieve._prime_powers`` at the table's bound.
# Under *, M is the product over p of its Bell series
# f_p = 1 + M(p) x + M(p^2) x^2 + ... (Apostol 2.16), and the
# multiplicative functions form a group in which the inverse acts prime by
# prime: the Bell series of M^-1 at p is 1 / f_p.  So a product, power or
# inverse of tagged tables is one series op per prime p <= sqrt N
# (series_mul, its powers, or the reciprocal g_0 = 1,
# g_k = -(f_1 g_(k-1) + ... + f_k g_0)), one vector op on the k = 1 rows
# of the primes above (whose series is 1 + M(p) x: a(p) + b(p), k a(p) or
# -a(p)), and one fold of the new rows, multiplied by the product of the
# scalars (for an inverse t^-1, so only t = +-1 takes this route).  The
# result is tagged with those rows; _store keeps every table in one
# storage, so it is the table the convolution and inverse kernels give.
# ---------------------------------------------------------------------------


def _tag(a: ArithFn, sieve: SpfSieve) -> ArithFn:
    """``a``, tagged: an integer table with a(1) = 1 that its construction
    proves multiplicative.  The tag ``a._mult`` is M at the rows (p, k) of
    ``sieve._prime_powers`` at a's bound, as int64 (else object) integers,
    read-only; it keeps no sieve, as the rows at a bound are the same
    whatever sieve made them."""
    rows = a._v[_prime_powers(sieve, a.bound)[2]]
    rows.flags.writeable = False
    a._mult = rows
    return a


def _peak(x: np.ndarray) -> int:
    """max |x| as a Python int, 0 for no values."""
    return _max_abs(x) if len(x) else 0


def _widened(x: np.ndarray, limit: int) -> np.ndarray:
    """x, in object storage if ``limit``, a bound on what int64 must hold, reaches 2**63."""
    return x.astype(object) if x.dtype == np.int64 and limit >= 2**63 else x


def _series_pow(f: list, k: int, length: int) -> list:
    """f**k for k >= 0, truncated to ``length``, by binary exponentiation."""
    out = [1] + [0] * (length - 1)
    while k:
        if k & 1:
            out = series_mul(out, f, length)
        k >>= 1
        if k:
            f = series_mul(f, f, length)
    return out


def _bell_route(a: ArithFn, unit: int, series, tail, *rows) -> ArithFn:
    """unit M, tagged, where M is multiplicative with the series
    series(f_1, ..., length) at each prime p <= sqrt n, f_i the operands'
    series at p, and the value tail(x_1, ...) at a prime p > sqrt n, x_i
    the operands' values at p (``rows`` are the operands' tag rows)."""
    n = a.bound
    sieve = _sieve_for(n)
    p, k, pk = _prime_powers(sieve, n)
    head = int(np.searchsorted(p, math.isqrt(n), side="right"))  # the rows of p <= sqrt n
    starts = np.flatnonzero(k[:head] == 1).tolist()
    cols = [r[:head].tolist() for r in rows]
    vals = []
    for lo, hi in zip(starts, [*starts[1:], head]):
        vals += series(*([1, *col[lo:hi]] for col in cols), hi - lo + 1)[1:]
    try:
        top = np.array(vals, dtype=np.int64)
    except OverflowError:
        top = _objects(vals)
    m = np.concatenate((top, tail(*(r[head:] for r in rows))))
    m.flags.writeable = False
    out = _prime_power_fold(sieve, n, pk, m, 1, a.backend, True, unit)
    out._mult = m
    return out


def _bell_mul(a: ArithFn, b: ArithFn) -> ArithFn:
    """a * b of two tagged tables: the series product."""
    return _bell_route(a, a._v.item(1) * b._v.item(1), series_mul,
                       lambda x, y: _widened(x, _peak(x) + _peak(y)) + y,
                       a._mult, b._mult)


def _bell_pow(a: ArithFn, k: int) -> ArithFn:
    """a ** k of a tagged table, k >= 0: the series power."""
    return _bell_route(a, a._v.item(1) ** k, lambda f, length: _series_pow(f, k, length),
                       lambda x: k * _widened(x, k * _peak(x)), a._mult)


def _series_inv(f: list, length: int) -> list:
    """1 / f for f with constant term 1, truncated to ``length``:
    g_0 = 1 and g_k = -(f_1 g_(k-1) + ... + f_k g_0)."""
    g = [1]
    for k in range(1, length):
        g.append(-sum(f[j] * g[k - j] for j in range(1, k + 1)))
    return g


def _bell_inv(a: ArithFn) -> ArithFn:
    """a^-1 of a tagged table with a(1) = t = +-1: t times the series
    reciprocal, as t^-1 = t."""
    return _bell_route(a, a._v.item(1), _series_inv, lambda x: -_widened(x, _peak(x)), a._mult)


class BellSeries(NamedTuple):
    """Truncated per-prime power series as a (prime, coeffs) pair: coeffs[k] is
    the function's value at p^k, the coefficient of x^k; len(coeffs) = floor(log_p N) + 1."""

    prime: int
    coeffs: tuple

    def to_json_obj(self, backend) -> dict:
        return {"prime": self.prime, "coeffs": [backend.to_json(c) for c in self.coeffs]}


class BellDecomposition:
    """The Bell series of a multiplicative function: per prime p the
    coefficients c_p[k], the values at p^k, with constant term 1; values
    multiply across primes.

    :func:`bell_decompose_mult` makes it a view of the table's values on
    the prime-power rows, the constant terms 1 implied.  Built from
    (prime, coeffs) pairs, BellSeries among them, it keeps the pairs in
    the order given: primes are read with operator.index as the pairs
    are, a prime that is not an int, or is given twice, is a
    StructureError, and every coeffs must have a len(); the coefficients
    are checked by :func:`bell_reconstruct_mult`.  The tuples of a view
    are made only when ``series``, ``series_for`` or ``==`` read them.
    """

    __slots__ = ("bound", "backend", "_pairs", "_rows")

    def __init__(self, bound: int, backend, series):
        pairs = {}
        for key, coeffs in series:
            try:
                p = operator.index(key)
            except TypeError:
                raise StructureError(f"prime {key!r} is not an int", witness=key) from None
            if p in pairs:
                raise StructureError(f"two series at prime {p}", witness=p)
            pairs[p] = coeffs
        for coeffs in pairs.values():
            len(coeffs)  # TypeError for a series without len(), once every prime is read
        self.bound, self.backend, self._rows = bound, backend, None
        self._pairs = {p: tuple(coeffs) for p, coeffs in pairs.items()}

    @classmethod
    def _view(cls, bound: int, backend, rows: _Rows) -> "BellDecomposition":
        """The decomposition whose series are ``rows``, constant terms 1 implied."""
        dec = cls.__new__(cls)
        dec.bound, dec.backend, dec._rows = bound, backend, rows
        dec._pairs = None
        return dec

    @property
    def series(self) -> tuple:
        if self._rows is None:
            return tuple(map(BellSeries, self._pairs, self._pairs.values()))
        rows, one, vals = self._rows, self.backend.one, self._rows.boxed()
        heads = np.flatnonzero(rows.k == 1).tolist()  # each prime's first row
        spans = zip(rows.p[heads].tolist(), heads, [*heads[1:], len(vals)])
        return tuple(BellSeries(p, (one, *vals[lo:hi])) for p, lo, hi in spans)

    def series_for(self, p: int) -> BellSeries:
        """The series at p; a view boxes only p's rows."""
        if self._rows is None:
            coeffs = self._pairs.get(p)
        else:
            lo, hi = self._rows.span(p)
            coeffs = (self.backend.one, *self._rows.boxed(lo, hi)) if lo < hi else None
        if coeffs is None:
            raise StructureError(f"no series for prime {p}", witness=p)
        return BellSeries(p, coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BellDecomposition):
            return NotImplemented
        return (
            self.bound == other.bound
            and self.backend is other.backend
            and dict(self.series) == dict(other.series)
        )

    def __repr__(self) -> str:
        primes = len(self._pairs) if self._rows is None else np.count_nonzero(self._rows.k == 1)
        return f"BellDecomposition(bound={self.bound}, primes={primes})"


def bell_decompose_mult(a: ArithFn, sieve: SpfSieve) -> BellDecomposition:
    """Split a multiplicative function into its per-prime series.

    Raises StructureError carrying the witness pair if the input is not
    multiplicative; a silent decomposition of a non-multiplicative input
    would reconstruct into garbage.  The series are one gather of a's
    storage at the prime-power rows.
    """
    p, k, pk = _prime_powers(sieve, a.bound)
    _require(_coprime_pair_scan(a, "multiplicative", True, None, sieve))
    return BellDecomposition._view(a.bound, a.backend, _Rows(p, k, a._v[pk], a.den))


def bell_reconstruct_mult(dec: BellDecomposition, sieve: SpfSieve) -> ArithFn:
    """Multiply the per-prime series back out: a(p1^a1...pk^ak) is the
    product 1 * c_p1[a1] * c_p2[a2] * ... in ascending primes; a(1) = 1
    (empty product).

    A view folds its rows as they are.  The pairs of a decomposition
    built from them are walked in the order given: there must be one
    series per prime <= N and no other, each with its floor(log_p N) + 1
    coefficients and constant term 1, else StructureError names the first
    bad series, else the least missing prime; a coefficient the backend
    cannot hold raises when the values are stored.
    """
    n, backend = dec.bound, dec.backend
    if dec._rows is not None:
        return dec._rows.fold(sieve, n, backend, True)
    p, k, pk = _prime_powers(sieve, n)
    heads = np.flatnonzero(k == 1)
    caps = dict(zip(p[heads].tolist(), np.diff(np.append(heads, len(k))).tolist()))
    for q, coeffs in dec._pairs.items():
        if q not in caps:
            raise StructureError(f"the series at {q} is not at a prime <= {n}", witness=q)
        if len(coeffs) <= caps[q]:
            raise StructureError(f"the series at prime {q} is too short for bound {n}", witness=q)
        if coeffs[0] != backend.one:
            raise StructureError(
                f"constant term of the series at prime {q} must be 1, "
                f"got {backend.format(coeffs[0])}",
                witness=q,
            )
    if len(dec._pairs) < len(caps):  # every series is at a distinct prime, so one is missing
        q = next(q for q in caps if q not in dec._pairs)
        raise StructureError(f"no series for prime {q}", witness=q)
    vals = [c for q, cap in caps.items() for c in dec._pairs[q][1 : cap + 1]]
    return _prime_power_fold(sieve, n, pk, *_store(vals, backend), backend, True)


# ---------------------------------------------------------------------------
# prime-support decompositions (additive side)
# ---------------------------------------------------------------------------


class PrimeSupport:
    """Sparse table g(p, k) on prime powers p^k <= bound: the rows of its
    nonzero values, sorted by (p, k).

    Represents a function vanishing at 1 and at every index with two or
    more distinct prime factors; missing keys read as zero.  Keys are
    read with operator.index, and every key and value is checked at
    construction: the first entry with a bad key or value raises, in
    the order given.  :func:`additive_decompose` makes it a view of the
    table's differences on the prime-power rows.  The (p, k) tuples are
    made only when ``items``, JSON or ``==`` read them; ``get`` and
    ``series_at`` find their rows by :meth:`_Rows.span`.
    """

    __slots__ = ("bound", "backend", "_rows")

    def __init__(self, bound: int, backend, entries: dict | None = None):
        self.bound, self.backend = bound, backend
        self._rows = self._walk(bound, backend, (entries or {}).items())

    @classmethod
    def _view(cls, bound: int, backend, rows: _Rows) -> "PrimeSupport":
        """The support whose nonzero values are ``rows``."""
        g = cls.__new__(cls)
        g.bound, g.backend, g._rows = bound, backend, rows
        return g

    @staticmethod
    def _walk(bound, backend, entries) -> _Rows:
        """The rows of the nonzero values of (key, value) ``entries``,
        each checked in turn: the first with a bad or repeated key or a
        bad value raises."""
        table = {}
        index = operator.index
        bits = bound.bit_length()  # p >= 2, so p**k > bound once k >= bits: no power is formed
        for key, v in entries:
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
            if (p, k) in table:
                raise StructureError(f"two entries at key ({p}, {k})", witness=(p, k))
            table[p, k] = backend.convert(v)
        keys = sorted(table)
        stored, den = _store([table[key] for key in keys], backend)
        keep = stored != 0
        p, k = (np.array([key[i] for key in keys], dtype=np.int64)[keep] for i in (0, 1))
        return _Rows(p, k, stored[keep], den)

    def get(self, p: int, k: int):
        """g(p, k), zero for a missing key; p and k match as the ints of a
        dict's (p, k) keys would."""
        lo, hi = self._rows.span(p, k)
        return self._rows.boxed(lo, hi)[0] if lo < hi else self.backend.zero

    def items(self):
        """Entries sorted by (p, k)."""
        return list(zip(zip(self._rows.p.tolist(), self._rows.k.tolist()), self._rows.boxed()))

    def __len__(self) -> int:
        return len(self._rows.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeSupport):
            return NotImplemented
        return (
            self.bound == other.bound
            and self.backend is other.backend
            and self.items() == other.items()
        )

    def series_at(self, p: int, length: int) -> list:
        """Coefficient vector [0, g(p,1), g(p,2), ...] of ``length`` entries
        (none at length <= 0), from p's rows; p matches as in :meth:`get`."""
        rows, (lo, hi) = self._rows, self._rows.span(p)
        at = dict(zip(rows.k[lo:hi].tolist(), rows.boxed(lo, hi)))
        return [at.get(k, self.backend.zero) for k in range(length)]

    def to_json_obj(self) -> list:
        enc = self.backend.to_json
        return [{"p": p, "k": k, "value": enc(v)} for (p, k), v in self.items()]

    @classmethod
    def from_json_obj(cls, obj, bound: int, backend) -> "PrimeSupport":
        """The support of JSON rows {"p", "k", "value"}; a key given twice
        is a StructureError."""
        entries = [((row["p"], row["k"]), backend.from_json(row["value"])) for row in obj]
        return cls._view(bound, backend, cls._walk(bound, backend, entries))

    def __repr__(self) -> str:
        return f"PrimeSupport(bound={self.bound}, entries={len(self)})"


@np.errstate(over="ignore", invalid="ignore")  # convert reports it
def additive_decompose(a: ArithFn, sieve: SpfSieve) -> PrimeSupport:
    """Difference the prime-power values of an additive function:
    g(p, k) = a(p^k) - a(p^(k-1)); g equals mu * a on prime powers.  One
    vector difference of a's numerators at the prime-power rows."""
    p, k, pk = _prime_powers(sieve, a.bound)
    _require(_coprime_pair_scan(a, "additive", False, None, sieve))
    v = a._v
    # a(p^k) - a(p^(k-1)), a(p) - a(1) at k = 1; object if int64 could wrap
    high = v[pk].astype(object) if v.dtype == np.int64 and _max_abs(v) >= 2**62 else v[pk]
    diff = high - v[pk // p]
    if diff.dtype == np.complex128 and not np.isfinite(diff).all():
        a.backend.convert(complex(diff[np.argmin(np.isfinite(diff))]))  # raises, naming it
    keep = diff != 0
    return PrimeSupport._view(a.bound, a.backend, _Rows(p[keep], k[keep], diff[keep], a.den))


def additive_reconstruct(g: PrimeSupport, sieve: SpfSieve) -> ArithFn:
    """Sum g over the prime-power divisors of each index: the u-convolution
    of g's zero-extension, evaluated directly, each a(n) in ascending
    (p, k).  Keys must be genuine prime powers: a composite base raises
    StructureError, found after the fold, which checks the sieve's bound
    before any read.
    """
    rows = g._rows
    a = rows.fold(sieve, g.bound, g.backend, False)
    composite = np.flatnonzero(sieve._spf[rows.p] != rows.p)
    if len(composite):
        p, k = rows.p.item(composite[0]), rows.k.item(composite[0])
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
    return [_canonical_exact(x) if type(x) is Fraction else x for x in out]


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
    return [_canonical_exact(x) if type(x) is Fraction else x for x in acc]
