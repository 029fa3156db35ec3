"""Reference values for checking the benchmark's results.

Nothing here calls ``arithfn``.  Convolutions go through a pair index
(every (d, m) with d m <= N) and ``np.add.at``, not the library's
per-divisor loops; catalogue functions come from their per-prime closed
forms; predicate verdicts come from theory (a multiplicative function is
multiplicative), and a failing verdict's least witness from a direct scan
in the order the predicates document.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import numpy as np

_cache: dict = {}


def _cached(key, build):
    if key not in _cache:
        _cache[key] = build()
    return _cache[key]


def spf(n: int) -> np.ndarray:
    """Smallest prime factor of 2..n (index 0 and 1 hold 0 and 1)."""

    def build():
        s = np.arange(n + 1, dtype=np.int64)
        for p in range(2, math.isqrt(n) + 1):
            if s[p] == p:
                idx = np.arange(p * p, n + 1, p)
                sel = s[idx] == idx
                s[idx[sel]] = p
        return s

    return _cached(("spf", n), build)


def prime_powers(n: int) -> list[tuple[int, int, int]]:
    """(p, k, p**k) for every prime power <= n, p then k ascending."""

    def build():
        s = spf(n)
        out = []
        for p in np.flatnonzero(s[2:] == np.arange(2, n + 1)) + 2:
            p = int(p)
            pk, k = p, 1
            while pk <= n:
                out.append((p, k, pk))
                pk *= p
                k += 1
        return out

    return _cached(("pp", n), build)


def mobius(n: int) -> np.ndarray:
    """Mobius function on 0..n (slot 0 is 0), sieved prime by prime."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    s = spf(n)
    for p in np.flatnonzero(s[2:] == np.arange(2, n + 1)) + 2:
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def is_prime_power(n: int) -> np.ndarray:
    mask = np.zeros(n + 1, dtype=bool)
    for _, _, pk in prime_powers(n):
        mask[pk] = True
    return mask


def factorization(n: int):
    """f[m] = [(p, k), ...] for m = 1..n, built by peeling the smallest prime."""

    def build():
        s = spf(n).tolist()
        out = [[] for _ in range(n + 1)]
        for m in range(2, n + 1):
            p = s[m]
            r = m // p
            prev = out[r]
            if prev and prev[0][0] == p:
                out[m] = [(p, prev[0][1] + 1)] + prev[1:]
            else:
                out[m] = [(p, 1)] + prev
        return out

    return _cached(("fac", n), build)


def multiplicative(n: int, coeff) -> list:
    """[0, f(1), ..., f(n)] for the multiplicative f with f(p^k) = coeff(p, k)."""
    out = [0] * (n + 1)
    for m, fac in enumerate(factorization(n)):
        if m == 0:
            continue
        v = 1
        for p, k in fac:
            v = v * coeff(p, k)
        out[m] = canon(v)
    return out


def additive(n: int, coeff) -> list:
    """[0, f(1), ..., f(n)] for the additive f with f(p^k) = coeff(p, k)."""
    out = [0] * (n + 1)
    for m, fac in enumerate(factorization(n)):
        if m:
            out[m] = canon(sum((coeff(p, k) for p, k in fac), 0))
    return out


def canon(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


# Bell coefficients f(p^k) of the integer-valued multiplicative catalogue
# functions, k >= 1.
BELL = {
    "u": lambda p, k: 1,
    "mu": lambda p, k: -1 if k == 1 else 0,
    "phi": lambda p, k: p**k - p ** (k - 1),
    "lambda": lambda p, k: (-1) ** k,
    "d": lambda p, k: k + 1,
    "N": lambda p, k: p**k,
    "sigma1": lambda p, k: (p ** (k + 1) - 1) // (p - 1),
}
COMPLETELY_MULTIPLICATIVE = ("u", "lambda", "N")


def catalogue(name: str, n: int) -> list:
    """Integer catalogue table [0, f(1), ..., f(n)] from closed forms."""
    if name == "nu":
        return additive(n, lambda p, k: 1)
    if name == "Omega":
        return additive(n, lambda p, k: k)
    return multiplicative(n, BELL[name])


# ---------------------------------------------------------------------------
# Dirichlet convolution by pair index
# ---------------------------------------------------------------------------


def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays d, m listing every pair with d m <= n, d then m ascending."""

    def build():
        d = np.arange(1, n + 1)
        counts = n // d
        dd = np.repeat(d, counts)
        starts = np.cumsum(counts) - counts
        mm = np.arange(dd.size) - np.repeat(starts, counts) + 1
        return dd, mm

    return _cached(("pairs", n), build)


def conv(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a * b)(k) for k = 0..n; arrays indexed 0..n with slot 0 unused.

    Integer inputs stay exact: int64 when every sum of |a(d) b(k/d)| is
    below 2**62, Python ints otherwise.
    """
    d, m = pair_index(n)
    k = d * m
    if a.dtype.kind in "iuO" and b.dtype.kind in "iuO":
        biggest = np.bincount(k, weights=np.abs(a[d]).astype(float) * np.abs(b[m]),
                              minlength=n + 1).max()
        dtype = np.int64 if biggest < 2**62 else object
        out = np.zeros(n + 1, dtype=dtype)
        np.add.at(out, k, a.astype(dtype)[d] * b.astype(dtype)[m])
        return out
    terms = a[d] * b[m]
    if np.iscomplexobj(terms):
        return (np.bincount(k, weights=terms.real, minlength=n + 1)
                + 1j * np.bincount(k, weights=terms.imag, minlength=n + 1))
    return np.bincount(k, weights=terms, minlength=n + 1)


def to_array(fn, dtype) -> np.ndarray:
    """Slot-0-padded array of an ArithFn's values."""
    return np.array((0,) + tuple(fn.values()), dtype=dtype)


def close(x: np.ndarray, y: np.ndarray, tol: float, scale=None) -> bool:
    """|x - y| <= tol * max(1, scale) elementwise; ``scale`` defaults to |y|.

    For a computed convolution the rounding error grows with the sum of
    the absolute values of its terms, which is the scale to pass.
    """
    s = np.abs(y) if scale is None else scale
    return bool(np.all(np.abs(x - y) <= tol * np.maximum(1.0, s)))


# ---------------------------------------------------------------------------
# predicate verdicts
# ---------------------------------------------------------------------------


def first_bad_pair(vals, n: int, holds):
    """Least coprime pair (m, k), 2 <= m < k, m k <= n, lexicographic,
    where ``holds(a(mk), a(m), a(k))`` is false; None if there is none."""
    m = 2
    while m * (m + 1) <= n:
        am = vals[m]
        for k in range(m + 1, n // m + 1):
            if gcd(m, k) == 1 and not holds(vals[m * k], am, vals[k]):
                return (m, k)
        m += 1
    return None


def expected_predicate(kind: str, vals, n: int, eq, known_base=False, known=False):
    """(ok, witness) a predicate of ``kind`` must return for ``vals``.

    ``eq(x, y)`` compares values.  ``known`` says theory guarantees the
    property (no scan needed); ``known_base`` says the same of the pair
    law that the "completely" kinds check first.
    """
    if known:
        return True, None
    if kind in ("multiplicative", "additive"):
        mult = kind == "multiplicative"
        holds = (lambda x, y, z: eq(x, y * z)) if mult else (lambda x, y, z: eq(x, y + z))
        bad = first_bad_pair(vals, n, holds)
        if bad is not None:
            return False, bad
        if not eq(vals[1], 1 if mult else 0):
            return False, (1, 1)
        return True, None
    if kind in ("completely-multiplicative", "completely-additive"):
        mult = kind == "completely-multiplicative"
        base = expected_predicate(kind.split("-", 1)[1], vals, n, eq, known=known_base)
        if not base[0]:
            return base
        for p, k, pk in prime_powers(n):
            if k >= 2 and not eq(vals[pk], vals[p] ** k if mult else k * vals[p]):
                return False, (p, k)
        return True, None
    if kind == "additive-mobius":
        # (mu * a)(1) = a(1)
        if not eq(vals[1], 0):
            return False, 1
        arr = np.array(vals, dtype=np.complex128 if isinstance(vals[1], complex) else np.int64)
        g = conv(np.array(catalogue("mu", n), dtype=arr.dtype), arr, n)
        ppow = is_prime_power(n)
        for k in range(2, n + 1):
            if not ppow[k] and not eq(g[k], 0):
                return False, k
        return True, None
    raise ValueError(kind)
