"""Classical arithmetical functions and the closed-form identity suite.

Every constructor computes from an elementary definition:

- mu, phi, liouville, nu and Omega by their smallest-prime-factor
  recurrence f(k) = F(f(k / p), p, [p | k / p]) with p = spf(k)
  (Apostol, Introduction to Analytic Number Theory, ch. 2);
- sigma_c by its divisor sum, the sum of d^c over the divisors d of n,
  and d as sigma_0;
- Lambda as the prime-power indicator weighted by log p;
- I, u and N as direct tables.

The per-prime closed forms -- for example "the totient's series at p is
1 + (p-1)x + (p^2-p)x^2 + ..." -- are used only on the verification side,
so the identity suite compares two genuinely independent computations of
each function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import ArithFn
from .errors import NonFiniteError, UnsupportedBackendError
from .numerics import COMPLEX, DEFAULT_TOL, RATIONAL
from .sieve import SpfSieve
from .structure import (
    BellDecomposition,
    BellSeries,
    PrimeSupport,
    _higher_prime_powers,
    _primes,
    additive_reconstruct,
    bell_reconstruct_mult,
)

#: Canonical constructor names (CLI aliases included).
NAMES = ("I", "u", "mobius", "phi", "mangoldt", "liouville", "d", "sigma", "N", "nu", "Omega")

_ALIASES = {
    "mu": "mobius",
    "Lambda": "mangoldt",
    "lambda": "liouville",
    "lambda_liouville": "liouville",
}


def canonical_name(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in NAMES:
        raise ValueError(f"unknown function name {name!r}")
    return name


def make(name: str, sieve: SpfSieve, backend=RATIONAL, c=None, bound: int | None = None) -> ArithFn:
    """Build a catalogue function at ``bound`` (default: the sieve bound).

    ``c`` is the exponent for the divisor-power sum sigma_c; the exact
    backend accepts integer c >= 0, the complex backend any real or
    complex c.  The von Mangoldt function carries log-of-prime weights
    and exists only in the complex backend.
    """
    name = canonical_name(name)
    n = sieve.bound if bound is None else bound
    if not 1 <= n <= sieve.bound:
        raise ValueError(f"bound {n} outside 1..{sieve.bound}")

    if name == "I":
        return ArithFn.identity(n, backend)
    if name == "u":
        return ArithFn.ones(n, backend)
    if name == "N":
        return ArithFn._wrap(n, RATIONAL, np.arange(n + 1)).to_backend(backend)
    if name == "sigma":
        return _make_sigma(sieve, n, backend, c)
    if name == "mangoldt":
        if backend is not COMPLEX:
            raise UnsupportedBackendError(
                "the von Mangoldt function takes log-of-prime values; use the complex backend"
            )
        out = np.zeros(n + 1, dtype=np.complex128)
        primes = _primes(sieve, n)
        out[primes] = [math.log(p) for p in primes]
        for p, _, pk in _higher_prime_powers(sieve, n):
            out[pk] = out[p]
        return ArithFn._wrap(n, COMPLEX, out)
    if name == "d":
        return _make_sigma(sieve, n, RATIONAL, 0).to_backend(backend)
    first, step = _SPF_STEPS[name]
    return ArithFn._wrap(n, RATIONAL, _spf_recurrence(sieve, n, first, step)).to_backend(backend)


#: f(1) and the step f(k) = step(f(m), p, p | m) with p = spf(k), m = k / p
_SPF_STEPS = {
    "mobius": (1, lambda f, p, div: np.where(div, 0, -f)),
    "phi": (1, lambda f, p, div: f * (p - 1 + div)),
    "liouville": (1, lambda f, p, div: -f),
    "nu": (0, lambda f, p, div: f + ~div),
    "Omega": (0, lambda f, p, div: f + 1),
}


def _spf_recurrence(sieve: SpfSieve, n: int, first: int, step) -> np.ndarray:
    """The int64 table f on 0..n with f(0) = 0, f(1) = ``first`` and
    f(k) = step(f(m), p, p | m) for k >= 2, where p = spf(k) and m = k / p.

    Every k in a dyadic block [lo, 2 lo) has m <= k / 2 < lo, so the values
    a block reads are final and the block is one vector op.
    """
    out = np.zeros(n + 1, dtype=np.int64)
    out[1] = first
    lo = 2
    while lo <= n:
        hi = min(2 * lo, n + 1)
        p = sieve._spf[lo:hi]
        m = np.arange(lo, hi) // p
        out[lo:hi] = step(out[m], p, m % p == 0)
        lo = hi
    return out


def _make_sigma(sieve: SpfSieve, n: int, backend, c) -> ArithFn:
    if c is None:
        raise ValueError("sigma needs an exponent c")
    if backend is COMPLEX:
        if not isinstance(c, (int, float, complex)):
            c = complex(c)  # e.g. a Fraction exponent from the expression DSL
        try:
            powers = [0j] + [complex(d) ** c for d in range(1, n + 1)]
        except OverflowError:
            raise NonFiniteError(f"sigma with c = {c!r} overflows below n = {n}") from None
    elif not isinstance(c, int) or isinstance(c, bool) or c < 0:
        raise UnsupportedBackendError(
            f"sigma with c = {c!r} is not exact; integer c >= 0 requires the rational "
            "backend, anything else the complex backend"
        )
    elif n**c < 2**63:  # then every d^c with d <= n fits int64
        powers = np.arange(n + 1) ** c
        powers[0] = 0
    else:
        powers = [0] + [d**c for d in range(1, n + 1)]
    # sigma_c = N^c * u, the sum of d^c over the divisors d of n: the
    # kernel sums each output in ascending d, and a product with 1 is
    # exact, as in a plain divisor sum
    return ArithFn._wrap(n, backend, powers) * ArithFn.ones(n, backend)


# ---------------------------------------------------------------------------
# identity suite: definitional tables vs per-prime closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    bound: int
    backend: str
    passed: bool
    first_fail: int | None = None
    max_dev: float | None = None  # float-backend identities only

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name}"
        if self.max_dev is None:
            return f"FAIL {self.name} at n={self.first_fail}"
        return f"FAIL {self.name} at n={self.first_fail} dev={self.max_dev:.3e}"


@dataclass(frozen=True)
class IdentityReport:
    entries: tuple

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self) -> list[str]:
        return [e.line() for e in self.entries]


def _compare_exact(name: str, bound: int, lhs: ArithFn, rhs: ArithFn) -> IdentityCheck:
    bad = np.flatnonzero(lhs._v != rhs._v)
    if len(bad):
        return IdentityCheck(name, bound, "rational", False, first_fail=int(bad[0]))
    return IdentityCheck(name, bound, "rational", True)


def _mult_closed_form(name: str, sieve: SpfSieve, bound: int, coeff_fn) -> BellDecomposition:
    series = []
    for p in _primes(sieve, bound):
        cap = sieve.prime_power_cap(p, bound)
        series.append(BellSeries(p, tuple(coeff_fn(p, k) for k in range(cap + 1))))
    return BellDecomposition(bound, RATIONAL, series)


def verify_identities(sieve: SpfSieve, bound: int | None = None, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Check the ten per-prime closed forms against the definitional tables.

    The seven exact identities (u, mu, phi, liouville, d, N, sigma_1) are
    rebuilt from their closed-form series coefficients and must match
    exactly; nu and Omega are rebuilt from their prime-power supports; the
    von Mangoldt identity is checked in floats via (u * Lambda)(n) = ln n
    together with Lambda = mu * u', each within ``tol``.
    """
    n = sieve.bound if bound is None else bound
    entries = []

    closed_forms = {
        "u": lambda p, k: 1,
        "mu": lambda p, k: (1, -1)[k] if k <= 1 else 0,
        "phi": lambda p, k: 1 if k == 0 else p**k - p ** (k - 1),
        "lambda": lambda p, k: (-1) ** k,
        "d": lambda p, k: k + 1,
        "N": lambda p, k: p**k,
        "sigma_1": lambda p, k: (p ** (k + 1) - 1) // (p - 1),
    }
    definitional = {
        "u": make("u", sieve, bound=n),
        "mu": make("mobius", sieve, bound=n),
        "phi": make("phi", sieve, bound=n),
        "lambda": make("liouville", sieve, bound=n),
        "d": make("d", sieve, bound=n),
        "N": make("N", sieve, bound=n),
        "sigma_1": make("sigma", sieve, c=1, bound=n),
    }

    for name in ("u", "mu", "phi", "lambda"):
        rhs = bell_reconstruct_mult(_mult_closed_form(name, sieve, n, closed_forms[name]), sieve)
        entries.append(_compare_exact(name, n, definitional[name], rhs))

    entries.append(_lambda_entry(sieve, n, tol))

    for name in ("d", "N", "sigma_1"):
        rhs = bell_reconstruct_mult(_mult_closed_form(name, sieve, n, closed_forms[name]), sieve)
        entries.append(_compare_exact(name, n, definitional[name], rhs))

    primes = _primes(sieve, n)
    nu_support = PrimeSupport(n, RATIONAL, {(p, 1): 1 for p in primes})
    entries.append(
        _compare_exact("nu", n, make("nu", sieve, bound=n), additive_reconstruct(nu_support, sieve))
    )
    omega_support = PrimeSupport(
        n, RATIONAL, {(p, k): 1 for p in primes for k in range(1, sieve.prime_power_cap(p, n) + 1)}
    )
    entries.append(
        _compare_exact(
            "Omega", n, make("Omega", sieve, bound=n), additive_reconstruct(omega_support, sieve)
        )
    )
    return IdentityReport(tuple(entries))


def _lambda_entry(sieve: SpfSieve, n: int, tol: float) -> IdentityCheck:
    # (u * Lambda)(n) must be ln n: summing log p over the prime-power
    # divisors of n reassembles the full log.  Lambda = mu * u' recovers
    # the prime-power weights from the log-weighted derivative.
    u = ArithFn.ones(n, COMPLEX)
    logs = u.deriv()  # ln n on 1..N
    lam = make("mangoldt", sieve, COMPLEX, bound=n)
    d1 = (u * lam)._v - logs._v
    d2 = (make("mobius", sieve, COMPLEX, bound=n) * logs)._v - lam._v
    # np.hypot rounds as Python's abs(complex) does; np.abs does not
    dev = np.maximum(np.hypot(d1.real, d1.imag), np.hypot(d2.real, d2.imag))[1:]
    fails = np.flatnonzero(dev > tol)
    first_fail = int(fails[0]) + 1 if len(fails) else None
    return IdentityCheck("Lambda", n, "complex", first_fail is None, first_fail, float(dev.max()))
