"""Classical arithmetical functions and the closed-form identity suite.

Every constructor computes from the elementary definition (totient by the
product over prime factors, divisor sums by summing divisor powers, the
Mobius sign from the factorization, ...).  The per-prime closed forms --
for example "the totient's series at p is 1 + (p-1)x + (p^2-p)x^2 + ..."
-- are used only on the verification side, so the identity suite compares
two genuinely independent computations of each function.
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
        out = [0j] * (n + 1)
        for p in sieve.primes:
            if p > n:
                break
            logp = math.log(p)
            pk = p
            while pk <= n:
                out[pk] = logp
                pk *= p
        return ArithFn._wrap(n, COMPLEX, out)

    spf = sieve._spf[: n + 1].tolist()  # one bulk copy; per-index reads stay cheap
    if name == "mobius":
        out = [0] * (n + 1)
        out[1] = 1
        for k in range(2, n + 1):
            p = spf[k]
            m = k // p
            out[k] = 0 if m % p == 0 else -out[m]
    elif name == "phi":
        out = [0] * (n + 1)
        out[1] = 1
        for k in range(2, n + 1):
            p = spf[k]
            m = k // p
            out[k] = out[m] * p if m % p == 0 else out[m] * (p - 1)
    elif name == "liouville":
        out = [0] * (n + 1)
        out[1] = 1
        for k in range(2, n + 1):
            out[k] = -out[k // spf[k]]
    elif name == "d":
        out = [0] * (n + 1)
        exp = [0] * (n + 1)  # exponent of spf(k) in k
        out[1] = 1
        for k in range(2, n + 1):
            p = spf[k]
            m = k // p
            if m % p == 0:
                exp[k] = exp[m] + 1
                out[k] = out[m] // (exp[m] + 1) * (exp[k] + 1)
            else:
                exp[k] = 1
                out[k] = out[m] * 2
    elif name == "nu":
        out = [0] * (n + 1)
        for k in range(2, n + 1):
            p = spf[k]
            m = k // p
            out[k] = out[m] + (0 if m % p == 0 else 1)
    elif name == "Omega":
        out = [0] * (n + 1)
        for k in range(2, n + 1):
            out[k] = out[k // spf[k]] + 1
    else:  # pragma: no cover
        raise AssertionError(name)

    return ArithFn._wrap(n, RATIONAL, out).to_backend(backend)


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
    for p in sieve.primes:
        if p > bound:
            break
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

    primes = [p for p in sieve.primes if p <= n]
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
