"""Classical arithmetical functions and the closed-form identity suite.

Every constructor computes from an elementary definition:

- mu, phi, liouville, nu and Omega by their smallest-prime-factor
  recurrence f(k) = F(f(k / p), p, [p | k / p]) with p = spf(k)
  (Apostol, Introduction to Analytic Number Theory, ch. 2);
- sigma_c by its divisor sum, the sum of d^c over the divisors d of n,
  and d as sigma_0: one convolution N^c * u, each output summed in
  ascending d.  A complex table rounds each power as CPython's
  complex(d) ** c: for a finite real c other than an integer of
  magnitude <= 100 that is libm's pow(d, c), so the powers are math.pow
  values (np.power's vector code differs from libm in the last bit) and
  the sum runs on reals; any other c keeps the per-d complex power,
  save a NaN of CPython's repeated squaring to a negative integer c,
  which takes libm's pow(d, c);
- Lambda as the prime-power indicator weighted by log p;
- I, u and N as direct tables.

The per-prime closed forms -- for example "the totient's value at p^k is
p^k - p^(k-1)" -- are used only on the verification side, so the identity
suite compares two genuinely independent computations of each function.
It evaluates each closed form as one numpy expression over the int64
prime-power rows (p, k, p^k) and folds those values straight into a table with
``structure._prime_power_fold``, under x for a multiplicative function
and under + for an additive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from .dirichlet import ArithFn, _conv, _modulus
from .errors import NonFiniteError, UnsupportedBackendError
from .numerics import COMPLEX, DEFAULT_TOL, RATIONAL
from .sieve import SpfSieve, _prime_powers
from .structure import _prime_power_fold

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
    backend accepts integer c >= 0, the complex backend any int, float,
    complex or Fraction c (never a bool).  The von Mangoldt function
    carries log-of-prime weights and exists only in the complex backend.
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
        p, _, pk = _prime_powers(sieve, n)
        out[pk] = list(map(math.log, p.tolist()))
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
        if isinstance(c, bool) or not isinstance(c, (int, float, complex, Fraction)):
            raise UnsupportedBackendError(
                f"sigma exponent must be a number, got {type(c).__name__} {c!r}"
            )
        try:  # a Fraction c (the DSL's sigma(1/2)) rounds as complex(c)
            powers = _complex_powers(n, complex(c))
        except OverflowError:
            raise NonFiniteError(f"sigma with c = {c!r} overflows below n = {n}") from None
    elif not isinstance(c, int) or isinstance(c, bool) or c < 0:
        raise UnsupportedBackendError(
            f"sigma with c = {c!r} is not exact; integer c >= 0 requires the rational "
            "backend, anything else the complex backend"
        )
    else:  # int64 when every d^c with d <= n fits it, else Python ints
        powers = np.arange(n + 1, dtype=np.int64 if n**c < 2**63 else object) ** c
        powers[0] = 0
    # sigma_c = N^c * u, the sum of d^c over the divisors d of n: the
    # kernel sums each output in ascending d, and a product with 1 is
    # exact, as in a plain divisor sum; a float64 sum is stored as the
    # real part of the complex table
    return ArithFn._wrap(n, backend, _conv(powers, np.ones(n + 1, powers.dtype), n))


def _complex_powers(n: int, c: complex) -> np.ndarray:
    """d^c at d = 0..n (0 at 0), each rounded as CPython's complex(d) ** c:
    float64 on libm's route below, else complex128.

    CPython raises to an exponent with zero imaginary part and an integer
    real part of magnitude <= 100 by repeated squaring, and to any other
    exponent through libm: pow(|d|, Re c) times the cosine and sine of
    the phase arg(d) Re c.  For d > 0 the phase is +-0, so a finite real
    c gives (pow(d, c), +-0), and math.pow calls that same libm pow.  In
    the divisor sum each product with 1 + 0j has imaginary part +0, so
    the sum of the float64 powers is the real part, bit for bit.
    np.power is no substitute: its vector code differs from libm's pow in
    the last bit on some d.  A non-finite c keeps the complex powers,
    whose NaNs the kernel reports.

    Repeated squaring to a negative c gives nan+nanj once a square of d
    overflows (inf times the imaginary 0; from d = 65536 at c = -64),
    where the true power is 0 or subnormal: those entries take libm's
    pow(d, c) instead, and every finite one keeps CPython's bits.
    """
    if c.imag == 0 and math.isfinite(c.real) and not (c.real.is_integer() and abs(c.real) <= 100):
        powers = np.zeros(n + 1)
        powers[1:] = np.fromiter(map(math.pow, range(1, n + 1), repeat(c.real)), np.float64, n)
        return powers
    powers = np.array([0j] + [complex(d) ** c for d in range(1, n + 1)])
    if c.imag == 0 and -100 <= c.real < 0:  # a negative integer, by the test above
        lost = np.flatnonzero(~np.isfinite(powers))
        powers[lost] = [math.pow(d, c.real) for d in lost.tolist()]
    return powers


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
    bad = np.flatnonzero(lhs._values_at(slice(None)) != rhs._values_at(slice(None)))
    if len(bad):
        return IdentityCheck(name, bound, "rational", False, first_fail=int(bad[0]))
    return IdentityCheck(name, bound, "rational", True)


#: identity name -> (catalogue constructor, its c, product (x) or sum (+)
#: fold, the closed-form values at the int64 rows (p, k, pk = p^k): Bell
#: coefficients c_p[k] under x, prime-support values
#: g(p, k) = f(p^k) - f(p^(k-1)) under +)
_CLOSED_FORMS = {
    "u": ("u", None, True, lambda p, k, pk: np.ones_like(k)),
    "mu": ("mobius", None, True, lambda p, k, pk: np.where(k == 1, -1, 0)),
    "phi": ("phi", None, True, lambda p, k, pk: pk - pk // p),
    "lambda": ("liouville", None, True, lambda p, k, pk: 1 - 2 * (k % 2)),
    "d": ("d", None, True, lambda p, k, pk: k + 1),
    "N": ("N", None, True, lambda p, k, pk: pk),
    "sigma_1": ("sigma", 1, True, lambda p, k, pk: (pk * p - 1) // (p - 1)),
    "nu": ("nu", None, False, lambda p, k, pk: np.where(k == 1, 1, 0)),
    "Omega": ("Omega", None, False, lambda p, k, pk: np.ones_like(k)),
}


def verify_identities(sieve: SpfSieve, *, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Check the ten per-prime closed forms against the definitional tables.

    The nine exact identities (u, mu, phi, liouville, d, N, sigma_1, nu,
    Omega) evaluate their closed form on every prime power p^k <= N, the
    sieve's bound, fold those values into a table (a product over the
    prime powers of n, or a sum for nu and Omega) and must match exactly;
    the von Mangoldt identity is checked in floats via (u * Lambda)(n) =
    ln n together with Lambda = mu * u', each within ``tol``, which must be
    positive.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    n = sieve.bound
    p, k, pk = _prime_powers(sieve, n)
    entries = []
    for name, (ctor, c, product, closed_form) in _CLOSED_FORMS.items():
        vals = closed_form(p, k, pk)
        rhs = _prime_power_fold(sieve, n, pk, vals, 1, RATIONAL, product)
        entries.append(_compare_exact(name, n, make(ctor, sieve, c=c), rhs))
    entries.insert(4, _lambda_entry(sieve, n, tol))  # the report lists Lambda after lambda
    return IdentityReport(tuple(entries))


def _lambda_entry(sieve: SpfSieve, n: int, tol: float) -> IdentityCheck:
    # (u * Lambda)(n) must be ln n: summing log p over the prime-power
    # divisors of n reassembles the full log.  Lambda = mu * u' recovers
    # the prime-power weights from the log-weighted derivative.
    u = ArithFn.ones(n, COMPLEX)
    logs = u.deriv()  # ln n on 1..N
    lam = make("mangoldt", sieve, COMPLEX)
    d1 = (u * lam)._v - logs._v
    d2 = (make("mobius", sieve, COMPLEX) * logs)._v - lam._v
    dev = np.maximum(_modulus(d1), _modulus(d2))[1:]
    fails = np.flatnonzero(dev > tol)
    first_fail = int(fails[0]) + 1 if len(fails) else None
    return IdentityCheck("Lambda", n, "complex", first_fail is None, first_fail, float(dev.max()))
