"""Shared oracles and random-function generators.

Everything here recomputes expected values by a route independent of the
code under test: trial division instead of the sieve, per-index divisor
scans and per-divisor loops instead of the vectorized convolution and
inverse kernels, per-pair and per-index loops instead of the vectorized
structure scans and reconstructions, and a derivation-based recurrence
(weighting by the prime-factor count, which is fully additive, hence a
derivation for the convolution product) instead of the
alternating/factorial series.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import arithfn as af


# ---------------------------------------------------------------------------
# elementary oracles (trial division / direct scans)
# ---------------------------------------------------------------------------


def factorize_brute(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def primes_brute(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if factorize_brute(p) == [(p, 1)]]


def divisors_brute(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius_brute(n: int) -> int:
    fac = factorize_brute(n)
    if any(k > 1 for _, k in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def phi_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def omega_brute(n: int) -> int:
    return sum(k for _, k in factorize_brute(n))


def nu_brute(n: int) -> int:
    return len(factorize_brute(n))


def is_prime_power_brute(n: int) -> bool:
    return len(factorize_brute(n)) == 1


def convolve_brute(a: af.ArithFn, b: af.ArithFn) -> list:
    """(a*b)(n) by direct divisor scan, ascending d; index 0 unused."""
    n_max = a.bound
    out = [a.backend.zero] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = a.backend.zero
        for d in divisors_brute(n):
            acc = acc + a[d] * b[n // d]
        out[n] = acc
    return out


def inverse_brute(a: af.ArithFn) -> list:
    """Dirichlet inverse by the textbook recursion with divisor scans."""
    n_max = a.bound
    one = a.backend.one
    inv1 = one / a[1] if a.backend is af.COMPLEX else Fraction(1, 1) / a[1]
    b = [a.backend.zero] * (n_max + 1)
    b[1] = inv1
    for n in range(2, n_max + 1):
        s = a.backend.zero
        for d in divisors_brute(n)[:-1]:
            s = s + b[d] * a[n // d]
        b[n] = -inv1 * s
    return b


# ---------------------------------------------------------------------------
# per-divisor loop kernels
#
# The loops the vectorized kernels replaced: outer divisor d ascending,
# inner multiples of d ascending, one step per d.  Each output thus sums
# over its divisors in ascending order, which the production kernels must
# reproduce bit for bit in complex128.  Inputs are padded (slot 0 unused).
# ---------------------------------------------------------------------------


def convolve_loop_exact(av, bv, n: int) -> list:
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        ad = av[d]
        if not ad:
            continue
        top = n // d
        out[d :: d] = [x + ad * y for x, y in zip(out[d :: d], bv[1 : top + 1])]
    return out


def convolve_loop_complex(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n + 1, dtype=np.complex128)
    for d in range(1, n + 1):
        ad = a[d]
        if ad == 0:
            continue
        top = n // d
        out[d :: d] += ad * b[1 : top + 1]
    return out


def inverse_loop_exact(av, n: int) -> list:
    a1 = av[1]
    inv1 = a1 if a1 == 1 or a1 == -1 else Fraction(1, 1) / a1
    acc = [0] * (n + 1)
    b = [0] * (n + 1)
    for d in range(1, n + 1):
        bd = inv1 if d == 1 else -inv1 * acc[d]
        b[d] = bd
        if not bd:
            continue
        top = n // d
        if top >= 2:
            acc[2 * d :: d] = [
                x + bd * y for x, y in zip(acc[2 * d :: d], av[2 : top + 1])
            ]
    return [x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x for x in b]


def inverse_loop_complex(a: np.ndarray, n: int) -> np.ndarray:
    inv1 = 1.0 / a[1]
    acc = np.zeros(n + 1, dtype=np.complex128)
    b = np.zeros(n + 1, dtype=np.complex128)
    for d in range(1, n + 1):
        bd = inv1 if d == 1 else -inv1 * acc[d]
        b[d] = bd
        if bd == 0:
            continue
        top = n // d
        if top >= 2:
            acc[2 * d :: d] += bd * a[2 : top + 1]
    return b


def complex_power_oracle(d: int, c):
    """complex(d) ** c as CPython rounds it, except where its repeated
    squaring to a negative integer c gives NaN (a square of d overflows):
    there the exact 1 / d**-c, rounded once."""
    z = complex(d) ** c
    if isinstance(c, int) and c < 0 and not cmath.isfinite(z):
        return complex(float(Fraction(1, d**-c)))
    return z


def sigma_loop_complex(c, n: int) -> list:
    """sigma_c on 1..n by the divisor-sum loop the complex constructor
    replaced: every d adds d**c to its multiples, d ascending."""
    powers = [complex_power_oracle(d, c) for d in range(1, n + 1)]
    out = [0j] * (n + 1)
    for d in range(1, n + 1):
        pd = powers[d - 1]
        for m in range(d, n + 1, d):
            out[m] += pd
    return out


def mangoldt_loop_complex(n: int) -> np.ndarray:
    """Lambda on 0..n by the per-prime loop the array constructor replaced:
    math.log(p) stored on every power of each prime p <= n."""
    out = [0j] * (n + 1)
    for p in primes_brute(n):
        logp = math.log(p)
        pk = p
        while pk <= n:
            out[pk] = logp
            pk *= p
    return np.array(out, dtype=np.complex128)


def pointwise_loop(f, *padded) -> np.ndarray:
    """f applied index by index to Python scalars, as the per-index loops
    of the pointwise ops and the widening to complex did; complex128."""
    return np.array([f(*xs) for xs in zip(*padded)], dtype=np.complex128)


def deriv_loop_complex(av) -> np.ndarray:
    """a(n) ln n by the per-index loop the array derivative replaced."""
    out = [0j] * len(av)
    for n in range(2, len(av)):
        out[n] = av[n] * math.log(n)
    return np.array(out, dtype=np.complex128)


# ---------------------------------------------------------------------------
# scalar structure loops
#
# The loops the vectorized predicates and reconstructions replaced: one
# comparison per coprime pair, prime power or index, and one factorization
# per index, with primes and factorizations by trial division.  Complex
# values compare within tol + 8 eps (|x| + |y|), one scalar at a time;
# the production scans must give the same verdicts and witnesses, and
# the reconstructions the same bits.
# ---------------------------------------------------------------------------

_SLACK = 8 * sys.float_info.epsilon


def eq_oracle(backend, x, y, tol) -> bool:
    if backend is not af.COMPLEX:
        return x == y
    tol = af.DEFAULT_TOL if tol is None else tol
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    for z in (complex(x), complex(y)):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise af.NonFiniteError(f"non-finite value {z!r}")
    return abs(x - y) <= tol + _SLACK * (abs(x) + abs(y))


def predicate_oracle(a: af.ArithFn, kind: str, tol=None) -> tuple:
    """(ok, witness, witness_kind, constants) of the structure predicate
    ``kind`` ("multiplicative", "completely-additive", "additive-mobius", ...)."""
    eq = lambda x, y: eq_oracle(a.backend, x, y, tol)  # noqa: E731
    n_max = a.bound
    if kind == "additive-mobius":
        mu = af.ArithFn.from_values(
            [mobius_brute(n) for n in range(1, n_max + 1)], a.backend
        )
        g = convolve_brute(mu, a)
        for n in range(1, n_max + 1):
            if not is_prime_power_brute(n) and not eq(g[n], a.backend.zero):
                return False, n, "index", None
        return True, None, None, None
    product = kind.endswith("multiplicative")
    for m in range(2, n_max + 1):
        if m * (m + 1) > n_max:
            break
        am = a[m]
        for k in range(m + 1, n_max // m + 1):
            if math.gcd(m, k) == 1 and not eq(a[m * k], am * a[k] if product else am + a[k]):
                return False, (m, k), "pair", None
    if not eq(a[1], a.backend.one if product else a.backend.zero):
        return False, (1, 1), "pair", None
    if not kind.startswith("completely"):
        return True, None, None, None
    constants = {}
    for p in primes_brute(n_max):
        constants[p] = c = a[p]
        pk, k = p * p, 2
        while pk <= n_max:
            if not eq(a[pk], c**k if product else k * c):
                return False, (p, k), "prime_power", None
            pk *= p
            k += 1
    return True, None, None, constants


def mobius_loop_oracle(a: af.ArithFn) -> tuple:
    """(ok, witness) of the Mobius additivity test on an exact table: the
    least n, no prime power, with (mu * a)(n) != 0, else None; mu by trial
    division, the convolution by the per-divisor loop."""
    n = a.bound
    mu = [0] + [mobius_brute(k) for k in range(1, n + 1)]
    g = convolve_loop_exact(mu, padded(a), n)
    bad = next((k for k in range(1, n + 1) if g[k] != 0 and not is_prime_power_brute(k)), None)
    return bad is None, bad


def bell_decompose_oracle(a: af.ArithFn) -> list:
    """[(p, (1, a(p), a(p^2), ...)), ...] for the primes p <= N."""
    out = []
    for p in primes_brute(a.bound):
        coeffs = [a.backend.one]
        pk = p
        while pk <= a.bound:
            coeffs.append(a[pk])
            pk *= p
        out.append((p, tuple(coeffs)))
    return out


def bell_reconstruct_oracle(dec: af.BellDecomposition) -> list:
    by_prime = {s.prime: s.coeffs for s in dec.series}
    out = [dec.backend.zero, dec.backend.one]
    for n in range(2, dec.bound + 1):
        acc = dec.backend.one
        for p, k in factorize_brute(n):
            acc = acc * by_prime[p][k]
        out.append(acc)
    return out


def additive_decompose_oracle(a: af.ArithFn) -> dict:
    entries = {}
    for p in primes_brute(a.bound):
        pk, k = p, 1
        while pk <= a.bound:
            entries[(p, k)] = a[pk] - a[pk // p]
            pk *= p
            k += 1
    return entries


def additive_reconstruct_oracle(g: af.PrimeSupport) -> list:
    out = [g.backend.zero] * (g.bound + 1)
    for n in range(2, g.bound + 1):
        acc = g.backend.zero
        for p, alpha in factorize_brute(n):
            for k in range(1, alpha + 1):
                acc = acc + g.get(p, k)
        out[n] = acc
    return out


# ---------------------------------------------------------------------------
# derivation-based log/exp oracles
#
# D(a)(n) = Omega(n) a(n) satisfies D(x*y) = D(x)*y + x*D(y) because the
# prime-factor count is fully additive over every divisor split.  Hence
# g = log(a) must satisfy D(g) = D(a) * a^{-1}, which pins g(n) for n >= 2
# as (D(a) * a^{-1})(n) / Omega(n); and f = exp(a) satisfies the sieve-style
# recurrence Omega(n) f(n) = sum_{d | n, d > 1} Omega(d) a(d) f(n/d).
# Exact, rational, and entirely independent of the truncated series.
# ---------------------------------------------------------------------------


def padded(fn: af.ArithFn) -> list:
    """The values of an exact table as the padded list [0, a(1), ..., a(N)]."""
    return [0, *fn.values()]


def dlog_oracle(av: list) -> list:
    """dlog of the padded exact values av (av[1] = 1), padded."""
    assert av[1] == 1
    n_max = len(av) - 1
    omega = [0] + [omega_brute(n) for n in range(1, n_max + 1)]
    da = [w * x for w, x in zip(omega, av)]
    lhs = convolve_loop_exact(da, inverse_loop_exact(av, n_max), n_max)
    return [0, 0] + [Fraction(lhs[n], omega[n]) for n in range(2, n_max + 1)]


def dexp_oracle(av: list) -> list:
    """dexp of the padded exact values av (av[1] = 0), padded."""
    assert av[1] == 0
    n_max = len(av) - 1
    omega = [0] + [omega_brute(n) for n in range(1, n_max + 1)]
    f = [0] * (n_max + 1)
    f[1] = 1
    for n in range(2, n_max + 1):
        s = 0
        for d in divisors_brute(n)[1:]:
            if av[d]:
                s = s + omega[d] * av[d] * f[n // d]
        f[n] = Fraction(s, omega[n])
    return f


def series_partial_sum_log(av: list, terms: int) -> list:
    """Direct partial sums of the alternating series for dlog of the padded
    exact values av, with a chosen term count, by repeated loop
    convolutions; padded."""
    n_max = len(av) - 1
    b = list(av)
    b[1] -= 1
    acc = [0] * (n_max + 1)
    pw = [0, 1] + [0] * (n_max - 1)
    for k in range(1, terms + 1):
        pw = convolve_loop_exact(pw, b, n_max)
        c = Fraction(-1 if k % 2 == 0 else 1, k)
        acc = [x + c * y for x, y in zip(acc, pw)]
    return acc


def series_loop_complex(a: af.ArithFn, kind: str) -> np.ndarray:
    """dlog ("log") or dexp ("exp") of a complex table by the truncated
    series, each power by the per-divisor loop, accumulated with the
    coefficients (-1)**(k-1) / k and 1 / k! as floats.  Padded."""
    n = a.bound
    b = np.array(a._v, dtype=np.complex128)
    acc = np.zeros(n + 1, dtype=np.complex128)
    if kind == "log":
        b[1] = 0
        pw = b
    else:
        acc[1] = 1.0
        pw = np.zeros(n + 1, dtype=np.complex128)
        pw[1] = 1
    fact = 1
    for k in range(1, n.bit_length()):
        if kind == "log":
            if k > 1:
                pw = convolve_loop_complex(pw, b, n)
            acc += ((-1.0) ** (k - 1) / k) * pw
        else:
            pw = convolve_loop_complex(pw, b, n)
            fact *= k
            acc += (1.0 / fact) * pw
    return acc


# ---------------------------------------------------------------------------
# random function generators
# ---------------------------------------------------------------------------

_EXACT_POOL = [0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]


def rand_exact_fn(rng: random.Random, bound: int, unit=None) -> af.ArithFn:
    """Random rational-valued function; ``unit`` pins a(1) when given."""
    vals = [rng.choice(_EXACT_POOL) for _ in range(bound)]
    if unit is not None:
        vals[0] = unit
    return af.ArithFn.from_values(vals, af.RATIONAL)


def recip_fn(bound: int, first) -> af.ArithFn:
    """[first, 1/2, ..., 1/bound]: its denominators' lcm reaches 2**512,
    the common-denominator cap, from bound = 359 on."""
    return af.ArithFn.from_values([first] + [Fraction(1, k) for k in range(2, bound + 1)])


def series_operand(rng: random.Random, n: int, first) -> list:
    """A padded table shaped like the rational-series benchmark operands:
    about a fifth zeros, the rest p/q with q in {1, 2, 3}."""
    return [0, first] + [
        0 if rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
        for _ in range(n - 1)
    ]


def rand_complex_fn(rng: random.Random, bound: int, unit=None) -> af.ArithFn:
    vals = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(bound)]
    if unit is not None:
        vals[0] = complex(unit)
    return af.ArithFn.from_values(vals, af.COMPLEX)


def rand_multiplicative(rng: random.Random, sieve: af.SpfSieve, bound: int) -> af.ArithFn:
    """Random multiplicative function from random per-prime coefficients
    with constant term 1 (the converse direction of the Bell split)."""
    series = []
    for p in sieve.primes:
        if p > bound:
            break
        cap = sieve.prime_power_cap(p, bound)
        series.append(
            af.BellSeries(p, tuple([1] + [rng.randint(-3, 3) for _ in range(cap)]))
        )
    dec = af.BellDecomposition(bound, af.RATIONAL, series)
    return af.bell_reconstruct_mult(dec, sieve)


def rand_additive(rng: random.Random, sieve: af.SpfSieve, bound: int) -> af.ArithFn:
    """Random additive function from a random prime-power table."""
    entries = {}
    for p in sieve.primes:
        if p > bound:
            break
        pk, k = p, 1
        while pk <= bound:
            entries[(p, k)] = rng.choice([0, 1, -1, 2, Fraction(1, 2)])
            pk *= p
            k += 1
    g = af.PrimeSupport(bound, af.RATIONAL, entries)
    return af.additive_reconstruct(g, sieve)


@pytest.fixture(scope="session")
def sieve100():
    return af.build_sieve(100)


@pytest.fixture(scope="session")
def sieve1000():
    return af.build_sieve(1000)


@pytest.fixture(scope="session")
def sieve2048():
    return af.build_sieve(2048)


@pytest.fixture(scope="session")
def sieve5000():
    return af.build_sieve(5000)
