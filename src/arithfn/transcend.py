"""Formal log/exp on the Dirichlet ring and the Psi transform.

For b with b(1) = 0 the convolution power b**k vanishes at every n with
k > Omega(n), and Omega(n) <= log2(n).  The alternating/factorial series

    dlog(a) = sum_{k>=1} (-1)^(k-1) (a - I)**k / k        (a(1) = 1)
    dexp(a) = I + sum_{k>=1} a**k / k!                    (a(1) = 0)

are therefore *finite* on 1..N once truncated after K = floor(log2 N)
terms: every later term is identically zero.  Both maps are mutually
inverse bijections, and they exchange the two group laws:

    dlog(a * b) = dlog(a) + dlog(b),   dexp(a + b) = dexp(a) * dexp(b).

Composing with convolution by u (all ones) and its inverse mu gives the
transform

    psi(a)     = u * dlog(a)          psi_inv(a) = dexp(mu * a)

which carries multiplicative functions (a group under convolution) onto
additive functions (a group under pointwise sum) and back.

Both maps are one series loop, :func:`_series`, given the coefficients
p/q of term k: ((-1)**(k-1), k) for dlog and (1, k!) for dexp.  Exact
series run on integers.  An exact table is stored as integer numerators
b over one denominator L (``ArithFn.den``); the powers b**k are integer
convolutions over the implied L**k, and the terms add up as Python ints
over one common denominator D = lcm(q) L**K,

    dlog:  D = lcm(1..K) L**K,  term k adds (-1)**(k-1) D / (k L**k) * b**k
    dexp:  D = K! L**K,         term k adds D / (k! L**k) * b**k

each coefficient an integer.  The result is stored as those numerators
over D, reduced by one gcd: no value is divided.  A table that keeps its
Fractions (L = 1) runs the same integer coefficients on them.  The
complex backend runs the same loop with the float coefficients p / q.
"""

from __future__ import annotations

import math

import numpy as np

from .dirichlet import ArithFn, _conv, _scratch
from .errors import DomainError
from .numerics import COMPLEX


def _require_unit_value(a: ArithFn, want, op: str) -> None:
    if a[1] != want:
        raise DomainError(
            f"{op} needs a(1) = {a.backend.format(want)}, "
            f"got a(1) = {a.backend.format(a[1])}",
            value=a[1],
        )


def dlog(a: ArithFn) -> ArithFn:
    """Formal logarithm; domain a(1) = 1, image has value 0 at index 1.

    Any other a(1) = r is a DomainError; for r != 0 the caller rescales
    first, ``dlog(a.scale(Fraction(1) / r))`` or ``log(1/r . e)`` in the DSL.
    """
    _require_unit_value(a, a.backend.one, "dlog")
    b = a._v.copy()  # stored tables are read-only
    b[1] = 0
    return _series(a, b, a.den, 0, [((-1) ** (k - 1), k) for k in range(1, a.bound.bit_length())])


def dexp(a: ArithFn) -> ArithFn:
    """Formal exponential; domain a(1) = 0, image has value 1 at index 1."""
    _require_unit_value(a, a.backend.zero, "dexp")
    return _series(a, a._v, a.den, 1, [(1, math.factorial(k)) for k in range(1, a.bound.bit_length())])


def _series(a: ArithFn, b: np.ndarray, den: int, unit: int, coeffs) -> ArithFn:
    """unit I + sum over k >= 1 of (p/q) (b / den)**k on 1..N, for numerators
    b over den with b(1) = 0 and coeffs the (p, q) of k = 1..floor(log2 N).

    Exact: over big_d = lcm(q) den**K, term k adds the integer multiple
    (p big_d / (q den**k)) b**k, in Python ints or on the Fractions a
    table keeps above the cap.  Complex: p / q as a float.
    """
    n = a.bound
    exact = a.backend is not COMPLEX
    big_d = math.lcm(*(q for _, q in coeffs)) * den ** len(coeffs) if exact else 1
    acc = _scratch(n + 1, a.backend)
    acc[1] = unit * big_d
    pw = b
    for k, (p, q) in enumerate(coeffs, 1):
        if k > 1:
            pw = _conv(pw, b, n)
        if exact:
            c = p * big_d // (q * den**k)
            nz = np.flatnonzero(pw)  # zeros of pw add nothing
            terms = pw[nz].astype(object)
            acc[nz] += terms if c == 1 else c * terms
        else:
            acc += (float(p) / q) * pw
    return ArithFn._wrap(n, a.backend, acc, big_d)


def psi(a: ArithFn) -> ArithFn:
    """u * dlog(a): takes convolution of functions with a(1) = 1 to
    pointwise sum; multiplicative inputs land on additive outputs."""
    u = ArithFn.ones(a.bound, a.backend)
    return u * dlog(a)


def psi_inv(a: ArithFn) -> ArithFn:
    """dexp(mu * a), the two-sided inverse of :func:`psi`."""
    _require_unit_value(a, a.backend.zero, "psi_inv")
    mu = ArithFn.ones(a.bound, a.backend).inv()
    return dexp(mu * a)
