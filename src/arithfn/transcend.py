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

Exact series run on integers.  The input is split into integer
numerators b over one common denominator L (``dirichlet._split``); the
powers b**k are integer convolutions over the implied L**k, and the terms
add up as Python ints over one common denominator D,

    dlog:  D = lcm(1..K) L**K,  term k adds (-1)**(k-1) D / (k L**k) * b**k
    dexp:  D = K! L**K,         term k adds D / (k! L**k) * b**k

each coefficient an integer, so the only division is the one per value at
the end.  A table in object storage with L = 1 (ints beyond int64, or
Fractions kept because L reached the split cap) takes the coefficients
(-1)**(k-1) / k and 1 / k! as they are, with D = 1.
The complex backend uses the same loop with float coefficients and D = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .dirichlet import ArithFn, _conv, _scratch, _split
from .errors import DomainError
from .numerics import COMPLEX, rational


def _require_unit_value(a: ArithFn, want, op: str) -> None:
    if a[1] != want:
        raise DomainError(
            f"{op} needs a(1) = {a.backend.format(want)}, "
            f"got a(1) = {a.backend.format(a[1])}",
            value=a[1],
        )


def dlog(a: ArithFn, *, normalize_unit: bool = False) -> ArithFn:
    """Formal logarithm; domain a(1) = 1, image has value 0 at index 1.

    ``normalize_unit`` divides the input pointwise by a(1) first instead
    of rejecting a(1) != 1 (off by default: silently normalizing would
    mask data errors).
    """
    if normalize_unit and a[1] != a.backend.one:
        if a.backend.is_zero(a[1]):
            raise DomainError("cannot normalize: a(1) = 0", value=a[1])
        # a(1)/a(1) can miss 1.0 by an ulp in floats; b(1) = 0 below anyway
        a = a.scale((1.0 if a.backend is COMPLEX else Fraction(1, 1)) / a[1])
    else:
        _require_unit_value(a, a.backend.one, "dlog")
    n = a.bound
    terms = n.bit_length() - 1  # floor(log2 n): later terms vanish on 1..n
    exact = a.backend is not COMPLEX
    b, den = _split(a._v)
    b = b.copy()  # stored tables are read-only
    b[1] = 0
    # exact: term k is +-(b / den)**k / k = +-(big_d / (k den**k)) b**k / big_d
    big_d = math.lcm(*range(1, terms + 1)) * den**terms if _integral(b, den) else 1
    acc = _scratch(n + 1, a.backend)
    pw = b
    for k in range(1, terms + 1):
        if k > 1:
            pw = _conv(pw, b, n)
        if exact:
            _accumulate(acc, rational((-1) ** (k - 1) * big_d, k * den**k), pw)
        else:
            acc += ((-1.0) ** (k - 1) / k) * pw
    return ArithFn._wrap(n, a.backend, acc, big_d)


def dexp(a: ArithFn) -> ArithFn:
    """Formal exponential; domain a(1) = 0, image has value 1 at index 1."""
    _require_unit_value(a, a.backend.zero, "dexp")
    n = a.bound
    terms = n.bit_length() - 1  # floor(log2 n): later terms vanish on 1..n
    exact = a.backend is not COMPLEX
    b, den = _split(a._v)
    # exact: term k is (b / den)**k / k! = (big_d / (k! den**k)) b**k / big_d
    big_d = math.factorial(terms) * den**terms if _integral(b, den) else 1
    acc = _scratch(n + 1, a.backend)
    acc[1] = big_d
    pw = np.zeros(n + 1, dtype=b.dtype)
    pw[1] = 1
    fact = 1
    for k in range(1, terms + 1):
        pw = _conv(pw, b, n)
        fact *= k
        if exact:
            _accumulate(acc, rational(big_d, fact * den**k), pw)
        else:
            acc += (1.0 / fact) * pw
    return ArithFn._wrap(n, a.backend, acc, big_d)


def _integral(b: np.ndarray, den: int) -> bool:
    """Whether b surely holds ints: int64, or numerators over den > 1.
    Object storage with den = 1 may keep Fractions (above the split cap),
    so its series runs over big_d = 1."""
    return b.dtype == np.int64 or den > 1


def _accumulate(acc: np.ndarray, c, pw: np.ndarray) -> None:
    """acc += c * pw in Python ints or Fractions, skipping the zeros of pw."""
    nz = np.flatnonzero(pw)
    terms = pw[nz].astype(object)
    acc[nz] += terms if c == 1 else c * terms


def psi(a: ArithFn, *, normalize_unit: bool = False) -> ArithFn:
    """u * dlog(a): takes convolution of functions with a(1) = 1 to
    pointwise sum; multiplicative inputs land on additive outputs."""
    u = ArithFn.ones(a.bound, a.backend)
    return u * dlog(a, normalize_unit=normalize_unit)


def psi_inv(a: ArithFn) -> ArithFn:
    """dexp(mu * a), the two-sided inverse of :func:`psi`."""
    _require_unit_value(a, a.backend.zero, "psi_inv")
    mu = ArithFn.ones(a.bound, a.backend).inv()
    return dexp(mu * a)
