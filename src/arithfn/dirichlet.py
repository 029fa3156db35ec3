"""The truncated ring of arithmetical functions under Dirichlet convolution.

An :class:`ArithFn` is a dense table of coefficient values a(1)..a(N).
Because (a * b)(n) = sum_{d|n} a(d) b(n/d) only reads values at divisors
of n, every operation here is *exact* on 1..N: computing at a larger bound
and then truncating gives the same table as computing at the smaller bound
directly.

Operator conventions:

    a + b      pointwise sum
    a - b      pointwise difference
    r * a      scalar multiple (r a number)
    a * b      Dirichlet convolution
    a ** k     k-fold convolution power (k = 0 gives the unit I)
    a.inv()    Dirichlet inverse (requires a(1) != 0)

Convolution and inverse run in two numpy kernels, :func:`_conv` and
:func:`_inv`, shared by every backend.  Values are converted to an array
on entry and back to a tuple on exit; the array is int64 for int tables
whose magnitudes pass a provable overflow guard, object for big ints and
tables that fail it, and complex128 for the complex backend.  A product
of exact tables with Fractions convolves integer numerators over one
common denominator L per table, the lcm of its denominators, and divides
by the two Ls once on exit; a table with L >= 2**64 keeps its Fractions
in object storage instead (see the kernel notes below).  The inverse
takes Fraction tables as they are.  The convolution splits the divisor pairs d * m <= N at sqrt(N)
(Dirichlet's hyperbola method), so it takes about 2 sqrt(N) vector
operations; the inverse works in dyadic blocks [2**j, 2**(j+1)), each
final once the earlier blocks are pushed.

Each output coefficient is a sum over its divisors in ascending order,
of the same products a per-divisor loop forms.  In the float backend
this makes every result bit-reproducible across runs.  A complex result
with a NaN or infinite value raises :class:`NonFiniteError`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    BackendMismatchError,
    BoundMismatchError,
    NonFiniteError,
    NotInvertibleError,
    UnsupportedBackendError,
)
from .numerics import COMPLEX, DEFAULT_EPS, RATIONAL


class ArithFn:
    """Arithmetical function truncated at ``bound``; immutable.

    Values are indexed 1..bound; index 0 does not exist.  Construction
    goes through :meth:`from_values` (validating) or the ``zeros`` /
    ``ones`` / ``identity`` helpers.
    """

    __slots__ = ("bound", "backend", "_v")

    def __init__(self, bound, backend, _values=None):
        if _values is None:
            raise TypeError("use ArithFn.from_values / zeros / ones / identity")
        self.bound = bound
        self.backend = backend
        self._v = _values  # tuple of length bound+1; slot 0 is dead padding

    # -- construction -------------------------------------------------

    @classmethod
    def _wrap(cls, bound, backend, padded):
        """Trusted constructor: ``padded`` is a list/tuple of length bound+1."""
        return cls(bound, backend, _values=tuple(padded))

    @classmethod
    def from_values(cls, values, backend=RATIONAL):
        """Build from the sequence [a(1), a(2), ..., a(N)]."""
        vals = [backend.convert(x) for x in values]
        if not vals:
            raise ValueError("an arithmetical function needs bound >= 1")
        return cls._wrap(len(vals), backend, [backend.zero] + vals)

    @classmethod
    def zeros(cls, bound, backend=RATIONAL):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return cls._wrap(bound, backend, [backend.zero] * (bound + 1))

    @classmethod
    def ones(cls, bound, backend=RATIONAL):
        """The constant-1 function u."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return cls._wrap(bound, backend, [backend.zero] + [backend.one] * bound)

    @classmethod
    def identity(cls, bound, backend=RATIONAL):
        """The convolution unit I: I(1) = 1, I(n) = 0 for n > 1."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        padded = [backend.zero] * (bound + 1)
        padded[1] = backend.one
        return cls._wrap(bound, backend, padded)

    # -- access --------------------------------------------------------

    def __getitem__(self, n: int):
        if not 1 <= n <= self.bound:
            raise IndexError(f"index {n} outside 1..{self.bound}")
        return self._v[n]

    def values(self) -> tuple:
        """The tuple (a(1), ..., a(N))."""
        return self._v[1:]

    def items(self):
        """Iterate (n, a(n)) for n = 1..N."""
        for n in range(1, self.bound + 1):
            yield n, self._v[n]

    def __len__(self) -> int:
        return self.bound

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArithFn):
            return NotImplemented
        return (
            self.bound == other.bound
            and self.backend is other.backend
            and self._v == other._v
        )

    def __hash__(self):
        return hash((self.bound, self.backend.name, self._v))

    def approx_eq(self, other: "ArithFn", tol: float) -> bool:
        """Per-index comparison within ``tol`` (exact backend: tol ignored)."""
        if self.bound != other.bound or self.backend is not other.backend:
            return False
        eq = self.backend.eq
        return all(eq(x, y, tol) for x, y in zip(self._v[1:], other._v[1:]))

    def __repr__(self) -> str:
        head = ", ".join(self.backend.format(v) for v in self._v[1 : min(self.bound, 8) + 1])
        tail = ", ..." if self.bound > 8 else ""
        return f"ArithFn(bound={self.bound}, backend={self.backend.name}, [{head}{tail}])"

    # -- shape helpers ---------------------------------------------------

    def _check_compatible(self, other: "ArithFn") -> None:
        if not isinstance(other, ArithFn):
            raise TypeError(f"expected ArithFn, got {type(other).__name__}")
        if self.backend is not other.backend:
            raise BackendMismatchError(
                f"backend mismatch: {self.backend.name} vs {other.backend.name}"
            )
        if self.bound != other.bound:
            raise BoundMismatchError(f"bound mismatch: {self.bound} vs {other.bound}")

    def truncate(self, bound: int) -> "ArithFn":
        """Restriction to 1..bound (bound <= current bound)."""
        if not 1 <= bound <= self.bound:
            raise BoundMismatchError(
                f"cannot truncate bound {self.bound} to {bound}"
            )
        return ArithFn._wrap(bound, self.backend, self._v[: bound + 1])

    def to_backend(self, backend) -> "ArithFn":
        """Convert values; only exact -> complex widening is allowed."""
        if backend is self.backend:
            return self
        if self.backend is RATIONAL and backend is COMPLEX:
            return ArithFn._wrap(
                self.bound, COMPLEX, [complex(v) for v in self._v]
            )
        raise UnsupportedBackendError(
            f"cannot convert {self.backend.name} values to {backend.name}"
        )

    # -- pointwise ring of the codomain -----------------------------------

    def __add__(self, other: "ArithFn") -> "ArithFn":
        self._check_compatible(other)
        a, b = self._v, other._v
        return ArithFn._wrap(self.bound, self.backend, [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "ArithFn") -> "ArithFn":
        self._check_compatible(other)
        a, b = self._v, other._v
        return ArithFn._wrap(self.bound, self.backend, [x - y for x, y in zip(a, b)])

    def __neg__(self) -> "ArithFn":
        return ArithFn._wrap(self.bound, self.backend, [-x for x in self._v])

    def scale(self, r) -> "ArithFn":
        """Pointwise scalar multiple r*a; r must fit the backend."""
        r = self.backend.convert(r)
        return ArithFn._wrap(self.bound, self.backend, [r * x for x in self._v])

    # -- Dirichlet ring ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, ArithFn):
            self._check_compatible(other)
            a, la = _split(self._v, self.backend)
            b, lb = _split(other._v, self.backend)
            out = _conv(a, b, self.bound)
            return ArithFn._wrap(self.bound, self.backend, _values(out, la * lb))
        if isinstance(other, (int, float, complex, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            return self.scale(other)
        return NotImplemented

    def inv(self, eps: float = DEFAULT_EPS) -> "ArithFn":
        """Dirichlet inverse b with (a * b) = I on 1..N.

        Requires a(1) != 0 (float backend: |a(1)| > eps).
        """
        a1 = self._v[1]
        if self.backend is COMPLEX:
            if abs(a1) <= eps:
                raise NotInvertibleError(
                    f"a(1) = {a1!r} is within eps={eps} of zero; no Dirichlet inverse"
                )
        elif a1 == 0:
            raise NotInvertibleError("a(1) = 0; no Dirichlet inverse")
        out = _inv(_array(self._v, self.backend), self.bound)
        return ArithFn._wrap(self.bound, self.backend, _values(out))

    def __pow__(self, k: int) -> "ArithFn":
        """k-fold convolution power by binary exponentiation; a**0 = I."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"convolution power needs an integer k >= 0, got {k!r}")
        result = ArithFn.identity(self.bound, self.backend)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- analytic-flavoured extras ---------------------------------------

    def deriv(self) -> "ArithFn":
        """Log-weighted derivative a'(n) = a(n) ln n (float backend only)."""
        if self.backend is not COMPLEX:
            raise UnsupportedBackendError(
                "derivative multiplies by ln n, which is irrational for n >= 2; "
                "use the complex backend"
            )
        v = self._v
        out = [0j] * (self.bound + 1)
        for n in range(2, self.bound + 1):
            out[n] = v[n] * math.log(n)
        return ArithFn._wrap(self.bound, COMPLEX, out)

    def valuation(self, eps: float = DEFAULT_EPS) -> int | None:
        """Least n with a(n) != 0, or None for the zero function."""
        is_zero = self.backend.is_zero
        for n in range(1, self.bound + 1):
            if not is_zero(self._v[n], eps):
                return n
        return None

    def support(self, eps: float = DEFAULT_EPS) -> list[int]:
        """Ascending list of all n <= N with a(n) != 0."""
        is_zero = self.backend.is_zero
        return [n for n in range(1, self.bound + 1) if not is_zero(self._v[n], eps)]


# ---------------------------------------------------------------------------
# kernels
#
# One convolution kernel and one inverse kernel serve every backend; the
# storages differ only in dtype:
#
#   int64       every value is a Python int and the overflow guard holds;
#   object      big ints, int tables that fail the guard, and Fractions
#               of tables above the common-denominator cap;
#   complex128  the complex backend.
#
# Guard: an output n sums tau(n) <= 2 sqrt(n) products, so partial sums
# stay below 2**62 when max|a| * max|b| * (2 floor(sqrt N) + 1) < 2**62.
# A table that fails it is computed in object storage instead.
#
# Exact tables with Fractions enter the kernels as integer numerators
# over L, the lcm of their denominators (_split), and results are divided
# by the product of the Ls once on exit (_values), so the kernels see
# only ints.  Numerators grow with L, so there is a cap: at N = 2048 the
# table 1/n has L = lcm(1..2048) of 2955 bits, and on numerators a * a
# took 263 ms and dlog 2202 ms, against 70 and 218 ms on Fractions; on
# random tables with denominators in 1..m, dlog on numerators stopped
# winning between 574 and 1008 bits of L (2-core Xeon VM, Python 3.11).
# Tables with L >= _SPLIT_CAP = 2**64 keep their Fractions, with L = 1;
# the exact traffic measured so far stays under 46 bits.
#
# Every output sums its products a(d) b(n/d) in ascending order of d, and
# each product is rounded as a per-divisor loop rounds it, so complex
# results are bit-reproducible and equal to that loop, which
# tests/conftest.py keeps as the oracle.
# ---------------------------------------------------------------------------

_SPLIT_CAP = 2**64


def _array(vals, backend) -> np.ndarray:
    """Kernel storage for a padded value sequence (see the notes above)."""
    if backend is COMPLEX:
        return np.array(vals, dtype=np.complex128)
    # Not dtype=np.int64: that silently truncates a Fraction to an int.
    # numpy's own type discovery gives int64 only when every value is an
    # int that fits, object for Fractions and for ints beyond uint64, and
    # uint64 or a lossy float64 for ints in [2**63, 2**64).
    arr = np.array(vals)
    if arr.dtype != np.int64 and arr.dtype != object:
        arr = np.array(vals, dtype=object)
    return arr


def _split(vals, backend) -> tuple[np.ndarray, int]:
    """Kernel storage of a padded value sequence over one common
    denominator: (arr, L) with vals[i] == arr[i] / L.

    For exact values L is the lcm of the denominators and arr holds
    integer numerators, unless L reaches _SPLIT_CAP: then arr keeps the
    Fractions and L = 1.  Int and complex tables have L = 1.
    """
    arr = _array(vals, backend)
    if arr.dtype != object:
        return arr, 1
    den = 1
    for x in vals:
        if type(x) is Fraction and den % x.denominator:
            den = math.lcm(den, x.denominator)
            if den >= _SPLIT_CAP:
                return arr, 1
    if den == 1:
        return arr, 1
    ints = [x.numerator * (den // x.denominator) if type(x) is Fraction else x * den for x in vals]
    return _array(ints, RATIONAL), den


def _values(out: np.ndarray, den: int = 1) -> list:
    """Kernel storage back to values, each divided by ``den``; exact
    values come out as ints where the denominator is 1, else as Fractions."""
    vals = out.tolist()
    if den != 1:
        # x is an int, or a Fraction from a table above _SPLIT_CAP
        vals = [Fraction(x, den) if x % den else x // den for x in vals]
    elif out.dtype == object:
        # type() rather than isinstance(): Fraction's ABC check is slow
        vals = [x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in vals]
    return vals


def _max_abs(x: np.ndarray) -> int:
    # Python ints: np.abs wraps at -2**63.
    return max(-int(x.min()), int(x.max()))


def _fits_int64(max_a: int, max_b: int, n: int) -> bool:
    return max_a * max_b * (2 * math.isqrt(n) + 1) < 2**62


def _check_finite(out: np.ndarray, op: str) -> None:
    if out.dtype == np.complex128 and not np.isfinite(out).all():
        raise NonFiniteError(f"Dirichlet {op} overflowed to a non-finite value")


def _scaled(w, x: np.ndarray) -> np.ndarray:
    """w * x elementwise (w a scalar or an array of x's shape), each
    product rounded exactly as the Python scalar product w * x[i].

    numpy's array complex multiply rounds differently from its scalar one,
    so the complex case spells the scalar formula out in real parts.
    """
    if x.dtype != np.complex128:
        return w * x
    out = np.empty_like(x)
    out.real = w.real * x.real - w.imag * x.imag
    out.imag = w.real * x.imag + w.imag * x.real
    return out


@np.errstate(over="ignore", invalid="ignore")  # _check_finite reports it
def _conv(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a * b) on 1..n for padded arrays (slot 0 unused).

    Dirichlet's hyperbola split: every pair d * m <= n has d <= K or
    m <= n // (K + 1), K = floor(sqrt n).  The d-loop pushes a(d) times a
    slice of b onto the multiples of d <= K; the m-loop, m descending,
    pushes a(D) b(m) for the support D of a in (K, n // m].  Descending m
    keeps each output's contributions in ascending d.  About 2 sqrt(n)
    vector operations; a zero a(d) is never multiplied.
    """
    if a.dtype != b.dtype or (
        a.dtype == np.int64 and not _fits_int64(_max_abs(a), _max_abs(b), n)
    ):
        a, b = a.astype(object), b.astype(object)
    k = math.isqrt(n)
    out = np.zeros(n + 1, dtype=a.dtype)
    for d in range(1, k + 1):
        ad = a[d]
        if ad != 0:
            out[d::d] += ad * b[1 : n // d + 1]
    sup = np.flatnonzero(a[k + 1 :]) + (k + 1)
    a_sup = a[sup]
    ms = np.arange(n // (k + 1), 0, -1)
    counts = np.searchsorted(sup, n // ms, side="right")
    for m, c in zip(ms.tolist(), counts.tolist()):
        if c:
            np.add.at(out, sup[:c] * m, a_sup[:c] * b[m])
    _check_finite(out, "convolution")
    return out


@np.errstate(over="ignore", invalid="ignore")  # _check_finite reports it
def _inv(a: np.ndarray, n: int) -> np.ndarray:
    """Dirichlet inverse on 1..n of a padded array with a(1) != 0.

    b(1) = 1/a(1) and b(n) = -b(1) acc(n), acc(n) = sum over d | n, d < n
    of b(d) a(n/d).  The dyadic block [2**j, 2**(j+1)) only has proper
    divisors in earlier blocks, so once those are pushed its b is one
    vector op; the block is then pushed to its multiples by a d-loop or
    a descending m-loop, whichever takes fewer steps.  int64 needs
    a(1) = +-1 and re-checks the guard per block with the running max|b|.
    """
    a1 = a[1]
    if a.dtype == np.complex128:
        inv1 = 1.0 / a1
    elif a.dtype == np.int64 and (a1 == 1 or a1 == -1):
        inv1 = int(a1)
    else:
        a = a.astype(object)
        a1 = a[1]
        inv1 = a1 if a1 == 1 or a1 == -1 else Fraction(1, 1) / a1
    w = -inv1
    max_a = _max_abs(a) if a.dtype == np.int64 else 0
    max_b = 1
    acc = np.zeros(n + 1, dtype=a.dtype)
    b = np.zeros(n + 1, dtype=a.dtype)
    b[1] = inv1
    lo = 1
    while lo <= n:
        hi = min(2 * lo, n + 1)
        if lo > 1:
            b[lo:hi] = _scaled(w, acc[lo:hi])
        if b.dtype == np.int64:
            max_b = max(max_b, _max_abs(b[lo:hi]))
            if not _fits_int64(max_a, max_b, n):
                a, b, acc = a.astype(object), b.astype(object), acc.astype(object)
        sup = np.flatnonzero(b[lo:hi]) + lo
        top = n // lo
        if len(sup) < top:
            for d in sup.tolist():
                acc[2 * d :: d] += b[d] * a[2 : n // d + 1]
        else:
            b_sup = b[sup]
            ms = np.arange(top, 1, -1)
            counts = np.searchsorted(sup, n // ms, side="right")
            for m, c in zip(ms.tolist(), counts.tolist()):
                np.add.at(acc, sup[:c] * m, b_sup[:c] * a[m])
        lo = hi
    _check_finite(b, "inverse")
    return b
