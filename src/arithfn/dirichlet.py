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

Every table is stored as one read-only numpy array, int64, object or
complex128, which the kernels run on as it is, and one denominator
``den``: an exact table holds the integer numerators of its values over
the lcm of their denominators (see :func:`_store`).  ``fn[n]``,
``values()`` and ``items()`` divide by ``den`` and give Python scalars.

Convolution and inverse run in two numpy kernels, :func:`_conv` and
:func:`_inv`, shared by every backend.  An int64 table whose magnitudes
fail a provable overflow guard runs in object storage.  A product
convolves numerators over the product of the two dens; the inverse of
numerators A is an integer table over |A(1)|**(K+1), K = floor(log2 N)
(see :func:`_inv`), times den.  Both kernels are calls to one push,
:func:`_push`, which adds x(d) y(m) into out[d m] for a support of d by
a d-loop or an m-loop, whichever is shorter.  A step of the m-loop over
a support at least half full adds one strided slice, a sparser step
scatters onto the support alone.  The convolution pushes the support of
a below and above sqrt(N) (Dirichlet's hyperbola method), so it takes
about 2 sqrt(N) vector operations; the inverse pushes dyadic blocks
[2**j, 2**(j+1)), each final once the earlier blocks are pushed.

Each output coefficient is a sum over its divisors in ascending order,
of the same products a per-divisor loop forms, plus, in strided steps,
zero products that change no bit (see :func:`_push`).  In the float
backend this makes every result bit-reproducible across runs.  A complex
result with a NaN or infinite value raises :class:`NonFiniteError`.

Tagged tables.  ``catalogue.make`` tags an exact I, u, mu, phi,
liouville, d, N and sigma_c, each multiplicative by its construction,
with its values at the prime powers (the slot ``_mult``, an array; see
``structure._tag``), and keeps no sieve.  A scale by a nonzero int and
unary minus keep the tag.  ``*`` of two tagged tables, ``**`` of one and
``inv`` of one with a(1) = +-1 run on those rows, a short power series
per prime p <= sqrt(N) (a product, a power or a reciprocal), one vector
op for the primes above and one prime-power fold on the smallest live
sieve that reaches N (``sieve._sieve_for``), and tag their result; the
result is the table the kernels give.  Every other inverse, of a tagged
table with |a(1)| > 1 too, runs :func:`_inv`, the general path, and is
untagged.  So is every other table: ``from_values``, files, ``+``,
``-``, a Fraction scale, ``truncate`` and ``to_backend``.  The structure
predicates never read a tag.
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
from .numerics import COMPLEX, DEFAULT_EPS, RATIONAL, rational
from .sieve import _sieve_for


class ArithFn:
    """Arithmetical function truncated at ``bound``; immutable.

    Values are indexed 1..bound; index 0 does not exist.  Construction
    goes through :meth:`from_values` (validating) or the ``zeros`` /
    ``ones`` / ``identity`` helpers.
    """

    __slots__ = ("bound", "backend", "_v", "den", "_mult")

    def __init__(self, bound, backend, _storage=None, den=1):
        if _storage is None:
            raise TypeError("use ArithFn.from_values / zeros / ones / identity")
        self.bound = bound
        self.backend = backend
        self._v = _storage  # read-only array of length bound+1 (see _store); slot 0 is dead padding
        self.den = den  # a(n) = _v[n] / den
        self._mult = None  # the Bell rows of a tagged table (see the module docstring)

    # -- construction -------------------------------------------------

    @classmethod
    def _wrap(cls, bound, backend, padded, den=1):
        """Trusted constructor: ``padded`` is a sequence or array of length
        bound+1, each value to be divided by ``den`` (see :func:`_store`)."""
        return cls(bound, backend, *_store(padded, backend, den))

    @classmethod
    def from_values(cls, values, backend=RATIONAL):
        """Build from the sequence [a(1), a(2), ..., a(N)]; :func:`_store`
        checks each value's type and, in the complex backend, finiteness."""
        padded = [backend.zero, *values]
        if len(padded) == 1:
            raise ValueError("an arithmetical function needs bound >= 1")
        return cls._wrap(len(padded) - 1, backend, padded)

    @classmethod
    def _constant(cls, bound, backend, first, rest):
        """The table (first, rest, rest, ...); numpy reads the backend's
        zero and one as int64 or complex128, which is their storage."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        padded = np.full(bound + 1, rest)
        padded[0] = backend.zero
        padded[1] = first
        return cls._wrap(bound, backend, padded)

    @classmethod
    def zeros(cls, bound, backend=RATIONAL):
        return cls._constant(bound, backend, backend.zero, backend.zero)

    @classmethod
    def ones(cls, bound, backend=RATIONAL):
        """The constant-1 function u."""
        return cls._constant(bound, backend, backend.one, backend.one)

    @classmethod
    def identity(cls, bound, backend=RATIONAL):
        """The convolution unit I: I(1) = 1, I(n) = 0 for n > 1."""
        return cls._constant(bound, backend, backend.one, backend.zero)

    # -- access --------------------------------------------------------

    def __getitem__(self, n: int):
        if not 1 <= n <= self.bound:
            raise IndexError(f"index {n} outside 1..{self.bound}")
        return self._v.item(n) if self.den == 1 else rational(self._v.item(n), self.den)

    def values(self) -> tuple:
        """The tuple (a(1), ..., a(N))."""
        return tuple(_box(self._v[1:], self.den))

    def items(self):
        """Iterate (n, a(n)) for n = 1..N."""
        return zip(range(1, self.bound + 1), _box(self._v[1:], self.den))

    def _formatted(self):
        """Iterate backend.format of a(1), ..., a(N).  int64 numerators over
        den > 1 reduce by one vector gcd to the "p/q" of str(Fraction),
        unboxed (np.gcd needs den and every |numerator| below 2**63)."""
        v, den = self._v[1:], self.den
        if den == 1 or v.dtype != np.int64 or den >= 2**63 or v.min() == -(2**63):
            return map(self.backend.format, _box(v, den))
        g = np.gcd(v, den)
        return (f"{p}/{q}" if q != 1 else str(p) for p, q in zip((v // g).tolist(), (den // g).tolist()))

    def _values_at(self, idx) -> np.ndarray:
        """The values at ``idx``: as stored if den = 1, else boxed (object)."""
        return self._v[idx] if self.den == 1 else _objects(_box(self._v[idx], self.den))

    def __len__(self) -> int:
        return self.bound

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArithFn):
            return NotImplemented
        if self.bound != other.bound or self.backend is not other.backend or self.den != other.den:
            return False
        a, b = self._v, other._v  # the storage is canonical (see _store)
        # a list compares Python objects far faster than numpy does
        return a.tolist() == b.tolist() if a.dtype == object else np.array_equal(a, b)

    def __hash__(self):
        return hash((self.bound, self.backend.name, self.values()))

    def approx_eq(self, other: "ArithFn", tol: float) -> bool:
        """Per-index comparison within ``tol`` (exact backend: tol ignored)."""
        if self.bound != other.bound or self.backend is not other.backend:
            return False
        if self.backend is not COMPLEX:
            return self == other
        if not tol > 0:
            raise ValueError(f"tolerance must be positive, got {tol!r}")
        return bool((_modulus(self._v - other._v) <= tol).all())

    def __repr__(self) -> str:
        head = ", ".join(map(self.backend.format, _box(self._v[1 : min(self.bound, 8) + 1], self.den)))
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
        # a copy, so that the result does not keep the whole table alive
        return ArithFn._wrap(bound, self.backend, self._v[: bound + 1].copy(), self.den)

    def to_backend(self, backend) -> "ArithFn":
        """Convert values; only exact -> complex widening is allowed."""
        if backend is self.backend:
            return self
        if self.backend is RATIONAL and backend is COMPLEX:
            return ArithFn._wrap(self.bound, COMPLEX, self._v, self.den)
        raise UnsupportedBackendError(
            f"cannot convert {self.backend.name} values to {backend.name}"
        )

    # -- pointwise ring of the codomain -----------------------------------
    #
    # On numerators: a sum over the lcm of the two dens, r = p/q as p over q.
    # int64 tables stay int64 while no result can leave it (numpy wraps
    # silently), else they run in object storage; _store stores the result.

    def __add__(self, other: "ArithFn") -> "ArithFn":
        return self._pointwise(other, np.add)

    def __sub__(self, other: "ArithFn") -> "ArithFn":
        return self._pointwise(other, np.subtract)

    @np.errstate(over="ignore", invalid="ignore")  # _store reports it
    def _pointwise(self, other: "ArithFn", op) -> "ArithFn":
        self._check_compatible(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = self._v, other._v
        if a.dtype != b.dtype or a.dtype == np.int64 and (
                (_max_abs(a) + 1) * fa + (_max_abs(b) + 1) * fb >= 2**63):
            a, b = a.astype(object), b.astype(object)
        if den > 1:  # exact only: a complex x * 1 can flip the sign of a zero
            a, b = a * fa, b * fb
        return ArithFn._wrap(self.bound, self.backend, op(a, b), den)

    def __neg__(self) -> "ArithFn":
        v = self._v
        if v.dtype == np.int64 and not _max_abs(v) < 2**63:
            v = v.astype(object)
        out = ArithFn._wrap(self.bound, self.backend, -v, self.den)
        out._mult = self._mult
        return out

    @np.errstate(over="ignore", invalid="ignore")  # _store reports it
    def scale(self, r) -> "ArithFn":
        """Pointwise scalar multiple r*a; r must fit the backend."""
        r = self.backend.convert(r)
        p, q = (r, 1) if self.backend is COMPLEX else r.as_integer_ratio()
        v = self._v
        if v.dtype == np.int64 and not abs(p) * (_max_abs(v) + 1) < 2**63:
            v = v.astype(object)
        out = ArithFn._wrap(self.bound, self.backend, _scaled(p, v), self.den * q)
        if p and q == 1:  # a nonzero int keeps the rows: t M becomes r t M
            out._mult = self._mult
        return out

    # -- Dirichlet ring ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, ArithFn):
            self._check_compatible(other)
            if self._mult is not None and other._mult is not None:
                from .structure import _bell_mul  # structure builds on this module

                return _bell_mul(self, other)
            out = _conv(self._v, other._v, self.bound)
            return ArithFn._wrap(self.bound, self.backend, out, self.den * other.den)
        if isinstance(other, (int, float, complex, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            return self.scale(other)
        return NotImplemented

    def inv(self) -> "ArithFn":
        """Dirichlet inverse b with (a * b) = I on 1..N.

        Requires a(1) != 0 (float backend: |a(1)| > DEFAULT_EPS).
        """
        a1 = self[1]
        if self.backend is COMPLEX:
            if abs(a1) <= DEFAULT_EPS:
                raise NotInvertibleError(
                    f"a(1) = {a1!r} is within eps={DEFAULT_EPS} of zero; no Dirichlet inverse"
                )
        elif a1 == 0:
            raise NotInvertibleError("a(1) = 0; no Dirichlet inverse")
        if self._mult is not None and abs(a1) == 1:
            from .structure import _bell_inv

            return _bell_inv(self)
        b, den = _inv(self._v, self.bound)  # (A / den)**-1 = den A**-1
        b = b.astype(object) * self.den if self.den > 1 else b  # den b may leave int64
        return ArithFn._wrap(self.bound, self.backend, b, den)

    def __pow__(self, k: int) -> "ArithFn":
        """k-fold convolution power by binary exponentiation; a**0 = I."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError(f"convolution power needs an integer k >= 0, got {k!r}")
        if self._mult is not None:
            from .structure import _bell_pow

            return _bell_pow(self, k)
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

    @np.errstate(over="ignore", invalid="ignore")  # _store reports it
    def deriv(self) -> "ArithFn":
        """Log-weighted derivative a'(n) = a(n) ln n (float backend only);
        ln n is kept per bound on the sieve that serves it (``sieve._sieve_for``)."""
        if self.backend is not COMPLEX:
            raise UnsupportedBackendError(
                "derivative multiplies by ln n, which is irrational for n >= 2; "
                "use the complex backend"
            )
        n = self.bound
        logs = _sieve_for(n)._for_bound(_logs, n)
        out = _scaled(logs, self._v)  # rounds as a(n) * math.log(n) does
        out[1] = 0
        return ArithFn._wrap(n, COMPLEX, out)

    def valuation(self) -> int | None:
        """Least n with a(n) != 0, or None for the zero function."""
        support = self.support()
        return support[0] if support else None

    def support(self) -> list[int]:
        """Ascending list of all n <= N with a(n) != 0 (float backend: |a(n)| > DEFAULT_EPS)."""
        v = self._v[1:]
        nonzero = _modulus(v) > DEFAULT_EPS if self.backend is COMPLEX else v != 0
        return (np.flatnonzero(nonzero) + 1).tolist()


# ---------------------------------------------------------------------------
# storage and kernels
#
# Every table is one read-only array, which the kernels run on as it is,
# and one denominator den:
#
#   int64       exact numerators that all fit;
#   object      exact numerators beyond int64, or the Fractions of a
#               table above the cap (den = 1);
#   complex128  the complex backend (den = 1); it never holds NaN or Inf.
#
# den is the lcm of the denominators of the values in lowest terms, so
# gcd(den, numerators) = 1 and a table of ints has den = 1.  _store makes
# that choice once for every table built anywhere, so equal tables have
# equal storage; it reduces a kernel result over a multiple of den by one
# gcd, and no value is boxed until a caller asks for it.
#
# Guard: an output n sums tau(n) <= 2 sqrt(n) products, so partial sums
# stay below 2**62 when max|a| * max|b| * (2 floor(sqrt N) + 1) < 2**62.
# A table that fails it is computed in object storage instead.
#
# Cap: numerators grow with den.  On random tables at N = 2048 (BENCH_11.json)
# they beat Fractions for a * b up to 982 bits of den and for dlog up to
# 574 bits, and lose dlog from 724 bits on.  A table whose den would reach
# _SPLIT_CAP = 2**512 keeps its Fractions, with den = 1; the exact traffic
# measured so far stays under 46 bits.
#
# Every output sums its products a(d) b(n/d) in ascending order of d, and
# each product is rounded as a per-divisor loop rounds it, so complex
# results are bit-reproducible and equal to that loop, which
# tests/conftest.py keeps as the oracle.
# ---------------------------------------------------------------------------

_SPLIT_CAP = 2**512


def _store(vals, backend, den: int = 1) -> tuple[np.ndarray, int]:
    """The read-only storage and den (see the notes above) of the padded
    values vals[i] / den: a kernel result, or a sequence of values."""
    if backend is COMPLEX:
        if not isinstance(vals, np.ndarray):
            _check_types(vals, _COMPLEX_TYPES, backend)
        try:
            if den != 1:  # exact numerators: x / den rounds as complex(Fraction(x, den))
                vals, den = [x / den for x in vals.tolist()], 1
            arr = np.asarray(vals, dtype=np.complex128)  # an exact v as complex(v)
        except OverflowError:
            raise NonFiniteError("a value is too large for the complex backend") from None
        _check_finite(arr)
    elif isinstance(vals, np.ndarray) and vals.dtype == np.int64 and den == 1:
        arr = vals
    else:
        vals = vals.tolist() if isinstance(vals, np.ndarray) else vals
        fractions = Fraction in _check_types(vals, _EXACT_TYPES, backend)
        if not fractions and den != 1:
            g = math.gcd(den, *vals)
            if g != 1:
                vals, den = [x // g for x in vals], den // g
            fractions = den >= _SPLIT_CAP  # den is the lcm of the values' denominators
        if fractions:  # the values, over the lcm of their denominators if below the cap
            if den != 1:
                vals = [Fraction(x, den) for x in vals]
            den = 1
            for q in {x.denominator for x in vals if type(x) is Fraction}:
                den = math.lcm(den, q)
                if den >= _SPLIT_CAP:  # the Fractions stay, with a Fraction p/1 as p
                    vals, den = [x.numerator if type(x) is Fraction and x.denominator == 1
                                 else x for x in vals], 1
                    break
            else:
                vals = [x.numerator * (den // x.denominator) if type(x) is Fraction else x * den
                        for x in vals]
                fractions = False
        # np.array(vals, dtype=np.int64) would truncate a Fraction silently
        try:
            arr = _objects(vals) if fractions else np.array(vals, dtype=np.int64)
        except OverflowError:  # a numerator beyond int64
            arr = _objects(vals)
    arr.flags.writeable = False
    return arr, den


_EXACT_TYPES = frozenset((int, Fraction))
_COMPLEX_TYPES = frozenset((int, float, complex, Fraction))


def _check_types(vals, allowed: frozenset, backend) -> set:
    """The set of types of vals, which must lie in ``allowed``, else
    UnsupportedBackendError names the first value that does not."""
    # type() rather than isinstance(): Fraction's ABC check is slow, and bool is no value
    types = set(map(type, vals))
    if not types <= allowed:
        bad = next(x for x in vals if type(x) not in allowed)
        raise UnsupportedBackendError(
            f"{backend.name} backend cannot hold {type(bad).__name__} value {bad!r}"
        )
    return types


def _objects(vals: list) -> np.ndarray:
    """An object array of vals; np.fromiter builds it far faster than np.array."""
    return np.fromiter(vals, dtype=object, count=len(vals))


def _box(nums: np.ndarray, den: int) -> list:
    """The values nums / den as Python scalars, Fractions in lowest terms."""
    vals = nums.tolist()
    if den == 1:
        return vals
    return [x // den if x % den == 0 else Fraction(x, den) for x in vals]


def _scratch(length: int, backend) -> np.ndarray:
    """Writable zeros for a table built up in place, then stored by _store:
    complex128, or object for exact values, whose sums may leave int64."""
    return np.zeros(length, dtype=np.complex128 if backend is COMPLEX else object)


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| of a complex array, rounded as Python's abs(complex) rounds it:
    np.hypot of the parts (np.abs of the array can differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def _max_abs(x: np.ndarray) -> int:
    # Python ints: np.abs wraps at -2**63.
    return max(-int(x.min()), int(x.max()))


def _fits_int64(max_a: int, max_b: int, n: int) -> bool:
    return max_a * max_b * (2 * math.isqrt(n) + 1) < 2**62


def _check_finite(arr: np.ndarray) -> None:
    if arr.dtype == np.complex128 and not np.isfinite(arr).all():
        n = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteError(f"non-finite complex value {complex(arr[n])!r} at n = {n}")


def _logs(sieve, n: int) -> np.ndarray:
    """math.log(k) at k = 0..n (0 at 0 and 1) as read-only complex128, kept
    on the sieve per bound (:meth:`ArithFn.deriv`).  math.log, since np.log
    differs from it in the last bit on some k."""
    logs = np.zeros(n + 1, dtype=np.complex128)
    logs.real[2:] = np.fromiter(map(math.log, range(2, n + 1)), np.float64, n - 1)
    logs.flags.writeable = False
    return logs


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


def _push(out: np.ndarray, x: np.ndarray, sup: np.ndarray, y: np.ndarray, n: int, m0: int) -> None:
    """out[d m] += x(d) y(m) for every d in the ascending support ``sup``
    and every m >= m0 with d m <= n.

    The d-loop pushes x(d) times a slice of y onto the multiples of each
    d; the m-loop, m descending, pushes x(D) y(m) for the D in sup up to
    n // m.  It runs whichever takes fewer steps.  Either way each output
    receives its terms in ascending d (in the m-loop, a later and smaller
    m pairs with a larger d).

    An m-step whose c support points d0 = sup[0] .. d1 cover at least half
    of the run d0..d1 (2 c >= d1 - d0 + 1) adds x[d0:d1+1] y(m) onto the
    strided slice out[d0 m : d1 m + 1 : m], through one product buffer per
    push; a sparser step scatters x(D) y(m) onto sup[:c] m by np.add.at.
    The strided step leaves every bit as the scatter does: each nonzero
    x(d) gives the same array-times-scalar product, added in the same
    order; a zero x(d) in the run gives an exact 0, or in complex128 a
    +-0 in each part, since y is finite; and an accumulator, which starts
    at +0, never becomes -0 under round-to-nearest, so adding +-0 to it
    changes nothing.
    """
    if not len(sup):
        return
    d0 = int(sup[0])
    top = n // d0
    if len(sup) <= top - m0 + 1:
        for d in sup.tolist():
            out[m0 * d :: d] += x[d] * y[m0 : n // d + 1]
    else:
        ms = np.arange(top, m0 - 1, -1)
        counts = np.searchsorted(sup, n // ms, side="right")  # >= 1, as m <= top
        spans = sup[counts - 1] - d0 + 1
        dense = 2 * counts >= spans
        x_sup = None if dense.all() else x[sup]  # only a scattered step reads it
        buf = np.empty(spans[dense].max(initial=0), dtype=out.dtype)
        for m, c, span, strided in zip(ms.tolist(), counts.tolist(), spans.tolist(), dense.tolist()):
            if strided:
                out[d0 * m : (d0 + span - 1) * m + 1 : m] += np.multiply(
                    x[d0 : d0 + span], y[m], out=buf[:span]
                )
            else:
                np.add.at(out, sup[:c] * m, x_sup[:c] * y[m])


@np.errstate(over="ignore", invalid="ignore")  # _check_finite reports it
def _conv(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a * b) on 1..n for padded arrays (slot 0 unused).

    Dirichlet's hyperbola split: every pair d * m <= n has d <= K or
    m <= n // (K + 1), K = floor(sqrt n).  One push takes the support of
    a in 1..K (a d-loop), one the support in (K, n] (an m-loop, unless
    that support is sparse): about 2 sqrt(n) vector operations.  A zero
    a(d) is multiplied only inside the dense runs of the m-loop's strided
    steps, where its product adds nothing (see :func:`_push`).
    """
    if a.dtype != b.dtype or (
        a.dtype == np.int64 and not _fits_int64(_max_abs(a), _max_abs(b), n)
    ):
        a, b = a.astype(object), b.astype(object)
    k = math.isqrt(n)
    out = np.zeros(n + 1, dtype=a.dtype)
    for lo, hi in ((1, k + 1), (k + 1, n + 1)):
        _push(out, a, np.flatnonzero(a[lo:hi]) + lo, b, n, 1)
    _check_finite(out)  # here too, as dlog and dexp chain _conv calls
    return out


@np.errstate(over="ignore", invalid="ignore")  # _store reports it
def _inv(a: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Dirichlet inverse on 1..n of a padded array with a(1) != 0, as
    numerators b over den: b(n) = -acc(n) / a(1), acc(n) = sum over d | n,
    d < n of b(d) a(n/d).  The dyadic block [2**j, 2**(j+1)) only has
    proper divisors in earlier blocks, so once those are pushed its b is
    one vector op; the block is then pushed onto its multiples.  int64
    re-checks the guard per block.

    Integers, t = a(1): each proper divisor d of n has Omega(d) < Omega(n),
    so by induction the inverse at n has a denominator dividing
    t**(Omega(n)+1).  As Omega(n) <= K = floor(log2 n), b is an integer
    table over den = |t|**(K+1): b(1) = sign(t) |t|**K, and each block is
    the exact division -acc // t.  Complex tables, tables holding
    Fractions, and den at or past the cap (where _store keeps Fractions
    anyway) multiply by w = -1/a(1) over den = 1.
    """
    ints = a.dtype == np.int64 or a.dtype == object and Fraction not in set(map(type, a.tolist()))
    den = abs(int(a[1])) ** n.bit_length() if ints else 1
    if a.dtype == np.complex128:
        b1 = 1.0 / a[1]
    elif ints and den < _SPLIT_CAP:
        b1 = den // int(a[1])
    else:
        a, den = a.astype(object), 1
        b1 = rational(1, a[1])
    w = -int(a[1]) if den > 1 else -b1
    max_a = _max_abs(a) if a.dtype == np.int64 else 0
    max_b = abs(b1)
    if a.dtype == np.int64 and not _fits_int64(max_a, max_b, n):
        a = a.astype(object)
    acc = np.zeros(n + 1, dtype=a.dtype)
    b = np.zeros(n + 1, dtype=a.dtype)
    b[1] = b1
    lo = 1
    while lo <= n:
        hi = min(2 * lo, n + 1)
        if lo > 1:
            b[lo:hi] = acc[lo:hi] // w if den > 1 else _scaled(w, acc[lo:hi])
        if b.dtype == np.int64:
            max_b = max(max_b, _max_abs(b[lo:hi]))
            if not _fits_int64(max_a, max_b, n):
                a, b, acc = a.astype(object), b.astype(object), acc.astype(object)
        _push(acc, b, np.flatnonzero(b[lo:hi]) + lo, a, n, 2)
        lo = hi
    return b, den
