"""Coefficient backends: exact rationals and complex floats.

Tables store their values in numpy arrays (see :mod:`arithfn.dirichlet`)
and hand them out as the Python scalars below; the backend objects decide
how single values are converted and serialized.

Two backends exist:

*  ``RATIONAL`` -- exact arithmetic over the rationals.  Values are ``int``
   where the denominator is 1 and ``fractions.Fraction`` otherwise; the two
   interoperate transparently and both are exact, so field identities such
   as a*(b+c) = a*b + a*c hold on the nose.
*  ``COMPLEX`` -- double-precision complex floats, for quantities that
   carry log-of-prime weights and therefore cannot stay rational.
   Comparisons always go through a caller-supplied tolerance.

Serialized forms: a rational is the string "p/q" in lowest terms ("7",
"-1/2"); a complex value is the two-element array [re, im] in JSON and a
Python-style literal ("1.5", "0.25+2.0j") in CSV cells.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import NonFiniteError, UnsupportedBackendError

#: Threshold under which a float coefficient counts as zero (support,
#: valuation, invertibility tests).
DEFAULT_EPS = 1e-12

#: Default comparison tolerance for float-backend identities.
DEFAULT_TOL = 1e-9

Exact = Union[int, Fraction]


def _canonical_exact(v: Exact) -> Exact:
    """Collapse a denominator-1 Fraction to int; ints pass through."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def rational(p: int, q: int = 1) -> Exact:
    """Exact rational p/q in lowest terms, sign carried by the numerator.

    Raises ZeroDivisionError for q = 0.
    """
    return _canonical_exact(Fraction(p, q))


def cfloat(re: float = 0.0, im: float = 0.0) -> complex:
    """Complex double with finite components; rejects NaN/Inf."""
    z = complex(re, im)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteError(f"non-finite complex value {z!r}")
    return z


def approx_eq(a: complex, b: complex, tol: float) -> bool:
    """True iff |a - b| <= tol in complex modulus.  Requires tol > 0."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    za, zb = complex(a), complex(b)
    for z in (za, zb):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise NonFiniteError(f"non-finite input {z!r} to approx_eq")
    return abs(za - zb) <= tol


class RationalBackend:
    """Exact rational coefficients (int / Fraction, always lowest terms)."""

    name = "rational"
    exact = True
    zero: Exact = 0
    one: Exact = 1

    def convert(self, x) -> Exact:
        """Accept int/Fraction (exact values only); reject floats."""
        if isinstance(x, bool):
            raise UnsupportedBackendError("bool is not a coefficient value")
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return _canonical_exact(x)
        raise UnsupportedBackendError(
            f"rational backend cannot hold {type(x).__name__} value {x!r}"
        )

    def format(self, v) -> str:
        return str(v)

    def parse(self, s: str) -> Exact:
        return _canonical_exact(Fraction(s.strip()))

    def to_json(self, v) -> str:
        return str(v)

    def from_json(self, j) -> Exact:
        if not isinstance(j, str):
            raise TypeError(f"rational JSON value must be a string, got {j!r}")
        return self.parse(j)

    def __repr__(self) -> str:
        return "RATIONAL"


class ComplexBackend:
    """Complex-double coefficients with finite real and imaginary parts."""

    name = "complex"
    exact = False
    zero: complex = 0j
    one: complex = 1 + 0j

    def convert(self, x) -> complex:
        if isinstance(x, bool):
            raise UnsupportedBackendError("bool is not a coefficient value")
        if isinstance(x, (int, float, complex, Fraction)):
            return cfloat(complex(x).real, complex(x).imag)
        raise UnsupportedBackendError(
            f"complex backend cannot hold {type(x).__name__} value {x!r}"
        )

    def format(self, v) -> str:
        z = complex(v)
        if z.imag == 0.0:
            return repr(z.real)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}j"

    def parse(self, s: str) -> complex:
        try:
            z = complex(s.strip())
        except ValueError as e:
            raise ValueError(f"cannot parse complex value from {s!r}") from e
        return cfloat(z.real, z.imag)

    def to_json(self, v) -> list:
        z = complex(v)
        return [z.real, z.imag]

    def from_json(self, j) -> complex:
        # a part must be a JSON number: json reads true as a bool, "1" as a str
        if not (isinstance(j, (list, tuple)) and len(j) == 2 and {type(x) for x in j} <= {int, float}):
            raise TypeError(f"complex JSON value must be [re, im] of two numbers, got {j!r}")
        return cfloat(float(j[0]), float(j[1]))

    def __repr__(self) -> str:
        return "COMPLEX"


RATIONAL = RationalBackend()
COMPLEX = ComplexBackend()

_BY_NAME = {"rational": RATIONAL, "complex": COMPLEX}


def get_backend(name: str):
    """Look a backend up by its serialized name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r} (expected 'rational' or 'complex')") from None
