"""Dirichlet-ring algebra of arithmetical functions truncated at a bound N.

The building blocks:

* :mod:`arithfn.numerics` -- exact rational and complex-float coefficient
  backends: how one value is converted, tested for zero and serialized.
* :mod:`arithfn.sieve` -- smallest-prime-factor sieve and factorization.
* :mod:`arithfn.dirichlet` -- :class:`ArithFn` tables with pointwise sum,
  Dirichlet convolution, inverse, convolution powers, the log-weighted
  derivative, valuation and support.
* :mod:`arithfn.transcend` -- formal log/exp and the psi transform carrying
  multiplicative functions onto additive ones.
* :mod:`arithfn.structure` -- multiplicativity/additivity predicates with
  witnesses, Bell-series and prime-support decompositions.
* :mod:`arithfn.catalogue` -- the classical functions (u, mu, phi, Lambda,
  lambda, d, sigma_c, N, nu, Omega) built from first principles, plus the
  closed-form identity suite.
* :mod:`arithfn.io` / :mod:`arithfn.cli` -- CSV/JSON tables and the
  command-line expression calculator.
"""

from .dirichlet import ArithFn
from .errors import (
    ArithfnError,
    BackendMismatchError,
    BoundMismatchError,
    DomainError,
    ExprEvalError,
    ExprSyntaxError,
    FormatError,
    NonFiniteError,
    NotInvertibleError,
    StructureError,
    UnsupportedBackendError,
)
from .numerics import (
    COMPLEX,
    DEFAULT_EPS,
    DEFAULT_TOL,
    RATIONAL,
    approx_eq,
    cfloat,
    get_backend,
    rational,
)
from .sieve import SpfSieve, build_sieve
from .structure import (
    BellDecomposition,
    BellSeries,
    CheckResult,
    PrimeSupport,
    additive_decompose,
    additive_reconstruct,
    bell_decompose_mult,
    bell_reconstruct_mult,
    is_additive,
    is_completely_additive,
    is_completely_multiplicative,
    is_multiplicative,
    mobius_additivity_test,
    series_exp,
    series_log,
    series_mul,
)
from .transcend import dexp, dlog, psi, psi_inv
from .catalogue import IdentityCheck, IdentityReport, make, verify_identities

__version__ = "0.1.0"

__all__ = [
    "ArithFn",
    "SpfSieve",
    "build_sieve",
    "RATIONAL",
    "COMPLEX",
    "DEFAULT_EPS",
    "DEFAULT_TOL",
    "rational",
    "cfloat",
    "approx_eq",
    "get_backend",
    "dlog",
    "dexp",
    "psi",
    "psi_inv",
    "is_multiplicative",
    "is_completely_multiplicative",
    "is_additive",
    "is_completely_additive",
    "mobius_additivity_test",
    "bell_decompose_mult",
    "bell_reconstruct_mult",
    "additive_decompose",
    "additive_reconstruct",
    "BellSeries",
    "BellDecomposition",
    "PrimeSupport",
    "CheckResult",
    "series_mul",
    "series_log",
    "series_exp",
    "make",
    "verify_identities",
    "IdentityCheck",
    "IdentityReport",
    "ArithfnError",
    "BoundMismatchError",
    "BackendMismatchError",
    "UnsupportedBackendError",
    "NonFiniteError",
    "NotInvertibleError",
    "DomainError",
    "StructureError",
    "FormatError",
    "ExprSyntaxError",
    "ExprEvalError",
    "__version__",
]
