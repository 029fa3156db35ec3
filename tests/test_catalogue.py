"""Definitional constructors and the closed-form identity suite."""

import math
from fractions import Fraction

import numpy as np
import pytest

import arithfn as af
from arithfn.catalogue import _complex_powers
from arithfn.errors import NonFiniteError, UnsupportedBackendError
from conftest import (
    complex_power_oracle,
    divisors_brute,
    is_prime_power_brute,
    mangoldt_loop_complex,
    mobius_brute,
    nu_brute,
    omega_brute,
    phi_brute,
    sigma_loop_complex,
)


#: table bounds at and around the edges of the dyadic blocks [lo, 2 lo)
#: the recurrence constructors fill, all below the bound of sieve5000;
#: each test below runs at every one of them
EDGE_BOUNDS = (1, 2, 3, 4, 7, 8, 9, 1023, 1024, 1025, 4099)


#: one or more exponents for each route of complex sigma: libm's pow (a
#: finite real c other than an integer of magnitude <= 100, Fractions
#: included; -60.5 underflows at large d), CPython's repeated squaring
#: (an integer-valued c with |c| <= 100; -100 underflows to 0 at large d)
#: and a complex c
SIGMA_EXPONENTS = (0.5, 1.5, 2.5, 1 / 3, Fraction(5, 2), -0.5, 101, -60.5,
                   0, 2, 2.0, -3, 100, -100, 1j, 0.5 + 1j)


def _int64_table(name, sieve, n, **kw):
    fn = af.make(name, sieve, bound=n, **kw)
    assert fn._v.dtype == np.int64, (name, n)
    return fn


class TestDefinitionalValues:
    def test_phi_by_coprime_counting(self, sieve5000):
        assert phi_brute(12) == 4
        for n in EDGE_BOUNDS:
            phi = _int64_table("phi", sieve5000, n)
            assert phi.values() == tuple(phi_brute(k) for k in range(1, n + 1)), n

    def test_sigma_by_divisor_sums(self, sieve5000):
        assert sum(divisors_brute(6)) == 1 + 2 + 3 + 6 == 12
        for n in EDGE_BOUNDS:
            s0, s1, s2 = (_int64_table("sigma", sieve5000, n, c=c) for c in (0, 1, 2))
            for k in range(1, n + 1):
                ds = divisors_brute(k)
                assert s1[k] == sum(ds)
                assert s0[k] == len(ds)
                assert s2[k] == sum(d * d for d in ds)

    def test_mobius_by_squarefree_sign(self, sieve5000):
        assert mobius_brute(30) == -1
        for n in EDGE_BOUNDS:
            mu = _int64_table("mobius", sieve5000, n)
            assert mu.values() == tuple(mobius_brute(k) for k in range(1, n + 1)), n

    def test_counts_and_parity(self, sieve5000):
        for n in EDGE_BOUNDS:
            nu = _int64_table("nu", sieve5000, n)
            om = _int64_table("Omega", sieve5000, n)
            lam = _int64_table("liouville", sieve5000, n)
            assert nu.values() == tuple(nu_brute(k) for k in range(1, n + 1)), n
            assert om.values() == tuple(omega_brute(k) for k in range(1, n + 1)), n
            assert lam.values() == tuple((-1) ** omega_brute(k) for k in range(1, n + 1)), n

    def test_divisor_count_table(self, sieve5000):
        for n in EDGE_BOUNDS:
            d = _int64_table("d", sieve5000, n)
            assert d.values() == tuple(len(divisors_brute(k)) for k in range(1, n + 1)), n

    def test_simple_tables(self, sieve5000):
        for n in EDGE_BOUNDS:
            assert _int64_table("u", sieve5000, n).values() == (1,) * n
            assert _int64_table("N", sieve5000, n).values() == tuple(range(1, n + 1))
            assert _int64_table("I", sieve5000, n) == af.ArithFn.identity(n)

    def test_mangoldt_values(self, sieve5000):
        lam = af.make("mangoldt", sieve5000, af.COMPLEX, bound=100)
        assert lam[1] == 0 and lam[6] == 0 and lam[12] == 0
        assert abs(lam[8] - math.log(2)) < 1e-15
        assert abs(lam[49] - math.log(7)) < 1e-15
        for n in EDGE_BOUNDS:
            got = af.make("mangoldt", sieve5000, af.COMPLEX, bound=n)._v
            want = mangoldt_loop_complex(n)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n

    def test_aliases(self, sieve100):
        assert af.make("mu", sieve100) == af.make("mobius", sieve100)
        assert af.make("lambda_liouville", sieve100) == af.make("liouville", sieve100)
        assert af.make("Lambda", sieve100, af.COMPLEX) == af.make("mangoldt", sieve100, af.COMPLEX)

    def test_complex_backend_matches_exact(self, sieve5000):
        for n in EDGE_BOUNDS:
            for name in ("u", "mobius", "phi", "liouville", "d", "nu", "Omega", "N"):
                exact = af.make(name, sieve5000, bound=n)
                floated = af.make(name, sieve5000, af.COMPLEX, bound=n)
                assert floated.values() == tuple(complex(v) for v in exact.values()), (name, n)

    def test_sigma_complex_exponent(self, sieve100):
        s = af.make("sigma", sieve100, af.COMPLEX, c=0.5)
        want = sum(d**0.5 for d in divisors_brute(12))
        assert abs(s[12] - want) < 1e-12

    def test_sigma_fraction_exponent_coerces(self, sieve100):
        # the expression DSL hands sigma(1/2) over as an exact Fraction
        s = af.make("sigma", sieve100, af.COMPLEX, c=Fraction(1, 2))
        assert abs(s[4] - (1 + 2**0.5 + 2)) < 1e-12
        neg = af.make("sigma", sieve100, af.COMPLEX, c=-1)
        assert abs(neg[4] - 1.75) < 1e-12


    @pytest.mark.parametrize("n", (1, 2, 3, 16, 17, 1000, 1023, 1024, 1025, 4099))
    def test_complex_sigma_matches_divisor_loop_bitwise(self, sieve5000, n):
        for c in SIGMA_EXPONENTS:
            exponent = complex(c) if isinstance(c, Fraction) else c
            if n == 4099 and c in (100, 101):  # 4099**100 > 1.8e308
                with pytest.raises(OverflowError):
                    sigma_loop_complex(exponent, n)
                with pytest.raises(NonFiniteError):
                    af.make("sigma", sieve5000, af.COMPLEX, c=c, bound=n)
                continue
            got = np.array(af.make("sigma", sieve5000, af.COMPLEX, c=c, bound=n)._v)
            want = np.array(sigma_loop_complex(exponent, n))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), c

    @pytest.mark.parametrize("c", (-64, -65, -100))
    def test_complex_sigma_past_squaring_overflow(self, c):
        # from d = 2**16 on, CPython's repeated squaring to these c gives
        # nan+nanj (65536**64 overflows), while the true power is 0 or
        # subnormal: N = 65537 runs just past that edge
        n = 65537
        want = np.array([0j] + [complex_power_oracle(d, c) for d in range(1, n + 1)])
        assert want[65536] == 2.0 ** (16 * c)  # 2**-1024 at c = -64: subnormal, exact
        got = _complex_powers(n, complex(c))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        sigma = np.array(af.make("sigma", af.build_sieve(n), af.COMPLEX, c=c)._v)
        assert np.array_equal(sigma.view(np.uint64), np.array(sigma_loop_complex(c, n)).view(np.uint64))


class TestErrors:
    def test_complex_sigma_never_returns_non_finite(self, sieve100, sieve2048):
        for c in (float("nan"), float("inf"), float("-inf"), 1000):
            with pytest.raises(NonFiniteError):
                af.make("sigma", sieve100, af.COMPLEX, c=c)
        with pytest.raises(NonFiniteError):  # 2000**100 > 1.8e308
            af.make("sigma", sieve2048, af.COMPLEX, c=100, bound=2000)

    def test_sigma_exponent_must_be_a_number(self, sieve100):
        # neither backend reads a bool as 0 or 1, nor a string as a number
        for backend in (af.RATIONAL, af.COMPLEX):
            for c in (True, False, "0.5", "1"):
                with pytest.raises(UnsupportedBackendError, match="sigma"):
                    af.make("sigma", sieve100, backend, c=c)

    def test_mangoldt_requires_complex(self, sieve100):
        with pytest.raises(UnsupportedBackendError):
            af.make("mangoldt", sieve100)

    def test_sigma_exponent_restrictions(self, sieve100):
        with pytest.raises(UnsupportedBackendError):
            af.make("sigma", sieve100, c=Fraction(1, 2))
        with pytest.raises(UnsupportedBackendError):
            af.make("sigma", sieve100, c=-1)
        with pytest.raises(ValueError):
            af.make("sigma", sieve100)

    def test_unknown_name(self, sieve100):
        with pytest.raises(ValueError, match="unknown function"):
            af.make("zeta", sieve100)


class TestClassicalIdentities:
    def test_mobius_is_inverse_of_u(self, sieve2048):
        assert af.make("mobius", sieve2048) == af.ArithFn.ones(2048).inv()

    def test_totient_is_mobius_star_n(self, sieve2048):
        mu = af.make("mobius", sieve2048)
        n_fn = af.make("N", sieve2048)
        assert mu * n_fn == af.make("phi", sieve2048)

    def test_classifications(self, sieve1000):
        s = sieve1000
        completely_mult = ["liouville", "N", "u"]
        for name in completely_mult:
            assert af.is_completely_multiplicative(af.make(name, s), s).ok, name
        mult_not_completely = ["phi", "d", "mobius"]
        for name in mult_not_completely:
            fn = af.make(name, s)
            assert af.is_multiplicative(fn).ok, name
            assert not af.is_completely_multiplicative(fn, s).ok, name
        for c in (1, 2):
            fn = af.make("sigma", s, c=c)
            assert af.is_multiplicative(fn).ok
            assert not af.is_completely_multiplicative(fn, s).ok
        nu = af.make("nu", s)
        assert af.is_additive(nu).ok and not af.is_completely_additive(nu, s).ok
        assert af.is_completely_additive(af.make("Omega", s), s).ok

    def test_mobius_bridges(self, sieve1000):
        # mu * nu is the prime indicator; mu * Omega the prime-power indicator
        n = 500
        mu = af.make("mobius", sieve1000, bound=n)
        g_nu = mu * af.make("nu", sieve1000, bound=n)
        g_om = mu * af.make("Omega", sieve1000, bound=n)
        for k in range(1, n + 1):
            is_prime = k >= 2 and sieve1000.is_prime(k)
            is_pp = is_prime_power_brute(k)
            assert g_nu[k] == (1 if is_prime else 0)
            assert g_om[k] == (1 if is_pp else 0)

    def test_u_star_mangoldt_is_log(self, sieve2048):
        n = 2000
        u = af.ArithFn.ones(n, af.COMPLEX)
        lam = af.make("mangoldt", sieve2048, af.COMPLEX, bound=n)
        conv = u * lam
        for k in range(1, n + 1):
            assert abs(conv[k] - math.log(k)) < 1e-9


@pytest.fixture(scope="module")
def sieve500():
    return af.build_sieve(500)


class TestIdentitySuite:
    def test_all_pass_at_2000(self):
        report = af.verify_identities(af.build_sieve(2000), tol=1e-9)
        assert report.all_passed
        names = [e.name for e in report.entries]
        assert names == ["u", "mu", "phi", "lambda", "Lambda", "d", "N", "sigma_1", "nu", "Omega"]
        assert report.lines()[0] == "PASS u"

    def test_lambda_entry_reports_deviation(self, sieve500):
        report = af.verify_identities(sieve500, tol=1e-9)
        lam = next(e for e in report.entries if e.name == "Lambda")
        assert lam.backend == "complex" and lam.passed
        assert 0 <= lam.max_dev < 1e-9

    def test_exact_failure_reports_first_index(self, sieve500, monkeypatch):
        # a totient step that forgets p | m is wrong first at phi(4) = 2
        monkeypatch.setitem(af.catalogue._SPF_STEPS, "phi", (1, lambda f, p, div: f * (p - 1)))
        report = af.verify_identities(sieve500, tol=1e-9)
        assert [e.line() for e in report.entries if not e.passed] == ["FAIL phi at n=4"]
        assert not report.all_passed and len(report.entries) == 10

    def test_failure_reports_first_index(self, sieve500):
        report = af.verify_identities(sieve500, tol=1e-18)
        lam = next(e for e in report.entries if e.name == "Lambda")
        assert not lam.passed and lam.first_fail is not None
        assert "FAIL Lambda" in lam.line()

    def test_tol_is_keyword_only(self, sieve500):
        # the bound is the sieve's: a stale positional bound of 500 must
        # not be taken for a tolerance
        with pytest.raises(TypeError):
            af.verify_identities(sieve500, 500)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
    def test_tolerance_must_be_positive(self, sieve500, tol):
        # a NaN tolerance compares false with every deviation, so it would pass every index
        with pytest.raises(ValueError) as err:
            af.verify_identities(sieve500, tol=tol)
        assert str(err.value) == f"tolerance must be positive, got {tol!r}"
