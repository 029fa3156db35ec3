"""Formal log/exp and the psi transform.

Two independent oracles guard the series implementation: direct partial
sums with *more* terms than the exact truncation length (they must agree
coefficient for coefficient), and the derivation-based recurrence from
conftest (prime-factor-count weighting), which never touches the series.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import arithfn as af
from arithfn.errors import DomainError
from conftest import (
    convolve_loop_exact,
    dexp_oracle,
    dlog_oracle,
    inverse_loop_exact,
    padded,
    rand_additive,
    rand_complex_fn,
    rand_exact_fn,
    rand_multiplicative,
    recip_fn,
    series_loop_complex,
    series_operand,
    series_partial_sum_log,
)


class TestDlog:
    def test_log_of_identity_is_zero(self):
        i = af.ArithFn.identity(64)
        assert af.dlog(i) == af.ArithFn.zeros(64)

    def test_log_of_u_at_primes(self, sieve100):
        lug = af.dlog(af.ArithFn.ones(100))
        for p in sieve100.primes:
            assert lug[p] == 1

    def test_log_of_u_at_prime_powers(self):
        # (u - I)**k contributes 1/k at p^k and nothing else there
        lug = af.dlog(af.ArithFn.ones(64))
        assert lug[4] == Fraction(1, 2)
        assert lug[8] == Fraction(1, 3)
        assert lug[16] == Fraction(1, 4)

    def test_partial_sums_with_more_terms_agree(self):
        rng = random.Random(20)
        n = 96
        terms = n.bit_length() - 1
        for _ in range(3):
            a = rand_exact_fn(rng, n, unit=1)
            assert padded(af.dlog(a)) == series_partial_sum_log(padded(a), terms + 3)

    def test_against_derivation_oracle(self):
        rng = random.Random(21)
        for _ in range(3):
            a = rand_exact_fn(rng, 256, unit=1)
            assert padded(af.dlog(a)) == dlog_oracle(padded(a))

    def test_domain_error_names_value(self):
        a = af.ArithFn.from_values([2, 1, 1])
        with pytest.raises(DomainError, match="a\\(1\\) = 2"):
            af.dlog(a)

    def test_float_requires_exact_unit_by_default(self):
        a = af.ArithFn.from_values([1.0 + 1e-12, 0.5], af.COMPLEX)
        with pytest.raises(DomainError):
            af.dlog(a)

    def test_normalize_unit_flag(self):
        # a table with a(1) != 1 enters dlog rescaled by the caller
        vals = [2.0, 1.0, 0.5, -0.25]
        a = af.ArithFn.from_values(vals, af.COMPLEX)
        got = af.dlog(a.scale(1 / a[1]))
        manual = af.ArithFn.from_values([1.0] + [v / 2.0 for v in vals[1:]], af.COMPLEX)
        assert got == af.dlog(manual)
        # exact backend: same pointwise rescale
        b = af.ArithFn.from_values([2, 4, 6])
        assert af.dlog(b.scale(Fraction(1) / b[1])) == af.dlog(af.ArithFn.from_values([1, 2, 3]))

    def test_normalize_unit_cannot_fix_zero(self):
        # a(1) = 0 is outside the domain, and no rescale reaches a(1) = 1
        a = af.ArithFn.from_values([0, 1, 1])
        for op in (af.dlog, af.psi):
            with pytest.raises(DomainError, match="a\\(1\\) = 0"):
                op(a)


class TestDexp:
    def test_exp_of_zero_is_identity(self):
        z = af.ArithFn.zeros(64)
        assert af.dexp(z) == af.ArithFn.identity(64)

    def test_domain_error(self):
        a = af.ArithFn.from_values([Fraction(1, 2), 1])
        with pytest.raises(DomainError, match="a\\(1\\)"):
            af.dexp(a)

    def test_against_derivation_oracle(self):
        rng = random.Random(22)
        for _ in range(3):
            a = rand_exact_fn(rng, 256, unit=0)
            assert padded(af.dexp(a)) == dexp_oracle(padded(a))

    def test_round_trips_are_exact(self):
        rng = random.Random(23)
        n = 512
        for _ in range(5):
            a = rand_exact_fn(rng, n, unit=1)
            assert af.dexp(af.dlog(a)) == a
            m = rand_exact_fn(rng, n, unit=0)
            assert af.dlog(af.dexp(m)) == m

    def test_round_trip_on_random_multiplicative(self, sieve1000):
        rng = random.Random(230)
        for _ in range(3):
            m = rand_multiplicative(rng, sieve1000, 512)
            assert af.dexp(af.dlog(m)) == m

    def test_truncation_coherence(self):
        rng = random.Random(24)
        a = rand_exact_fn(rng, 256, unit=1)
        assert af.dlog(a).truncate(128) == af.dlog(a.truncate(128))
        m = rand_exact_fn(rng, 256, unit=0)
        assert af.dexp(m).truncate(128) == af.dexp(m.truncate(128))


class TestSeriesTruncation:
    # The vanishing argument behind K = floor(log2 N), checked head-on: for
    # b(1) = 0 the power b**(K+1) is zero on 1..N, and every later series
    # term is a convolution multiple of it, so extra terms add exact zeros.
    def test_extra_terms_change_nothing(self):
        rng = random.Random(25)
        n = 512
        k = n.bit_length() - 1
        i, zero = af.ArithFn.identity(n), af.ArithFn.zeros(n)
        for _ in range(3):
            a = rand_exact_fn(rng, n, unit=1)
            assert (a - i) ** (k + 1) == zero
            m = rand_exact_fn(rng, n, unit=0)
            assert m ** (k + 1) == zero

    def test_extra_terms_complex(self):
        rng = random.Random(26)
        n = 256
        k = n.bit_length() - 1
        a = rand_complex_fn(rng, n, unit=1)
        i = af.ArithFn.identity(n, af.COMPLEX)
        assert (a - i) ** (k + 1) == af.ArithFn.zeros(n, af.COMPLEX)


class TestHomomorphism:
    def test_log_turns_convolution_into_sum(self):
        rng = random.Random(27)
        n = 256
        for _ in range(5):
            a = rand_exact_fn(rng, n, unit=1)
            b = rand_exact_fn(rng, n, unit=1)
            assert af.dlog(a * b) == af.dlog(a) + af.dlog(b)

    def test_exp_turns_sum_into_convolution(self):
        rng = random.Random(28)
        n = 256
        for _ in range(5):
            a = rand_exact_fn(rng, n, unit=0)
            b = rand_exact_fn(rng, n, unit=0)
            assert af.dexp(a + b) == af.dexp(a) * af.dexp(b)

    def test_psi_is_a_homomorphism(self):
        rng = random.Random(29)
        n = 256
        for _ in range(5):
            a = rand_exact_fn(rng, n, unit=1)
            b = rand_exact_fn(rng, n, unit=1)
            assert af.psi(a * b) == af.psi(a) + af.psi(b)
            x = rand_exact_fn(rng, n, unit=0)
            y = rand_exact_fn(rng, n, unit=0)
            assert af.psi_inv(x + y) == af.psi_inv(x) * af.psi_inv(y)


class TestPsi:
    def test_psi_of_identity(self):
        assert af.psi(af.ArithFn.identity(64)) == af.ArithFn.zeros(64)

    def test_values_on_u(self):
        p = af.psi(af.ArithFn.ones(64))
        assert p[4] == Fraction(3, 2)  # 0 + 1 + 1/2 over divisors 1,2,4
        assert p[6] == 2  # 1 + 1 + 0

    def test_psi_of_u_sums_reciprocal_exponents(self, sieve1000):
        # psi(u)(n) = sum over prime powers p^k | n of 1/k
        p = af.psi(af.ArithFn.ones(200))
        for n in range(1, 201):
            want = sum(
                Fraction(1, k)
                for q, a in sieve1000.factorize(n)
                for k in range(1, a + 1)
            )
            assert p[n] == want

    def test_psi_inv_of_zero(self):
        assert af.psi_inv(af.ArithFn.zeros(64)) == af.ArithFn.identity(64)

    def test_psi_round_trip_on_totient(self, sieve1000):
        phi = af.make("phi", sieve1000, bound=512)
        assert af.psi_inv(af.psi(phi)) == phi

    def test_psi_inv_of_distinct_prime_count(self, sieve1000):
        # mu * nu is the prime indicator, so the result's series per prime
        # is the exponential series: value 1/k! at p^k, hence 1 at p
        nu = af.make("nu", sieve1000, bound=200)
        f = af.psi_inv(nu)
        assert f[2] == f[3] == f[5] == 1
        assert f[4] == Fraction(1, 2)
        assert f[8] == Fraction(1, 6)
        assert af.is_multiplicative(f).ok

    def test_structure_theorem_on_catalogue(self, sieve1000):
        n = 512
        mult_names = ["u", "mobius", "phi", "liouville", "d", "N"]
        for name in mult_names:
            m = af.make(name, sieve1000, bound=n)
            assert af.is_additive(af.psi(m)).ok, name
        for c in (1, 2):
            m = af.make("sigma", sieve1000, c=c, bound=n)
            assert af.is_additive(af.psi(m)).ok
        for name in ["nu", "Omega"]:
            a = af.make(name, sieve1000, bound=n)
            assert af.is_multiplicative(af.psi_inv(a)).ok, name

    def test_psi_preconditions(self):
        with pytest.raises(DomainError):
            af.psi(af.ArithFn.zeros(10))
        with pytest.raises(DomainError):
            af.psi_inv(af.ArithFn.ones(10))


class TestDerivativeIdentities:
    def test_log_derivative(self):
        rng = random.Random(30)
        n = 500
        for _ in range(3):
            a = rand_complex_fn(rng, n, unit=1.0)
            lhs = af.dlog(a).deriv()
            rhs = a.deriv() * a.inv()
            assert all(abs(lhs[k] - rhs[k]) < 1e-9 for k in range(1, n + 1))

    def test_exp_derivative(self):
        rng = random.Random(31)
        n = 500
        for _ in range(3):
            a = rand_complex_fn(rng, n, unit=0.0)
            e = af.dexp(a)
            lhs = e.deriv()
            rhs = a.deriv() * e
            assert all(abs(lhs[k] - rhs[k]) < 1e-9 for k in range(1, n + 1))


class TestRandomStructured:
    def test_psi_inv_round_trip_on_random_multiplicative(self, sieve1000):
        rng = random.Random(32)
        n = 512
        for _ in range(5):
            m = rand_multiplicative(rng, sieve1000, n)
            assert af.psi_inv(af.psi(m)) == m

    def test_psi_of_random_additive_is_in_image(self, sieve1000):
        rng = random.Random(33)
        n = 512
        for _ in range(3):
            a = rand_additive(rng, sieve1000, n)
            assert af.psi(af.psi_inv(a)) == a


def _is_canonical(fn) -> bool:
    return all(
        type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in fn.values()
    )


class TestCommonDenominator:
    """Exact series on integer numerators over one common denominator,
    and on plain Fractions once that denominator reaches the cap."""

    def _tables(self, first):
        rng = random.Random(50 + first)
        n = 128
        crossing = [first, Fraction(1, 2**511), Fraction(-1, 3)] + [
            rng.choice([0, 1, -2]) for _ in range(n - 3)
        ]
        big = [first, 2**70, -3] + [rng.choice([0, 1, 2**40]) for _ in range(n - 3)]
        return [
            rand_exact_fn(rng, n, unit=first),  # L = 6, under the cap
            recip_fn(360, first),  # L = lcm(2..360), over it
            af.ArithFn.from_values(crossing),  # L = 3 * 2**511, over it
            af.ArithFn.from_values(big),  # ints beyond int64, L = 1
        ]

    def test_dlog_matches_oracle(self):
        for a in self._tables(1):
            got = af.dlog(a)
            assert padded(got) == dlog_oracle(padded(a)) and _is_canonical(got)

    def test_dexp_matches_oracle(self):
        for a in self._tables(0):
            got = af.dexp(a)
            assert padded(got) == dexp_oracle(padded(a)) and _is_canonical(got)

    def test_object_ints_match_oracles(self, sieve5000):
        # sigma_6 leaves int64 from n = 1449 on: object ints over den = 1
        s6 = af.make("sigma", sieve5000, c=6, bound=4099)
        x = s6 - af.ArithFn.identity(4099)
        assert s6._v.dtype == object and s6.den == 1
        for got, want in ((af.dlog(s6), dlog_oracle(padded(s6))), (af.dexp(x), dexp_oracle(padded(x)))):
            assert padded(got) == want and _is_canonical(got)

    def test_psi_round_trip(self):
        for a in self._tables(1):
            p = af.psi(a)
            assert _is_canonical(p)
            back = af.psi_inv(p)
            assert back == a and _is_canonical(back)

    @pytest.mark.parametrize("n", (1, 2, 3, 16, 17, 1000))
    def test_complex_series_match_loop_bitwise(self, n):
        rng = random.Random(n)
        for kind, unit, op in (("log", 1.0, af.dlog), ("exp", 0.0, af.dexp)):
            a = rand_complex_fn(rng, n, unit=unit)
            got = np.array(op(a)._v, dtype=np.complex128)
            want = series_loop_complex(a, kind)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _close(exact: af.ArithFn, cplx: af.ArithFn) -> bool:
    # each value sums at most tau(n) log2(n) rounded terms: 1e-9 of the
    # table's largest modulus is far above that rounding
    scale = max([1.0] + [abs(complex(v)) for v in exact.values()])
    return exact.to_backend(af.COMPLEX).approx_eq(cplx, tol=1e-9 * scale)


class TestExactAgainstComplex:
    """Differential: the exact result, widened to complex, equals the
    complex backend's result on the same small int and Fraction tables."""

    def _pairs(self, rng, n, unit):
        ints = af.ArithFn.from_values(
            [unit] + [rng.randint(-3, 3) for _ in range(n - 1)]
        )
        fracs = rand_exact_fn(rng, n, unit=unit)
        return [(t, t.to_backend(af.COMPLEX)) for t in (ints, fracs)]

    @pytest.mark.parametrize("n", (1, 2, 16, 100, 256))
    def test_backends_agree(self, n):
        rng = random.Random(60 + n)
        for (a, ac), (b, bc) in zip(self._pairs(rng, n, 1), self._pairs(rng, n, 1)):
            assert _close(a * b, ac * bc)
            assert _close(af.dlog(a), af.dlog(ac))
            assert _close(af.psi(a), af.psi(ac))
        for unit in (-1, 2, Fraction(1, 2)):
            for a, ac in self._pairs(rng, n, unit):
                assert _close(a.inv(), ac.inv())
        for a, ac in self._pairs(rng, n, 0):
            assert _close(af.dexp(a), af.dexp(ac))
            assert _close(af.psi_inv(a), af.psi_inv(ac))


@pytest.mark.parametrize("n", (1023, 1024, 1025, 4099))
class TestBlockEdges:
    """Numerator storage on both sides of the dyadic block edges, against
    loop oracles on plain lists of Python values."""

    def test_ring_ops_match_loops(self, n):
        rng = random.Random(70 + n)
        av, bv = series_operand(rng, n, 1), series_operand(rng, n, 1)
        a, b = af.ArithFn.from_values(av[1:]), af.ArithFn.from_values(bv[1:])
        r = Fraction(-4, 3)
        cases = [
            (a * b, convolve_loop_exact(av, bv, n)),
            (a + b, [x + y for x, y in zip(av, bv)]),
            (a - b, [x - y for x, y in zip(av, bv)]),
            (a.scale(r), [r * x for x in av]),
        ]
        cases += [(a.truncate(m), av[: m + 1]) for m in (1, 1023, 1024, 1025) if m <= n]
        for got, want in cases:
            assert padded(got) == want and _is_canonical(got)
        got = np.array(a.to_backend(af.COMPLEX).values(), dtype=np.complex128)
        want = np.array([complex(x) for x in av[1:]], dtype=np.complex128)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_series_match_oracles(self, n):
        rng = random.Random(80 + n)
        av, xv = series_operand(rng, n, 1), series_operand(rng, n, 0)
        a, x = af.ArithFn.from_values(av[1:]), af.ArithFn.from_values(xv[1:])
        log_a = dlog_oracle(av)
        assert log_a == series_partial_sum_log(av, n.bit_length())
        u = [0] + [1] * n
        mu = inverse_loop_exact(u, n)
        cases = [
            (af.dlog(a), log_a),
            (af.dexp(x), dexp_oracle(xv)),
            (af.psi(a), convolve_loop_exact(u, log_a, n)),
            (af.psi_inv(x), dexp_oracle(convolve_loop_exact(mu, xv, n))),
        ]
        for got, want in cases:
            assert padded(got) == want and _is_canonical(got)
