"""Ring operations: convolution, inverse, powers, derivative, truncation."""

import gc
import math
import operator
import random
import json
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arithfn as af
from arithfn import dirichlet
from arithfn import io as fnio
from arithfn.dirichlet import _SPLIT_CAP, _conv, _inv, _store
from arithfn.errors import (
    BackendMismatchError,
    BoundMismatchError,
    NonFiniteError,
    NotInvertibleError,
    UnsupportedBackendError,
)
from conftest import (
    convolve_brute,
    convolve_loop_complex,
    convolve_loop_exact,
    deriv_loop_complex,
    divisors_brute,
    inverse_brute,
    inverse_loop_complex,
    inverse_loop_exact,
    mobius_brute,
    padded,
    pointwise_loop,
    primes_brute,
    rand_complex_fn,
    rand_exact_fn,
    recip_fn,
    series_operand,
)


class TestTableBasics:
    def test_exactly_n_values_and_no_index_zero(self):
        a = af.ArithFn.from_values([1, 2, 3])
        assert len(a) == 3 and a.values() == (1, 2, 3)
        with pytest.raises(IndexError):
            a[0]
        with pytest.raises(IndexError):
            a[4]

    def test_equality_requires_equal_bounds(self):
        a = af.ArithFn.ones(5)
        assert a != af.ArithFn.ones(6)
        assert a == af.ArithFn.from_values([1] * 5)

    def test_bound_mismatch_is_an_error_not_truncation(self):
        with pytest.raises(BoundMismatchError):
            af.ArithFn.ones(5) + af.ArithFn.ones(6)
        with pytest.raises(BoundMismatchError):
            af.ArithFn.ones(5) * af.ArithFn.ones(6)

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatchError):
            af.ArithFn.ones(5) + af.ArithFn.ones(5, af.COMPLEX)

    def test_identity_table(self):
        i = af.ArithFn.identity(6)
        assert i.values() == (1, 0, 0, 0, 0, 0)

    def test_float_equality_goes_through_tolerance(self):
        a = af.ArithFn.from_values([1.0, 2.0], af.COMPLEX)
        b = af.ArithFn.from_values([1.0, 2.0 + 1e-12], af.COMPLEX)
        assert a != b  # == is bitwise
        assert a.approx_eq(b, 1e-9)
        assert not a.approx_eq(b, 1e-15)


class TestPointwise:
    def test_additive_identity(self):
        rng = random.Random(1)
        a = rand_exact_fn(rng, 50)
        assert a + af.ArithFn.zeros(50) == a

    def test_nu_plus_omega_at_12(self, sieve100):
        nu = af.make("nu", sieve100)
        om = af.make("Omega", sieve100)
        assert (nu + om)[12] == 5

    def test_cancellation(self):
        rng = random.Random(2)
        a = rand_exact_fn(rng, 64)
        assert a + a.scale(-1) == af.ArithFn.zeros(64)

    def test_scalar_examples(self):
        u = af.ArithFn.ones(10)
        assert u.scale(1) == u
        assert 0 * u == af.ArithFn.zeros(10)
        half_u = Fraction(1, 2) * u
        assert all(v == Fraction(1, 2) for v in half_u.values())


class TestConvolution:
    def test_exact_products_are_canonical(self):
        # 1/2 * 2 = 1 and 2 * 2 = 4 leave object storage as Fractions
        prod = af.ArithFn.from_values([Fraction(1, 2), 2]) * af.ArithFn.from_values([2, 0])
        assert prod.values() == (1, 4)
        assert [type(v) for v in prod.values()] == [int, int]

    def test_identity_is_neutral(self):
        rng = random.Random(3)
        a = rand_exact_fn(rng, 100)
        i = af.ArithFn.identity(100)
        assert i * a == a and a * i == a

    def test_u_star_u_is_divisor_count(self, sieve100):
        u = af.ArithFn.ones(100)
        assert (u * u)[12] == len(divisors_brute(12)) == 6

    def test_mu_star_u_is_identity(self):
        u = af.ArithFn.ones(200)
        mu = af.ArithFn.from_values([mobius_brute(n) for n in range(1, 201)])
        assert mu * u == af.ArithFn.identity(200)

    def test_exact_kernel_matches_brute_scan(self):
        rng = random.Random(4)
        for _ in range(5):
            a = rand_exact_fn(rng, 128)
            b = rand_exact_fn(rng, 128)
            assert (a * b).values() == tuple(convolve_brute(a, b)[1:])

    def test_complex_kernel_matches_brute_scan(self):
        rng = random.Random(5)
        a = rand_complex_fn(rng, 128)
        b = rand_complex_fn(rng, 128)
        got = a * b
        want = convolve_brute(a, b)
        assert all(abs(got[n] - want[n]) < 1e-12 for n in range(1, 129))

    def test_ring_axioms_random_triples(self):
        # commutativity, associativity, distributivity, two-sided unit
        rng = random.Random(6)
        n = 256
        i = af.ArithFn.identity(n)
        for _ in range(3):
            a, b, c = (rand_exact_fn(rng, n) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert i * a == a * i == a

    def test_truncation_coherence(self):
        rng = random.Random(7)
        a2 = rand_exact_fn(rng, 256)
        b2 = rand_exact_fn(rng, 256)
        a1, b1 = a2.truncate(128), b2.truncate(128)
        assert (a2 * b2).truncate(128) == a1 * b1
        c2 = rand_complex_fn(rng, 256)
        d2 = rand_complex_fn(rng, 256)
        assert (c2 * d2).truncate(128) == c2.truncate(128) * d2.truncate(128)


class TestInverse:
    def test_inverse_of_identity(self):
        i = af.ArithFn.identity(64)
        assert i.inv() == i

    def test_inverse_of_u_is_mobius(self):
        # cross-checked against the squarefree-sign definition
        u = af.ArithFn.ones(200)
        mu = u.inv()
        assert mu[30] == -1 and mu[4] == 0
        assert mu.values() == tuple(mobius_brute(n) for n in range(1, 201))

    def test_random_inverse_round_trip(self):
        rng = random.Random(8)
        n = 2048
        i = af.ArithFn.identity(n)
        for _ in range(3):
            a = rand_exact_fn(rng, n, unit=rng.choice([1, -1, 2, Fraction(1, 2)]))
            assert a * a.inv() == i

    def test_matches_brute_recursion(self):
        rng = random.Random(9)
        a = rand_exact_fn(rng, 96, unit=Fraction(2, 3))
        assert a.inv().values() == tuple(inverse_brute(a)[1:])

    def test_not_invertible_names_index_1(self):
        a = af.ArithFn.from_values([0, 1, 1])
        with pytest.raises(NotInvertibleError, match=r"a\(1\)"):
            a.inv()

    def test_float_epsilon_precondition(self):
        a = af.ArithFn.from_values([1e-14, 1.0], af.COMPLEX)
        with pytest.raises(NotInvertibleError):
            a.inv()
        for a1, ok in ((af.DEFAULT_EPS, False), (2 * af.DEFAULT_EPS, True)):
            a = af.ArithFn.from_values([a1, 1.0], af.COMPLEX)
            if ok:
                assert a.inv()[1] == 1 / a1
            else:
                with pytest.raises(NotInvertibleError):
                    a.inv()

    def test_complex_inverse(self):
        rng = random.Random(10)
        a = rand_complex_fn(rng, 300, unit=1.0)
        prod = a * a.inv()
        assert abs(prod[1] - 1) < 1e-12
        assert all(abs(prod[n]) < 1e-9 for n in range(2, 301))


class TestPower:
    def test_zeroth_power_is_identity(self):
        rng = random.Random(11)
        a = rand_exact_fn(rng, 50)
        assert a**0 == af.ArithFn.identity(50)

    def test_first_power(self):
        rng = random.Random(12)
        a = rand_exact_fn(rng, 50)
        assert a**1 == a

    def test_square_of_u_is_divisor_function(self, sieve1000):
        u = af.ArithFn.ones(1000)
        assert u**2 == af.make("d", sieve1000)

    def test_binary_exponentiation_matches_iterated_product(self):
        rng = random.Random(13)
        a = rand_exact_fn(rng, 128)
        iterated = af.ArithFn.identity(128)
        for k in range(7):
            assert a**k == iterated
            iterated = iterated * a

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            af.ArithFn.ones(10) ** -1

    @pytest.mark.parametrize("k", (True, False))
    def test_bool_power_rejected(self, k):
        # a bool is no more an exponent than it is a coefficient
        with pytest.raises(ValueError, match="integer k >= 0"):
            af.ArithFn.ones(10) ** k


class TestDerivative:
    def test_derivative_of_identity_vanishes(self):
        i = af.ArithFn.identity(50, af.COMPLEX)
        assert i.deriv() == af.ArithFn.zeros(50, af.COMPLEX)

    def test_log_weights(self):
        u = af.ArithFn.ones(50, af.COMPLEX)
        du = u.deriv()
        assert du[1] == 0
        assert abs(du[8] - math.log(8)) < 1e-15

    def test_rational_backend_rejected(self):
        with pytest.raises(UnsupportedBackendError):
            af.ArithFn.ones(10).deriv()

    def test_mobius_conv_u_deriv_is_mangoldt(self, sieve1000):
        # u * Lambda = ln n, so Lambda = mu * u'
        n = 300
        u = af.ArithFn.ones(n, af.COMPLEX)
        mu = u.inv()
        lam = af.make("mangoldt", sieve1000, af.COMPLEX, bound=n)
        got = mu * u.deriv()
        assert all(abs(got[k] - lam[k]) < 1e-9 for k in range(1, n + 1))

    def test_leibniz_rule(self):
        rng = random.Random(14)
        n = 500
        a = rand_complex_fn(rng, n)
        b = rand_complex_fn(rng, n)
        lhs = (a * b).deriv()
        rhs = a.deriv() * b + a * b.deriv()
        assert all(abs(lhs[k] - rhs[k]) < 1e-9 for k in range(1, n + 1))

    def test_log_table_lives_and_dies_with_the_sieve(self):
        # ln k is kept per bound on the sieve that serves the bound; no
        # module-level table outlives it
        n = 3331  # a bound no other live sieve has, so this sieve serves it
        sieve = af.build_sieve(n)
        a = af.make("phi", sieve, af.COMPLEX)
        first = a.deriv()
        key = dirichlet._logs, n
        table = sieve._per_bound[key]
        second = a.deriv()
        assert sieve._per_bound[key] is table
        assert np.array_equal(first._v.view(np.uint64), second._v.view(np.uint64))
        assert table.real.tolist() == [0.0, 0.0] + [math.log(k) for k in range(2, n + 1)]
        dead = weakref.ref(table)
        del sieve, table
        gc.collect()
        assert dead() is None
        assert not hasattr(dirichlet, "_LOGS")


class TestValuationSupport:
    def test_valuation_examples(self, sieve100):
        mu = af.ArithFn.ones(100).inv()
        assert mu.valuation() == 1
        lam = af.make("mangoldt", sieve100, af.COMPLEX)
        assert lam.valuation() == 2
        assert af.ArithFn.zeros(100).valuation() is None

    def test_support_examples(self, sieve100):
        assert af.ArithFn.identity(100).support() == [1]
        lam = af.make("mangoldt", sieve100, af.COMPLEX, bound=10)
        assert lam.support() == [2, 3, 4, 5, 7, 8, 9]
        assert af.ArithFn.zeros(100).support() == []

    def test_valuation_multiplicative_under_convolution(self):
        rng = random.Random(15)
        n = 400
        for _ in range(10):
            va, vb = rng.randint(1, 8), rng.randint(1, 8)
            if va * vb > n:
                continue
            avals = [0] * n
            bvals = [0] * n
            for k in range(va - 1, n):
                avals[k] = rng.choice([0, 1, 2])
            for k in range(vb - 1, n):
                bvals[k] = rng.choice([0, 1, 3])
            avals[va - 1] = 1
            bvals[vb - 1] = 2
            a = af.ArithFn.from_values(avals)
            b = af.ArithFn.from_values(bvals)
            assert (a * b).valuation() == va * vb

    def test_float_support_uses_epsilon(self):
        a = af.ArithFn.from_values([1e-15, 1.0, 1e-10, af.DEFAULT_EPS], af.COMPLEX)
        assert a.support() == [2, 3]
        assert a.valuation() == 2
        assert af.ArithFn.from_values([1e-15, af.DEFAULT_EPS], af.COMPLEX).valuation() is None


# Sizes covering n < 4, the square-root split on both sides of a square
# (15, 16, 17) and partial last dyadic blocks (1000, 4099).
KERNEL_SIZES = (1, 2, 3, 4, 15, 16, 17, 1000, 4099)
# Sizes at which the kernels also run on sparse supports.
SPARSE_SIZES = (17, 1000, 4099)


def _rand_padded_complex(rng, n):
    x = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    x[rng.random(n + 1) < 0.3] = 0
    x[0] = 0
    return x


def _rand_padded_int(rng, n):
    x = rng.integers(-9, 10, n + 1)
    x[0] = 0
    return x


def _sparse_tables(rng, n, dtype):
    """Padded tables whose supports send a push down either loop: I, one
    point at n // 2, sparse primes above sqrt(n), zero below sqrt(n), and
    a(1) = 0 (last, so that the inverse can leave it out)."""
    k = math.isqrt(n)
    primes = [p for p in primes_brute(n) if p > k][::16]
    if dtype == np.complex128:
        dense, point = _rand_padded_complex(rng, n), -0.0 + 2j
        few = rng.standard_normal(len(primes)) + 1j * rng.standard_normal(len(primes))
    else:
        dense, point = _rand_padded_int(rng, n), -2
        few = rng.integers(1, 10, len(primes))
    unit, single, sparse = (np.zeros(n + 1, dtype=dtype) for _ in range(3))
    unit[1] = 1
    single[n // 2] = point
    sparse[primes] = few
    high, no_one = dense.copy(), dense.copy()
    high[: k + 1] = 0
    no_one[1] = 0
    return [unit, single, sparse, high, no_one]


def _mixed_table(rng, n, dtype):
    """A padded table whose pushes take both m-loop branches: a(1) = 1,
    a(2) = 2, random values on (K, 3K], K = floor(sqrt n), and every
    fourth prime above 3K.  The upper push of a convolution strides while
    n // m stays in the dense run and scatters at the small m that reach
    the primes; at n = 1000 and 4099 the inverse has a block that does
    both.  A complex table has -0.0 parts in values and in zeros of the
    run."""
    k = math.isqrt(n)
    run = np.arange(k + 1, 3 * k + 1)
    primes = [p for p in primes_brute(n) if p > 3 * k][::4]
    t = np.zeros(n + 1, dtype=dtype)
    t[1], t[2] = 1, 2
    if dtype == np.complex128:
        t[run] = rng.standard_normal(len(run)) + 1j * rng.standard_normal(len(run))
        t[primes] = rng.standard_normal(len(primes)) - 1j
        t.real[run[::7]] = -0.0
        t.imag[run[3::7]] = -0.0
        t[run[5::11]] = complex(-0.0, 0.0)
        t[run[8::11]] = complex(-0.0, -0.0)
    else:
        t[run] = rng.integers(1, 10, len(run)) * rng.choice([-1, 1], len(run))
        t[primes] = rng.integers(1, 10, len(primes))
    return t


def _guard_edge(n):
    """Largest M with M * M * (2 floor(sqrt n) + 1) < 2**62."""
    return math.isqrt((2**62 - 1) // (2 * math.isqrt(n) + 1))


def _same_bits(x, y):
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _kernel_input(vals) -> np.ndarray:
    """A padded table as the kernels take it: int64 when every value is an
    int that fits, else object values (big ints, or the Fractions of a
    table above the cap)."""
    fits = all(type(v) is int and -(2**63) <= v < 2**63 for v in vals)
    return np.array(vals, dtype=np.int64 if fits else object)


def _inverse_values(a, n):
    """_inv's numerators over its den, as values in lowest terms."""
    b, den = _inv(a, n)
    return [af.rational(x, den) for x in b.tolist()]


class TestKernels:
    # At SPARSE_SIZES the two bitwise tests also run the sparse tables,
    # in complex128 and in int64 and object storage.

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_complex_conv_matches_loop_bitwise(self, n):
        rng = np.random.default_rng(n)
        a, b = _rand_padded_complex(rng, n), _rand_padded_complex(rng, n)
        got = _conv(a, b, n)
        want = convolve_loop_complex(a, b, n)
        assert _same_bits(got, want)
        if n not in SPARSE_SIZES:
            return
        for t in _sparse_tables(rng, n, np.complex128):
            for x, y in ((t, b), (a, t), (t, t)):
                assert _same_bits(_conv(x, y, n), convolve_loop_complex(x, y, n))
        c = _rand_padded_int(rng, n)
        for t in _sparse_tables(rng, n, np.int64):
            for x, y in ((t, c), (c, t), (t, t)):
                want = convolve_loop_exact(x.tolist(), y.tolist(), n)
                assert _conv(x, y, n).tolist() == want
                assert _conv(x.astype(object), y.astype(object), n).tolist() == want

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_complex_inv_matches_loop_bitwise(self, n):
        rng = np.random.default_rng(n + 1)
        a = _rand_padded_complex(rng, n)
        for a1 in (1.0, 0.75 - 0.5j):
            a[1] = a1
            got, den = _inv(a, n)
            want = inverse_loop_complex(a, n)
            assert den == 1 and _same_bits(got, want)
        if n not in SPARSE_SIZES:
            return
        for t in _sparse_tables(rng, n, np.complex128)[:-1]:
            for a1 in (1.0, 0.75 - 0.5j):
                t[1] = a1
                got, den = _inv(t, n)
                assert den == 1 and _same_bits(got, inverse_loop_complex(t, n))
        for t in _sparse_tables(rng, n, np.int64)[:-1]:
            for a1 in (1, -1, 2):
                t[1] = a1
                want = inverse_loop_exact(t.tolist(), n)
                assert _inverse_values(t, n) == want
                assert _inverse_values(t.astype(object), n) == want

    @pytest.mark.parametrize("n", (1000, 4099))
    def test_mixed_density_pushes_match_loops(self, n):
        rng = np.random.default_rng(n + 2)
        t, r = _mixed_table(rng, n, np.complex128), _rand_padded_complex(rng, n)
        for x, y in ((t, r), (r, t), (t, t)):
            assert _same_bits(_conv(x, y, n), convolve_loop_complex(x, y, n))
        for a1 in (1.0, 0.75 - 0.5j):
            t[1] = a1
            got, den = _inv(t, n)
            assert den == 1 and _same_bits(got, inverse_loop_complex(t, n))
        t, c = _mixed_table(rng, n, np.int64), _rand_padded_int(rng, n)
        for x, y in ((t, c), (c, t), (t, t)):
            want = convolve_loop_exact(x.tolist(), y.tolist(), n)
            assert _conv(x, y, n).tolist() == want
            assert _conv(x.astype(object), y.astype(object), n).tolist() == want
        for a1 in (1, -1, 2):
            t[1] = a1
            want = inverse_loop_exact(t.tolist(), n)
            assert _inverse_values(t, n) == want
            assert _inverse_values(t.astype(object), n) == want

    def test_mixed_density_fractions_above_cap(self):
        # 1/d on the mixed support: the denominators' lcm passes the cap,
        # so the table, its products and its inverse keep their Fractions
        n = 4099
        support = np.flatnonzero(_mixed_table(np.random.default_rng(0), n, np.int64))
        av = [0] * (n + 1)
        for d in support.tolist():
            av[d] = Fraction(1, d) if d > 1 else 1
        t = af.ArithFn.from_values(av[1:])
        assert t.den == 1 and t._v.dtype == object
        u = af.ArithFn.ones(n)

        def typed(vals):
            return [(type(v), v) for v in vals]

        def canonical(vals):
            return [v.numerator if type(v) is Fraction and v.denominator == 1 else v for v in vals]

        for y, yv in ((t, av), (u, [0] + [1] * n)):
            want = canonical(convolve_loop_exact(av, yv, n))[1:]
            assert typed((t * y).values()) == typed(want)
            assert typed((y * t).values()) == typed(canonical(convolve_loop_exact(yv, av, n))[1:])
        assert typed(t.inv().values()) == typed(inverse_loop_exact(av, n)[1:])

    def test_storage_choice(self):
        half, den = _store([0, 1, Fraction(3, 2)], af.RATIONAL)
        assert half.dtype == np.int64 and half.tolist() == [0, 2, 3] and den == 2
        for big in (2**63, 2**64 - 1, 2**64):
            wide, den = _store([0, 1, big], af.RATIONAL)
            assert wide.dtype == object and wide.tolist() == [0, 1, big] and den == 1
        wide, den = _store([0, 1, Fraction(2**63, 3)], af.RATIONAL)
        assert wide.dtype == object and wide.tolist() == [0, 3, 2**63] and den == 3
        kept, den = _store([0, 1, Fraction(1, _SPLIT_CAP)], af.RATIONAL)
        assert kept.dtype == object and kept.tolist() == [0, 1, Fraction(1, _SPLIT_CAP)] and den == 1
        assert _store([0, -(2**63)], af.RATIONAL)[0].dtype == np.int64
        assert _store([0, 1j], af.COMPLEX)[0].dtype == np.complex128

    @pytest.mark.parametrize("n", (1, 17, 100))
    def test_int64_guard_edge(self, n):
        # Tables at the guard's edge stay int64; one step past it falls
        # back to object storage.  Both equal the exact loop.
        for m, dtype in ((_guard_edge(n), np.int64), (_guard_edge(n) + 1, object)):
            av = [0] + [m if k % 3 else -m for k in range(1, n + 1)]
            got = _conv(_kernel_input(av), _kernel_input(av), n)
            assert got.dtype == dtype
            assert got.tolist() == convolve_loop_exact(av, av, n)

    def test_min_int64_takes_object_storage(self):
        av = [0, 1, -(2**63), 5]
        got = _conv(_kernel_input(av), _kernel_input(av), 3)
        assert got.dtype == object
        assert got.tolist() == convolve_loop_exact(av, av, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_int64_and_object_storage_agree(self, data):
        n = data.draw(st.integers(1, 80), label="n")
        edge = _guard_edge(n)
        lim = data.draw(st.sampled_from([3, 2**20, edge, edge + 1, 2**62]), label="lim")
        values = st.lists(st.integers(-lim, lim), min_size=n, max_size=n)
        av = [0] + data.draw(values, label="a")
        bv = [0] + data.draw(values, label="b")
        if data.draw(st.booleans(), label="fraction"):
            av[data.draw(st.integers(1, n))] = Fraction(3, 2)
        if data.draw(st.booleans(), label="big"):
            bv[data.draw(st.integers(1, n))] = 2**63
        a, b = _kernel_input(av), _kernel_input(bv)
        want = convolve_loop_exact(av, bv, n)
        assert _conv(a, b, n).tolist() == want
        assert _conv(a.astype(object), b.astype(object), n).tolist() == want
        av[1] = data.draw(st.sampled_from([1, -1, 2, -3]), label="a1")
        a = _kernel_input(av)
        want = inverse_loop_exact(av, n)
        assert _inverse_values(a, n) == want
        assert _inverse_values(a.astype(object), n) == want


def _is_canonical(vals) -> bool:
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in vals)


class TestCommonDenominator:
    def _rand_table(self, rng, n):
        vals = [rng.choice([0, 1, -1, 5, -7]) for _ in range(n)]
        for i in rng.sample(range(n), max(1, n // 2)):
            vals[i] = af.rational(rng.randint(-9, 9), rng.choice([2, 3, 4]))
        return [0] + vals

    # (padded values, expected L, expected storage of the numerators)
    CASES = [
        ([0, 0, 0, 0], 1, np.int64),
        ([0, -3], 1, np.int64),
        ([0, 1, Fraction(-1, 2), 3, Fraction(5, 3)], 6, np.int64),
        ([0, 0, Fraction(-1, 6), 0], 6, np.int64),
        ([0, 2**63, Fraction(1, 2)], 2, object),
        ([0, -(2**70), 7], 1, object),
        # a denominator beyond int64, and L just under the cap
        ([0, 1, Fraction(-1, _SPLIT_CAP - 1)], _SPLIT_CAP - 1, object),
    ]
    # L at or past the cap: the Fractions stay, with L = 1
    KEPT = [
        [0, 1, Fraction(1, _SPLIT_CAP)],
        [0, Fraction(2, _SPLIT_CAP), Fraction(-1, 3)],
        [0, *recip_fn(360, 1).values()],
    ]

    # A table splits into numerators over den and its values come back.
    def test_split_values_round_trip(self):
        for vals, want_l, dtype in self.CASES:
            fn = af.ArithFn.from_values(vals[1:])
            assert fn.den == want_l and fn._v.dtype == dtype
            assert fn._v.tolist() == [v * want_l for v in vals]
            assert math.gcd(fn.den, *fn._v.tolist()) == 1
            assert list(fn.values()) == vals[1:] and _is_canonical(fn.values())
        for vals in self.KEPT:
            fn = af.ArithFn.from_values(vals[1:])
            assert fn.den == 1 and fn._v.dtype == object and fn._v.tolist() == vals
            assert list(fn.values()) == vals[1:] and _is_canonical(fn.values())

    @pytest.mark.parametrize("n", (1, 2, 3, 17))
    def test_split_random_tables(self, n):
        rng = random.Random(n)
        for _ in range(5):
            vals = self._rand_table(rng, n)
            fn = af.ArithFn.from_values(vals[1:])
            assert fn.den == math.lcm(*(Fraction(v).denominator for v in vals))
            assert fn._v.dtype == np.int64
            assert fn._v.tolist() == [v * fn.den for v in vals]
            assert list(fn.values()) == vals[1:] and _is_canonical(fn.values())

    def test_products_match_exact_loop(self):
        # under the cap, over it (1/n, L = lcm(2..360)), one of each, and
        # two under it whose products reach it (L = 2**300 3**250)
        rng = random.Random(40)
        n = 360
        under = [af.ArithFn.from_values(self._rand_table(rng, n)[1:]) for _ in range(2)]
        under += [af.ArithFn.from_values([1, Fraction(1, 2**300)] + [7] * (n - 2)),
                  af.ArithFn.from_values([1, 0, Fraction(-1, 3**250)] + [0] * (n - 3))]
        crossing = af.ArithFn.from_values(self.KEPT[1][1:] + [5] * (n - 2))
        over = [recip_fn(n, 1), recip_fn(n, 0), crossing]
        for a in under + over:
            for b in under + over:
                got = (a * b).values()
                assert list(got) == convolve_loop_exact([0, *a.values()], [0, *b.values()], n)[1:]
                assert _is_canonical(got) and _stores_canonically(a * b, got)


def _stores_canonically(fn, want) -> bool:
    """fn holds want, as ints where the denominator is 1.  Its storage is
    the numerators of want over den, the lcm of their denominators, in
    int64 exactly when every numerator fits; at or above the cap it is
    want itself, with den = 1."""
    den = math.lcm(*(Fraction(v).denominator for v in want))
    nums = [int(v * den) for v in want]
    if den >= _SPLIT_CAP:
        den, nums = 1, list(want)
    fits = all(type(x) is int and -(2**63) <= x < 2**63 for x in nums)
    return (
        fn.values() == tuple(want)
        and all(type(v) is int or v.denominator > 1 for v in fn.values())
        and fn.den == den
        and fn._v[1:].tolist() == nums
        and (fn._v.dtype == np.int64) == fits
    )


@pytest.mark.parametrize("n", (1, 2, 1023, 1024, 1025, 4099))
class TestIntegerInverse:
    """inv runs on integer numerators over |t|**(K+1), t the numerator of
    a(1) and K = floor(log2 N), or multiplies by -1/a(1) where those would
    reach the cap; each case equals the exact loop and stores canonically."""

    def _check(self, fn):
        want = inverse_loop_exact(padded(fn), fn.bound)[1:]
        assert _stores_canonically(fn.inv(), want)

    def test_integer_units(self, n):
        rng = random.Random(90 + n)
        rest = [0 if rng.random() < 0.2 else rng.randint(-5, 5) for _ in range(n - 1)]
        for a1 in (1, -1, 2, -3, 6):
            self._check(af.ArithFn.from_values([a1] + rest))

    def test_rational_tables(self, n):
        rng = random.Random(100 + n)
        for first in (1, Fraction(-5, 3), Fraction(1, 6), Fraction(-1, 6)):
            self._check(af.ArithFn.from_values(series_operand(rng, n, first)[1:]))

    def test_shifted_units(self, n):
        u, one = af.ArithFn.ones(n), af.ArithFn.identity(n)
        for fn in (u.scale(2), u + one, u.scale(Fraction(2, 3)) + one):
            self._check(fn)

    def test_unit_crossing_the_cap(self, n):
        # (2**40)**(K+1) passes 2**512 from K = 12 (n >= 4096) on
        fn = af.ArithFn.from_values([2**40] + [(-1) ** k * k for k in range(2, n + 1)])
        self._check(fn)

    def test_int64_guard_edge(self, n):
        # max|a| = t and b(1) = t**K: the largest t that passes the
        # guard, t**(K+1) (2 floor(sqrt n) + 1) < 2**62, and one past it
        c, k1 = 2 * math.isqrt(n) + 1, n.bit_length()  # k1 = K + 1
        t = round(((2**62 - 1) // c) ** (1 / k1))
        while t**k1 * c >= 2**62:
            t -= 1
        while (t + 1) ** k1 * c < 2**62:
            t += 1
        rng = random.Random(110 + n)
        rest = [rng.choice((0, 1, -1)) for _ in range(n - 1)]
        for a1, dtype in ((t, np.int64), (-(t + 1), object)):
            fn = af.ArithFn.from_values([a1] + rest)
            assert _inv(fn._v, n)[0].dtype == dtype
            self._check(fn)


def test_inverse_of_kept_fractions():
    # 1/n at 400: den would reach the cap, so the table keeps Fractions
    for first in (1, 2, Fraction(-1, 3)):
        fn = recip_fn(400, first)
        assert fn.den == 1 and fn._v.dtype == object
        want = inverse_loop_exact(padded(fn), 400)[1:]
        assert _stores_canonically(fn.inv(), want)


# Signed zeros and zero parts, where a complex product formula can differ
# from the scalar one in the sign of a zero.
_SPECIALS = [complex(-1.5, -0.0), 0j, complex(-0.0, 0.0), complex(0.0, -0.0),
             complex(-0.0, -0.0), complex(-0.0, 2.0), complex(3.0, 0.0), -2.5j]


def _rand_values_complex(rng, n):
    vals = [complex(x) for x in _rand_padded_complex(rng, n)][1:]
    for i in range(0, n, 3):
        vals[i] = _SPECIALS[(i // 3) % len(_SPECIALS)]
    return vals


class TestStorage:
    def test_storage_is_read_only(self, sieve100):
        u, uc = af.ArithFn.ones(50), af.ArithFn.ones(50, af.COMPLEX)
        half = u.scale(Fraction(1, 2))
        tables = [
            u, uc, half, af.ArithFn.from_values([2**70, 1]), u * u, half * u, u.inv(), uc.inv(),
            u + u, u - half, -u, u.truncate(7), u.to_backend(af.COMPLEX), uc.deriv(),
            af.dlog(u), af.dexp(u - af.ArithFn.identity(50)), af.make("phi", sieve100),
            af.bell_reconstruct_mult(af.bell_decompose_mult(af.make("phi", sieve100), sieve100), sieve100),
            af.additive_reconstruct(af.additive_decompose(af.make("nu", sieve100), sieve100), sieve100),
            fnio.parse_csv(fnio.dump_csv(half)),
        ]
        for fn in tables:
            assert isinstance(fn._v, np.ndarray) and len(fn._v) == fn.bound + 1
            assert fn._v.dtype in (np.int64, object, np.complex128)
            with pytest.raises(ValueError, match="read-only"):
                fn._v[1] = 0

    @pytest.mark.parametrize(
        "vals",
        [
            [1, 2**63 - 1, -(2**63)],
            [Fraction(4, 2), Fraction(-6, 3), 0],
            [1, 2**63],
            [-(2**63) - 1, 0],
            [1, Fraction(1, 2)],
            [2**64, Fraction(-5, 3)],
        ],
    )
    def test_int64_iff_every_value_fits(self, vals):
        assert _stores_canonically(af.ArithFn.from_values(vals), vals)

    def test_overflow_promotes_to_object_and_stays_exact(self):
        top = af.ArithFn.from_values([2**62, -(2**62), 3])
        flip = af.ArithFn.from_values([-(2**62), 2**62, 3])
        cases = [
            (top + top, [2**63, -(2**63), 6]),
            (top - flip, [2**63, -(2**63), 0]),
            (top + flip, [0, 0, 6]),  # the guard fails, the sums fit
            (flip - top, [-(2**63), 2**63, 0]),
            (af.ArithFn.from_values([-(2**62)]) - af.ArithFn.from_values([2**62]), [-(2**63)]),
            (-af.ArithFn.from_values([-(2**63), 5]), [2**63, -5]),
            (-af.ArithFn.from_values([-(2**63) + 1, 5]), [2**63 - 1, -5]),
            (af.ArithFn.from_values([2**30, -7]).scale(2**40), [2**70, -7 * 2**40]),
            (af.ArithFn.from_values([1, -7]).scale(2**40), [2**40, -7 * 2**40]),
            (af.ArithFn.zeros(2).scale(2**100), [0, 0]),
            (af.ArithFn.from_values([3, 3 * 2**70, 1]).scale(Fraction(1, 3)),
             [1, 2**70, Fraction(1, 3)]),
            (af.ArithFn.from_values([3, -6]).scale(Fraction(1, 3)), [1, -2]),
        ]
        for fn, want in cases:
            assert _stores_canonically(fn, want), (fn, want)

    def test_half_plus_half_stores_int64(self):
        h = af.ArithFn.from_values([Fraction(1, 2)] * 3)
        assert _stores_canonically(h + h, [1, 1, 1])
        assert _stores_canonically((h + h) * af.ArithFn.ones(3), [1, 2, 2])

    def test_values_leave_as_python_scalars(self, sieve100):
        for backend in (af.RATIONAL, af.COMPLEX):
            allowed = (complex,) if backend is af.COMPLEX else (int, Fraction)
            phi = af.make("phi", sieve100, backend)
            tables = [phi, phi.scale(Fraction(1, 2)), phi.scale(2**70), phi * phi.inv()]
            for fn in tables:
                vals = [fn[n] for n in range(1, fn.bound + 1)] + list(fn.values())
                vals += [v for _, v in fn.items()]
                assert all(type(v) in allowed for v in vals)
            dec = af.bell_decompose_mult(phi, sieve100)
            assert all(type(c) in allowed for s in dec.series for c in s.coeffs)
            for check, name in ((af.is_completely_multiplicative, "N"),
                                (af.is_completely_additive, "Omega")):
                res = check(af.make(name, sieve100, backend), sieve100)
                assert res.ok and all(type(v) in allowed for v in res.constants.values())
            g = af.additive_decompose(af.make("nu", sieve100, backend).scale(2**70), sieve100)
            assert len(g) and all(type(v) in allowed for _, v in g.items())

    def test_kernel_results_store_canonically(self):
        rng = random.Random(90)
        n = 400
        a, b = rand_exact_fn(rng, n, unit=1), rand_exact_fn(rng, n, unit=1)
        x = rand_exact_fn(rng, n, unit=0)
        big = af.ArithFn.from_values([1] + [2**70 if k % 7 else Fraction(k, 3) for k in range(2, n + 1)])
        kept = recip_fn(n, 1)
        wide = kept.truncate(100)  # den = lcm(1..100) > 2**63
        tables = [
            wide + a.truncate(100), a.truncate(100) - wide, af.ArithFn.zeros(100) + wide,
            a * b, a + b, a - b, -a, a.scale(Fraction(3, 4)), a.scale(6), a.truncate(100),
            a.inv(), af.dlog(a), af.dexp(x), af.psi(a), af.psi_inv(x), a - a, (a + a).scale(Fraction(1, 2)),
            big, big * a, big + a, big.scale(Fraction(1, 3)),
            kept, kept * a, kept + a, kept.truncate(358), kept.truncate(359), af.dlog(kept),
        ]
        for fn in tables:
            vals = fn.values()
            assert _stores_canonically(fn, vals), fn
            assert fn.den == 1 or math.gcd(fn.den, *fn._v.tolist()) == 1
            same = af.ArithFn.from_values(vals)
            assert same == fn and hash(same) == hash(fn)
        assert kept.truncate(358).den == math.lcm(*range(1, 359)) and kept.truncate(359).den == 1
        assert repr(a.truncate(3).scale(Fraction(1, 2))) == (
            f"ArithFn(bound=3, backend=rational, [{', '.join(str(Fraction(v) / 2) for v in a.values()[:3])}])"
        )

    def test_truncate_restores_int64(self):
        fn = af.ArithFn.from_values([1, 2, 2**70, Fraction(1, 3)])
        assert fn._v.dtype == object
        cut = fn.truncate(2)
        assert _stores_canonically(cut, [1, 2])
        same = af.ArithFn.from_values([1, 2])
        assert cut == same and hash(cut) == hash(same)

    def test_equal_tables_hash_alike(self):
        n = 30
        u, uc = af.ArithFn.ones(n), af.ArithFn.ones(n, af.COMPLEX)
        third = u.scale(Fraction(1, 3))
        big = af.ArithFn.from_values([2**70] + [1] * (n - 1))
        by_kernel = [
            (u * u.inv(), af.ArithFn.identity(n)),
            (third * u, None),
            (big * af.ArithFn.identity(n), big),
            (uc.deriv() * uc, None),
            (-af.ArithFn.zeros(n, af.COMPLEX), af.ArithFn.zeros(n, af.COMPLEX)),  # -0.0 == 0.0
        ]
        for fn, other in by_kernel:
            same = [fn, af.ArithFn.from_values(fn.values(), fn.backend)]
            same.append(fnio.from_json_obj(json.loads(fnio.dump_json(fn))))
            same.append(fnio.parse_csv(fnio.dump_csv(fn), fn.backend))
            if other is not None:
                same.append(other)
            for x in same:
                assert x == fn and hash(x) == hash(fn)

    @pytest.mark.parametrize("n", (1, 2, 17, 1000))
    def test_complex_pointwise_matches_scalar_loops_bitwise(self, n):
        rng = np.random.default_rng(n)
        va, vb = _rand_values_complex(rng, n), _rand_values_complex(rng, n)
        a = af.ArithFn.from_values(va, af.COMPLEX)
        b = af.ArithFn.from_values(vb, af.COMPLEX)
        pa, pb = [0j] + va, [0j] + vb

        def same(fn, want):
            return np.array_equal(fn._v.view(np.uint64), want.view(np.uint64))

        assert same(a + b, pointwise_loop(operator.add, pa, pb))
        assert same(a - b, pointwise_loop(operator.sub, pa, pb))
        assert same(-a, pointwise_loop(operator.neg, pa))
        for r in (0.3 - 1.7j, -1.0, complex(-0.0, 1.0), 2, Fraction(1, 3)):
            w = complex(r)
            assert same(a.scale(r), pointwise_loop(lambda x: w * x, pa))
        assert same(a.deriv(), deriv_loop_complex(pa))
        af.ArithFn.ones(n + 50, af.COMPLEX).deriv()  # reads a log table of another bound
        assert same(a.deriv(), deriv_loop_complex(pa))
        exact = [2**53 + 1, -(2**60) - 1, -(2**63), 2**70 + 1, Fraction(1, 3),
                 Fraction(-(10**30) - 1, 7), 0, 5][: n]
        ve = [0] + exact + [rng.integers(-9, 9).item() for _ in range(n - len(exact))]
        wide = af.ArithFn.from_values(ve[1:]).to_backend(af.COMPLEX)
        assert same(wide, pointwise_loop(complex, ve))
        assert same(af.ArithFn.from_values(ve[1:]).truncate(1).to_backend(af.COMPLEX),
                    pointwise_loop(complex, ve[:2]))


class TestNonFinite:
    def test_convolution_overflow_raises(self):
        a = af.ArithFn.from_values([1e200, 1e200], af.COMPLEX)
        with pytest.raises(NonFiniteError):
            a * a

    def test_inverse_overflow_raises(self):
        # a(1) just above DEFAULT_EPS: -a(2) / a(1)**2 = -1e320
        a = af.ArithFn.from_values([1e-10, 1e300], af.COMPLEX)
        with pytest.raises(NonFiniteError):
            a.inv()

    def test_pointwise_overflow_raises(self):
        big = af.ArithFn.from_values([1.0, 1e308, 1.7e308], af.COMPLEX)
        ops = (lambda: big + big, lambda: big - (-big), lambda: big.scale(10),
               lambda: 1j * big * 2, lambda: big.deriv())
        for op in ops:
            with pytest.raises(NonFiniteError):
                op()

    def test_from_values_overflow_raises(self):
        for huge in (10**400, Fraction(10**400, 3), -(10**400)):
            with pytest.raises(NonFiniteError):
                af.ArithFn.from_values([1, huge], af.COMPLEX)

    def test_widening_overflow_raises(self):
        for huge in (10**400, Fraction(10**400, 3)):
            with pytest.raises(NonFiniteError):
                af.ArithFn.from_values([1, huge]).to_backend(af.COMPLEX)
