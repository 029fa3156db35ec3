"""Predicates, Bell decompositions, prime supports, series helpers."""

import math
import operator
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import arithfn as af
from arithfn import dirichlet
from arithfn import sieve as sieve_module
from arithfn import structure
from arithfn.errors import NonFiniteError, StructureError, UnsupportedBackendError
from conftest import (
    additive_decompose_oracle,
    additive_reconstruct_oracle,
    bell_decompose_oracle,
    bell_reconstruct_oracle,
    factorize_brute,
    is_prime_power_brute,
    mobius_loop_oracle,
    predicate_oracle,
    primes_brute,
    rand_additive,
    rand_exact_fn,
    rand_multiplicative,
)


class TestPredicates:
    def test_totient_is_multiplicative(self, sieve1000):
        assert af.is_multiplicative(af.make("phi", sieve1000)).ok

    def test_nu_is_not_with_witness(self, sieve1000):
        res = af.is_multiplicative(af.make("nu", sieve1000))
        assert not res.ok and res.witness == (2, 3)

    def test_identity_is_multiplicative(self):
        assert af.is_multiplicative(af.ArithFn.identity(100)).ok

    def test_liouville_completely_multiplicative(self, sieve1000):
        res = af.is_completely_multiplicative(af.make("liouville", sieve1000), sieve1000)
        assert res.ok and all(c == -1 for c in res.constants.values())

    def test_n_function_completely_multiplicative(self, sieve1000):
        res = af.is_completely_multiplicative(af.make("N", sieve1000), sieve1000)
        assert res.ok and all(res.constants[p] == p for p in sieve1000.primes)

    def test_totient_not_completely(self, sieve1000):
        res = af.is_completely_multiplicative(af.make("phi", sieve1000), sieve1000)
        assert not res.ok and res.witness == (2, 2) and res.witness_kind == "prime_power"

    def test_additive_examples(self, sieve1000):
        assert af.is_additive(af.make("nu", sieve1000)).ok
        assert af.is_additive(af.make("Omega", sieve1000)).ok
        res = af.is_additive(af.make("phi", sieve1000))
        assert not res.ok and res.witness == (2, 3)

    def test_completely_additive_examples(self, sieve1000):
        res = af.is_completely_additive(af.make("Omega", sieve1000), sieve1000)
        assert res.ok and all(c == 1 for c in res.constants.values())
        res = af.is_completely_additive(af.make("nu", sieve1000), sieve1000)
        assert not res.ok and res.witness == (2, 2)
        res = af.is_completely_additive(af.ArithFn.zeros(100), sieve1000)
        assert res.ok and all(c == 0 for c in res.constants.values())

    def test_wrong_unit_value_witness(self):
        two_u = af.ArithFn.ones(50).scale(2)
        res = af.is_multiplicative(two_u)
        assert not res.ok and res.witness == (2, 3)  # 2 != 2*2
        shifted = af.ArithFn.from_values([1] + [0] * 49)
        res = af.is_additive(shifted)
        assert not res.ok and res.witness == (1, 1)  # sums all vanish; a(1) wrong

    def test_float_predicates_use_tolerance(self, sieve1000):
        phi = af.make("phi", sieve1000, af.COMPLEX, bound=200)
        # 1e-11 lies under the default tol 1e-9 but above the rounding
        # allowance 8 eps (|lhs| + |rhs|) = 2.8e-13 at phi(200) = 80
        noisy = phi + af.ArithFn.from_values([0.0] * 199 + [1e-11], af.COMPLEX)
        assert af.is_multiplicative(noisy).ok
        assert not af.is_multiplicative(noisy, tol=1e-15).ok


    def test_complex_prime_power_overflow_is_non_finite(self):
        # the pair scan passes at N = 4; a(2)**2 and 2 a(2) leave the floats
        sieve = af.build_sieve(4)
        big = af.ArithFn.from_values([1, 1e200, 1, 1e200], af.COMPLEX)
        with pytest.raises(NonFiniteError):
            af.is_completely_multiplicative(big, sieve)
        big = af.ArithFn.from_values([0, 1e308, 0, 1e308], af.COMPLEX)
        with pytest.raises(NonFiniteError):
            af.is_completely_additive(big, sieve)


class TestMobiusAdditivityTest:
    def test_on_counting_functions(self, sieve1000):
        nu = af.make("nu", sieve1000)
        om = af.make("Omega", sieve1000)
        assert af.mobius_additivity_test(nu, sieve1000).ok
        assert af.mobius_additivity_test(om, sieve1000).ok

    def test_surviving_values(self, sieve1000):
        # mu * nu keeps 1 at each prime and nothing else;
        # mu * Omega keeps 1 at every prime power
        n = 500
        mu = af.ArithFn.ones(n).inv()
        g_nu = mu * af.make("nu", sieve1000, bound=n)
        g_om = mu * af.make("Omega", sieve1000, bound=n)
        for k in range(1, n + 1):
            fac = factorize_brute(k)
            assert g_nu[k] == (1 if fac and fac[0][1] == 1 and len(fac) == 1 else 0)
            assert g_om[k] == (1 if is_prime_power_brute(k) else 0)

    def test_u_fails_at_one(self, sieve1000):
        res = af.mobius_additivity_test(af.make("u", sieve1000), sieve1000)
        assert not res.ok and res.witness == 1 and res.witness_kind == "index"

    def test_agrees_with_pair_scan(self, sieve1000):
        rng = random.Random(40)
        n = 256
        for _ in range(20):
            a = rand_additive(rng, sieve1000, n)
            assert af.mobius_additivity_test(a, sieve1000).ok == af.is_additive(a).ok == True  # noqa: E712
        for _ in range(20):
            a = rand_exact_fn(rng, n)
            assert af.mobius_additivity_test(a, sieve1000).ok == af.is_additive(a).ok


class TestMobiusByTheLaw:
    """The exact Mobius test reads the sum law's least failure; verdicts and
    witnesses against a loop convolution with mu (tests/conftest.py)."""

    @staticmethod
    def _tables(sieve, n, rng):
        """Every exact catalogue table, sums of nu and Omega (over den > 1
        too), tables near and past the int64 guard, each also with +1 or
        1/3 planted at a random k >= 2 and with a(1) = 1."""
        names = [name for name in af.catalogue.NAMES if name != "mangoldt"]
        nu, omega = af.make("nu", sieve, bound=n), af.make("Omega", sieve, bound=n)
        tables = [af.make(name, sieve, c=1 if name == "sigma" else None, bound=n) for name in names]
        tables += [
            nu + omega,
            nu - omega.scale(2),
            nu * omega,  # not additive: fails at 6
            nu.scale(Fraction(1, 3)) + omega.scale(Fraction(1, 2)),
            rand_additive(rng, sieve, n),
            nu.scale(2**59),  # int64 under the guard
            nu.scale(2**60),  # int64 past it from nu = 4: the law runs on object
            omega.scale(2**61),  # object storage
            omega.scale(2**62 - 1) - nu.scale(2**62),  # object, values near +-2**62
        ]
        planted = []
        for a in tables:
            if n >= 2:
                planted.append(_plant(a, rng.randint(2, n), rng.choice((1, Fraction(1, 3)))))
            planted.append(_plant(a, 1, 1))
        return tables + planted

    @pytest.mark.parametrize("step", (None, 8))
    @pytest.mark.parametrize("n", (1, 2, 1023, 1024, 1025, 4099))
    def test_matches_a_loop_convolution(self, monkeypatch, n, step):
        if step:  # the least failure falls in a later step of the law
            monkeypatch.setattr(sieve_module, "STEP", step)
        sieve = af.build_sieve(n)
        for a in self._tables(sieve, n, random.Random(n)):
            res = af.mobius_additivity_test(a, sieve)
            ok, witness = mobius_loop_oracle(a)
            assert (res.ok, res.witness) == (ok, witness), (a[1], a[2], a.den)
            assert res.witness_kind == (None if ok else "index")

    def test_only_complex_tables_convolve(self, monkeypatch, sieve1000):
        calls = []

        def spy(name, f):
            return lambda *args, **kwargs: calls.append(name) or f(*args, **kwargs)

        monkeypatch.setattr(dirichlet, "_conv", spy("conv", dirichlet._conv))
        monkeypatch.setattr(structure, "_prime_power_fold", spy("fold", structure._prime_power_fold))
        nu = af.make("nu", sieve1000)
        for a in (nu, _plant(nu, 30, 1), _plant(nu, 1, 1)):
            af.mobius_additivity_test(a, sieve1000)
        assert calls == []
        for a in (nu, _plant(nu, 30, 1), _plant(nu, 1, 1)):
            calls.clear()
            af.mobius_additivity_test(a.to_backend(af.COMPLEX), sieve1000)
            assert calls == ["fold", "conv"]


class TestBellDecomposition:
    def test_u_series_all_ones(self, sieve100):
        dec = af.bell_decompose_mult(af.make("u", sieve100), sieve100)
        for s in dec.series:
            assert all(c == 1 for c in s.coeffs)

    def test_mobius_series(self, sieve100):
        dec = af.bell_decompose_mult(af.make("mobius", sieve100), sieve100)
        for s in dec.series:
            want = (1, -1) + (0,) * (len(s.coeffs) - 2)
            assert s.coeffs == want

    def test_totient_series(self, sieve100):
        dec = af.bell_decompose_mult(af.make("phi", sieve100), sieve100)
        for s in dec.series:
            p = s.prime
            for k, c in enumerate(s.coeffs):
                assert c == (1 if k == 0 else p**k - p ** (k - 1))

    def test_series_lengths(self, sieve100):
        dec = af.bell_decompose_mult(af.make("u", sieve100), sieve100)
        assert dec.series_for(2).coeffs == (1,) * 7  # 2^6 = 64 <= 100 < 128
        assert len(dec.series_for(97).coeffs) == 2

    def test_rejects_non_multiplicative_with_witness(self, sieve100):
        with pytest.raises(StructureError) as exc:
            af.bell_decompose_mult(af.make("nu", sieve100), sieve100)
        assert exc.value.witness == (2, 3)

    def test_round_trip_on_divisor_sum(self, sieve1000):
        sigma1 = af.make("sigma", sieve1000, c=1)
        assert sigma1[6] == 12  # 1 + 2 + 3 + 6
        dec = af.bell_decompose_mult(sigma1, sieve1000)
        assert af.bell_reconstruct_mult(dec, sieve1000) == sigma1

    def test_reconstruct_examples(self, sieve100):
        ones = af.BellDecomposition(
            100,
            af.RATIONAL,
            [
                af.BellSeries(p, (1,) * (sieve100.prime_power_cap(p) + 1))
                for p in sieve100.primes
            ],
        )
        assert af.bell_reconstruct_mult(ones, sieve100) == af.make("u", sieve100)
        # series 1 + p x per prime: value at 6 is 2*3
        linear = af.BellDecomposition(
            100,
            af.RATIONAL,
            [
                af.BellSeries(p, (1, p) + (0,) * (sieve100.prime_power_cap(p) - 1))
                for p in sieve100.primes
            ],
        )
        assert af.bell_reconstruct_mult(linear, sieve100)[6] == 6

    def test_constant_term_violation_names_prime(self, sieve100):
        bad = af.BellDecomposition(
            100,
            af.RATIONAL,
            [
                af.BellSeries(p, (1 if p != 3 else 2,) + (0,) * sieve100.prime_power_cap(p))
                for p in sieve100.primes
            ],
        )
        with pytest.raises(StructureError, match="prime 3"):
            af.bell_reconstruct_mult(bad, sieve100)

    def test_short_series_names_prime(self, sieve100):
        # floor(log_2 8) + 1 = 4 coefficients are needed at p = 2, 2 at p = 3
        series = [af.BellSeries(p, (1, 1)) for p in (2, 3, 5, 7)]
        short = af.BellDecomposition(8, af.RATIONAL, series)
        with pytest.raises(StructureError, match="prime 2") as err:
            af.bell_reconstruct_mult(short, sieve100)
        assert err.value.witness == 2
        series[:2] = [af.BellSeries(2, (1, 1, 1, 1)), af.BellSeries(3, ())]
        empty = af.BellDecomposition(8, af.RATIONAL, series)
        with pytest.raises(StructureError, match="prime 3") as err:
            af.bell_reconstruct_mult(empty, sieve100)
        assert err.value.witness == 3
        # exactly long enough reconstructs
        series[1] = af.BellSeries(3, (1, 1))
        assert af.bell_reconstruct_mult(af.BellDecomposition(8, af.RATIONAL, series), sieve100) == (
            af.make("u", sieve100, bound=8)
        )

    def test_series_must_sit_at_the_primes(self, sieve100, sieve1000):
        # at N = 50, 4**3 and 53**2 exceed N, so only the prime check can
        # reject those series; each error names the prime as its witness
        u = af.bell_decompose_mult(af.make("u", sieve100, bound=50), sieve100).series
        cases = [
            (u + (af.BellSeries(4, (1, 5, 5)),), 4),
            (u + (af.BellSeries(53, (1, 1)),), 53),
            ((af.BellSeries(1, (1,)),) + u, 1),
            (tuple(s for s in u if s.prime not in (5, 7)), 5),
        ]
        for series, witness in cases:
            for sieve in (sieve100, sieve1000):
                with pytest.raises(StructureError, match=rf"\b{witness}\b") as err:
                    af.bell_reconstruct_mult(af.BellDecomposition(50, af.RATIONAL, series), sieve)
                assert err.value.witness == witness

    def test_a_repeated_prime_is_an_error(self, sieve100):
        # either copy first: a map per decomposition cannot keep both
        u = af.bell_decompose_mult(af.make("u", sieve100, bound=50), sieve100).series
        extra = (af.BellSeries(2, (1, 7, 7, 7, 7, 7)),)
        for series in (u + extra, extra + u):
            with pytest.raises(StructureError, match=r"\b2\b") as err:
                af.BellDecomposition(50, af.RATIONAL, series)
            assert err.value.witness == 2

    def test_series_order_does_not_count(self, sieve100):
        dec = af.bell_decompose_mult(af.make("phi", sieve100, bound=50), sieve100)
        backwards = af.BellDecomposition(50, af.RATIONAL, reversed(dec.series))
        assert backwards == dec
        assert backwards.series == dec.series[::-1]
        assert af.bell_reconstruct_mult(backwards, sieve100) == af.make("phi", sieve100, bound=50)

    def test_plain_pairs_build_the_same_decomposition(self, sieve100):
        dec = af.bell_decompose_mult(af.make("phi", sieve100, bound=50), sieve100)
        pairs = [(p, coeffs) for p, coeffs in dec.series]
        assert pairs == list(dec.series)
        plain = af.BellDecomposition(50, af.RATIONAL, pairs)
        assert plain == dec and plain.series == dec.series
        assert plain.series_for(7) == af.BellSeries(7, (1, 6, 42))
        assert repr(plain.series_for(7)) == "BellSeries(prime=7, coeffs=(1, 6, 42))"

    def test_inexact_coefficients_are_rejected(self, sieve100):
        # a float would truncate to int64 silently, so a(2) = 0.5 read as 0;
        # numpy would read the complex '3' as 3 and True as 1
        cases = [(af.RATIONAL, bad, name) for bad, name in
                 ((0.5, "float"), ("x", "str"), (True, "bool"))]
        cases += [(af.COMPLEX, bad, name) for bad, name in
                  (("3", "str"), (True, "bool"), ("x", "str"))]
        for backend, bad, name in cases:
            dec = af.BellDecomposition(
                10, backend, [(2, (1, bad, 1, 1)), (3, (1, 1, 1)), (5, (1, 1)), (7, (1, 1))]
            )
            with pytest.raises(UnsupportedBackendError,
                               match=f"{backend.name} backend cannot hold {name} value"):
                af.bell_reconstruct_mult(dec, sieve100)

    def test_primes_are_integers(self, sieve100):
        for bad in (2.0, "2", None):
            with pytest.raises(StructureError, match="is not an int") as err:
                af.BellDecomposition(10, af.RATIONAL, [(bad, (1, 1, 1, 1))])
            assert err.value.witness == bad
        dec = af.BellDecomposition(10, af.RATIONAL, [(np.int64(2), (1, 1, 1, 1))])
        assert type(dec.series[0].prime) is int
        assert dec.series[0].to_json_obj(af.RATIONAL)["prime"] == 2

    def test_each_pair_is_checked_as_it_is_read(self):
        # a bad prime is named before a later pair that does not unpack
        with pytest.raises(StructureError, match="prime 'x' is not an int"):
            af.BellDecomposition(10, af.RATIONAL, [("x", (1,)), (2, 1, 1)])
        with pytest.raises(StructureError, match="two series at prime 2"):
            af.BellDecomposition(10, af.RATIONAL, [(2, (1,)), (2, (1,)), (3,)])
        with pytest.raises(ValueError, match="unpack"):
            af.BellDecomposition(10, af.RATIONAL, [(2, (1,)), (3, 1, 1), ("x", (1,))])

    def test_random_series_reconstruct_multiplicative(self, sieve1000):
        rng = random.Random(41)
        for _ in range(10):
            m = rand_multiplicative(rng, sieve1000, 300)
            assert af.is_multiplicative(m).ok

    def test_product_law(self, sieve1000):
        # the per-prime series of a*b is the truncated product of the series
        rng = random.Random(42)
        n = 200
        a = rand_multiplicative(rng, sieve1000, n)
        b = rand_multiplicative(rng, sieve1000, n)
        da = af.bell_decompose_mult(a, sieve1000)
        db = af.bell_decompose_mult(b, sieve1000)
        dab = af.bell_decompose_mult(a * b, sieve1000)
        for p in sieve1000.primes:
            if p > n:
                break
            length = sieve1000.prime_power_cap(p, n) + 1
            prod = af.series_mul(da.series_for(p).coeffs, db.series_for(p).coeffs, length)
            assert tuple(prod) == dab.series_for(p).coeffs


class TestPrimeSupport:
    def test_nu_decomposition(self, sieve1000):
        g = af.additive_decompose(af.make("nu", sieve1000), sieve1000)
        for (p, k), v in g.items():
            assert k == 1 and v == 1
        assert g.get(2, 2) == 0

    def test_omega_decomposition(self, sieve1000):
        g = af.additive_decompose(af.make("Omega", sieve1000), sieve1000)
        for p in sieve1000.primes:
            for k in range(1, sieve1000.prime_power_cap(p) + 1):
                assert g.get(p, k) == 1

    def test_zero_function_empty(self, sieve100):
        g = af.additive_decompose(af.ArithFn.zeros(100), sieve100)
        assert len(g) == 0
        assert af.additive_reconstruct(g, sieve100) == af.ArithFn.zeros(100)

    def test_matches_mobius_convolution_on_prime_powers(self, sieve1000):
        rng = random.Random(43)
        n = 256
        a = rand_additive(rng, sieve1000, n)
        g = af.additive_decompose(a, sieve1000)
        mu_a = af.ArithFn.ones(n).inv() * a
        for p, k, pk in (
            (p, k, p**k)
            for p in sieve1000.primes
            if p <= n
            for k in range(1, sieve1000.prime_power_cap(p, n) + 1)
        ):
            assert g.get(p, k) == mu_a[pk]

    def test_rejects_non_additive(self, sieve100):
        with pytest.raises(StructureError) as exc:
            af.additive_decompose(af.make("phi", sieve100), sieve100)
        assert exc.value.witness == (2, 3)

    def test_reconstruct_examples(self, sieve100):
        everywhere = {}
        for p in sieve100.primes:
            for k in range(1, sieve100.prime_power_cap(p) + 1):
                everywhere[(p, k)] = 1
        g = af.PrimeSupport(100, af.RATIONAL, everywhere)
        assert af.additive_reconstruct(g, sieve100) == af.make("Omega", sieve100)
        first_only = af.PrimeSupport(100, af.RATIONAL, {(p, 1): 1 for p in sieve100.primes})
        assert af.additive_reconstruct(first_only, sieve100) == af.make("nu", sieve100)

    def test_round_trip(self, sieve1000):
        rng = random.Random(44)
        for _ in range(10):
            a = rand_additive(rng, sieve1000, 300)
            g = af.additive_decompose(a, sieve1000)
            assert af.additive_reconstruct(g, sieve1000) == a
            assert af.is_additive(a).ok

    def test_bad_keys_rejected(self, sieve100):
        with pytest.raises(StructureError):
            af.PrimeSupport(100, af.RATIONAL, {(2, 0): 1})
        with pytest.raises(StructureError):
            af.PrimeSupport(100, af.RATIONAL, {(2, 7): 1})  # 128 > 100
        g = af.PrimeSupport(100, af.RATIONAL, {(6, 1): 1})  # composite base
        with pytest.raises(StructureError, match="not prime"):
            af.additive_reconstruct(g, sieve100)

    def test_keys_are_integers(self):
        with pytest.raises(StructureError, match="not a pair of ints") as err:
            af.PrimeSupport(10, af.RATIONAL, {(2.0, 1): 1})
        assert err.value.witness == (2.0, 1)
        with pytest.raises(StructureError, match=r"2\.7"):
            af.PrimeSupport.from_json_obj([{"p": 2.7, "k": 1, "value": "1"}], 10, af.RATIONAL)
        g = af.PrimeSupport(10, af.RATIONAL, {(np.int64(3), np.int64(2)): 1, (2, 1): 1})
        assert g.items() == [((2, 1), 1), ((3, 2), 1)]
        assert all(type(x) is int for (p, k), _ in g.items() for x in (p, k))

    def test_a_large_exponent_forms_no_power(self):
        # 2**(10**8) alone would take 12.5 MB
        tracemalloc.start()
        try:
            with pytest.raises(StructureError, match=r"\(2, 100000000\)"):
                af.PrimeSupport.from_json_obj(
                    [{"p": 2, "k": 10**8, "value": "1"}], 100, af.RATIONAL
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_json_round_trip(self, sieve100):
        g = af.additive_decompose(af.make("nu", sieve100), sieve100)
        obj = g.to_json_obj()
        assert obj[0] == {"p": 2, "k": 1, "value": "1"}
        back = af.PrimeSupport.from_json_obj(obj, 100, af.RATIONAL)
        assert back == g

    def test_json_key_given_twice_is_an_error(self):
        # a dict of the rows would keep the last value silently
        rows = [{"p": 2, "k": 1, "value": "1"}, {"p": 2, "k": 1, "value": "5"}]
        with pytest.raises(StructureError, match=r"two entries at key \(2, 1\)") as err:
            af.PrimeSupport.from_json_obj(rows, 10, af.RATIONAL)
        assert err.value.witness == (2, 1)
        # each row's key is checked before it is compared with the others
        rows[1]["p"] = 2.0
        with pytest.raises(StructureError, match="not a pair of ints"):
            af.PrimeSupport.from_json_obj(rows, 10, af.RATIONAL)


class _Unreadable:
    """Stands in for a sieve's tables: any read fails the test."""

    def __getitem__(self, *args):
        raise AssertionError("the sieve was read")

    __iter__ = __len__ = __getitem__


def test_every_entry_point_rejects_a_smaller_sieve(sieve100):
    phi, nu = af.make("phi", sieve100, bound=20), af.make("nu", sieve100, bound=20)
    dec, g = af.bell_decompose_mult(phi, sieve100), af.additive_decompose(nu, sieve100)
    calls = [
        lambda s: af.is_completely_multiplicative(phi, s),
        lambda s: af.is_completely_multiplicative(nu, s),  # fails the pair scan
        lambda s: af.is_completely_additive(nu, s),
        lambda s: af.is_completely_additive(phi, s, 1e-9),  # not additive
        lambda s: af.mobius_additivity_test(nu, s),
        lambda s: af.bell_decompose_mult(phi, s),
        lambda s: af.bell_decompose_mult(nu, s),  # not multiplicative
        lambda s: af.bell_reconstruct_mult(dec, s),
        lambda s: af.additive_decompose(nu, s),
        lambda s: af.additive_decompose(phi, s),  # not additive
        lambda s: af.additive_reconstruct(g, s),
    ]
    for call in calls:
        for small in (af.build_sieve(19), af.SpfSieve(19, _Unreadable(), _Unreadable())):
            with pytest.raises(ValueError) as err:
                call(small)
            assert str(err.value) == "sieve bound 19 < required 20"
        try:  # the bound itself is enough; the three rejected inputs raise
            call(af.build_sieve(20))
        except StructureError as e:
            assert e.witness == (2, 3)


# Sizes covering tables with no coprime pair (N < 6), both sides of a
# square (15, 16, 17) and a table with large primes (1000).
STRUCTURE_SIZES = (1, 2, 3, 4, 15, 16, 17, 1000)

PREDICATES = {
    "multiplicative": lambda a, s, tol: af.is_multiplicative(a, tol),
    "additive": lambda a, s, tol: af.is_additive(a, tol),
    "completely-multiplicative": lambda a, s, tol: af.is_completely_multiplicative(a, s, tol),
    "completely-additive": lambda a, s, tol: af.is_completely_additive(a, s, tol),
    "additive-mobius": lambda a, s, tol: af.mobius_additivity_test(a, s, tol),
}

_EXACT_COEFFS = (-3, -2, -1, 0, 1, 2, 3)
_FRACTION_COEFFS = (Fraction(1, 2), Fraction(-2, 3), 2, -1, 0)


def _outcome(res: af.CheckResult) -> tuple:
    return res.ok, res.witness, res.witness_kind, res.constants


def _prime_powers_upto(n):
    return [(p, k) for p in primes_brute(n) for k in range(1, 64) if p**k <= n]


def _mult_dec(rng, n, backend, draw, complete=False):
    """Random Bell decomposition; ``complete`` makes every series geometric."""
    series = {}
    for p, k in _prime_powers_upto(n):
        coeffs = series.setdefault(p, [backend.one])
        coeffs.append(coeffs[1] ** k if complete and k > 1 else draw(rng))
    return af.BellDecomposition(
        n, backend, [af.BellSeries(p, tuple(c)) for p, c in series.items()]
    )


def _support(rng, n, backend, draw, complete=False, density=1.0):
    """Random prime-power table; ``complete`` repeats g(p, 1) at every k."""
    entries = {}
    for p, k in _prime_powers_upto(n):
        entries[(p, k)] = entries[(p, 1)] if complete and k > 1 else (
            draw(rng) if rng.random() < density else 0
        )
    return af.PrimeSupport(n, backend, entries)


def _draws():
    """(backend, coefficient draw) per storage: int64, object, complex128."""
    return [
        (af.RATIONAL, lambda r: r.choice(_EXACT_COEFFS)),
        (af.RATIONAL, lambda r: r.choice(_FRACTION_COEFFS)),
        (af.COMPLEX, lambda r: complex(r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5))),
    ]


def _structured_tables(rng, n):
    """Multiplicative, completely multiplicative, additive and completely
    additive tables in every storage, built by the scalar loops."""
    tables = []
    for backend, draw in _draws():
        for complete in (False, True):
            dec = _mult_dec(rng, n, backend, draw, complete)
            tables.append(af.ArithFn.from_values(bell_reconstruct_oracle(dec)[1:], backend))
            g = _support(rng, n, backend, draw, complete)
            tables.append(af.ArithFn.from_values(additive_reconstruct_oracle(g)[1:], backend))
    # one entry one past the int64 product guard max|a|**2 < 2**62
    big = list(tables[0].values())
    big[-1] = 2**31
    tables.append(af.ArithFn.from_values(big))
    return tables


def _perturbed(rng, a):
    """Copies of a with one entry changed: at a random index, and at a
    prime power p**k, k >= 2, which most pairs never read."""
    n = a.bound
    spots = [rng.randint(1, n), rng.randint(1, n)]
    higher = [p**k for p, k in _prime_powers_upto(n) if k > 1]
    if higher:
        spots.append(rng.choice(higher))
    out = []
    for i in spots:
        vals = list(a.values())
        if a.backend is af.COMPLEX:
            # steps far above, near and under the default tolerance 1e-9
            vals[i - 1] += rng.choice((1.0, 1.2e-9, 8e-10, 1e-12)) * complex(
                rng.choice((1, -1)), rng.choice((0, 1))
            )
        else:
            vals[i - 1] += rng.choice((1, Fraction(1, 3)))
        out.append(af.ArithFn.from_values(vals, a.backend))
    return out


def _bits(vals) -> np.ndarray:
    return np.array(vals, dtype=np.complex128).view(np.uint64)


def _signed_zero_draw(rng):
    """Complex values with signed-zero parts, whose sums and products
    depend on the operand order."""
    return complex(rng.choice((0.0, -0.0, 0.75, -1.25)), rng.choice((0.0, -0.0, 1.5, -0.5)))


def _descending_fold(dec_or_support) -> list:
    """A reconstruction that folds from the largest prime down: what a
    smallest-prime-factor recurrence f(k) = f(k / p^a) x c_p[a] forms."""
    backend, n = dec_or_support.backend, dec_or_support.bound
    out = [backend.zero] * (n + 1)
    for k in range(1, n + 1):
        if isinstance(dec_or_support, af.BellDecomposition):
            acc = backend.one
            for p, a in reversed(factorize_brute(k)):
                acc = acc * dec_or_support.series_for(p).coeffs[a]
        else:
            acc = backend.zero
            for p, a in reversed(factorize_brute(k)):
                for j in range(1, a + 1):
                    acc = acc + dec_or_support.get(p, j)
        out[k] = acc
    return out


def _fold_dec(n, backend, coeffs):
    """Bell decomposition at n with c_p[k] = coeffs.get((p, k), 1)."""
    series = {}
    for p, k in _prime_powers_upto(n):
        series.setdefault(p, [backend.one]).append(coeffs.get((p, k), 1))
    return af.BellDecomposition(n, backend, [af.BellSeries(p, tuple(c)) for p, c in series.items()])


def _numerators(vals) -> tuple[list, int]:
    """vals over the lcm L of their denominators: (the numerators, L)."""
    den = math.lcm(*(Fraction(v).denominator for v in vals))
    return [int(v * den) for v in vals], den


def _fits(vals) -> bool:
    return all(-(2**63) <= x < 2**63 for x in _numerators(vals)[0])


# 2**63 - 1 = 7**2 * 73 * 127 * 337 * 92737 * 649657
_UNDER_A, _UNDER_B = 7**2 * 73 * 127 * 337, 92737 * 649657

# (c_p[k] or g(p, k) entries, values of the fold at 6) at the int64 edge
GUARD_PRODUCTS = [
    ({(2, 1): 2**61, (3, 1): 4}, 2**63),
    ({(2, 1): -(2**61), (3, 1): 4}, -(2**63)),
    ({(2, 1): _UNDER_A, (3, 1): _UNDER_B}, 2**63 - 1),
    ({(2, 1): _UNDER_A, (3, 1): _UNDER_B + 1}, 2**63 - 1 + _UNDER_A),
    ({(2, 1): 2**63 - 1, (3, 1): -1}, -(2**63) + 1),
    ({(2, 1): Fraction(1, 3), (3, 1): 3}, 1),
    ({(2, 1): 2**64, (3, 1): 0}, 0),
]
GUARD_SUMS = [
    ({(2, 1): 2**62, (3, 1): 2**62}, 2**63),
    ({(2, 1): -(2**62), (3, 1): -(2**62)}, -(2**63)),
    ({(2, 1): 2**62, (3, 1): 2**62 - 1}, 2**63 - 1),
    ({(2, 1): 2**63 - 1, (3, 1): -1}, 2**63 - 2),
    ({(2, 1): Fraction(1, 3), (3, 1): Fraction(2, 3)}, 1),
    ({(2, 1): 2**64, (3, 1): -(2**64)}, 0),
    ({(2, 1): 2**62, (2, 2): 2**62, (3, 1): 1}, 2**62 + 1),  # A(4) = 2**63
]


def _fold_guard_steps(n, at, f, product):
    """The fold's int64 rule at bound n, run on the scalar loop's
    numerators f (f[k] at k = 0..n) and the numerators at[q] at the prime
    powers q (0 elsewhere), in the steps of ``sieve._steps(n)``: the index
    of the first step whose max|left| x max|right| (a sum: +) reaches
    2**63, else None, and the steps up to it whose bound top x peak
    reaches it (top = max|f| over 1..lo - 1, peak = max|right| over every
    prime power).  left is f(r(k)), r(k) = k / P(k)^v with P(k)^v the
    power of the largest prime of k, and right at[P(k)^v] (a sum: the
    cumulative at[P] + ... + at[P^v]), by trial division."""
    combine = operator.mul if product else operator.add
    if not product:
        at = {q: sum(at[p**j] for j in range(1, v + 1))
              for q in at for p, v in factorize_brute(q)}
    peak = max(map(abs, at.values()))
    loose = []
    for i, (lo, hi) in enumerate(sieve_module._steps(n)):
        lefts, rights = [], []
        for k in range(lo, hi):
            p, v = factorize_brute(k)[-1]
            lefts.append(f[k // p**v])
            rights.append(at.get(p**v, 0))
        if combine(max(map(abs, f[1:lo])), peak) >= 2**63:
            loose.append(i)
        if combine(max(map(abs, lefts)), max(map(abs, rights))) >= 2**63:
            return i, loose
    return None, loose


def _law_oracle(a, product) -> int | None:
    """The least k = 2..N with a(k) != a(r(k)) a(k / r(k)) (or +), else
    None, by trial division."""
    vals = (None,) + a.values()
    combine = operator.mul if product else operator.add
    for k in range(2, a.bound + 1):
        p, v = factorize_brute(k)[-1]
        if vals[k] != combine(vals[k // p**v], vals[p**v]):
            return k
    return None


class TestAgainstScalarLoops:
    """The vector scans and reconstructions against the per-pair and
    per-index loops they replaced (tests/conftest.py)."""

    @pytest.mark.parametrize("n", STRUCTURE_SIZES)
    def test_predicates_match_scalar_loops(self, n):
        rng = random.Random(n)
        sieve = af.build_sieve(n)
        for base in _structured_tables(rng, n):
            for a in [base] + _perturbed(rng, base):
                tols = (None, 1e-6) if a.backend is af.COMPLEX else (None,)
                for kind, predicate in PREDICATES.items():
                    for tol in tols:
                        got = _outcome(predicate(a, sieve, tol))
                        assert got == predicate_oracle(a, kind, tol), (kind, tol, a)

    def test_catalogue_predicates_match_scalar_loops(self, sieve1000):
        for name in ("u", "mobius", "phi", "liouville", "d", "N", "nu", "Omega"):
            for backend in (af.RATIONAL, af.COMPLEX):
                a = af.make(name, sieve1000, backend)
                for kind, predicate in PREDICATES.items():
                    got = _outcome(predicate(a, sieve1000, None))
                    assert got == predicate_oracle(a, kind), (name, backend, kind)

    # also both sides of the dyadic block edges of the fold, and 4099
    @pytest.mark.parametrize("n", STRUCTURE_SIZES + (1023, 1024, 1025, 4099))
    def test_reconstructions_match_scalar_loops(self, n):
        rng = random.Random(100 + n)
        sieve = af.build_sieve(n)
        for backend, draw in _draws() + [(af.COMPLEX, _signed_zero_draw)]:
            for complete in (False, True):
                dec = _mult_dec(rng, n, backend, draw, complete)
                got = af.bell_reconstruct_mult(dec, sieve)
                want = bell_reconstruct_oracle(dec)
                g = _support(rng, n, backend, draw, complete, density=0.6)
                got_add = af.additive_reconstruct(g, sieve)
                want_add = additive_reconstruct_oracle(g)
                if backend is af.COMPLEX:
                    assert np.array_equal(_bits(got._v), _bits(want))
                    assert np.array_equal(_bits(got_add._v), _bits(want_add))
                else:
                    assert list(got.values()) == want[1:] and list(got_add.values()) == want_add[1:]
                assert af.bell_decompose_mult(got, sieve).series == tuple(
                    af.BellSeries(p, c) for p, c in bell_decompose_oracle(got)
                )
                assert af.additive_decompose(got_add, sieve) == af.PrimeSupport(
                    n, backend, additive_decompose_oracle(got_add)
                )

    @pytest.mark.parametrize("n", (1025, 4099))
    def test_folds_in_small_steps_match_scalar_loops(self, n, monkeypatch):
        monkeypatch.setattr(sieve_module, "STEP", 8)  # many fold steps per dyadic block
        self.test_reconstructions_match_scalar_loops(n)
        self.test_fold_int64_guard_edges(n)
        self.test_fold_guard_reads_step_maxima_past_its_bound(n, monkeypatch)

    @pytest.mark.parametrize("n", (1025, 4099))
    def test_fold_guard_reads_step_maxima_past_its_bound(self, n, monkeypatch):
        """Where the fold's bound top x peak (or top + peak) reaches 2**63,
        each step's own maxima decide: big values at a prime mid <= n / 2
        and at the largest prime (no multiple of it folds) fail the bound
        but not the step maxima, so int64 stays; 2**29 at 2 and 2**35 at
        mid leave int64 at a late step; the sums run over den = 3, with
        g(2, 2) = -g(2, 1), so that A(4) = A(8) = ... = 0 and no early step
        pairs A(2^k) with f(2 m).  A sum decides on A itself, not on a bound
        of it: A(4) = 2**62 + 2**62 leaves int64 though no increment does,
        and 2**62 - 2**62 keeps it.  The table keeps int64 storage whenever
        its values fit, so the dtype the fold hands to ``_store`` is read
        off a spy."""
        folded, store = [], dirichlet._store

        def spy(padded, backend, den=1):
            folded.append(padded.dtype)
            return store(padded, backend, den)

        monkeypatch.setattr(dirichlet, "_store", spy)
        sieve = af.build_sieve(n)
        mid, big = max(primes_brute(n // 2)), max(primes_brute(n))
        cases = [  # (product, entries, leaves int64)
            (True, {(2, 1): 3, (3, 1): 5, (mid, 1): -(2**35), (big, 1): 2**35}, False),
            (True, {(2, 1): 2**29, (3, 1): 5, (mid, 1): 2**35, (big, 1): 3}, True),
            (False, {(2, 1): Fraction(1, 3), (3, 1): Fraction(2, 3),
                     (mid, 1): Fraction(2**62, 3), (big, 1): Fraction(-(2**62), 3)}, False),
            (False, {(2, 1): Fraction(2**62, 3), (2, 2): Fraction(-(2**62), 3),
                     (3, 1): Fraction(1, 3), (mid, 1): Fraction(2**62, 3)}, True),
            (False, {(2, 1): 2**62, (2, 2): 2**62, (3, 1): 1}, True),
            (False, {(2, 1): 2**62, (2, 2): -(2**62), (3, 1): 1}, False),
        ]
        steps = len(list(sieve_module._steps(n)))
        for product, entries, leaves in cases:
            if product:
                src, fold = _fold_dec(n, af.RATIONAL, entries), af.bell_reconstruct_mult
                want = bell_reconstruct_oracle(src)
            else:
                src, fold = af.PrimeSupport(n, af.RATIONAL, entries), af.additive_reconstruct
                want = additive_reconstruct_oracle(src)
            nums, den = _numerators(want[1:])
            at = {p**k: entries.get((p, k), int(product)) * den for p, k in _prime_powers_upto(n)}
            first, loose = _fold_guard_steps(n, at, [0] + nums, product)
            assert (first is not None) == leaves, entries
            assert loose and loose[0] < (steps if first is None else first), entries
            folded.clear()
            got = fold(src, sieve)
            assert folded[-1] == (object if leaves else np.int64), entries
            assert got.values() == tuple(want[1:]), entries
            assert (got._v.dtype == np.int64) == (not leaves), entries
            assert (got._v[1:].tolist(), got.den) == (nums, den), entries

    def test_smallest_prime_order_fails_bit_test(self):
        # the bit comparison above can tell the fold's association order
        n = 1000
        rng = random.Random(7)
        sieve = af.build_sieve(n)
        draw = _draws()[2][1]
        dec = _mult_dec(rng, n, af.COMPLEX, draw)
        g = _support(rng, n, af.COMPLEX, draw, density=0.6)
        for got, src, oracle in (
            (af.bell_reconstruct_mult(dec, sieve), dec, bell_reconstruct_oracle),
            (af.additive_reconstruct(g, sieve), g, additive_reconstruct_oracle),
        ):
            want = _bits(oracle(src))
            assert np.array_equal(_bits(got._v), want)
            assert not np.array_equal(_bits(_descending_fold(src)), want)

    @pytest.mark.parametrize("n", (6, 16, 1025))
    def test_fold_int64_guard_edges(self, n):
        sieve = af.build_sieve(n)
        cases = [(_fold_dec(n, af.RATIONAL, c), at6, af.bell_reconstruct_mult,
                  bell_reconstruct_oracle) for c, at6 in GUARD_PRODUCTS]
        cases += [(af.PrimeSupport(n, af.RATIONAL, c), at6, af.additive_reconstruct,
                   additive_reconstruct_oracle) for c, at6 in GUARD_SUMS]
        for src, at6, fold, oracle in cases:
            got = fold(src, sieve)
            want = oracle(src)
            assert want[6] == at6
            assert got.values() == tuple(want[1:]), src
            assert (got._v.dtype == np.int64) == _fits(want[1:]), src
            assert (got._v[1:].tolist(), got.den) == _numerators(want[1:]), src

    def test_reconstructed_values_are_canonical(self, sieve100):
        # 1/2 * 2 at n = 6 and 1/2 + 1/2 at n = 6: Fraction(1, 1) must be 1
        dec = af.BellDecomposition(
            100,
            af.RATIONAL,
            [
                af.BellSeries(p, (1, Fraction(1, 2) if p == 2 else 2 if p == 3 else 1)
                              + (1,) * (sieve100.prime_power_cap(p) - 1))
                for p in sieve100.primes
            ],
        )
        g = af.PrimeSupport(100, af.RATIONAL, {(2, 1): Fraction(1, 2), (3, 1): Fraction(1, 2)})
        for fn in (af.bell_reconstruct_mult(dec, sieve100), af.additive_reconstruct(g, sieve100)):
            assert fn[6] == 1 and type(fn[6]) is int
            assert all(type(v) is int or v.denominator != 1 for v in fn.values())

    def test_errors_match_approx_eq(self, sieve100):
        phi = af.make("phi", sieve100, af.COMPLEX)
        for tol in (0, -1.0):
            for kind, predicate in PREDICATES.items():
                with pytest.raises(ValueError):
                    predicate(phi, sieve100, tol)
                with pytest.raises(ValueError):
                    predicate_oracle(phi, kind, tol)
        # exact tables ignore the tolerance
        assert af.is_multiplicative(af.make("phi", sieve100), tol=-1.0).ok
        # a(2) a(3) overflows to inf: the comparison at (2, 3) raises
        huge = af.ArithFn.from_values([1, 1e200, 1e200] + [1.0] * 97, af.COMPLEX)
        with pytest.raises(NonFiniteError):
            af.is_multiplicative(huge)
        with pytest.raises(NonFiniteError):
            predicate_oracle(huge, "multiplicative")
        # ... unless an earlier pair already fails
        vals = list(phi.values())
        vals[2] = vals[4] = 1e200  # a(3), a(5): (3, 5) overflows, (2, 3) fails first
        early = af.ArithFn.from_values(vals, af.COMPLEX)
        assert _outcome(af.is_multiplicative(early)) == predicate_oracle(early, "multiplicative")
        assert af.is_multiplicative(early).witness == (2, 3)


def _plant(a, n, delta):
    """a with delta added at index n."""
    vals = list(a.values())
    vals[n - 1] += delta
    return af.ArithFn.from_values(vals, a.backend)


def _chunk_pairs(n):
    """The chunks of the pair scan at bound n as lists of (m, k)."""
    return [list(zip(np.repeat(ms, counts).tolist(), k.tolist()))
            for ms, counts, k in structure._coprime_pairs(af.build_sieve(n), n)]


class TestChunkedPairScan:
    """The pair scan reads the sieve's index of its bound in chunks of at most
    sieve.STEP pairs; verdicts and witnesses match the per-pair loop."""

    # (sieve.STEP, bound): many small chunks, and a few of the real size
    CHUNKINGS = ((64, 1000), (sieve_module.STEP, 12000))

    @pytest.mark.parametrize("chunk, n", CHUNKINGS + ((8, 17), (64, 5)))
    def test_chunks_list_the_coprime_pairs_in_order(self, monkeypatch, chunk, n):
        monkeypatch.setattr(sieve_module, "STEP", chunk)
        chunks = _chunk_pairs(n)
        assert all(0 < len(c) <= chunk for c in chunks)
        want = [(m, k) for m in range(2, math.isqrt(n) + 1)
                for k in range(m + 1, n // m + 1) if math.gcd(m, k) == 1]
        assert sum(chunks, []) == want
        if want:
            assert chunks[0][0] == (2, 3)

    @staticmethod
    def _spots(n):
        """Pairs at the chunk edges and at the first and last m."""
        chunks = _chunk_pairs(n)
        pairs = sum(chunks, [])
        last_m = pairs[-1][0]
        spots = {c[i] for c in (chunks[0], chunks[1], chunks[-1]) for i in (0, -1)}
        spots |= {pairs[0], max(p for p in pairs if p[0] == 2), pairs[-1],
                  next(p for p in pairs if p[0] == last_m)}
        assert len(chunks) >= 3
        return sorted(spots)

    @staticmethod
    def _tables(sieve, n):
        """(table, law) pairs that pass, one per storage."""
        phi, nu = af.make("phi", sieve, bound=n), af.make("nu", sieve, bound=n)
        half_at_2 = [Fraction(1, k & -k) for k in range(1, n + 1)]  # 2**-v_2(k)
        return [
            (phi, "multiplicative"),  # int64
            (nu, "additive"),
            # int64 storage past the 2**62 product guard, then object storage
            (af.ArithFn.from_values([k**6 for k in range(1, n + 1)]), "multiplicative"),
            (af.ArithFn.from_values([k**7 for k in range(1, n + 1)]), "multiplicative"),
            (af.ArithFn.from_values(half_at_2), "multiplicative"),  # den > 1
            (phi.to_backend(af.COMPLEX), "multiplicative"),
            (nu.to_backend(af.COMPLEX), "additive"),
        ]

    @pytest.mark.parametrize("chunk, n", CHUNKINGS)
    def test_planted_violations_match_scalar_loop(self, monkeypatch, chunk, n):
        monkeypatch.setattr(sieve_module, "STEP", chunk)
        sieve = af.build_sieve(n)
        scan = {"multiplicative": af.is_multiplicative, "additive": af.is_additive}
        for base, kind in self._tables(sieve, n):
            assert scan[kind](base).ok
            if base.backend is af.COMPLEX:  # within tol = 1e-9, then past it
                # (a passing table costs the loop every pair: only at the small bound)
                steps = [(4e-10, True)] * (n <= 1000) + [(3e-9, False)]
            else:
                steps = [(1, False), (Fraction(1, 3), False)]
            for m, k in self._spots(n) + [(1, 1)]:
                for delta, ok in steps:
                    a = _plant(base, m * k, delta)
                    got = _outcome(scan[kind](a))
                    assert got == predicate_oracle(a, kind), (kind, base.backend, m, k, delta)
                    # a product also scales the step when m k is a factor of a larger pair
                    if not ok or kind == "additive" or m * k > n // 2:
                        assert got[0] == ok

    @pytest.mark.parametrize("chunk, n, p, q", ((64, 1000, 23, 37), (sieve_module.STEP, 12000, 83, 139)))
    def test_overflow_in_a_late_chunk_is_non_finite(self, monkeypatch, chunk, n, p, q):
        # 1e200 where one of p, q divides k, else 1: every pair before (p, q)
        # holds exactly, and a(p) a(q) overflows
        monkeypatch.setattr(sieve_module, "STEP", chunk)
        vals = [1e200 if (k % p == 0) != (k % q == 0) else 1.0 for k in range(1, n + 1)]
        a = af.ArithFn.from_values(vals, af.COMPLEX)
        assert (p, q) not in _chunk_pairs(n)[0] + _chunk_pairs(n)[1]
        with pytest.raises(NonFiniteError):
            af.is_multiplicative(a)
        with pytest.raises(NonFiniteError):
            predicate_oracle(a, "multiplicative")

    def test_each_bound_reads_its_own_index(self, monkeypatch):
        # a violation at (2, 499) lies beyond bound 300; bound 1000's index
        # would read past the end of a table at 300
        monkeypatch.setattr(sieve_module, "STEP", 64)
        sieve = af.build_sieve(1000)
        tables = {n: _plant(af.make("phi", sieve, bound=n), 998, 1) if n > 998 else
                  af.make("phi", sieve, bound=n) for n in (300, 600, 1000)}
        for n in (300, 1000, 300, 600, 1000, 300):
            got = _outcome(af.is_multiplicative(tables[n]))
            assert got == predicate_oracle(tables[n], "multiplicative")
            assert got[0] == (n < 998)


def _largest_prime_power(k: int) -> int:
    """k / r(k): the power of the largest prime of k (1 at k = 1)."""
    p, a = factorize_brute(k)[-1] if k > 1 else (1, 1)
    return p**a


def _law_tables(sieve, n, small=False):
    """Exact tables that pass the product or the sum law: int64, over
    den > 1, and past the int64 guard (object storage)."""
    nu, omega = af.make("nu", sieve, bound=n), af.make("Omega", sieve, bound=n)
    phi = af.make("phi", sieve, bound=n)
    distinct = [0] + [len(factorize_brute(k)) for k in range(2, n + 1)]
    tables = [
        phi,
        nu + omega,
        af.ArithFn.from_values([Fraction(phi[k], 2 ** distinct[k - 1]) for k in range(1, n + 1)]),
        nu.scale(Fraction(1, 3)) + omega.scale(Fraction(1, 2)),
        af.ArithFn.from_values([k**7 for k in range(1, n + 1)]),  # object
        omega.scale(2**62),  # object
    ]
    if small:
        tables += [
            af.make("mobius", sieve, bound=n),
            af.make("liouville", sieve, bound=n),
            af.ArithFn.from_values([k**6 for k in range(1, n + 1)]),  # int64 past the guard
            nu,
        ]
    return tables


def _structure_outcomes(a, sieve, kinds) -> dict:
    """Each predicate's outcome, and each decomposition's values or the
    witness of its StructureError."""
    out = {kind: _outcome(PREDICATES[kind](a, sieve, None)) for kind in kinds}
    for name, decompose, view in (("bell", af.bell_decompose_mult, lambda d: d.series),
                                  ("support", af.additive_decompose, lambda g: g.items())):
        try:
            out[name] = view(decompose(a, sieve))
        except StructureError as e:
            out[name] = ("error", e.witness)
    return out


def _oracle_outcomes(a, kinds) -> dict:
    out = {kind: predicate_oracle(a, kind) for kind in kinds}
    for name, kind in (("bell", "multiplicative"), ("support", "additive")):
        ok, witness = predicate_oracle(a, kind)[:2]
        if not ok:
            out[name] = ("error", witness)
        elif name == "bell":
            out[name] = tuple(af.BellSeries(p, c) for p, c in bell_decompose_oracle(a))
        else:
            out[name] = [(key, v) for key, v in sorted(additive_decompose_oracle(a).items()) if v]
    return out


class TestCharacterizationLaw:
    """Exact tables are decided by a(k) = a(r(k)) a(k / r(k)) (or a sum);
    verdicts and witnesses equal the pair scan's and the per-pair loop's."""

    @staticmethod
    def _check(monkeypatch, sieve, a, kinds):
        got = _structure_outcomes(a, sieve, kinds)
        with monkeypatch.context() as m:  # the scan alone, as before the law
            m.setattr(structure, "_law_failure", lambda *args: 2)
            # the exact Mobius test names the law's failure: the scan has no part in it
            scanned = _structure_outcomes(a, sieve, [kind for kind in kinds if kind != "additive-mobius"])
            assert scanned == {key: got[key] for key in scanned}
        assert got == _oracle_outcomes(a, kinds)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 6, 12, 30, 63, 64))
    def test_a_violation_at_every_index(self, monkeypatch, n):
        sieve = af.build_sieve(n)
        for base in _law_tables(sieve, n, small=True):
            self._check(monkeypatch, sieve, base, PREDICATES)
            for i in range(1, n + 1):
                self._check(monkeypatch, sieve, _plant(base, i, 1 if i % 2 else Fraction(1, 3)),
                            PREDICATES)

    @pytest.mark.parametrize("n", (1023, 1024, 1025, 4099))
    def test_violations_at_sampled_indices(self, monkeypatch, n):
        monkeypatch.setattr(sieve_module, "STEP", 64)  # the fold index and the law in many steps
        sieve = af.build_sieve(n)
        spots = random.Random(n).sample(range(1, n + 1), 60)
        # the Mobius oracle convolves by divisor scans, too slow at these
        # bounds: TestMobiusByTheLaw checks it against a loop convolution
        kinds = [kind for kind in PREDICATES if kind != "additive-mobius"]
        for j, base in enumerate(_law_tables(sieve, n)):
            self._check(monkeypatch, sieve, base, kinds)
            for i in spots[j::2]:  # each table half the spots, each spot in three tables
                self._check(monkeypatch, sieve, _plant(base, i, 1), kinds)

    @pytest.mark.parametrize("step", (None, 8))
    def test_the_law_on_object_storage(self, monkeypatch, step):
        # object numerators (as the scan's guard leaves them), with and
        # without a violation, against the law by trial division
        n = 1025
        if step:
            monkeypatch.setattr(sieve_module, "STEP", step)
        sieve = af.build_sieve(n)
        for base in _law_tables(sieve, n, small=True):
            product = base[1] == 1
            for a in (base, _plant(base, n, 1), _plant(base, 2 * 3 * 5 * 7, Fraction(1, 3)),
                      _plant(base, 512, 1)):
                got = structure._law_failure(a._v.astype(object), a.den, n, product, sieve)
                assert got == _law_oracle(a, product), (a[1], a[2])

    def test_a_wrong_unit_alone_reads_no_law(self, monkeypatch, sieve100):
        def refuse(*args):
            raise AssertionError("the law was read")

        monkeypatch.setattr(structure, "_law_failure", refuse)
        for base in _law_tables(sieve100, 100, small=True):
            a = _plant(base, 1, 1)
            kind = "multiplicative" if base[1] == 1 else "additive"
            got = _outcome(PREDICATES[kind](a, sieve100, None))
            assert got == predicate_oracle(a, kind) == (False, (1, 1), "pair", None)
            if kind == "additive":
                got = _outcome(af.mobius_additivity_test(a, sieve100))
                assert got == predicate_oracle(a, "additive-mobius") == (False, 1, "index", None)

    def test_a_passing_exact_check_reads_no_pair(self, monkeypatch, sieve1000):
        def refuse(*args):
            raise AssertionError("the pairs were read")

        monkeypatch.setattr(structure, "_coprime_pairs", refuse)
        for a in _law_tables(sieve1000, 1000, small=True):
            kind = "multiplicative" if a[1] == 1 else "additive"
            assert PREDICATES[kind](a, sieve1000, None).ok
            if kind == "multiplicative":
                af.bell_decompose_mult(a, sieve1000)
            else:
                af.additive_decompose(a, sieve1000)
        liouville, omega = af.make("liouville", sieve1000), af.make("Omega", sieve1000)
        assert af.is_completely_multiplicative(liouville, sieve1000).ok
        assert af.is_completely_additive(omega, sieve1000).ok

    def test_a_complex_check_scans_the_pairs(self, monkeypatch, sieve1000):
        reads = []
        pairs = structure._coprime_pairs
        monkeypatch.setattr(structure, "_coprime_pairs",
                            lambda sieve, n: reads.append(n) or pairs(sieve, n))
        phi = af.make("phi", sieve1000, af.COMPLEX)
        assert af.is_multiplicative(phi).ok
        assert reads == [1000]



def _refuse_builds(bound):
    raise AssertionError(f"a sieve was built for bound {bound}")


def _sieve_free_outcomes(tables, tagged) -> list:
    """What the calls that take no sieve give: both checks of every table,
    and routed products, powers and inverses of tagged ones, with their tags."""
    out = [(_outcome(af.is_multiplicative(a)), _outcome(af.is_additive(a))) for a in tables]
    phi, d, mu = tagged
    for got in (phi * d, d**3, phi.scale(3) * mu.scale(-7), phi.inv(), (-d).inv()):
        out.append((got.values(), got._v.dtype, got.den, got._mult.tolist()))
    return out


class TestTheSieveThatServesABound:
    """What is derived for a bound lives on the sieve that serves it: the
    caller's, else the smallest live one that reaches it, else a new one
    that is not kept.  No result depends on which."""

    N = 1025

    @pytest.fixture(autouse=True)
    def no_live_sieve(self, monkeypatch):
        monkeypatch.setattr(sieve_module, "_LIVE", weakref.WeakSet())

    def _inputs(self):
        """Exact tables that pass and fail each law, complex ones, and
        tagged phi, d and mu; the sieve that made them is not kept."""
        n, sieve = self.N, af.build_sieve(self.N)
        tables = _law_tables(sieve, n)
        tables += [_plant(a, i, 1) for a, i in zip(tables, (6, 1, 1024, 35, 1025, 12))]
        phi = af.make("phi", sieve, af.COMPLEX)
        tables += [phi, _plant(phi, 77, 1)]
        return tables, tuple(af.make(name, sieve) for name in ("phi", "d", "mobius"))

    def test_a_live_sieve_is_never_rebuilt(self, monkeypatch):
        tables, tagged = self._inputs()
        short, sieve, large = (af.build_sieve(b) for b in (self.N // 2, self.N, 2 * self.N + 1))
        monkeypatch.setattr(sieve_module, "build_sieve", _refuse_builds)
        _sieve_free_outcomes(tables, tagged)
        for a in tables:
            _structure_outcomes(a, sieve, PREDICATES)
        # the smallest live sieve that reaches N served every call
        assert short._rest is large._rest is None and not short._per_bound | large._per_bound

    def test_results_do_not_depend_on_the_sieve(self):
        tables, tagged = self._inputs()
        assert not sieve_module._LIVE
        alone = _sieve_free_outcomes(tables, tagged)
        assert not sieve_module._LIVE  # the sieves built for the calls were not kept
        outcomes = []
        for bound in (self.N, 2 * self.N + 1):
            sieve = af.build_sieve(bound)
            assert list(sieve_module._LIVE) == [sieve]
            outcomes.append((_sieve_free_outcomes(tables, tagged),
                             [_structure_outcomes(a, sieve, PREDICATES) for a in tables]))
            del sieve
        assert outcomes[0] == outcomes[1]
        assert alone == outcomes[0][0]

    def test_a_passing_law_allocates_one_step_at_a_time(self):
        n = 10**6
        sieve = af.build_sieve(n)
        phi = af.make("phi", sieve)
        sieve._fold_index(n)
        tracemalloc.start()
        try:
            ok = af.is_multiplicative(phi).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and peak < 2 * 2**20, peak


class TestSeriesHelpers:
    def test_log_of_geometric_series(self):
        # log(1/(1-x)) = sum x^k / k
        coeffs = af.series_log([1] * 8, 8)
        assert coeffs == [0] + [Fraction(1, k) for k in range(1, 8)]

    def test_exp_log_round_trip(self):
        rng = random.Random(45)
        for _ in range(10):
            f = [1] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
            assert af.series_exp(af.series_log(f, 8), 8) == f
        for _ in range(10):
            g = [0] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
            assert af.series_log(af.series_exp(g, 8), 8) == g

    def test_series_mul_truncates(self):
        assert af.series_mul([1, 1, 1], [1, 1, 1], 3) == [1, 2, 3]

    def test_integral_fractions_come_back_as_ints(self):
        # Fraction(4, 2) is 2 over 1: products, logs and exps return the int
        two = Fraction(4, 2)
        for got in (af.series_mul([1, two], [1, two], 3), af.series_log([1, two], 2),
                    af.series_exp([0, two], 2)):
            assert [type(x) for x in got] == [int] * len(got), got
        assert af.series_mul([1, two], [1, two], 3) == [1, 4, 4]
        assert af.series_mul([Fraction(1, 2)], [1], 1) == [Fraction(1, 2)]

    def test_helpers_accept_complex_vectors(self):
        f = [1, 0.5 + 0.25j, -0.125, 0.0625j]
        back = af.series_exp(af.series_log(f, 4), 4)
        assert all(abs(back[i] - complex(f[i])) < 1e-12 for i in range(4))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            af.series_log([0, 1], 2)
        with pytest.raises(ValueError):
            af.series_exp([1, 1], 2)

    def test_psi_in_bell_coordinates(self, sieve1000):
        # the additive table of psi(a) at prime p is the truncated log of
        # a's series at p, coefficient by coefficient
        rng = random.Random(46)
        n = 200
        for m in [
            af.make("u", sieve1000, bound=n),
            af.make("phi", sieve1000, bound=n),
            rand_multiplicative(rng, sieve1000, n),
        ]:
            dec = af.bell_decompose_mult(m, sieve1000)
            table = af.additive_decompose(af.psi(m), sieve1000)
            for p in sieve1000.primes:
                if p > n:
                    break
                length = sieve1000.prime_power_cap(p, n) + 1
                want = af.series_log(list(dec.series_for(p).coeffs), length)
                assert table.series_at(p, length) == want


def test_bell_series_json_shape(sieve100):
    dec = af.bell_decompose_mult(af.make("mobius", sieve100), sieve100)
    obj = dec.series_for(2).to_json_obj(af.RATIONAL)
    assert obj == {"prime": 2, "coeffs": ["1", "-1", "0", "0", "0", "0", "0"]}


def _bell_view(dec) -> tuple:
    """Every accessor of a Bell decomposition, as reprs (value types and
    the signs of complex zeros count)."""
    primes = [s.prime for s in dec.series]
    return (
        repr(dec.series),
        [repr(dec.series_for(p)) for p in primes],
        [dec.series_for(p).to_json_obj(dec.backend) for p in primes],
        len(dec.series),
        repr(dec),
    )


def _support_view(g, primes) -> tuple:
    """Every accessor of a prime support, as reprs."""
    return (
        repr(g.items()),
        [repr(g.get(p, k)) for (p, k), _ in g.items()],
        repr([g.get(p, 1) for p in primes] + [g.get(2, 64), g.get(4, 1)]),
        repr([g.series_at(p, 4) for p in primes[:20]]),
        len(g),
        g.to_json_obj(),
        repr(g),
    )


@pytest.mark.parametrize("n", (1023, 1024, 1025, 4099))
def test_decompositions_agree_with_their_constructors(n):
    # a decomposition filled from a table's storage and one built from the
    # same pairs or dict read the same through every accessor
    sieve = af.build_sieve(n)
    rng = random.Random(n)
    mult = [af.make(name, sieve) for name in ("u", "mobius", "phi", "liouville", "d", "N")]
    mult += [af.make("sigma", sieve, c=1), rand_multiplicative(rng, sieve, n),
             rand_multiplicative(rng, sieve, n).scale(Fraction(1, 1))]
    add = [af.make("nu", sieve), af.make("Omega", sieve), rand_additive(rng, sieve, n),
           af.make("nu", sieve).scale(Fraction(-2, 3)) + af.make("Omega", sieve)]
    for backend in (af.RATIONAL, af.COMPLEX):
        for a in (t.to_backend(backend) for t in mult):
            dec = af.bell_decompose_mult(a, sieve)
            built = af.BellDecomposition(n, backend, [(p, c) for p, c in dec.series])
            reversed_ = af.BellDecomposition(n, backend, reversed(dec.series))
            assert _bell_view(built) == _bell_view(dec)
            assert built == dec and dec == built and reversed_ == dec
            rec = af.bell_reconstruct_mult(dec, sieve)
            assert af.bell_reconstruct_mult(built, sieve) == rec
            assert rec == a or backend is af.COMPLEX  # complex sums round
        for a in (t.to_backend(backend) for t in add):
            g = af.additive_decompose(a, sieve)
            built = af.PrimeSupport(n, backend, dict(reversed(g.items())))
            assert _support_view(built, sieve.primes) == _support_view(g, sieve.primes)
            assert built == g and g == built
            rec = af.additive_reconstruct(g, sieve)
            assert af.additive_reconstruct(built, sieve) == rec
            assert rec == a or backend is af.COMPLEX


def test_round_trip_makes_no_per_prime_calls(monkeypatch):
    # the decompose -> reconstruct round trips read no value or key one
    # at a time: no backend.convert, no operator.index
    import operator

    n = 4099
    sieve = af.build_sieve(n)
    inverses = af.ArithFn.from_values([Fraction(1, k) for k in range(1, n + 1)])  # den > 1
    mult = [af.make("phi", sieve), inverses]
    add = [af.make("nu", sieve).scale(Fraction(1, 2)) + af.make("Omega", sieve)]
    cases = [(a.to_backend(backend), product) for backend in (af.RATIONAL, af.COMPLEX)
             for tables, product in ((mult, True), (add, False)) for a in tables]
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(operator, "index", counted(operator.index))
    for backend in (af.RATIONAL, af.COMPLEX):
        monkeypatch.setattr(backend, "convert", counted(backend.convert))
    for a, product in cases:
        if product:
            rec = af.bell_reconstruct_mult(af.bell_decompose_mult(a, sieve), sieve)
        else:
            rec = af.additive_reconstruct(af.additive_decompose(a, sieve), sieve)
        assert rec == a or a.backend is af.COMPLEX  # complex products and sums round
    assert calls == []
    # the patches take effect: numpy-int keys are read one at a time
    af.PrimeSupport(10, af.RATIONAL, {(np.int64(2), 1): 1})
    assert calls


def _same_bits(x: af.ArithFn, y: af.ArithFn) -> bool:
    if x.backend is af.COMPLEX:
        return np.array_equal(x._v.view(np.uint64), y._v.view(np.uint64))
    return x == y


@pytest.mark.parametrize("n", (1023, 1024, 1025, 4099))
def test_decompositions_reconstruct_on_another_sieve(n):
    # the rows at a bound are the same whatever sieve made them: a
    # decomposition made on a sieve to n or to 4n reconstructs on either to
    # the same bits; the larger sieve has served its own bound first
    rng = random.Random(n)
    small, large = af.build_sieve(n), af.build_sieve(4 * n)
    af.additive_reconstruct(af.additive_decompose(af.make("Omega", large), large), large)
    mult = [af.make("phi", small), af.make("sigma", small, c=1), rand_multiplicative(rng, small, n),
            af.ArithFn.from_values([Fraction(1, k) for k in range(1, n + 1)])]
    add = [af.make("Omega", small), rand_additive(rng, small, n),
           af.make("nu", small).scale(Fraction(-2, 3))]
    sides = ((mult, af.bell_decompose_mult, af.bell_reconstruct_mult),
             (add, af.additive_decompose, af.additive_reconstruct))
    for backend in (af.RATIONAL, af.COMPLEX):
        for tables, decompose, reconstruct in sides:
            for a in (t.to_backend(backend) for t in tables):
                want = reconstruct(decompose(a, small), small)
                assert want == a or backend is af.COMPLEX  # complex products and sums round
                for made, other in ((small, large), (large, small), (large, large)):
                    assert _same_bits(reconstruct(decompose(a, made), other), want)


def test_series_for_boxes_only_its_rows(monkeypatch):
    # one lookup boxes the values of p's rows and no other
    n = 4099
    sieve = af.build_sieve(n)
    inverses = af.ArithFn.from_values([Fraction(1, k) for k in range(1, n + 1)])  # den > 1
    decs = [af.bell_decompose_mult(a, sieve)
            for a in (af.make("phi", sieve), inverses, af.make("phi", sieve, af.COMPLEX))]
    want = [dict(dec.series) for dec in decs]
    boxed = []
    box = structure._box

    def counted(nums, den):
        boxed.append(len(nums))
        return box(nums, den)

    monkeypatch.setattr(structure, "_box", counted)
    for dec, series in zip(decs, want):
        for p in (2, 3, 61, 67, 4099):
            boxed.clear()
            assert dec.series_for(p) == (p, series[p])
            assert sum(boxed) == sieve.prime_power_cap(p)


# keys as a dict of int keys reads them: each of these equals 2 and hashes to 2
_EQUAL_TO_2 = (2, 2.0, np.int64(2), Fraction(2), 2 + 0j)
_NOT_A_KEY = ("2", 2.5, None, -2, 10**30)
_PRIMES = (*_EQUAL_TO_2, *_NOT_A_KEY, True, 3, 4, 97, 4099, [2], np.array([2]))
_EXPONENTS = (1, 2, 3, True, 1.0, np.int64(2), Fraction(1), 1 + 0j, "1", 1.5, None, -1, 0,
              10**30, [1])


def _outcome_of(call) -> tuple:
    """What a lookup returns or raises, as reprs."""
    try:
        return ("value", repr(call()))
    except (StructureError, TypeError) as e:
        return (type(e).__name__, str(e), repr(getattr(e, "witness", None)))


def _dict_series_for(pairs: dict, p):
    coeffs = pairs.get(p)
    if coeffs is None:
        raise StructureError(f"no series for prime {p}", witness=p)
    return af.BellSeries(p, coeffs)


@pytest.mark.parametrize("n", (100, 4099))
@pytest.mark.parametrize("backend", (af.RATIONAL, af.COMPLEX), ids=("rational", "complex"))
def test_lookups_match_keys_as_a_dict_does(n, backend):
    # series_for, get and series_at, on views and on constructor-built
    # decompositions, find exactly what a dict of the (p, k) ints finds
    sieve = af.build_sieve(n)
    rng = random.Random(n)
    dec = af.bell_decompose_mult(rand_multiplicative(rng, sieve, n).to_backend(backend), sieve)
    g = af.additive_decompose(rand_additive(rng, sieve, n).to_backend(backend), sieve)
    decs = (dec, af.BellDecomposition(n, backend, dec.series))
    supports = (g, af.PrimeSupport(n, backend, dict(g.items())))
    pairs, entries, zero = dict(dec.series), dict(g.items()), backend.zero
    assert all(pairs.get(x) == pairs[2] for x in _EQUAL_TO_2)
    assert all(pairs.get(x) is None for x in _NOT_A_KEY)
    assert any(k > 1 and (p, k - 1) not in entries for p, k in entries)  # a row skips a k
    for d in decs:
        for p in _PRIMES:
            assert _outcome_of(lambda: d.series_for(p)) == _outcome_of(
                lambda: _dict_series_for(pairs, p)), (d, p)
    for s in supports:
        for p in _PRIMES:
            for k in _EXPONENTS:
                assert _outcome_of(lambda: s.get(p, k)) == _outcome_of(
                    lambda: entries.get((p, k), zero)), (s, p, k)
            for length in (2, 5, 14):
                assert _outcome_of(lambda: s.series_at(p, length)) == _outcome_of(
                    lambda: [zero] + [entries.get((p, k), zero) for k in range(1, length)]), (s, p)
        assert s.get(2, True) == entries.get((2, 1), zero)


def test_series_at_has_length_entries():
    g = af.PrimeSupport(100, af.RATIONAL, {(2, 1): 1, (2, 3): Fraction(-1, 2), (3, 2): 5})
    assert g.series_at(2, 6) == [0, 1, 0, Fraction(-1, 2), 0, 0]
    assert g.series_at(2, 3) == [0, 1, 0]
    assert g.series_at(2, 1) == [0]
    assert g.series_at(2, 0) == [] and g.series_at(2, -3) == []
    assert g.series_at(5, 4) == [0, 0, 0, 0]
    gc = af.PrimeSupport(100, af.COMPLEX, {(3, 2): 5})
    assert gc.series_at(3, 0) == [] and gc.series_at(3, 3) == [0, 0, 5 + 0j]


@pytest.mark.parametrize("backend", (af.RATIONAL, af.COMPLEX), ids=("rational", "complex"))
def test_first_lookup_builds_no_index(backend):
    # the rows are their own index: the first lookup on a fresh view at
    # 10^5 allocates a few KiB, not a map over every row
    n = 10**5
    sieve = af.build_sieve(n)
    phi, omega = af.make("phi", sieve, backend), af.make("Omega", sieve, backend)
    lookups = (
        lambda dec: dec.series_for(99991),
        lambda g: g.get(99991, 1),
        lambda g: g.series_at(317, 3),
    )
    views = (af.bell_decompose_mult(phi, sieve), af.additive_decompose(omega, sieve),
             af.additive_decompose(omega, sieve))
    for lookup, view in zip(lookups, views):
        tracemalloc.start()
        try:
            lookup(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (view, peak)
