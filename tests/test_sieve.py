"""Sieve and factorization against trial division."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arithfn as af
from arithfn import sieve as sieve_module
from arithfn import structure
from arithfn.sieve import _prime_powers, _quotient
from conftest import factorize_brute, nu_brute, omega_brute, primes_brute


class TestBuild:
    def test_primes_up_to_10(self):
        assert af.build_sieve(10).primes == primes_brute(10) == [2, 3, 5, 7]

    def test_empty_range(self):
        assert af.build_sieve(1).primes == []

    def test_spf_values(self):
        s = af.build_sieve(49)
        assert s.smallest_prime_factor(30) == 2
        assert s.smallest_prime_factor(15) == 3
        assert s.smallest_prime_factor(49) == 7

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            af.build_sieve(0)

    def test_bound_past_int32_is_refused_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"np.zeros{args} was called")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match="sieve bound must be in 1..2147483647"):
            af.build_sieve(2**31)

    def test_spf_table_is_int32(self):
        assert af.build_sieve(100)._spf.dtype == np.int32

    def test_build_peak_memory(self):
        # the table is 4 bytes per index (3.8 MiB at 10^6); an int64 one alone is 7.6 MiB
        tracemalloc.start()
        try:
            af.build_sieve(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_spf_is_prime_and_divides(self):
        s = af.build_sieve(500)
        prime_set = set(s.primes)
        for n in range(2, 501):
            p = s.smallest_prime_factor(n)
            assert p in prime_set and n % p == 0

    def test_primes_are_fixed_points(self):
        s = af.build_sieve(200)
        assert s.primes == [n for n in range(2, 201) if s.smallest_prime_factor(n) == n]


class TestFactorize:
    def test_examples(self, sieve100):
        assert sieve100.factorize(12) == factorize_brute(12) == [(2, 2), (3, 1)]
        assert sieve100.factorize(1) == []
        assert sieve100.factorize(97) == [(97, 1)]

    def test_out_of_range(self, sieve100):
        with pytest.raises(ValueError):
            sieve100.factorize(101)
        with pytest.raises(ValueError):
            sieve100.factorize(0)

    def test_product_reconstructs(self, sieve1000):
        for n in range(2, 1001):
            prod = 1
            for p, a in sieve1000.factorize(n):
                prod *= p**a
            assert prod == n

    @given(st.integers(1, 2000))
    def test_matches_trial_division(self, n):
        s = af.build_sieve(2000)
        assert s.factorize(n) == factorize_brute(n)


class TestCounts:
    """The nu / Omega counts the catalogue builds from the spf table."""

    def test_examples(self, sieve100):
        nu, om = af.make("nu", sieve100), af.make("Omega", sieve100)
        assert (nu[12], om[12]) == (2, 3)
        assert (nu[1], om[1]) == (0, 0)
        assert (nu[64], om[64]) == (1, 6)

    def test_against_brute(self, sieve1000):
        nu, om = af.make("nu", sieve1000), af.make("Omega", sieve1000)
        for n in range(1, 1001):
            assert nu[n] == nu_brute(n)
            assert om[n] == omega_brute(n)

    def test_omega_at_least_nu_equality_iff_squarefree(self, sieve1000):
        nu, om = af.make("nu", sieve1000), af.make("Omega", sieve1000)
        for n in range(1, 1001):
            squarefree = all(a == 1 for _, a in sieve1000.factorize(n))
            assert om[n] >= nu[n]
            assert (om[n] == nu[n]) == squarefree


def test_documented_scale_ten_million():
    # the documented memory-bound limit: build once, spot-check by trial division
    s = af.build_sieve(10_000_000)
    assert len(s.primes) == 664_579
    assert s.factorize(9_999_991) == factorize_brute(9_999_991)
    assert s.factorize(9_999_999) == factorize_brute(9_999_999)
    assert s.smallest_prime_factor(9_999_998) == 2


def test_prime_power_cap(sieve1000):
    assert sieve1000.prime_power_cap(2) == 9  # 2^9 = 512 <= 1000 < 1024
    assert sieve1000.prime_power_cap(31) == 2  # 31^2 = 961
    assert sieve1000.prime_power_cap(37) == 1  # 37^2 = 1369
    assert sieve1000.prime_power_cap(2, 10) == 3
    with pytest.raises(ValueError):
        sieve1000.prime_power_cap(1)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 8, 9, 1023, 1024, 1025, 4099])
def test_prime_powers_against_brute(sieve5000, bound):
    assert [p for p in sieve5000.primes if p <= bound] == primes_brute(bound)
    factors = {n: factorize_brute(n) for n in range(2, bound + 1)}
    rows = sorted((*fac[0], n) for n, fac in factors.items() if len(fac) == 1)
    p, k, pk = _prime_powers(sieve5000, bound)
    assert p.dtype == k.dtype == pk.dtype == np.int64
    assert list(zip(p.tolist(), k.tolist(), pk.tolist())) == rows


def _fold_index_brute(n):
    """P(k), the largest prime factor, and r(k) = k / P(k)^v on 0..n by
    trial division (1 at 0 and 1)."""
    big, rest = [1, 1], [1, 1]
    for k in range(2, n + 1):
        p, v = factorize_brute(k)[-1]
        big.append(p)
        rest.append(k // p**v)
    return big, rest


FOLD_BOUNDS = [1, 2, 3, 4, 8, 9, 1023, 1024, 1025, 4099]


def test_quotient_is_floor_division_on_the_walks_divisors(sieve5000):
    # every walk's quotient: k / r(k), k / spf(k) and k / P(k) on 2..4099
    big, rest = _fold_index_brute(4099)
    k = np.arange(2, 4100)
    for d in (np.array(rest[2:], dtype=np.int32), sieve5000._spf[2:4100], np.array(big[2:])):
        got = _quotient(k, d)
        assert got.dtype == np.intp and np.array_equal(got, k // d)
    # exact multiples d m up to 2**31 - 1, the largest bound a sieve takes
    for d in (2, 3, 46337, 65521, 2**30):
        top = (2**31 - 1) // d
        m = np.unique(np.concatenate((np.arange(1, min(top, 4096) + 1),
                                      np.linspace(1, top, 4096, dtype=np.int64))))
        for divisor in (d, np.full(len(m), d, dtype=np.int32)):
            got = _quotient(d * m, divisor)
            assert got.dtype == np.intp and np.array_equal(got, m), d
        assert d * int(m[-1]) <= 2**31 - 1 < d * (int(m[-1]) + 1)


@pytest.mark.parametrize("bound", FOLD_BOUNDS)
def test_fold_index_and_rows_against_trial_division(sieve5000, bound, monkeypatch):
    big, rest = _fold_index_brute(bound)
    factors = {n: factorize_brute(n) for n in range(2, bound + 1)}
    rows = sorted((*fac[0], n) for n, fac in factors.items() if len(fac) == 1)
    fresh = af.build_sieve(bound)
    with monkeypatch.context() as m:
        m.setattr(sieve_module, "STEP", 8)  # the fold index in many steps per dyadic block
        stepped = af.build_sieve(bound)
        stepped._fold_index(bound)
    for sieve in (fresh, stepped, sieve5000):  # a sieve of this bound, and of a larger one
        got_rest = sieve._fold_index(bound)
        assert got_rest.dtype == np.int32
        assert got_rest.tolist() == rest
        k = np.arange(2, bound + 1)  # P(k) is spf(k / r(k))
        assert [1, 1, *sieve._spf[_quotient(k, got_rest[2:])].tolist()][: bound + 1] == big
        p, k, pk = _prime_powers(sieve, bound)
        assert list(zip(p.tolist(), k.tolist(), pk.tolist())) == rows
        assert len(sieve._rest) == sieve.bound + 1  # built to the sieve's bound


@pytest.mark.parametrize("bound", FOLD_BOUNDS)
def test_primes_is_one_list_of_the_primes(bound):
    sieve = af.build_sieve(bound)
    primes = sieve.primes
    assert type(primes) is list and primes == primes_brute(bound)
    assert all(type(p) is int for p in primes)
    assert sieve.primes is primes  # made once, so indexing it in a loop stays linear
    assert repr(sieve) == f"SpfSieve(bound={bound}, primes={len(primes)})"
    with pytest.raises(AttributeError):
        sieve.primes = []


def test_sieve_caches_grow_to_the_largest_bound_asked():
    fresh = af.build_sieve(4099)
    want_index = (fresh._fold_index(4099),)
    want_rows = _prime_powers(fresh, 4099)
    for first in (1, 2, 9, 1023, 1024):
        sieve = af.build_sieve(4099)
        small_index, small_rows = (sieve._fold_index(first),), _prime_powers(sieve, first)
        assert len(sieve._rest) == 4100  # the fold index is built to the sieve's bound at once
        grown_index, grown_rows = (sieve._fold_index(4099),), _prime_powers(sieve, 4099)
        for got, want in zip(grown_index + grown_rows, want_index + want_rows):
            assert np.array_equal(got, want)
        # a smaller bound still reads what it read before the sieve grew
        for got, want in zip((sieve._fold_index(first),) + _prime_powers(sieve, first),
                             small_index + small_rows):
            assert np.array_equal(got, want)


def test_fold_index_is_built_once_to_the_sieve_bound():
    sieve = af.build_sieve(10**5)
    assert sieve._rest is None  # a sieve that served no fold holds its seed alone
    first = sieve._fold_index(10)
    index = sieve._rest
    assert len(index) == 10**5 + 1 and first.base is index
    tracemalloc.start()
    try:
        views = [sieve._fold_index(n) for n in (0, 1, 2, 1023, 4099, 10**5, 10**5 // 2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**12, peak  # slices of the one array, nothing copied or regrown
    assert sieve._rest is index
    for view in views:
        assert view.base is index and np.array_equal(view, index[: len(view)])


def test_prime_power_rows_are_kept_per_bound():
    sieve = af.build_sieve(10**6)
    first = _prime_powers(sieve, 10**5)
    _prime_powers(sieve, 10**6)
    assert all(x is y for x, y in zip(_prime_powers(sieve, 10**5), first))
    for got, want in zip(first, _prime_powers(af.build_sieve(10**5), 10**5)):
        assert np.array_equal(got, want)


def test_cached_arrays_are_read_only():
    sieve = af.build_sieve(100)
    arrays = [sieve._fold_index(100), *_prime_powers(sieve, 100)]
    next(structure._coprime_pairs(sieve, 100))  # the pair index
    arrays += [arr for kept in sieve._per_bound.values() for arr in kept]
    arrays += [sieve._rest, sieve._spf, sieve._prime_array]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1] = 0


@pytest.mark.parametrize("bound", [1, 2, 100])
def test_fold_index_below_two_is_read_only(bound):
    sieve = af.build_sieve(bound)
    for n in (0, 1):
        arr = sieve._fold_index(n)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
