"""Acceptance suite: one test per exit criterion, at full stated scale.

Each test prints a single pass line; random inputs are generated from
fixed seeds so every run checks the same instances.  Expected sizes and
tolerances are pinned here and nowhere else:

  1.  Mobius inversion at N = 100000, exact, wall-clock bounded
  2.  log/exp bijectivity, 50 + 50 random functions, N = 4096, exact
  3.  homomorphism laws, 50 random pairs, N = 2048, exact
  4.  psi structure theorem on the catalogue + 25 round trips, N = 4096
  5.  convolution additivity test == pair-scan additivity, 100 + 100
      random functions plus the catalogue, N = 2048
  6.  Bell/prime-support round trips and closed-form coefficients, N = 10000
  7.  series truncation exactness (+5 terms change nothing), N = 4096
  8.  float identities at N = 10000 within 1e-9
  9.  pinned predicate witnesses, deterministic
  10. CLI golden files and exit codes
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import arithfn as af
from arithfn.cli import main as cli_main
from conftest import rand_additive, rand_complex_fn, rand_exact_fn, rand_multiplicative

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, name: str):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def sieve_100k():
    return af.build_sieve(100_000)


@pytest.fixture(scope="module")
def sieve_10k():
    return af.build_sieve(10_000)


@pytest.fixture(scope="module")
def sieve_4096():
    return af.build_sieve(4096)


@pytest.fixture(scope="module")
def sieve_2048():
    return af.build_sieve(2048)


def test_01_mobius_inversion_at_100k(sieve_100k):
    n = 100_000
    start = time.perf_counter()
    u = af.ArithFn.ones(n)
    mu_def = af.make("mobius", sieve_100k)
    assert u.inv() == mu_def
    assert mu_def * u == af.ArithFn.identity(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s; must stay within seconds"
    _report(1, f"mobius inversion at N={n} ({elapsed:.2f}s)")


def test_02_log_exp_bijectivity_4096():
    n = 4096
    rng = random.Random(1001)
    for _ in range(50):
        a = rand_exact_fn(rng, n, unit=1)
        assert af.dexp(af.dlog(a)) == a
    for _ in range(50):
        m = rand_exact_fn(rng, n, unit=0)
        assert af.dlog(af.dexp(m)) == m
    _report(2, "dexp/dlog round trips, 50+50 random functions at N=4096")


def test_03_homomorphism_laws_2048():
    n = 2048
    rng = random.Random(1002)
    for _ in range(50):
        a = rand_exact_fn(rng, n, unit=1)
        b = rand_exact_fn(rng, n, unit=1)
        assert af.dlog(a * b) == af.dlog(a) + af.dlog(b)
        assert af.psi(a * b) == af.psi(a) + af.psi(b)
        x = rand_exact_fn(rng, n, unit=0)
        y = rand_exact_fn(rng, n, unit=0)
        assert af.dexp(x + y) == af.dexp(x) * af.dexp(y)
    _report(3, "log/exp/psi homomorphism laws, 50 random pairs at N=2048")


def test_04_psi_structure_theorem_4096(sieve_4096):
    n = 4096
    mult = [
        af.make("u", sieve_4096),
        af.make("mobius", sieve_4096),
        af.make("phi", sieve_4096),
        af.make("liouville", sieve_4096),
        af.make("d", sieve_4096),
        af.make("sigma", sieve_4096, c=1),
        af.make("sigma", sieve_4096, c=2),
        af.make("N", sieve_4096),
    ]
    for m in mult:
        assert af.is_additive(af.psi(m)).ok
    assert af.psi_inv(af.psi(af.make("phi", sieve_4096))) == af.make("phi", sieve_4096)
    for name in ("nu", "Omega"):
        a = af.make(name, sieve_4096)
        assert af.is_multiplicative(af.psi_inv(a)).ok
    rng = random.Random(1003)
    for _ in range(25):
        m = rand_multiplicative(rng, sieve_4096, n)
        assert af.psi_inv(af.psi(m)) == m
    _report(4, "psi carries multiplicative<->additive; 25 exact round trips at N=4096")


def test_05_convolution_test_agrees_with_pair_scan(sieve_2048):
    n = 2048
    catalogue = [
        af.make(name, sieve_2048)
        for name in ("I", "u", "mobius", "phi", "liouville", "d", "N", "nu", "Omega")
    ] + [af.make("sigma", sieve_2048, c=1), af.make("mangoldt", sieve_2048, af.COMPLEX)]
    for fn in catalogue:
        assert af.mobius_additivity_test(fn, sieve_2048).ok == af.is_additive(fn).ok
    rng = random.Random(1004)
    disagreements = 0
    for _ in range(100):
        a = rand_additive(rng, sieve_2048, n)
        pair, conv = af.is_additive(a), af.mobius_additivity_test(a, sieve_2048)
        assert pair.ok and conv.ok
        disagreements += pair.ok != conv.ok
    non_additive_seen = 0
    for _ in range(100):
        a = rand_exact_fn(rng, n)
        pair, conv = af.is_additive(a), af.mobius_additivity_test(a, sieve_2048)
        disagreements += pair.ok != conv.ok
        non_additive_seen += not pair.ok
    assert disagreements == 0
    assert non_additive_seen == 100  # this seed produces only non-additive tables
    _report(5, "additivity via mu-convolution == pair scan, 200 random + catalogue at N=2048")


def test_06_structure_round_trips_10k(sieve_10k):
    n = 10_000
    mult = {
        "u": af.make("u", sieve_10k),
        "mu": af.make("mobius", sieve_10k),
        "phi": af.make("phi", sieve_10k),
        "lambda": af.make("liouville", sieve_10k),
        "d": af.make("d", sieve_10k),
        "sigma_1": af.make("sigma", sieve_10k, c=1),
    }
    decs = {}
    for name, fn in mult.items():
        decs[name] = af.bell_decompose_mult(fn, sieve_10k)
        assert af.bell_reconstruct_mult(decs[name], sieve_10k) == fn, name

    # closed-form coefficient expansions, prime by prime
    expected = {
        "u": lambda p, k: 1,
        "mu": lambda p, k: (1, -1)[k] if k <= 1 else 0,
        "phi": lambda p, k: 1 if k == 0 else p**k - p ** (k - 1),
        "lambda": lambda p, k: (-1) ** k,
        "d": lambda p, k: k + 1,
        "sigma_1": lambda p, k: (p ** (k + 1) - 1) // (p - 1),
    }
    n_dec = af.bell_decompose_mult(af.make("N", sieve_10k), sieve_10k)
    for p in sieve_10k.primes:
        for name, coeff in expected.items():
            got = decs[name].series_for(p).coeffs
            assert got == tuple(coeff(p, k) for k in range(len(got))), (name, p)
        gotn = n_dec.series_for(p).coeffs
        assert gotn == tuple(p**k for k in range(len(gotn)))

    for name in ("nu", "Omega"):
        fn = af.make(name, sieve_10k)
        assert af.additive_reconstruct(af.additive_decompose(fn, sieve_10k), sieve_10k) == fn
    rng = random.Random(1005)
    for _ in range(50):
        a = rand_additive(rng, sieve_10k, n)
        assert af.additive_reconstruct(af.additive_decompose(a, sieve_10k), sieve_10k) == a
    _report(6, "Bell and prime-support round trips + closed-form coefficients at N=10000")


def test_07_series_truncation_exactness_4096():
    # b(1) = 0 gives b**(K+1) = 0 on 1..N for K = floor(log2 N); every
    # series term past K is a convolution multiple of it, so it is zero too
    n = 4096
    k = 12
    rng = random.Random(1006)
    i, zero = af.ArithFn.identity(n), af.ArithFn.zeros(n)
    b = af.ArithFn.ones(n) - i
    assert b ** (k + 1) == zero
    assert (b**k)[n] == 1  # and term K is needed: 4096 = 2**12
    for _ in range(5):
        a = rand_exact_fn(rng, n, unit=1)
        assert (a - i) ** (k + 1) == zero
        m = rand_exact_fn(rng, n, unit=0)
        assert m ** (k + 1) == zero
    _report(7, "(a - I)**13 and m**13 vanish at N=4096, so the 12-term series are exact")


def test_08_float_identities_10k(sieve_10k):
    n = 10_000
    tol = 1e-9
    u = af.ArithFn.ones(n, af.COMPLEX)
    lam = af.make("mangoldt", sieve_10k, af.COMPLEX)
    conv = u * lam
    assert all(abs(conv[k] - math.log(k)) <= tol for k in range(1, n + 1))
    from_deriv = af.make("mobius", sieve_10k, af.COMPLEX) * u.deriv()
    assert all(abs(from_deriv[k] - lam[k]) <= tol for k in range(1, n + 1))

    rng = random.Random(1007)
    for _ in range(10):
        a = rand_complex_fn(rng, n, unit=1.0)
        lhs = af.dlog(a).deriv()
        rhs = a.deriv() * a.inv()
        assert all(abs(lhs[k] - rhs[k]) <= tol for k in range(1, n + 1))
    for _ in range(10):
        m = rand_complex_fn(rng, n, unit=0.0)
        e = af.dexp(m)
        lhs = e.deriv()
        rhs = m.deriv() * e
        assert all(abs(lhs[k] - rhs[k]) <= tol for k in range(1, n + 1))
    _report(8, "float identities (u*Lambda=ln, Lambda=mu*u', log'/exp') at N=10000, 1e-9")


def test_09_pinned_witnesses(sieve_4096):
    nu = af.make("nu", sieve_4096)
    phi = af.make("phi", sieve_4096)
    for _ in range(2):  # deterministic across repeated runs
        assert af.is_multiplicative(nu).witness == (2, 3)
        assert af.is_additive(phi).witness == (2, 3)
    _report(9, "is_multiplicative(nu) and is_additive(phi) both report witness (2,3)")


def test_10_cli_golden_files_and_exit_codes(capsys):
    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    code, out = run("table", "psi(u)", "--n", "12", "--backend", "rational")
    assert code == 0 and out == (GOLDEN / "table_psi_u_n12.txt").read_text()
    code, out = run("check", "additive", "nu", "--n", "1000")
    assert code == 0 and out == (GOLDEN / "check_additive_nu_n1000.txt").read_text()
    code, out = run("verify", "identities", "--n", "1000", "--tol", "1e-9")
    assert code == 0 and out == (GOLDEN / "verify_identities_n1000.txt").read_text()

    code, _ = run("check", "additive", "phi", "--n", "100")
    assert code == 1  # predicate false
    code, _ = run("eval", "psi(u", "4")
    assert code == 2  # parse error
    code, _ = run("eval", "log(nu)", "5")
    assert code == 2  # domain error
    _report(10, "CLI golden outputs byte-match; exit codes 0/1/2 as specified")
