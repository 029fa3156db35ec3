"""Products, powers and inverses of catalogue-made multiplicative tables
per prime.

``catalogue.make`` tags an exact I, u, mu, phi, liouville, d, N and
sigma_c with the table's values at the prime powers.  ``*`` of two
tagged tables, ``**`` of one and ``inv`` of one with a(1) = +-1 run on
those rows and one fold, and tag their result; the inverse of a tagged
table with |a(1)| > 1 runs the inverse kernel and is untagged.  Every
result here must equal the same op on untagged ``ArithFn.from_values``
copies, which run the convolution and inverse kernels, with the same
storage dtype and den.
"""

from fractions import Fraction

import tracemalloc

import numpy as np
import pytest

import arithfn as af
from arithfn import dirichlet
from arithfn import io as fnio
from arithfn.structure import _tag

BOUNDS = [1, 2, 3, 4, 1023, 1024, 1025, 4099]
SCALARS = [1, -1, 3, -7]
#: (label, catalogue name, c): every name make tags, sigma at c = 1 and at
#: c = 6, whose table leaves int64 from n = 1479 on
TAGGED = [("I", "I", None), ("u", "u", None), ("mu", "mobius", None), ("phi", "phi", None),
          ("lambda", "liouville", None), ("d", "d", None), ("N", "N", None),
          ("sigma", "sigma", 1), ("sigma_6", "sigma", 6)]


def plain(a: af.ArithFn) -> af.ArithFn:
    """An untagged copy of a, which every op runs on the table route."""
    return af.ArithFn.from_values(list(a.values()))


def assert_same(got: af.ArithFn, want: af.ArithFn) -> None:
    assert got == want
    assert got._v.dtype == want._v.dtype and got.den == want.den


def scaled(a: af.ArithFn, t: int) -> af.ArithFn:
    return a if t == 1 else a.scale(t)


class Tables(dict):
    """The tagged tables by label, and the sieve that made them as ``sieve``:
    a tag keeps no sieve, so this keeps it alive for the routed ops."""


@pytest.fixture(scope="module", params=BOUNDS)
def tables(request):
    sieve = af.build_sieve(request.param)
    out = Tables((label, af.make(name, sieve, c=c)) for label, name, c in TAGGED)
    out.sieve = sieve
    return out


def test_make_tags_exactly_the_multiplicative_exact_tables(tables):
    sieve = tables.sieve
    for a in tables.values():
        assert a._mult is not None
        assert not a._mult.flags.writeable
    for name in ("nu", "Omega"):
        assert af.make(name, sieve)._mult is None
    for name in ("u", "phi", "mangoldt"):
        assert af.make(name, sieve, af.COMPLEX)._mult is None


@pytest.mark.parametrize("t", SCALARS)
def test_products_powers_and_inverses_equal_the_table_route(tables, t):
    labels = list(tables)
    for i, label in enumerate(labels):
        a = scaled(tables[label], t)
        assert a._mult is not None  # an int scale keeps the rows
        pa = plain(a)
        partner = scaled(tables[labels[(i + 1) % len(labels)]], SCALARS[(i + 2) % 4])
        for b in (a, partner, -partner):  # negation keeps the rows too
            got = a * b
            assert_same(got, pa * plain(b))
            assert got._mult is not None
        for k in (0, 1, 2, 3):
            got = a**k
            assert_same(got, pa**k)
            assert got._mult is not None
        got = a.inv()
        assert_same(got, pa.inv())
        assert (got._mult is not None) == (abs(t) == 1)  # only a(1) = +-1 routes


def test_chains_equal_the_table_route(tables):
    u, phi, d, N, mu = (tables[x] for x in ("u", "phi", "d", "N", "mu"))
    pu, pphi, pd, pN, pmu = map(plain, (u, phi, d, N, mu))
    cases = [
        (u.inv() * u.inv(), pu.inv() * pu.inv()),
        ((phi * d) ** 3, (pphi * pd) ** 3),
        ((phi**2).inv() * N, (pphi**2).inv() * pN),
        ((-u).inv() * phi.scale(3), (-pu).inv() * pphi.scale(3)),
        (phi.scale(3).inv() * d, pphi.scale(3).inv() * pd),  # den 3
        (phi.scale(3).inv() ** 2 * mu.scale(-7).inv(), pphi.scale(3).inv() ** 2 * pmu.scale(-7).inv()),
        ((mu * d).inv() * phi, (pmu * pd).inv() * pphi),
        (-(N * u) * (-d) ** 2, -(pN * pu) * (-pd) ** 2),
    ]
    for got, want in cases:
        assert_same(got, want)


def test_routed_ops_run_no_convolution(tables, monkeypatch):
    phi, d = tables["phi"].scale(3), tables["d"].scale(-7)
    want = [plain(phi) * plain(d), plain(phi) ** 3]

    def refuse(*args):
        raise AssertionError("a tagged product ran the convolution kernel")

    monkeypatch.setattr(dirichlet, "_conv", refuse)
    for got, w in zip((phi * d, phi**3), want):
        assert_same(got, w)


def _refuse(kernel):
    def refuse(*args):
        raise AssertionError(f"a routed op ran {kernel}")

    return refuse


@pytest.mark.parametrize("t", (1, -1))
def test_inverses_under_a_unit_run_no_inverse_kernel(tables, t, monkeypatch):
    want = {label: plain(scaled(a, t)).inv() for label, a in tables.items()}
    monkeypatch.setattr(dirichlet, "_inv", _refuse("the inverse kernel"))
    for label, a in tables.items():
        got = scaled(a, t).inv()
        assert_same(got, want[label])
        assert got._mult is not None


def test_inverse_chains_route_end_to_end(tables, monkeypatch):
    u, phi, d, N, mu = (tables[x] for x in ("u", "phi", "d", "N", "mu"))
    pu, pphi, pd, pN, pmu = map(plain, (u, phi, d, N, mu))
    want = [pu.inv() * pu.inv(), (pphi**2).inv() * pN, (pmu * pd).inv() * pphi,
            (-pu).inv().inv(), (pphi * pd).inv() ** 3]
    monkeypatch.setattr(dirichlet, "_conv", _refuse("the convolution kernel"))
    monkeypatch.setattr(dirichlet, "_inv", _refuse("the inverse kernel"))
    got = [u.inv() * u.inv(), (phi**2).inv() * N, (mu * d).inv() * phi,
           (-u).inv().inv(), (phi * d).inv() ** 3]
    for g, w in zip(got, want):
        assert_same(g, w)
        assert g._mult is not None


def test_a_routed_inverse_allocates_one_step_at_a_time():
    """Once the sieve holds its fold index, (-u)^-1 at 10^6 allocates the
    8 MB result, its rows and one step of the fold's temporaries; the
    inverse kernel peaks near 23 MB."""
    n = 10**6
    sieve = af.build_sieve(n)
    neg = -af.make("u", sieve)
    sieve._fold_index(n)
    tracemalloc.start()
    try:
        got = neg.inv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got._mult is not None and peak < 10 * 2**20, peak
    assert np.array_equal(got._v, -af.make("mobius", sieve)._v)


def test_rows_past_int64_take_object_storage():
    sieve = af.build_sieve(4099)
    N, sigma_6, sigma_5 = af.make("N", sieve), af.make("sigma", sieve, c=6), af.make("sigma", sieve, c=5)
    assert sigma_6._v.dtype == object and sigma_5._v.dtype == np.int64
    u = af.make("u", sieve)
    cases = [
        (N**3, plain(N) ** 3),
        (sigma_6**3, plain(sigma_6) ** 3),
        (sigma_5**8, plain(sigma_5) ** 8),  # 8 sigma_5(p) leaves int64 for p near 4099
        (sigma_5**4 * sigma_5**4, plain(sigma_5) ** 8),
        (sigma_6.scale(-7) * N.scale(3), plain(sigma_6).scale(-7) * plain(N).scale(3)),
        (u.scale(2**70) * N, plain(u).scale(2**70) * plain(N)),  # a scalar past int64
        (sigma_6.inv(), plain(sigma_6).inv()),
        ((-sigma_6).inv(), plain(-sigma_6).inv()),
        ((sigma_5**8).inv(), (plain(sigma_5) ** 8).inv()),
        ((-(sigma_5**8)).inv() * sigma_5, (-plain(sigma_5) ** 8).inv() * plain(sigma_5)),
    ]
    for got, want in cases:
        assert_same(got, want)


def test_large_prime_rows_leave_int64_alone():
    """f(p) = 5 10**18 at the primes p > 64 and 1 at every other prime
    power: at N = 4099 no index has two such primes, so f is an int64
    table, but f(p) + f(p) and 2 f(p) leave int64."""
    sieve = af.build_sieve(4099)
    vals = [max([1] + [5 * 10**18 for p, _ in sieve.factorize(k) if p > 64]) for k in range(1, 4100)]
    f = _tag(af.ArithFn.from_values(vals), sieve)
    assert f._v.dtype == np.int64 and f._mult.dtype == np.int64
    for got, want in ((f * f, plain(f) * plain(f)), (f**2, plain(f) ** 2), (f**3, plain(f) ** 3)):
        assert_same(got, want)
        assert got._mult.dtype == object
    # -f(p) leaves int64 where f(p) = -2**63
    g = _tag(af.ArithFn.from_values([-(2**63) if v > 1 else v for v in vals]), sieve)
    assert g._v.dtype == np.int64 and g._mult.dtype == np.int64
    for got, want in ((g.inv(), plain(g).inv()), ((-g).inv(), plain(-g).inv())):
        assert_same(got, want)
        assert got._mult.dtype == object


def test_untagged_tables(tables, tmp_path):
    u, phi = tables["u"], tables["phi"]
    path = tmp_path / "phi.csv"
    fnio.write_function(phi, path)
    untagged = [
        af.ArithFn.from_values(list(phi.values())),
        af.ArithFn.ones(phi.bound),
        phi + u,
        phi - u,
        phi.scale(Fraction(1, 2)),
        phi.scale(0),
        phi.scale(3).inv(),
        tables["mu"].scale(-7).inv(),
        phi.to_backend(af.COMPLEX),
        fnio.read_function(path),
        phi * plain(u),
        plain(u) * phi,
    ]
    if phi.bound > 1:
        untagged.append(phi.truncate(phi.bound - 1))
    for a in untagged:
        assert a._mult is None
    assert phi.inv()._mult is not None


def test_predicates_never_read_the_tag(tables):
    phi, u = tables["phi"], tables["u"]
    if phi.bound < 6:
        return
    forged = phi + u  # not multiplicative: (phi + u)(1) = 2
    forged._mult = phi._mult
    assert not af.is_multiplicative(forged)
    assert af.is_multiplicative(phi * phi)
    sieve = tables.sieve
    dec = af.bell_decompose_mult(phi * phi, sieve)
    assert af.bell_reconstruct_mult(dec, sieve) == plain(phi) * plain(phi)


def test_the_dsl_routes_through_make_and_the_operators(tables):
    from arithfn.expr import eval_expr, parse_expr

    phi, d = tables["phi"], tables["d"]
    got = eval_expr(parse_expr("pow(3 . phi * -7 . d, 2)"), tables.sieve, af.RATIONAL)
    assert got._mult is not None
    assert_same(got, (plain(phi.scale(3)) * plain(d.scale(-7))) ** 2)
