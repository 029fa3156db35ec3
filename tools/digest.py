"""Print one sha256 digest per (op, input, N), per (structure call,
input, N) and per CLI call of the arithfn found in SRC_DIR.

Usage:  python3 tools/digest.py SRC_DIR > digests.txt

Running it on two source trees and diffing the outputs checks that a
change keeps every result: a digest covers ``repr(values())``, so value
types count, and for complex tables also the bits of the stored array.
An op that raises digests its exception type and message instead, after
the type's name.

Ops: inv, dlog, dexp, psi, psi_inv, * and + (with the table itself and
with a fixed partner), scale, dump_csv and dump_json.  dlog and psi get
the input divided by a(1); dexp and psi_inv get it with a(1) set to 0.
Inputs: the catalogue, 2 . u, u + I, seeded tables shaped like the
rational-series benchmark operands, 1/n, sigma_6, and complex phi and mu.

Structure calls, on the same inputs, on phi and on nu + Omega each with
+1 planted at the largest k <= N that is not a prime power (so the
product and sum laws fail there, and a multiplicativity or additivity
check must name the least failing pair), and on each exact one
converted to the complex backend: the five predicates (ok, kind, witness,
witness_kind and constants), ``bell_decompose_mult`` and
``additive_decompose`` (every series or entry) and the reconstruction
of each decomposition, all given the sieve explicitly.  Complex values
also digest their bits.  Malformed decompositions close the structure
lines, at N = 50: a Bell series at a composite, above the bound,
missing, or repeated (after and before the first), a float Bell
coefficient, a series too short, a constant term 2, two bad series in
either order (the one given first is named), Bell primes 10**30, -3
and 1, a series longer than needed (accepted), an empty series, prime 3
missing with a constant term 2 at 11 (11 is named) and list-typed
coefficients (accepted); a prime support with a composite base, a float
key, the key 10**30, numpy-int keys or, from JSON, one key given twice;
and at N = 100 the support keys (2, 0) and (2, 7).  Any exception they
raise is digested, so a tree that fails with an IndexError on one of
them still prints every line.

Lookups: per key p in LOOKUP_KEYS, one digest of ``series_for(p)``,
of ``get(p, k)`` over every k in LOOKUP_EXPONENTS and of
``series_at(p, length)`` over LOOKUP_LENGTHS, at N = 4099 in both
backends, on the decompositions of phi and of a sparse additive table
and on the same ones rebuilt by the public constructors.  A key reads
as a dict key of ints does: equal to an int and hashing to it finds it,
anything else misses, and an unhashable key raises TypeError.

Sieves: one digest per bound in SIEVE_BOUNDS of ``repr(sieve)``, its
primes, ``smallest_prime_factor`` and ``is_prime`` over 2..min(N, 4099),
``factorize`` of N and N - 1 and ``prime_power_cap`` of 2, 3, 31 and 37.

Powers: one digest of ``u ** k`` at N = 17 per k in POWERS, bools
included (a bool is no exponent, so it raises).

Routed ops: one digest per product, power or inverse in ``_routed`` of
catalogue tables under int scalars, and chains of them, at each bound in
ROUTE_BOUNDS; a tree may run the products, the powers and the inverses
under a(1) = +-1 per prime.  Their rows reach past int64 (``N ** 3``,
``sigma_6 ** 3``, ``sigma_5 ** 8``).

Complex sigma: one digest of ``make("sigma", sieve, COMPLEX, c=c)`` per
exponent c in SIGMA_EXPONENTS (one or more per route: libm's pow,
CPython's repeated squaring, a complex c, and the non-finite cases, which
raise) at each bound in SIGMA_BOUNDS.

CLI calls: one digest of (exit code, stdout, stderr) per ``cli.main``
call, run in process from a temporary working directory with relative
paths, so two source trees print the same bytes.  They cover every
subcommand, ``table`` in all three formats, the expressions of the
``cli`` benchmark workload (read from bench/workloads.py) at N = 10^4
with its parse, domain and non-finite probes, four file errors (a
missing file and a directory given to ``import``, a missing
``file("...")``, and a ``transform --out`` into a missing directory),
``transform --out`` to a ``.JSON`` and to an unsuffixed path, each read
back by ``import``, ``verify`` with a NaN tolerance,
log and psi of a table with a(1) = 2 rescaled in the DSL by ``1/2 .``
in both backends, and one call per removed option (``--eps``,
``--normalize-unit``, ``transform --format``), a usage error (exit 2)
where the option is gone.
An exception that escapes ``main`` is digested as exit 1 with its type
and message on stderr, which is what the interpreter would report after
the traceback.

Standard library and numpy only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

BOUNDS = (1, 2, 17, 1023, 1024, 1025, 4099)
CLI_N = "10000"
SIGMA_BOUNDS = (1, 1024, 4099, 10**5)
SIGMA_EXPONENTS = (0.5, 1.5, 2.5, 1 / 3, Fraction(1, 3), Fraction(5, 2), -0.5, 101, -60.5,
                   0, 2, 2.0, -3, 100, -64, -100, 1j, 0.5 + 1j,
                   float("nan"), float("inf"), float("-inf"), 1000)
POWERS = (0, 1, 2, True, False)
ROUTE_BOUNDS = (1024, 1025, 4099)
SIEVE_BOUNDS = (1, 2, 3, 4, 9, 1023, 1024, 1025, 4099, 10**5)
# (label, key): labels, not reprs, so the lines do not depend on numpy's repr
LOOKUP_KEYS = (("2", 2), ("2.0", 2.0), ("int64(2)", np.int64(2)), ("Fraction(2)", Fraction(2)),
               ("2+0j", 2 + 0j), ("True", True), ("'2'", "2"), ("2.5", 2.5), ("None", None),
               ("-2", -2), ("10**30", 10**30), ("3", 3), ("4", 4), ("4093", 4093),
               ("4099", 4099), ("[2]", [2]), ("array([2])", np.array([2])))
LOOKUP_EXPONENTS = (1, 2, 3, 11, True, 1.0, np.int64(2), Fraction(1), 1 + 0j, "1", 1.5, None,
                    -1, 0, 10**30, [1])
LOOKUP_LENGTHS = (2, 5, 14)  # >= 2: below that, a tree need not read the key p at all


def _series_table(af, seed: int, n: int, first):
    """About a fifth zeros, the rest p/q with q in {1, 2, 3}."""
    rng = random.Random(seed)
    vals = [first] + [
        0 if rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
        for _ in range(n - 1)
    ]
    return af.ArithFn.from_values(vals)


def _inputs(af, sieve) -> dict:
    n = sieve.bound
    u, one = af.ArithFn.ones(n), af.ArithFn.identity(n)
    tables = {name: af.make(name, sieve) for name in af.catalogue.NAMES if name not in ("mangoldt", "sigma")}
    tables.update({
        "sigma_6": af.make("sigma", sieve, c=6),
        "2.u": u.scale(2),
        "u+I": u + one,
        "1/n": af.ArithFn.from_values([1] + [Fraction(1, k) for k in range(2, n + 1)]),
        "complex_phi": af.make("phi", sieve, af.COMPLEX),
        "complex_mu": af.make("mobius", sieve, af.COMPLEX),
    })
    for seed, first in ((1, 1), (2, Fraction(-5, 3)), (3, Fraction(1, 6)), (4, 0)):
        tables[f"series_{seed}"] = _series_table(af, seed, n, first)
    return tables


def _planted(af, sieve) -> dict:
    """phi and nu + Omega with +1 at the largest k <= N that is not a
    prime power (k = 1 at N <= 2)."""
    n = sieve.bound
    k = next(k for k in range(n, 0, -1) if len(sieve.factorize(k)) != 1)
    out = {}
    for name, a in (("phi", af.make("phi", sieve)),
                    ("nu+Omega", af.make("nu", sieve) + af.make("Omega", sieve))):
        vals = list(a.values())
        vals[k - 1] += 1
        out[f"planted_{name}"] = af.ArithFn.from_values(vals)
    return out


def _ops(af, a, partner):
    n, backend = a.bound, a.backend
    one = af.ArithFn.identity(n, backend)
    a1 = a[1]
    unit = a if a1 == 0 else a.scale((1.0 if backend is af.COMPLEX else Fraction(1)) / a1)
    zero = a - one.scale(a1)
    r = 0.75 - 0.5j if backend is af.COMPLEX else Fraction(-4, 3)
    return {
        "inv": a.inv,
        "dlog": lambda: af.dlog(unit),
        "dexp": lambda: af.dexp(zero),
        "psi": lambda: af.psi(unit),
        "psi_inv": lambda: af.psi_inv(zero),
        "a*a": lambda: a * a,
        "a*p": lambda: a * partner,
        "a+a": lambda: a + a,
        "a+p": lambda: a + partner,
        "scale": lambda: a.scale(r),
        "dump_csv": lambda: af.io.dump_csv(a),
        "dump_json": lambda: af.io.dump_json(a),
    }


def _structure(af, a, sieve) -> dict:
    """The five predicates of a, its two decompositions and their
    reconstructions, each with the sieve passed explicitly."""
    return {
        "multiplicative": lambda: af.is_multiplicative(a),
        "additive": lambda: af.is_additive(a),
        "completely-multiplicative": lambda: af.is_completely_multiplicative(a, sieve),
        "completely-additive": lambda: af.is_completely_additive(a, sieve),
        "additive-mobius": lambda: af.mobius_additivity_test(a, sieve),
        "bell": lambda: af.bell_decompose_mult(a, sieve),
        "bell_rec": lambda: af.bell_reconstruct_mult(af.bell_decompose_mult(a, sieve), sieve),
        "support": lambda: af.additive_decompose(a, sieve),
        "support_rec": lambda: af.additive_reconstruct(af.additive_decompose(a, sieve), sieve),
    }


def _malformed(af, sieve) -> dict:
    """Reconstructions of decompositions that break their invariants, at
    N = 50, where 4**3 and 53**2 pass the length check (and at N = 100 on
    a sieve to 100); each is built inside its call, so an error the
    constructor raises is its outcome."""
    u = af.bell_decompose_mult(af.ArithFn.ones(50), sieve).series
    again = (af.BellSeries(2, (1, 7, 7, 7, 7, 7)),)
    short = af.BellSeries(7, (1,))  # 7**2 <= 50 needs three coefficients
    two = af.BellSeries(3, (2, 1, 1, 1))
    sieve100 = af.build_sieve(100)

    def bell(series):
        return lambda: af.bell_reconstruct_mult(af.BellDecomposition(50, af.RATIONAL, series), sieve)

    def replaced(bad):
        """u with its series at bad.prime replaced by ``bad``."""
        return tuple(bad if s.prime == bad.prime else s for s in u)

    rest = tuple(s for s in u if s.prime not in (short.prime, two.prime))

    def support(entries, n=50):
        return lambda: af.additive_reconstruct(af.PrimeSupport(n, af.RATIONAL, entries),
                                               sieve100 if n == 100 else sieve)

    return {
        "bell_at_composite": bell(u + (af.BellSeries(4, (1, 5, 5)),)),
        "bell_missing_prime": bell(tuple(s for s in u if s.prime != 5)),
        "bell_above_bound": bell(u + (af.BellSeries(53, (1, 1)),)),
        "bell_repeated_prime_last": bell(u + again),
        "bell_repeated_prime_first": bell(again + u),
        "bell_float_coeff": bell((af.BellSeries(2, (1, 0.5, 1, 1, 1, 1)),) + u[1:]),
        "bell_too_short": bell(replaced(short)),
        "bell_constant_term_2": bell(replaced(two)),
        "bell_two_bad_short_first": bell((short, two) + rest),
        "bell_two_bad_constant_first": bell((two, short) + rest),
        "bell_prime_10**30": bell(u + (af.BellSeries(10**30, (1, 1)),)),
        "bell_prime_-3": bell(u + (af.BellSeries(-3, (1, 1)),)),
        "bell_prime_1": bell(u + (af.BellSeries(1, (1, 1)),)),
        "bell_longer_than_needed": bell(replaced(af.BellSeries(7, (1, 2, 3, 4, 5)))),
        "bell_empty_coeffs": bell(replaced(af.BellSeries(3, ()))),
        "bell_missing_3_constant_2_at_11": bell(
            tuple(s for s in replaced(af.BellSeries(11, (2, 1))) if s.prime != 3)),
        "bell_list_coeffs": bell(tuple((s.prime, list(s.coeffs)) for s in u)),
        "support_at_composite": support({(2, 1): 1, (6, 1): 1}),
        "support_float_key": support({(2.0, 1): 1}),
        "support_key_(2,0)_at_100": support({(3, 1): 1, (2, 0): 1}, 100),
        "support_key_(2,7)_at_100": support({(3, 1): 1, (2, 7): 1}, 100),
        "support_key_10**30": support({(3, 1): 1, (10**30, 1): 1}),
        "support_numpy_int_keys": support({(np.int64(3), np.int64(2)): 1, (2, 1): Fraction(1, 2),
                                           (np.int32(5), 1): -4}),
        "support_json_repeated_key": lambda: af.additive_reconstruct(af.PrimeSupport.from_json_obj(
            [{"p": 2, "k": 1, "value": "1"}, {"p": 2, "k": 1, "value": "5"}], 50, af.RATIONAL), sieve),
    }


def _lookups(af, sieve) -> dict:
    """label -> the outcomes of one key's lookups as text, on views and
    constructor-built decompositions at the sieve's bound."""
    n = sieve.bound
    gaps = {(p, k): Fraction((p + k) % 3 - 1, k)  # zero, so a missing row, at a third of them
            for p in sieve.primes for k in range(1, n.bit_length()) if p**k <= n}
    sparse = af.additive_reconstruct(af.PrimeSupport(n, af.RATIONAL, gaps), sieve)
    out = {}
    for backend in (af.RATIONAL, af.COMPLEX):
        prefix = "complex_" if backend is af.COMPLEX else ""
        dec = af.bell_decompose_mult(af.make("phi", sieve, backend), sieve)
        view = af.additive_decompose(sparse.to_backend(backend), sieve)
        decs = {"view(phi)": dec, "built(phi)": af.BellDecomposition(n, backend, dec.series)}
        supports = {"view(sparse)": view,
                    "built(sparse)": af.PrimeSupport(n, backend, dict(view.items()))}
        for key, p in LOOKUP_KEYS:
            for name, d in decs.items():  # coeffs alone: a numpy key's repr varies with numpy
                out[f"series_for\t{prefix}{name}\t{key}"] = repr(
                    _attempt(lambda: d.series_for(p).coeffs))
            for name, g in supports.items():
                out[f"get\t{prefix}{name}\t{key}"] = repr(
                    [_attempt(lambda: g.get(p, k)) for k in LOOKUP_EXPONENTS])
                out[f"series_at\t{prefix}{name}\t{key}"] = repr(
                    [_attempt(lambda: g.series_at(p, m)) for m in LOOKUP_LENGTHS])
    return out


def _routed(af, sieve) -> dict:
    """Products, powers and inverses of catalogue tables scaled by ints."""
    u, mu, phi, lam, d, N, one = (af.make(name, sieve) for name in
                                   ("u", "mobius", "phi", "liouville", "d", "N", "I"))
    sigma_1, sigma_5, sigma_6 = (af.make("sigma", sieve, c=c) for c in (1, 5, 6))
    return {
        "u * phi": lambda: u * phi,
        "3 . phi * -7 . d": lambda: phi.scale(3) * d.scale(-7),
        "inv(-u)": lambda: (-u).inv(),
        "inv(phi)": lambda: phi.inv(),
        "inv(3 . phi)": lambda: phi.scale(3).inv(),
        "phi ** 0": lambda: phi**0,
        "phi ** 1": lambda: phi**1,
        "phi ** 2": lambda: phi**2,
        "d ** 3": lambda: d**3,
        "N ** 3": lambda: N**3,
        "sigma_6 ** 3": lambda: sigma_6**3,
        "sigma_5 ** 8": lambda: sigma_5**8,
        "-mu * sigma_1 ** 2": lambda: -mu * sigma_1**2,
        "lambda * lambda * I": lambda: lam * lam * one,
        "2**70 . u * -9 . N": lambda: u.scale(2**70) * N.scale(-9),
        "(phi * d) ** 3": lambda: (phi * d) ** 3,
        "inv(phi ** 2) * N": lambda: (phi**2).inv() * N,
        "inv(u) * inv(u)": lambda: u.inv() * u.inv(),
        "inv(d)": lambda: d.inv(),
        "inv(N)": lambda: N.inv(),
        "inv(mu)": lambda: mu.inv(),
        "inv(-lambda)": lambda: (-lam).inv(),
        "inv(sigma_1)": lambda: sigma_1.inv(),
    }


def _sieve_text(sieve) -> str:
    """What the public reads of a sieve give, as text."""
    n = sieve.bound
    small = range(2, min(n, 4099) + 1)
    return repr((repr(sieve), sieve.primes,
                 [sieve.smallest_prime_factor(k) for k in small],
                 [sieve.is_prime(k) for k in small],
                 [_attempt(lambda: sieve.factorize(m)) for m in (n, n - 1)],  # factorize(0) raises
                 [sieve.prime_power_cap(p) for p in (2, 3, 31, 37)]))


def _attempt(run):
    """run()'s value, or the type and message of what it raises."""
    try:
        return run()
    except Exception as e:  # noqa: BLE001  (an error is an outcome)
        return (type(e).__name__, str(e))


def _complex_bits(values) -> bytes:
    return np.array([v for v in values if isinstance(v, complex)], dtype=np.complex128).view(
        np.uint64).tobytes()


def _digest(af, result) -> str:
    h = hashlib.sha256()
    if isinstance(result, str):
        h.update(result.encode())
    elif isinstance(result, af.CheckResult):
        r = result
        h.update(repr((r.ok, r.kind, r.witness, r.witness_kind, r.constants)).encode())
        h.update(_complex_bits((r.constants or {}).values()))
    elif isinstance(result, af.BellDecomposition):
        h.update(repr([(s.prime, s.coeffs) for s in result.series]).encode())
        h.update(_complex_bits(c for s in result.series for c in s.coeffs))
    elif isinstance(result, af.PrimeSupport):
        h.update(repr(result.items()).encode())
        h.update(_complex_bits(v for _, v in result.items()))
    else:
        h.update(repr(result.values()).encode())
        if result.backend is af.COMPLEX:
            h.update(np.ascontiguousarray(result._v).view(np.uint64).tobytes())
    return h.hexdigest()


def _outcome(af, run, errors) -> str:
    """The digest of run(), or of the error it raises: an error is a result too."""
    try:
        return _digest(af, run())
    except errors as e:
        name = type(e).__name__
        return f"error {name} " + hashlib.sha256(f"{name}: {e}".encode()).hexdigest()


def _cli_calls(wl) -> list:
    """argv lists: the ``cli`` workload's requests at N = 10^4 (``wl`` is
    bench/workloads.py), the other subcommands and the error cases."""
    named = {"scaled": "3 . phi * u", "file": f'file("{wl.INPUT_FILE}") * u'}
    evals = [named.get(e, e) for e, _ in wl.EVAL_EXPRS]
    tables = dict.fromkeys(evals + [named.get(e, e) for e, _, _ in wl.TABLE_EXPRS])
    calls = [["eval", e, i, "--n", CLI_N] for e in evals for i in ("1", "9973", CLI_N)]
    calls += [["table", e, "--n", CLI_N, "--format", fmt]
              for e in tables for fmt in ("text", "csv", "json")]
    calls += [["check", kind, e, "--n", CLI_N] for kind, e, _, _ in wl.CHECKS]
    calls += [["bell", e, "--prime", p, "--n", CLI_N]
              for e, _, _ in wl.BELL_EXPRS for p in ("2", "97")]
    for i, (op, e, fmt, _) in enumerate(wl.TRANSFORMS):
        path = f"t{i}.{fmt}"
        calls += [["transform", op, e, "--n", CLI_N, "--out", path], ["import", path],
                  ["table", f'file("{path}")', "--n", CLI_N, "--format", fmt]]
    calls += [
        ["verify", "identities", "--n", CLI_N],
        ["verify", "identities", "--n", "100", "--tol", "1e-18"],
        ["verify", "identities", "--n", "100", "--tol", "nan"],
        ["eval", "psi(u)", "4"],
        ["eval", "u", "11", "--n", "10"],
        ["table", "u", "--n", "0"],
        ["check", "multiplicative", "sigma(5/2)", "--backend", "complex", "--n", "2000"],
        ["table", "deriv(u)", "--n", "10"],
        ["bell", "nu", "--prime", "2", "--n", "100"],
        ["bell", "phi", "--prime", "6", "--n", "100"],
        ["table"],
        list(wl.PARSE_ERROR), list(wl.DOMAIN_ERROR), list(wl.NON_FINITE),
        # file errors
        ["import", "nonexistent.csv"],
        ["import", "adir"],
        ["table", 'file("nope.csv")'],
        ["transform", "psi", "phi", "--out", "no/such/dir/x.csv"],
        # the output format follows the --out suffix, as import reads it
        ["transform", "psi", "phi", "--n", "50", "--out", "up.JSON"],
        ["import", "up.JSON"],
        ["transform", "psi", "phi", "--n", "50", "--out", "plain"],
        ["import", "plain"],
        # a(1) = 2 rescaled in the DSL, then the removed options
        *(["eval", f"{op}(1/2 . (u + I))", "6", "--n", "100", *backend]
          for op in ("log", "psi") for backend in ([], ["--backend", "complex"])),
        ["eval", "log(u + I)", "6", "--n", "100", "--normalize-unit"],
        ["eval", "inv(u)", "6", "--n", "100", "--eps", "1e-9"],
        ["transform", "psi", "phi", "--n", "50", "--out", "x.csv", "--format", "json"],
    ]
    return calls


def _run_cli(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception as e:  # noqa: BLE001  (the interpreter would print a traceback)
            code = 1
            err.write(f"{type(e).__name__}: {e}\n")
    return code, out.getvalue(), err.getvalue()


def _cli_digests() -> None:
    import arithfn.cli

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads as wl

    rng = random.Random(1)
    rows = "".join(f"{k},{rng.randint(-9, 9)}\n" for k in range(1, int(CLI_N) + 1))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(wl.INPUT_FILE).write_text("n,value\n" + rows, encoding="utf-8")
            Path("adir").mkdir()
            for argv in _cli_calls(wl):
                result = _run_cli(arithfn.cli.main, argv)
                line = hashlib.sha256(repr(result).encode()).hexdigest()
                print(f"cli\t{result[0]}\t{' '.join(argv)}\t{line}", flush=True)
        finally:
            os.chdir(cwd)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[3], file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    import arithfn as af
    import arithfn.catalogue  # noqa: F401  (af.catalogue.NAMES)
    import arithfn.io  # noqa: F401

    for n in BOUNDS:
        sieve = af.build_sieve(n)
        tables = _inputs(af, sieve)
        partners = {af.RATIONAL: tables["series_1"], af.COMPLEX: tables["complex_mu"]}
        for name, a in tables.items():
            for op, run in _ops(af, a, partners[a.backend]).items():
                print(f"{op}\t{name}\t{n}\t{_outcome(af, run, af.ArithfnError)}", flush=True)
        for name, a in {**tables, **_planted(af, sieve)}.items():
            both = [(name, a)] if a.backend is af.COMPLEX else [
                (name, a), (f"complex({name})", a.to_backend(af.COMPLEX))]
            for label, b in both:
                for op, run in _structure(af, b, sieve).items():
                    print(f"structure\t{op}\t{label}\t{n}\t{_outcome(af, run, ValueError)}",
                          flush=True)
    for n in SIEVE_BOUNDS:
        print(f"sieve\t{n}\t{_digest(af, _sieve_text(af.build_sieve(n)))}", flush=True)
    sieve = af.build_sieve(50)
    for name, run in _malformed(af, sieve).items():
        print(f"structure\t{name}\t50\t{_outcome(af, run, Exception)}", flush=True)
    sieve = af.build_sieve(4099)
    for label, text in _lookups(af, sieve).items():
        print(f"lookup\t{label}\t4099\t{_digest(af, text)}", flush=True)
    u = af.ArithFn.ones(17)
    for k in POWERS:
        print(f"pow\t{k!r}\tu\t17\t{_outcome(af, lambda: u**k, ValueError)}", flush=True)
    for n in ROUTE_BOUNDS:
        for label, run in _routed(af, af.build_sieve(n)).items():
            print(f"route\t{label}\t{n}\t{_outcome(af, run, af.ArithfnError)}", flush=True)
    sieve = af.build_sieve(max(SIGMA_BOUNDS))
    for n in SIGMA_BOUNDS:
        for c in SIGMA_EXPONENTS:
            run = lambda: af.make("sigma", sieve, af.COMPLEX, c=c, bound=n)  # noqa: E731
            print(f"sigma\t{c!r}\t{n}\t{_outcome(af, run, af.ArithfnError)}", flush=True)
    _cli_digests()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
