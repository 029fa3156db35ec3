"""The four workloads: request lists made from a seed, set-up, execution
and checks.

A workload's request list is one *pass*.  The seed fixes every operand,
scalar, index and prime and the order of the pass; the kinds of request
and their sizes are the same for every seed, so runs with different
seeds measure the same mix.  The benchmark repeats the pass, so every
pass holds the same requests.

Every result is checked after its timed span ends, against a closed form
or an invariant computed by :mod:`oracles` (or, for the series laws, the
law itself), never against a second call of the same code path.

Requests that expose a known defect of the program carry its name in
``probe``.  They stay in the mix and count as failures while the defect
is there.
"""

from __future__ import annotations

import json
import operator
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

N4, N5, N6 = 10**4, 10**5, 10**6

#: Tolerance of the complex-backend predicates and checks.
TOL = 1e-9

MULT = ("u", "mu", "phi", "lambda", "d", "N", "sigma1")
DENSE = ("u", "phi", "lambda", "d", "N", "sigma1")

PROBE_SIGMA = "sigma_5/2 multiplicativity verdict (complex tolerance)"
PROBE_NONFINITE = "non-finite complex output exits 0"

_CATALOGUE_NAME = {"lambda": "liouville", "sigma1": "sigma"}


@dataclass(frozen=True)
class Request:
    op: str
    args: tuple
    probe: str | None = None


def _scalar(rng) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _unit(rng) -> int:
    return rng.choice((-1, 1))


def _complex(rng) -> tuple[float, float]:
    r = rng.uniform(0.5, 2.0)
    t = rng.uniform(0.0, 6.283185307179586)
    z = r * complex(np.cos(t), np.sin(t))
    return (z.real, z.imag)


class Workload:
    """One workload; subclasses define the requests and how to run and
    check them."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.requests = self.generate(random.Random(f"{self.name}:{seed}"))

    def generate(self, rng) -> list[Request]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, req: Request, tracer):
        raise NotImplementedError

    def check(self, req: Request, result) -> str | None:
        """None when the result is right, else what is wrong."""
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """This process's own peak RSS.

        VmHWM belongs to the address space, which exec replaces, whereas
        ru_maxrss also holds the peak of the process that started this one.
        """
        status = Path("/proc/self/status")
        if status.is_file():
            for line in status.read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def extra_layer_metrics(self) -> dict:
        return {}

    def close(self) -> None:
        """Stop whatever set-up started."""


def _ints(fn) -> list | None:
    vals = list(fn.values())
    return vals if all(type(v) is int for v in vals) else None


def _same_ints(fn, expected: np.ndarray) -> str | None:
    vals = _ints(fn)
    if vals is None:
        return "values are not all canonical ints"
    want = expected[1:].tolist()
    if vals != want:
        n = next(i for i, (x, y) in enumerate(zip(vals, want), start=1) if x != y)
        return f"value at n={n}: got {vals[n - 1]}, want {want[n - 1]}"
    return None


def _unit_array(n: int, dtype) -> np.ndarray:
    e = np.zeros(n + 1, dtype=dtype)
    e[1] = 1
    return e


def _predicate_result(res) -> tuple:
    return (bool(res.ok), res.witness)


# predicate kind -> (arithfn function, whether it takes a sieve)
PREDICATE_FUNCTIONS = {
    "multiplicative": ("is_multiplicative", False),
    "additive": ("is_additive", False),
    "completely-multiplicative": ("is_completely_multiplicative", True),
    "completely-additive": ("is_completely_additive", True),
    "additive-mobius": ("mobius_additivity_test", True),
}


def _run_predicate(af, kind, a, sieve, **kwargs):
    name, takes_sieve = PREDICATE_FUNCTIONS[kind]
    if takes_sieve:
        kwargs["sieve"] = sieve
    return getattr(af, name)(a, **kwargs)


# ---------------------------------------------------------------------------
# exact-ring
# ---------------------------------------------------------------------------


class ExactRing(Workload):
    name = "exact-ring"
    why = ("int-only rational-backend ring traffic at N=1e5 with a 1e6 share: "
           "convolution, inverse, powers, predicates, decompositions; no transcend calls")

    # Most requests are products, so the median latency falls among them
    # and not at the edge of the faster cluster of predicates and inverses.
    PREDICATES = (
        # (kind, operand pool, scaled) -- scaled operands break the property
        ("multiplicative", MULT, False),
        ("multiplicative", MULT, False),
        ("multiplicative", MULT, True),
        ("completely-multiplicative", oracles.COMPLETELY_MULTIPLICATIVE, False),
        ("completely-multiplicative", ("mu", "phi", "d", "sigma1"), False),
        ("additive", "addcomb", False),
        ("additive", MULT, False),
        ("completely-additive", "omega", False),
        ("additive-mobius", "addcomb", False),
        ("additive-mobius", MULT, False),
    )

    def generate(self, rng):
        reqs = []
        for i in range(15):
            left = rng.choice(DENSE) if i < 12 else "mu"
            reqs.append(Request("conv", (("cat", N5, left, _scalar(rng)),
                                         ("cat", N5, rng.choice(DENSE), _scalar(rng)))))
        for _ in range(5):
            reqs.append(Request("inv", (("cat", N5, rng.choice(MULT), _unit(rng)),)))
        for k in (2, 2, 3):
            # not sigma_1: its cube would outgrow the int64 check
            base = rng.choice(("u", "mu", "phi", "lambda", "d", "N"))
            reqs.append(Request("pow", (("cat", N5, base, _unit(rng)), k)))
        for kind, pool, scaled in self.PREDICATES:
            if pool == "addcomb":
                operand = ("addcomb", N5, _scalar(rng), _scalar(rng))
            elif pool == "omega":
                operand = ("addcomb", N5, 0, _scalar(rng))
            else:
                c = rng.choice((2, 3, 5, 7)) * _unit(rng) if scaled else 1
                operand = ("cat", N5, rng.choice(pool), c)
            reqs.append(Request("predicate", (kind, operand)))
        for _ in range(3):
            reqs.append(Request("bell", (("cat", N5, rng.choice(MULT), 1),)))
        for _ in range(2):
            reqs.append(Request("prime_support", (("addcomb", N5, _scalar(rng), _scalar(rng)),)))
        reqs.append(Request("verify", (N4,)))
        reqs.append(Request("inv", (("cat", N6, "u", _unit(rng)),)))
        rng.shuffle(reqs)
        return reqs

    def setup(self):
        import arithfn as af

        self.af = af
        self.sieves = {N4: af.build_sieve(N4), N6: af.build_sieve(N6)}
        # Every table, whatever the seed, so that set-up time and memory do
        # not depend on it; requests take their scalar multiples themselves.
        self.tables = {
            (name, N5): af.make(_CATALOGUE_NAME.get(name, name), self.sieves[N6],
                                c=1 if name == "sigma1" else None, bound=N5)
            for name in MULT + ("nu", "Omega")
        }
        self.tables[("u", N6)] = af.make("u", self.sieves[N6])

    def _operand(self, spec):
        kind, n = spec[0], spec[1]
        if kind == "cat":
            _, _, name, c = spec
            fn = self.tables[(name, n)]
            return fn if c == 1 else fn.scale(c)
        _, _, c1, c2 = spec
        return self.tables[("nu", n)].scale(c1) + self.tables[("Omega", n)].scale(c2)

    def run(self, req, tracer):
        af, op, s = self.af, req.op, self.sieves[N6]
        if op == "conv":
            return self._operand(req.args[0]) * self._operand(req.args[1])
        if op == "inv":
            return self._operand(req.args[0]).inv()
        if op == "pow":
            return self._operand(req.args[0]) ** req.args[1]
        if op == "predicate":
            kind, spec = req.args
            return _run_predicate(af, kind, self._operand(spec), s)
        if op == "bell":
            dec = af.bell_decompose_mult(self._operand(req.args[0]), s)
            return dec, af.bell_reconstruct_mult(dec, s)
        if op == "prime_support":
            g = af.additive_decompose(self._operand(req.args[0]), s)
            return g, af.additive_reconstruct(g, s)
        if op == "verify":
            return af.verify_identities(self.sieves[N4])
        raise ValueError(op)

    @staticmethod
    def _arr(fn):
        return oracles.to_array(fn, np.int64)

    def check(self, req, result):
        op = req.op
        if op == "conv":
            a, b = (self._operand(s) for s in req.args)
            return _same_ints(result, oracles.conv(self._arr(a), self._arr(b), a.bound))
        if op == "inv":
            spec = req.args[0]
            a = self._operand(spec)
            if a.bound == N6:  # (s u)^-1 = s mu
                return _same_ints(result, spec[3] * oracles.mobius(N6))
            if _ints(result) is None:
                return "values are not all canonical ints"
            prod = oracles.conv(self._arr(a), self._arr(result), a.bound)
            return _differs_from_unit(prod)
        if op == "pow":
            spec, k = req.args
            a = self._arr(self._operand(spec))
            want = a
            for _ in range(k - 1):
                want = oracles.conv(want, a, spec[1])
            return _same_ints(result, want)
        if op == "predicate":
            kind, spec = req.args
            want = oracles.expected_predicate(
                kind, [0] + list(self._operand(spec).values()), spec[1], operator.eq,
                **_theory(kind, spec))
            got = _predicate_result(result)
            return None if got == want else f"got {got}, want {want}"
        if op == "bell":
            return self._check_bell(req.args[0], *result)
        if op == "prime_support":
            return self._check_prime_support(req.args[0], *result)
        if op == "verify":
            want = ["PASS " + x for x in VERIFY_NAMES]
            return None if result.lines() == want else f"got {result.lines()}"
        raise ValueError(op)

    def _check_bell(self, spec, dec, rec):
        _, n, name, _ = spec
        coeff = oracles.BELL[name]
        primes = [p for p, k, _ in oracles.prime_powers(n) if k == 1]
        if [s.prime for s in dec.series] != primes:
            return "series primes differ from the primes <= N"
        for p, k, pk in oracles.prime_powers(n):
            got = dec.series_for(p).coeffs
            if len(got) <= k or got[k] != coeff(p, k) or got[0] != 1:
                return f"series at p={p}: coefficient {k} is wrong"
        if rec.values() != self._operand(spec).values():
            return "reconstruction differs from the input"
        return None

    def _check_prime_support(self, spec, g, rec):
        _, n, c1, c2 = spec
        want = {}
        for p, k, _ in oracles.prime_powers(n):
            v = c1 + c2 if k == 1 else c2
            if v:
                want[(p, k)] = v
        if dict(g.items()) != want:
            return "prime-support entries differ from g(p,1)=c1+c2, g(p,k)=c2"
        if rec.values() != self._operand(spec).values():
            return "reconstruction differs from the input"
        return None


def _differs_from_unit(prod: np.ndarray) -> str | None:
    bad = np.flatnonzero(prod[1:] != _unit_array(len(prod) - 1, prod.dtype)[1:])
    return None if bad.size == 0 else f"a * a.inv() differs from I at n={int(bad[0]) + 1}"


def _theory(kind: str, spec) -> dict:
    """What theory guarantees for a predicate on an operand spec."""
    if spec[0] in ("addcomb", "caddcomb"):
        c1 = spec[2]
        additive = {"additive": True, "additive-mobius": True,
                    "completely-additive": c1 == 0}
        return {"known": additive.get(kind, False),
                "known_base": kind == "completely-additive"}
    if spec[0] == "sigma":
        return {"known": kind == "multiplicative", "known_base": True}
    name, c = spec[2], spec[3]
    mult = name in MULT and c in (1, (1.0, 0.0))
    return {
        "known": (kind == "multiplicative" and mult)
        or (kind == "completely-multiplicative" and mult
            and name in oracles.COMPLETELY_MULTIPLICATIVE),
        "known_base": kind == "completely-multiplicative" and mult,
    }


VERIFY_NAMES = ("u", "mu", "phi", "lambda", "Lambda", "d", "N", "sigma_1", "nu", "Omega")


# ---------------------------------------------------------------------------
# rational-series
# ---------------------------------------------------------------------------


LAWS = ("exp_log", "log_hom", "psi_hom", "exp_hom", "psi_roundtrip")
# (operands, value at index 1) per law
_LAW_OPERANDS = {
    "exp_log": (1, 1), "log_hom": (2, 1), "psi_hom": (2, 1),
    "exp_hom": (2, 0), "psi_roundtrip": (1, 1),
}


class RationalSeries(Workload):
    name = "rational-series"
    why = ("Fraction-heavy, transcend-dominated traffic: one exact log/exp/psi law "
           "per request on dense random rationals at N in {1024, 2048, 4096}")

    def generate(self, rng):
        reqs = []
        for n, reps in ((1024, 5), (2048, 2), (4096, 1)):
            for law in LAWS:
                count, first = _LAW_OPERANDS[law]
                for _ in range(reps):
                    ops = tuple(("rand", n, first, rng.getrandbits(32)) for _ in range(count))
                    reqs.append(Request(law, ops))
        rng.shuffle(reqs)
        return reqs

    def setup(self):
        import arithfn as af

        self.af = af
        self.operands = {spec: self._operand(spec) for req in self.requests for spec in req.args}

    def _operand(self, spec):
        # about a fifth zeros; the rest p/q with q in {1, 1, 2, 3}
        _, n, first, sub = spec
        rng = random.Random(sub)
        vals = [first]
        for _ in range(n - 1):
            if rng.random() < 0.2:
                vals.append(0)
            else:
                vals.append(Fraction(_scalar(rng), rng.choice((1, 1, 2, 3))))
        return self.af.ArithFn.from_values(vals)

    def run(self, req, tracer):
        af = self.af
        ops = [self.operands[s] for s in req.args]
        law = req.op
        if law == "exp_log":
            return af.dexp(af.dlog(ops[0])), ops[0]
        if law == "log_hom":
            a, b = ops
            return af.dlog(a * b), af.dlog(a) + af.dlog(b)
        if law == "psi_hom":
            a, b = ops
            return af.psi(a * b), af.psi(a) + af.psi(b)
        if law == "exp_hom":
            x, y = ops
            return af.dexp(x + y), af.dexp(x) * af.dexp(y)
        if law == "psi_roundtrip":
            return af.psi_inv(af.psi(ops[0])), ops[0]
        raise ValueError(law)

    def check(self, req, result):
        lhs, rhs = result
        if lhs.values() == rhs.values():
            return None
        n = next(i for i, (x, y) in enumerate(zip(lhs.values(), rhs.values()), 1) if x != y)
        return f"law {req.op} fails at n={n}"


# ---------------------------------------------------------------------------
# complex-float
# ---------------------------------------------------------------------------


CMULT = ("u", "mu", "phi", "lambda", "d", "N")
CDENSE = ("u", "phi", "lambda", "d", "N")
ADDITIVE_C = ("nu", "Omega", "Lambda")  # value 0 at index 1
SIGMA_EXPONENTS = (0.5, 1.5, 2.5, Fraction(1, 3), Fraction(5, 2), -0.5)
_COMPLEX_NAME = {"lambda": "liouville", "Lambda": "mangoldt"}


class ComplexFloat(Workload):
    name = "complex-float"
    why = ("complex-backend float traffic at N=1e5 (log/exp at 1e4): convolution, "
           "inverse, derivative, Lambda, sigma_c, toleranced predicates; no Fraction code")

    def generate(self, rng):
        one = (1.0, 0.0)
        reqs = [Request("conv", (("ccat", N5, "u", one), ("ccat", N5, "Lambda", one)))
                for _ in range(2)]
        for _ in range(9):
            reqs.append(Request("conv", (("ccat", N5, rng.choice(CDENSE), _complex(rng)),
                                         ("ccat", N5, rng.choice(CMULT + ("Lambda",)),
                                          _complex(rng)))))
        for _ in range(5):
            reqs.append(Request("inv", (("ccat", N5, rng.choice(CMULT), _complex(rng)),)))
        for _ in range(3):
            reqs.append(Request("deriv", (("ccat", N5, rng.choice(CMULT), _complex(rng)),)))
        reqs += [Request("lambda", (N5,)) for _ in range(2)]
        for _ in range(3):
            reqs.append(Request("sigma", (N5, rng.choice(SIGMA_EXPONENTS))))
        preds = [
            ("multiplicative", ("ccat", N5, rng.choice(CMULT), one)),
            ("multiplicative", ("ccat", N5, rng.choice(CMULT), one)),
            ("multiplicative", ("ccat", N5, "Lambda", one)),
            ("multiplicative", ("ccat", N5, rng.choice(CDENSE), _complex(rng))),
            ("completely-multiplicative", ("ccat", N5, rng.choice(("u", "lambda", "N")), one)),
            ("completely-multiplicative", ("ccat", N5, rng.choice(("u", "lambda", "N")), one)),
            ("completely-multiplicative", ("ccat", N5, rng.choice(("mu", "phi", "d")), one)),
            ("additive", ("caddcomb", N5, _scalar(rng), _scalar(rng))),
            ("additive", ("ccat", N5, rng.choice(CMULT), one)),
            ("completely-additive", ("caddcomb", N5, 0, _scalar(rng))),
            ("additive-mobius", ("caddcomb", N5, _scalar(rng), _scalar(rng))),
        ]
        reqs += [Request("predicate", p) for p in preds]
        # sigma_c is multiplicative for every c; the seed's absolute
        # tolerance says otherwise at N = 20000
        reqs.append(Request("predicate", ("multiplicative", ("sigma", 20000, Fraction(5, 2))),
                            probe=PROBE_SIGMA))
        for _ in range(3):
            reqs.append(Request("dlog", (("ccomb", N4, rng.choice(CMULT), _complex(rng),
                                          rng.choice(ADDITIVE_C)),)))
        for _ in range(2):
            reqs.append(Request("dexp", (("ccat", N4, rng.choice(ADDITIVE_C), _complex(rng)),)))
        rng.shuffle(reqs)
        return reqs

    def setup(self):
        import arithfn as af

        self.af = af
        self.sieve = af.build_sieve(N5)
        self._tables = {}
        self.operands = {}
        for req in self.requests:
            for spec in req.args:
                if isinstance(spec, tuple) and spec not in self.operands:
                    self.operands[spec] = self._operand(spec)

    def _table(self, name, n, c=None):
        key = (name, n, c)
        if key not in self._tables:
            if name in ("sigma", "sigma1"):
                name, c = "sigma", 1 if c is None else c
            self._tables[key] = self.af.make(_COMPLEX_NAME.get(name, name), self.sieve,
                                             self.af.COMPLEX, c=c, bound=n)
        return self._tables[key]

    def _operand(self, spec):
        kind, n = spec[0], spec[1]
        if kind == "ccat":
            _, _, name, z = spec
            fn = self._table(name, n)
            return fn if z == (1.0, 0.0) else fn.scale(complex(*z))
        if kind == "ccomb":
            _, _, name, z, g = spec
            return self._table(name, n) + self._table(g, n).scale(complex(*z))
        if kind == "caddcomb":
            _, _, c1, c2 = spec
            return self._table("nu", n).scale(c1) + self._table("Omega", n).scale(c2)
        if kind == "sigma":
            return self._table("sigma", n, spec[2])
        raise ValueError(kind)

    def run(self, req, tracer):
        af, op = self.af, req.op
        if op == "conv":
            return self.operands[req.args[0]] * self.operands[req.args[1]]
        if op == "inv":
            return self.operands[req.args[0]].inv()
        if op == "deriv":
            return self.operands[req.args[0]].deriv()
        if op == "lambda":
            return af.make("Lambda", self.sieve, af.COMPLEX, bound=req.args[0])
        if op == "sigma":
            n, c = req.args
            return af.make("sigma", self.sieve, af.COMPLEX, c=c, bound=n)
        if op == "predicate":
            kind, spec = req.args
            return _run_predicate(af, kind, self.operands[spec], self.sieve, tol=TOL)
        if op == "dlog":
            return af.dlog(self.operands[req.args[0]]).deriv()
        if op == "dexp":
            return af.dexp(self.operands[req.args[0]])
        raise ValueError(op)

    @staticmethod
    def _arr(fn):
        return oracles.to_array(fn, np.complex128)

    def check(self, req, result):
        op = req.op
        if op == "predicate":
            kind, spec = req.args
            vals = [0j] + list(self.operands[spec].values())
            want = oracles.expected_predicate(
                kind, vals, spec[1], lambda x, y: abs(x - y) <= TOL, **_theory(kind, spec))
            got = _predicate_result(result)
            return None if got == want else f"got {got}, want {want}"
        got = self._arr(result)
        n = result.bound
        logn = np.log(np.maximum(np.arange(n + 1), 1))
        if op == "conv":
            a, b = (self._arr(self.operands[s]) for s in req.args)
            want = oracles.conv(a, b, n)
            scale = oracles.conv(np.abs(a), np.abs(b), n)
            unscaled = all(s[3] == (1.0, 0.0) for s in req.args)
            if (req.args[0][2], req.args[1][2]) == ("u", "Lambda") and unscaled \
                    and not oracles.close(got, logn.astype(np.complex128), TOL):
                return "u * Lambda differs from ln n"
            return None if oracles.close(got, want, TOL, scale) else "differs from a * b"
        if op == "inv":
            a = self._arr(self.operands[req.args[0]])
            prod = oracles.conv(a, got, n)
            scale = oracles.conv(np.abs(a), np.abs(got), n)
            return None if oracles.close(prod, _unit_array(n, np.complex128), TOL, scale) \
                else "a * a.inv() differs from I"
        if op == "deriv":
            a = self._arr(self.operands[req.args[0]])
            return None if oracles.close(got, a * logn, TOL) else "differs from a(n) ln n"
        if op == "lambda":
            want = np.zeros(n + 1)
            for p, _, pk in oracles.prime_powers(n):
                want[pk] = np.log(p)
            return None if oracles.close(got, want.astype(np.complex128), TOL) \
                else "differs from log p at prime powers"
        if op == "sigma":
            c = float(req.args[1])
            d, m = oracles.pair_index(n)
            want = np.zeros(n + 1)
            np.add.at(want, d * m, d.astype(float) ** c)
            return None if oracles.close(got, want.astype(np.complex128), TOL) \
                else "differs from the divisor-power sum"
        if op == "dlog":
            # dlog(a)' = a' * a^-1, checked as a * dlog(a)' = a'
            a = self._arr(self.operands[req.args[0]])
            lhs = oracles.conv(a, got, n)
            scale = oracles.conv(np.abs(a), np.abs(got), n)
            return None if oracles.close(lhs, a * logn, TOL, scale) \
                else "a * dlog(a)' differs from a'"
        if op == "dexp":
            # exp(x)' = x' * exp(x)
            x = self._arr(self.operands[req.args[0]])
            rhs = oracles.conv(x * logn, got, n)
            scale = oracles.conv(np.abs(x * logn), np.abs(got), n)
            return None if oracles.close(got * logn, rhs, TOL, scale) \
                else "dexp(x)' differs from x' * dexp(x)"
        raise ValueError(op)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _square_indicator(n):
    out = [0] * (n + 1)
    k = 1
    while k * k <= n:
        out[k * k] = 1
        k += 1
    return out


def _psi_phi(p, k):
    # log of phi's Bell series (1 - x)/(1 - p x) is sum_j (p^j - 1)/j x^j,
    # and psi = u * log sums it up to k
    return sum(Fraction(p**j - 1, j) for j in range(1, k + 1))


def _log_mu(n):
    # dlog(mu): the log of mu's Bell series 1 - x is -sum_k x^k / k
    out = [0] * (n + 1)
    for p, k, pk in oracles.prime_powers(n):
        out[pk] = oracles.canon(Fraction(-1, k))
    return out


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# closed forms of the CLI expressions, as tables [0, f(1), ..., f(n)]
CLI_TABLES = {
    "u * phi": lambda n: oracles.catalogue("N", n),
    "mu * N": lambda n: oracles.catalogue("phi", n),
    "sigma(1) * mu": lambda n: oracles.catalogue("N", n),
    "inv(u) * inv(u)": lambda n: oracles.multiplicative(
        n, lambda p, k: (-2, 1)[k - 1] if k <= 2 else 0),
    "psi(phi) + psi(phi)": lambda n: oracles.additive(n, lambda p, k: 2 * _psi_phi(p, k)),
    "psi(phi)": lambda n: oracles.additive(n, _psi_phi),
    "pow(u, 2) + 3 . I": lambda n: [v + (3 if i == 1 else 0)
                                   for i, v in enumerate(oracles.catalogue("d", n))],
    "lambda_liouville * u": _square_indicator,
    "log(mu)": _log_mu,
    # psi_inv(nu) = dexp(mu * nu), and mu * nu is 1 on primes: exp(x) per prime
    "psiinv(nu)": lambda n: oracles.multiplicative(n, lambda p, k: Fraction(1, _factorial(k))),
}


def _text_table(vals):
    return "".join(f"{i}\t{v}\n" for i, v in enumerate(vals) if i)


def _csv_table(vals):
    return "n,value\n" + "".join(f"{i},{v}\n" for i, v in enumerate(vals) if i)


def _json_table(vals):
    return json.dumps({"bound": len(vals) - 1, "backend": "rational",
                       "values": [str(v) for v in vals[1:]]}) + "\n"


_FORMATS = {"text": _text_table, "csv": _csv_table, "json": _json_table}

EVAL_EXPRS = (
    ("u * phi", N5), ("mu * N", N5), ("pow(u, 2) + 3 . I", N4), ("inv(u) * inv(u)", N5),
    ("psi(phi) + psi(phi)", N4), ("scaled", N5), ("sigma(1) * mu", N5),
    ("lambda_liouville * u", N5),
)
TABLE_EXPRS = (
    ("u * phi", "text", N5), ("u * phi", "csv", N4), ("u * phi", "json", N4),
    ("mu * N", "csv", N5), ("inv(u) * inv(u)", "csv", N5), ("psi(phi) + psi(phi)", "text", N4),
    ("sigma(1) * mu", "json", N5), ("lambda_liouville * u", "text", N5),
    ("file", "csv", N5), ("scaled", "json", N4),
)
CHECKS = (
    ("multiplicative", "phi", N5, "multiplicative: true"),
    ("additive", "nu", N5, "additive: true"),
    ("completely-multiplicative", "mu", N5,
     "completely-multiplicative: false witness=(p=2,k=2)"),
    ("multiplicative", "nu", N5, "multiplicative: false witness=(2,3)"),
    ("completely-additive", "Omega", N4, "completely-additive: true"),
    ("additive-mobius", "Omega", N4, "additive-mobius: true"),
    ("completely-multiplicative", "lambda_liouville", N5, "completely-multiplicative: true"),
)
BELL_EXPRS = (("phi", "phi", N5), ("d", "d", N4), ("N", "N", N5), ("sigma(1)", "sigma1", N4))
TRANSFORMS = (("psi", "phi", "csv", "psi(phi)"), ("log", "mu", "json", "log(mu)"),
              ("psiinv", "nu", "csv", "psiinv(nu)"))
INPUT_FILE = "in.csv"
# requests that must exit 2; the last one exits 0 printing inf-nanj at the seed
PARSE_ERROR = ("table", "u * * phi", "--n", str(N4))
DOMAIN_ERROR = ("eval", "log(2 . u)", "5", "--n", str(N4))
NON_FINITE = ("table", "pow(1000 . u + I, 200)", "--backend", "complex", "--n", str(N4))


class Cli(Workload):
    name = "cli"
    why = ("python -m arithfn per request at N in {1e4, 1e5}: the only workload that "
           "runs expr, io, process start and the CLI's repeated sieve builds")

    def generate(self, rng):
        units = []
        for expr, n in EVAL_EXPRS:
            if expr == "scaled":
                expr = f"{rng.randint(2, 9)} . phi * u"
            units.append([Request("cli", ("eval", expr, str(rng.randint(1, n)), "--n", str(n)))])
        for expr, fmt, n in TABLE_EXPRS:
            if expr == "scaled":
                expr = f"{rng.randint(2, 9)} . phi * u"
            elif expr == "file":
                expr = f'file("{INPUT_FILE}") * u'
            units.append([Request("cli", ("table", expr, "--n", str(n), "--format", fmt))])
        for kind, expr, n, _ in CHECKS:
            units.append([Request("cli", ("check", kind, expr, "--n", str(n)))])
        for expr, _, n in BELL_EXPRS:
            p = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
            units.append([Request("cli", ("bell", expr, "--prime", str(p), "--n", str(n)))])
        units += [[Request("cli", ("verify", "identities", "--n", str(N4)))] for _ in range(2)]
        for i, (op, expr, fmt, _) in enumerate(TRANSFORMS):
            path = f"t{i}.{fmt}"
            units.append([Request("cli", ("transform", op, expr, "--n", str(N4), "--out", path)),
                          Request("cli", ("import", path))])
        units.append([Request("cli", PARSE_ERROR)])
        units.append([Request("cli", DOMAIN_ERROR)])
        units.append([Request("cli", NON_FINITE, probe=PROBE_NONFINITE)])
        rng.shuffle(units)
        self.input_values = [rng.randint(-9, 9) for _ in range(N5)]
        return [r for unit in units for r in unit]

    def setup(self):
        from arithfn import ArithFn
        from arithfn.io import write_csv

        self.workdir.mkdir(parents=True, exist_ok=True)
        for f in self.workdir.iterdir():
            if f.is_file():
                f.unlink()
        write_csv(ArithFn.from_values(self.input_values), self.workdir / INPUT_FILE)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        bench = Path(__file__).resolve().parent
        self.shim = str(bench / "traceshim.py")
        self.launcher = subprocess.Popen(
            [sys.executable, str(bench / "launcher.py")], cwd=self.workdir, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # set-up ends when the launcher is up, not while it still boots
        if self.launcher.stdout.readline() != "READY\n":
            raise RuntimeError("launcher.py did not start")
        self._expected = {}
        self.max_child_rss_kb = 0
        self.startup_s = 0.0
        self.traced_requests = 0
        self.sieve_builds = 0

    def close(self):
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def run(self, req, tracer):
        argv = list(req.args)
        if tracer is None:
            cmd = [sys.executable, "-m", "arithfn", *argv]
        else:
            spans_file = self.workdir / "spans.jsonl"
            cmd = [sys.executable, self.shim, str(spans_file), *argv]
        job = {"cmd": cmd, "stdout": str(self.workdir / "stdout.txt"),
               "stderr": str(self.workdir / "stderr.txt"), "timeout": 150}
        t0 = time.perf_counter()
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        wall = time.perf_counter() - t0
        self.max_child_rss_kb = max(self.max_child_rss_kb, reply["maxrss_kb"])
        if tracer is not None:
            self._merge_spans(tracer, spans_file, wall)
        return reply["returncode"]

    def _merge_spans(self, tracer, path, wall):
        from tracer import read_spans

        spans = read_spans(path)
        path.unlink()
        base = len(tracer.spans)
        for s in spans:
            s.parent = s.parent + base if s.parent >= 0 else -1
            s.request = tracer.request
        tracer.spans.extend(spans)
        self.traced_requests += 1
        self.sieve_builds += sum(1 for s in spans if s.name == "sieve.build")
        self.startup_s += wall - sum(s.end - s.start for s in spans if s.parent < 0)

    def extra_layer_metrics(self):
        n = max(self.traced_requests, 1)
        return {"cli.sieve_builds_per_request": self.sieve_builds / n,
                "cli.startup_s": self.startup_s / n}

    def peak_rss_kb(self):
        return self.max_child_rss_kb

    def check(self, req, returncode):
        stdout = (self.workdir / "stdout.txt").read_text(encoding="utf-8")
        stderr = (self.workdir / "stderr.txt").read_text(encoding="utf-8")
        want_code, want_out = self._expect(req)
        if returncode != want_code:
            return f"exit {returncode}, want {want_code}; stdout {stdout[:80]!r}"
        if want_code == 2:
            if stdout or not stderr.startswith("error:"):
                return f"exit 2 without an 'error:' diagnostic: {stderr[:200]!r}"
            return None
        if stdout != want_out:
            return f"stdout differs from the closed form: {stdout[:80]!r}"
        if req.args[0] == "transform":
            path = self.workdir / req.args[-1]
            text = path.read_text(encoding="utf-8") if path.exists() else None
            if text != self._expect_file(req):
                return "written file differs from the closed form"
        return None

    def _table(self, expr, n):
        key = (expr, n)
        if key not in self._expected:
            if expr.startswith("file("):
                vals = oracles.conv(np.array([0] + self.input_values, dtype=np.int64),
                                    np.ones(N5 + 1, dtype=np.int64), N5)[: n + 1].tolist()
            elif expr.endswith(". phi * u"):
                c = int(expr.split()[0])
                vals = [c * v for v in oracles.catalogue("N", n)]
            else:
                vals = CLI_TABLES[expr](n)
            self._expected[key] = vals
        return self._expected[key]

    def _expect_file(self, req):
        _, op, expr, _, n, _, path = req.args
        key = next(k for o, e, _, k in TRANSFORMS if (o, e) == (op, expr))
        vals = self._table(key, int(n))
        return _json_table(vals) if path.endswith(".json") else _csv_table(vals)

    def _expect(self, req) -> tuple[int, str]:
        a = req.args
        cmd = a[0]
        if a in (PARSE_ERROR, DOMAIN_ERROR, NON_FINITE):
            return 2, ""
        if cmd == "eval":
            return 0, f"{self._table(a[1], int(a[4]))[int(a[2])]}\n"
        if cmd == "table":
            return 0, _FORMATS[a[5]](self._table(a[1], int(a[3])))
        if cmd == "check":
            line = next(out for kind, expr, _, out in CHECKS if (kind, expr) == (a[1], a[2]))
            return (0 if line.endswith("true") else 1), line + "\n"
        if cmd == "bell":
            name = next(name for expr, name, _ in BELL_EXPRS if expr == a[1])
            p, n = int(a[3]), int(a[5])
            coeffs = [1] + [oracles.BELL[name](p, k) for k in range(1, _cap(p, n) + 1)]
            return 0, json.dumps({"prime": p, "coeffs": [str(c) for c in coeffs]}) + "\n"
        if cmd == "verify":
            return 0, "".join(f"PASS {x}\n" for x in VERIFY_NAMES)
        if cmd == "transform":
            return 0, ""
        if cmd == "import":
            path = a[1]
            key = next(k for i, (_, _, fmt, k) in enumerate(TRANSFORMS) if path == f"t{i}.{fmt}")
            vals = self._table(key, N4)
            nonzero = sum(1 for v in vals[1:] if v)
            return 0, f"bound={N4} backend=rational nonzero={nonzero}\n"
        raise ValueError(cmd)


def _cap(p, n):
    k, pk = 0, 1
    while pk * p <= n:
        pk *= p
        k += 1
    return k


WORKLOADS = {w.name: w for w in (ExactRing, RationalSeries, ComplexFloat, Cli)}
