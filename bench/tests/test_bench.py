"""Tests of the benchmark itself: python -m pytest bench/tests"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import arithfn as af
import arithfn.cli
import oracles
import run
import tracer as tr
import worker
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name, tmp_path):
    cls = WORKLOADS[name]
    a, b, c = cls(7, tmp_path), cls(7, tmp_path), cls(8, tmp_path)
    assert a.requests == b.requests
    assert repr(a.requests) == repr(b.requests)
    assert a.requests != c.requests
    # the seed changes operands and order, not the mix of request kinds
    assert sorted(r.op for r in a.requests) == sorted(r.op for r in c.requests)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_percentile_has_ten_samples_beyond(name, tmp_path):
    per_pass = len(WORKLOADS[name](1, tmp_path).requests)
    q = run.tail_percentile(per_pass)
    for passes in range(worker.MIN_PASSES, worker.MIN_PASSES + 3):
        values = list(range(per_pass * passes))
        beyond = sum(1 for v in values if v > run.percentile(values, q))
        assert beyond >= 10
        if passes == worker.MIN_PASSES:
            assert beyond == 10


def test_percentile_interpolates():
    assert run.percentile([1, 2, 3, 4], 50) == 2.5
    assert run.percentile([5], 99) == 5


def span(name, start, end, parent=-1):
    return tr.Span(name, start, end, parent)


def test_self_time_of_nested_spans():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, 0),
        span("c", 2.0, 5.0, 0),   # overlaps b: covered once
        span("d", 8.0, 12.0, 0),  # runs past its parent: clipped
        span("e", 2.5, 4.0, 2),   # grandchild: only c loses it
        span("f", 20.0, 21.0),
    ]
    assert tr.self_times(spans) == pytest.approx([4.0, 2.0, 1.5, 4.0, 1.5, 1.0])
    agg = tr.aggregate(spans)
    assert agg["a"] == {"calls": 1, "self_s": pytest.approx(4.0)}


def test_same_layer_call_is_part_of_the_open_span():
    t = tr.Tracer()
    inner = t.wrap("io.write", lambda: "x")
    outer = t.wrap("io.write", lambda: inner())
    other = t.wrap("sieve.build", lambda: outer())
    assert other() == "x"
    assert [s.name for s in t.spans] == ["sieve.build", "io.write"]
    assert t.spans[1].parent == 0


def test_count_time_is_not_charged_to_spans():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    leaf = t.wrap("leaf", lambda: None)
    tr.COUNTERS["leaf"] = lambda args, kwargs, result: {"n": 1}
    try:
        root = t.wrap("root", lambda: leaf())
        root()
    finally:
        del tr.COUNTERS["leaf"]
    root_span, leaf_span = t.spans
    assert leaf_span.counts == {"n": 1}
    # clock reads: root start 0, leaf start 1, leaf end 2, count 3..4, root end 5 - 1
    assert (root_span.start, root_span.end) == (0.0, 4.0)
    assert (leaf_span.start, leaf_span.end) == (1.0, 2.0)


def _calls(sieve):
    u = af.make("u", sieve)
    phi = af.make("phi", sieve)
    rnd = af.ArithFn.from_values([1, Fraction(1, 2), 0, -3, Fraction(2, 3), 5, 0, 1])
    z = af.make("phi", sieve, af.COMPLEX)
    return [
        u * phi, phi.inv(), phi ** 3, (u + phi).scale(2), 3 * u,
        af.dlog(rnd), af.dexp(af.dlog(rnd)), af.psi(rnd), af.psi_inv(af.psi(rnd)),
        af.is_multiplicative(phi), af.is_additive(phi),
        af.is_completely_multiplicative(phi, sieve), af.mobius_additivity_test(u, sieve),
        af.bell_reconstruct_mult(af.bell_decompose_mult(phi, sieve), sieve),
        af.verify_identities(sieve).lines(), z * z, z.inv(), z.deriv(),
    ]


def test_wrapped_entry_points_return_what_the_originals_return(tmp_path, capsys):
    sieve = af.build_sieve(8)
    argv = ["table", "psi(phi) + psi(phi)", "--n", "30", "--format", "csv"]
    plain = _calls(sieve)
    assert arithfn.cli.main(argv) == 0
    plain_out = capsys.readouterr().out
    originals = {name: getattr(af, name) for name in ("dlog", "make", "build_sieve")}
    original_mul = af.ArithFn.__mul__
    original_check = arithfn.cli._CHECKS["multiplicative"]

    t = tr.Tracer()
    t.install()
    try:
        assert af.dlog is not originals["dlog"]
        assert arithfn.cli._CHECKS["multiplicative"] is not original_check
        traced = _calls(af.build_sieve(8))
        assert arithfn.cli.main(argv) == 0
        traced_out = capsys.readouterr().out
        with pytest.raises(af.DomainError):
            af.dexp(af.make("u", sieve))
        assert arithfn.cli.main(["eval", "log(2 . u)", "5"]) == 2
    finally:
        t.uninstall()
    assert traced == plain
    assert [type(x) for x in traced] == [type(x) for x in plain]
    assert traced_out == plain_out
    assert {name: getattr(af, name) for name in originals} == originals
    assert af.ArithFn.__mul__ is original_mul
    assert arithfn.cli._CHECKS["multiplicative"] is original_check
    names = {s.name for s in t.spans}
    assert {"dirichlet.conv.rational", "transcend.psi", "structure.predicate",
            "catalogue.verify", "expr.parse", "expr.eval", "io.write", "cli.main"} <= names


def test_ast_counts_repeated_subtrees():
    from arithfn.expr import parse_expr

    assert tr.ast_counts(parse_expr("psi(phi) + psi(phi)")) == (5, 2)
    assert tr.ast_counts(parse_expr("inv(u) * inv(u)")) == (5, 2)
    assert tr.ast_counts(parse_expr("u * phi")) == (3, 0)
    assert tr.ast_counts(parse_expr("u * u")) == (3, 1)


@pytest.mark.parametrize("n", [1, 10, 97, 500])
def test_pairs_scanned_matches_a_direct_count(n):
    pairs = [(m, k) for m in range(2, n + 1) for k in range(m + 1, n // m + 1)
             if math.gcd(m, k) == 1]
    assert tr.pairs_scanned(n, None) == len(pairs)
    for i, w in enumerate(pairs[:20]):
        assert tr.pairs_scanned(n, w) == i + 1


def test_pairs_counted_for_a_convolution():
    sieve = af.build_sieve(50)
    mu, u = af.make("mu", sieve), af.make("u", sieve)
    counts = tr._conv_counts((mu, u), {}, mu * u)
    want = sum(50 // d for d in range(1, 51) if mu[d])
    assert counts["pairs"] == want
    assert counts["d_skipped"] == sum(1 for d in range(1, 51) if not mu[d])
    assert counts["exact_int_calls"] == 1


def test_oracle_convolution_and_closed_forms():
    n = 300
    u = oracles.catalogue("u", n)
    import numpy as np

    arr = np.array(u, dtype=np.int64)
    assert oracles.conv(arr, arr, n)[1:].tolist() == oracles.catalogue("d", n)[1:]
    assert oracles.mobius(n).tolist() == oracles.catalogue("mu", n)
    big = np.array([0] + [2**40] * n, dtype=np.int64)
    assert oracles.conv(big, big, n)[12] == 6 * 2**80  # exact past int64


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(
        {"calibrated": [1.0], "failures": [], "requests_per_pass": 1,
         "setup_s": 1.0, "rss_kb": 1}))
    agg = {}
    layers = worker.layer_metrics(agg, 1, [], [], {})
    layers["trace.overhead_ratio"] = 1.0
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert {m["name"] for m in spec["workloads"]} == set(WORKLOADS)
    for m in spec["workloads"]:
        assert m["why"] == WORKLOADS[m["name"]].why


def test_pairs_scanned_by_a_predicate():
    n = 60
    sieve = af.build_sieve(n)
    all_pairs = tr.pairs_scanned(n, None)
    prime_powers = sum(1 for p, k, _ in oracles.prime_powers(n) if k >= 2)

    def scanned(res, a):
        return tr._predicate_counts((a,), {}, res)["pairs_scanned"]

    phi, nu = af.make("phi", sieve), af.make("nu", sieve)
    assert scanned(af.is_multiplicative(phi), phi) == all_pairs
    assert scanned(af.is_multiplicative(nu), nu) == 1  # fails at (2, 3)
    res = af.is_completely_multiplicative(phi, sieve)
    assert res.witness == (2, 2)
    assert scanned(res, phi) == all_pairs + 1
    u = af.make("u", sieve)
    assert scanned(af.is_completely_multiplicative(u, sieve), u) == all_pairs + prime_powers
    assert scanned(af.mobius_additivity_test(u, sieve), u) == 0
    assert scanned(af.mobius_additivity_test(nu, sieve), nu) == n - 1


def test_launcher_reports_the_request_s_own_peak_rss(tmp_path):
    import subprocess
    import sys

    ballast = bytearray(150 * 2**20)  # this process's peak must not leak into the figure
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    launcher = subprocess.Popen([sys.executable, str(ROOT / "bench" / "launcher.py")],
                                cwd=tmp_path, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True)
    try:
        assert launcher.stdout.readline() == "READY\n"
        job = {"cmd": [sys.executable, "-c", "import sys; sys.exit(3)"],
               "stdout": str(tmp_path / "out"), "stderr": str(tmp_path / "err"), "timeout": 60}
        launcher.stdin.write(json.dumps(job) + "\n")
        launcher.stdin.flush()
        reply = json.loads(launcher.stdout.readline())
    finally:
        launcher.stdin.close()
        launcher.wait(timeout=60)
        launcher.stdout.close()
    assert reply["returncode"] == 3
    assert reply["maxrss_kb"] < 100 * 1024
    del ballast


def test_in_process_peak_rss_is_the_worker_s_own():
    import subprocess
    import sys

    ballast = bytearray(150 * 2**20)  # the parent's peak must not leak into the figure
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from workloads import Workload; "
            "print(Workload.peak_rss_kb(None))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "bench")],
                         capture_output=True, text=True, check=True, timeout=60)
    assert int(out.stdout) < 100 * 1024
    del ballast
