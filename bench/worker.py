"""One workload in one process: set up, print READY, measure, print the result.

Run by ``run.py``, which times set-up from this process's start to the
READY line.  With ``--setup-only`` the process exits after READY.

The measurement is a closed loop with one client: the next request is
sent when the previous one has returned and been checked.  Right before
and right after each request this process prints CAL and waits while
run.py times its reference loop.  Whole passes over the request list run
until ``--seconds`` have elapsed, and at least MIN_PASSES of them, so
that every run holds enough samples for the tail percentile that run.py
fixes from that minimum.  With ``--trace 1`` the passes run
untraced until half of ``--seconds`` have elapsed, then the same number
of passes run traced; the traced run gives the per-layer figures and the
ratio of the two throughputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: An untraced run holds at least this many passes.
MIN_PASSES = 2


def calibrate() -> None:
    """Let run.py time its reference loop while this process waits."""
    sys.stdout.write("CAL\n")
    sys.stdout.flush()
    if sys.stdin.readline() != "GO\n":
        raise SystemExit("run.py went away")


def measure(wl, seconds: float, tracer=None, passes: int | None = None,
            min_passes: int = 1) -> dict:
    latencies: list[float] = []
    failures: list[dict] = []
    done = 0
    start = time.perf_counter()
    while True:
        for index, req in enumerate(wl.requests):
            if tracer is not None:
                tracer.request = len(latencies)
            calibrate()
            t0 = time.perf_counter()
            try:
                result = wl.run(req, tracer)
                error = None
            except Exception as e:  # a failed request is counted, not fatal
                result, error = None, e
            latencies.append(time.perf_counter() - t0)
            calibrate()
            detail = f"raised {error!r}" if error is not None else wl.check(req, result)
            del result
            if detail is not None:
                failures.append({"pass": done, "index": index, "request": repr(req),
                                 "probe": req.probe, "detail": str(detail)[:400]})
        done += 1
        if passes is not None and done >= passes:
            break
        if passes is None and done >= min_passes and time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "failures": failures, "passes": done}


def layer_metrics(agg: dict, passes: int, requests: list, failures: list, extra: dict) -> dict:
    """Per-layer metrics, per pass, from aggregated spans; the names are the
    ``per_layer`` list of BENCHMARK.json."""

    def per_pass(layer, key):
        return agg.get(layer, {}).get(key, 0) / passes

    def total(layers, key):
        return sum(agg.get(layer, {}).get(key, 0) for layer in layers)

    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = per_pass(layer, "self_s")
        out[f"{layer}.calls"] = per_pass(layer, "calls")
    for layer in KERNELS:
        out[f"{layer}.pairs"] = per_pass(layer, "pairs")
    for layer in KERNELS[:2]:
        pairs = agg.get(layer, {}).get("pairs", 0)
        out[f"{layer}.ns_per_pair"] = agg[layer]["self_s"] / pairs * 1e9 if pairs else 0.0
    exact = total(KERNELS, "exact_calls")
    out["dirichlet.exact_int_ratio"] = total(KERNELS, "exact_int_calls") / exact if exact else 0.0
    d_total = total(KERNELS, "d_total")
    out["dirichlet.zero_skip_ratio"] = total(KERNELS, "d_skipped") / d_total if d_total else 0.0
    out["structure.predicate.pairs_scanned"] = per_pass("structure.predicate", "pairs_scanned")
    wrong = sum(1 for f in failures if requests[f["index"]].op == "predicate")
    out["structure.verdict_wrong"] = wrong / passes
    out["expr.eval.nodes"] = per_pass("expr.eval", "nodes")
    out["expr.eval.repeat_nodes"] = per_pass("expr.eval", "repeat_nodes")
    out["io.write.bytes"] = per_pass("io.write", "bytes")
    out["io.read.bytes"] = per_pass("io.read", "bytes")
    out["cli.sieve_builds_per_request"] = 0.0
    out["cli.startup_s"] = 0.0
    out.update(extra)
    return out


KERNELS = ("dirichlet.conv.rational", "dirichlet.conv.complex",
           "dirichlet.inv.rational", "dirichlet.inv.complex")
TIMED_LAYERS = (
    "sieve.build", "catalogue.make", "catalogue.verify",
    "dirichlet.conv.rational", "dirichlet.conv.complex",
    "dirichlet.inv.rational", "dirichlet.inv.complex",
    "dirichlet.pow", "dirichlet.deriv", "dirichlet.pointwise",
    "transcend.dlog", "transcend.dexp", "transcend.psi", "transcend.psi_inv",
    "structure.predicate", "structure.decompose", "structure.reconstruct",
    "expr.parse", "expr.eval", "io.write", "io.read", "cli.main",
)


def run(wl, args, workdir: Path) -> dict:
    out = {"requests_per_pass": len(wl.requests)}
    if not args.trace:
        out.update(measure(wl, args.seconds, min_passes=MIN_PASSES))
        out["rss_kb"] = wl.peak_rss_kb()
    else:
        from tracer import Tracer, aggregate

        plain = measure(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, 0, tracer=tracer, passes=plain["passes"])
        finally:
            tracer.uninstall()
        for f in traced["failures"]:
            f["pass"] += plain["passes"]
        tracer.write(workdir / f"spans-{args.workload}-s{args.seed}.jsonl")
        metrics = layer_metrics(aggregate(tracer.spans), traced["passes"], wl.requests,
                                traced["failures"], wl.extra_layer_metrics())
        metrics["trace.overhead_ratio"] = 0.0  # run.py fills it from calibrated times
        out["plain_requests"] = len(plain["latencies"])
        out["latencies"] = plain["latencies"] + traced["latencies"]
        out["failures"] = plain["failures"] + traced["failures"]
        out["passes"] = plain["passes"] + traced["passes"]
        out["layers"] = metrics
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import arithfn

    if not Path(arithfn.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: arithfn imported from {arithfn.__file__}, not from src/",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir / args.workload)
    try:
        wl.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        out = run(wl, args, workdir)
    finally:
        wl.close()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
