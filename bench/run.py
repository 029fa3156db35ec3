"""arithfn benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload exact-ring --seed 1 --seconds 15 --trace 0

Runs the workload in a child process (``worker.py``), checks every
result, prints each metric by name with its unit and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones.  The full result set, with the
environment, goes to ``.bench_build/arithfn-bench/`` and, with ``--out``,
to a file of your choice.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

from worker import MIN_PASSES
from workloads import TOL, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Set-up is timed this many times per run; setup_s is the median,
#: calibrated by the median of reference loops timed between set-ups.
SETUP_SAMPLES = 5
#: The reference loop, and the time it takes at the nominal speed to which
#: every end-to-end time is scaled.
REF_LENGTH = 60_000
REF_NOMINAL_S = 0.010
#: A run (set-ups included) is stopped after this many seconds.
DEADLINE_S = 170.0


def metric_units() -> dict:
    """Unit of every metric, end-to-end and per-layer, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def percentile(values, q: float) -> float:
    """q-th percentile, linear between the two nearest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(requests_per_pass: int) -> float:
    """The highest percentile with ten samples beyond it in a run of
    MIN_PASSES passes, the fewest a run holds.

    It is fixed per workload, not taken from the run's own sample count,
    so that a faster program, which fits more passes into a run, reports
    the same percentile.
    """
    return 100.0 * (1 - 10 / (MIN_PASSES * requests_per_pass))


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(root / ".git" / ref)
    if value:
        return value.strip()
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int, cpus: set[int]) -> dict:
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    fields = {}
    for line in cpuinfo.splitlines():
        key, _, value = line.partition(":")
        fields.setdefault(key.strip(), value.strip())
    caches = []
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches.append(f"L{level.strip()} {(kind or '').strip()} {size.strip()}")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "cpu_model": fields.get("model name", platform.processor() or "unknown"),
        "cpu_cache_size": fields.get("cache size", "unknown"),
        "caches": caches,
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "tol": TOL,
    }


@functools.cache
def _reference_inputs() -> tuple[list[int], list[int]]:
    return (list(range(10**6, 10**6 + REF_LENGTH)),
            list(range(3 * 10**6, 3 * 10**6 + REF_LENGTH)))


def reference_s() -> float:
    """Seconds the reference loop takes right now.

    The loop has the shape of the library's exact convolution kernel: a
    list comprehension multiplying and adding Python ints.
    """
    a, b = _reference_inputs()
    t0 = time.perf_counter()
    for _ in range(3):
        [x + 7 * y for x, y in zip(a, b)]
    return time.perf_counter() - t0


def calibrated(raw_s: float, refs: list[float]) -> float:
    """``raw_s`` scaled to the speed at which the reference loop takes
    REF_NOMINAL_S; ``refs`` are reference times taken around it."""
    return raw_s * REF_NOMINAL_S / (sum(refs) / len(refs))


class Worker:
    """One worker process.

    Times its start-up to the READY line, then answers each CAL line
    (sent right before and right after every request) by timing the
    reference loop while the worker waits.
    """

    def __init__(self, args, workdir: Path, setup_only: bool, deadline: float):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        # its own process group, so that a kill also ends the CLI requests it runs
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, start_new_session=True)
        self._timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self._kill)
        self._timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        self.ready = line == "READY\n"
        self.refs: list[float] = []

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self) -> dict | None:
        """Serve CAL lines until the worker ends; its JSON result, or None
        if it failed."""
        last = ""
        try:
            for line in self.proc.stdout:
                if line == "CAL\n":
                    self.refs.append(reference_s())
                    self.proc.stdin.write("GO\n")
                    self.proc.stdin.flush()
                else:
                    last = line
            code = self.proc.wait()
        except BrokenPipeError:
            code = -1
        finally:
            self._timer.cancel()
            if self.proc.poll() is None:
                self._kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
        if code != 0 or not self.ready:
            return None
        return json.loads(last) if last.strip() else {}


def run(args, cpus: set[int]) -> tuple[dict, dict] | None:
    workdir = ROOT / ".bench_build" / "arithfn-bench"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    # The reference loop is timed three times before each set-up, once the
    # worker before has exited: an exiting worker frees its memory on this
    # CPU and would slow the loop.
    setups, setup_refs = [], []
    for i in range(SETUP_SAMPLES):
        setup_refs += [reference_s() for _ in range(3)]
        w = Worker(args, workdir, i < SETUP_SAMPLES - 1, deadline)
        setups.append(w.setup_s)
        if i < SETUP_SAMPLES - 1 and w.finish() is None:
            return None
    res = w.finish()
    if not res or len(w.refs) != 2 * len(res["latencies"]):
        return None
    res["setup_raw_s"] = setups
    res["setup_reference_s"] = setup_refs
    res["setup_s"] = calibrated(statistics.median(setups), [statistics.median(setup_refs)])
    res["reference_s"] = w.refs
    res["calibrated"] = [calibrated(raw, w.refs[2 * i : 2 * i + 2])
                         for i, raw in enumerate(res["latencies"])]
    if "plain_requests" in res:
        plain = res["plain_requests"]
        cal = res["calibrated"]
        res["layers"]["trace.overhead_ratio"] = sum(cal[:plain]) / sum(cal[plain:])
    return res, environment(args.seed, cpus)


def end_to_end(res: dict) -> dict:
    lat = res["calibrated"]
    failed = len(res["failures"])
    return {
        "setup_s": res["setup_s"],
        "req_p50_ms": statistics.median(lat) * 1e3,
        "req_tail_ms": percentile(lat, tail_percentile(res["requests_per_pass"])) * 1e3,
        "throughput_rps": len(lat) / sum(lat),
        "peak_rss_mb": res["rss_kb"] / 1024.0,
        "pass_ratio": 1.0 - failed / len(lat),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result set to this file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "arithfn" / "__init__.py").is_file():
        print(f"error: no arithfn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and everything it starts, so that the
    # reference loop is timed on the CPU the requests run on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    got = run(args, cpus)
    if got is None:
        print("error: the workload process failed", file=sys.stderr)
        return 1
    res, env = got

    lat = res["latencies"]
    failures = res["failures"]
    unexpected = [f for f in failures if not f["probe"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['passes']} passes of {res['requests_per_pass']} requests, "
          f"closed loop, one client")
    metrics = res["layers"] if args.trace else end_to_end(res)
    units = metric_units()
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    q = tail_percentile(res["requests_per_pass"])
    if not args.trace:
        print(f"  req_tail_ms is p{q:.4g} of {len(lat)} samples; "
              f"fail_ratio {len(failures) / len(lat):.6g} ({len(failures)} of {len(lat)})")
    print(f"  times above are calibrated; uncalibrated: req p50 "
          f"{statistics.median(lat) * 1e3:.6g} ms, {len(lat) / sum(lat):.6g} requests/s, "
          f"setup {statistics.median(res['setup_raw_s']):.6g} s; reference loop median "
          f"{statistics.median(res['reference_s']) * 1e3:.6g} ms "
          f"(nominal {REF_NOMINAL_S * 1e3:g} ms)")
    for f in {(f["request"], f["probe"], f["detail"]): f for f in failures}.values():
        tag = f"known defect: {f['probe']}" if f["probe"] else "UNEXPECTED"
        print(f"  failed [{tag}] {f['request']}: {f['detail']}")
    print("env " + json.dumps(env))

    result = {
        "correct": not unexpected,
        "attempted": len(lat),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, env=env,
                  passes=res["passes"], requests_per_pass=res["requests_per_pass"],
                  tail_percentile=q, failures=failures,
                  setup_raw_s=res["setup_raw_s"], setup_reference_s=res["setup_reference_s"],
                  latencies_s=lat, calibrated_latencies_s=res["calibrated"],
                  reference_s=res["reference_s"])
    text = json.dumps(record, indent=1) + "\n"
    workdir = ROOT / ".bench_build" / "arithfn-bench"
    (workdir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(text)
    if args.out:
        Path(args.out).write_text(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
