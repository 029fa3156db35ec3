"""Spans around the public entry points of each ``arithfn`` module.

Tracing is installed from outside the library: :func:`install` replaces
every public entry point by a wrapper in each ``arithfn`` module that
holds a reference to it (module globals and module-level dicts such as
``cli._CHECKS``), and wraps the ``ArithFn`` methods on the class.
:func:`Tracer.uninstall` puts the originals back.

A span records a layer name, a start and end on the tracer's clock, the
span that was open when it started, the benchmark request it belongs to
and the work counts computed for it.  Counts are computed after the span
ends and the time spent computing them is taken out of the tracer's
clock, so no span (nor any enclosing span) is charged for bookkeeping.
A call into a layer made while a span of the same layer is open is part
of that span (``write_csv`` calling ``dump_csv``, say), not a new one.

Self time of a span is its duration minus the part of it that its child
spans cover; see :func:`self_times`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass
from math import gcd

import numpy as np

import oracles

# Public entry points per module and the layer each one is recorded as.
ENTRY_POINTS = {
    "arithfn.sieve": {"build_sieve": "sieve.build"},
    "arithfn.catalogue": {"make": "catalogue.make", "verify_identities": "catalogue.verify"},
    "arithfn.transcend": {
        "dlog": "transcend.dlog",
        "dexp": "transcend.dexp",
        "psi": "transcend.psi",
        "psi_inv": "transcend.psi_inv",
    },
    "arithfn.structure": {
        "is_multiplicative": "structure.predicate",
        "is_additive": "structure.predicate",
        "is_completely_multiplicative": "structure.predicate",
        "is_completely_additive": "structure.predicate",
        "mobius_additivity_test": "structure.predicate",
        "bell_decompose_mult": "structure.decompose",
        "additive_decompose": "structure.decompose",
        "bell_reconstruct_mult": "structure.reconstruct",
        "additive_reconstruct": "structure.reconstruct",
    },
    "arithfn.expr": {"parse_expr": "expr.parse", "eval_expr": "expr.eval"},
    "arithfn.io": {
        "dump_csv": "io.write",
        "dump_json": "io.write",
        "write_csv": "io.write",
        "write_json": "io.write",
        "read_function": "io.read",
        "read_csv": "io.read",
        "read_json": "io.read",
    },
    "arithfn.cli": {"main": "cli.main"},
}

_POINTWISE = "dirichlet.pointwise"


def _mul_layer(args):
    a, b = args[0], args[1]
    if type(b) is type(a):
        return f"dirichlet.conv.{a.backend.name}"
    return _POINTWISE


# ArithFn methods and the layer each is recorded as; a callable picks the
# layer from the call's arguments.
METHODS = {
    "__mul__": _mul_layer,
    "__rmul__": _POINTWISE,
    "__add__": _POINTWISE,
    "__sub__": _POINTWISE,
    "__neg__": _POINTWISE,
    "scale": _POINTWISE,
    "inv": lambda args: f"dirichlet.inv.{args[0].backend.name}",
    "__pow__": "dirichlet.pow",
    "deriv": "dirichlet.deriv",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; :meth:`write` saves them at the end."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lost = 0.0  # seconds spent computing counts
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.spans: list[Span] = []
        self.request = -1

    def now(self) -> float:
        return self._clock() - self._lost

    # -- spans ------------------------------------------------------------

    def wrap(self, layer, fn):
        """Wrapper of ``fn`` recording one span per call.

        ``layer`` is a layer name or a function of the positional
        arguments returning one.  The wrapper returns what ``fn`` returns
        and raises what ``fn`` raises.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(
                Span(name, tracer.now(), parent=stack[-1] if stack else -1,
                     request=tracer.request)
            )
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index].end = tracer.now()
                stack.pop()
            tracer._count(tracer.spans[index], args, kwargs, result)
            return result

        return traced

    def _count(self, span: Span, args, kwargs, result) -> None:
        counter = COUNTERS.get(span.name)
        if counter is None:
            return
        t0 = self._clock()
        span.counts = counter(args, kwargs, result)
        self._lost += self._clock() - t0

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS and METHODS."""
        from arithfn.dirichlet import ArithFn

        for modname in ENTRY_POINTS:
            importlib.import_module(modname)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "arithfn" or name.startswith("arithfn."))]
        for modname, names in ENTRY_POINTS.items():
            owner = sys.modules[modname]
            for attr, layer in names.items():
                original = getattr(owner, attr)
                traced = self.wrap(layer, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, traced)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in value.items():
                                if v is original:
                                    self._patches.append((value, k, original))
                                    value[k] = traced
        for attr, layer in METHODS.items():
            original = ArithFn.__dict__[attr]
            self._patches.append((ArithFn, attr, original))
            setattr(ArithFn, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Save the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def read_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans whose ``parent`` is the span's index.  Child
    intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict:
    """Per layer: calls, summed self time and summed counts."""
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += self_s
        for k, v in s.counts.items():
            agg[k] = agg.get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# work counts, computed from the inputs and outputs of a call
# ---------------------------------------------------------------------------


def _nonzero_mask(fn) -> np.ndarray:
    return np.fromiter((1 if v else 0 for v in fn.values()), dtype=bool, count=fn.bound)


def _quotients(n: int) -> np.ndarray:
    return n // np.arange(1, n + 1)


def _all_int(*fns) -> bool:
    return all(type(v) is int for fn in fns for v in fn.values())


def _conv_counts(args, kwargs, result):
    # The kernels visit every multiple of each d with a(d) != 0.
    a, b = args[0], args[1]
    nz = _nonzero_mask(a)
    counts = {
        "pairs": int(_quotients(a.bound)[nz].sum()),
        "d_total": a.bound,
        "d_skipped": int(a.bound - nz.sum()),
    }
    if a.backend.exact:
        counts["exact_calls"] = 1
        counts["exact_int_calls"] = int(_all_int(a, b))
    return counts


def _inv_counts(args, kwargs, result):
    # The inverse pushes b(d) forward to the multiples 2d, 3d, ... of
    # every d with b(d) != 0.
    a = args[0]
    nz = _nonzero_mask(result)
    q = _quotients(a.bound) - 1
    counts = {
        "pairs": int(q[nz].sum()),
        "d_total": a.bound,
        "d_skipped": int(a.bound - nz.sum()),
    }
    if a.backend.exact:
        counts["exact_calls"] = 1
        counts["exact_int_calls"] = int(_all_int(a))
    return counts


_coprime_rows: dict[int, np.ndarray] = {}


def coprime_rows(n: int) -> np.ndarray:
    """rows[m] = number of k with m < k <= n // m and gcd(m, k) = 1."""
    rows = _coprime_rows.get(n)
    if rows is None:
        rows = np.zeros(n + 1, dtype=np.int64)
        m = 2
        while m * (m + 1) <= n:
            k = np.arange(m + 1, n // m + 1)
            rows[m] = int(np.count_nonzero(np.gcd(k, m) == 1))
            m += 1
        _coprime_rows[n] = rows
    return rows


def pairs_scanned(n: int, witness) -> int:
    """Coprime pairs (m, k), 2 <= m < k, m k <= n, compared in
    lexicographic order up to and including ``witness``; all of them when
    there is no pair witness."""
    rows = coprime_rows(n)
    if not isinstance(witness, tuple) or witness[0] < 2:
        return int(rows.sum())
    m0, k0 = witness
    return int(rows[:m0].sum()) + sum(1 for k in range(m0 + 1, k0 + 1) if gcd(m0, k) == 1)


def _prime_powers_scanned(n: int, witness) -> int:
    """Prime powers p^k, k >= 2, compared (p then k ascending) up to the
    witness (p0, k0); all of them when there is none."""
    count = 0
    for p, k, _ in oracles.prime_powers(n):
        if k >= 2:
            count += 1
            if witness == (p, k):
                break
    return count


def _predicate_counts(args, kwargs, result):
    n = args[0].bound
    witness = None if result.ok else result.witness
    if result.kind == "additive-mobius":
        # (mu * a)(1) first, then the indices 2..n up to the witness
        return {"pairs_scanned": 0 if witness == 1 else (witness or n) - 1}
    scanned = pairs_scanned(n, witness if result.witness_kind == "pair" else None)
    if result.witness_kind == "prime_power" or (result.ok and result.kind.startswith("completely-")):
        scanned += _prime_powers_scanned(n, witness)
    return {"pairs_scanned": scanned}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _write_counts(args, kwargs, result):
    if isinstance(result, str):  # dump_csv / dump_json: text for stdout
        return {"bytes": len(result.encode("utf-8"))}
    return {"bytes": _file_bytes(args[1])}


def _read_counts(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


def ast_counts(node) -> tuple[int, int]:
    """(nodes, repeat_nodes) of an expression AST.

    Nodes are visited in evaluation order (children left to right, then
    the node).  A subtree equal to one visited before -- frozen AST
    nodes compare without their source position -- is counted whole as
    repeat nodes: that is the work a memo of subtrees would skip.
    """
    seen = set()
    total = repeat = 0

    def children(x):
        return [v for v in (getattr(x, f.name) for f in fields(x)) if is_dataclass(v)]

    def size(x):
        return 1 + sum(size(c) for c in children(x))

    def walk(x):
        nonlocal total, repeat
        if x in seen:
            n = size(x)
            total += n
            repeat += n
            return
        for c in children(x):
            walk(c)
        total += 1
        seen.add(x)

    walk(node)
    return total, repeat


def _eval_counts(args, kwargs, result):
    nodes, repeat = ast_counts(args[0])
    return {"nodes": nodes, "repeat_nodes": repeat}


COUNTERS = {
    "dirichlet.conv.rational": _conv_counts,
    "dirichlet.conv.complex": _conv_counts,
    "dirichlet.inv.rational": _inv_counts,
    "dirichlet.inv.complex": _inv_counts,
    "structure.predicate": _predicate_counts,
    "io.write": _write_counts,
    "io.read": _read_counts,
    "expr.eval": _eval_counts,
}
