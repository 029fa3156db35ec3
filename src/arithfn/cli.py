"""Command-line interface.

Exit codes: 0 success, 1 a check or identity verification failed,
2 usage, parse, format, domain or file errors, or memory exhausted.
Diagnostics go to stderr; data goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as fnio
from .catalogue import verify_identities
from .errors import ArithfnError
from .expr import Apply, eval_expr, parse_expr
from .numerics import DEFAULT_TOL, get_backend
from .sieve import build_sieve
from .structure import (
    CheckResult,
    bell_decompose_mult,
    is_additive,
    is_completely_additive,
    is_completely_multiplicative,
    is_multiplicative,
    mobius_additivity_test,
)

#: Hard cap on the truncation bound; the smallest-prime-factor table is
#: dense, so memory is the binding constraint.
MAX_BOUND = 10_000_000

_CHECKS = {
    "multiplicative": is_multiplicative,
    "completely-multiplicative": is_completely_multiplicative,
    "additive": is_additive,
    "completely-additive": is_completely_additive,
    "additive-mobius": mobius_additivity_test,
}


def _add_common(p, *, default_n: int, n_help: str | None = None):
    p.add_argument("--n", type=int, default=default_n, metavar="N",
                   help=n_help or f"truncation bound (default {default_n}, max {MAX_BOUND})")
    p.add_argument("--backend", choices=("rational", "complex"), default="rational",
                   help="coefficient backend (default: rational; exact)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arithfn",
        description="Dirichlet-ring calculator for arithmetical functions truncated at a bound N.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print the value of EXPR at a single index")
    p.add_argument("expr")
    p.add_argument("index", type=int, help="index n; the bound defaults to n")
    _add_common(p, default_n=0,
                n_help=f"truncation bound (defaults to the index, max {MAX_BOUND})")

    p = sub.add_parser("table", help="print EXPR tabulated for n = 1..N")
    p.add_argument("expr")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_common(p, default_n=1000)

    p = sub.add_parser("check", help="run a structure predicate on EXPR")
    p.add_argument("kind", choices=sorted(_CHECKS))
    p.add_argument("expr")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"comparison tolerance in the complex backend (default {DEFAULT_TOL})")
    _add_common(p, default_n=1000)

    p = sub.add_parser("transform", help="apply psi/psiinv/log/exp and write the table to a file")
    p.add_argument("op", choices=("exp", "log", "psi", "psiinv"))
    p.add_argument("expr")
    p.add_argument("--out", required=True, help="output file (.json -> JSON, otherwise CSV)")
    _add_common(p, default_n=1000)

    p = sub.add_parser("bell", help="print the per-prime series of EXPR at one prime as JSON")
    p.add_argument("expr")
    p.add_argument("--prime", type=int, required=True)
    _add_common(p, default_n=1000)

    p = sub.add_parser("verify", help="run the closed-form identity suite")
    p.add_argument("what", choices=("identities",))
    p.add_argument("--n", type=int, default=10000, metavar="N")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("import", help="validate a stored function table and summarize it")
    p.add_argument("file")
    p.add_argument("--backend", choices=("rational", "complex"), default="rational",
                   help="backend for CSV tables (JSON tables are self-describing)")

    return ap


def _format_witness(res: CheckResult) -> str:
    if res.witness_kind == "pair":
        m, n = res.witness
        return f"({m},{n})"
    if res.witness_kind == "prime_power":
        p, k = res.witness
        return f"(p={p},k={k})"
    return f"(n={res.witness})"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ArithfnError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        where = f"reading {args.file}" if args.command == "import" else f"at bound {args.n or args.index}"
        print(f"error: out of memory {where}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "import":
        backend = get_backend(args.backend)
        fn = fnio.read_function(args.file, backend=backend)
        print(f"bound={fn.bound} backend={fn.backend.name} nonzero={len(fn.support())}")
        return 0

    # every other command: one bound, one sieve, then verify or one evaluation
    bound = (args.n or args.index) if cmd == "eval" else args.n
    if not 1 <= bound <= MAX_BOUND:
        raise ArithfnError(f"bound must be in 1..{MAX_BOUND}, got {bound}")
    if cmd == "eval" and not 1 <= args.index <= bound:
        raise ArithfnError(f"index {args.index} outside 1..{bound}")
    sieve = build_sieve(bound)

    if cmd == "verify":
        report = verify_identities(sieve, tol=args.tol)
        for line in report.lines():
            print(line)
        return 0 if report.all_passed else 1

    node = parse_expr(args.expr)
    if cmd == "transform":
        node = Apply(args.op, node)
    fn = eval_expr(node, sieve, get_backend(args.backend))
    if cmd not in ("check", "bell"):
        del sieve  # free it before the output step, where a large table peaks in memory

    if cmd == "check":
        predicate = _CHECKS[args.kind]
        if args.kind in ("multiplicative", "additive"):
            res = predicate(fn, tol=args.tol)
        else:
            res = predicate(fn, sieve=sieve, tol=args.tol)
        if res.ok:
            print(f"{args.kind}: true")
            return 0
        print(f"{args.kind}: false witness={_format_witness(res)}")
        return 1

    if cmd == "eval":
        print(fn.backend.format(fn[args.index]))
    elif cmd == "table":
        if args.format == "csv":
            sys.stdout.write(fnio.dump_csv(fn))
        elif args.format == "json":
            print(fnio.dump_json(fn))
        else:
            sys.stdout.write("".join(f"{n}\t{s}\n" for n, s in enumerate(fn._formatted(), 1)))
    elif cmd == "transform":
        fnio.write_function(fn, args.out)
    elif cmd == "bell":
        p = args.prime
        if not (2 <= p <= bound and sieve.is_prime(p)):
            raise ArithfnError(f"--prime must be a prime <= {bound}, got {p}")
        print(json.dumps(bell_decompose_mult(fn, sieve).series_for(p).to_json_obj(fn.backend)))
    else:  # pragma: no cover
        raise AssertionError(cmd)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
