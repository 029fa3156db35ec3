"""CSV and JSON import/export of function tables.

CSV layout: a literal ``n,value`` header, then one row per index in order
n = 1..N.  Rational values print as "p/q" in lowest terms ("7", "-1/2");
complex values print as Python-style float/complex literals with full
round-trip precision.  A missing, duplicated or out-of-order index is a
format error reported with its 1-based line number.

JSON layout::

    {"bound": N, "backend": "rational" | "complex", "values": [...]}

with values ordered n = 1..N; rationals serialize as strings, complex
values as two-element [re, im] arrays.
"""

from __future__ import annotations

import json
from pathlib import Path

from .dirichlet import ArithFn
from .errors import FormatError
from .numerics import RATIONAL, get_backend

CSV_HEADER = "n,value"


def dump_csv(fn: ArithFn) -> str:
    lines = [CSV_HEADER]
    lines.extend(f"{n},{s}" for n, s in enumerate(fn._formatted(), 1))
    return "\n".join(lines) + "\n"


def parse_csv(text: str, backend=RATIONAL) -> ArithFn:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise FormatError(f"expected header {CSV_HEADER!r}", line=1)
    values = []
    expect = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "":
            if lineno != len(lines):  # a single trailing blank line is tolerated
                raise FormatError("blank line inside table", line=lineno)
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise FormatError(f"expected 'n,value', got {raw!r}", line=lineno)
        try:
            n = int(parts[0])
        except ValueError:
            raise FormatError(f"bad index {parts[0]!r}", line=lineno) from None
        if n != expect:
            kind = "duplicate or out-of-order" if n < expect else "missing"
            raise FormatError(f"{kind} index: expected n={expect}, got n={n}", line=lineno)
        try:
            values.append(backend.parse(parts[1]))
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad value {parts[1]!r}: {e}", line=lineno) from None
        expect += 1
    if not values:
        raise FormatError("table has no rows", line=2)
    return ArithFn._wrap(len(values), backend, [backend.zero] + values)


def write_csv(fn: ArithFn, path) -> None:
    Path(path).write_text(dump_csv(fn), encoding="utf-8")


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a FormatError naming
    the file and the byte offset."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 at byte {e.start} ({e.reason})") from None


def read_csv(path, backend=RATIONAL) -> ArithFn:
    return parse_csv(_read_text(path), backend)


def to_json_obj(fn: ArithFn) -> dict:
    # a rational serializes as its format, "p/q"
    values = list(fn._formatted()) if fn.backend.exact else [fn.backend.to_json(v) for _, v in fn.items()]
    return {"bound": fn.bound, "backend": fn.backend.name, "values": values}


def from_json_obj(obj) -> ArithFn:
    if not isinstance(obj, dict):
        raise FormatError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("bound", "backend", "values"):
        if key not in obj:
            raise FormatError(f"missing key {key!r}")
    backend = get_backend(obj["backend"])
    values = obj["values"]
    if not isinstance(values, list):
        raise FormatError("'values' must be an array")
    if obj["bound"] != len(values):
        raise FormatError(f"bound {obj['bound']} != {len(values)} values")
    try:
        decoded = [backend.from_json(v) for v in values]
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise FormatError(f"bad value: {e}") from None
    if not decoded:
        raise FormatError("empty value table")
    return ArithFn._wrap(len(decoded), backend, [backend.zero] + decoded)


def dump_json(fn: ArithFn) -> str:
    return json.dumps(to_json_obj(fn))


def write_json(fn: ArithFn, path) -> None:
    Path(path).write_text(dump_json(fn) + "\n", encoding="utf-8")


def read_json(path) -> ArithFn:
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}", line=e.lineno) from None
    return from_json_obj(obj)


def _is_json(path) -> bool:
    """The file-format rule: .json (any case) -> JSON, anything else -> CSV."""
    return Path(path).suffix.lower() == ".json"


def read_function(path, backend=RATIONAL) -> ArithFn:
    """Load a table in the format its extension names (see :func:`_is_json`)."""
    p = Path(path)
    return read_json(p) if _is_json(p) else read_csv(p, backend)


def write_function(fn: ArithFn, path) -> None:
    """Save a table in the format its extension names, which
    :func:`read_function` reads back."""
    if _is_json(path):
        write_json(fn, path)
    else:
        write_csv(fn, path)
