"""Expression DSL over the library.

Grammar (binary `*` is Dirichlet convolution and binds tighter than
pointwise `+`; a scalar prefix `r . e` binds tighter still)::

    expr    := term ('+' term)*
    term    := factor ('*' factor)*
    factor  := NUMBER '.' factor | atom
    atom    := '(' expr ')'
             | inv|log|exp|psi|psiinv|deriv '(' expr ')'
             | pow '(' expr ',' NUMBER ')'
             | sigma '(' NUMBER ')'
             | file '(' STRING ')'
             | NAME                       -- catalogue function

Numbers are exact: "3" is an integer, "-1/2" and "0.25" are rationals.
Parse errors carry the byte offset and the token set that would have
been accepted there.  ``eval_expr`` evaluates at its sieve's bound.
log and psi need a(1) = 1: a table e with a(1) = r enters them as
``log(1/r . e)``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import io as fnio
from .catalogue import canonical_name, make
from .dirichlet import ArithFn
from .errors import ArithfnError, ExprEvalError, ExprSyntaxError, UnsupportedBackendError
from .numerics import RATIONAL, _canonical_exact
from .sieve import SpfSieve
from .transcend import dexp, dlog, psi, psi_inv

Scalar = Union[int, Fraction]

# unary op -> its function; inv and deriv look the method up at each call,
# so a method replaced on ArithFn (a wrapper that times it, say) is the one run
_UNARY = {"inv": operator.methodcaller("inv"), "log": dlog, "exp": dexp, "psi": psi,
          "psiinv": psi_inv, "deriv": operator.methodcaller("deriv")}
UNARY_OPS = tuple(_UNARY)

# canonical catalogue name -> DSL surface name
_SURFACE = {
    "I": "I",
    "u": "u",
    "mobius": "mu",
    "phi": "phi",
    "mangoldt": "Lambda",
    "liouville": "lambda_liouville",
    "d": "d",
    "N": "N",
    "nu": "nu",
    "Omega": "Omega",
}


@dataclass(frozen=True)
class Named:
    name: str  # catalogue-canonical
    arg: Optional[Scalar] = None  # sigma's exponent
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class FileRef:
    path: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Scale:
    coeff: Scalar
    expr: "Expr"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Apply:
    op: str  # one of UNARY_OPS
    expr: "Expr"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Pow:
    expr: "Expr"
    k: int
    pos: int = field(default=-1, compare=False)


Expr = Union[Named, FileRef, Scale, Add, Mul, Apply, Pow]


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(?:\.\d+|/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>"[^"]*")
  | (?P<sym>[*+.(),])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number|name|string|sym|eof
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _parse_scalar(tok: "_Token") -> Scalar:
    text = tok.text
    try:
        if "/" in text or "." in text:
            return _canonical_exact(Fraction(text))
        return int(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ExprSyntaxError(f"invalid number {text!r}: {e}", tok.pos) from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r}", (text,))
        return self.next()

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        raise ExprSyntaxError(f"{message}, found {found!r}", tok.pos, expected)

    # grammar ----------------------------------------------------------

    def parse(self) -> Expr:
        node = self.expr()
        if self.peek().kind != "eof":
            self.fail("trailing input after expression", ("end of input",))
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().text == "+":
            pos = self.next().pos
            node = Add(node, self.term(), pos=pos)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().text == "*":
            pos = self.next().pos
            node = Mul(node, self.factor(), pos=pos)
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            coeff = _parse_scalar(tok)
            self.expect(".")
            return Scale(coeff, self.factor(), pos=tok.pos)
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind != "name":
            self.fail("expected a function name, '(' or a scalar", ("name", "(", "number"))
        self.next()
        name = tok.text
        if name in UNARY_OPS:
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Apply(name, inner, pos=tok.pos)
        if name == "pow":
            self.expect("(")
            inner = self.expr()
            self.expect(",")
            ktok = self.peek()
            if ktok.kind != "number":
                self.fail("pow exponent must be an integer", ("number",))
            self.next()
            k = _parse_scalar(ktok)
            if not isinstance(k, int) or k < 0:
                raise ExprSyntaxError(
                    f"pow exponent must be a non-negative integer, got {ktok.text}", ktok.pos
                )
            self.expect(")")
            return Pow(inner, k, pos=tok.pos)
        if name == "file":
            self.expect("(")
            stok = self.peek()
            if stok.kind != "string":
                self.fail('file path must be a double-quoted string', ("string",))
            self.next()
            self.expect(")")
            return FileRef(stok.text[1:-1], pos=tok.pos)
        if name == "sigma":
            self.expect("(")
            ctok = self.peek()
            if ctok.kind != "number":
                self.fail("sigma exponent must be a number", ("number",))
            self.next()
            self.expect(")")
            return Named("sigma", arg=_parse_scalar(ctok), pos=tok.pos)
        try:
            canonical = canonical_name(name)
        except ValueError:
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.pos) from None
        if self.peek().text == "(":
            raise ExprSyntaxError(f"{name} takes no arguments", self.peek().pos)
        return Named(canonical, pos=tok.pos)


def parse_expr(text: str) -> Expr:
    """Parse expression text to an AST; syntax errors carry byte offsets."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# pretty printer (canonical form; reparses to an equal AST)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_SCALE, _PREC_ATOM = 1, 2, 3, 4


def _prec(node: Expr) -> int:
    if isinstance(node, Add):
        return _PREC_ADD
    if isinstance(node, Mul):
        return _PREC_MUL
    if isinstance(node, Scale):
        return _PREC_SCALE
    return _PREC_ATOM


def to_text(node: Expr) -> str:
    """Canonical textual form of an AST."""
    if isinstance(node, Named):
        if node.name == "sigma":
            return f"sigma({node.arg})"
        return _SURFACE[node.name]
    if isinstance(node, FileRef):
        return f'file("{node.path}")'
    if isinstance(node, Apply):
        return f"{node.op}({to_text(node.expr)})"
    if isinstance(node, Pow):
        return f"pow({to_text(node.expr)}, {node.k})"
    if isinstance(node, Scale):
        child = to_text(node.expr)
        if _prec(node.expr) < _PREC_SCALE:
            child = f"({child})"
        return f"{node.coeff} . {child}"
    if isinstance(node, (Add, Mul)):
        op, prec = ("+", _PREC_ADD) if isinstance(node, Add) else ("*", _PREC_MUL)
        left = to_text(node.left)
        if _prec(node.left) < prec:
            left = f"({left})"
        right = to_text(node.right)
        if _prec(node.right) <= prec:  # strict: operators are left-associative
            right = f"({right})"
        return f"{left} {op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# backend requirements and evaluation
# ---------------------------------------------------------------------------


def _children(node: Expr) -> tuple:
    """The sub-expressions of a node, left to right."""
    if isinstance(node, (Add, Mul)):
        return (node.left, node.right)
    if isinstance(node, (Scale, Apply, Pow)):
        return (node.expr,)
    return ()


def _first_complex_only_node(node: Expr) -> Optional[Expr]:
    """The first node (leftmost, outermost-last) that forces the complex
    backend: deriv, the von Mangoldt function, or sigma with a non-integer
    or negative exponent."""
    for child in _children(node):
        offender = _first_complex_only_node(child)
        if offender is not None:
            return offender
    if isinstance(node, Named):
        if node.name == "mangoldt":
            return node
        if node.name == "sigma" and (not isinstance(node.arg, int) or node.arg < 0):
            return node
    if isinstance(node, Apply) and node.op == "deriv":
        return node
    return None


def eval_expr(node: Expr, sieve: SpfSieve, backend=RATIONAL) -> ArithFn:
    """Evaluate an AST bottom-up at the sieve's bound in the given backend.

    Expressions that need floats fail fast under the rational backend,
    naming the offending node; domain errors raised mid-evaluation, and a
    ``file("...")`` that cannot be read, are re-raised with the source
    span of the node that caused them.
    """
    if backend is RATIONAL:
        offender = _first_complex_only_node(node)
        if offender is not None:
            raise UnsupportedBackendError(
                f"`{to_text(offender)}` needs the complex backend (--backend complex)"
            )
    return _eval(node, sieve, backend)


def _eval(node: Expr, sieve: SpfSieve, backend) -> ArithFn:
    """The value of ``node``, its children evaluated first, left to right;
    an error of the node's own op is re-raised with its span."""
    args = []
    for child in _children(node):  # a loop, not a comprehension: one frame per level
        args.append(_eval(child, sieve, backend))
    try:
        if isinstance(node, Named):
            return make(node.name, sieve, backend, c=node.arg)
        if isinstance(node, FileRef):
            bound = sieve.bound
            fn = fnio.read_function(node.path, backend=backend)
            if fn.backend is not backend:
                fn = fn.to_backend(backend)  # exact -> complex widening only
            if fn.bound < bound:
                raise ExprEvalError(f"file {node.path!r} holds {fn.bound} values "
                                    f"but bound {bound} was requested")
            return fn.truncate(bound) if fn.bound > bound else fn
        if isinstance(node, Scale):
            return args[0].scale(node.coeff)
        if isinstance(node, Add):
            return args[0] + args[1]
        if isinstance(node, Mul):
            return args[0] * args[1]
        if isinstance(node, Pow):
            return args[0] ** node.k
        if isinstance(node, Apply) and node.op in _UNARY:
            return _UNARY[node.op](args[0])
    except ExprEvalError:
        raise
    except (ArithfnError, OSError) as e:
        raise ExprEvalError(str(e), span=to_text(node), position=node.pos) from e
    raise TypeError(f"not an expression node: {node!r}")
