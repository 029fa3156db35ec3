"""Expression parser, evaluator and command-line surface.

The golden files under tests/golden/ pin the byte-exact output of the
three contract commands; the expected values themselves are re-derived
independently in test_transcend / test_catalogue.
"""

import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arithfn as af
from arithfn import io as fnio
from arithfn.cli import main
from arithfn.errors import ExprEvalError, ExprSyntaxError, UnsupportedBackendError
from arithfn.expr import (
    Add,
    Apply,
    FileRef,
    Mul,
    Named,
    Pow,
    Scale,
    eval_expr,
    parse_expr,
    to_text,
)

GOLDEN = Path(__file__).parent / "golden"


class TestParser:
    def test_unary_application(self):
        assert parse_expr("psi(phi)") == Apply("psi", Named("phi"))

    def test_dirichlet_product(self):
        assert parse_expr("mu * u") == Mul(Named("mobius"), Named("u"))

    def test_pow_plus_scale(self):
        assert parse_expr("pow(u,2) + 3 . I") == Add(
            Pow(Named("u"), 2), Scale(3, Named("I"))
        )

    def test_precedence_star_over_plus(self):
        assert parse_expr("u + mu * u") == Add(Named("u"), Mul(Named("mobius"), Named("u")))

    def test_scale_binds_tighter_than_star(self):
        assert parse_expr("2 . u * mu") == Mul(Scale(2, Named("u")), Named("mobius"))

    def test_rational_and_decimal_scalars(self):
        assert parse_expr("-1/2 . u") == Scale(Fraction(-1, 2), Named("u"))
        assert parse_expr("0.5 . u") == Scale(Fraction(1, 2), Named("u"))

    def test_sigma_argument(self):
        assert parse_expr("sigma(2)") == Named("sigma", arg=2)
        assert parse_expr("sigma(0.5)") == Named("sigma", arg=Fraction(1, 2))

    def test_file_reference(self):
        assert parse_expr('file("t.csv") * u') == Mul(FileRef("t.csv"), Named("u"))

    def test_parentheses(self):
        assert parse_expr("(u + mu) * u") == Mul(Add(Named("u"), Named("mobius")), Named("u"))

    def test_unknown_identifier_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("u * zeta")
        assert exc.value.position == 4

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("psi(u")
        assert exc.value.position == 5
        with pytest.raises(ExprSyntaxError):
            parse_expr("(u))")

    def test_arity_mismatch(self):
        with pytest.raises(ExprSyntaxError, match="takes no arguments"):
            parse_expr("u(3)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("pow(u)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("sigma()")

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("u @ mu")
        assert exc.value.position == 2

    def test_pow_exponent_must_be_nonnegative_integer(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("pow(u, -1)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("pow(u, 1/2)")

    def test_zero_denominator_scalar_is_a_syntax_error(self):
        # a raw ZeroDivisionError here would escape the CLI's error handling
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("2/0 . u")
        assert exc.value.position == 0
        with pytest.raises(ExprSyntaxError):
            parse_expr("sigma(1/0)")


_leaves = st.sampled_from(
    [Named(n) for n in ("I", "u", "mobius", "phi", "liouville", "d", "N", "nu", "Omega")]
    + [Named("sigma", arg=2), Named("sigma", arg=Fraction(1, 2)), FileRef("fn.csv")]
)
_scalars = st.one_of(
    st.integers(-9, 9),
    st.fractions(max_denominator=7).filter(lambda f: f.denominator > 1),
)


def _branches(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        st.tuples(_scalars, children).map(lambda t: Scale(*t)),
        st.tuples(st.sampled_from(["inv", "log", "exp", "psi", "psiinv", "deriv"]), children).map(
            lambda t: Apply(*t)
        ),
        st.tuples(children, st.integers(0, 5)).map(lambda t: Pow(*t)),
    )


class TestPrettyPrinter:
    @settings(max_examples=200)
    @given(st.recursive(_leaves, _branches, max_leaves=12))
    def test_round_trip(self, node):
        assert parse_expr(to_text(node)) == node

    def test_canonical_forms(self):
        assert to_text(parse_expr("mu*u")) == "mu * u"
        assert to_text(parse_expr("pow(u,2)+3 . I")) == "pow(u, 2) + 3 . I"
        assert to_text(parse_expr("(u + mu) * u")) == "(u + mu) * u"
        assert to_text(parse_expr("Lambda + lambda_liouville")) == "Lambda + lambda_liouville"


class TestEvalExpr:
    def test_mobius_times_u_is_identity(self):
        fn = eval_expr(parse_expr("mu * u"), af.build_sieve(5))
        assert fn.values() == (1, 0, 0, 0, 0)

    def test_psi_u(self):
        fn = eval_expr(parse_expr("psi(u)"), af.build_sieve(10))
        assert fn[4] == Fraction(3, 2)

    def test_inv_identity(self):
        fn = eval_expr(parse_expr("inv(I)"), af.build_sieve(10))
        assert fn == af.ArithFn.identity(10)

    def test_complex_only_nodes_fail_fast_under_rational(self):
        sieve = af.build_sieve(50)
        for text in ("deriv(u)", "Lambda", "sigma(1/2)", "u * (mu + deriv(N))"):
            with pytest.raises(UnsupportedBackendError, match="complex backend"):
                eval_expr(parse_expr(text), sieve, af.RATIONAL)

    def test_first_complex_only_node_is_leftmost_outermost_last(self):
        # children are searched left to right before the node itself
        sieve = af.build_sieve(50)
        for text, offender in (
            ("deriv(Lambda)", "Lambda"),
            ("deriv(u) + sigma(-1)", "deriv(u)"),
            ("u * deriv(sigma(1/2))", "sigma(1/2)"),
            ("pow(2 . deriv(u), 2)", "deriv(u)"),
        ):
            with pytest.raises(UnsupportedBackendError) as exc:
                eval_expr(parse_expr(text), sieve)
            assert str(exc.value).startswith(f"`{offender}`"), text

    def test_complex_backend_evaluates_them(self):
        fn = eval_expr(parse_expr("deriv(u)"), af.build_sieve(50), af.COMPLEX)
        assert fn[1] == 0

    def test_domain_error_carries_span(self):
        with pytest.raises(ExprEvalError, match=r"log\(nu\)"):
            eval_expr(parse_expr("log(nu)"), af.build_sieve(50))

    def test_file_nodes_load_tables(self, sieve100, tmp_path):
        target = af.make("phi", sieve100, bound=60)
        path = tmp_path / "phi.csv"
        fnio.write_csv(target, path)
        fn = eval_expr(parse_expr(f'file("{path}") * u'), af.build_sieve(50))
        u = af.ArithFn.ones(50)
        assert fn == target.truncate(50) * u

    def test_file_too_short_is_an_error(self, tmp_path):
        path = tmp_path / "short.csv"
        fnio.write_csv(af.ArithFn.ones(10), path)
        with pytest.raises(ExprEvalError, match="10 values"):
            eval_expr(parse_expr(f'file("{path}")'), af.build_sieve(50))

    def test_unreadable_file_carries_span(self, tmp_path):
        missing = tmp_path / "missing.csv"
        with pytest.raises(ExprEvalError, match=r'\(in `file\(".*missing\.csv"\)`\)$') as exc:
            eval_expr(parse_expr(f'u + file("{missing}") * u'), af.build_sieve(10))
        assert exc.value.position == 4 and isinstance(exc.value.__cause__, OSError)

    def test_evaluation_keeps_no_reference_to_the_sieve(self):
        # evaluation keeps no reference to the sieve, so the CLI's
        # ``del sieve`` frees it before the output step
        sieve = af.build_sieve(50)
        before = sys.getrefcount(sieve)
        gc.disable()
        try:
            eval_expr(parse_expr("psi(u) + mu * u"), sieve)
            after = sys.getrefcount(sieve)
        finally:
            gc.enable()
        assert after == before

    def test_methods_are_looked_up_when_called(self, monkeypatch):
        # inv and deriv run the ArithFn method the class holds at call time,
        # so a wrapper put on the class after import sees every DSL call
        calls = []

        def counted(name):
            method = getattr(af.ArithFn, name)

            def wrapper(self):
                calls.append(name)
                return method(self)
            return wrapper

        for name in ("inv", "deriv"):
            monkeypatch.setattr(af.ArithFn, name, counted(name))
        sieve = af.build_sieve(50)
        fn = eval_expr(parse_expr("inv(u) * deriv(u)"), sieve, af.COMPLEX)
        assert sorted(calls) == ["deriv", "inv"]
        u = af.ArithFn.ones(50, af.COMPLEX)
        assert fn.approx_eq(af.make("mobius", sieve, af.COMPLEX) * u.deriv(), 1e-12)

    def test_options_are_keyword_only(self, sieve100):
        # the bound is the sieve's, so a stale positional bound is an error
        with pytest.raises(TypeError):
            eval_expr(parse_expr("u"), sieve100, af.RATIONAL, 50)


class TestBackendAgreement:
    def test_backends_compute_the_same_values(self):
        # random expressions evaluated exactly, then widened to floats,
        # must match a direct complex-backend evaluation
        import random

        from arithfn.errors import ArithfnError

        n = 64
        sieve = af.build_sieve(n)
        rng = random.Random(7070)
        names = ["I", "u", "mu", "phi", "d", "N", "nu", "Omega", "lambda_liouville", "sigma(1)"]
        unary = ["inv", "log", "exp", "psi", "psiinv"]

        def gen(depth):
            if depth == 0 or rng.random() < 0.35:
                return rng.choice(names)
            r = rng.random()
            if r < 0.3:
                return f"({gen(depth - 1)} + {gen(depth - 1)})"
            if r < 0.6:
                return f"({gen(depth - 1)} * {gen(depth - 1)})"
            if r < 0.72:
                return f"{rng.choice(['2', '-1', '1/2', '3'])} . ({gen(depth - 1)})"
            if r < 0.9:
                return f"{rng.choice(unary)}({gen(depth - 1)})"
            return f"pow({gen(depth - 1)}, {rng.randint(0, 3)})"

        checked = 0
        for _ in range(150):
            node = parse_expr(gen(3))
            try:
                exact = eval_expr(node, sieve, af.RATIONAL)
            except ArithfnError:
                continue  # e.g. inv/log of something vanishing at 1
            approx = eval_expr(node, sieve, af.COMPLEX)
            for k in range(1, n + 1):
                want = complex(exact[k])
                dev = abs(approx[k] - want) / max(1.0, abs(want))
                assert dev < 1e-9, (to_text(node), k)
            checked += 1
        assert checked > 80  # most expressions evaluate in both backends


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliGolden:
    def test_table_psi_u(self, capsys):
        code, out, err = run_cli(capsys, "table", "psi(u)", "--n", "12", "--backend", "rational")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "table_psi_u_n12.txt").read_text()

    def test_check_additive_nu(self, capsys):
        code, out, err = run_cli(capsys, "check", "additive", "nu", "--n", "1000")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "check_additive_nu_n1000.txt").read_text()

    def test_verify_identities(self, capsys):
        code, out, err = run_cli(capsys, "verify", "identities", "--n", "1000", "--tol", "1e-9")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "verify_identities_n1000.txt").read_text()


class TestCliBehavior:
    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_verify_rejects_a_tolerance_that_is_not_positive(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify", "identities", "--n", "100", "--tol", tol)
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be positive, got {float(tol)!r}\n"

    def test_eval_prints_single_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "psi(u)", "4")
        assert code == 0 and out == "3/2\n"

    def test_exit_1_on_failed_check_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "additive", "phi", "--n", "100")
        assert code == 1 and out == "additive: false witness=(2,3)\n"
        code, out, _ = run_cli(capsys, "check", "completely-multiplicative", "phi", "--n", "100")
        assert code == 1 and out == "completely-multiplicative: false witness=(p=2,k=2)\n"
        code, out, _ = run_cli(capsys, "check", "additive-mobius", "u", "--n", "100")
        assert code == 1 and out == "additive-mobius: false witness=(n=1)\n"

    def test_exit_2_on_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "psi(u", "4")
        assert code == 2 and out == "" and "offset 5" in err

    def test_exit_2_on_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "log(nu)", "5")
        assert code == 2 and "log(nu)" in err

    def test_exit_2_on_backend_requirement(self, capsys):
        code, _, err = run_cli(capsys, "table", "deriv(u)", "--n", "10")
        assert code == 2 and "complex backend" in err

    def test_exit_2_on_oversized_bound(self, capsys):
        code, _, err = run_cli(capsys, "table", "u", "--n", "100000000")
        assert code == 2 and "bound" in err

    def test_exit_2_when_memory_runs_out(self):
        resource = pytest.importorskip("resource")
        # the address-space limit applies to the child process only
        limit = 1_500_000_000

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(af.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "arithfn", "table", "psi(phi)", "--n", "10000000"],
            capture_output=True, text=True, timeout=300, preexec_fn=cap_memory,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: out of memory at bound 10000000\n"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "table", "psi(phi)", "--n", "64")
        _, second, _ = run_cli(capsys, "table", "psi(phi)", "--n", "64")
        assert first == second

    def test_check_sigma_five_halves_at_scale(self, capsys):
        # sigma_c is multiplicative; at N = 20000 its rounding error outgrows
        # the absolute 1e-9, and only the relative allowance accepts it
        argv = ["check", "multiplicative", "sigma(5/2)", "--backend", "complex", "--n", "20000"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "multiplicative: true\n"

    def test_check_paths_agree(self, capsys):
        for expr in ("nu", "Omega", "phi", "psi(u)", "nu + Omega", "2 . nu"):
            a, _, _ = run_cli(capsys, "check", "additive", expr, "--n", "200")
            b, _, _ = run_cli(capsys, "check", "additive-mobius", expr, "--n", "200")
            assert a == b, expr

    def test_table_csv_and_json_formats(self, capsys, sieve100):
        code, out, _ = run_cli(capsys, "table", "mu", "--n", "8", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,value"
        assert fnio.parse_csv(out) == af.make("mobius", sieve100, bound=8)
        code, out, _ = run_cli(capsys, "table", "mu", "--n", "8", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["bound"] == 8 and obj["backend"] == "rational"
        assert fnio.from_json_obj(obj) == af.make("mobius", sieve100, bound=8)

    def test_transform_writes_files(self, capsys, tmp_path, sieve100):
        out_csv = tmp_path / "psi_u.csv"
        code, out, _ = run_cli(capsys, "transform", "psi", "u", "--n", "50", "--out", str(out_csv))
        assert code == 0 and out == ""
        assert fnio.read_csv(out_csv) == af.psi(af.ArithFn.ones(50))
        out_json = tmp_path / "log_u.json"
        code, _, _ = run_cli(capsys, "transform", "log", "u", "--n", "50", "--out", str(out_json))
        assert code == 0
        assert fnio.read_json(out_json) == af.dlog(af.ArithFn.ones(50))

    def test_transform_round_trip_through_files(self, capsys, tmp_path):
        fwd = tmp_path / "fwd.csv"
        back = tmp_path / "back.csv"
        run_cli(capsys, "transform", "psi", "phi", "--n", "64", "--out", str(fwd))
        code, _, _ = run_cli(
            capsys, "transform", "psiinv", f'file("{fwd}")', "--n", "64", "--out", str(back)
        )
        assert code == 0
        sieve = af.build_sieve(64)
        assert fnio.read_csv(back) == af.make("phi", sieve)

    @pytest.mark.parametrize("name, is_json", [("t.json", True), ("t.JSON", True), ("t.csv", False), ("t", False)])
    def test_transform_output_reads_back_by_import(self, capsys, tmp_path, name, is_json):
        # transform writes by the --out extension, the rule import reads by
        out = tmp_path / name
        code, _, _ = run_cli(capsys, "transform", "psi", "phi", "--n", "50", "--out", str(out))
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("{" if is_json else "n,value\n")
        want = af.psi(af.make("phi", af.build_sieve(50)))
        code, text, err = run_cli(capsys, "import", str(out))
        assert (code, err) == (0, "")
        assert text == f"bound=50 backend=rational nonzero={len(want.support())}\n"
        assert fnio.read_function(out) == want

    def test_transform_domain_error_carries_span(self, capsys, tmp_path):
        out = tmp_path / "psi_nu.csv"
        code, _, err = run_cli(capsys, "transform", "psi", "nu", "--n", "20", "--out", str(out))
        assert code == 2 and "a(1)" in err and "psi(nu)" in err
        assert not out.exists()

    def test_bell_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "phi", "--prime", "2", "--n", "100")
        assert code == 0
        assert json.loads(out) == {
            "prime": 2,
            "coeffs": ["1", "1", "2", "4", "8", "16", "32"],
        }

    def test_bell_rejects_non_multiplicative(self, capsys):
        code, out, err = run_cli(capsys, "bell", "nu", "--prime", "2", "--n", "100")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "(2, 3)" in err

    def test_bell_rejects_composite(self, capsys):
        code, _, err = run_cli(capsys, "bell", "phi", "--prime", "6", "--n", "100")
        assert code == 2 and "prime" in err

    def test_import_summary(self, capsys, tmp_path, sieve100):
        path = tmp_path / "mu.csv"
        fnio.write_csv(af.make("mobius", sieve100), path)
        code, out, _ = run_cli(capsys, "import", str(path))
        assert code == 0
        assert out == "bound=100 backend=rational nonzero=61\n"

    def test_import_reports_bad_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,value\n1,1\n3,1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "import", str(path))
        assert code == 2 and "line 3" in err

    def test_import_rejects_non_number_complex_parts(self, capsys, tmp_path):
        for i, value in enumerate(([True, 0], ["1", "0"])):
            path = tmp_path / f"b{i}.json"
            obj = {"bound": 2, "backend": "complex", "values": [[1.0, 0.0], value]}
            path.write_text(json.dumps(obj), encoding="utf-8")
            code, out, err = run_cli(capsys, "import", str(path))
            assert code == 2 and out == "", value
            assert err.startswith("error:") and "bad value" in err, value

    def test_normalize_unit_flag(self, capsys, tmp_path):
        # log and psi need a(1) = 1; the DSL rescales a table by r . e
        path = tmp_path / "scaled.csv"
        fn = af.ArithFn.ones(32, af.COMPLEX).scale(2.0)
        fnio.write_csv(fn, path)
        expr = f'file("{path}")'
        code, _, err = run_cli(
            capsys, "eval", f"log({expr})", "4", "--backend", "complex", "--n", "32"
        )
        assert code == 2 and "a(1)" in err
        for op, want in (("log", "0.5\n"), ("psi", "1.5\n")):
            code, out, _ = run_cli(
                capsys, "eval", f"{op}(1/2 . {expr})", "4", "--backend", "complex", "--n", "32"
            )
            assert code == 0 and out == want, op
        # exact: (u + I)(1) = 2; b = 1/2 . (u + I) - I is 1/2 off n = 1, so
        # log at 4 is b(4) - b(2)**2 / 2 = 3/8 and psi adds log(2) = 1/2
        for op, want in (("log", "3/8\n"), ("psi", "7/8\n")):
            code, out, _ = run_cli(capsys, "eval", f"{op}(1/2 . (u + I))", "4", "--n", "32")
            assert code == 0 and out == want, op

    @pytest.mark.parametrize(
        "argv",
        [[*cmd, *flag] for cmd in (
            ["eval", "u", "4"],
            ["table", "u"],
            ["check", "additive", "nu"],
            ["transform", "psi", "phi", "--out", "x.csv"],
            ["bell", "phi", "--prime", "2"],
        ) for flag in (["--eps", "1e-9"], ["--normalize-unit"])]
        + [["transform", "psi", "phi", "--n", "50", "--out", "x.csv", "--format", "json"]],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: arithfn") and "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_eval_index_defines_bound(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "u * u", "12")
        assert code == 0 and out == "6\n"

    def test_exit_2_on_non_finite_result(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "pow(1000 . u + I, 200)", "--backend", "complex", "--n", "8"
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_exit_2_on_sigma_overflow(self, capsys):
        code, out, err = run_cli(capsys, "table", "sigma(1000)", "--backend", "complex", "--n", "8")
        assert code == 2 and out == "" and err.startswith("error:")

    # sigma(341)(8) is about 0.9e308, so doubling it or more overflows
    @pytest.mark.parametrize(
        "expr", ["sigma(341) + sigma(341)", "1000000 . sigma(341)", "deriv(sigma(341))"]
    )
    def test_exit_2_on_pointwise_overflow(self, capsys, expr):
        code, out, err = run_cli(capsys, "table", expr, "--backend", "complex", "--n", "8")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_exit_2_on_prime_power_overflow(self, capsys, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("n,value\n1,1\n2,1e200\n3,1\n4,1e200\n")
        code, out, err = run_cli(capsys, "check", "completely-multiplicative", f'file("{big}")',
                                 "--backend", "complex", "--n", "4")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_exit_2_on_widening_overflow(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        table = {"bound": 2, "backend": "rational", "values": [str(10**400), "1"]}
        big.write_text(json.dumps(table))
        expr = f'file("{big}")'
        code, out, err = run_cli(capsys, "table", expr, "--backend", "complex", "--n", "2")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "completely-multiplicative", "mu", "--n", "100"),
            ("bell", "phi", "--prime", "2", "--n", "100"),
            ("eval", "mu * u", "7", "--n", "100"),
            ("eval", "mu * u", "100"),
            ("table", "psi(phi)", "--n", "100", "--format", "csv"),
            ("transform", "psi", "phi", "--n", "100", "--out", "psi_phi.csv"),
            ("verify", "identities", "--n", "100"),
        ],
    )
    def test_one_sieve_per_call(self, capsys, monkeypatch, tmp_path, argv):
        calls = _count_sieves(monkeypatch, tmp_path)
        assert run_cli(capsys, *argv)[0] in (0, 1)  # 1: mu is not completely multiplicative
        assert calls == [100]

    @pytest.mark.parametrize(
        "argv",
        [
            ("import", "u.csv"),
            ("eval", "u", "101", "--n", "100"),
            ("table", "u", "--n", "0"),
            ("table", "u", "--n", "10000001"),
        ],
    )
    def test_no_sieve_for_import_or_rejected_bound(self, capsys, monkeypatch, tmp_path, argv):
        calls = _count_sieves(monkeypatch, tmp_path)
        run_cli(capsys, *argv)
        assert calls == []


def _count_sieves(monkeypatch, tmp_path) -> list:
    """Record the bound of every sieve the CLI builds, running in
    ``tmp_path`` next to a 10-row table ``u.csv``."""
    calls = []

    def counting_build_sieve(bound):
        calls.append(bound)
        return af.build_sieve(bound)

    monkeypatch.setattr("arithfn.cli.build_sieve", counting_build_sieve)
    monkeypatch.chdir(tmp_path)
    fnio.write_csv(af.ArithFn.ones(10), "u.csv")
    return calls


class TestCliFileErrors:
    """A file that cannot be read or written exits 2 with a one-line
    diagnostic, not a traceback."""

    def assert_file_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_import_missing_file(self, capsys, tmp_path):
        err = self.assert_file_error(capsys, "import", str(tmp_path / "nonexistent.csv"))
        assert "nonexistent.csv" in err

    def test_import_directory(self, capsys, tmp_path):
        self.assert_file_error(capsys, "import", str(tmp_path))

    def test_table_of_missing_file(self, capsys, tmp_path):
        expr = f'file("{tmp_path / "nope.csv"}")'
        err = self.assert_file_error(capsys, "table", expr, "--n", "10")
        assert f"(in `{expr}`)" in err

    def test_transform_into_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        self.assert_file_error(capsys, "transform", "psi", "phi", "--n", "10", "--out", str(out))
        assert not out.exists()

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"n,value\n1,\xb0\n")
        err = self.assert_file_error(capsys, "import", str(path))
        assert "bin.csv: not UTF-8 at byte 10" in err
        expr = f'file("{path}")'
        err = self.assert_file_error(capsys, "table", expr, "--n", "5")
        assert "bin.csv: not UTF-8 at byte 10" in err and f"(in `{expr}`)" in err
