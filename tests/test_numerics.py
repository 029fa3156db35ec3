"""Backend contract: exact field arithmetic and toleranced float compares."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arithfn as af
from arithfn.errors import NonFiniteError, UnsupportedBackendError


class TestRationalConstruction:
    def test_gcd_reduction(self):
        assert af.rational(2, 4) == Fraction(1, 2)

    def test_zero_canonical_form(self):
        v = af.rational(0, 7)
        assert v == 0
        assert af.RATIONAL.format(v) == "0"

    def test_sign_carried_by_numerator(self):
        v = af.rational(3, -6)
        assert v == Fraction(-1, 2)
        assert af.RATIONAL.format(v) == "-1/2"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            af.rational(1, 0)

    def test_canonical_form_unique(self):
        assert af.rational(2, 4) == af.rational(-3, -6) == Fraction(50, 100)
        assert af.rational(14, 2) == af.rational(7, 1) == 7

    def test_integer_serialization_has_no_denominator(self):
        assert af.RATIONAL.format(af.rational(14, 2)) == "7"

    def test_parse_round_trip(self):
        for text in ["7", "-1/2", "0", "355/113"]:
            assert af.RATIONAL.format(af.RATIONAL.parse(text)) == text

    def test_convert_rejects_floats(self):
        with pytest.raises(UnsupportedBackendError):
            af.RATIONAL.convert(0.5)

    def test_convert_rejects_bools(self):
        # an UnsupportedBackendError, which the CLI reports, not a TypeError
        for backend in (af.RATIONAL, af.COMPLEX):
            with pytest.raises(UnsupportedBackendError, match="bool"):
                backend.convert(True)
            with pytest.raises(UnsupportedBackendError, match="bool"):
                af.ArithFn.from_values([True, 1], backend)
            with pytest.raises(UnsupportedBackendError, match="bool"):
                af.PrimeSupport(10, backend, {(2, 1): False})

    def test_from_values_takes_python_numbers_only(self):
        # one type check, in _store: a numpy scalar is no value, as in a Bell series
        for x in (np.float64(1.0), np.complex128(1j), np.int64(1)):
            with pytest.raises(UnsupportedBackendError, match=type(x).__name__):
                af.ArithFn.from_values([1.0, x], af.COMPLEX)


rationals = st.fractions(
    min_value=Fraction(-10_000), max_value=Fraction(10_000), max_denominator=1000
)


class TestFieldAxioms:
    @given(rationals, rationals, rationals)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(rationals, rationals, rationals)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(rationals)
    def test_multiplicative_inverse(self, a):
        if a != 0:
            assert a * (Fraction(1) / a) == 1

    @given(rationals)
    def test_additive_inverse(self, a):
        assert a + (-a) == 0


class TestComplexFloat:
    def test_below_tolerance(self):
        assert af.approx_eq(1.0, 1.0 + 1e-12, 1e-9)

    def test_above_tolerance(self):
        assert not af.approx_eq(0.0, 1.0, 1e-9)

    def test_float_round_trip_exp_log(self):
        # measured float round trip: exp(log 2) lands within 1e-9 of 2
        assert af.approx_eq(cmath.exp(cmath.log(2.0)), 2.0, 1e-9)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            af.approx_eq(1.0, 1.0, 0.0)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(NonFiniteError):
            af.approx_eq(float("nan"), 1.0, 1e-9)
        with pytest.raises(NonFiniteError):
            af.cfloat(math.inf, 0.0)
        with pytest.raises(NonFiniteError):
            af.COMPLEX.convert(complex(0.0, float("nan")))

    def test_convert_widens_exact_values(self):
        assert af.COMPLEX.convert(Fraction(1, 2)) == 0.5 + 0j
        assert af.COMPLEX.convert(3) == 3 + 0j

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_csv_format_round_trips(self, re, im):
        z = complex(re, im)
        assert af.COMPLEX.parse(af.COMPLEX.format(z)) == z

    def test_json_form_is_re_im_pair(self):
        assert af.COMPLEX.to_json(1.5 + 2j) == [1.5, 2.0]
        assert af.COMPLEX.from_json([1.5, 2.0]) == 1.5 + 2j
        assert af.COMPLEX.from_json([3, -1]) == 3 - 1j

    def test_json_parts_must_be_numbers(self):
        for j in ([True, 0], [1, False], ["1", "0"], [1.0, None], [[1], 0], [1], [1, 2, 3], 1.5):
            with pytest.raises(TypeError, match=r"\[re, im\]"):
                af.COMPLEX.from_json(j)


def test_get_backend():
    assert af.get_backend("rational") is af.RATIONAL
    assert af.get_backend("complex") is af.COMPLEX
    with pytest.raises(ValueError):
        af.get_backend("decimal")
