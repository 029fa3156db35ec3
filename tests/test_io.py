"""CSV/JSON table serialization: round trips and malformed inputs."""

import json
import random
from fractions import Fraction

import pytest

import arithfn as af
from arithfn import io as fnio
from arithfn.errors import FormatError
from conftest import rand_complex_fn, rand_exact_fn, recip_fn


def _text_tables():
    """Tables on each storage: int64 numerators over den > 1 (also with
    -2**63 and with den >= 2**63), object numerators, kept Fractions,
    ints and complex."""
    rng = random.Random(52)
    return [
        rand_exact_fn(rng, 300),
        af.ArithFn.from_values([Fraction(-(2**63), 3), Fraction(2, 3), 0, 5]),
        af.ArithFn.from_values([Fraction(1, 2**63 + 1), Fraction(-7, 2**63 + 1), 0]),
        af.ArithFn.from_values([Fraction(2**70, 3), Fraction(-1, 2), 4]),
        recip_fn(400, 1),
        af.ArithFn.from_values([rng.randint(-9, 9) for _ in range(50)]),
        rand_complex_fn(rng, 50),
    ]


class TestCsv:
    def test_exact_round_trip(self, tmp_path):
        rng = random.Random(50)
        fn = rand_exact_fn(rng, 200)
        path = tmp_path / "fn.csv"
        fnio.write_csv(fn, path)
        assert fnio.read_csv(path) == fn

    def test_complex_round_trip(self, tmp_path):
        rng = random.Random(51)
        fn = rand_complex_fn(rng, 200)
        path = tmp_path / "fn.csv"
        fnio.write_csv(fn, path)
        assert fnio.read_csv(path, af.COMPLEX) == fn  # repr round-trips floats exactly

    def test_rows_format_each_value(self):
        for fn in _text_tables():
            want = "".join(f"{n},{fn.backend.format(v)}\n" for n, v in fn.items())
            assert fnio.dump_csv(fn) == "n,value\n" + want

    def test_layout(self):
        fn = af.ArithFn.from_values([1, af.rational(-1, 2), 0])
        assert fnio.dump_csv(fn) == "n,value\n1,1\n2,-1/2\n3,0\n"

    def test_header_required(self):
        with pytest.raises(FormatError) as exc:
            fnio.parse_csv("value,n\n1,1\n")
        assert exc.value.line == 1

    def test_missing_index(self):
        with pytest.raises(FormatError, match="missing") as exc:
            fnio.parse_csv("n,value\n1,1\n3,1\n")
        assert exc.value.line == 3

    def test_duplicate_index(self):
        with pytest.raises(FormatError, match="duplicate") as exc:
            fnio.parse_csv("n,value\n1,1\n1,2\n")
        assert exc.value.line == 3

    def test_bad_value_and_bad_row(self):
        with pytest.raises(FormatError) as exc:
            fnio.parse_csv("n,value\n1,one\n")
        assert exc.value.line == 2
        with pytest.raises(FormatError):
            fnio.parse_csv("n,value\n1\n")
        with pytest.raises(FormatError):
            fnio.parse_csv("n,value\n")


class TestJson:
    def test_round_trip_both_backends(self, tmp_path):
        rng = random.Random(52)
        for fn in (rand_exact_fn(rng, 100), rand_complex_fn(rng, 100)):
            path = tmp_path / "fn.json"
            fnio.write_json(fn, path)
            assert fnio.read_json(path) == fn

    def test_values_serialize_each_value(self):
        for fn in _text_tables():
            want = [fn.backend.to_json(v) for v in fn.values()]
            assert json.loads(fnio.dump_json(fn))["values"] == want

    def test_object_shape(self):
        fn = af.ArithFn.from_values([1.5 + 2j, 0j], af.COMPLEX)
        obj = fnio.to_json_obj(fn)
        assert obj == {"bound": 2, "backend": "complex", "values": [[1.5, 2.0], [0.0, 0.0]]}

    def test_bound_must_match_values(self):
        with pytest.raises(FormatError, match="bound"):
            fnio.from_json_obj({"bound": 3, "backend": "rational", "values": ["1"]})

    def test_missing_keys_and_bad_backend(self):
        with pytest.raises(FormatError, match="backend"):
            fnio.from_json_obj({"bound": 1, "values": ["1"]})
        with pytest.raises(ValueError):
            fnio.from_json_obj({"bound": 1, "backend": "decimal", "values": ["1"]})

    def test_complex_parts_must_be_json_numbers(self):
        # json reads true as a bool and "1" as a str; neither is a number
        for value in ([True, 0], [0, False], ["1", "0"], [1, 10**400]):
            with pytest.raises(FormatError, match="bad value"):
                fnio.from_json_obj({"bound": 2, "backend": "complex", "values": [[1, 0], value]})
        fn = fnio.from_json_obj({"bound": 2, "backend": "complex", "values": [[1, 0], [2.5, -1]]})
        assert fn.values() == (1 + 0j, 2.5 - 1j)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            fnio.read_json(path)


def test_read_function_dispatches_on_extension(tmp_path, sieve100):
    fn = af.make("phi", sieve100)
    fnio.write_csv(fn, tmp_path / "t.csv")
    fnio.write_json(fn, tmp_path / "t.json")
    assert fnio.read_function(tmp_path / "t.csv") == fn
    assert fnio.read_function(tmp_path / "t.json") == fn


def test_non_utf8_file_names_file_and_byte(tmp_path):
    # 0xff never occurs in UTF-8; the valid rows before it fix its offset
    data = b"n,value\n1,1\n2,\xff\n"
    for name, read in (("bin.csv", fnio.read_csv), ("bin.json", fnio.read_json)):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(FormatError, match=rf"{name}: not UTF-8 at byte 14 "):
            read(path)
