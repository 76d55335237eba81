"""Flat-file round-trips must preserve every double bit-exactly."""

import json

import numpy as np
import pytest

from tailsurv.emit import read_table, write_table, write_model_json
from tailsurv.errors import ConfigError
from tailsurv.survival import asymptote_one_term


def test_roundtrip_extreme_values(tmp_path):
    path = tmp_path / "table.csv"
    t = np.array([1.0e-300, 6.02214076e23, 1.2345678901234567,
                  np.pi, 2.0 / 3.0])
    p = np.array([1.0, 1.0e-17, 123456789.123456789, 1.0e300, 5.0e-324])
    write_table(path, ["t", "p"], [t, p])
    header, data = read_table(path)
    assert header == ["t", "p"]
    assert np.array_equal(data["t"], t)
    assert np.array_equal(data["p"], p)


def test_roundtrip_random_doubles(tmp_path):
    rng = np.random.default_rng(20240817)
    vals = rng.standard_normal(200) * 10.0 ** rng.uniform(-250, 250, 200)
    path = tmp_path / "random.csv"
    write_table(path, ["x"], [vals])
    _, data = read_table(path)
    assert np.array_equal(data["x"], vals)


def test_write_table_validation(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ConfigError):
        write_table(path, ["a"], [np.arange(3), np.arange(3)])
    with pytest.raises(ConfigError):
        write_table(path, ["a", "b"], [np.arange(3), np.arange(4)])


def test_read_table_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError):
        read_table(path)


def test_read_table_rejects_bad_numbers(tmp_path):
    path = tmp_path / "corrupt.csv"
    path.write_text("t,p\n1.0,2.0\n1.5,oops\n")
    with pytest.raises(ConfigError):
        read_table(path)


def test_read_table_rejects_short_rows(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t,p\n1.0,2.0\n1.5\n")
    with pytest.raises(ConfigError):
        read_table(path)


def test_model_json_contents(tmp_path, density_for):
    model = asymptote_one_term(density_for(-0.4).threshold)
    path = tmp_path / "model.json"
    write_model_json(path, model)
    payload = json.loads(path.read_text())
    assert payload["origin"] == "one-term"
    assert set(payload) == {"origin", "coefficients", "exponents", "meta"}
    assert payload["coefficients"] == [model.coefficients[0]]
    assert payload["exponents"] == [model.exponents[0]]
    assert isinstance(payload["meta"], dict)


def test_write_table_creates_parent_dirs(tmp_path):
    path = tmp_path / "nested" / "deep" / "out.csv"
    write_table(path, ["x"], [np.array([1.0])])
    assert path.exists()


def test_write_table_bytes_frozen(tmp_path):
    # the exact bytes of the csv.writer-per-row format: %.17g fields,
    # '\r\n' line ends, integers and special values included
    path = tmp_path / "frozen.csv"
    write_table(path, ["t", "P exact", "q"],
                [np.array([0.1, -0.0, np.inf, np.nan, 5e-324, 1e-300]),
                 np.array([-np.inf, 1.0 / 3.0, 2.0, 1e22, -2.5e-308, 123456789.0]),
                 [1, 2, 3, 4, 5, 6]])
    assert path.read_bytes() == (
        b"t,P exact,q\r\n"
        b"0.10000000000000001,-inf,1\r\n"
        b"-0,0.33333333333333331,2\r\n"
        b"inf,2,3\r\n"
        b"nan,1e+22,4\r\n"
        b"4.9406564584124654e-324,-2.4999999999999998e-308,5\r\n"
        b"1e-300,123456789,6\r\n")
