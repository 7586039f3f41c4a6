"""CSV schema tests: bit-exact round-trips and row-level diagnostics."""

import math

import numpy as np
import pytest

from frictionobs import (
    CsvSchemaError,
    ESTIMATES_HEADER,
    MEASURED_HEADER,
    SIM_HEADER,
    read_columns,
    write_columns,
)


def test_headers():
    assert MEASURED_HEADER == ("t", "x", "u")
    assert SIM_HEADER == ("t", "x", "v", "f", "u")
    assert ESTIMATES_HEADER == ("t", "w2_tilde", "w3_tilde", "phi", "e_obs")


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.standard_normal(50) * 10.0 ** rng.integers(-9, 9, size=50)
    b = np.array([0.0, -0.0, 1e-300, 1e300, math.pi, 2.0 / 3.0] + list(rng.random(44)))
    c = np.arange(50) * 5e-4
    p = tmp_path / "r.csv"
    write_columns(p, MEASURED_HEADER, [c, a, b])
    t, x, u = read_columns(p, MEASURED_HEADER)
    assert np.array_equal(t, c) and np.array_equal(x, a) and np.array_equal(u, b)


def test_emit_ingest_emit_identical_bytes(tmp_path):
    rng = np.random.default_rng(4)
    cols = [rng.standard_normal(30) for _ in range(3)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_columns(p1, MEASURED_HEADER, cols)
    write_columns(p2, MEASURED_HEADER, read_columns(p1, MEASURED_HEADER))
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_rows(tmp_path):
    p = tmp_path / "empty.csv"
    write_columns(p, SIM_HEADER, [np.array([]) for _ in SIM_HEADER])
    cols = read_columns(p, SIM_HEADER)
    assert all(len(c) == 0 for c in cols)


def test_write_validation(tmp_path):
    with pytest.raises(ValueError):
        write_columns(tmp_path / "x.csv", MEASURED_HEADER, [np.array([1.0])])
    with pytest.raises(ValueError):
        write_columns(
            tmp_path / "x.csv", MEASURED_HEADER,
            [np.array([1.0]), np.array([1.0, 2.0]), np.array([1.0])],
        )


def test_missing_file():
    with pytest.raises(CsvSchemaError, match="cannot read"):
        read_columns("/nonexistent/path.csv", MEASURED_HEADER)


def test_empty_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(CsvSchemaError) as exc:
        read_columns(p, MEASURED_HEADER)
    assert exc.value.row == 0


def test_bad_header(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("time,pos,force\n0.0,0.0,0.0\n", encoding="utf-8")
    with pytest.raises(CsvSchemaError) as exc:
        read_columns(p, MEASURED_HEADER)
    assert exc.value.row == 0


def test_header_whitespace_tolerated(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("t, x, u\n0.0,1.0,2.0\n", encoding="utf-8")
    t, x, u = read_columns(p, MEASURED_HEADER)
    assert x[0] == 1.0


def test_short_row_names_row(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,x,u\n0.0,0.0,0.0\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(CsvSchemaError) as exc:
        read_columns(p, MEASURED_HEADER)
    assert exc.value.row == 2


def test_non_numeric_cell_names_row_and_column(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("t,x,u\n0.0,oops,0.0\n", encoding="utf-8")
    with pytest.raises(CsvSchemaError, match="'x'") as exc:
        read_columns(p, MEASURED_HEADER)
    assert exc.value.row == 1
    # float() parses nan and inf, but they are not measurements
    for body, row, column in (("0.0,0.0,0.0\n1e-3,nan,-inf\n", 2, "'x'"),
                              ("0.0,0.0,inf\nnan,0.0,0.0\n", 1, "'u'"),
                              ("0.0,0.0,0.0\nInfinity,0.0,0.0\n", 2, "'t'")):
        p.write_text("t,x,u\n" + body, encoding="utf-8")
        with pytest.raises(CsvSchemaError, match=f"row {row} column {column}: not finite") as exc:
            read_columns(p, MEASURED_HEADER)
        assert exc.value.row == row
