"""CSV schema tests: bit-exact round-trips and row-level diagnostics."""

import math
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frictionobs import csvio
from frictionobs import (
    CsvSchemaError,
    ESTIMATES_HEADER,
    MEASURED_HEADER,
    SIM_HEADER,
    SimulationDiverged,
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
                              ("0.0,0.0,0.0\nInfinity,0.0,0.0\n", 2, "'t'"),
                              # the first bad row is named, whatever is wrong further on
                              ("0.0,inf,0.0\n0.0005,abc,0.0\n", 1, "'x'")):
        p.write_text("t,x,u\n" + body, encoding="utf-8")
        with pytest.raises(CsvSchemaError, match=f"row {row} column {column}: not finite") as exc:
            read_columns(p, MEASURED_HEADER)
        assert exc.value.row == row


def test_overlong_cell_names_row(tmp_path):
    # the csv module refuses a field over 131072 characters
    p = tmp_path / "l.csv"
    for text, row in (("t,x,u\n0.0,0.0,0.0\n0.1," + "1" * 131073 + ",0.0\n", 2),
                      ("t,x,u" + "u" * 131073 + "\n0.0,0.0,0.0\n", 0),
                      ("t,x,u\n0.0," + "0" * 131072 + "1,0.0\n", 1)):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(CsvSchemaError, match=f"row {row}: field larger than field limit") \
                as exc:
            read_columns(p, MEASURED_HEADER)
        assert exc.value.row == row


def _outcome(read, path):
    """Columns as bytes, or the (message, row) of the CsvSchemaError raised."""
    try:
        return [c.tobytes() for c in read(path, MEASURED_HEADER)]
    except CsvSchemaError as exc:
        return str(exc), exc.row


def _check_paths_agree(data: bytes):
    """read_columns (bulk when it can) gives what the csv reader alone gives."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.csv"
        p.write_bytes(data)
        rows = _outcome(csvio._read_rows, p)
        assert _outcome(read_columns, p) == rows
        with open(p, "rb") as fh:
            bulk = csvio._read_plain(fh, MEASURED_HEADER)
        if bulk is not None:
            assert [c.tobytes() for c in bulk] == rows


# cells float() and loadtxt may disagree on, next to ordinary ones
ODD_CELLS = st.sampled_from([
    "1_0", "Infinity", "inf", "-inf", "nan", "1e999", " 1 ", "1 ", "\t2", "", "-", "1e",
    ".5", "5.", "+1", "--1", "1E5", "0x1p3", "\u0661", "1\x1c", "\x1f1", "1\x00", "1\u2028",
    "\xa01", '"1"', '"1,2"', "0" * 131071 + "1", "0" * 131072 + "1",
])
CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.integers(-99, 99).map(str), ODD_CELLS)
LINES = st.one_of(
    st.lists(CELLS, min_size=3, max_size=3).map(",".join),
    st.lists(CELLS, min_size=3, max_size=3).map(",".join),
    st.lists(CELLS, min_size=1, max_size=5).map(",".join),
    st.sampled_from(["", " ", "\t", ",,", "0.0,0.0", "0.0,0.0,0.0,"]),
)
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    head = draw(st.sampled_from(["t,x,u", "t,x,u", " t, x, u", "t,x,u,", "a,b,c"]))
    lines = [head] + draw(st.lists(LINES, max_size=6))
    text = "".join(line + draw(ENDINGS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(csv_files())
@example(b"t,x,u\n")
@example(b"t,x,u\n\n")
@example(b"t,x,u\n0.0,1.0,2.0")
@example(b"t,x,u\r\n0.0,1.0,2.0\r\n")
@example(b"t,x,u\n0.0,1.0,2.0\n\n1.0,1.0,2.0\n")
@example(b"t,x,u\n0.0,1.0,2.0\n \n")
@example(b"t,x,u\n1_0,1.0,2.0\n")
@example(b"t,x,u\n0.0,1e999,2.0\n")
@example(b"t,x,u\n0.0,1.0," + b"0" * 131072 + b"1\n")
def test_bulk_read_matches_row_read(data):
    _check_paths_agree(data)


def test_bulk_read_matches_row_read_across_chunks():
    # bodies of many read blocks, with the defect past their end
    good = "".join(f"{k * 5e-4!r},{k * 1e-7!r},-0.5\n" for k in range(40000))
    assert len(good) > 16 * csvio._BLOCK
    for tail in ("", "\n", "1.0,2.0\n", "1.0,2.0,3.0\n\n", "1.0,nan,3.0\n",
                 "1.0,1\x1c,3.0\n", "1.0," + "0" * 131072 + "1,3.0\n",
                 "1.0," + "0" * 131071 + "1,3.0\n", "2.0,3.0,4.0"):
        _check_paths_agree(("t,x,u\n" + good + tail).encode("utf-8"))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=1, max_size=40))
@example([(0.0, -0.0, 5e-324), (-5e-324, 2.2250738585072014e-308, 1.7e308),
          (-1.7e308, 1.7976931348623157e308, -2.225073858507201e-308)])
def test_write_read_roundtrip_any_finite_float(rows):
    cols = [np.array(c, dtype=float) for c in zip(*rows)]
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "r.csv"
        write_columns(p, MEASURED_HEADER, cols)
        back = read_columns(p, MEASURED_HEADER)
        with open(p, "rb") as fh:
            assert csvio._read_plain(fh, MEASURED_HEADER) is not None
    assert [c.tobytes() for c in back] == [c.tobytes() for c in cols]


def _write_row_by_row(path, header, columns):
    """The writer as it was before it worked in blocks: one row per write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(repr, map(float, row))) + "\n")


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e16, 1e-5, 1e22, 0.1]


EDGE_HEADER = ("e", "r", "n", "t", "i", "l", "b", "s")


def _edge_columns(n):
    """EDGE_VALUES and random columns of n rows: float, strided, int64, list, >f8 and float32."""
    rng = np.random.default_rng(n)
    edge = np.resize(np.array(EDGE_VALUES), n)
    # the strided columns of one table, as read_columns returns them
    table = np.column_stack([edge[::-1], rng.standard_normal(n) * 1e-3, np.arange(n) * 5e-4])
    columns = [
        edge,
        *table.T,
        rng.integers(-2**62, 2**62, size=n),
        list(rng.permutation(edge)),
        # orjson raises on a strided column and misreads these two as they are
        edge.astype(">f8"),
        (rng.standard_normal(n) * 1e-3).astype(np.float32),
    ]
    assert not columns[1].flags.c_contiguous or n < 2
    assert columns[4].dtype == np.int64 and isinstance(columns[5], list)
    return columns


def _assert_writes_like_rows(tmp_path, n):
    columns = _edge_columns(n)
    write_columns(tmp_path / "block.csv", EDGE_HEADER, columns)
    _write_row_by_row(tmp_path / "row.csv", EDGE_HEADER, columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


def _assert_no_child():
    # a child that was not reaped would be returned here, running or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [0, 1, csvio._ROWS - 1, csvio._ROWS, csvio._ROWS + 1,
                               2 * csvio._ROWS + 3])
def test_block_writer_matches_row_writer(tmp_path, n):
    _assert_writes_like_rows(tmp_path, n)


def _set_cpus(monkeypatch, cpus):
    """Make csvio see cpus CPUs; None: a platform with no os.sched_getaffinity.

    "fork_fails": two CPUs, where os.fork fails as at a process limit (EAGAIN).
    """
    if cpus == "fork_fails":
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(csvio.os, "fork", fork)
        cpus = 2
    if cpus is None:
        monkeypatch.delattr(csvio.os, "sched_getaffinity")
    else:
        monkeypatch.setattr(csvio.os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("cpus", [None, 1, 2, 3, 4, "fork_fails"])
@pytest.mark.parametrize("n", [0, 1, csvio._PIECE + 1, csvio._ROWS, csvio._ROWS + 1,
                               3 * csvio._ROWS + 7])
def test_split_writer_matches_row_writer(tmp_path, monkeypatch, cpus, n):
    # two halves of whole blocks on two CPUs or more, or both halves here when
    # the fork fails: the bytes do not depend on the split
    _set_cpus(monkeypatch, cpus)
    _assert_writes_like_rows(tmp_path, n)
    _assert_no_child()


@pytest.mark.parametrize("failing", ["worker", "parent", "worker_not_os"])
def test_failed_part_removes_the_file_and_reaps_every_child(tmp_path, monkeypatch, failing):
    # two blocks on two CPUs: this process formats rows from 0, a forked child those from _ROWS
    block = csvio._block
    error = MemoryError() if failing == "worker_not_os" else OSError(28, "No space left on device")

    def broken(columns, lo):
        if (lo > 0) == (failing != "parent"):
            raise error
        return block(columns, lo)

    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(csvio, "_block", broken)
    out = tmp_path / "w.csv"
    with pytest.raises(type(error)) as exc:
        write_columns(out, EDGE_HEADER, _edge_columns(2 * csvio._ROWS))
    # the child's failure reaches this process with its type, and an
    # OSError with its errno, as this process's own write would raise it
    assert type(exc.value) is type(error)
    assert getattr(exc.value, "errno", None) == getattr(error, "errno", None)
    assert str(exc.value) == str(error)
    assert list(tmp_path.iterdir()) == []
    _assert_no_child()


@pytest.mark.parametrize("cpus", [1, 2])
def test_write_blocks_holds_no_chunk_once_written(tmp_path, monkeypatch, cpus):
    # each half takes one chunk at a time and keeps no name for it, so a
    # chunk is freed before the fold formats the next; on two CPUs the
    # child's failed check is handed back like any other failure
    n = 3 * csvio._ROWS
    pair = [[np.asarray(c, dtype=float) for c in _edge_columns(n)] for _ in range(2)]
    pair[1].reverse()
    checked = []

    def blocks(lo):
        chunk = None
        for row in range(lo, n, csvio._ROWS):
            for columns in pair:
                if chunk is not None:
                    # this name and getrefcount's argument are its only references
                    assert sys.getrefcount(chunk) - 2 == 0
                    checked.append(row)
                chunk = csvio._block(columns, row)
                yield chunk

    _set_cpus(monkeypatch, cpus)
    outputs = [(tmp_path / f"{i}.csv", EDGE_HEADER) for i in range(2)]
    csvio.write_blocks(outputs, n, blocks)
    # this process's half: every chunk but the first, or the first block's second
    assert len(checked) == {1: 5, 2: 1}[cpus]
    for (path, _), columns in zip(outputs, pair):
        write_columns(tmp_path / "ref.csv", EDGE_HEADER, columns)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _assert_no_child()


def test_split_write_without_temporary_files_is_one_part(tmp_path, monkeypatch):
    # a file that may be written in a directory that may not: the second
    # half's file cannot be made, so this process writes every row and nothing forks
    calls = []

    def temporary_file(*args, **kwargs):
        calls.append(None)
        raise PermissionError(13, "Permission denied")

    _set_cpus(monkeypatch, 3)
    monkeypatch.setattr(csvio.tempfile, "TemporaryFile", temporary_file)
    _assert_writes_like_rows(tmp_path, 3 * csvio._ROWS + 7)
    assert len(calls) == 1
    _assert_no_child()


# repr() writes an exponent below 1e-4 and from 1e16 on, where orjson does not
THRESHOLDS = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16]


def _repr_cells(values):
    return [repr(v).encode() for v in values.tolist()]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
@example([0.0, -0.0, 5e-324, -5e-324, math.nan, -math.inf, math.inf, *THRESHOLDS])
@example([-1e-4, -1e16, 2.0 ** 53, 1.7976931348623157e308, 0.1, 1 / 3])
def test_cells_are_repr_of_every_float(values):
    column = np.array(values)
    assert csvio._cells(column) == _repr_cells(column)


def test_cells_are_repr_of_a_million_floats():
    # the orjson release in use must keep repr()'s digits: random bit
    # patterns (every exponent, nan and inf among them) and values spread
    # log-uniformly across both thresholds, a 2**16 slice at a time
    rng = np.random.default_rng(35)
    bits = rng.integers(0, 2**64, size=2**19, dtype=np.uint64).view(float)
    spread = 10.0 ** rng.uniform(-7, 19, size=2**19) * rng.choice([-1.0, 1.0], size=2**19)
    edges = np.array(THRESHOLDS)
    values = np.concatenate([edges, -edges, bits, spread])
    assert len(values) >= 10**6
    for lo in range(0, len(values), 2**16):
        piece = values[lo:lo + 2**16]
        assert csvio._cells(piece) == _repr_cells(piece)


def test_row_read_holds_each_cell_as_a_packed_double(tmp_path):
    # a CRLF file is read row by row; its columns grow as packed float64
    # buffers, about 8 bytes a cell, where a list of floats takes 32
    n = 20000
    cols = [np.arange(n) * 5e-4, np.sin(np.arange(n) * 1e-3), np.full(n, -0.5)]
    p = tmp_path / "crlf.csv"
    write_columns(p, MEASURED_HEADER, cols)
    p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    with open(p, "rb") as fh:
        assert csvio._read_plain(fh, MEASURED_HEADER) is None
    tracemalloc.start()
    try:
        back = read_columns(p, MEASURED_HEADER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.tobytes() for c in back] == [c.tobytes() for c in cols]
    assert peak <= 16 * 3 * n


@pytest.mark.parametrize("newline", [True, False], ids=["newline", "no_newline"])
@pytest.mark.parametrize("n", [1, csvio._ROWS - 1, csvio._ROWS, csvio._ROWS + 1,
                               3 * csvio._ROWS + 7])
def test_plain_read_gives_each_column_a_buffer_of_its_own(tmp_path, n, newline):
    # a plain body is parsed a block at a time into one array a column, so
    # a command can free one column while it holds the others
    p = tmp_path / "sim.csv"
    write_columns(p, SIM_HEADER, [np.arange(n) * 5e-4, np.resize(np.array(EDGE_VALUES), n),
                                  *np.random.default_rng(n).standard_normal((3, n))])
    if not newline:
        p.write_bytes(p.read_bytes()[:-1])
    with open(p, "rb") as fh:
        columns = csvio._read_plain(fh, SIM_HEADER)
    assert columns is not None
    for column, by_row in zip(columns, csvio._read_rows(p, SIM_HEADER)):
        assert column.flags.c_contiguous and column.flags.owndata
        assert column.tobytes() == by_row.tobytes()


@pytest.mark.parametrize("row", [0, csvio._ROWS - 1, csvio._ROWS, csvio._ROWS + 1,
                                 2 * csvio._ROWS])
def test_empty_line_in_any_block_leaves_the_file_to_the_row_reader(tmp_path, row):
    # loadtxt skips an empty line, and warns on a block that holds nothing
    # else (the one at 2 * _ROWS, the last line); the row reader names it
    p = tmp_path / "m.csv"
    write_columns(p, MEASURED_HEADER, [np.arange(2 * csvio._ROWS) * 5e-4] * 3)
    lines = p.read_bytes().split(b"\n")
    lines.insert(1 + row, b"")
    p.write_bytes(b"\n".join(lines))
    with open(p, "rb") as fh:
        assert csvio._read_plain(fh, MEASURED_HEADER) is None
    with pytest.raises(CsvSchemaError) as exc:
        read_columns(p, MEASURED_HEADER)
    assert exc.value.row == row + 1


MERGED_HEADER = SIM_HEADER + ESTIMATES_HEADER[1:]


def _sim_and_estimates(tmp_path, n):
    """A sim and an estimates CSV of n rows on one grid, as write_columns writes them."""
    rng = np.random.default_rng(n)
    t = np.arange(n) * 5e-4
    sim, est = tmp_path / "sim.csv", tmp_path / "est.csv"
    write_columns(sim, SIM_HEADER,
                  [t, np.resize(np.array(EDGE_VALUES), n), *rng.standard_normal((3, n))])
    write_columns(est, ESTIMATES_HEADER, [t, *(rng.standard_normal((4, n)) * 1e-3)])
    return sim, est


def _merged_by_write_columns(path, sim, est):
    """compare's merge formatted anew from the parsed columns."""
    write_columns(path, MERGED_HEADER,
                  read_columns(sim, SIM_HEADER) + read_columns(est, ESTIMATES_HEADER)[1:])


@pytest.mark.parametrize("n", [1, csvio._ROWS - 1, csvio._ROWS, csvio._ROWS + 1, 9000])
def test_splice_matches_write_columns(tmp_path, n):
    sim, est = _sim_and_estimates(tmp_path, n)
    _merged_by_write_columns(tmp_path / "written.csv", sim, est)
    csvio.splice_rows(tmp_path / "spliced.csv", sim, est)
    assert (tmp_path / "spliced.csv").read_bytes() == (tmp_path / "written.csv").read_bytes()


@pytest.mark.parametrize("strip", ["sim", "est", "both"])
def test_splice_last_line_without_newline(tmp_path, strip):
    sim, est = _sim_and_estimates(tmp_path, csvio._ROWS + 1)
    _merged_by_write_columns(tmp_path / "written.csv", sim, est)
    for p in {"sim": [sim], "est": [est], "both": [sim, est]}[strip]:
        p.write_bytes(p.read_bytes().rstrip(b"\n"))
        assert csvio._read_columns(p, SIM_HEADER if p == sim else ESTIMATES_HEADER)[1]
    csvio.splice_rows(tmp_path / "spliced.csv", sim, est)
    assert (tmp_path / "spliced.csv").read_bytes() == (tmp_path / "written.csv").read_bytes()


@pytest.mark.parametrize("edit", [lambda b: b.replace(b"\n", b"\r\n"),
                                  lambda b: b.replace(b",", b", "),
                                  lambda b: b"\xef\xbb\xbf" + b])
def test_splice_leaves_files_that_are_not_plain(tmp_path, edit):
    # a CRLF, space-padded or byte-order-marked file is read row by row, so
    # the reader calls it not plain and compare does not splice it
    sim, est = _sim_and_estimates(tmp_path, 50)
    plain = read_columns(est, ESTIMATES_HEADER)
    assert csvio._read_columns(sim, SIM_HEADER)[1]
    est.write_bytes(edit(est.read_bytes()))
    columns, bulk = csvio._read_columns(est, ESTIMATES_HEADER)
    assert bulk is False
    assert [c.tobytes() for c in columns] == [c.tobytes() for c in plain]


def test_splice_copies_plain_cells_as_written(tmp_path):
    # 1.50 and 1e5 are not repr() text; they are copied, and read back as the same floats
    sim, est = tmp_path / "sim.csv", tmp_path / "est.csv"
    sim.write_bytes(b"t,x,v,f,u\n0.0,1.50,-0.0,1e5,2\n5e-4,.5,5.,10e4,-1e-3\n")
    est.write_bytes(b"t,w2_tilde,w3_tilde,phi,e_obs\n0.000,1.50,00.1,+3,1e+5\n"
                    b"0.00050,0.25,1e-400,7,8\n")
    out = tmp_path / "merged.csv"
    assert csvio._read_columns(sim, SIM_HEADER)[1] and csvio._read_columns(est, ESTIMATES_HEADER)[1]
    csvio.splice_rows(out, sim, est)
    assert out.read_bytes() == (b"t,x,v,f,u,w2_tilde,w3_tilde,phi,e_obs\n"
                                b"0.0,1.50,-0.0,1e5,2,1.50,00.1,+3,1e+5\n"
                                b"5e-4,.5,5.,10e4,-1e-3,0.25,1e-400,7,8\n")
    merged = read_columns(out, MERGED_HEADER)
    parsed = read_columns(sim, SIM_HEADER) + read_columns(est, ESTIMATES_HEADER)[1:]
    assert [c.tobytes() for c in merged] == [c.tobytes() for c in parsed]


@pytest.mark.parametrize("n", [1, csvio._ROWS, csvio._ROWS + 1, 3 * csvio._ROWS - 1])
def test_plain_scan_counts_the_lines(tmp_path, n):
    # 64 KiB read blocks end inside lines; a last line without '\n' counts
    sim, _ = _sim_and_estimates(tmp_path, n)
    body = sim.read_bytes()
    # the body's first read block ends inside a line
    assert n == 1 or body[body.index(b"\n") + csvio._BLOCK] != ord("\n")
    for data in (body, body.rstrip(b"\n")):
        sim.write_bytes(data)
        with open(sim, "rb") as fh:
            assert csvio._plain_rows(fh, SIM_HEADER) == n


def test_room_check_counts_the_shortest_rows(tmp_path, monkeypatch):
    # t,x,u rows take at least 12 bytes ("0.0,0.0,0.0\n"), and the header 6
    free = 6 + 12 * 1000
    monkeypatch.setattr(csvio.shutil, "disk_usage", lambda path: SimpleNamespace(free=free))
    out = tmp_path / "new" / "m.csv"
    csvio._check_room([(out, MEASURED_HEADER)], 1000)
    with pytest.raises(OSError) as exc:
        csvio._check_room([(out, MEASURED_HEADER)], 1001)
    assert exc.value.errno == 28 and "1001 rows need at least 12018 bytes" in str(exc.value)
    # a file that is there is truncated, so its bytes count as free
    (tmp_path / "old.csv").write_bytes(b"x" * 12)
    csvio._check_room([(tmp_path / "old.csv", MEASURED_HEADER)], 1001)
    # a device takes no disk space
    if os.path.exists("/dev/null"):
        csvio._check_room([("/dev/null", MEASURED_HEADER)], 10 ** 15)

    # a file system whose free space cannot be read is not checked: opening
    # the output there reports what is wrong
    def unreadable(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(csvio.shutil, "disk_usage", unreadable)
    csvio._check_room([(out, MEASURED_HEADER)], 10 ** 15)


def test_splice_memory_is_bounded_by_a_block(tmp_path):
    # the plainness scan holds two read blocks and one block of scratch at
    # most, and the splice one block of both inputs' lines, of the spliced
    # lines and of their join, whatever the row count
    n = 12 * csvio._ROWS
    sim, est = _sim_and_estimates(tmp_path, n)
    out = tmp_path / "merged.csv"
    tracemalloc.start()
    try:
        with open(sim, "rb") as fh:
            assert csvio._plain_rows(fh, SIM_HEADER) == n
        scan = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        csvio.splice_rows(out, sim, est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert scan <= 3 * csvio._BLOCK
    assert peak <= 4 * csvio._ROWS * size / n < size


def _identity(exc):
    """What a handed-back failure must keep: type, text, args and attributes."""
    return (type(exc), str(exc), exc.args, vars(exc), getattr(exc, "errno", None),
            getattr(exc, "filename", None))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failure", [
    CsvSchemaError("truth CSV rejected: row 7", 7),
    SimulationDiverged(0.25, 1e4, 1e3),
    FileNotFoundError(2, "No such file or directory", "x.csv"),
    MemoryError("cannot allocate"),
], ids=["schema", "diverged", "os_error", "memory"])
def test_in_parallel_raises_the_childs_failure_first(monkeypatch, cpus, failure):
    # the child's failure keeps its type and attributes, and takes the place of
    # a failure of this process's half; with one CPU that half never runs
    def child():
        raise failure

    def parent():
        ran.append(None)
        raise ValueError("the parent's own failure")

    ran = []
    _set_cpus(monkeypatch, cpus)
    with pytest.raises(type(failure)) as exc:
        csvio._in_parallel(child, parent)
    assert _identity(exc.value) == _identity(failure)
    assert len(ran) == cpus - 1
    _assert_no_child()


@pytest.mark.parametrize("cpus", [1, 2, "fork_fails"])
def test_in_parallel_hands_back_results(monkeypatch, cpus):
    # a fork that fails (EAGAIN at a process limit) runs both halves here, as one CPU does
    _set_cpus(monkeypatch, cpus)
    column = np.arange(100_000) * 5e-4
    (got, diverged), mine = csvio._in_parallel(
        lambda: (column.copy(), SimulationDiverged(1.5, 2e3, 1e3)), lambda: "parent")
    assert got.tobytes() == column.tobytes() and got.flags.writeable
    assert _identity(diverged) == _identity(SimulationDiverged(1.5, 2e3, 1e3))
    assert mine == "parent"
    with pytest.raises(ValueError, match="the parent's own"):
        csvio._in_parallel(lambda: None, lambda: int("the parent's own"))
    _assert_no_child()


def test_in_parallel_child_that_hands_back_nothing(monkeypatch):
    # a pickle stream that ends early is a failure even where the child exits 0
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(csvio, "_hand_back", lambda w, fn: os._exit(0))
    with pytest.raises(ChildProcessError, match="exit status 0 before it handed back"):
        csvio._in_parallel(lambda: 1, lambda: 2)
    _assert_no_child()


def test_handed_back_array_is_held_once(monkeypatch):
    # the child's array crosses the pipe as one block of bytes, read into the
    # buffer that the array handed back here is built on
    _set_cpus(monkeypatch, 2)
    a = np.arange(3 << 20) * 5e-4
    tracemalloc.start()
    try:
        (got,), _ = csvio._in_parallel(lambda: (a,), lambda: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == a.tobytes()
    assert peak <= a.nbytes * 1.01
    _assert_no_child()
