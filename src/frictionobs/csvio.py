"""CSV schemas shared by the command-line tools.

Three fixed layouts, all UTF-8 with '.' decimals:

    measured-in   : t,x,u
    sim-out       : t,x,v,f,u
    estimates-out : t,w2_tilde,w3_tilde,phi,e_obs

``write_columns`` writes float cells with repr() (shortest round-trip
form), so reading back what it wrote reproduces the floats bit for bit. It
formats ``_ROWS`` rows at a time, so its memory is bounded by one block of
strings per process whatever the record's length. The rows are split into
one contiguous part of whole blocks per CPU this process may run on: the
process writes the first part into the file itself, while a forked child
formats each later part into an unnamed temporary file in the output's
directory, which is then appended to the file by the kernel. The bytes are
the same for any number of parts. With one CPU, one block, or no
``os.fork``/``os.sched_getaffinity`` (macOS, Windows) there is one part
and nothing forks.

A file is plain when its header is exactly what ``write_columns`` writes
and its body holds only the bytes of ``_PLAIN``. A plain file is read in
bulk: its body is parsed by one ``np.loadtxt`` call. Any other file, and
any body that call does not turn into one finite row per line, is read
again row by row with the csv module, which accepts every finite number
float() parses and names the first bad row.

``splice_rows`` joins the rows of two plain files by copying their lines,
``_ROWS`` at a time, so those cells keep the text they were written with:
repr() text for a file ``write_columns`` wrote, and the cell as written
(``1.50``, ``1e5``) otherwise, which reads back as the same float.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import tempfile
from array import array
from itertools import islice
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

MEASURED_HEADER = ("t", "x", "u")
SIM_HEADER = ("t", "x", "v", "f", "u")
ESTIMATES_HEADER = ("t", "w2_tilde", "w3_tilde", "phi", "e_obs")

# the bytes of a plain body: what repr() writes for finite floats, commas, '\n'
_PLAIN = b"0123456789.e+-,\n"
# a cell over the csv module's default field limit (131072 = 2 * _BLOCK
# characters) covers at least one whole block of the body, so a block with
# no ',' and no '\n' leaves the file to the csv reader
_BLOCK = 1 << 16
_ROWS = 4096


class CsvSchemaError(ValueError):
    """Header or row does not match the expected schema; names the row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def write_columns(path: str | Path, header: tuple[str, ...], columns: list[np.ndarray]) -> None:
    """Write equal-length columns under the given header.

    A write that fails once the file is open, a worker's included
    (OSError), removes the file.
    """
    lengths = {len(c) for c in columns}
    if len(columns) != len(header) or (lengths and lengths != {len(columns[0])}):
        raise ValueError("columns must match the header and share one length")
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0]) if columns else 0
    blocks = -(-n // _ROWS)
    parts = max(1, min(_cpus(), blocks))
    # part j is rows bounds[j] to bounds[j + 1]: whole blocks, the last one cut at n
    bounds = [min(j * blocks // parts * _ROWS, n) for j in range(parts + 1)]
    children = []  # (pid, temporary file, (lo, hi)) of each child not yet reaped
    try:
        with _output(path) as out, contextlib.ExitStack() as stack:
            out.write((",".join(header) + "\n").encode())
            # nothing of the file is left in a buffer for the children to inherit
            out.flush()
            for lo, hi in zip(bounds[1:], bounds[2:]):
                tmp = stack.enter_context(tempfile.TemporaryFile(dir=Path(path).parent))
                pid = os.fork()
                if pid == 0:
                    _work(tmp, columns, lo, hi)
                children.append((pid, tmp, (lo, hi)))
            _write_rows(out, columns, 0, bounds[1])
            # the kernel appends the other parts after what has reached the file
            out.flush()
            while children:
                pid, tmp, (lo, hi) = children[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if code:
                    raise OSError(f"{path}: the worker that formats rows {lo + 1} to {hi} "
                                  f"ended with exit status {code}")
                _append(out.fileno(), tmp.fileno())
    finally:
        # when this process's own write fails, its children are still reaped
        for pid, _, _ in children:
            os.waitpid(pid, 0)


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where it cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _output(path: str | Path) -> Iterator[io.BufferedWriter]:
    """path opened for writing bytes, and removed when the block or the close raises."""
    fh = open(path, "wb")
    try:
        with fh:
            yield fh
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _block(columns: list[np.ndarray], lo: int) -> bytes:
    """Rows lo to lo + _ROWS of the columns as CSV lines."""
    # tolist() yields Python floats, so each cell is repr of a float
    cells = [map(repr, c[lo:lo + _ROWS].tolist()) for c in columns]
    return ("\n".join(map(",".join, zip(*cells))) + "\n").encode()


def _write_rows(fh: io.BufferedIOBase, columns: list[np.ndarray], lo: int, hi: int) -> None:
    """Write rows lo to hi a block at a time; hi - lo is whole blocks unless hi is the end."""
    for i in range(lo, hi, _ROWS):
        fh.write(_block(columns, i))


def _work(tmp: io.BufferedRandom, columns: list[np.ndarray], lo: int, hi: int) -> NoReturn:
    """A forked child's whole run: rows lo to hi into tmp, then exit 0, or 1 on failure.

    os._exit is its one way out, so it never returns into the parent's with
    blocks, flushes none of the parent's buffers and prints no traceback.
    """
    code = 1
    try:
        _write_rows(tmp, columns, lo, hi)
        tmp.flush()
        code = 0
    finally:
        os._exit(code)


def _append(out: int, src: int) -> None:
    """Copy the whole file src to out's position, in the kernel."""
    size, offset = os.fstat(src).st_size, 0
    while offset < size:
        offset += os.sendfile(out, src, offset, size - offset)


def read_columns(path: str | Path, header: tuple[str, ...]) -> list[np.ndarray]:
    """Read and validate a CSV against a schema; returns one array per column.

    Raises CsvSchemaError naming the offending row on a bad header, a row
    of the wrong width, a cell that is not a finite number, or a cell longer
    than the csv module's field limit.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            columns = _read_plain(fh, header)
        return columns if columns is not None else _read_rows(path, header)
    except OSError as exc:
        raise CsvSchemaError(f"cannot read {path}: {exc}") from exc


def _plain_rows(fh: io.BufferedReader, header: tuple[str, ...]) -> int | None:
    """The number of lines of a plain file's body, or None when it is not plain.

    fh is a binary file at its start; it is read to its end. Plain is the
    header exactly as ``write_columns`` writes it, then only ``_PLAIN``
    bytes, with a ',' or a '\n' in every ``_BLOCK`` bytes of the body, so
    that no cell can reach the csv module's field limit. A last line with
    no '\n' counts.
    """
    if fh.readline() != (",".join(header) + "\n").encode():
        return None
    lines, last = 0, b"\n"
    # one block at a time, so that a scan holds two blocks and one block's
    # scratch for translate at most
    for block in iter(lambda: fh.read(_BLOCK), b""):
        if block.translate(None, _PLAIN) or (
                len(block) == _BLOCK and b"," not in block and b"\n" not in block):
            return None
        lines += block.count(b"\n")
        last = block[-1:]
    return lines + (last != b"\n")


def _read_plain(fh: io.BufferedReader, header: tuple[str, ...]) -> list[np.ndarray] | None:
    """Parse a plain body with one np.loadtxt call, or return None.

    fh is a binary file at its start. The result is what ``_read_rows``
    returns, and None leaves the file to it: a file that is not plain
    (``_plain_rows``), no rows, an empty first line, or a parse that is not
    one finite row of the header's width per line. Cells of plain bytes
    mean the same to loadtxt and float(): both round with the same strtod.
    """
    lines = _plain_rows(fh, header)
    fh.seek(0)
    fh.readline()
    # an empty body would make loadtxt warn that it found no data
    if not lines or fh.peek(1)[:1] == b"\n":
        return None
    try:
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    # loadtxt skips empty lines, which the csv reader rejects
    if table.shape != (lines, len(header)) or not np.isfinite(table).all():
        return None
    return list(table.T)


def _lines(fh: io.BufferedReader) -> list[bytes]:
    """The next ``_ROWS`` lines of fh, each ending in '\n'."""
    lines = list(islice(fh, _ROWS))
    if lines and not lines[-1].endswith(b"\n"):
        lines[-1] += b"\n"
    return lines


def splice_rows(path: str | Path, left: str | Path, left_header: tuple[str, ...],
                right: str | Path, right_header: tuple[str, ...]) -> bool:
    """Write each line of left followed by right's line without its first cell.

    left and right are files that ``read_columns`` has accepted under their
    headers, with one row count. When both are plain (``_plain_rows``), path
    gets the header ``left_header + right_header[1:]`` and the spliced
    lines, ``_ROWS`` at a time, and the result is True. Otherwise nothing is
    written and the result is False. For files that ``write_columns`` wrote
    the output is byte for byte what ``write_columns`` writes from their
    parsed columns. path must not name left or right.
    """
    with open(left, "rb") as a, open(right, "rb") as b:
        if _plain_rows(a, left_header) is None or _plain_rows(b, right_header) is None:
            return False
        for fh in (a, b):
            fh.seek(0)
            fh.readline()
        with _output(path) as out:
            out.write((",".join(left_header + right_header[1:]) + "\n").encode())
            # a plain line is a row read_columns accepted, so it holds a ','
            while block := _lines(a):
                out.write(b"".join([s[:-1] + r[r.index(b","):]
                                    for s, r in zip(block, _lines(b))]))
    return True


def _read_rows(path: Path, header: tuple[str, ...]) -> list[np.ndarray]:
    """Read a CSV cell by cell with the csv module; the first bad row raises CsvSchemaError.

    The header is row 0. The csv module's own errors (a field over its size
    limit) name the row they stop at.
    """
    # one packed float64 buffer per column, 8 bytes a cell
    cols = [array("d") for _ in header]
    row = 0
    # a byte that is not UTF-8 decodes to U+FFFD, which no number or header
    # contains, so it is reported like any other bad cell
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got is None:
                raise CsvSchemaError(
                    f"{path}: empty file, expected header {','.join(header)}", row=0)
            if tuple(s.strip() for s in got) != header:
                raise CsvSchemaError(
                    f"{path}: bad header {','.join(got)!r}, expected {','.join(header)}", row=0)
            row = 1
            for fields in reader:
                if len(fields) != len(header):
                    raise CsvSchemaError(
                        f"{path}: row {row} has {len(fields)} fields, expected {len(header)}",
                        row=row)
                for j, cell in enumerate(fields):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise CsvSchemaError(f"{path}: row {row} column {header[j]!r}: "
                                             f"not a number: {cell!r}", row=row) from None
                    # float() accepts nan and inf, but they are not measurements
                    if not math.isfinite(v):
                        raise CsvSchemaError(f"{path}: row {row} column {header[j]!r}: "
                                             f"not finite: {v!r}", row=row)
                    cols[j].append(v)
                row += 1
        except csv.Error as exc:
            raise CsvSchemaError(f"{path}: row {row}: {exc}", row=row) from None
    return [np.frombuffer(c) for c in cols]
