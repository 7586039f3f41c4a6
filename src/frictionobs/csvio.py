"""CSV schemas shared by the command-line tools.

Three fixed layouts, all UTF-8 with '.' decimals and float cells written
with repr() (shortest round-trip form), so reading back what was written
reproduces the floats bit for bit:

    measured-in   : t,x,u
    sim-out       : t,x,v,f,u
    estimates-out : t,w2_tilde,w3_tilde,phi,e_obs

The writer formats and writes ``_ROWS`` rows at a time, so its memory is
bounded by one block of strings whatever the record's length.

A file is read in bulk when it can be: a body of plain numeric text under
the header exactly as ``write_columns`` writes it is parsed by one
``np.loadtxt`` call. Any other file, and any body that call does not turn
into one finite row per line, is read again row by row with the csv module,
which accepts what float() accepts and names the first bad row.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

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
_CHUNK = 16 * _BLOCK
_ROWS = 4096


class CsvSchemaError(ValueError):
    """Header or row does not match the expected schema; names the row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def write_columns(path: str | Path, header: tuple[str, ...], columns: list[np.ndarray]) -> None:
    """Write equal-length columns under the given header."""
    lengths = {len(c) for c in columns}
    if len(columns) != len(header) or (lengths and lengths != {len(columns[0])}):
        raise ValueError("columns must match the header and share one length")
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n, _ROWS):
            # tolist() yields Python floats, so each cell is repr of a float
            cells = [map(repr, c[i:i + _ROWS].tolist()) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


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


def _read_plain(fh: io.BufferedReader, header: tuple[str, ...]) -> list[np.ndarray] | None:
    """Parse a plain body with one np.loadtxt call, or return None.

    fh is a binary file at its start. The result is what ``_read_rows``
    returns, and None leaves the file to it: a header other than the one
    ``write_columns`` writes, no rows, an empty first line, a byte outside
    ``_PLAIN``, a possibly overlong cell, or a parse that is not one finite
    row of the header's width per line. Cells of plain bytes mean the same
    to loadtxt and float(): both round with the same strtod.
    """
    if fh.readline() != (",".join(header) + "\n").encode():
        return None
    # an empty body would make loadtxt warn that it found no data
    if fh.peek(1)[:1] in (b"", b"\n"):
        return None
    body = fh.tell()
    lines, last = 0, b""
    # _CHUNK is a multiple of _BLOCK, so the blocks tile the body
    for chunk in iter(lambda: fh.read(_CHUNK), b""):
        if chunk.translate(None, _PLAIN) or any(
            chunk.find(b",", j, j + _BLOCK) < 0 and chunk.find(b"\n", j, j + _BLOCK) < 0
            for j in range(0, len(chunk) - _BLOCK + 1, _BLOCK)
        ):
            return None
        lines += chunk.count(b"\n")
        last = chunk[-1:]
    lines += last != b"\n"
    fh.seek(body)
    try:
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    # loadtxt skips empty lines, which the csv reader rejects
    if table.shape != (lines, len(header)) or not np.isfinite(table).all():
        return None
    return list(table.T)


def _records(reader, path: Path):
    """(row, fields) from a csv reader, the header as row 0.

    The csv module's own errors (a field over its size limit) become
    CsvSchemaError naming the row.
    """
    row = 0
    while True:
        try:
            fields = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise CsvSchemaError(f"{path}: row {row}: {exc}", row=row) from None
        yield row, fields
        row += 1


def _read_rows(path: Path, header: tuple[str, ...]) -> list[np.ndarray]:
    """Read a CSV cell by cell with the csv module; the first bad row raises CsvSchemaError."""
    # a byte that is not UTF-8 decodes to U+FFFD, which no number or header
    # contains, so it is reported like any other bad cell
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        records = _records(csv.reader(fh), path)
        try:
            _, got = next(records)
        except StopIteration:
            raise CsvSchemaError(
                f"{path}: empty file, expected header {','.join(header)}", row=0
            ) from None
        if tuple(s.strip() for s in got) != header:
            raise CsvSchemaError(
                f"{path}: bad header {','.join(got)!r}, expected {','.join(header)}", row=0
            )
        cols: list[list[float]] = [[] for _ in header]
        for rownum, row in records:
            if len(row) != len(header):
                raise CsvSchemaError(
                    f"{path}: row {rownum} has {len(row)} fields, expected {len(header)}",
                    row=rownum,
                )
            for j, cell in enumerate(row):
                try:
                    cols[j].append(float(cell))
                except ValueError:
                    raise CsvSchemaError(
                        f"{path}: row {rownum} column {header[j]!r}: not a number: {cell!r}",
                        row=rownum,
                    ) from None
    arrays = [np.array(c, dtype=float) for c in cols]
    # float() accepts nan and inf; report the first such cell, row-major
    finite = [np.isfinite(a) for a in arrays]
    bad = [(int(np.argmin(ok)), j) for j, ok in enumerate(finite) if not ok.all()]
    if bad:
        i, j = min(bad)
        raise CsvSchemaError(
            f"{path}: row {i + 1} column {header[j]!r}: not finite: {cols[j][i]!r}", row=i + 1
        )
    return arrays
