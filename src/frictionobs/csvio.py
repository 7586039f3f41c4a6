"""CSV schemas shared by the command-line tools.

Three fixed layouts, all UTF-8 with '.' decimals and float cells written
with repr() (shortest round-trip form), so reading back what was written
reproduces the floats bit for bit:

    measured-in   : t,x,u
    sim-out       : t,x,v,f,u
    estimates-out : t,w2_tilde,w3_tilde,phi,e_obs
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

MEASURED_HEADER = ("t", "x", "u")
SIM_HEADER = ("t", "x", "v", "f", "u")
ESTIMATES_HEADER = ("t", "w2_tilde", "w3_tilde", "phi", "e_obs")


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(repr, map(float, row))) + "\n")


def read_columns(path: str | Path, header: tuple[str, ...]) -> list[np.ndarray]:
    """Read and validate a CSV against a schema; returns one array per column.

    Raises CsvSchemaError naming the offending row on a bad header, a row
    of the wrong width, or a cell that is not a finite number.
    """
    path = Path(path)
    try:
        # a byte that is not UTF-8 decodes to U+FFFD, which no number or
        # header contains, so it is reported like any other bad cell
        fh = open(path, "r", encoding="utf-8", errors="replace", newline="")
    except OSError as exc:
        raise CsvSchemaError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise CsvSchemaError(f"{path}: empty file, expected header {','.join(header)}", row=0)
        if tuple(s.strip() for s in got) != header:
            raise CsvSchemaError(
                f"{path}: bad header {','.join(got)!r}, expected {','.join(header)}", row=0
            )
        cols: list[list[float]] = [[] for _ in header]
        for rownum, row in enumerate(reader, start=1):
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
