"""CSV schemas shared by the command-line tools.

Three fixed layouts, all UTF-8 with '.' decimals:

    measured-in   : t,x,u
    sim-out       : t,x,v,f,u
    estimates-out : t,w2_tilde,w3_tilde,phi,e_obs

``write_columns`` writes float cells with repr() (shortest round-trip
form), so reading back what it wrote reproduces the floats bit for bit. It
formats ``_ROWS`` rows at a time, so its memory is bounded by one block of
strings per process whatever the record's length. It and ``splice_rows``
write in two halves (``_in_two_halves``): with two CPUs and at least two
blocks, this process writes the first half of the blocks into the file
while a child forked by ``_in_parallel`` writes the rest into one unnamed
temporary file in the output's directory, which is then copied onto the
end of the file. The child's failure reaches this process with its type
and attributes (an OSError keeps its errno and text), and the bytes are
the same with or without the split. With one CPU, one block, no
``os.fork`` or ``os.sched_getaffinity`` (macOS, Windows), or a directory
the temporary file cannot be made in, this process writes every row itself.

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

``_in_parallel`` runs two independent halves of a command or of a CSV
write at once: one half in a forked child, which hands back its result or
its failure as one pickle stream through a pipe, the other in this
process. It is the one place that forks. With one CPU, no ``os.fork``, or a
fork that fails, it calls the first half and then the second.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import pickle
import shutil
import stat
import tempfile
from array import array
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, NoReturn

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

    A write that fails once the file is open, the forked half's included,
    removes the file (``_output``).
    """
    lengths = {len(c) for c in columns}
    if len(columns) != len(header) or (lengths and lengths != {len(columns[0])}):
        raise ValueError("columns must match the header and share one length")
    columns = [np.asarray(c, dtype=float) for c in columns]
    _in_two_halves(path, header, len(columns[0]) if columns else 0,
                   lambda fh, lo, hi: _write_rows(fh, columns, lo, hi))


def _in_two_halves(path: str | Path, header: tuple[str, ...], n: int,
                   write: Callable[[io.BufferedIOBase, int, int], None]) -> None:
    """Write the header to path, then rows 0 to n in two halves (see above).

    write(fh, lo, hi) writes rows lo to hi, whole blocks but for the last, at
    fh's position. A failure, the child's included, removes path (``_output``).
    """
    half = -(-n // _ROWS) // 2 * _ROWS if _cpus() > 1 else 0
    with _output(path) as out:
        out.write((",".join(header) + "\n").encode())
        try:
            # a directory this process cannot create files in leaves the write to it
            rest = tempfile.TemporaryFile(dir=Path(path).parent) if half else None
        except OSError:
            rest = None
        if rest is None:
            write(out, 0, n)
            return
        with rest:
            def child():
                write(rest, half, n)
                rest.flush()

            _in_parallel(child, lambda: write(out, 0, half))
            _append(out, rest)


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where it cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _in_parallel(child: Callable[[], object], parent: Callable[[], object]) -> tuple:
    """(child(), parent()), with child() run in a forked process while this one runs parent().

    A failure of child() is raised in place of one of parent(), whichever
    ends first. With one CPU (``_cpus``), or where the fork fails, child()
    runs first in this process, and parent() only when child() returns.
    The child hands its result or its failure back through a pipe, pickled
    by ``_Pickler`` so that an exception keeps its type and attributes, and
    always leaves by os._exit. A contiguous array crosses in one pickle
    stream as one block of bytes, which is read into the bytearray that the
    array received here is built on, so it is held once. A child that
    cannot hand anything back (it was killed, its result does not pickle,
    or its stream ends early) raises ChildProcessError.
    """
    if _cpus() < 2:
        return child(), parent()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return child(), parent()
    if pid == 0:
        os.close(r)
        _hand_back(w, child)
    os.close(w)
    done = None
    try:
        with open(r, "rb") as pipe:
            try:
                mine = parent()
            finally:
                # read to the end before the reap: the child blocks on a full pipe
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    done, theirs = pickle.load(pipe)
    finally:
        # the pipe is closed, so a child still writing to it fails and exits
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code or done is None:
            raise ChildProcessError("a forked process " + (
                f"was killed by signal {-code}" if code < 0 else f"ended with exit status {code}")
                + " before it handed back its result")
        if not done:
            raise theirs
    return theirs, mine


def _hand_back(w: int, fn: Callable[[], object]) -> NoReturn:
    """A forked child's whole run: fn's result, or its failure, pickled into the pipe w."""
    code = 1
    try:
        try:
            payload = (True, fn())
        except BaseException as exc:
            payload = (False, exc)
        with open(w, "wb") as pipe:
            _Pickler(pipe, 5).dump(payload)
        code = 0
    finally:
        os._exit(code)


def _exception(cls: type, new_args: tuple, args: tuple, state: dict) -> BaseException:
    """An exception rebuilt without its __init__, whose signature need not match its args."""
    exc = cls.__new__(cls, *new_args)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class _Pickler(pickle.Pickler):
    """A pickler that keeps an exception's type and attributes.

    The default reduction calls the class with the exception's args, which
    fails where __init__ takes other arguments than it stores in args
    (``plant.SimulationDiverged``).
    """

    def reducer_override(self, obj):
        if isinstance(obj, BaseException):
            # OSError.__new__ sets errno, strerror and filename from what its
            # reduction lists, which are more than its args
            return _exception, (type(obj), obj.__reduce__()[1], obj.args, vars(obj))
        return NotImplemented


@contextlib.contextmanager
def _output(path: str | Path) -> Iterator[io.BufferedWriter]:
    """path opened for writing bytes, and removed when the block or the close raises.

    Only a regular file is removed: a device, a FIFO or a symlink that path
    names is left in place, and a symlink's target as written.
    """
    fh = open(path, "wb")
    regular = False
    try:
        with fh:
            regular = stat.S_ISREG(os.lstat(path).st_mode)
            yield fh
    except BaseException:
        if regular:
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


def _append(out: io.BufferedIOBase, src: io.BufferedIOBase) -> None:
    """Copy the whole binary file src to out's position, through out.write."""
    src.seek(0)
    shutil.copyfileobj(src, out)


def read_columns(path: str | Path, header: tuple[str, ...]) -> list[np.ndarray]:
    """Read and validate a CSV against a schema; returns one array per column.

    Raises CsvSchemaError naming the offending row on a bad header, a row
    of the wrong width, a cell that is not a finite number, or a cell longer
    than the csv module's field limit, and on a file that cannot be read.
    """
    path = Path(path)
    with _reading(path) as fh:
        columns = _read_plain(fh, header)
        return columns if columns is not None else _read_rows(path, header)


@contextlib.contextmanager
def _reading(path: Path) -> Iterator[io.BufferedReader]:
    """path opened for reading bytes; an OSError, the open's included, raises CsvSchemaError."""
    try:
        with open(path, "rb") as fh:
            yield fh
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
    lines, ``_ROWS`` at a time and in two halves like ``write_columns``,
    and the result is True. Otherwise nothing is written and the result is
    False. For files that ``write_columns`` wrote the output is byte for
    byte what ``write_columns`` writes from their parsed columns. path must
    not name left or right.
    """
    with open(left, "rb") as a, open(right, "rb") as b:
        n = _plain_rows(a, left_header)
        if n is None or _plain_rows(b, right_header) is None:
            return False

    def splice(out: io.BufferedIOBase, lo: int, hi: int) -> None:
        # handles of its own: a forked child shares the offsets of those it inherits
        with open(left, "rb") as a, open(right, "rb") as b:
            for fh in (a, b):
                next(islice(fh, lo + 1, lo + 1), None)  # the header and rows before lo
            # a plain line is a row read_columns accepted, so it holds a ','
            for _ in range(lo, hi, _ROWS):
                out.write(b"".join([s[:-1] + r[r.index(b","):]
                                    for s, r in zip(_lines(a), _lines(b))]))

    _in_two_halves(path, left_header + right_header[1:], n, splice)
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
