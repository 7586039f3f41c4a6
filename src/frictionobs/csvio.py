"""CSV schemas shared by the command-line tools.

Three fixed layouts, all UTF-8 (a leading byte-order mark is skipped) with
'.' decimals:

    measured-in   : t,x,u
    sim-out       : t,x,v,f,u
    estimates-out : t,w2_tilde,w3_tilde,phi,e_obs

``write_blocks`` writes every CSV but ``compare``'s merged one. A fold,
``blocks(lo)``, yields the CSV lines of its outputs one ``_ROWS``-row
block at a time from row lo, one chunk an output, and each chunk is made
and written a piece of at most ``_PIECE`` lines at a time, so a process
holds one piece whatever the record's length. With two CPUs and at least
two blocks the write has two halves: this process writes the first half of
the blocks into each file from ``blocks(0)``, while a child forked by
``_in_parallel`` writes the rest from ``blocks(half)`` into one unnamed
temporary file an output, in the output's directory, each then copied onto
the end of its file. The child's failure reaches this process with its
type and attributes (an OSError keeps its errno and text), and the bytes
are the same with or without the split. With one CPU, one block, no
``os.fork`` or ``os.sched_getaffinity`` (macOS, Windows), or a directory
the temporary file cannot be made in, this process writes every row
itself. It has two folds:

- ``write_columns`` formats columns it holds, every cell as repr() of a
  float writes it (shortest round-trip form), so reading back what it
  wrote reproduces the floats bit for bit;
- ``cli._blocks`` folds the plant from rest and draws each seed's noise,
  so a forked half computes and drops the rows before its own.

``splice_rows`` joins the lines of two plain files (below) in one pass,
so their cells keep the text they were written with: repr() text for a
file ``write_columns`` wrote, and the cell as written (``1.50``, ``1e5``)
otherwise, which reads back as the same float.

A file is plain when its header is exactly what ``write_columns`` writes
and its body holds only the bytes of ``_PLAIN``. A plain file is read in
bulk: its body is parsed one ``_ROWS`` block at a time, by one
``np.loadtxt`` call a block, into one preallocated array a column, so each
column owns its buffer and can be freed on its own. Any other file, and
any body that a block's call does not turn into one finite row per line,
is read again row by row with the csv module, which accepts every finite
number float() parses and names the first bad row. ``_read_columns``
also says which path read the file.

Every cell written by a fold comes from ``_cells``: orjson formats a
column slice in one call, and its shortest round-trip text is repr()'s,
byte for byte, wherever repr() writes positional digits (1e-4 <= |v| <
1e16, and 0). The other cells, where repr() writes an exponent and orjson
does not (``0.00001``, ``1e16``), and nan and inf, which orjson writes as
``null``, are repr()'s own. So every file keeps the bytes repr() gave it.
orjson loads in ``write_blocks``, once a process, before the halves fork:
a command that writes no CSV never imports it.

``_in_parallel`` runs two independent halves of a command or of a CSV
write at once: one half in a forked child, which hands back its result or
its failure as one pickle stream through a pipe, the other in this
process. It is the one place that forks. With one CPU, no ``os.fork``, or a
fork that fails, it calls the first half and then the second.
"""

from __future__ import annotations

import contextlib
import csv
import errno
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
# the lines of a chunk made at a time: 4096 rows of five random columns
# take 2.5 MB of traced scratch to format, 1024 rows 0.74 MB, 512 rows 0.37 MB
_PIECE = 512
# file descriptors that _outputs_at_once leaves to stdio, pipes and the
# command's own reads
_SPARE_FILES = 32


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
    n = len(columns[0]) if columns else 0
    write_blocks([(path, header)], n,
                 lambda lo: (_block(columns, row) for row in range(lo, n, _ROWS)))


def write_blocks(outputs: list[tuple[str | Path, tuple[str, ...]]], n: int,
                 blocks: Callable[[int], Iterator[bytes]]) -> None:
    """Write each (path, header) output's header, then its n rows from a fold over blocks of rows.

    blocks(lo), lo a whole number of ``_ROWS`` blocks, yields for each block
    from row lo in turn (the last shorter) one chunk of CSV lines an output,
    in the outputs' order: an iterable of bytes pieces, each made as it is
    written. Each half of the write (see above) runs a fold of its own and
    takes one chunk at a time; a fold holds no resource to close. A
    failure, the fold's and the child's included, removes every output
    (``_output``).
    """
    import orjson  # noqa: F401 -- _cells' formatter, loaded once before the halves fork
    half = -(-n // _ROWS) // 2 * _ROWS if _cpus() > 1 else 0
    with contextlib.ExitStack() as files:
        outs = [files.enter_context(_output(path)) for path, _ in outputs]
        for out, (_, header) in zip(outs, outputs):
            out.write((",".join(header) + "\n").encode())
        try:
            # a directory this process cannot create files in leaves the write to it
            halves = [files.enter_context(tempfile.TemporaryFile(dir=Path(path).parent))
                      for path, _ in outputs] if half else None
        except OSError:
            halves = None

        def write(fhs: list[io.BufferedIOBase], lo: int, hi: int) -> None:
            chunks = blocks(lo)
            for _ in range(lo, hi, _ROWS):
                for fh in fhs:
                    # no name holds the chunk, so it is freed before the next is made,
                    # and writelines frees each piece before it takes the next
                    fh.writelines(next(chunks))
            for fh in fhs:
                fh.flush()  # a forked half leaves by os._exit, which flushes nothing

        if halves is None:
            write(outs, 0, n)
            return
        _in_parallel(lambda: write(halves, half, n), lambda: write(outs, 0, half))
        for out, rest in zip(outs, halves):
            _append(out, rest)


def _outputs_at_once() -> int:
    """How many outputs one ``write_blocks`` call may hold open under RLIMIT_NOFILE.

    Each takes a file and a temporary file; ``_SPARE_FILES`` of the limit
    are left to the process's other files. 256 where there is no limit to
    read (Windows), and no bound where there is none.
    """
    if not hasattr(os, "sysconf"):
        return 256
    limit = os.sysconf("SC_OPEN_MAX")  # the soft RLIMIT_NOFILE; -1 where there is none
    return max(1, (limit - _SPARE_FILES) // 2) if limit >= 0 else 1 << 30


def _check_room(outputs: list[tuple[str | Path, tuple[str, ...]]], n: int) -> None:
    """Raise OSError (ENOSPC) when n rows of each (path, header) output cannot fit on its disk.

    Each row counts at its shortest, 3 bytes a cell (``0.0``) and a comma
    or '\n' after each. An output in a directory not made yet counts
    against the nearest one that is; an existing file's bytes count as free,
    since writing truncates it; a device or FIFO counts for nothing. A
    directory whose free space cannot be read is not checked: opening the
    output there reports what is wrong.
    """
    disks: dict[int, list] = {}  # device: [a directory on it, bytes free, bytes needed]
    for path, header in outputs:
        path = os.path.realpath(path)
        if os.path.exists(path) and not os.path.isfile(path):
            continue
        where = os.path.dirname(path)
        while not os.path.isdir(where):
            where = os.path.dirname(where)
        try:
            disk = disks.setdefault(os.stat(where).st_dev,
                                    [where, shutil.disk_usage(where).free, 0])
        except OSError:
            continue
        disk[1] += os.path.getsize(path) if os.path.isfile(path) else 0
        disk[2] += len(",".join(header)) + 1 + 4 * len(header) * n
    for where, free, need in disks.values():
        if need > free:
            raise OSError(errno.ENOSPC, f"{n} rows need at least {need} bytes of CSV on the "
                                        f"file system of {where}, which has {free} free")


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


def _block(columns: list[np.ndarray], lo: int) -> Iterator[bytes]:
    """Rows lo to lo + _ROWS of the columns as CSV lines, made ``_PIECE`` rows at a time."""
    for row in range(lo, min(lo + _ROWS, len(columns[0])), _PIECE):
        cells = [_cells(c[row:row + _PIECE]) for c in columns]
        yield b"\n".join(map(b",".join, zip(*cells))) + b"\n"


def _cells(column: np.ndarray) -> list[bytes]:
    """repr() of each float of a non-empty column, as bytes."""
    import orjson

    # orjson raises on a strided view and misreads a big-endian array, so it
    # gets a native, C-contiguous float64 one (the column itself if it is one)
    column = np.ascontiguousarray(column, dtype=float)
    cells = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    size = np.abs(column)
    # where repr() writes an exponent, and nan and inf (orjson's null): no
    # comparison with nan holds
    odd = np.flatnonzero(~((size >= 1e-4) & (size < 1e16) | (column == 0)))
    for i, v in zip(odd.tolist(), column[odd].tolist()):
        cells[i] = repr(v).encode()
    return cells


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
    return _read_columns(path, header)[0]


def _read_columns(path: str | Path, header: tuple[str, ...]) -> tuple[list[np.ndarray], bool]:
    """(read_columns(path, header), whether the bulk path read them: the file is plain)."""
    path = Path(path)
    with _reading(path) as fh:
        columns = _read_plain(fh, header)
        return (columns, True) if columns is not None else (_read_rows(path, header), False)


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
    """Parse a plain body one ``_ROWS``-row block at a time into one array a column, or return None.

    fh is a binary file at its start. Each block's lines go to one
    np.loadtxt call, whose rows are copied into the columns, so a column
    owns its buffer and the parse holds one block of scratch. The result is
    what ``_read_rows`` returns, and None leaves the file to it: a file that
    is not plain (``_plain_rows``), no rows, or a block that is not one
    finite row of the header's width per line. Cells of plain bytes mean
    the same to loadtxt and float(): both round with the same strtod.
    """
    lines = _plain_rows(fh, header)
    if not lines:
        return None
    fh.seek(0)
    fh.readline()
    columns = [np.empty(lines) for _ in header]
    for lo in range(0, lines, _ROWS):
        rows = min(_ROWS, lines - lo)
        # loadtxt skips empty lines, which the csv reader rejects; a block of
        # them would make it warn that it found no data
        if fh.peek(1)[:1] == b"\n":
            return None
        try:
            # islice stops at the block's last line, so fh is left at the next block
            table = np.loadtxt(islice(fh, rows), delimiter=",", comments=None, ndmin=2,
                               dtype=float)
        except ValueError:
            return None
        if table.shape != (rows, len(header)) or not np.isfinite(table).all():
            return None
        for column, cells in zip(columns, table.T):
            column[lo:lo + rows] = cells
    return columns


def _lines(fh: io.BufferedReader) -> list[bytes]:
    """The next ``_PIECE`` lines of fh, each ending in '\n'."""
    lines = list(islice(fh, _PIECE))
    if lines and not lines[-1].endswith(b"\n"):
        lines[-1] += b"\n"
    return lines


def splice_rows(path: str | Path, left: str | Path, right: str | Path) -> None:
    """Write each line of left, the header's included, followed by right's without its first cell.

    left and right are plain files that ``_read_columns`` has read in bulk,
    with one row count. The lines are spliced ``_PIECE`` at a time, in one
    pass through ``_output``. For files that ``write_columns`` wrote the
    output is byte for byte what ``write_columns`` writes from their parsed
    columns under the joined header. path must not name left or right.
    """
    with open(left, "rb") as a, open(right, "rb") as b, _output(path) as out:
        # a plain line, the header's included, holds a ','
        while lines := _lines(a):
            out.write(b"".join([s[:-1] + r[r.index(b","):] for s, r in zip(lines, _lines(b))]))


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
    # a leading byte-order mark is skipped, so a file saved with one (Excel's
    # "CSV UTF-8") is read like one without
    with open(path, "r", encoding="utf-8-sig", errors="replace", newline="") as fh:
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
