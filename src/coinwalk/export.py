"""Small helpers for the data files the toolkit emits.

CSV tables are written column by column: :func:`write_csv` takes a header
and one equal-length 1-D array per column.  Integer columns print as plain
integers (``%d``); float columns print with 17 significant digits
(``%.17g``), so every field round-trips to the exact binary double.  NaN is
written as an empty field, the marker for an undefined value (the band axis
and group velocity at a band touching, a relative error against a zero
prediction).

The rows are formatted in C (``_csv.c``, in the package's compiled library),
a fixed number of rows at a time into one reused buffer.  A call of at least
3072 fields, where the process may use two CPUs, is split between the calling
thread and a second one, each formatting half the rows into its own part of
that buffer.  Every row is formatted by the same routine from its own values
alone, so the bytes depend on neither the number of threads nor the number of
CPUs.  Where that library did not load, or the locale's decimal point is not
".", the whole table is filled by one Python ``%`` operation instead.  The
bytes are those of ``%d`` and ``%.17g`` on every path.

Both writers rewrite their file in place: it is opened without ``O_TRUNC``,
written from offset 0 and then cut at the end of the new bytes.  Truncating
an existing file to zero frees its blocks only for the write to allocate
them again, and on ext4 (``auto_da_alloc``) makes the close start writeback;
a rerun into the same directory paid that for every file.  The cut happens
also when a write fails, so the file never keeps a tail of its old content.
It is made only where a tail is left, on a regular file that held more than
was written (ext4 does the work of a truncate even at the same size), and
never on a device such as ``/dev/null``, which cannot be truncated.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import locale
import os
import stat
from itertools import chain

import numpy as np

from ._native import library

_CHUNK_ROWS = 4096  # rows formatted per call into the buffer
_FIELD_BYTES = 25  # the widest field, "-1.7976931348623157e+308", and its delimiter
# the dtype _csv.c formats each column kind from, by numpy's kind code, which _csv.c shares
_C_DTYPES = {"f": np.float64, "i": np.int64, "u": np.uint64}


def write_csv(path, header: list[str], columns) -> None:
    """Write a header line and one row per index of the equal-length 1-D
    ``columns``, with no trailing delimiter."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(cols)} columns")
    n = cols[0].shape[0] if cols else 0
    for name, c in zip(header, cols):
        if c.shape != (n,):
            raise ValueError(f"column {name!r} has shape {c.shape}, expected ({n},)")
        if c.dtype.kind not in "iuf":
            raise TypeError(f"column {name!r} has dtype {c.dtype}; expected integers or floats")
    # snprintf, which _csv.c calls for some doubles, prints LC_NUMERIC's decimal point
    lib = library() if locale.localeconv()["decimal_point"] == "." else None
    with _rewrite(path) as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if lib is None:
            fh.write(_percent_body(cols, n).encode("ascii"))
        else:
            _write_formatted(fh, lib, cols, n)


def _percent_body(cols, n: int) -> str:
    """The rows by one ``%`` operation: the fallback path and the oracle."""
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in cols) + "\n"
    values = tuple(chain.from_iterable(zip(*(c.tolist() for c in cols))))
    # %.17g prints NaN as "nan" (never signed); no other field contains those letters
    return ((row * n) % values).replace("nan", "")


def _write_formatted(fh, lib, cols, n: int) -> None:
    """The rows by ``coinwalk_format_rows``, ``_CHUNK_ROWS`` at a time."""
    # any float as float64, the Python float that tolist() gives
    arrays = [np.ascontiguousarray(c, dtype=_C_DTYPES[c.dtype.kind]) for c in cols]
    kinds = "".join(c.dtype.kind for c in cols).encode()
    pointers = (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))
    buf = np.empty(min(n, _CHUNK_ROWS) * len(arrays) * _FIELD_BYTES, dtype=np.uint8)
    for first in range(0, n, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n - first)
        size = lib.coinwalk_format_rows(pointers, kinds, len(arrays), first, rows, buf.ctypes.data)
        fh.write(buf[:size])


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with _rewrite(path) as fh:
        fh.write(text.encode("utf-8"))


@contextlib.contextmanager
def _rewrite(path):
    """A binary file over ``path``, created if missing and written from
    offset 0, that holds exactly the bytes written once the block exits."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # the mode open(path, "wb") creates with
    try:
        fh = os.fdopen(fd, "wb")
    except BaseException:
        os.close(fd)
        raise
    with fh:
        old = os.fstat(fd)
        try:
            yield fh
            fh.flush()
        finally:
            # the end of what reached the file: after a failed write the
            # buffer can hold bytes that never did
            end = os.lseek(fd, 0, os.SEEK_CUR)
            if stat.S_ISREG(old.st_mode) and old.st_size > end:
                os.ftruncate(fd, end)
