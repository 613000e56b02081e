"""Small helpers for the data files the toolkit emits.

CSV tables are written column by column: :func:`write_csv` takes a header
and one equal-length 1-D array per column.  Integer columns print as plain
integers (``%d``); float columns print with 17 significant digits
(``%.17g``), so every field round-trips to the exact binary double.  NaN is
written as an empty field, the marker for an undefined value (the band axis
and group velocity at a band touching, a relative error against a zero
prediction).

The rows are formatted in C (``_csv.c``, in the package's compiled library),
16384 rows per call into one reused buffer, so a band of 16384 momenta is one
call and a 181 x 181 gap map two.  A call of at least 3072 fields, where the
process may use two CPUs, is split between the calling thread and a second
one, each formatting half the rows into its own part of that buffer.  A
double field equal in bits to the one before it in its row, or to the one
above it, copies that field's bytes.  Every field's bytes are those of its own
value, so they depend on neither the rows per call, the number of threads nor
the number of CPUs.  On a 2-vCPU VM a 16384-row band takes about 13 ns a field
on two threads and 22 ns on one, and the gap map 9 and 15 ns.  Where that
library did not load, or the locale's decimal point is not ".", the whole
table is filled by one Python ``%`` operation instead.  The bytes are those of
``%d`` and ``%.17g`` on every path.

JSON files are the text of ``json.dumps(obj, indent=2, sort_keys=True)``
and a newline, built in one recursive pass by :func:`write_json`'s own
encoder: before Python 3.13 a ``json.dumps`` call with ``indent`` never
reaches json's C encoder, and its pure-Python one takes about 34 us for a
spectral manifest where this pass takes 22 us (Python 3.11, a 2-vCPU Xeon
VM).  Leaves go by exact type through ``_LEAVES``: strings and keys by
json's ``encode_basestring_ascii``, floats by ``float.__repr__`` with
json's ``NaN``/``Infinity``/``-Infinity``, ints by ``int.__repr__``, and
``true``/``false``/``null``.  A float or int subclass, such as numpy's
``float64``, is found by ``isinstance``.  Any other value (a numpy
``int64`` or ``bool_``, a set, bytes) and a key that is not a str raise
``TypeError``; ``json.dumps`` would turn an int key into a string, but no
writer passes one.

Both writers hand their bytes to :func:`_rewrite`, which writes them with
``os.write`` to the one descriptor it opens, without ``O_TRUNC``, from
offset 0, counting the bytes that reached the file.  Truncating an existing
file to zero frees its blocks only for the write to allocate them again, and
on ext4 (``auto_da_alloc``) makes the close start writeback; a rerun into
the same directory paid that for every file.  The file is cut at the count
instead, also when a write fails, so it never keeps a tail of its old
content.  The cut is made only where a tail is left, on a regular file that
held more than was written (ext4 does the work of a truncate even at the
same size).  Any other file is never cut: ``/dev/null`` cannot be truncated,
and a named FIFO or a pipe takes the bytes as a stream.
"""

from __future__ import annotations

import ctypes
import locale
import os
import stat
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from ._native import library

_CHUNK_ROWS = 16384  # rows formatted per call into the buffer: 2.4 MB at six columns
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
    _rewrite(path, _csv_chunks(header, lib, cols, n))


def _csv_chunks(header: list[str], lib, cols, n: int):
    """The header line, then the rows, each made only when the file is open."""
    yield (",".join(header) + "\n").encode("utf-8")
    if lib is None:
        yield _percent_body(cols, n).encode("ascii")
    else:
        yield from _write_formatted(lib, cols, n)


def _percent_body(cols, n: int) -> str:
    """The rows by one ``%`` operation: the fallback path and the oracle."""
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in cols) + "\n"
    values = tuple(chain.from_iterable(zip(*(c.tolist() for c in cols))))
    # %.17g prints NaN as "nan" (never signed); no other field contains those letters
    return ((row * n) % values).replace("nan", "")


def _write_formatted(lib, cols, n: int):
    """The rows by ``coinwalk_format_rows``, ``_CHUNK_ROWS`` at a time, each a view of one buffer the next reuses."""
    # any float as float64, the Python float that tolist() gives
    arrays = [np.ascontiguousarray(c, dtype=_C_DTYPES[c.dtype.kind]) for c in cols]
    kinds = "".join(c.dtype.kind for c in cols).encode()
    pointers = (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))
    buf = np.empty(min(n, _CHUNK_ROWS) * len(arrays) * _FIELD_BYTES, dtype=np.uint8)
    for first in range(0, n, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n - first)
        size = lib.coinwalk_format_rows(pointers, kinds, len(arrays), first, rows, buf.ctypes.data)
        yield buf[:size]


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    _rewrite(path, [(_json_text(obj, "\n") + "\n").encode("ascii")])


# json's token for each float repr that is no JSON number
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# the text of a leaf by its exact type: True and False are bools here, never ints
_LEAVES = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it, at
    the depth whose line break and indent is ``nl``."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises the TypeError for a key that is no str
        fields = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(fields) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + nl + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _rewrite(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path``, created if missing, from
    offset 0, so that a regular file holds exactly them."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # the mode open(path, "wb") creates with
    try:
        old = os.fstat(fd)
        end = 0  # the bytes that reached the file
        try:
            for chunk in chunks:
                view = memoryview(chunk)
                while view:
                    written = os.write(fd, view)
                    end, view = end + written, view[written:]
        finally:
            if stat.S_ISREG(old.st_mode) and old.st_size > end:
                os.ftruncate(fd, end)
    finally:
        os.close(fd)
