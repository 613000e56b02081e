"""Small helpers for the data files the toolkit emits.

CSV tables are written column by column: :func:`write_csv` takes a header
and one equal-length 1-D array per column.  Integer columns print as plain
integers (``%d``); float columns print with 17 significant digits
(``%.17g``), so every field round-trips to the exact binary double.  NaN is
written as an empty field, the marker for an undefined value (the band axis
and group velocity at a band touching, a relative error against a zero
prediction).  The whole table is filled by one ``%`` operation and written
in one call.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np


def write_csv(path, header: list[str], columns) -> None:
    """Write a header line and one row per index of the equal-length 1-D
    ``columns``, with no trailing delimiter."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(cols)} columns")
    n = cols[0].shape[0] if cols else 0
    specs = []
    for name, c in zip(header, cols):
        if c.shape != (n,):
            raise ValueError(f"column {name!r} has shape {c.shape}, expected ({n},)")
        if c.dtype.kind in "iu":
            specs.append("%d")
        elif c.dtype.kind == "f":
            specs.append("%.17g")
        else:
            raise TypeError(f"column {name!r} has dtype {c.dtype}; expected integers or floats")
    row = ",".join(specs) + "\n"
    values = tuple(chain.from_iterable(zip(*(c.tolist() for c in cols))))
    # %.17g prints NaN as "nan" (never signed); no other field contains those letters
    body = ((row * n) % values).replace("nan", "")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


def write_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
