"""The columnar CSV writer against the row-by-row reference writer, byte for
byte: on generated columns, and on the file of every public table writer.
The compiled formatter against the Python ``%`` path, byte for byte: on raw
float64 bit patterns, on named edge values, next to every power of ten and on
a table of several chunks; its two stages at the row counts round each split,
against a run pinned to one CPU, and with no thread left behind; and the
cases that take the ``%`` path.  Rewriting a file that exists:
longer or shorter old content, a write that fails part-way, and a device;
writes that take part of their bytes, and a named FIFO read as it is
written."""

import ctypes
import json
import locale
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import cli, export
from coinwalk.asymptotics import moment_integrals, velocity_density_to_csv, weak_limit_density
from coinwalk.coins import preset_coin
from coinwalk.export import write_csv, write_json
from coinwalk.gapscan import gap_map_to_csv, scan_gap_map
from coinwalk.momentum import dispersion_band, dispersion_to_csv
from coinwalk.walk import InitialCondition, distribution_to_csv, moment_series
from helpers import distribution, reference_write_csv, two_cpus

COIN0 = InitialCondition(np.array([1.0, 0.0]))

_EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -2.2250738585072009e-308,  # largest subnormal
    1e-300,
    -1e300,
    1.7976931348623157e308,
    0.10000000000000001,  # needs all 17 digits
    -1.2345678901234567,
    math.nan,
    -math.nan,
    math.inf,
    -math.inf,
]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_INTS = st.integers(-(2**63), 2**63 - 1)


def _reference_rows(columns):
    """Rows of Python values for the reference writer; NaN becomes ``""``."""
    lists = [[("" if isinstance(v, float) and math.isnan(v) else v) for v in c.tolist()] for c in columns]
    return list(zip(*lists))


def _assert_same_files(tmp_path):
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_write_csv_matches_reference(tmp_path_factory, data):
    kinds = data.draw(st.lists(st.booleans(), min_size=1, max_size=5), label="float columns")
    n = data.draw(st.integers(0, 20), label="rows")
    columns = [
        np.array(data.draw(st.lists(_FLOATS if is_float else _INTS, min_size=n, max_size=n)),
                 dtype=np.float64 if is_float else np.int64)
        for is_float in kinds
    ]
    tmp_path = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(len(kinds))]
    write_csv(tmp_path / "new.csv", header, columns)
    reference_write_csv(tmp_path / "ref.csv", header, _reference_rows(columns))
    _assert_same_files(tmp_path)


def test_write_csv_zero_rows_and_nan(tmp_path):
    write_csv(tmp_path / "empty.csv", ["a", "b"], [np.array([], dtype=np.int64), np.array([])])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
    write_csv(tmp_path / "nan.csv", ["a", "b"], [np.array([1, 2]), np.array([np.nan, -0.0])])
    assert (tmp_path / "nan.csv").read_text() == "a,b\n1,\n2,-0\n"


def test_write_csv_rejects_bad_columns(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="header fields"):
        write_csv(path, ["a", "b"], [np.arange(3)])
    with pytest.raises(ValueError, match="column 'b'"):
        write_csv(path, ["a", "b"], [np.arange(3), np.arange(4.0)])
    with pytest.raises(TypeError, match="column 'a'"):
        write_csv(path, ["a"], [np.array(["x"])])
    assert not path.exists()


# --- the compiled formatter against the % path ---


def _formatter():
    if export.library() is None:
        pytest.skip("no compiled library")


def _both_paths(tmp_path, header, columns) -> tuple[bytes, bytes]:
    """The file ``write_csv`` writes with the compiled formatter, and the one
    it writes by the ``%`` path."""
    _formatter()
    write_csv(tmp_path / "c.csv", header, columns)
    with mock.patch.object(export, "library", lambda: None):
        write_csv(tmp_path / "percent.csv", header, columns)
    return (tmp_path / "c.csv").read_bytes(), (tmp_path / "percent.csv").read_bytes()


def _pattern(sign, biased, frac):
    return sign << 63 | biased << 52 | frac


_SIGNS, _FRACS = st.integers(0, 1), st.integers(0, 2**52 - 1)
_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(_pattern, _SIGNS, st.just(0), _FRACS),  # zeros and subnormals
    st.builds(_pattern, _SIGNS, st.just(0x7FF), _FRACS),  # infinities, and NaNs of any payload
    st.builds(_pattern, _SIGNS, st.integers(960, 1090), _FRACS),  # 2^-63 to 2^68, round the fast range
)
_INT64S = st.one_of(st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]), _INTS)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_formatter_matches_percent_path_on_raw_bit_patterns(tmp_path_factory, data):
    n = data.draw(st.integers(1, 40), label="rows")
    bits = np.array(data.draw(st.lists(_BITS, min_size=n, max_size=n)), dtype=np.uint64)
    ints = np.array(data.draw(st.lists(_INT64S, min_size=n, max_size=n)), dtype=np.int64)
    fast, percent = _both_paths(tmp_path_factory.mktemp("bits"), ["x", "i"], [bits.view(np.float64), ints])
    assert fast == percent


# the double 1e-14 lies below 10^-14, and its 17 digits round up to it;
# 9.99999999999999999e-5 parses to 1e-4, the smallest double printed in fixed form
@pytest.mark.parametrize(
    "value, text",
    [
        pytest.param(1 + 2**-17, "1.0000076293945312", id="tie-rounds-half-to-even"),
        pytest.param(1e-14, "1e-14", id="carry-to-next-power-of-ten"),
        pytest.param(np.nextafter(1e17, 0), "99999999999999984", id="top-of-fast-range"),
        pytest.param(1e17, "1e+17", id="above-fast-range"),
        pytest.param(np.nextafter(1e-16, np.inf), "1.0000000000000001e-16", id="bottom-of-fast-range"),
        pytest.param(np.nextafter(1e-16, -np.inf), "9.9999999999999986e-17", id="below-fast-range"),
        pytest.param(9.99999999999999999e-5, "0.0001", id="last-fixed-form"),
        pytest.param(np.nextafter(1e-4, 0), "9.9999999999999991e-05", id="first-exponent-form"),
    ],
)
def test_formatter_edge_values(tmp_path, value, text):
    column = np.array([value, -value])
    fast, percent = _both_paths(tmp_path, ["x"], [column])
    assert fast == percent == f"x\n{text}\n-{text}\n".encode()


def test_formatter_table_of_several_chunks(tmp_path):
    # every float dtype goes through float64, as tolist() takes it
    rng = np.random.default_rng(7)
    n = 2 * export._CHUNK_ROWS + 3
    columns = [
        np.arange(n, dtype=np.int8),
        rng.normal(size=n),
        rng.normal(size=n).astype(np.float32),
        rng.normal(size=n).astype(np.float16),
        rng.normal(size=n).astype(np.longdouble),
        rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True),
    ]
    fast, percent = _both_paths(tmp_path, [f"c{i}" for i in range(len(columns))], columns)
    assert fast == percent
    assert fast.count(b"\n") == n + 1


_POWERS_OF_TEN = [float(f"1e{j}") for j in range(-16, 18)]  # the doubles nearest them


def test_formatter_next_to_every_power_of_ten(tmp_path):
    # the doubles nearest 10^-6, 10^-7, 10^-11, 10^-12 and 10^-14 lie below the
    # powers, so the decimal exponent their binary one suggests is one too high
    powers = np.array(_POWERS_OF_TEN)
    values = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    fast, percent = _both_paths(tmp_path, ["x"], [np.concatenate([values, -values])])
    assert fast == percent


# --- the formatter's two stages ---


def _two_stage_fields() -> int:
    """The fewest fields of one formatter call that are split in two stages."""
    _formatter()
    return ctypes.c_int64.in_dll(export.library(), "coinwalk_two_stage_fields").value


def _formatted(columns) -> bytes:
    """The body the compiled formatter writes for ``columns``, each chunk
    copied before the next one reuses its buffer."""
    return b"".join([bytes(chunk) for chunk in export._write_formatted(export.library(), columns, columns[0].shape[0])])


_UINT64S = st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]), st.integers(0, 2**64 - 1))
_POOLS = {  # values a column of each kind draws from, beside random ones
    "f": st.lists(st.one_of(_BITS.map(lambda b: np.uint64(b).view(np.float64)),
                            st.sampled_from(_EDGE_FLOATS + _POWERS_OF_TEN)), min_size=1, max_size=16),
    "i": st.lists(_INT64S, min_size=1, max_size=16),
    "u": st.lists(_UINT64S, min_size=1, max_size=16),
}


def _random_column(kind, pool, n, rng):
    """``n`` values: a third from ``pool``, a third random bit patterns, and a
    third drawn across the magnitudes of the exact fast path."""
    dtype = export._C_DTYPES[kind]
    bits = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True).view(dtype)
    if kind == "f":
        near = rng.normal(size=n) * 10.0 ** rng.integers(-18, 19, size=n)
    else:
        near = rng.integers(-(10**6), 10**6, size=n).astype(dtype)
    column = np.where(rng.random(n) < 0.5, bits, near)
    picks = rng.random(n) < 1 / 3
    column[picks] = rng.choice(np.array(pool, dtype=dtype), size=int(picks.sum()))
    return column


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_formatter_matches_percent_body_round_the_splits(data):
    """Row counts at the two-stage threshold, at the chunk size and past two
    chunks, each +-1, over int, uint and float columns."""
    threshold = _two_stage_fields()
    kinds = data.draw(st.lists(st.sampled_from("fiu"), min_size=1, max_size=6), label="kinds")
    at_threshold = -(-threshold // len(kinds))  # the fewest rows split in two
    chunk = export._CHUNK_ROWS
    n = data.draw(st.sampled_from([r + d for r in (at_threshold, chunk, 2 * chunk + 2) for d in (-1, 0, 1)]),
                  label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    columns = [_random_column(kind, data.draw(_POOLS[kind], label=f"pool {kind}"), n, rng) for kind in kinds]
    assert _formatted(columns) == export._percent_body(columns, n).encode("ascii")


def _split_table(seed):
    """Three chunks and a short one of int, uint and float columns, every
    chunk split in two stages where two CPUs are free."""
    rng, n = np.random.default_rng(seed), 3 * export._CHUNK_ROWS + 5
    return [_random_column(kind, [0], n, rng) for kind in "fiuff"]


# writes the table saved at argv[1] to argv[2] pinned to one CPU, so every
# formatter call runs one stage, and prints the CPUs it may use
_PINNED_WRITER = """
import os, sys
import numpy as np
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from coinwalk.export import write_csv
columns = list(np.load(sys.argv[1]).values())
write_csv(sys.argv[2], [f"c{i}" for i in range(len(columns))], columns)
print(len(os.sched_getaffinity(0)))
"""


def test_formatter_pinned_to_one_cpu_writes_the_same_bytes(tmp_path):
    _two_stage_fields()
    two_cpus()
    columns = _split_table(11)
    np.savez(tmp_path / "table.npz", *columns)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", _PINNED_WRITER, str(tmp_path / "table.npz"), str(tmp_path / "one.csv")]
    pinned = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert pinned.returncode == 0, pinned.stderr
    assert pinned.stdout.strip() == "1", "the worker is not pinned to one CPU"
    write_csv(tmp_path / "two.csv", [f"c{i}" for i in range(len(columns))], columns)
    assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_two_stage_formatting_leaves_no_thread_behind(tmp_path):
    _two_stage_fields()
    two_cpus()
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        pytest.skip("no /proc/self/task")
    columns = _split_table(12)
    before = len(list(tasks.iterdir()))
    fast, percent = _both_paths(tmp_path, [f"c{i}" for i in range(len(columns))], columns)
    assert len(list(tasks.iterdir())) == before
    assert fast == percent


# --- the formatter's memo: a double field copies the bytes of an equal one ---

_ZERO, _NEG_ZERO = 0x0000000000000000, 0x8000000000000000
_NANS = [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF]


def _memo_table(kinds, pool, n, rng):
    """``n`` rows of ``kinds`` columns whose doubles repeat: a float column
    either runs through values of ``pool`` (bit patterns), changing value at
    a random rate, or follows the float column before it, with a share of its
    fields drawn from ``pool`` instead."""
    pool = np.array(pool, dtype=np.uint64)
    columns = []
    for kind in kinds:
        if kind != "f":
            columns.append(_random_column(kind, [0, 1], n, rng))
            continue
        runs = np.cumsum(rng.random(n) < rng.choice([0.0, 0.01, 0.3, 1.0]))
        bits = pool[rng.integers(0, pool.size, size=runs[-1] + 1)][runs]
        if columns and columns[-1].dtype == np.float64 and rng.random() < 0.5:
            before = columns[-1].view(np.uint64)
            bits = np.where(rng.random(n) < rng.choice([0.0, 0.1, 0.5]), bits, before)
        columns.append(bits.view(np.float64))
    return columns


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_formatter_memo_matches_percent_body(data):
    """Runs of one value down a column and equal neighbours across a row, at
    small row counts and at the chunk size and the two-stage threshold, each
    +-1: every copied field holds the bytes its own value prints as."""
    threshold = _two_stage_fields()
    kinds = data.draw(st.lists(st.sampled_from("fffiu"), min_size=1, max_size=6), label="kinds")
    at_threshold = -(-threshold // len(kinds))  # the fewest rows split in two
    near_splits = [r + d for r in (at_threshold, export._CHUNK_ROWS) for d in (-1, 0, 1)]
    n = data.draw(st.one_of(st.integers(1, 40), st.sampled_from(near_splits)), label="rows")
    pool = data.draw(st.lists(st.one_of(_BITS, st.sampled_from([_ZERO, _NEG_ZERO, *_NANS])), min_size=1, max_size=6),
                     label="pool")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    columns = _memo_table(kinds, pool, n, rng)
    assert _formatted(columns) == export._percent_body(columns, n).encode("ascii")


def _bits_column(*bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize(
    "columns, body",
    [
        pytest.param([_bits_column(_ZERO), _bits_column(_NEG_ZERO)], b"0,-0\n", id="0,-0-across"),
        pytest.param([_bits_column(_NEG_ZERO), _bits_column(_ZERO)], b"-0,0\n", id="-0,0-across"),
        pytest.param([_bits_column(_ZERO, _NEG_ZERO)], b"0\n-0\n", id="0,-0-down"),
        pytest.param([_bits_column(_NEG_ZERO, _ZERO)], b"-0\n0\n", id="-0,0-down"),
        pytest.param([_bits_column(*_NANS[:2]), _bits_column(*_NANS[2:])], b",\n,\n", id="nan-payloads"),
    ],
)
def test_formatter_memo_keeps_zeros_of_either_sign_and_nans_apart(columns, body):
    # equal values with other bits print otherwise, or print alike by another rule
    _formatter()
    assert _formatted(columns) == export._percent_body(columns, columns[0].shape[0]).encode("ascii") == body


def test_formatter_call_reads_no_field_of_an_earlier_call():
    # the rows after the first chunk repeat its last row; the first chunk's
    # buffer is overwritten before they are formatted, as a reused buffer is
    _formatter()
    lib, n, m = export.library(), 8, 5
    columns = [np.full(n, 0.25), np.repeat([1.5, -3.0], [m, n - m]), np.full(n, 0.25), np.arange(n)]
    arrays = [np.ascontiguousarray(c, dtype=export._C_DTYPES[c.dtype.kind]) for c in columns]
    kinds = "".join(c.dtype.kind for c in arrays).encode()
    pointers = (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))
    buf = np.empty(n * len(arrays) * export._FIELD_BYTES, dtype=np.uint8)
    for first, rows in ((0, m), (m, n - m)):
        buf[:] = ord("~")
        size = lib.coinwalk_format_rows(pointers, kinds, len(arrays), first, rows, buf.ctypes.data)
        tail = [c[first:first + rows] for c in columns]
        assert buf[:size].tobytes() == export._percent_body(tail, rows).encode("ascii")


# --- the cases that take the % path ---

_FALLBACK_COLUMNS = [np.array([-3, 0, 7]), np.array([0.1, math.nan, -1e300]), np.array([1e-320, -0.0, math.inf])]


def test_write_csv_without_the_library_writes_the_same_bytes(tmp_path, monkeypatch):
    write_csv(tmp_path / "native.csv", ["a", "b", "c"], _FALLBACK_COLUMNS)
    monkeypatch.setattr(export, "library", lambda: None)
    write_csv(tmp_path / "percent.csv", ["a", "b", "c"], _FALLBACK_COLUMNS)
    expected = b"a,b,c\n-3,0.10000000000000001,9.9998886718268301e-321\n0,,-0\n7,-1.0000000000000001e+300,inf\n"
    assert (tmp_path / "native.csv").read_bytes() == (tmp_path / "percent.csv").read_bytes() == expected


def test_write_csv_takes_the_percent_path_under_a_comma_decimal_point(tmp_path, monkeypatch):
    conv = locale.localeconv()
    monkeypatch.setattr(locale, "localeconv", lambda: {**conv, "decimal_point": ","})
    with mock.patch.object(export, "_percent_body", wraps=export._percent_body) as percent:
        write_csv(tmp_path / "x.csv", ["a", "b", "c"], _FALLBACK_COLUMNS)
    assert percent.call_count == 1
    assert b"0.10000000000000001" in (tmp_path / "x.csv").read_bytes()


@pytest.mark.parametrize("native", [True, False], ids=["compiled", "percent"])
def test_uint64_column_keeps_values_past_int64(tmp_path, monkeypatch, native):
    if native:
        _formatter()
    else:
        monkeypatch.setattr(export, "library", lambda: None)
    write_csv(tmp_path / "u.csv", ["u"], [np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)])
    assert (tmp_path / "u.csv").read_text() == "u\n0\n9223372036854775808\n18446744073709551615\n"


# --- every public table writer against the reference writer ---


def test_moment_table_bytes(tmp_path):
    ms = moment_series(COIN0, preset_coin("hadamard_analog"), 30)
    ms.to_csv(tmp_path / "new.csv")
    rows = zip(map(int, ms.times), map(float, ms.mean), map(float, ms.second), map(float, ms.variance))
    reference_write_csv(tmp_path / "ref.csv", ["t", "mean", "second", "variance"], rows)
    _assert_same_files(tmp_path)


def test_distribution_bytes(tmp_path):
    state = moment_series(COIN0, preset_coin("paper_xy", theta=0.3, phi=1.1), 25).final
    distribution_to_csv(state, tmp_path / "new.csv")
    rows = [(state.t, x, p) for x, p in distribution(state).items()]
    reference_write_csv(tmp_path / "ref.csv", ["t", "x", "p"], rows)
    _assert_same_files(tmp_path)


@pytest.mark.parametrize("coin", ["identity", "hadamard_analog"])
def test_compare_bytes(tmp_path, coin):
    steps, grid = 40, 256
    out = tmp_path / "new.csv"
    assert cli.main(["compare", "--coin", coin, "--steps", str(steps), "--grid-size", str(grid),
                     "--out", str(out)]) == 0
    var = moment_series(COIN0, preset_coin(coin), steps).variance
    coeff = moment_integrals(preset_coin(coin), COIN0).variance_coeff
    rows = []
    for t in range(1, steps + 1):
        predicted = coeff * t * t
        abs_err = abs(var[t] - predicted)
        rel = "%.17g" % (abs_err / predicted) if predicted > 0 else ""
        rows.append((t, float(var[t]), float(predicted), float(abs_err), rel))
    reference_write_csv(tmp_path / "ref.csv", ["t", "var_exact", "var_predicted", "abs_err", "rel_err"], rows)
    _assert_same_files(tmp_path)


def test_dispersion_bytes_on_touching_coin(tmp_path):
    band = dispersion_band(preset_coin("identity"), 64)  # touches at k = -pi and k = 0
    assert np.isnan(band.bloch[:, 2]).sum() == 2
    dispersion_to_csv(band, tmp_path / "new.csv")
    rows = []
    for i in range(band.k_grid.size):
        row = [band.k_grid[i], band.omega_values[i]]
        if math.isnan(band.bloch[i, 2]):
            row += ["", "", "", ""]
        else:
            row += [*band.bloch[i], band.bloch[i, 2] + 0.0]
        rows.append(row)
    reference_write_csv(tmp_path / "ref.csv", ["k", "omega", "nx", "ny", "nz", "v_group"], rows)
    _assert_same_files(tmp_path)


def test_velocity_density_bytes(tmp_path):
    vd = weak_limit_density(preset_coin("hadamard_analog"), COIN0, bins=64)
    velocity_density_to_csv(vd, tmp_path / "new.csv")
    rows = list(zip(map(float, vd.v_grid), map(float, vd.density)))
    reference_write_csv(tmp_path / "ref.csv", ["v", "density"], rows)
    _assert_same_files(tmp_path)


def test_gap_map_bytes(tmp_path):
    gm = scan_gap_map(23)
    gap_map_to_csv(gm, tmp_path / "new.csv")
    rows = [
        (float(th), float(ph), float(gm.gap[i, j]), float(gm.gap[i, j]))
        for i, th in enumerate(gm.axis)
        for j, ph in enumerate(gm.axis)
    ]
    reference_write_csv(tmp_path / "ref.csv", ["theta", "phi", "gap_zero", "gap_pi"], rows)
    _assert_same_files(tmp_path)


# --- rewriting a file that exists ---

_TABLE = (["i", "x"], [np.arange(100), np.linspace(-1.0, 1.0, 100)])
_RECORD = {"b": [1.5, None, "text"], "a": {"nested": 2**70, "nan": math.nan}}


def _csv_path(native, monkeypatch):
    if native:
        _formatter()
    else:
        monkeypatch.setattr(export, "library", lambda: None)


_WRITERS = {
    "csv-compiled": (True, lambda path: write_csv(path, *_TABLE)),
    "csv-percent": (False, lambda path: write_csv(path, *_TABLE)),
    "json": (None, lambda path: write_json(path, _RECORD)),
}


@pytest.mark.parametrize("writer", _WRITERS)
@pytest.mark.parametrize("old_size", [1, 10**6], ids=["shorter", "longer"])
def test_rewrite_leaves_exactly_the_new_bytes(tmp_path, monkeypatch, writer, old_size):
    native, write = _WRITERS[writer]
    if native is not None:
        _csv_path(native, monkeypatch)
    write(tmp_path / "fresh")
    (tmp_path / "old").write_bytes(b"~" * old_size)
    write(tmp_path / "old")
    assert (tmp_path / "old").read_bytes() == (tmp_path / "fresh").read_bytes()


@pytest.mark.parametrize("native", [True, False], ids=["compiled", "percent"])
def test_failed_rewrite_keeps_no_old_bytes(tmp_path, monkeypatch, native):
    # the first chunk of rows reaches the file, then the disk fills
    _csv_path(native, monkeypatch)
    header, n = ["i", "x"], 2 * export._CHUNK_ROWS + 3
    columns = [np.arange(n), np.linspace(-1.0, 1.0, n)]
    write_csv(tmp_path / "fresh.csv", header, columns)
    fresh = (tmp_path / "fresh.csv").read_bytes()

    def one_chunk_then_full(lib, cols, n):
        yield from real_write_formatted(lib, cols, min(n, export._CHUNK_ROWS))
        raise OSError(28, "No space left on device")

    def full(cols, n):
        raise OSError(28, "No space left on device")

    real_write_formatted = export._write_formatted
    monkeypatch.setattr(export, "_write_formatted", one_chunk_then_full)
    monkeypatch.setattr(export, "_percent_body", full)
    path = tmp_path / "old.csv"
    path.write_bytes(b"~" * (2 * len(fresh)))
    with pytest.raises(OSError, match="No space left"):
        write_csv(path, header, columns)
    left = path.read_bytes()
    assert b"~" not in left and fresh.startswith(left)
    assert left.count(b"\n") == 1 + (export._CHUNK_ROWS if native else 0)


@pytest.mark.parametrize("native", [True, False], ids=["compiled", "percent"])
def test_writers_write_to_a_device(monkeypatch, native):
    # a character device cannot be truncated; it is written as before
    _csv_path(native, monkeypatch)
    write_csv(os.devnull, *_TABLE)
    write_json(os.devnull, _RECORD)


def test_rewrite_closes_the_descriptor_when_a_write_raises(tmp_path, monkeypatch):
    opened = []

    def record_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def no_memory(*args, **kwargs):
        raise MemoryError

    real_open = os.open
    monkeypatch.setattr(os, "open", record_open)
    monkeypatch.setattr(os, "write", no_memory)
    with pytest.raises(MemoryError):
        write_json(tmp_path / "x.json", _RECORD)
    monkeypatch.undo()
    with pytest.raises(OSError):
        os.fstat(opened[0])


@pytest.mark.parametrize("writer", _WRITERS)
def test_rewrite_finishes_partial_writes(tmp_path, monkeypatch, writer):
    # a write may take fewer bytes than it is given, as a pipe does when a signal arrives
    native, write = _WRITERS[writer]
    if native is not None:
        _csv_path(native, monkeypatch)
    write(tmp_path / "whole")
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, memoryview(data)[:7]))
    write(tmp_path / "partial")
    assert (tmp_path / "partial").read_bytes() == (tmp_path / "whole").read_bytes()


def _through_fifo(tmp_path, write):
    """What ``write(path)`` returns and the bytes a second thread reads from
    the named FIFO at ``path`` while it runs.  The read end, and a write end
    held here so that the reader sees no end of file before ``write`` opens
    the FIFO, are opened without blocking; a ``write`` that raises still
    closes its end, so the reader ends and the test cannot hang."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    held = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
    os.set_blocking(read_end, True)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.extend(iter(lambda: os.read(read_end, 1 << 16), b"")), daemon=True)
    reader.start()
    try:
        result = write(fifo)
    finally:
        os.close(held)
        reader.join(timeout=60)
    assert not reader.is_alive()
    os.close(read_end)
    return result, b"".join(chunks)


_LONG_TABLE = (["i", "x"], [np.arange(5000), np.linspace(-1.0, 1.0, 5000)])  # past a pipe's 64 KiB
_STREAM_WRITERS = {
    "csv-compiled": (True, lambda path: write_csv(path, *_LONG_TABLE)),
    "csv-percent": (False, lambda path: write_csv(path, *_LONG_TABLE)),
    "json": (None, lambda path: write_json(path, _RECORD)),
}


@pytest.mark.parametrize("writer", _STREAM_WRITERS)
def test_writers_write_to_a_fifo(tmp_path, monkeypatch, writer):
    native, write = _STREAM_WRITERS[writer]
    if native is not None:
        _csv_path(native, monkeypatch)
    write(tmp_path / "regular")
    _, streamed = _through_fifo(tmp_path, write)
    assert streamed == (tmp_path / "regular").read_bytes()
    assert (tmp_path / "fifo").is_fifo()


def test_cli_output_to_a_fifo(tmp_path, capsys):
    argv = ["asymptotics", "--coin", "hadamard_analog", "--output-dir", str(tmp_path), "--out"]
    assert cli.main([*argv, "regular.json"]) == 0
    code, streamed = _through_fifo(tmp_path, lambda path: cli.main([*argv, path.name]))
    assert code == 0, capsys.readouterr().err
    assert streamed == (tmp_path / "regular.json").read_bytes()
    manifests = [json.loads((tmp_path / f"{name}.manifest.json").read_text()) for name in ("regular.json", "fifo")]
    assert manifests[1]["outputs"] == ["fifo"] and manifests[1]["results"] == manifests[0]["results"]


def test_write_json_bytes(tmp_path):
    write_json(tmp_path / "x.json", _RECORD)
    with open(tmp_path / "ref.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_RECORD, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


# --- the JSON encoder against json.dumps ---

# quotes, backslashes, control characters, non-ASCII text past the BMP, and
# lone surrogates, which st.characters() leaves out
_EDGE_CHARS = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\xe9", "\u2028", "\ud800", "\udfff", "\U0001f600"])
_JSON_TEXT = st.text(st.one_of(st.characters(), _EDGE_CHARS), max_size=8)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -1),
    _FLOATS,  # +-0.0, subnormals, nan and +-inf among them
    _FLOATS.map(np.float64),
    _JSON_TEXT,
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_VALUES)
def test_write_json_writes_the_text_of_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "x.json"
    write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii")


@pytest.mark.parametrize(
    "value",
    [np.int64(1), np.bool_(True), {1, 2}, b"x", {1: "int key"}, {"a": [0.5, {None: 1}]}, [np.float64(1.0), np.int64(2)]],
    ids=["int64", "bool_", "set", "bytes", "int-key", "nested-none-key", "nested-int64"],
)
def test_write_json_rejects_what_it_cannot_write_exactly(tmp_path, value):
    with pytest.raises(TypeError):
        write_json(tmp_path / "x.json", value)
