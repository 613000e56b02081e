"""The columnar CSV writer against the row-by-row reference writer, byte for
byte: on generated columns, and on the file of every public table writer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import cli
from coinwalk.asymptotics import moment_integrals, velocity_density_to_csv, weak_limit_density
from coinwalk.coins import preset_coin
from coinwalk.export import write_csv
from coinwalk.gapscan import gap_map_to_csv, scan_gap_map
from coinwalk.momentum import dispersion_band, dispersion_to_csv
from coinwalk.walk import InitialCondition, distribution, distribution_to_csv, moment_series
from helpers import reference_write_csv

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
    assert np.isnan(band.group_velocity).sum() == 2
    dispersion_to_csv(band, tmp_path / "new.csv")
    rows = []
    for i in range(band.k_grid.size):
        row = [band.k_grid[i], band.omega_values[i]]
        if math.isnan(band.group_velocity[i]):
            row += ["", "", "", ""]
        else:
            row += [*band.bloch[i], band.group_velocity[i]]
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
    gm = scan_gap_map(23, 17)
    gap_map_to_csv(gm, tmp_path / "new.csv")
    rows = [
        (float(th), float(ph), float(gm.gap_zero[i, j]), float(gm.gap_pi[i, j]))
        for i, th in enumerate(gm.theta_grid)
        for j, ph in enumerate(gm.phi_grid)
    ]
    reference_write_csv(tmp_path / "ref.csv", ["theta", "phi", "gap_zero", "gap_pi"], rows)
    _assert_same_files(tmp_path)
