import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinwalk import gapscan
from coinwalk.gapscan import (
    BAND_PI,
    BAND_ZERO,
    MAX_GRID,
    MIN_GRID,
    GapClosure,
    _amplitude,
    _candidate_nodes,
    assert_no_boundary,
    canonical_angle,
    canonical_points,
    closure_points,
    closures_to_dict,
    enumerate_closures,
    gap_map_to_csv,
    min_gap,
    scan_gap_map,
)
from helpers import min_gap_sampled, reference_enumerate_closures

HALF_PI = math.pi / 2

# closure locations on the closed square [-pi, pi]^2, as enumerated in the
# survey: the 3x3 lattice of multiples of pi plus the four (+-pi/2, -+pi/2)
EXPECTED_POINTS = sorted(
    [(t, p) for t in (-math.pi, 0.0, math.pi) for p in (-math.pi, 0.0, math.pi)]
    + [(s1 * HALF_PI, s2 * HALF_PI) for s1 in (-1, 1) for s2 in (-1, 1)]
)


def test_min_gap_examples():
    assert min_gap(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert min_gap(HALF_PI, -HALF_PI) == pytest.approx(0.0, abs=1e-7)
    assert min_gap(math.pi / 4, math.pi / 4) == pytest.approx(math.pi / 4, abs=1e-12)


def test_min_gap_sampled_agrees_with_closed_form():
    rng = np.random.default_rng(51)
    theta = rng.uniform(-math.pi, math.pi, 10_000)
    phi = rng.uniform(-math.pi, math.pi, 10_000)
    # the sampled minimiser finds each band's gap on its own; the closed form
    # is the one gap of both
    s_zero, s_pi = min_gap_sampled(theta, phi, k_samples=512)
    gap = min_gap(theta, phi)
    assert float(np.max(np.abs(s_zero - gap))) < 1e-8
    assert float(np.max(np.abs(s_pi - gap))) < 1e-8


def test_min_gap_sampled_validation():
    with pytest.raises(ValueError):
        min_gap_sampled(0.3, 0.4, k_samples=128)


def test_enumerate_closures_counts():
    closures = enumerate_closures(721)
    points = closure_points(closures)
    assert len(points) == 13
    assert len(canonical_points(closures)) == 8
    assert len(closures) == 26  # every point closes both bands


def test_enumerate_closures_matches_expected_points():
    closures = enumerate_closures(721)
    points = closure_points(closures)
    for expected, got in zip(EXPECTED_POINTS, points):
        assert got[0] == pytest.approx(expected[0], abs=1e-9)
        assert got[1] == pytest.approx(expected[1], abs=1e-9)


def test_open_point_never_reported():
    closures = enumerate_closures(721)
    for c in closures:
        assert math.hypot(c.theta - math.pi / 4, c.phi - math.pi / 4) > 0.1


def test_band_momenta_at_origin():
    closures = enumerate_closures(361)
    by_band = {
        c.band: c.k_star
        for c in closures
        if abs(c.theta) < 1e-9 and abs(c.phi) < 1e-9
    }
    assert by_band[BAND_ZERO] == pytest.approx(0.0, abs=1e-9)
    assert abs(by_band[BAND_PI]) == pytest.approx(math.pi, abs=1e-9)


def test_band_momenta_at_half_pi_points():
    closures = enumerate_closures(361)

    def k_of(th, ph, band):
        for c in closures:
            if abs(c.theta - th) < 1e-6 and abs(c.phi - ph) < 1e-6 and c.band == band:
                return c.k_star
        raise AssertionError(f"closure ({th}, {ph}, {band}) not found")

    assert k_of(HALF_PI, HALF_PI, BAND_ZERO) == pytest.approx(-HALF_PI, abs=1e-6)
    assert k_of(HALF_PI, HALF_PI, BAND_PI) == pytest.approx(HALF_PI, abs=1e-6)
    assert k_of(HALF_PI, -HALF_PI, BAND_ZERO) == pytest.approx(HALF_PI, abs=1e-6)
    assert k_of(-HALF_PI, HALF_PI, BAND_ZERO) == pytest.approx(HALF_PI, abs=1e-6)
    assert k_of(-HALF_PI, -HALF_PI, BAND_ZERO) == pytest.approx(-HALF_PI, abs=1e-6)


def test_closure_momenta_sit_on_band_edges():
    # at every reported closure the dispersion argument reaches +1 (w = 0
    # band) or -1 (w = +-pi band) at k_star
    closures = enumerate_closures(361)
    for c in closures:
        arg = math.cos(c.k_star) * math.cos(c.theta) * math.cos(c.phi) - math.sin(
            c.k_star
        ) * math.sin(c.theta) * math.sin(c.phi)
        expected = 1.0 if c.band == BAND_ZERO else -1.0
        assert arg == pytest.approx(expected, abs=1e-10)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_closures(100)


def test_enumerate_rejects_grid_above_max_before_allocating(monkeypatch):
    # past 2^28 a closure point may span two cells: the grid is refused before
    # any node is made
    monkeypatch.setattr(gapscan, "_candidate_nodes", lambda grid: pytest.fail("made the candidate nodes"))
    with pytest.raises(ValueError, match=f"grid must be <= {MAX_GRID} per axis"):
        enumerate_closures(MAX_GRID + 1)
    assert MAX_GRID == 2**28


def test_no_boundary_for_real_closures():
    closures = enumerate_closures(361)
    assert assert_no_boundary(closures)


def test_no_boundary_detects_synthetic_closure_line():
    # a dispersion whose gap vanishes on the whole line theta = 0
    fake = [GapClosure(0.0, 0.3, 0.0, BAND_ZERO)]
    assert not assert_no_boundary(fake, gap_fn=lambda th, ph: abs(th))


def test_no_boundary_vacuous_on_empty_list():
    assert assert_no_boundary([])


def test_gap_map_invariants_and_csv(tmp_path):
    gm = scan_gap_map(41)
    assert gm.gap.shape == (41, 41)
    assert np.all(gm.gap >= 0.0)
    path = tmp_path / "map.csv"
    gap_map_to_csv(gm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,phi,gap_zero,gap_pi"
    assert len(lines) == 1 + 41 * 41
    # the one gap is written to both gap columns
    assert all(row.split(",")[2] == row.split(",")[3] for row in lines[1:])


def test_canonical_angle():
    assert canonical_angle(math.pi) == pytest.approx(math.pi, abs=0)
    assert canonical_angle(-math.pi) == pytest.approx(math.pi, abs=0)
    assert canonical_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert canonical_angle(0.3) == pytest.approx(0.3, abs=0)


def test_closures_to_dict_counts_and_fields():
    closures = enumerate_closures(361)
    record = closures_to_dict(closures, grid=361)
    assert record["tol"] == 1e-8
    assert record["count_points"] == 13
    assert record["count_points_mod_2pi"] == 8
    assert record["count_point_band_pairs"] == 26
    entry = record["closures"][0]
    for key in ("theta", "phi", "canonical_theta", "canonical_phi", "k_star", "band"):
        assert key in entry


def test_ballistic_at_gap_open_and_gap_closed_parameters():
    # closing the gap does not produce a non-spreading walk anywhere
    from coinwalk.asymptotics import classify_spreading
    from coinwalk.coins import preset_coin
    from coinwalk.walk import InitialCondition

    rng = np.random.default_rng(52)
    init = InitialCondition(np.array([1.0, 0.0]))
    closed = [(0.0, 0.0), (0.0, math.pi), (HALF_PI, HALF_PI), (HALF_PI, -HALF_PI)]
    for th, ph in closed:
        coin = preset_coin("paper_xy", theta=th, phi=ph)
        assert classify_spreading(coin, init) == "ballistic"
    for _ in range(20):
        th, ph = rng.uniform(-math.pi, math.pi, 2)
        if min_gap(th, ph) < 1e-3:
            continue
        coin = preset_coin("paper_xy", theta=th, phi=ph)
        assert classify_spreading(coin, init) == "ballistic"


# the closure points of the survey (EXPECTED_POINTS) and points 1e-12 to 1e-1
# from one of them, where arccos A is ill-conditioned
_NEAR_CLOSURE = st.builds(
    lambda point, log_r, a: (point[0] + 10.0**log_r * math.cos(a), point[1] + 10.0**log_r * math.sin(a)),
    st.sampled_from(EXPECTED_POINTS),
    st.floats(-12.0, -1.0),
    st.floats(0.0, 2.0 * math.pi),
)
_ANY_POINT = st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))


@settings(max_examples=300, deadline=None)
@given(point=_NEAR_CLOSURE | _ANY_POINT, alpha=st.floats(0.0, math.pi), beta=st.floats(-math.pi, math.pi))
def test_gap_is_the_asymptotic_spread(point, alpha, beta):
    # s_perp = sin(gap), so <x^2>_t / t^2 -> 1 - sin(gap).  Rounding A by an
    # eps moves arccos A by up to eps / sin(gap), and by no more than
    # sqrt(4 eps) ~ 3e-8 as A -> 1; measured over 20000 points, half of them
    # near a closure, |diff| * sin(gap) stayed below 1.1 eps
    from coinwalk.asymptotics import moment_integrals
    from coinwalk.coins import preset_coin
    from coinwalk.walk import InitialCondition

    theta, phi = point
    eps = np.finfo(float).eps
    am = moment_integrals(preset_coin("paper_xy", theta=theta, phi=phi), InitialCondition.from_bloch(alpha, beta))
    sin_gap = math.sin(float(min_gap(theta, phi)))
    diff = abs(am.second_coeff - (1.0 - sin_gap))
    assert diff * sin_gap <= 2.0 * eps + 4.0 * eps * sin_gap, (diff, sin_gap)
    assert diff <= math.sqrt(4.0 * eps), diff


def _closures_json(closures, grid):
    return json.dumps(closures_to_dict(closures, grid=grid))


@settings(max_examples=20, deadline=None)
@given(grid=st.integers(181, 1500))
def test_enumerate_closures_matches_full_mesh_scan(grid):
    expected = _closures_json(reference_enumerate_closures(grid), grid)
    assert _closures_json(enumerate_closures(grid), grid) == expected


@pytest.mark.parametrize("grid", [721, 722, 723, 1000, 2881])
def test_enumerate_closures_matches_full_mesh_scan_on_survey_grids(grid):
    expected = _closures_json(reference_enumerate_closures(grid), grid)
    assert _closures_json(enumerate_closures(grid), grid) == expected


def test_fine_non_aligned_grid_reports_isolated_cells_of_amplitude_one():
    # (grid - 1) % 4 == 1: the mesh misses some closure points (the known
    # grid defect, so the count is not pinned), and a node sits a quarter cell,
    # 0.79e-6, from each (+-pi/2, +-pi/2) in both angles, whose gap of 1.1e-6
    # is below a loose tolerance but not 0.  Every cell reported must be
    # closed in doubles and a closure point on its own.
    grid = 2_000_002
    closures = enumerate_closures(grid)
    assert closures
    step = 2.0 * math.pi / (grid - 1)
    cells = {(round((c.theta + math.pi) / step), round((c.phi + math.pi) / step)) for c in closures}
    for c in closures:
        assert _amplitude(c.theta, c.phi) == 1.0, c
    for a, b in itertools.combinations(cells, 2):
        assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 4, (a, b)


# angles on and near the closure lines theta in {0, +-pi/2, +-pi}
_NEAR_LINE = st.builds(
    lambda base, sign, log_off: base * HALF_PI + sign * 10.0**log_off,
    st.integers(-2, 2),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-9.0, -2.0),
)
_ANY_ANGLE = st.one_of(st.floats(-math.pi, math.pi), _NEAR_LINE)


@settings(max_examples=300, deadline=None)
@given(theta=_ANY_ANGLE, phi=_ANY_ANGLE)
def test_gap_stays_open_off_the_screened_lines(theta, phi):
    # away from the quarter turns, where min(cos^2, sin^2) > 1e-9 for either
    # angle, the gap stays above 1e-6, far from a hit's gap of 0
    for a in (theta, phi):
        if min(math.cos(a) ** 2, math.sin(a) ** 2) > 1e-9:
            assert float(min_gap(theta, phi)) > 1e-6


# angles at and within 1e-6 of a quarter turn, where every hit lies
_AT_TURN = st.builds(
    lambda base, off: base * HALF_PI + off,
    st.integers(-2, 2),
    st.floats(-1e-6, 1e-6) | st.floats(-3e-8, 3e-8),
)


@settings(max_examples=300, deadline=None)
@given(theta=_AT_TURN | _ANY_ANGLE, phi=_AT_TURN | _ANY_ANGLE)
@example(theta=HALF_PI - 1.04e-8, phi=HALF_PI - 1.04e-8)
@example(theta=-math.pi + 1e-8, phi=1e-8)
@example(theta=1.0536e-8, phi=0.0)
def test_every_angle_of_a_hit_lies_by_a_quarter_turn(theta, phi):
    # the lemma behind the candidate nodes (module docstring): both angles of
    # a cell whose computed amplitude is 1 lie within 2^-26.5 = 1.0537e-8 of a
    # multiple of pi/2
    if _amplitude(theta, phi) >= 1.0:
        for a in (theta, phi):
            assert abs(a - round(a / HALF_PI) * HALF_PI) <= 1.0537e-8, a


def test_candidate_nodes_are_mesh_nodes():
    # every candidate value is the mesh node np.linspace gives at its index,
    # and every mesh node within 2^-26.5 of a quarter turn, where every hit
    # lies, is a candidate
    rng = np.random.default_rng(53)
    grids = [*range(MIN_GRID, 3000), 2**20 + 1, *rng.integers(3000, 2**20, 50)]
    for grid in map(int, grids):
        nodes = _candidate_nodes(grid)
        mesh = np.linspace(-math.pi, math.pi, grid)
        idx = np.searchsorted(mesh, nodes)
        assert nodes.tolist() == mesh[idx].tolist(), grid
        assert 0 < len(idx) <= 5 and np.all(np.diff(idx) > 0), grid
        for turn in (-math.pi, -HALF_PI, 0.0, HALF_PI, math.pi):
            near = np.flatnonzero(np.abs(mesh - turn) <= 1.0537e-8)
            assert set(near.tolist()) <= set(idx.tolist()), (grid, turn)


def test_enumerate_closures_memory_does_not_grow_with_grid():
    tracemalloc.start()
    try:
        enumerate_closures(4001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a 4001^2 float64 mesh alone is 128 MB


def _run_under_memory_cap(argv):
    """Run ``argv`` with a 1 GB address-space limit (a scan whose memory grows
    with the grid, even one array per mesh axis, would need 2 GiB at the grids
    used here and fail fast instead)."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(argv, env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)


def test_enumerate_closures_at_max_aligned_grid_under_memory_cap():
    # MAX_GRID - 3 is the finest grid with (grid - 1) % 4 == 0, so every
    # closure point is a mesh node; one float64 axis of it alone is 2 GiB
    code = (
        "import time, tracemalloc\n"
        "from coinwalk.gapscan import MAX_GRID, canonical_points, closure_points, enumerate_closures\n"
        "tracemalloc.start()\n"
        "t0 = time.perf_counter()\n"
        "c = enumerate_closures(MAX_GRID - 3)\n"
        "seconds = time.perf_counter() - t0\n"
        "print(len(closure_points(c)), len(canonical_points(c)), len(c), seconds, tracemalloc.get_traced_memory()[1])\n"
    )
    proc = _run_under_memory_cap([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    points, canonical, pairs, seconds, peak = proc.stdout.split()
    assert (int(points), int(canonical), int(pairs)) == (13, 8, 26)
    assert float(seconds) < 1.0
    assert int(peak) < 64_000


def test_cli_gapscan_at_max_aligned_grid_under_memory_cap(tmp_path):
    argv = [sys.executable, "-m", "coinwalk.cli", "gapscan", "--grid", str(MAX_GRID - 3),
            "--output-dir", str(tmp_path), "--out", "big.json"]
    proc = _run_under_memory_cap(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "13 closure points; no_boundary = True"
    record = json.loads((tmp_path / "big.json").read_text())
    assert (record["count_points"], record["count_points_mod_2pi"]) == (13, 8)


def test_cli_oversized_gap_map_is_a_config_error_under_memory_cap(tmp_path):
    argv = [sys.executable, "-m", "coinwalk.cli", "gapscan", "--grid", "181", "--map-grid", "20001",
            "--output-dir", str(tmp_path), "--out", "c.json", "--map-out", "m.csv"]
    proc = _run_under_memory_cap(argv)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: map_grid must be <=")
    assert not any(tmp_path.iterdir())


def test_no_boundary_calls_gap_fn_once_on_every_probe():
    closures = enumerate_closures(361)
    calls = []

    def gap_fn(th, ph):
        calls.append(np.shape(th))
        return min_gap(th, ph)

    assert assert_no_boundary(closures, gap_fn=gap_fn)
    assert calls == [(13, 5, 16)]  # 13 points, 5 radii, 16 directions


def test_no_boundary_matches_scalar_probe_loop():
    # the one-call probe against a scalar loop over every ray, including a
    # gap function that vanishes on one ray only
    closures = enumerate_closures(361)
    radii, n_dir = (0.02, 0.04, 0.06, 0.08, 0.1), 16

    def scalar_probe(gap_fn):
        for th, ph in closure_points(closures):
            for r in radii:
                for a in 2.0 * math.pi * np.arange(n_dir) / n_dir:
                    if gap_fn(th + r * math.cos(a), ph + r * math.sin(a)) <= 1e-8:
                        return False
        return True

    def ray_fn(th, ph):
        # zero on the ray at angle 0 from (0, 0): phi == 0, theta > 0
        return np.where((np.abs(ph) < 1e-12) & (th > 0.0), 0.0, 1.0)

    for gap_fn in (min_gap, ray_fn):
        expected = scalar_probe(lambda th, ph: float(gap_fn(th, ph)))
        assert assert_no_boundary(closures, gap_fn=gap_fn) == expected
    assert not assert_no_boundary(closures, gap_fn=ray_fn)
