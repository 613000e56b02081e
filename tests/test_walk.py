import ctypes
import functools
import hashlib
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import cli, export, walk
from coinwalk._native import load
from coinwalk.coins import compose, preset_coin, random_coin_spec
from coinwalk.walk import InitialCondition, evolve, moment_series
from helpers import (
    distribution,
    moments,
    random_coin_state,
    random_walk_case,
    reference_evolve,
    ring_oracle,
    two_cpus,
    walk_digest,
)

COIN0 = InitialCondition(np.array([1.0, 0.0]))
COIN1 = InitialCondition(np.array([0.0, 1.0]))
BALANCED = InitialCondition(np.array([1.0, 1.0j]) / math.sqrt(2))


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        InitialCondition(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        InitialCondition(np.array([1.0, 0.0, 0.0]))
    for big in (1e200, 1e300j, 1e308 + 1e308j):  # squaring would overflow
        with pytest.raises(ValueError, match="far from unit norm"):
            InitialCondition(np.array([big, 0.0]))
    with pytest.raises(ValueError, match="coin_state components must be finite"):
        InitialCondition(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="alpha must be finite"):
        InitialCondition.from_bloch(math.inf, 0.0)
    with pytest.raises(ValueError, match="beta must be finite"):
        InitialCondition.from_bloch(0.5, math.nan)
    ic = InitialCondition.from_bloch(0.7, 1.1, position=3)
    assert math.isclose(float(np.sum(np.abs(ic.coin_state) ** 2)), 1.0, abs_tol=1e-15)
    assert ic.position == 3
    straight_up = InitialCondition.from_bloch(0.0, 0.0)
    assert np.allclose(straight_up.coin_state, [1, 0], atol=0)


def test_step_shifts_right_for_coin0():
    start = evolve(COIN0, preset_coin("identity"), 0)
    out = evolve(COIN0, preset_coin("identity"), 1)
    d = distribution(out)
    assert d[1] == pytest.approx(1.0, abs=0)
    assert out.t == 1 and out.offset == -1
    # support grows by exactly one site on each side
    assert out.amplitudes.shape[0] == start.amplitudes.shape[0] + 2


def test_step_shifts_left_for_coin1():
    out = evolve(COIN1, preset_coin("identity"), 1)
    assert distribution(out)[-1] == pytest.approx(1.0, abs=0)


def test_sigma_x_two_steps_return_to_origin():
    sx = preset_coin("sigma_x")
    state = evolve(COIN0, sx, 2)
    d = distribution(state)
    assert d[0] == pytest.approx(1.0, abs=1e-15)
    # global phase only: amplitude back on the original coin component
    centre = state.amplitudes[np.argmax(np.abs(state.amplitudes[:, 0]))]
    assert abs(abs(centre[0]) - 1.0) < 1e-14


def test_evolve_zero_steps_is_initial_state():
    state = evolve(BALANCED, preset_coin("hadamard_analog"), 0)
    assert state.t == 0
    assert np.allclose(state.amplitudes[0], BALANCED.coin_state, atol=0)


def test_identity_coin_drifts_deterministically():
    state = evolve(COIN0, preset_coin("identity"), 100)
    assert distribution(state)[100] == pytest.approx(1.0, abs=1e-14)


def test_hadamard_one_step_is_fifty_fifty():
    d = distribution(evolve(COIN0, preset_coin("hadamard_analog"), 1))
    assert d[1] == pytest.approx(0.5, abs=1e-15)
    assert d[-1] == pytest.approx(0.5, abs=1e-15)


def test_five_step_hadamard_matches_ring_oracle():
    d_line = distribution(evolve(COIN0, preset_coin("hadamard_analog"), 5))
    d_ring = ring_oracle(COIN0, preset_coin("hadamard_analog"), 5, 13)
    assert max(abs(d_line.get(x, 0.0) - p) for x, p in d_ring.items()) < 1e-12


def test_hundred_step_pxy_matches_ring_oracle():
    coin = preset_coin("paper_xy", theta=math.pi / 4, phi=math.pi / 4)
    d_line = distribution(evolve(COIN0, coin, 100))
    d_ring = ring_oracle(COIN0, coin, 100, 203)
    assert max(abs(d_line.get(x, 0.0) - p) for x, p in d_ring.items()) < 1e-10


def test_ring_oracle_size_validation():
    with pytest.raises(ValueError):
        ring_oracle(COIN0, preset_coin("identity"), 5, 10)
    with pytest.raises(ValueError):
        ring_oracle(COIN0, preset_coin("identity"), 5, 11)
    d = ring_oracle(COIN0, preset_coin("identity"), 0, 3)
    assert d[0] == pytest.approx(1.0, abs=0)


def test_distribution_parity_and_normalisation():
    rng = np.random.default_rng(31)
    coin = random_coin_spec(rng, 3)
    state = evolve(COIN0, coin, 31)
    d = distribution(state)
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)
    for x, p in d.items():
        if (x - 0 + 31) % 2 == 1:
            assert p == 0.0
    assert min(d) == -31 and max(d) == 31


def test_light_cone_support():
    rng = np.random.default_rng(32)
    coin = random_coin_spec(rng, 2)
    init = InitialCondition(np.array([0.6, 0.8j]), position=5)
    state = evolve(init, coin, 17)
    assert state.offset == 5 - 17
    assert state.amplitudes.shape == (2 * 17 + 1, 2)


def test_moments_identity_coin():
    state = evolve(COIN0, preset_coin("identity"), 50)
    mean, second = moments(state)
    assert mean == pytest.approx(50.0, abs=1e-12)
    assert second == pytest.approx(2500.0, abs=1e-9)


def test_sigma_x_second_moment_alternates_from_coin0():
    ms = moment_series(COIN0, preset_coin("sigma_x"), 50)
    for t in range(1, 51):
        expected = 1.0 if t % 2 == 1 else 0.0
        assert ms.second[t] == pytest.approx(expected, abs=1e-12)
        assert ms.variance[t] == pytest.approx(0.0, abs=1e-12)  # deterministic bounce


def test_sigma_x_variance_alternates_from_balanced_coin():
    ms = moment_series(BALANCED, preset_coin("sigma_x"), 50)
    for t in range(1, 51):
        expected = 1.0 if t % 2 == 1 else 0.0
        assert ms.variance[t] == pytest.approx(expected, abs=1e-12)


def test_sigma_x_variance_bounded_for_any_initial_coin():
    rng = np.random.default_rng(33)
    # i sigma_x, and i sigma_y = paper_xy at theta = pi/2, phi = 0: both have C00 = 0
    coins = (preset_coin("sigma_x"), preset_coin("paper_xy", theta=math.pi / 2, phi=0.0))
    for _ in range(5):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        init = InitialCondition(vec / np.linalg.norm(vec))
        for coin in coins:
            ms = moment_series(init, coin, 200)
            assert np.all(ms.variance <= 1.0 + 1e-12)


def test_hadamard_long_run_moment_coefficients():
    # quadratic coefficients frozen from the momentum-space integrals, which
    # the acceptance suite reconciles against this very simulator
    ms = moment_series(COIN0, preset_coin("hadamard_analog"), 500)
    second_coeff = ms.second[500] / 500**2
    var_coeff = ms.variance[500] / 500**2
    assert second_coeff == pytest.approx(1 - 1 / math.sqrt(2), abs=0.01)
    assert var_coeff == pytest.approx(0.2071, abs=0.01)


def test_norm_conservation_long_run():
    rng = np.random.default_rng(34)
    coin = random_coin_spec(rng, 4)
    ms = moment_series(COIN0, coin, 2000)
    drift = np.max(np.abs(ms.norm - 1.0))
    assert drift <= 2000 * 1e-14
    assert ms.max_norm_drift == drift
    # the final state's norm, summed apart from the kernel
    assert abs(np.sum(np.abs(ms.final.amplitudes) ** 2) - 1.0) <= 2000 * 1e-14


def test_moment_series_light_cone_bounds():
    rng = np.random.default_rng(35)
    coin = random_coin_spec(rng, 3)
    ms = moment_series(BALANCED, coin, 64)
    t = ms.times.astype(float)
    assert np.all(np.abs(ms.mean) <= t + 1e-9)
    assert np.all(ms.second <= t**2 + 1e-9)
    assert np.all(ms.variance >= -1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 24))
@settings(max_examples=25, deadline=None)
def test_line_equals_ring_oracle_property(seed, steps):
    rng = np.random.default_rng(seed)
    coin = random_coin_spec(rng, int(rng.integers(1, 5)))
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    init = InitialCondition(vec / np.linalg.norm(vec))
    d_line = distribution(evolve(init, coin, steps))
    d_ring = ring_oracle(init, coin, steps, 2 * steps + 3)
    assert max(abs(d_line.get(x, 0.0) - p) for x, p in d_ring.items()) < 1e-12


def test_moment_series_csv(tmp_path):
    ms = moment_series(COIN0, preset_coin("hadamard_analog"), 4)
    path = tmp_path / "m.csv"
    ms.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mean,second,variance"
    assert len(lines) == 6
    assert not any(ln.endswith(",") for ln in lines)


# --- sublattice kernel against the full-width reference stepper ---


@given(st.integers(0, 2**32 - 1), st.integers(0, 64))
@settings(max_examples=60, deadline=None)
def test_evolve_matches_reference_stepper(seed, steps):
    _, coin, init = random_walk_case(seed)
    state = evolve(init, coin, steps)
    ref = reference_evolve(init.coin_state, compose(coin), steps)
    assert state.t == steps and state.offset == init.position - steps
    assert state.amplitudes.shape == ref.shape
    # a few roundings per step, as the moment bounds below allow
    assert np.max(np.abs(state.amplitudes - ref)) <= (2 * steps + 4) * np.finfo(np.float64).eps
    # the empty parity class holds exact zeros
    assert not np.any(state.amplitudes[1::2])


@given(st.integers(0, 2**32 - 1), st.integers(0, 64))
@settings(max_examples=40, deadline=None)
def test_moment_series_equals_moments_of_evolve(seed, steps):
    _, coin, init = random_walk_case(seed)
    ms = moment_series(init, coin, steps)
    eps = np.finfo(np.float64).eps
    for t in range(steps + 1):
        state = evolve(init, coin, t)
        mean, second = moments(state)
        # 2t + 1 products summed in different orders, plus a few roundings in
        # each probability (at t = 0 the series holds the exact position)
        reach = abs(init.position) + t
        bound = (2 * t + 4) * eps
        assert abs(ms.mean[t] - mean) <= bound * reach
        assert abs(ms.second[t] - second) <= bound * reach**2
        assert abs(ms.norm[t] - np.sum(np.abs(state.amplitudes) ** 2)) <= bound
    assert np.array_equal(ms.final.amplitudes, evolve(init, coin, steps).amplitudes)


# --- cancellation at large t ---


def test_sigma_x_variance_alternates_over_long_run():
    ms = moment_series(BALANCED, preset_coin("sigma_x"), 10_000)
    expected = (ms.times % 2).astype(float)
    assert np.max(np.abs(ms.variance[1:] - expected[1:])) <= 1e-12


def test_identity_coin_moments_exact_over_long_run():
    init = InitialCondition(np.array([1.0, 0.0]), position=5)
    ms = moment_series(init, preset_coin("identity"), 10_000)
    x = 5.0 + ms.times
    assert np.max(np.abs(ms.mean - x) / x) <= 1e-15
    assert np.max(np.abs(ms.second - x**2) / x**2) <= 1e-15


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-2])
def test_variance_survives_near_deterministic_drift(eps):
    # variance = second - mean^2 cancels when the walk drifts almost
    # deterministically (|mean| ~ t); check it against a central moment
    steps = 2400
    ms = moment_series(COIN0, preset_coin("paper_xy", theta=math.pi / 2 - eps, phi=math.pi / 2), steps)
    dist = distribution(ms.final)
    mean = math.fsum(x * p for x, p in dist.items())
    central = math.fsum((x - mean) ** 2 * p for x, p in dist.items())
    got = ms.variance[-1]
    if eps == 0.0:  # the walk moves one site right per step: the variance is exactly 0
        assert abs(got) <= 1e-12 and abs(central) <= 1e-12, (got, central)
    else:
        assert abs(got - central) <= 1e-9 * central, (got, central)


@pytest.mark.parametrize("x0", [10**8, 2**53 - 64])
def test_variance_is_the_same_at_every_start_site(x0):
    # the walk reduces displacements from the start site; the start shifts
    # the mean and the second moment only
    rng = np.random.default_rng(46)
    coin, state = random_coin_spec(rng, 3), random_coin_state(rng)
    home = moment_series(InitialCondition(state), coin, 64)
    away = moment_series(InitialCondition(state, position=x0), coin, 64)
    assert away.variance.tobytes() == home.variance.tobytes()
    assert away.norm.tobytes() == home.norm.tobytes()
    # x0 times a norm within a few ulp of 1, plus the mean from the origin, rounded twice
    eps = np.finfo(np.float64).eps
    bound = x0 * np.abs(home.norm - 1.0) + 2 * eps * (x0 + home.times)
    assert np.all(np.abs(away.mean - (x0 + home.mean)) <= bound)


def test_cli_variance_column_is_the_same_at_every_start_site(tmp_path):
    columns = []
    for position in ("100000000", "0"):
        argv = ["moments", "--coin", "hadamard_analog", "--steps", "4", "--position", position]
        assert cli.main([*argv, "--out", f"m{position}.csv", "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / f"m{position}.csv").read_text().splitlines()
        columns.append([line.rsplit(",", 1)[1] for line in lines])
    assert columns[0] == columns[1]


def test_initial_row_scales_with_the_initial_norm():
    # the coin state's own norm^2 is 1 + 9e-13; every row, t = 0 included,
    # weighs the position by it
    init = InitialCondition(np.array([math.sqrt(1 + 9e-13), 0.0]), position=1000)
    ms = moment_series(init, preset_coin("identity"), 2)
    ratios = [ms.mean[t] / ((init.position + t) * ms.norm[t]) for t in range(3)]
    assert ratios[0] == ratios[1] == ratios[2], ratios
    assert ms.second[0] == 1000.0 * 1000.0 * ms.norm[0]


# --- the compiled kernel against the numpy loop ---


def _compiled():
    kernel = walk._kernel()
    if kernel is None:
        pytest.skip("no compiled walk kernel")
    return kernel


def _assert_kernels_agree(init, coin, steps):
    fast = moment_series(init, coin, steps)
    with mock.patch.object(walk, "_kernel", lambda: None):
        slow = moment_series(init, coin, steps)
    # each sums 2t + 2 products in its own order, plus a few roundings in each
    # probability, as in test_moment_series_equals_moments_of_evolve; each
    # amplitude takes a few roundings per step
    t = np.arange(steps + 1, dtype=np.float64)
    reach = abs(init.position) + t
    bound = (2 * t + 4) * np.finfo(np.float64).eps
    assert np.max(np.abs(fast.final.amplitudes - slow.final.amplitudes)) <= bound[-1]
    assert np.all(np.abs(fast.mean - slow.mean) <= bound * reach)
    assert np.all(np.abs(fast.second - slow.second) <= bound * reach**2)
    assert np.all(np.abs(fast.norm - slow.norm) <= bound)


@given(st.integers(0, 2**32 - 1), st.integers(0, 64))
@settings(max_examples=60, deadline=None)
def test_compiled_kernel_matches_numpy_loop(seed, steps):
    _compiled()
    _, coin, init = random_walk_case(seed)
    _assert_kernels_agree(init, coin, steps)


def test_compiled_kernel_matches_numpy_loop_through_subnormals():
    # by t = 2400 about 5% of these amplitudes are subnormal and 15% square to one
    _compiled()
    init = InitialCondition(np.array([1.0, 1.0j]) / math.sqrt(2), position=-7)
    _assert_kernels_agree(init, preset_coin("paper_xy", theta=0.7, phi=1.3), 2400)


def _map(v, c):
    """One lane of ``_walk.c``'s coin map in Python floats, which are IEEE
    doubles; ``c`` holds c00, c01, c10, c11 as (re, im) pairs."""
    ar, ai, br, bi = v
    return [
        (ar * c[0] - ai * c[1]) + (br * c[2] - bi * c[3]),
        (ar * c[1] + ai * c[0]) + (br * c[3] + bi * c[2]),
        (ar * c[4] - ai * c[5]) + (br * c[6] - bi * c[7]),
        (ar * c[5] + ai * c[4]) + (br * c[7] + bi * c[6]),
    ]


def _mirror_advance(amps, steps, c):
    """``coinwalk_advance`` in Python floats, in ``_walk.c``'s order: the flat
    buffer as interleaved (re, im) floats after ``steps`` steps, and the sums
    of p, d p and d^2 p after each step (column 0 left at 0)."""
    width = steps + 1
    sums = [[0.0] * width for _ in range(3)]
    for k in range(1, width):
        lo = steps - k
        plain, scaled = [0.0] * 3, [0.0] * 3
        for j in range(k):
            ia, ib = 2 * (lo + 1 + j), 2 * (width + j)
            v = amps[ia : ia + 2] + amps[ib : ib + 2]
            if not any(v):  # four +-0 stay as they are
                continue
            up = 2.0**600 if all(abs(z) < 2.0**-511 for z in v) else 1.0
            m = _map([z * up for z in v], c)
            amps[ia : ia + 2], amps[ib : ib + 2] = [z / up for z in m[:2]], [z / up for z in m[2:]]
            qa, qb = m[0] * m[0] + m[1] * m[1], m[2] * m[2] + m[3] * m[3]
            da, db = float(2 * j + 2 - k), float(2 * j - k)
            acc = plain if up == 1.0 else scaled
            for row, term in enumerate((qa + qb, da * qa + db * qb, (da * da) * qa + (db * db) * qb)):
                acc[row] += term
        for row in range(3):
            sums[row][k] = plain[row] + scaled[row] * 2.0**-600 * 2.0**-600
    return amps, sums


def _hand_set_flat(rng, steps, scales):
    """A flat buffer for a walk of ``steps`` steps with every slot set, in runs
    of one of ``scales``.  Each slot is read first where its pair joins the
    light cone."""
    values = []
    while len(values) < 4 * (steps + 1):
        scale = scales[rng.integers(len(scales))]
        values += [float(z) * scale for z in rng.uniform(-1, 1, size=2 * int(rng.integers(1, 33)))]
    return np.array(values[: 4 * (steps + 1)])


# (coin preset or None for a random coin, scales): 1 and 2^-505 make plain
# pairs, 2^-530 scaled pairs whose map meets no subnormal, 2^-1050 and 2^-1073
# scaled pairs that map to subnormals, and 2^-1073 and 0 pairs of four zeros;
# the identity coin keeps zero pairs zero, so that blocks of every kind and
# every mix of kinds occur
_MIRROR_WALKS = [
    (None, (1.0, 2.0**-505, 0.0)),
    (None, (1.0, 2.0**-530, 2.0**-1073)),
    (None, (2.0**-505, 2.0**-530, 2.0**-1050)),
    (None, (2.0**-1050, 2.0**-1073, 0.0)),
    (None, (1.0, 2.0**-1050, 0.0)),
    (None, (1.0, 2.0**-505, 2.0**-530)),
    ("identity", (1.0, 2.0**-530, 0.0)),
    ("identity", (2.0**-505, 2.0**-1073, 0.0)),
]


def test_compiled_kernel_is_its_python_float_mirror_bit_for_bit():
    """Walks of 100 to 200 steps, each many blocks long, from hand-set buffers
    of plain, scaled and zero pairs; every step's range ends in a short block
    of each length in turn."""
    kernel = _compiled()
    rng = np.random.default_rng(42)
    for preset, scales in _MIRROR_WALKS:
        steps = int(rng.integers(100, 201))
        coin = compose(preset_coin(preset) if preset else random_coin_spec(rng, int(rng.integers(1, 5))))
        flat = _hand_set_flat(rng, steps, scales)
        amps, sums = _mirror_advance(flat.tolist(), steps, coin.view(np.float64).ravel().tolist())
        got = np.zeros((3, steps + 1))
        kernel(flat.ctypes.data, steps, coin.ctypes.data, got.ctypes.data)
        assert flat.tobytes() == np.array(amps).tobytes()
        assert got.tobytes() == np.array(sums).tobytes()


# Walks run by coinwalk_advance from one site: steps, the coin entries c00,
# c01, c10, c11 as (re, im), the start pair (coin 0 then coin 1, as (re, im)),
# and the SHA-256 of the flat buffer's bytes then the sums' after the walk, as
# the one-pair loop wrote them before pairs were mapped in blocks.  Every input
# is a hex literal, so no libm value enters.  The R = 0.5 walk passes through
# scaled pairs and, at its edges, through pairs of four zeros; the R = 0.1
# walk through more of both.
_GOLDEN_WALKS = [
    (
        2400,
        "0x1.e921dd42f09bap-2 0x1.2e9cd95baba33p-3 -0x1.a928cc5d3b2dfp-2 0x1.851fdf590d1f5p-1"
        " 0x1.a928cc5d3b2dfp-2 0x1.851fdf590d1f5p-1 0x1.e921dd42f09bap-2 -0x1.2e9cd95baba33p-3",
        "0x1.6a09e667f3bcdp-1 0x0.0p+0 0x0.0p+0 0x1.6a09e667f3bcdp-1",
        "c1635b09828c6b2e629b85ee4f9c961ab3307fdbd97aeb2c82fb0b5ad9b3da00",
    ),
    (
        1200,
        "0x1.cbd66d382d34cp-2 0x1.c3bc353187425p-1 0x1.c20567661105fp-5 0x1.0a1999deafab6p-3"
        " -0x1.c20567661105fp-5 0x1.0a1999deafab6p-3 0x1.cbd66d382d34cp-2 -0x1.c3bc353187425p-1",
        "0x1.3333333333333p-1 0x0.0p+0 0x0.0p+0 0x1.999999999999ap-1",
        "630c5703198dc04710330ce960f020b3d8a00c1b8d0f2b1e309e1b91fb6e07a2",
    ),
    (
        777,
        "0x1.5f4180239f822p-1 -0x1.1ccff65781383p-3 -0x1.4c79fec469216p-1 -0x1.305220318a721p-2"
        " 0x1.4c79fec469216p-1 -0x1.305220318a721p-2 0x1.5f4180239f822p-1 0x1.1ccff65781383p-3",
        "0x1.1eb851eb851ecp-2 -0x1.eb851eb851eb8p-1 0x0.0p+0 0x0.0p+0",
        "c8296cfb9fd5ff426fef67a73646fd8ec5a05a9be9aec64a4833ed78ac113951",
    ),
    (
        600,
        "0x1.fd390f0eb0360p-5 0x1.40d9c79e4869bp-4 -0x1.96de31e83dd0ap-4 0x1.fae3762bb419cp-1"
        " 0x1.96de31e83dd0ap-4 0x1.fae3762bb419cp-1 0x1.fd390f0eb0360p-5 -0x1.40d9c79e4869bp-4",
        "0x0.0p+0 0x0.0p+0 -0x1.999999999999ap-1 0x1.3333333333333p-1",
        "0618b632c482675ae224a55fec6cf6154f6e4c3128863ea5061e0f0c413df99a",
    ),
]


@pytest.mark.parametrize("steps, coin, start, digest", _GOLDEN_WALKS, ids=[f"{w[0]}-steps" for w in _GOLDEN_WALKS])
def test_compiled_kernel_writes_the_golden_bytes(steps, coin, start, digest):
    kernel = _compiled()
    coin = np.array([float.fromhex(h) for h in coin.split()])
    flat = np.zeros(4 * (steps + 1))
    start = [float.fromhex(h) for h in start.split()]
    flat[2 * steps : 2 * steps + 2], flat[2 * steps + 2 : 2 * steps + 4] = start[:2], start[2:]
    sums = np.zeros((3, steps + 1))
    kernel(flat.ctypes.data, steps, coin.ctypes.data, sums.ctypes.data)
    assert hashlib.sha256(flat.tobytes() + sums.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("magnitude", [0.5, 2.0**-520, 2.0**-700, 2.0**-1000, 2.0**-1060, 0.0])
def test_compiled_kernel_maps_tiny_pairs_scaled_and_rounded_once(magnitude):
    """One step from a hand-set pair.  A pair whose components are all below
    2^-511 is mapped scaled by 2^600 and scaled back with one IEEE rounding;
    where no operation of the unscaled map meets a subnormal, that gives the
    unscaled map's bits."""
    kernel = _compiled()
    rng = np.random.default_rng(41)
    coin = compose(random_coin_spec(rng, 3))
    v = [float(z) * magnitude for z in rng.uniform(-1, 1, size=4)]
    flat = np.zeros(4, dtype=np.complex128)
    flat[1], flat[2] = complex(v[0], v[1]), complex(v[2], v[3])
    sums = np.zeros((3, 2))
    kernel(flat.ctypes.data, 1, coin.ctypes.data, sums.ctypes.data)
    c = coin.view(np.float64).ravel().tolist()
    up = 2.0**600 if magnitude < 2.0**-511 else 1.0
    mapped = _map([z * up for z in v], c)
    expected = [z / up for z in mapped]
    assert [flat[1].real, flat[1].imag, flat[2].real, flat[2].imag] == expected
    if 2.0**-1000 <= magnitude:
        assert expected == _map(v, c)
    # coin 0 moved one site right, coin 1 one site left; scaled pairs sum scaled by 2^1200
    qa, qb = mapped[0] ** 2 + mapped[1] ** 2, mapped[2] ** 2 + mapped[3] ** 2
    raw = [qa + qb, 1.0 * qa + -1.0 * qb, (1.0 * 1.0) * qa + (-1.0 * -1.0) * qb]
    assert sums[:, 1].tolist() == [z / up / up for z in raw]


def test_an_odd_pairs_empty_lane_adds_nothing_to_the_sums():
    """A step of one pair maps it in lane 0 beside a lane of zeros, which is
    neither stored nor summed.  With finite coin entries that lane's terms are
    +-0 and would change no sum, so an infinite entry shows it: there they
    would be 0 * inf, a NaN, where the pair's own terms are inf."""
    kernel = _compiled()
    c = [math.inf, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
    coin = np.array(c)
    flat = np.array([0.0, 0.0, 0.6, 0.8, 0.3, 0.4, 0.0, 0.0])
    amps, sums = _mirror_advance(flat.tolist(), 1, c)
    got = np.zeros((3, 2))
    kernel(flat.ctypes.data, 1, coin.ctypes.data, got.ctypes.data)
    assert flat.tolist() == amps
    assert got.tolist() == sums == [[0.0, math.inf]] * 3


# --- two stages against one ---


def _stage_edges():
    """The compiled kernel's fewest two-stage steps and its window."""
    lib = walk.library()
    if lib is None:
        pytest.skip("no compiled walk kernel")
    return tuple(ctypes.c_int64.in_dll(lib, name).value for name in ("coinwalk_two_stage_steps", "coinwalk_window"))


# answers "seed steps" lines with walk_digest, pinned to one CPU, so its
# kernel runs every walk in one stage
_PINNED_WORKER = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from helpers import walk_digest
print(len(os.sched_getaffinity(0)), flush=True)
for line in sys.stdin:
    seed, steps = map(int, line.split())
    print(walk_digest(seed, steps), flush=True)
"""


def _worker_env() -> dict:
    """The environment of a worker process that imports ``coinwalk`` and ``helpers``."""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


@pytest.fixture(scope="module")
def pinned_digest():
    _stage_edges()
    two_cpus()
    proc = subprocess.Popen(
        [sys.executable, "-c", _PINNED_WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=_worker_env(),
    )

    def digest(seed, steps):
        proc.stdin.write(f"{seed} {steps}\n")
        proc.stdin.flush()
        return proc.stdout.readline().strip()

    try:
        assert proc.stdout.readline().strip() == "1", "the worker is not pinned to one CPU"
        yield digest
    finally:
        proc.kill()
        proc.communicate()


def _stage_step_counts():
    """Step counts at the two-stage threshold and at window starts, each +-1,
    and the walk lengths up to 2400 around them."""
    threshold, window = _stage_edges()
    first = threshold + (1 - threshold) % window  # the first window start at or past the threshold
    edges = [threshold, first, first + 7 * window, 2400]
    return st.one_of(st.sampled_from([n + d for n in edges for d in (-1, 0, 1)]), st.integers(0, 2400))


@given(seed=st.integers(0, 2**32 - 1), steps=st.data())
@settings(max_examples=40, deadline=None)
def test_two_stages_write_the_bytes_of_one(pinned_digest, seed, steps):
    """A walk run where the kernel may take two CPUs writes the amplitudes and
    sums of the same walk run pinned to one CPU, byte for byte."""
    steps = steps.draw(_stage_step_counts())
    assert walk_digest(seed, steps) == pinned_digest(seed, steps)


def test_a_two_stage_walk_leaves_no_thread_behind():
    threshold, _ = _stage_edges()
    two_cpus()
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        pytest.skip("no /proc/self/task")
    _, coin, init = random_walk_case(46)
    walker = threading.Thread(target=evolve, args=(init, coin, 8 * threshold))
    before = during = len(list(tasks.iterdir()))
    walker.start()
    deadline = time.monotonic() + 60
    while walker.is_alive() and time.monotonic() < deadline:  # the kernel call lets go of the GIL
        during = max(during, len(list(tasks.iterdir())))
        time.sleep(0.001)
    walker.join(timeout=1)
    assert not walker.is_alive()
    assert during == before + 2  # the walking thread, and the second stage beside it
    assert len(list(tasks.iterdir())) == before


# pinned to one CPU, walks argv[1] steps and writes argv[2] rows of four
# double columns to argv[3] on a thread of its own while the main thread
# polls /proc/self/task; prints the CPUs it may use, the kernel that walked,
# and the most threads seen beside the main one
_PINNED_THREADS = """
import os, sys, threading, time
from pathlib import Path
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from coinwalk import export, walk
from helpers import random_walk_case
steps, rows = int(sys.argv[1]), int(sys.argv[2])
_, coin, init = random_walk_case(47)
columns = list(np.random.default_rng(47).normal(size=(4, rows)))

def work():
    walk.evolve(init, coin, steps)
    export.write_csv(sys.argv[3], ["a", "b", "c", "d"], columns)

tasks = Path("/proc/self/task")
before = len(list(tasks.iterdir()))
worker = threading.Thread(target=work)
most = before
worker.start()
while worker.is_alive():
    most = max(most, len(list(tasks.iterdir())))
    time.sleep(0.0005)
worker.join()
print(len(os.sched_getaffinity(0)), walk.kernel_name(), most - before)
"""


def test_pinned_to_one_cpu_neither_compiled_routine_starts_a_thread(tmp_path):
    threshold, _ = _stage_edges()
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task")
    rows = 10 * export._CHUNK_ROWS  # ten formatter calls, each of four columns
    assert 4 * export._CHUNK_ROWS >= ctypes.c_int64.in_dll(walk.library(), "coinwalk_two_stage_fields").value
    argv = [sys.executable, "-c", _PINNED_THREADS, str(8 * threshold), str(rows), str(tmp_path / "t.csv")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_worker_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "compiled", "1"]  # the worker thread alone
    assert len((tmp_path / "t.csv").read_text().splitlines()) == rows + 1


def test_failed_build_falls_back_to_numpy_loop(tmp_path, monkeypatch):
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig, "get_config_var", lambda name: str(tmp_path / "no-cc") if name == "CC" else config_var(name)
    )
    cache = tmp_path / "cache"
    assert load(cache) is None
    assert not any(cache.iterdir())  # no partial library left behind
    monkeypatch.setattr(walk, "library", functools.cache(lambda: load(cache)))
    _, coin, init = random_walk_case(43)
    state = evolve(init, coin, 40)
    assert walk._kernel() is None
    assert np.max(np.abs(state.amplitudes - reference_evolve(init.coin_state, compose(coin), 40))) <= 1e-15
    ms = moment_series(init, coin, 40)
    mean, second = moments(state)
    eps = np.finfo(np.float64).eps
    reach = abs(init.position) + 40
    assert abs(ms.mean[-1] - mean) <= 84 * eps * reach
    assert abs(ms.second[-1] - second) <= 84 * eps * reach**2


def _compiler_on_path():
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("sysconfig names no C compiler on PATH")


def test_compiled_kernel_is_active_when_the_compiler_is_on_path():
    _compiler_on_path()
    assert walk._kernel() is not None


def test_second_load_reuses_the_built_library(tmp_path, monkeypatch):
    _compiler_on_path()
    assert load(tmp_path) is not None
    built = sorted(tmp_path.iterdir())
    assert [p.suffix for p in built] == [".so"]

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"the compiler ran again: {args}")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert load(tmp_path) is not None
    assert sorted(tmp_path.iterdir()) == built


def test_a_build_deletes_older_builds(tmp_path):
    _compiler_on_path()
    # an older build of the library goes; any other file, a build named as
    # the walk kernel's were before it joined the library included, stays
    stale = tmp_path / "_native-00000000.so"
    stale.write_bytes(b"an older build")
    unrelated = [tmp_path / "other.so", tmp_path / "_walk-00000000.so"]
    for path in unrelated:
        path.write_bytes(b"not a build of this library")
    assert load(tmp_path) is not None
    assert not stale.exists() and all(path.exists() for path in unrelated)
    assert len(list(tmp_path.glob("_native-*.so"))) == 1


def test_a_library_deleted_before_its_load_falls_back_to_numpy_loop(tmp_path, monkeypatch):
    # a concurrent build of another source may delete this build before it loads
    _compiler_on_path()
    cdll = ctypes.CDLL

    def deleted_first(path, *args, **kwargs):
        Path(path).unlink()
        return cdll(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", deleted_first)
    monkeypatch.setattr(walk, "library", functools.cache(lambda: load(tmp_path)))
    _, coin, init = random_walk_case(44)
    state = evolve(init, coin, 40)
    assert walk._kernel() is None
    with mock.patch.object(walk, "_numpy_steps", wraps=walk._numpy_steps) as numpy_steps:
        assert np.array_equal(evolve(init, coin, 40).amplitudes, state.amplitudes)
    assert numpy_steps.call_count == 1


def test_two_processes_building_at_once_both_succeed(tmp_path):
    _compiler_on_path()
    src = str(Path(walk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from pathlib import Path; from coinwalk._native import load; " \
        "sys.exit(load(Path(sys.argv[1])) is None)"
    procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env) for _ in range(2)]
    try:
        codes = [p.wait(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert codes == [0, 0]
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]  # no temporary file left
