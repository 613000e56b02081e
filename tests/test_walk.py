import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk.coins import compose, preset_coin, random_coin_spec
from coinwalk.walk import (
    InitialCondition,
    WalkerState,
    distribution,
    evolve,
    moment_series,
    moments,
    step,
)
from helpers import random_coin_state, reference_evolve, reference_step, ring_oracle

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
    out = step(start, preset_coin("identity"))
    d = distribution(out)
    assert d[1] == pytest.approx(1.0, abs=0)
    assert out.t == 1 and out.offset == -1
    # support grows by exactly one site on each side
    assert out.amplitudes.shape[0] == start.amplitudes.shape[0] + 2


def test_step_shifts_left_for_coin1():
    out = step(evolve(COIN1, preset_coin("identity"), 0), preset_coin("identity"))
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
    drift = []
    evolve(
        COIN0,
        coin,
        2000,
        observe=lambda t, off, amps: drift.append(abs(np.sum(np.abs(amps) ** 2) - 1.0)),
    )
    assert max(drift) <= 2000 * 1e-14


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


def _random_walk_case(seed):
    rng = np.random.default_rng(seed)
    coin = random_coin_spec(rng, int(rng.integers(1, 5)))
    init = InitialCondition(random_coin_state(rng), position=int(rng.integers(-50, 51)))
    return rng, coin, init


@given(st.integers(0, 2**32 - 1), st.integers(0, 64))
@settings(max_examples=60, deadline=None)
def test_evolve_matches_reference_stepper(seed, steps):
    _, coin, init = _random_walk_case(seed)
    state = evolve(init, coin, steps)
    ref = reference_evolve(init.coin_state, compose(coin), steps)
    assert state.t == steps and state.offset == init.position - steps
    assert state.amplitudes.shape == ref.shape
    assert np.max(np.abs(state.amplitudes - ref)) <= 1e-15
    # the empty parity class holds exact zeros
    assert not np.any(state.amplitudes[1::2])


@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_step_with_both_parity_classes_matches_reference(seed, width):
    rng, coin, init = _random_walk_case(seed)
    amps = rng.normal(size=(width, 2)) + 1j * rng.normal(size=(width, 2))
    state = WalkerState(t=7, offset=init.position, amplitudes=amps)
    before = state.amplitudes.copy()
    out = step(state, coin)
    assert out.t == 8 and out.offset == init.position - 1
    assert np.max(np.abs(out.amplitudes - reference_step(before, compose(coin)))) <= 1e-15
    assert np.array_equal(state.amplitudes, before)


@given(st.integers(0, 2**32 - 1), st.integers(0, 64))
@settings(max_examples=40, deadline=None)
def test_moment_series_equals_moments_of_evolve(seed, steps):
    _, coin, init = _random_walk_case(seed)
    ms = moment_series(init, coin, steps)
    eps = np.finfo(np.float64).eps
    for t in range(steps + 1):
        mean, second = moments(evolve(init, coin, t))
        # 2t + 1 products summed in different orders, plus a few roundings in
        # each probability (at t = 0 the series holds the exact position)
        reach = abs(init.position) + t
        bound = (2 * t + 4) * eps
        assert abs(ms.mean[t] - mean) <= bound * reach
        assert abs(ms.second[t] - second) <= bound * reach**2
    assert np.array_equal(ms.final.amplitudes, evolve(init, coin, steps).amplitudes)


def test_observe_receives_occupied_sublattice():
    seen = []

    def watch(t, offset, amps):
        assert not amps.flags.writeable
        seen.append((t, offset, amps.copy()))

    init = InitialCondition(np.array([0.6, 0.8j]), position=3)
    coin = preset_coin("hadamard_analog")
    final = evolve(init, coin, 5, observe=watch)
    expected = [(t, 3 - t, (t + 1, 2)) for t in range(1, 6)]
    assert [(t, off, a.shape) for t, off, a in seen] == expected
    for t, offset, sub in seen:
        full = evolve(init, coin, t)
        assert offset == full.offset
        assert np.array_equal(sub, full.amplitudes[0::2])
    assert np.array_equal(seen[-1][2], final.amplitudes[0::2])


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
