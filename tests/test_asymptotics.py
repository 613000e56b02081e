import math

import numpy as np
import pytest

from coinwalk.asymptotics import (
    classify_spreading,
    drift_sign,
    moment_integrals,
    weak_limit_density,
    velocity_density_to_csv,
    asymptotic_moments_to_dict,
)
from coinwalk.coins import preset_coin
from coinwalk.walk import InitialCondition, evolve, moment_series
from helpers import (
    band_at,
    distribution,
    eigenbasis_integrands,
    eigvecs_from_bloch,
    random_coin_state,
    random_multirot_coin,
    sampled_velocity_masses,
)

COIN0 = InitialCondition(np.array([1.0, 0.0]))
BALANCED = InitialCondition(np.array([1.0, 1.0j]) / math.sqrt(2))
HAD = preset_coin("hadamard_analog")


def test_drift_sign_calibrates_positive():
    assert drift_sign() == 1


def test_drift_sign_agrees_with_exact_walk():
    rng = np.random.default_rng(46)
    cases = [(preset_coin("identity"), COIN0)]
    while len(cases) < 5:
        coin = random_multirot_coin(rng)
        init = InitialCondition(random_coin_state(rng))
        if abs(moment_integrals(coin, init).mean_rate) > 0.05:
            cases.append((coin, init))
    t = 2000
    for coin, init in cases:
        rate = moment_integrals(coin, init).mean_rate
        assert np.sign(rate) == np.sign(moment_series(init, coin, t).mean[t])


TOUCHING_COINS = (
    preset_coin("identity"),
    preset_coin("paper_xy", theta=math.pi / 2, phi=math.pi / 2),
)


@pytest.mark.parametrize("grid_size", [4096, 65536])
def test_moments_match_eigenbasis_oracle(grid_size):
    rng = np.random.default_rng(47)
    coins = [random_multirot_coin(rng) for _ in range(4)] + list(TOUCHING_COINS)
    for coin in coins:
        for init in (COIN0, InitialCondition(random_coin_state(rng))):
            g1, g2 = eigenbasis_integrands(coin, init, grid_size)
            am = moment_integrals(coin, init)
            assert abs(am.mean_rate - float(np.mean(g1))) <= 1e-10
            assert abs(am.second_coeff - float(np.mean(g2))) <= 1e-10


@pytest.mark.parametrize("grid_size", [4096, 65536])
def test_touching_coins_share_the_touching_rule(grid_size):
    # grid_size sizes the sampled oracle; the closed forms take no grid
    rng = np.random.default_rng(48)
    for coin in TOUCHING_COINS:
        for init in (COIN0, BALANCED, InitialCondition(random_coin_state(rng))):
            am = moment_integrals(coin, init)
            assert am.second_coeff == pytest.approx(1.0, abs=1e-13)  # |v_k| = 1 for both coins
            vd = weak_limit_density(coin, init, bins=64)
            width = vd.v_grid[1] - vd.v_grid[0]
            sampled = sampled_velocity_masses(coin, init, grid_size, 64)
            assert float(np.max(np.abs(vd.density * width - sampled))) <= 1e-11
            assert np.all(vd.density >= 0.0)
            mass = vd.density * width
            assert float(np.sum(mass)) == pytest.approx(1.0, abs=1e-12)
            assert abs(float(np.sum(mass * vd.v_grid)) - am.mean_rate) <= width
            assert abs(float(np.sum(mass * vd.v_grid**2)) - am.second_coeff) <= width


def test_identity_coin_moments():
    am = moment_integrals(preset_coin("identity"), COIN0)
    assert am.mean_rate == pytest.approx(1.0, abs=1e-10)
    assert am.second_coeff == pytest.approx(1.0, abs=1e-10)
    assert am.variance_coeff == pytest.approx(0.0, abs=1e-10)
    assert classify_spreading(preset_coin("identity"), COIN0) == "ballistic"


def test_sigma_x_moments_vanish():
    am = moment_integrals(preset_coin("sigma_x"), COIN0)
    assert abs(am.mean_rate) <= 1e-14
    assert abs(am.second_coeff) <= 1e-14
    assert classify_spreading(preset_coin("sigma_x"), COIN0) == "non-spreading"
    am = moment_integrals(preset_coin("sigma_x"), BALANCED)
    assert abs(am.second_coeff) <= 1e-14


def test_hadamard_second_coefficient():
    am = moment_integrals(HAD, COIN0)
    assert am.second_coeff == pytest.approx(1 - 1 / math.sqrt(2), abs=5e-4)


def test_classify_pxy_ballistic():
    coin = preset_coin("paper_xy", theta=math.pi / 4, phi=math.pi / 4)
    assert classify_spreading(coin, COIN0) == "ballistic"


def test_moment_bounds_and_cauchy_schwarz():
    rng = np.random.default_rng(41)
    for _ in range(20):
        coin = random_multirot_coin(rng)
        init = InitialCondition(random_coin_state(rng))
        am = moment_integrals(coin, init)
        assert 0.0 <= am.second_coeff <= 1.0
        assert am.mean_rate**2 <= am.second_coeff + 1e-10


def test_eigenbasis_completeness():
    rng = np.random.default_rng(43)
    for _ in range(200):
        coin = random_multirot_coin(rng)
        k = rng.uniform(-math.pi, math.pi)
        omega, n, _, _ = band_at(coin, k)
        if math.sin(omega) <= 1e-8:
            continue
        init = random_coin_state(rng)
        v_plus, v_minus = eigvecs_from_bloch(n)
        total = abs(np.vdot(v_plus, init)) ** 2 + abs(np.vdot(v_minus, init)) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


def test_moment_integrals_input_validation():
    with pytest.raises(ValueError):
        InitialCondition(np.array([1.0, 1.0]))


def test_weak_limit_normalisation_and_support():
    rng = np.random.default_rng(44)
    for _ in range(5):
        coin = random_multirot_coin(rng)
        init = InitialCondition(random_coin_state(rng))
        vd = weak_limit_density(coin, init, bins=64)
        width = vd.v_grid[1] - vd.v_grid[0]
        assert float(np.sum(vd.density * width)) == pytest.approx(1.0, abs=1e-3)
        assert np.all(vd.density >= 0.0)
        assert np.all(np.abs(vd.v_grid) <= 1.0)


def test_weak_limit_supported_inside_max_velocity():
    from coinwalk.momentum import dispersion_band

    rng = np.random.default_rng(45)
    for coin in (HAD, random_multirot_coin(rng), random_multirot_coin(rng)):
        vd = weak_limit_density(coin, COIN0, bins=64)
        band = dispersion_band(coin, 4096)
        v_max = float(np.nanmax(np.abs(band.group_velocity)))
        width = vd.v_grid[1] - vd.v_grid[0]
        outside = np.abs(vd.v_grid) > v_max + width
        assert float(np.sum(vd.density[outside])) == 0.0


def test_weak_limit_identity_mass_at_plus_one():
    vd = weak_limit_density(preset_coin("identity"), COIN0, bins=32)
    width = vd.v_grid[1] - vd.v_grid[0]
    top = int(np.argmax(vd.density))
    assert vd.v_grid[top] == pytest.approx(1.0, abs=width)
    assert vd.density[top] * width == pytest.approx(1.0, abs=1e-9)


def test_weak_limit_symmetric_initial_coin_is_even():
    vd = weak_limit_density(HAD, BALANCED, bins=40)
    assert np.max(np.abs(vd.density - vd.density[::-1])) < 1e-10


def test_weak_limit_sigma_x_degenerate_flag():
    # every coin with C00 = 0 is flagged, not only exp(ig) sigma_x: paper_xy at
    # theta = pi/2, phi = 0 is i sigma_y
    for coin in (preset_coin("sigma_x"), preset_coin("paper_xy", theta=math.pi / 2, phi=0.0)):
        vd = weak_limit_density(coin, COIN0)
        assert vd.degenerate
        width = vd.v_grid[1] - vd.v_grid[0]
        # velocities are zero up to ~1e-16 noise, so the mass may straddle the
        # two bins around v = 0 but nothing lands further out
        near_zero = np.abs(vd.v_grid) <= width
        assert float(np.sum(vd.density[near_zero]) * width) == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(vd.density[~near_zero])) == 0.0
    assert not weak_limit_density(HAD, COIN0).degenerate


def test_weak_limit_matches_rescaled_simulation():
    bins = 32
    t = 600
    vd = weak_limit_density(HAD, COIN0, bins=bins)
    d = distribution(evolve(COIN0, HAD, t))
    width = 2.0 / bins
    emp = np.zeros(bins)
    for x, p in d.items():
        emp[min(bins - 1, int((x / t + 1.0) / width))] += p
    l1 = float(np.abs(vd.density * width - emp).sum())
    assert l1 <= 0.05


def test_weak_limit_bins_validation():
    with pytest.raises(ValueError):
        weak_limit_density(HAD, COIN0, bins=16)


def test_velocity_density_csv(tmp_path):
    vd = weak_limit_density(HAD, COIN0, bins=32)
    path = tmp_path / "v.csv"
    velocity_density_to_csv(vd, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "v,density"
    assert len(lines) == 33


def test_asymptotic_moments_record():
    record = asymptotic_moments_to_dict(moment_integrals(HAD, COIN0))
    assert record["sign_calibration"]["drift_sign"] == 1
    assert record["second_coeff"] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-3)


def test_closed_form_moments_match_eigenbasis_quadrature():
    rng = np.random.default_rng(49)
    for _ in range(12):
        coin = random_multirot_coin(rng, 1, 3)
        init = InitialCondition(random_coin_state(rng))
        g1, g2 = eigenbasis_integrands(coin, init, 65536)
        am = moment_integrals(coin, init)
        assert abs(am.mean_rate - float(np.mean(g1))) <= 1e-12
        assert abs(am.second_coeff - float(np.mean(g2))) <= 1e-12


def test_closed_form_bins_match_sampled_histogram():
    rng = np.random.default_rng(50)
    bins = 64
    for _ in range(8):
        coin = random_multirot_coin(rng, 1, 3)
        init = InitialCondition(random_coin_state(rng))
        vd = weak_limit_density(coin, init, bins=bins)
        sampled = sampled_velocity_masses(coin, init, 2**20, bins) * (bins / 2.0)
        assert float(np.max(np.abs(vd.density - sampled))) <= 2e-4


@pytest.mark.parametrize("eps", [0.0, 1e-13, 1e-11, 1e-9, 1e-6, 1e-3])
def test_near_touching_density_is_a_probability(eps):
    rng = np.random.default_rng(52)
    coins = [preset_coin("paper_xy", theta=math.pi / 2 - eps, phi=math.pi / 2)]
    if eps == 0.0:
        coins.append(preset_coin("identity"))
    states = [COIN0, BALANCED, InitialCondition(np.array([0.0, 1.0]))]
    states += [InitialCondition(random_coin_state(rng)) for _ in range(3)]
    for coin in coins:
        for init in states:
            for bins in (64, 33):
                vd = weak_limit_density(coin, init, bins=bins)
                assert np.all(vd.density >= 0.0)
                assert float(np.sum(vd.density)) * (2.0 / bins) == pytest.approx(1.0, abs=1e-12)


def test_zero_max_speed_is_one_atom_next_to_zero():
    rng = np.random.default_rng(53)
    coins = (preset_coin("sigma_x"), preset_coin("paper_xy", theta=math.pi / 2, phi=0.0))
    for coin in coins:
        for init in (COIN0, BALANCED, InitialCondition(random_coin_state(rng))):
            for bins in (64, 33):
                vd = weak_limit_density(coin, init, bins=bins)
                width = 2.0 / bins
                (full,) = np.nonzero(vd.density)
                assert abs(vd.v_grid[full[0]]) <= width
                assert vd.density[full[0]] * width == 1.0


@pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-14, 1e-9, 1e-6, 1.4e-5, 1.5e-5])
def test_one_non_spreading_rule_near_i_sigma_y(eps):
    # paper_xy at phi = 0 is R_y(theta): C00 = cos(theta), C01 = sin(theta)
    theta = math.pi / 2 - eps
    # pi/2 - theta for the float theta: math.pi / 2 - theta is exact, and
    # pi/2 exceeds math.pi / 2 by 6.123233995736766e-17 to within 1e-32
    gap = (math.pi / 2 - theta) + 6.123233995736766e-17
    coin = preset_coin("paper_xy", theta=theta, phi=0.0)
    rng = np.random.default_rng(54)
    for init in (COIN0, BALANCED, InitialCondition(random_coin_state(rng))):
        am = moment_integrals(coin, init)
        vd = weak_limit_density(coin, init)
        # only a float theta within rounding of pi/2 (eps 0 and 1e-16) collapses onto v = 0
        assert vd.degenerate == (eps <= 1e-16)
        assert am.classification == ("non-spreading" if vd.degenerate else "ballistic")
        # 1 - sin(theta) = 2 sin^2(gap / 2), with no cancellation on either side
        assert am.second_coeff == pytest.approx(2 * math.sin(gap / 2) ** 2, rel=8 * np.finfo(float).eps, abs=0)
    for init in (COIN0, BALANCED):
        assert moment_integrals(preset_coin("sigma_x"), init).variance_coeff >= 0.0
