"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is produced by an independent route: closed forms are
checked against generic matrix numerics, the exact simulator against a dense
ring evolution, and the long-time integrals against simulation fits.
"""

import math
import time

import numpy as np
import scipy.linalg

from coinwalk.asymptotics import moment_integrals, weak_limit_density
from coinwalk.coins import preset_coin
from coinwalk.gapscan import assert_no_boundary, canonical_points, closure_points, enumerate_closures
from coinwalk.momentum import MIN_GRID_SIZE, dispersion_band
from coinwalk.walk import InitialCondition, evolve, moment_series
from helpers import (
    SIGMA_X_EXCLUSION,
    bloch_matrix,
    distribution,
    momentum_oracle,
    random_coin_state,
    random_multirot_coin,
    ring_oracle,
    uk_matrix,
)

COIN0 = InitialCondition(np.array([1.0, 0.0]))
BALANCED = InitialCondition(np.array([1.0, 1.0j]) / math.sqrt(2))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def batch_rotations(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(N, 2, 2) stack of axis-angle coin rotations."""
    c, s = np.cos(angles), np.sin(angles)
    nx, ny, nz = axes[:, 0], axes[:, 1], axes[:, 2]
    out = np.empty((angles.size, 2, 2), dtype=np.complex128)
    out[:, 0, 0] = c + 1j * nz * s
    out[:, 0, 1] = (1j * nx + ny) * s
    out[:, 1, 0] = (1j * nx - ny) * s
    out[:, 1, 1] = c - 1j * nz * s
    return out


def random_axes(rng, n: int) -> np.ndarray:
    axes = rng.normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def batch_uk(rng, n: int):
    """Random two-rotation walk operators plus their draw parameters."""
    first_axes, second_axes = random_axes(rng, n), random_axes(rng, n)
    thetas, phis, ks = rng.uniform(-math.pi, math.pi, (3, n))
    coin = np.matmul(batch_rotations(second_axes, phis), batch_rotations(first_axes, thetas))
    uk = coin.copy()
    uk[:, 0, :] *= np.exp(-1j * ks)[:, None]
    uk[:, 1, :] *= np.exp(1j * ks)[:, None]
    return uk, first_axes, thetas, second_axes, phis, ks


def test_criterion_01_norm_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = final_worst = 0.0
    for _ in range(20):
        coin = random_multirot_coin(rng)
        ms = moment_series(COIN0, coin, 10_000)
        worst = max(worst, float(np.max(np.abs(ms.norm - 1.0))))
        # the final state's norm, summed apart from the kernel
        final_worst = max(final_worst, abs(float(np.sum(np.abs(ms.final.amplitudes) ** 2)) - 1.0))
    elapsed = time.perf_counter() - start
    report(
        1,
        max(worst, final_worst) <= 1e-10 and elapsed <= 60.0,
        f"max |norm^2 - 1| = {worst:.2e} per step, {final_worst:.2e} at the end,"
        f" over 20 coins x 1e4 steps in {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_dispersion():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    n = 10_000

    # general two-rotation coins: eigenphases vs the explicit dispersion formula
    uk, first_axes, thetas, second_axes, phis, ks = batch_uk(rng, n)
    from helpers import cos_omega_two_rotation

    arg = cos_omega_two_rotation(
        (first_axes[:, 0], first_axes[:, 1], first_axes[:, 2]),
        thetas,
        (second_axes[:, 0], second_axes[:, 1], second_axes[:, 2]),
        phis,
        ks,
    )
    omega = np.arccos(np.clip(arg, -1.0, 1.0))
    phases = np.sort(np.angle(np.linalg.eigvals(uk)), axis=1)
    err_general = max(
        float(np.max(np.abs(phases[:, 0] + omega))),
        float(np.max(np.abs(phases[:, 1] - omega))),
    )

    # x/y special case against its own literal formula
    thetas, phis, ks = rng.uniform(-math.pi, math.pi, (3, n))
    arg = np.cos(ks) * np.cos(thetas) * np.cos(phis) - np.sin(ks) * np.sin(thetas) * np.sin(phis)
    omega = np.arccos(np.clip(arg, -1.0, 1.0))
    y_axes = np.tile([0.0, 1.0, 0.0], (n, 1))
    x_axes = np.tile([1.0, 0.0, 0.0], (n, 1))
    coin = np.matmul(batch_rotations(x_axes, phis), batch_rotations(y_axes, thetas))
    uk = coin.copy()
    uk[:, 0, :] *= np.exp(-1j * ks)[:, None]
    uk[:, 1, :] *= np.exp(1j * ks)[:, None]
    phases = np.sort(np.angle(np.linalg.eigvals(uk)), axis=1)
    err_xy = max(
        float(np.max(np.abs(phases[:, 0] + omega))),
        float(np.max(np.abs(phases[:, 1] - omega))),
    )

    elapsed = time.perf_counter() - start
    report(
        2,
        err_general <= 1e-12 and err_xy <= 1e-12 and elapsed <= 5.0,
        f"eigenphase vs closed form: general {err_general:.2e}, x/y {err_xy:.2e} in {elapsed:.1f}s",
    )


def test_criterion_03_matrix_elements():
    rng = np.random.default_rng(103)
    n = 10_000
    uk, first_axes, thetas, second_axes, phis, ks = batch_uk(rng, n)
    from helpers import uk_entries_two_rotation

    entries = uk_entries_two_rotation(
        (first_axes[:, 0], first_axes[:, 1], first_axes[:, 2]),
        thetas,
        (second_axes[:, 0], second_axes[:, 1], second_axes[:, 2]),
        phis,
        ks,
    )  # shape (2, 2, n)
    err = float(np.max(np.abs(np.moveaxis(entries, -1, 0) - uk)))
    report(3, err <= 1e-13, f"closed-form entries vs product build: max err {err:.2e} at {n} points")


def test_criterion_04_effective_hamiltonian_round_trip():
    rng = np.random.default_rng(104)
    checked = 0
    worst = 0.0
    while checked < 1000:
        # H_k = w n.sigma from a random point of a random coin's sampled band
        coin = random_multirot_coin(rng)
        band = dispersion_band(coin, MIN_GRID_SIZE)
        i = int(rng.integers(MIN_GRID_SIZE))
        if math.sin(band.omega_values[i]) <= 1e-6:
            continue
        h = band.omega_values[i] * bloch_matrix(band.bloch[i])
        worst = max(worst, float(np.max(np.abs(scipy.linalg.expm(-1j * h) - uk_matrix(coin, band.k_grid[i])))))
        checked += 1
    report(4, worst <= 1e-10, f"max |expm(-iH) - U_k| = {worst:.2e} at 1000 gap-open points")


def test_criterion_05_sigma_x_special_case():
    coin = preset_coin("sigma_x")
    ms = moment_series(BALANCED, coin, 1000)
    worst = 0.0
    for t in range(1, 1001):
        expected = 1.0 if t % 2 else 0.0
        worst = max(worst, abs(float(ms.variance[t]) - expected))
    am = moment_integrals(coin, BALANCED)
    ok = worst <= 1e-12 and abs(am.second_coeff) <= 1e-14
    report(
        5,
        ok,
        f"variance alternation err {worst:.2e} for t<=1000; asymptotic second coeff {am.second_coeff:.2e}",
    )


def test_criterion_06_ballistic_slope():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    slopes = []
    for _ in range(20):
        coin = random_multirot_coin(rng, exclude_sigma_x=SIGMA_X_EXCLUSION)
        ms = moment_series(COIN0, coin, 1000)
        window = np.arange(100, 1001)
        var = ms.variance[window]
        assert np.all(var > 0)
        slopes.append(float(np.polyfit(np.log(window), np.log(var), 1)[0]))
    elapsed = time.perf_counter() - start
    lo, hi = min(slopes), max(slopes)
    report(
        6,
        1.95 <= lo and hi <= 2.05 and elapsed <= 120.0,
        f"log-log variance slopes in [{lo:.3f}, {hi:.3f}] for 20 coins in {elapsed:.1f}s",
    )


def test_criterion_07_asymptotics_reconciliation():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10):
        coin = random_multirot_coin(rng, min_rot=2, max_rot=2)
        init = InitialCondition(random_coin_state(rng))
        am = moment_integrals(coin, init)
        ms = moment_series(init, coin, 1000)
        worst = max(worst, abs(float(ms.variance[1000]) / 1e6 - am.variance_coeff))

    had = preset_coin("hadamard_analog")
    am = moment_integrals(had, COIN0)
    ms = moment_series(COIN0, had, 1000)
    window = np.arange(500, 1001, dtype=np.float64)
    second = ms.second[500:1001]
    fit = float(np.sum(second * window**2) / np.sum(window**4))
    had_err = abs(am.second_coeff - fit)
    ok = worst <= 0.02 and had_err <= 5e-4 and abs(fit - 0.2929) < 5e-3
    report(
        7,
        ok,
        f"|Var/t^2 - coeff| <= {worst:.4f} for 10 random coins; "
        f"balanced-coin quadratic fit {fit:.5f} vs integral {am.second_coeff:.5f}",
    )


def test_criterion_08_weak_limit_distance():
    bins = 32
    t = 1000
    width = 2.0 / bins
    distances = {}
    for name, coin in (
        ("hadamard_analog", preset_coin("hadamard_analog")),
        ("paper_xy", preset_coin("paper_xy", theta=math.pi / 4, phi=math.pi / 4)),
    ):
        vd = weak_limit_density(coin, COIN0, bins=bins)
        emp = np.zeros(bins)
        for x, p in distribution(evolve(COIN0, coin, t)).items():
            emp[min(bins - 1, int((x / t + 1.0) / width))] += p
        distances[name] = float(np.abs(vd.density * width - emp).sum())
    ok = all(d <= 0.05 for d in distances.values())
    report(8, ok, "L1(prediction, exact at t=1000): " + ", ".join(f"{k} {v:.3f}" for k, v in distances.items()))


def test_criterion_09_gap_enumeration():
    start = time.perf_counter()
    closures = enumerate_closures(721, 1e-8)
    points = closure_points(closures)
    expected = sorted(
        [(th, ph) for th in (-math.pi, 0.0, math.pi) for ph in (-math.pi, 0.0, math.pi)]
        + [(s1 * math.pi / 2, s2 * math.pi / 2) for s1 in (-1, 1) for s2 in (-1, 1)]
    )
    listed = len(points) == len(expected) and all(
        abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9 for a, b in zip(points, expected)
    )
    isolated = assert_no_boundary(closures)
    elapsed = time.perf_counter() - start
    report(
        9,
        len(points) == 13 and listed and isolated and elapsed <= 30.0,
        f"{len(points)} closure points ({len(canonical_points(closures))} mod 2pi), "
        f"all listed, isolated={isolated}, in {elapsed:.1f}s",
    )


def test_criterion_10_ring_oracle_equivalence():
    rng = np.random.default_rng(110)
    steps = 64
    worst = 0.0
    for _ in range(50):
        coin = random_multirot_coin(rng, min_rot=1, max_rot=4)
        init = InitialCondition(random_coin_state(rng))
        d_line = distribution(evolve(init, coin, steps))
        d_ring = ring_oracle(init, coin, steps, 2 * steps + 3)
        worst = max(worst, max(abs(d_line.get(x, 0.0) - p) for x, p in d_ring.items()))
    # the dense ring is O(T N^2); the momentum-space powers reach T = 10^4
    steps, worst_long = 10_000, 0.0
    for _ in range(4):
        coin = random_multirot_coin(rng, min_rot=1, max_rot=4)
        init = InitialCondition(random_coin_state(rng), int(rng.integers(-50, 50)))
        d_line = distribution(evolve(init, coin, steps))
        d_momentum = momentum_oracle(init, coin, steps)
        worst_long = max(worst_long, max(abs(d_line.get(x, 0.0) - p) for x, p in d_momentum.items()))
    report(
        10,
        worst <= 1e-12 and worst_long <= 1e-12,
        f"line vs ring at t=64: max site deviation {worst:.2e} over 50 coins; "
        f"line vs momentum space at t=10^4: {worst_long:.2e} over 4 coins",
    )
