import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from coinwalk.coins import CoinRotation, CoinSpec, preset_coin, random_coin_spec, su2_parts
from coinwalk.momentum import (
    DEFAULT_GRID_SIZE,
    MIN_GRID_SIZE,
    DispersionBand,
    _band_arrays,
    dispersion_band,
    dispersion_to_csv,
)
from helpers import (
    band_at,
    band_axis_two_rotation,
    bloch_matrix,
    cos_omega_two_rotation,
    eigvecs_from_bloch,
    random_multirot_coin,
    reference_band_arrays,
    uk_entries_two_rotation,
    uk_matrix,
)

PXY4 = preset_coin("paper_xy", theta=math.pi / 4, phi=math.pi / 4)


def rebuilt_uk(omega, n):
    """``cos(w) I - i sin(w) (n . sigma)``: U_k from its band data."""
    return math.cos(omega) * np.eye(2) - 1j * math.sin(omega) * bloch_matrix(n)


def gap_open_points(rng, count, min_sin):
    """``count`` random (coin, k, omega, n) band samples with sin(w) > min_sin,
    each at a random point of a random coin's ``dispersion_band`` grid."""
    points = []
    while len(points) < count:
        coin = random_multirot_coin(rng)
        band = dispersion_band(coin, MIN_GRID_SIZE)
        i = int(rng.integers(MIN_GRID_SIZE))
        if math.sin(band.omega_values[i]) > min_sin:
            points.append((coin, band.k_grid[i], band.omega_values[i], band.bloch[i]))
    return points


def random_two_rotation(rng):
    a1 = rng.normal(size=3)
    a1 /= np.linalg.norm(a1)
    a2 = rng.normal(size=3)
    a2 /= np.linalg.norm(a2)
    th, ph = rng.uniform(-math.pi, math.pi, 2)
    spec = CoinSpec((CoinRotation(tuple(a1), th), CoinRotation(tuple(a2), ph)))
    return spec, (tuple(a1), th, tuple(a2), ph)


def test_build_uk_identity_coin():
    k = 0.9
    expected = np.diag([np.exp(-1j * k), np.exp(1j * k)])
    assert np.allclose(uk_matrix(preset_coin("identity"), k), expected, atol=1e-15)
    omega, n = band_at(preset_coin("identity"), k)
    assert np.allclose(rebuilt_uk(omega, n), expected, atol=1e-15)


def test_build_uk_sigma_x_coin():
    k = -1.3
    expected = np.array([[0, 1j * np.exp(-1j * k)], [1j * np.exp(1j * k), 0]])
    assert np.allclose(uk_matrix(preset_coin("sigma_x"), k), expected, atol=1e-15)
    omega, n = band_at(preset_coin("sigma_x"), k)
    assert np.allclose(rebuilt_uk(omega, n), expected, atol=1e-15)


def test_uk_closed_form_matches_product():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(2000):
        spec, (a1, th, a2, ph) = random_two_rotation(rng)
        k = rng.uniform(-math.pi, math.pi)
        diff = np.abs(uk_matrix(spec, k) - uk_entries_two_rotation(a1, th, a2, ph, k))
        worst = max(worst, float(diff.max()))
    assert worst < 1e-13


def test_quasi_energy_examples():
    assert math.isclose(band_at(preset_coin("identity"), 0.7)[0], 0.7, abs_tol=1e-14)
    assert math.isclose(band_at(PXY4, 0.0)[0], math.pi / 3, abs_tol=1e-14)
    flat = preset_coin("paper_xy", theta=0.0, phi=math.pi)
    assert math.isclose(band_at(flat, 0.0)[0], math.pi, abs_tol=1e-12)


def test_spectral_consistency_bulk():
    # eigenphases of U_k equal -+w from the trace formula for 1e4 random
    # multi-rotation coins, vectorised
    rng = np.random.default_rng(20)
    n = 10_000
    coins = np.empty((n, 2, 2), dtype=np.complex128)
    for factors in range(3):
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        ang = rng.uniform(-math.pi, math.pi, n)
        c, s = np.cos(ang), np.sin(ang)
        rot = np.empty_like(coins)
        rot[:, 0, 0] = c + 1j * axes[:, 2] * s
        rot[:, 0, 1] = (1j * axes[:, 0] + axes[:, 1]) * s
        rot[:, 1, 0] = (1j * axes[:, 0] - axes[:, 1]) * s
        rot[:, 1, 1] = c - 1j * axes[:, 2] * s
        coins = rot if factors == 0 else np.matmul(rot, coins)
    ks = rng.uniform(-math.pi, math.pi, n)
    uk = coins.copy()
    uk[:, 0, :] *= np.exp(-1j * ks)[:, None]
    uk[:, 1, :] *= np.exp(1j * ks)[:, None]
    omega = np.arccos(np.clip(0.5 * np.real(uk[:, 0, 0] + uk[:, 1, 1]), -1.0, 1.0))
    phases = np.sort(np.angle(np.linalg.eigvals(uk)), axis=1)
    assert float(np.max(np.abs(phases[:, 0] + omega))) < 1e-12
    assert float(np.max(np.abs(phases[:, 1] - omega))) < 1e-12


def test_quasi_energy_matches_closed_form_and_eigenphases():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        spec, (a1, th, a2, ph) = random_two_rotation(rng)
        band = dispersion_band(spec, MIN_GRID_SIZE)
        i = int(rng.integers(MIN_GRID_SIZE))
        k, w = band.k_grid[i], band.omega_values[i]
        assert 0.0 <= w <= math.pi
        arg = float(cos_omega_two_rotation(a1, th, a2, ph, k))
        assert abs(w - math.acos(max(-1.0, min(1.0, arg)))) < 1e-12
        phases = np.sort(np.angle(np.linalg.eigvals(uk_matrix(spec, k))))
        assert abs(phases[0] + w) < 1e-12 and abs(phases[1] - w) < 1e-12


def test_bloch_identity_coin_along_z():
    n = band_at(preset_coin("identity"), 0.3)[1]
    assert np.allclose(np.abs(n), [0, 0, 1], atol=1e-14)


def test_bloch_pxy_quarter_matches_axis_closed_form():
    # closed form gives (1, 1, -1)/sqrt(3) here; the package's convention is
    # the global sign flip of that
    n = band_at(PXY4, 0.0)[1]
    expected = np.array([1.0, 1.0, -1.0]) / math.sqrt(3)
    assert math.isclose(float(np.linalg.norm(n)), 1.0, abs_tol=1e-12)
    assert np.allclose(n, -expected, atol=1e-10)


def test_bloch_matches_axis_closed_form_up_to_global_sign():
    rng = np.random.default_rng(23)
    signs = set()
    for _ in range(500):
        spec, (a1, th, a2, ph) = random_two_rotation(rng)
        band = dispersion_band(spec, MIN_GRID_SIZE)
        i = int(rng.integers(MIN_GRID_SIZE))
        k, w, n = band.k_grid[i], band.omega_values[i], band.bloch[i]
        if math.sin(w) < 1e-6:
            continue
        oracle = band_axis_two_rotation(a1, th, a2, ph, k, math.sin(w))
        if np.allclose(n, -oracle, atol=1e-10):
            signs.add(-1)
        elif np.allclose(n, oracle, atol=1e-10):
            signs.add(+1)
        else:
            raise AssertionError(f"axis mismatch: {n} vs {oracle}")
    # the convention difference is one global sign, the same at every point
    assert signs == {-1}


def test_reconstruction_from_omega_and_axis():
    rng = np.random.default_rng(24)
    for coin, k, w, n in gap_open_points(rng, 300, 1e-8):
        assert np.max(np.abs(rebuilt_uk(w, n) - uk_matrix(coin, k))) < 1e-10


def test_effective_hamiltonian_identity_coin():
    omega, n = band_at(preset_coin("identity"), 0.5)
    h = omega * bloch_matrix(n)
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-0.5, 0.5], atol=1e-13)
    assert np.allclose(scipy.linalg.expm(-1j * h), uk_matrix(preset_coin("identity"), 0.5), atol=1e-12)


def test_effective_hamiltonian_random_round_trip():
    rng = np.random.default_rng(25)
    for coin, k, w, n in gap_open_points(rng, 200, 1e-6):
        h = w * bloch_matrix(n)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        assert np.max(np.abs(scipy.linalg.expm(-1j * h) - uk_matrix(coin, k))) <= 1e-10


def test_effective_hamiltonian_pxy_eigenvalues():
    omega, n = band_at(PXY4, 0.0)
    h = omega * bloch_matrix(n)
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-math.pi / 3, math.pi / 3], atol=1e-12)


def test_group_velocity_examples():
    # v = n_z
    assert math.isclose(band_at(preset_coin("identity"), 0.5)[1][2], 1.0, abs_tol=1e-12)
    expected = 0.5 / math.sin(math.pi / 3)
    assert math.isclose(band_at(PXY4, 0.0)[1][2], expected, abs_tol=1e-12)
    assert np.max(np.abs(band_at(preset_coin("sigma_x"), np.linspace(-3, 3, 7))[1][:, 2])) < 1e-14


def test_the_band_holds_its_velocity_once():
    # v = n_z is bloch[:, 2]; neither the band nor _band_arrays keeps a copy
    assert [f.name for f in dataclasses.fields(DispersionBand)] == ["k_grid", "omega_values", "bloch"]
    assert len(_band_arrays(*su2_parts(PXY4), np.linspace(-3.0, 3.0, 7))) == 2


@pytest.mark.parametrize("coin", ["hadamard_analog", "sigma_x"])
def test_v_group_and_nz_differ_in_the_sign_of_zero(tmp_path, coin):
    # v = (c sin k - s_z cos k) / |m| and n_z = -(s_z cos k - c sin k) / |m|
    # are equal as numbers, but where c sin k - s_z cos k is exactly 0 (k = 0
    # for these coins) n_z is -0 and v is +0, which array_equal cannot see
    path = tmp_path / "d.csv"
    dispersion_to_csv(dispersion_band(preset_coin(coin)), path)
    (row,) = [line for line in path.read_text().splitlines() if line.startswith("0,")]
    assert row.split(",")[4:] == ["-0", "0"]


def test_v_group_is_n_z_with_its_zero_made_positive(tmp_path):
    # v = n_z + 0.0, so a zero velocity is +0 for every coin; this coin has
    # c < 0 and s_z = +0, where c sin k - s_z cos k at k = 0 is -0 - (+0) = -0
    coin = preset_coin("paper_xy", theta=0.0, phi=-4.0)
    band = dispersion_band(coin)
    path = tmp_path / "d.csv"
    dispersion_to_csv(band, path)
    fields = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert all(v == ("0" if nz == "-0" else nz) for *_, nz, v in fields)
    (row,) = [line for line in path.read_text().splitlines() if line.startswith("0,")]
    assert row.split(",")[4:] == ["-0", "0"]


def test_group_velocity_matches_finite_difference():
    # v at grid points against a central difference of w off the grid
    rng = np.random.default_rng(26)
    h = 1e-5
    for coin, k, w, n in gap_open_points(rng, 1000, 1e-3):
        w_lo, w_hi = band_at(coin, np.array([k - h, k + h]))[0]
        assert abs(n[2] - (w_hi - w_lo) / (2 * h)) < 1e-6


def test_eigensystem_identity_coin():
    v_plus, v_minus = eigvecs_from_bloch(band_at(preset_coin("identity"), 0.4)[1])
    assert np.allclose(np.abs(v_plus), [1, 0], atol=1e-14)
    assert np.allclose(np.abs(v_minus), [0, 1], atol=1e-14)


def test_eigensystem_sigma_x_matches_analytic_vectors():
    k = 0.83
    v_plus, v_minus = eigvecs_from_bloch(band_at(preset_coin("sigma_x"), k)[1])
    expected_plus = np.array([-np.exp(-1j * k), 1.0]) / math.sqrt(2)
    expected_minus = np.array([np.exp(-1j * k), 1.0]) / math.sqrt(2)
    assert abs(abs(np.vdot(expected_plus, v_plus)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(expected_minus, v_minus)) - 1.0) < 1e-12


def test_eigensystem_random_against_generic_solver():
    # eigenvectors built from the band's n are eigenvectors of U_k for e^{-+iw}
    rng = np.random.default_rng(27)
    for coin, k, w, n in gap_open_points(rng, 300, 1e-8):
        u = uk_matrix(coin, k)
        v_plus, v_minus = eigvecs_from_bloch(n)
        assert abs(np.vdot(v_plus, v_minus)) < 1e-10
        for vec, phase in ((v_plus, -w), (v_minus, +w)):
            assert math.isclose(float(np.linalg.norm(vec)), 1.0, abs_tol=1e-12)
            assert np.max(np.abs(u @ vec - np.exp(1j * phase) * vec)) < 1e-10
        # cross-check the eigenvalues against numpy's general solver
        lam = np.linalg.eigvals(u)
        assert np.allclose(np.sort(np.angle(lam)), [-w, w], atol=1e-10)


def test_eigensystem_degenerate_flag():
    # at a band touching n and v are undefined: NaN in the band, empty in its CSV
    omega, n = band_at(preset_coin("identity"), 0.0)
    assert omega == 0.0 and np.all(np.isnan(n))


def test_eigensystem_branch_continuous_along_k():
    # the e^{-iw} branch must not hop between bands along a k sweep
    _, n = band_at(PXY4, np.linspace(-3.0, 3.0, 601))
    assert not np.any(np.isnan(n))
    v_plus, _ = eigvecs_from_bloch(n)
    assert np.min(np.abs(np.einsum("ki,ki->k", v_plus[:-1].conj(), v_plus[1:]))) > 0.999


def test_dispersion_band_and_csv(tmp_path):
    assert dispersion_band(preset_coin("identity")).k_grid.size == DEFAULT_GRID_SIZE
    with pytest.raises(ValueError, match="n_k must be >= 64"):
        dispersion_band(preset_coin("identity"), MIN_GRID_SIZE - 1)
    band = dispersion_band(preset_coin("identity"), 64)
    assert band.k_grid.size == 64
    dk = np.diff(band.k_grid)
    assert np.allclose(dk, dk[0], atol=1e-15)
    assert np.all((band.omega_values >= 0) & (band.omega_values <= math.pi))

    path = tmp_path / "band.csv"
    dispersion_to_csv(band, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,omega,nx,ny,nz,v_group"
    assert len(lines) == 65
    # k = -pi and k = 0 are band touchings for the identity coin
    empties = [ln for ln in lines[1:] if ln.endswith(",,,,")]
    assert len(empties) == 2
    # every populated float field round-trips; pick a row away from the touchings
    row = lines[17].split(",")
    assert abs(float(row[5])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-5, 1e-6])
def test_bloch_vectors_are_unit_near_band_touching(eps):
    band = dispersion_band(preset_coin("paper_xy", theta=math.pi / 2 - eps, phi=math.pi / 2), 4096)
    assert not np.any(np.isnan(band.bloch))
    assert float(np.max(np.abs(np.linalg.norm(band.bloch, axis=1) - 1.0))) <= 1e-12


def _assert_same_band_arrays(c, s, k):
    """``_band_arrays`` and the stacked-row oracle: the same shapes, dtypes and bytes."""
    for new, ref in zip(_band_arrays(c, s, k), reference_band_arrays(c, s, k), strict=True):
        new, ref = np.asarray(new), np.asarray(ref)
        assert (new.shape, new.dtype) == (ref.shape, ref.dtype)
        assert np.ascontiguousarray(new).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_k", [MIN_GRID_SIZE, DEFAULT_GRID_SIZE, 16384])
def test_band_arrays_match_the_stacked_rows_on_random_coins(n_k):
    rng = np.random.default_rng(n_k)
    k = np.linspace(-math.pi, math.pi, n_k, endpoint=False)
    for _ in range(20):
        _assert_same_band_arrays(*su2_parts(random_coin_spec(rng, int(rng.integers(1, 5)))), k)


@pytest.mark.parametrize("coin", ["identity", "sigma_x"])
def test_band_arrays_match_the_stacked_rows_at_touchings_and_scalar_k(coin):
    # identity touches at k = 0 and k = +-pi; sigma_x never does
    c, s = su2_parts(preset_coin(coin))
    _assert_same_band_arrays(c, s, np.array([-math.pi, -1.0, -0.0, 0.0, 0.5, math.pi]))
    _assert_same_band_arrays(c, s, np.linspace(-math.pi, math.pi, MIN_GRID_SIZE, endpoint=False))
    for k in (-math.pi, 0.0, 0.3):
        _assert_same_band_arrays(c, s, k)


def test_bloch_is_rows_whose_columns_are_contiguous():
    # dispersion_to_csv writes band.bloch.T, whose rows write_csv takes without a copy
    band = dispersion_band(PXY4, 4096)
    assert band.bloch.shape == (4096, 3)
    assert all(row.flags.c_contiguous for row in band.bloch.T)
