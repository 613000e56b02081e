import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk.coins import (
    PAULI_X,
    CoinRotation,
    CoinSpec,
    compose,
    preset_coin,
    random_coin_spec,
    unitarity_error,
)
from helpers import matrix_product_coin, sigma_x_distance, xy_product_entries

angles = st.floats(-math.pi, math.pi, allow_nan=False)
EPS = np.finfo(np.float64).eps


def single(axis, angle) -> np.ndarray:
    """Matrix of the one-rotation coin."""
    return compose(CoinSpec((CoinRotation(axis, angle),)))


def test_zero_angle_is_identity():
    mat = single((0.0, 0.0, 1.0), 0.0)
    assert np.allclose(mat, np.eye(2), atol=0)


def test_y_rotation_is_real_rotation_matrix():
    th = 0.37
    mat = single((0.0, 1.0, 0.0), th)
    expected = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]])
    assert np.allclose(mat, expected, atol=1e-15)


def test_x_half_pi_is_i_sigma_x():
    mat = single((1.0, 0.0, 0.0), math.pi / 2)
    assert np.allclose(mat, 1j * PAULI_X, atol=1e-15)


def test_axis_renormalised_within_tolerance():
    rot = CoinRotation((1.0 + 5e-10, 0.0, 0.0), 0.1)
    assert math.isclose(sum(a * a for a in rot.axis), 1.0, abs_tol=1e-15)


def test_axis_rejected_beyond_tolerance():
    with pytest.raises(ValueError):
        CoinRotation((1.1, 0.0, 0.0), 0.1)
    with pytest.raises(ValueError, match="far from unit length"):  # squaring would overflow
        CoinRotation((0.0, -1e200, 0.0), 0.1)
    with pytest.raises(ValueError):
        CoinRotation((0.0, 0.0, 0.0), 0.1)


def test_non_finite_rotation_rejected():
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angle must be finite"):
            CoinRotation((0.0, 1.0, 0.0), angle)
    with pytest.raises(ValueError, match="axis components must be finite"):
        CoinRotation((math.nan, 0.0, 1.0), 0.1)


def test_angle_wrapped_into_principal_range():
    rot = CoinRotation((0.0, 1.0, 0.0), 2.5 * math.pi)
    assert -math.pi <= rot.angle <= math.pi
    assert np.allclose(compose(CoinSpec((rot,))), single((0.0, 1.0, 0.0), 0.5 * math.pi), atol=1e-15)


def test_empty_coin_rejected():
    with pytest.raises(ValueError):
        CoinSpec(())


def test_compose_zero_rotations_identity():
    spec = CoinSpec((CoinRotation((0.0, 1.0, 0.0), 0.0), CoinRotation((1.0, 0.0, 0.0), 0.0)))
    assert np.allclose(compose(spec), np.eye(2), atol=0)


def test_compose_single_rotation_sigma_x_phase():
    mat = compose(preset_coin("sigma_x"))
    assert np.allclose(mat, 1j * PAULI_X, atol=1e-15)


@given(angles, angles)
@settings(max_examples=200)
def test_compose_xy_matches_hand_expansion(theta, phi):
    spec = preset_coin("paper_xy", theta=theta, phi=phi)
    assert np.max(np.abs(compose(spec) - xy_product_entries(theta, phi))) < 1e-14


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_compose_matches_matrix_product(n_rot, seed):
    spec = random_coin_spec(np.random.default_rng(seed), n_rot)
    assert np.max(np.abs(compose(spec) - matrix_product_coin(spec))) <= 2 * n_rot * EPS


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_compose_has_exact_su2_form(n_rot, seed):
    mat = compose(random_coin_spec(np.random.default_rng(seed), n_rot))
    # C11 = conj(C00) and C10 = -conj(C01), bit for bit
    assert mat[1, 1] == np.conj(mat[0, 0]) and mat[1, 0] == -np.conj(mat[0, 1])


def test_unitarity_error_stays_at_ulp_level():
    long_coin = compose(random_coin_spec(np.random.default_rng(0), 10**4))
    err = unitarity_error(long_coin)
    assert err == unitarity_error(long_coin.copy())  # deterministic
    assert err <= 4 * EPS  # a product of 2x2 matrices drifts to about 4e-13 here


def test_unitarity_error_examples():
    assert unitarity_error(np.eye(2, dtype=complex)) == 0.0
    assert unitarity_error(np.array([[1.0, 1.0], [0.0, 1.0]])) == 1.0
    assert unitarity_error(single((0.0, 1.0, 0.0), 1.2)) <= 4 * EPS


def test_bulk_rotations_unitary_su2():
    rng = np.random.default_rng(11)
    worst_unit = worst_det = 0.0
    for _ in range(10_000):
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        mat = single(tuple(vec), rng.uniform(-math.pi, math.pi))
        worst_unit = max(worst_unit, float(np.max(np.abs(mat.conj().T @ mat - np.eye(2)))))
        worst_det = max(worst_det, abs(np.linalg.det(mat) - 1.0))
    assert worst_unit <= 1e-12
    assert worst_det <= 1e-12


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_composition_stays_unitary(n_rot, seed):
    spec = random_coin_spec(np.random.default_rng(seed), n_rot)
    mat = compose(spec)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(2))) <= n_rot * 1e-13


@given(angles, st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_same_axis_inverse(angle, seed):
    vec = np.random.default_rng(seed).normal(size=3)
    vec /= np.linalg.norm(vec)
    forward = single(tuple(vec), angle)
    backward = single(tuple(vec), -angle)
    assert np.max(np.abs(forward @ backward - np.eye(2))) <= 1e-13


def test_serialisation_round_trip():
    rng = np.random.default_rng(5)
    spec = random_coin_spec(rng, 3)
    again = CoinSpec.from_dicts(spec.to_dicts())
    assert np.allclose(compose(spec), compose(again), atol=0)


def test_serialisation_degrees():
    spec = CoinSpec.from_dicts([{"axis": [0, 1, 0], "angle_deg": 45.0}])
    assert np.allclose(compose(spec), compose(preset_coin("hadamard_analog")), atol=1e-15)


def test_serialisation_errors():
    with pytest.raises(ValueError, match="angle"):
        CoinSpec.from_dicts([{"axis": [0, 0, 1]}])
    with pytest.raises(ValueError, match="not both"):
        CoinSpec.from_dicts([{"axis": [0, 0, 1], "angle_rad": 1.0, "angle_deg": 45.0}])
    with pytest.raises(ValueError, match="axis"):
        CoinSpec.from_dicts([{"angle_rad": 1.0}])


@pytest.mark.parametrize("bad", [True, "0.5"])
@pytest.mark.parametrize("field", ["axis", "angle_rad", "angle_deg"])
def test_serialisation_rejects_non_numbers(field, bad):
    # json.load gives bool for true/false and str for quoted numbers; float()
    # would take both, so each must be refused, naming the rotation
    record = {"axis": [0, 1, 0], field: bad} if field != "axis" else {"axis": [bad, 0, 0], "angle_rad": 0.5}
    with pytest.raises(ValueError, match=f"rotation 1: {field}.* must be a .*number"):
        CoinSpec.from_dicts([{"axis": [1, 0, 0], "angle_rad": 0.25}, record])


def test_sigma_x_distance_detects_family():
    assert sigma_x_distance(1j * PAULI_X) < 1e-15
    assert sigma_x_distance(-1j * PAULI_X) < 1e-15
    assert sigma_x_distance(np.exp(0.3j) * PAULI_X) < 1e-15
    assert sigma_x_distance(compose(preset_coin("hadamard_analog"))) > 0.5
    assert sigma_x_distance(np.eye(2)) >= 1.0


def test_preset_errors():
    with pytest.raises(ValueError):
        preset_coin("nope")
    with pytest.raises(ValueError):
        preset_coin("paper_xy", theta=0.1)


def test_random_coin_spec_shape():
    rng = np.random.default_rng(0)
    spec = random_coin_spec(rng, 4)
    assert len(spec.rotations) == 4
    with pytest.raises(ValueError):
        random_coin_spec(rng, 0)
