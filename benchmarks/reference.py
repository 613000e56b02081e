"""Momentum-space reference for the benchmark's output checks.

Written from the definitions alone, not from ``coinwalk``: a coin is the
ordered product of ``cos a I + i sin a (n . sigma)`` over its axis-angle
records (later records multiply from the left), one walk step in momentum
space is ``U_k = diag(e^{-ik}, e^{ik}) C``, and after ``t`` steps from one
site the state ``U_k^t phi0`` is a trigonometric polynomial of degree ``t``
in ``k``.  An inverse FFT on ``N >= 2t + 1`` momenta therefore gives the
position-space amplitudes exactly up to rounding (Ambainis et al., STOC 2001).
"""

from __future__ import annotations

import math

import numpy as np

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

# time at which finite-time moments stand in for the long-time coefficients;
# the remaining O(1/t) error is below 3e-5 on random coins
ASYMPTOTIC_STEPS = 20000


def coin_matrix(records: list[dict]) -> np.ndarray:
    """Composite coin of axis-angle records in application order."""
    mat = np.eye(2, dtype=np.complex128)
    for rec in records:
        axis = np.asarray(rec["axis"], dtype=np.float64)
        axis = axis / np.linalg.norm(axis)
        angle = float(rec["angle_rad"]) if "angle_rad" in rec else math.radians(float(rec["angle_deg"]))
        n_sigma = sum(a * s for a, s in zip(axis, SIGMA))
        mat = (math.cos(angle) * np.eye(2) + 1j * math.sin(angle) * n_sigma) @ mat
    return mat


def bloch_state(alpha: float, beta: float) -> np.ndarray:
    """``(cos(alpha/2), e^{i beta} sin(alpha/2))``."""
    return np.array([math.cos(alpha / 2), np.exp(1j * beta) * math.sin(alpha / 2)])


def step_operators(coin: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``U_k`` for every momentum in ``k``, shape ``k.shape + (2, 2)``."""
    u = np.empty(np.shape(k) + (2, 2), dtype=np.complex128)
    u[..., 0, :] = np.exp(-1j * k)[..., None] * coin[0]
    u[..., 1, :] = np.exp(1j * k)[..., None] * coin[1]
    return u


def _propagate(coin: np.ndarray, phi0: np.ndarray, steps: int, n_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Both components of ``U_k^steps phi0`` on ``k = 2 pi j / n_k`` by repeated squaring."""
    k = 2.0 * math.pi * np.arange(n_k) / n_k
    em, ep = np.exp(-1j * k), np.exp(1j * k)
    a, b, c, d = em * coin[0, 0], em * coin[0, 1], ep * coin[1, 0], ep * coin[1, 1]
    v0 = np.full(n_k, phi0[0], dtype=np.complex128)
    v1 = np.full(n_k, phi0[1], dtype=np.complex128)
    t = steps
    while t:
        if t & 1:
            v0, v1 = a * v0 + b * v1, c * v0 + d * v1
        t >>= 1
        if t:
            a, b, c, d = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
    return v0, v1


def distribution(coin: np.ndarray, phi0: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Sites ``-steps..steps`` and their probabilities after ``steps`` steps from site 0."""
    n_k = 1 << (2 * steps).bit_length()  # power of two >= 2 steps + 1
    v0, v1 = _propagate(coin, phi0, steps, n_k)
    p = np.abs(np.fft.ifft(v0)) ** 2 + np.abs(np.fft.ifft(v1)) ** 2
    x = np.arange(-steps, steps + 1)
    return x, p[x % n_k]


def moments(coin: np.ndarray, phi0: np.ndarray, steps: int) -> tuple[float, float]:
    """``(<x>, <x^2>)`` after ``steps`` steps from site 0."""
    x, p = distribution(coin, phi0, steps)
    xf = x.astype(np.float64)
    return float(xf @ p), float((xf * xf) @ p)


def asymptotic_coefficients(coin: np.ndarray, phi0: np.ndarray) -> tuple[float, float]:
    """``(<x>_t / t, <x^2>_t / t^2)`` at ``t = ASYMPTOTIC_STEPS``."""
    m1, m2 = moments(coin, phi0, ASYMPTOTIC_STEPS)
    return m1 / ASYMPTOTIC_STEPS, m2 / ASYMPTOTIC_STEPS**2


def is_sigma_x_family(coin: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff ``coin = e^{ig} sigma_x`` for some phase ``g``."""
    return bool(max(abs(coin[0, 0]), abs(coin[1, 1]), abs(coin[0, 1] - coin[1, 0])) <= tol)


def xy_amplitude(theta, phi):
    """Amplitude ``A`` of ``cos w(k) = (1/2) Re tr U_k`` for the coin ``R_x(phi) R_y(theta)``.

    For an SU(2) coin ``C``, ``(1/2) Re tr U_k = Re(e^{-ik} C_00)``, so
    ``A = |C_00|``; here ``C_00 = cos(theta) cos(phi) - i sin(theta) sin(phi)``.
    The gap closes where ``A = 1``.
    """
    return np.abs(np.cos(theta) * np.cos(phi) - 1j * np.sin(theta) * np.sin(phi))
