"""Long-time closed forms: linear drift rate, quadratic spread coefficient,
and the limiting velocity density of the rescaled position x/t.

Expanding the initial coin state in the eigenbasis of ``U_k`` and dropping
the oscillatory cross terms (they average to zero in the long-time limit for
non-degenerate ``U_k``) gives

    <x>_t   ->  t   * s * Int dk/2pi  sum_j |c_kj|^2 <v_kj| sigma_z |v_kj>
    <x^2>_t ->  t^2 *     Int dk/2pi  sum_j |c_kj|^2 <v_kj| sigma_z |v_kj>^2

where ``c_kj`` are the expansion coefficients of the initial coin state and
the overall sign ``s`` of the first moment is calibrated once against the
exact simulator: with the identity coin, the coin-|0> walker must drift to
+t.  Integrals use the uniform trapezoidal rule on [-pi, pi) with periodic
wrap, which is spectrally accurate for these smooth periodic integrands.

The rescaled position x/t converges weakly to a density supported on
[-v_max, v_max]: momentum k contributes weight (1 + <n(k).sigma>)/2 at
velocity +v_k and (1 - <n(k).sigma>)/2 at -v_k, with expectations taken in
the initial coin state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import PAULI_X, PAULI_Y, PAULI_Z, CoinSpec, compose, preset_coin, sigma_x_distance
from .export import write_csv
from .momentum import DegeneratePointError, _band_arrays, _eigvecs_from_bloch, _su2_parts
from .walk import InitialCondition, evolve, moments

__all__ = [
    "AsymptoticMoments",
    "VelocityDensity",
    "drift_sign",
    "moment_integrals",
    "weak_limit_density",
    "classify_spreading",
    "velocity_density_to_csv",
    "asymptotic_moments_to_dict",
]

_SPREAD_TOL = 1e-10
_SIGMA_X_FAMILY_TOL = 1e-9
# cos w(k) is a sinusoid in k, so an SU(2) coin touches the band edges at no
# more than two isolated momenta; anything beyond a few grid hits would mean
# a positive-measure degeneracy, which the eigenbasis expansion cannot handle
_DEGENERATE_COUNT_LIMIT = 8

_drift_sign: int | None = None


@dataclass(frozen=True)
class AsymptoticMoments:
    """Leading coefficients of the long-time moments."""

    mean_rate: float  # <x>_t / t
    second_coeff: float  # <x^2>_t / t^2
    variance_coeff: float  # second_coeff - mean_rate^2
    grid_size: int

    @property
    def classification(self) -> str:
        """``"ballistic"`` or ``"non-spreading"``.

        Non-spreading means both the quadratic spread coefficient and the
        variance coefficient vanish; a deterministic drift (zero variance but
        nonzero rate) still counts as ballistic.
        """
        if self.variance_coeff <= _SPREAD_TOL and self.second_coeff <= _SPREAD_TOL:
            return "non-spreading"
        return "ballistic"


@dataclass(frozen=True)
class VelocityDensity:
    """Histogram of the limiting x/t distribution on [-1, 1].

    ``degenerate`` flags coins in the sigma_x family, whose density collapses
    onto v = 0.
    """

    v_grid: NDArray[np.float64]  # bin centres
    density: NDArray[np.float64]
    coin: CoinSpec
    initial: InitialCondition
    degenerate: bool


def _sigma_z_integrands(coin: CoinSpec, init: InitialCondition, grid_size: int):
    """Per-momentum values of the two eigenbasis sums on the uniform k-grid.

    Band-touching momenta (isolated) are assigned the average of the
    integrand a tenth of a grid spacing to either side.
    """
    k = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    c, s = _su2_parts(compose(coin))
    phi0 = np.asarray(init.coin_state, dtype=np.complex128)

    def eval_at(kk):
        _, n, _, degenerate = _band_arrays(c, s, kk)
        if np.any(degenerate):
            raise DegeneratePointError("band touching inside offset evaluation")
        v_plus, v_minus = _eigvecs_from_bloch(n)
        cp = np.abs(np.einsum("...i,i->...", v_plus.conj(), phi0)) ** 2
        cm = np.abs(np.einsum("...i,i->...", v_minus.conj(), phi0)) ** 2
        ap = (np.abs(v_plus[..., 0]) ** 2 - np.abs(v_plus[..., 1]) ** 2).real
        am = (np.abs(v_minus[..., 0]) ** 2 - np.abs(v_minus[..., 1]) ** 2).real
        return cp * ap + cm * am, cp * ap**2 + cm * am**2

    _, _, _, degenerate = _band_arrays(c, s, k)
    open_gap = ~degenerate
    n_degenerate = int(np.count_nonzero(degenerate))
    if n_degenerate > max(_DEGENERATE_COUNT_LIMIT, grid_size // 256):
        raise DegeneratePointError(
            f"{n_degenerate} of {grid_size} momenta are band touchings; "
            "the non-degenerate eigenbasis expansion does not apply"
        )

    g1 = np.zeros(grid_size)
    g2 = np.zeros(grid_size)
    g1[open_gap], g2[open_gap] = eval_at(k[open_gap])
    if n_degenerate:
        h = (2.0 * math.pi / grid_size) / 10.0
        for idx in np.nonzero(degenerate)[0]:
            left = eval_at(np.array([k[idx] - h]))
            right = eval_at(np.array([k[idx] + h]))
            g1[idx] = 0.5 * (left[0][0] + right[0][0])
            g2[idx] = 0.5 * (left[1][0] + right[1][0])
    return g1, g2


def drift_sign() -> int:
    """Global sign of the first-moment integral, calibrated against simulation.

    The identity coin with coin state |0> walks deterministically to +t; the
    raw integral for that case is compared against a short exact run and the
    reconciling sign is cached for the lifetime of the process.
    """
    global _drift_sign
    if _drift_sign is None:
        coin = preset_coin("identity")
        init = InitialCondition(np.array([1.0, 0.0]))
        g1, _ = _sigma_z_integrands(coin, init, 64)
        raw_rate = float(np.mean(g1))
        t = 4
        mean_sim, _ = moments(evolve(init, coin, t))
        _drift_sign = 1 if mean_sim * raw_rate * t > 0 else -1
    return _drift_sign


def moment_integrals(coin: CoinSpec, init: InitialCondition, grid_size: int = 4096) -> AsymptoticMoments:
    """Brillouin-zone integrals for the drift rate and quadratic spread coefficient."""
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    vec = np.asarray(init.coin_state, dtype=np.complex128)
    if abs(float(np.sum(np.abs(vec) ** 2)) - 1.0) > 1e-12:
        raise ValueError("initial coin state must be normalised")

    g1, g2 = _sigma_z_integrands(coin, init, grid_size)
    mean_rate = drift_sign() * float(np.mean(g1))
    second_coeff = float(np.mean(g2))
    return AsymptoticMoments(
        mean_rate=mean_rate,
        second_coeff=second_coeff,
        variance_coeff=second_coeff - mean_rate**2,
        grid_size=grid_size,
    )


def classify_spreading(coin: CoinSpec, init: InitialCondition, grid_size: int = 4096) -> str:
    """``"ballistic"`` or ``"non-spreading"``; see ``AsymptoticMoments.classification``."""
    return moment_integrals(coin, init, grid_size).classification


def weak_limit_density(
    coin: CoinSpec, init: InitialCondition, grid_size: int = 4096, bins: int = 64
) -> VelocityDensity:
    """Histogram of the limiting velocity density on ``bins`` uniform bins over [-1, 1]."""
    if bins < 32:
        raise ValueError("bins must be >= 32")
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")

    c, s = _su2_parts(compose(coin))
    phi0 = np.asarray(init.coin_state, dtype=np.complex128)
    n_sigma_exp = np.array(
        [
            float(np.real(phi0.conj() @ (p @ phi0)))
            for p in (PAULI_X, PAULI_Y, PAULI_Z)
        ]
    )

    k = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    _, n, v, degenerate = _band_arrays(c, s, k)
    if np.any(degenerate):
        # isolated band touchings: evaluate a tenth of a spacing to the right
        h = (2.0 * math.pi / grid_size) / 10.0
        idx = np.nonzero(degenerate)[0]
        _, n_off, v_off, deg_off = _band_arrays(c, s, k[idx] + h)
        if np.any(deg_off):
            raise DegeneratePointError("band touching persists after offset evaluation")
        n[idx] = n_off
        v[idx] = v_off

    overlap = n @ n_sigma_exp  # <phi0| n(k).sigma |phi0>
    w_plus = 0.5 * (1.0 + overlap) / grid_size
    w_minus = 0.5 * (1.0 - overlap) / grid_size

    width = 2.0 / bins
    mass = np.zeros(bins)
    for vel, w in ((v, w_plus), (-v, w_minus)):
        b = np.clip(((vel + 1.0) / width).astype(int), 0, bins - 1)
        np.add.at(mass, b, w)

    centres = -1.0 + width * (np.arange(bins) + 0.5)
    return VelocityDensity(
        v_grid=centres,
        density=mass / width,
        coin=coin,
        initial=init,
        degenerate=sigma_x_distance(compose(coin)) <= _SIGMA_X_FAMILY_TOL,
    )


def velocity_density_to_csv(vd: VelocityDensity, path) -> None:
    write_csv(path, ["v", "density"], zip(map(float, vd.v_grid), map(float, vd.density)))


def asymptotic_moments_to_dict(am: AsymptoticMoments) -> dict:
    """JSON-ready record including the sign-calibration result."""
    return {
        "mean_rate": am.mean_rate,
        "second_coeff": am.second_coeff,
        "variance_coeff": am.variance_coeff,
        "grid_size": am.grid_size,
        "sign_calibration": {
            "drift_sign": drift_sign(),
            "reference": "identity coin, coin state |0>, drifts to +t",
        },
    }
