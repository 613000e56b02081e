"""Long-time closed forms: linear drift rate, quadratic spread coefficient,
and the limiting velocity density of the rescaled position x/t.

All three are views of one velocity measure (Grimmett, Janson and Scudo,
PRE 69, 026119, 2004).  With the Bloch axis ``n(k)`` of
``U_k = cos(w) I - i sin(w) n(k).sigma`` and the Bloch vector ``s0`` of the
initial coin state, momentum k puts weight ``(1 + n(k).s0) / 2`` at velocity
``+v_k`` and ``(1 - n(k).s0) / 2`` at ``-v_k``, where ``v_k = dw/dk = n_z(k)``.
x/t converges weakly to this measure averaged over the Brillouin zone, so

    <x>_t   / t   ->  Int dk/2pi  v_k (n(k).s0)
    <x^2>_t / t^2 ->  Int dk/2pi  v_k^2

and the weak limit is the same measure binned on [-1, 1].  Writing the coin
as ``C = c I + i (s.sigma)`` gives every ingredient in closed form, with no
eigenvectors and no ``arccos``: ``U_k = cos(w) I + i (m.sigma)`` with
``m_z = s_z cos k - c sin k``, ``sin w = |m| = sqrt(s_x^2 + s_y^2 + m_z^2)``,
``v_k = -m_z / sin w`` and ``n.s0 = -(m.s0) / sin w``.  Integrals use the
uniform trapezoidal rule on [-pi, pi), which is spectrally accurate for these
smooth periodic integrands.

Band touchings (``sin w <= DEGENERACY_THRESHOLD``) are isolated momenta for
SU(2) coins, and one rule serves the moments and the density alike: a
touching sample is replaced by two samples a tenth of a grid spacing to either
side, each with half its weight.

The sign is a convention, not a calibration: with ``n(k)`` fixed as above,
the identity coin drives the coin-|0> walker to +t and the measure gives a
drift rate of +1.  The test suite checks that sign against the exact walk;
:func:`drift_sign` returns it for the manifest record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import PAULI_X, PAULI_Y, PAULI_Z, CoinSpec, compose, sigma_x_distance
from .export import write_csv
from .momentum import DEGENERACY_THRESHOLD, DegeneratePointError, _su2_parts
from .walk import InitialCondition

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
# a positive-measure degeneracy, which the touching rule cannot handle
_DEGENERATE_COUNT_LIMIT = 8


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


def _velocity_measure(coin: CoinSpec, init: InitialCondition, grid_size: int):
    """Atoms ``(v, n_s0, weight)`` of the velocity measure on the uniform k-grid.

    Sample i puts mass ``weight[i] * (1 +- n_s0[i]) / (2 * grid_size)`` at
    velocity ``+-v[i]``.  ``weight`` is 1, or 1/2 for each of the two samples
    that replace a band touching; those samples come after the regular ones.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    c, s = _su2_parts(compose(coin))
    phi0 = np.asarray(init.coin_state, dtype=np.complex128)
    s0 = np.array([float(np.real(phi0.conj() @ (p @ phi0))) for p in (PAULI_X, PAULI_Y, PAULI_Z)])
    s_perp_sq = s[0] ** 2 + s[1] ** 2

    # U_k = cos(w) I + i (m.sigma) with m = (ck s_x - sk s_y, ck s_y + sk s_x,
    # ck s_z - c sk), so sin(w) = |m| = sqrt(s_x^2 + s_y^2 + m_z^2); unlike
    # 1 - cos(w)^2 this does not cancel near band touchings
    k = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    ck, sk = np.cos(k), np.sin(k)
    weight = np.ones(grid_size)
    m_z = ck * s[2] - c * sk
    sin_w = np.sqrt(s_perp_sq + m_z * m_z)
    touching = sin_w <= DEGENERACY_THRESHOLD
    n_touching = int(np.count_nonzero(touching))
    if n_touching:
        if n_touching > max(_DEGENERATE_COUNT_LIMIT, grid_size // 256):
            raise DegeneratePointError(
                f"{n_touching} of {grid_size} momenta are band touchings; "
                "the velocity measure needs isolated touchings"
            )
        h = (2.0 * math.pi / grid_size) / 10.0
        k_off = np.concatenate([k[touching] - h, k[touching] + h])
        ck = np.concatenate([ck[~touching], np.cos(k_off)])
        sk = np.concatenate([sk[~touching], np.sin(k_off)])
        weight = np.concatenate([weight[~touching], np.full(k_off.size, 0.5)])
        m_z = ck * s[2] - c * sk
        sin_w = np.sqrt(s_perp_sq + m_z * m_z)
        if np.any(sin_w <= DEGENERACY_THRESHOLD):
            raise DegeneratePointError("band touching persists after offset evaluation")

    m_s0 = ck * float(s @ s0) + sk * (s[0] * s0[1] - s[1] * s0[0] - c * s0[2])
    return -m_z / sin_w, -m_s0 / sin_w, weight


def drift_sign() -> int:
    """Sign of the drift-rate convention: always ``1``.

    With ``n(k)`` fixed by ``U_k = cos(w) I - i sin(w) n.sigma``, the identity
    coin moves the coin-|0> walker to +t and :func:`moment_integrals` gives
    it ``mean_rate = +1``.  The sign is a mathematical constant that the test
    suite checks against the exact walk; manifests record it.
    """
    return 1


def moment_integrals(coin: CoinSpec, init: InitialCondition, grid_size: int = 4096) -> AsymptoticMoments:
    """Drift rate and quadratic spread coefficient: the first two moments of the velocity measure."""
    v, n_s0, weight = _velocity_measure(coin, init, grid_size)
    mean_rate = float(np.sum(weight * v * n_s0)) / grid_size
    second_coeff = float(np.sum(weight * v * v)) / grid_size
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
    """The velocity measure binned on ``bins`` uniform bins over [-1, 1], as a density."""
    if bins < 32:
        raise ValueError("bins must be >= 32")
    v, n_s0, weight = _velocity_measure(coin, init, grid_size)
    half = 0.5 * weight
    width = 2.0 / bins
    velocity = np.concatenate([v, -v])
    mass = np.bincount(
        np.clip(((velocity + 1.0) / width).astype(int), 0, bins - 1),
        weights=np.concatenate([half * (1.0 + n_s0), half * (1.0 - n_s0)]) / grid_size,
        minlength=bins,
    )

    centres = -1.0 + width * (np.arange(bins) + 0.5)
    return VelocityDensity(
        v_grid=centres,
        density=mass / width,
        coin=coin,
        initial=init,
        degenerate=sigma_x_distance(compose(coin)) <= _SIGMA_X_FAMILY_TOL,
    )


def velocity_density_to_csv(vd: VelocityDensity, path) -> None:
    write_csv(path, ["v", "density"], [vd.v_grid, vd.density])


def asymptotic_moments_to_dict(am: AsymptoticMoments) -> dict:
    """JSON-ready record including the drift-sign convention."""
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
