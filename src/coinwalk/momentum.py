"""Momentum-space analysis of the single-step walk operator.

For a coin matrix ``C`` the step operator at momentum ``k`` is

    U_k = diag(e^{-ik}, e^{+ik}) @ C,

an SU(2) matrix whose eigenvalues are ``e^{-i w}`` and ``e^{+i w}`` with the
quasi-energy ``w = w(k)`` taken on the principal branch ``[0, pi]``
(``cos w = Re tr(U_k) / 2``).  The Bloch axis ``n(k)`` is fixed by

    U_k = cos(w) I - i sin(w) (n . sigma),

so ``U_k = exp(-i H_k)`` with the effective Hamiltonian ``H_k = w n . sigma``,
and ``e^{-i w}`` belongs to the +1 eigenvector of ``n . sigma``.  With these
conventions the group velocity ``dw/dk`` equals ``n_z(k)``, and for the coin
``|0>`` the walker drifts toward positive sites.

Writing ``C = c I + i (s . sigma)`` (c real, s a real 3-vector) gives the
closed dispersion ``cos w(k) = c cos k + s_z sin k``: a pure sinusoid in k
for every composite coin, which the gap scanner exploits.

The Bloch axis is built in columns, one contiguous block of momenta per
component, and ``DispersionBand.bloch`` is a view of it with the component
axis last: it keeps the shape ``(n_k, 3)``, and each row of ``bloch.T`` is
contiguous, so the CSV writer takes the components without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import CoinSpec, su2_parts
from .export import write_csv

__all__ = [
    "DEFAULT_GRID_SIZE",
    "MIN_GRID_SIZE",
    "DEGENERACY_THRESHOLD",
    "DispersionBand",
    "dispersion_band",
    "dispersion_to_csv",
]

# below sin(w) ~ 1e-8 the 1/sin(w) normalisation of the Bloch axis loses all
# precision, so such k count as band-touching points
DEGENERACY_THRESHOLD = 1e-8

# default and lower bound of the momentum count of a sampled band
DEFAULT_GRID_SIZE = 4096
MIN_GRID_SIZE = 64


@dataclass(frozen=True)
class DispersionBand:
    """Quasi-energy band sampled on a uniform momentum grid over [-pi, pi).

    ``bloch`` rows and ``group_velocity`` entries are NaN at band-touching
    momenta.
    """

    k_grid: NDArray[np.float64]
    omega_values: NDArray[np.float64]
    bloch: NDArray[np.float64]
    group_velocity: NDArray[np.float64]


def _band_arrays(c: float, s: np.ndarray, k):
    """Vectorised dispersion data for coin parts ``(c, s)`` on momenta ``k``.

    Returns ``(omega, n, v, degenerate)`` where ``n`` has shape ``k.shape + (3,)``;
    rows of ``n`` and entries of ``v`` are NaN where the gap closes.  ``n`` is
    built in columns, one contiguous ``k.shape`` block per component, and
    returned as a view with the component axis last.
    """
    k = np.asarray(k, dtype=np.float64)
    ck, sk = np.cos(k), np.sin(k)
    # |c cos k + s_z sin k| <= hypot(c, s_z) <= 1 up to rounding, as the coin is unit
    omega = np.arccos(np.clip(c * ck + s[2] * sk, -1.0, 1.0))

    # U_k = cos(w) I + i (m . sigma) with |m| = sin(w); n = -m / sin(w).  |m|
    # keeps its precision near band touchings, where sin(arccos(.)) cancels
    m = np.empty((3,) + k.shape)
    np.subtract(ck * s[0], sk * s[1], out=m[0, ...])
    np.add(ck * s[1], sk * s[0], out=m[1, ...])
    np.subtract(ck * s[2], c * sk, out=m[2, ...])
    sin_w = np.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])
    degenerate = sin_w <= DEGENERACY_THRESHOLD
    n = np.full(m.shape, np.nan)
    np.divide(np.negative(m, out=m), sin_w, out=n, where=~degenerate)
    v = n[2] + 0.0  # dw/dk = n_z, with a zero made +0 (n_z = -m_z / sin w is -0 where m_z is +0)
    return omega, np.moveaxis(n, 0, -1), v, degenerate


def dispersion_band(coin: CoinSpec, n_k: int = DEFAULT_GRID_SIZE) -> DispersionBand:
    """Sample the band on ``n_k`` uniform momenta over [-pi, pi)."""
    if n_k < MIN_GRID_SIZE:
        raise ValueError(f"n_k must be >= {MIN_GRID_SIZE}")
    k = np.linspace(-math.pi, math.pi, n_k, endpoint=False)
    c, s = su2_parts(coin)
    omega, n, v, _ = _band_arrays(c, s, k)
    return DispersionBand(k_grid=k, omega_values=omega, bloch=n, group_velocity=v)


def dispersion_to_csv(band: DispersionBand, path) -> None:
    """Write ``k,omega,nx,ny,nz,v_group`` rows; degenerate momenta get empty n/v fields."""
    columns = [band.k_grid, band.omega_values, *band.bloch.T, band.group_velocity]
    write_csv(path, ["k", "omega", "nx", "ny", "nz", "v_group"], columns)
