"""Long-time closed forms: linear drift rate, quadratic spread coefficient,
and the limiting velocity density of the rescaled position x/t.

All three are views of one velocity measure (Grimmett, Janson and Scudo,
PRE 69, 026119, 2004).  With the Bloch axis ``n(k)`` of
``U_k = cos(w) I - i sin(w) n(k).sigma`` and the Bloch vector ``s0`` of the
initial coin state, momentum k puts weight ``(1 + n(k).s0) / 2`` at velocity
``+v_k`` and ``(1 - n(k).s0) / 2`` at ``-v_k``, where ``v_k = dw/dk = n_z(k)``;
x/t converges weakly to this measure averaged over the Brillouin zone.

Writing the coin as ``C = c I + i (s.sigma)`` the average is done in closed
form, so no momentum grid is built.  With ``s_perp = hypot(s_x, s_y) = |C01|``,
``R = hypot(c, s_z) = |C00|`` (the largest speed), ``alpha = s.s0`` and
``beta = s_x s0_y - s_y s0_x - c s0_z``:

    <x>_t   / t   ->  mean_rate    = (alpha s_z - beta c) / (1 + s_perp)
    <x^2>_t / t^2 ->  second_coeff = 1 - s_perp = R^2 / (1 + s_perp)

and on ``|v| < R`` the measure has Konno's density (N. Konno, J. Math. Soc.
Japan 57, 1179, 2005)

    f(v) (1 + gamma v),  f(v) = s_perp / (pi (1 - v^2) sqrt(R^2 - v^2)),
    gamma = (alpha s_z - beta c) / R^2.

A bin holds the exact mass ``dF + gamma dG`` between its edges clipped to
``[-R, R]``, where ``F' = f`` and ``G' = v f``.  Both primitives are atan2
forms that stay finite at ``+-R``; each is taken up to an additive constant,
which cancels in the differences, in the form that keeps relative precision
near a band touching (``s_perp -> 0``) and near the sigma_x family
(``R -> 0``).  At rounding level the measure is atoms: a touching coin puts
``(1 +- mean_rate) / 2`` at ``v = +-1`` and a coin with ``R = 0`` puts
everything at ``v = 0``.

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

from .coins import PAULI_X, PAULI_Y, PAULI_Z, CoinSpec, su2_parts
from .export import write_csv
from .walk import InitialCondition, WalkerState

__all__ = [
    "AsymptoticMoments",
    "VelocityDensity",
    "drift_sign",
    "sign_calibration",
    "moment_integrals",
    "weak_limit_density",
    "weak_limit_distance",
    "classify_spreading",
    "velocity_density_to_csv",
    "asymptotic_moments_to_dict",
]

# default and lower bound of the bins parameter
DEFAULT_BINS = 64
MIN_BINS = 32

# s_perp or R at or below this is the rounding of an exact touching (s_perp = 0)
# or sigma_x-family (R = 0) coin: a few ulps of the unit-modulus coin entries
_ATOM_TOL = 8 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class AsymptoticMoments:
    """Leading coefficients of the long-time moments."""

    mean_rate: float  # <x>_t / t
    second_coeff: float  # <x^2>_t / t^2
    variance_coeff: float  # second_coeff - mean_rate^2
    s_perp: float  # |C01|; 0 for a band-touching coin
    max_speed: float  # R = |C00|; 0 for the sigma_x family

    @property
    def classification(self) -> str:
        """``"ballistic"`` or ``"non-spreading"``.

        Non-spreading means the largest speed ``R`` vanishes at rounding level,
        the test behind ``VelocityDensity.degenerate``: then the quadratic
        spread coefficient and the variance coefficient, which never exceeds
        it, vanish too.  A deterministic drift (zero variance but nonzero
        rate) still counts as ballistic.
        """
        if self.max_speed <= _ATOM_TOL:
            return "non-spreading"
        return "ballistic"


@dataclass(frozen=True)
class VelocityDensity:
    """Histogram of the limiting x/t distribution on [-1, 1].

    ``degenerate`` flags coins with ``R = |C00| = 0`` at rounding level (the
    sigma_x family up to a z-rotation, such as ``i sigma_y``), whose density
    collapses onto v = 0.
    """

    v_grid: NDArray[np.float64]  # bin centres
    density: NDArray[np.float64]
    degenerate: bool
    s_perp: float
    max_speed: float


def _measure_parameters(coin: CoinSpec, init: InitialCondition) -> tuple[float, float, float, float, list]:
    """``(s_perp, R, alpha s_z - beta c, mean_rate, atoms)``, which fix the velocity
    measure; ``atoms`` lists its ``(v, mass)`` where it is atoms at rounding level."""
    c, s = su2_parts(coin)
    phi0 = np.asarray(init.coin_state, dtype=np.complex128)
    s0 = [float(np.real(phi0.conj() @ (p @ phi0))) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    alpha = float(s @ s0)
    beta = float(s[0] * s0[1] - s[1] * s0[0] - c * s0[2])
    # s_perp^2 + R^2 = 1; rounding must not push either past 1, where the
    # spread coefficient would go negative or the outer bin edges miss +-R
    s_perp, r = min(math.hypot(s[0], s[1]), 1.0), min(math.hypot(c, s[2]), 1.0)
    drift = alpha * float(s[2]) - beta * c
    mean_rate = drift / (1.0 + s_perp)
    atoms = [(0.0, 1.0)] if r <= _ATOM_TOL else []  # s_perp and R are never both small
    if s_perp <= _ATOM_TOL:
        atoms = [(-1.0, 0.5 * (1.0 - mean_rate)), (1.0, 0.5 * (1.0 + mean_rate))]
    return s_perp, r, drift, mean_rate, atoms


def drift_sign() -> int:
    """Sign of the drift-rate convention: always ``1``.

    With ``n(k)`` fixed by ``U_k = cos(w) I - i sin(w) n.sigma``, the identity
    coin moves the coin-|0> walker to +t and :func:`moment_integrals` gives
    it ``mean_rate = +1``.  The sign is a mathematical constant that the test
    suite checks against the exact walk; manifests record it.
    """
    return 1


def sign_calibration() -> dict:
    """The drift-sign convention record that JSON records and manifests carry."""
    return {"drift_sign": drift_sign(), "reference": "identity coin, coin state |0>, drifts to +t"}


def moment_integrals(coin: CoinSpec, init: InitialCondition) -> AsymptoticMoments:
    """Drift rate and quadratic spread coefficient: the first two moments of the velocity measure."""
    s_perp, max_speed, _, mean_rate, _ = _measure_parameters(coin, init)
    # 1 - s_perp in a form without cancellation: exact to rounding as R -> 0
    second_coeff = max_speed * max_speed / (1.0 + s_perp)
    return AsymptoticMoments(
        mean_rate=mean_rate,
        second_coeff=second_coeff,
        variance_coeff=second_coeff - mean_rate**2,
        s_perp=s_perp,
        max_speed=max_speed,
    )


def classify_spreading(coin: CoinSpec, init: InitialCondition) -> str:
    """``"ballistic"`` or ``"non-spreading"``; see ``AsymptoticMoments.classification``."""
    return moment_integrals(coin, init).classification


def _primitives(v: NDArray[np.float64], s_perp: float, r: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``(pi F, pi G)`` at velocities ``v`` in ``[-R, R]``, each up to an additive constant."""
    y = np.sqrt(r * r - v * v)
    # two forms of G, pi/2 apart; each keeps relative precision where it is small
    return np.arctan2(v * s_perp, y), (-np.arctan2(y, s_perp) if s_perp >= r else np.arctan2(s_perp, y))


def weak_limit_density(coin: CoinSpec, init: InitialCondition, bins: int = DEFAULT_BINS) -> VelocityDensity:
    """The velocity measure binned on ``bins`` uniform bins over [-1, 1], as a density."""
    if bins < MIN_BINS:
        raise ValueError(f"bins must be >= {MIN_BINS}")
    s_perp, r, drift, _, atoms = _measure_parameters(coin, init)
    width = 2.0 / bins
    mass = np.zeros(bins)
    for v, m in atoms:  # v is -1, 0 or 1; v = 0 is the left edge of bin bins // 2 when bins is even
        mass[min((int(v) + 1) * bins // 2, bins - 1)] = m
    if not atoms:
        f_prim, g_prim = _primitives(np.clip(-1.0 + width * np.arange(bins + 1), -r, r), s_perp, r)
        mass = (np.diff(f_prim) + (drift / (r * r)) * np.diff(g_prim)) / math.pi

    centres = -1.0 + width * (np.arange(bins) + 0.5)
    return VelocityDensity(
        v_grid=centres,
        density=mass / width,
        degenerate=bool(r <= _ATOM_TOL),
        s_perp=s_perp,
        max_speed=r,
    )


def weak_limit_distance(coin: CoinSpec, init: InitialCondition, state: WalkerState) -> float | None:
    """Kolmogorov distance ``sup_v |P(d/T <= v) - P_limit(v)|`` between the
    exact distribution of ``d/T`` after ``T = state.t`` steps from ``init``,
    with ``d`` the displacement from the start site, and the velocity
    measure; ``None`` at ``T = 0``.

    Between two occupied sites the exact CDF is flat and the limit CDF rises,
    so the sup is reached at a site, on its right side or on its left side,
    where the limit CDF takes its left limit: an atom of the measure on a
    site or between two sites counts there.
    """
    t = state.t
    if t == 0:
        return None
    # the T + 1 occupied sites, at displacements -T, -T + 2, ..., T
    p = np.sum(np.abs(state.amplitudes[0::2]) ** 2, axis=1)
    u = np.arange(-t, t + 1, 2) / t
    upto = np.cumsum(p)
    below = np.concatenate(([0.0], upto[:-1]))
    s_perp, r, drift, _, atoms = _measure_parameters(coin, init)
    if atoms:
        law = sum(mass * (u >= v) for v, mass in atoms)
        law_below = sum(mass * (u > v) for v, mass in atoms)
    else:
        f_prim, g_prim = _primitives(np.clip(u, -r, r), s_perp, r)
        # u[0] = -1 clips to -R, where the limit CDF is 0
        law = law_below = ((f_prim - f_prim[0]) + (drift / (r * r)) * (g_prim - g_prim[0])) / math.pi
    return float(max(np.max(np.abs(upto - law)), np.max(np.abs(below - law_below))))


def velocity_density_to_csv(vd: VelocityDensity, path) -> None:
    write_csv(path, ["v", "density"], [vd.v_grid, vd.density])


def asymptotic_moments_to_dict(am: AsymptoticMoments) -> dict:
    """JSON-ready record including the drift-sign convention."""
    return {
        "mean_rate": am.mean_rate,
        "second_coeff": am.second_coeff,
        "variance_coeff": am.variance_coeff,
        "sign_calibration": sign_calibration(),
    }
