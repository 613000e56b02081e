"""Gap survey of the (theta, phi) parameter square for the x/y two-rotation walk.

The coin ``R_x(phi) R_y(theta)`` gives the dispersion argument

    cos w(k) = cos k cos(theta) cos(phi) - sin k sin(theta) sin(phi)
             = A cos(k + d),

with amplitude ``A = hypot(cos theta cos phi, sin theta sin phi)`` and phase
``d = atan2(sin theta sin phi, cos theta cos phi)``.  The band therefore
sweeps ``[arccos A, pi - arccos A]``: the gap at w = 0 and the gap at
w = +-pi are one and the same ``arccos A``, and it closes exactly where
A = 1, at isolated parameter points.  So the survey carries one gap, which a
gap map writes into both its ``gap_zero`` and its ``gap_pi`` column.  The
spread of the walk at long times is ``s_perp = sin(gap)``.  The tests check
the closed form against a brute-force sampled minimiser over k.

Closure points are enumerated on the closed square [-pi, pi]^2 (the +-pi
edges are geometrically distinct there); each point is reported once even
when both bands close on it, and the mod-2pi identification of the edges is
reported separately.

A closure on the mesh is a cell whose gap is 0 in doubles, i.e. whose
computed A is 1; the smallest non-zero gap a double can give is
arccos(1 - 2^-53) ~ 1.49e-8.  A computed A of 1 needs cos theta cos phi or
sin theta sin phi to round to +-1, and so both its factors: cos and sin
round to +-1 only within 2^-26.5 ~ 1.05e-8 of a multiple of pi/2.  That
window, 2.11e-8 wide, is narrower than the mesh spacing 2 pi / (grid - 1)
for every grid up to 2^28 (2.34e-8), so each closure point is at most one
cell of the mesh and no hits need merging.

Half that spacing, pi / (2^28 - 1) ~ 1.17e-8, is wider than the window's
half-width, so a node inside the window is the unique node nearest its
quarter turn, and a node halfway between two neighbours lies in neither
window.  So the enumeration evaluates only the mesh node nearest each
quarter turn -pi, -pi/2, 0, pi/2 and pi, at most 5 per axis: O(1) time and
memory at every grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .export import write_csv

__all__ = [
    "GapClosure",
    "GapMap",
    "min_gap",
    "scan_gap_map",
    "enumerate_closures",
    "closure_points",
    "canonical_points",
    "assert_no_boundary",
    "closures_to_dict",
    "gap_map_to_csv",
    "canonical_angle",
]

BAND_ZERO = "omega_zero"
BAND_PI = "omega_pi"

# enumerate_closures: default and bounds of the points per axis; up to
# MAX_GRID each closure point is one mesh cell (module docstring)
DEFAULT_GRID = 721
MIN_GRID = 181
MAX_GRID = 2**28
# the gap below which a cell is closed in the survey record and in the probes
# of assert_no_boundary: below the smallest non-zero gap of a double, 1.49e-8
TOL = 1e-8
# scan_gap_map: default points per axis
DEFAULT_MAP_GRID = 181

# assert_no_boundary: the radii and the number of directions of its probe rays
_PROBE_RADII = (0.02, 0.04, 0.06, 0.08, 0.1)
_PROBE_DIRECTIONS = 16

# the angles that every closure on the mesh lies beside (module docstring)
_QUARTER_TURNS = (-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi)


@dataclass(frozen=True)
class GapClosure:
    """One (parameter point, band) at which the quasi-energy gap closes."""

    theta: float
    phi: float
    k_star: float
    band: str


@dataclass(frozen=True)
class GapMap:
    """The gap over an inclusive uniform grid of both angles: theta is the
    row and phi the column of ``gap``, and both run over ``axis``."""

    axis: np.ndarray
    gap: np.ndarray


def canonical_angle(a: float) -> float:
    """Representative of ``a`` modulo 2*pi in (-pi, pi]."""
    b = math.remainder(float(a), 2.0 * math.pi)
    if b <= -math.pi:
        b = math.pi
    return b


def _amplitude(theta, phi):
    return np.hypot(np.cos(theta) * np.cos(phi), np.sin(theta) * np.sin(phi))


def min_gap(theta, phi):
    """Closed-form gap ``arccos A`` to w = 0 and to w = +-pi alike (module
    docstring); broadcasts over array-valued angles."""
    return np.arccos(np.clip(_amplitude(theta, phi), -1.0, 1.0))


def scan_gap_map(n: int = DEFAULT_MAP_GRID) -> GapMap:
    """Closed-form gap map over an inclusive ``n`` x ``n`` grid covering [-pi, pi]^2."""
    axis = np.linspace(-math.pi, math.pi, n)
    return GapMap(axis=axis, gap=min_gap(axis[:, None], axis[None, :]))


def _candidate_nodes(grid: int) -> np.ndarray:
    """The mesh node nearest each quarter turn, in increasing order, valued
    as ``np.linspace(-pi, pi, grid)`` values them: ``i * step + -pi``, and pi
    at the last node."""
    step = 2.0 * math.pi / (grid - 1)
    idx = np.array([round((turn + math.pi) / step) for turn in _QUARTER_TURNS])
    return np.where(idx == grid - 1, math.pi, idx * step + -math.pi)


def enumerate_closures(grid: int = DEFAULT_GRID) -> list[GapClosure]:
    """All gap closures on the closed square [-pi, pi]^2.

    Scans an inclusive ``grid`` x ``grid`` mesh and reports one
    :class:`GapClosure` per (closed cell, band); a closed cell is one whose
    gap is 0 in doubles, and each is its own closure point (module docstring).

    Only the cells where both angles are candidate nodes of the module
    docstring are evaluated, so time and memory do not grow with ``grid``.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be >= {MIN_GRID} per axis")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be <= {MAX_GRID} per axis")

    nodes = _candidate_nodes(grid)  # phi runs over the same nodes
    amp = _amplitude(nodes[:, None], nodes[None, :])

    closures: list[GapClosure] = []
    for i, j in np.argwhere(amp >= 1.0):
        th, ph = float(nodes[i]), float(nodes[j])
        delta = math.atan2(math.sin(th) * math.sin(ph), math.cos(th) * math.cos(ph))
        # both bands' gaps are the same arccos A
        closures.append(GapClosure(th, ph, canonical_angle(-delta), BAND_ZERO))
        closures.append(GapClosure(th, ph, canonical_angle(math.pi - delta), BAND_PI))
    closures.sort(key=lambda c: (c.theta, c.phi, c.band))
    return closures


def closure_points(closures: list[GapClosure]) -> list[tuple[float, float]]:
    """Distinct closure locations on the closed square, each counted once
    regardless of how many bands close there: each is one mesh node."""
    return sorted({(c.theta, c.phi) for c in closures})


def canonical_points(closures: list[GapClosure]) -> list[tuple[float, float]]:
    """Distinct closure locations after identifying angles modulo 2*pi; the
    +-pi edges meet exactly, as ``canonical_angle(-pi)`` is pi."""
    return sorted({(canonical_angle(c.theta), canonical_angle(c.phi)) for c in closures})


def assert_no_boundary(closures: list[GapClosure]) -> bool:
    """True iff every closure is isolated: the gap reopens in every direction.

    Probes ``_PROBE_DIRECTIONS`` rays at each radius in ``_PROBE_RADII``
    around each closure point, by one call of :func:`min_gap` on arrays of
    every probe point; a closure lying on a curve of closures (a
    phase-transition line) keeps the gap at zero along the curve and fails
    the probe.
    """
    points = np.array(closure_points(closures), dtype=np.float64).reshape(-1, 1, 1, 2)
    angles = 2.0 * math.pi * np.arange(_PROBE_DIRECTIONS) / _PROBE_DIRECTIONS
    r = np.asarray(_PROBE_RADII, dtype=np.float64)[:, None]
    gap = min_gap(points[..., 0] + r * np.cos(angles), points[..., 1] + r * np.sin(angles))
    return not bool(np.any(gap <= TOL))


def closures_to_dict(closures: list[GapClosure], grid: int) -> dict:
    """JSON-ready survey record reporting both counting conventions."""
    points = closure_points(closures)
    return {
        "closures": [
            {
                "theta": c.theta,
                "phi": c.phi,
                "canonical_theta": canonical_angle(c.theta),
                "canonical_phi": canonical_angle(c.phi),
                "k_star": c.k_star,
                "band": c.band,
            }
            for c in closures
        ],
        "closure_points": [list(p) for p in points],
        "count_points": len(points),
        "count_points_mod_2pi": len(canonical_points(closures)),
        "count_point_band_pairs": len(closures),
        "grid": grid,
        "tol": TOL,
    }


def gap_map_to_csv(gm: GapMap, path) -> None:
    """Long-format ``theta,phi,gap_zero,gap_pi`` rows, phi varying fastest;
    the one gap fills both gap columns."""
    n, gap = gm.axis.size, gm.gap.ravel()
    write_csv(path, ["theta", "phi", "gap_zero", "gap_pi"], [np.repeat(gm.axis, n), np.tile(gm.axis, n), gap, gap])
