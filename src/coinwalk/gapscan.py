"""Gap survey of the (theta, phi) parameter square for the x/y two-rotation walk.

The coin ``R_x(phi) R_y(theta)`` gives the dispersion argument

    cos w(k) = cos k cos(theta) cos(phi) - sin k sin(theta) sin(phi)
             = A cos(k + d),

with amplitude ``A = hypot(cos theta cos phi, sin theta sin phi)`` and phase
``d = atan2(sin theta sin phi, cos theta cos phi)``.  The band therefore
sweeps ``[arccos A, pi - arccos A]``: the gap at w = 0 and the gap at
w = +-pi are both ``arccos A``, and they close exactly where A = 1, at
isolated parameter points.  The tests check the closed form against a
brute-force sampled minimiser over k.

Closure points are enumerated on the closed square [-pi, pi]^2 (the +-pi
edges are geometrically distinct there); each point is reported once even
when both bands close on it, and the mod-2pi identification of the edges is
reported separately.

The enumeration screens one axis at a time.  With a = cos^2 theta and
b = cos^2 phi, ``1 - A^2 = a (1 - b) + (1 - a) b >= min(a, 1 - a)``, and the
same with theta and phi swapped, so a closure can only sit where both angles
lie on a line with ``min(cos^2, sin^2)`` close to 0.  Only the grid lines
that pass this screen are crossed and evaluated: O(grid) work and memory
instead of a ``grid`` x ``grid`` mesh, with the same hits.
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

# enumerate_closures: defaults and the bounds it enforces
DEFAULT_GRID = 721
DEFAULT_TOL = 1e-8
MIN_GRID = 181
MAX_TOL = 1e-6
# scan_gap_map: default points per axis
DEFAULT_MAP_GRID = 181

_POINT_MERGE_TOL = 1e-6

# A hit needs arccos(A) < tol <= MAX_TOL, so 1 - A^2 <= arccos(A)^2 < 1e-12, and
# 1 - A^2 >= min(cos^2, sin^2) of either angle (module docstring).  Keeping
# every grid line with min(cos^2, sin^2) <= 1e-9 leaves three orders of
# magnitude for rounding.
_LINE_SCREEN = 1e-9


@dataclass(frozen=True)
class GapClosure:
    """One (parameter point, band) at which the quasi-energy gap closes."""

    theta: float
    phi: float
    k_star: float
    band: str


@dataclass(frozen=True)
class GapMap:
    """Minimum gap to w=0 and to w=+-pi over inclusive uniform parameter grids."""

    theta_grid: np.ndarray
    phi_grid: np.ndarray
    gap_zero: np.ndarray  # shape (len(theta_grid), len(phi_grid))
    gap_pi: np.ndarray


def canonical_angle(a: float) -> float:
    """Representative of ``a`` modulo 2*pi in (-pi, pi]."""
    b = math.remainder(float(a), 2.0 * math.pi)
    if b <= -math.pi:
        b = math.pi
    return b


def _amplitude(theta, phi):
    return np.hypot(np.cos(theta) * np.cos(phi), np.sin(theta) * np.sin(phi))


def min_gap(theta: float, phi: float):
    """Closed-form ``(gap_zero, gap_pi)``; both equal ``arccos A`` (see module docstring)."""
    g = np.arccos(np.clip(_amplitude(theta, phi), -1.0, 1.0))
    return g, g


def scan_gap_map(n_theta: int = DEFAULT_MAP_GRID, n_phi: int = DEFAULT_MAP_GRID) -> GapMap:
    """Closed-form gap map over inclusive grids covering [-pi, pi]."""
    theta = np.linspace(-math.pi, math.pi, n_theta)
    phi = np.linspace(-math.pi, math.pi, n_phi)
    g = np.arccos(np.clip(_amplitude(theta[:, None], phi[None, :]), -1.0, 1.0))
    return GapMap(theta_grid=theta, phi_grid=phi, gap_zero=g, gap_pi=g.copy())


def _cluster_cells(cells: list[tuple[int, int]], radius: int = 2) -> list[list[tuple[int, int]]]:
    """Group grid hits whose Chebyshev distance is <= radius."""
    remaining = set(cells)
    clusters = []
    while remaining:
        seed = remaining.pop()
        group = [seed]
        frontier = [seed]
        while frontier:
            ci, cj = frontier.pop()
            near = [
                cell
                for cell in remaining
                if abs(cell[0] - ci) <= radius and abs(cell[1] - cj) <= radius
            ]
            for cell in near:
                remaining.remove(cell)
                group.append(cell)
                frontier.append(cell)
        clusters.append(group)
    return clusters


def _closure_lines(cos_a, sin_a) -> np.ndarray:
    """Sorted indices of the grid lines that can hold a closure (see ``_LINE_SCREEN``)."""
    return np.flatnonzero(np.minimum(cos_a * cos_a, sin_a * sin_a) <= _LINE_SCREEN)


def enumerate_closures(grid: int = DEFAULT_GRID, tol: float = DEFAULT_TOL) -> list[GapClosure]:
    """All gap closures on the closed square [-pi, pi]^2.

    Scans an inclusive ``grid`` x ``grid`` mesh, merges grid-adjacent hits,
    and reports one :class:`GapClosure` per (parameter point, band).  A
    cluster wider than the merge radius means ``tol`` is blurring distinct
    closures together and raises.

    Only the mesh cells where both angles pass the line screen of the module
    docstring are evaluated, so time and memory grow with ``grid``, not
    ``grid**2``; every other cell has ``1 - A^2 > 1e-9`` and cannot be a hit.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be >= {MIN_GRID} per axis")
    if not 0.0 < tol <= MAX_TOL:
        raise ValueError(f"tol must be in (0, {MAX_TOL}]")

    theta = np.linspace(-math.pi, math.pi, grid)  # phi runs over the same grid
    lines = _closure_lines(np.cos(theta), np.sin(theta))
    amp = _amplitude(theta[lines, None], theta[None, lines])
    gap = np.arccos(np.clip(amp, -1.0, 1.0))
    # map block hits back to mesh cells; ``lines`` is sorted, so they stay row-major
    amp_at = {(int(lines[i]), int(lines[j])): amp[i, j] for i, j in np.argwhere(gap < tol)}

    closures: list[GapClosure] = []
    for group in _cluster_cells(list(amp_at), radius=2):
        rows = [c[0] for c in group]
        cols = [c[1] for c in group]
        if max(rows) - min(rows) > 4 or max(cols) - min(cols) > 4:
            raise ValueError(
                f"tol={tol} merges {len(group)} cells spanning several closures; lower it"
            )
        best = max(group, key=amp_at.__getitem__)
        th, ph = float(theta[best[0]]), float(theta[best[1]])
        delta = math.atan2(math.sin(th) * math.sin(ph), math.cos(th) * math.cos(ph))
        # the best cell is a hit, and both bands' gaps are the same arccos A
        closures.append(GapClosure(th, ph, canonical_angle(-delta), BAND_ZERO))
        closures.append(GapClosure(th, ph, canonical_angle(math.pi - delta), BAND_PI))
    closures.sort(key=lambda c: (c.theta, c.phi, c.band))
    return closures


def _dedupe(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for p in sorted(points):
        if not any(abs(p[0] - q[0]) <= _POINT_MERGE_TOL and abs(p[1] - q[1]) <= _POINT_MERGE_TOL for q in out):
            out.append(p)
    return out


def closure_points(closures: list[GapClosure]) -> list[tuple[float, float]]:
    """Distinct closure locations on the closed square, each counted once
    regardless of how many bands close there."""
    return _dedupe([(c.theta, c.phi) for c in closures])


def canonical_points(closures: list[GapClosure]) -> list[tuple[float, float]]:
    """Distinct closure locations after identifying angles modulo 2*pi."""
    return _dedupe(
        [(canonical_angle(c.theta), canonical_angle(c.phi)) for c in closures]
    )


def assert_no_boundary(
    closures: list[GapClosure],
    gap_fn=None,
    tol: float = DEFAULT_TOL,
    radii=(0.02, 0.04, 0.06, 0.08, 0.1),
    n_directions: int = 16,
) -> bool:
    """True iff every closure is isolated: the gap reopens in every direction.

    Probes ``n_directions`` rays at each radius in ``radii`` around each
    closure point; a closure lying on a curve of closures (a phase-transition
    line) keeps the gap at zero along the curve and fails the probe.
    ``gap_fn(theta, phi)`` defaults to the closed-form minimum gap; it is
    called once, on arrays of every probe point, so it must broadcast.
    """
    if gap_fn is None:
        gap_fn = lambda th, ph: min_gap(th, ph)[0]  # noqa: E731
    points = np.array(closure_points(closures), dtype=np.float64).reshape(-1, 1, 1, 2)
    angles = 2.0 * math.pi * np.arange(n_directions) / n_directions
    r = np.asarray(radii, dtype=np.float64)[:, None]
    gap = gap_fn(points[..., 0] + r * np.cos(angles), points[..., 1] + r * np.sin(angles))
    return not bool(np.any(np.asarray(gap) <= tol))


def closures_to_dict(closures: list[GapClosure], grid: int | None = None, tol: float | None = None) -> dict:
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
        "tol": tol,
    }


def gap_map_to_csv(gm: GapMap, path) -> None:
    """Long-format ``theta,phi,gap_zero,gap_pi`` rows, phi varying fastest."""
    theta = np.repeat(gm.theta_grid, gm.phi_grid.size)
    phi = np.tile(gm.phi_grid, gm.theta_grid.size)
    columns = [theta, phi, gm.gap_zero.ravel(), gm.gap_pi.ravel()]
    write_csv(path, ["theta", "phi", "gap_zero", "gap_pi"], columns)
