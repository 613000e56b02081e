"""SU(2) coin operators for one-dimensional two-state quantum walks.

A coin is an ordered product of axis-angle rotations ``exp(i*angle*(n.sigma))``
acting on the internal two-level degree of freedom of the walker.  Rotations
are stored in application order: ``rotations[0]`` acts on the coin state
first.  The composite of any number of rotations is again SU(2) (unitary with
unit determinant), which is the only requirement the rest of the toolkit
places on a coin.

Named presets
-------------
- ``identity``:          single zero-angle rotation
- ``sigma_x``:           ``R_x(pi/2)`` = ``i*sigma_x`` (sigma_x up to phase)
- ``hadamard_analog``:   ``R_y(pi/4)``, the balanced real coin
- ``paper_xy``:          ``R_x(phi) . R_y(theta)`` (y-rotation applied first)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "CoinRotation",
    "CoinSpec",
    "rotation_matrix",
    "compose",
    "check_unitary",
    "sigma_x_distance",
    "preset_coin",
    "random_coin_spec",
    "PRESET_NAMES",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

_AXIS_NORM_TOL = 1e-9
_TWO_PI = 2.0 * math.pi

PRESET_NAMES = ("identity", "sigma_x", "hadamard_analog", "paper_xy")


def _wrap_angle(angle: float) -> float:
    # exp(i*a*(n.sigma)) has exact period 2*pi in a, so wrapping is lossless
    return math.remainder(float(angle), _TWO_PI)


@dataclass(frozen=True)
class CoinRotation:
    """One axis-angle rotation of the coin.

    The axis must be a finite unit 3-vector (renormalised if off by at most
    1e-9, rejected otherwise); the angle must be finite and is wrapped into
    [-pi, pi].
    """

    axis: tuple[float, float, float]
    angle: float

    def __post_init__(self) -> None:
        ax = tuple(float(a) for a in self.axis)
        if len(ax) != 3:
            raise ValueError(f"axis must have 3 components, got {len(ax)}")
        if not all(map(math.isfinite, ax)):
            raise ValueError(f"axis components must be finite, got {ax!r}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle!r}")
        norm = math.sqrt(ax[0] ** 2 + ax[1] ** 2 + ax[2] ** 2)
        if abs(norm - 1.0) > _AXIS_NORM_TOL:
            raise ValueError(f"axis norm {norm!r} differs from 1 by more than {_AXIS_NORM_TOL}")
        object.__setattr__(self, "axis", (ax[0] / norm, ax[1] / norm, ax[2] / norm))
        object.__setattr__(self, "angle", _wrap_angle(self.angle))

    def to_dict(self) -> dict:
        return {"axis": list(self.axis), "angle_rad": self.angle}


@dataclass(frozen=True)
class CoinSpec:
    """Ordered list of coin rotations; ``rotations[0]`` is applied first."""

    rotations: tuple[CoinRotation, ...]

    def __post_init__(self) -> None:
        rots = tuple(self.rotations)
        if not rots:
            raise ValueError("a coin needs at least one rotation")
        if not all(isinstance(r, CoinRotation) for r in rots):
            raise TypeError("rotations must be CoinRotation instances")
        object.__setattr__(self, "rotations", rots)

    def to_dicts(self) -> list[dict]:
        return [r.to_dict() for r in self.rotations]

    @classmethod
    def from_dicts(cls, records: list[dict]) -> "CoinSpec":
        """Build from serialised records ``{"axis": [nx, ny, nz], "angle_rad"|"angle_deg": a}``."""
        rotations = []
        for i, rec in enumerate(records):
            try:
                axis = rec["axis"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"rotation {i}: missing 'axis'") from exc
            if "angle_rad" in rec and "angle_deg" in rec:
                raise ValueError(f"rotation {i}: give angle_rad or angle_deg, not both")
            if "angle_rad" in rec:
                angle = float(rec["angle_rad"])
            elif "angle_deg" in rec:
                angle = math.radians(float(rec["angle_deg"]))
            else:
                raise ValueError(f"rotation {i}: missing 'angle_rad' or 'angle_deg'")
            rotations.append(CoinRotation(tuple(axis), angle))
        return cls(tuple(rotations))


def rotation_matrix(rot: CoinRotation) -> NDArray[np.complex128]:
    """Return ``exp(i*angle*(n.sigma)) = cos(angle)*I + i*sin(angle)*(n.sigma)``.

    Always an SU(2) matrix:

        [[cos a + i*nz*sin a,   (i*nx + ny)*sin a],
         [(i*nx - ny)*sin a,    cos a - i*nz*sin a]]
    """
    nx, ny, nz = rot.axis
    c = math.cos(rot.angle)
    s = math.sin(rot.angle)
    return np.array(
        [
            [c + 1j * nz * s, (1j * nx + ny) * s],
            [(1j * nx - ny) * s, c - 1j * nz * s],
        ],
        dtype=np.complex128,
    )


def compose(spec: CoinSpec) -> NDArray[np.complex128]:
    """Matrix of the full coin: later rotations multiply from the left."""
    mat = rotation_matrix(spec.rotations[0])
    for rot in spec.rotations[1:]:
        mat = rotation_matrix(rot) @ mat
    return mat


def check_unitary(mat: NDArray[np.complex128], tol: float) -> bool:
    """True iff ``max|m^dag m - I| <= tol``."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    mat = np.asarray(mat, dtype=np.complex128)
    dev = mat.conj().T @ mat - np.eye(2)
    return bool(np.max(np.abs(dev)) <= tol)


def sigma_x_distance(mat: NDArray[np.complex128]) -> float:
    """Max-norm distance of a 2x2 matrix from the family ``exp(i*g)*sigma_x``.

    The free phase ``g`` is fitted from the off-diagonal entries, so members
    of the family score ~0 regardless of their global phase.  This family is
    not the only non-spreading one: every coin with ``C00 = 0`` (``sigma_x``
    up to a phase and a z-rotation, e.g. ``i*sigma_y``) is non-spreading, and
    ``i*sigma_y`` scores 2 here.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    off = 0.5 * (mat[0, 1] + mat[1, 0])
    phase = off / abs(off) if abs(off) > 0 else 1.0 + 0.0j
    return float(np.max(np.abs(mat - phase * PAULI_X)))


def preset_coin(name: str, theta: float | None = None, phi: float | None = None) -> CoinSpec:
    """Build one of the named preset coins.

    ``paper_xy`` needs both ``theta`` (y-rotation, applied first) and ``phi``
    (x-rotation, applied second); the other presets take no parameters.
    """
    if name == "identity":
        return CoinSpec((CoinRotation((0.0, 0.0, 1.0), 0.0),))
    if name == "sigma_x":
        return CoinSpec((CoinRotation((1.0, 0.0, 0.0), math.pi / 2),))
    if name == "hadamard_analog":
        return CoinSpec((CoinRotation((0.0, 1.0, 0.0), math.pi / 4),))
    if name == "paper_xy":
        if theta is None or phi is None:
            raise ValueError("preset 'paper_xy' requires theta and phi")
        return CoinSpec(
            (
                CoinRotation((0.0, 1.0, 0.0), theta),
                CoinRotation((1.0, 0.0, 0.0), phi),
            )
        )
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def random_coin_spec(rng: np.random.Generator, n_rotations: int = 2) -> CoinSpec:
    """Draw a coin with ``n_rotations`` rotations: axes uniform on the sphere,
    angles uniform in [-pi, pi]."""
    if n_rotations < 1:
        raise ValueError("n_rotations must be >= 1")
    rotations = []
    for _ in range(n_rotations):
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        angle = rng.uniform(-math.pi, math.pi)
        rotations.append(CoinRotation(tuple(vec), angle))
    return CoinSpec(tuple(rotations))
