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
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "CoinRotation",
    "CoinSpec",
    "su2_parts",
    "compose",
    "unitarity_error",
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


def _is_number(value) -> bool:
    """JSON numbers only: ``bool`` is an ``int`` subclass but not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        # a component past 2 puts the norm past 1 + tol; rejecting it first
        # keeps the squares from overflowing
        if max(map(abs, ax)) > 2.0:
            raise ValueError(f"axis {ax!r} is far from unit length")
        norm = math.sqrt(ax[0] ** 2 + ax[1] ** 2 + ax[2] ** 2)
        if abs(norm - 1.0) > _AXIS_NORM_TOL:
            raise ValueError(f"axis norm {norm!r} differs from 1 by more than {_AXIS_NORM_TOL}")
        object.__setattr__(self, "axis", (ax[0] / norm, ax[1] / norm, ax[2] / norm))
        object.__setattr__(self, "angle", _wrap_angle(self.angle))

    def to_dict(self) -> dict:
        return {"axis": list(self.axis), "angle_rad": self.angle}


@dataclass(frozen=True)
class CoinSpec:
    """Ordered list of coin rotations; ``rotations[0]`` is applied first.
    They are composed once, here, into the ``(c, s_x, s_y, s_z)`` that
    :func:`su2_parts` and :func:`compose` read."""

    rotations: tuple[CoinRotation, ...]
    parts: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rots = tuple(self.rotations)
        if not rots:
            raise ValueError("a coin needs at least one rotation")
        if not all(isinstance(r, CoinRotation) for r in rots):
            raise TypeError("rotations must be CoinRotation instances")
        object.__setattr__(self, "rotations", rots)
        object.__setattr__(self, "parts", _unit_quaternion(rots))

    def to_dicts(self) -> list[dict]:
        return [r.to_dict() for r in self.rotations]

    @classmethod
    def from_dicts(cls, records: list[dict]) -> "CoinSpec":
        """Build from serialised records ``{"axis": [nx, ny, nz], "angle_rad"|"angle_deg": a}``.

        Every axis component and angle must be a number (an ``int`` that is
        not a ``bool``, or a ``float``); strings, booleans and nulls are rejected,
        and so is anything but a list of records.
        """
        if not isinstance(records, list):
            raise ValueError(f"a coin file is a list of rotation records, got {type(records).__name__}")
        rotations = []
        for i, rec in enumerate(records):
            try:
                axis = rec["axis"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"rotation {i}: missing 'axis'") from exc
            if not isinstance(axis, (list, tuple)) or not all(map(_is_number, axis)):
                raise ValueError(f"rotation {i}: axis must be a list of numbers, got {axis!r}")
            if "angle_rad" in rec and "angle_deg" in rec:
                raise ValueError(f"rotation {i}: give angle_rad or angle_deg, not both")
            key = "angle_rad" if "angle_rad" in rec else "angle_deg"
            if key not in rec:
                raise ValueError(f"rotation {i}: missing 'angle_rad' or 'angle_deg'")
            if not _is_number(rec[key]):
                raise ValueError(f"rotation {i}: {key} must be a number, got {rec[key]!r}")
            angle = float(rec[key]) if key == "angle_rad" else math.radians(float(rec[key]))
            rotations.append(CoinRotation(tuple(axis), angle))
        return cls(tuple(rotations))


def _unit_quaternion(rotations: tuple[CoinRotation, ...]) -> tuple[float, float, float, float]:
    """The rotations multiplied as unit quaternions, later ones from the left:

        (a + i p.sigma)(c + i s.sigma) = (ac - p.s) + i (as + cp - p x s).sigma

    and the product divided by its norm once, so the coin is unit to a few
    ulp however many rotations it has.
    """
    c, sx, sy, sz = 1.0, 0.0, 0.0, 0.0
    for rot in rotations:
        a = math.cos(rot.angle)
        sin_a = math.sin(rot.angle)
        px, py, pz = (sin_a * n for n in rot.axis)
        c, sx, sy, sz = (
            a * c - (px * sx + py * sy + pz * sz),
            a * sx + c * px - (py * sz - pz * sy),
            a * sy + c * py - (pz * sx - px * sz),
            a * sz + c * pz - (px * sy - py * sx),
        )
    norm = math.hypot(c, sx, sy, sz)
    return c / norm, sx / norm, sy / norm, sz / norm


def su2_parts(spec: CoinSpec) -> tuple[float, NDArray[np.float64]]:
    """Parts ``(c, s)`` of the full coin ``C = c I + i (s . sigma)``, ``c^2 + |s|^2 = 1``."""
    return spec.parts[0], np.array(spec.parts[1:])


def compose(spec: CoinSpec) -> NDArray[np.complex128]:
    """Matrix of the full coin, ``[[c + i s_z, s_y + i s_x], [-s_y + i s_x, c - i s_z]]``."""
    c, sx, sy, sz = spec.parts
    return np.array([[complex(c, sz), complex(sy, sx)], [complex(-sy, sx), complex(c, -sz)]])


def unitarity_error(mat: NDArray[np.complex128]) -> float:
    """``max|m^dag m - I|``: how far rounding has moved ``mat`` off unitarity."""
    mat = np.asarray(mat, dtype=np.complex128)
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(2))))


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
