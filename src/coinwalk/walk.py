"""Exact position-space evolution of the walker+coin state.

One step applies the composite coin at every site and then shifts the
coin-0 amplitude one site to the right and the coin-1 amplitude one site to
the left.  The support of a t-step walk from site x0 is the light cone
[x0 - t, x0 + t], and within it only the parity sublattice
x = x0 - t (mod 2) is occupied.  The kernel stores and updates just those
t + 1 sites, with no truncation or pruning anywhere: the evolution is exact
up to float rounding.  Returned states still cover the whole light cone, with
exact zeros on the empty sublattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import CoinSpec, compose
from .export import write_csv

__all__ = [
    "InitialCondition",
    "WalkerState",
    "MomentSeries",
    "step",
    "evolve",
    "distribution",
    "moments",
    "moment_series",
    "fit_window",
    "loglog_slope",
    "distribution_to_csv",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class InitialCondition:
    """Walker at one site with a normalised two-component coin state."""

    coin_state: NDArray[np.complex128]
    position: int = 0

    def __post_init__(self) -> None:
        vec = np.asarray(self.coin_state, dtype=np.complex128).reshape(-1)
        if vec.shape != (2,):
            raise ValueError(f"coin_state must have 2 components, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"coin_state components must be finite, got {vec.tolist()!r}")
        # a real or imaginary part past 2 puts norm^2 past 1 + tol; rejecting
        # it first keeps the squares from overflowing
        if any(abs(z.real) > 2.0 or abs(z.imag) > 2.0 for z in vec.tolist()):
            raise ValueError(f"coin_state {vec.tolist()!r} is far from unit norm")
        norm_sq = float(np.sum(np.abs(vec) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"coin_state norm^2 = {norm_sq!r} is not 1 within {_NORM_TOL}")
        vec = vec.copy()
        vec.flags.writeable = False
        object.__setattr__(self, "coin_state", vec)
        object.__setattr__(self, "position", int(self.position))

    @classmethod
    def from_bloch(cls, alpha: float, beta: float, position: int = 0) -> "InitialCondition":
        """Coin state ``(cos(alpha/2), e^{i beta} sin(alpha/2))``."""
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not math.isfinite(value):
                raise ValueError(f"Bloch angle {name} must be finite, got {value!r}")
        vec = np.array([math.cos(alpha / 2), np.exp(1j * beta) * math.sin(alpha / 2)])
        return cls(vec, position)


@dataclass
class WalkerState:
    """Amplitudes over the light cone after ``t`` steps.

    ``amplitudes[i, c]`` is the amplitude at site ``offset + i`` with coin
    component ``c``.
    """

    t: int
    offset: int
    amplitudes: NDArray[np.complex128]

    @property
    def positions(self) -> NDArray[np.int64]:
        return self.offset + np.arange(self.amplitudes.shape[0])

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass
class MomentSeries:
    """Position mean / second moment / variance after each step, plus the
    state after the last step when the series comes from a walk run."""

    times: NDArray[np.int64]
    mean: NDArray[np.float64]
    second: NDArray[np.float64]
    final: WalkerState | None = None

    @property
    def variance(self) -> NDArray[np.float64]:
        return self.second - self.mean**2

    def to_csv(self, path) -> None:
        columns = [self.times, self.mean, self.second, self.variance]
        write_csv(path, ["t", "mean", "second", "variance"], columns)


def _advance(sub, offset, mat, steps, observe=None, sums=None):
    """Advance one parity sublattice by ``steps`` walk steps.

    ``sub`` is an (m, 2) array of amplitudes at sites ``offset + 2i``; the
    result is the (m + steps, 2) sublattice at sites ``offset - steps + 2i``.
    Both coin components sit in one flat buffer: coin 1 at a fixed base, so
    its left shift keeps sublattice index i, and coin 0 in a block whose base
    moves down one slot per step, so its right shift is free too.  A step
    then writes the 2x2 coin map's output back into the same slots.

    After step k, ``observe(k, offset - k, amps)`` gets a read-only (m + k, 2)
    view, and ``sums = (mean, second)`` receives ``sum x p`` and
    ``sum x^2 p`` at index k, reduced with absolute site positions.
    """
    m = sub.shape[0]
    width = m + steps
    flat = np.zeros(2 * width, dtype=np.complex128)
    flat[steps:width] = sub[:, 0]
    flat[width : width + m] = sub[:, 1]
    c00, c01, c10, c11 = mat.ravel()
    scratch = np.empty((3, width), dtype=np.complex128)
    if sums is not None:
        mean, second = sums
        floats = flat.view(np.float64)
        squares = np.empty(4 * width)
        x = offset - steps + np.arange(2 * width - 1, dtype=np.float64)  # every site ever reached
        # x and x^2 per parity class, each repeated for the real and imaginary part
        weights = [np.repeat(np.stack((x[p::2], x[p::2] ** 2)), 2, axis=1) for p in (0, 1)]
    for k in range(1, steps + 1):
        # after this step: coin 0 at flat[lo:width], coin 1 at flat[width:width + n]
        lo, n = steps - k, m + k
        a0, a1 = flat[lo + 1 : width], flat[width : width + n - 1]
        s0, s1, s2 = scratch[:, : n - 1]
        # products go to scratch, never in place: numpy rounds a one-element
        # in-place complex product differently from the same product elsewhere
        np.multiply(a0, c00, out=s0)
        np.multiply(a1, c01, out=s1)
        np.multiply(a0, c10, out=s2)
        np.add(s0, s1, out=a0)
        np.multiply(a1, c11, out=s0)
        np.add(s2, s0, out=a1)
        if observe is not None:
            view = flat[lo : lo + 2 * n].reshape(2, n).T
            view.flags.writeable = False
            observe(k, offset - k, view)
        if sums is not None:
            # block site i is x[lo + 2i], entry lo // 2 + i of its parity class
            w = weights[lo % 2][:, 2 * (lo // 2) : 2 * (lo // 2 + n)]
            block = floats[2 * lo : 2 * (lo + 2 * n)]
            sq = squares[: 4 * n]
            np.multiply(block, block, out=sq)
            probs, tmp = sq[: 2 * n], sq[2 * n :]
            probs += tmp  # site probabilities, split into real and imaginary parts
            np.multiply(probs, w[0], out=tmp)
            mean[k] = tmp.sum()
            np.multiply(probs, w[1], out=tmp)
            second[k] = tmp.sum()
    return flat.reshape(2, width).T.copy()


def _light_cone(t: int, offset: int, sub: NDArray[np.complex128]) -> WalkerState:
    """Full light-cone state from the occupied sublattice at sites ``offset + 2i``."""
    amps = np.zeros((2 * sub.shape[0] - 1, 2), dtype=np.complex128)
    amps[0::2] = sub
    return WalkerState(t=t, offset=offset, amplitudes=amps)


def step(state: WalkerState, coin: CoinSpec) -> WalkerState:
    """One walk step; returns a new state, leaving the input untouched.

    ``state`` may occupy both parity classes; each is advanced on its own.
    """
    mat = compose(coin)
    amps = np.zeros((state.amplitudes.shape[0] + 2, 2), dtype=np.complex128)
    for parity in (0, 1):
        amps[parity::2] = _advance(state.amplitudes[parity::2], state.offset + parity, mat, 1)
    return WalkerState(t=state.t + 1, offset=state.offset - 1, amplitudes=amps)


def evolve(init: InitialCondition, coin: CoinSpec, steps: int, observe=None) -> WalkerState:
    """Apply ``steps`` walk steps to a point-localised initial state.

    ``observe(t, offset, amps)``, if given, is called after every step with a
    read-only (t + 1, 2) view of the occupied sublattice, sites
    ``offset + 2i``; it must not hold on to ``amps``.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    sub = _advance(init.coin_state.reshape(1, 2), init.position, compose(coin), steps, observe)
    return _light_cone(steps, init.position - steps, sub)


def _site_probabilities(state: WalkerState) -> NDArray[np.float64]:
    return np.sum(np.abs(state.amplitudes) ** 2, axis=1)


def distribution(state: WalkerState) -> dict[int, float]:
    """Map each support site to its probability (coin traced out)."""
    return {int(x): float(p) for x, p in zip(state.positions, _site_probabilities(state))}


def moments(state: WalkerState) -> tuple[float, float]:
    """Exact ``(<x>, <x^2>)`` summed over the support."""
    probs = _site_probabilities(state)
    x = state.positions.astype(np.float64)
    return float(np.sum(x * probs)), float(np.sum(x * x * probs))


def moment_series(init: InitialCondition, coin: CoinSpec, steps: int) -> MomentSeries:
    """Mean and second moment after every step from 0 through ``steps``,
    reduced inside one kernel run; the series carries the final state."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    mean = np.empty(steps + 1)
    second = np.empty(steps + 1)
    mean[0] = init.position
    second[0] = init.position**2
    sub = _advance(
        init.coin_state.reshape(1, 2), init.position, compose(coin), steps, sums=(mean, second)
    )
    return MomentSeries(
        times=np.arange(steps + 1, dtype=np.int64),
        mean=mean,
        second=second,
        final=_light_cone(steps, init.position - steps, sub),
    )


def fit_window(steps: int) -> NDArray[np.int64]:
    """Times ``[max(1, steps // 10), steps]`` over which the log-log variance slope is fitted."""
    return np.arange(max(1, steps // 10), steps + 1)


def loglog_slope(variance: NDArray[np.float64]) -> float | None:
    """Least-squares slope of log Var against log t over :func:`fit_window`, for
    ``variance[t]`` at t = 0 .. steps.  ``None`` when the window has fewer than
    2 points or the variance vanishes inside it."""
    window = fit_window(len(variance) - 1)
    var = variance[window]
    if window.size < 2 or not np.all(var > 0):
        return None
    return float(np.polyfit(np.log(window), np.log(var), 1)[0])


def distribution_to_csv(state: WalkerState, path) -> None:
    """Long-format ``t,x,p`` rows over the support of ``state``."""
    x = state.positions
    write_csv(path, ["t", "x", "p"], [np.full(x.shape, state.t), x, _site_probabilities(state)])
