"""Exact position-space evolution of the walker+coin state.

One step applies the composite coin at every site and then shifts the
coin-0 amplitude one site to the right and the coin-1 amplitude one site to
the left.  The support of a t-step walk from site x0 is the light cone
[x0 - t, x0 + t], and within it only the parity sublattice
x = x0 - t (mod 2) is occupied.  The kernel stores and updates just those
t + 1 sites, with no truncation or pruning anywhere: the evolution is exact
up to float rounding.  Returned states still cover the whole light cone, with
exact zeros on the empty sublattice.

The step loop runs as compiled C (``_walk.c``), from the package's compiled
library (``_native``).  Where that library did not build or load, the same
loop runs in numpy; :func:`kernel_name` says which one runs.  Both map in plain
IEEE doubles and agree to the last few digits; each is deterministic.  Every
step also reduces the moments over displacements from the start site, which
are exact integers, and ``moment_series`` adds the start site once, so the
variance does not depend on where the walk starts.

The compiled loop maps every site pair in two-lane vectors (SSE2, NEON), two
pairs at a time, each lane running the same operations on its own pair, and
sums the pairs' terms in site order; so the bytes do not depend on the lane or
the block a pair falls in.  It takes each step's pairs in blocks of 8.  A
block of plain pairs, neither four zeros nor all four components below 2^-511,
is mapped whole, at about 6 ns per pair on one thread (a 2-vCPU x86-64 VM).
In any other block each pair goes on its own: a pair whose four components all
lie below 2^-511 is scaled up against subnormals and mapped as a block of one
pair, and a pair of four zeros is skipped.

A compiled walk of at least 512 steps, in a process that may run on two CPUs
or more, runs in two stages on two threads: one maps the lower half of each
step's sites and the other the upper half, carrying on the first one's sums.
Every operation and every sum's order is the one-thread loop's, so the bytes
do not depend on the number of stages or of CPUs, and no manifest records
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._native import library
from .coins import CoinSpec, compose
from .export import write_csv

__all__ = [
    "InitialCondition",
    "WalkerState",
    "MomentSeries",
    "evolve",
    "moment_series",
    "kernel_name",
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


@dataclass
class MomentSeries:
    """Position mean / second moment / variance and total probability ``norm``
    after each step, plus the state after the last step when the series comes
    from a walk run.  ``variance`` is reduced from the displacements, so it
    holds no cancellation against the start site."""

    times: NDArray[np.int64]
    mean: NDArray[np.float64]
    second: NDArray[np.float64]
    variance: NDArray[np.float64]
    norm: NDArray[np.float64]
    final: WalkerState | None = None

    @property
    def max_norm_drift(self) -> float:
        """``max_t |norm[t] - 1|``: how far rounding moved the walk off unitarity."""
        return float(np.max(np.abs(self.norm - 1.0)))

    def to_csv(self, path) -> None:
        columns = [self.times, self.mean, self.second, self.variance]
        write_csv(path, ["t", "mean", "second", "variance"], columns)


def _kernel():
    """The compiled step loop, or ``None`` where the library did not load."""
    lib = library()
    return None if lib is None else lib.coinwalk_advance


def kernel_name() -> str:
    """``"compiled"`` or ``"numpy"``: the step loop this process runs."""
    return "numpy" if _kernel() is None else "compiled"


def _advance(init: InitialCondition, coin: CoinSpec, steps: int):
    """Walk ``steps`` steps from ``init``; returns the light-cone state and a
    (3, steps + 1) array of ``sum p``, ``sum d p`` and ``sum d^2 p`` after
    each step, over the displacements d from the start site.

    Only the sublattice at sites ``x0 - t + 2i`` is stored: after step k it
    holds k + 1 sites.  Both coin components sit in one flat buffer: coin 1
    at a fixed base, so its left shift keeps sublattice index i, and coin 0 in
    a block whose base moves down one slot per step, so its right shift is
    free too.  A step then writes the 2x2 coin map's output back into the
    same slots.  The compiled kernel runs the steps when it loaded; the numpy
    loop below is its fallback and its test oracle.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    width = steps + 1
    flat = np.zeros(2 * width, dtype=np.complex128)
    flat[steps], flat[width] = init.coin_state
    coin_mat = np.ascontiguousarray(compose(coin), dtype=np.complex128)
    sums = np.zeros((3, width))  # at t = 0 every displacement is 0
    sums[0, 0] = np.sum(np.abs(init.coin_state) ** 2)  # within 1e-12 of 1, not 1 itself
    kernel = _kernel()
    if kernel is not None:
        kernel(flat.ctypes.data, steps, coin_mat.ctypes.data, sums.ctypes.data)
    else:
        _numpy_steps(flat, coin_mat, steps, sums)
    # the empty parity class holds exact zeros
    amps = np.zeros((2 * width - 1, 2), dtype=np.complex128)
    amps[0::2] = flat.reshape(2, width).T
    return WalkerState(t=steps, offset=init.position - steps, amplitudes=amps), sums


def _numpy_steps(flat, coin_mat, steps, sums) -> None:
    """The step loop of ``_walk.c`` in numpy, with the same arguments."""
    width = steps + 1
    c00, c01, c10, c11 = coin_mat.ravel()
    scratch = np.empty((3, width), dtype=np.complex128)
    floats = flat.view(np.float64)
    work = np.empty(6 * width)
    x = np.arange(-steps, steps + 1, dtype=np.float64)  # every displacement ever reached
    # x and x^2 per parity class, each repeated for the real and imaginary part
    weights = [np.repeat(np.stack((x[p::2], x[p::2] ** 2)), 2, axis=1) for p in (0, 1)]
    for k in range(1, width):
        # after this step: coin 0 at flat[lo:width], coin 1 at flat[width:width + n]
        lo, n = steps - k, k + 1
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
        # block site i is displaced x[lo + 2i], entry lo // 2 + i of its parity class
        w = weights[lo % 2][:, 2 * (lo // 2) : 2 * (lo // 2 + n)]
        block = floats[2 * lo : 2 * (lo + 2 * n)]
        # rows p, x p and x^2 p, split into real and imaginary parts; the
        # squares of the block fill the last two rows first
        terms = work[: 6 * n].reshape(3, 2 * n)
        np.multiply(block, block, out=work[2 * n : 6 * n])
        np.add(terms[1], terms[2], out=terms[0])
        np.multiply(w, terms[0], out=terms[1:])
        # one reduction call sums each row on its own, as a 1-D sum would
        np.add.reduce(terms, axis=1, out=sums[:, k])


def evolve(init: InitialCondition, coin: CoinSpec, steps: int) -> WalkerState:
    """Apply ``steps`` walk steps to a point-localised initial state, and drop
    the moment sums that :func:`moment_series` returns beside it."""
    return _advance(init, coin, steps)[0]


def moment_series(init: InitialCondition, coin: CoinSpec, steps: int) -> MomentSeries:
    """Total probability, mean, second moment and variance after every step
    from 0 through ``steps``, reduced inside one kernel run; the series carries
    the final state.  The start site x0 enters the mean and the second moment
    only, added once to the displacement sums."""
    final, (norm, dp, ddp) = _advance(init, coin, steps)
    x0 = float(init.position)
    return MomentSeries(
        times=np.arange(steps + 1, dtype=np.int64),
        mean=x0 * norm + dp,
        second=(x0 * x0) * norm + (2 * x0) * dp + ddp,
        variance=ddp - dp**2,
        norm=norm,
        final=final,
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
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    write_csv(path, ["t", "x", "p"], [np.full(x.shape, state.t), x, p])
