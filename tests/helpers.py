"""Shared test utilities: random coin draws, hand-derived closed forms and
slower reference implementations.

The closed forms here (two-rotation ``cos w(k)`` and ``U_k`` entries, band
axes) are written out term by term, independent of the package's matrix
algebra, so they can serve as oracles for it.  The reference implementations
compute the same quantities as the package's fast paths by a different route
(coin composition as a product of rotation matrices, full-width stepping,
a walker state's site distribution and moments summed over its support,
dense ring-lattice evolution, momentum-space powers of the step operator,
eigenbasis expansion, velocity measure sampled on a momentum grid, full-mesh
closure scan, sampled minimum gap).  :func:`thread_census` counts the
threads a piece of work runs beside the caller and leaves behind, and
:func:`worker_env` is the environment of a worker process that imports the
package and this module.
"""

import hashlib
import itertools
import math
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from coinwalk.coins import PAULI_X, PAULI_Y, PAULI_Z, CoinRotation, CoinSpec, compose, random_coin_spec, su2_parts
from coinwalk.gapscan import (
    BAND_PI,
    BAND_ZERO,
    GapClosure,
    _amplitude,
    canonical_angle,
    min_gap,
)
from coinwalk.momentum import DEGENERACY_THRESHOLD, _band_arrays
from coinwalk.walk import InitialCondition, WalkerState, _advance

SIGMA_X_EXCLUSION = 1e-3  # max-norm distance below which a coin counts as sigma_x-like


def sigma_x_distance(mat) -> float:
    """Max-norm distance of a 2x2 matrix from the family ``exp(i*g)*sigma_x``.

    The free phase ``g`` is fitted from the off-diagonal entries, so members
    of the family score ~0 regardless of their global phase.  This family is
    not the only non-spreading one: every coin with ``C00 = 0`` (``sigma_x``
    up to a phase and a z-rotation, e.g. ``i*sigma_y``) is non-spreading, and
    ``i*sigma_y`` scores 2 here.  The package's non-spreading test is
    ``max_speed = |C00| = 0``; this distance only keeps sigma_x-like coins out
    of the random draws.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    off = 0.5 * (mat[0, 1] + mat[1, 0])
    phase = off / abs(off) if abs(off) > 0 else 1.0 + 0.0j
    return float(np.max(np.abs(mat - phase * PAULI_X)))


def random_multirot_coin(rng, min_rot=2, max_rot=4, exclude_sigma_x=None) -> CoinSpec:
    """Random coin with a random number of rotations, optionally rejecting
    coins within ``exclude_sigma_x`` of the sigma_x family."""
    while True:
        spec = random_coin_spec(rng, int(rng.integers(min_rot, max_rot + 1)))
        if exclude_sigma_x is None or sigma_x_distance(compose(spec)) > exclude_sigma_x:
            return spec


def random_coin_state(rng) -> np.ndarray:
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    return vec / np.linalg.norm(vec)


def random_walk_case(seed):
    """``(rng, coin, init)``: a coin of 1 to 4 random rotations and a random
    initial state near the origin, drawn from ``seed``; ``rng`` draws on."""
    rng = np.random.default_rng(seed)
    coin = random_coin_spec(rng, int(rng.integers(1, 5)))
    init = InitialCondition(random_coin_state(rng), position=int(rng.integers(-50, 51)))
    return rng, coin, init


def walk_digest(seed: int, steps: int) -> str:
    """SHA-256 over the bytes of the final amplitudes and of the moment sums
    of a walk of :func:`random_walk_case` ``(seed)``."""
    _, coin, init = random_walk_case(seed)
    state, sums = _advance(init, coin, steps)
    return hashlib.sha256(state.amplitudes.tobytes() + sums.tobytes()).hexdigest()


def two_cpus() -> None:
    """Skip the calling test unless this process may run on two CPUs, where
    the compiled library's two-stage paths run."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this process may run on fewer than 2 CPUs")


def thread_census(work, settle: float = 10.0) -> tuple[int, int]:
    """Run ``work`` on a thread of its own and count the threads of this
    process (``/proc/self/task``) whose ids are new since it started: the most
    seen while it ran, and how many are left once it is joined, polled until
    none is or ``settle`` seconds pass, since ``join`` returns before the OS
    thread leaves the list.  An exception from ``work`` is raised here."""
    tasks = "/proc/self/task"
    if not os.path.isdir(tasks):
        pytest.skip("no /proc/self/task")
    errors = []

    def run():
        try:
            work()
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    before, most = set(os.listdir(tasks)), 0
    worker = threading.Thread(target=run)
    worker.start()
    while worker.is_alive():  # the compiled calls let go of the GIL
        most = max(most, len(set(os.listdir(tasks)) - before))
        time.sleep(0.0005)
    worker.join()
    deadline = time.monotonic() + settle
    while (left := len(set(os.listdir(tasks)) - before)) and time.monotonic() < deadline:
        time.sleep(0.001)
    if errors:
        raise errors[0]
    return most, left


def worker_env() -> dict:
    """The environment of a worker process that imports ``coinwalk`` and ``helpers``."""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def reference_step(amps: np.ndarray, coin_mat: np.ndarray) -> np.ndarray:
    """Full-width walk step: the coin at every site of an (L, 2) array, then
    coin 0 one site right and coin 1 one site left, giving (L + 2, 2).  Both
    parity classes are stored and multiplied, occupied or not."""
    coined = amps @ coin_mat.T
    out = np.zeros((amps.shape[0] + 2, 2), dtype=coined.dtype)
    out[2:, 0] = coined[:, 0]  # coin 0 moves right
    out[:-2, 1] = coined[:, 1]  # coin 1 moves left
    return out


def reference_evolve(coin_state, coin_mat: np.ndarray, steps: int) -> np.ndarray:
    """(2 * steps + 1, 2) light-cone amplitudes from ``steps`` reference steps.

    The steps run in ``np.clongdouble`` and the result is rounded to complex128
    once at the end, so where ``long double`` is wider than double the
    comparison with a kernel measures that kernel's own rounding alone.
    """
    amps = np.asarray(coin_state, dtype=np.complex128).astype(np.clongdouble).reshape(1, 2)
    coin_mat = np.asarray(coin_mat, dtype=np.complex128).astype(np.clongdouble)
    for _ in range(steps):
        amps = reference_step(amps, coin_mat)
    return amps.astype(np.complex128)


def rotation_matrix(rot: CoinRotation) -> np.ndarray:
    """``exp(i*angle*(n.sigma)) = cos(angle)*I + i*sin(angle)*(n.sigma)``, entry by entry."""
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


def matrix_product_coin(spec: CoinSpec) -> np.ndarray:
    """The coin as a product of 2x2 rotation matrices, later rotations from the left."""
    mat = np.eye(2, dtype=np.complex128)
    for rot in spec.rotations:
        mat = rotation_matrix(rot) @ mat
    return mat


def xy_product_entries(theta: float, phi: float) -> np.ndarray:
    """Hand-expanded entries of ``R_x(phi) @ R_y(theta)``."""
    cth, sth = np.cos(theta), np.sin(theta)
    cph, sph = np.cos(phi), np.sin(phi)
    return np.array(
        [
            [cph * cth - 1j * sph * sth, cph * sth + 1j * sph * cth],
            [-cph * sth + 1j * sph * cth, cph * cth + 1j * sph * sth],
        ],
        dtype=np.complex128,
    )


def band_axis_two_rotation(first_axis, first_angle, second_axis, second_angle, k, sin_w):
    """Closed-form band-axis components for a two-rotation coin, written out
    literally (no matrix products).  Defined up to a global sign, which the
    package fixes the opposite way round; see the comparison tests."""
    bx, by, bz = first_axis
    ax, ay, az = second_axis
    th, ph = first_angle, second_angle
    cth, sth = np.cos(th), np.sin(th)
    cph, sph = np.cos(ph), np.sin(ph)
    ck, sk = np.cos(k), np.sin(k)

    nx = (
        -sk * (by * cph * sth + sph * (ay * cth - az * bx * sth + ax * bz * sth))
        + ck * (bx * cph * sth + sph * (ax * cth + az * by * sth - ay * bz * sth))
    ) / sin_w
    ny = (
        (by * ck + bx * sk) * cph * sth
        + ck * sph * (ay * cth + (-az * bx + ax * bz) * sth)
        + sk * sph * (ax * cth + (az * by - ay * bz) * sth)
    ) / sin_w
    nz = (
        (-sk * cph + az * ck * sph) * cth
        + sk * sph * sth * (ax * bx + ay * by + az * bz)
        + ck * (bz * cph + ay * bx * sph - ax * by * sph) * sth
    ) / sin_w
    return np.array([nx, ny, nz])


def uk_matrix(coin: CoinSpec, k: float) -> np.ndarray:
    """Step operator ``U_k = diag(e^{-ik}, e^{ik}) @ C`` by a plain matrix product."""
    return np.diag([np.exp(-1j * k), np.exp(1j * k)]) @ compose(coin)


def band_at(coin: CoinSpec, k):
    """``(omega, n)`` of the coin's band at arbitrary momenta ``k``; the group
    velocity is ``n[..., 2]`` and the rows of ``n`` are NaN at band touchings."""
    return _band_arrays(*su2_parts(coin), k)


def reference_band_arrays(c: float, s: np.ndarray, k):
    """``momentum._band_arrays`` by the row formula it replaced: the three
    components stacked on a last axis, then the degenerate rows set to NaN.
    The same operations in the same order, so the arrays match byte for byte."""
    k = np.asarray(k, dtype=np.float64)
    ck, sk = np.cos(k), np.sin(k)
    omega = np.arccos(np.clip(c * ck + s[2] * sk, -1.0, 1.0))
    mx = ck * s[0] - sk * s[1]
    my = ck * s[1] + sk * s[0]
    mz = ck * s[2] - c * sk
    sin_w = np.sqrt(mx * mx + my * my + mz * mz)
    degenerate = sin_w <= DEGENERACY_THRESHOLD
    safe = np.where(degenerate, 1.0, sin_w)
    n = np.stack([-mx / safe, -my / safe, -mz / safe], axis=-1)
    n = np.where(degenerate[..., None], np.nan, n)
    return omega, n


def bloch_matrix(n) -> np.ndarray:
    """``n . sigma`` for a real 3-vector ``n``."""
    return n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z


def eigvecs_from_bloch(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal +1/-1 eigenvectors of ``n . sigma`` for unit vectors ``n``;
    with the package's sign convention these belong to ``e^{-iw}`` and
    ``e^{+iw}`` of ``U_k``.

    Vectorised over leading axes; two charts keep the construction stable on
    the whole sphere.  Output shape is ``n.shape[:-1] + (2,)``.
    """
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    north = nz >= 0.0

    wn = np.sqrt((1.0 + np.where(north, nz, 0.0)) / 2.0)
    ws = np.sqrt((1.0 - np.where(north, 0.0, nz)) / 2.0)
    # avoid 0/0 in the unused chart
    wn_safe = np.where(north, wn, 1.0)
    ws_safe = np.where(north, 1.0, ws)

    plus0 = np.where(north, wn, (nx - 1j * ny) / (2.0 * ws_safe))
    plus1 = np.where(north, (nx + 1j * ny) / (2.0 * wn_safe), ws)
    minus0 = np.where(north, -(nx - 1j * ny) / (2.0 * wn_safe), ws)
    minus1 = np.where(north, wn, -(nx + 1j * ny) / (2.0 * ws_safe))

    v_plus = np.stack([plus0, plus1], axis=-1)
    v_minus = np.stack([minus0, minus1], axis=-1)
    return v_plus, v_minus


def eigenbasis_integrands(coin, init, grid_size: int):
    """Per-momentum long-time integrands from the eigenbasis expansion.

    On the uniform k-grid, returns ``sum_j |c_kj|^2 <v_kj| sigma_z |v_kj>`` and
    ``sum_j |c_kj|^2 <v_kj| sigma_z |v_kj>^2``, with ``c_kj`` the overlaps of
    the initial coin state with the eigenvectors ``v_kj`` of ``U_k`` (from
    :func:`eigvecs_from_bloch`, built for the whole grid at once).  Their
    grid means are the drift rate and spread coefficient.  A band-touching
    momentum gets the average of the integrands a tenth of a grid spacing to
    either side.
    """
    k = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    c, s = su2_parts(coin)
    phi0 = np.asarray(init.coin_state, dtype=np.complex128)

    def eval_at(kk):
        _, n = _band_arrays(c, s, kk)
        if np.isnan(n).any():
            raise ValueError("band touching inside offset evaluation")
        v_plus, v_minus = eigvecs_from_bloch(n)
        cp = np.abs(np.einsum("...i,i->...", v_plus.conj(), phi0)) ** 2
        cm = np.abs(np.einsum("...i,i->...", v_minus.conj(), phi0)) ** 2
        ap = (np.abs(v_plus[..., 0]) ** 2 - np.abs(v_plus[..., 1]) ** 2).real
        am = (np.abs(v_minus[..., 0]) ** 2 - np.abs(v_minus[..., 1]) ** 2).real
        return cp * ap + cm * am, cp * ap**2 + cm * am**2

    degenerate = np.isnan(_band_arrays(c, s, k)[1][:, 0])
    g1 = np.zeros(grid_size)
    g2 = np.zeros(grid_size)
    g1[~degenerate], g2[~degenerate] = eval_at(k[~degenerate])
    h = (2.0 * math.pi / grid_size) / 10.0
    for idx in np.nonzero(degenerate)[0]:
        left = eval_at(np.array([k[idx] - h]))
        right = eval_at(np.array([k[idx] + h]))
        g1[idx] = 0.5 * (left[0][0] + right[0][0])
        g2[idx] = 0.5 * (left[1][0] + right[1][0])
    return g1, g2


def sampled_velocity_measure(coin, init, grid_size: int):
    """Atoms ``(v, n_s0, weight)`` of the velocity measure on the uniform k-grid.

    Sample i puts mass ``weight[i] * (1 +- n_s0[i]) / (2 * grid_size)`` at
    velocity ``+-v[i]``, with ``v = -m_z / |m|`` and ``n.s0 = -(m.s0) / |m|``
    for ``U_k = cos(w) I + i (m.sigma)``.  ``weight`` is 1, or 1/2 for each of
    the two samples a tenth of a grid spacing either side of a band touching
    (``|m| <= DEGENERACY_THRESHOLD``); those samples come after the regular
    ones.  Its first two moments converge to the closed-form drift rate and
    spread coefficient, its histogram to the closed-form bin masses.
    """
    c, s = su2_parts(coin)
    phi0 = np.asarray(init.coin_state, dtype=np.complex128)
    s0 = np.array([float(np.real(phi0.conj() @ (p @ phi0))) for p in (PAULI_X, PAULI_Y, PAULI_Z)])
    s_perp_sq = s[0] ** 2 + s[1] ** 2

    k = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    ck, sk = np.cos(k), np.sin(k)
    weight = np.ones(grid_size)
    m_z = ck * s[2] - c * sk
    sin_w = np.sqrt(s_perp_sq + m_z * m_z)
    touching = sin_w <= DEGENERACY_THRESHOLD
    if np.any(touching):
        h = (2.0 * math.pi / grid_size) / 10.0
        k_off = np.concatenate([k[touching] - h, k[touching] + h])
        ck = np.concatenate([ck[~touching], np.cos(k_off)])
        sk = np.concatenate([sk[~touching], np.sin(k_off)])
        weight = np.concatenate([weight[~touching], np.full(k_off.size, 0.5)])
        m_z = ck * s[2] - c * sk
        sin_w = np.sqrt(s_perp_sq + m_z * m_z)

    m_s0 = ck * float(s @ s0) + sk * (s[0] * s0[1] - s[1] * s0[0] - c * s0[2])
    return -m_z / sin_w, -m_s0 / sin_w, weight


def sampled_velocity_masses(coin, init, grid_size: int, bins: int) -> np.ndarray:
    """Bin masses of the sampled velocity measure on ``bins`` uniform bins over [-1, 1]."""
    v, n_s0, weight = sampled_velocity_measure(coin, init, grid_size)
    width = 2.0 / bins
    return np.bincount(
        np.clip(((np.concatenate([v, -v]) + 1.0) / width).astype(int), 0, bins - 1),
        weights=np.concatenate([weight * (1.0 + n_s0), weight * (1.0 - n_s0)]) / (2 * grid_size),
        minlength=bins,
    )


def _site_probabilities(state: WalkerState) -> np.ndarray:
    """Probability of each light-cone site of ``state``, coin traced out."""
    return np.sum(np.abs(state.amplitudes) ** 2, axis=1)


def distribution(state: WalkerState) -> dict[int, float]:
    """Map each support site to its probability (coin traced out)."""
    return {int(x): float(p) for x, p in zip(state.positions, _site_probabilities(state))}


def moments(state: WalkerState) -> tuple[float, float]:
    """Exact ``(<x>, <x^2>)`` summed over the support: the oracle for the sums
    that ``moment_series`` reduces inside the walk kernel."""
    probs = _site_probabilities(state)
    x = state.positions.astype(np.float64)
    return float(np.sum(x * probs)), float(np.sum(x * x * probs))


def reference_weak_limit_distance(coin: CoinSpec, init: InitialCondition, state: WalkerState) -> float:
    """``sup_w |P(d/T <= w) - P_limit(w)|`` point by point, ``d`` the
    displacement from the start site.  The exact CDF sums the sites'
    probabilities; the limit CDF integrates Konno's density with
    ``scipy.integrate.quad`` after ``v = R sin(a)``, which takes out its
    inverse square roots at ``+-R``, or sums the atoms of a coin with
    ``s_perp`` or ``R`` near 0.  The coin's parts come from its rotation
    matrices.  The sup runs over every light-cone site's ``d/T`` and every
    atom, each from both sides."""
    from scipy.integrate import quad

    mat = matrix_product_coin(coin)
    c, sz, sx, sy = mat[0, 0].real, mat[0, 0].imag, mat[0, 1].imag, mat[0, 1].real
    phi0 = np.asarray(init.coin_state, dtype=np.complex128)
    b = [float(np.real(phi0.conj() @ (p @ phi0))) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    r, s_perp = math.hypot(c, sz), math.hypot(sx, sy)
    # alpha s_z - beta c, with alpha = s.s0 and beta = s_x s0_y - s_y s0_x - c s0_z
    drift = (sx * b[0] + sy * b[1] + sz * b[2]) * sz - (sx * b[1] - sy * b[0] - c * b[2]) * c
    if r <= 1e-12:
        atoms = {0.0: 1.0}
    elif s_perp <= 1e-12:
        atoms = {-1.0: 0.5 * (1.0 - drift), 1.0: 0.5 * (1.0 + drift)}
    else:
        atoms = {}
        gamma = drift / (r * r)

        def konno(a):  # the density at v = R sin(a), times dv/da
            v = r * math.sin(a)
            return s_perp * (1.0 + gamma * v) / (math.pi * (1.0 - v * v))

    def limit_cdf(w, strict):
        if atoms:
            return sum(m for a, m in atoms.items() if (a < w if strict else a <= w))
        if w <= -r or w >= r:
            return float(w >= r)
        return quad(konno, -math.pi / 2, math.asin(w / r), epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    t = state.t
    sites = {(x - init.position) / t: p for x, p in distribution(state).items()}
    distance = 0.0
    for w in sorted({*sites, *atoms}):
        upto = sum(p for u, p in sites.items() if u <= w)
        below = sum(p for u, p in sites.items() if u < w)
        distance = max(distance, abs(upto - limit_cdf(w, False)), abs(below - limit_cdf(w, True)))
    return distance


def reference_write_csv(path, header, rows) -> None:
    """Row-by-row CSV writer: floats as ``%.17g``, everything else via ``str``
    (so an undefined field is passed as ``""``)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % float(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_enumerate_closures(grid: int = 721) -> list[GapClosure]:
    """Closure enumeration over the whole inclusive ``grid`` x ``grid`` mesh:
    the gap of every cell, a hit where it is below 1e-8, and both bands of a
    hit reported, as ``enumerate_closures`` does, since one gap closes both.
    No two hits may lie within 4 cells of each other.  O(grid**2) memory;
    keep ``grid`` in the low thousands."""
    theta = np.linspace(-math.pi, math.pi, grid)
    phi = np.linspace(-math.pi, math.pi, grid)
    gap = np.arccos(np.clip(_amplitude(theta[:, None], phi[None, :]), -1.0, 1.0))
    hits = np.argwhere(gap < 1e-8)
    for a, b in itertools.combinations(hits.tolist(), 2):
        assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 4, f"hits {a} and {b} lie within 4 cells"

    closures = []
    for i, j in hits:
        th, ph = float(theta[i]), float(phi[j])
        delta = math.atan2(math.sin(th) * math.sin(ph), math.cos(th) * math.cos(ph))
        if min_gap(th, ph) < 1e-8:
            closures.append(GapClosure(th, ph, canonical_angle(-delta), BAND_ZERO))
            closures.append(GapClosure(th, ph, canonical_angle(math.pi - delta), BAND_PI))
    closures.sort(key=lambda c: (c.theta, c.phi, c.band))
    return closures


def ring_oracle(
    init: InitialCondition, coin: CoinSpec, steps: int, ring_size: int
) -> dict[int, float]:
    """Independent cross-check: evolve on a cyclic lattice by dense unitary
    application and unwrap back to line coordinates.

    Requires ``ring_size > 2*steps + 1`` so no amplitude can wrap around;
    the result is then site-for-site comparable with the line walk.
    """
    if ring_size <= 2 * steps + 1:
        raise ValueError(f"ring_size {ring_size} too small for {steps} steps (need > {2 * steps + 1})")

    n = ring_size
    coin_mat = compose(coin)
    full = np.kron(np.eye(n, dtype=np.complex128), coin_mat)
    shift = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for x in range(n):
        shift[2 * ((x + 1) % n), 2 * x] = 1.0
        shift[2 * ((x - 1) % n) + 1, 2 * x + 1] = 1.0
    u = shift @ full

    psi = np.zeros(2 * n, dtype=np.complex128)
    origin = init.position % n
    psi[2 * origin : 2 * origin + 2] = init.coin_state
    for _ in range(steps):
        psi = u @ psi

    probs = np.abs(psi) ** 2
    site_probs = probs[0::2] + probs[1::2]
    out: dict[int, float] = {}
    for x in range(init.position - steps, init.position + steps + 1):
        out[x] = float(site_probs[x % n])
    return out


def momentum_oracle(init: InitialCondition, coin: CoinSpec, steps: int) -> dict[int, float]:
    """Independent cross-check: site probabilities after ``steps`` steps from
    ``U_k^steps phi0`` in momentum space.

    ``U_k = diag(e^{-ik}, e^{ik}) C`` is raised to the power ``steps`` by
    repeated squaring on ``n`` uniform momenta, ``n`` a power of two
    ``>= 2 * steps + 1``.  Each component is then a trigonometric polynomial
    of degree ``steps`` in k, so an inverse FFT gives the position amplitudes
    exactly up to rounding, in O(n log steps) time.
    """
    n = 1 << (2 * steps).bit_length()
    k = 2.0 * math.pi * np.arange(n) / n
    mat = compose(coin)
    em, ep = np.exp(-1j * k), np.exp(1j * k)
    a, b, c, d = em * mat[0, 0], em * mat[0, 1], ep * mat[1, 0], ep * mat[1, 1]
    v0 = np.full(n, init.coin_state[0], dtype=np.complex128)
    v1 = np.full(n, init.coin_state[1], dtype=np.complex128)
    t = steps
    while t:
        if t & 1:
            v0, v1 = a * v0 + b * v1, c * v0 + d * v1
        t >>= 1
        if t:
            a, b, c, d = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
    probs = np.abs(np.fft.ifft(v0)) ** 2 + np.abs(np.fft.ifft(v1)) ** 2
    return {init.position + x: float(probs[x % n]) for x in range(-steps, steps + 1)}


def cos_omega_two_rotation(
    first_axis, first_angle: float, second_axis, second_angle: float, k: float
):
    """Closed-form dispersion argument ``cos w(k)`` for a two-rotation coin.

    ``first_*`` is the rotation applied first to the coin state, ``second_*``
    the one applied after it.  Kept as an explicit trigonometric expression,
    independent of any matrix product, so the generic path can be checked
    against it.
    """
    bx, by, bz = first_axis
    ax, ay, az = second_axis
    th = first_angle
    ph = second_angle
    dot = ax * bx + ay * by + az * bz
    return np.cos(k) * (
        np.cos(ph) * np.cos(th) - dot * np.sin(ph) * np.sin(th)
    ) + np.sin(k) * (
        bz * np.cos(ph) * np.sin(th)
        + np.sin(ph) * (az * np.cos(th) + ay * bx * np.sin(th) - ax * by * np.sin(th))
    )


def uk_entries_two_rotation(
    first_axis, first_angle: float, second_axis, second_angle: float, k: float
) -> np.ndarray:
    """Closed-form entries of ``U_k`` for a two-rotation coin.

    Same argument convention as :func:`cos_omega_two_rotation`.  Spelled out
    entry by entry (no matrix products) as an independent cross-check of
    :func:`uk_matrix`.
    """
    bx, by, bz = first_axis  # applied first
    ax, ay, az = second_axis  # applied second
    th = first_angle
    ph = second_angle
    cth, sth = np.cos(th), np.sin(th)
    cph, sph = np.cos(ph), np.sin(ph)
    em, ep = np.exp(-1j * k), np.exp(1j * k)

    a11 = em * (
        -(ax - 1j * ay) * (bx + 1j * by) * sph * sth
        + (cph + 1j * az * sph) * (cth + 1j * bz * sth)
    )
    a12 = em * (
        (1j * ax + ay) * sph * (cth - 1j * bz * sth)
        + (1j * bx + by) * (cph + 1j * az * sph) * sth
    )
    a21 = ep * (
        (1j * ax - ay) * sph * (cth + 1j * bz * sth)
        + (bx + 1j * by) * (1j * cph + az * sph) * sth
    )
    a22 = ep * (
        -(ax + 1j * ay) * (bx - 1j * by) * sph * sth
        + (cph - 1j * az * sph) * (cth - 1j * bz * sth)
    )
    return np.array([[a11, a12], [a21, a22]], dtype=np.complex128)


def _cos_w(theta, phi, k):
    return np.cos(k) * np.cos(theta) * np.cos(phi) - np.sin(k) * np.sin(theta) * np.sin(phi)


def _refine_extremum(fun, lo, hi, iters: int = 70):
    """Vectorised ternary search for the minimum of ``fun`` on [lo, hi]."""
    a = np.array(lo, dtype=np.float64, copy=True)
    b = np.array(hi, dtype=np.float64, copy=True)
    for _ in range(iters):
        third = (b - a) / 3.0
        m1 = a + third
        m2 = b - third
        take_left = fun(m1) < fun(m2)
        b = np.where(take_left, m2, b)
        a = np.where(take_left, a, m1)
    return 0.5 * (a + b)


def min_gap_sampled(theta, phi, k_samples: int = 1024):
    """Brute-force ``(gap_zero, gap_pi)``: coarse k-scan plus local refinement.

    Independent of the amplitude/phase closed form; agrees with
    :func:`min_gap` to well below 1e-8 away from the closures.  Broadcasts
    over array-valued ``theta``/``phi``.
    """
    if k_samples < 256:
        raise ValueError("k_samples must be >= 256")
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    k = np.linspace(-math.pi, math.pi, k_samples, endpoint=False)
    f = _cos_w(theta[..., None], phi[..., None], k)
    dk = 2.0 * math.pi / k_samples

    k_hi = k[np.argmax(f, axis=-1)]
    k_best_hi = _refine_extremum(
        lambda kk: -_cos_w(theta, phi, kk), k_hi - dk, k_hi + dk
    )
    k_lo = k[np.argmin(f, axis=-1)]
    k_best_lo = _refine_extremum(
        lambda kk: _cos_w(theta, phi, kk), k_lo - dk, k_lo + dk
    )

    f_max = np.clip(_cos_w(theta, phi, k_best_hi), -1.0, 1.0)
    f_min = np.clip(_cos_w(theta, phi, k_best_lo), -1.0, 1.0)
    gap_zero = np.arccos(f_max)  # min of w
    gap_pi = math.pi - np.arccos(f_min)  # min of pi - w
    return gap_zero, gap_pi
