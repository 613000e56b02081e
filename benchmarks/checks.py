"""Output checks for benchmark requests, against :mod:`reference`.

``check_request`` reads the files one request wrote and returns a
:class:`Verdict`.  A failure is a string naming what was wrong; a request
with any failure counts as failed.  Failures that reproduce a defect already
documented for this code base are tagged ``known_defect`` so a run can tell
them from new breakage; they are still counted as failed.  There is one such
defect: ``gapscan`` miscounts the closures on grids whose spacing misses the
closure points, i.e. when ``(grid - 1) % 4 != 0``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from workloads import Request

EXACT_TOL = 1e-10  # on <x>/t and <x^2>/t^2 against the reference
PROB_TOL = 1e-12  # per-site probability against the reference
NORM_TOL = 1e-10
COEFF_TOL = 1e-3  # long-time coefficients against the reference at t = 2e4
AMPLITUDE_TOL = 1e-12  # |A - 1| at a reported closure
BAND_TOL = 1e-9  # reconstructed U_k against the reference
DEGENERATE_SIN = 1e-6  # rows without an axis must sit at a band touching
HEADLINE_POINTS = 13  # gap closures on the closed square [-pi, pi]^2
HEADLINE_POINTS_MOD_2PI = 8


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    known_defect: bool = False  # every failure is a documented defect

    @property
    def ok(self) -> bool:
        return not self.failures


class _Failures(list):
    def close(self, what: str, got, want, tol: float) -> None:
        err = abs(got - want)
        if not err <= tol:  # also catches NaN
            self.append(f"{what}: got {got!r}, want {want!r} (|diff| {err:.3g} > {tol:g})")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")


def _table(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]!r}, want {header!r}")
    return [line.split(",") for line in lines[1:]]


def _numbers(rows: list[list[str]]) -> np.ndarray:
    return np.array(rows, dtype=np.float64)


def _coin(work: Path, params: dict) -> np.ndarray:
    return ref.coin_matrix(json.loads((work / params["coin_file"]).read_text(encoding="utf-8")))


def _moment_rows(f: _Failures, work: Path, req: Request, path: Path) -> None:
    steps = req.params["steps"]
    coin = _coin(work, req.params)
    phi0 = ref.bloch_state(*req.params["bloch"])
    table = _numbers(_table(path, "t,mean,second,variance"))
    f.equal("row count", table.shape[0], steps)
    if table.shape[0] != steps:
        return
    f.equal("t column", bool(np.array_equal(table[:, 0], np.arange(1, steps + 1))), True)
    for t in sorted({steps // 2, steps}):
        mean, second = ref.moments(coin, phi0, t)
        f.close(f"<x>/t at t={t}", table[t - 1, 1] / t, mean / t, EXACT_TOL)
        f.close(f"<x^2>/t^2 at t={t}", table[t - 1, 2] / t**2, second / t**2, EXACT_TOL)
    variance = table[:, 2] - table[:, 1] ** 2
    f.close("variance column", float(np.max(np.abs(table[:, 3] - variance)) / steps**2), 0.0, EXACT_TOL)


def _distribution_rows(f: _Failures, work: Path, req: Request, path: Path) -> None:
    steps = req.params["steps"]
    x_ref, p_ref = ref.distribution(_coin(work, req.params), ref.bloch_state(*req.params["bloch"]), steps)
    table = _numbers(_table(path, "t,x,p"))
    f.equal("row count", table.shape[0], 2 * steps + 1)
    if table.shape[0] != 2 * steps + 1:
        return
    f.equal("t column", bool(np.all(table[:, 0] == steps)), True)
    f.equal("x column", bool(np.array_equal(table[:, 1], x_ref)), True)
    f.close("norm", float(np.sum(table[:, 2])), 1.0, NORM_TOL)
    f.close("max |p - p_ref|", float(np.max(np.abs(table[:, 2] - p_ref))), 0.0, PROB_TOL)


def _check_walk(f: _Failures, work: Path, req: Request) -> None:
    _moment_rows(f, work, req, work / req.outputs[0])
    if len(req.outputs) > 1:
        _distribution_rows(f, work, req, work / req.outputs[1])


def _check_compare(f: _Failures, work: Path, req: Request) -> None:
    steps = req.params["steps"]
    coin = _coin(work, req.params)
    phi0 = ref.bloch_state(*req.params["bloch"])
    rows = _table(work / req.outputs[0], "t,var_exact,var_predicted,abs_err,rel_err")
    f.equal("row count", len(rows), steps)
    if len(rows) != steps:
        return
    last = [float(v) for v in rows[-1][:4]]
    f.equal("last t", last[0], float(steps))
    mean, second = ref.moments(coin, phi0, steps)
    f.close("var_exact/t^2 at the last step", last[1] / steps**2, (second - mean**2) / steps**2, EXACT_TOL)
    rate, coeff = ref.asymptotic_coefficients(coin, phi0)
    f.close("var_predicted/t^2", last[2] / steps**2, coeff - rate**2, COEFF_TOL)


def _check_asymptotics(f: _Failures, work: Path, req: Request) -> None:
    record = json.loads((work / req.outputs[0]).read_text(encoding="utf-8"))
    coin = _coin(work, req.params)
    rate, coeff = ref.asymptotic_coefficients(coin, ref.bloch_state(*req.params["bloch"]))
    f.equal("grid_size", record["grid_size"], req.params["grid_size"])
    f.close("mean_rate", record["mean_rate"], rate, COEFF_TOL)
    f.close("second_coeff", record["second_coeff"], coeff, COEFF_TOL)
    f.close("variance_coeff", record["variance_coeff"], record["second_coeff"] - record["mean_rate"] ** 2, 1e-12)
    want = "non-spreading" if ref.is_sigma_x_family(coin) else "ballistic"
    f.equal("classification", record["classification"], want)


def _check_weak_limit(f: _Failures, work: Path, req: Request) -> None:
    bins = req.params["bins"]
    width = 2.0 / bins
    table = _numbers(_table(work / req.outputs[0], "v,density"))
    f.equal("row count", table.shape[0], bins)
    if table.shape[0] != bins:
        return
    centres = -1.0 + width * (np.arange(bins) + 0.5)
    f.close("bin centres", float(np.max(np.abs(table[:, 0] - centres))), 0.0, 1e-12)
    mass = table[:, 1] * width
    f.close("density mass", float(np.sum(mass)), 1.0, NORM_TOL)
    # a histogram moves each velocity by at most half a bin, so its first and
    # second moments lie within one bin width of the exact ones
    pair = json.loads((work / req.params["pair"]).read_text(encoding="utf-8"))
    f.close("histogram <v> vs mean_rate", float(centres @ mass), pair["mean_rate"], width)
    f.close("histogram <v^2> vs second_coeff", float((centres**2) @ mass), pair["second_coeff"], width)
    manifest = json.loads((work / (req.outputs[0] + ".manifest.json")).read_text(encoding="utf-8"))
    f.equal("degenerate flag", manifest["results"]["degenerate"], ref.is_sigma_x_family(_coin(work, req.params)))


def _check_gapscan(f: _Failures, work: Path, req: Request) -> bool:
    """Returns True when the only failures are the closure counts on a
    grid whose spacing misses the closure points ((grid - 1) % 4 != 0)."""
    grid = req.params["grid"]
    record = json.loads((work / req.outputs[0]).read_text(encoding="utf-8"))
    f.equal("grid", record["grid"], grid)
    f.equal("no_boundary", record["no_boundary"], True)
    for c in record["closures"]:
        f.close(f"A at ({c['theta']!r}, {c['phi']!r})", float(ref.xy_amplitude(c["theta"], c["phi"])), 1.0, AMPLITUDE_TOL)
    if len(req.outputs) > 1:
        n = req.params["map_grid"]
        table = _numbers(_table(work / req.outputs[1], "theta,phi,gap_zero,gap_pi"))
        f.equal("map row count", table.shape[0], n * n)
        if table.shape[0] == n * n:
            axis = np.linspace(-math.pi, math.pi, n)
            f.close("map theta grid", float(np.max(np.abs(table[:, 0] - np.repeat(axis, n)))), 0.0, 1e-12)
            f.close("map phi grid", float(np.max(np.abs(table[:, 1] - np.tile(axis, n)))), 0.0, 1e-12)
            amp = ref.xy_amplitude(table[:, 0], table[:, 1])
            f.close("map cos(gap_zero) vs A", float(np.max(np.abs(np.cos(table[:, 2]) - amp))), 0.0, 1e-12)
            f.equal("map gap_pi == gap_zero", bool(np.array_equal(table[:, 2], table[:, 3])), True)
    before = len(f)
    f.equal("count_points", record["count_points"], HEADLINE_POINTS)
    f.equal("count_points_mod_2pi", record["count_points_mod_2pi"], HEADLINE_POINTS_MOD_2PI)
    counts_only = before == 0 and len(f) > 0
    return counts_only and (grid - 1) % 4 != 0


def _check_dispersion(f: _Failures, work: Path, req: Request) -> None:
    n = req.params["grid_size"]
    rows = _table(work / req.outputs[0], "k,omega,nx,ny,nz,v_group")
    f.equal("row count", len(rows), n)
    if len(rows) != n:
        return
    values = np.array([[float(v) if v else math.nan for v in row] for row in rows])
    k, omega = values[:, 0], values[:, 1]
    f.close("k grid", float(np.max(np.abs(k - np.linspace(-math.pi, math.pi, n, endpoint=False)))), 0.0, 1e-12)
    u_ref = ref.step_operators(_coin(work, req.params), k)
    half_trace = 0.5 * (u_ref[:, 0, 0] + u_ref[:, 1, 1]).real
    f.close("cos(omega) vs tr(U_k)/2", float(np.max(np.abs(np.cos(omega) - half_trace))), 0.0, 1e-12)
    has_axis = ~np.isnan(values[:, 5])
    n_sigma = sum(values[has_axis, 2 + i, None, None] * ref.SIGMA[i] for i in range(3))
    w = omega[has_axis, None, None]
    rebuilt = np.cos(w) * np.eye(2) - 1j * np.sin(w) * n_sigma
    if has_axis.any():
        f.close("U_k rebuilt from omega and n", float(np.max(np.abs(rebuilt - u_ref[has_axis]))), 0.0, BAND_TOL)
        f.close("v_group vs n_z", float(np.max(np.abs(values[has_axis, 5] - values[has_axis, 4]))), 0.0, 1e-12)
    if (~has_axis).any():
        f.close("sin(omega) where the axis is left out", float(np.max(np.sin(omega[~has_axis]))), 0.0, DEGENERATE_SIN)


_CHECKS = {
    "moments": _check_walk,
    "simulate": _check_walk,
    "compare": _check_compare,
    "asymptotics": _check_asymptotics,
    "weak-limit": _check_weak_limit,
    "gapscan": _check_gapscan,
    "dispersion": _check_dispersion,
}


def check_request(req: Request, work: Path, exit_code: int, message: str = "") -> Verdict:
    """Check the outputs ``req`` left under ``work`` after exiting with ``exit_code``."""
    if exit_code != 0:
        return Verdict([f"exit code {exit_code}: {message.strip()}"])
    f = _Failures()
    known = False
    try:
        for out in req.outputs:
            manifest = json.loads((work / (out + ".manifest.json")).read_text(encoding="utf-8"))
            f.equal(f"{out} manifest command", manifest["config"]["command"], req.kind)
        known = bool(_CHECKS[req.kind](f, work, req))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        f.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return Verdict(list(f), known_defect=known and bool(f))
