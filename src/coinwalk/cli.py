"""Command-line front end.

Subcommands: ``simulate``, ``moments``, ``dispersion``, ``asymptotics``,
``weak-limit``, ``gapscan``, ``compare``.  Every run resolves a single
configuration (flat ``key = value`` config file, overridden by command-line
flags), writes the requested data files, and pairs each output with a
``<name>.manifest.json`` echoing the full configuration so the artifact can
be reproduced byte for byte.

Angles are radians by default; append ``deg`` for degrees (``--theta 45deg``).
Exit codes: 0 success, 1 configuration error, 2 numerical-domain error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    asymptotic_moments_to_dict,
    drift_sign,
    moment_integrals,
    velocity_density_to_csv,
    weak_limit_density,
)
from .coins import CoinSpec, preset_coin
from .export import write_csv, write_json
from .gapscan import (
    assert_no_boundary,
    closures_to_dict,
    enumerate_closures,
    gap_map_to_csv,
    scan_gap_map,
)
from .momentum import (
    DegeneratePointError,
    NumericalDomainError,
    dispersion_band,
    dispersion_to_csv,
)
from .walk import InitialCondition, MomentSeries, distribution_to_csv, moment_series

__all__ = ["main", "ConfigError", "RunConfig"]

_OUTPUT_DIR_ENV = "COINWALK_OUTPUT_DIR"

# scan_gap_map plus gap_map_to_csv peak at about 350 bytes per map cell (the
# float64 grids, one Python float per CSV field and the formatted text), so
# the map side is bounded to keep a gap map within 1 GiB
_MAP_BYTES_PER_CELL = 400
_MAP_MEMORY_BUDGET = 1 << 30
_MAX_MAP_GRID = math.isqrt(_MAP_MEMORY_BUDGET // _MAP_BYTES_PER_CELL)


class ConfigError(ValueError):
    """Unusable configuration (bad flag, bad config file, missing input)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


@dataclass
class RunConfig:
    """Fully resolved configuration of one CLI run, echoed into manifests."""

    command: str
    coin: str | None = None
    coin_file: str | None = None
    theta: float | None = None
    phi: float | None = None
    initial_coin: list[list[float]] = field(default_factory=lambda: [[1.0, 0.0], [0.0, 0.0]])
    position: int = 0
    steps: int = 100
    grid_size: int = 4096
    bins: int = 64
    grid: int = 721
    tol: float = 1e-8
    map_grid: int = 181
    output_dir: str = "."
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def parse_angle(text: str, name: str = "angle") -> float:
    """Finite radians from ``"0.785"`` or ``"45deg"``; ``name`` labels errors."""
    t = str(text).strip()
    try:
        value = math.radians(float(t[: -len("deg")])) if t.endswith("deg") else float(t)
    except ValueError as exc:
        raise ConfigError(f"bad {name} {text!r}: expected radians or '<value>deg'") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {text!r}")
    return value


def _parse_complex_pair(text: str) -> np.ndarray:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 2:
        raise ConfigError(f"initial coin {text!r} must have two comma-separated components")
    try:
        return np.array([complex(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"bad complex component in {text!r}") from exc


_CONFIG_KEYS = {
    "coin",
    "coin_file",
    "theta",
    "phi",
    "initial_coin",
    "initial_bloch",
    "position",
    "steps",
    "grid_size",
    "bins",
    "grid",
    "tol",
    "map_grid",
    "out",
    "distribution_out",
    "map_out",
    "output_dir",
    "seed",
}


def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; ``#`` starts a comment."""
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _add_common(p: _Parser, coin: bool = True, initial: bool = False) -> None:
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--output-dir", help=f"output directory (default: ${_OUTPUT_DIR_ENV} or '.')")
    p.add_argument("--seed", type=int, help="seed recorded for reproducibility (default 0)")
    if coin:
        p.add_argument("--coin", help="preset name: identity, sigma_x, hadamard_analog, paper_xy")
        p.add_argument("--coin-file", help="JSON file with a list of {axis, angle_rad|angle_deg} records")
        p.add_argument("--theta", help="paper_xy first rotation angle (radians, or e.g. 45deg)")
        p.add_argument("--phi", help="paper_xy second rotation angle (radians, or e.g. 45deg)")
    if initial:
        p.add_argument("--initial-coin", help="two complex components, e.g. '1,0' or '0.6,0.8j'")
        p.add_argument("--initial-bloch", help="alpha,beta Bloch angles for the initial coin state")
        p.add_argument("--position", type=int, help="initial site (default 0)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="coinwalk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"coinwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="exact walk; writes the per-step moment table")
    _add_common(p, initial=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", required=True, help="moment table CSV (t,mean,second,variance)")
    p.add_argument("--distribution-out", help="also write the final-step distribution CSV (t,x,p)")

    p = sub.add_parser("moments", help="per-step moment table only")
    _add_common(p, initial=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("dispersion", help="quasi-energy band export")
    _add_common(p)
    p.add_argument("--grid-size", type=int, help="number of momentum samples")
    p.add_argument("--out", required=True, help="CSV k,omega,nx,ny,nz,v_group")

    p = sub.add_parser("asymptotics", help="long-time drift and spread coefficients")
    _add_common(p, initial=True)
    p.add_argument("--grid-size", type=int)
    p.add_argument("--out", help="JSON output (printed to stdout when omitted)")

    p = sub.add_parser("weak-limit", help="limiting velocity density of x/t")
    _add_common(p, initial=True)
    p.add_argument("--grid-size", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--out", required=True, help="CSV v,density")

    p = sub.add_parser("gapscan", help="gap-closure survey of the paper_xy parameter square")
    _add_common(p, coin=False)
    p.add_argument("--grid", type=int, help="scan resolution per axis (inclusive of both edges)")
    p.add_argument("--tol", type=float, help="gap threshold for a closure")
    p.add_argument("--out", required=True, help="closures JSON")
    p.add_argument("--map-out", help="also write a gap-map CSV theta,phi,gap_zero,gap_pi")
    p.add_argument("--map-grid", type=int, help=f"gap-map resolution per axis (at most {_MAX_MAP_GRID})")

    p = sub.add_parser("compare", help="reconcile exact variance with the asymptotic prediction")
    _add_common(p, initial=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--grid-size", type=int)
    p.add_argument("--out", required=True, help="CSV t,var_exact,var_predicted,abs_err,rel_err")

    return parser


def _merge(args: argparse.Namespace) -> tuple[RunConfig, dict[str, str]]:
    """Apply config-file values underneath the parsed flags; return the
    resolved RunConfig plus raw string leftovers (out paths, initial state)."""
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name: str, default=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return file_values[name]
        return default

    cfg = RunConfig(command=args.command)
    cfg.coin = pick("coin")
    cfg.coin_file = pick("coin_file")
    theta = pick("theta")
    phi = pick("phi")
    cfg.theta = parse_angle(theta, "theta angle") if theta is not None else None
    cfg.phi = parse_angle(phi, "phi angle") if phi is not None else None
    try:
        cfg.position = int(pick("position", 0))
        cfg.steps = int(pick("steps", 100))
        cfg.grid_size = int(pick("grid_size", 4096))
        cfg.bins = int(pick("bins", 64))
        cfg.grid = int(pick("grid", 721))
        cfg.tol = float(pick("tol", 1e-8))
        cfg.map_grid = int(pick("map_grid", 181))
        cfg.seed = int(pick("seed", 0))
    except ValueError as exc:
        raise ConfigError(f"bad numeric option: {exc}") from exc
    cfg.output_dir = str(pick("output_dir", os.environ.get(_OUTPUT_DIR_ENV, ".")))

    if cfg.steps < 0:
        raise ConfigError("steps must be >= 0")
    if cfg.grid_size < 64:
        raise ConfigError("grid_size must be >= 64")
    if cfg.bins < 32:
        raise ConfigError("bins must be >= 32")
    if cfg.grid < 181:
        raise ConfigError("grid must be >= 181")
    if not 0.0 < cfg.tol <= 1e-6:
        raise ConfigError("tol must be in (0, 1e-6]")
    if cfg.map_grid > _MAX_MAP_GRID:
        raise ConfigError(
            f"map_grid must be <= {_MAX_MAP_GRID}: a gap map takes about {_MAP_BYTES_PER_CELL} bytes "
            f"per cell, {cfg.map_grid}^2 cells would need {cfg.map_grid**2 * _MAP_BYTES_PER_CELL / 2**30:.1f} GiB"
        )

    raw = {
        "out": pick("out"),
        "distribution_out": pick("distribution_out"),
        "map_out": pick("map_out"),
        "initial_coin": pick("initial_coin"),
        "initial_bloch": pick("initial_bloch"),
    }
    return cfg, raw


def _resolve_coin(cfg: RunConfig) -> CoinSpec:
    if cfg.coin and cfg.coin_file:
        raise ConfigError("give either --coin or --coin-file, not both")
    if cfg.coin_file:
        try:
            records = json.loads(Path(cfg.coin_file).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read coin file {cfg.coin_file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"coin file {cfg.coin_file}: {exc}") from exc
        try:
            return CoinSpec.from_dicts(records)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"coin file {cfg.coin_file}: {exc}") from exc
    if not cfg.coin:
        raise ConfigError("no coin given: use --coin or --coin-file")
    try:
        return preset_coin(cfg.coin, theta=cfg.theta, phi=cfg.phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_initial(cfg: RunConfig, raw: dict) -> InitialCondition:
    coin_text = raw.get("initial_coin")
    bloch_text = raw.get("initial_bloch")
    if coin_text and bloch_text:
        raise ConfigError("give either initial_coin or initial_bloch, not both")
    try:
        if bloch_text:
            parts = [p.strip() for p in str(bloch_text).split(",")]
            if len(parts) != 2:
                raise ConfigError("initial_bloch needs 'alpha,beta'")
            init = InitialCondition.from_bloch(
                parse_angle(parts[0], "Bloch angle alpha"),
                parse_angle(parts[1], "Bloch angle beta"),
                cfg.position,
            )
        elif coin_text:
            init = InitialCondition(_parse_complex_pair(coin_text), cfg.position)
        else:
            init = InitialCondition(np.array([1.0, 0.0]), cfg.position)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.initial_coin = [[float(c.real), float(c.imag)] for c in init.coin_state]
    return init


def _out_path(cfg: RunConfig, name: str) -> Path:
    p = Path(name)
    if not p.is_absolute():
        p = Path(cfg.output_dir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_manifest(cfg: RunConfig, coin: CoinSpec | None, outputs: list[Path], results: dict | None = None) -> None:
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "coin_rotations": coin.to_dicts() if coin is not None else None,
        "outputs": [p.name for p in outputs],
        "sign_calibration": {
            "drift_sign": drift_sign(),
            "reference": "identity coin, coin state |0>, drifts to +t",
        },
    }
    if results:
        manifest["results"] = results
    for p in outputs:
        write_json(p.with_name(p.name + ".manifest.json"), manifest)


def _moment_table(ms: MomentSeries, path: Path) -> None:
    # skip the trivial t=0 row: a run of N steps yields N data rows
    MomentSeries(times=ms.times[1:], mean=ms.mean[1:], second=ms.second[1:]).to_csv(path)


def _cmd_simulate(cfg: RunConfig, raw: dict) -> int:
    coin = _resolve_coin(cfg)
    init = _resolve_initial(cfg, raw)
    ms = moment_series(init, coin, cfg.steps)
    out = _out_path(cfg, raw["out"])
    _moment_table(ms, out)
    outputs = [out]
    if cfg.command == "simulate" and raw.get("distribution_out"):
        dist_out = _out_path(cfg, raw["distribution_out"])
        distribution_to_csv(ms.final, dist_out)
        outputs.append(dist_out)
    _write_manifest(cfg, coin, outputs)
    return 0


def _cmd_dispersion(cfg: RunConfig, raw: dict) -> int:
    coin = _resolve_coin(cfg)
    band = dispersion_band(coin, cfg.grid_size)
    out = _out_path(cfg, raw["out"])
    dispersion_to_csv(band, out)
    _write_manifest(cfg, coin, [out])
    return 0


def _cmd_asymptotics(cfg: RunConfig, raw: dict) -> int:
    coin = _resolve_coin(cfg)
    init = _resolve_initial(cfg, raw)
    am = moment_integrals(coin, init, cfg.grid_size)
    record = asymptotic_moments_to_dict(am)
    record["classification"] = am.classification
    print(f"mean_rate      = {am.mean_rate:.17g}")
    print(f"second_coeff   = {am.second_coeff:.17g}")
    print(f"variance_coeff = {am.variance_coeff:.17g}")
    print(f"classification = {record['classification']}")
    if raw.get("out"):
        out = _out_path(cfg, raw["out"])
        write_json(out, record)
        results = {"classification": record["classification"], "s_perp": am.s_perp, "max_speed": am.max_speed}
        _write_manifest(cfg, coin, [out], results=results)
    return 0


def _cmd_weak_limit(cfg: RunConfig, raw: dict) -> int:
    coin = _resolve_coin(cfg)
    init = _resolve_initial(cfg, raw)
    vd = weak_limit_density(coin, init, cfg.grid_size, cfg.bins)
    out = _out_path(cfg, raw["out"])
    velocity_density_to_csv(vd, out)
    results = {"degenerate": vd.degenerate, "s_perp": vd.s_perp, "max_speed": vd.max_speed}
    _write_manifest(cfg, coin, [out], results=results)
    if vd.degenerate:
        print("note: coin is in the sigma_x family; the density collapses onto v = 0")
    return 0


def _cmd_gapscan(cfg: RunConfig, raw: dict) -> int:
    closures = enumerate_closures(cfg.grid, cfg.tol)
    record = closures_to_dict(closures, grid=cfg.grid, tol=cfg.tol)
    record["no_boundary"] = assert_no_boundary(closures, tol=cfg.tol)
    out = _out_path(cfg, raw["out"])
    write_json(out, record)
    outputs = [out]
    if raw.get("map_out"):
        map_out = _out_path(cfg, raw["map_out"])
        gap_map_to_csv(scan_gap_map(cfg.map_grid, cfg.map_grid), map_out)
        outputs.append(map_out)
    _write_manifest(cfg, None, outputs, results={"count_points": record["count_points"]})
    print(f"{record['count_points']} closure points; no_boundary = {record['no_boundary']}")
    return 0


def _cmd_compare(cfg: RunConfig, raw: dict) -> int:
    coin = _resolve_coin(cfg)
    init = _resolve_initial(cfg, raw)
    am = moment_integrals(coin, init, cfg.grid_size)
    ms = moment_series(init, coin, cfg.steps)
    var = ms.variance

    t = ms.times[1:]
    predicted = am.variance_coeff * t * t
    abs_err = np.abs(var[1:] - predicted)
    # NaN (an empty field) where the prediction is zero
    rel_err = np.divide(abs_err, predicted, out=np.full(t.shape, np.nan), where=predicted > 0)
    out = _out_path(cfg, raw["out"])
    write_csv(
        out,
        ["t", "var_exact", "var_predicted", "abs_err", "rel_err"],
        [t, var[1:], predicted, abs_err, rel_err],
    )

    lo = max(1, cfg.steps // 10)
    window = np.arange(lo, cfg.steps + 1)
    slope = None
    if window.size < 2:
        print(f"log-log slope unavailable: --steps {cfg.steps} leaves fewer than 2 points in the fit window")
    elif np.all(var[window] > 0):
        slope = float(np.polyfit(np.log(window), np.log(var[window]), 1)[0])
        print(f"log-log variance slope over t in [{lo}, {cfg.steps}]: {slope:.6f}")
    else:
        print("log-log slope unavailable: variance vanishes inside the fit window")
    _write_manifest(cfg, coin, [out], results={"loglog_slope": slope})
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "moments": _cmd_simulate,  # same table, no distribution option
    "dispersion": _cmd_dispersion,
    "asymptotics": _cmd_asymptotics,
    "weak-limit": _cmd_weak_limit,
    "gapscan": _cmd_gapscan,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg, raw = _merge(args)
        return _COMMANDS[args.command](cfg, raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DegeneratePointError, NumericalDomainError) as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
