"""Command-line front end.

Subcommands: ``simulate``, ``moments``, ``dispersion``, ``asymptotics``,
``weak-limit``, ``gapscan``, ``compare``.  Every run resolves a single
configuration (flat ``key = value`` config file, overridden by command-line
flags), writes the requested data files, and pairs each output with a
``<name>.manifest.json`` echoing the full configuration so the artifact can
be reproduced byte for byte.  A run that fails while writing deletes the
files it wrote, so it leaves no output and no manifest behind.

Angles are radians by default; append ``deg`` for degrees (``--theta 45deg``).
Exit codes: 0 success, 1 configuration error, 2 numerical-domain error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .asymptotics import (
    DEFAULT_BINS,
    MIN_BINS,
    asymptotic_moments_to_dict,
    moment_integrals,
    sign_calibration,
    velocity_density_to_csv,
    weak_limit_density,
)
from .coins import CoinSpec, preset_coin
from .export import write_csv, write_json
from .gapscan import (
    DEFAULT_GRID,
    DEFAULT_MAP_GRID,
    DEFAULT_TOL,
    MAX_TOL,
    MIN_GRID,
    assert_no_boundary,
    closures_to_dict,
    enumerate_closures,
    gap_map_to_csv,
    scan_gap_map,
)
from .momentum import (
    DEFAULT_GRID_SIZE,
    MIN_GRID_SIZE,
    DegeneratePointError,
    NumericalDomainError,
    dispersion_band,
    dispersion_to_csv,
)
from .walk import InitialCondition, MomentSeries, distribution_to_csv, fit_window, loglog_slope, moment_series

__all__ = ["main", "ConfigError", "RunConfig"]

_OUTPUT_DIR_ENV = "COINWALK_OUTPUT_DIR"

# The size options are bounded so that one run fits in 1 GiB of address space:
# 256 MiB for the interpreter and numpy (about 140 MiB measured), the rest for
# work arrays, one Python float per CSV field and the formatted text.  Each
# divisor is the measured growth of peak address space (VmPeak) per unit, in
# the subcommand that needs the most for that option, rounded up.
_MEMORY_BUDGET = (1 << 30) - (256 << 20)
_MAX_STEPS = _MEMORY_BUDGET // 640  # simulate --distribution-out, 539 bytes per step
_MAX_GRID_SIZE = _MEMORY_BUDGET // 768  # dispersion, 634 bytes per momentum
_MAX_BINS = _MEMORY_BUDGET // 256  # weak-limit, 190 bytes per bin
_MAX_GRID = _MEMORY_BUDGET // 64  # gapscan closure scan, 48 bytes per grid line
_MAX_MAP_GRID = math.isqrt(_MEMORY_BUDGET // 400)  # gap map, 351 bytes per cell
# sites are reduced as float64, which holds every integer up to 2^53
_MAX_SITE = 2**53


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
    grid_size: int = DEFAULT_GRID_SIZE
    bins: int = DEFAULT_BINS
    grid: int = DEFAULT_GRID
    tol: float = DEFAULT_TOL
    map_grid: int = DEFAULT_MAP_GRID
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


_WALKS = ("simulate", "moments", "asymptotics", "weak-limit", "compare")  # take a coin and an initial state
_COINS = (*_WALKS, "dispersion")
_ALL = (*_COINS, "gapscan")


class _Option(NamedTuple):
    """Config key ``name``, flag ``--name`` (``-`` for ``_``).  ``parse`` sets the
    ``RunConfig`` field of that name, which holds the default, to a value in
    ``bounds``; without it the raw text goes to the subcommand."""

    name: str
    commands: tuple[str, ...]
    parse: Callable | None = None
    bounds: tuple | None = None
    help: str | None = None


_OPTIONS = (
    _Option("output_dir", _ALL, str, help=f"output directory, or ${_OUTPUT_DIR_ENV} when not given"),
    _Option("seed", _ALL, int, (-(2**63), 2**63 - 1), "seed recorded for reproducibility"),
    _Option("coin", _COINS, str, help="preset name: identity, sigma_x, hadamard_analog, paper_xy"),
    _Option("coin_file", _COINS, str, help="JSON file with a list of {axis, angle_rad|angle_deg} records"),
    _Option("theta", _COINS, parse_angle, help="paper_xy first rotation angle (radians, or e.g. 45deg)"),
    _Option("phi", _COINS, parse_angle, help="paper_xy second rotation angle (radians, or e.g. 45deg)"),
    _Option("initial_coin", _WALKS, help="two complex components, e.g. '1,0' or '0.6,0.8j'"),
    _Option("initial_bloch", _WALKS, help="alpha,beta Bloch angles for the initial coin state"),
    _Option("position", _WALKS, int, (-_MAX_SITE, _MAX_SITE), "initial site"),
    _Option("steps", ("simulate", "moments", "compare"), int, (0, _MAX_STEPS), "walk steps"),
    _Option(
        "grid_size", ("dispersion", "asymptotics", "weak-limit", "compare"), int,
        (MIN_GRID_SIZE, _MAX_GRID_SIZE), "momentum samples of the dispersion band; the others record it",
    ),
    _Option("bins", ("weak-limit",), int, (MIN_BINS, _MAX_BINS), "velocity bins over [-1, 1]"),
    _Option("grid", ("gapscan",), int, (MIN_GRID, _MAX_GRID), "scan resolution per axis (inclusive of both edges)"),
    # tol > 0: math.ulp(0.0) is the smallest positive float
    _Option("tol", ("gapscan",), float, (math.ulp(0.0), MAX_TOL), "gap threshold for a closure"),
    _Option("out", _ALL),
    _Option("distribution_out", ("simulate",), help="also write the final-step distribution CSV (t,x,p)"),
    _Option("map_out", ("gapscan",), help="also write a gap-map CSV theta,phi,gap_zero,gap_pi"),
    _Option("map_grid", ("gapscan",), int, (2, _MAX_MAP_GRID), "gap-map resolution per axis"),
)


def _value(opt: _Option, text: str):
    """Parse ``text`` for ``opt`` and check it against the option's bounds."""
    if opt.parse is parse_angle:
        return parse_angle(text, f"{opt.name} angle")
    try:
        value = opt.parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad {opt.name} {text!r}: expected {opt.parse.__name__}") from exc
    if opt.bounds:
        lo, hi = opt.bounds
        if not value >= lo:
            raise ConfigError(f"{opt.name} must be >= {lo}")
        if not value <= hi:
            raise ConfigError(f"{opt.name} must be <= {hi}")
    return value


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
        if key not in {opt.name for opt in _OPTIONS}:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _help(opt: _Option) -> str:
    notes = []
    default = getattr(RunConfig, opt.name, None)
    if default is not None:
        notes.append(f"default {default!r}")
    if opt.bounds:
        notes.append("%s to %s" % opt.bounds)
    return f"{opt.help} ({'; '.join(notes)})" if notes else opt.help


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built from the option and subcommand tables once per process."""
    parser = _Parser(prog="coinwalk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"coinwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key = value configuration file")
        for opt in (opt for opt in _OPTIONS if name in opt.commands):
            out = opt.name == "out"  # its help and whether it is required belong to the subcommand
            p.add_argument(
                "--" + opt.name.replace("_", "-"),
                required=out and command.out_required,
                help=command.out_help if out else _help(opt),
            )
    return parser


def _merge(args: argparse.Namespace) -> tuple[RunConfig, dict[str, str]]:
    """Apply config-file values underneath the parsed flags; return the
    resolved RunConfig plus raw string leftovers (out paths, initial state)."""
    file_values = read_config_file(args.config) if args.config else {}
    cfg = RunConfig(command=args.command, output_dir=os.environ.get(_OUTPUT_DIR_ENV, RunConfig.output_dir))
    raw = {}
    for opt in _OPTIONS:
        text = getattr(args, opt.name, None)
        if isinstance(text, list):  # argparse reads "--name=--" as no value at all
            raise ConfigError(f"argument --{opt.name.replace('_', '-')}: expected one argument")
        if text is None:
            text = file_values.get(opt.name)
        if opt.parse is None:
            raw[opt.name] = text
        elif text is not None:
            setattr(cfg, opt.name, _value(opt, text))
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
        except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: an integer past float range
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


def _write_outputs(cfg: RunConfig, raw: dict, coin: CoinSpec | None, writers: dict, results: dict | None) -> None:
    """Write each output that the subcommand takes and was given, under
    ``cfg.output_dir``, then its ``<name>.manifest.json``.  If any write fails,
    delete every file this run wrote and re-raise."""
    outputs = [
        (Path(cfg.output_dir) / raw[opt.name], writers[opt.name])
        for opt in _OPTIONS
        if opt.name in writers and cfg.command in opt.commands and raw[opt.name]
    ]
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "coin_rotations": coin.to_dicts() if coin is not None else None,
        "outputs": [path.name for path, _ in outputs],
        "sign_calibration": sign_calibration(),
    }
    if results:
        manifest["results"] = results
    write_manifest = functools.partial(write_json, obj=manifest)
    jobs = [*outputs, *((path.with_name(path.name + ".manifest.json"), write_manifest) for path, _ in outputs)]
    written: list[Path] = []
    for path, write in jobs:
        fresh = False
        try:
            fresh = not path.exists()
            path.parent.mkdir(parents=True, exist_ok=True)
            write(path)
        except BaseException:  # an interrupted run must not leave a partial output either
            if fresh and path.is_file():  # this run created it before the write failed
                written.append(path)
            for done in written:
                done.unlink(missing_ok=True)
            raise
        written.append(path)


def _cmd_simulate(cfg: RunConfig, coin: CoinSpec, init: InitialCondition):
    ms = moment_series(init, coin, cfg.steps)
    # skip the trivial t=0 row: a run of N steps yields N data rows
    table = MomentSeries(times=ms.times[1:], mean=ms.mean[1:], second=ms.second[1:], norm=ms.norm[1:])
    writers = {"out": table.to_csv, "distribution_out": functools.partial(distribution_to_csv, ms.final)}
    return writers, {"max_norm_drift": ms.max_norm_drift}


def _cmd_dispersion(cfg: RunConfig, coin: CoinSpec, init: None):
    return {"out": functools.partial(dispersion_to_csv, dispersion_band(coin, cfg.grid_size))}, None


def _cmd_asymptotics(cfg: RunConfig, coin: CoinSpec, init: InitialCondition):
    am = moment_integrals(coin, init)
    record = asymptotic_moments_to_dict(am)
    record["classification"] = am.classification
    record["grid_size"] = cfg.grid_size
    print(f"mean_rate      = {am.mean_rate:.17g}")
    print(f"second_coeff   = {am.second_coeff:.17g}")
    print(f"variance_coeff = {am.variance_coeff:.17g}")
    print(f"classification = {record['classification']}")
    results = {"classification": record["classification"], "s_perp": am.s_perp, "max_speed": am.max_speed}
    return {"out": functools.partial(write_json, obj=record)}, results


def _cmd_weak_limit(cfg: RunConfig, coin: CoinSpec, init: InitialCondition):
    vd = weak_limit_density(coin, init, cfg.bins)
    if vd.degenerate:
        print("note: coin is in the sigma_x family; the density collapses onto v = 0")
    results = {"degenerate": vd.degenerate, "s_perp": vd.s_perp, "max_speed": vd.max_speed}
    return {"out": functools.partial(velocity_density_to_csv, vd)}, results


def _cmd_gapscan(cfg: RunConfig, coin: None, init: None):
    closures = enumerate_closures(cfg.grid, cfg.tol)
    record = closures_to_dict(closures, grid=cfg.grid, tol=cfg.tol)
    record["no_boundary"] = assert_no_boundary(closures, tol=cfg.tol)
    print(f"{record['count_points']} closure points; no_boundary = {record['no_boundary']}")
    writers = {
        "out": functools.partial(write_json, obj=record),
        # the map is computed only when it is written
        "map_out": lambda path: gap_map_to_csv(scan_gap_map(cfg.map_grid, cfg.map_grid), path),
    }
    return writers, {"count_points": record["count_points"]}


def _cmd_compare(cfg: RunConfig, coin: CoinSpec, init: InitialCondition):
    am = moment_integrals(coin, init)
    ms = moment_series(init, coin, cfg.steps)
    var = ms.variance

    t = ms.times[1:]
    predicted = am.variance_coeff * t * t
    abs_err = np.abs(var[1:] - predicted)
    # NaN (an empty field) where the prediction is zero
    rel_err = np.divide(abs_err, predicted, out=np.full(t.shape, np.nan), where=predicted > 0)
    header = ["t", "var_exact", "var_predicted", "abs_err", "rel_err"]
    columns = [t, var[1:], predicted, abs_err, rel_err]

    window = fit_window(cfg.steps)
    slope = loglog_slope(var)
    if window.size < 2:
        print(f"log-log slope unavailable: --steps {cfg.steps} leaves fewer than 2 points in the fit window")
    elif slope is None:
        print("log-log slope unavailable: variance vanishes inside the fit window")
    else:
        print(f"log-log variance slope over t in [{window[0]}, {cfg.steps}]: {slope:.6f}")
    results = {"loglog_slope": slope, "max_norm_drift": ms.max_norm_drift}
    return {"out": functools.partial(write_csv, header=header, columns=columns)}, results


class _Command(NamedTuple):
    # computes and prints; returns one writer per output option, path -> None,
    # and the manifest ``results``
    run: Callable[[RunConfig, CoinSpec | None, InitialCondition | None], tuple[dict, dict | None]]
    help: str
    out_help: str | None = None
    out_required: bool = True


_COMMANDS = {
    "simulate": _Command(
        _cmd_simulate, "exact walk; writes the per-step moment table", "moment table CSV (t,mean,second,variance)"
    ),
    # same table, no distribution option
    "moments": _Command(_cmd_simulate, "per-step moment table only"),
    "dispersion": _Command(_cmd_dispersion, "quasi-energy band export", "CSV k,omega,nx,ny,nz,v_group"),
    "asymptotics": _Command(
        _cmd_asymptotics, "long-time drift and spread coefficients",
        "JSON output; without it only the coefficients and the classification are printed",
        out_required=False,
    ),
    "weak-limit": _Command(_cmd_weak_limit, "limiting velocity density of x/t", "CSV v,density"),
    "gapscan": _Command(_cmd_gapscan, "gap-closure survey of the paper_xy parameter square", "closures JSON"),
    "compare": _Command(
        _cmd_compare, "reconcile exact variance with the asymptotic prediction",
        "CSV t,var_exact,var_predicted,abs_err,rel_err",
    ),
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg, raw = _merge(args)
        coin = _resolve_coin(cfg) if cfg.command in _COINS else None
        init = _resolve_initial(cfg, raw) if cfg.command in _WALKS else None
        writers, results = _COMMANDS[cfg.command].run(cfg, coin, init)
        _write_outputs(cfg, raw, coin, writers, results)
        return 0
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
