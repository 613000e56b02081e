"""Command-line front end.

Subcommands: ``simulate``, ``moments``, ``dispersion``, ``asymptotics``,
``weak-limit``, ``gapscan``, ``compare``.  Every run resolves a single
configuration (flat ``key = value`` config file, overridden by command-line
flags), writes the requested data files, and pairs each output with a
``<name>.manifest.json`` echoing the options the subcommand takes and the
resolved initial state, so the artifact can be reproduced byte for byte.  A
run that fails while writing deletes the files it wrote, so it leaves no
output and no manifest behind.

Angles are radians by default; append ``deg`` for degrees (``--theta 45deg``).
Exit codes: 0 success, 1 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
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
from .coins import CoinSpec, compose, preset_coin, unitarity_error
from .export import write_csv, write_json
from .gapscan import (
    DEFAULT_GRID,
    DEFAULT_MAP_GRID,
    MAX_GRID,
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
    dispersion_band,
    dispersion_to_csv,
)
from .walk import (
    InitialCondition,
    MomentSeries,
    distribution_to_csv,
    fit_window,
    kernel_name,
    loglog_slope,
    moment_series,
)

__all__ = ["main", "ConfigError"]

_OUTPUT_DIR_ENV = "COINWALK_OUTPUT_DIR"

# The size options are bounded so that one run fits in 1 GiB of address space:
# 256 MiB for the interpreter and numpy (about 140 MiB measured), the rest for
# work arrays, one Python float per CSV field and the formatted text.  Each
# divisor is the measured growth of peak address space (VmPeak) per unit, in
# the subcommand that needs the most for that option, rounded up.  ``--grid``
# is bounded by gapscan.MAX_GRID instead: the closure scan's memory does not
# grow with it.
_MEMORY_BUDGET = (1 << 30) - (256 << 20)
_MAX_STEPS = _MEMORY_BUDGET // 640  # simulate --distribution-out, 539 bytes per step
_MAX_GRID_SIZE = _MEMORY_BUDGET // 768  # dispersion, 634 bytes per momentum
_MAX_BINS = _MEMORY_BUDGET // 256  # weak-limit, 190 bytes per bin
_MAX_MAP_GRID = math.isqrt(_MEMORY_BUDGET // 400)  # gap map, 351 bytes per cell
# the walk reduces displacements from the start site, so the variance is the
# same at every start; the mean and the second moment add the start as a
# float64, which holds every integer up to 2^53
_MAX_SITE = 2**53


class ConfigError(ValueError):
    """Unusable configuration (bad flag, bad config file, missing input)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


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
    """Config key ``name``, flag ``--name`` (``-`` for ``_``).  ``parse`` turns
    the text into a value in ``bounds``, which the manifest records; without
    it the raw text goes to the subcommand.  ``default`` holds when no text
    is given."""

    name: str
    commands: tuple[str, ...]
    parse: Callable | None = None
    bounds: tuple | None = None
    help: str | None = None
    default: object = None


_OPTIONS = (
    _Option("output_dir", _ALL, str, help=f"output directory, or ${_OUTPUT_DIR_ENV} when not given", default="."),
    _Option("coin", _COINS, str, help="preset name: identity, sigma_x, hadamard_analog, paper_xy"),
    _Option("coin_file", _COINS, str, help="JSON file with a list of {axis, angle_rad|angle_deg} records"),
    _Option("theta", _COINS, parse_angle, help="paper_xy first rotation angle (radians, or e.g. 45deg)"),
    _Option("phi", _COINS, parse_angle, help="paper_xy second rotation angle (radians, or e.g. 45deg)"),
    _Option("initial_coin", _WALKS, help="two complex components, e.g. '1,0' or '0.6,0.8j'"),
    _Option("initial_bloch", _WALKS, help="alpha,beta Bloch angles for the initial coin state"),
    _Option("position", _WALKS, int, (-_MAX_SITE, _MAX_SITE), "initial site", 0),
    _Option("steps", ("simulate", "moments", "compare"), int, (0, _MAX_STEPS), "walk steps", 100),
    _Option(
        "grid_size", ("dispersion", "asymptotics", "weak-limit", "compare"), int,
        (MIN_GRID_SIZE, _MAX_GRID_SIZE), "momentum samples of the dispersion band; the others record it",
        DEFAULT_GRID_SIZE,
    ),
    _Option("bins", ("weak-limit",), int, (MIN_BINS, _MAX_BINS), "velocity bins over [-1, 1]", DEFAULT_BINS),
    _Option(
        "grid", ("gapscan",), int, (MIN_GRID, MAX_GRID), "scan resolution per axis (inclusive of both edges)",
        DEFAULT_GRID,
    ),
    _Option("out", _ALL),
    _Option("distribution_out", ("simulate",), help="also write the final-step distribution CSV (t,x,p)"),
    _Option("map_out", ("gapscan",), help="also write a gap-map CSV theta,phi,gap_zero,gap_pi"),
    _Option("map_grid", ("gapscan",), int, (2, _MAX_MAP_GRID), "gap-map resolution per axis", DEFAULT_MAP_GRID),
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
    notes = [] if opt.default is None else [f"default {opt.default!r}"]
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
            out = opt.name == "out"  # its help is the subcommand's; _merge checks that it is given
            p.add_argument("--" + opt.name.replace("_", "-"), help=command.out_help if out else _help(opt))
    return parser


@functools.cache
def _flags(command: str) -> frozenset[str]:
    """The flags of ``command``, every one of which takes a value."""
    return frozenset(["--config", *("--" + opt.name.replace("_", "-") for opt in _OPTIONS if command in opt.commands)])


def _joined(argv: list[str]) -> list[str]:
    """``argv`` with each flag of its subcommand joined to the word after it as
    ``--name=WORD``, so that argparse reads that word as the flag's value
    whatever it begins with, as it reads ``--name=WORD``.  A flag's unique
    prefix counts as the flag, as in argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return argv
    flags = _flags(argv[0])
    words, joined = iter(argv), []
    for word in words:
        flag = word in flags or (word.startswith("--") and sum(f.startswith(word) for f in flags) == 1)
        value = next(words, None) if flag else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Every option's value: the flag, else the config file, else
    ``$COINWALK_OUTPUT_DIR`` (``output_dir`` only), else the default.  Text is
    parsed where the option has a parser, so every config-file value is
    checked, also for options the subcommand does not take."""
    if isinstance(args.config, list):  # "--config=--", as for the options below
        raise ConfigError("argument --config: expected one argument")
    if args.config == "":
        raise ConfigError("argument --config: empty path")
    fallback = read_config_file(args.config) if args.config else {}
    fallback.setdefault("output_dir", os.environ.get(_OUTPUT_DIR_ENV))  # below the file, above the default
    cfg = argparse.Namespace(command=args.command)
    for opt in _OPTIONS:
        text = getattr(args, opt.name, None)
        flag = "--" + opt.name.replace("_", "-")
        if text == "":  # as in a config file, where "name =" is an error: empty text is not "not given"
            # an output option (``out``, ``*_out``) would name no file, so nothing would be written
            raise ConfigError(f"argument {flag}: empty {'path' if opt.name.endswith('out') else 'value'}")
        if text is None:
            text = fallback.get(opt.name)
        if isinstance(text, list) or text == "--":  # "--name=--", "--name --", "name = --": no value at all
            raise ConfigError(f"argument {flag}: expected one argument")
        if text is not None and opt.parse is not None:
            text = _value(opt, text)
        setattr(cfg, opt.name, opt.default if text is None else text)
    if cfg.out is None and _COMMANDS[cfg.command].out_required:  # by flag or by config file
        raise ConfigError("the following arguments are required: --out")
    return cfg


def _resolve_coin(cfg: argparse.Namespace) -> CoinSpec:
    if cfg.coin and cfg.coin_file:
        raise ConfigError("give either --coin or --coin-file, not both")
    if not (cfg.coin or cfg.coin_file):
        raise ConfigError("no coin given: use --coin or --coin-file")
    if cfg.coin != "paper_xy" and (cfg.theta is not None or cfg.phi is not None):
        raise ConfigError("theta and phi apply to --coin paper_xy only")
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
    try:
        return preset_coin(cfg.coin, theta=cfg.theta, phi=cfg.phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_initial(cfg: argparse.Namespace) -> InitialCondition:
    coin_text, bloch_text = cfg.initial_coin, cfg.initial_bloch
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
            init = InitialCondition(np.array([1.0, 0.0]), cfg.position)  # |0>
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return init


def _plan_outputs(cfg: argparse.Namespace) -> dict[str, Path]:
    """Each output option (``out``, ``*_out``) that the subcommand takes and
    was given, with its path under ``cfg.output_dir``, in option order.  Two
    files of the run at one path, outputs or the ``<name>.manifest.json``
    beside each, are a config error, raised here from ``cfg`` alone, before
    the run computes."""
    outputs = {
        opt.name: Path(cfg.output_dir) / getattr(cfg, opt.name)
        for opt in _OPTIONS
        if cfg.command in opt.commands and opt.name.endswith("out") and getattr(cfg, opt.name)
    }
    if len(outputs) > 1:  # an output and its own manifest differ in name within one directory
        files = [*outputs.values(), *map(_manifest_path, outputs.values())]
        resolved = [os.path.realpath(path) for path in files]  # Path.resolve raises on a symlink loop
        for i, path in enumerate(resolved):
            if path in resolved[:i]:
                raise ConfigError(f"two files of the run would be written to {path}")
    return outputs


def _manifest_path(path: Path) -> Path:
    return path.with_name(path.name + ".manifest.json")


def _write_outputs(
    cfg: argparse.Namespace,
    outputs: dict[str, Path],
    coin: CoinSpec | None,
    init: InitialCondition | None,
    writers: dict,
    results: dict | None,
) -> None:
    """Write each of the planned ``outputs`` by its option's writer, then its
    ``<name>.manifest.json``, whose ``config`` holds the parsed options the
    subcommand takes and a walk's initial coin state.  If any write fails,
    delete every file this run wrote, the one whose write failed and the
    manifest beside each output deleted, then re-raise."""
    taken = [opt for opt in _OPTIONS if cfg.command in opt.commands]
    config = {"command": cfg.command, **{opt.name: getattr(cfg, opt.name) for opt in taken if opt.parse}}
    if init is not None:
        config["initial_coin"] = [[float(c.real), float(c.imag)] for c in init.coin_state]
    manifest = {
        "version": __version__,
        "config": config,
        # the composed coin (c, sx, sy, sz) that every output is computed from;
        # ``config`` names the preset or the coin file
        "coin_parts": list(coin.parts) if coin is not None else None,
        "outputs": [path.name for path in outputs.values()],
        "sign_calibration": sign_calibration(),
    }
    if coin is not None:
        # how far the composed coin is off unitarity after its rotations' roundings
        results = {**(results or {}), "coin_unitarity_error": unitarity_error(compose(coin))}
    if results:
        manifest["results"] = results
    write_manifest = functools.partial(write_json, obj=manifest)
    manifests = {path: _manifest_path(path) for path in outputs.values()}
    jobs = [
        *((path, writers[name]) for name, path in outputs.items()),
        *((manifest_path, write_manifest) for manifest_path in manifests.values()),
    ]
    for directory in dict.fromkeys(path.parent for path in outputs.values()):  # each manifest sits beside its output
        directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for path, write in jobs:
        try:
            write(path)
        except BaseException:  # an interrupted run must not leave a partial output either
            # the failed file is partial, or cut where the write stopped if it
            # existed; an output's manifest, of this run or an earlier one,
            # describes content that is gone
            for done in [*written, path]:
                if _delete_file(done) and done in manifests:
                    _delete_file(manifests[done])
            raise
        written.append(path)


def _delete_file(path: Path) -> bool:
    """Delete ``path`` if it is a regular file this process may write, and say
    whether it did: never a device such as ``/dev/null``, nor a file that a
    run could not open for writing and so left as it was."""
    if not (path.is_file() and os.access(path, os.W_OK)):
        return False
    try:
        path.unlink()
    except OSError:  # the failed write's error is the one to report
        return False
    return True


def _cmd_simulate(cfg: argparse.Namespace, coin: CoinSpec, init: InitialCondition):
    ms = moment_series(init, coin, cfg.steps)
    # skip the trivial t=0 row: a run of N steps yields N data rows
    table = MomentSeries(
        times=ms.times[1:], mean=ms.mean[1:], second=ms.second[1:], variance=ms.variance[1:], norm=ms.norm[1:]
    )
    writers = {"out": table.to_csv, "distribution_out": functools.partial(distribution_to_csv, ms.final)}
    return writers, {"max_norm_drift": ms.max_norm_drift, "walk_kernel": kernel_name()}


def _cmd_dispersion(cfg: argparse.Namespace, coin: CoinSpec, init: None):
    return {"out": functools.partial(dispersion_to_csv, dispersion_band(coin, cfg.grid_size))}, None


def _cmd_asymptotics(cfg: argparse.Namespace, coin: CoinSpec, init: InitialCondition):
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


def _cmd_weak_limit(cfg: argparse.Namespace, coin: CoinSpec, init: InitialCondition):
    vd = weak_limit_density(coin, init, cfg.bins)
    if vd.degenerate:
        print("note: coin is in the sigma_x family; the density collapses onto v = 0")
    results = {"degenerate": vd.degenerate, "s_perp": vd.s_perp, "max_speed": vd.max_speed}
    # how far the binned masses are from summing to 1
    results["mass_error"] = abs(float(np.sum(vd.density * (2.0 / cfg.bins))) - 1.0)
    return {"out": functools.partial(velocity_density_to_csv, vd)}, results


def _cmd_gapscan(cfg: argparse.Namespace, coin: None, init: None):
    closures = enumerate_closures(cfg.grid)
    record = closures_to_dict(closures, grid=cfg.grid)
    record["no_boundary"] = assert_no_boundary(closures)
    print(f"{record['count_points']} closure points; no_boundary = {record['no_boundary']}")
    writers = {
        "out": functools.partial(write_json, obj=record),
        # the map is computed only when it is written
        "map_out": lambda path: gap_map_to_csv(scan_gap_map(cfg.map_grid, cfg.map_grid), path),
    }
    return writers, {"count_points": record["count_points"]}


def _cmd_compare(cfg: argparse.Namespace, coin: CoinSpec, init: InitialCondition):
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
    results = {"loglog_slope": slope, "max_norm_drift": ms.max_norm_drift, "walk_kernel": kernel_name()}
    return {"out": functools.partial(write_csv, header=header, columns=columns)}, results


class _Command(NamedTuple):
    # computes and prints; returns one writer per output option, path -> None,
    # and the manifest ``results``
    run: Callable[[argparse.Namespace, CoinSpec | None, InitialCondition | None], tuple[dict, dict | None]]
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
        args = _parser().parse_args(_joined(sys.argv[1:] if argv is None else list(argv)))
        cfg = _merge(args)
        coin = _resolve_coin(cfg) if cfg.command in _COINS else None
        init = _resolve_initial(cfg) if cfg.command in _WALKS else None
        outputs = _plan_outputs(cfg)
        writers, results = _COMMANDS[cfg.command].run(cfg, coin, init)
        _write_outputs(cfg, outputs, coin, init, writers, results)
        return 0
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
