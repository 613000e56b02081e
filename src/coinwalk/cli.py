"""Command-line front end.

Subcommands: ``simulate``, ``moments``, ``dispersion``, ``asymptotics``,
``weak-limit``, ``gapscan``, ``compare``, each read as ``coinwalk COMMAND
[--name VALUE | --name=VALUE]...`` by full flag name; the last of a repeated
flag wins, ``-h``/``--help`` prints the flags, and ``--version`` goes before
the subcommand.  Every run resolves a single configuration (flat ``key =
value`` config file, overridden by command-line flags), opens each of its
files before it computes, writes the requested data files, and pairs each
output with a ``<name>.manifest.json`` echoing the options the subcommand
takes and the resolved initial state, so the artifact can be reproduced byte
for byte.  A run that fails or is interrupted deletes the files it created or
wrote, so it leaves no output and no manifest behind.

Angles are radians by default; append ``deg`` for degrees (``--theta 45deg``).
Exit codes: 0 success, 1 configuration error, 3 I/O error.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from pathlib import Path
from stat import S_ISREG
from types import SimpleNamespace
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
    weak_limit_distance,
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


def _usage(command: str | None) -> str:
    """The help text: the subcommands, or the flags of ``command`` with their
    help, default and bounds."""
    if command is None:
        head = f"[-h] [--version] COMMAND [--name VALUE | --name=VALUE]...\n\n{__doc__.splitlines()[0]}\n\ncommands:"
        rows = [(name, c.help) for name, c in _COMMANDS.items()]
    else:
        head = f"{command} [--name VALUE | --name=VALUE]...\n\n{_COMMANDS[command].help}\n\noptions:"
        rows = [("-h, --help", "show this help and exit"), ("--config", "flat key = value configuration file")]
        for opt in (opt for opt in _OPTIONS if command in opt.commands):
            notes = [] if opt.default is None else [f"default {opt.default!r}"]
            notes += ["%s to %s" % opt.bounds] if opt.bounds else []
            text = opt.help or _COMMANDS[command].out_help  # out's help is the subcommand's
            rows.append(("--" + opt.name.replace("_", "-"), f"{text} ({'; '.join(notes)})" if notes else text))
    return "\n".join([f"usage: coinwalk {head}", *(f"  {name:<20}{text}" for name, text in rows)])


def _read(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The subcommand and the text of each flag given, from ``argv`` read as
    ``COMMAND [--name VALUE | --name=VALUE]...`` by exact flag name.  The
    word after a flag is its value whatever it begins with, and the last of a
    repeated flag wins.  ``-h``/``--help``, and ``--version`` before the
    subcommand, print and raise ``SystemExit(0)``."""
    words = iter(argv)
    command = next(words, None)
    if command in ("-h", "--help", "--version"):
        print(f"coinwalk {__version__}" if command == "--version" else _usage(None))
        raise SystemExit(0)
    if command not in _COMMANDS:
        invalid = f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, _COMMANDS))})"
        raise ConfigError(invalid if argv else "the following arguments are required: command")
    taken = [opt.name for opt in _OPTIONS if command in opt.commands]
    names = {"--" + name.replace("_", "-"): name for name in ("config", *taken)}
    texts, unknown = {}, []
    for word in words:
        if word in ("-h", "--help"):
            print(_usage(command))
            raise SystemExit(0)
        flag, eq, text = word.partition("=")
        if flag not in names:
            unknown.append(word)
        elif (text := text if eq else next(words, None)) is None:
            raise ConfigError(f"argument {flag}: expected one argument")
        else:
            texts[names[flag]] = text
    if unknown:
        raise ConfigError(f"unrecognized arguments: {' '.join(unknown)}")
    return command, texts


def _merge(command: str, texts: dict[str, str]) -> SimpleNamespace:
    """Every option's value: the flag, else the config file, else
    ``$COINWALK_OUTPUT_DIR`` (``output_dir`` only), else the default.  Text is
    parsed where the option has a parser, so every config-file value is
    checked, also for options the subcommand does not take."""
    config = texts.get("config")
    if config in ("", "--"):  # as for the options below
        raise ConfigError(f"argument --config: {'expected one argument' if config else 'empty path'}")
    fallback = read_config_file(config) if config else {}
    fallback.setdefault("output_dir", os.environ.get(_OUTPUT_DIR_ENV) or None)  # below the file; empty is unset
    cfg = SimpleNamespace(command=command)
    for opt in _OPTIONS:
        text = texts.get(opt.name, fallback.get(opt.name))
        flag = "--" + opt.name.replace("_", "-")
        if text == "":  # as in a config file, where "name =" is an error: empty text is not "not given"
            # an output option (``out``, ``*_out``) would name no file, so nothing would be written
            raise ConfigError(f"argument {flag}: empty {'path' if opt.name.endswith('out') else 'value'}")
        if text == "--":  # "--name=--", "--name --", "name = --": no value at all
            raise ConfigError(f"argument {flag}: expected one argument")
        if text is not None and opt.parse is not None:
            text = _value(opt, text)
        setattr(cfg, opt.name, opt.default if text is None else text)
    if cfg.out is None and _COMMANDS[command].out_required:  # by flag or by config file
        raise ConfigError("the following arguments are required: --out")
    return cfg


def _resolve_coin(cfg: SimpleNamespace) -> CoinSpec:
    if cfg.coin and cfg.coin_file:
        raise ConfigError("give either --coin or --coin-file, not both")
    if not (cfg.coin or cfg.coin_file):
        raise ConfigError("no coin given: use --coin or --coin-file")
    if cfg.coin != "paper_xy" and (cfg.theta is not None or cfg.phi is not None):
        raise ConfigError("theta and phi apply to --coin paper_xy only")
    if cfg.coin_file:
        try:
            with open(cfg.coin_file, encoding="utf-8") as fh:
                records = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read coin file {cfg.coin_file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"coin file {cfg.coin_file}: {exc}") from exc
        try:
            return CoinSpec.from_dicts(records)
        except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: an integer past float range
            raise ConfigError(f"coin file {cfg.coin_file}: {exc}") from exc
    return preset_coin(cfg.coin, theta=cfg.theta, phi=cfg.phi)


def _resolve_initial(cfg: SimpleNamespace) -> InitialCondition:
    coin_text, bloch_text = cfg.initial_coin, cfg.initial_bloch
    if coin_text and bloch_text:
        raise ConfigError("give either initial_coin or initial_bloch, not both")
    if bloch_text:
        parts = [p.strip() for p in str(bloch_text).split(",")]
        if len(parts) != 2:
            raise ConfigError("initial_bloch needs 'alpha,beta'")
        alpha, beta = parse_angle(parts[0], "Bloch angle alpha"), parse_angle(parts[1], "Bloch angle beta")
        return InitialCondition.from_bloch(alpha, beta, cfg.position)
    if coin_text:
        return InitialCondition(_parse_complex_pair(coin_text), cfg.position)
    return InitialCondition(np.array([1.0, 0.0]), cfg.position)  # |0>


class _File(NamedTuple):
    """A file of the run as the plan opened it."""

    fd: int
    created: bool  # by this run
    regular: bool  # as fstat found it: only a regular file is ever deleted
    real: str  # its absolute name at open, never a link in front of it


@contextlib.contextmanager
def _plan_outputs(cfg: SimpleNamespace):
    """Open each file of the run before it computes, and yield ``(outputs,
    files, written)``: the path under ``cfg.output_dir`` of each output
    option (``out``, ``*_out``) that the subcommand takes and was given; each
    output and its ``<name>.manifest.json`` as a :class:`_File` whose
    descriptor stays open for its writer; and the paths whose write has
    started.  A parent directory is made only where nothing lies at its path,
    and a file that cannot be opened raises its own ``OSError``.  Two files
    of the run that are one inode (a path named twice, an output at a
    manifest's path, a hard link) are a config error.  If the ``with`` block
    raises, each regular file this run created or began to write, and the
    manifest beside each such output, is deleted; directories stay."""
    taken = (opt.name for opt in _OPTIONS if cfg.command in opt.commands and opt.name.endswith("out"))
    outputs = {name: Path(cfg.output_dir) / getattr(cfg, name) for name in taken if getattr(cfg, name)}
    files: dict[Path, _File] = {}
    written: list[Path] = []
    try:
        for path in [*outputs.values(), *map(_manifest_path, outputs.values())]:
            if not os.path.lexists(path.parent):  # neither a directory nor a file nor a dangling link
                path.parent.mkdir(parents=True)
            # the file's own name, never a link in front of it; os.path.realpath takes 10 us a file
            real = os.path.realpath(path) if os.path.islink(path) else os.path.join(os.getcwd(), path)
            try:  # the file the path names, created only if missing, also through a dangling link
                fd, created = os.open(real, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
            except OSError:  # it exists, or the path's own open raises the error to report
                fd, created = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), False
            st = os.fstat(fd)
            if any(os.path.samestat(st, os.fstat(file.fd)) for file in files.values()):  # one (st_dev, st_ino)
                os.close(fd)
                raise ConfigError(f"two files of the run would be written to {os.path.realpath(path)}")
            files[path] = _File(fd, created, S_ISREG(st.st_mode), real)
        yield outputs, files, written
    except BaseException:  # an interrupted run must not leave a partial output either
        # a failed file is partial, or cut where its write stopped if it existed;
        # an output's manifest, of this run or an earlier one, describes content that is gone
        gone = {path for path, file in files.items() if file.created or path in written}
        gone |= {_manifest_path(path) for path in gone if path in outputs.values()}
        for path in gone & files.keys():
            with contextlib.suppress(OSError):  # the run's own error is the one to report
                if files[path].regular:
                    Path(files[path].real).unlink()
        raise
    finally:
        for file in files.values():
            os.close(file.fd)


def _manifest_path(path: Path) -> Path:
    return path.with_name(path.name + ".manifest.json")


def _write_outputs(
    cfg: SimpleNamespace,
    plan: tuple[dict[str, Path], dict[Path, _File], list[Path]],
    coin: CoinSpec | None,
    init: InitialCondition | None,
    writers: dict,
    results: dict | None,
) -> None:
    """Write each planned output by its option's writer, then its
    ``<name>.manifest.json``, whose ``config`` holds the parsed options the
    subcommand takes and a walk's initial coin state, to the plan's descriptors."""
    outputs, files, written = plan
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
    jobs = [(path, writers[name]) for name, path in outputs.items()]
    jobs += [(_manifest_path(path), write_manifest) for path in outputs.values()]
    for path, write in jobs:
        written.append(path)
        write(files[path].fd)


def _cmd_simulate(cfg: SimpleNamespace, coin: CoinSpec, init: InitialCondition):
    ms = moment_series(init, coin, cfg.steps)
    # skip the trivial t=0 row: a run of N steps yields N data rows
    table = MomentSeries(ms.times[1:], ms.mean[1:], ms.second[1:], ms.variance[1:], ms.norm[1:])
    writers = {"out": table.to_csv, "distribution_out": functools.partial(distribution_to_csv, ms.final)}
    return writers, {"max_norm_drift": ms.max_norm_drift, "walk_kernel": kernel_name()}


def _cmd_dispersion(cfg: SimpleNamespace, coin: CoinSpec, init: None):
    return {"out": functools.partial(dispersion_to_csv, dispersion_band(coin, cfg.grid_size))}, None


def _cmd_asymptotics(cfg: SimpleNamespace, coin: CoinSpec, init: InitialCondition):
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


def _cmd_weak_limit(cfg: SimpleNamespace, coin: CoinSpec, init: InitialCondition):
    vd = weak_limit_density(coin, init, cfg.bins)
    if vd.degenerate:
        print("note: coin is in the sigma_x family; the density collapses onto v = 0")
    results = {"degenerate": vd.degenerate, "s_perp": vd.s_perp, "max_speed": vd.max_speed}
    # how far the binned masses are from summing to 1
    results["mass_error"] = abs(float(np.sum(vd.density * (2.0 / cfg.bins))) - 1.0)
    return {"out": functools.partial(velocity_density_to_csv, vd)}, results


def _cmd_gapscan(cfg: SimpleNamespace, coin: None, init: None):
    closures = enumerate_closures(cfg.grid)
    record = closures_to_dict(closures, grid=cfg.grid)
    record["no_boundary"] = assert_no_boundary(closures)
    print(f"{record['count_points']} closure points; no_boundary = {record['no_boundary']}")
    writers = {
        "out": functools.partial(write_json, obj=record),
        # the map is computed only when it is written
        "map_out": lambda fd: gap_map_to_csv(scan_gap_map(cfg.map_grid), fd),
    }
    return writers, {"count_points": record["count_points"]}


def _cmd_compare(cfg: SimpleNamespace, coin: CoinSpec, init: InitialCondition):
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
    results["weak_limit_distance"] = weak_limit_distance(coin, init, ms.final)
    return {"out": functools.partial(write_csv, header=header, columns=columns)}, results


class _Command(NamedTuple):
    # computes and prints; returns one writer per output option, which takes
    # the descriptor the plan opened, and the manifest ``results``
    run: Callable[[SimpleNamespace, CoinSpec | None, InitialCondition | None], tuple[dict, dict | None]]
    help: str
    out_help: str
    out_required: bool = True


_COMMANDS = {
    "simulate": _Command(
        _cmd_simulate, "exact walk; writes the per-step moment table", "moment table CSV (t,mean,second,variance)"
    ),
    # same table, no distribution option
    "moments": _Command(_cmd_simulate, "per-step moment table only", "moment table CSV (t,mean,second,variance)"),
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
        cfg = _merge(*_read(sys.argv[1:] if argv is None else list(argv)))
        coin = _resolve_coin(cfg) if cfg.command in _COINS else None
        init = _resolve_initial(cfg) if cfg.command in _WALKS else None
        with _plan_outputs(cfg) as plan:
            writers, results = _COMMANDS[cfg.command].run(cfg, coin, init)
            _write_outputs(cfg, plan, coin, init, writers, results)
        return 0
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
