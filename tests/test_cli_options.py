"""The CLI option table: flags, defaults and bounds, and how every value ends.

Each run must either exit 0 with outputs that hold only finite numbers or
empty fields, or exit 1 or 3 with exactly one stderr line, no traceback
and no file written.
"""

import contextlib
import errno
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coinwalk import __version__, cli, export

# flags per subcommand and config keys that the option table must produce
FLAGS = {
    "simulate": "coin coin-file config distribution-out initial-bloch initial-coin out output-dir phi position "
    "steps theta",
    "moments": "coin coin-file config initial-bloch initial-coin out output-dir phi position steps theta",
    "dispersion": "coin coin-file config grid-size out output-dir phi theta",
    "asymptotics": "coin coin-file config grid-size initial-bloch initial-coin out output-dir phi position theta",
    "weak-limit": "bins coin coin-file config grid-size initial-bloch initial-coin out output-dir phi position theta",
    "gapscan": "config grid map-grid map-out out output-dir",
    "compare": "coin coin-file config grid-size initial-bloch initial-coin out output-dir phi position steps theta",
}
CONFIG_KEYS = {
    "bins", "coin", "coin_file", "distribution_out", "grid", "grid_size", "initial_bloch", "initial_coin",
    "map_grid", "map_out", "out", "output_dir", "phi", "position", "steps", "theta",
}
PREFIX = {1: "config error:", 3: "i/o error:"}

# a quick valid run of each subcommand, as config key -> text
COIN = {"coin": "paper_xy", "theta": "0.3", "phi": "0.7"}
BASE = {
    "simulate": {**COIN, "steps": "3", "out": "o.csv", "distribution_out": "d.csv"},
    "moments": {**COIN, "steps": "3", "out": "o.csv"},
    "dispersion": {**COIN, "grid_size": "64", "out": "o.csv"},
    "asymptotics": {**COIN, "initial_bloch": "1,2", "out": "o.json"},
    "weak-limit": {**COIN, "bins": "32", "out": "o.csv"},
    "gapscan": {"grid": "181", "out": "o.json", "map_out": "m.csv", "map_grid": "5"},
    "compare": {**COIN, "steps": "3", "out": "o.csv"},
}
# the size options, each with the largest in-range value the fuzz draws (keeps each run fast)
CHEAP = {"steps": 200, "grid_size": 4096, "bins": 4096, "grid": 2000, "map_grid": 60}
# (subcommand, option) pairs that take a number
ROWS = [
    (command, opt)
    for command in cli._COMMANDS
    for opt in cli._OPTIONS
    if command in opt.commands and (opt.bounds or opt.parse is cli.parse_angle)
]


def _flags(options: dict) -> list[str]:
    return [f"--{key.replace('_', '-')}={text}" for key, text in options.items()]


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


def _assert_clean(code: int, out: str, err: str, outdir: Path) -> None:
    if code == 0:
        assert not re.search(r"\b(nan|inf)", out, re.IGNORECASE), out
        for path in outdir.iterdir():
            text = path.read_text()
            if path.suffix == ".json":
                json.loads(text, parse_constant=_reject_constant)
                continue
            for row in text.splitlines()[1:]:
                assert all(f == "" or math.isfinite(float(f)) for f in row.split(",")), (path.name, row)
        return
    assert code in PREFIX, (code, err)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(PREFIX[code]), err
    assert "Traceback" not in err
    assert not any(outdir.iterdir())


@st.composite
def _cases(draw):
    command, opt = draw(st.sampled_from(ROWS))
    kind = draw(st.sampled_from(["in range", "below", "text", "nan"] if opt.bounds else ["in range", "text", "nan"]))
    if kind == "in range" and opt.bounds:
        lo, hi = opt.bounds
        hi = min(hi, CHEAP.get(opt.name, hi))
        text = repr(draw(st.integers(lo, hi) if opt.parse is int else st.floats(lo, hi)))
    elif kind == "in range":
        text = repr(draw(st.floats(-1e6, 1e6))) + draw(st.sampled_from(["", "deg"]))
    elif kind == "below":
        text = repr(opt.bounds[0] - 1)
    elif kind == "text":
        text = draw(st.sampled_from(["abc", "1x", "0x10", "1e3", "", "--"]) | st.text(max_size=6))
    else:
        text = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "nandeg"]))
    return command, opt.name, text, draw(st.booleans())


def _run_cleanly(tmp: Path, argv: list[str]) -> int:
    """Run ``argv`` with its outputs under ``tmp/out``, check how it ended and return its exit code."""
    outdir = tmp / "out"
    outdir.mkdir()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, f"--output-dir={outdir}"])
    _assert_clean(code, out.getvalue(), err.getvalue(), outdir)
    return code


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_every_option_value_ends_cleanly(case):
    command, name, text, via_config = case
    options = dict(BASE[command])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command]
        if via_config:
            options.pop(name, None)
            (tmp / "run.cfg").write_text(f"{name} = {text}\n")
            argv.append(f"--config={tmp / 'run.cfg'}")
        else:
            options[name] = text
        _run_cleanly(tmp, argv + _flags(options))


# one number as text: any float, values whose squares overflow or underflow,
# an integer past float range, and a few that are not numbers
_EDGES = ["0", "1", "-1", "0.6", "1e200", "-1e300", "1e-320", "1" + "0" * 400]
_NUMBER = st.floats().map(repr) | st.sampled_from([*_EDGES, "nan", "-inf", "abc", ""])
_JSON_NUMBER = st.floats().map(json.dumps) | st.sampled_from([*_EDGES, "1e400", '"1"', "null"])


@st.composite
def _state_cases(draw):
    """A walk subcommand and ``initial_coin`` or ``initial_bloch`` text: a
    normalised state, a pair of drawn numbers, or any text."""
    command = draw(st.sampled_from(cli._WALKS))
    name = draw(st.sampled_from(["initial_coin", "initial_bloch"]))
    kind = draw(st.sampled_from(["valid", "pair", "text"]))
    if kind == "text":
        return command, name, draw(st.text(max_size=8))
    if kind == "valid" and name == "initial_coin":
        a, b = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
        return command, name, f"{math.cos(a)!r},{complex(math.sin(a) * math.cos(b), math.sin(a) * math.sin(b))!r}"
    number = st.floats(-1e6, 1e6).map(repr) if kind == "valid" else _NUMBER
    suffix = st.sampled_from(["", "j"] if name == "initial_coin" else ["", "deg"])
    return command, name, ",".join(draw(number) + draw(suffix) for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(_state_cases())
def test_initial_state_text_ends_cleanly(case):
    command, name, text = case
    options = {key: value for key, value in BASE[command].items() if key != "initial_bloch"}
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_cleanly(Path(tmp), [command, *_flags({**options, name: text})]) in (0, 1)


@st.composite
def _coin_files(draw):
    """Coin-file JSON of one or two records, each with a unit axis or three drawn
    numbers, and a drawn ``angle_rad`` or ``angle_deg``."""
    records = []
    for _ in range(draw(st.integers(1, 2))):
        v = draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
        norm = math.sqrt(sum(c * c for c in v))
        if draw(st.booleans()) and norm > 0.1:
            axis = [repr(c / norm) for c in v]
        else:
            axis = draw(st.lists(_JSON_NUMBER, min_size=3, max_size=3))
        key = draw(st.sampled_from(["angle_rad", "angle_deg"]))
        records.append(f'{{"axis": [{", ".join(axis)}], "{key}": {draw(_JSON_NUMBER)}}}')
    return draw(st.sampled_from(cli._COINS)), f"[{', '.join(records)}]"


@settings(max_examples=150, deadline=None)
@given(_coin_files())
def test_coin_file_values_end_cleanly(case):
    command, text = case
    options = {key: value for key, value in BASE[command].items() if key not in COIN}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "coin.json").write_text(text)
        assert _run_cleanly(tmp, [command, *_flags({**options, "coin_file": str(tmp / "coin.json")})]) in (0, 1)


_OVERSIZED_RUNNER = """
import contextlib, io, json, os, sys, tempfile
from coinwalk.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--output-dir", outdir])
        results.append([code, err.getvalue(), os.listdir(outdir)])
print(json.dumps(results))
"""


def test_oversized_values_are_config_errors_under_memory_cap():
    # one value just past each upper bound and one far past it, run in a
    # child process under a 1 GiB address-space cap, never in this one
    cases, argvs = [], []
    for command, opt in ROWS:
        if opt.bounds:
            hi = opt.bounds[1]
            for value in (hi + 1, hi * 1000) if opt.parse is int else (hi * 2,):
                cases.append((command, opt.name))
                argvs.append([command, *_flags({**BASE[command], opt.name: repr(value)})])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _OVERSIZED_RUNNER], input=json.dumps(argvs), env=env, preexec_fn=cap,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(cases) > 20
    for (command, name), (code, err, left) in zip(cases, results):
        assert code == 1, (command, name, err)
        assert err.splitlines() == [err.strip()] and err.startswith(f"config error: {name} must be <= "), err
        assert left == [], (command, name)


@pytest.mark.parametrize("value", ["0", "1", "-1"])
def test_map_grid_below_two_writes_nothing(tmp_path, capsys, value):
    options = {**BASE["gapscan"], "map_grid": value}
    assert cli.main(["gapscan", f"--output-dir={tmp_path}", *_flags(options)]) == 1
    assert capsys.readouterr().err == "config error: map_grid must be >= 2\n"
    assert not any(tmp_path.iterdir())


# (subcommand, option) pairs that name an output file
OUTPUT_ROWS = [
    (command, opt.name)
    for command in cli._COMMANDS
    for opt in cli._OPTIONS
    if command in opt.commands and opt.name in ("out", "distribution_out", "map_out")
]


@pytest.mark.parametrize("command, name", OUTPUT_ROWS)
@pytest.mark.parametrize("equals", [True, False], ids=["--name=", "--name ''"])
def test_empty_output_path_is_a_config_error(tmp_path, capsys, command, name, equals):
    # an empty path names no file: the run must not end 0 with nothing written
    flag = "--" + name.replace("_", "-")
    options = {key: text for key, text in BASE[command].items() if key != name}
    empty = [f"{flag}="] if equals else [flag, ""]
    assert cli.main([command, f"--output-dir={tmp_path}", *_flags(options), *empty]) == 1
    assert capsys.readouterr().err == f"config error: argument {flag}: empty path\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, name", OUTPUT_ROWS)
@pytest.mark.parametrize("target", ["dir", "file/under.csv"])
def test_unwritable_output_leaves_no_file_of_the_run(tmp_path, capsys, command, name, target):
    # the other outputs of the run are written before or after this one fails;
    # none of them, and no manifest, may be left behind
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("a file\n")
    (tmp_path / "keep.txt").write_text("unrelated\n")
    options = {**BASE[command], name: target}
    assert cli.main([command, f"--output-dir={tmp_path}", *_flags(options)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("i/o error:") and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file", "keep.txt"]
    assert not any((tmp_path / "dir").iterdir())
    assert (tmp_path / "file").read_text() == "a file\n"
    assert (tmp_path / "keep.txt").read_text() == "unrelated\n"


# each pair of outputs that one run takes
OUTPUT_PAIRS = [("simulate", "out", "distribution_out"), ("gapscan", "out", "map_out")]


@pytest.mark.parametrize("command, first, second", OUTPUT_PAIRS)
@pytest.mark.parametrize("clash", ["same", "dot-slash", "manifest of first", "manifest of second"])
def test_two_files_of_the_run_at_one_path_leave_no_file_of_the_run(tmp_path, capsys, command, first, second, clash):
    # one file would overwrite the other and the run would end 0 with an
    # output lost: it is a config error, before anything is written
    (tmp_path / "keep.txt").write_text("unrelated\n")
    # the two paths, and the one they share
    first_path, second_path, shared = {
        "same": ("x.out", "x.out", "x.out"),
        "dot-slash": ("x.out", "./x.out", "x.out"),
        "manifest of first": ("x.out", "x.out.manifest.json", "x.out.manifest.json"),
        "manifest of second": ("x.out.manifest.json", "x.out", "x.out.manifest.json"),
    }[clash]
    options = {**BASE[command], first: first_path, second: second_path}
    assert cli.main([command, f"--output-dir={tmp_path}", *_flags(options)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: two files of the run would be written to {tmp_path.resolve() / shared}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]
    assert (tmp_path / "keep.txt").read_text() == "unrelated\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gapscan", "--grid=2881", "--out=a.json", "--map-out=a.json"],
        ["simulate", "--coin=hadamard_analog", "--steps=20000", "--out=x.csv", "--distribution-out=x.csv"],
    ],
    ids=["gapscan", "simulate"],
)
def test_two_files_at_one_path_fail_before_the_run_computes(tmp_path, capsys, monkeypatch, argv):
    # the clash is known from the options alone: no walk, no scan, nothing printed
    calls = []
    for name in ("moment_series", "enumerate_closures"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    assert cli.main([*argv, f"--output-dir={tmp_path}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: two files of the run would be written to "), err
    assert calls == []
    assert not any(tmp_path.iterdir())


def test_two_names_of_one_file_fail_before_the_run_computes(tmp_path, capsys, monkeypatch):
    # a hard link is one file under two names: the map would overwrite the closures
    (tmp_path / "a.json").write_text("a file\n")
    os.link(tmp_path / "a.json", tmp_path / "b.csv")
    calls = []
    for name in ("enumerate_closures", "scan_gap_map"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    argv = ["gapscan", "--grid=181", "--out=a.json", "--map-out=b.csv", f"--output-dir={tmp_path}"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: two files of the run would be written to {tmp_path.resolve() / 'b.csv'}\n"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.csv"]
    assert [(tmp_path / name).read_text() for name in ("a.json", "b.csv")] == ["a file\n"] * 2


@pytest.mark.parametrize(
    "argv, path, code",
    [
        (["gapscan", "--grid=2881", "--out=file/a.json"], "file/a.json", errno.ENOTDIR),
        (["moments", "--coin=hadamard_analog", "--steps=20000", "--out=file/m.csv"], "file/m.csv", errno.ENOTDIR),
        (["gapscan", "--grid=2881", "--out=sub"], "sub", errno.EISDIR),
        (["simulate", "--coin=hadamard_analog", "--steps=20000", "--out=m.csv", "--distribution-out=sub"], "sub",
         errno.EISDIR),
        (["gapscan", "--grid=2881", "--out=x.json"], "x.json.manifest.json", errno.EISDIR),
        (["moments", "--coin=hadamard_analog", "--steps=20000", "--out=locked/m.csv"], "locked/m.csv", errno.EACCES),
        (["simulate", "--coin=hadamard_analog", "--steps=20000", "--out=dangling/m.csv"], "dangling/m.csv",
         errno.ENOENT),
        (["simulate", "--coin=hadamard_analog", "--steps=20000", "--out=m.csv", "--distribution-out=link.csv"],
         "link.csv", errno.ENOENT),
    ],
    ids=["under a file", "walk under a file", "a directory", "distribution a directory", "manifest a directory",
         "no write permission", "under a dangling link", "a dangling link to a missing directory"],
)
def test_an_unwritable_output_fails_before_the_run_computes(tmp_path, capsys, monkeypatch, argv, path, code):
    # each file of the run is opened before the run computes: exit 3 with
    # that open's error, no walk, no scan, nothing printed and nothing created
    (tmp_path / "file").write_text("a file\n")
    for directory in ("sub", "x.json.manifest.json", "locked"):
        (tmp_path / directory).mkdir()
    (tmp_path / "dangling").symlink_to("nowhere")
    (tmp_path / "link.csv").symlink_to("missing/x.csv")
    real_open = os.open  # root may write anywhere, so "locked" is denied by a stand-in

    def locked_open(path, *args):
        if Path(path).parent.name == "locked":
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        return real_open(path, *args)

    monkeypatch.setattr(cli.os, "open", locked_open)
    calls = []
    for name in ("moment_series", "enumerate_closures"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    assert cli.main([*argv, f"--output-dir={tmp_path}"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"i/o error: [Errno {code}] {os.strerror(code)}: '{tmp_path / path}'\n", err
    assert calls == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "dangling", "file", "link.csv", "locked", "sub", "x.json.manifest.json"
    ]


def test_a_dangling_link_whose_target_directory_exists_receives_the_output(tmp_path):
    # the write follows the link and creates its target, as the plan allows
    (tmp_path / "target").mkdir()
    (tmp_path / "link.csv").symlink_to("target/m.csv")
    argv = ["moments", "--coin=hadamard_analog", "--steps=20", "--out=link.csv", f"--output-dir={tmp_path}"]
    assert cli.main(argv) == 0
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "target" / "m.csv").read_text().startswith("t,mean,second,variance\n")


def test_a_failed_write_through_a_link_deletes_the_file_and_keeps_the_link(tmp_path, monkeypatch):
    # the header reaches target/m.csv, then the disk fills: the partial file
    # goes, and the link in front of it stays
    (tmp_path / "target").mkdir()
    (tmp_path / "link.csv").symlink_to("target/m.csv")

    def disk_full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(export, "_write_formatted", disk_full)
    monkeypatch.setattr(export, "_percent_body", disk_full)
    argv = ["moments", "--coin=hadamard_analog", "--steps=20", "--out=link.csv", f"--output-dir={tmp_path}"]
    assert cli.main(argv) == 3
    assert os.readlink(tmp_path / "link.csv") == "target/m.csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target"]
    assert not any((tmp_path / "target").iterdir())


def test_output_through_a_symlink_loop_is_an_io_error(tmp_path, capsys):
    # the check for two files at one path must not fail on a path it cannot resolve
    (tmp_path / "a").symlink_to("b")
    (tmp_path / "b").symlink_to("a")
    assert cli.main(["gapscan", f"--output-dir={tmp_path}", "--grid=181", "--out=a/o.json", "--map-out=a/m.csv"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("i/o error:"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_manifest_config_holds_the_options_its_subcommand_takes(tmp_path, command):
    # every option the subcommand takes that parses to a value, plus the
    # resolved initial state of a walk; nothing else
    assert cli.main([command, f"--output-dir={tmp_path}", *_flags(BASE[command])]) == 0
    taken = {opt.name for opt in cli._OPTIONS if command in opt.commands and opt.parse}
    walks = {"simulate", "moments", "asymptotics", "weak-limit", "compare"}
    expected = {"command", *taken, *(["initial_coin"] if command in walks else [])}
    for manifest in tmp_path.glob("*.manifest.json"):
        config = json.loads(manifest.read_text())["config"]
        assert set(config) == expected, (command, sorted(config))
        assert config["command"] == command and config["output_dir"] == str(tmp_path)
        for key, text in BASE[command].items():
            if key in taken and key not in ("theta", "phi"):
                assert config[key] == type(config[key])(text), key


def test_config_file_value_is_checked_for_an_option_the_subcommand_does_not_take(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("bins = 5\n")
    options = {**BASE["simulate"], "output_dir": str(tmp_path / "out")}
    assert cli.main(["simulate", f"--config={config}", *_flags(options)]) == 1
    assert capsys.readouterr().err == f"config error: bins must be >= {cli.MIN_BINS}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_gapscan_takes_no_tol(tmp_path, capsys, via_config):
    # a closure is a mesh cell whose gap is 0 in doubles: there is no tolerance to set
    options = {**BASE["gapscan"], "output_dir": str(tmp_path / "out")}
    config = tmp_path / "run.cfg"
    config.write_text("tol = 1e-8\n")
    tol = [f"--config={config}"] if via_config else ["--tol", "1e-8"]
    assert cli.main(["gapscan", *_flags(options), *tol]) == 1
    expected = f"{config}:1: unknown key 'tol'" if via_config else "unrecognized arguments: --tol 1e-8"
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "words, flag",
    [
        (["--out", "--"], "--out"),
        (["--out=--"], "--out"),
        (["--config={config}"], "--out"),  # the config line "out = --"
        (["--out=o.csv", "--config", "--"], "--config"),
        (["--out=o.csv", "--config=--"], "--config"),
    ],
)
def test_double_dash_is_no_value_in_every_spelling(tmp_path, capsys, words, flag):
    # argparse reads "--name=--", and so "--name --", as no value; a config line reads the same
    config = tmp_path / "run.cfg"
    config.write_text("out = --\n")
    options = {key: text for key, text in BASE["moments"].items() if key != "out"}
    argv = ["moments", *_flags(options), f"--output-dir={tmp_path / 'out'}", *(w.format(config=config) for w in words)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"config error: argument {flag}: expected one argument\n"
    assert not (tmp_path / "out").exists()


def test_table_gives_the_same_flags_and_config_keys(capsys):
    assert {opt.name for opt in cli._OPTIONS} == CONFIG_KEYS
    for command in cli._COMMANDS:
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        flags = set(re.findall(r"^  --([a-z-]+)", capsys.readouterr().out, re.MULTILINE))
        assert flags == set(FLAGS[command].split()), command


def test_defaults_and_sizes_in_use_lie_within_bounds():
    in_use = {"grid_size": 262144, "grid": 200001, "steps": 10**4, "bins": 256, "map_grid": 181}
    for opt in cli._OPTIONS:
        if opt.bounds:
            lo, hi = opt.bounds
            assert lo <= opt.default <= hi, opt.name
            assert lo <= in_use.get(opt.name, lo) <= hi, opt.name


def test_a_run_imports_no_argparse(tmp_path):
    # the CLI reads argv from its own option table; argparse would cost every process its import
    run = (
        "import sys; from coinwalk import cli; "
        "code = cli.main(['moments', '--coin', 'identity', '--steps', '3', '--out', 'm.csv']); "
        "print(code, 'argparse' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", run], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 False\n", "")


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_renders(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    if command is None:
        assert all(name in text for name in cli._COMMANDS)
        return
    for flag in FLAGS[command].split():
        assert f"--{flag}" in text, flag
    # every flag row states what the flag is for
    rows = re.findall(r"^  (--[a-z-]+)(.*)$", text, re.MULTILINE)
    assert sorted(flag for flag, _ in rows) == sorted(f"--{flag}" for flag in FLAGS[command].split())
    for flag, help_text in rows:
        assert help_text.strip(), flag
    for opt in cli._OPTIONS:
        if opt.bounds and command in opt.commands:
            assert f"{opt.bounds[0]} to {opt.bounds[1]}" in " ".join(text.split()), opt.name
    if command == "asymptotics":
        assert "without it only the coefficients and the classification are printed" in " ".join(text.split())


def test_readme_states_the_size_ranges():
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    for opt in cli._OPTIONS:
        if opt.name in CHEAP:
            default = opt.default
            assert f"`--{opt.name.replace('_', '-')}`" in readme
            assert f"default {default}, {opt.bounds[0]} to {opt.bounds[1]}" in readme, opt.name


# every (subcommand, option) pair; each runs with BASE's other options, less
# the ones that the option excludes
FLAG_ROWS = [(command, opt.name) for command in cli._COMMANDS for opt in cli._OPTIONS if command in opt.commands]
_EXCLUDES = {"coin_file": ("coin", "theta", "phi"), "initial_coin": ("initial_bloch",)}
# text that a config line carries as it is: no "#", no line break and no blank
# at either end; and no "/", so that every path stays inside the run's directory
_LINE_TEXT = st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="#/"), max_size=10).filter(
    lambda text: text == text.strip() and (text.splitlines() or [""]) == [text]
)


def _run_in(directory: Path, argv: list[str]) -> tuple:
    """Exit code, stdout and every file under ``directory`` (relative path ->
    bytes) of ``argv`` run from ``directory / "run"``."""
    (directory / "run").mkdir(parents=True)
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(directory / "run")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}
    return code, out.getvalue(), files


@pytest.mark.parametrize("command, name", FLAG_ROWS)
@settings(max_examples=5, deadline=None)
@given(text=_LINE_TEXT)
@example(text="")
@example(text="-45deg")
@example(text="--")
def test_a_flag_and_a_config_line_end_alike(command, name, text):
    """``--name TEXT`` and a config file's ``name = TEXT`` give the same exit
    code, stdout and files, byte for byte; the empty text and ``--``
    included."""
    if name in CHEAP:  # a size past CHEAP's makes a slow run
        with contextlib.suppress(ValueError):
            assume(int(text) <= CHEAP[name])
    options = {key: value for key, value in BASE[command].items() if key not in (name, *_EXCLUDES.get(name, ()))}
    flag = "--" + name.replace("_", "-")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text(f"{name} = {text}\n", encoding="utf-8")
        expected = _run_in(tmp / "config", [command, f"--config={tmp / 'run.cfg'}", *_flags(options)])
        for i, spelling in enumerate([[f"{flag}={text}"], [flag, text]]):
            assert _run_in(tmp / f"flag{i}", [command, *_flags(options), *spelling]) == expected, spelling


COMMAND_CHOICES = "'simulate', 'moments', 'dispersion', 'asymptotics', 'weak-limit', 'gapscan', 'compare'"


def _ends(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of ``argv``; a ``SystemExit`` gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param([], (1, "", "config error: the following arguments are required: command\n"), id="no command"),
        pytest.param(
            ["bogus"],
            (1, "", f"config error: argument command: invalid choice: 'bogus' (choose from {COMMAND_CHOICES})\n"),
            id="bogus command",
        ),
        pytest.param(["--version"], (0, f"coinwalk {__version__}\n", ""), id="version"),
        pytest.param(
            ["moments", "--coin=identity", "--out"], (1, "", "config error: argument --out: expected one argument\n"),
            id="flag without value",
        ),
        pytest.param(
            ["gapscan", "--out=o.json", "--tol", "1e-8"], (1, "", "config error: unrecognized arguments: --tol 1e-8\n"),
            id="unknown flag",
        ),
        pytest.param(
            ["gapscan", "--out=o.json", "stray"], (1, "", "config error: unrecognized arguments: stray\n"),
            id="stray word",
        ),
        pytest.param(
            ["gapscan", "--out=o.json", "--", "x"], (1, "", "config error: unrecognized arguments: -- x\n"),
            id="double dash",
        ),
        pytest.param(
            ["moments", "--out=o.csv", "-h"], (0, re.compile(r"usage: coinwalk moments .*--steps.*", re.DOTALL), ""),
            id="subcommand help",
        ),
        # ends as the last value given alone, which is not the first's
        pytest.param(
            ["asymptotics", "--coin=identity", "--coin", "sigma_x"], ["asymptotics", "--coin", "sigma_x"],
            id="repeated flag",
        ),
        # a flag is read by its full name only: "--grid-s" is not "--grid-size"
        pytest.param(
            ["dispersion", "--coin=sigma_x", "--grid-s", "64", "--out=o.csv"],
            (1, "", "config error: unrecognized arguments: --grid-s 64\n"),
            id="no abbreviation",
        ),
    ],
)
def test_the_reader_ends_each_argv_as_pinned(tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    code, out, err = _ends(argv)
    if isinstance(expected, list):
        assert (code, out, err) == _ends(expected) != _ends([*expected[:1], "--coin", "identity"])
    elif isinstance(expected[1], re.Pattern):
        assert (code, err) == (expected[0], expected[2]) and expected[1].fullmatch(out), out
    else:
        assert (code, out, err) == expected
    assert not any(tmp_path.iterdir())
