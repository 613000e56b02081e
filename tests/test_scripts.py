"""Smoke tests of the experiment scripts: each README script line, shrunk to
a small size, exits 0 and writes the files it lists, and an out-of-range
argument ends in a one-line message."""

import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script, or CLI subcommand -> (flags appended to its README line, files it must write)
SMALL_RUNS = {
    "run_spreading_survey.py": (["--coins", "2", "--steps", "50"], ["spreading_survey.csv"]),
    "gapscan": (["--grid", "181", "--map-grid", "32"], ["gap_closures.json", "gap_map.csv"]),
    "run_weak_limit_demo.py": (
        ["--steps", "50"],
        ["weak_limit_hadamard_analog.csv", "weak_limit_paper_xy_quarter.csv"],
    ),
}
MAX_COINS = runpy.run_path(str(ROOT / "scripts" / "run_spreading_survey.py"))["_MAX_COINS"]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _readme_script_lines() -> dict[str, list[str]]:
    """Each line of the README block as ``name -> (command line, output-directory flag)``."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Experiment scripts", 1)[1].split("```", 2)[1]
    lines = {}
    for line in block.splitlines():
        argv = shlex.split(line.split("#", 1)[0])
        if argv[:1] == ["python"]:
            lines[Path(argv[1]).name] = ([sys.executable, *argv[1:]], "--outdir")
        elif argv[:1] == ["coinwalk"]:
            lines[argv[1]] = ([sys.executable, "-m", "coinwalk.cli", *argv[1:]], "--output-dir")
    return lines


def test_readme_lists_every_script():
    assert sorted(_readme_script_lines()) == sorted(SMALL_RUNS)


@pytest.mark.parametrize("script", sorted(SMALL_RUNS))
def test_script_runs_small(tmp_path, script):
    flags, files = SMALL_RUNS[script]
    argv, outdir_flag = _readme_script_lines()[script]
    proc = subprocess.run(
        [*argv, *flags, outdir_flag, str(tmp_path)], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    for name in files:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) > 1, name


def test_weak_limit_demo_histogram_matches_per_site_binning(tmp_path):
    # the script's empirical column against binning the distribution site by site
    import numpy as np

    from coinwalk.coins import preset_coin
    from coinwalk.walk import InitialCondition, evolve
    from helpers import distribution

    steps, bins = 37, 32
    argv = [sys.executable, str(ROOT / "scripts" / "run_weak_limit_demo.py"),
            "--steps", str(steps), "--bins", str(bins), "--outdir", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    width = 2.0 / bins
    emp = np.zeros(bins)
    init = InitialCondition(np.array([1.0, 0.0]))
    for x, p in distribution(evolve(init, preset_coin("hadamard_analog"), steps)).items():
        emp[min(bins - 1, int((x / steps + 1.0) / width))] += p
    rows = (tmp_path / "weak_limit_hadamard_analog.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["%.17g" % v for v in emp / width]


@pytest.mark.parametrize("argv", [
    ["run_spreading_survey.py", "--steps", "-1"],
    ["run_spreading_survey.py", "--coins", "-1"],
    ["run_spreading_survey.py", "--coins", str(MAX_COINS + 1)],
    ["run_spreading_survey.py", "--seed", "-1"],
    ["run_weak_limit_demo.py", "--bins", "5"],
    ["run_weak_limit_demo.py", "--bins", "0"],
    ["run_weak_limit_demo.py", "--steps", "0"],
], ids=" ".join)
def test_out_of_range_argument_is_one_line(tmp_path, argv):
    script, *flags = argv
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *flags, "--outdir", str(tmp_path)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2
    message = [line for line in proc.stderr.splitlines() if not line.startswith(("usage:", " "))]
    assert len(message) == 1 and f"argument {flags[0]}: " in message[0], proc.stderr
    assert not any(tmp_path.iterdir())
