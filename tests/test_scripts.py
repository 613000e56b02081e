"""Smoke tests of the experiment scripts: each README script line, shrunk to
a small size, exits 0 and writes the files it lists."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> (flags appended to its README line, files it must write)
SMALL_RUNS = {
    "run_spreading_survey.py": (["--coins", "2", "--steps", "50"], ["spreading_survey.csv"]),
    "run_gap_survey.py": (["--grid", "181", "--map-grid", "32"], ["gap_closures.json", "gap_map.csv"]),
    "run_weak_limit_demo.py": (
        ["--steps", "50"],
        ["weak_limit_hadamard_analog.csv", "weak_limit_paper_xy_quarter.csv"],
    ),
}


def _readme_script_lines() -> dict[str, list[str]]:
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Experiment scripts", 1)[1].split("```", 2)[1]
    argvs = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines() if line.startswith("python ")]
    return {Path(argv[1]).name: argv[1:] for argv in argvs}


def test_readme_lists_every_script():
    assert sorted(_readme_script_lines()) == sorted(SMALL_RUNS)


@pytest.mark.parametrize("script", sorted(SMALL_RUNS))
def test_script_runs_small(tmp_path, script):
    flags, files = SMALL_RUNS[script]
    argv = [sys.executable, *_readme_script_lines()[script], *flags, "--outdir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in files:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) > 1, name


def test_weak_limit_demo_histogram_matches_per_site_binning(tmp_path):
    # the script's empirical column against binning the distribution site by site
    import numpy as np

    from coinwalk.coins import preset_coin
    from coinwalk.walk import InitialCondition, distribution, evolve

    steps, bins = 37, 32
    argv = [sys.executable, str(ROOT / "scripts" / "run_weak_limit_demo.py"),
            "--steps", str(steps), "--bins", str(bins), "--outdir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    width = 2.0 / bins
    emp = np.zeros(bins)
    init = InitialCondition(np.array([1.0, 0.0]))
    for x, p in distribution(evolve(init, preset_coin("hadamard_analog"), steps)).items():
        emp[min(bins - 1, int((x / steps + 1.0) / width))] += p
    rows = (tmp_path / "weak_limit_hadamard_analog.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["%.17g" % v for v in emp / width]
