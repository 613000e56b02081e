import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from coinwalk import asymptotics, cli, walk
from coinwalk.coins import preset_coin
from coinwalk.cli import ConfigError, main, parse_angle, read_config_file


def run(*argv):
    return main(list(argv))


def test_parse_angle():
    assert parse_angle("0.5") == 0.5
    assert parse_angle("45deg") == pytest.approx(math.pi / 4, abs=0)
    with pytest.raises(ConfigError):
        parse_angle("fast")


def test_simulate_row_count_and_manifest(tmp_path):
    out = tmp_path / "moments.csv"
    code = run(
        "simulate", "--coin", "paper_xy", "--theta", "0.7854", "--phi", "0.7854",
        "--steps", "40", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean,second,variance"
    assert len(lines) == 41  # one data row per step
    assert not any(ln.endswith(",") for ln in lines)

    manifest = json.loads((tmp_path / "moments.csv.manifest.json").read_text())
    assert manifest["config"]["steps"] == 40
    assert manifest["config"]["command"] == "simulate"
    assert manifest["sign_calibration"]["drift_sign"] == 1
    assert manifest["outputs"] == ["moments.csv"]
    assert len(manifest["coin_rotations"]) == 2


def test_simulate_distribution_output(tmp_path):
    out = tmp_path / "m.csv"
    dist = tmp_path / "d.csv"
    code = run(
        "simulate", "--coin", "hadamard_analog", "--steps", "6",
        "--out", str(out), "--distribution-out", str(dist),
    )
    assert code == 0
    lines = dist.read_text().splitlines()
    assert lines[0] == "t,x,p"
    assert len(lines) == 1 + 13  # support of a 6-step walk
    assert (tmp_path / "d.csv.manifest.json").exists()


def test_distribution_out_runs_the_walk_once(tmp_path, monkeypatch):
    runs = []
    kernel = walk._advance

    def counted(init, coin, steps, *args, **kwargs):
        runs.append(steps)
        return kernel(init, coin, steps, *args, **kwargs)

    monkeypatch.setattr(walk, "_advance", counted)
    code = run(
        "simulate", "--coin", "hadamard_analog", "--steps", "37", "--position", "4",
        "--initial-coin", "0,1", "--out", "m.csv", "--distribution-out", "d.csv",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert runs.count(37) == 1  # one kernel run feeds both the moments and the distribution

    init = walk.InitialCondition(np.array([0.0, 1.0]), position=4)
    reference = walk.evolve(init, preset_coin("hadamard_analog"), 37)
    walk.distribution_to_csv(reference, tmp_path / "ref.csv")
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_outputs_are_byte_identical_across_runs(tmp_path):
    argv = (
        "simulate", "--coin", "hadamard_analog", "--steps", "25", "--seed", "7",
        "--out", "m.csv", "--output-dir", str(tmp_path),
    )
    assert run(*argv) == 0
    first = ((tmp_path / "m.csv").read_bytes(), (tmp_path / "m.csv.manifest.json").read_bytes())
    assert run(*argv) == 0
    assert (tmp_path / "m.csv").read_bytes() == first[0]
    assert (tmp_path / "m.csv.manifest.json").read_bytes() == first[1]
    # every walk manifest records the walk's norm drift, the same on every run
    init = walk.InitialCondition(np.array([1.0, 0.0]))
    drift = walk.moment_series(init, preset_coin("hadamard_analog"), 25).max_norm_drift
    assert drift <= 25 * 1e-14
    for command in ("simulate", "moments", "compare"):
        argv = (command, "--coin", "hadamard_analog", "--steps", "25", "--out", "w.csv", "--output-dir", str(tmp_path))
        manifests = []
        for _ in range(2):
            assert run(*argv) == 0
            manifests.append((tmp_path / "w.csv.manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["results"]["max_norm_drift"] == drift, command


def test_spectral_manifests_are_byte_identical_across_runs(tmp_path):
    expected = {  # coin -> (s_perp, max_speed) in the manifest results
        "hadamard_analog": (math.sin(math.pi / 4), math.cos(math.pi / 4)),
        "identity": (0.0, 1.0),
        "sigma_x": (1.0, 0.0),
    }
    for coin, (s_perp, max_speed) in expected.items():
        for command, out in (("asymptotics", "a.json"), ("weak-limit", "w.csv")):
            argv = (command, "--coin", coin, "--initial-coin", "0.6,0.8j", "--out", out,
                    "--output-dir", str(tmp_path / coin))
            paths = [tmp_path / coin / out, tmp_path / coin / (out + ".manifest.json")]
            assert run(*argv) == 0
            first = [p.read_bytes() for p in paths]
            assert run(*argv) == 0
            assert [p.read_bytes() for p in paths] == first
            results = json.loads(first[1])["results"]
            assert results["s_perp"] == pytest.approx(s_perp, abs=1e-15)
            assert results["max_speed"] == pytest.approx(max_speed, abs=1e-15)


@pytest.mark.parametrize("steps", ["0", "1"])
def test_compare_too_short_for_a_slope(tmp_path, capfd, steps):
    out = tmp_path / "recon.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("compare", "--coin", "hadamard_analog", "--steps", steps, "--out", str(out)) == 0
    captured = capfd.readouterr()
    assert "fewer than 2 points in the fit window" in captured.out
    assert captured.err == ""
    assert len(out.read_text().splitlines()) == 1 + int(steps)
    assert json.loads((tmp_path / "recon.csv.manifest.json").read_text())["results"]["loglog_slope"] is None


def test_degree_suffix_equivalent_to_radians(tmp_path):
    a, b = tmp_path / "deg", tmp_path / "rad"
    for d, theta in ((a, "45deg"), (b, str(math.pi / 4))):
        assert run(
            "simulate", "--coin", "paper_xy", "--theta", theta, "--phi", "30deg",
            "--steps", "10", "--out", "m.csv", "--output-dir", str(d),
        ) == 0
    assert (a / "m.csv").read_bytes() == (b / "m.csv").read_bytes()


def test_moments_subcommand(tmp_path):
    out = tmp_path / "m.csv"
    assert run("moments", "--coin", "sigma_x", "--steps", "8", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9


def test_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# walk configuration\n"
        "coin = paper_xy\n"
        "theta = 45deg\n"
        "phi = 0.5\n"
        "steps = 12\n"
        f"output_dir = {tmp_path}\n"
    )
    assert run("simulate", "--config", str(cfgfile), "--out", "m.csv") == 0
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 13
    # flag overrides file value
    assert run("simulate", "--config", str(cfgfile), "--steps", "5", "--out", "m5.csv") == 0
    assert len((tmp_path / "m5.csv").read_text().splitlines()) == 6


def test_config_file_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("coin = identity\nwibble = 3\n")
    assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")) == 1
    err = capsys.readouterr().err
    assert "bad.cfg:2" in err and "wibble" in err

    bad.write_text("coin identity\n")
    assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")) == 1
    assert "bad.cfg:1" in capsys.readouterr().err


def test_missing_coin_is_config_error(tmp_path, capsys):
    assert run("simulate", "--steps", "5", "--out", str(tmp_path / "m.csv")) == 1
    assert "coin" in capsys.readouterr().err


def test_bad_initial_coin_is_config_error(tmp_path):
    assert run(
        "simulate", "--coin", "identity", "--steps", "5",
        "--initial-coin", "1,1", "--out", str(tmp_path / "m.csv"),
    ) == 1


def test_initial_options(tmp_path):
    out = tmp_path / "m.csv"
    assert run(
        "simulate", "--coin", "identity", "--steps", "4",
        "--initial-coin", "0,1", "--out", str(out),
    ) == 0
    rows = out.read_text().splitlines()[1:]
    assert float(rows[-1].split(",")[1]) == pytest.approx(-4.0, abs=1e-12)
    assert run(
        "simulate", "--coin", "identity", "--steps", "4",
        "--initial-bloch", "0,0", "--out", str(out),
    ) == 0
    rows = out.read_text().splitlines()[1:]
    assert float(rows[-1].split(",")[1]) == pytest.approx(4.0, abs=1e-12)


def test_coin_file(tmp_path):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text(json.dumps([
        {"axis": [0, 1, 0], "angle_deg": 45.0},
        {"axis": [1, 0, 0], "angle_rad": 0.7},
    ]))
    out = tmp_path / "m.csv"
    assert run("simulate", "--coin-file", str(coin_file), "--steps", "5", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 6
    # malformed coin file
    coin_file.write_text(json.dumps([{"axis": [0, 1, 0]}]))
    assert run("simulate", "--coin-file", str(coin_file), "--steps", "5", "--out", str(out)) == 1


def test_dispersion_output(tmp_path):
    out = tmp_path / "band.csv"
    assert run("dispersion", "--coin", "identity", "--grid-size", "64", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,omega,nx,ny,nz,v_group"
    assert len(lines) == 65
    assert any(ln.endswith(",,,,") for ln in lines)


def test_asymptotics_stdout_and_json(tmp_path, capsys):
    assert run("asymptotics", "--coin", "sigma_x", "--grid-size", "512") == 0
    out_text = capsys.readouterr().out
    assert "classification = non-spreading" in out_text
    # without --out, the four key = value lines are all that is printed, as its help says
    keys = [line.split(" = ")[0].strip() for line in out_text.splitlines()]
    assert keys == ["mean_rate", "second_coeff", "variance_coeff", "classification"]

    out = tmp_path / "a.json"
    assert run("asymptotics", "--coin", "hadamard_analog", "--grid-size", "1024", "--out", str(out)) == 0
    record = json.loads(out.read_text())
    assert record["grid_size"] == 1024
    assert record["classification"] == "ballistic"
    assert record["second_coeff"] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-3)
    assert (tmp_path / "a.json.manifest.json").exists()


def test_asymptotics_integrates_once(tmp_path, monkeypatch):
    calls = []
    integrate = asymptotics.moment_integrals

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    for module in (cli, asymptotics):
        monkeypatch.setattr(module, "moment_integrals", counted)
    assert run("asymptotics", "--coin", "hadamard_analog", "--out", str(tmp_path / "a.json")) == 0
    assert len(calls) == 1


def test_weak_limit_output(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert run("weak-limit", "--coin", "sigma_x", "--bins", "32", "--grid-size", "256", "--out", str(out)) == 0
    assert "sigma_x family" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "v,density"
    assert len(lines) == 33


def test_weak_limit_flags_i_sigma_y(tmp_path, capsys):
    # C = i sigma_y has C00 = 0 like sigma_x: all its mass sits in one bin
    argv = ("weak-limit", "--coin", "paper_xy", "--theta", "90deg", "--phi", "0", "--out", "w.csv")
    assert run(*argv, "--output-dir", str(tmp_path)) == 0
    assert "sigma_x family" in capsys.readouterr().out
    assert json.loads((tmp_path / "w.csv.manifest.json").read_text())["results"]["degenerate"] is True
    density = [float(row.split(",")[1]) for row in (tmp_path / "w.csv").read_text().splitlines()[1:]]
    assert sum(d > 0 for d in density) == 1


def test_failed_write_removes_the_partial_file(tmp_path, monkeypatch, capsys):
    def disk_full(state, path):
        Path(path).write_text("t,x,p\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "distribution_to_csv", disk_full)
    argv = ("simulate", "--coin", "identity", "--steps", "3", "--out", "m.csv", "--distribution-out", "d.csv")
    assert run(*argv, "--output-dir", str(tmp_path)) == 3
    assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
    assert not any(tmp_path.iterdir())


def test_moments_ignores_a_distribution_out_config_key(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("coin = hadamard_analog\nsteps = 5\ndistribution_out = d.csv\n")
    outdir = tmp_path / "out"
    assert run("moments", "--config", str(config), "--out", "m.csv", "--output-dir", str(outdir)) == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["m.csv", "m.csv.manifest.json"]
    assert json.loads((outdir / "m.csv.manifest.json").read_text())["outputs"] == ["m.csv"]


def test_gapscan_output(tmp_path):
    out = tmp_path / "closures.json"
    map_out = tmp_path / "map.csv"
    assert run(
        "gapscan", "--grid", "361", "--tol", "1e-8",
        "--out", str(out), "--map-out", str(map_out), "--map-grid", "181",
    ) == 0
    record = json.loads(out.read_text())
    assert record["count_points"] == 13
    assert record["count_points_mod_2pi"] == 8
    assert record["no_boundary"] is True
    assert len(map_out.read_text().splitlines()) == 1 + 181 * 181


def test_compare_output(tmp_path, capsys):
    out = tmp_path / "recon.csv"
    assert run("compare", "--coin", "hadamard_analog", "--steps", "200",
               "--grid-size", "1024", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "log-log variance slope" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "t,var_exact,var_predicted,abs_err,rel_err"
    assert len(lines) == 201
    last = lines[-1].split(",")
    assert float(last[4]) < 0.05
    manifest = json.loads((tmp_path / "recon.csv.manifest.json").read_text())
    assert 1.9 < manifest["results"]["loglog_slope"] < 2.1


def test_compare_identity_coin_has_zero_variance(tmp_path, capsys):
    out = tmp_path / "recon.csv"
    assert run("compare", "--coin", "identity", "--steps", "50",
               "--grid-size", "512", "--out", str(out)) == 0
    assert "slope unavailable" in capsys.readouterr().out
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert all(abs(float(r[1])) < 1e-9 and float(r[2]) < 1e-9 for r in rows)
    assert all(r[4] == "" for r in rows)


def test_numerical_domain_errors_exit_2(tmp_path, monkeypatch, capsys):
    from coinwalk.momentum import DegeneratePointError

    def boom(*args, **kwargs):
        raise DegeneratePointError("band touching everywhere")

    monkeypatch.setattr(cli, "moment_integrals", boom)
    assert run("asymptotics", "--coin", "identity", "--out", str(tmp_path / "x.json")) == 2
    assert "numerical-domain" in capsys.readouterr().err


def test_io_errors_exit_3(tmp_path):
    target = tmp_path / "occupied"
    target.mkdir()
    assert run("moments", "--coin", "identity", "--steps", "3", "--out", str(target)) == 3


@pytest.mark.parametrize("command", ["simulate", "asymptotics", "weak-limit"])
def test_non_finite_inputs_exit_1(tmp_path, capsys, command):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text('[{"axis": [0, 1, 0], "angle_rad": NaN}]')
    bad_inputs = {
        ("--coin", "paper_xy", "--theta", "nan", "--phi", "0.5"): "angle must be finite",
        ("--coin", "paper_xy", "--theta", "inf", "--phi", "0.5"): "angle must be finite",
        ("--coin", "paper_xy", "--theta", "0.5", "--phi=-inf"): "angle must be finite",
        ("--coin", "hadamard_analog", "--initial-bloch", "nan,0"): "alpha must be finite",
        ("--coin", "hadamard_analog", "--initial-bloch", "0.5,inf"): "beta must be finite",
        ("--coin", "hadamard_analog", "--initial-coin", "nan,1"): "coin_state components must be finite",
        ("--coin-file", str(coin_file)): "angle must be finite",
    }
    for argv, message in bad_inputs.items():
        out = tmp_path / "out.csv"
        assert run(command, *argv, "--out", str(out)) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, (argv, err)
        assert not out.exists()


def test_parse_angle_rejects_non_finite():
    for text in ("nan", "-inf", "infdeg", "NaNdeg"):
        with pytest.raises(ConfigError, match="theta angle must be finite"):
            parse_angle(text, "theta angle")


def test_non_finite_angle_for_a_preset_that_ignores_it_exits_1(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("theta = nan\n")
    bad_inputs = {
        ("--coin", "identity", "--theta", "nan"): "theta angle must be finite",
        ("--coin", "sigma_x", "--phi", "inf"): "phi angle must be finite",
        ("--coin", "identity", "--config", str(config)): "theta angle must be finite",
    }
    for argv, message in bad_inputs.items():
        out = tmp_path / "band.csv"
        assert run("dispersion", *argv, "--out", str(out)) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, (argv, err)
        assert not out.exists() and not (tmp_path / "band.csv.manifest.json").exists()
    assert run("asymptotics", "--coin", "identity", "--initial-bloch", "0.5,-infdeg") == 1
    assert "Bloch angle beta must be finite" in capsys.readouterr().err


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    examples = [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("coinwalk ")
    ]
    assert len(examples) == 8
    state = re.search(r'--initial-coin "([^"]+)"', readme).group(1)
    examples.append(["asymptotics", "--coin", "hadamard_analog", "--initial-coin", state])
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COINWALK_OUTPUT_DIR", raising=False)
    for argv in examples:
        assert run(*argv) == 0, argv


def test_invalid_knobs_exit_1(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run("weak-limit", "--coin", "identity", "--bins", "8", "--out", out) == 1
    assert run("gapscan", "--grid", "100", "--out", out) == 1
    assert run("gapscan", "--tol", "1", "--out", out) == 1
    assert run("simulate", "--coin", "identity", "--steps", "-2", "--out", out) == 1


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("COINWALK_OUTPUT_DIR", str(tmp_path))
    assert run("moments", "--coin", "identity", "--steps", "3", "--out", "env.csv") == 0
    assert (tmp_path / "env.csv").exists()


def test_read_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        read_config_file(str(tmp_path / "nope.cfg"))
