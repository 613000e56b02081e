import json
import math
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from coinwalk import asymptotics, cli, coins, export, walk
from coinwalk.coins import CoinSpec, compose, preset_coin, random_coin_spec, unitarity_error
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
    assert manifest["coin_parts"] == list(preset_coin("paper_xy", theta=0.7854, phi=0.7854).parts)


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
        "simulate", "--coin", "hadamard_analog", "--steps", "25", "--out", "m.csv", "--output-dir", str(tmp_path),
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


def test_manifests_record_coin_unitarity_error(tmp_path):
    records = random_coin_spec(np.random.default_rng(0), 1000).to_dicts()
    coin_file = tmp_path / "coin.json"
    coin_file.write_text(json.dumps(records))
    expected = unitarity_error(compose(CoinSpec.from_dicts(records)))
    assert expected <= 4 * np.finfo(np.float64).eps  # unit by construction, at any rotation count
    for command, out, extra in (("moments", "m.csv", ("--steps", "5")), ("dispersion", "band.csv", ()),
                                ("asymptotics", "a.json", ())):
        argv = (command, "--coin-file", str(coin_file), *extra, "--out", out, "--output-dir", str(tmp_path))
        manifests = []
        for _ in range(2):
            assert run(*argv) == 0
            manifests.append((tmp_path / (out + ".manifest.json")).read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["results"]["coin_unitarity_error"] == expected, command
    assert run("gapscan", "--out", "g.json", "--output-dir", str(tmp_path)) == 0
    assert "coin_unitarity_error" not in json.loads((tmp_path / "g.json.manifest.json").read_text()).get("results", {})


def test_long_coin_manifest_stays_small(tmp_path):
    # the manifest records the composed coin, four floats, not its rotations
    records = random_coin_spec(np.random.default_rng(2), 1000).to_dicts()
    coin_file = tmp_path / "coin.json"
    coin_file.write_text(json.dumps(records))
    assert run("moments", "--coin-file", str(coin_file), "--steps", "5", "--out", str(tmp_path / "m.csv")) == 0
    manifest = tmp_path / "m.csv.manifest.json"
    assert manifest.stat().st_size < 4096
    assert json.loads(manifest.read_text())["coin_parts"] == list(CoinSpec.from_dicts(records).parts)


def test_walk_manifests_record_the_walk_kernel(tmp_path, monkeypatch):
    native, kernels = walk.kernel_name(), []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setattr(walk, "_kernel", lambda: None)
        for command in ("simulate", "moments", "compare"):
            argv = (command, "--coin", "hadamard_analog", "--steps", "5", "--out", "w.csv")
            assert run(*argv, "--output-dir", str(tmp_path)) == 0
            kernels.append(json.loads((tmp_path / "w.csv.manifest.json").read_text())["results"]["walk_kernel"])
    assert kernels == [native] * 3 + ["numpy"] * 3


def test_compare_composes_the_coin_once(tmp_path, monkeypatch):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text(json.dumps(random_coin_spec(np.random.default_rng(1), 50).to_dicts()))
    compositions = []
    multiply = coins._unit_quaternion

    def counted(rotations):
        compositions.append(len(rotations))
        return multiply(rotations)

    monkeypatch.setattr(coins, "_unit_quaternion", counted)
    assert run("compare", "--coin-file", str(coin_file), "--steps", "8", "--out", str(tmp_path / "c.csv")) == 0
    assert compositions == [50]  # the walk, the asymptotic integrals and the manifest share it


def test_compare_records_the_weak_limit_distance(tmp_path):
    # the Kolmogorov distance of d/T from the limit law: null without a step,
    # the same bits at every start site, and falling with t
    distances = {}
    for steps, position in (("0", "0"), ("100", "0"), ("100", "100000000"), ("1000", "0")):
        argv = ("compare", "--coin", "hadamard_analog", "--steps", steps, "--position", position, "--out", "c.csv")
        assert run(*argv, "--output-dir", str(tmp_path)) == 0
        results = json.loads((tmp_path / "c.csv.manifest.json").read_text())["results"]
        distances[steps, position] = results["weak_limit_distance"]
    assert distances["0", "0"] is None
    assert distances["100", "100000000"].hex() == distances["100", "0"].hex()
    assert distances["100", "0"] == pytest.approx(0.0929, abs=1e-4)
    assert distances["1000", "0"] == pytest.approx(0.0345, abs=1e-4)


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
            if command == "weak-limit":  # |sum density * width - 1| of the CSV's own densities
                density = np.loadtxt(paths[0], delimiter=",", skiprows=1)[:, 1]
                assert results["mass_error"] == abs(float(np.sum(density * (2.0 / density.size))) - 1.0)
                assert results["mass_error"] <= 4 * np.finfo(np.float64).eps


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


def test_coin_file_with_non_numbers_exits_1_and_writes_nothing(tmp_path, capsys):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text('[{"axis": [true, 0, 0], "angle_rad": "0.5"}, {"axis": [0, 1, 0], "angle_deg": true}]')
    out = tmp_path / "out"
    out.mkdir()
    assert run("asymptotics", "--coin-file", str(coin_file), "--output-dir", str(out), "--out", "a.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "rotation 0" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("text, kind", [('{"axis": [1, 0, 0]}', "dict"), ("NaN", "float")])
def test_a_coin_file_that_is_not_a_list_exits_1_and_says_so(tmp_path, capsys, text, kind):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    assert run("asymptotics", "--coin-file", str(coin_file), "--output-dir", str(out), "--out", "a.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"a coin file is a list of rotation records, got {kind}" in err
    assert not any(out.iterdir())


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
    def disk_full(state, fd):  # the writer gets the descriptor the plan opened
        os.write(fd, b"t,x,p\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "distribution_to_csv", disk_full)
    argv = ("simulate", "--coin", "identity", "--steps", "3", "--out", "m.csv", "--distribution-out", "d.csv")
    assert run(*argv, "--output-dir", str(tmp_path)) == 3
    assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
    assert not any(tmp_path.iterdir())


def test_failed_write_deletes_no_device(tmp_path, monkeypatch, capsys):
    # /dev/null is written, then the distribution fails on a directory; the
    # cleanup must not unlink the device (it never reaches the real one here)
    unlinked = []
    monkeypatch.setattr(Path, "unlink", lambda self, missing_ok=False: unlinked.append(self))
    argv = ("simulate", "--coin", "identity", "--steps", "3", "--out", os.devnull, "--distribution-out", str(tmp_path))
    assert run(*argv) == 3
    assert "i/o error" in capsys.readouterr().err
    assert unlinked == []


def test_failed_rerun_leaves_neither_output_nor_stale_manifest(tmp_path, monkeypatch):
    # the rerun cuts m.csv, which sits beside the manifest of the 50-step run
    argv = ("moments", "--coin", "hadamard_analog", "--out", "m.csv", "--output-dir", str(tmp_path))
    assert run(*argv, "--steps", "50") == 0

    def disk_full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(export, "_write_formatted", disk_full)
    monkeypatch.setattr(export, "_percent_body", disk_full)
    assert run(*argv, "--steps", "60") == 3
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "m.csv.manifest.json").exists()


def test_an_interrupted_run_deletes_the_files_it_created(tmp_path, monkeypatch):
    # the plan has opened every file when the walk is interrupted: those it
    # created go, also the target it created through a dangling link, and an
    # output that was there before keeps its bytes
    (tmp_path / "m.csv").write_text("earlier content\n")
    (tmp_path / "target").mkdir()
    (tmp_path / "link.csv").symlink_to("target/d.csv")

    def interrupted(*args):
        assert (tmp_path / "target" / "d.csv").exists() and (tmp_path / "m.csv.manifest.json").exists()
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "moment_series", interrupted)
    argv = ("simulate", "--coin", "identity", "--out", "m.csv", "--distribution-out", "link.csv")
    with pytest.raises(KeyboardInterrupt):
        run(*argv, "--output-dir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "m.csv", "target"]
    assert (tmp_path / "m.csv").read_text() == "earlier content\n"
    assert os.readlink(tmp_path / "link.csv") == "target/d.csv"
    assert not any((tmp_path / "target").iterdir())


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root may write a read-only file")
def test_failed_rerun_keeps_a_file_it_could_not_open(tmp_path):
    argv = ("moments", "--coin", "hadamard_analog", "--out", "m.csv", "--output-dir", str(tmp_path))
    assert run(*argv, "--steps", "5") == 0
    names = ("m.csv", "m.csv.manifest.json")
    before = [(tmp_path / name).read_bytes() for name in names]
    (tmp_path / "m.csv").chmod(0o444)
    assert run(*argv, "--steps", "6") == 3
    assert [(tmp_path / name).read_bytes() for name in names] == before


def test_rerun_with_fewer_steps_writes_the_bytes_of_a_fresh_run(tmp_path):
    # the second run rewrites both files over longer old content
    names, argv = ("m.csv", "m.csv.manifest.json"), ("moments", "--coin", "hadamard_analog", "--out", "m.csv")
    assert run(*argv, "--steps", "50", "--output-dir", str(tmp_path)) == 0
    assert run(*argv, "--steps", "5", "--output-dir", str(tmp_path)) == 0
    rerun = [(tmp_path / name).read_bytes() for name in names]
    for name in names:
        (tmp_path / name).unlink()
    assert run(*argv, "--steps", "5", "--output-dir", str(tmp_path)) == 0
    assert rerun == [(tmp_path / name).read_bytes() for name in names]


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
        "gapscan", "--grid", "361",
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


def test_theta_or_phi_with_another_coin_exits_1(tmp_path, capsys):
    # only paper_xy takes the angles: with any other coin they would be
    # recorded in the manifest but not used
    (tmp_path / "coin.json").write_text('[{"axis": [0, 1, 0], "angle_deg": 45}]')
    config = tmp_path / "run.cfg"
    config.write_text("phi = 0.5\n")
    for coin in (["--coin", "hadamard_analog"], ["--coin", "identity"], ["--coin-file", str(tmp_path / "coin.json")]):
        for angles in (["--theta", "1"], ["--phi", "0"], ["--theta", "1", "--phi", "2"], ["--config", str(config)]):
            argv = ["asymptotics", *coin, *angles, "--output-dir", str(tmp_path / "out"), "--out", "a.json"]
            assert run(*argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err == "config error: theta and phi apply to --coin paper_xy only\n", argv
    assert not (tmp_path / "out").exists()
    assert run("asymptotics", "--coin", "paper_xy", "--theta", "1", "--phi", "2") == 0


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    examples = [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("coinwalk ")
    ]
    assert len(examples) == 8
    experiments = readme.split("## The paper's experiments", 1)[1].split("```", 2)[1]
    examples += [
        shlex.split(line.split("#", 1)[0])[1:] for line in experiments.splitlines() if line.startswith("coinwalk ")
    ]
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
    assert run("simulate", "--coin", "identity", "--steps", "-2", "--out", out) == 1


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("COINWALK_OUTPUT_DIR", str(tmp_path))
    assert run("moments", "--coin", "identity", "--steps", "3", "--out", "env.csv") == 0
    assert (tmp_path / "env.csv").exists()


def test_an_empty_output_dir_variable_counts_as_unset(tmp_path, monkeypatch):
    # the default is $COINWALK_OUTPUT_DIR, else "."; an empty value is no directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COINWALK_OUTPUT_DIR", "")
    assert run("moments", "--coin", "hadamard_analog", "--steps", "3", "--out", "m.csv") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.csv.manifest.json"]
    assert json.loads((tmp_path / "m.csv.manifest.json").read_text())["config"]["output_dir"] == "."


def test_read_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        read_config_file(str(tmp_path / "nope.cfg"))


def test_every_json_file_re_encodes_to_itself(tmp_path):
    # each record and manifest holds the text json.dumps gives for its own value
    runs = [
        ("asymptotics", "--coin", "hadamard_analog", "--out", "a.json"),
        ("gapscan", "--grid", "181", "--out", "g.json", "--map-out", "g.csv", "--map-grid", "9"),
        ("simulate", "--coin", "paper_xy", "--theta", "0.7", "--phi", "1.3", "--steps", "20", "--out", "s.csv", "--distribution-out", "d.csv"),
        ("weak-limit", "--coin", "hadamard_analog", "--bins", "32", "--out", "w.csv"),
        ("dispersion", "--coin", "sigma_x", "--grid-size", "64", "--out", "b.csv"),
        ("compare", "--coin", "hadamard_analog", "--steps", "20", "--out", "c.csv"),
        ("moments", "--coin", "hadamard_analog", "--steps", "20", "--out", "m.csv"),
    ]
    for argv in runs:
        assert run(*argv, "--output-dir", str(tmp_path)) == 0
    records = ["a.json", "g.json"]
    outputs = [*records, "g.csv", "s.csv", "d.csv", "w.csv", "b.csv", "c.csv", "m.csv"]
    files = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in files] == sorted([*records, *(name + ".manifest.json" for name in outputs)])
    for path in files:
        data = path.read_bytes()
        assert data == (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode("ascii"), path.name
