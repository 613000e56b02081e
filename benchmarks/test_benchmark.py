"""Self-tests of the benchmark: seeded inputs, output checks, and a smoke run.

Run from the repository root with ``python3 -m pytest -q benchmarks``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from coinwalk import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(work: Path, workload: str, seed: int) -> dict[str, bytes]:
    wl.make_batch(workload, seed).write_inputs(work)
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_seed_gives_identical_inputs(tmp_path, workload):
    first = _inputs(tmp_path / "a", workload, 3)
    assert first == _inputs(tmp_path / "b", workload, 3)
    assert "requests.json" in first


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_another_seed_changes_inputs(tmp_path, workload):
    assert _inputs(tmp_path / "a", workload, 3) != _inputs(tmp_path / "b", workload, 4)


def _run(tmp_path, monkeypatch, workload: str, pick) -> tuple[wl.Request, checks.Verdict]:
    batch = wl.make_batch(workload, 0)
    batch.write_inputs(tmp_path)
    req = next(r for r in batch.requests if pick(r))
    monkeypatch.chdir(tmp_path)
    code = cli.main(req.argv)
    return req, checks.check_request(req, tmp_path, code)


def test_perturbed_moment_row_fails(tmp_path, monkeypatch):
    req, verdict = _run(tmp_path, monkeypatch, "exact", lambda r: r.kind == "moments" and r.params["steps"] == 300)
    assert verdict.ok, verdict.failures
    path = tmp_path / req.outputs[0]
    lines = path.read_text().splitlines()
    t, mean, second, variance = lines[-1].split(",")
    lines[-1] = ",".join([t, repr(float(mean) + 1e-6), second, variance])
    path.write_text("\n".join(lines) + "\n")
    verdict = checks.check_request(req, tmp_path, 0)
    assert not verdict.ok and not verdict.known_defect
    assert any("<x>/t" in f for f in verdict.failures)


def test_dropped_closure_fails(tmp_path, monkeypatch):
    req, verdict = _run(tmp_path, monkeypatch, "survey", lambda r: r.kind == "gapscan" and r.params["grid"] == 721)
    assert verdict.ok, verdict.failures
    path = tmp_path / req.outputs[0]
    record = json.loads(path.read_text())
    record["closures"].pop()
    record["closure_points"].pop()
    record["count_points"] -= 1
    path.write_text(json.dumps(record))
    verdict = checks.check_request(req, tmp_path, 0)
    assert not verdict.ok and not verdict.known_defect  # an aligned grid has no excuse


def test_non_aligned_grid_failure_is_the_known_defect(tmp_path, monkeypatch):
    _, verdict = _run(tmp_path, monkeypatch, "survey", lambda r: r.kind == "gapscan" and r.params["grid"] == 722)
    assert not verdict.ok and verdict.known_defect
    assert all("count_points" in f for f in verdict.failures)


def test_non_zero_exit_fails(tmp_path):
    req = wl.make_batch("spectral", 0).requests[0]
    verdict = checks.check_request(req, tmp_path, 1, "config error: boom")
    assert not verdict.ok and not verdict.known_defect


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run(workload):
    start = time.perf_counter()
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert time.perf_counter() - start < 60
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2 * len(wl.make_batch(workload, 5).requests)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run():
    proc = _bench(ROOT, "--workload", "survey", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    batch = wl.make_batch("survey", 5)
    assert metrics["cli.main.calls"]["value"] == len(batch.requests)
    assert metrics["gapscan.enumerate_closures.calls"]["value"] == len(wl.GAPSCAN_GRIDS)
    assert metrics["gapscan.closure_check_failed"]["value"] == 3
    assert metrics["walk.evolve.calls"]["value"] == 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
