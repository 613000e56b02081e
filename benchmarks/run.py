#!/usr/bin/env python3
"""coinwalk benchmark: closed-loop CLI requests on three workloads.

Run from the root of a coinwalk checkout:

    python3 benchmarks/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

Load model: one client in a closed loop.  A request is one in-process call to
``coinwalk.cli.main(argv)`` with stdout captured; the next request starts when
the previous one returns.  The workload's seeded batch of requests
(``workloads.py``) first runs once untimed, and its outputs are checked
against an independent momentum-space reference (``checks.py``).  Then the
batch runs as repeated timed passes until ``--seconds`` have gone by; each
pass must reproduce the checked outputs byte for byte.  Checks run off the
clock, and a failed check counts the request as failed.

Each workload runs in its own fresh process (``--workload all`` starts one per
workload), so ``peak_rss_mb`` and ``setup_s`` belong to that workload.
``setup_s`` is the time to import ``coinwalk.cli`` and finish the untimed
warm-up requests: the median over this process and up to ``SETUP_PROBES``
more fresh processes, started off the clock between timed passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
half of the time untraced and the second half with spans around each layer's
public functions (``spans.py``), and reports per-layer calls and self time per
batch, work counts computed from the request parameters and output sizes
(never from kernel internals, so per-unit rates stay comparable when a kernel
changes), and the tracing overhead.

Which end-to-end metric each layer should move:

- ``walk.*``: ``exact`` wall_s and latency_p90_ms; no change on the others.
- ``asymptotics.*`` and ``coins.compose.calls``: ``spectral`` wall_s and
  latency_p50_ms, with a small share on ``exact`` through ``compare``.
- ``gapscan.*``: ``survey`` wall_s, peak_rss_mb and success_ratio.
- ``momentum.dispersion_to_csv``, ``export.*``: ``survey`` wall_s and
  latency_p90_ms, with a few percent on ``exact``.
- ``cli.main.self_s``: ``spectral`` latency_p50_ms and setup_s.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when any check
fails other than a defect documented for this code base (see ``checks.py``);
such known failures still count in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 600
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_ratio": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing source tree, broken warm-up)."""


def load_cli():
    """Import ``coinwalk.cli`` from this checkout's ``src`` tree."""
    if not (SRC / "coinwalk" / "cli.py").is_file():
        raise BenchError(f"no coinwalk source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import coinwalk.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise BenchError(f"imported coinwalk from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[int, str]:
    """One request: ``cli.main(argv)`` with stdout and stderr captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed request; the run goes on
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


def set_up(workload: str, warm_dir: Path):
    """Import the CLI and run the warm-up requests; returns ``(cli, seconds)``."""
    start = time.perf_counter()
    cli = load_cli()
    for argv in wl.WARMUP[workload]:
        code, message = call(cli, [*argv, "--output-dir", str(warm_dir)])
        if code != 0:
            raise BenchError(f"warm-up request {argv} exited {code}: {message.strip()}")
    return cli, time.perf_counter() - start


def probe_setup(workload: str) -> float:
    """``setup_s`` of one more fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def digest(req: wl.Request, work: Path) -> str | None:
    h = hashlib.sha256()
    try:
        for out in req.outputs:
            for path in (work / out, work / (out + ".manifest.json")):
                h.update(path.read_bytes())
    except OSError:
        return None
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One batch: an untimed checked pass, then timed passes that must reproduce it."""

    def __init__(self, cli, batch: wl.Batch, work: Path):
        self.cli, self.batch, self.work = cli, batch, work
        self.verdicts: dict = {}
        self.digests: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []

    def _count(self, req: wl.Request, verdict, report: bool) -> None:
        self.attempted += 1
        if verdict.ok:
            return
        self.failed += 1
        if report:
            line = f"{req.id} {' '.join(req.argv[:3])}: {'; '.join(verdict.failures)}"
            (self.known if verdict.known_defect else self.unexpected).append(line)

    def checked_pass(self) -> None:
        """Runs every request once, untimed, and checks its outputs against the
        reference; this also lets caches fill before timing starts."""
        from checks import check_request

        for req in self.batch.requests:
            code, message = call(self.cli, req.argv)
            verdict = check_request(req, self.work, code, message)
            self.verdicts[req.id] = verdict
            self.digests[req.id] = digest(req, self.work)
            self._count(req, verdict, report=True)

    def timed_pass(self, tracer=None) -> tuple[float, list[float]]:
        """Returns the batch's wall time and each request's latency."""
        from checks import Verdict

        latencies, results = [], []
        for req in self.batch.requests:
            if tracer is not None:
                tracer.request = req.id
            start = time.perf_counter()
            code, message = call(self.cli, req.argv)
            latencies.append(time.perf_counter() - start)
            results.append((code, message))
        # off the clock: outputs must match the checked pass byte for byte
        for req, (code, message) in zip(self.batch.requests, results):
            if code != 0:
                self._count(req, Verdict([f"exit code {code}: {message.strip()}"]), report=True)
            elif digest(req, self.work) != self.digests[req.id]:
                self._count(req, Verdict(["output differs from the checked pass"]), report=True)
            else:
                self._count(req, self.verdicts[req.id], report=False)
        return sum(latencies), latencies

    def timed_passes(self, until: float, tracer=None, between=None) -> list[tuple[float, list[float]]]:
        """Timed passes until ``time.perf_counter() >= until``; at least one.
        ``between()``, if given, runs off the clock after each pass."""
        done = [self.timed_pass(tracer)]
        while time.perf_counter() < until:
            if between is not None:
                between()
            done.append(self.timed_pass(tracer))
        return done


def work_counts(run: Run) -> dict[str, float]:
    """Per-batch work computed from the request parameters and output file sizes."""
    site_steps = quadratures = asym_k = momentum_k = cells = closure_failed = 0
    bytes_written = manifests = 0
    for req in run.batch.requests:
        p = req.params
        if req.kind in ("moments", "simulate", "compare"):
            t = p["steps"]
            site_steps += t * t + 2 * t  # sum over steps of (2t + 1) light-cone sites
        if req.kind in ("asymptotics", "compare"):
            quadratures += 1
        if req.kind in ("asymptotics", "compare", "weak-limit"):
            asym_k += p["grid_size"]
        if req.kind == "dispersion":
            momentum_k += p["grid_size"]
        if req.kind == "gapscan":
            cells += p["grid"] ** 2 + p.get("map_grid", 0) ** 2
            closure_failed += any("count_points" in f for f in run.verdicts[req.id].failures)
        for out in req.outputs:
            for path in (run.work / out, run.work / (out + ".manifest.json")):
                if path.exists():
                    bytes_written += path.stat().st_size
                    manifests += path.name.endswith(".manifest.json")
    return {
        "walk.site_steps": site_steps,
        "asymptotics.quadratures": quadratures,
        "asymptotics.k_points": asym_k,
        "momentum.k_points": momentum_k,
        "gapscan.grid_cells": cells,
        "gapscan.closure_check_failed": closure_failed,
        "export.bytes_written": bytes_written,
        "cli.manifests_written": manifests,
    }


# per-layer metrics derived from request parameters and output sizes
COMPUTED = {
    "walk.site_steps", "walk.ns_per_site_step", "asymptotics.k_points", "asymptotics.ns_per_k_point",
    "asymptotics.useful_integral_ratio", "momentum.k_points", "gapscan.grid_cells", "gapscan.ns_per_cell",
    "gapscan.closure_check_failed", "export.bytes_written", "export.ns_per_byte", "cli.manifests_written",
}


def per_layer(totals: dict[str, tuple[int, float]], n_passes: int, counts: dict[str, float]) -> dict:
    metrics = {}
    self_s = {}
    for name, (calls, seconds) in totals.items():
        metrics[f"{name}.calls"] = (calls / n_passes, "count")
        metrics[f"{name}.self_s"] = (seconds / n_passes, "s")
        self_s[name] = seconds / n_passes

    def rate(names, count):
        return sum(self_s[n] for n in names) / count * 1e9 if count else 0.0

    integrals = totals["asymptotics.moment_integrals"][0] / n_passes
    metrics.update({
        "walk.site_steps": (counts["walk.site_steps"], "count"),
        "walk.ns_per_site_step": (rate(("walk.evolve", "walk.moment_series"), counts["walk.site_steps"]), "ns"),
        "asymptotics.k_points": (counts["asymptotics.k_points"], "count"),
        "asymptotics.ns_per_k_point": (rate(
            ("asymptotics.moment_integrals", "asymptotics.classify_spreading",
             "asymptotics.weak_limit_density", "asymptotics.drift_sign"),
            counts["asymptotics.k_points"]), "ns"),
        "asymptotics.useful_integral_ratio": (
            counts["asymptotics.quadratures"] / integrals if integrals else 0.0, "1"),
        "momentum.k_points": (counts["momentum.k_points"], "count"),
        "gapscan.grid_cells": (counts["gapscan.grid_cells"], "count"),
        "gapscan.ns_per_cell": (rate(("gapscan.enumerate_closures", "gapscan.scan_gap_map"),
                                     counts["gapscan.grid_cells"]), "ns"),
        "gapscan.closure_check_failed": (counts["gapscan.closure_check_failed"], "count"),
        "export.bytes_written": (counts["export.bytes_written"], "B"),
        "export.ns_per_byte": (rate(
            ("export.write_csv", "export.write_json", "walk.distribution_to_csv",
             "momentum.dispersion_to_csv", "asymptotics.velocity_density_to_csv", "gapscan.gap_map_to_csv"),
            counts["export.bytes_written"]), "ns"),
        "cli.manifests_written": (counts["cli.manifests_written"], "count"),
    })
    return metrics


def run_workload(args) -> dict:
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    cwd = Path.cwd()
    try:
        (work / "warm").mkdir(parents=True)
        cli, own_setup = set_up(args.workload, work / "warm")
        setups = [own_setup]
        batch = wl.make_batch(args.workload, args.seed)
        batch.write_inputs(work)
        run = Run(cli, batch, work)
        os.chdir(work)  # argv paths are relative to the work directory
        run.checked_pass()
        start = time.perf_counter()
        if args.trace:
            from spans import Tracer

            untraced = run.timed_passes(start + args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run.timed_passes(start + args.seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer.totals(), len(traced), work_counts(run))
            walls = [statistics.median(w for w, _ in p) for p in (untraced, traced)]
            metrics["trace.untraced_wall_s"] = (walls[0], "s")
            metrics["trace.traced_wall_s"] = (walls[1], "s")
            metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
            samples = {"passes": f"{len(untraced)} untraced + {len(traced)} traced"}
        else:
            def probe():  # spread over the run, so setup_s sees the same machine as the passes
                if len(setups) <= SETUP_PROBES:
                    setups.append(probe_setup(args.workload))

            passes = run.timed_passes(start + args.seconds, between=probe)
            latencies = [x for _, lat in passes for x in lat]
            metrics = {
                "wall_s": statistics.median(w for w, _ in passes),
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_p90_ms": quantile(latencies, 90) * 1e3,
                "success_ratio": 1.0 - run.failed / run.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setups),
            }
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
            p90 = metrics["latency_p90_ms"][0] / 1e3
            samples = {
                "passes": len(passes),
                "requests_per_pass": len(batch.requests),
                "latency_samples": len(latencies),
                "beyond_p90": sum(x > p90 for x in latencies),
                "setup_samples_s": [round(x, 4) for x in setups],
            }
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    return {
        "run": run,
        "metrics": metrics,
        "samples": samples,
        "env": environment(),
    }


def report(args, result: dict) -> dict:
    run: Run = result["run"]
    print(f"coinwalk benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("samples " + json.dumps(result["samples"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<42} {value:>16.6g} {unit}{'  (computed)' if name in COMPUTED else ''}")
    print(f"  {'failed_ratio':<42} {run.failed / run.attempted:>16.6g} 1"
          f"   ({run.failed} of {run.attempted} requests)")
    for line in run.known:
        print(f"known defect: {line}")
    for line in run.unexpected:
        print(f"FAILED: {line}")
    return {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }


def run_all(args) -> dict:
    """Every workload in its own fresh process; prints one row per metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited {proc.returncode}: {proc.stderr.strip()}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(f"\n{'metric':<52} {'value':>16} unit")
    for name, m in combined["metrics"].items():
        print(f"{name:<52} {m['value']:>16.6g} {m['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            warm = WORK_ROOT / f"probe-{os.getpid()}"
            try:
                warm.mkdir(parents=True)
                _, seconds = set_up(args.workload, warm)
            finally:
                shutil.rmtree(warm, ignore_errors=True)
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.workload == "all":
            result = run_all(args)
        else:
            result = report(args, run_workload(args))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
