"""Seeded request generator for the coinwalk benchmark workloads.

A request is one argv list for ``coinwalk.cli.main`` plus the parameters the
output checker needs.  Coins and initial states come from
``random.Random(seed)``; the sizes (steps, grids) and the request order are
fixed, so the work in one batch does not depend on the seed and runs with
different seeds are comparable.  Paths in argv are relative to the run's work
directory, so one seed yields byte-identical argv lists and coin files.

This module imports only the standard library: the benchmark times the
import of ``coinwalk.cli`` (and with it numpy) as set-up.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

WORKLOADS = ("exact", "spectral", "survey")

# The sizes are a fixed multiset and the order of requests is fixed too, so a
# batch's work and memory pattern do not depend on the seed.  The counts put
# the batch's median and 90th-percentile latency inside groups of requests of
# similar cost rather than on a boundary between two groups, where one request
# finishing a little earlier or later would move the percentile a lot.

# exact: light-cone evolution.  Requests per steps value and kind; about a
# quarter of the simulate requests also write --distribution-out.
EXACT_MIX = {
    300: {"moments": 4, "simulate": 4, "simulate-dist": 2, "compare": 2},
    600: {"moments": 2, "simulate": 3, "simulate-dist": 1, "compare": 2},
    1200: {"moments": 2, "simulate": 3, "simulate-dist": 1, "compare": 2},
    2400: {"moments": 2, "simulate": 2, "simulate-dist": 1, "compare": 1},
}
COMPARE_GRID = 4096  # k-points of the asymptotic prediction in compare

# spectral: Brillouin-zone quadrature.  Random-coin cases per grid size, plus
# every special coin at every grid size; each case is an asymptotics request
# followed by a weak-limit request.
SPECTRAL_CASES = {4096: 7, 65536: 4, 262144: 5}
SPECTRAL_BINS = 256
SPECIAL_COINS = {
    # band touchings at k = 0 and k = +-pi
    "identity": [{"axis": [0.0, 0.0, 1.0], "angle_rad": 0.0}],
    # the non-spreading exp(ig) sigma_x family
    "sigma_x": [{"axis": [1.0, 0.0, 0.0], "angle_deg": 90.0}],
    # paper_xy at theta = phi = 90deg: deterministic drift
    "paper_xy_90": [
        {"axis": [0.0, 1.0, 0.0], "angle_deg": 90.0},
        {"axis": [1.0, 0.0, 0.0], "angle_deg": 90.0},
    ],
}

# survey: gap scan and band export.  (grid - 1) divisible by 4 puts the
# closure points on grid nodes ("aligned"); the others do not, and at this
# commit report fewer than 13 closures (a known defect, counted as failed).
GAPSCAN_GRIDS = (721, 1441, 2001, 2881, 722, 723, 1000)
GAPSCAN_MAP_GRIDS = (721, 1000)  # these also write --map-out
MAP_GRID = 181
DISPERSION_COUNTS = {4096: 3, 8192: 7, 16384: 3}


def _interleave(groups: list[list]) -> list:
    """Round-robin over the groups, so each part of a batch mixes all sizes."""
    out, groups = [], [list(g) for g in groups]
    while any(groups):
        for g in groups:
            if g:
                out.append(g.pop(0))
    return out


@dataclass
class Request:
    """One CLI call and what its output check needs to know."""

    id: str
    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)  # data files, relative to the work dir


@dataclass
class Batch:
    """Requests of one workload plus the coin files they read."""

    requests: list[Request]
    coins: dict[str, list[dict]]  # relative path -> axis-angle records

    def write_inputs(self, work_dir: Path) -> None:
        """Write coin files and the argv list; identical bytes for one seed."""
        for rel, records in self.coins.items():
            path = work_dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
        (work_dir / "out").mkdir(parents=True, exist_ok=True)
        listing = [asdict(r) for r in self.requests]
        (work_dir / "requests.json").write_text(json.dumps(listing, indent=2) + "\n", encoding="utf-8")


def _random_coin(rng: random.Random, n_min: int, n_max: int) -> list[dict]:
    records = []
    for _ in range(rng.randint(n_min, n_max)):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        records.append({"axis": [c / norm for c in v], "angle_rad": rng.uniform(-math.pi, math.pi)})
    return records


def _random_bloch(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)


class _Collector:
    def __init__(self):
        self.batch = Batch([], {})

    def coin(self, name: str, records: list[dict]) -> str:
        rel = f"coins/{name}.json"
        self.batch.coins[rel] = records
        return rel

    def add(self, kind: str, argv: list[str], params: dict, outputs: list[str]) -> None:
        self.batch.requests.append(Request(f"r{len(self.batch.requests):03d}", kind, argv, params, outputs))


def _walk_args(coin: str, bloch: tuple[float, float]) -> list[str]:
    return ["--coin-file", coin, f"--initial-bloch={bloch[0]!r},{bloch[1]!r}", "--output-dir", "out"]


def _exact(rng: random.Random, b: _Collector) -> None:
    jobs = _interleave(
        [[(steps, kind) for kind, n in mix.items() for _ in range(n)] for steps, mix in EXACT_MIX.items()]
    )
    for i, (steps, kind) in enumerate(jobs):
        coin = b.coin(f"c{i:03d}", _random_coin(rng, 2, 4))
        bloch = _random_bloch(rng)
        params = {"coin_file": coin, "bloch": list(bloch), "steps": steps}
        name = f"e{i:03d}"
        command = kind.split("-")[0]
        argv = [command, *_walk_args(coin, bloch), "--steps", str(steps), "--out", f"{name}.csv"]
        outputs = [f"out/{name}.csv"]
        if kind == "compare":
            argv += ["--grid-size", str(COMPARE_GRID)]
            params["grid_size"] = COMPARE_GRID
        if kind == "simulate-dist":
            argv += ["--distribution-out", f"{name}.dist.csv"]
            outputs.append(f"out/{name}.dist.csv")
        b.add(command, argv, params, outputs)


def _spectral(rng: random.Random, b: _Collector) -> None:
    cases = _interleave(
        [[(grid, None)] * n + [(grid, name) for name in SPECIAL_COINS] for grid, n in SPECTRAL_CASES.items()]
    )
    for i, (grid, special) in enumerate(cases):
        records = SPECIAL_COINS[special] if special else _random_coin(rng, 1, 4)
        coin = b.coin(f"c{i:03d}", records)
        bloch = _random_bloch(rng)
        params = {"coin_file": coin, "bloch": list(bloch), "grid_size": grid}
        name = f"s{i:03d}"
        common = [*_walk_args(coin, bloch), "--grid-size", str(grid)]
        b.add("asymptotics", ["asymptotics", *common, "--out", f"{name}.json"], params, [f"out/{name}.json"])
        b.add(
            "weak-limit",
            ["weak-limit", *common, "--bins", str(SPECTRAL_BINS), "--out", f"{name}.density.csv"],
            {**params, "bins": SPECTRAL_BINS, "pair": f"out/{name}.json"},
            [f"out/{name}.density.csv"],
        )


def _survey(rng: random.Random, b: _Collector) -> None:
    bands = [("dispersion", n) for n, count in DISPERSION_COUNTS.items() for _ in range(count)]
    jobs = _interleave([[("gapscan", g) for g in GAPSCAN_GRIDS], bands])
    for i, (kind, size) in enumerate(jobs):
        name = f"v{i:03d}"
        if kind == "gapscan":
            argv = ["gapscan", "--grid", str(size), "--output-dir", "out", "--out", f"{name}.json"]
            params = {"grid": size}
            outputs = [f"out/{name}.json"]
            if size in GAPSCAN_MAP_GRIDS:
                argv += ["--map-out", f"{name}.map.csv", "--map-grid", str(MAP_GRID)]
                params["map_grid"] = MAP_GRID
                outputs.append(f"out/{name}.map.csv")
            b.add(kind, argv, params, outputs)
        else:
            coin = b.coin(f"c{i:03d}", _random_coin(rng, 2, 4))
            argv = ["dispersion", "--coin-file", coin, "--grid-size", str(size),
                    "--output-dir", "out", "--out", f"{name}.csv"]
            b.add(kind, argv, {"coin_file": coin, "grid_size": size}, [f"out/{name}.csv"])


_GENERATORS = {"exact": _exact, "spectral": _spectral, "survey": _survey}


def make_batch(workload: str, seed: int) -> Batch:
    """The seeded request batch of ``workload``."""
    b = _Collector()
    _GENERATORS[workload](random.Random(f"{workload}:{seed}"), b)
    return b.batch


# Tiny untimed requests that run once per process before timing starts: they
# pay the lazy start-up work (drift-sign calibration, first calls into numpy)
# of each subcommand the workload uses.  Presets only, so no input files.
WARMUP = {
    "exact": [
        ["moments", "--coin", "hadamard_analog", "--steps", "16", "--out", "moments.csv"],
        ["simulate", "--coin", "hadamard_analog", "--steps", "16", "--out", "sim.csv",
         "--distribution-out", "dist.csv"],
        ["compare", "--coin", "hadamard_analog", "--steps", "16", "--out", "compare.csv"],
    ],
    "spectral": [
        ["moments", "--coin", "hadamard_analog", "--steps", "16", "--out", "moments.csv"],
        ["asymptotics", "--coin", "hadamard_analog", "--grid-size", "64", "--out", "asym.json"],
        ["weak-limit", "--coin", "hadamard_analog", "--grid-size", "64", "--bins", "32", "--out", "wl.csv"],
    ],
    "survey": [
        ["moments", "--coin", "hadamard_analog", "--steps", "16", "--out", "moments.csv"],
        ["gapscan", "--grid", "181", "--out", "gap.json"],
        ["dispersion", "--coin", "hadamard_analog", "--grid-size", "64", "--out", "band.csv"],
    ],
}
