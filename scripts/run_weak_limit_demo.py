#!/usr/bin/env python3
"""Compare the limiting velocity density against the exact walk.

For each chosen coin, bins the exact p(x, t) over v = x/t and writes it next
to the predicted density; prints the L1 distance between the two."""

import argparse
import math
from pathlib import Path

import numpy as np

from coinwalk.asymptotics import weak_limit_density
from coinwalk.coins import preset_coin
from coinwalk.export import write_csv
from coinwalk.walk import InitialCondition, moment_series
from run_spreading_survey import _BOUNDS, _int_in  # this script's directory leads sys.path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=_int_in(1, _BOUNDS["steps"][1]), default=1000)
    ap.add_argument("--bins", type=_int_in(*_BOUNDS["bins"]), default=32)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    init = InitialCondition(np.array([1.0, 0.0]))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    width = 2.0 / args.bins

    cases = {
        "hadamard_analog": preset_coin("hadamard_analog"),
        "paper_xy_quarter": preset_coin("paper_xy", theta=math.pi / 4, phi=math.pi / 4),
    }
    for name, coin in cases.items():
        vd = weak_limit_density(coin, init, bins=args.bins)
        state = moment_series(init, coin, args.steps).final
        v_bin = ((state.positions / args.steps + 1.0) / width).astype(np.int64)
        p_site = np.sum(np.abs(state.amplitudes) ** 2, axis=1)  # coin traced out
        emp = np.bincount(np.minimum(args.bins - 1, v_bin), weights=p_site, minlength=args.bins)
        l1 = float(np.abs(vd.density * width - emp).sum())
        out = outdir / f"weak_limit_{name}.csv"
        write_csv(
            out,
            ["v", "predicted_density", "empirical_density"],
            [vd.v_grid, vd.density, emp / width],
        )
        print(f"{name}: L1 distance {l1:.4f} at t={args.steps}; wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
